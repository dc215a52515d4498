"""Print the exit code and sha256 of each benchmark report one revision writes,
and the sha256 of each benchmark backend's ``describe`` summary.

    python3 tools/report_hashes.py HEAD~1 > base.txt
    python3 tools/report_hashes.py HEAD > change.txt
    diff base.txt change.txt

The revision is exported with ``git archive`` (``bench_pr.export``) into a
fresh directory.  A child interpreter there imports that checkout's
``src/opcalc`` through ``bench/env.py`` (one thread) and runs the six
``exact_batch`` configs and the ``magnetic_refine`` config of
``bench/workloads.py`` through ``cli.run_config`` at seeds 1, 7 and 11: 21
reports.  Each printed line holds the workload, seed, config index, exit code
and the sha256 of the report.  The configs of ``EXTRA_CONFIGS``, which run
family tasks on grid families or leave a parameter at its default, print one
such line each.  Then, per config
(the backends do not depend on the seed), it prints the sha256 of
``json.dumps(cli._describe_backend(cfg["backend"]), sort_keys=True)``, the
summary ``opcalc describe`` prints, which carries the derived ``exact`` and
``tol`` fields.  For the backends of ``EXTRA_DESCRIBED``, which no workload
builds, it prints each field of that summary on its own line, so a diff names
the field that moved.  Last, for the library workloads ``symbol_stream`` and
``certify`` at the same seeds, it runs ``setup`` and the first ``run_pass``
and prints the sha256 of each operation's outputs: arrays are hashed by
dtype, shape and bytes, every other value by its ``repr``, dict keys in
sorted order.  Two revisions that compute the same numbers print the same
lines.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pr import export

WORKLOADS = ("exact_batch", "magnetic_refine")
LIBRARY_WORKLOADS = ("symbol_stream", "certify")
SEEDS = (1, 7, 11)
#: Backends beyond the workloads': a grid whose float mass is not n (6), two
#: grids above 64 (66, 128), which ``describe`` reads by their certificate as it
#: reads every grid, and the largest exact families the tests and the benchmark build.
EXTRA_DESCRIBED = (
    {"kind": "magnetic_weyl", "n": 6, "L": 12.0},
    {"kind": "magnetic_weyl", "n": 66, "L": 12.0},
    {"kind": "magnetic_weyl", "n": 128, "L": 12.0},
    {"kind": "discrete_weyl", "N": 30},
    {"kind": "abelian_metaplectic", "orders": [27], "k": 2},
)

#: Family tasks on grid families built as their blocks, which no workload runs
#: (``magnetic_refine`` runs only ``dequantize``), and an ``inftensor`` task whose
#: default ``copies`` is above the level cap on Weyl 16; each at its one seed.
EXTRA_CONFIGS = (
    {"backend": {"kind": "magnetic_weyl", "n": 32, "L": 12.0}, "seed": 1,
     "tasks": [{"kind": "inftensor", "copies": 1}, {"kind": "berezin", "n_random": 2},
               {"kind": "quantize", "n_random": 2}]},
    {"backend": {"kind": "magnetic_weyl", "n": 8, "L": 12.0}, "seed": 1,
     "tasks": [{"kind": "star_table", "n_random": 2}]},
    {"backend": {"kind": "magnetic_weyl", "n": 66, "L": 12.0}, "seed": 1,
     "tasks": [{"kind": "verify_sq"}] + [{"kind": kind, "n_random": 2} for kind in (
         "quantize", "dequantize", "star_table", "berezin")]},
    {"backend": {"kind": "discrete_weyl", "N": 16}, "seed": 1,
     "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor"}]},
)

CHILD = f"""
import contextlib, hashlib, io, json, sys
sys.path.insert(0, "bench")
import env
env.bootstrap()
import numpy as np
import workloads
from opcalc import cli

def feed(h, value):
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(repr(key).encode())
            feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            feed(h, item)
        h.update(b"]")
    elif isinstance(value, np.ndarray):
        h.update(f"{{value.dtype.str}}{{value.shape}}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())

def run(cfg):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run_config(cfg, None)
        except (cli.ConfigError, ValueError):   # as cli.main: refused before any task
            code = cli.EXIT_VALIDATION_FAILURE
    return f"exit={{code}} sha256={{hashlib.sha256(out.getvalue().encode()).hexdigest()}}"
for name in {WORKLOADS!r}:
    for seed in {SEEDS!r}:
        for i, cfg in enumerate(workloads.make(name, seed).configs):
            print(f"{{name}} seed={{seed}} config={{i}} {{run(cfg)}}")
for i, cfg in enumerate({EXTRA_CONFIGS!r}):
    print(f"extra seed={{cfg['seed']}} config={{i}} {{run(cfg)}}")
for name in {WORKLOADS!r}:
    for i, cfg in enumerate(workloads.make(name, {SEEDS[0]!r}).configs):
        summary = json.dumps(cli._describe_backend(cfg["backend"]), sort_keys=True)
        digest = hashlib.sha256(summary.encode()).hexdigest()
        print(f"{{name}} describe config={{i}} sha256={{digest}}")
for spec in {EXTRA_DESCRIBED!r}:
    summary = cli._describe_backend(spec)
    for key in sorted(summary):
        print(f"describe {{json.dumps(spec, sort_keys=True)}} {{key}}={{summary[key]!r}}")
for name in {LIBRARY_WORKLOADS!r}:
    for seed in {SEEDS!r}:
        work = workloads.make(name, seed)
        work.setup()
        for op, out in work.results(work.run_pass()[0]).items():
            h = hashlib.sha256()
            feed(h, out)
            print(f"{{name}} seed={{seed}} op={{op}} sha256={{h.hexdigest()}}")
"""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("rev", help="git revision whose reports to hash")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report_hashes-") as tmp:
        checkout = Path(tmp) / "checkout"
        commit = export(args.rev, checkout)
        print(f"# {args.rev} = {commit}")
        sys.stdout.flush()
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, "-c", CHILD], cwd=checkout, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
