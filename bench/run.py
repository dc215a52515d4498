"""Run one workload of the opcalc benchmark and print its metrics.

    python3 bench/run.py --workload exact_batch --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; only that checkout's ``src/opcalc`` is
used, single-threaded.  The run sets the workload up once, then repeats
timed passes over the same seed-generated inputs until ``--seconds`` would be
exceeded.  Between passes it times ``setup_s`` in cold interpreters, spread
evenly over the run.  Every pass's outputs are checked: the first against
``reference.json`` and against identities recomputed by independent routes,
later ones against the first.

The machine's speed drifts by up to 1.5x in phases of seconds to minutes.  So
a fixed calibration kernel that does not touch opcalc runs after every
untraced pass and every set-up probe, and the untraced timings are reported
at the speed at which that kernel takes ``CALIBRATION_REF_S``: measured time
times ``CALIBRATION_REF_S`` over the kernel's median time in the run.  The
raw times and the kernel times are in the info line.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced passes.  ``--trace 1`` alternates untraced and traced passes,
reports the per-layer metrics and writes every span to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.  The last line of standard
output is always the result object; the line before it records the
environment.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

ROOT = env.bootstrap()

import numpy as np  # noqa: E402  (numpy and opcalc only after the thread cap)

import refcheck  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11

#: seconds the calibration kernel takes on a 2-core x86-64 virtual machine
#: (Python 3.11, numpy 2.4, OpenBLAS, one thread) in its fast phases
CALIBRATION_REF_S = 0.0125
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.standard_normal((64, 64))
_CAL_V = np.linspace(0.0, 1.0, 1 << 18)
_CAL_W = _CAL_RNG.standard_normal(576)
_CAL_S = _CAL_RNG.standard_normal((576, 24, 24)) * (1 + 1j)


def calibration_s() -> float:
    """Mean seconds of two runs of the calibration kernel."""
    return (_calibration_kernel() + _calibration_kernel()) / 2


def _calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter, small BLAS, streaming and
    cache-sized work, the kinds of work the workloads are made of."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    m = _CAL_A
    for _ in range(30):
        m = np.tanh(m @ _CAL_A * 0.01)
    for _ in range(10):
        acc += float((_CAL_V * 1.0001 + 1.0).sum())
    for _ in range(6):
        np.einsum("s,sij->ij", _CAL_W, _CAL_S)
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("exact_batch", "magnetic_refine", "symbol_stream", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every size (used by smoke.py)")
    return p.parse_args(argv)


def time_setup(workload: str, seed: int, scale: str) -> float:
    """Seconds from launching a fresh interpreter until its set-up is done."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           workload, str(seed), scale],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def load_reference(workload: str, scale: str) -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[scale][workload]


def metric_specs(key: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


class Passes:
    """Timings and check counts of the passes of one run."""

    def __init__(self):
        self.walls = {False: [], True: []}   # keyed by "traced"
        self.latencies = []                  # per untraced pass, seconds per operation
        self.counters = []                   # per pass, CLI workloads only
        self.unattributed = []               # per traced pass
        self.setup = []                      # set-up probes, seconds
        self.speed = [calibration_s()]       # calibration kernel, seconds
        self.attempted = 0
        self.failed = 0


def run_passes(wl, reference: dict, seconds: float, tracer, probe=None) -> Passes:
    """Repeat passes until the next one would end after ``seconds``.

    A traced run alternates untraced and traced passes.  The first pass is
    checked against the reference and the workload's own checks, every later
    one against the first.  ``probe``, if given, times one cold set-up; it
    runs between passes, ``SETUP_PROBES`` times in all, spread over the run.
    The calibration kernel runs after every untraced pass and every probe.
    """
    out = Passes()

    def time_probe():
        out.setup.append(probe())
        out.speed.append(calibration_s())

    first = None
    start = time.perf_counter()
    n = 0
    while True:
        iteration_start = time.perf_counter()
        traced = bool(tracer) and n % 2 == 1
        if traced:
            tracer.label = n
            tracer.install()
        t0 = time.perf_counter()
        raw, lat = wl.run_pass()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            out.unattributed.append(wall - tr.aggregate(tracer.spans, n)["top_level_s"])
        else:
            out.speed.append(calibration_s())
            out.latencies.append(lat)
        out.walls[traced].append(wall)
        if isinstance(wl, workloads.CliWorkload):
            out.counters.append(wl.counters(raw))

        results = wl.results(raw)
        flats = {op: refcheck.flatten(rec, workloads.EXACT_TOL)
                 for op, rec in results.items()}
        if first is None:
            bad = set(wl.check(results))
            bad |= {op for op in flats
                    if refcheck.mismatches(flats[op], reference.get(op, {}))}
            out.failed += len(set(reference) - set(flats))
            first = flats
        else:
            bad = {op for op in flats
                   if op not in first or refcheck.mismatches(flats[op], first[op])}
        out.attempted += len(flats)
        out.failed += len(bad)
        for op in sorted(bad):
            print(f"bench: pass {n}: {op} disagrees with its reference", file=sys.stderr)
        n += 1
        while probe and len(out.setup) < min(
                SETUP_PROBES, SETUP_PROBES * (time.perf_counter() - start) / seconds):
            time_probe()

        now = time.perf_counter()
        if n >= (2 if tracer else 1) and \
                now - start + (now - iteration_start) > seconds:
            while probe and len(out.setup) < SETUP_PROBES:
                time_probe()
            return out


def speed_factor(passes: Passes) -> float:
    """Scales the run's timings to the speed at which the kernel takes
    ``CALIBRATION_REF_S``."""
    return CALIBRATION_REF_S / statistics.median(passes.speed)


def untraced_metrics(passes: Passes) -> dict:
    """Timings at calibration speed.  Latency percentiles are taken per pass,
    then the median over passes, so that a pass caught in a slow phase of the
    machine cannot set the tail."""
    factor = speed_factor(passes)

    def op_ms(q):
        return statistics.median(float(np.percentile(lat, q))
                                 for lat in passes.latencies) * 1e3 * factor

    return {
        "wall_s": statistics.median(passes.walls[False]) * factor,
        "setup_s": statistics.median(passes.setup) * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": op_ms(50),
        "op_p95_ms": op_ms(95),
    }


def traced_metrics(passes: Passes, tracer) -> dict:
    labels = sorted({s[tr.LABEL] for s in tracer.spans} - {"setup"})
    per_pass = [tr.aggregate(tracer.spans, label) for label in labels]
    names = {k for agg in per_pass for k in agg}
    values = {k: statistics.median(agg.get(k, 0.0) for agg in per_pass)
              for k in names}
    values.update({f"setup.{k}": v
                   for k, v in tr.aggregate(tracer.spans, "setup").items()})
    for key in ("cli.report_bytes", "cli.task_errors"):
        values[key] = statistics.median(c[key] for c in passes.counters) \
            if passes.counters else 0.0
    # each traced pass against the untraced pass just before it, which ran
    # in the same phase of the machine
    values["trace.overhead_ratio"] = statistics.median(
        t / u for u, t in zip(passes.walls[False], passes.walls[True]))
    values["trace.unattributed_s"] = statistics.median(passes.unattributed)
    values["src_lines"] = float(env.src_lines())
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    reference = load_reference(args.workload, args.scale)
    wl = workloads.make(args.workload, args.seed, args.scale)
    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.label = "setup"
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()

    probe = None if tracer else \
        (lambda: time_setup(args.workload, args.seed, args.scale))
    passes = run_passes(wl, reference, args.seconds, tracer, probe)
    if tracer:
        values = traced_metrics(passes, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed,
                      "env": env.environment()})
    else:
        values = untraced_metrics(passes)

    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in values:
            # allowed only for a traced callable this workload never called
            span = name.removeprefix("setup.").rsplit(".", 1)[0]
            if not tracer or span not in tracer.names:
                raise SystemExit(f"bench: metric {name} is not measured")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}

    info = {"env": env.environment(), "workload": args.workload, "seed": args.seed,
            "scale": args.scale,
            "pass_wall_s": {"untraced": passes.walls[False], "traced": passes.walls[True]},
            "ops_timed": sum(map(len, passes.latencies)),
            "setup_samples_s": passes.setup,
            "calibration_s": passes.speed,
            "speed_factor": speed_factor(passes)}
    if passes.counters:
        # the known SqReport.to_json defect shows here as error verdicts
        info["cli_task_error_verdicts_per_pass"] = passes.counters[0]["cli.task_errors"]
    print(json.dumps(info))
    print(json.dumps({"correct": passes.failed == 0, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
