"""Benchmark two commits of opcalc side by side and write a BENCH file.

    python3 tools/bench_pr.py --base c18d915 --change HEAD --out BENCH_<n>.json

Each revision is exported with ``git archive`` into its own fresh directory,
and every run sets ``PYTHONDONTWRITEBYTECODE=1``, so both sides start from
the same cold bytecode cache (a cache left by an earlier test run lowers
``setup_s`` by about 25 ms).  For every workload of ``BENCHMARK.json`` the
script runs ``bench/run.py --trace 0`` in ``PAIRS`` alternating pairs, the
base first in even pairs and the change first in odd ones, all at seed
``SEED`` and at the ``run_seconds`` that ``BENCHMARK.json`` fixes.  The file
records every run, each side's median and quartiles per metric, the
environment and ``src_lines`` of each side, and per metric the pairs the
change won (lower is better for every end-to-end metric; ties count for
neither side).  It also keeps each run's ``speed_factor`` (``bench/run.py``'s
calibration kernel reference time over the kernel's median time in that run)
with its median and quartiles per side and workload, so that a drift of the
machine between two BENCH files shows.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 11


def export(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run: its metric values, check counts, env
    and speed factor."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, env=env, check=True, capture_output=True, text=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "env": info["env"],
            "speed_factor": info["speed_factor"]}


def quartiles(values) -> dict:
    """Median and quartiles of a side's values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over a side's runs."""
    return {name: quartiles([r["metrics"][name] for r in runs])
            for name in runs[0]["metrics"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--out", required=True, help="the BENCH file to write")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_pr-") as tmp:
        sides = {side: {"rev": rev, "checkout": Path(tmp) / side}
                 for side, rev in (("base", args.base), ("change", args.change))}
        for s in sides.values():
            s["commit"] = export(s["rev"], s["checkout"])
        runs = {side: {w: [] for w in workloads} for side in sides}
        for w in workloads:
            for i in range(PAIRS):
                for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                    r = run_once(sides[side]["checkout"], w, SEED, seconds)
                    runs[side][w].append(r)
                    print(f"bench_pr: {w} pair {i} {side}: "
                          + ", ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items())
                          + f", speed_factor={r['speed_factor']:.4g}", file=sys.stderr)

    report = {"seed": SEED, "seconds": seconds, "pairs": PAIRS,
              "command": "bench/run.py --trace 0, PYTHONDONTWRITEBYTECODE=1",
              "sides": {}, "change_vs_base": {}}
    for side, s in sides.items():
        first = runs[side][workloads[0]][0]
        report["sides"][side] = {
            "rev": s["rev"], "commit": s["commit"], "env": first["env"],
            "src_lines": first["env"]["src_lines"],
            "workloads": {w: {"summary": summarize(rs),
                              "all_correct": all(r["correct"] for r in rs),
                              "failed": sum(r["failed"] for r in rs),
                              "runs": [r["metrics"] for r in rs],
                              "speed_factor": quartiles([r["speed_factor"] for r in rs]),
                              "speed_factors": [r["speed_factor"] for r in rs]}
                          for w, rs in runs[side].items()}}
    for w in workloads:
        base, change = runs["base"][w], runs["change"][w]
        report["change_vs_base"][w] = {
            name: {"change_wins": sum(c["metrics"][name] < b["metrics"][name]
                                      for b, c in zip(base, change)),
                   "base_wins": sum(c["metrics"][name] > b["metrics"][name]
                                    for b, c in zip(base, change)),
                   "median_change_pct": 100.0 * (
                       report["sides"]["change"]["workloads"][w]["summary"][name]["median"]
                       / report["sides"]["base"]["workloads"][w]["summary"][name]["median"]
                       - 1.0)}
            for name in base[0]["metrics"]}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
