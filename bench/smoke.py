"""Smoke test of the benchmark: ``python3 bench/smoke.py``.

Runs every workload at the ``smoke`` scale for one second, untraced and
traced, and checks the result line: its keys, a correct verdict, and every
metric of ``BENCHMARK.json`` emitted under a valid name with its declared
unit.  Then it checks that a directory holding only ``BENCHMARK.json`` and the
benchmark's files makes the benchmark fail without printing a result.
Exits non-zero on the first problem.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--scale", "smoke")
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], where
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], float), f"{where}: {m['name']}"
    print(f"ok  {where}: {len(wanted)} metrics, {result['attempted']} checked")


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "--workload", "certify", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without src/opcalc")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)), "metric names must be unique"
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
