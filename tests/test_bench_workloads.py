"""The benchmark runs its configs through ``cli.run_config``; a schema change
that refuses one of them turns a benchmark run into an exit-3 failure, so
tier-1 validates every config the CLI workloads generate.  It also applies
the benchmark's correctness gate: one full-scale pass of every workload is
checked against ``bench/reference.json`` as ``bench/run.py`` checks its
first pass, so a change that breaks a workload's calls or moves its pinned
outputs fails here.  The bench files are only read."""

import importlib.util
import json
from pathlib import Path

import pytest

from opcalc import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"opcalc_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scale", ["full", "smoke"])
@pytest.mark.parametrize("name", ["exact_batch", "magnetic_refine"])
def test_every_cli_workload_config_validates(name, scale):
    workloads = load_bench_module("workloads")
    for seed in (1, 7, 11):
        for config in workloads.make(name, seed, scale).configs:
            cli._validate_config(config)
            cli._validate_tasks(config["tasks"], cli._build_backend(config["backend"]))


@pytest.mark.parametrize("name", ["exact_batch", "magnetic_refine", "symbol_stream",
                                  "certify"])
def test_first_pass_matches_the_benchmark_reference(name):
    workloads, refcheck = load_bench_module("workloads"), load_bench_module("refcheck")
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)["full"][name]
    wl = workloads.make(name, 11, "full")
    wl.setup()
    raw, _ = wl.run_pass()
    results = wl.results(raw)
    flats = {op: refcheck.flatten(rec, workloads.EXACT_TOL) for op, rec in results.items()}
    assert sorted(wl.check(results)) == []
    assert sorted(set(reference) - set(flats)) == []            # none missing
    assert sorted(op for op in flats
                  if refcheck.mismatches(flats[op], reference.get(op, {}))) == []
