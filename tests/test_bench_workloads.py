"""The benchmark runs its configs through ``cli.run_config``; a schema change
that refuses one of them turns a benchmark run into an exit-3 failure, so
tier-1 validates every config the CLI workloads generate."""

import importlib.util
from pathlib import Path

import pytest

from opcalc import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("opcalc_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scale", ["full", "smoke"])
@pytest.mark.parametrize("name", ["exact_batch", "magnetic_refine"])
def test_every_cli_workload_config_validates(name, scale):
    workloads = load_workloads()
    for seed in (1, 7, 11):
        for config in workloads.make(name, seed, scale).configs:
            cli._validate_config(config)
            cli._validate_tasks(config["tasks"], cli._build_backend(config["backend"]))
