"""The benchmark's tracer patches names in ``src/``; a rename there breaks
every traced benchmark run, so tier-1 checks the names it expects."""

import importlib.util
from pathlib import Path

from opcalc import inftensor, magnetic

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("opcalc_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_library_and_uninstalls():
    originals = (magnetic.MagneticBackend.__dict__["family"],
                 inftensor.RestrictedProduct.__dict__["level_stack"])
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert {"magnetic.family", "inftensor.level_stack"} <= tracer.names
    assert (magnetic.MagneticBackend.__dict__["family"],
            inftensor.RestrictedProduct.__dict__["level_stack"]) == originals
