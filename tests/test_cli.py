import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opcalc
from opcalc import calculus as ca
from opcalc import cli, inftensor
from opcalc import family as fm


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


BASE_CONFIG = {
    "backend": {"kind": "discrete_weyl", "N": 3},
    "seed": 11,
    "tasks": [
        {"kind": "verify_sq"},
        {"kind": "quantize", "n_random": 2},
        {"kind": "dequantize", "n_random": 2},
        {"kind": "star_table", "n_random": 2},
        {"kind": "berezin", "w_index": 0, "n_random": 2},
        {"kind": "inftensor", "copies": 2},
    ],
}


def test_run_all_tasks_pass(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", BASE_CONFIG)
    out = str(tmp_path / "report.json")
    assert cli.main(["run", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    kinds = [t["kind"] for t in report["tasks"]]
    assert kinds == [t["kind"] for t in BASE_CONFIG["tasks"]]
    assert all(t["verdict"] == "pass" for t in report["tasks"])
    # timings go to stderr, never into the report
    assert "timings" not in report
    assert "in 0." in capsys.readouterr().err or True


def test_reports_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CONFIG)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_seed_changes_report(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CONFIG)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2, "--seed", "99"]) == 0
    assert (tmp_path / "r1.json").read_bytes() != (tmp_path / "r2.json").read_bytes()


def test_empty_tasks_is_validation_failure(tmp_path):
    cfg = write(tmp_path, "bad.json",
                {"backend": {"kind": "trivial"}, "tasks": []})
    assert cli.main(["run", cfg]) == cli.EXIT_VALIDATION_FAILURE


def test_metaplectic_automorphism_validation(tmp_path, capsys):
    cfg = write(tmp_path, "bad.json", {
        "backend": {"kind": "abelian_metaplectic", "orders": [2], "k": 2},
        "tasks": [{"kind": "verify_sq"}],
    })
    assert cli.main(["run", cfg]) == cli.EXIT_VALIDATION_FAILURE
    assert "automorphism" in capsys.readouterr().err


def test_parse_failure(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert cli.main(["run", str(p)]) == cli.EXIT_PARSE_FAILURE
    assert cli.main(["run", str(tmp_path / "missing.json")]) == \
        cli.EXIT_PARSE_FAILURE


def test_task_failure_exit_code(tmp_path):
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 3},
        "tasks": [{"kind": "verify_sq", "tol": 1e-30}],
    })
    assert cli.main(["run", cfg]) == cli.EXIT_TASK_FAILURE


def test_unknown_task_kind(tmp_path):
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "trivial"},
        "tasks": [{"kind": "frobnicate"}],
    })
    assert cli.main(["run", cfg]) == cli.EXIT_VALIDATION_FAILURE


def test_describe_weyl3(tmp_path, capsys):
    spec = write(tmp_path, "b.json", {"kind": "discrete_weyl", "N": 3})
    assert cli.main(["describe", spec]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"kind": "discrete_weyl", "hdim": 3, "points": 9,
                       "mass": 3.0, "exact": True, "tol": None, "b2_rank": 9}


def test_describe_trivial_and_s3(tmp_path, capsys):
    spec = write(tmp_path, "t.json", {"kind": "trivial"})
    cli.main(["describe", spec])
    summary = json.loads(capsys.readouterr().out)
    assert (summary["hdim"], summary["points"], summary["mass"]) == (1, 1, 1.0)

    spec = write(tmp_path, "s3.json",
                 {"kind": "finite_group", "preset": "s3_standard"})
    cli.main(["describe", spec])
    summary = json.loads(capsys.readouterr().out)
    assert (summary["hdim"], summary["points"], summary["b2_rank"]) == (2, 6, 4)
    assert summary["mass"] == pytest.approx(2.0)


def test_describe_table_rendering(tmp_path, capsys):
    spec = write(tmp_path, "b.json", {"kind": "discrete_weyl", "N": 2})
    assert cli.main(["describe", spec, "--table"]) == 0
    text = capsys.readouterr().out
    assert "hdim" in text and "b2_rank" in text


def test_star_table_payload(tmp_path):
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 2},
        "seed": 3,
        "tasks": [{"kind": "star_table", "n_random": 2}],
    })
    out = str(tmp_path / "r.json")
    assert cli.main(["run", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    table = report["tasks"][0]["table"]
    assert len(table) == 2 and len(table[0]) == 2
    assert len(table[0][0]["re"]) == 4   # dense values on the 4-point space


def test_quantize_roundtrip_through_serialization(tmp_path):
    # feed explicit serialized symbols through quantize, read operators back
    import opcalc as oc
    from opcalc import core
    fam = oc.discrete_weyl(2)
    rng = np.random.default_rng(5)
    f = oc.random_symbol(rng, fam.space)
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 2},
        "tasks": [{"kind": "quantize", "symbols": [core.symbol_to_json(f)]}],
    })
    out = str(tmp_path / "r.json")
    assert cli.main(["run", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    T = core.operator_from_json(report["tasks"][0]["operators"][0])
    q = oc.build_quantizer(fam)
    assert np.abs(T - oc.quantize(q, f)).max() < 1e-12


def test_console_entry_point(tmp_path):
    # `python -m opcalc.cli` in a clean environment: the __main__ guard runs
    # main() and exits with its return code. The child sees only the thread
    # cap and the path of the opcalc tree this suite imported (src/ or an
    # installed copy); the installed `opcalc` console script is not checked.
    spec = write(tmp_path, "b.json", {"kind": "discrete_weyl", "N": 2})
    source_root = str(Path(opcalc.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "opcalc.cli", "describe", spec],
        capture_output=True, text=True, env={"PATH": "/usr/bin:/bin",
                                             "OPCALC_THREADS": "1",
                                             "PYTHONPATH": source_root})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["hdim"] == 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads the thread count from Linux procfs")
def test_thread_cap_holds_when_opcalc_is_imported_first():
    # BLAS sizes its thread pool when numpy is first imported, so the cap must
    # be in place by then; the child has no BLAS variables of its own
    code = ("import opcalc\nimport numpy as np\na = np.ones((600, 600))\na @ a\n"
            "print(open('/proc/self/status').read())")
    source_root = str(Path(opcalc.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={"PATH": "/usr/bin:/bin",
                                          "OPCALC_THREADS": "1",
                                          "PYTHONPATH": source_root})
    assert proc.returncode == 0, proc.stderr
    assert "Threads:\t1\n" in proc.stdout


def test_inftensor_six_copies_builds_no_level_stack(tmp_path, monkeypatch):
    def refuse(self, N):
        raise AssertionError("the dense level stack is a test reference only")

    monkeypatch.setattr(inftensor.RestrictedProduct, "level_stack", refuse)
    cfg = write(tmp_path, "cfg.json", {"backend": {"kind": "discrete_weyl", "N": 2},
                                       "tasks": [{"kind": "inftensor", "copies": 6}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    task = json.loads(out.read_text())["tasks"][0]
    assert task["verdict"] == "pass"
    assert [row["N"] for row in task["rows"]] == [1, 2, 3, 4, 5, 6]


def test_verify_sq_report_names_worst_witness(tmp_path):
    # hdim 16: the exact certificate covers all 16^4 basis quadruples, and the
    # report names the worst one instead of listing them
    cfg = write(tmp_path, "cfg.json", {"backend": {"kind": "discrete_weyl", "N": 16},
                                       "seed": 5, "tasks": [{"kind": "verify_sq"}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    task = json.loads(out.read_text())["tasks"][0]
    assert task["verdict"] == "pass"
    report = task["report"]
    assert report["mode"] == "basis" and "pairs" not in report
    assert report["tested_pairs"] == 16 ** 4
    assert len(report["worst"]["quadruple"]) == 4
    assert report["worst"]["residual"] == report["max_deviation"] < 1e-10
    assert len(json.dumps(task, sort_keys=True, separators=(",", ":"))) < 4096


def test_sq_certificate_computed_once_per_family(tmp_path, monkeypatch):
    calls = []
    real_gram = fm._basis_gram
    monkeypatch.setattr(fm, "_basis_gram",
                        lambda fam: calls.append(fam.hdim) or real_gram(fam))
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 16}, "seed": 3,
        "tasks": [{"kind": "verify_sq"}, {"kind": "quantize", "n_random": 2},
                  {"kind": "dequantize", "n_random": 2},
                  {"kind": "star_table", "n_random": 2},
                  {"kind": "berezin", "n_random": 2}]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r.json")]) == 0
    assert calls == [16]

    # the tolerance is applied per call, never cached with the witness
    fam = opcalc.discrete_weyl(3)
    assert not fm.verify_sq(fam, tol=1e-30).passed
    assert fm.verify_sq(fam).passed
    assert calls == [16, 3]


def test_three_point_kernel_built_once_per_star_table(tmp_path, monkeypatch):
    calls = []
    real_kernel = ca._three_point_kernel
    monkeypatch.setattr(ca, "_three_point_kernel",
                        lambda q: calls.append(q.fam.hdim) or real_kernel(q))
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 4}, "seed": 3,
        "tasks": [{"kind": "star_table", "n_random": 3, "check_explicit": True}]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["tasks"][0]["explicit_residual"] < 1e-10
    assert calls == [4]           # nine explicit products, one kernel


WEYL3 = {"kind": "discrete_weyl", "N": 3}


@pytest.mark.parametrize("config, message", [
    ({"backend": WEYL3, "seed": True, "tasks": [{"kind": "verify_sq"}]}, "seed"),
    ({"backend": WEYL3, "tasks": [{"kind": "berezin", "w_index": 7}]}, "w_index"),
    ({"backend": WEYL3, "tasks": [{"kind": "quantize", "n_random": -2}]}, "n_random"),
    ({"backend": WEYL3, "tasks": [{"kind": "verify_sq"}, {"kind": "quantize"}]},
     "quantize needs 'symbols' or 'n_random'"),
    ({"backend": WEYL3, "tasks": [{"kind": "verify_sq"},
                                  {"kind": "star_table", "symbols": []}]},
     "star_table needs 'symbols' or 'n_random'"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "grids": [33]}]}, "grids"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "sq_trials": 0}]},
     "sq_trials"),
    ({"backend": WEYL3, "tol": "abc", "tasks": [{"kind": "verify_sq"}]}, "tol"),
    ({"backend": WEYL3, "tasks": [{"kind": "inftensor", "copies": 0}]}, "copies"),
    ({"backend": {"kind": "trivial"}, "tasks": [{"kind": "inftensor", "copies": 13}]},
     "copies"),                  # more factors than build_restricted allows
    ({"backend": WEYL3, "tasks": [{"kind": "inftensor", "copies": 8}]},
     "copies"),                  # 3**8 exceeds the restricted-product dimension cap
    ({"backend": WEYL3, "tasks": [{"kind": ["verify_sq"]}]}, "unknown kind"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "L": -1}]},
     "L must be a positive number"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "L": "abc"}]},
     "L must be a positive number"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "amplitude": float("nan")}]},
     "amplitude must be a finite real number"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "sigma": [1]}]},
     "sigma must be a positive number or a pair"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "sigma": [1, -3]}]},
     "sigma must be a positive number or a pair"),
    ({"backend": WEYL3, "tasks": [{"kind": "star_table", "n_random": 2,
                                   "check_explicit": "no"}]}, "check_explicit"),
    ({"backend": WEYL3, "tol": float("inf"), "tasks": [{"kind": "verify_sq"}]}, "tol"),
])
def test_bad_task_input_is_validation_failure(tmp_path, capsys, config, message):
    cfg = write(tmp_path, "cfg.json", config)
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_VALIDATION_FAILURE
    err = capsys.readouterr().err
    assert message in err
    assert "[opcalc] task" not in err   # rejected before any task ran
    assert not out.exists()


def test_describe_incomplete_spec_is_validation_failure(tmp_path, capsys):
    spec = write(tmp_path, "backend.json", {"kind": "discrete_weyl"})
    assert cli.main(["describe", spec]) == cli.EXIT_VALIDATION_FAILURE
    assert "invalid backend spec" in capsys.readouterr().err
