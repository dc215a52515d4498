import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import opcalc
from opcalc import backends as bk
from opcalc import calculus as ca
from opcalc import cli, inftensor, magnetic
from opcalc import family as fm

from conftest import refuse_dense_views


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
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == len(kinds)
    for i, (kind, line) in enumerate(zip(kinds, lines)):
        assert re.fullmatch(rf"\[opcalc\] task {i} \({kind}\): pass in \d+\.\d+s", line)


def test_reports_are_byte_identical(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CONFIG)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", cfg, "--out", out2]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_seed_changes_report(tmp_path):
    cfg = write(tmp_path, "cfg.json", BASE_CONFIG)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    reseeded = write(tmp_path, "reseeded.json", dict(BASE_CONFIG, seed=99))
    assert cli.main(["run", cfg, "--out", out1]) == 0
    assert cli.main(["run", reseeded, "--out", out2]) == 0
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
        "backend": {"kind": "discrete_weyl", "N": 3}, "tol": 1e-30,
        "tasks": [{"kind": "verify_sq"}],
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
                       "mass": 3.0, "exact": True, "tol": None, "b2_rank": 9,
                       "sq_deviation": fm.verify_sq(bk.discrete_weyl(3)).max_deviation,
                       "coefficient_blocks": 3}


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
    assert summary["coefficient_blocks"] == 1        # dense: the one-block route


DESCRIBED = [
    {"kind": "trivial"},
    {"kind": "discrete_weyl", "N": 3},
    {"kind": "discrete_weyl", "N": 6},
    {"kind": "finite_group", "preset": "s3_standard"},
    {"kind": "finite_group", "preset": "s3_sign"},
    {"kind": "finite_group", "preset": "cyclic_character", "order": 5, "k": 2},
    {"kind": "abelian_metaplectic", "orders": [5], "k": 2},
    {"kind": "abelian_metaplectic", "orders": [3, 3], "k": 1},
    {"kind": "magnetic_weyl", "n": 8, "L": 12.0},
    {"kind": "magnetic_weyl", "n": 32, "L": 12.0},
    {"kind": "magnetic_weyl", "n": 128, "L": 12.0},
]


@pytest.mark.parametrize("backend", DESCRIBED, ids=lambda b: "-".join(map(str, b.values())))
def test_describe_rank_is_the_svd_rank(tmp_path, capsys, backend):
    # describe reads hdim^2 off the passing gate instead of running the SVD
    assert cli.main(["describe", write(tmp_path, "b.json", backend)]) == 0
    summary = json.loads(capsys.readouterr().out)
    built = bk.backend_from_spec(backend)
    if backend["kind"] == "magnetic_weyl" and built.n > 64:
        # too large to materialize: n shift classes, a full range
        assert (summary["b2_rank"], summary["coefficient_blocks"]) == (built.n ** 2, built.n)
        return
    fam = built.family() if backend["kind"] == "magnetic_weyl" else built
    assert summary["b2_rank"] == ca.build_quantizer(fam).b2_rank
    assert summary["coefficient_blocks"] == len(fam.blocks[0])


@pytest.mark.parametrize("backend", [{"kind": "discrete_weyl", "N": 3},
                                     {"kind": "magnetic_weyl", "n": 32, "L": 12.0}],
                         ids=["weyl3", "magnetic32"])
def test_describe_reports_the_sq_deviation(tmp_path, capsys, backend):
    assert cli.main(["describe", write(tmp_path, "b.json", backend)]) == 0
    deviation = json.loads(capsys.readouterr().out)["sq_deviation"]
    built = bk.backend_from_spec(backend)
    if backend["kind"] == "magnetic_weyl":
        assert deviation == built.sq_certificate()
        built = built.family()
    assert deviation == pytest.approx(fm.verify_sq(built).max_deviation, abs=1e-14)
    assert 0 <= deviation < 1e-14


def test_describe_rejects_a_magnetic_grid_that_fails_its_certificate(
        tmp_path, capsys, monkeypatch):
    spec = write(tmp_path, "b.json", {"kind": "magnetic_weyl", "n": 128, "L": 12.0})
    monkeypatch.setattr(magnetic.MagneticBackend, "sq_certificate", lambda self: 2e-6)
    assert cli.main(["describe", spec]) == cli.EXIT_VALIDATION_FAILURE
    assert "fails square-integrability (deviation 2.000e-06 > tol 1.0e-06)" \
        in capsys.readouterr().err


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
        raise AssertionError("the task needs neither the dense level stack "
                             "nor the labelled level spaces")

    monkeypatch.setattr(inftensor.RestrictedProduct, "level_stack", refuse)
    monkeypatch.setattr(inftensor.RestrictedProduct, "level_space", refuse)
    cfg = write(tmp_path, "cfg.json", {"backend": {"kind": "discrete_weyl", "N": 2},
                                       "tasks": [{"kind": "inftensor", "copies": 6}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    task = json.loads(out.read_text())["tasks"][0]
    assert task["verdict"] == "pass"
    assert [row["N"] for row in task["rows"]] == [1, 2, 3, 4, 5, 6]


def test_inftensor_sweeps_each_vector_once_per_level(tmp_path, monkeypatch):
    # one sweep of the product vector yields every level for both the Berezin
    # gap and its defect, and one more the witness's; the report equals the
    # public functions, which sweep separately
    calls = []
    real = inftensor.RestrictedProduct.levels
    monkeypatch.setattr(inftensor.RestrictedProduct, "levels",
                        lambda rp, u: calls.append(tuple(u)) or real(rp, u))
    cfg = write(tmp_path, "cfg.json", {"backend": {"kind": "discrete_weyl", "N": 3},
                                       "tasks": [{"kind": "inftensor", "copies": 3}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["tasks"][0]["rows"]
    assert len(calls) == 2 == len(set(calls))
    assert len(rows) == 3
    fam = opcalc.discrete_weyl(3)
    rp = inftensor.build_restricted([(fam, 0, np.eye(3)[0])] * 3)
    pv = rp.embed(np.ones(1, dtype=complex), 0)
    for row in rows:
        N, space = row["N"], rp.level_space(row["N"])
        ones = opcalc.Symbol(space, np.ones(space.npoints))
        gap = opcalc.op_norm(inftensor.berezin_truncated(rp, N, pv, ones) - np.eye(27))
        assert row["omega_identity_gap"] == gap
        assert row["defect_product_vector"] == inftensor.sq_defect(rp, N, pv, pv)


def test_quantize_task_maps_each_symbol_once(tmp_path, monkeypatch):
    calls = {"quantize": 0, "project_b2": 0}
    for name in calls:
        real = getattr(ca, name)
        monkeypatch.setattr(ca, name, lambda q, f, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(q, f))
    cfg = write(tmp_path, "cfg.json", {"backend": {"kind": "discrete_weyl", "N": 3},
                                       "seed": 4,
                                       "tasks": [{"kind": "quantize", "n_random": 3}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert calls == {"quantize": 3, "project_b2": 3}
    monkeypatch.undo()
    # the residual is bitwise the per-pair formula it replaced
    q = ca.build_quantizer(opcalc.discrete_weyl(3))
    rng = np.random.default_rng(4)
    symbols = [opcalc.random_symbol(rng, q.space) for _ in range(3)]
    residual = max(abs(ca.trace_pairing(q, f, g) - opcalc.l2_inner(
        ca.project_b2(q, f), ca.project_b2(q, g))) for f in symbols for g in symbols)
    assert json.loads(out.read_text())["tasks"][0]["isometry_residual"] == residual


FAMILY_TASKS = [{"kind": "verify_sq"}] + [
    {"kind": kind, "n_random": 3} for kind in ("quantize", "dequantize", "star_table")]


def traced_peak(call):
    """(result, peak bytes traced by tracemalloc) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, small", [
    ({"kind": "magnetic_weyl", "n": 32, "L": 12.0}, {"kind": "magnetic_weyl", "n": 8, "L": 12.0}),
    ({"kind": "discrete_weyl", "N": 16}, {"kind": "discrete_weyl", "N": 4}),
], ids=["magnetic32", "weyl16"])
def test_family_tasks_form_no_dense_stack(spec, small):
    # a monomial family is built and read as its blocks, hdim times smaller
    # than the (m, d, d) stack; the small run keeps one-time imports out
    for task in FAMILY_TASKS:
        backend = cli._build_backend(small)
        cli._run_task(cli._validate_tasks([task], backend)[0], backend, None,
                      np.random.default_rng(0))
    for task in FAMILY_TASKS:
        backend = cli._build_backend(spec)   # a grid builds its family in the task
        task = cli._validate_tasks([task], backend)[0]
        m, d = (backend.n ** 2, backend.n) if spec["kind"] == "magnetic_weyl" \
            else (backend.npoints, backend.hdim)
        result, peak = traced_peak(
            lambda: cli._run_task(task, backend, None, np.random.default_rng(0)))
        assert result["verdict"] == "pass"
        assert peak < m * d * d * 16 / 4, task["kind"]


@pytest.mark.parametrize("spec, small", [
    ({"kind": "magnetic_weyl", "n": 32, "L": 12.0}, {"kind": "magnetic_weyl", "n": 8, "L": 12.0}),
    ({"kind": "discrete_weyl", "N": 16}, {"kind": "discrete_weyl", "N": 4}),
], ids=["magnetic32", "weyl16"])
def test_berezin_task_forms_no_point_by_point_array(spec, small):
    # the frame of a basis vector is held as its hdim blocks and its kernel as
    # their (r, r) diagonal blocks, so the task stays below one (m, m) array
    task = {"kind": "berezin", "n_random": 3}
    backend = cli._build_backend(small)
    cli._run_task(cli._validate_tasks([task], backend)[0], backend, None,
                  np.random.default_rng(0))
    backend = cli._build_backend(spec)
    task = cli._validate_tasks([task], backend)[0]
    m = backend.n ** 2 if spec["kind"] == "magnetic_weyl" else backend.npoints
    result, peak = traced_peak(
        lambda: cli._run_task(task, backend, None, np.random.default_rng(0)))
    assert result["verdict"] == "pass"
    assert peak < m * m * 16


def test_coefficient_and_subspace_check_form_no_dense_stack(monkeypatch):
    # the same bound for the library readers on metaplectic [27], whose stack
    # is 8.5 MB; a random 2-plane, as the benchmark's certificate checks use
    refuse_dense_views(monkeypatch)
    rng = np.random.default_rng(0)
    for orders in ([5], [27]):                 # the [5] run keeps imports out
        fam = opcalc.abelian_metaplectic(orders, k=2)
        d = fam.hdim
        u, v = opcalc.random_vector(rng, d), opcalc.random_vector(rng, d)
        plane = np.linalg.qr(opcalc.random_vector(rng, 2 * d).reshape(d, 2))[0]
        coef, coef_peak = traced_peak(lambda: opcalc.coefficient(fam, u, v))
        invariant, check_peak = traced_peak(lambda: opcalc.invariant_subspace_check(fam, plane))
    bound = fam.npoints * d * d * 16 / 4
    assert coef.values.shape == (fam.npoints,) and not invariant
    assert coef_peak < bound and check_peak < bound


@pytest.mark.parametrize("spec", [
    {"kind": "discrete_weyl", "N": 8},
    {"kind": "magnetic_weyl", "n": 8, "L": 12.0},
    {"kind": "magnetic_weyl", "n": 32, "L": 12.0},
], ids=["weyl8", "magnetic8", "magnetic32"])
def test_family_tasks_read_no_dense_view(spec, tmp_path, monkeypatch):
    # 64 points on Weyl 8 and magnetic n = 8, so star_table also runs the
    # explicit law on class pairs
    refuse_dense_views(monkeypatch)
    tasks = [{"kind": "verify_sq"}, {"kind": "quantize", "n_random": 2},
             {"kind": "dequantize", "n_random": 2}, {"kind": "star_table", "n_random": 2},
             {"kind": "berezin", "n_random": 2}]
    cfg = write(tmp_path, "cfg.json", {"backend": spec, "seed": 3, "tasks": tasks})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert [t["verdict"] for t in json.loads(out.read_text())["tasks"]] == ["pass"] * 5


def test_inftensor_task_holds_no_dense_view():
    # the task scatters the magnetic n = 32 view (n^4 entries, 16 MiB) for its
    # sweeps; once it ends, the backend's family holds only its blocks
    backend = cli._build_backend({"kind": "magnetic_weyl", "n": 32, "L": 12.0})
    (task,) = cli._validate_tasks([{"kind": "inftensor", "copies": 1}], backend)
    tracemalloc.start()
    try:
        result = cli._run_task(task, backend, None, np.random.default_rng(0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert result["verdict"] == "pass"
    assert held < 32 ** 4 * 16 / 4


def test_inftensor_without_identity_point_is_a_task_error(tmp_path):
    # no S3 operator lies within 1e-30 of the identity (pi(e) carries rounding
    # of about 1e-16): the task errors after task 0 ran, and the report is written
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "finite_group", "preset": "s3_standard"}, "tol": 1e-30,
        "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor", "copies": 2}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_TASK_FAILURE == 1
    tasks = json.loads(out.read_text())["tasks"]
    assert [t["verdict"] for t in tasks] == ["fail", "error"]
    assert "no identity point" in tasks[1]["error"]


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
    real_gram = fm._gram_blocks
    monkeypatch.setattr(fm, "_gram_blocks",
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
        "tasks": [{"kind": "star_table", "n_random": 3}]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r.json")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["tasks"][0]["explicit_residual"] < 1e-10     # 16 points: checked
    assert calls == [4]           # nine explicit products, one kernel


def test_star_table_skips_the_explicit_law_past_64_points(tmp_path, monkeypatch):
    monkeypatch.setattr(ca, "_three_point_kernel", None)      # never built
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 24}, "seed": 3,
        "tasks": [{"kind": "star_table", "n_random": 2}]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r.json")]) == 0
    task = json.loads((tmp_path / "r.json").read_text())["tasks"][0]
    assert task["verdict"] == "pass" and task["explicit_residual"] is None


def test_star_table_hashes_each_space_once(tmp_path, monkeypatch):
    from opcalc import core
    hashed = []
    real = core.space_to_json
    monkeypatch.setattr(core, "space_to_json", lambda sp: hashed.append(sp) or real(sp))
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "discrete_weyl", "N": 3}, "seed": 3,
        "tasks": [{"kind": "star_table", "n_random": 3}]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r.json")]) == 0
    table = json.loads((tmp_path / "r.json").read_text())["tasks"][0]["table"]
    assert len({f["space"] for row in table for f in row}) == 1     # nine symbols
    assert len(hashed) == 1


WEYL3 = {"kind": "discrete_weyl", "N": 3}
OVERFLOWING_A = {"kind": "magnetic_weyl", "n": 8, "L": 12.0, "A": [1e308] + [0.0] * 7}
TINY_BOX = {"kind": "magnetic_weyl", "n": 8, "L": 1e-308}


def s3_with_entry(z):
    """The S3 standard irrep spec with entry (0, 0) of element 0 set to z."""
    irrep = bk.s3_standard_irrep()
    irrep[0, 0, 0] = z
    return {"kind": "finite_group", "table": bk.s3_table()[0].tolist(),
            "irrep": {"re": irrep.real.tolist(), "im": irrep.imag.tolist()}}


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
    # the sampled SQ mode and its key are gone: a leftover key is rejected
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "sq_trials": 2}]},
     "sq_trials"),
    ({"backend": WEYL3, "tol": "abc", "tasks": [{"kind": "verify_sq"}]}, "tol"),
    ({"backend": WEYL3, "tasks": [{"kind": "inftensor", "copies": 0}]}, "copies"),
    ({"backend": {"kind": "trivial"}, "tasks": [{"kind": "inftensor", "copies": 13}]},
     "copies"),                  # more factors than build_restricted allows
    ({"backend": WEYL3, "tasks": [{"kind": "inftensor", "copies": 8}]},
     "copies"),                  # (9*3)**8 exceeds the restricted-product level cap
    ({"backend": WEYL3, "tasks": [{"kind": ["verify_sq"]}]}, "unknown kind"),
    # the study runs the one protocol its gates are set for: not even its own
    # values are keys
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "L": 12.0}]},
     "task 0 has unknown keys L (a magnetic_study task reads kind, grids)"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "amplitude": 0.8}]},
     "task 0 has unknown keys amplitude (a magnetic_study task reads kind, grids)"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "sigma": [1.0, 3.0]}]},
     "task 0 has unknown keys sigma (a magnetic_study task reads kind, grids)"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "grids": [32, 64],
                                   "sigma": 1.0}]},
     "task 0 has unknown keys sigma (a magnetic_study task reads kind, grids)"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "L": 12.0,
                                   "amplitude": 0.8, "sigma": [1.0, 3.0]}]},
     "task 0 has unknown keys L, amplitude, sigma (a magnetic_study task reads "
     "kind, grids)"),
    # no switch: star_table checks the explicit law on at most 64 points
    ({"backend": WEYL3, "tasks": [{"kind": "star_table", "n_random": 2,
                                   "check_explicit": "no"}]}, "check_explicit"),
    ({"backend": WEYL3, "tol": float("inf"), "tasks": [{"kind": "verify_sq"}]}, "tol"),
    # a 1-D grid has no field input: its 2-form vanishes, so B is not a key
    ({"backend": {"kind": "magnetic_weyl", "n": 8, "L": 12.0, "B": [0.0] * 8},
      "tasks": [{"kind": "verify_sq"}]}, "backend has unknown keys B"),
    ({"backend": {"kind": "magnetic_weyl", "n": 8, "L": float("inf")},
      "tasks": [{"kind": "verify_sq"}]}, "box length must be finite and positive"),
    # sizes are never truncated to a smaller backend
    ({"backend": {"kind": "discrete_weyl", "N": 2.7}, "tasks": [{"kind": "verify_sq"}]},
     "N must be an integer"),
    ({"backend": {"kind": "discrete_weyl", "N": True}, "tasks": [{"kind": "verify_sq"}]},
     "N must be an integer"),
    ({"backend": {"kind": "magnetic_weyl", "n": 8.9, "L": 12.0},
      "tasks": [{"kind": "verify_sq"}]}, "n must be an integer"),
    ({"backend": {"kind": "abelian_metaplectic", "orders": [5.5], "k": 1},
      "tasks": [{"kind": "verify_sq"}]}, "each of orders must be an integer"),
    ({"backend": {"kind": "abelian_metaplectic", "orders": [5], "k": 1.0},
      "tasks": [{"kind": "verify_sq"}]}, "k must be an integer"),
    ({"backend": {"kind": "finite_group", "preset": "cyclic_character", "order": 4.5},
      "tasks": [{"kind": "verify_sq"}]}, "order must be an integer"),
    ({"backend": {"kind": "finite_group", "preset": "cyclic_character", "order": 4,
                  "k": 1.5}, "tasks": [{"kind": "verify_sq"}]}, "k must be an integer"),
    # Python's json reads Infinity, which would make every magnetic check pass
    ({"backend": {"kind": "magnetic_weyl", "n": 8, "L": 12.0, "tol": float("inf")},
      "tasks": [{"kind": "verify_sq"}]}, "tolerance must be finite and positive"),
    ({"backend": {"kind": "magnetic_weyl", "n": 8, "L": 12.0, "tol": "1e-6"},
      "tasks": [{"kind": "verify_sq"}]}, "tol must be a number"),
    # the refinement verdict reads consecutive grids as coarse -> fine
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "grids": [64, 32]}]},
     "grids must be a nonempty, strictly increasing list"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "grids": [32, 32]}]},
     "grids must be a nonempty, strictly increasing list"),
    # a key no task reads is rejected, not silently ignored
    ({"backend": WEYL3, "tasks": [{"kind": "verify_sq"},
                                  {"kind": "quantize", "n_randm": 2}]},
     "task 1 has unknown keys n_randm"),
    # given symbols and operators are read before the first task runs
    ({"backend": WEYL3, "tasks": [{"kind": "verify_sq"},
                                  {"kind": "quantize", "symbols": [{"re": [0.0] * 9}]}]},
     "task 1: unreadable symbols or operators: KeyError"),
    ({"backend": {"kind": "discrete_weyl", "N": 2},
      "tasks": [{"kind": "verify_sq"}, {"kind": "dequantize", "operators": [
          {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}]}]},
     "expected dimension 2, got 3"),
    ({"backend": WEYL3, "tasks": [{"kind": "dequantize", "operators": [
        {"dim": 2.7, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}]}]},
     "operator dim must be an integer"),
    ({"backend": {"kind": "magnetic_weyl", "n": 8, "L": 12.0},
      "tasks": [{"kind": "quantize", "symbols": [{"re": [1.0] * 63, "im": [0.0] * 63}]}]},
     "symbol needs one value per point"),
    # a given input and a random draw are never mixed, nor one silently dropped
    ({"backend": WEYL3, "tasks": [{"kind": "quantize", "n_random": 1,
                                   "symbols": [{"re": [1.0] * 9, "im": [0.0] * 9}]}]},
     "task 0: set 'symbols' or 'n_random', not both"),
    ({"backend": WEYL3, "tasks": [{"kind": "dequantize", "n_random": 1, "operators": [
        {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}]}]},
     "task 0: set 'operators' or 'n_random', not both"),
    # a grid whose blocks, n^3 entries, exceed the block-store cap runs only the study
    ({"backend": {"kind": "magnetic_weyl", "n": 130, "L": 12.0},
      "tasks": [{"kind": "magnetic_study", "grids": [8, 16]},
                {"kind": "dequantize", "n_random": 1}]},
     "task 1: dequantize runs on the grid's family, which is built only for "
     f"n^3 <= BLOCK_ENTRY_CAP = {bk.BLOCK_ENTRY_CAP}"),
    # each kind reads only its own keys: a key another kind reads is refused too
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study", "grids": [32, 64],
                                   "tol": 1e-30}]},
     "task 0 has unknown keys tol (a magnetic_study task reads kind, grids"),
    ({"backend": WEYL3, "tasks": [{"kind": "verify_sq", "copies": 5, "grids": [4]}]},
     "task 0 has unknown keys copies, grids (a verify_sq task reads kind)"),
    ({"backend": WEYL3, "tasks": [{"kind": "quantize", "n_random": 2, "w_index": 0}]},
     "task 0 has unknown keys w_index"),
    ({"backend": WEYL3, "sede": 5, "tasks": [{"kind": "verify_sq"}]},
     "config has unknown keys sede"),
    ({"backend": WEYL3, "tasks": [{"kind": "quantize", "symbols": [
        {"spcae": "0", "re": [1.0] * 9, "im": [0.0] * 9}]}]},
     "symbol has unknown keys spcae"),
    ({"backend": WEYL3, "tasks": [{"kind": "dequantize", "operators": [
        {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist(),
         "space": "0"}]}]}, "operator has unknown keys space"),
    ({"backend": {"kind": "discrete_weyl", "N": 2, "measure_scale": 3.0},
      "tasks": [{"kind": "verify_sq"}]}, "backend has unknown keys measure_scale"),
    ({"backend": {"kind": "magnetic_weyl", "n": 8, "L": 12.0, "tols": 1e-30},
      "tasks": [{"kind": "verify_sq"}]}, "backend has unknown keys tols"),
    # the run's settings live in the config alone: a task tol or a
    # check_explicit switch is refused before any family is built
    ({"backend": {"kind": "discrete_weyl", "N": 30},
      "tasks": [{"kind": "star_table", "n_random": 1, "check_explicit": True}]},
     "task 0 has unknown keys check_explicit (a star_table task reads kind, symbols, "
     "n_random)"),
    ({"backend": {"kind": "magnetic_weyl", "n": 32, "L": 12.0},
      "tasks": [{"kind": "verify_sq"}, {"kind": "star_table", "n_random": 1,
                                        "tol": 1e-30, "check_explicit": True}]},
     "task 1 has unknown keys check_explicit, tol (a star_table task reads kind, "
     "symbols, n_random)"),
    # a restricted product's last level array holds (npoints*hdim)**copies
    # entries: 16 GiB, 1 TiB and 1 TiB here, refused before any task runs
    ({"backend": {"kind": "discrete_weyl", "N": 2},
      "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor", "copies": 10}]},
     f"task 1: copies must be an integer in [1, 12] with (4*2)**copies <= "
     f"{inftensor.LEVEL_ENTRY_CAP}"),
    ({"backend": {"kind": "discrete_weyl", "N": 16},
      "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor", "copies": 3}]},
     "task 1: copies must be an integer in [1, 12] with (256*16)**copies"),
    ({"backend": {"kind": "magnetic_weyl", "n": 64, "L": 12.0},
      "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor", "copies": 2}]},
     "task 1: copies must be an integer in [1, 12] with (4096*64)**copies"),
    # the group table checks are sized before any table is built
    ({"backend": {"kind": "finite_group", "preset": "cyclic_character",
                  "order": bk.GROUP_ORDER_CAP + 1}, "tasks": [{"kind": "verify_sq"}]},
     f"group order {bk.GROUP_ORDER_CAP + 1} exceeds the cap"),
    # a block store of N^3 or |G|^3 entries is sized before any array is built
    ({"backend": {"kind": "discrete_weyl", "N": 129}, "tasks": [{"kind": "verify_sq"}]},
     f"N = 129 exceeds the cap N^3 <= {bk.BLOCK_ENTRY_CAP}"),
    ({"backend": {"kind": "abelian_metaplectic", "orders": [129], "k": 1},
      "tasks": [{"kind": "verify_sq"}]},
     f"group order 129 exceeds the cap |G|^3 <= {bk.BLOCK_ENTRY_CAP}"),
    ({"backend": {"kind": "magnetic_weyl", "n": magnetic.GRID_MAX_N + 2, "L": 12.0},
      "tasks": [{"kind": "magnetic_study", "grids": [8]}]},
     f"grid size must be {magnetic.GRID_SIZES}"),
    ({"backend": WEYL3, "tasks": [{"kind": "magnetic_study",
                                   "grids": [8, magnetic.GRID_MAX_N + 2]}]},
     f"grids must be a nonempty, strictly increasing list, each {magnetic.GRID_SIZES}"),
    # levels scatters each factor's dense view, m * d^2 entries: 1.07 GiB, 4 GiB
    # and 1.07 GiB of complex numbers here, though the level array fits its cap
    ({"backend": {"kind": "discrete_weyl", "N": 65},
      "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor", "copies": 1}]},
     f"task 1: copies must be an integer in [1, 12] with (4225*65)**copies <= "
     f"{inftensor.LEVEL_ENTRY_CAP} and 4225*65**2 <= {inftensor.VIEW_ENTRY_CAP}"),
    ({"backend": {"kind": "discrete_weyl", "N": 128},
      "tasks": [{"kind": "inftensor", "copies": 1}]},
     f"and 16384*128**2 <= {inftensor.VIEW_ENTRY_CAP}"),
    ({"backend": {"kind": "abelian_metaplectic", "orders": [65], "k": 1},
      "tasks": [{"kind": "inftensor", "copies": 1}]},
     f"and 4225*65**2 <= {inftensor.VIEW_ENTRY_CAP}"),
    # a task draws or is given at most TASK_INPUT_CAP inputs: star_table forms
    # k^2 products, 10^12 here and 26 M complex numbers on the grid
    ({"backend": WEYL3, "tasks": [{"kind": "star_table", "n_random": 10 ** 6}]},
     f"task 0: n_random must be an integer in [1, {cli.TASK_INPUT_CAP}]"),
    ({"backend": {"kind": "magnetic_weyl", "n": 64, "L": 12.0},
      "tasks": [{"kind": "verify_sq"}, {"kind": "star_table", "n_random": 80}]},
     f"task 1: n_random must be an integer in [1, {cli.TASK_INPUT_CAP}]"),
    ({"backend": WEYL3, "tasks": [{"kind": "quantize", "symbols": [
        {"re": [1.0] * 9, "im": [0.0] * 9}] * (cli.TASK_INPUT_CAP + 1)}]},
     f"task 0: symbols exceed the cap TASK_INPUT_CAP = {cli.TASK_INPUT_CAP}"),
    ({"backend": WEYL3, "tasks": [{"kind": "dequantize", "operators": [
        {"dim": 3, "re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}]
        * (cli.TASK_INPUT_CAP + 1)}]},
     f"task 0: operators exceed the cap TASK_INPUT_CAP = {cli.TASK_INPUT_CAP}"),
    # a parameter a task leaves out is checked at its default: copies 3 here
    ({"backend": {"kind": "discrete_weyl", "N": 16},
      "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor"}]},
     f"task 1: copies must be an integer in [1, 12] with (256*16)**copies <= "
     f"{inftensor.LEVEL_ENTRY_CAP}"),
    ({"backend": {"kind": "magnetic_weyl", "n": 16, "L": 12.0},
      "tasks": [{"kind": "verify_sq"}, {"kind": "inftensor"}]},
     f"task 1: copies must be an integer in [1, 12] with (256*16)**copies <= "
     f"{inftensor.LEVEL_ENTRY_CAP}"),
    # derived grid data that overflow: the circulation table, the dual grid
    ({"backend": OVERFLOWING_A, "tasks": [{"kind": "verify_sq"}, {"kind": "dequantize"}]},
     "vector potential too large: its circulations overflow"),
    ({"backend": TINY_BOX, "tasks": [{"kind": "verify_sq"}, {"kind": "dequantize"}]},
     "box length too small: the dual grid overflows"),
    # an irrep entry a unitary matrix cannot have, refused before any product
    ({"backend": s3_with_entry(1e308j), "tasks": [{"kind": "verify_sq"}]},
     "representation matrix 0 is not unitary: an entry is not finite"),
    ({"backend": s3_with_entry(complex(0.0, float("inf"))), "tasks": [{"kind": "verify_sq"}]},
     "representation matrix 0 is not unitary: an entry is not finite"),
    # an infinite imaginary part of a given input, read with no warning
    ({"backend": {"kind": "trivial"}, "tasks": [{"kind": "quantize", "symbols": [
        {"re": [1.0], "im": [float("inf")]}]}]}, "symbol values must be finite"),
    ({"backend": {"kind": "trivial"}, "tasks": [{"kind": "dequantize", "operators": [
        {"dim": 1, "re": [[1.0]], "im": [[float("inf")]]}]}]},
     "operator entries must be finite"),
])
def test_bad_task_input_is_validation_failure(tmp_path, capsys, config, message):
    cfg = write(tmp_path, "cfg.json", config)
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_VALIDATION_FAILURE
    err = capsys.readouterr().err
    assert message in err
    assert "[opcalc] task" not in err   # rejected before any task ran
    assert not out.exists()


def test_every_task_kind_runs_at_its_defaults(tmp_path):
    # n_random 3, w_index 0, copies 3 and grids [32, 64], each from cli._TASKS
    kinds = ("verify_sq", "dequantize", "berezin", "inftensor", "magnetic_study")
    cfg = write(tmp_path, "cfg.json", {"backend": WEYL3,
                                       "tasks": [{"kind": kind} for kind in kinds]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_OK
    done = json.loads(out.read_text())["tasks"]
    assert [t["verdict"] for t in done] == ["pass"] * len(kinds)
    assert len(done[1]["symbols"]) == 3 and len(done[3]["rows"]) == 3
    assert [r["n"] for r in done[4]["rows"]] == [32, 64]


def test_given_inputs_are_read_once(tmp_path, monkeypatch):
    # validation reads each given symbol and operator, and the task runs on them
    from opcalc import core
    calls = {"symbol_from_json": 0, "operator_from_json": 0}
    for name in calls:
        real = getattr(core, name)
        monkeypatch.setattr(core, name, lambda *a, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*a))
    rng = np.random.default_rng(2)
    symbols = [core.symbol_to_json(opcalc.random_symbol(rng, bk.discrete_weyl(3).space))
               for _ in range(2)]
    operators = [core.operator_to_json(np.eye(3)), core.operator_to_json(np.diag([1, 2, 3]))]
    cfg = write(tmp_path, "cfg.json", {"backend": WEYL3, "tasks": [
        {"kind": "quantize", "symbols": symbols},
        {"kind": "dequantize", "operators": operators}]})
    assert cli.main(["run", cfg, "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
    assert calls == {"symbol_from_json": 2, "operator_from_json": 2}


def test_unwritable_out_exits_before_any_task(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", {"backend": WEYL3, "tasks": [{"kind": "verify_sq"}]})
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_PARSE_FAILURE
        err = capsys.readouterr().err
        assert "[opcalc] cannot write the report" in err and "[opcalc] task" not in err
    # the report is probed only after validation, so a refused config leaves it
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")
    bad = write(tmp_path, "bad.json", {"backend": WEYL3,
                                       "tasks": [{"kind": "quantize", "n_random": 0}]})
    assert cli.main(["run", bad, "--out", str(out)]) == cli.EXIT_VALIDATION_FAILURE
    assert out.read_text() == "earlier report\n"


def magnetic_study_rows(tmp_path, seed):
    cfg = write(tmp_path, "cfg.json", {
        "backend": WEYL3, "seed": seed,
        "tasks": [{"kind": "magnetic_study", "grids": [32, 64]}]})
    out = tmp_path / "r.json"
    code = cli.main(["run", cfg, "--out", str(out)])
    return code, json.loads(out.read_text())["tasks"][0]


def test_magnetic_study_runs_on_a_grid_beyond_the_family_cap(tmp_path):
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "magnetic_weyl", "n": 130, "L": 12.0},
        "tasks": [{"kind": "magnetic_study", "grids": [32, 64]}]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_OK
    (task,) = json.loads(out.read_text())["tasks"]
    assert task["verdict"] == "pass" and [r["n"] for r in task["rows"]] == [32, 64]


def test_family_tasks_run_on_a_grid_above_64(tmp_path):
    # n = 66 is under the block-store cap that every family takes
    cfg = write(tmp_path, "cfg.json", {
        "backend": {"kind": "magnetic_weyl", "n": 66, "L": 12.0}, "seed": 1,
        "tasks": [{"kind": "verify_sq"}] + [{"kind": kind, "n_random": 2} for kind in (
            "quantize", "dequantize", "star_table", "berezin")]})
    out = tmp_path / "report.json"
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert [t["verdict"] for t in json.loads(out.read_text())["tasks"]] == ["pass"] * 5


@pytest.mark.parametrize("spec", [{"kind": "discrete_weyl", "N": 64},
                                  {"kind": "magnetic_weyl", "n": 64, "L": 12.0}])
def test_inftensor_copies_one_passes_validation_at_64(spec):
    # the view cap is the n^4 view of a grid n = 64, so no grid that ran is lost
    assert inftensor.VIEW_ENTRY_CAP == 64 ** 4
    cli._validate_tasks([{"kind": "inftensor", "copies": 1}], bk.backend_from_spec(spec))


def test_magnetic_study_rows_do_not_depend_on_the_seed(tmp_path):
    code, task = magnetic_study_rows(tmp_path, 1)
    assert code == 0 and task["verdict"] == "pass"
    for seed in (7, 11):
        assert magnetic_study_rows(tmp_path, seed) == (code, task)
    for row in task["rows"]:      # the exact certificate of each grid
        n = row["n"]
        grid = magnetic.MagneticBackend(n, 12.0, A=magnetic.sine_potential(n, 12.0, 0.8))
        assert row["sq_residual"] == grid.sq_certificate()


def test_magnetic_study_verdict_gates_the_certificate(tmp_path, monkeypatch):
    monkeypatch.setattr(magnetic.MagneticBackend, "sq_certificate", lambda self: 2e-10)
    code, task = magnetic_study_rows(tmp_path, 1)
    assert code == cli.EXIT_TASK_FAILURE and task["verdict"] == "fail"
    assert [r["sq_residual"] for r in task["rows"]] == [2e-10, 2e-10]


def test_run_takes_no_tol_or_seed_option(tmp_path, capsys):
    # the config is the one place a run's tolerance and seed are set
    cfg = write(tmp_path, "cfg.json", {"backend": WEYL3, "tasks": [{"kind": "verify_sq"}]})
    out = tmp_path / "report.json"
    for option in ("--tol", "1e-8"), ("--seed", "5"):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", cfg, "--out", str(out), *option])
        assert exit_.value.code == cli.EXIT_PARSE_FAILURE
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()


def run_verdicts(tmp_path, config):
    out = tmp_path / "report.json"
    code = cli.run_config(config, str(out))
    return code, json.loads(out.read_text())["tasks"]


def test_every_gate_of_a_task_uses_the_run_tol(tmp_path):
    # a measure 1e-8 too heavy: the SQ deviation is 1e-8, inside a run tol of
    # 1e-6, so the quantizer and frame gates pass as verify_sq does
    backend = {"kind": "finite_group", "preset": "s3_standard",
               "measure_scale": 1.00000001}
    tasks = [{"kind": "verify_sq"}, {"kind": "quantize", "n_random": 2},
             {"kind": "berezin", "n_random": 2}]
    code, done = run_verdicts(tmp_path, {"backend": backend, "tol": 1e-6, "tasks": tasks})
    assert [t["verdict"] for t in done] == ["pass"] * 3, done
    assert code == cli.EXIT_OK
    assert 0.5e-8 < done[0]["report"]["max_deviation"] < 1e-6
    # at the default 1e-10 every gate of the three tasks refuses the family
    code, done = run_verdicts(tmp_path, {"backend": backend, "tasks": tasks})
    assert [t["verdict"] for t in done] == ["fail", "error", "error"]


def test_the_config_tol_gates_every_check_of_every_family_task(tmp_path):
    # one tolerance for the whole run, for every task that runs on the family
    tasks = [{"kind": "verify_sq"}, {"kind": "quantize", "n_random": 2},
             {"kind": "dequantize", "n_random": 2}, {"kind": "star_table", "n_random": 2},
             {"kind": "berezin", "n_random": 2}, {"kind": "inftensor", "copies": 2}]
    # the Weyl 3 deviation is not 0, so 1e-30 refuses even the certificate
    for tol, passes in ((1e-30, False), (1e-8, True)):
        code, done = run_verdicts(tmp_path, {"backend": WEYL3, "seed": 4, "tol": tol,
                                             "tasks": tasks})
        assert [t["verdict"] == "pass" for t in done] == [passes] * len(tasks), done
        assert code == (cli.EXIT_OK if passes else cli.EXIT_TASK_FAILURE)
        assert done[0]["report"]["tol"] == tol


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_keys_each_task_kind_reads():
    bullet = README.split("- a task, besides `kind`:")[1].split("\n  - ")[0]
    listed = {}
    for entry in bullet.split(";"):
        kind, *keys = re.findall(r"`(\w+)`", entry)
        listed[kind] = keys
    assert listed == {kind: list(keys) for kind, (_, keys) in cli._TASKS.items()}


def test_readme_synopsis_names_the_options_of_each_command(capsys):
    def usage(*argv):               # argparse's one-line synopsis
        with pytest.raises(SystemExit):
            cli.main([*argv, "--help"])
        return capsys.readouterr().out.splitlines()[0]
    commands = re.search(r"\{(.*)\}", usage()).group(1).split(",")
    parsed = {c: set(re.findall(r"--[\w-]+", usage(c))) - {"--help"} for c in commands}
    synopsis = README.split("## CLI\n\n```sh\n")[1].split("```")[0].splitlines()
    documented = {line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in synopsis}
    assert documented == parsed


@pytest.mark.parametrize("spec, message", [
    ({"kind": "discrete_weyl", "N": 129}, f"N = 129 exceeds the cap N^3 <= {bk.BLOCK_ENTRY_CAP}"),
    ({"kind": "discrete_weyl", "N": 100000}, "N = 100000 exceeds the cap"),
    ({"kind": "abelian_metaplectic", "orders": [129], "k": 1}, "group order 129 exceeds"),
    ({"kind": "abelian_metaplectic", "orders": [100000], "k": 1}, "group order 100000"),
    ({"kind": "abelian_metaplectic", "orders": [2 ** 40] * 3, "k": 1}, "group order"),
    ({"kind": "magnetic_weyl", "n": magnetic.GRID_MAX_N + 2, "L": 12.0},
     f"grid size must be {magnetic.GRID_SIZES}"),
    ({"kind": "magnetic_weyl", "n": 1000000, "L": 12.0}, "grid size must be"),
], ids=["weyl129", "weyl100000", "meta129", "meta100000", "meta2^120", "grid-cap+2",
        "grid1000000"])
def test_describe_refuses_a_backend_over_its_size_cap(tmp_path, capsys, spec, message):
    # refused before any array is built: at the old code these ran out of memory
    assert cli.main(["describe", write(tmp_path, "backend.json", spec)]) \
        == cli.EXIT_VALIDATION_FAILURE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_exact_backends_build_at_the_block_cap():
    assert bk.discrete_weyl(128).hdim == 128 and 128 ** 3 == bk.BLOCK_ENTRY_CAP


@pytest.mark.parametrize("n", [3, 4, 5, 6, magnetic.GRID_MAX_N, magnetic.GRID_MAX_N + 2,
                               8.0, 6.5, True])
def test_a_grid_and_the_grids_check_accept_the_same_sizes(n):
    # one predicate, magnetic.grid_size_ok, serves the backend and the check
    def accepted(build):
        try:
            build()
        except (ValueError, cli.ConfigError):
            return False
        return True
    study = [{"kind": "magnetic_study", "grids": [n]}]
    backend = accepted(lambda: magnetic.MagneticBackend(n, 12.0))
    assert backend == accepted(lambda: cli._validate_tasks(study, bk.discrete_weyl(2)))
    assert backend == (n in (4, 6, magnetic.GRID_MAX_N) and type(n) is int)


def test_describe_reads_a_grid_through_its_space_and_hdim(tmp_path, capsys):
    # the one summary of every backend: at n = 6 the float sum of the 36
    # weights 1/6 is not 6, and describe reports the space's own mass
    assert cli.main(["describe", write(tmp_path, "b.json",
                                       {"kind": "magnetic_weyl", "n": 6, "L": 12.0})]) == 0
    summary = json.loads(capsys.readouterr().out)
    grid = magnetic.MagneticBackend(6, 12.0)
    assert summary["mass"] == grid.space.mass and summary["points"] == grid.hdim ** 2
    assert (summary["hdim"], summary["coefficient_blocks"], summary["exact"]) == (6, 6, False)
    assert grid.family().space is grid.space


def test_describe_incomplete_spec_is_validation_failure(tmp_path, capsys):
    spec = write(tmp_path, "backend.json", {"kind": "discrete_weyl"})
    assert cli.main(["describe", spec]) == cli.EXIT_VALIDATION_FAILURE
    assert "invalid backend spec" in capsys.readouterr().err


def test_describe_fractional_size_is_validation_failure(tmp_path, capsys):
    spec = write(tmp_path, "backend.json", {"kind": "discrete_weyl", "N": 2.7})
    assert cli.main(["describe", spec]) == cli.EXIT_VALIDATION_FAILURE
    captured = capsys.readouterr()
    assert "N must be an integer" in captured.err and captured.out == ""


Z2_IRREP = {"re": bk.cyclic_character(2, 1).real.tolist()}
Z4_IRREP = bk.cyclic_character(4, 1)


# spec values of the wrong kind are refused, not coerced: float() reads "12"
# as 12.0 and True as 1.0, and int() truncates the table entry 0.9 to 0
@pytest.mark.parametrize("spec, message", [
    ({"kind": "magnetic_weyl", "n": 8, "L": "12"}, "L must be a number"),
    ({"kind": "magnetic_weyl", "n": 8, "L": True}, "L must be a number"),
    ({"kind": "magnetic_weyl", "n": 8, "L": 12.0, "tol": True}, "tol must be a number"),
    ({"kind": "magnetic_weyl", "n": 8, "L": 12.0, "A": ["0.5"] * 8},
     "each entry of A must be a number"),
    ({"kind": "finite_group", "preset": "s3_sign", "table": [[0]]},
     "backend has unknown keys table"),     # a preset brings its own table
    ({"kind": "finite_group", "preset": "s3_standard", "measure_scale": True},
     "measure_scale must be a number"),
    ({"kind": "finite_group", "preset": "s3_standard", "measure_scale": "1"},
     "measure_scale must be a number"),
    ({"kind": "finite_group", "table": [[0, 1], [1, 0.9]], "irrep": Z2_IRREP},
     "each entry of table must be an integer"),
    ({"kind": "finite_group", "table": [[0, 1], [1, 0]],
      "irrep": {"re": [[["1"]], [["-1"]]]}}, "each entry of irrep re must be a number"),
    ({"kind": "finite_group", "table": [[0, 1], [1, 2 ** 70]], "irrep": Z2_IRREP},
     "invalid backend spec"),              # past int64: refused, not a crash
    ({"kind": "discrete_weyl", "N": 2, "measure_scale": 3.0},
     "backend has unknown keys measure_scale"),
    ({"kind": "magnetic_weyl", "n": 8, "L": 12.0, "tols": 1e-30},
     "backend has unknown keys tols"),
    ({"kind": "finite_group", "preset": "cyclic_character", "order": 2, "table": [[0]]},
     "backend has unknown keys table"),
    ({"kind": "finite_group", "table": [[0, 1], [1, 0]], "irrep": Z2_IRREP, "k": 1},
     "backend has unknown keys k"),
    ({"kind": "finite_group", "table": bk.cyclic_table(4).tolist(),
      "irrep": {"re": Z4_IRREP.real.tolist(), "imag": Z4_IRREP.imag.tolist()}},
     "irrep has unknown keys imag"),      # else im is read as 0: "not unitary"
    ({"kind": "finite_group", "table": 5, "irrep": Z2_IRREP}, "group table must be square"),
    # the group table checks are sized before any table is built or checked
    ({"kind": "finite_group", "preset": "cyclic_character",
      "order": bk.GROUP_ORDER_CAP + 1}, f"group order {bk.GROUP_ORDER_CAP + 1} exceeds"),
    ({"kind": "finite_group", "table": [[0] * (bk.GROUP_ORDER_CAP + 1)]
      * (bk.GROUP_ORDER_CAP + 1), "irrep": Z2_IRREP},
     f"group order {bk.GROUP_ORDER_CAP + 1} exceeds"),
    # overflowing grid data and irrep entries no unitary matrix has, refused with
    # no RuntimeWarning (an error under this suite's filter); the two grids
    # used to read a certificate of 3.1e-16 and a deviation of nan
    (OVERFLOWING_A, "vector potential too large: its circulations overflow"),
    (TINY_BOX, "box length too small: the dual grid overflows"),
    (s3_with_entry(1e308j), "is not unitary: an entry is not finite"),
    (s3_with_entry(complex(0.0, float("inf"))), "is not unitary: an entry is not finite"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_describe_coerced_value_is_validation_failure(tmp_path, capsys, spec, message):
    spec = write(tmp_path, "backend.json", spec)
    assert cli.main(["describe", spec]) == cli.EXIT_VALIDATION_FAILURE
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


# Small valid configs whose every leaf the fuzz below mutates; together they
# reach each backend kind, each task kind and each given-input reader.
FUZZ_BASES = (
    {"backend": {"kind": "discrete_weyl", "N": 2}, "seed": 1, "tol": 1e-9,
     "tasks": [{"kind": "quantize", "n_random": 1},
               {"kind": "berezin", "n_random": 1, "w_index": 0},
               {"kind": "inftensor", "copies": 1}]},
    {"backend": {"kind": "magnetic_weyl", "n": 4, "L": 12.0,
                 "A": [0.0, 0.5, 0.0, -0.5], "tol": 1e-6},
     "tasks": [{"kind": "verify_sq"}, {"kind": "dequantize", "n_random": 1}]},
    {"backend": {"kind": "finite_group", "table": [[0, 1], [1, 0]],
                 "irrep": {"re": [[[1.0]], [[-1.0]]], "im": [[[0.0]], [[0.0]]]},
                 "measure_scale": 1.0},
     "tasks": [{"kind": "verify_sq"}]},
    {"backend": {"kind": "finite_group", "preset": "cyclic_character", "order": 3, "k": 1},
     "tasks": [{"kind": "star_table", "n_random": 1},
               {"kind": "magnetic_study", "grids": [4, 6]}]},
    {"backend": {"kind": "abelian_metaplectic", "orders": [3], "k": 2},
     "tasks": [{"kind": "verify_sq"}]},
    {"backend": {"kind": "trivial"},
     "tasks": [{"kind": "quantize", "symbols": [{"re": [1.0], "im": [0.0]}]},
               {"kind": "dequantize", "operators": [{"dim": 1, "re": [[1.0]],
                                                     "im": [[0.0]]}]}]},
)
#: Odd JSON values (Python's json reads and writes Infinity and NaN), each put
#: in place of every leaf; deletion is tried besides.
FUZZ_VALUES = (None, True, -1, 2 ** 70, 1e308, 1e-308, float("inf"), float("nan"), "x")
_DELETE = object()


def _leaf_paths(node, path=()):
    """The path of every scalar in a JSON value, depth first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else None
    if items is None:
        yield path
        return
    for key, child in items:
        yield from _leaf_paths(child, path + (key,))


def _mutated(config, path, value):
    """A deep copy of config with the leaf at path replaced by value, or deleted."""
    out = json.loads(json.dumps(config))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


def test_leaf_mutation_fuzz(tmp_path):
    # every leaf of every base, set to each odd JSON value or deleted; under
    # this suite's warnings-as-errors filter, a RuntimeWarning outside a task
    # escapes as an exception
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    bad = []
    for b, base in enumerate(FUZZ_BASES):
        for path in _leaf_paths(base):
            for value in FUZZ_VALUES + (_DELETE,):
                cfg.write_text(json.dumps(_mutated(base, path, value)))
                try:
                    code = cli.main(["run", str(cfg), "--out", str(out)])
                except Exception as exc:    # an escape is the finding itself
                    code = f"{type(exc).__name__}: {exc}"
                if code not in (cli.EXIT_OK, cli.EXIT_TASK_FAILURE,
                                cli.EXIT_VALIDATION_FAILURE) \
                        or code == cli.EXIT_VALIDATION_FAILURE and out.exists():
                    bad.append((b, path, value, code))
                out.unlink(missing_ok=True)
    assert not bad, bad
