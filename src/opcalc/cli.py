"""Batch experiment runner.

``opcalc run config.json`` executes a list of tasks against one declared
backend and writes a JSON report; ``opcalc describe backend.json`` summarizes
a backend spec.  Reports are byte-reproducible for a fixed config and seed:
keys are sorted, task order is preserved, all randomness flows from the
single config seed, and timings go to stderr rather than into the report.

Exit codes: 0 all verdicts pass, 1 task failure, 2 parse failure or an
unwritable report, 3 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import backends as bk
from . import berezin as bz
from . import calculus as ca
from . import core, inftensor, magnetic
from . import family as fm
from .core import _is_int, _is_num

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_PARSE_FAILURE = 2
EXIT_VALIDATION_FAILURE = 3


class ConfigError(Exception):
    """Invalid configuration content (exit code 3)."""


TASK_INPUT_CAP = 16     # inputs a task draws or is given: star_table forms k^2 products

#: Checks on task parameters: name -> (test of (value, hdim, npoints), what it
#: must be), run at each task's given or default value before the first task runs.
_PARAM_CHECKS = {
    "n_random": (lambda x, hdim, m: _is_int(x, 1, TASK_INPUT_CAP + 1),
                 f"an integer in [1, {TASK_INPUT_CAP}]"),
    "w_index": (lambda x, hdim, m: _is_int(x, 0, hdim), "an integer in [0, {hdim})"),
    # the integer test first, so a huge count never builds the list of sizes
    "copies": (lambda x, hdim, m: _is_int(x, 1, inftensor.FACTOR_CAP + 1)
               and inftensor.level_refusal([(m, hdim)] * x) is None,
               f"an integer in [1, {inftensor.FACTOR_CAP}] "
               f"with ({{m}}*{{hdim}})**copies <= {inftensor.LEVEL_ENTRY_CAP} "
               f"and {{m}}*{{hdim}}**2 <= {inftensor.VIEW_ENTRY_CAP}"),
    # composition_refines reads consecutive rows as coarse -> fine
    "grids": (lambda x, hdim, m: isinstance(x, list) and bool(x)
              and all(map(magnetic.grid_size_ok, x)) and all(a < b for a, b in zip(x, x[1:])),
              f"a nonempty, strictly increasing list, each {magnetic.GRID_SIZES}"),
}

def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    core._spec_keys(config, ("backend", "tasks", "seed", "tol"), "config", "config")
    if "backend" not in config:
        raise ConfigError("config needs a 'backend' spec")
    tasks = config.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config needs a nonempty 'tasks' list")
    kinds = list(_TASKS)
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or task.get("kind") not in kinds:
            raise ConfigError(f"task {i} has an unknown kind "
                              f"(expected one of {', '.join(kinds)})")
        core._spec_keys(task, ("kind", *_TASKS[task["kind"]][1]), f"task {i}",
                        f"{task['kind']} task")
    if not _is_int(config.get("seed", 0), 0):
        raise ConfigError("seed must be a non-negative integer")
    if config.get("tol") is not None and not _is_num(config["tol"]):
        raise ConfigError("tol must be a positive number")


def _validate_tasks(tasks: list, backend) -> list:
    """Each task resolved against its defaults in ``_TASKS``, with its given
    ``symbols`` or ``operators`` read ([] if none); refuse what the backend
    cannot run before any task runs.  A grid's symbols are read against its
    phase space, so validation builds no family."""
    hdim, space, m = backend.hdim, backend.space, backend.space.npoints
    refusal = isinstance(backend, magnetic.MagneticBackend) and backend.family_refusal()
    resolved = []
    for i, task in enumerate(tasks):
        full = {**_TASKS[task["kind"]][1], **task}
        for name, (test, need) in _PARAM_CHECKS.items():
            if (name in task or full.get(name) is not None) and not test(full[name], hdim, m):
                raise ConfigError(f"task {i}: {name} must be {need.format(hdim=hdim, m=m)}")
        if "n_random" in full and full["n_random"] is None and not task.get("symbols"):
            raise ConfigError(f"task {i}: {task['kind']} needs 'symbols' or 'n_random'")
        for given in ("symbols", "operators"):
            if given in task and "n_random" in task:
                raise ConfigError(f"task {i}: set '{given}' or 'n_random', not both")
            if isinstance(task.get(given), list) and len(task[given]) > TASK_INPUT_CAP:
                raise ConfigError(f"task {i}: {given} exceed the cap {TASK_INPUT_CAP = }")
        if refusal and task["kind"] != "magnetic_study":
            raise ConfigError(f"task {i}: {task['kind']} runs on the grid's family, "
                              f"which is {refusal}")
        try:
            if "symbols" in full:
                full["symbols"] = [core.symbol_from_json(d, space)
                                   for d in task.get("symbols") or []]
            if "operators" in full:
                full["operators"] = [core.as_operator(core.operator_from_json(d), hdim)
                                     for d in task.get("operators") or []]
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"task {i}: unreadable symbols or operators: "
                              f"{type(exc).__name__}: {exc}") from exc
        resolved.append(full)
    return resolved


def _build_backend(spec: dict):
    try:
        return bk.backend_from_spec(spec)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid backend spec: {exc}") from exc


# ---------------------------------------------------------------------------
# backend summaries
# ---------------------------------------------------------------------------

def _describe_backend(spec: dict) -> dict:
    """Summary of a backend's ``space`` and ``hdim``.  A family that passes the
    square-integrability gate dequantizes isometrically from the Hilbert-Schmidt
    operators, so its symbol range has dimension hdim^2 and needs no SVD.  A grid
    is gated by ``sq_certificate`` and never materialized: its blocks are its n shifts."""
    built = _build_backend(spec)
    space, hdim, grid = built.space, built.hdim, isinstance(built, magnetic.MagneticBackend)
    deviation = built.sq_certificate() if grid else fm.verify_sq(built).max_deviation
    tol = core.DEFAULT_TOL if space.tol is None else space.tol
    if not deviation <= tol:
        raise ValueError(f"family fails square-integrability (deviation {deviation:.3e} "
                         f"> tol {tol:.1e}); cannot quantize")
    return {"kind": spec["kind"], "hdim": hdim, "points": space.npoints,
            "mass": space.mass, "exact": space.tol is None, "tol": space.tol,
            "b2_rank": hdim ** 2, "sq_deviation": deviation,
            "coefficient_blocks": hdim if grid else len(built.blocks[0])}


def _render_table(summary: dict) -> str:
    width = max(len(k) for k in summary)
    lines = [f"{k.ljust(width)}  {summary[k]}" for k in summary]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tasks: each runs on the backend's family and returns (ok, report fields)
# ---------------------------------------------------------------------------

def _symbols(task: dict, space, rng) -> list:
    """The given ``symbols``, else ``n_random`` seeded draws."""
    return task["symbols"] or [core.random_symbol(rng, space) for _ in range(task["n_random"])]


def _verify_sq(task, fam, tol, rng):
    report = fm.verify_sq(fam, tol=tol)
    return report.passed, {"report": report.to_json()}


def _quantize(task, fam, tol, rng):
    q = ca.build_quantizer(fam, tol)
    symbols = _symbols(task, fam.space, rng)
    ops = [ca.quantize(q, f) for f in symbols]
    projected = [ca.project_b2(q, f) for f in symbols]
    residual = max(                  # Tr[Q(f) Q(g)*] against <P f, P g>
        abs(complex(np.vdot(Tg, Tf)) - core.l2_inner(pf, pg))
        for Tf, pf in zip(ops, projected) for Tg, pg in zip(ops, projected))
    return residual <= tol, {
        "isometry_residual": residual,
        "operators": [core.operator_to_json(T) for T in ops]}


def _dequantize(task, fam, tol, rng):
    q = ca.build_quantizer(fam, tol)
    ops = task["operators"] or [ca.quantize(q, core.random_symbol(rng, fam.space))
                                for _ in range(task["n_random"])]
    symbols = [ca.dequantize(q, T) for T in ops]
    residual = max(core.op_norm(ca.quantize(q, f) - T)
                   for f, T in zip(symbols, ops))
    return residual <= tol, {
        "roundtrip_residual": residual,
        "symbols": [core.symbol_to_json(f) for f in symbols]}


def _star_table(task, fam, tol, rng):
    q = ca.build_quantizer(fam, tol)
    symbols = _symbols(task, fam.space, rng)
    check = fam.npoints <= 64
    table, residual = [], 0.0
    for f in symbols:
        row = []
        for g in symbols:
            prod = ca.star(q, f, g)
            if check:
                gap = core.l2_norm(core.Symbol(
                    fam.space, prod.values - ca.star_explicit(q, f, g).values))
                residual = max(residual, gap)
            row.append(core.symbol_to_json(prod))
        table.append(row)
    return residual <= tol, {"explicit_residual": residual if check else None,
                             "table": table}


def _berezin(task, fam, tol, rng):
    q = ca.build_quantizer(fam, tol)
    fr = bz.make_frame(fam, np.eye(fam.hdim)[task["w_index"]], tol=tol)
    res = bz.frame_identities(fr, q, _symbols(task, fam.space, rng))
    ok = res["positivity_floor"] >= -tol and all(
        v <= tol for k, v in res.items() if k != "positivity_floor")
    return ok, res


def _inftensor(task, fam, tol, rng):
    eye = np.eye(fam.hdim)
    base = next((s for s in range(fam.npoints)
                 if np.abs(fam.op(s) - eye).max() <= tol), None)
    if base is None:
        raise ValueError("backend has no identity point; "
                         "cannot form a restricted product")
    rp = inftensor.build_restricted(
        [(fam, base, eye[task["w_index"]])] * task["copies"], tol=tol)
    product_vec = rp.embed(np.ones(1, dtype=complex), 0)
    ent = np.zeros(rp.full_dim, dtype=complex)
    ent[0] = 1 / np.sqrt(2)
    ent[-1] += 1 / np.sqrt(2)
    ent /= np.linalg.norm(ent)
    identity = np.eye(rp.full_dim)
    # one sweep per vector; the product sweep ends before the witness sweep
    # starts, so one level array is alive at a time
    product = [(inftensor._sq_defect(weights, X, product_vec, product_vec),
                core.op_norm(inftensor._berezin_truncated(X, weights) - identity))
               for weights, X in rp.levels(product_vec)]
    rows = [{"N": N, "defect_product_vector": defect, "omega_identity_gap": gap,
             "defect_entangled_witness": inftensor._sq_defect(weights, X, ent, ent)}
            for N, ((defect, gap), (weights, X))
            in enumerate(zip(product, rp.levels(ent)), 1)]
    gaps = [r["omega_identity_gap"] for r in rows]
    ok = (rows[-1]["defect_product_vector"] <= tol
          and rows[-1]["defect_entangled_witness"] <= tol
          and gaps[-1] <= tol
          and all(b <= a + tol for a, b in zip(gaps, gaps[1:])))
    return ok, {"rows": rows}


def _on_family(run):
    """Run a task on the backend's materialized family.  Every gate of the
    task uses one tolerance: the config's ``tol``, else the family's working
    tolerance."""
    def on_backend(task, backend, tol, rng):
        fam = backend.family() if isinstance(backend, magnetic.MagneticBackend) else backend
        return run(task, fam, fam.working_tol() if tol is None else float(tol), rng)
    return on_backend


def _magnetic_study(task, backend, tol, rng):
    """Builds its own grids, so it never materializes the backend's family;
    its fixed gates are set for the study's one protocol."""
    rows = magnetic.magnetic_study(task["grids"])
    ok = magnetic.composition_refines(rows) \
        and rows[-1]["composition_residual"] < 1e-4 \
        and all(r["sq_residual"] <= 1e-10 for r in rows) \
        and all(r["gauge_linear_residual"] <= 1e-10 for r in rows) \
        and all(r["reduction_residual"] <= 1e-8 for r in rows)
    return ok, {"rows": rows}


#: Task kind -> (run(task, backend, tol, rng) returning (ok, report fields),
#: {task key it reads: default}); any other key is refused, not ignored.  An
#: ``n_random`` default of None means the task needs ``n_random`` or ``symbols``.
_TASKS = {
    "verify_sq": (_on_family(_verify_sq), {}),
    "quantize": (_on_family(_quantize), {"symbols": None, "n_random": None}),
    "dequantize": (_on_family(_dequantize), {"operators": None, "n_random": 3}),
    "star_table": (_on_family(_star_table), {"symbols": None, "n_random": None}),
    "berezin": (_on_family(_berezin), {"symbols": None, "n_random": 3, "w_index": 0}),
    "inftensor": (_on_family(_inftensor), {"w_index": 0, "copies": 3}),
    "magnetic_study": (_magnetic_study, {"grids": [32, 64]}),
}


def _run_task(task: dict, backend, tol: float | None, rng) -> dict:
    ok, fields = _TASKS[task["kind"]][0](task, backend, tol, rng)
    return {"kind": task["kind"], "verdict": "pass" if ok else "fail", **fields}


def run_config(config: dict, out_path: str | None) -> int:
    _validate_config(config)
    seed, tol = config.get("seed", 0), config.get("tol")
    backend = _build_backend(config["backend"])
    tasks = _validate_tasks(config["tasks"], backend)
    if out_path:                # an unwritable report is found before any task runs
        open(out_path, "a").close()

    rng = np.random.default_rng(seed)
    report = {"seed": int(seed),
              "tol": tol,
              "backend": config["backend"],
              "tasks": []}
    worst = EXIT_OK
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            result = _run_task(task, backend, tol, rng)
        except Exception as exc:  # failure is a verdict, not a crash
            result = {"kind": task["kind"], "verdict": "error",
                      "error": f"{type(exc).__name__}: {exc}"}
        elapsed = time.perf_counter() - t0
        print(f"[opcalc] task {i} ({task['kind']}): "
              f"{result['verdict']} in {elapsed:.3f}s", file=sys.stderr)
        if result["verdict"] != "pass":
            worst = EXIT_TASK_FAILURE
        report["tasks"].append(result)
    report["verdict"] = "pass" if worst == EXIT_OK else "fail"

    payload = json.dumps(report, sort_keys=True, separators=(",", ":"),
                         default=lambda o: o.tolist()) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="opcalc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a task list against a backend")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None)

    p_desc = sub.add_parser("describe", help="summarize a backend spec")
    p_desc.add_argument("backend")
    p_desc.add_argument("--table", action="store_true",
                        help="render human-readable instead of JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = _load_json(args.config)
        else:
            spec = _load_json(args.backend)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[opcalc] parse failure: {exc}", file=sys.stderr)
        return EXIT_PARSE_FAILURE

    try:
        if args.command == "run":
            return run_config(config, args.out)
        summary = _describe_backend(spec)
        if args.table:
            print(_render_table(summary))
        else:
            print(json.dumps(summary, sort_keys=True, default=lambda o: o.tolist()))
        return EXIT_OK
    except (ConfigError, ValueError) as exc:
        print(f"[opcalc] validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE
    except OSError as exc:
        print(f"[opcalc] cannot write the report: {exc}", file=sys.stderr)
        return EXIT_PARSE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
