"""Batch experiment runner.

``opcalc run config.json`` executes a list of tasks against one declared
backend and writes a JSON report; ``opcalc describe backend.json`` summarizes
a backend spec.  Reports are byte-reproducible for a fixed config and seed:
keys are sorted, task order is preserved, all randomness flows from the
single config seed, and timings go to stderr rather than into the report.

Exit codes: 0 all verdicts pass, 1 task failure, 2 parse failure,
3 validation failure.
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

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_PARSE_FAILURE = 2
EXIT_VALIDATION_FAILURE = 3


class ConfigError(Exception):
    """Invalid configuration content (exit code 3)."""


def _is_int(x, lo: int, hi: int | None = None) -> bool:
    """True for an integer (not a bool) in [lo, hi)."""
    return (isinstance(x, int) and not isinstance(x, bool) and lo <= x
            and (hi is None or x < hi))


def _is_num(x, positive: bool = True) -> bool:
    """True for a finite real number (not a bool); positive unless positive=False."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max and (x > 0 or not positive))


#: Checks on task parameters: name -> (test of (value, hdim), what it must be).
#: Every task that sets a parameter is checked before the first task runs.
_PARAM_CHECKS = {
    "tol": (lambda x, hdim: _is_num(x), "a positive number"),
    "n_random": (lambda x, hdim: _is_int(x, 1), "a positive integer"),
    "w_index": (lambda x, hdim: _is_int(x, 0, hdim), "an integer in [0, {hdim})"),
    "copies": (lambda x, hdim: _is_int(x, 1, inftensor.DEFAULT_FACTOR_CAP + 1)
               and hdim ** x <= inftensor.DEFAULT_DIM_CAP,
               f"an integer in [1, {inftensor.DEFAULT_FACTOR_CAP}] "
               f"with {{hdim}}**copies <= {inftensor.DEFAULT_DIM_CAP}"),
    "grids": (lambda x, hdim: isinstance(x, list) and bool(x) and all(
                  _is_int(n, 4) and n % 2 == 0 for n in x),
              "a nonempty list of even integers >= 4"),
    "sq_trials": (lambda x, hdim: _is_int(x, 1), "a positive integer"),
    "L": (lambda x, hdim: _is_num(x), "a positive number"),
    "amplitude": (lambda x, hdim: _is_num(x, positive=False), "a finite real number"),
    "sigma": (lambda x, hdim: _is_num(x) or (isinstance(x, list) and len(x) == 2
                                             and all(map(_is_num, x))),
              "a positive number or a pair of positive numbers"),
    "check_explicit": (lambda x, hdim: isinstance(x, bool), "true or false"),
}

#: Task kinds that need their symbols given, as "symbols" or "n_random".
_NEEDS_SYMBOLS = ("quantize", "star_table")


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
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
    if not _is_int(config.get("seed", 0), 0):
        raise ConfigError("seed must be a non-negative integer")
    if config.get("tol") is not None and not _is_num(config["tol"]):
        raise ConfigError("tol must be a positive number")


def _validate_tasks(tasks: list, hdim: int) -> None:
    """Reject task parameters the backend cannot run, before any task runs."""
    for i, task in enumerate(tasks):
        for name, (test, need) in _PARAM_CHECKS.items():
            if name in task and not test(task[name], hdim):
                raise ConfigError(
                    f"task {i}: {name} must be {need.format(hdim=hdim)}")
        if task["kind"] in _NEEDS_SYMBOLS and "n_random" not in task \
                and not task.get("symbols"):
            raise ConfigError(f"task {i}: {task['kind']} needs 'symbols' "
                              "or 'n_random'")


def _build_backend(spec: dict):
    try:
        return bk.backend_from_spec(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid backend spec: {exc}") from exc


# ---------------------------------------------------------------------------
# backend summaries
# ---------------------------------------------------------------------------

def _describe_backend(spec: dict) -> dict:
    built = _build_backend(spec)
    if isinstance(built, magnetic.MagneticBackend):
        return {
            "kind": spec["kind"],
            "hdim": built.n,
            "points": built.n * built.n,
            "mass": float(built.n),
            "exact": False,
            "tol": built.tol,
            "b2_rank": ca.build_quantizer(built.family()).b2_rank
            if built.n <= 32 else None,
        }
    fam = built
    return {
        "kind": spec["kind"],
        "hdim": fam.hdim,
        "points": fam.npoints,
        "mass": fam.space.mass,
        "exact": fam.exact,
        "tol": fam.tol,
        "b2_rank": ca.build_quantizer(fam).b2_rank,
    }


def _render_table(summary: dict) -> str:
    width = max(len(k) for k in summary)
    lines = [f"{k.ljust(width)}  {summary[k]}" for k in summary]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tasks: each runs on the backend's family and returns (ok, report fields)
# ---------------------------------------------------------------------------

def _symbols(task: dict, space, rng) -> list:
    """``n_random`` seeded draws, else the given ``symbols``, else 3 draws."""
    if "n_random" in task or not task.get("symbols"):
        return [core.random_symbol(rng, space)
                for _ in range(task.get("n_random", 3))]
    return [core.symbol_from_json(d, space) for d in task["symbols"]]


def _unit(task: dict, hdim: int) -> np.ndarray:
    """The basis vector picked by the task's ``w_index`` (default 0)."""
    w = np.zeros(hdim, dtype=complex)
    w[task.get("w_index", 0)] = 1.0
    return w


def _verify_sq(task, fam, tol, rng):
    report = fm.verify_sq(fam, tol=float(task.get("tol", tol)))
    return report.passed, {"report": report.to_json()}


def _quantize(task, fam, tol, rng):
    q = ca.build_quantizer(fam)
    symbols = _symbols(task, fam.space, rng)
    residual = max(
        abs(ca.trace_pairing(q, f, g) - core.l2_inner(
            ca.project_b2(q, f), ca.project_b2(q, g)))
        for f in symbols for g in symbols)
    return residual <= tol, {
        "isometry_residual": residual,
        "operators": [core.operator_to_json(ca.quantize(q, f)) for f in symbols]}


def _dequantize(task, fam, tol, rng):
    q = ca.build_quantizer(fam)
    raw = task.get("operators")
    if raw:
        ops = [core.operator_from_json(d) for d in raw]
    else:
        ops = [ca.quantize(q, core.random_symbol(rng, fam.space))
               for _ in range(task.get("n_random", 3))]
    symbols = [ca.dequantize(q, T) for T in ops]
    residual = max(core.op_norm(ca.quantize(q, f) - T)
                   for f, T in zip(symbols, ops))
    return residual <= tol, {
        "roundtrip_residual": residual,
        "symbols": [core.symbol_to_json(f) for f in symbols]}


def _star_table(task, fam, tol, rng):
    q = ca.build_quantizer(fam)
    symbols = _symbols(task, fam.space, rng)
    check = task.get("check_explicit", fam.npoints <= 64)
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
    q = ca.build_quantizer(fam)
    fr = bz.make_frame(fam, _unit(task, fam.hdim), tol=tol)
    res = bz.frame_identities(fr, q, _symbols(task, fam.space, rng))
    ok = res["positivity_floor"] >= -tol and all(
        v <= tol for k, v in res.items() if k != "positivity_floor")
    return ok, res


def _inftensor(task, fam, tol, rng):
    eye = np.eye(fam.hdim)
    base = next((s for s in range(fam.npoints)
                 if np.abs(fam.op(s) - eye).max() <= tol), None)
    if base is None:
        raise ConfigError("backend has no identity point; "
                          "cannot form a restricted product")
    rp = inftensor.build_restricted(
        [(fam, base, _unit(task, fam.hdim))] * task.get("copies", 3))
    product_vec = rp.embed(np.ones(1, dtype=complex), 0)
    ent = np.zeros(rp.full_dim, dtype=complex)
    ent[0] = 1 / np.sqrt(2)
    ent[-1] += 1 / np.sqrt(2)
    ent /= np.linalg.norm(ent)
    rows = []
    for N in range(1, rp.J + 1):
        space = rp.level_space(N)
        ones = core.Symbol(space, np.ones(space.npoints))
        gap = core.op_norm(
            inftensor.berezin_truncated(rp, N, product_vec, ones)
            - np.eye(rp.full_dim))
        rows.append({
            "N": N,
            "defect_product_vector": inftensor.sq_defect(
                rp, N, product_vec, product_vec),
            "defect_entangled_witness": inftensor.sq_defect(rp, N, ent, ent),
            "omega_identity_gap": gap,
        })
    gaps = [r["omega_identity_gap"] for r in rows]
    ok = (rows[-1]["defect_product_vector"] <= tol
          and rows[-1]["defect_entangled_witness"] <= tol
          and gaps[-1] <= tol
          and all(b <= a + tol for a, b in zip(gaps, gaps[1:])))
    return ok, {"rows": rows}


def _on_family(run):
    """Run a task on the backend's materialized family at the working tol."""
    def on_backend(task, backend, tol, rng):
        fam = backend.family() if isinstance(backend, magnetic.MagneticBackend) \
            else backend
        return run(task, fam, fam.working_tol() if tol is None else tol, rng)
    return on_backend


def _magnetic_study(task, backend, tol, rng):
    """Builds its own grids, so it never materializes the backend's family."""
    rows = magnetic.magnetic_study(
        task.get("grids", [32, 64]), seed=int(rng.integers(2 ** 31)),
        **{k: task[k] for k in ("L", "amplitude", "sigma", "sq_trials") if k in task})
    ok = magnetic.composition_refines(rows) \
        and rows[-1]["composition_residual"] < 1e-4 \
        and all(r["gauge_linear_residual"] <= 1e-10 for r in rows) \
        and all(r["reduction_residual"] <= 1e-8 for r in rows)
    return ok, {"rows": rows}


#: Task kind -> run(task, backend, tol, rng) returning (ok, report fields).
_TASKS = {
    "verify_sq": _on_family(_verify_sq),
    "quantize": _on_family(_quantize),
    "dequantize": _on_family(_dequantize),
    "star_table": _on_family(_star_table),
    "berezin": _on_family(_berezin),
    "inftensor": _on_family(_inftensor),
    "magnetic_study": _magnetic_study,
}


def _run_task(task: dict, backend, tol: float | None, rng) -> dict:
    ok, fields = _TASKS[task["kind"]](task, backend, tol, rng)
    return {"kind": task["kind"], "verdict": "pass" if ok else "fail", **fields}


def run_config(config: dict, out_path: str | None,
               tol_override: float | None = None,
               seed_override: int | None = None) -> int:
    _validate_config(config)
    seed = seed_override if seed_override is not None else config.get("seed", 0)
    tol = tol_override if tol_override is not None else config.get("tol")
    backend = _build_backend(config["backend"])
    _validate_tasks(config["tasks"], backend.n if isinstance(
        backend, magnetic.MagneticBackend) else backend.hdim)

    rng = np.random.default_rng(seed)
    report = {"seed": int(seed),
              "tol": tol,
              "backend": config["backend"],
              "tasks": []}
    worst = EXIT_OK
    for i, task in enumerate(config["tasks"]):
        t0 = time.perf_counter()
        try:
            result = _run_task(task, backend, tol, rng)
        except ConfigError:
            raise
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
    p_run.add_argument("--tol", type=float, default=None)
    p_run.add_argument("--seed", type=int, default=None)

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
            return run_config(config, args.out, args.tol, args.seed)
        summary = _describe_backend(spec)
        if args.table:
            print(_render_table(summary))
        else:
            print(json.dumps(summary, sort_keys=True, default=lambda o: o.tolist()))
        return EXIT_OK
    except (ConfigError, ValueError) as exc:
        print(f"[opcalc] validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
