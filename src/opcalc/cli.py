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
import os
import sys
import time

EXIT_OK = 0
EXIT_TASK_FAILURE = 1
EXIT_PARSE_FAILURE = 2
EXIT_VALIDATION_FAILURE = 3

_TASK_KINDS = ("verify_sq", "quantize", "dequantize", "star_table",
               "berezin", "inftensor", "magnetic_study")


def _setup_threads():
    """Honor OPCALC_THREADS before numpy is imported anywhere."""
    cap = os.environ.get("OPCALC_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, cap)


def _jsonable(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


class ConfigError(Exception):
    """Invalid configuration content (exit code 3)."""


def _is_int(x, lo: int, hi: int | None = None) -> bool:
    """True for an integer (not a bool) in [lo, hi)."""
    return (isinstance(x, int) and not isinstance(x, bool) and lo <= x
            and (hi is None or x < hi))


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
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or task.get("kind") not in _TASK_KINDS:
            raise ConfigError(f"task {i} has an unknown kind "
                              f"(expected one of {', '.join(_TASK_KINDS)})")
    if not _is_int(config.get("seed", 0), 0):
        raise ConfigError("seed must be a non-negative integer")


def _validate_tasks(tasks: list, hdim: int) -> None:
    """Reject task parameters the backend cannot run, before any task runs."""
    for i, task in enumerate(tasks):
        if "n_random" in task and not _is_int(task["n_random"], 1):
            raise ConfigError(f"task {i}: n_random must be a positive integer")
        if task["kind"] in ("berezin", "inftensor") and \
                not _is_int(task.get("w_index", 0), 0, hdim):
            raise ConfigError(f"task {i}: w_index must be an integer "
                              f"in [0, {hdim})")


def _build_backend(spec: dict):
    from . import backends as bk
    try:
        return bk.backend_from_spec(spec)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid backend spec: {exc}") from exc


# ---------------------------------------------------------------------------
# backend summaries
# ---------------------------------------------------------------------------

def _describe_backend(spec: dict) -> dict:
    from . import calculus, magnetic

    built = _build_backend(spec)
    if isinstance(built, magnetic.MagneticBackend):
        out = {
            "kind": spec["kind"],
            "hdim": built.n,
            "points": built.n * built.n,
            "mass": float(built.n),
            "exact": False,
            "tol": built.tol,
        }
        if built.n <= 32:
            q = calculus.build_quantizer(built.family())
            out["b2_rank"] = q.b2_rank
        else:
            out["b2_rank"] = None
        return out
    fam = built
    q = calculus.build_quantizer(fam)
    return {
        "kind": spec["kind"],
        "hdim": fam.hdim,
        "points": fam.npoints,
        "mass": fam.space.mass,
        "exact": fam.exact,
        "tol": fam.tol,
        "b2_rank": q.b2_rank,
    }


def _render_table(summary: dict) -> str:
    width = max(len(k) for k in summary)
    lines = [f"{k.ljust(width)}  {summary[k]}" for k in summary]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _batch_symbols(task: dict, space, rng):
    from . import core
    n_random = task.get("n_random")
    if n_random is not None:
        return [core.random_symbol(rng, space) for _ in range(n_random)]
    raw = task.get("symbols")
    if not raw:
        raise ConfigError("task needs 'symbols' or 'n_random'")
    return [core.symbol_from_json(d, space) for d in raw]


def _run_task(task: dict, fam_or_backend, tol: float | None, rng) -> dict:
    import numpy as np

    from . import berezin as bz
    from . import calculus as ca
    from . import core, inftensor, magnetic
    from . import family as fm

    kind = task["kind"]
    is_magnetic = isinstance(fam_or_backend, magnetic.MagneticBackend)

    if kind == "magnetic_study":
        grids = task.get("grids", [32, 64])
        sigma = task.get("sigma", (1.0, 3.0))
        if isinstance(sigma, (int, float)):
            sigma = (float(sigma), float(sigma))
        rows = magnetic.magnetic_study(
            grids,
            L=float(task.get("L", 12.0)),
            amplitude=float(task.get("amplitude", 0.8)),
            sigma=tuple(float(s) for s in sigma),
            seed=int(rng.integers(2 ** 31)),
            sq_trials=int(task.get("sq_trials", 20)))
        comp = [r["composition_residual"] for r in rows]
        ok = magnetic.composition_refines(rows) and comp[-1] < 1e-4 \
            and all(r["gauge_linear_residual"] <= 1e-10 for r in rows) \
            and all(r["reduction_residual"] <= 1e-8 for r in rows)
        return {"kind": kind, "verdict": "pass" if ok else "fail", "rows": rows}

    fam = fam_or_backend.family() if is_magnetic else fam_or_backend
    tol = fam.working_tol() if tol is None else tol

    if kind == "verify_sq":
        report = fm.verify_sq(fam, tol=float(task.get("tol", tol)))
        return {"kind": kind, "verdict": report.verdict, "report": report.to_json()}

    if kind == "quantize":
        q = ca.build_quantizer(fam)
        symbols = _batch_symbols(task, fam.space, rng)
        ops = [ca.quantize(q, f) for f in symbols]
        residual = max(
            abs(ca.trace_pairing(q, f, g) - core.l2_inner(
                ca.project_b2(q, f), ca.project_b2(q, g)))
            for f in symbols for g in symbols)
        return {"kind": kind,
                "verdict": "pass" if residual <= tol else "fail",
                "isometry_residual": residual,
                "operators": [core.operator_to_json(T) for T in ops]}

    if kind == "dequantize":
        q = ca.build_quantizer(fam)
        raw = task.get("operators")
        if raw:
            ops = [core.operator_from_json(d) for d in raw]
        else:
            ops = [ca.quantize(q, core.random_symbol(rng, fam.space))
                   for _ in range(int(task.get("n_random", 3)))]
        symbols = [ca.dequantize(q, T) for T in ops]
        residual = max(core.op_norm(ca.quantize(q, f) - T)
                       for f, T in zip(symbols, ops))
        return {"kind": kind,
                "verdict": "pass" if residual <= tol else "fail",
                "roundtrip_residual": residual,
                "symbols": [core.symbol_to_json(f) for f in symbols]}

    if kind == "star_table":
        q = ca.build_quantizer(fam)
        symbols = _batch_symbols(task, fam.space, rng)
        table, residual = [], 0.0
        check = bool(task.get("check_explicit", fam.npoints <= 64))
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
        return {"kind": kind,
                "verdict": "pass" if residual <= tol else "fail",
                "explicit_residual": residual if check else None,
                "table": table}

    if kind == "berezin":
        q = ca.build_quantizer(fam)
        w = np.zeros(fam.hdim, dtype=complex)
        w[task.get("w_index", 0)] = 1.0
        fr = bz.make_frame(fam, w, tol=tol)
        symbols = _batch_symbols(task, fam.space, rng) \
            if (task.get("symbols") or task.get("n_random")) \
            else [core.random_symbol(rng, fam.space) for _ in range(3)]
        norm_margin, pos_floor, trace_res, toeplitz_res, cov_res, fact_res = \
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0
        for f in symbols:
            om = bz.berezin_op(fr, f)
            norm_margin = max(norm_margin,
                              core.op_norm(om) - float(np.abs(f.values).max()))
            fpos = core.Symbol(fam.space, np.abs(f.values))
            eigs = np.linalg.eigvalsh(bz.berezin_op(fr, fpos))
            pos_floor = min(pos_floor, float(eigs.min()))
            lhs = core.trace(om)
            rhs = np.dot(fam.space.weights,
                         f.values * np.linalg.norm(fr.wfield, axis=1) ** 2)
            trace_res = max(trace_res, abs(lhs - rhs))
            analysis_mat = fr.wfield.conj()
            synth_mat = fam.space.weights * fr.wfield.T
            toeplitz_res = max(toeplitz_res, float(np.abs(
                bz.toeplitz_op(fr, f) - analysis_mat @ om @ synth_mat).max()))
            three = bz.covariant_berezin_symbol(fr, f)
            cov_res = max(cov_res, float(np.abs(
                bz.covariant_symbol_sigma(fr, bz.toeplitz_op(fr, f)).values
                - three.values).max()))
            cov_res = max(cov_res, float(np.abs(
                bz.covariant_symbol_tau(fr, om).values - three.values).max()))
            smoothed = bz.berezin_as_quantization(fr, q, f, tol=tol)
            fact_res = max(fact_res,
                           core.op_norm(ca.quantize(q, smoothed) - om))
        resolution = bz.resolution_residual(fr)
        ok = (resolution <= tol and norm_margin <= tol and pos_floor >= -tol
              and trace_res <= tol and toeplitz_res <= tol and cov_res <= tol
              and fact_res <= tol)
        return {"kind": kind, "verdict": "pass" if ok else "fail",
                "resolution_residual": resolution,
                "norm_bound_margin": norm_margin,
                "positivity_floor": pos_floor,
                "trace_identity_residual": trace_res,
                "toeplitz_equality_residual": toeplitz_res,
                "covariant_identity_residual": cov_res,
                "factorization_residual": fact_res}

    if kind == "inftensor":
        copies = int(task.get("copies", 3))
        base = None
        eye = np.eye(fam.hdim)
        for s in range(fam.npoints):
            if np.abs(fam.op(s) - eye).max() <= tol:
                base = s
                break
        if base is None:
            raise ConfigError("backend has no identity point; "
                              "cannot form a restricted product")
        w = np.zeros(fam.hdim, dtype=complex)
        w[task.get("w_index", 0)] = 1.0
        rp = inftensor.build_restricted([(fam, base, w)] * copies)
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
        return {"kind": kind, "verdict": "pass" if ok else "fail", "rows": rows}

    raise ConfigError(f"unknown task kind {kind!r}")


def run_config(config: dict, out_path: str | None,
               tol_override: float | None = None,
               seed_override: int | None = None) -> int:
    import numpy as np

    from . import magnetic

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

    payload = json.dumps(_jsonable(report), sort_keys=True,
                         separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return worst


def main(argv=None) -> int:
    _setup_threads()
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
            print(json.dumps(_jsonable(summary), sort_keys=True))
        return EXIT_OK
    except ConfigError as exc:
        print(f"[opcalc] validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE
    except ValueError as exc:
        print(f"[opcalc] validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
