"""The four workloads of the opcalc benchmark.

Every workload is a closed loop with one client.  ``setup`` does the one-off
work a user pays before the first result (it is what ``setup_s`` times), and
``run_pass`` is one timed pass: the same seed-generated inputs go through the
public entry points one operation after the other, with every check of the
program on.  ``results`` turns a pass's raw outputs, untimed, into one record
per checked operation, and ``check`` recomputes identities by routes that do
not go through the call under test.  All inputs derive from the seed; the
``smoke`` scale shrinks every size for a quick format test.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

import opcalc as oc
from opcalc import cli

EXACT_TOL = oc.DEFAULT_TOL
MAGNETIC_TOL = 1e-6

#: commutant_dim stacks one d^2 x d^2 block per point; skip families whose
#: stacked system would exceed this many bytes (metaplectic [27] needs 6.2 GB).
COMMUTANT_MAX_BYTES = 256 * 2 ** 20


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2 ** 31, size=count)]


# ---------------------------------------------------------------------------
# CLI workloads: run_config over generated configs
# ---------------------------------------------------------------------------

class CliWorkload:
    """Each operation is one ``run_config`` call; each task is checked."""

    def __init__(self, configs: list[dict]):
        self.configs = configs

    def setup(self) -> None:
        """Nothing: every config builds its own backend inside the pass."""

    def run_pass(self):
        payloads, latencies = [], []
        for cfg in self.configs:
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.run_config(cfg, None)
            latencies.append(time.perf_counter() - t0)
            payloads.append(out.getvalue())
        return payloads, latencies

    def results(self, payloads) -> dict:
        out = {}
        for i, payload in enumerate(payloads):
            report = json.loads(payload)
            for j, task in enumerate(report["tasks"]):
                out[f"config{i}.task{j}.{task['kind']}"] = dict(task, tol=report["tol"])
        return out

    def check(self, results) -> set:
        """The CLI's verdicts already carry its cross-checks."""
        return set()

    @staticmethod
    def counters(payloads) -> dict:
        reports = [json.loads(p) for p in payloads]
        return {"cli.report_bytes": float(sum(len(p.encode()) for p in payloads)),
                "cli.task_errors": float(sum(t["verdict"] == "error"
                                             for r in reports for t in r["tasks"]))}


def exact_batch(seed: int, scale: str) -> CliWorkload:
    big, mid, meta, copies = (16, 8, [15], 6) if scale == "full" else (4, 3, [5], 3)
    full_suite = {  # the acceptance FULL_SUITE as it stands, fixed seed included,
        # so that the reference pins its whole report
        "backend": {"kind": "discrete_weyl", "N": 3},
        "seed": 2024,
        "tasks": [
            {"kind": "verify_sq"},
            {"kind": "quantize", "n_random": 3},
            {"kind": "dequantize", "n_random": 3},
            {"kind": "star_table", "n_random": 2},
            {"kind": "berezin", "w_index": 0, "n_random": 3},
            {"kind": "inftensor", "copies": 3},
            {"kind": "magnetic_study", "grids": [32, 64]},
        ]}
    configs = [
        full_suite,
        {"backend": {"kind": "discrete_weyl", "N": big}, "tasks": [
            {"kind": "verify_sq"},
            {"kind": "quantize", "n_random": 4},
            {"kind": "dequantize", "n_random": 4},
            {"kind": "star_table", "n_random": 3},
            {"kind": "berezin", "n_random": 3}]},
        {"backend": {"kind": "discrete_weyl", "N": mid}, "tasks": [
            {"kind": "verify_sq"},
            {"kind": "star_table", "n_random": 4}]},
        {"backend": {"kind": "abelian_metaplectic", "orders": meta, "k": 2}, "tasks": [
            {"kind": "verify_sq"},
            {"kind": "quantize", "n_random": 3},
            {"kind": "star_table", "n_random": 2},
            {"kind": "berezin"}]},
        {"backend": {"kind": "finite_group", "preset": "s3_standard"}, "tasks": [
            {"kind": "verify_sq"},
            {"kind": "quantize", "n_random": 3},
            {"kind": "dequantize"},
            {"kind": "star_table", "n_random": 2},
            {"kind": "berezin"},
            {"kind": "inftensor", "copies": 3},
            {"kind": "magnetic_study", "grids": [32]}]},
        {"backend": {"kind": "discrete_weyl", "N": 2}, "tasks": [
            {"kind": "inftensor", "copies": copies}]},
    ]
    for cfg, cfg_seed in zip(configs[1:], _seeds(seed, 5)):
        cfg["seed"] = cfg_seed
        cfg["tol"] = EXACT_TOL      # the default, stated so the report records it
    return CliWorkload(configs)


def magnetic_refine(seed: int, scale: str) -> CliWorkload:
    n, grids = (32, [64, 128, 192]) if scale == "full" else (8, [32, 64])
    return CliWorkload([{
        "backend": {"kind": "magnetic_weyl", "n": n, "L": 12.0, "tol": MAGNETIC_TOL},
        "seed": _seeds(seed, 1)[0],
        "tol": MAGNETIC_TOL,
        "tasks": [{"kind": "dequantize", "n_random": 2},
                  {"kind": "magnetic_study", "grids": grids}]}])


# ---------------------------------------------------------------------------
# symbol_stream: the per-call read path after a one-time build
# ---------------------------------------------------------------------------

def _probe_symbols(space, N: int):
    """Two fixed smooth symbols; their outputs are pinned by the reference."""
    a, b = np.divmod(np.arange(N * N), N)

    def bump(a0, b0):
        return np.exp(-((a - a0) ** 2 + (b - b0) ** 2) / N)

    f = bump(N / 3, N / 4) * np.exp(2j * np.pi * a / N) + 0.3 * np.cos(2 * np.pi * b / N)
    g = bump(N / 2, N / 3) + 0.25j * np.cos(2 * np.pi * (a + b) / N)
    return oc.Symbol(space, f), oc.Symbol(space, g)


class SymbolStream:
    """Each operation is one symbol through the whole per-symbol pipeline."""

    #: only the fixed probe pair has seed-independent outputs; ``check``
    #: recomputes every symbol, shapes included, by an independent route
    reference_ops = ("symbol0",)

    def __init__(self, seed: int, N: int, count: int):
        self.seed, self.N, self.count = seed, N, count

    def setup(self) -> None:
        self.fam = oc.discrete_weyl(self.N)
        self.q = oc.build_quantizer(self.fam)
        w = np.zeros(self.N, dtype=complex)
        w[0] = 1.0
        self.frame = oc.make_frame(self.fam, w)
        rng = np.random.default_rng(self.seed)
        stream = [oc.random_symbol(rng, self.fam.space) for _ in range(self.count)]
        self.pairs = [_probe_symbols(self.fam.space, self.N)] + \
            list(zip(stream[:-1], stream[1:]))

    def run_pass(self):
        q, fr = self.q, self.frame
        raw, latencies = [], []
        for f, g in self.pairs:
            t0 = time.perf_counter()
            T = oc.quantize(q, f)
            berezin = oc.berezin_op(fr, f)
            out = {
                "quantize": T,
                "dequantize": oc.dequantize(q, T).values,
                "star": oc.star(q, f, g).values,
                "involution": oc.involution(q, f).values,
                "project_b2": oc.project_b2(q, f).values,
                "trace_pairing": oc.trace_pairing(q, f, g),
                "berezin_op": berezin,
                "covariant_berezin": oc.covariant_berezin_symbol(fr, f).values,
                "covariant_tau": oc.covariant_symbol_tau(fr, berezin).values,
                "synthesis": oc.synthesis(fr, f),
            }
            latencies.append(time.perf_counter() - t0)
            raw.append(out)
        return raw, latencies

    def results(self, raw) -> dict:
        return {f"symbol{i}": dict(out, tol=EXACT_TOL) for i, out in enumerate(raw)}

    def check(self, results) -> set:
        """Recompute every output from the family stack with plain numpy."""
        stack = np.asarray(self.fam.stack)
        wts = np.asarray(self.fam.space.weights)
        pistar = np.conj(np.swapaxes(stack, 1, 2))
        wfield = np.einsum("sji,j->si", np.conj(stack), self.frame.w)

        def deq(T):                          # s -> Tr[T pi(s)]
            return np.einsum("ij,sji->s", T, stack)

        def close(x, y):
            x, y = np.asarray(x), np.asarray(y)
            return x.shape == y.shape and \
                np.abs(x - y).max() <= EXACT_TOL * max(1.0, np.abs(y).max())

        bad = set()
        for (op, out), (f, g) in zip(results.items(), self.pairs):
            fv, gv = f.values, g.values
            Tf = np.einsum("s,sij->ij", wts * fv, pistar)
            Tg = np.einsum("s,sij->ij", wts * gv, pistar)
            # a Weyl system is complete, so the range projection is the identity
            ok = (close(out["quantize"], Tf)
                  and close(out["project_b2"], fv)
                  and close(out["dequantize"], fv)
                  and close(out["star"], deq(Tf @ Tg))
                  and close(out["involution"], deq(Tf.conj().T))
                  and close(out["trace_pairing"], np.dot(wts, fv * np.conj(gv)))
                  and close(out["berezin_op"],
                            (wfield.T * (wts * fv)) @ wfield.conj())
                  and close(out["covariant_tau"], out["covariant_berezin"])
                  and close(out["synthesis"], Tf @ self.frame.w))
            if not ok:
                bad.add(op)
        return bad


# ---------------------------------------------------------------------------
# certify: irreducibility diagnostics through library calls only
# ---------------------------------------------------------------------------

def _unitary(rng, d: int) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]


class Certify:
    """Each operation certifies one family, or computes the restricted curves."""

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.meta_order, self.big = ([27], 12) if scale == "full" else ([5], 4)

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.w = {n: oc.discrete_weyl(n) for n in (2, 3, 4, 8, self.big)}
        self.meta = oc.abelian_metaplectic(self.meta_order, k=2)
        w8 = self.w[8]
        self.relabel = rng.permutation(w8.npoints)
        self.relabel_space = oc.MeasureSpace(
            tuple(f"q{i}" for i in range(w8.npoints)), w8.space.weights)
        self.iota = _unitary(rng, 8)
        # a random 2-plane per Hilbert dimension: never invariant when irreducible
        dims = {self.meta.hdim, 8, self.big, 12, 6, 7}
        self.planes = {d: _unitary(rng, d)[:, :2] for d in dims}
        self.curve_vectors = {(N, M): [oc.random_unit_vector(rng, 27 if k else
                                                             (3 ** M if M else 1))
                                       for k in range(5)]
                              for N in (1, 2, 3) for M in (0, 1, 2, 3)}

    def _families(self):
        w = self.w
        yield "metaplectic", lambda: self.meta, None
        yield "weyl8", lambda: w[8], None
        yield f"weyl{self.big}", lambda: w[self.big], None
        yield "tensor_2x3x2", lambda: oc.tensor(oc.tensor(w[2], w[3]), w[2]), None
        yield "direct_sum_3_3", lambda: oc.direct_sum([w[3], w[3]]), 3
        yield "direct_sum_product_3_4", lambda: oc.direct_sum_product(w[3], w[4]), 3
        yield "adjoint_weyl8", lambda: oc.adjoint_family(w[8]), None
        yield "compress_weyl8", lambda: oc.compress(
            w[8], self.relabel, self.relabel_space, self.iota), None

    def run_pass(self):
        raw, latencies = {}, []
        for name, build, block in self._families():
            t0 = time.perf_counter()
            fam = build()
            report = oc.verify_sq(fam)
            stacked = fam.npoints * fam.hdim ** 4 * 16
            out = {
                "hdim": fam.hdim,
                "verdict": report.verdict,
                "max_deviation": report.max_deviation,
                "commutant_dim": (oc.commutant_dim(fam)
                                  if stacked <= COMMUTANT_MAX_BYTES else None),
                "random_plane_invariant": oc.invariant_subspace_check(
                    fam, self.planes[fam.hdim]),
                "block_invariant": (None if block is None else
                                    oc.invariant_subspace_check(
                                        fam, np.eye(fam.hdim)[:, :block])),
                "tol": fam.working_tol(),
            }
            latencies.append(time.perf_counter() - t0)
            raw[name] = out

        t0 = time.perf_counter()
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        rp = oc.build_restricted([(self.w[3], 0, e0)] * 3)
        defects, overlaps = [], []
        for N in (1, 2, 3):
            for M in (0, 1, 2, 3):
                x, *vs = self.curve_vectors[(N, M)]
                u = rp.embed(x, M)
                defects.append(oc.sq_defect(rp, N, u, u))
                overlaps.append(oc.projected_overlap(rp, N, M, *vs))
        latencies.append(time.perf_counter() - t0)
        raw["restricted_curves"] = {"defects": defects, "overlaps": overlaps,
                                    "tol": EXACT_TOL}
        return raw, latencies

    def results(self, raw) -> dict:
        return dict(raw)

    def check(self, results) -> set:
        """Schur's lemma and the restricted-product bounds, family by family."""
        bad = set()
        for name, out in results.items():
            if name == "restricted_curves":
                defects = iter(out["defects"])
                ok = all(next(defects) <= out["tol"] or M > N
                         for N in (1, 2, 3) for M in (0, 1, 2, 3))
                ok = ok and all(v <= b + out["tol"] for v, b in out["overlaps"])
            else:
                irreducible = out["verdict"] == "pass"
                ok = not out["random_plane_invariant"]
                if out["commutant_dim"] is not None:
                    ok = ok and (out["commutant_dim"] == 1) == irreducible
                if out["block_invariant"] is not None:
                    ok = ok and out["block_invariant"] and not irreducible
            if not ok:
                bad.add(name)
        return bad


WORKLOADS = {
    "exact_batch": exact_batch,
    "magnetic_refine": magnetic_refine,
    "symbol_stream": lambda seed, scale: SymbolStream(
        seed, *((24, 200) if scale == "full" else (6, 20))),
    "certify": Certify,
}


def make(name: str, seed: int, scale: str = "full"):
    return WORKLOADS[name](seed, scale)
