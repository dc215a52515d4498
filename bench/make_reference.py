"""Regenerate ``bench/reference.json``: ``python3 bench/make_reference.py``.

Runs one pass of every workload, at both scales, on three input seeds and
stores the flattened leaves on which all three agree within the tolerance
each result records.  A workload may limit the stored operations to its
``reference_ops``, the ones whose outputs do not depend on the seed.  Run it only when a change is meant to alter results,
and say so in the change; the file committed with the benchmark holds the
outputs of the library as it stood when the benchmark was defined.
"""

import json

import env

env.bootstrap()

import refcheck  # noqa: E402  (after the thread cap is set)
import workloads  # noqa: E402

SEEDS = (11, 22, 33)


def reference_for(name: str, scale: str) -> dict:
    per_seed = []
    for seed in SEEDS:
        wl = workloads.make(name, seed, scale)
        wl.setup()
        raw, _ = wl.run_pass()
        results = wl.results(raw)
        if wl.check(results):
            raise SystemExit(f"{name}/{scale}: seed {seed} fails its own checks")
        per_seed.append({op: refcheck.flatten(rec, workloads.EXACT_TOL)
                         for op, rec in results.items()})
    ops = getattr(wl, "reference_ops", None) or per_seed[0]
    return {op: refcheck.agreeing([flats[op] for flats in per_seed]) for op in ops}


if __name__ == "__main__":
    ref = {scale: {name: reference_for(name, scale) for name in workloads.WORKLOADS}
           for scale in ("full", "smoke")}
    with open(env.ROOT / "bench" / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
