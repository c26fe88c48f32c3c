"""Resolve every op's fugacity or weight and compute its exact reference.

    PYTHONPATH=src python3 bench/refs.py        # rewrites bench/refs.json

Runs once, outside every timed region; run.py only reads the result. Each
entry stores the unrelabelled instance text (run.py refuses to start when
workloads.py no longer produces it), the resolved parameter, the reference
and the oracle that produced it:

* brute_holant for graphs with at most 18 edges;
* the closed-form cycle matching polynomial sum_k n/(n-k) C(n-k,k) t^k;
* brute_weighted_count for linear systems, plus the number of vector polymers
  (non-zero box solutions with connected support) counted by a numpy sweep
  over the whole box;
* pm_polynomial_graph(mode="exact") for perfect-matching polynomials.

Relabelling preserves every one of these values, so one reference serves all
seeds.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instances  # noqa: E402
from workloads import FRACTION, all_ops  # noqa: E402

BRUTE_EDGE_LIMIT = 18


def _assignment(G, sig):
    from holant.signatures import uniform_assignment

    if sig == "matching":
        return uniform_assignment(G, "matching")
    name, weight = sig.split(":")
    return uniform_assignment(G, name, complex(weight))


def cycle_matching_polynomial(n: int, t: float) -> float:
    return sum(n / (n - k) * math.comb(n - k, k) * t**k for k in range(n // 2 + 1))


def vector_polymer_count(rows, caps) -> int:
    """Non-zero solutions of A x = 0 in the box whose column support is connected."""
    A = np.array(rows, dtype=np.int64)
    n, m = A.shape
    vectors = itertools.product(*[range(c + 1) for c in caps])
    sols = []
    while chunk := list(itertools.islice(vectors, 100_000)):
        box = np.array(chunk, dtype=np.int64)
        sols.extend(box[np.all(box @ A.T == 0, axis=1)])
    col_rows = [int(sum(1 << i for i in range(n) if A[i, j])) for j in range(m)]
    count = 0
    for x in sols:
        support = [j for j in range(m) if x[j]]
        if not support:
            continue
        reach, frontier = col_rows[support[0]], {support[0]}
        rest = set(support[1:])
        while frontier:
            frontier = {j for j in rest if col_rows[j] & reach}
            rest -= frontier
            for j in frontier:
                reach |= col_rows[j]
        count += not rest
    return count


def resolve(op: dict) -> dict:
    from holant import linsys as L
    from holant.bounds import region_bounds
    from holant.graph import MultiGraph
    from holant.oracle import brute_holant

    text = instances.render(op["instance"])
    entry = {"instance": text}
    if op["cmd"] == "linsys":
        system = L.parse_matrix_file(text)  # caps fix the region; weights do not
        w = FRACTION * L.linsys_region(system).bound
        system = L.parse_matrix_file(instances.render(op["instance"], weight=w))
        gate = L.SUPPORT_BOX_GATE
        L.SUPPORT_BOX_GATE = 10**8  # the oracle sweeps the whole box
        try:
            ref = L.brute_weighted_count(system)
        finally:
            L.SUPPORT_BOX_GATE = gate
        entry.update(param=w, reference=[ref.real, ref.imag], oracle="brute_weighted_count",
                     polymer_count=vector_polymer_count(system.rows, system.caps))
        return entry
    if op["cmd"] == "pm":
        G, matching, _ = L.parse_pm_file(text)
        zc = FRACTION * region_bounds("graph-pm", delta=G.max_degree()).bound
        defaults = L.perfect_matchings.__defaults__
        L.perfect_matchings.__defaults__ = (10**8,)
        try:
            ref = complex(L.pm_polynomial_graph(G, matching, zc, mode="exact"))
        finally:
            L.perfect_matchings.__defaults__ = defaults
        entry.update(param=zc, reference=[ref.real, ref.imag], oracle="pm_polynomial_graph exact")
        return entry
    G = MultiGraph.from_text(text)
    assign = _assignment(G, op["sig"])
    z1 = FRACTION * region_bounds(op["region"], delta=G.max_degree(), kappa=1,
                                  r1=assign.r1()).bound
    entry["param"] = z1
    if op["cmd"] in ("approx", "count-mcmc"):
        if G.edge_count <= BRUTE_EDGE_LIMIT:
            ref = brute_holant(G, assign, (1.0, z1)).value
            oracle = "brute_holant"
        elif op["instance"]["kind"] == "cycle" and op["sig"] == "matching":
            ref = complex(cycle_matching_polynomial(G.edge_count, z1))
            oracle = "cycle matching polynomial"
        else:
            raise ValueError(f"{op['id']}: no exact oracle for {G.edge_count} edges")
        entry.update(reference=[ref.real, ref.imag], oracle=oracle)
    return entry


def main() -> int:
    out = {}
    for op in all_ops():
        out[op["id"]] = resolve(op)
        print(op["id"], out[op["id"]].get("reference"), flush=True)
    (HERE / "refs.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
