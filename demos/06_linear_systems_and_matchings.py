"""
Weighted solution counting and matching polynomials
===================================================

Two applications of the same polymer machinery: box-constrained integer
solutions of sparse linear systems, and perfect-matching polynomials of
graphs and hypergraphs relative to a reference matching.
"""

from holant import (
    Hypergraph,
    LinearSystem,
    MultiGraph,
    brute_weighted_count,
    pm_polynomial_graph,
    pm_polynomial_hypergraph,
    weighted_count,
)
from holant.linsys import linsys_region, perfect_matchings

# Ax = 0 with x_j in {0..cap_j}, each solution weighted by prod w_j^{x_j}
sys_ = LinearSystem(
    rows=[[1, -1, 0], [0, 1, -1]],
    caps=[2, 2, 2],
    weights=[0.3, 0.4, 0.5],
)
rep = weighted_count(sys_)
print("weighted count:", rep.value)
print("brute check:   ", brute_weighted_count(sys_))
print("polymers:", rep.polymer_count, " families:", rep.family_count)
print("region:", round(linsys_region(sys_).bound, 6))

# perfect matchings of a 3-uniform hypergraph (rows and columns of a grid)
H = Hypergraph(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)])
pms = perfect_matchings(H)
print("\nhypergraph matchings:", pms)
print("Z_pm at z=0.3 from the rows:", pm_polynomial_hypergraph(H, pms[0], 0.3))

# graph case: K4 relative to one of its three perfect matchings
K4 = MultiGraph.from_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
M = (0, 5)  # edges 01 and 23
for z in (0.1, 0.25):
    poly = pm_polynomial_graph(K4, M, z, mode="polymer")
    exact = pm_polynomial_graph(K4, M, z, mode="exact")
    print(f"K4, z = {z}:  polymer {poly:.10f}  exact {exact:.10f}  "
          f"(1 + 2 z^4 = {1 + 2 * z**4:.10f})")
