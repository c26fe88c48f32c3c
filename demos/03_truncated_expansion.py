"""
Approximating log Z with a truncated cluster expansion
======================================================

Inside the zero-free region the Taylor series of log Z converges
geometrically, so a modest truncation order buys an eps-relative answer.
`approx` takes the smallest order whose certified remainder
|E| r^{m+1} / ((m+1)(1-r)), r = 1/q, is at most ln(1 + eps), and reports
that remainder with the order.
"""

import cmath
import math

from holant import (
    MultiGraph,
    approx_polynomial_report,
    brute_holant,
    region_bounds,
    uniform_assignment,
)
from holant.oracle import (
    cluster_log_coefficients,
    enumerate_clusters,
    enumerate_polymers,
    weight_map,
)
from holant.polymers import holant_prefactor

G = MultiGraph.from_text("6 8\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n0 3\n1 4\n")
assign = uniform_assignment(G, "matching")
delta = G.max_degree()

# stay at half the certified radius; the decay ratio is then 1/2
bound = region_bounds("holant-poly", delta=delta, kappa=1, r1=1.0).bound
z = (1.0, 0.5 * bound)
print(f"max degree {delta}, region radius {bound:.6f}, using z1 = {z[1]:.6f}")

exact = brute_holant(G, assign, z).value
print("exact Z =", exact.real)

for eps in (0.1, 0.01, 0.001):
    rep = approx_polynomial_report(G, assign, z, eps)
    rel = abs(rep.value / exact - 1)
    print(f"eps = {eps:6.3f}  order m = {rep.order:3d}  remainder = {rep.remainder:.2e}  "
          f"Z_hat = {rep.value.real:.10f}  rel err = {rel:.2e}")

# the report's coefficients are the formal log of the compatible-family
# polynomial; the textbook cluster/Ursell sum to the same order agrees
small = MultiGraph.from_text("3 3\n0 1\n1 2\n0 2\n")
sa = uniform_assignment(small, "matching")
za = (1.0, 0.02)
rep = approx_polynomial_report(small, sa, za, 0.01)
pool = enumerate_polymers(small, 1, small.edge_count)
wmap = weight_map(small, sa, za, pool)
live = [p for p in pool if wmap[p] != 0]
coeffs = cluster_log_coefficients(enumerate_clusters(live, rep.order), wmap, rep.order)
clusters = holant_prefactor(small, sa, za) * cmath.exp(sum(coeffs))
print("\nseries vs clusters on C3:", rep.value, clusters,
      "diff", abs(rep.value - clusters))
print("log-difference to exact:",
      abs(math.log(abs(rep.value)) - math.log(abs(brute_holant(small, sa, za).value))))
