"""
Zero-free regions and per-instance certificates
===============================================

region_bounds gives closed-form radii per family of instances; verify_kp
checks the contraction condition directly on one concrete instance, which
can certify points the generic radius misses.
"""

from holant import MultiGraph, region_bounds, uniform_assignment, verify_kp

print("closed-form radii:")
rows = [
    ("matching", dict(delta=3)),
    ("holant-poly", dict(delta=3, kappa=1, r1=1.0)),
    ("holant-poly", dict(delta=3, kappa=2, r1=2.0)),
    ("holant-problem", dict(delta=3, kappa=1)),
    ("mcmc-poly", dict(delta=2, kappa=1, r1=1.0)),
    ("graph-pm", dict(delta=3)),
    ("hyper-pm", dict(delta=3, k=3)),
    ("linsys", dict(r=2, c=1, kappa=1)),
]
for family, params in rows:
    rep = region_bounds(family, **params)
    arg = ", ".join(f"{k}={v}" for k, v in params.items())
    print(f"  {family:15s} {arg:28s} -> {rep.bound:.6f}")

# a report also carries the alternative forms of the same threshold
rep = region_bounds("holant-problem", delta=3, kappa=1)
print("\nholant-problem variants:", {k: round(v, 6) for k, v in rep.values.items()})

# direct certification on C3 with matching signatures
G = MultiGraph.from_text("3 3\n0 1\n1 2\n0 2\n")
assign = uniform_assignment(G, "matching")
for z1 in (0.05, 0.2, 0.5):
    rep = verify_kp(G, assign, (1.0, z1))
    print(f"z1 = {z1:4.2f}  certified = {str(rep.certified):5s}  "
          f"worst margin = {rep.worst_margin:+.4f}")
