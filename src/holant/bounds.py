"""Zero-free region formulas and convergence-condition certificates.

Every closed-form bound states a radius for |z_i|/|z_0| (or for r(F), or for
the largest entry weight, depending on the family). Reports carry all the
variants a family has: the theorem-stated form is `bound`, and `values` also
holds the optimised-alpha form where one exists (the optimised form is never
smaller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from operator import mul, or_

from . import errors
from .errors import past_gate
from .graph import MultiGraph, connected_edge_sets, mask_vertices
from .polymers import weight_tables
from .signatures import SignatureAssignment, check_fugacities

_E = math.e
_SQRT5 = math.sqrt(5.0)

# the parameters each bound family needs, in the order the CLI lists families
FAMILY_PARAMS = {
    "boolean": ("delta", "r1"),
    "matching": ("delta",),
    "holant-poly": ("delta", "kappa", "r1"),
    "holant-problem": ("delta", "kappa"),
    "mcmc-poly": ("delta", "kappa", "r1"),
    "mcmc-problem": ("delta", "kappa"),
    "linsys": ("r", "c", "kappa"),
    "hyper-pm": ("delta", "k"),
    "graph-pm": ("delta",),
}
FAMILIES = tuple(FAMILY_PARAMS)


@dataclass
class RegionReport:
    family: str
    params: dict
    values: dict = field(default_factory=dict)
    bound: float = 0.0

    def __str__(self):
        parts = ", ".join(f"{k}={v}" for k, v in self.params.items())
        lines = [f"{self.family} ({parts}):"]
        for k, v in sorted(self.values.items()):
            lines.append(f"  {k:20s} {v:.9g}")
        return "\n".join(lines)


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _fugacity_core(delta: int, kappa: int, r1: float) -> dict:
    # general-alpha bound alpha / (r1 * delta * kappa * e^{alpha+1} * (alpha + r1));
    # alpha = 1 is the theorem statement, the stationary alpha is optimal
    simple = 1.0 / (delta * kappa * _E**2 * r1 * (r1 + 1.0))
    alpha = 0.5 * (math.sqrt(r1) * math.sqrt(r1 + 4.0) - r1)
    optimal = alpha / (r1 * delta * kappa * math.exp(alpha + 1.0) * (alpha + r1))
    return {"simple": simple, "optimal": optimal, "alpha_opt": alpha}


def region_bounds(family: str, **params) -> RegionReport:
    """Closed-form region radius for a bound family.

    The parameters each family needs are FAMILY_PARAMS[family]; a missing one
    raises ValueError.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    missing = [k for k in FAMILY_PARAMS[family] if params.get(k) is None]
    if missing:
        raise ValueError(f"family {family!r} needs {', '.join(missing)}")

    if family in ("boolean", "holant-poly"):
        delta = int(params["delta"])
        kappa = 1 if family == "boolean" else int(params["kappa"])
        r1 = float(params["r1"])
        _require(delta >= 1 and kappa >= 1 and 1.0 <= r1 < math.inf,
                 "need delta,kappa >= 1 and r1 >= 1 (r1 finite)")
        values = _fugacity_core(delta, kappa, r1)
        return RegionReport(family, dict(params, kappa=kappa), values, values["simple"])

    if family == "matching":
        delta = int(params["delta"])
        _require(delta >= 1, "need delta >= 1")
        v = 1.0 / (_E * (2 * delta - 1))
        return RegionReport(family, dict(params), {"simple": v}, v)

    if family == "holant-problem":
        delta, kappa = int(params["delta"]), int(params["kappa"])
        _require(delta >= 1 and kappa >= 1, "need delta, kappa >= 1")
        edge_form = (delta * kappa * _E) ** (-delta / 2.0) / (2.0 * math.sqrt(_E))
        vertex_form = 0.2058 * (kappa + 1.0) ** (-delta)
        vertex_exact = (
            (_SQRT5 - 1.0)
            / ((_SQRT5 + 1.0) * math.exp((_SQRT5 - 1.0) / 2.0))
            * (kappa + 1.0) ** (-delta)
        )
        values = {
            "edge_form": edge_form,
            "vertex_form": vertex_form,
            "vertex_form_exact": vertex_exact,
            "threshold": max(edge_form, vertex_form),
        }
        return RegionReport(family, dict(params), values, values["threshold"])

    if family == "mcmc-poly":
        delta, kappa, r1 = int(params["delta"]), int(params["kappa"]), float(params["r1"])
        _require(delta >= 1 and kappa >= 1 and 1.0 <= r1 < math.inf,
                 "need delta,kappa >= 1 and r1 >= 1 (r1 finite)")
        v = 1.0 / ((delta * kappa) ** 3 * _E**5 * r1**2)
        return RegionReport(family, dict(params), {"simple": v}, v)

    if family == "mcmc-problem":
        delta, kappa = int(params["delta"]), int(params["kappa"])
        _require(delta >= 1 and kappa >= 1, "need delta, kappa >= 1")
        v = (delta * kappa) ** (-1.5 * delta) * math.exp(-2.5 * delta)
        return RegionReport(family, dict(params), {"simple": v}, v)

    if family == "linsys":
        r, c, kappa = int(params["r"]), int(params["c"]), int(params["kappa"])
        _require(r >= 2, "row support r must be >= 2")
        _require(c >= 1 and kappa >= 1, "need c, kappa >= 1")
        simple = 1.0 / ((r * _E + 1.0) * c * kappa * math.sqrt(_E))
        alpha = (math.sqrt(8.0 * _E * r + 1.0) - 1.0) / (4.0 * _E * r)
        optimal = 2.0 * alpha / ((2.0 * r * _E * alpha + 1.0) * c * kappa * math.exp(alpha))
        values = {"simple": simple, "optimal": optimal, "alpha_opt": alpha}
        return RegionReport(family, dict(params), values, simple)

    if family == "hyper-pm":
        delta, k = int(params["delta"]), int(params["k"])
        _require(delta >= 1 and k >= 2, "need delta >= 1 and uniformity k >= 2")
        simple = 1.0 / ((delta - 1.0 + k) * _E)
        if delta == 1:
            values = {"simple": simple, "optimal": simple, "alpha_opt": 1.0}
        else:
            alpha = (math.sqrt(k * k + 4.0 * (delta - 1.0) * k) - k) / (2.0 * (delta - 1.0))
            optimal = alpha / ((alpha * (delta - 1.0) + k) * math.exp(alpha))
            values = {"simple": simple, "optimal": optimal, "alpha_opt": alpha}
        return RegionReport(family, dict(params), values, simple)

    if family == "graph-pm":
        delta = int(params["delta"])
        _require(delta >= 2, "need delta >= 2 (a single-edge graph has no alternating cycles)")
        printed = 1.0 / math.sqrt(4.85718 * (delta - 1.0))
        exact = math.sqrt(
            (3.0 - _SQRT5) / (2.0 * (delta - 1.0) * math.exp((_SQRT5 - 1.0) / 2.0))
        )
        values = {"printed": printed, "exact": exact}
        return RegionReport(family, dict(params), values, printed)

    raise AssertionError  # unreachable


def q_factor_fugacity(delta: int, kappa: int, r1: float, z) -> float:
    """q for the fugacity theorem: region radius over the largest |z_i|/|z_0|.

    q > 1 means strictly inside the region; the truncated expansion then uses
    ratio 1/q. Returns inf when every non-ground fugacity is zero.
    """
    z = check_fugacities(z, kappa)
    ratios = [abs(t) / abs(z[0]) for t in z[1:]]
    worst = max(ratios, default=0.0)
    if worst == 0.0:
        return math.inf
    return region_bounds("holant-poly", delta=delta, kappa=kappa, r1=r1).bound / worst


def q_factor_problem(delta: int, kappa: int, r_class: float) -> float:
    """q for the Holant-problem theorem: (threshold / r(F))^(1/Delta)."""
    if r_class < 0:
        raise ValueError("r(F) must be >= 0")
    if r_class == 0.0:
        return math.inf
    thr = region_bounds("holant-problem", delta=delta, kappa=kappa).bound
    return (thr / r_class) ** (1.0 / delta)


# ---------------------------------------------------------------------------
# Kotecky-Preiss certificate


@dataclass
class KpReport:
    certified: bool
    worst_margin: float
    polymer_count: int
    alpha: float
    size: str

    def __str__(self):
        status = "certified" if self.certified else "NOT certified"
        return (
            f"KP condition {status}: worst margin {self.worst_margin:.6g} "
            f"over {self.polymer_count} polymers (a = {self.alpha} * {self.size})"
        )


def kp_margins(pool, factors, a_vals):
    """Per-support margins sum_{gamma' incompatible} |Phi(gamma')| factor(gamma') - a(gamma).

    pool is `_gated_full_pool`'s; factors and a_vals hold one value per
    support, shared by all its colourings. Incompatibility is vertex-mask
    intersection (reflexive), so the sums collapse per distinct mask: each
    colouring adds |w| * factor to its mask, in pool order.
    """
    agg: dict = {}
    for (mask, _, weights), factor in zip(pool, factors):
        t = agg.get(mask, 0.0)
        for w in weights:
            t += abs(w) * factor
        agg[mask] = t
    lhs = {k: sum(v for k2, v in agg.items() if k & k2) for k in agg}
    return [lhs[mask] - a for (mask, _, _), a in zip(pool, a_vals)]


def _gated_full_pool(G: MultiGraph, assign: SignatureAssignment, z):
    """Every polymer of the instance, zero-weight ones included, by support.

    Returns one (vmask, |S|, weights) entry per connected support S, shortlex
    from one walk, with the weights of S's kappa^|S| colourings by 1..kappa in
    lexicographic order: `oracle.enumerate_polymers` order. One pass weighs
    each colouring from `polymers.weight_tables` and per-signature tables of
    f(i)/f(0), bitwise as `oracle.polymer_weight` does (a zero weight as 0j).
    The walk charges its own work; the pass's, |S| for every colouring, and
    the (distinct vertex masks)^2 pairs of the `kp_margins` loop are charged
    once after it, so an instance past `errors.WORK_GATE` raises GateExceeded
    before any weight, and before the ValueError, InvalidFugacity or NotInF0
    of the weights.
    """
    kappa = assign.kappa
    supports = connected_edge_sets(G, G.edge_count)
    bits = [(1 << u) | (1 << v) for u, v in G.edges]
    vmasks = [reduce(or_, [bits[e] for e in S]) for S in supports]
    verts = {m: mask_vertices(m) for m in vmasks}
    work = sum(len(S) * kappa ** len(S) for S in supports) + len(verts) ** 2
    if work > errors.WORK_GATE:
        raise past_gate(work, "colouring units and vertex-mask pairs")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    z = check_fugacities(z, kappa)
    ratio, ends = weight_tables(G, assign, z)
    tables: dict = {}
    for s in assign.sigs:
        if id(s) not in tables:
            tables[id(s)] = [t / s.f0 for t in s.table] if s.f0 else None
    quot = [tables[id(s)] for s in assign.sigs]
    idx = [0] * G.vertex_count  # signature indices, back to 0 after each colouring
    pool, size = [], 0
    for S, vmask in zip(supports, vmasks):
        n = len(S)
        if n != size:  # shortlex, so each size's colourings are built once, then dropped
            size = n
            colourings = [(cols, reduce(mul, [ratio[c] for c in cols], 1 + 0j))
                          for cols in product(range(1, kappa + 1), repeat=n)]
        at = [ends[e] for e in S]
        vs = verts[vmask]
        weights = []
        for cols, w in colourings:
            for (u, ru, v, rv), c in zip(at, cols):
                idx[u] += c * ru
                idx[v] += c * rv
            for x in vs:
                w *= quot[x][idx[x]]
                idx[x] = 0
            weights.append(w if w else 0j)
        pool.append((vmask, n, weights))
    return pool


def verify_kp(G: MultiGraph, assign: SignatureAssignment, z,
              alpha: float = 1.0, size: str = "edges") -> KpReport:
    """Check the convergence condition on the full polymer pool of an instance.

    a(gamma) = alpha * |E(gamma)| (size="edges") or alpha * |V(gamma)|
    (size="vertices"). Certification uses non-strict inequality. A False
    report means the certificate fails, not that Z has a zero.
    """
    z = check_fugacities(z, assign.kappa)
    if size not in ("edges", "vertices"):
        raise ValueError("size must be 'edges' or 'vertices'")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    pool = _gated_full_pool(G, assign, z)
    if size == "edges":
        a_vals = [alpha * n for _, n, _ in pool]
    else:
        a_vals = [alpha * vmask.bit_count() for vmask, _, _ in pool]
    margins = kp_margins(pool, [math.exp(a) for a in a_vals], a_vals)
    return KpReport(
        certified=all(m <= 0.0 for m in margins),
        worst_margin=max(margins, default=float("-inf")),
        polymer_count=sum(len(weights) for _, _, weights in pool),
        alpha=alpha,
        size=size,
    )
