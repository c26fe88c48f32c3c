"""Zero-free region formulas and convergence-condition certificates.

Every closed-form bound states a radius for |z_i|/|z_0| (or for r(F), or for
the largest entry weight, depending on the family). Reports carry all the
variants a family has: the theorem-stated form is `bound`, and `values` also
holds the optimised-alpha form where one exists (the optimised form is never
smaller). Two tables hold every family: `PARAM_TYPES` gives the type of each
parameter (and the `bounds` command's flags), and `RADII` gives each family
its parameter names and its radius function, one formula with its checks; a
new radius is one function plus one entry.

`verify_kp` certifies the Kotecky-Preiss condition of one instance from
per-vertex sums over its live polymers of at most `KP_ORDER` edges plus an
analytic bound on the larger ones, so its cost grows with |V|, not with the
number of connected edge sets. It and the chain's direct checks
(`mcmc.check_chain_conditions`) fold their sums from the one weighing walk,
`polymers.walk_live`. verify_kp first refuses an assignment built for
another graph and names the first vertex whose signature is off F0, an
isolated vertex included, as approx and the chain commands do; r(F) skips
isolated vertices.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial

from .graph import MultiGraph
from .polymers import walk_live
from .signatures import SignatureAssignment, check_fugacities

_E = math.e
_SQRT5 = math.sqrt(5.0)
_LOG_MAX = math.log(sys.float_info.max)


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


def _fugacity(delta, kappa, r1):
    _require(delta >= 1 and kappa >= 1 and 1.0 <= r1 < math.inf,
             "need delta,kappa >= 1 and r1 >= 1 (r1 finite)")
    # general-alpha bound alpha / (r1 * delta * kappa * e^{alpha+1} * (alpha + r1));
    # alpha = 1 is the theorem statement, the stationary alpha is optimal
    simple = 1.0 / (delta * kappa * _E**2 * r1 * (r1 + 1.0))
    alpha = 0.5 * (math.sqrt(r1) * math.sqrt(r1 + 4.0) - r1)
    optimal = alpha / (r1 * delta * kappa * math.exp(alpha + 1.0) * (alpha + r1))
    return {"simple": simple, "optimal": optimal, "alpha_opt": alpha}, simple


def _matching(delta):
    _require(delta >= 1, "need delta >= 1")
    v = 1.0 / (_E * (2 * delta - 1))
    return {"simple": v}, v


def _holant_problem(delta, kappa):
    _require(delta >= 1 and kappa >= 1, "need delta, kappa >= 1")
    edge_form = (delta * kappa * _E) ** (-delta / 2.0) / (2.0 * math.sqrt(_E))
    vertex_form = 0.2058 * (kappa + 1.0) ** (-delta)
    vertex_exact = ((_SQRT5 - 1.0) / ((_SQRT5 + 1.0) * math.exp((_SQRT5 - 1.0) / 2.0))
                    * (kappa + 1.0) ** (-delta))
    threshold = max(edge_form, vertex_form)
    return {"edge_form": edge_form, "vertex_form": vertex_form,
            "vertex_form_exact": vertex_exact, "threshold": threshold}, threshold


def _mcmc_poly(delta, kappa, r1):
    _require(delta >= 1 and kappa >= 1 and 1.0 <= r1 < math.inf,
             "need delta,kappa >= 1 and r1 >= 1 (r1 finite)")
    v = 1.0 / ((delta * kappa) ** 3 * _E**5 * r1**2)
    return {"simple": v}, v


def _mcmc_problem(delta, kappa):
    _require(delta >= 1 and kappa >= 1, "need delta, kappa >= 1")
    v = (delta * kappa) ** (-1.5 * delta) * math.exp(-2.5 * delta)
    return {"simple": v}, v


def _linsys(r, c, kappa):
    _require(r >= 2, "row support r must be >= 2")
    _require(c >= 1 and kappa >= 1, "need c, kappa >= 1")
    simple = 1.0 / ((r * _E + 1.0) * c * kappa * math.sqrt(_E))
    alpha = (math.sqrt(8.0 * _E * r + 1.0) - 1.0) / (4.0 * _E * r)
    optimal = 2.0 * alpha / ((2.0 * r * _E * alpha + 1.0) * c * kappa * math.exp(alpha))
    return {"simple": simple, "optimal": optimal, "alpha_opt": alpha}, simple


def _hyper_pm(delta, k):
    _require(delta >= 1 and k >= 2, "need delta >= 1 and uniformity k >= 2")
    simple = 1.0 / ((delta - 1.0 + k) * _E)
    if delta == 1:
        return {"simple": simple, "optimal": simple, "alpha_opt": 1.0}, simple
    alpha = (math.sqrt(k * k + 4.0 * (delta - 1.0) * k) - k) / (2.0 * (delta - 1.0))
    optimal = alpha / ((alpha * (delta - 1.0) + k) * math.exp(alpha))
    return {"simple": simple, "optimal": optimal, "alpha_opt": alpha}, simple


def _graph_pm(delta):
    _require(delta >= 2, "need delta >= 2 (a single-edge graph has no alternating cycles)")
    printed = 1.0 / math.sqrt(4.85718 * (delta - 1.0))
    exact = math.sqrt((3.0 - _SQRT5) / (2.0 * (delta - 1.0) * math.exp((_SQRT5 - 1.0) / 2.0)))
    return {"printed": printed, "exact": exact}, printed


PARAM_TYPES = {"delta": int, "kappa": int, "r1": float, "r": int, "c": int, "k": int}

# family -> (the parameters it needs, its radius), in the order the CLI lists
# families; a radius takes those parameters, converted by PARAM_TYPES, and
# returns (values, bound)
RADII = {
    "boolean": (("delta", "r1"), partial(_fugacity, kappa=1)),
    "matching": (("delta",), _matching),
    "holant-poly": (("delta", "kappa", "r1"), _fugacity),
    "holant-problem": (("delta", "kappa"), _holant_problem),
    "mcmc-poly": (("delta", "kappa", "r1"), _mcmc_poly),
    "mcmc-problem": (("delta", "kappa"), _mcmc_problem),
    "linsys": (("r", "c", "kappa"), _linsys),
    "hyper-pm": (("delta", "k"), _hyper_pm),
    "graph-pm": (("delta",), _graph_pm),
}
FAMILIES = tuple(RADII)


def _read_param(name: str, value):
    """value converted by PARAM_TYPES[name]. An int parameter refuses a bool
    and a value that int() would truncate, such as delta = 2.5."""
    kind = PARAM_TYPES[name]
    if kind is int and (isinstance(value, bool) or not isinstance(value, int)
                        and not float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def region_bounds(family: str, **params) -> RegionReport:
    """Closed-form region radius for a bound family.

    The parameters each family needs are RADII[family][0]; a missing one
    raises ValueError, and so does an int parameter that is a bool or not
    a whole number. Each is converted once by PARAM_TYPES; the report
    lists the parameters as given, but the fugacity families' kappa as read.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    names, radius = RADII[family]
    missing = [k for k in names if params.get(k) is None]
    if missing:
        raise ValueError(f"family {family!r} needs {', '.join(missing)}")
    args = {k: _read_param(k, params[k]) for k in names}
    values, bound = radius(**args)
    if getattr(radius, "func", radius) is _fugacity:  # boolean reads kappa = 1
        params["kappa"] = dict(args, **getattr(radius, "keywords", {}))["kappa"]
    return RegionReport(family, params, values, bound)


# ---------------------------------------------------------------------------
# Kotecky-Preiss certificate


@dataclass
class KpReport:
    certified: bool
    worst_margin: float
    polymer_count: int
    alpha: float
    size: str
    order: int
    tail: float

    def __str__(self):
        status = "certified" if self.certified else "NOT certified"
        return (
            f"KP condition {status}: worst vertex margin {self.worst_margin:.6g} "
            f"from {self.polymer_count} live polymers of at most {self.order} edges "
            f"plus a tail of {self.tail:.6g} (a = {self.alpha} * {self.size})"
        )


KP_ORDER = 4  # the largest polymers verify_kp lists; the tail bounds the rest


def _exp(x: float) -> float:
    """e^x, or inf past the float range."""
    return math.exp(x) if x < _LOG_MAX else math.inf


def _kp_tail(G: MultiGraph, assign: SignatureAssignment, z, alpha: float, size: str,
             order: int) -> float:
    """T, a bound on sum |Phi(gamma)| e^{a(gamma)} over the polymers of more
    than `order` edges that contain one given edge.

    Such a polymer of k edges has a connected support among at most
    (e(2 Delta - 2))^{k-1} (the connected sets of k vertices through a given
    vertex of the line graph, whose degree is at most 2 Delta - 2; Borgs,
    Chayes, Kahn and Lovasz, Lemma 2.1), its colourings weigh at most s^k in
    fugacity, s = sum_{c >= 1} |z_c / z_0|, and its at most k + 1 vertices at
    most R each, R = max(1, |f_x(i) / f_x(0)|) over the non-isolated x. So

        T = sum_{k = order+1}^{|E|} (e(2 Delta - 2))^{k-1} s^k R^{k+1} e^{a_k},

    a_k = alpha k for size "edges" and alpha (k + 1) for "vertices". The
    log of the k-th term is linear in k, so the sum is a geometric series,
    taken in logs; past the float range T is inf.
    """
    n = G.edge_count - order
    line_degree = 2 * G.max_degree() - 2
    s = sum(abs(t / z[0]) for t in z[1:])
    if n <= 0 or line_degree == 0 or s == 0:
        return 0.0
    log_r = math.log(assign.r1())
    log_grow = math.log(_E * line_degree)
    slope = log_grow + math.log(s) + log_r + alpha  # log term_k = first + slope * k
    first = -log_grow + log_r + (alpha if size == "vertices" else 0.0)
    # log sum_{j < n} e^{slope j}, factored at its largest term
    top, c = max(0.0, slope * (n - 1)), -abs(slope)
    series = math.log(n) if c == 0 else math.log(math.expm1(c * n) / math.expm1(c))
    return _exp(first + slope * (order + 1) + top + series)


def verify_kp(G: MultiGraph, assign: SignatureAssignment, z,
              alpha: float = 1.0, size: str = "edges") -> KpReport:
    """Certify the Kotecky-Preiss condition of an instance from per-vertex sums.

    a(gamma) = alpha * |E(gamma)| (size="edges") or alpha * |V(gamma)|
    (size="vertices"). Polymers are incompatible when they share a vertex,
    so the condition's sum over the polymers incompatible with gamma is at
    most sum_{v in V(gamma)} L(v), where

        L(v) = sum_{live gamma' through v, |E(gamma')| <= m} |Phi(gamma')| e^{a(gamma')}
               + deg(v) T,

    m = min(|E|, KP_ORDER) (`order`), the live polymers come from one
    `polymers.walk_live`, and T (`_kp_tail`) bounds the rest
    through each edge at v. Hence L(v) <= theta at every vertex certifies
    the condition, with theta = alpha for "vertices" and alpha / 2 for
    "edges" (|V(gamma)| <= 2 |E(gamma)|). worst_margin is the largest
    L(v) - theta over the non-isolated v (-inf without edges), tail the
    largest deg(v) T. Certification uses non-strict inequality. A False
    report means the certificate fails, not that the full condition fails
    or that Z has a zero.
    """
    z = check_fugacities(z, assign.kappa)
    if size not in ("edges", "vertices"):
        raise ValueError("size must be 'edges' or 'vertices'")
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    assign.check_graph(G)
    assign.check_f0()  # every vertex, isolated ones too, as approx and the chain do
    order = min(G.edge_count, KP_ORDER)
    load = [0.0] * G.vertex_count
    count = 0

    def keep(edges, _, __, vertices, w):
        nonlocal count
        count += 1
        t = abs(w) * _exp(alpha * len(edges if size == "edges" else vertices))
        for x in vertices:
            load[x] += t

    walk_live(G, assign, z, order, keep)
    tail = _kp_tail(G, assign, z, alpha, size, order)
    theta = alpha if size == "vertices" else alpha / 2
    margins = [load[v] + G.degree(v) * tail - theta
               for v in range(G.vertex_count) if G.degree(v)]
    return KpReport(
        certified=all(m <= 0.0 for m in margins),
        worst_margin=max(margins, default=float("-inf")),
        polymer_count=count,
        alpha=alpha,
        size=size,
        order=order,
        tail=G.max_degree() * tail,
    )
