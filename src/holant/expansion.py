"""Cluster expansion of log Z and the truncation-based approximation.

`approx` has one path, `approx_polynomial_report`, and one rule for its
zero-free radius q: each of the paper's two certificates in `CERTIFICATES`
that applies gives a q, and the largest wins. "fugacity" (Holant
polynomials) divides the holant-poly region bound by max |z_i|/|z_0| and
always applies; "problem" (small signature weights) scales the threshold
over r(F) to x = 1 and applies only when every z_i equals z_0.
`approx_problem_report` is the same call at z = (1, ..., 1). Then
`certified_order` fixes the truncation order m from q and eps, and
`log_z_coefficients` returns the Taylor coefficients a_1..a_m of
log Z(polymers, Phi * x^{|E(gamma)|}) around x = 0. Those coefficients are
checked against the zero-free bound, and the value is
prefactor * exp(a_1 + ... + a_m).

`log_z_coefficients` itself is one route. `polymers.walk_live` grows the
polymers of nonzero weight with at most m edges, each a plain (vertex mask,
size, weight) item in walk order. The partition function is a polynomial in
x of degree <= |E(G)| because family members are vertex-disjoint, and its
exact coefficients up to x^m come from `families.family_sum`, which alone
orders the items: a DP over G's vertices in BFS order whose state is
the set of vertices that chosen polymers cover ahead. Its cost is the number
of states times the polymers starting at each vertex (reported as
`family_states`), not the number of compatible families, which grows
exponentially with |E|. The formal power-series logarithm `series_log` then
yields every a_j.

The textbook cluster sum, which adds ursell(H) / prod(mult_i!) *
prod Phi^mult_i over connected multisets of polymers (clusters) of total
size <= m at a cost exponential in m, lives in `holant.oracle` as the
independent reference that the tests check this route against.

The truncation order is always the certified one: the smallest m whose
certified remainder (`truncation_remainder`) is at most ln(1 + eps), so
every report's remainder is at most ln(1 + eps).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import errors
from .bounds import region_bounds
from .errors import ConditionViolated, RegionViolation, past_gate
from .families import family_sum
from .graph import MultiGraph
from .polymers import compact_domain, holant_prefactor, walk_live
from .signatures import SignatureAssignment, check_fugacities


# ---------------------------------------------------------------------------
# Coefficients of log Z: family polynomial, then formal log


def series_log(c, m: int):
    """a_1..a_m of log of a power series with c[0] = 1."""
    if abs(c[0] - 1.0) > 1e-12:
        raise ValueError("series must start at 1")
    a = [0j] * (m + 1)
    for j in range(1, m + 1):
        cj = c[j] if j < len(c) else 0j
        acc = 0j
        for i in range(max(1, j - len(c) + 1), j):  # c[j - i] = 0 past len(c)
            acc += i * a[i] * c[j - i]
        a[j] = cj - acc / j
    return a[1:]


@dataclass
class TaylorSeries:
    coefficients: tuple  # a_1 .. a_m
    pool_size: int
    family_states: int = 0  # family-kernel transitions behind the coefficients


def log_z_coefficients(G: MultiGraph, assign: SignatureAssignment, z, m: int) -> TaylorSeries:
    """Taylor coefficients a_1..a_m of log Z around x = 0.

    Only polymers with at most min(m, |E|) edges can contribute, and only
    those of nonzero weight are grown (`polymers.walk_live`), so a domain
    value of zero fugacity is never tried. `families.family_sum` over G
    takes them as (vmask, size, w) items in walk order and gives their exact
    family polynomial c_0..c_min(m, |E|), which `series_log` turns into
    a_1..a_m. Without edges, or at m = 0, the pool is empty, c = (1,) and
    every a_j is 0. The approximation
    reports still pass the input through `compact_domain` first, which
    shrinks the signature tables the walk reads.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    z = check_fugacities(z, assign.kappa)
    # series_log's multiply-adds, known before the walk
    terms = m * (min(m, G.edge_count) + 1)
    if terms > errors.WORK_GATE:
        raise past_gate(terms, "series-log terms")
    if assign.kappa == 0:  # one colour: no polymer to grow
        return TaylorSeries(tuple([0j] * m), 0)
    cap = min(m, G.edge_count)
    items: list = []

    def keep(edges, colours, vmask, vertices, w):
        items.append((vmask, len(edges), w))

    walk_live(G, assign, z, cap, keep)
    c, transitions = family_sum(items, G, cap)
    return TaylorSeries(tuple(series_log(c, m)), len(items), transitions)


# ---------------------------------------------------------------------------
# Truncation and the approximation pipeline


def _require_eps(eps: float) -> None:
    """The one eps rule of the approximation and chain entry points."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")


def _require_ratio(ratio: float) -> None:
    if not 0.0 <= ratio < 1.0:
        raise RegionViolation(f"|x|/q = {ratio} is not inside [0, 1)")


def truncation_remainder(d: int, m: int, ratio: float) -> float:
    """Certified bound d r^{m+1} / ((m+1)(1-r)) on |log Z - T_m|, r = ratio.

    T_m is the order-m Taylor polynomial of log Z at |x| = r q, where Z has
    degree <= d and no zeros in |x| < q (Barvinok, Combinatorics and
    Complexity of Partition Functions, 2016, Lemma 2.2.1). Evaluated in
    logs, so that r^{m+1} cannot underflow before the division by (m+1)(1-r)
    does; 0.0 when r = 0.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    _require_ratio(ratio)
    if ratio == 0.0:
        return 0.0
    log_rem = (math.log(d) + (m + 1) * math.log(ratio)
               - math.log(m + 1) - math.log1p(-ratio))
    return math.exp(log_rem)


def certified_order(d: int, eps: float, ratio: float) -> int:
    """Smallest m >= 1 with truncation_remainder(d, m, ratio) <= ln(1 + eps).

    A log error |delta| <= ln(1 + eps) gives |e^delta - 1| <= eps and
    |arg e^delta| <= eps, the multiplicative eps guarantee. The remainder
    falls strictly with m, so m is found by doubling and then bisection in
    O(log m) evaluations, even for a ratio just below 1.
    """
    _require_eps(eps)
    target = math.log1p(eps)
    lo, hi = 0, 1  # the order sought is in (lo, hi] once remainder(hi) <= target
    while truncation_remainder(d, hi, ratio) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if truncation_remainder(d, mid, ratio) > target:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass
class ApproxReport:
    value: complex
    theorem: str
    q: float
    order: int
    pool_size: int
    eps: float
    region_bound: float
    prefactor: complex
    family_states: int  # family-kernel transitions behind the coefficients
    remainder: float  # certified bound on |log Z - (a_1 + ... + a_m)|, <= ln(1 + eps)
    coefficients: tuple  # a_1 .. a_m

    @property
    def last_coefficient(self) -> float:
        """|a_m|, 0.0 without coefficients."""
        return abs(self.coefficients[-1]) if self.coefficients else 0.0

    @property
    def decay(self) -> float | None:
        """|a_m| / |a_{m-1}|; None when m < 2 or a_{m-1} = 0."""
        if len(self.coefficients) < 2 or self.coefficients[-2] == 0:
            return None
        return abs(self.coefficients[-1]) / abs(self.coefficients[-2])


def _check_zero_free_bound(coefficients, d: int, q: float) -> None:
    """Raise ConditionViolated when some |a_j| > (1 + 1e-9) d / (j q^j).

    A polynomial Z(x) with Z(0) = 1, degree <= d and no zeros in |x| < q has
    log Z(x) = sum_i log(1 - x / zeta_i) over its zeros, so
    a_j = -(1/j) sum_i zeta_i^{-j} and |a_j| <= d / (j q^j) (Barvinok,
    Combinatorics and Complexity of Partition Functions, 2016, Sec. 2.2). A
    coefficient past that bound was lost to float64 cancellation in
    `series_log`, so its truncated sum carries no eps guarantee. Compared in
    logs, so that q^j cannot overflow.
    """
    log_q = math.log(q)
    for j, a in enumerate(coefficients, 1):
        if a == 0:
            continue
        log_bound = math.log(d / j) - j * log_q
        if math.log(abs(a)) > log_bound + math.log1p(1e-9):
            raise ConditionViolated(
                f"|a_{j}| = {abs(a):.6g} exceeds the zero-free bound |E|/(j q^j) = "
                f"{math.exp(log_bound):.6g} (|E| = {d}, q = {q:.6g}): the coefficients "
                "lost their precision, so the approximation is not certified"
            )


def _fugacity(G: MultiGraph, assign: SignatureAssignment, z):
    """The holant-poly region bound over the largest |z_i|/|z_0|; q is inf if
    that ratio underflows to 0."""
    bound = region_bounds("holant-poly", delta=G.max_degree(), kappa=assign.kappa,
                          r1=assign.r1()).bound
    worst = max(abs(t) / abs(z[0]) for t in z[1:])
    return (bound / worst if worst else math.inf), bound


def _problem(G: MultiGraph, assign: SignatureAssignment, z):
    """The small-signature threshold over r(F), scaled to x = 1 by the
    Delta-th root; q is inf when r(F) = 0. None unless every z_i equals z_0."""
    if any(t != z[0] for t in z[1:]):
        return None
    delta = G.max_degree()
    r_class = assign.ratio_r_class()
    bound = region_bounds("holant-problem", delta=delta, kappa=assign.kappa).bound
    return ((bound / r_class) ** (1.0 / delta) if r_class else math.inf), bound


# (theorem, certificate): each gives (q, region bound) or None where it does not apply
CERTIFICATES = (("fugacity", _fugacity), ("problem", _problem))


def approx_polynomial_report(G: MultiGraph, assign: SignatureAssignment, z,
                             eps: float) -> ApproxReport:
    """Multiplicative eps-approximation of the Holant polynomial at fugacity z.

    After `compact_domain`, every certificate in CERTIFICATES that applies
    gives a zero-free radius q, and the largest (the first on a tie) is the
    report's; m is the certified order for ratio 1/q, so the certified
    remainder is at most ln(1 + eps). Raises RegionViolation naming each q
    when none is above 1. An instance without edges or non-ground values
    needs no certificate (theorem "none"): log Z = 0, m = 0 and q = inf.
    Raises ConditionViolated if a coefficient breaks the zero-free bound of
    `_check_zero_free_bound` or the value is zero or not finite.
    """
    _require_eps(eps)
    z = check_fugacities(z, assign.kappa)
    prefactor = holant_prefactor(G, assign, z)
    assign, z, _ = compact_domain(assign, z)
    theorem, q, bound = "none", math.inf, math.inf
    remainder = 0.0
    series = TaylorSeries((), 0)
    if G.edge_count and assign.kappa:
        found = [(name, *cert) for name, fn in CERTIFICATES
                 if (cert := fn(G, assign, z)) is not None]
        theorem, q, bound = max(found, key=lambda c: c[1])
        if q <= 1.0:
            raise RegionViolation("no certificate gives q > 1: " + "; ".join(
                f"{name} region bound {b:.6g} (q = {cq:.6g} <= 1)" for name, cq, b in found
            ))
        m = certified_order(G.edge_count, eps, 1.0 / q)
        remainder = truncation_remainder(G.edge_count, m, 1.0 / q)
        series = log_z_coefficients(G, assign, z, m)
        _check_zero_free_bound(series.coefficients, G.edge_count, q)
    total = sum(series.coefficients, 0j)
    try:
        value = prefactor * cmath.exp(total)
    except OverflowError:  # exp(total) alone is past the float range
        value = complex(math.inf)
    if value == 0 or not cmath.isfinite(value):
        raise ConditionViolated(
            f"approximation evaluates to {value} (prefactor {prefactor}, truncated "
            f"log series {total:.6g}), outside float range: no certified value"
        )
    return ApproxReport(
        value=value,
        theorem=theorem,
        q=q,
        order=len(series.coefficients),
        pool_size=series.pool_size,
        eps=eps,
        region_bound=bound,
        prefactor=prefactor,
        family_states=series.family_states,
        remainder=remainder,
        coefficients=series.coefficients,
    )


def approx_problem_report(G: MultiGraph, assign: SignatureAssignment,
                          eps: float) -> ApproxReport:
    """`approx_polynomial_report` at z = (1, ..., 1), the Holant problem."""
    return approx_polynomial_report(G, assign, (1.0,) * (assign.kappa + 1), eps)
