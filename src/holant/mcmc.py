"""Polymer Markov chain: sampling from the Gibbs measure and annealed counting.

Requires non-negative real weights; the commands run the chain only on a
certified instance. `certify_chain` decides the certificate: "region" inside the mcmc-poly
region bound, else "direct" when the sampling and the mixing condition hold
on the live polymers. Certifying is the command's step, not the chain's:
`sample_assignments` and `fpras_estimate` go through `_chain_map`, which
charges the planned steps, certifies once and then builds `PolymerChain`.

The chain state is a compatible family; one step picks a uniform edge e0
and either removes the polymer covering e0 (probability 1/2) or, if e0 is
uncovered, proposes a polymer containing e0 from the single-polymer
distribution mu0 and inserts it (probability 1/2) when it is compatible with
the rest of the state.

mu0 draws a geometric size budget k with P(k = i) = (1 - e^-rho) e^-rho*i,
lists the polymers containing e0 with at most k edges, and accepts polymer
gamma with probability Phi(gamma) e^{rho |E(gamma)|}, so that the overall
output probability is exactly Phi(gamma). rho = tau - 2 - ln(kappa*Delta),
where tau certifies Phi(gamma) <= e^{-tau |E(gamma)|}. `run` draws no first
uniform below k0 2^-53 (k0 just above e^-rho; random() has 53 bits), so k
never exceeds reach = floor(-ln(k0 2^-53) / rho), and the chain
lists only the live polymers up to reach edges: no larger one is ever drawn.
It lists those at an edge only when a draw there first needs them, and only
up to the draw's budget (`PolymerChain`).

`PolymerChain.run` is the one stepping loop. It simulates the chain
rejection-free (the "n-fold way" of Bortz, Kalos and Lebowitz), with mu0's
acceptance and the insertion coin folded into the skip by thinning (Lewis and
Shedler). Split the first mu0 uniform at theta, just above e^{-2 rho}: one
in (0, theta] may give any budget, one in (theta, e^-rho] gives k = 1 and
then accepts with the size-1 mass T1(e) of e's candidates, and one above
e^-rho gives k = 0. So an insertion attempt at an uncovered edge e can change
the state with probability at most a(e) = theta + (e^-rho - theta) T1(e)
(T1 is capped at 1: a mass above 1 raises), and A >= max_e a(e) is read from
the signature tables (`set_scale`). A step
is a candidate with the probability p = c/(2|E|) + (1 - c/|E|) A/2, c the
covered edge count, and while the state is unchanged p is constant, so one
uniform draws the geometric number of skipped steps and each loop iteration
is one candidate: a removal at a uniform covered edge, or an insertion at a
uniform uncovered edge e0 that goes on with probability a(e0)/A, with a first
mu0 uniform on (0, theta] (probability theta/a(e0)) or else a pick from e0's
size-1 candidates. Every step of the chain above that the loop skips could
not change the state, so the chain's law is exactly that of the step, but
the random stream is not the one-draw-per-step stream.
`run(state, steps, rng, stride)` also returns the state's total edge count
after every stride-th step, the FPRAS readings of one annealing stage.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from . import errors
from .bounds import region_bounds
from .errors import (ConditionViolated, GateExceeded, RegionViolation, UnsupportedWeights,
                     past_gate)
from .expansion import _require_eps
from .graph import MultiGraph, mask_vertices
from .polymers import (
    ColouredPolymer,
    LiveWalk,
    family_to_assignment,
    holant_prefactor,
    walk_live,
)
from .signatures import SignatureAssignment, check_fugacities

DEFAULT_XI = 0.75
_STRIDE = 2  # chain steps between FPRAS samples


def tau_floor(kappa: int, delta: int) -> float:
    return 5.0 + 3.0 * math.log(kappa * delta)


def substream(seed: int, index: int) -> random.Random:
    """Independent named stream: 64 bits of SHA-256 over (seed, index)."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def derive_seed(*parts) -> int:
    """Deterministic default seed from instance content."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def mixing_time(G: MultiGraph, eps: float) -> int:
    """2|E| ln(n/eps) / (1 - xi) chain steps, rounded up and at least 1, with
    xi = DEFAULT_XI: 8|E| ln(n/eps). A graph without edges needs 0 steps."""
    _require_eps(eps)
    if not G.edge_count:
        return 0
    n = max(1, G.vertex_count)
    t = 2.0 * G.edge_count * math.log(n / eps) / (1.0 - DEFAULT_XI)
    return max(1, math.ceil(t))


def _require_nonneg(assign: SignatureAssignment, z):
    z = check_fugacities(z, assign.kappa)
    if any(t.imag != 0 or t.real < 0 for t in z):
        raise UnsupportedWeights("chain requires non-negative real fugacities")
    if not assign.is_nonneg_real():
        raise UnsupportedWeights("chain requires non-negative real signature tables")
    return tuple(t.real for t in z)


def check_chain_conditions(G: MultiGraph, assign: SignatureAssignment, z):
    """The sampling and the mixing condition, both folded from one `walk_live`
    to |E| edges.

    Returns ((ok, tau_star, tau_required), (ok, worst margin)): tau_star is the
    largest tau with Phi(g) <= e^{-tau |E(g)|} for every polymer g, and the
    mixing margin of g is sum_{g' incompatible} |E(g')| Phi(g') - xi |E(g)|,
    xi = DEFAULT_XI. Both need only the live polymers: a zero-weight g bounds
    nothing in the first, and adds nothing to any sum in the second.

    The margins are taken at the single edges only, and they decide the
    mixing condition exactly. Every g' that meets a connected support S meets
    some edge e of S, and xi |S| is the sum of xi over the edges of S, so
    margin(S) <= sum_{e in S} margin(e): when no edge margin is positive, no
    margin is. Each g' adds |E(g')| Phi(g') to its vertex mask, and the
    margin of e = {u, v} sums the masks that meet u or v, minus xi. worst is
    the largest edge margin, which is the largest margin overall whenever
    the condition holds.
    """
    zr = _require_nonneg(assign, z)
    agg: dict = {}
    tau_star = math.inf

    def keep(edges, _, vmask, __, w):
        nonlocal tau_star
        agg[vmask] = agg.get(vmask, 0.0) + len(edges) * w.real
        tau_star = min(tau_star, -math.log(w.real) / len(edges))

    walk_live(G, assign, zr, G.edge_count, keep)
    need = tau_floor(assign.kappa, max(1, G.max_degree()))
    inc = G.incident_masks()
    margins = [-DEFAULT_XI] * G.edge_count
    for vmask, t in agg.items():
        touched = 0  # the edges that meet vmask
        for x in mask_vertices(vmask):
            touched |= inc[x]
        for e in mask_vertices(touched):  # set bits of an edge mask: edge ids
            margins[e] += t
    worst = max(margins, default=float("-inf"))
    return (tau_star >= need, tau_star, need), (not any(m > 0 for m in margins), worst)


class ChainState:
    """Current compatible family with per-edge ownership, and in moves the
    counts of candidate steps `PolymerChain.run` visited and of the insertions
    and removals among them."""

    def __init__(self, G: MultiGraph):
        self.edge_owner = [None] * G.edge_count
        self.occupied = 0
        self.total_edges = 0
        self.moves = {"visited": 0, "inserted": 0, "removed": 0}

    def family(self):
        return sorted({p for p in self.edge_owner if p is not None}, key=ColouredPolymer.sort_key)


def certify_chain(G: MultiGraph, assign: SignatureAssignment, z) -> str:
    """The chain's certificate for an instance: "region" when the fugacity
    ratios sit inside the mcmc-poly region bound, else "direct" when
    `check_chain_conditions`, the direct checks of the sampling and mixing
    conditions on the live polymers, both hold.

    Raises RegionViolation when neither certifies, also when the direct
    checks pass the work gate, and NotInF0 naming the first vertex whose
    table has f(0) = 0.
    """
    z = _require_nonneg(assign, z)
    assign.check_f0()  # names the vertex, which r(F) below cannot
    bound = region_bounds(
        "mcmc-poly", delta=max(1, G.max_degree()), kappa=assign.kappa, r1=assign.r1()
    ).bound
    if max([zi / z[0] for zi in z[1:]], default=0.0) <= bound:
        return "region"
    try:
        (ok_s, tau_star, need), (ok_m, worst) = check_chain_conditions(G, assign, z)
    except GateExceeded as exc:
        raise RegionViolation(f"instance not certified for the chain: fugacity ratio "
                              f"bound {bound:.6g} violated and direct verification "
                              f"was gated ({exc})") from exc
    if ok_s and ok_m:
        return "direct"
    raise RegionViolation(
        "instance not certified for the chain: "
        f"fugacity ratio bound {bound:.6g} violated and direct checks give "
        f"tau* = {tau_star:.6g} (need >= {need:.6g}), mixing margin {worst:.6g}"
    )


def _mass_above_one(total: float, e0: int) -> ConditionViolated:
    return ConditionViolated(f"mu0 acceptance mass {total:.6g} > 1 at edge {e0}; "
                             "weights violate the sampling condition for this tau")


class PolymerChain:
    """Bound instance: chain parameters plus per-edge mu0 candidate lists,
    each listed when a draw first needs it.

    tau is tau_floor(kappa, Delta), and the mixing condition fixes xi at
    DEFAULT_XI = 0.75. The chain certifies nothing: the commands certify the
    instance with `certify_chain` before they build it (`_chain_map`).

    A draw at e0 with size budget k needs the live polymers through e0 with
    at most k edges, in `ColouredPolymer.sort_key` order, so ascending by
    size. The chain keeps, per edge, the list walked so far and the size it
    is complete to (`_listed`); a budget past it walks from e0 to
    min(k, `_reach`) (`polymers.LiveWalk.walk`) and sorts. Each list is thus
    a prefix of the list to `_reach`, whose weights are those of one walk from
    every edge, and its cumulative sums are the same additions in the same
    order: every draw is the one an eager build gives. `set_scale` only marks
    the sums stale; `_ready[e]` is the budget up to which edge e's list and
    sums serve a draw as they stand. `_base` lists every edge to `_reach`.
    """

    def __init__(self, G: MultiGraph, assign: SignatureAssignment, z):
        self.G = G
        self.z = _require_nonneg(assign, z)
        kappa, delta = assign.kappa, max(1, G.max_degree())
        self.tau = tau_floor(kappa, delta)
        self.rho = self.tau - 2.0 - math.log(kappa * delta)
        # a first mu0 uniform above e^{-rho} gives k = 0; the 1e-9 keeps the
        # skipped values clear of rounding in int(-log(u) / rho)
        self._k0 = math.exp(-self.rho) * (1.0 + 1e-9)
        # a first uniform above theta gives k <= 1, with the same margin; the
        # first uniforms in (theta, e^-rho] give k = 1, and span is their width
        self._theta = math.exp(-2.0 * self.rho) * (1.0 + 1e-9)
        self._span = math.exp(-self.rho) - self._theta
        # the largest size budget a draw of `run` can give (module docstring)
        self._reach = int(-math.log(self._k0 * 2.0**-53) / self.rho)
        self._walk = LiveWalk(G, assign, self.z)
        self._t1_max = self._size1_mass_max()
        n = G.edge_count
        # per edge: candidates with weights at scale 1, their sizes, the
        # scale-free parts of the mu0 acceptance masses w x^{|E|} e^{rho |E|},
        # the sums at the current scale; the weights of a non-negative
        # instance's live polymers are positive
        self._entries: list = [()] * n
        self._sizes: list = [()] * n
        self._tilted: list = [()] * n
        self._cum: list = [()] * n
        self._t1 = [0.0] * n  # the size-1 part of _cum, where _ready >= 1
        self._listed = [0] * n
        self.set_scale(1.0)

    def _size1_mass_max(self) -> float:
        """The largest size-1 acceptance mass over the edges at scale 1: per
        edge, the sum over its colours c of Phi(e coloured c) e^rho, read from
        the walk's tables (`polymers.LiveWalk`) without walking."""
        walk, top = self._walk, 0.0
        for u, ru, v, rv in walk.ends if self.G.edge_count else ():
            mass = 0.0
            for c in walk.colours:
                mass += (walk.ratio[c] * walk.quot[u][c * ru] * walk.quot[v][c * rv]).real
            top = max(top, mass)
        return top * math.exp(self.rho)

    @property
    def _base(self) -> list:
        """Per edge, its candidates up to `_reach` edges with their weights, as
        an eager build lists them; reading it lists and sums every edge, so
        `_sizes` and `_cum` then hold every edge's full rows too (criterion 10
        and the reference step law read them)."""
        for e in range(self.G.edge_count):
            if self._ready[e] < self._reach:
                self._prepare(e, self._reach)
        return self._entries

    def set_scale(self, x: float):
        """Scale every weight by x^{|E(gamma)|} (annealing parameter)."""
        if not 0.0 <= x <= 1.0:
            raise ValueError("scale must be in [0, 1]")
        self._power = [x**s for s in range(self._reach + 1)]
        self._ready = [0] * self.G.edge_count
        # the thinning bound A >= a(e) at every edge (`run`), with room for
        # the rounding of the sums that a(e) reads, and per covered edge
        # count the step rates, filled when `run` first meets the count
        t1 = min(self._t1_max * x, 1.0)
        self._bound = (self._theta + self._span * t1) * (1.0 + 1e-9)
        self._rates = [None] * (self.G.edge_count + 1)

    def _rate(self, c: int) -> tuple:
        """P(removal step), P(candidate step) and ln P(skipped step) for a
        step of `run` with c covered edges."""
        n = self.G.edge_count
        move_p = c / (2 * n) + (1.0 - c / n) * self._bound / 2
        return c / (2 * n), move_p, math.log1p(-move_p)

    def _prepare(self, e0: int, k: int):
        """Make edge e0 serve a draw of size budget k: list its candidates to
        min(k, _reach) edges if they stop short of that, and sum them at the
        current scale."""
        if k > self._listed[e0] < self._reach:
            self._list(e0, min(k, self._reach))
        power = self._power
        cum = []
        acc = 0.0
        for t, s in zip(self._tilted[e0], self._sizes[e0]):
            acc += t * power[s]
            cum.append(acc)
        self._cum[e0] = cum
        ones = bisect_right(self._sizes[e0], 1)
        self._t1[e0] = cum[ones - 1] if ones else 0.0
        self._ready[e0] = self._listed[e0]

    def _list(self, e0: int, limit: int):
        """List the live polymers through e0 with at most limit edges, from
        one walk seeded at e0, in sort_key order."""
        found = []

        def keep(edges, cols, vmask, _, w):
            found.append((ColouredPolymer(edges, cols, vmask), w.real))

        self._walk.walk((e0,), limit, keep)
        found.sort(key=lambda pw: pw[0].sort_key())
        self._entries[e0] = found
        self._sizes[e0] = [p.size for p, _ in found]
        self._tilted[e0] = [w * math.exp(self.rho * p.size) for p, w in found]
        self._listed[e0] = limit

    def mu0(self, e0: int, rng: random.Random):
        """One draw from the single-polymer distribution at edge e0 (or None)."""
        u = rng.random()
        if u > self._k0:
            return None
        return self._draw(e0, u, rng)

    def _draw(self, e0: int, u: float, rng: random.Random):
        """The rest of a mu0 draw at e0, given its first uniform u <= _k0."""
        k = int(-math.log(u) / self.rho)  # P(k >= i) = e^{-rho i}
        if k == 0:
            return None
        if k > self._ready[e0]:
            self._prepare(e0, k)
        cum, sizes = self._cum[e0], self._sizes[e0]
        hi = bisect_right(sizes, k)  # polymers with size <= k (sizes ascend)
        if hi == 0:
            return None
        total = cum[hi - 1]
        if total > 1.0 + 1e-9:
            raise _mass_above_one(total, e0)
        u2 = rng.random()
        if u2 >= total:
            return None
        return self._entries[e0][bisect_right(cum, u2)][0]

    def fresh_state(self) -> ChainState:
        return ChainState(self.G)

    def run(self, state: ChainState, steps: int, rng: random.Random,
            stride: int = 0) -> list:
        """Advance state by steps chain steps; return state.total_edges read
        after every stride-th step (no readings when stride is 0).

        Each iteration visits one candidate step (module docstring), so
        `ChainState.moves` "visited" counts candidates: it draws the geometric
        count of skipped steps before it, with P(count >= i) = (1 - p)^i, and
        then the candidate itself. Skipped steps leave the state, so a skipped
        block reads the unchanged covered edge count c at each of its stride
        multiples, and a skip past steps ends the call (the skip is
        memoryless, so cutting it there changes no law). A removal draws its
        covered edge by rejection among all edges, |E|/c draws on average, and
        removals come at rate c/(2|E|) per step; an insertion draws its
        uncovered edge the same way, and lists e0's size-1 candidates first
        when the scale has changed since. So the expected work per simulated
        step stays O(1). A first mu0 uniform on (0, theta] is drawn as
        theta (1 - random()) and kept at least k0 2^-53, so that no budget
        passes `_reach`.

        A draw whose candidates up to its budget k have acceptance mass above
        1 (+1e-9) raises ConditionViolated. At an uncovered edge e a step
        reaches that check with probability P_e / (2|E|), where P_e is the
        chance that a first mu0 uniform on (0, 1) gives such a k at e: half
        its chance in the step as defined, which tosses the insertion coin
        after the draw. The covered count, the occupied mask and the move
        counts live in locals and are written back to state once, when the
        call ends or raises.
        """
        n = self.G.edge_count
        if steps <= 0:
            return []
        if n == 0:
            raise ValueError("the chain has no edges to step on")
        bits = n.bit_length()
        getrandbits = rng.getrandbits
        uniform = rng.random
        log = math.log
        edge_owner = state.edge_owner
        theta, span, bound = self._theta, self._span, self._bound
        lowest = self._k0 * 2.0**-53  # the smallest first mu0 uniform, as _reach assumes
        draw, prepare = self._draw, self._prepare
        ready, t1s, cums, entries = self._ready, self._t1, self._cum, self._entries
        rates = self._rates
        c, occupied = state.total_edges, state.occupied
        visited = inserted = removed = 0
        readings = []
        done = 0  # steps simulated so far
        try:
            while True:
                rate = rates[c]
                if rate is None:
                    rate = rates[c] = self._rate(c)
                remove_p, move_p, log_stay = rate
                t = done + 1 + int(log(1.0 - uniform()) / log_stay)  # the next candidate step
                if t > steps:
                    if stride:
                        readings += [c] * (steps // stride - done // stride)
                    break
                if stride:
                    readings += [c] * ((t - 1) // stride - done // stride)
                visited += 1
                if uniform() * move_p < remove_p:
                    e0 = getrandbits(bits)
                    while e0 >= n or edge_owner[e0] is None:
                        e0 = getrandbits(bits)
                    owner = edge_owner[e0]
                    occupied ^= owner.vmask
                    c -= owner.size
                    for e in owner.edges:
                        edge_owner[e] = None
                    removed += 1
                else:
                    e0 = getrandbits(bits)
                    while e0 >= n or edge_owner[e0] is not None:
                        e0 = getrandbits(bits)
                    if ready[e0] < 1:
                        prepare(e0, 1)
                    t1 = t1s[e0]
                    v = bound * (1.0 - uniform())  # on (0, A]
                    if v <= theta:  # a first mu0 uniform on (0, theta]
                        p = draw(e0, max(theta * (1.0 - uniform()), lowest), rng)
                    elif v <= theta + span * min(t1, 1.0):  # one in (theta, e^-rho]: k = 1
                        if t1 > 1.0 + 1e-9:
                            raise _mass_above_one(t1, e0)
                        p = entries[e0][bisect_right(cums[e0], t1 * uniform())][0]
                    else:
                        p = None
                    if p is not None and not p.vmask & occupied:
                        occupied |= p.vmask
                        c += p.size
                        for e in p.edges:
                            edge_owner[e] = p
                        inserted += 1
                if stride and not t % stride:
                    readings.append(c)
                done = t
        finally:
            state.total_edges, state.occupied = c, occupied
            moves = state.moves
            moves["visited"] += visited
            moves["inserted"] += inserted
            moves["removed"] += removed
        return readings


def _chain_worker(task):
    chain, fn, indices, args = task
    return [fn(chain, i, *args) for i in indices]


def _chain_map(G: MultiGraph, assign: SignatureAssignment, z, steps: int, fn,
               count: int, jobs: int, *args) -> tuple:
    """(certificate, [fn(chain, i, *args) for i in range(count)]) for the
    instance's chain, over up to jobs processes and no more than the host's
    CPUs.

    The one step of a chain command: it charges the steps the command plans
    (GateExceeded past `errors.WORK_GATE`), certifies the instance with
    `certify_chain`, and only then builds the chain. The indices are dealt
    round-robin to the workers, and each worker gets one pickled copy of the
    parent's chain. fn must draw from its own substream per index, so the
    result does not depend on the worker count.
    """
    if steps > errors.WORK_GATE:
        raise past_gate(steps, "planned chain steps")
    certificate = certify_chain(G, assign, z)
    chain = PolymerChain(G, assign, z)
    workers = min(jobs, count, os.cpu_count() or 1)
    if workers <= 1:
        return certificate, [fn(chain, i, *args) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(chain, fn, range(w, count, workers), args) for w in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(_chain_worker, tasks))
    return certificate, [parts[i % workers][i // workers] for i in range(count)]


def _sum_moves(parts) -> dict:
    """Key-wise sum of `ChainState.moves` dicts."""
    total = {"visited": 0, "inserted": 0, "removed": 0}
    for part in parts:
        for key in total:
            total[key] += part[key]
    return total


def _median(values) -> float:
    """The middle value, or the mean of the two middle values, as
    statistics.median returns it."""
    s = sorted(values)
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def _sample_trial(chain: PolymerChain, trial: int, steps: int, seed: int):
    state = chain.fresh_state()
    chain.run(state, steps, substream(seed, trial))
    return family_to_assignment(chain.G, state.family()), state.moves


def sample_assignments(G: MultiGraph, assign: SignatureAssignment, z, eps: float,
                       seed: int, trials: int = 1, jobs: int = 1,
                       moves: dict | None = None):
    """trials independent eps-approximate Gibbs samples (one chain each).

    Each trial runs mixing_time(G, eps) steps on its own substream; output is
    identical for any jobs >= 1. When moves is a dict, the chains' move
    counts (`ChainState.moves`) summed over the trials are written into it.
    Raises GateExceeded when trials * mixing_time exceeds `errors.WORK_GATE`,
    and RegionViolation when `certify_chain` refuses the instance, both
    before the chain is built; NotInF0 names a vertex off F0, also on a graph
    without edges, which needs no chain.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    steps = mixing_time(G, eps)
    _require_nonneg(assign, z)
    if G.edge_count == 0:
        assign.check_f0()
        results = [((), _sum_moves(()))] * trials
    else:
        _, results = _chain_map(G, assign, z, trials * steps, _sample_trial, trials,
                                jobs, steps, seed)
    if moves is not None:
        moves.update(_sum_moves(m for _, m in results))
    return [a for a, _ in results]


@dataclass
class FprasReport:
    value: float
    estimates: list
    stages: int
    samples_per_stage: int
    reps: int
    seed: int
    burn: int
    stride: int
    chain_steps: int = 0
    certificate: str = "none"
    moves: dict = field(default_factory=lambda: _sum_moves(()))


def _run_rep(chain: PolymerChain, rep: int, seed: int, K: int, S: int,
             burn: int, prefactor: float):
    rng = substream(seed, rep)
    state = chain.fresh_state()
    log_prod = 0.0
    for k in range(1, K + 1):
        x_k = k / K
        ratio = (k - 1) / k  # x_{k-1} / x_k
        chain.set_scale(x_k)
        chain.run(state, burn, rng)
        readings = chain.run(state, S * _STRIDE, rng, _STRIDE)
        acc = 0.0
        for t in sorted(set(readings)):  # few distinct edge counts, in long runs
            acc += readings.count(t) * ratio**t
        mean = acc / S
        if mean <= 0.0:
            raise ConditionViolated(
                f"stage {k}/{K} ratio estimate is zero; increase samples"
            )
        log_prod += math.log(mean)
    return prefactor * math.exp(-log_prod), state.moves


def fpras_estimate(G: MultiGraph, assign: SignatureAssignment, z, eps: float,
                   seed: int, reps: int = 3, jobs: int = 1) -> FprasReport:
    """Randomised approximation of the Holant value by simulated annealing.

    Anneals x from 0 to 1 over K = max(2, min(2|E|, 24)) grid points; at each
    stage the chain burns in for mixing_time(G, 0.05) steps, then takes
    S = ceil(32 / eps^2) samples 2 steps apart of families at weights
    Phi * x_k^{|E|}, and averages the bounded statistic
    (x_{k-1}/x_k)^{total edges}, whose mean is Z(x_{k-1})/Z(x_k). The product
    telescopes to 1/Z(1); the estimate is the median over independent
    repetitions of prefactor / product. Repetitions use disjoint substreams,
    so jobs > 1 returns the identical report. Raises GateExceeded when the
    reps * K * (burn + 2S) planned steps exceed `errors.WORK_GATE`, and
    RegionViolation when `certify_chain` refuses the instance, both before
    the chain is built. A graph without edges needs no chain: its report
    has certificate "none".
    """
    _require_eps(eps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    zr = _require_nonneg(assign, z)
    prefactor = holant_prefactor(G, assign, z).real
    if G.edge_count == 0:
        return FprasReport(prefactor, [prefactor] * reps, 0, 0, reps, seed, 0, 0)
    K = max(2, min(2 * G.edge_count, 24))
    S = math.ceil(32.0 / eps**2)
    burn = mixing_time(G, 0.05)
    steps = reps * K * (burn + S * _STRIDE)
    certificate, results = _chain_map(G, assign, zr, steps, _run_rep, reps, jobs,
                                      seed, K, S, burn, prefactor)
    estimates = [e for e, _ in results]
    return FprasReport(
        value=float(_median(estimates)),
        estimates=estimates,
        stages=K,
        samples_per_stage=S,
        reps=reps,
        seed=seed,
        burn=burn,
        stride=_STRIDE,
        chain_steps=steps,
        certificate=certificate,
        moves=_sum_moves(m for _, m in results),
    )
