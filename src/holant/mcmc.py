"""Polymer Markov chain: sampling from the Gibbs measure and annealed counting.

Requires non-negative real weights. The chain state is a compatible family;
one step picks a uniform edge e0 and either removes the polymer covering e0
(probability 1/2) or, if e0 is uncovered, proposes a polymer containing e0
from the single-polymer distribution mu0 and inserts it (probability 1/2)
when it is compatible with the rest of the state.

mu0 draws a geometric size budget k with P(k = i) = (1 - e^-rho) e^-rho*i,
lists the polymers containing e0 with at most k edges, and accepts polymer
gamma with probability Phi(gamma) e^{rho |E(gamma)|}, so that the overall
output probability is exactly Phi(gamma). rho = tau - 2 - ln(kappa*Delta),
where tau certifies Phi(gamma) <= e^{-tau |E(gamma)|}.

`PolymerChain.run` is the one stepping loop: `step` is `run(state, 1, rng)`,
and `mu0` and `run` share `_draw`. The loop inlines the uniform edge draw as
Random.randrange does it (getrandbits of |E|.bit_length() bits, rejecting
values >= |E|), skips the logarithm when the first mu0 uniform already gives
k = 0, and finds the size-<= k candidates by bisection. It draws the same
numbers in the same order as one randrange, mu0 and coin flip per step, so
every seeded `sample` and `count-mcmc` output is fixed draw for draw.
`run(state, steps, rng, stride)` also returns the state's total edge count
after every stride-th step, the FPRAS readings of one annealing stage.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from statistics import median

from .bounds import _gated_full_pool, kp_margins, region_bounds
from .errors import ConditionViolated, GateExceeded, RegionViolation, UnsupportedWeights
from .expansion import _require_eps
from .graph import MultiGraph
from .polymers import (
    ColouredPolymer,
    family_to_assignment,
    holant_prefactor,
    live_polymers,
)
from .signatures import SignatureAssignment, check_fugacities

DEFAULT_XI = 0.75
_STRIDE = 2  # chain steps between FPRAS samples
CHAIN_STEP_GATE = 2 * 10**7  # chain steps one call may plan


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
    """2|E| ln(n/eps) / (1 - xi) chain steps, rounded up, with xi = DEFAULT_XI:
    8|E| ln(n/eps)."""
    _require_eps(eps)
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


def check_sampling_condition(G: MultiGraph, assign: SignatureAssignment, z):
    """(ok, tau_star, tau_required): largest tau with Phi <= e^{-tau |E|} pool-wide."""
    zr = _require_nonneg(assign, z)
    pool, weights = _gated_full_pool(G, assign, zr)
    tau_star = math.inf
    for p, w in zip(pool, weights):
        if w.real > 0:
            tau_star = min(tau_star, -math.log(w.real) / p.size)
    need = tau_floor(assign.kappa, max(1, G.max_degree()))
    return tau_star >= need, tau_star, need


def check_mixing_condition(G: MultiGraph, assign: SignatureAssignment, z):
    """(ok, worst margin) for sum_{g' incompatible} |E(g')| Phi(g') <= xi |E(g)|,
    xi = DEFAULT_XI."""
    zr = _require_nonneg(assign, z)
    pool, weights = _gated_full_pool(G, assign, zr)
    margins = kp_margins([p.vmask for p in pool],
                         [p.size * w.real for p, w in zip(pool, weights)],
                         [DEFAULT_XI * p.size for p in pool])
    return not any(m > 0 for m in margins), max(margins, default=float("-inf"))


class ChainState:
    """Current compatible family with per-edge ownership."""

    def __init__(self, G: MultiGraph):
        self.edge_owner = [None] * G.edge_count
        self.occupied = 0
        self.total_edges = 0
        self.polymers: set = set()

    def add(self, p: ColouredPolymer):
        self.polymers.add(p)
        self.occupied |= p.vmask
        self.total_edges += p.size
        for e in p.edges:
            self.edge_owner[e] = p

    def remove(self, p: ColouredPolymer):
        self.polymers.discard(p)
        self.occupied ^= p.vmask
        self.total_edges -= p.size
        for e in p.edges:
            self.edge_owner[e] = None

    def family(self):
        return sorted(self.polymers, key=ColouredPolymer.sort_key)


class PolymerChain:
    """Bound instance: certified parameters plus per-edge mu0 candidate lists.

    tau is tau_floor(kappa, Delta), and the mixing condition fixes xi at
    DEFAULT_XI = 0.75.
    check: "auto" accepts the instance when the fugacity ratios sit inside the
    chain region bound, falling back to direct verification of the sampling
    and mixing conditions on the full (gated) pool (certificate "region" or
    "direct"); "none" trusts the caller (certificate "none").
    """

    def __init__(self, G: MultiGraph, assign: SignatureAssignment, z,
                 check: str = "auto"):
        if check not in ("auto", "none"):
            raise ValueError(f"unknown check mode {check!r}")
        self.G = G
        self.assign = assign
        self.z = _require_nonneg(assign, z)
        self.kappa = assign.kappa
        delta = max(1, G.max_degree())
        self.delta = delta
        self.certificate = "none"
        if check != "none" and G.edge_count > 0:
            self._certify()
        self.tau = tau_floor(self.kappa, delta)
        self.rho = self.tau - 2.0 - math.log(self.kappa * delta)
        # a first mu0 uniform above e^{-rho} gives k = 0; the 1e-9 keeps the
        # skipped values clear of rounding in int(-log(u) / rho)
        self._k0 = math.exp(-self.rho) * (1.0 + 1e-9)
        # per-edge candidate polymers, weights at scale 1, in sort_key order
        # (so ascending by size): one walk over the live pool fills them all
        self._base: list = [[] for _ in range(G.edge_count)]
        for p, w in live_polymers(G, assign, self.z, G.edge_count):
            if w.real > 0:
                for e in p.edges:
                    self._base[e].append((p, w.real))
        self.scale = None
        self.set_scale(1.0)

    def _certify(self):
        ratios = [zi / self.z[0] for zi in self.z[1:]]
        bound = region_bounds(
            "mcmc-poly", delta=self.delta, kappa=self.kappa, r1=self.assign.r1()
        ).bound
        if max(ratios, default=0.0) <= bound:
            self.certificate = "region"
            return
        ok_s, tau_star, need = check_sampling_condition(self.G, self.assign, self.z)
        ok_m, worst = check_mixing_condition(self.G, self.assign, self.z)
        if ok_s and ok_m:
            self.certificate = "direct"
            return
        raise RegionViolation(
            "instance not certified for the chain: "
            f"fugacity ratio bound {bound:.6g} violated and direct checks give "
            f"tau* = {tau_star:.6g} (need >= {need:.6g}), mixing margin {worst:.6g}"
        )

    def set_scale(self, x: float):
        """Scale every weight by x^{|E(gamma)|} (annealing parameter)."""
        if not 0.0 <= x <= 1.0:
            raise ValueError("scale must be in [0, 1]")
        if x == self.scale:
            return
        self.scale = x
        self._lists = []
        for entries in self._base:
            cum = []
            acc = 0.0
            for p, w in entries:
                acc += w * x**p.size * math.exp(self.rho * p.size)
                cum.append(acc)
            self._lists.append((entries, cum, [p.size for p, _ in entries]))

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
        entries, cum, sizes = self._lists[e0]
        hi = bisect_right(sizes, k)  # polymers with size <= k (entries ascend by size)
        if hi == 0:
            return None
        total = cum[hi - 1]
        if total > 1.0 + 1e-9:
            raise ConditionViolated(
                f"mu0 acceptance mass {total:.6g} > 1 at edge {e0}; "
                "weights violate the sampling condition for this tau"
            )
        u2 = rng.random()
        if u2 >= total:
            return None
        return entries[bisect_right(cum, u2)][0]

    def fresh_state(self) -> ChainState:
        return ChainState(self.G)

    def step(self, state: ChainState, rng: random.Random):
        self.run(state, 1, rng)

    def run(self, state: ChainState, steps: int, rng: random.Random,
            stride: int = 0) -> list:
        """Advance state by steps chain steps; return state.total_edges read
        after every stride-th step (no readings when stride is 0).

        Draws the same random numbers in the same order as one
        rng.randrange(|E|) per step for e0, then mu0 and the coin flips, so a
        seeded run is reproducible draw for draw.
        """
        n = self.G.edge_count
        if n == 0 and steps > 0:
            raise ValueError("the chain has no edges to step on")
        bits = n.bit_length()
        getrandbits = rng.getrandbits
        uniform = rng.random
        edge_owner = state.edge_owner
        k0 = self._k0
        draw = self._draw
        readings = []
        left = stride or -1  # steps to the next reading; never 0 without a stride
        for _ in range(steps):
            # rng.randrange(n), as Random._randbelow_with_getrandbits draws it
            e0 = getrandbits(bits)
            while e0 >= n:
                e0 = getrandbits(bits)
            owner = edge_owner[e0]
            if owner is not None:
                if uniform() < 0.5:
                    state.polymers.discard(owner)
                    state.occupied ^= owner.vmask
                    state.total_edges -= owner.size
                    for e in owner.edges:
                        edge_owner[e] = None
            else:
                u = uniform()
                if u <= k0:  # otherwise the size budget k is 0
                    p = draw(e0, u, rng)
                    if p is not None and not p.vmask & state.occupied and uniform() < 0.5:
                        state.polymers.add(p)
                        state.occupied |= p.vmask
                        state.total_edges += p.size
                        for e in p.edges:
                            edge_owner[e] = p
            left -= 1
            if not left:
                readings.append(state.total_edges)
                left = stride
        return readings


def _gate_chain_steps(steps: int) -> None:
    if steps > CHAIN_STEP_GATE:
        raise GateExceeded(f"{steps} planned chain steps exceed gate {CHAIN_STEP_GATE}")


def _chain_worker(task):
    chain, fn, indices, args = task
    return [fn(chain, i, *args) for i in indices]


def _chain_map(chain: PolymerChain, fn, count: int, jobs: int, *args) -> list:
    """[fn(chain, i, *args) for i in range(count)], over up to jobs processes.

    The indices are dealt round-robin to the workers, and each worker gets one
    pickled copy of the parent's certified chain. fn must draw from its own
    substream per index, so the result does not depend on jobs.
    """
    if jobs <= 1 or count <= 1:
        return [fn(chain, i, *args) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, count)
    tasks = [(chain, fn, range(w, count, workers), args) for w in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(_chain_worker, tasks))
    return [parts[i % workers][i // workers] for i in range(count)]


def _sample_trial(chain: PolymerChain, trial: int, steps: int, seed: int):
    state = chain.fresh_state()
    chain.run(state, steps, substream(seed, trial))
    return family_to_assignment(chain.G, state.family())


def sample_assignments(G: MultiGraph, assign: SignatureAssignment, z, eps: float,
                       seed: int, trials: int = 1, jobs: int = 1):
    """trials independent eps-approximate Gibbs samples (one chain each).

    Each trial runs mixing_time(G, eps) steps on its own substream; output is
    identical for any jobs >= 1. Raises GateExceeded, before the chain is
    built, when trials * mixing_time exceeds CHAIN_STEP_GATE.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    steps = mixing_time(G, eps)
    _require_nonneg(assign, z)
    if G.edge_count == 0:
        return [()] * trials
    _gate_chain_steps(trials * steps)
    chain = PolymerChain(G, assign, z)
    return _chain_map(chain, _sample_trial, trials, jobs, steps, seed)


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


def _run_rep(chain: PolymerChain, rep: int, seed: int, K: int, S: int,
             burn: int, prefactor: float) -> float:
    rng = substream(seed, rep)
    state = chain.fresh_state()
    log_prod = 0.0
    for k in range(1, K + 1):
        x_k = k / K
        ratio = (k - 1) / k  # x_{k-1} / x_k
        chain.set_scale(x_k)
        chain.run(state, burn, rng)
        acc = 0.0
        for t in chain.run(state, S * _STRIDE, rng, _STRIDE):
            acc += ratio**t
        mean = acc / S
        if mean <= 0.0:
            raise ConditionViolated(
                f"stage {k}/{K} ratio estimate is zero; increase samples"
            )
        log_prod += math.log(mean)
    return prefactor * math.exp(-log_prod)


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
    so jobs > 1 returns the identical report. Raises GateExceeded, before the
    chain is built, when the reps * K * (burn + 2S) planned steps exceed
    CHAIN_STEP_GATE.
    """
    _require_eps(eps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    zr = _require_nonneg(assign, z)
    prefactor = holant_prefactor(G, assign, z).real
    if G.edge_count == 0:
        return FprasReport(prefactor, [prefactor] * reps, 0, 0, reps, seed, 0, 0)
    K = max(2, min(2 * G.edge_count, 24))
    S = math.ceil(32.0 / eps**2)
    burn = mixing_time(G, 0.05)
    steps = reps * K * (burn + S * _STRIDE)
    _gate_chain_steps(steps)
    chain = PolymerChain(G, assign, zr)
    estimates = _chain_map(chain, _run_rep, reps, jobs, seed, K, S, burn, prefactor)
    return FprasReport(
        value=float(median(estimates)),
        estimates=estimates,
        stages=K,
        samples_per_stage=S,
        reps=reps,
        seed=seed,
        burn=burn,
        stride=_STRIDE,
        chain_steps=steps,
        certificate=chain.certificate,
    )
