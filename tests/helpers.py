"""Shared random-instance generators and references for the test suite.

Everything is driven by explicit random.Random objects seeded from
MASTER_SEED so failures reproduce exactly.
"""

import math
import random
import weakref

from holant import (
    ConditionViolated,
    MultiGraph,
    SignatureAssignment,
    make_signature,
    region_bounds,
)
from holant.polymers import ColouredPolymer, walk_live

MASTER_SEED = 20260301

# filled by test_acceptance, printed by the conftest terminal-summary hook
ACCEPTANCE_RESULTS = []


def random_graph(rng, max_edges=8, max_degree=3, min_edges=1):
    """Random simple graph; every vertex touches an edge."""
    m = rng.randint(min_edges, max_edges)
    n = rng.randint(2, max(2, min(2 * m, 9)))
    edges, seen = [], set()
    deg = [0] * n
    for _ in range(400):
        if len(edges) == m:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
        edges.append(key)
    used = sorted({x for e in edges for x in e})
    relabel = {x: i for i, x in enumerate(used)}
    return MultiGraph(len(used), [(relabel[u], relabel[v]) for u, v in edges])


def random_f0_assignment(rng, G, kappa, spread=1.0, rmax=None):
    """Random dense tables with f(0) != 0; rmax caps r(f) when given."""
    sigs = []
    for v in range(G.vertex_count):
        ar = G.degree(v)
        size = (kappa + 1) ** ar
        tab = [
            complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            for _ in range(size)
        ]
        tab[0] = complex(
            rng.choice([-1, 1]) * rng.uniform(0.4, 1.0), rng.uniform(-0.5, 0.5)
        )
        if rmax is not None:
            cap = rmax * abs(tab[0])
            for i in range(1, size):
                if abs(tab[i]) > cap:
                    tab[i] *= cap / abs(tab[i])
        sigs.append(make_signature(tab, ar, kappa))
    return SignatureAssignment(G, sigs)


def random_instance(rng, max_edges=8, max_degree=3, rmax=None):
    G = random_graph(rng, max_edges=max_edges, max_degree=max_degree)
    kappa = rng.choice([1, 2])
    return G, random_f0_assignment(rng, G, kappa, rmax=rmax)


def corpus(count, seed=MASTER_SEED, **kw):
    rng = random.Random(seed)
    return [random_instance(rng, **kw) for _ in range(count)]


def half_bound_z(G, assign, frac=0.5):
    """Fugacities at frac x the polynomial-region bound, componentwise."""
    b = region_bounds(
        "holant-poly",
        delta=max(1, G.max_degree()),
        kappa=assign.kappa,
        r1=assign.r1(),
    ).bound
    return tuple([1.0 + 0j] + [frac * b + 0j] * assign.kappa)


def flat_problem_assignment(G, kappa=1, scale=0.5):
    """f(0)=1 and every other entry at scale x the all-ones-threshold."""
    thr = region_bounds(
        "holant-problem", delta=max(1, G.max_degree()), kappa=kappa
    ).bound
    s = scale * thr
    sigs = []
    for v in range(G.vertex_count):
        size = (kappa + 1) ** G.degree(v)
        sigs.append(make_signature([1.0] + [s] * (size - 1), G.degree(v), kappa))
    return SignatureAssignment(G, sigs)


def live_pool(G, assign, z, m):
    """(ColouredPolymer, weight) pairs of nonzero weight with at most m edges
    from one `polymers.walk_live`, sorted by `ColouredPolymer.sort_key`: the
    live part of `oracle.enumerate_polymers`, in its order."""
    pool = []

    def keep(edges, colours, vmask, vertices, w):
        pool.append((ColouredPolymer(edges, colours, vmask), w))

    walk_live(G, assign, z, m, keep)
    pool.sort(key=lambda pw: pw[0].sort_key())
    return pool


def rel_close(a, b, tol=1e-9):
    return abs(complex(a) - complex(b)) <= tol * max(1.0, abs(complex(b)))


# small named graphs used all over the suite
def k2():
    return MultiGraph(2, [(0, 1)])


def p3():
    return MultiGraph(3, [(0, 1), (1, 2)])


def p4():
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3)])


def c3():
    return MultiGraph(3, [(0, 1), (1, 2), (0, 2)])


def c4():
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def k4():
    return MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def star(k):
    return MultiGraph(k + 1, [(0, i + 1) for i in range(k)])


# the polymer-chain step as one call per step, and its exact one-step law:
# `PolymerChain.mu0` must follow reference_mu0 draw for draw, and the
# rejection-free `PolymerChain.run` loop must follow reference_step in law;
# both read the chain's `_base` weights and its scale, not its own sums
_BASES = weakref.WeakKeyDictionary()


def base(chain):
    """chain._base, read once per chain and `_reach`: its weights do not
    depend on the scale."""
    reach, entries = _BASES.get(chain, (None, None))
    if reach != chain._reach:
        reach, entries = _BASES[chain] = (chain._reach, chain._base)
    return entries


def mu0_sums(chain, entries):
    """Running sums of the mu0 acceptance masses (w e^{rho |E|}) x^{|E|} of
    entries, (polymer, weight) pairs from `base`, at the chain's scale x."""
    cum, acc = [], 0.0
    for p, w in entries:
        acc += w * math.exp(chain.rho * p.size) * chain._power[p.size]
        cum.append(acc)
    return cum


def reference_mu0(chain, e0, rng):
    """One mu0 draw at e0: a linear scan of the size-ascending candidates."""
    u = rng.random()
    k = int(-math.log(u) / chain.rho)  # P(k >= i) = e^{-rho i}
    if k == 0:
        return None
    entries = base(chain)[e0]
    cum = mu0_sums(chain, entries)
    hi = 0
    for p, _ in entries:
        if p.size <= k:
            hi += 1
        else:
            break
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
    lo = 0
    while cum[lo] <= u2:
        lo += 1
    return entries[lo][0]


def toggle(state, p):
    """Insert polymer p into a chain state, or remove it when it is there,
    with the bookkeeping that `PolymerChain.run` does inline."""
    inserting = state.edge_owner[p.edges[0]] != p
    state.occupied ^= p.vmask
    state.total_edges += p.size if inserting else -p.size
    for e in p.edges:
        state.edge_owner[e] = p if inserting else None


def reference_step(chain, state, rng):
    """One chain step: remove the owner of a uniform edge, or insert a mu0 draw."""
    e0 = rng.randrange(chain.G.edge_count)
    owner = state.edge_owner[e0]
    if owner is not None:
        if rng.random() < 0.5:
            toggle(state, owner)
        return
    p = reference_mu0(chain, e0, rng)
    if p is not None and (p.vmask & state.occupied) == 0:
        if rng.random() < 0.5:
            toggle(state, p)


def step_kernel(chain, family):
    """{next family: probability} of one reference_step from family (a
    frozenset of polymers): removal 1/(2|E|) per covered edge, insertion
    (1/|E|) Phi_x(gamma) (1/2) per edge of each compatible candidate gamma."""
    n = chain.G.edge_count
    owner, occupied = {}, 0
    for p in family:
        occupied |= p.vmask
        owner.update((e, p) for e in p.edges)
    law = {}
    for e in range(n):
        if e in owner:
            nxt = family - {owner[e]}
            law[nxt] = law.get(nxt, 0.0) + 1 / (2 * n)
            continue
        for p, w in base(chain)[e]:
            phi = w * chain._power[p.size]  # Phi_x(gamma) = Phi(gamma) x^{|E|}
            if not p.vmask & occupied:
                nxt = family | {p}
                law[nxt] = law.get(nxt, 0.0) + phi / (2 * n)
    law[family] = law.get(family, 0.0) + 1.0 - sum(law.values())
    return law


# the connected-set walk on vertex sets, kept as the reference that the
# bitmask walk `graph.grow_edge_sets` must follow visit for visit
def reference_grow(G, seeds, max_edges, visit, extend=lambda e, banned: (e,)):
    """grow_edge_sets, with the set's vertices and the banned edges as sets;
    the hook gets the banned set."""
    if max_edges < 1:
        return
    banned_seeds: set = set()
    for seed in seeds:
        if seed in banned_seeds:
            continue
        for _ in extend(seed, set(banned_seeds)):
            _reference_grow(G, [seed], set(G.edges[seed]), set(banned_seeds),
                            max_edges, visit, extend)
        banned_seeds.add(seed)


def _reference_grow(G, stack_edges, vset, banned, max_edges, visit, extend):
    visit(stack_edges)
    if len(stack_edges) == max_edges:
        return
    in_cur = set(stack_edges)
    cand = sorted(
        {e for x in vset for e in G.incident(x)} - in_cur - banned
    )
    newly: set = set()
    for e in cand:
        added = [x for x in G.edges[e] if x not in vset]
        stack_edges.append(e)
        vset.update(added)
        for _ in extend(e, banned | newly):
            _reference_grow(G, stack_edges, vset, banned | newly, max_edges, visit, extend)
        stack_edges.pop()
        vset.difference_update(added)
        newly.add(e)


# the series log with its inner loop over every i < j, kept as the reference
# that `expansion.series_log`, which starts the loop where c[j - i] exists,
# must match bit for bit
def reference_series_log(c, m):
    a = [0j] * (m + 1)
    for j in range(1, m + 1):
        cj = c[j] if j < len(c) else 0j
        acc = 0j
        for i in range(1, j):
            if 0 <= j - i < len(c):
                acc += i * a[i] * c[j - i]
        a[j] = cj - acc / j
    return a[1:]
