"""Reference computations: everything the production paths are tested against.

Exponential-time, gate-guarded, and free of the production machinery: brute
force over edge assignments (`brute_holant`, `exact_gibbs`, each signature
read by `vertex_value`) and over compatible polymer families
(`brute_polymer_z`); the textbook polymer pool (`connected_edge_sets`,
`connected_edge_subgraphs`, `connected_edge_supersets`,
`enumerate_polymers`) with weights computed polymer by polymer
(`polymer_weight`, `weight_map`); the inverse of
`polymers.family_to_assignment` (`assignment_to_family`, built on
`make_polymer` and `is_connected_edge_set`); the paper's closed-form
truncation order (`truncation_order`); and the cluster expansion (`ursell`,
`enumerate_clusters`, `cluster_log_coefficients`). No production module
imports it; the command line uses `brute_holant` for its `oracle` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import (
    DegenerateDistribution,
    GateExceeded,
    InvalidFugacity,
    NotInF0,
    UnsupportedWeights,
)
from .expansion import _require_eps, _require_ratio
from .graph import MultiGraph, grow_edge_sets, mask_vertices
from .polymers import ColouredPolymer
from .signatures import SignatureAssignment

ASSIGNMENT_GATE = 10**8
BRUTE_FAMILY_GATE = 2 * 10**7
URSELL_NODE_GATE = 22
CLUSTER_GATE = 5 * 10**6


@dataclass
class ExactResult:
    value: complex
    terms: int
    table: dict | None = None


def vertex_value(assign: SignatureAssignment, v: int, colour_of_edge) -> complex:
    """f_v with each incident edge's colour from a mapping eid -> colour,
    the edges in canonical rank order (the first is the most significant digit)."""
    s = assign.sig(v)
    idx = 0
    for e in assign.G.incident(v):
        idx = idx * (s.kappa + 1) + colour_of_edge(e)
    return s.table[idx]


def assignment_weight(G: MultiGraph, assign: SignatureAssignment, z, sigma) -> complex:
    """prod_v f_v(sigma restricted to v) * prod_i z_i^{#edges at value i}."""
    z = tuple(complex(t) for t in z)
    w = 1 + 0j
    for v in range(G.vertex_count):
        w *= vertex_value(assign, v, sigma.__getitem__)
        if w == 0:
            return 0j
    for i in range(len(z)):
        count = sum(1 for c in sigma if c == i)
        if count:
            w *= z[i] ** count
    return w


def brute_holant(G: MultiGraph, assign: SignatureAssignment, z,
                 keep_table: bool = False) -> ExactResult:
    """Holant sum over all (kappa+1)^{|E|} edge assignments."""
    kappa = assign.kappa
    z = tuple(complex(t) for t in z)
    if len(z) != kappa + 1:
        raise InvalidFugacity(f"need {kappa + 1} fugacities, got {len(z)}")
    n_terms = (kappa + 1) ** G.edge_count
    if n_terms > ASSIGNMENT_GATE:
        raise GateExceeded(f"{n_terms} assignments exceed gate {ASSIGNMENT_GATE}")
    total = 0j
    table = {} if keep_table else None
    for sigma in product(range(kappa + 1), repeat=G.edge_count):
        w = assignment_weight(G, assign, z, sigma)
        total += w
        if keep_table:
            table[sigma] = w
    return ExactResult(value=total, terms=n_terms, table=table)


def brute_polymer_z(polymers, weights) -> complex:
    """Sum of prod(weights) over all compatible families (empty family = 1).

    polymers: sequence of ColouredPolymer (or anything with .vmask);
    weights: aligned sequence of complex weights, or a polymer -> weight map.
    The DFS walks families in canonical order, so it visits exactly one node
    per compatible family; a visit budget guards against oversized pools.
    """
    if isinstance(weights, dict):
        weights = [weights[p] for p in polymers]
    if len(polymers) != len(weights):
        raise ValueError("polymers and weights must align")
    items = sorted(
        zip((p.vmask for p in polymers), weights, range(len(weights))),
        key=lambda t: t[2],
    )
    masks = [t[0] for t in items]
    ws = [t[1] for t in items]
    n = len(masks)
    visits = 0

    def rec(start: int, occupied: int, prod_w: complex) -> complex:
        nonlocal visits
        visits += 1
        if visits > BRUTE_FAMILY_GATE:
            raise GateExceeded(f"family enumeration exceeded {BRUTE_FAMILY_GATE} visits")
        total = prod_w
        for j in range(start, n):
            if masks[j] & occupied == 0:
                total += rec(j + 1, occupied | masks[j], prod_w * ws[j])
        return total

    return rec(0, 0, 1 + 0j)


def exact_gibbs(G: MultiGraph, assign: SignatureAssignment, z) -> dict:
    """Exact Gibbs distribution over edge assignments.

    Requires non-negative real signature tables and fugacities.
    """
    z = tuple(complex(t) for t in z)
    if not assign.is_nonneg_real() or any(t.imag != 0 or t.real < 0 for t in z):
        raise UnsupportedWeights("exact_gibbs needs non-negative real weights")
    res = brute_holant(G, assign, z, keep_table=True)
    total = res.value.real
    if total <= 0:
        raise DegenerateDistribution("partition function is zero; no distribution")
    return {sigma: w.real / total for sigma, w in res.table.items()}


# ---------------------------------------------------------------------------
# Anchored connected edge sets, the coloured polymer pool and its weights


def _shortlex_sets(G, seeds, max_edges: int):
    out: list = []
    grow_edge_sets(G, seeds, max_edges, lambda stack: out.append(tuple(sorted(stack))))
    return sorted(out, key=lambda t: (len(t), t))


def connected_edge_sets(G, max_edges: int):
    """All connected edge sets with 1 <= |S| <= max_edges, shortlex; G a
    `MultiGraph` or any hypergraph `graph.grow_edge_sets` takes."""
    return _shortlex_sets(G, range(G.edge_count), max_edges)


def connected_edge_subgraphs(G: MultiGraph, v: int, max_edges: int):
    """Connected edge sets S, 1 <= |S| <= max_edges, whose subgraph contains v.

    Output is deterministic: sorted edge-id tuples in shortlex order.
    """
    if not (0 <= v < G.vertex_count):
        raise ValueError(f"vertex {v} out of range")
    if max_edges < 0:
        raise ValueError("max_edges must be >= 0")
    return _shortlex_sets(G, G.incident(v), max_edges)


def connected_edge_supersets(G: MultiGraph, eid: int, max_edges: int):
    """Connected edge sets containing edge eid, |S| <= max_edges, shortlex."""
    if not (0 <= eid < G.edge_count):
        raise ValueError(f"edge {eid} out of range")
    return _shortlex_sets(G, [eid], max_edges)


def enumerate_polymers(G: MultiGraph, kappa: int, max_edges: int,
                       anchor: int | None = None):
    """All coloured polymers with |E(gamma)| <= max_edges.

    anchor (a vertex id) restricts to polymers whose subgraph contains it.
    Order is deterministic: supports shortlex, colourings lexicographic.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if anchor is None:
        supports = connected_edge_sets(G, max_edges)
    else:
        supports = connected_edge_subgraphs(G, anchor, max_edges)
    out = []
    for S in supports:
        vmask = sum(1 << v for v in G.edge_vertices(S))
        out += [ColouredPolymer(S, colouring, vmask)
                for colouring in product(range(1, kappa + 1), repeat=len(S))]
    return out


def polymer_weight(G: MultiGraph, assign: SignatureAssignment, z,
                   polymer: ColouredPolymer) -> complex:
    """Phi(gamma) = prod_i (z_i/z_0)^{#edges coloured i} * prod_{v in V(gamma)} f_v(...) / f_v(0).

    Each vertex evaluates its signature on the tuple over all its incident
    edges in canonical rank order, with edges outside the polymer at colour 0.
    """
    z = tuple(complex(t) for t in z)
    if z[0] == 0:
        raise InvalidFugacity("z_0 must be nonzero")
    colour_of = dict(zip(polymer.edges, polymer.colours))
    for c in polymer.colours:
        if c >= len(z):
            raise InvalidFugacity(f"colour {c} has no fugacity (len(z) = {len(z)})")
    w = 1 + 0j
    for c in polymer.colours:
        w *= z[c] / z[0]
    for v in mask_vertices(polymer.vmask):
        s = assign.sig(v)
        if s.table[0] == 0:
            raise NotInF0(f"vertex {v}: signature {s.name!r} has f(0,...,0) = 0")
        w *= vertex_value(assign, v, lambda e: colour_of.get(e, 0)) / s.f0
    return w


def weight_map(G: MultiGraph, assign: SignatureAssignment, z, polymers) -> dict:
    return {p: polymer_weight(G, assign, z, p) for p in polymers}


# ---------------------------------------------------------------------------
# Families as edge assignments, and the closed-form truncation order


def is_connected_edge_set(G: MultiGraph, eids) -> bool:
    """True iff the subgraph spanned by the edge ids is connected (and nonempty)."""
    eset = set(eids)
    if not eset:
        raise ValueError("empty edge set has no connectivity status")
    todo = [min(eset)]
    seen = set(todo)
    while todo:
        for v in G.edges[todo.pop()]:
            for f in G.incident(v):
                if f in eset and f not in seen:
                    seen.add(f)
                    todo.append(f)
    return seen == eset


def make_polymer(G: MultiGraph, edges, colours, kappa: int | None = None) -> ColouredPolymer:
    """A checked polymer: colours in 1..kappa on a connected set of distinct
    edges, both reordered by edge id."""
    edges, colours = tuple(edges), tuple(colours)
    if len(edges) != len(colours):
        raise ValueError("edges and colours must align")
    if len(set(edges)) != len(edges):
        raise ValueError("repeated edge id in polymer")
    pairs = sorted(zip(edges, colours))
    for _, c in pairs:
        if c < 1 or (kappa is not None and c > kappa):
            raise ValueError(f"colour {c} outside 1..{kappa}")
    if not is_connected_edge_set(G, edges):
        raise ValueError("polymer support is not connected")
    vmask = sum(1 << v for v in G.edge_vertices(edges))
    return ColouredPolymer(*zip(*pairs), vmask)


def assignment_to_family(G: MultiGraph, sigma) -> list:
    """Connected components of the non-ground subgraph, as coloured polymers
    in `ColouredPolymer.sort_key` order: the inverse of
    `polymers.family_to_assignment`."""
    sigma = tuple(sigma)
    if len(sigma) != G.edge_count:
        raise ValueError(f"assignment length {len(sigma)} != edge count {G.edge_count}")
    comps: list = []  # (vertex set, edge ids) of each component so far
    for e in range(G.edge_count):
        if sigma[e]:
            meet = [c for c in comps if c[0] & set(G.edges[e])]
            comps = [c for c in comps if c not in meet]
            comps.append((set(G.edges[e]).union(*(c[0] for c in meet)),
                          [e] + [f for c in meet for f in c[1]]))
    family = [make_polymer(G, ids, [sigma[e] for e in ids]) for _, ids in comps]
    return sorted(family, key=ColouredPolymer.sort_key)


def truncation_order(d: int, eps: float, ratio: float) -> int:
    """The paper's closed-form order ceil(log(d/eps) / (1 - ratio)).

    d: polynomial degree (edge count); ratio = |x|/q must be < 1. `approx`
    uses the sharper `expansion.certified_order`, which never exceeds it for
    ratio <= 1/2 and eps <= 1.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    _require_eps(eps)
    _require_ratio(ratio)
    return max(1, math.ceil(math.log(d / eps) / (1.0 - ratio)))


# ---------------------------------------------------------------------------
# Ursell function


def _normalise_edges(k: int, edges):
    out = set()
    for i, j in edges:
        if not (0 <= i < k and 0 <= j < k) or i == j:
            raise ValueError(f"bad edge ({i},{j}) for {k} nodes")
        out.add((min(i, j), max(i, j)))
    return tuple(sorted(out))


@lru_cache(maxsize=200_000)
def _ursell_cached(k: int, edges) -> int:
    adj = [0] * k
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    full = (1 << k) - 1

    # edgeless[S]: no edge of H inside S; built up by lowest bit
    edgeless = bytearray(full + 1)
    edgeless[0] = 1
    for S in range(1, full + 1):
        b = S & -S
        rest = S ^ b
        edgeless[S] = 1 if edgeless[rest] and (adj[b.bit_length() - 1] & S) == 0 else 0

    # C[S] = sum over spanning connected edge subsets of H[S] of (-1)^{#edges};
    # recurrence peels off the component of the lowest node b:
    # [S edgeless] = sum_{T ni b} C[T] * [S \ T edgeless]
    C = [0] * (full + 1)
    for S in range(1, full + 1):
        b = S & -S
        rest = S ^ b
        total = int(edgeless[S])
        U = rest
        while U:
            if edgeless[U]:
                total -= C[S ^ U]
            U = (U - 1) & rest
        C[S] = total
    return C[full]


def ursell(k: int, edges) -> int:
    """Sum of (-1)^{|A|} over spanning connected edge subsets A of H.

    H must be connected (callers construct clusters, whose incompatibility
    graphs are connected by definition). Exact integer arithmetic.
    """
    if k < 1:
        raise ValueError("need at least one node")
    if k > URSELL_NODE_GATE:
        raise GateExceeded(f"ursell on {k} nodes exceeds gate {URSELL_NODE_GATE}")
    edges = _normalise_edges(k, edges)
    # connectivity check
    adj = [0] * k
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    seen = 1
    stack = [0]
    while stack:
        v = stack.pop()
        m = adj[v] & ~seen
        while m:
            b = m & -m
            seen |= b
            stack.append(b.bit_length() - 1)
            m ^= b
    if seen != (1 << k) - 1:
        raise ValueError("incompatibility graph must be connected")
    return _ursell_cached(k, edges)


# ---------------------------------------------------------------------------
# Clusters


@dataclass(frozen=True)
class Cluster:
    """Connected multiset of polymers: distinct polymers plus multiplicities."""

    polymers: tuple
    mults: tuple
    total_size: int
    ursell_value: int

    def weight(self, wmap) -> complex:
        w = complex(self.ursell_value)
        for p, m in zip(self.polymers, self.mults):
            w *= wmap[p] ** m
            w /= math.factorial(m)
        return w


def _expanded_ursell(sizes_adj, mults) -> int:
    """Ursell of the copy-expanded incompatibility graph.

    sizes_adj: tuple of support-graph edges (i, j) with i < j (positions into
    the support); identical copies are always mutually incompatible, so each
    support position contributes a clique of its multiplicity.
    """
    offsets = [0]
    for m in mults:
        offsets.append(offsets[-1] + m)
    k = offsets[-1]
    edges = []
    for pos, m in enumerate(mults):
        nodes = range(offsets[pos], offsets[pos + 1])
        edges += [(a, b) for a in nodes for b in nodes if a < b]
    for i, j in sizes_adj:
        edges += [
            (a, b)
            for a in range(offsets[i], offsets[i + 1])
            for b in range(offsets[j], offsets[j + 1])
        ]
    return ursell(k, edges)


def enumerate_clusters(polymers, max_total: int):
    """All clusters of total size <= max_total over the given polymer pool.

    Deterministic order: supports are grown exactly once each (seed order with
    banned predecessors, as for connected subgraphs), multiplicity vectors in
    lexicographic order.
    """
    pool = sorted((p for p in polymers if p.size <= max_total),
                  key=lambda p: p.sort_key())
    n = len(pool)
    masks = [p.vmask for p in pool]
    sizes = [p.size for p in pool]
    out = []
    budget = [CLUSTER_GATE]

    def emit(support, support_adj):
        szs = [sizes[i] for i in support]
        polys = tuple(pool[i] for i in support)
        t = len(support)
        tail = [0] * (t + 1)
        for i in range(t - 1, -1, -1):
            tail[i] = tail[i + 1] + szs[i]

        def mults_dfs(pos, used, acc):
            if pos == t:
                budget[0] -= 1
                if budget[0] < 0:
                    raise GateExceeded(f"more than {CLUSTER_GATE} clusters")
                u = _expanded_ursell(support_adj, tuple(acc))
                out.append(Cluster(polys, tuple(acc), used, u))
                return
            s = szs[pos]
            mult = 1
            while used + mult * s + tail[pos + 1] <= max_total:
                acc.append(mult)
                mults_dfs(pos + 1, used + mult * s, acc)
                acc.pop()
                mult += 1

        mults_dfs(0, 0, [])

    def grow(support, smask, ssize, banned):
        adj = tuple(
            (a, b)
            for a in range(len(support))
            for b in range(a + 1, len(support))
            if masks[support[a]] & masks[support[b]]
        )
        emit(support, adj)
        cand = [
            j
            for j in range(n)
            if j not in banned
            and j not in support
            and masks[j] & smask
            and ssize + sizes[j] <= max_total
        ]
        newly: set = set()
        for j in cand:
            grow(support + [j], smask | masks[j], ssize + sizes[j], banned | newly)
            newly.add(j)

    banned_seeds: set = set()
    for i in range(n):
        grow([i], masks[i], sizes[i], set(banned_seeds))
        banned_seeds.add(i)
    return out


def cluster_log_coefficients(clusters, wmap, m: int):
    """a_1..a_m from an explicit cluster list."""
    a = [0j] * (m + 1)
    for cl in clusters:
        if cl.total_size <= m:
            a[cl.total_size] += cl.weight(wmap)
    return a[1:]
