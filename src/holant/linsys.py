"""Weighted solution counting for sparse linear systems and perfect-matching
polynomials, both through vertex-disjoint polymer families.

Linear systems: for Ax = 0 with per-variable caps 0 <= x_j <= cap_j and
weights w_j, a polymer is a nonzero solution vector whose support induces a
connected subhypergraph of H_A (rows are vertices, columns are hyperedges
over the rows they touch). Two polymers are incompatible when those induced
row sets intersect; compatible families sum to solutions, so the weighted
count w(X) = sum_x prod_j w_j^{x_j} equals the polymer partition function.

Matchings: given a hypergraph H with a reference perfect matching M,
Z(H, M, z) = sum over perfect matchings M' of z^{|M xor M'|}. A polymer is
a connected component of M xor M': a set A of M-edges and a set B of non-M
edges that perfectly matches the vertices of A, with A u B connected,
weighted z^{|A| + |B|}. Compatible polymers are vertex-disjoint, and each
M' is one compatible family. On a graph the polymers are the M-alternating
cycles.

Both models live on `graph.Hypergraph`, which `holant.linsys` re-imports:
H_A is `LinearSystem.hypergraph`, built once with the system, and a graph
instance is a `MultiGraph`, its 2-uniform subclass, which every function here
takes as it is.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, product
from math import prod

from . import errors
from .bounds import region_bounds
from .errors import GateExceeded, ParseError, outside_float_range, past_gate
from .families import family_sum
from .graph import (Hypergraph, MultiGraph, _build, _read_edges, _read_header, _strip_comments,
                    grow_edge_sets, mask_vertices)

SUPPORT_BOX_GATE = 10**6  # the box `brute_weighted_count` may sweep


def perfect_matchings(H: Hypergraph, gate: int | None = None):
    """All perfect matchings (sorted edge-id tuples) of a Hypergraph or a
    MultiGraph, by exhaustive cover search on vertex bitmasks. Each search
    node covers the least uncovered vertex by each edge there that misses the
    cover; the search raises GateExceeded once it has visited more than gate
    nodes, by default `errors.WORK_GATE` as it is at call time."""
    if gate is None:
        gate = errors.WORK_GATE
    masks = H.edge_masks()
    full = (1 << H.vertex_count) - 1
    out = []
    visits = 0
    todo = [(0, ())]  # (covered vertices, edge ids chosen), one per search node
    while todo:
        covered, chosen = todo.pop()
        visits += 1
        if visits > gate:
            raise GateExceeded(f"matching enumeration exceeded {gate} nodes")
        if covered == full:
            out.append(chosen)
            continue
        v = (~covered & (covered + 1)).bit_length() - 1  # the least uncovered vertex
        todo += [(covered | masks[i], chosen + (i,))
                 for i in H.incident(v) if not masks[i] & covered]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Linear systems


@dataclass
class LinearSystem:
    """Ax = 0 with caps and weights. `__post_init__` reads the matrix once
    into `columns[j]`, the nonzeros ((row, entry), ...) of column j with rows
    ascending; `live`, the columns with a nonzero; and `hypergraph`, H_A on
    the live columns, whose hyperedge t is column live[t]."""

    rows: list  # n lists of m ints
    caps: list  # per-variable cap kappa_j >= 1
    weights: list  # per-variable complex weight

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("need at least one row")
        m = len(self.rows[0])
        if any(len(r) != m for r in self.rows):
            raise ValueError("ragged matrix")
        if len(self.caps) != m or len(self.weights) != m:
            raise ValueError("caps and weights must have one entry per column")
        if set(map(type, chain.from_iterable(self.rows))) - {int}:
            raise ValueError("matrix entries must be integers")
        if set(map(type, self.caps)) - {int}:
            raise ValueError("caps must be integers")
        if any(c < 1 for c in self.caps):
            raise ValueError("caps must be >= 1")
        self.caps = list(self.caps)
        self.weights = [complex(w) for w in self.weights]
        if not all(map(cmath.isfinite, self.weights)):
            raise ValueError("weights must be finite")
        self.columns = [tuple((i, a) for i, a in enumerate(col) if a) for col in zip(*self.rows)]
        self.live = [j for j, col in enumerate(self.columns) if col]
        self.hypergraph = Hypergraph(n, [[i for i, _ in self.columns[j]] for j in self.live])

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])


# A nonzero solution vector with connected support: values ((column, value),
# ...) in the order the support grew, and rmask, the bitmask of touched rows.
VectorPolymer = namedtuple("VectorPolymer", "values rmask")


def enumerate_vector_polymers(sys: LinearSystem):
    """All vector polymers of the system.

    The connected column supports are the connected edge sets of H_A, grown
    once each by `graph.grow_edge_sets`. Every value is >= 1, so a row sums
    to zero only if the support holds a column of each sign in it. The
    walk's per-column hook keeps, as the support grows, the touched rows and
    those with a positive and with a negative column in it. It cuts the
    support and every superset grown from it once some touched row lacks a
    column of one sign both in the support and among the columns the walk
    may still add (those outside its banned mask).

    For each support the walk visits, the entries 1..cap_j are assigned
    column by column in support order, keeping every touched row's sum so
    far. A row closes at its last support column: there the one value that
    brings its sum to zero is the only one tried, and a branch stops when
    that value is not an integer in 1..cap_j or leaves another row closing
    there nonzero. A support with a touched row of one sign only is skipped
    before any value is tried.

    The walk charges each visited support's size, and each polymer found
    adds its number of values to the same count (GateExceeded once the count
    passes `errors.WORK_GATE`). The hook checks each support's box, the
    product of its caps, against the gate before it decides to cut, so every
    support the walk forms is checked as if every box vector were tried.
    """
    live, H = sys.live, sys.hypergraph
    col_rows = H.edge_masks()
    entries = [sys.columns[j] for j in live]  # the nonzeros of live column t
    # col_plus[t], col_minus[t]: rows where column t is positive, negative;
    # row_plus[i], row_minus[i]: columns that are positive, negative in row i
    col_plus, col_minus = [0] * len(live), [0] * len(live)
    row_plus, row_minus = [0] * sys.n, [0] * sys.n
    for t, ents in enumerate(entries):
        for i, a in ents:
            if a > 0:
                col_plus[t] |= 1 << i
                row_plus[i] |= 1 << t
            else:
                col_minus[t] |= 1 << i
                row_minus[i] |= 1 << t
    out = []
    gate = errors.WORK_GATE
    chosen = []  # the support the hook has grown
    box, rmask, plus, minus = 1, 0, 0, 0  # its caps' product, touched rows, rows with each sign

    def extend(t, banned):
        nonlocal box, rmask, plus, minus
        saved = box, rmask, plus, minus
        chosen.append(t)
        box *= sys.caps[live[t]]
        if box > gate:
            raise past_gate(box, f"candidate vectors on support {tuple(chosen)}")
        rmask |= col_rows[t]
        plus |= col_plus[t]
        minus |= col_minus[t]
        free = ~banned  # the set's columns and those it may still add
        if (all(row_plus[i] & free for i in mask_vertices(rmask & ~plus))
                and all(row_minus[i] & free for i in mask_vertices(rmask & ~minus))):
            yield t
        box, rmask, plus, minus = saved
        chosen.pop()

    def visit(stack):
        if plus & minus != rmask:
            return None  # a row of one sign cannot sum to zero
        support = tuple(stack)
        last = {}  # touched row -> position of its last support column
        for pos, t in enumerate(support):
            for i, _ in entries[t]:
                last[i] = pos
        cols = [live[t] for t in support]
        ents = [entries[t] for t in support]
        # closing[pos]: (row, coefficient) of each row whose last column is pos
        closing = [[(i, a) for i, a in ents[pos] if last[i] == pos] for pos in range(len(cols))]
        found = len(out)
        todo = [(0, (), dict.fromkeys(last, 0))]  # (position, values so far, row sums)
        while todo:
            pos, vec, residual = todo.pop()
            if pos == len(cols):
                out.append(VectorPolymer(tuple(zip(cols, vec)), rmask))
                continue
            cap = sys.caps[cols[pos]]
            if closing[pos]:
                (i, a), *rest = closing[pos]
                x, rem = divmod(-residual[i], a)
                if rem or not 1 <= x <= cap or any(residual[k] + b * x for k, b in rest):
                    continue
                values = (x,)
            else:
                values = range(1, cap + 1)
            for x in values:
                nxt = residual.copy()
                for i, a in ents[pos]:
                    nxt[i] += a * x
                todo.append((pos + 1, vec + (x,), nxt))
        return (len(out) - found) * len(cols)  # the values of the polymers found

    grow_edge_sets(H, range(H.edge_count), H.edge_count, visit, extend)
    out.sort(key=lambda p: (len(p.values), p.values))
    return out


@dataclass
class LinsysReport:
    value: complex
    polymer_count: int
    family_count: int
    dropped_columns: list


def weighted_count(sys: LinearSystem) -> LinsysReport:
    """w(X) = sum over solutions x of prod_j w_j^{x_j}, via polymer families.

    All-zero columns are unconstrained; they factor out of the sum as
    prod over dropped j of (1 + w_j + ... + w_j^{cap_j}). family_count is
    the exact number of compatible families, one per solution on the live
    columns: the same family sum at unit int weights. Raises
    ConditionViolated when the value lies past the float range.
    """
    dropped = [j for j, col in enumerate(sys.columns) if not col]
    pool = enumerate_vector_polymers(sys)
    w = sys.weights
    try:
        factor = 1 + 0j
        for j in dropped:
            factor *= sum(w[j] ** x for x in range(sys.caps[j] + 1))
        items = [(p.rmask, 0, prod((w[j] ** x for j, x in p.values), start=1 + 0j))
                 for p in pool]
    except OverflowError as exc:  # complex ** int past the float range raises
        raise outside_float_range(exc) from exc
    (total,), _ = family_sum(items, sys.hypergraph)
    value = factor * total
    if not cmath.isfinite(value):
        raise outside_float_range(value)
    (count,), _ = family_sum([(p.rmask, 0, 1) for p in pool], sys.hypergraph)
    return LinsysReport(
        value=value,
        polymer_count=len(pool),
        family_count=count,
        dropped_columns=dropped,
    )


def linsys_region(sys: LinearSystem):
    """Region report for the system's (r, c, kappa) parameters: r, the most
    nonzeros in a row, is H_A's maximum degree, and c, the most in a column,
    its largest hyperedge."""
    H = sys.hypergraph
    return region_bounds("linsys", r=H.max_degree(),
                         c=max(map(len, H.edges), default=0), kappa=max(sys.caps))


def pm_region(instance):
    """Region report of a perfect-matching instance: graph-pm for a MultiGraph
    (max degree Delta), hyper-pm for a Hypergraph (Delta and uniformity k)."""
    if isinstance(instance, MultiGraph):
        return region_bounds("graph-pm", delta=instance.max_degree())
    k = instance.uniformity()
    if k is None:
        raise ValueError("region bound needs a uniform hypergraph")
    return region_bounds("hyper-pm", delta=instance.max_degree(), k=k)


def brute_weighted_count(sys: LinearSystem) -> complex:
    """Direct sum over the full box in lexicographic order (independent of
    the polymer route)."""
    box = 1
    for c in sys.caps:
        box *= c + 1
    if box > SUPPORT_BOX_GATE:
        raise GateExceeded(f"{box} vectors exceed gate {SUPPORT_BOX_GATE}")
    total = 0j
    for vec in product(*[range(c + 1) for c in sys.caps]):
        if all(sum(row[t] * vec[t] for t in range(sys.m)) == 0 for row in sys.rows):
            w = 1 + 0j
            for t in range(sys.m):
                if vec[t]:
                    w *= sys.weights[t] ** vec[t]
            total += w
    return total


# ---------------------------------------------------------------------------
# Perfect-matching polynomials


def _mates(H, matching) -> list:
    """The matching-edge id at each vertex of H. Raises ValueError unless the
    edge ids in matching form a perfect matching of H: an id out of range,
    two matching edges that share a vertex, or a vertex left uncovered."""
    mate = [None] * H.vertex_count
    for i in map(int, matching):
        if not 0 <= i < H.edge_count:
            raise ValueError(f"matching edge id {i} out of range")
        for v in H.edges[i]:
            if mate[v] is not None:
                raise ValueError("matching edges overlap")
            mate[v] = i
    if None in mate:
        raise ValueError("reference set is not a perfect matching")
    return mate


def alternating_cycle_polymers(H, matching):
    """All M-alternating polymers (see the module docstring) as (edge-id
    tuple, vertex mask) pairs, sorted by (size, ids). H is a Hypergraph, or a
    MultiGraph, where they are the M-alternating cycles.

    The walk starts at the M-edge of the polymer's least vertex r and never
    enters a vertex below r. Each step covers the largest vertex of V(A) that
    B leaves open, by each non-M edge there that misses B and whose vertices'
    M-edges miss the vertices below r, and takes that edge with those M-edges.
    That B-edge is forced, so each polymer is built exactly once; on a graph
    the largest open vertex is the far end of the path. Since the M-edges
    partition V and every vertex of V(A) has its M-edge in A, taking a non-M
    edge e always adds the same three masks: e's vertices to B's cover,
    pulled(e) (e's vertices and their M-edges' vertices) to V(A), and the ids
    of e and those M-edges. The walk reads them from a table `moves[v]` of
    the non-M edges at v, built once. A root r whose moves all pull in a
    vertex below r is skipped: the B-edge that covers r could not be taken.
    Each step charges one unit, and the walk raises GateExceeded once it has
    taken more steps than `errors.WORK_GATE`.
    """
    masks = H.edge_masks()
    mate = _mates(H, matching)
    step = []  # per edge e: (covered, pulled, ids), the three masks taking e adds
    for e, covered in enumerate(masks):
        pulled, ids = covered, 1 << e
        for u in H.edges[e]:
            pulled |= masks[mate[u]]
            ids |= 1 << mate[u]
        step.append((covered, pulled, ids))
    # moves[v]: the steps of the non-M edges at v, in ascending edge id
    moves = [[step[e] for e in H.incident(v) if e != mate[v]]
             for v in range(H.vertex_count)]
    found = []
    bound = errors.WORK_GATE
    steps = 0
    # (va, cov, taken, below): V(A), the vertices B covers, the edge ids, the
    # vertices below r; one per root r, the least vertex of its M-edge, that
    # has a move clear of the vertices below it
    todo = []
    for r, a in enumerate(mate):
        below = (1 << r) - 1
        if (masks[a] & -masks[a]) == 1 << r and \
                any(not pulled & below for _, pulled, _ in moves[r]):
            todo.append((masks[a], 0, 1 << a, below))
    while todo:
        va, cov, taken, below = todo.pop()
        steps += 1
        if steps > bound:
            raise past_gate(steps, "alternating-walk steps")
        open_ = va & ~cov
        if not open_:
            found.append((tuple(mask_vertices(taken)), va))
            continue
        # va never meets below, so va | pulled is V(A) after the move
        for covered, pulled, ids in moves[open_.bit_length() - 1]:
            if not (covered & cov or pulled & below):
                todo.append((va | pulled, cov | covered, taken | ids, below))
    found.sort(key=lambda p: (len(p[0]), p[0]))
    return found


def pm_polynomial_hypergraph(H: Hypergraph, matching, z: complex,
                             mode: str = "polymer"):
    """Z(H, M, z) = sum over perfect matchings M' of z^{|M xor M'|}, for a
    Hypergraph or a MultiGraph H; `pm_polynomial_graph` is the same function.

    mode "polymer" sums z^{|A| + |B|} over vertex-disjoint families of
    M-alternating polymers (`alternating_cycle_polymers`), one family per M';
    "exact" enumerates the perfect matchings, the reference route.
    `pm_region` gives the instance's region report. In polymer mode a value
    past the float range raises ConditionViolated.

    Both modes check M, the edge ids in matching, the same way (`_mates`):
    ValueError "matching edge id i out of range", "matching edges overlap",
    or "reference set is not a perfect matching" when M leaves a vertex
    uncovered.
    """
    if mode == "polymer":
        zc = complex(z)
        polymers = alternating_cycle_polymers(H, matching)
        try:
            items = [(mask, 0, zc ** len(ids)) for ids, mask in polymers]
        except OverflowError as exc:  # complex ** int past the float range raises
            raise outside_float_range(exc) from exc
        (value,), _ = family_sum(items, H)
        value = complex(value)  # the integer 1 without a polymer
        if not cmath.isfinite(value):
            raise outside_float_range(value)
        return value
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    _mates(H, matching)
    mset = set(map(int, matching))
    total = 0j
    for other in perfect_matchings(H):
        diff = len(mset.symmetric_difference(other))
        total += complex(z) ** diff
    return total


pm_polynomial_graph = pm_polynomial_hypergraph


# ---------------------------------------------------------------------------
# File formats


def parse_matrix_file(text: str) -> LinearSystem:
    """Header 'n m', n rows of m ints, 'caps: ...', 'weights: re im ...'."""
    lines = _strip_comments(text)
    n, m = _read_header(lines, "matrix")
    if len(lines) != n + 3:
        raise ParseError(f"header promises {n} rows plus caps and weights lines, "
                         f"file has {len(lines) - 1} lines")
    rows = []
    for line in lines[1 : n + 1]:
        parts = line.split()
        if len(parts) != m:
            raise ParseError(f"row {line!r} does not have {m} entries")
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad row {line!r}") from exc
    caps_line, weights_line = lines[n + 1], lines[n + 2]
    if not caps_line.startswith("caps:"):
        raise ParseError(f"expected 'caps: ...', got {caps_line!r}")
    if not weights_line.startswith("weights:"):
        raise ParseError(f"expected 'weights: ...', got {weights_line!r}")
    try:
        caps = [int(p) for p in caps_line.split(":", 1)[1].split()]
    except ValueError as exc:
        raise ParseError(f"bad caps line {caps_line!r}") from exc
    wparts = weights_line.split(":", 1)[1].split()
    if len(wparts) != 2 * m:
        raise ParseError(f"weights line needs {2 * m} numbers (re im pairs)")
    try:
        weights = [
            complex(float(wparts[2 * j]), float(wparts[2 * j + 1])) for j in range(m)
        ]
    except ValueError as exc:
        raise ParseError(f"bad weights line {weights_line!r}") from exc
    if len(caps) != m:
        raise ParseError(f"caps line needs {m} entries")
    return _build(LinearSystem, rows, caps, weights)


def parse_pm_file(text: str):
    """Graph or hypergraph file with a trailing 'matching: id id ...' line.

    Returns (instance, matching, kind) with kind "graph" when every edge line
    has two vertices, else "hyper". A graph's matching ids index its
    canonical edge order (the (u, v) pairs with u < v, sorted), which the
    MultiGraph builds from the lines; a hypergraph's index the lines in file
    order.
    """
    lines = _strip_comments(text)
    if lines and lines[-1].startswith("matching:"):
        try:
            matching = tuple(int(p) for p in lines[-1].split(":", 1)[1].split())
        except ValueError as exc:
            raise ParseError(f"bad matching line {lines[-1]!r}") from exc
        lines = lines[:-1]
    elif lines:
        raise ParseError("instance file needs a 'matching: ...' line")
    n, edges = _read_edges(lines, "instance")
    if any(not 0 <= i < len(edges) for i in matching):
        raise ParseError(f"matching edge ids must lie in 0..{len(edges) - 1}, got {matching}")
    if all(len(e) == 2 for e in edges):
        return _build(MultiGraph, n, edges), matching, "graph"
    return _build(Hypergraph, n, edges), matching, "hyper"
