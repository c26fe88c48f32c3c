"""The incidence structure every polymer model lives on, and the one walk
over its connected edge sets.

`Hypergraph` holds vertices 0..n-1 and edges that are sets of vertices, and
a graph, `MultiGraph`, is its 2-uniform subclass. Everything downstream
(signature argument tuples, polymer colourings, edge assignments) is indexed
against a graph's canonical order, fixed here: edges sorted by (min endpoint,
max endpoint), and each vertex's incident edges listed in increasing edge
id. The walks read the bitmask form of the incidence from `edge_masks` (the
vertices of each edge) and `incident_masks` (the edges at each vertex), and
build no other.

`grow_edge_sets` is the package's one exactly-once walk over connected edge
sets. Two edges are adjacent when they share a vertex, so the polymer
supports of G and the column supports of a linear system (`holant.linsys`)
come from the same walk. Its state is three edge bitmasks: the set, its
frontier and the banned edges, and it charges the size of every set it
visits against the work gate (`holant.errors`). It keeps its path on an
explicit stack, so its depth is bounded by its max_edges, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from . import errors
from .errors import ParseError, past_gate


class Hypergraph:
    """Vertices 0..n-1 and edges, each a frozenset of distinct vertices, kept
    in the given order: an edge's id is its position in `edges`. Each call
    of `edge_masks` or `incident_masks` builds its list anew."""

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 0:
            raise ValueError("vertex_count must be >= 0")
        self.vertex_count = vertex_count
        self.edges = self._canonical(edges)
        inc = [[] for _ in range(vertex_count)]
        for i, e in enumerate(self.edges):
            for v in e:
                inc[v].append(i)
        self._incident = tuple(tuple(x) for x in inc)

    def _canonical(self, edges) -> tuple:
        out = []
        for e in edges:
            vs = [int(v) for v in e]
            if not vs:
                raise ValueError("empty hyperedge")
            if any(not 0 <= v < self.vertex_count for v in vs):
                raise ValueError(f"hyperedge {sorted(vs)} out of range")
            e = frozenset(vs)
            if len(e) < len(vs):
                v = next(v for v in vs if vs.count(v) > 1)
                raise ValueError(f"vertex {v} repeated in hyperedge {vs}")
            out.append(e)
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def incident(self, v: int):
        """Edge ids at v, ascending."""
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def max_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return max(len(i) for i in self._incident)

    def uniformity(self) -> int | None:
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def edge_masks(self) -> list:
        """Per edge id, the bitmask of its vertices."""
        return [sum(1 << v for v in e) for e in self.edges]

    def incident_masks(self) -> list:
        """Per vertex, the bitmask of the ids of its edges."""
        return [sum(1 << e for e in inc) for inc in self._incident]


class MultiGraph(Hypergraph):
    """Undirected graph without loops or parallel edges: the 2-uniform
    Hypergraph whose edges are (u, v) pairs with u < v, in canonical order.

    The name reflects the interface (edge ids are first-class, all bookkeeping
    is per-edge); the current implementation rejects parallel edges because
    every consumer in this package works on simple graphs.
    """

    def _canonical(self, edges) -> tuple:
        seen = set()
        canon = []
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range for {self.vertex_count} vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            canon.append(key)
        # sorted edges list every vertex's incident ids in canonical rank order
        return tuple(sorted(canon))

    def edge_vertices(self, eids) -> set:
        return {v for e in eids for v in self.edges[e]}

    def __eq__(self, other):
        return (
            isinstance(other, MultiGraph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertex_count, self.edges))

    def __repr__(self):
        return f"MultiGraph({self.vertex_count}, {list(self.edges)})"

    def to_text(self) -> str:
        lines = [f"{self.vertex_count} {self.edge_count}"]
        lines += [f"{u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MultiGraph":
        lines = _strip_comments(text)
        n, edges = _read_edges(lines, "graph")
        for line, e in zip(lines[1:], edges):
            if len(e) != 2:
                raise ParseError(f"expected edge line 'u v', got {line!r}")
        return _build(cls, n, edges)


def mask_vertices(mask: int) -> list:
    """Vertex ids of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bfs_levels(adj, root: int):
    levels, seen = [[root]], {root}
    while True:
        level = []
        for u in levels[-1]:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    level.append(w)
        if not level:
            return levels
        levels.append(level)


def bfs_order(n: int, edges) -> list:
    """Vertices 0..n-1 in breadth-first order, component by component.

    edges: pairs, or any vertex collections (hyperedges) whose members are
    mutually adjacent. Each component starts at a pseudo-peripheral vertex:
    a minimum-degree vertex of the last BFS level, searched again from there
    while the depth grows. Neighbours are visited by ascending degree. The
    levels of such a search are narrow, which keeps the state count of the
    family kernel (`holant.families`) small; on cycles and paths that count
    does not depend on how the vertices are labelled.
    """
    nbrs = [set() for _ in range(n)]
    for e in edges:
        for u in e:
            nbrs[u].update(e)
    for u in range(n):
        nbrs[u].discard(u)
    adj = [sorted(s, key=lambda w: (len(nbrs[w]), w)) for s in nbrs]
    order: list = []
    placed = [False] * n
    for s in range(n):
        if placed[s]:
            continue
        levels = _bfs_levels(adj, s)
        while True:
            far = min(levels[-1], key=lambda w: (len(adj[w]), w))
            again = _bfs_levels(adj, far)
            if len(again) <= len(levels):
                break
            levels = again
        for level in levels:
            for v in level:
                placed[v] = True
                order.append(v)
    return order


def _strip_comments(text: str):
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _read_header(lines, what: str):
    """(n, m) from the 'n m' first line of a comment-stripped line file."""
    if not lines:
        raise ParseError(f"empty {what} file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}")
    try:
        return int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc


def _read_edges(lines, what: str):
    """(n, edges) of a comment-stripped line file: an 'n m' header, then m
    edge lines of int vertex ids (lists, as written). Graph files and
    perfect-matching instances (`linsys.parse_pm_file`) both read theirs here."""
    n, m = _read_header(lines, what)
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, file has {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        try:
            edges.append([int(p) for p in line.split()])
        except ValueError as exc:
            raise ParseError(f"bad edge line {line!r}") from exc
    return n, edges


def _build(cls, *args):
    """cls(*args), with the ValueError of an invalid input as a ParseError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _once(e, banned):
    return (e,)


def touch_masks(G) -> list:
    """Per edge id of G, the mask of the edges that share a vertex with it,
    itself included: the masks `grow_edge_sets` extends a set's frontier by."""
    inc = G.incident_masks()
    return [reduce(or_, [inc[v] for v in vs], 0) for vs in G.edges]


def grow_edge_sets(G, seeds, max_edges: int, visit, extend=_once, touch=None):
    """Call visit(stack) once for every connected edge set with at most
    max_edges edges that contains at least one seed.

    G is a `Hypergraph` (a `MultiGraph` included); two edges are adjacent
    when they share a vertex. stack lists the set's edges in the
    order they were added; visit must copy what it keeps. seeds are distinct
    edge ids, processed in order; sets whose least seed is seeds[t] are grown with seeds[:t]
    forbidden, which makes the walk exactly-once: each connected superset is
    built by always extending with a boundary edge and banning an extension
    for all later sibling branches.

    The walk keeps its state on edge bitmasks: cur (the set's edges),
    frontier (every edge touching a vertex of the set) and banned. The
    candidates are frontier & ~cur & ~banned, tried in ascending edge order,
    and each joins banned once its branch is done. The path is a list of
    generators, one per set on it, each yielding the set's children while
    its hook's state is set: the walk's depth is bounded by max_edges, not by
    the interpreter's recursion limit.

    extend(e, banned) is the per-edge hook, called once edge e has joined the
    set. banned is the mask of the edges that no set grown from there may
    hold; no edge of the set is in it. The walk descends once for each item
    of the iterable it returns, so a hook can try several states for e in
    turn (setting each before yielding it) or none, which cuts the set and
    every superset grown from it.

    Every visited set charges its size, and visit may return further work
    units of its own to charge (None for none); the walk raises GateExceeded
    once the total passes `errors.WORK_GATE`.

    touch is `touch_masks(G)`, built here when not given: a caller that
    walks one graph from many seeds in turn builds it once.
    """
    if max_edges < 1:
        return
    if touch is None:
        touch = touch_masks(G)
    bound = errors.WORK_GATE
    spent = 0
    stack = []

    def branches(cur, frontier, banned, edges):
        # the sets cur + e for each e of edges in turn, once per item of
        # extend(e, banned), with e banned once its branches are done
        for e in edges:
            bit = 1 << e
            stack.append(e)
            for _ in extend(e, banned):
                yield cur | bit, frontier | touch[e], banned
            stack.pop()
            banned |= bit

    path = [branches(0, 0, 0, seeds)]  # one generator per set on the path, the empty set first
    while path:
        for cur, frontier, banned in path[-1]:
            spent += len(stack) + (visit(stack) or 0)
            if spent > bound:
                raise past_gate(spent, "units of edge-set walk")
            if len(stack) < max_edges:
                path.append(branches(cur, frontier, banned,
                                     mask_vertices(frontier & ~(cur | banned))))
                break
        else:
            path.pop()
