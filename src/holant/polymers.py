"""Edge-coloured polymer model for Holant partition functions.

A polymer is a connected edge subgraph together with a colouring of its edges
by 1..kappa (colour 0 is the ground value and never appears inside a polymer).
Two polymers are incompatible when their vertex sets intersect; a polymer is
incompatible with itself. Compatible families of polymers are in bijection
with edge assignments sigma in {0..kappa}^E: the polymers are the connected
components of the subgraph spanned by the non-ground edges.

With z_0 != 0 and every signature in F0 (f(0,...,0) != 0),

    holant(G, pi, z) = z_0^{|E|} * prod_v f_v(0) * Z(polymers, Phi)

where Z sums prod Phi over compatible families (empty family contributes 1)
and Phi(gamma) = prod_i (z_i/z_0)^{#edges coloured i} * prod_{v in V(gamma)}
f_v(...) / f_v(0), each vertex reading its signature with the edges outside
gamma at colour 0 (`LiveWalk` below; `holant.oracle.polymer_weight` is the
polymer-by-polymer reference; tables are read only through `Signature`).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidFugacity
from .graph import MultiGraph, grow_edge_sets, mask_vertices, touch_masks
from .signatures import SignatureAssignment, check_fugacities


class ColouredPolymer(namedtuple("ColouredPolymer", "edges colours vmask")):
    """A polymer of the chain and the references: edge ids ascending,
    colours alongside, and its vertex bitmask."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.edges)

    def sort_key(self):
        return (len(self.edges), self.edges, self.colours)


class LiveWalk:
    """The package's one weighing pass, in two parts: the per-instance tables,
    built once here, and `walk`, a walk over given seeds that reads them.
    `walk_live` walks from every edge, for `expansion.log_z_coefficients`
    and the certificates (`mcmc.check_chain_conditions`, `bounds.verify_kp`);
    `mcmc.PolymerChain` walks from one edge per draw, to the draw's size
    budget, and reads a budget of 1 from the tables alone (`singles`, and
    `single_weights` for the weights only).

    Building raises ValueError for an assignment built for another graph
    (`SignatureAssignment.check_graph`), InvalidFugacity for a z that
    `check_fugacities` rejects, and NotInF0 naming the first vertex with
    edges whose signature is off F0 (`SignatureAssignment.check_f0`).

    The tables: a polymer weighs 1 times ratio[c] for each edge colour in
    edge order, then f_x(idx_x) / f_x(0) for each vertex x in ascending
    order, the factors of `oracle.polymer_weight` in its order, so the
    weights agree bit for bit; ends[e] = [u, ru, v, rv], each end x of e with
    the digit weight of e's rank in G.incident(x), as `oracle.vertex_value`
    reads it; bits[e], the vertex mask of e; touch[e], the edge mask that
    `graph.grow_edge_sets` extends by once e joins a set. Each signature
    caches the tables read here (`Signature.digit_weights`, `quotients`,
    `extensions`), so every instance shares them.
    """

    def __init__(self, G: MultiGraph, assign: SignatureAssignment, z):
        assign.check_graph(G)
        kappa = assign.kappa
        if kappa < 1:
            raise ValueError("kappa must be >= 1")
        z = check_fugacities(z, kappa)
        self.G = G
        if not G.edge_count:
            return
        assign.check_f0(x for x in range(G.vertex_count) if G.degree(x))
        self.ratio = [z[c] / z[0] for c in range(kappa + 1)]
        self.ends = ends = [[] for _ in G.edges]
        for x, s in enumerate(assign.sigs):  # u < v, so u's pair comes first
            for e, r in zip(G.incident(x), s.digit_weights):
                ends[e] += (x, r)
        self.colours = [c for c in range(1, kappa + 1) if z[c] != 0]
        self.ext = [s.extensions for s in assign.sigs]
        self.quot = [s.quotients for s in assign.sigs]  # None off F0: edgeless vertices here
        self.bits = G.edge_masks()
        self.touch = touch_masks(G)
        # the walk's state: each vertex's signature index, zero between
        # walks, and each edge's colour, read only while the edge is in a set
        self.idx = [0] * G.vertex_count
        self.colour = [0] * G.edge_count

    def walk(self, seeds, max_edges: int, keep):
        """Call keep(edges, colours, vmask, vertices, w) once for each polymer
        of nonzero weight w with |E(gamma)| <= max_edges that holds a seed, in
        walk order: edges ascending, colours alongside, vertices the
        ascending ids of vmask. Each w is bitwise equal to
        `oracle.polymer_weight` (for finite tables).

        One walk (`graph.grow_edge_sets`) grows each connected support and
        its colouring together, keeping the signature index of every touched
        vertex as edges come and go. A colour of zero fugacity is never
        tried, and a branch is cut as soon as a touched vertex's index has no
        nonzero extension (`Signature.extensions`): every polymer grown from
        there only extends that index further, so it weighs zero. Only live
        polymers and the branches leading to them are visited, and the walk
        raises GateExceeded once their sizes add up past `errors.WORK_GATE`.
        """
        G = self.G
        if max_edges < 1 or G.edge_count == 0:
            return
        ratio, ends, colours, ext, quot, bits = (
            self.ratio, self.ends, self.colours, self.ext, self.quot, self.bits)
        # extend puts back every index it moves once its edge's branches are
        # done, so idx is all zeros again when the walk ends; a walk that
        # raises leaves it to be built anew
        idx, colour = self.idx, self.colour
        if idx is None:
            idx = [0] * G.vertex_count
        self.idx = None

        def extend(e, banned):
            u, ru, v, rv = ends[e]
            iu, iv = idx[u], idx[v]
            ext_u, ext_v = ext[u], ext[v]
            for c in colours:
                ju, jv = iu + c * ru, iv + c * rv
                if ext_u[ju] and ext_v[jv]:
                    idx[u], idx[v], colour[e] = ju, jv, c
                    yield c
            idx[u], idx[v] = iu, iv

        def visit(stack):
            edges = tuple(sorted(stack))
            cols = tuple([colour[e] for e in edges])
            w = 1 + 0j
            for c in cols:
                w *= ratio[c]
            vmask = 0
            for e in edges:
                vmask |= bits[e]
            vertices = mask_vertices(vmask)
            for x in vertices:
                w *= quot[x][idx[x]]
            if w != 0:
                keep(edges, cols, vmask, vertices, w)

        grow_edge_sets(G, seeds, max_edges, visit, extend, self.touch)
        self.idx = idx

    def single_weights(self, e: int) -> list:
        """The (colour, w) pairs of the single-edge polymers at e that
        `walk((e,), 1, keep)` passes keep, in its order (colours ascending)
        and bit for bit, read from the tables without walking."""
        u, ru, v, rv = self.ends[e]
        found = []
        for c in self.colours:
            ju, jv = c * ru, c * rv
            if self.ext[u][ju] and self.ext[v][jv]:
                w = (1 + 0j) * self.ratio[c] * self.quot[u][ju] * self.quot[v][jv]
                if w != 0:
                    found.append((c, w))
        return found

    def singles(self, e: int) -> list:
        """`single_weights(e)` as (polymer, w) pairs."""
        vmask = self.bits[e]
        return [(ColouredPolymer((e,), (c,), vmask), w) for c, w in self.single_weights(e)]


def walk_live(G: MultiGraph, assign: SignatureAssignment, z, max_edges: int, keep):
    """`LiveWalk(G, assign, z).walk` from every edge, in walk order: keep(edges,
    colours, vmask, vertices, w) once for each polymer of nonzero weight w
    with |E(gamma)| <= max_edges. Raises what building a `LiveWalk` raises."""
    LiveWalk(G, assign, z).walk(range(G.edge_count), max_edges, keep)


# ---------------------------------------------------------------------------
# Compatible families as edge assignments


def family_to_assignment(G: MultiGraph, family) -> tuple:
    """Edge assignment sigma for a compatible family (ground colour elsewhere);
    `oracle.assignment_to_family` is the inverse."""
    sigma = [0] * G.edge_count
    occupied = 0
    for p in family:
        if occupied & p.vmask:
            raise ValueError("family is not pairwise compatible")
        occupied |= p.vmask
        for e, c in zip(p.edges, p.colours):
            sigma[e] = c
    return tuple(sigma)


def holant_prefactor(G: MultiGraph, assign: SignatureAssignment, z) -> complex:
    assign.check_graph(G)
    z = check_fugacities(z, assign.kappa)
    return z[0] ** G.edge_count * assign.f0_product()


# ---------------------------------------------------------------------------
# Domain preprocessing


def relabel_ground(assign: SignatureAssignment, z, colour: int):
    """Swap domain value `colour` with 0 in all signatures and in z.

    Useful when f(0,...,0) = 0 but another constant tuple is nonzero; the
    Holant value is invariant under relabelling.
    """
    kappa = assign.kappa
    if not (0 <= colour <= kappa):
        raise ValueError(f"colour {colour} outside domain 0..{kappa}")
    z = tuple(complex(t) for t in z)
    if len(z) != kappa + 1:
        raise InvalidFugacity(f"need {kappa + 1} fugacities, got {len(z)}")
    perm = list(range(kappa + 1))
    perm[0], perm[colour] = perm[colour], perm[0]
    new_z = tuple(z[perm[i]] for i in range(kappa + 1))
    return assign.remap(perm), new_z


def compact_domain(assign: SignatureAssignment, z):
    """Drop non-ground domain values whose fugacity is exactly zero.

    Assignments using such a value contribute 0 to the Holant sum, so
    restricting every signature table to the surviving values preserves the
    partition function while shrinking the polymer pool.
    Returns (assignment, z, kept) where kept maps new value -> old value.
    """
    z = check_fugacities(z, assign.kappa)
    kept = [0] + [i for i in range(1, len(z)) if z[i] != 0]
    if len(kept) == len(z):
        return assign, z, tuple(kept)
    new_z = tuple(z[i] for i in kept)
    return assign.remap(kept), new_z, tuple(kept)
