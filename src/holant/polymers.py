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
gamma at colour 0 (`walk_live` below; `holant.oracle.polymer_weight` is the
polymer-by-polymer reference).
"""

from __future__ import annotations

from .errors import InvalidFugacity, NotInF0
from .graph import MultiGraph, grow_edge_sets, mask_vertices
from .signatures import Signature, SignatureAssignment, check_fugacities


class ColouredPolymer:
    """Immutable (edges, colours) pair with a cached vertex bitmask."""

    __slots__ = ("edges", "colours", "vmask", "_hash")

    def __init__(self, edges, colours, vmask):
        self.edges = tuple(edges)
        self.colours = tuple(colours)
        self.vmask = vmask
        self._hash = hash((self.edges, self.colours))

    @property
    def size(self) -> int:
        return len(self.edges)

    def sort_key(self):
        return (len(self.edges), self.edges, self.colours)

    def __eq__(self, other):
        return (
            isinstance(other, ColouredPolymer)
            and self.edges == other.edges
            and self.colours == other.colours
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ColouredPolymer(edges={self.edges}, colours={self.colours})"


def extension_table(s: Signature) -> list:
    """Flat boolean table: ext[i] is True when some extension of index i has
    a nonzero value in s.

    An extension of an argument tuple gives some of its 0 arguments a colour
    1..kappa; the tuple itself is one. Built by an upward closure, one axis
    at a time, on the table as a bitset (bit i of an int for index i): at
    stride st, each index whose digit there is 0 takes in the bits of the
    indices with digit 1..kappa. For `matching` it is "popcount <= 1".
    """
    base, n = s.kappa + 1, len(s.table)
    bits = int("".join(["1" if v else "0" for v in reversed(s.table)]), 2)
    st = 1
    while st < n:
        zero_digit, period = (1 << st) - 1, base * st  # indices with digit 0 at st
        while period < n:
            zero_digit |= zero_digit << period
            period *= 2
        for c in range(1, base):
            bits |= (bits >> (c * st)) & zero_digit
        st *= base
    return list(map("1".__eq__, format(bits, f"0{n}b")[::-1]))


def walk_live(G: MultiGraph, assign: SignatureAssignment, z, max_edges: int, keep):
    """Call keep(edges, colours, vmask, vertices, w) once for each polymer of
    nonzero weight w with |E(gamma)| <= max_edges, in walk order: edges
    ascending, colours alongside, vertices the ascending ids of vmask. This
    is the package's one weighing pass; `live_polymers` and the certificates
    (`mcmc.check_chain_conditions`, `bounds.verify_kp`) fold from it.

    Each w is bitwise equal to `oracle.polymer_weight` (for finite tables).
    Raises InvalidFugacity for a z that `check_fugacities` rejects, and the
    NotInF0 that polymer_weight raises on the single-edge polymers, which
    lead `oracle.enumerate_polymers` order.

    One walk (`graph.grow_edge_sets`) grows each connected support and its
    colouring together, keeping the signature index of every touched vertex
    as edges come and go. A colour of zero fugacity is never tried, and a
    branch is cut as soon as a touched vertex's index has no nonzero
    extension (`extension_table`): every polymer grown from there only
    extends that index further, so it weighs zero. Only live polymers and
    the branches leading to them are visited, and the walk raises
    GateExceeded once their sizes add up past `errors.WORK_GATE`.
    """
    kappa = assign.kappa
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    z = check_fugacities(z, kappa)
    if max_edges < 1 or G.edge_count == 0:
        return
    for u, v in G.edges:
        for x in (u, v):
            s = assign.sig(x)
            if s.table[0] == 0:
                raise NotInF0(f"vertex {x}: signature {s.name!r} has f(0,...,0) = 0")
    # a polymer weighs 1 times ratio[c] for each edge colour in edge order,
    # then f_x(idx_x) / f_x(0) for each vertex x in ascending order: the
    # factors of `oracle.polymer_weight` in its order, so the weights agree
    # bit for bit; ends[e] = [u, ru, v, rv], each end x of e with the digit
    # weight (kappa + 1)^(d - 1 - p) of e there, p its rank in G.incident(x),
    # as `oracle.vertex_value` reads the table
    ratio = [z[c] / z[0] for c in range(kappa + 1)]
    ends = [[] for _ in G.edges]
    for x in range(G.vertex_count):  # u < v, so u's pair comes first
        inc = G.incident(x)
        for p, e in enumerate(inc):
            ends[e] += (x, (kappa + 1) ** (len(inc) - 1 - p))
    colours = [c for c in range(1, kappa + 1) if z[c] != 0]
    tables: dict = {}
    for s in assign.sigs:
        if id(s) not in tables:  # f / f(0), None off F0 (only at edgeless vertices here)
            quot = [t / s.f0 for t in s.table] if s.f0 else None
            tables[id(s)] = (extension_table(s), quot)
    ext, quot = zip(*(tables[id(s)] for s in assign.sigs))
    bits = G.edge_masks()
    idx = [0] * G.vertex_count
    colour = [0] * G.edge_count

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

    grow_edge_sets(G, range(G.edge_count), max_edges, visit, extend)


def live_polymers(G: MultiGraph, assign: SignatureAssignment, z, max_edges: int):
    """(polymer, weight) pairs of nonzero weight with |E(gamma)| <= max_edges,
    from one `walk_live`.

    Sorted by `ColouredPolymer.sort_key`, so the polymers come in
    `oracle.enumerate_polymers` order, each weight bitwise equal to
    `oracle.polymer_weight` (for finite tables); raises what `walk_live` raises.
    """
    out: list = []

    def keep(edges, cols, vmask, _, w):
        out.append((ColouredPolymer(edges, cols, vmask), w))

    walk_live(G, assign, z, max_edges, keep)
    out.sort(key=lambda pw: pw[0].sort_key())
    return out


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
    z = check_fugacities(z, assign.kappa)
    return z[0] ** G.edge_count * assign.f0_product()


# ---------------------------------------------------------------------------
# Domain preprocessing


def _remap_domain(assign: SignatureAssignment, idx) -> SignatureAssignment:
    """Every signature f replaced by (x_1..x_d) -> f(idx[x_1], ..., idx[x_d])."""
    base = assign.kappa + 1
    cache: dict = {}
    sigs = []
    for s in assign.sigs:
        key = id(s)
        if key not in cache:
            pos = [0]  # old index of every new tuple, one argument at a time
            for _ in range(s.arity):
                pos = [j * base + i for j in pos for i in idx]
            table = [s.table[j] for j in pos]
            cache[key] = Signature(arity=s.arity, kappa=len(idx) - 1, table=table, name=s.name)
        sigs.append(cache[key])
    return SignatureAssignment(assign.G, sigs)


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
    return _remap_domain(assign, perm), new_z


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
    return _remap_domain(assign, kept), new_z, tuple(kept)
