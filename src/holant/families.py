"""Sums over vertex-disjoint families of items, by a forward DP over vertices.

An item is a (vertex mask, size, weight) triple, and a family is a set of
items whose masks are pairwise disjoint (the empty family included). This is
the shape of every polymer partition function in the package: coloured
polymers and M-alternating cycles on the vertices of G, and vector polymers
on the rows of a linear system.

`family_sum` takes the hypergraph H the items live on (G, H_A or a pm
instance) and walks its vertices in H's breadth-first order
(`graph.bfs_order`), which lists each vertex once. A state is the mask of
vertices that the items chosen so far cover at or after the current vertex;
its value is the truncated polynomial of prod weight * x^{total size} summed
over the partial families that reach it. At vertex v a state either drops v
(v is covered), or leaves v uncovered, or takes an item whose first vertex in
the order is v and whose mask misses the state. Each family is built along
exactly one path, and two items can only meet at a vertex that is still in
the state, so the result would be exact for any order of the vertices.

Every family that reaches a state has a total size of at least some j, the
state's least size, so its polynomial is zero below x^j, and a state holds
only c_j..c_cap: a tuple of cap + 1 - j terms, which ends at c_cap whatever
j is. Taking an item of size s shifts the tuple by s and cuts s terms off
its end, and two values add term by term from their ends, so the longer
head is kept. An item with j + s > cap would make an all-zero series, so it
is never taken: the items at each vertex are sorted by size, and a state's
item loop stops at the first item larger than cap - j. Skipping those
moves drops no nonzero term, but it can change the order in which a
state's live terms are added, so a capped sum can differ from the low terms
of a longer one in the last bit. That stable sort is the only order the
kernel needs, so items may arrive in any order (`approx` passes its walk's).

A value is only ever multiplied by weights and added, starting from the
integer 1, so the coefficients take the number type of the weights: complex
weights give complex sums, Fraction weights exact ones, and unit int weights
count the families exactly. The number of families is the same sum at unit
weights, which is how `linsys` counts them. At cap 0, where `linsys` and
`pm` run, a state's value is the plain number c_0 rather than a 1-tuple, so
a transition multiplies and adds numbers instead of building tuples. Both
value algebras do the same operations in the same order, so the values agree
bit for bit, and the result is a 1-tuple either way.

The order only sets the number of distinct states per vertex, and the cost
is the number of transitions: the sum over vertices of states x (1 + items
taken there). The breadth-first order keeps the states to the items
crossing one BFS level, so a long cycle needs a handful of states per
vertex while its number of families grows exponentially.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import add, itemgetter, or_

from . import errors
from .errors import past_gate
from .graph import Hypergraph, bfs_order


def _shifted(coeffs, size: int, weight):
    # a list comprehension builds the tuple faster than a generator does
    return tuple([weight * c for c in coeffs[:len(coeffs) - size]])


def _series_add(a, b):
    """a + b on two series that both end at c_cap; the longer head is kept."""
    d = len(a) - len(b)
    if not d:
        return tuple(map(add, a, b))
    if d > 0:
        return a[:d] + tuple(map(add, a[d:], b))
    return b[:-d] + tuple(map(add, a, b[-d:]))


def _times(c, size: int, weight):
    """`_shifted` on the number c_0 alone, where size is 0."""
    return weight * c


def family_sum(items, H: Hypergraph, cap: int = 0):
    """(c_0..c_cap, transitions): the sum over families of prod weight *
    x^{total size}, truncated at x^cap, and the DP transitions it took.

    items: (mask, size, weight) triples with nonempty masks over the
    vertices of H; items of size > cap cannot contribute and are left out.
    A state's value is the series c_j..c_cap as a tuple, where j is the
    least total size of a family reaching the state, or at cap 0 the number
    c_0, which the result wraps back into a 1-tuple; the empty family
    reaches the last state, so the result has all cap + 1 terms. The
    coefficients take the number type of the weights, and without an item
    c_0 is the integer 1 and every other coefficient the integer 0. Items
    may come in any order: each vertex's items are stably sorted by size,
    and a state takes none larger than cap - j. Each transition adds a
    series of at most cap + 1 terms, so the DP charges transitions *
    (cap + 1), an upper bound on the terms added, and raises GateExceeded
    once that passes `errors.WORK_GATE`. The charge is checked after every
    state, whether it drops or keeps the vertex.
    """
    order = bfs_order(H.vertex_count, H.edges)
    # prefix[i]: the mask of order[:i + 1]; an item starts at the first
    # position whose prefix meets its mask
    prefix = list(accumulate((1 << v for v in order), or_))
    starts = [[] for _ in order]
    touched = 0
    for mask, size, weight in items:
        if size > cap:
            continue
        if not mask:
            raise ValueError("items need a nonempty vertex mask")
        first = bisect_left(prefix, 1, key=mask.__and__)
        starts[first].append((mask ^ (1 << order[first]), size, weight))
        touched |= mask
    for here in starts:
        here.sort(key=itemgetter(1))

    bound = errors.WORK_GATE // (cap + 1)
    if cap:  # a value is the series c_j..c_cap
        one, shift, plus = (1,) + (0,) * cap, _shifted, _series_add
    else:  # a value is the number c_0; every item has size 0
        one, shift, plus = 1, _times, add
    layer = {0: one}
    transitions = 0
    for v, here in zip(order, starts):
        bit = 1 << v
        if not touched & bit:
            continue
        nxt: dict = {}
        get = nxt.get
        for state, coeffs in layer.items():
            transitions += 1
            if state & bit:
                key = state ^ bit
                old = get(key)
                nxt[key] = coeffs if old is None else plus(old, coeffs)
            else:
                old = get(state)
                nxt[state] = coeffs if old is None else plus(old, coeffs)
                room = len(coeffs) - 1 if cap else 0  # cap - j
                for rest, size, weight in here:
                    if size > room:
                        break
                    if not rest & state:
                        transitions += 1
                        key = state | rest
                        c = shift(coeffs, size, weight)
                        old = get(key)
                        nxt[key] = c if old is None else plus(old, c)
            if transitions > bound:
                raise past_gate(transitions * (cap + 1), "family-kernel series terms")
        layer = nxt
    return (layer[0] if cap else (layer[0],)), transitions
