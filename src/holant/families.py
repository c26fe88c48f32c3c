"""Sums over vertex-disjoint families of items, by a forward DP over vertices.

An item is a (vertex mask, size, weight) triple, and a family is a set of
items whose masks are pairwise disjoint (the empty family included). This is
the shape of every polymer partition function in the package: coloured
polymers and M-alternating cycles on the vertices of G, and vector polymers
on the rows of a linear system.

`family_sum` walks the vertices in a given order. A state is the mask of
vertices that the items chosen so far cover at or after the current vertex;
its value is the truncated polynomial c_0..c_cap of prod weight *
x^{total size} summed over the partial families that reach it. At vertex v
a state either drops v (v is covered), or leaves v uncovered, or takes an
item whose first vertex in the order is v and whose mask misses the state.
Each family is built along exactly one path, and two items can only meet at
a vertex that is still in the state, so the result is exact for any order
that lists every vertex of every item.

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
starting there). A breadth-first order (`graph.bfs_order`) keeps the states
to the items crossing one BFS level, so a long cycle needs a handful of
states per vertex while its number of families grows exponentially.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import add

from . import errors
from .errors import past_gate


def _shifted(coeffs, size: int, weight):
    # a list comprehension builds the tuple faster than a generator does
    return (0,) * size + tuple([weight * c for c in coeffs[:len(coeffs) - size]])


def _series_add(a, b):
    return tuple(map(add, a, b))


def _times(c, size: int, weight):
    """`_shifted` on the number c_0 alone, where size is 0."""
    return weight * c


def _prefix_masks(order) -> list:
    """prefix[i]: the mask of order[:i + 1]; ValueError if a vertex repeats."""
    prefix, seen = [], 0
    for v in order:
        if seen >> v & 1:
            raise ValueError("order lists a vertex twice")
        seen |= 1 << v
        prefix.append(seen)
    return prefix


def _first_position(mask: int, prefix: list) -> int:
    """Position in the order of the first vertex of a nonempty mask, from the
    order's `_prefix_masks`: the first prefix that meets the mask. ValueError
    names the lowest vertex of the mask that the order lacks."""
    missing = mask & ~(prefix[-1] if prefix else 0)
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise ValueError(f"vertex {v} of an item is not in the order")
    return bisect_left(prefix, 1, key=mask.__and__)


def family_sum(items, order, cap: int = 0):
    """(c_0..c_cap, transitions): the sum over families of prod weight *
    x^{total size}, truncated at x^cap, and the DP transitions it took.

    items: (mask, size, weight) triples with nonempty masks; items of size
    > cap cannot contribute and are left out. order: the vertices, each
    once; it must list every vertex of every item. A state's value is the
    truncated polynomial as a (cap + 1)-tuple, or at cap 0 the number c_0,
    which the result wraps back into a 1-tuple. The coefficients take the
    number type of the weights, and without an item c_0 is the integer 1 and
    every other coefficient the integer 0. Each transition adds a series of
    cap + 1 terms, so the DP charges transitions * (cap + 1) and raises
    GateExceeded once that passes `errors.WORK_GATE`.
    """
    prefix = _prefix_masks(order)
    starts = [[] for _ in order]
    touched = 0
    for mask, size, weight in items:
        if size > cap:
            continue
        if not mask:
            raise ValueError("items need a nonempty vertex mask")
        first = _first_position(mask, prefix)
        starts[first].append((mask ^ (1 << order[first]), size, weight))
        touched |= mask

    bound = errors.WORK_GATE // (cap + 1)
    if cap:  # a value is the series c_0..c_cap
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
        for state, coeffs in layer.items():
            if state & bit:
                moves = [(state ^ bit, coeffs)]
            else:
                moves = [(state, coeffs)]
                moves += [(state | rest, shift(coeffs, size, weight))
                          for rest, size, weight in here if not rest & state]
            transitions += len(moves)
            if transitions > bound:
                raise past_gate(transitions * (cap + 1), "family-kernel series terms")
            for key, c in moves:
                old = nxt.get(key)
                nxt[key] = c if old is None else plus(old, c)
        layer = nxt
    return (layer[0] if cap else (layer[0],)), transitions
