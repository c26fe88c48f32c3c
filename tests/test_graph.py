import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from holant import (
    MultiGraph,
    ParseError,
)
from holant.graph import grow_edge_sets, mask_vertices
from holant.graph import Hypergraph
from holant.oracle import (connected_edge_sets, connected_edge_subgraphs,
                           connected_edge_supersets, is_connected_edge_set)

from helpers import MASTER_SEED, c3, random_graph, reference_grow


def brute_connected_sets(G, v=None, max_edges=None, anchor_edge=None):
    """Reference enumerator: filter every nonempty edge subset."""
    m = max_edges if max_edges is not None else G.edge_count
    out = []
    for size in range(1, m + 1):
        for sub in itertools.combinations(range(G.edge_count), size):
            if not is_connected_edge_set(G, sub):
                continue
            if v is not None and v not in G.edge_vertices(sub):
                continue
            if anchor_edge is not None and anchor_edge not in sub:
                continue
            out.append(tuple(sub))
    return sorted(out, key=lambda s: (len(s), s))


def test_parse_round_trip_idempotent():
    text = "# a comment\n4 4\n3 0\n0 1\n2 1\n2 3\n"
    G = MultiGraph.from_text(text)
    assert G.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    G2 = MultiGraph.from_text(G.to_text())
    assert G2.edges == G.edges
    assert G2.to_text() == G.to_text()


def test_parse_errors():
    with pytest.raises(ParseError):
        MultiGraph.from_text("2\n0 1\n")  # bad header
    with pytest.raises(ParseError):
        MultiGraph.from_text("2 1\n0 0\n")  # loop
    with pytest.raises(ParseError):
        MultiGraph.from_text("2 2\n0 1\n1 0\n")  # duplicate edge
    with pytest.raises(ParseError):
        MultiGraph.from_text("2 1\n0 5\n")  # endpoint out of range
    with pytest.raises(ParseError):
        MultiGraph.from_text("2 2\n0 1\n")  # edge count mismatch
    with pytest.raises(ParseError, match="expected edge line 'u v'"):
        MultiGraph.from_text("3 1\n0 1 2\n")  # three vertices on an edge line
    with pytest.raises(ParseError, match="bad edge line"):
        MultiGraph.from_text("2 1\n0 x\n")


def test_loops_and_duplicates_rejected_in_constructor():
    with pytest.raises(ValueError):
        MultiGraph(2, [(1, 1)])
    with pytest.raises(ValueError):
        MultiGraph(3, [(0, 1), (1, 0)])


def test_repr_and_equal_graphs_hash_alike():
    G = c3()
    assert repr(G) == "MultiGraph(3, [(0, 1), (0, 2), (1, 2)])"
    H = MultiGraph(3, [(1, 2), (0, 1), (2, 0)])
    assert H == G and H is not G and hash(H) == hash(G) and len({G, H}) == 1
    assert G != MultiGraph(4, G.edges) and G != G.edges


def test_incident_lists_sorted_and_degrees():
    G = MultiGraph.from_text("4 4\n3 0\n0 1\n2 1\n2 3\n")
    for v in range(4):
        inc = G.incident(v)
        assert list(inc) == sorted(inc)
        assert G.degree(v) == len(inc)
    assert G.max_degree() == 2


def test_c3_subgraphs_containing_vertex():
    G = c3()
    subs = connected_edge_subgraphs(G, 0, 3)
    assert len(subs) == 6
    by_size = {}
    for s in subs:
        by_size.setdefault(len(s), []).append(s)
    assert len(by_size[1]) == 2
    assert len(by_size[2]) == 3
    assert len(by_size[3]) == 1


def test_enumerator_matches_brute_filter_on_corpus():
    rng = random.Random(MASTER_SEED + 1)
    for _ in range(25):
        G = random_graph(rng, max_edges=10, max_degree=4)
        for v in range(G.vertex_count):
            for m in range(1, G.edge_count + 1):
                fast = connected_edge_subgraphs(G, v, m)
                assert list(fast) == brute_connected_sets(G, v=v, max_edges=m)


def test_supersets_match_brute_filter():
    rng = random.Random(MASTER_SEED + 2)
    for _ in range(15):
        G = random_graph(rng, max_edges=8, max_degree=3)
        for e in range(G.edge_count):
            fast = connected_edge_supersets(G, e, G.edge_count)
            assert list(fast) == brute_connected_sets(G, anchor_edge=e)


def test_all_connected_sets_unique_and_complete():
    rng = random.Random(MASTER_SEED + 3)
    for _ in range(15):
        G = random_graph(rng, max_edges=9, max_degree=4)
        allsets = connected_edge_sets(G, G.edge_count)
        assert len(set(allsets)) == len(allsets)
        assert list(allsets) == brute_connected_sets(G)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_subgraph_count_bound(seed):
    # counts never exceed (e*Delta)^m / 2 for any anchor vertex
    G = random_graph(random.Random(seed), max_edges=10, max_degree=4)
    delta = max(1, G.max_degree())
    for v in range(G.vertex_count):
        for m in range(1, G.edge_count + 1):
            count = len(connected_edge_subgraphs(G, v, m))
            assert count <= (math.e * delta) ** m / 2


def test_connected_check():
    G = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_connected_edge_set(G, (0, 1))
    assert not is_connected_edge_set(G, (0, 2))
    assert is_connected_edge_set(G, (0,))
    with pytest.raises(ValueError):
        is_connected_edge_set(G, ())  # empty set has no connectivity status


def random_hypergraph(rng, max_edges=7, max_vertices=6):
    """Hyperedges of 1-3 distinct vertices; the same hyperedge may repeat."""
    n = rng.randint(1, max_vertices)
    m = rng.randint(1, max_edges)
    return Hypergraph(n, [rng.sample(range(n), rng.randint(1, min(3, n)))
                          for _ in range(m)])


def brute_connected_hyperedge_sets(H, max_edges):
    """Every nonempty set of at most max_edges hyperedges whose members are
    connected through shared vertices, shortlex."""
    out = []
    for size in range(1, max_edges + 1):
        for sub in itertools.combinations(range(H.edge_count), size):
            reached, verts = {sub[0]}, set(H.edges[sub[0]])
            grew = True
            while grew:
                grew = False
                for e in sub:
                    if e not in reached and verts & H.edges[e]:
                        reached.add(e)
                        verts |= H.edges[e]
                        grew = True
            if len(reached) == size:
                out.append(sub)
    return out


def _walk_trace(walk, G, seeds, max_edges, hook_counts):
    """Every visit (the stack) and hook call (the edge and the banned edges,
    ascending), in walk order.

    hook_counts is None for the default hook; otherwise the i-th hook call
    yields hook_counts[i % len(hook_counts)] times.
    """
    trace = []
    calls = [0]

    def visit(stack):
        trace.append(tuple(stack))

    def extend(e, banned):
        banned = sorted(banned) if isinstance(banned, set) else mask_vertices(banned)
        trace.append(("extend", e, tuple(banned)))
        calls[0] += 1
        return range(hook_counts[(calls[0] - 1) % len(hook_counts)])

    if hook_counts is None:
        walk(G, seeds, max_edges, visit)
    else:
        walk(G, seeds, max_edges, visit, extend)
    return trace


def test_grow_edge_sets_follows_reference_walk():
    # the bitmask walk visits the same stacks in the same order as the
    # vertex-set reference, and passes its hook the same banned edges, on
    # graphs and on hypergraphs, for every size cap, every seed kind and a
    # hook that yields 0, 1 or 2 times
    rng = random.Random(MASTER_SEED + 4)
    visits = banned_calls = 0
    for trial in range(240):
        if trial % 2:
            G = random_hypergraph(rng)
        else:
            G = random_graph(rng, max_edges=8, max_degree=4)
        seed_lists = [range(G.edge_count), [rng.randrange(G.edge_count)]]
        seed_lists += [G.incident(v) for v in range(G.vertex_count)]
        hooks = [None, [rng.choice((0, 1, 1, 1, 2)) for _ in range(rng.randint(1, 5))]]
        for max_edges in range(1, G.edge_count + 1):
            for seeds in seed_lists:
                for counts in hooks:
                    got = _walk_trace(grow_edge_sets, G, seeds, max_edges, counts)
                    want = _walk_trace(reference_grow, G, seeds, max_edges, counts)
                    assert got == want
                    visits += len(got)
                    banned_calls += sum(1 for t in got if t[0] == "extend" and t[2])
    assert visits > 10**5
    assert banned_calls > 10**4


def test_grow_edge_sets_walks_deeper_than_the_recursion_limit():
    # the sets of P1501 that hold its end edge are its 1,500 prefixes; the
    # walk nests 1,500 deep, bounded by max_edges and not by the interpreter
    P = MultiGraph(1501, [(i, i + 1) for i in range(1500)])
    sizes = []
    grow_edge_sets(P, [0], 1500, lambda stack: sizes.append(len(stack)))
    assert sizes == list(range(1, 1501))


def test_hypergraph_connected_sets_match_brute_force():
    rng = random.Random(MASTER_SEED + 5)
    for _ in range(60):
        H = random_hypergraph(rng)
        for k in range(1, H.edge_count + 1):
            assert connected_edge_sets(H, k) == brute_connected_hyperedge_sets(H, k)


def test_masks_equal_the_expressions_they_replace():
    rng = random.Random(MASTER_SEED + 12)
    for _ in range(60):
        for G in (random_graph(rng), random_hypergraph(rng)):
            # grow_edge_sets' and check_chain_conditions' inc
            assert G.incident_masks() == [sum(1 << e for e in G.incident(v))
                                          for v in range(G.vertex_count)]
            # alternating_cycle_polymers' masks, enumerate_vector_polymers' col_rows
            assert G.edge_masks() == [sum(1 << v for v in e) for e in G.edges]
            if isinstance(G, MultiGraph):  # walk_live's bits
                assert G.edge_masks() == [(1 << u) | (1 << v) for u, v in G.edges]
