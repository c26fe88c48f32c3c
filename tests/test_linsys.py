"""Linear-system solution counting and perfect-matching polynomials."""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holant.errors as errors
import holant.linsys as linsys_mod
from holant.cli import main
from holant.oracle import connected_edge_sets
from holant import (
    ConditionViolated,
    GateExceeded,
    Hypergraph,
    LinearSystem,
    MultiGraph,
    ParseError,
    brute_weighted_count,
    parse_matrix_file,
    parse_pm_file,
    pm_polynomial_graph,
    pm_polynomial_hypergraph,
    region_bounds,
    weighted_count,
)
from holant.linsys import (
    alternating_cycle_polymers,
    enumerate_vector_polymers,
    linsys_region,
    perfect_matchings,
    pm_region,
)

from helpers import MASTER_SEED, c4, k2, k4, random_graph, rel_close


def random_system(rng, n_max=4, m_max=5, cap_max=2, wmax=0.6):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    rows = [[rng.choice([-1, 0, 0, 1]) for _ in range(m)] for _ in range(n)]
    caps = [rng.randint(1, cap_max) for _ in range(m)]
    weights = [
        complex(rng.uniform(-wmax, wmax), rng.uniform(-wmax, wmax)) for _ in range(m)
    ]
    return LinearSystem(rows, caps, weights)


def brute_solutions(sys):
    """Every vector in the cap box with Ax = 0, as m-tuples."""
    out = []

    def rec(j, vec):
        if j == sys.m:
            if all(
                sum(row[t] * vec[t] for t in range(sys.m)) == 0 for row in sys.rows
            ):
                out.append(tuple(vec))
            return
        for x in range(sys.caps[j] + 1):
            vec.append(x)
            rec(j + 1, vec)
            vec.pop()

    rec(0, [])
    return out


# ---------------------------------------------------------------------------
# Hypergraphs


def test_hypergraph_basics():
    H = Hypergraph(4, [(0, 1), (1, 2, 3), (2, 3)])
    assert H.edge_count == 3
    assert H.edges[1] == frozenset({1, 2, 3})
    assert H.incident(2) == (1, 2)
    assert H.max_degree() == 2
    assert H.uniformity() is None
    assert Hypergraph(3, [(0, 1, 2)]).uniformity() == 3
    assert Hypergraph(0, []).max_degree() == 0


def test_hypergraph_validation():
    with pytest.raises(ValueError):
        Hypergraph(-1, [])
    with pytest.raises(ValueError):
        Hypergraph(3, [()])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    # a vertex listed twice is an error, not the smaller edge {0, 1}
    with pytest.raises(ValueError, match="vertex 0 repeated in hyperedge"):
        Hypergraph(3, [(0, 0, 1)])


def test_one_check_of_the_reference_matching():
    # both modes read M through linsys._mates and refuse a bad M alike
    H = Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5)])
    assert linsys_mod._mates(H, (0, 1)) == [0, 0, 0, 1, 1, 1]
    assert linsys_mod._mates(H, (3, 2)) == [2, 2, 3, 2, 3, 3]  # in any order
    for matching in ((0, 1), (2, 3)):
        for mode in ("polymer", "exact"):
            assert pm_polynomial_hypergraph(H, matching, 0.5, mode=mode) == 1 + 0.5**4
    bad = [
        ((0, 2), "matching edges overlap"),  # at 0, 1
        ((0,), "reference set is not a perfect matching"),  # leaves 3, 4, 5 uncovered
        ((0, 7), "matching edge id 7 out of range"),  # no edge 7
        ((-1, 0), "matching edge id -1 out of range"),  # ids do not wrap around
    ]
    for matching, words in bad:
        for mode in ("polymer", "exact"):
            with pytest.raises(ValueError, match=words):
                pm_polynomial_hypergraph(H, matching, 0.5, mode=mode)


def test_perfect_matchings_enumeration():
    two_triples = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    assert perfect_matchings(two_triples) == [(0, 1)]
    K4 = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert perfect_matchings(K4) == [(0, 5), (1, 4), (2, 3)]
    grid = Hypergraph(
        9,
        [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)],
    )
    assert perfect_matchings(grid) == [(0, 1, 2), (3, 4, 5)]


def test_perfect_matchings_gate():
    K4 = Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(GateExceeded):
        perfect_matchings(K4, gate=2)


def test_perfect_matchings_read_the_work_gate_at_call_time(monkeypatch):
    K4 = MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert len(perfect_matchings(K4)) == 3
    monkeypatch.setattr(errors, "WORK_GATE", 3)
    with pytest.raises(GateExceeded, match="exceeded 3 nodes"):
        perfect_matchings(K4)
    with pytest.raises(GateExceeded, match="exceeded 3 nodes"):
        pm_polynomial_graph(K4, [0, 5], 0.5, mode="exact")


def test_exact_mode_answers_on_c2400():
    # the cover search nests one level per matching edge, 1,200 on C2400,
    # past the interpreter's recursion limit for a recursive search
    n = 2400
    G = MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    M = [G.edges.index((i, i + 1)) for i in range(0, n, 2)]
    exact = pm_polynomial_graph(G, M, 0.1, mode="exact")
    assert exact == pm_polynomial_graph(G, M, 0.1) == 1 + 0j


def test_exact_mode_rejects_a_reference_set_that_is_not_a_perfect_matching():
    H = Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5)])
    assert pm_polynomial_hypergraph(H, (0, 1), 0.5, mode="exact") == 1 + 0.5**4
    for bad, words in (((0, 2), "matching edges overlap"),
                       ((0,), "reference set is not a perfect matching"),
                       ((0, 7), "matching edge id 7 out of range")):
        with pytest.raises(ValueError, match=words):
            pm_polynomial_hypergraph(H, bad, 0.5, mode="exact")


# ---------------------------------------------------------------------------
# Linear systems: structure


def test_system_validation():
    with pytest.raises(ValueError):
        LinearSystem([], [], [])
    with pytest.raises(ValueError):
        LinearSystem([[1, 0], [1]], [1, 1], [1, 1])
    with pytest.raises(ValueError):
        LinearSystem([[1, 0]], [1], [1, 1])
    with pytest.raises(ValueError):
        LinearSystem([[1, 0]], [1, 1], [1])
    with pytest.raises(ValueError):
        LinearSystem([[1, 0]], [1, 0], [1, 1])
    # caps and entries are ints: a float cap is not read as its floor, and a
    # string or a bool is not an integer
    for caps in ([1.5, 1], ["2", 1], [2.0, 1], [True, 1]):
        with pytest.raises(ValueError, match="caps must be integers"):
            LinearSystem([[1, -1]], caps, [1, 1])
    for row in ([1.5, -1], [1, "-1"], [True, -1], [1.0, -1]):
        with pytest.raises(ValueError, match="matrix entries must be integers"):
            LinearSystem([row], [1, 1], [1, 1])
    sys = LinearSystem([[1, -1]], (2, 1), [0.5, 1])
    assert sys.caps == [2, 1] and sys.weights == [0.5 + 0j, 1 + 0j]


def test_supports_and_live_columns():
    sys = LinearSystem([[1, -1, 0], [0, 1, -1]], [1, 1, 1], [1, 1, 1])
    assert sys.n == 2 and sys.m == 3
    assert sys.columns == [((0, 1),), ((0, -1), (1, 1)), ((1, -1),)]
    assert [sys.hypergraph.degree(i) for i in range(sys.n)] == [2, 2]
    assert sys.live == [0, 1, 2]
    rep = linsys_region(sys)
    assert (rep.params["r"], rep.params["c"]) == (2, 2)
    padded = LinearSystem([[1, 0, -1, 0]], [1, 1, 1, 1], [1, 1, 1, 1])
    assert padded.live == [0, 2]
    assert padded.columns[1] == padded.columns[3] == ()
    rep = linsys_region(padded)
    assert (rep.params["r"], rep.params["c"]) == (2, 1)


def test_build_hypergraph():
    sys = LinearSystem([[1, -1, 0], [0, 1, -1]], [1, 1, 1], [1, 1, 1])
    H = sys.hypergraph
    assert H.vertex_count == 2
    assert H.edges == (frozenset({0}), frozenset({0, 1}), frozenset({1}))
    # all-zero columns contribute no hyperedge; hyperedge t is column live[t]
    padded = LinearSystem([[1, 0, -1], [0, 0, 2]], [1, 1, 1], [1, 1, 1])
    assert padded.live == [0, 2]
    assert padded.hypergraph.edges == (frozenset({0}), frozenset({0, 1}))


def test_vector_polymer_weight():
    # the solutions of x0 = x1 with caps 2 are (0,0), (1,1) and (2,2), each
    # one polymer weighted w0^x0 * w1^x1
    sys = LinearSystem([[1, -1]], [2, 2], [2, 3j])
    assert [p.values for p in enumerate_vector_polymers(sys)] == [((0, 1), (1, 1)),
                                                                  ((0, 2), (1, 2))]
    rep = weighted_count(sys)
    assert rep.value == 1 + 2 * 3j + 2**2 * (3j) ** 2 == -35 + 6j


# ---------------------------------------------------------------------------
# Linear systems: polymer enumeration


def test_single_difference_equation():
    sys = LinearSystem([[1, -1]], [1, 1], [1, 1])
    pool = enumerate_vector_polymers(sys)
    assert len(pool) == 1
    assert pool[0].values == ((0, 1), (1, 1))
    assert pool[0].rmask == 0b1


def test_chain_equation_single_polymer():
    # x0 = x1 = x2 over {0,1}: the only nonzero solution is all-ones,
    # and its support is connected through the shared middle column.
    sys = LinearSystem([[1, -1, 0], [0, 1, -1]], [1, 1, 1], [1, 1, 1])
    pool = enumerate_vector_polymers(sys)
    assert [p.values for p in pool] == [((0, 1), (1, 1), (2, 1))]
    assert pool[0].rmask == 0b11


def test_caps_give_scaled_copies():
    sys = LinearSystem([[1, -1]], [2, 2], [1, 1])
    pool = enumerate_vector_polymers(sys)
    assert [p.values for p in pool] == [((0, 1), (1, 1)), ((0, 2), (1, 2))]


def test_non_unit_coefficients():
    sys = LinearSystem([[2, -1]], [2, 2], [0.5, 0.5])
    pool = enumerate_vector_polymers(sys)
    assert [p.values for p in pool] == [((0, 1), (1, 2))]
    rep = weighted_count(sys)
    assert rel_close(rep.value, 1 + 0.5 * 0.5**2)


def test_no_singleton_supports():
    # a single live column can never carry a nonzero solution over the
    # integers, so every polymer spans at least two columns
    rng = random.Random(MASTER_SEED + 31)
    for _ in range(25):
        sys = random_system(rng)
        for p in enumerate_vector_polymers(sys):
            assert len(p.values) >= 2


def test_pool_is_sorted_and_unique():
    rng = random.Random(MASTER_SEED + 32)
    for _ in range(10):
        sys = random_system(rng)
        pool = enumerate_vector_polymers(sys)
        keys = [(len(p.values), p.values) for p in pool]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_support_box_gate(monkeypatch):
    # the production search checks each support's box against the work gate,
    # the reference sweep the whole box against its own gate
    monkeypatch.setattr(errors, "WORK_GATE", 100)
    monkeypatch.setattr(linsys_mod, "SUPPORT_BOX_GATE", 100)
    sys = LinearSystem([[1, -1]], [30, 30], [0.1, 0.1])
    with pytest.raises(GateExceeded, match="900 candidate vectors"):
        enumerate_vector_polymers(sys)
    with pytest.raises(GateExceeded):
        brute_weighted_count(sys)


def test_family_visit_gate(monkeypatch):
    monkeypatch.setattr(errors, "WORK_GATE", 3)
    sys = LinearSystem([[1, -1, 0, 0], [0, 0, 1, -1]], [1] * 4, [0.5] * 4)
    with pytest.raises(GateExceeded):
        weighted_count(sys)


# ---------------------------------------------------------------------------
# Linear systems: weighted counts


def test_weighted_count_single_equation():
    w1, w2 = 0.3 + 0.1j, -0.4
    rep = weighted_count(LinearSystem([[1, -1]], [1, 1], [w1, w2]))
    assert rel_close(rep.value, 1 + w1 * w2)
    assert rep.polymer_count == 1
    assert rep.dropped_columns == []


def test_weighted_count_block_diagonal():
    w = [0.2, 0.5, -0.3, 0.25]
    rep = weighted_count(
        LinearSystem([[1, -1, 0, 0], [0, 0, 1, -1]], [1] * 4, w)
    )
    assert rel_close(rep.value, (1 + w[0] * w[1]) * (1 + w[2] * w[3]))


def test_all_zero_columns_factor_out():
    sys = LinearSystem([[0, 0]], [2, 3], [0.5, 0.25])
    rep = weighted_count(sys)
    assert rep.dropped_columns == [0, 1]
    assert rep.polymer_count == 0
    expected = (1 + 0.5 + 0.25) * (1 + 0.25 + 0.25**2 + 0.25**3)
    assert rel_close(rep.value, expected)


def test_mixed_live_and_dropped():
    sys = LinearSystem([[1, -1, 0]], [1, 1, 2], [0.5, 0.5, 0.1])
    rep = weighted_count(sys)
    assert rep.dropped_columns == [2]
    assert rel_close(rep.value, (1 + 0.25) * (1 + 0.1 + 0.01))


def test_inconsistent_live_system_counts_only_zero():
    # x0 + x1 = 0 has no nonzero solution in the positive box
    rep = weighted_count(LinearSystem([[1, 1]], [2, 2], [0.5, 0.5]))
    assert rep.polymer_count == 0
    assert rel_close(rep.value, 1.0)


def test_weighted_count_matches_brute():
    rng = random.Random(MASTER_SEED + 33)
    for _ in range(30):
        sys = random_system(rng)
        rep = weighted_count(sys)
        assert rel_close(rep.value, brute_weighted_count(sys))
        assert rep.family_count >= 1
        assert rep.polymer_count == len(enumerate_vector_polymers(sys))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.integers(-1, 1), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    ),
    caps=st.lists(st.integers(1, 2), min_size=3, max_size=3),
    ws=st.lists(st.floats(-0.9, 0.9), min_size=3, max_size=3),
)
def test_weighted_count_matches_brute_hypothesis(rows, caps, ws):
    sys = LinearSystem(rows, caps, ws)
    assert rel_close(weighted_count(sys).value, brute_weighted_count(sys), 1e-9)


def test_families_biject_with_solutions():
    rng = random.Random(MASTER_SEED + 34)
    checked = 0
    for _ in range(20):
        sys = random_system(rng)
        pool = enumerate_vector_polymers(sys)
        dropped = set(range(sys.m)) - set(sys.live)
        got = []

        def rec(start, occupied, vec):
            got.append(tuple(vec))
            for t in range(start, len(pool)):
                p = pool[t]
                if p.rmask & occupied == 0:
                    for j, x in p.values:
                        vec[j] = x
                    rec(t + 1, occupied | p.rmask, vec)
                    for j, _ in p.values:
                        vec[j] = 0

        rec(0, 0, [0] * sys.m)
        expected = [
            v for v in brute_solutions(sys) if all(v[j] == 0 for j in dropped)
        ]
        assert sorted(got) == sorted(expected)
        assert len(set(got)) == len(got)
        checked += len(got)
    assert checked > 20


def test_polymer_counts_per_column():
    # polymers with support size i through a fixed column are at most
    # (e r c)^(i-1)/2 * kappa^i: connected hyperedge sets times cap choices
    rng = random.Random(MASTER_SEED + 35)
    for _ in range(20):
        sys = random_system(rng)
        pool = enumerate_vector_polymers(sys)
        if not pool:
            continue
        H = sys.hypergraph
        r, c = H.max_degree(), max(map(len, H.edges))
        kap = max(sys.caps)
        for j in sys.live:
            by_size = {}
            for p in pool:
                if j in (k for k, _ in p.values):
                    i = len(p.values)
                    by_size[i] = by_size.get(i, 0) + 1
            for i, cnt in by_size.items():
                assert cnt <= (math.e * r * c) ** (i - 1) / 2 * kap**i


def test_linsys_region_report():
    sys = LinearSystem([[1, -1]], [1, 1], [0.05, 0.05])
    rep = linsys_region(sys)
    direct = region_bounds("linsys", r=2, c=1, kappa=1)
    assert rep.bound == direct.bound
    assert rep.values["simple"] == direct.values["simple"]
    with pytest.raises(ValueError):
        linsys_region(LinearSystem([[1]], [1], [0.5]))


# ---------------------------------------------------------------------------
# Perfect-matching polynomials: hypergraphs


def test_pm_two_disjoint_triples():
    H = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    for z in (0.0, 0.3, 0.5 + 0.2j):
        assert pm_polynomial_hypergraph(H, (0, 1), z) == 1


def test_pm_hypergraph_two_matchings():
    H = Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5)])
    z = 0.3 + 0.1j
    assert rel_close(pm_polynomial_hypergraph(H, (0, 1), z), 1 + z**4)
    assert rel_close(pm_polynomial_hypergraph(H, (2, 3), z), 1 + z**4)


def test_pm_grid_hypergraph():
    H = Hypergraph(
        9,
        [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)],
    )
    z = 0.4
    assert rel_close(pm_polynomial_hypergraph(H, (0, 1, 2), z), 1 + z**6)


def test_pm_hypergraph_validation():
    H = Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5)])
    with pytest.raises(ValueError):
        pm_polynomial_hypergraph(H, (0, 2), 0.5)
    with pytest.raises(ValueError):
        pm_polynomial_hypergraph(H, (0, 1), 0.5, mode="nope")
    mixed = Hypergraph(5, [(0, 1), (2, 3, 4)])
    with pytest.raises(ValueError, match="region bound needs a uniform hypergraph"):
        pm_region(mixed)


def test_pm_hypergraph_bound_mode():
    two = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
    rep = pm_region(two)
    assert rep.family == "hyper-pm"
    assert rel_close(rep.bound, 1 / (3 * math.e))
    dense = Hypergraph(
        9,
        [
            (0, 1, 2), (3, 4, 5), (6, 7, 8),
            (0, 3, 6), (1, 4, 7), (2, 5, 8),
            (0, 4, 8),
        ],
    )
    rep = pm_region(dense)
    assert rel_close(rep.bound, 1 / (5 * math.e))


# ---------------------------------------------------------------------------
# Perfect-matching polynomials: graphs


def test_alternating_cycles_c4():
    G = c4()
    pool = alternating_cycle_polymers(G, (0, 3))
    assert len(pool) == 1
    cyc, vmask = pool[0]
    assert cyc == (0, 1, 2, 3)
    assert vmask == 0b1111


def test_alternating_cycles_k4():
    pool = alternating_cycle_polymers(k4(), (0, 5))
    assert [c for c, _ in pool] == [(0, 2, 3, 5), (0, 1, 4, 5)] or [
        c for c, _ in pool
    ] == [(0, 1, 4, 5), (0, 2, 3, 5)]
    assert all(m == 0b1111 for _, m in pool)


def test_alternating_cycles_single_edge():
    assert alternating_cycle_polymers(k2(), (0,)) == []
    assert pm_polynomial_graph(k2(), (0,), 0.7) == 1


def test_pm_graph_c4_and_k4():
    z = 0.35 - 0.1j
    assert rel_close(pm_polynomial_graph(c4(), (0, 3), z), 1 + z**4)
    assert rel_close(pm_polynomial_graph(c4(), (1, 2), z), 1 + z**4)
    assert rel_close(pm_polynomial_graph(k4(), (0, 5), z), 1 + 2 * z**4)
    assert rel_close(pm_polynomial_graph(k4(), (0, 5), z, mode="exact"), 1 + 2 * z**4)


def test_results_past_float_range_raise_condition_violated():
    # z^4 = 1e800 on the alternating 4-cycle, z^2 on the two parallel edges,
    # w^2 = 1e400 on the solution (1, 1) and on a dropped column with cap 2
    nan = "result evaluates to (nan+nanj), outside float range: no value"
    overflow = "complex exponentiation, outside float range: no value"
    cases = [
        (lambda: pm_polynomial_graph(c4(), (0, 3), 1e200), nan),
        (lambda: pm_polynomial_hypergraph(Hypergraph(2, [(0, 1), (0, 1)]), (0,), 1e200),
         overflow),
        (lambda: weighted_count(LinearSystem([[1, -1]], [1, 1], [1e200, 1e200])), nan),
        (lambda: weighted_count(LinearSystem([[1, -1]], [2, 2], [1e200, 1e200])), overflow),
        (lambda: weighted_count(LinearSystem([[1, 0]], [1, 2], [0.5, 1e200])), overflow),
    ]
    for call, message in cases:
        with pytest.raises(ConditionViolated) as info:
            call()
        assert str(info.value) == message
    # large but finite values still come back
    assert rel_close(pm_polynomial_graph(c4(), (0, 3), 1e50), 1e200)
    assert rel_close(weighted_count(LinearSystem([[1, -1]], [1, 1], [1e100, 1e100])).value,
                     1e200)


def test_pm_graph_matching_validation():
    with pytest.raises(ValueError):
        alternating_cycle_polymers(k4(), (0, 1))  # edges share vertex 0
    with pytest.raises(ValueError):
        alternating_cycle_polymers(c4(), (0,))  # leaves 2,3 uncovered
    with pytest.raises(ValueError):
        pm_polynomial_graph(c4(), (0, 3), 0.5, mode="nope")


def test_pm_graph_bound_mode():
    rep = pm_region(k4())
    assert rep.family == "graph-pm"
    assert rel_close(rep.bound, region_bounds("graph-pm", delta=3).bound)
    with pytest.raises(ValueError, match="unknown mode 'bound'"):
        pm_polynomial_graph(k4(), (0, 5), 0.0, mode="bound")


def planted_matching_graph(rng, pairs, extra):
    """2*pairs vertices matched (2i, 2i+1) plus random extra edges."""
    n = 2 * pairs
    edges = [(2 * i, 2 * i + 1) for i in range(pairs)]
    seen = set(edges)
    deg = [1] * n
    for _ in range(200):
        if len(edges) - pairs == extra:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or deg[u] >= 4 or deg[v] >= 4:
            continue
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
        edges.append(key)
    G = MultiGraph(n, edges)
    matching = tuple(G.edges.index((2 * i, 2 * i + 1)) for i in range(pairs))
    return G, matching


def test_pm_graph_polymer_matches_exact():
    rng = random.Random(MASTER_SEED + 36)
    for _ in range(12):
        G, matching = planted_matching_graph(
            rng, rng.randint(2, 5), rng.randint(0, 5)
        )
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        poly = pm_polynomial_graph(G, matching, z)
        exact = pm_polynomial_graph(G, matching, z, mode="exact")
        assert rel_close(poly, exact)


def test_graph_routes_are_the_hypergraph_routes_on_a_copy():
    # a MultiGraph is the 2-uniform Hypergraph: the same matchings, and
    # pm_polynomial_graph bit for bit the hypergraph route on a copy of G
    rng = random.Random(MASTER_SEED + 48)
    for _ in range(40):
        G, matching = planted_matching_graph(rng, rng.randint(1, 5), rng.randint(0, 6))
        H = Hypergraph(G.vertex_count, G.edges)
        assert perfect_matchings(G) == perfect_matchings(H)
        z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        for mode in ("polymer", "exact"):
            assert repr(pm_polynomial_graph(G, matching, z, mode)) == \
                repr(pm_polynomial_hypergraph(H, matching, z, mode))
    for _ in range(40):  # mostly graphs without a perfect matching
        G = random_graph(rng, max_edges=9, max_degree=4)
        assert perfect_matchings(G) == perfect_matchings(Hypergraph(G.vertex_count, G.edges))


def planted_matching_hypergraph(rng, blocks, extra):
    """Vertices split into M-edges of sizes 1-3, plus `extra` random edges of
    sizes 1-3, some of them repeats of an edge already there; labels
    shuffled. Returns (H, matching)."""
    sizes = [rng.randint(1, 3) for _ in range(blocks)]
    n = sum(sizes)
    label = list(range(n))
    rng.shuffle(label)
    edges, start = [], 0
    for k in sizes:
        edges.append([label[v] for v in range(start, start + k)])
        start += k
    for _ in range(extra):
        if rng.random() < 0.2:
            edges.append(list(rng.choice(edges)))
        else:
            edges.append(rng.sample(range(n), rng.randint(1, min(3, n))))
    order = list(range(len(edges)))
    rng.shuffle(order)
    H = Hypergraph(n, [edges[i] for i in order])
    return H, tuple(sorted(order.index(i) for i in range(blocks)))


def connected_differences(H, matching):
    """(sorted ids, vertex mask) of every connected component of M xor M'
    over the perfect matchings M' of H (a graph or a hypergraph), from the
    exhaustive search."""
    masks = [sum(1 << v for v in e) for e in H.edges]
    out = set()
    for other in perfect_matchings(H):
        diff = set(matching) ^ set(other)
        while diff:
            comp, vmask = set(), 0
            grow = [diff.pop()]
            while grow:
                e = grow.pop()
                comp.add(e)
                vmask |= masks[e]
                hit = [f for f in diff if masks[f] & vmask]
                diff.difference_update(hit)
                grow += hit
            out.add((tuple(sorted(comp)), vmask))
    return out


def test_alternating_polymers_are_the_connected_differences():
    rng = random.Random(MASTER_SEED + 38)
    cases = [planted_matching_graph(rng, rng.randint(2, 6), rng.randint(0, 8))
             for _ in range(40)]
    cases += [planted_matching_hypergraph(rng, rng.randint(1, 6), rng.randint(0, 9))
              for _ in range(120)]
    for H, matching in cases:
        pool = alternating_cycle_polymers(H, matching)
        assert pool == sorted(set(pool), key=lambda p: (len(p[0]), p[0]))
        assert set(pool) == connected_differences(H, matching)


def test_pm_hypergraph_polymer_matches_exact():
    rng = random.Random(MASTER_SEED + 39)
    for _ in range(60):
        H, matching = planted_matching_hypergraph(rng, rng.randint(1, 6), rng.randint(0, 9))
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        poly = pm_polynomial_hypergraph(H, matching, z)
        exact = pm_polynomial_hypergraph(H, matching, z, mode="exact")
        assert abs(poly - exact) <= 1e-9 * abs(exact)


def test_alternating_polymers_check_the_matching():
    H = Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5)])
    for bad in [(0, 7), (0, -1), (0, 0, 1), (0, 2), (0,)]:
        with pytest.raises(ValueError):
            alternating_cycle_polymers(H, bad)


def test_alternating_cycle_neighbour_counts():
    # cycles of length i incompatible with a fixed polymer never exceed
    # |V(polymer)| * (Delta-1)^(i-1)
    rng = random.Random(MASTER_SEED + 37)
    cases = [(c4(), (0, 3)), (k4(), (0, 5))]
    for _ in range(8):
        cases.append(planted_matching_graph(rng, rng.randint(3, 5), rng.randint(2, 6)))
    for G, matching in cases:
        pool = alternating_cycle_polymers(G, matching)
        delta = G.max_degree()
        for cyc, mask in pool:
            nv = bin(mask).count("1")
            by_size = {}
            for cyc2, mask2 in pool:
                if mask & mask2:
                    by_size[len(cyc2)] = by_size.get(len(cyc2), 0) + 1
            for i, cnt in by_size.items():
                assert cnt <= nv * (delta - 1) ** (i - 1)


# ---------------------------------------------------------------------------
# File formats


MATRIX_TEXT = """\
# two coupled differences, one free column
2 3
1 -1 0
0 1 -1
caps: 1 2 1
weights: 0.5 0.0 0.25 -0.1 0.5 0.0
"""


def test_parse_matrix_file():
    sys = parse_matrix_file(MATRIX_TEXT)
    assert sys.n == 2 and sys.m == 3
    assert sys.rows == [[1, -1, 0], [0, 1, -1]]
    assert sys.caps == [1, 2, 1]
    assert sys.weights == [0.5 + 0j, 0.25 - 0.1j, 0.5 + 0j]
    assert rel_close(weighted_count(sys).value, brute_weighted_count(sys))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 -1\n",
        "a b\n1 -1\n",
        "1 2\n1 -1\n",  # missing caps/weights lines
        "1 2\n1 -1 0\ncaps: 1 1\nweights: 1 0 1 0\n",  # row too long
        "1 2\n1 -1\nlimits: 1 1\nweights: 1 0 1 0\n",
        "1 2\n1 -1\ncaps: 1 1\nweights: 1 0 1\n",
        "1 2\n1 -1\ncaps: 1\nweights: 1 0 1 0\n",
        "1 2\n1 -1\ncaps: 1 0\nweights: 1 0 1 0\n",  # cap below 1
        "1 2\n1 x\ncaps: 1 1\nweights: 1 0 1 0\n",  # bad row
        "1 2\n1 -1\ncaps: 1 1\nw: 1 0 1 0\n",  # no weights line
        "1 2\n1 -1\ncaps: 1 x\nweights: 1 0 1 0\n",  # bad caps line
        "1 2\n1 -1\ncaps: 1 1\nweights: 1 0 x 0\n",  # bad weights line
    ],
)
def test_parse_matrix_file_errors(text):
    with pytest.raises(ParseError):
        parse_matrix_file(text)


def test_parse_matrix_file_rejects_lines_past_the_weights():
    # the header promises n rows; a stray row after weights is an error, as
    # an extra edge line is in a graph or pm file
    with pytest.raises(ParseError, match="header promises 2 rows plus caps and weights "
                       "lines, file has 5 lines"):
        parse_matrix_file(MATRIX_TEXT + "1 0 -1\n")


GRAPH_PM_TEXT = """\
4 4
0 1
1 2
2 3
0 3
matching: 0 3
"""

HYPER_PM_TEXT = """\
6 4
0 1 2
3 4 5
0 1 3
2 4 5
matching: 0 1
"""


def test_parse_pm_file_graph():
    G, matching, kind = parse_pm_file(GRAPH_PM_TEXT)
    assert kind == "graph"
    assert isinstance(G, MultiGraph)
    assert matching == (0, 3)
    assert rel_close(pm_polynomial_graph(G, matching, 0.5), 1 + 0.5**4)


def test_parse_pm_file_hyper():
    H, matching, kind = parse_pm_file(HYPER_PM_TEXT)
    assert kind == "hyper"
    assert isinstance(H, Hypergraph)
    assert rel_close(pm_polynomial_hypergraph(H, matching, 0.5), 1 + 0.5**4)


def test_parse_pm_file_mixed_sizes_is_hyper():
    text = "5 2\n0 1\n2 3 4\nmatching: 0 1\n"
    H, matching, kind = parse_pm_file(text)
    assert kind == "hyper"
    assert H.uniformity() is None


@pytest.mark.parametrize(
    "text",
    [
        "",
        "4 1\n0 1\n",  # no matching line
        "4 1\n0 1\nmatching: x\n",
        "4 2\n0 1\nmatching: 0\n",  # header promises 2 edges
        "2 1\n0 0\nmatching: 0\n",  # loop rejected by graph validation
        "3 2\n0 0 1\n2\nmatching: 0 1\n",  # vertex 0 twice in one hyperedge
        "4\n0 1\nmatching: 0\n",
        "matching: 0\n",  # no header line at all
        "# note\nmatching: 1\n",
        "4 4\n0 1\n1 2\n2 3\n0 3\nmatching: 0 99\n",  # no edge 99
        "4 4\n0 1\n1 2\n2 3\n0 3\nmatching: 0 -1\n",  # -1 is not edge 3
    ],
)
def test_parse_pm_file_errors(text):
    with pytest.raises(ParseError):
        parse_pm_file(text)


def test_family_count_is_the_number_of_box_solutions():
    # one compatible family per solution on the live columns; each dropped
    # column multiplies the box solutions by cap_j + 1
    rng = random.Random(MASTER_SEED + 47)
    for _ in range(30):
        sys = random_system(rng)
        rep = weighted_count(sys)
        per_dropped = math.prod(sys.caps[j] + 1 for j in rep.dropped_columns)
        assert rep.family_count * per_dropped == len(brute_solutions(sys))


def test_family_count_is_exact_past_float_precision():
    # 40 disjoint directed 2-cycles with caps 2: x_a = x_b in {0, 1, 2} on
    # each, so 3**40 families, which a float count would round
    k = 40
    rows = [[0] * (2 * k) for _ in range(2 * k)]
    for c in range(k):
        a, b = 2 * c, 2 * c + 1  # the rows of the cycle's two vertices
        rows[a][a], rows[b][a] = 1, -1  # arc a -> b
        rows[b][b], rows[a][b] = 1, -1  # arc b -> a
    rep = weighted_count(LinearSystem(rows, [2] * (2 * k), [0.05] * (2 * k)))
    assert rep.polymer_count == 2 * k
    assert rep.family_count == 3**40 == 12157665459056928801
    assert type(rep.family_count) is int
    assert float(rep.family_count) != rep.family_count


def test_empty_pools_still_give_complex_values():
    # no nonzero solution and no alternating cycle: the family sum is the
    # integer 1, and the reports stay complex
    rep = weighted_count(LinearSystem([[1]], [1], [0.5]))
    assert (rep.polymer_count, rep.family_count) == (0, 1)
    assert type(rep.value) is complex and rep.value == 1
    K2 = MultiGraph(2, [(0, 1)])
    for value in (pm_polynomial_graph(K2, [0], 0.5),
                  pm_polynomial_hypergraph(Hypergraph(2, [(0, 1)]), [0], 0.5)):
        assert type(value) is complex and value == 1


def test_pm_family_gate(monkeypatch):
    G = MultiGraph(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
    matching = tuple(G.edges.index((i, i + 1)) for i in (0, 2, 4, 6))
    assert rel_close(pm_polynomial_graph(G, matching, 0.5),
                     pm_polynomial_graph(G, matching, 0.5, mode="exact"))
    monkeypatch.setattr(errors, "WORK_GATE", 3)
    with pytest.raises(GateExceeded):
        pm_polynomial_graph(G, matching, 0.5)
    with pytest.raises(GateExceeded, match="alternating-walk steps"):
        alternating_cycle_polymers(G, matching)


def test_pm_walk_on_a_long_cycle_is_linear(monkeypatch):
    # with alternate edges matched, every root but vertex 0 has only moves
    # that pull in a vertex below it, so the walk follows one path of n / 2
    # steps from vertex 0 instead of one path per root (about n^2 / 8 steps)
    n = 2000
    G = MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    matching = tuple(G.edges.index((i, i + 1)) for i in range(0, n, 2))
    monkeypatch.setattr(errors, "WORK_GATE", 2000)
    pool = alternating_cycle_polymers(G, matching)
    assert pool == [(tuple(range(n)), (1 << n) - 1)]


# ---------------------------------------------------------------------------
# Linear systems: the pruned vector-polymer search


def circulation(n, chords):
    """Flow conservation on the directed n-cycle plus chord arcs (rows are
    vertices, columns are arcs; u -> v has +1 in row u and -1 in row v)."""
    arcs = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    rows = [[0] * len(arcs) for _ in range(n)]
    for j, (u, v) in enumerate(arcs):
        rows[u][j] = 1
        rows[v][j] = -1
    return rows


def write_matrix(path, sys):
    """Write sys as a `linsys --matrix` file (real weights) and return path."""
    path.write_text(
        f"{sys.n} {sys.m}\n"
        + "".join(" ".join(map(str, row)) + "\n" for row in sys.rows)
        + "caps: " + " ".join(map(str, sys.caps)) + "\n"
        + "weights: " + " ".join(f"{w.real!r} 0.0" for w in sys.weights) + "\n"
    )
    return path


def reference_pool(sys):
    """(sorted values, rmask) of every nonzero box solution whose support is
    connected through shared rows, from the brute-force solution list."""
    col_rows = [
        sum(1 << i for i in range(sys.n) if sys.rows[i][j] != 0)
        for j in range(sys.m)
    ]
    out = []
    for vec in brute_solutions(sys):
        support = [j for j in range(sys.m) if vec[j]]
        if not support or any(col_rows[j] == 0 for j in support):
            continue
        reached, rmask = {support[0]}, col_rows[support[0]]
        grew = True
        while grew:
            grew = False
            for j in support:
                if j not in reached and col_rows[j] & rmask:
                    reached.add(j)
                    rmask |= col_rows[j]
                    grew = True
        if len(reached) == len(support):
            out.append((tuple((j, vec[j]) for j in support), rmask))
    return sorted(out)


def test_pool_matches_brute_reference():
    rng = random.Random(MASTER_SEED + 48)
    cases = [
        # 7-cycle circulation with one chord
        LinearSystem(circulation(7, [(0, 3)]), [2] * 8, [0.5] * 8),
        # row 1 meets only column 1 on the support {0, 1}
        LinearSystem([[1, -1, 0], [0, 2, -1]], [2, 1, 3], [0.5] * 3),
        # non-unit coefficients throughout
        LinearSystem([[2, -1, -1], [1, 1, -2]], [3, 3, 3], [0.5] * 3),
    ]
    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(2, 5)
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)]
        caps = [rng.randint(1, 3) for _ in range(m)]
        cases.append(LinearSystem(rows, caps, [0.5] * m))
    # mixed-sign, non-unit coefficients, every other system with a row of one
    # sign, which the walk's sign rule cuts on: the pruned pool is still exact
    for trial in range(300):
        n, m = rng.randint(1, 3), rng.randint(3, 6)
        rows = [[rng.choice((0, 0, -2, -1, 1, 2, 3)) for _ in range(m)] for _ in range(n)]
        if trial % 2:
            one = rng.randrange(n)
            rows[one] = [abs(a) for a in rows[one]]
        caps = [rng.randint(1, 3) for _ in range(m)]
        cases.append(LinearSystem(rows, caps, [0.5] * m))
    found = 0
    for sys in cases:
        pool = enumerate_vector_polymers(sys)
        got = sorted((tuple(sorted(p.values)), p.rmask) for p in pool)
        assert got == reference_pool(sys)
        keys = [(len(p.values), p.values) for p in pool]
        assert keys == sorted(keys)
        found += len(pool)
    assert found > 300


def test_box_gate_fires_before_the_one_column_prune(monkeypatch):
    # on the support {0, 1}, row 1 meets only column 1, so the support holds
    # no polymer; its box of 900 is still over the gate
    monkeypatch.setattr(errors, "WORK_GATE", 100)
    sys = LinearSystem([[1, -1], [0, 1]], [30, 30], [0.1, 0.1])
    with pytest.raises(GateExceeded):
        enumerate_vector_polymers(sys)


def test_sixteen_cycle_with_chord_closed_form():
    # circulations a * C16 + b * (chord cycle 0 -> 8 -> ... -> 15 -> 0) with
    # caps 2 on every arc: (a, b) in {(1,0), (2,0), (0,1), (0,2), (1,1)},
    # all pairwise incompatible
    w = 0.3 - 0.2j
    sys = LinearSystem(circulation(16, [(0, 8)]), [2] * 17, [w] * 17)
    rep = weighted_count(sys)
    assert rep.polymer_count == 5
    expected = 1 + w**9 + w**16 + w**18 + w**25 + w**32
    assert abs(rep.value - expected) <= 1e-12


def test_support_count_gate(monkeypatch, tmp_path, capsys):
    # the directed 8-cycle with chords 0 -> 4 and 4 -> 0 has many connected
    # column supports but few polymers; the walk cuts a support once some
    # touched row can no longer get a column of each sign, and charges each
    # support it visits its size and each polymer its number of values, to
    # one count
    sys = LinearSystem(circulation(8, [(0, 4), (4, 0)]), [1] * 10, [0.5] * 10)
    supports = connected_edge_sets(sys.hypergraph, sys.m)
    visited, grow = [], linsys_mod.grow_edge_sets

    def counting(G, seeds, max_edges, visit, extend):
        return grow(G, seeds, max_edges,
                    lambda stack: visited.append(len(stack)) or visit(stack), extend)

    monkeypatch.setattr(linsys_mod, "grow_edge_sets", counting)
    work = sum(len(p.values) for p in enumerate_vector_polymers(sys))
    monkeypatch.setattr(linsys_mod, "grow_edge_sets", grow)
    work += sum(visited)
    assert len(supports) > 100
    assert 0 < len(visited) < len(supports)
    monkeypatch.setattr(errors, "WORK_GATE", work)
    pool = enumerate_vector_polymers(sys)
    assert sorted((tuple(sorted(p.values)), p.rmask) for p in pool) == reference_pool(sys)
    monkeypatch.setattr(errors, "WORK_GATE", work - 1)
    with pytest.raises(GateExceeded, match=f"^{work} units of edge-set walk exceed gate"):
        enumerate_vector_polymers(sys)
    matrix = write_matrix(tmp_path / "chorded.txt", sys)
    assert main(["linsys", "--matrix", str(matrix)]) == 4
    assert "units of edge-set walk" in capsys.readouterr().err
    monkeypatch.setattr(errors, "WORK_GATE", work)
    assert main(["linsys", "--matrix", str(matrix)]) == 0
    capsys.readouterr()


def chorded_cycle_circulations(n, chords, w):
    """Sum of w^(sum x) over the 0/1 circulations of the directed n-cycle
    plus chord arcs. Each chord subset S fixes the cycle arcs up to one
    shift c: arc i -> i + 1 carries c - (net outflow of S over vertices
    0..i), and each shift that keeps every arc in {0, 1} is one solution."""
    total = 0j
    for k in range(2 ** len(chords)):
        chosen = [uv for b, uv in enumerate(chords) if k >> b & 1]
        net = [0] * n
        for u, v in chosen:
            net[u] += 1
            net[v] -= 1
        g = [-sum(net[: i + 1]) for i in range(n)]
        for c in range(-max(g), 2 - min(g)):
            arcs = [c + gi for gi in g]
            if all(x in (0, 1) for x in arcs):
                total += w ** (sum(arcs) + len(chosen))
    return total


def test_chorded_cycles_answer_fast(tmp_path, capsys):
    # the directed 24-cycle with chords 0 -> 8, 8 -> 16, 16 -> 0 has 218,372
    # connected column supports but 9 polymers, and the 30-cycle with four
    # chords has more supports than the work gate allows; the sign rule cuts
    # both walks down to a few hundred supports
    sys = LinearSystem(circulation(24, [(0, 8), (8, 16), (16, 0)]), [1] * 27, [0.05] * 27)
    assert len(enumerate_vector_polymers(sys)) == 9
    chords = [(0, 10), (10, 20), (20, 0), (5, 25)]
    matrix = write_matrix(tmp_path / "cycle30.txt",
                          LinearSystem(circulation(30, chords), [1] * 34, [0.05] * 34))
    t0 = time.perf_counter()
    assert main(["linsys", "--matrix", str(matrix), "--format", "json"]) == 0
    assert time.perf_counter() - t0 < 1.0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["polymer_count"] == 12
    assert rel_close(complex(*result["value"]), chorded_cycle_circulations(30, chords, 0.05))
