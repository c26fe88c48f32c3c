"""The vertex-disjoint family kernel against the brute-force family sum."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import holant.errors as errors
from holant import (
    GateExceeded,
    Hypergraph,
    MultiGraph,
    approx_polynomial_report,
    brute_polymer_z,
    uniform_assignment,
)
from holant.expansion import log_z_coefficients
from holant.linsys import alternating_cycle_polymers
from holant.oracle import enumerate_polymers
from holant.families import family_sum
from holant.graph import bfs_order, mask_vertices

from helpers import MASTER_SEED, half_bound_z, live_pool, rel_close


def cycle(n, label=None):
    label = label or list(range(n))
    return MultiGraph(n, [(label[i], label[(i + 1) % n]) for i in range(n)])


def along(order):
    """The path through order: its BFS order is order or its reverse, so the
    kernel walks the vertices in that order."""
    return Hypergraph(len(order), list(zip(order, order[1:])))


def random_items(rng, n, count):
    items = []
    for _ in range(count):
        verts = rng.sample(range(n), rng.randint(1, min(3, n)))
        mask = sum(1 << v for v in verts)
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        items.append((mask, rng.randint(1, 3), w))
    return items


def brute(items, x=1.0, ones=False):
    pols = [SimpleNamespace(vmask=m) for m, _, _ in items]
    return brute_polymer_z(pols, [1.0 if ones else w * x**s for _, s, w in items])


def relabel(items, perm):
    return [(sum(1 << perm[v] for v in mask_vertices(m)), s, w) for m, s, w in items]


def polynomial(coeffs, x):
    return sum(c * x**j for j, c in enumerate(coeffs))


def brute_series(items, cap):
    """c_0..c_cap over every subset of the items whose masks are disjoint."""
    c = [0] * (cap + 1)
    for subset in range(1 << len(items)):
        cover, size, w = 0, 0, 1
        for i, (mask, s, weight) in enumerate(items):
            if subset >> i & 1:
                if cover & mask:
                    break
                cover, size, w = cover | mask, size + s, w * weight
        else:
            if size <= cap:
                c[size] += w
    return c


def test_family_sum_matches_brute_on_random_pools():
    rng = random.Random(MASTER_SEED + 71)
    for trial in range(40):
        n = rng.randint(1, 9) if trial % 4 else rng.randint(64, 100)
        items = random_items(rng, n, rng.randint(0, 12))
        total = sum(s for _, s, _ in items)
        x = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ref, ref_count = brute(items, x), brute(items, ones=True)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            moved = relabel(items, perm)
            order = list(range(n))
            rng.shuffle(order)
            path = along(order)
            fam, _ = family_sum(moved, path, cap=total)
            assert rel_close(polynomial(fam, x), ref, 1e-9)
            # the same sum at unit int weights counts the families exactly
            count, _ = family_sum([(m, 0, 1) for m, _, _ in moved], path)
            assert count == (round(ref_count.real),) and type(count[0]) is int
            # truncation keeps the low coefficients and drops nothing else
            cap = rng.randint(0, total)
            low, _ = family_sum(moved, path, cap=cap)
            assert len(low) == cap + 1
            for a, b in zip(low, fam):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_family_sum_on_a_64_plus_vertex_graph():
    # vertex masks wider than 64 bits, under relabellings of the cycle
    rng = random.Random(MASTER_SEED + 72)
    n = 80
    for _ in range(4):
        label = list(range(n))
        rng.shuffle(label)
        G = cycle(n, label)
        pool = rng.sample(enumerate_polymers(G, 1, 3), 14)
        weights = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in pool]
        cap = sum(p.size for p in pool)
        items = [(p.vmask, p.size, w) for p, w in zip(pool, weights)]
        fam, _ = family_sum(items, G, cap)
        assert rel_close(sum(fam), brute_polymer_z(pool, weights), 1e-9)
        assert max(p.vmask for p in pool).bit_length() > 64


def test_cap_zero_number_equals_the_series_c0_bit_for_bit():
    # at cap 0 the kernel carries c_0 as a number, at cap 1 as the first
    # term of a series; both do the same float operations in the same order
    rng = random.Random(MASTER_SEED + 79)
    for trial in range(60):
        n = rng.randint(1, 10) if trial % 4 else rng.randint(64, 80)
        items = [(m, 0, w) for m, _, w in random_items(rng, n, rng.randint(0, 14))]
        path = along(rng.sample(range(n), n))
        (number,), transitions = family_sum(items, path, 0)
        series, series_transitions = family_sum(items, path, 1)
        assert number == series[0] and repr(number) == repr(series[0])
        assert transitions == series_transitions
        # complex weights give a complex sum; the empty pool the integer 1
        assert type(number) is (complex if items else int)


def test_fraction_weights_give_exact_coefficients():
    rng = random.Random(MASTER_SEED + 74)
    for _ in range(40):
        n = rng.randint(1, 8)
        items = [(m, s, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                 for m, s, _ in random_items(rng, n, rng.randint(1, 9))]
        cap = rng.randint(1, 6)
        fam, _ = family_sum(items, along(rng.sample(range(n), n)), cap)
        assert list(fam) == brute_series(items, cap)
        assert all(type(c) in (int, Fraction) for c in fam)


def test_the_cap_prunes_moves_and_keeps_the_low_terms():
    # at cap = total size no move passes the cap, so nothing is pruned; a
    # lower cap skips the moves that would make all-zero series. Weights
    # with small integer parts keep the float sums exact, so the terms
    # compare equal whatever order the live terms are added in
    rng = random.Random(MASTER_SEED + 77)
    fewer = 0
    for _ in range(60):
        n = rng.randint(2, 9)
        cap = rng.randint(1, 3)
        items = [(m, rng.randint(1, cap), complex(rng.randint(-3, 3), rng.randint(-3, 3)))
                 for m, _, _ in random_items(rng, n, rng.randint(1, 12))]
        total = max(cap, sum(s for _, s, _ in items))
        path = along(rng.sample(range(n), n))
        full, full_transitions = family_sum(items, path, total)
        low, transitions = family_sum(items, path, cap)
        assert low == full[:cap + 1]
        assert transitions <= full_transitions
        fewer += transitions < full_transitions
        exact = [(m, s, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for m, s, _ in items]
        assert list(family_sum(exact, path, cap)[0]) == brute_series(exact, cap)
    assert fewer


def test_cap_zero_gate_is_checked_on_every_path(monkeypatch):
    # the pm items of the 4x4 grid with its rows matched in pairs; the kernel
    # checks its charge after every state, a dropped vertex included
    k = 4
    G = MultiGraph(k * k, [(k * r + c, k * r + c + 1) for r in range(k) for c in range(k - 1)]
                   + [(k * r + c, k * r + c + k) for r in range(k - 1) for c in range(k)])
    M = [G.edges.index((k * r + c, k * r + c + 1)) for r in range(k) for c in range(0, k, 2)]
    items = [(mask, 0, 0.1 ** len(ids)) for ids, mask in alternating_cycle_polymers(G, M)]
    result, transitions = family_sum(items, G)
    assert transitions > len(items)
    monkeypatch.setattr(errors, "WORK_GATE", transitions)
    assert family_sum(items, G) == (result, transitions)
    monkeypatch.setattr(errors, "WORK_GATE", transitions - 1)
    with pytest.raises(GateExceeded, match=f"^{transitions} family-kernel series terms"):
        family_sum(items, G)


def test_an_empty_pool_sums_to_the_integer_one():
    for cap in range(4):
        fam, transitions = family_sum([], along([2, 0, 1]), cap)
        assert fam == (1,) + (0,) * cap and transitions == 0
        assert all(type(c) is int for c in fam)
    # an item past the cap is left out, so the pool is empty
    assert family_sum([(0b11, 2, 0.5j)], along([0, 1]), 1) == ((1, 0), 0)


def test_family_sum_rejects_an_empty_mask():
    with pytest.raises(ValueError, match="nonempty vertex mask"):
        family_sum([(0, 0, 1.0)], along([0]))


def test_bfs_order_is_a_permutation():
    # a path, an isolated vertex and a hyperedge component
    order = bfs_order(9, [(0, 3), (3, 1), (1, 4), {5, 6, 7}])
    assert sorted(order) == list(range(9))
    # the path starts at one of its ends
    path = [v for v in order if v in (0, 1, 3, 4)]
    assert path in ([0, 3, 1, 4], [4, 1, 3, 0])


def test_the_kernel_walks_a_path_from_one_end():
    # the tests above pass along(order) to test the kernel in that order
    rng = random.Random(MASTER_SEED + 75)
    for _ in range(200):
        order = rng.sample(range(n := rng.randint(1, 90)), n)
        assert bfs_order(n, along(order).edges) in (order, order[::-1])


def test_expansion_family_gate(monkeypatch):
    # each transition adds a series of cap + 1 = 9 terms; the walk under the
    # kernel charges only the 8 live single edges
    G = cycle(8)
    a = uniform_assignment(G, "matching")
    z = half_bound_z(G, a)
    terms = 9 * log_z_coefficients(G, a, z, 8).family_states
    assert terms > 8
    monkeypatch.setattr(errors, "WORK_GATE", terms)
    log_z_coefficients(G, a, z, 8)
    monkeypatch.setattr(errors, "WORK_GATE", terms - 1)
    with pytest.raises(GateExceeded, match="family-kernel series terms"):
        log_z_coefficients(G, a, z, 8)
    monkeypatch.setattr(errors, "WORK_GATE", 7)
    with pytest.raises(GateExceeded, match="^8 units of edge-set walk"):
        live_pool(G, a, z, 8)


def test_approx_on_c200_matching_within_eps_of_closed_form():
    n, eps = 200, 0.1
    states = set()
    rng = random.Random(MASTER_SEED + 73)
    for _ in range(2):
        label = list(range(n))
        rng.shuffle(label)
        G = cycle(n, label)
        a = uniform_assignment(G, "matching")
        z = half_bound_z(G, a)
        rep = approx_polynomial_report(G, a, z, eps)
        t = z[1].real
        exact = sum(n / (n - k) * math.comb(n - k, k) * t**k for k in range(n // 2 + 1))
        assert abs(rep.value / exact - 1) <= eps
        states.add(rep.family_states)
    # the BFS order makes the kernel's work independent of the labelling
    assert len(states) == 1
    assert 0 < states.pop() < 20 * n
