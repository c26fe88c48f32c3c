import cmath
import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from holant import (
    ConditionViolated,
    MultiGraph,
    RegionViolation,
    approx_polynomial_report,
    approx_problem_report,
    brute_holant,
    brute_polymer_z,
    make_signature,
    region_bounds,
    uniform_assignment,
    SignatureAssignment,
)
from holant.expansion import (
    family_poly_coefficients,
    log_z_coefficients,
    series_log,
    truncation_order,
)
from holant.oracle import (
    Cluster,
    cluster_log_coefficients,
    enumerate_clusters,
    enumerate_polymers,
    ursell,
    weight_map,
)
from holant.polymers import holant_prefactor, incompatible
from holant.signatures import even_parity_signature, matching_signature

from helpers import (
    MASTER_SEED,
    c3,
    corpus,
    half_bound_z,
    k2,
    random_graph,
    rel_close,
    star,
)


def brute_ursell(k, edges):
    """Independent reference: sum over spanning connected edge subsets."""
    edges = [tuple(e) for e in edges]

    def connected(sub):
        if k == 1:
            return True
        adj = {i: set() for i in range(k)}
        for u, v in sub:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        todo = [0]
        while todo:
            x = todo.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return len(seen) == k

    total = 0
    for size in range(len(edges) + 1):
        for sub in itertools.combinations(edges, size):
            if connected(sub):
                total += (-1) ** size
    return total


def all_labelled_graphs(k):
    pairs = list(itertools.combinations(range(k), 2))
    for bits in range(2 ** len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


def test_ursell_spot_values():
    assert ursell(1, []) == 1
    assert ursell(2, [(0, 1)]) == -1
    assert ursell(3, [(0, 1), (1, 2), (0, 2)]) == 2


def test_ursell_rejects_disconnected():
    with pytest.raises(ValueError):
        ursell(3, [(0, 1)])
    with pytest.raises(ValueError):
        ursell(4, [(0, 1), (2, 3)])


def test_ursell_complete_graphs():
    for j in range(1, 8):
        edges = list(itertools.combinations(range(j), 2))
        assert ursell(j, edges) == (-1) ** (j - 1) * math.factorial(j - 1)


def test_ursell_matches_brute_force_small():
    for k in range(1, 5):
        for edges in all_labelled_graphs(k):
            if k > 1:
                try:
                    val = ursell(k, edges)
                except ValueError:
                    continue  # disconnected
            else:
                val = ursell(k, edges)
            assert val == brute_ursell(k, edges)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_ursell_matches_brute_force_random_6(seed):
    rng = random.Random(seed)
    k = 6
    pairs = list(itertools.combinations(range(k), 2))
    # random connected graph on 6 nodes: spanning path + extras
    edges = {(i, i + 1) for i in range(k - 1)}
    for p in pairs:
        if rng.random() < 0.3:
            edges.add(p)
    edges = sorted(edges)
    assert ursell(k, edges) == brute_ursell(k, edges)


def brute_clusters(polymers, max_total):
    """Reference: filter all multisets with connected incompatibility graph."""
    out = []
    n = len(polymers)
    max_mult = max_total
    for support_size in range(1, n + 1):
        for support in itertools.combinations(range(n), support_size):
            for mults in itertools.product(range(1, max_mult + 1), repeat=support_size):
                total = sum(
                    m * polymers[i].size for i, m in zip(support, mults)
                )
                if total > max_total:
                    continue
                # connectivity of the copy-expanded incompatibility graph
                nodes = []
                for i, m in zip(support, mults):
                    nodes.extend([i] * m)
                adj = {a: set() for a in range(len(nodes))}
                for a in range(len(nodes)):
                    for b in range(a + 1, len(nodes)):
                        if nodes[a] == nodes[b] or incompatible(
                            polymers[nodes[a]], polymers[nodes[b]]
                        ):
                            adj[a].add(b)
                            adj[b].add(a)
                seen = {0}
                todo = [0]
                while todo:
                    x = todo.pop()
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            todo.append(y)
                if len(seen) == len(nodes):
                    out.append((support, mults, total))
    return out


def test_enumerate_clusters_k2():
    G = k2()
    pols = enumerate_polymers(G, 1, 1)
    assert len(pols) == 1
    assert len(enumerate_clusters(pols, 1)) == 1
    cl = enumerate_clusters(pols, 2)
    assert len(cl) == 2  # {gamma} and {gamma x2}: reflexive incompatibility
    mults = sorted(c.mults for c in cl)
    assert mults == [(1,), (2,)]


def test_enumerate_clusters_c3_count():
    G = c3()
    pols = enumerate_polymers(G, 1, 3)
    cl = enumerate_clusters(pols, 2)
    assert len(cl) == 12  # 3 + (3 doubled + 3 pairs + 3 two-edge polymers)


def test_enumerate_clusters_matches_brute_filter():
    rng = random.Random(MASTER_SEED + 12)
    for _ in range(6):
        G = random_graph(rng, max_edges=4)
        pols = enumerate_polymers(G, 1, G.edge_count)
        if len(pols) > 5:
            pols = pols[:5]
        fast = enumerate_clusters(pols, 4)
        ref = brute_clusters(pols, 4)
        # supports come back in discovery order, so canonicalise the pairs
        fast_keys = sorted(
            tuple(sorted(zip((pols.index(p) for p in c.polymers), c.mults)))
            for c in fast
        )
        ref_keys = sorted(tuple(sorted(zip(s, m))) for s, m, _ in ref)
        assert fast_keys == ref_keys


def test_cluster_ursell_value_doubled_polymer():
    # {gamma x2} expands to K2 -> ursell -1, weight w^2/2! -> coefficient -1/2
    G = k2()
    pols = enumerate_polymers(G, 1, 1)
    cl = [c for c in enumerate_clusters(pols, 2) if c.total_size == 2]
    assert len(cl) == 1
    assert cl[0].ursell_value == -1
    w = {pols[0]: 0.3 + 0j}
    assert rel_close(cl[0].weight(w), -0.3 ** 2 / 2)


def test_log_coefficients_k2_log1p():
    G = k2()
    a = uniform_assignment(G, "matching")
    t = 0.17
    series = log_z_coefficients(G, a, (1.0, t), 3)
    coef = series.coefficients
    assert rel_close(coef[0], t)
    assert rel_close(coef[1], -t ** 2 / 2)
    assert rel_close(coef[2], t ** 3 / 3)


def test_c3_series_matches_oracle():
    G = c3()
    a = uniform_assignment(G, "matching")
    t = 0.05
    series = log_z_coefficients(G, a, (1.0, t), 6)
    val = holant_prefactor(G, a, (1.0, t)) * cmath.exp(sum(series.coefficients))
    assert abs(val - (1 + 3 * t)) <= 1e-6


def test_methods_agree_and_pool_enlargement_stable():
    rng = random.Random(MASTER_SEED + 13)
    for _ in range(8):
        G, assign = corpus(1, seed=rng.randrange(10**9), max_edges=6)[0]
        z = half_bound_z(G, assign)
        m = 6
        pool = enumerate_polymers(G, assign.kappa, min(m, G.edge_count))
        wmap = weight_map(G, assign, z, pool)
        live = [p for p in pool if wmap[p] != 0]
        s1 = cluster_log_coefficients(enumerate_clusters(live, m), wmap, m)
        s2 = log_z_coefficients(G, assign, z, m)
        for a1, a2 in zip(s1, s2.coefficients):
            assert abs(a1 - a2) <= 1e-10 * max(1.0, abs(a1))
        # enlarging the polymer pool beyond total size m changes nothing
        pols_small = enumerate_polymers(G, assign.kappa, min(3, G.edge_count))
        pols_full = enumerate_polymers(G, assign.kappa, G.edge_count)
        wm_small = weight_map(G, assign, z, pols_small)
        wm_full = weight_map(G, assign, z, pols_full)
        c_small = cluster_log_coefficients(
            enumerate_clusters(pols_small, 3), wm_small, 3
        )
        c_full = cluster_log_coefficients(
            enumerate_clusters(pols_full, 3), wm_full, 3
        )
        for a1, a2 in zip(c_small, c_full):
            assert abs(a1 - a2) <= 1e-12 * max(1.0, abs(a1))


def test_series_error_decreases_to_zero():
    rng = random.Random(MASTER_SEED + 14)
    for _ in range(5):
        G, assign = corpus(1, seed=rng.randrange(10**9), max_edges=5)[0]
        z = half_bound_z(G, assign, frac=0.25)
        pols = enumerate_polymers(G, assign.kappa, G.edge_count)
        wm = weight_map(G, assign, z, pols)
        target = brute_polymer_z(pols, wm)
        series = log_z_coefficients(G, assign, z, 40)

        def err(m):
            return abs(cmath.exp(sum(series.coefficients[:m])) - target)

        assert err(40) <= 1e-9 * max(1.0, abs(target))
        assert err(40) <= err(12) + 1e-15
        assert err(12) <= err(3) + 1e-15


def test_family_poly_coefficients_are_exact_polynomial():
    G = c3()
    a = uniform_assignment(G, "matching")
    t = 0.3
    pols = enumerate_polymers(G, 1, 3)
    wm = weight_map(G, a, (1.0, t), pols)
    c = family_poly_coefficients(pols, [wm[p] for p in pols], G.edge_count)
    # Z(x) = sum_j c_j x^j must hit the brute polymer Z at x=1
    assert rel_close(sum(c), brute_polymer_z(pols, wm))
    assert rel_close(c[0], 1.0)


def test_series_log_inverts_exp():
    # exponentiate a known log-series with the standard forward recurrence,
    # then recover it
    a = [0.0, 0.3 - 0.1j, -0.05, 0.007 + 0.2j, 0.0004]
    m = 4
    c = [1.0 + 0j] + [0j] * m
    for j in range(1, m + 1):
        c[j] = sum(k * a[k] * c[j - k] for k in range(1, j + 1)) / j
    got = series_log(c, m)
    for j in range(1, m + 1):
        assert abs(got[j - 1] - a[j]) < 1e-12
    with pytest.raises(ValueError):
        series_log([2.0, 1.0], 1)  # requires c0 = 1


def test_truncation_order_values():
    assert truncation_order(6, 0.05, 0.5) == math.ceil(2 * math.log(120))
    assert truncation_order(6, 0.05, 0.5) == 10
    assert truncation_order(10, 0.1, 0.99) == 461
    assert truncation_order(1, 0.9, 0.0) == 1
    with pytest.raises(RegionViolation):
        truncation_order(5, 0.1, 1.0)
    with pytest.raises(RegionViolation):
        truncation_order(5, 0.1, 1.7)


def test_approx_c3_example():
    G = c3()
    a = uniform_assignment(G, "matching")
    val = approx_polynomial_report(G, a, (1.0, 0.01), 0.01).value
    assert abs(val / 1.03 - 1) <= 0.01


def test_approx_k2_example():
    G = k2()
    a = uniform_assignment(G, "matching")
    val = approx_polynomial_report(G, a, (1.0, 0.02), 1e-3).value
    assert abs(val / 1.02 - 1) <= 1e-3


def test_approx_edgeless_graph():
    G = MultiGraph(3, [])
    sigs = [make_signature([2.0], 0, 1)] * 3
    a = SignatureAssignment(G, sigs)
    rep = approx_polynomial_report(G, a, (1.0, 0.1), 0.01)
    assert rel_close(rep.value, 8.0)


def test_approx_boundary_rejected_force_overrides():
    G = c3()
    a = uniform_assignment(G, "matching")
    b = region_bounds("holant-poly", delta=2, kappa=1, r1=1.0).bound
    with pytest.raises(RegionViolation):
        approx_polynomial_report(G, a, (1.0, b), 0.01)  # q = 1 exactly


def _cycle_matching(n):
    G = MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    return G, uniform_assignment(G, "matching")


def test_approx_long_cycles_raise_instead_of_a_wrong_value():
    # C_n matching at half the region bound against the closed form
    # log Z = n ln l1 + ln(1 + (l2/l1)^n), l = (1 +- sqrt(1 + 4 t)) / 2. At
    # n = 1500 the float64 series log is off by 0.14 in log Z (> eps), and at
    # n = 3000 it evaluates to 0j; both break |a_j| <= |E| / (j q^j)
    eps = 0.1
    for n in (1000, 1500, 3000):
        G, a = _cycle_matching(n)
        z = half_bound_z(G, a)
        if n == 1000:
            r = math.sqrt(1 + 4 * z[1].real)
            l1, l2 = (1 + r) / 2, (1 - r) / 2
            log_z = n * math.log(l1) + math.log1p((l2 / l1) ** n)
            rep = approx_polynomial_report(G, a, z, eps)
            assert abs(rep.value / math.exp(log_z) - 1) <= eps
        else:
            with pytest.raises(ConditionViolated, match="exceeds the zero-free bound"):
                approx_polynomial_report(G, a, z, eps)


def test_approx_raises_when_the_value_leaves_float_range():
    # matching tables scaled by 1e-200 or 1e200 on C3: the prefactor
    # prod f(0) = 1e-600 or 1e600 underflows to 0 or overflows
    G = c3()
    for scale in (1e-200, 1e200):
        sig = make_signature([scale, scale, scale, 0.0], 2, 1)
        a = SignatureAssignment(G, [sig] * 3)
        with pytest.raises(ConditionViolated, match="outside float range"):
            approx_polynomial_report(G, a, (1.0, 0.01), 0.1)


def test_problem_threshold_and_flat_instances():
    rep = region_bounds("holant-problem", delta=2, kappa=1)
    assert rep.bound == pytest.approx(0.055782540037107455, rel=1e-9)
    G = c3()
    s = rep.bound / 2
    sig = make_signature([1.0] + [s] * 3, 2, 1)
    a = SignatureAssignment(G, [sig] * 3)
    exact = brute_holant(G, a, (1.0, 1.0)).value
    rep2 = approx_problem_report(G, a, 0.05)
    assert abs(rep2.value / exact - 1) <= 0.05
    assert rep2.q == pytest.approx(math.sqrt(2), rel=1e-12)


def test_problem_r_zero_returns_prefactor():
    G = k2()
    a = SignatureAssignment(G, [make_signature([2.0, 0.0], 1, 1)] * 2)
    val = approx_problem_report(G, a, 0.01).value
    assert rel_close(val, 4.0)


def test_problem_star_example_is_outside_region():
    # even-parity centre keeps r(F) = 1 (any even tuple has full weight), so
    # the all-ones point sits outside the certified region and must be refused.
    G = star(3)
    centre = even_parity_signature(3, 0.01)
    leaf = matching_signature(1)
    a = SignatureAssignment(G, [centre, leaf, leaf, leaf])
    assert a.ratio_r_class() == 1.0
    with pytest.raises(RegionViolation):
        approx_problem_report(G, a, 0.01)


def test_fptas_report_fields():
    G = c3()
    a = uniform_assignment(G, "matching")
    rep = approx_polynomial_report(G, a, (1.0, 0.01), 0.01)
    assert rep.theorem == "fugacity"
    assert rep.q > 1
    assert rep.order >= 1
    assert rep.pool_size > 0


def _grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return MultiGraph(rows * cols, edges)


def _matching_polynomial(G, lam):
    """sum over matchings M of lam^|M|, memoised over masks of unmatched vertices."""
    nbrs = [[u + v - x for u, v in (G.endpoints(e) for e in G.incident(x))]
            for x in range(G.vertex_count)]

    @functools.lru_cache(maxsize=None)
    def rest(mask):
        if not mask:
            return 1.0
        low = mask & -mask
        v = low.bit_length() - 1
        total = rest(mask ^ low)
        for w in nbrs[v]:
            if mask >> w & 1:
                total += lam * rest(mask ^ low ^ (1 << w))
        return total

    value = rest((1 << G.vertex_count) - 1)
    rest.cache_clear()
    return value


def test_grid_matching_pool_is_the_live_single_edges():
    eps = 0.1
    G = _grid(4, 4)
    a = uniform_assignment(G, "matching")
    z = half_bound_z(G, a)
    rep = approx_polynomial_report(G, a, z, eps)
    ref = _matching_polynomial(G, (z[1] / z[0]).real)
    assert abs(rep.value / ref - 1) <= eps
    assert rep.pool_size == 24
    G = _grid(8, 8)
    a = uniform_assignment(G, "matching")
    assert approx_polynomial_report(G, a, half_bound_z(G, a), eps).pool_size == 112
