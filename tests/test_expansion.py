import cmath
import functools
import itertools
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from holant import (
    ConditionViolated,
    GateExceeded,
    InvalidFugacity,
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
from holant import expansion
from holant.expansion import (
    TaylorSeries,
    certified_order,
    log_z_coefficients,
    series_log,
    truncation_remainder,
)
from holant.families import family_sum
from holant.oracle import (
    Cluster,
    cluster_log_coefficients,
    enumerate_clusters,
    enumerate_polymers,
    truncation_order,
    ursell,
    weight_map,
)
from holant.polymers import holant_prefactor
from holant.signatures import even_parity_signature, matching_signature

from helpers import (
    MASTER_SEED,
    c3,
    corpus,
    flat_problem_assignment,
    half_bound_z,
    k2,
    live_pool,
    random_graph,
    reference_series_log,
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
                        if nodes[a] == nodes[b] or (
                            polymers[nodes[a]].vmask & polymers[nodes[b]].vmask
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


def test_log_coefficients_reject_a_negative_order_and_vanish_with_one_colour():
    G = c3()
    with pytest.raises(ValueError, match="m must be >= 0"):
        log_z_coefficients(G, uniform_assignment(G, "matching"), (1.0, 0.1), -1)
    one_colour = SignatureAssignment(G, [make_signature([2.0], 2, 0)] * G.vertex_count)
    assert log_z_coefficients(G, one_colour, (1.0,), 3) == TaylorSeries((0j, 0j, 0j), 0)


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


def test_family_sum_is_exact_polynomial():
    G = c3()
    a = uniform_assignment(G, "matching")
    t = 0.3
    pols = enumerate_polymers(G, 1, 3)
    wm = weight_map(G, a, (1.0, t), pols)
    c, _ = family_sum([(p.vmask, p.size, wm[p]) for p in pols], G, G.edge_count)
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


def _bits(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


def test_series_log_matches_the_full_loop_bitwise():
    rng = random.Random(MASTER_SEED + 16)
    for _ in range(60):
        length = rng.randint(1, 9)
        scale = rng.uniform(0.05, 0.6)
        c = [1.0 + 0j] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale**j
                          for j in range(1, length)]
        for m in sorted({1, max(1, length - 2), length + 2, 20 * length + 40}):
            assert _bits(series_log(c, m)) == _bits(reference_series_log(c, m))


def test_truncation_remainder_values():
    assert truncation_remainder(6, 10, 0.0) == 0.0
    assert rel_close(truncation_remainder(6, 10, 0.5), 6 * 0.5**11 / (11 * 0.5), 1e-12)
    assert rel_close(truncation_remainder(1, 0, 0.9), 0.9 / 0.1, 1e-12)
    # r^{m+1} = 2^-1075 alone underflows to 0; the remainder does not
    assert 0.0 < truncation_remainder(10**4, 1074, 0.5) < 1e-300
    assert truncation_remainder(10**4, 10**9, 0.5) == 0.0
    with pytest.raises(RegionViolation):
        truncation_remainder(5, 3, 1.0)
    with pytest.raises(RegionViolation):
        truncation_remainder(5, 3, math.nan)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        truncation_remainder(0, 3, 0.5)
    with pytest.raises(ValueError, match="m must be >= 0"):
        truncation_remainder(5, -1, 0.5)


ORDER_DEGREES = (1, 2, 3, 10, 100, 1000, 10**4)
ORDER_EPS = (1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0)
ORDER_RATIOS = (0.0, 0.01, 0.1, 0.25, 0.5, 0.6, 0.75, 0.9, 0.99, 0.999)


def test_certified_order_is_the_smallest_certified_order():
    for d, eps, r in itertools.product(ORDER_DEGREES, ORDER_EPS, ORDER_RATIOS):
        m = certified_order(d, eps, r)
        target = math.log1p(eps)
        assert m >= 1
        assert truncation_remainder(d, m, r) <= target
        if m > 1:
            assert truncation_remainder(d, m - 1, r) > target, (d, eps, r)
        if r <= 0.5 and eps <= 1:
            assert m <= truncation_order(d, eps, r), (d, eps, r)


def test_certified_order_just_inside_the_radius_is_fast():
    r = 1 - 1e-12
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        m = certified_order(10, 0.1, r)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.01
    assert truncation_remainder(10, m, r) <= math.log1p(0.1) < truncation_remainder(10, m - 1, r)


def test_series_log_is_charged_before_the_walk():
    # just inside the region bound the certified order m grows like
    # 1/(1 - |z|/bound); series_log's m * (min(m, |E|) + 1) multiply-adds
    # are charged up front, before anything of size m is built
    G = MultiGraph(10, [(i, (i + 1) % 10) for i in range(10)])
    a = uniform_assignment(G, "matching")
    bound = region_bounds("holant-poly", delta=2, kappa=1, r1=1.0).bound
    t0 = time.perf_counter()
    with pytest.raises(GateExceeded, match="series-log terms exceed gate"):
        approx_polynomial_report(G, a, (1.0, (1 - 1e-12) * bound), 0.1)
    assert time.perf_counter() - t0 < 1.0
    assert approx_polynomial_report(G, a, (1.0, 0.99999 * bound), 0.1).order == 342274
    # the one-colour branch builds m zeros, so it is charged too
    one_colour = SignatureAssignment(G, [make_signature([2.0], 2, 0)] * G.vertex_count)
    with pytest.raises(GateExceeded, match="series-log terms"):
        log_z_coefficients(G, one_colour, (1.0,), 10**12)


def test_orders_reject_bad_eps_and_ratio():
    for eps in (0.0, -1.0, math.nan, math.inf):
        for fn in (certified_order, truncation_order):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                fn(5, eps, 0.5)
    for r in (1.0, 1.5, -0.1, math.nan):
        with pytest.raises(RegionViolation):
            certified_order(5, 0.1, r)


def test_reported_remainder_bounds_the_true_log_error():
    # the tier-1 corpus at half the bound, and the flat problem instances
    cases = [(G, a, half_bound_z(G, a)) for G, a in corpus(200)]
    rng = random.Random(MASTER_SEED + 102)
    for _ in range(60):
        G = random_graph(rng, max_edges=8, max_degree=3)
        cases.append((G, flat_problem_assignment(G, kappa=1, scale=0.5), None))
    for G, a, z in cases:
        exact = brute_holant(G, a, z or (1.0, 1.0)).value
        for eps in (0.1, 0.01):
            if z is None:
                rep = approx_problem_report(G, a, eps)
            else:
                rep = approx_polynomial_report(G, a, z, eps)
            assert rep.remainder <= math.log1p(eps)
            assert abs(cmath.log(rep.value / exact)) <= rep.remainder + 1e-12


def test_report_carries_the_remainder_at_its_certified_order():
    G = c3()
    a = uniform_assignment(G, "matching")
    # a fugacity far inside the region certifies m = 1, where there is no decay
    rep = approx_polynomial_report(G, a, (1.0, 1e-9), 1e-6)
    assert rep.order == 1
    assert rep.remainder == truncation_remainder(3, 1, 1 / rep.q)
    assert rep.remainder <= math.log1p(1e-6)
    assert rep.decay is None
    assert rep.last_coefficient == abs(rep.coefficients[0])
    z = half_bound_z(G, a)
    full = approx_polynomial_report(G, a, z, 1e-6)
    assert full.order == certified_order(3, 1e-6, 1 / full.q)
    assert full.remainder <= math.log1p(1e-6)
    assert full.decay == abs(full.coefficients[-1]) / abs(full.coefficients[-2])


def test_approx_q_is_the_bound_over_the_worst_ratio():
    # the fugacity entry point divides its region bound by max |z_i|/|z_0|;
    # a ratio that is zero, or underflows to zero, leaves q infinite
    G = c3()
    a = uniform_assignment(G, "matching")
    b = region_bounds("holant-poly", delta=2, kappa=1, r1=1.0).bound
    rep = approx_polynomial_report(G, a, (1.0, 0.5 * b), 0.1)
    assert (rep.q, rep.region_bound) == (b / (0.5 * b), b)
    assert rep.q == pytest.approx(2.0, rel=1e-12)
    assert math.isinf(approx_polynomial_report(G, a, (1.0, 0.0), 0.1).q)
    H = k2()
    assert math.isinf(approx_polynomial_report(H, uniform_assignment(H, "matching"),
                                               (1e200, 1e-200), 0.1).q)
    with pytest.raises(RegionViolation, match=r"\(q = 1 <= 1\)"):
        approx_polynomial_report(G, a, (1.0, b), 0.1)


def test_approx_problem_q_is_the_scaled_threshold():
    # the problem entry point takes q = (threshold / r(F))^(1/Delta), and
    # infinite q when r(F) = 0
    for G, delta in ((c3(), 2), (star(3), 3)):
        thr = region_bounds("holant-problem", delta=delta, kappa=1).bound
        rep = approx_problem_report(G, flat_problem_assignment(G, scale=0.5), 0.1)
        assert (rep.q, rep.region_bound) == ((thr / (0.5 * thr)) ** (1.0 / delta), thr)
        assert rep.q == pytest.approx(2 ** (1 / delta), rel=1e-12)
        zero = flat_problem_assignment(G, scale=0.0)
        assert math.isinf(approx_problem_report(G, zero, 0.1).q)


def test_series_log_high_order_is_linear_in_the_order():
    # the series log touches only the len(c) coefficients of the polynomial,
    # so order 100000 of C3 matching at z_1 = 0.01, Z(x) = 1 + 0.03 x, stays
    # within a 5 s budget
    c = (1 + 0j, 0.03 + 0j, 0j, 0j)
    t0 = time.perf_counter()
    a = series_log(c, 100000)
    assert time.perf_counter() - t0 < 5.0
    assert len(a) == 100000
    assert rel_close(cmath.exp(sum(a, 0j)), 1.03, 1e-12)


def test_approx_rejects_non_finite_eps_and_fugacities():
    G = c3()
    a = uniform_assignment(G, "matching")
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            approx_polynomial_report(G, a, (1.0, 0.01), eps)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            approx_problem_report(G, a, eps)
    for bad in (math.nan, math.inf, complex(0.01, math.nan)):
        with pytest.raises(InvalidFugacity, match="fugacities must be finite"):
            approx_polynomial_report(G, a, (1.0, bad), 0.1)


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


def _needs_no_certificate(rep):
    return ((rep.theorem, rep.order, rep.remainder) == ("none", 0, 0.0)
            and math.isinf(rep.q) and math.isinf(rep.region_bound))


def test_approx_edgeless_graph():
    G = MultiGraph(3, [])
    sigs = [make_signature([2.0], 0, 1)] * 3
    a = SignatureAssignment(G, sigs)
    rep = approx_polynomial_report(G, a, (1.0, 0.1), 0.01)
    assert rel_close(rep.value, 8.0)
    assert _needs_no_certificate(rep)


def test_kappa_zero_signature_gives_the_oracle_value():
    # one colour, so Z = f(0)^|V|; r(F) of a one-entry table is 0
    G = c3()
    sig = make_signature([2.0], 2, 0)
    assert sig.ratio_r() == 0.0
    a = SignatureAssignment(G, [sig] * 3)
    exact = brute_holant(G, a, (1.0,)).value
    assert exact == 8.0
    for rep in (approx_problem_report(G, a, 0.1), approx_polynomial_report(G, a, (1.0,), 0.1)):
        assert rep.value == exact and _needs_no_certificate(rep)
    # matching at z = (1, 0) compacts to one colour as well
    b = uniform_assignment(G, "matching")
    rep = approx_polynomial_report(G, b, (1, 0), 0.1)
    assert rep.value == brute_holant(G, b, (1, 0)).value and _needs_no_certificate(rep)


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
    # the certified order C1000 and C1500 come within eps (log errors 1.2e-7
    # and 3.1e-5); at n = 3000 and 5000 float64 cancellation in the series
    # log breaks |a_j| <= |E| / (j q^j), so no value is reported
    eps = 0.1
    for n in (1000, 1500, 3000, 5000):
        G, a = _cycle_matching(n)
        z = half_bound_z(G, a)
        if n <= 1500:
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


def test_approx_raises_when_exp_of_the_series_overflows(monkeypatch):
    # exp(total) overflows once Re(total) > ~709.78. No instance in reach gets
    # there inside the region: long cycles lose their precision first (above).
    # So the series is a constructed one, a_1 = 710 on C_2000, which is inside
    # the zero-free bound |a_1| <= |E|/q.
    with pytest.raises(OverflowError):
        cmath.exp(710)
    G, a = _cycle_matching(2000)

    def constructed(G, assign, z, m):
        return TaylorSeries((710.0 + 0j,) + (0j,) * (m - 1), pool_size=0)

    monkeypatch.setattr(expansion, "log_z_coefficients", constructed)
    with pytest.raises(ConditionViolated, match="outside float range"):
        approx_polynomial_report(G, a, half_bound_z(G, a), 0.1)


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


def _flat_tables(G, kappa, s=0.001):
    """f(0) = 1 and s at every other entry, at each vertex of G."""
    return SignatureAssignment(G, [
        make_signature([1.0] + [s] * ((kappa + 1) ** G.degree(v) - 1), G.degree(v), kappa)
        for v in range(G.vertex_count)
    ])


def test_approx_takes_the_widest_certificate_however_z_is_spelled():
    # the 3x3 grid with 0.001 tables: the fugacity radius at z = (1, 1) is
    # below 1, but every z_i equals z_0, so the problem threshold certifies
    # it, at z = (1, 1) as in the problem entry point and at z = (2, 2)
    G = _grid(3, 3)
    a = _flat_tables(G, 1)
    for z in ((1, 1), (2, 2)):
        rep = approx_polynomial_report(G, a, z, 0.1)
        assert (rep.theorem, rep.order) == ("problem", 5)
        assert abs(rep.value / brute_holant(G, a, z).value - 1) <= 0.1
    assert approx_polynomial_report(G, a, (1, 1), 0.1) == approx_problem_report(G, a, 0.1)
    assert expansion._fugacity(G, a, (1 + 0j, 1 + 0j))[0] < 1 < rep.q
    # a kappa = 2 table whose third colour has zero fugacity compacts to
    # kappa = 1 at z = (1, 1), where the problem threshold applies
    H = _grid(2, 3)
    b = _flat_tables(H, 2)
    rep = approx_polynomial_report(H, b, (1, 1, 0), 0.1)
    assert rep.theorem == "problem"
    assert abs(rep.value / brute_holant(H, b, (1, 1, 0)).value - 1) <= 0.1
    # outside both regions the error names each certificate's q
    c = uniform_assignment(c3(), "matching")
    with pytest.raises(RegionViolation, match=r"fugacity .*\(q = .* <= 1\); "
                                              r"problem .*\(q = .* <= 1\)"):
        approx_polynomial_report(c3(), c, (1, 1), 0.1)


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
    nbrs = [[u + v - x for u, v in (G.edges[e] for e in G.incident(x))]
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


def _sorted_pool_series(G, a, z, m):
    """`log_z_coefficients` through a whole pool sorted by `sort_key`
    (`helpers.live_pool`), then the same kernel and series log."""
    cap = min(m, G.edge_count)
    pool = live_pool(G, a, z, cap)
    c, transitions = family_sum([(p.vmask, p.size, w) for p, w in pool], G, cap)
    return TaylorSeries(tuple(series_log(c, m)), len(pool), transitions)


def _cubic_graphs():
    """K4, the triangular prism, the cube and the Petersen graph."""
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    cube = [(v, v ^ bit) for v in range(8) for bit in (1, 2, 4) if v < v ^ bit]
    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    return [MultiGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
            MultiGraph(6, prism), MultiGraph(8, cube), MultiGraph(10, petersen)]


def test_the_walk_order_gives_the_sorted_pool_coefficients():
    # the kernel orders the walk's items itself: on uniform signatures every
    # a_j has the repr of the sorted-pool route, with the same transitions
    # and pool; on random complex tables they agree to rounding
    graphs = [_cycle_matching(n)[0] for n in (5, 8, 13)]
    graphs += [_grid(r, c) for r, c in ((2, 4), (3, 3), (3, 4), (4, 4))] + _cubic_graphs()
    for G in graphs:
        assert {G.degree(v) for v in range(G.vertex_count)} <= {2, 3, 4}
        for a in (uniform_assignment(G, "matching"),
                  uniform_assignment(G, "even-parity", 0.5)):
            z = half_bound_z(G, a)
            m = certified_order(G.edge_count, 0.1, 0.5)
            got, want = log_z_coefficients(G, a, z, m), _sorted_pool_series(G, a, z, m)
            assert got.pool_size == want.pool_size > 0
            assert got.family_states == want.family_states
            assert [repr(c) for c in got.coefficients] == [repr(c) for c in want.coefficients]
    worst = 0.0
    for G, a in corpus(200, seed=MASTER_SEED + 81, max_edges=8):
        z = half_bound_z(G, a)
        m = certified_order(G.edge_count, 0.1, 0.5)
        got, want = log_z_coefficients(G, a, z, m), _sorted_pool_series(G, a, z, m)
        assert (got.pool_size, got.family_states) == (want.pool_size, want.family_states)
        for x, y in zip(got.coefficients, want.coefficients, strict=True):
            worst = max(worst, abs(x - y) / abs(y) if y else abs(x))
    assert worst <= 1e-13


def test_log_z_coefficients_hold_no_polymer_records():
    # the walk's polymers reach the kernel as (vmask, size, w) items, so the
    # route's traced peak stays far below a record and a sort per polymer
    G = _grid(4, 4)
    a = uniform_assignment(G, "even-parity", 0.5)
    z = (1.0, 0.008458)
    log_z_coefficients(G, a, z, 6)  # the signatures cache their tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        series = log_z_coefficients(G, a, z, 6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert series.pool_size == 4961
    assert peak <= 400 * series.pool_size, peak / series.pool_size
