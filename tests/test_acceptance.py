"""Acceptance gate: one test per numbered criterion.

Each test exercises the full pipeline at the stated tolerances and runtime
budget, records a [criterion NN] PASS/FAIL line (printed in the terminal
summary), and fails loudly when a tolerance or budget is missed.
"""

import itertools
import math
import random
import time
from collections import Counter
from contextlib import contextmanager

from holant import (
    MultiGraph,
    SignatureAssignment,
    approx_polynomial_report,
    approx_problem_report,
    brute_holant,
    brute_polymer_z,
    brute_weighted_count,
    exact_gibbs,
    fpras_estimate,
    make_signature,
    pm_polynomial_graph,
    pm_polynomial_hypergraph,
    region_bounds,
    sample_assignments,
    uniform_assignment,
    verify_kp,
    weighted_count,
    Hypergraph,
    LinearSystem,
)
from holant.linsys import linsys_region, perfect_matchings
from holant.mcmc import PolymerChain, derive_seed
from holant.oracle import (
    connected_edge_subgraphs,
    enumerate_polymers,
    is_connected_edge_set,
    truncation_order,
    ursell,
    weight_map,
)
from holant.polymers import holant_prefactor

import helpers
from helpers import (
    MASTER_SEED,
    c3,
    c4,
    corpus,
    flat_problem_assignment,
    half_bound_z,
    k2,
    k4,
    p3,
    p4,
    rel_close,
)

E = math.e


@contextmanager
def criterion(num: int, budget_s: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        over = dt > budget_s
        note = f"budget {budget_s:.0f} s exceeded" if over else ""
        helpers.ACCEPTANCE_RESULTS.append((num, ok and not over, dt, note))
    assert dt <= budget_s, f"criterion {num} took {dt:.1f} s (budget {budget_s} s)"


_corpus_cache = None


def corpus200():
    global _corpus_cache
    if _corpus_cache is None:
        _corpus_cache = corpus(200)
    return _corpus_cache


def accuracy_ok(output: complex, exact: complex, eps: float) -> bool:
    ratio = output / exact
    return abs(ratio - 1) <= eps and abs(cmath_phase(ratio)) <= eps


def cmath_phase(v: complex) -> float:
    import cmath

    return cmath.phase(v)


# ---------------------------------------------------------------------------


def test_criterion_01_bijection_identity():
    with criterion(1, 60):
        rng = random.Random(MASTER_SEED + 100)
        for G, assign in corpus200():
            kappa = assign.kappa
            z = tuple(
                [1.0 + 0j]
                + [
                    complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                    for _ in range(kappa)
                ]
            )
            exact = brute_holant(G, assign, z).value
            pols = enumerate_polymers(G, kappa, G.edge_count)
            pz = brute_polymer_z(pols, weight_map(G, assign, z, pols))
            assert rel_close(holant_prefactor(G, assign, z) * pz, exact, 1e-9)


def test_criterion_02_fptas_accuracy():
    with criterion(2, 300):
        for G, assign in corpus200():
            z = half_bound_z(G, assign)
            exact = brute_holant(G, assign, z).value
            for eps in (0.1, 0.01):
                rep = approx_polynomial_report(G, assign, z, eps)
                assert accuracy_ok(rep.value, exact, eps)


def test_criterion_03_problem_fptas():
    with criterion(3, 300):
        rng = random.Random(MASTER_SEED + 102)
        for _ in range(60):
            G = helpers.random_graph(rng, max_edges=8, max_degree=3)
            assign = flat_problem_assignment(G, kappa=1, scale=0.5)
            exact = brute_holant(G, assign, (1.0, 1.0)).value
            rep = approx_problem_report(G, assign, 0.05)
            assert accuracy_ok(rep.value, exact, 0.05)


def brute_matching_counts(G: MultiGraph):
    """Matchings by size, counted by filtering all edge subsets."""
    counts = [0] * (G.edge_count + 1)
    for size in range(G.edge_count + 1):
        for sub in itertools.combinations(range(G.edge_count), size):
            seen = set()
            ok = True
            for e in sub:
                u, v = G.edges[e]
                if u in seen or v in seen:
                    ok = False
                    break
                seen.update((u, v))
            counts[size] += ok
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


def test_criterion_04_matching_polynomials():
    with criterion(4, 10):
        cases = [(p3(), [1, 2]), (c3(), [1, 3]), (k4(), [1, 6, 3])]
        for G, coeffs in cases:
            assert brute_matching_counts(G) == coeffs
            assign = uniform_assignment(G, "matching")
            for t in (0.2, 0.45):
                expected = sum(c * t**k for k, c in enumerate(coeffs))
                got = brute_holant(G, assign, (1.0, t)).value
                assert rel_close(got, expected, 1e-12)
            delta = G.max_degree()
            t_star = 0.5 * min(
                1 / (E * (2 * delta - 1)),
                region_bounds("holant-poly", delta=delta, kappa=1, r1=1.0).bound,
            )
            rep = approx_polynomial_report(G, assign, (1.0, t_star), 0.01)
            exact = sum(c * t_star**k for k, c in enumerate(coeffs))
            assert accuracy_ok(rep.value, exact, 0.01)


def brute_ursell(G: MultiGraph) -> int:
    """Sum of (-1)^|A| over spanning connected edge subsets."""
    total = 1 if G.vertex_count <= 1 else 0
    for size in range(1, G.edge_count + 1):
        for sub in itertools.combinations(range(G.edge_count), size):
            if len(G.edge_vertices(sub)) != G.vertex_count:
                continue
            if is_connected_edge_set(G, sub):
                total += (-1) ** size
    return total


def all_labelled_connected_graphs(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        G = MultiGraph(n, edges)
        if n == 1 or (
            len(G.edge_vertices(range(G.edge_count))) == n
            and G.edge_count
            and is_connected_edge_set(G, range(G.edge_count))
        ):
            yield G


def test_criterion_05_ursell_correctness():
    with criterion(5, 30):
        assert ursell(1, []) == 1
        assert ursell(2, [(0, 1)]) == -1
        assert ursell(3, [(0, 1), (0, 2), (1, 2)]) == 2
        expected_counts = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}
        for n in range(1, 6):
            seen = 0
            for G in all_labelled_connected_graphs(n):
                assert ursell(G.vertex_count, G.edges) == brute_ursell(G)
                seen += 1
            assert seen == expected_counts[n]
        # plus sampled connected 6-node graphs (random spanning path + extras)
        rng = random.Random(MASTER_SEED + 104)
        pairs6 = list(itertools.combinations(range(6), 2))
        for _ in range(20):
            perm = list(range(6))
            rng.shuffle(perm)
            edges = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
            edges.update(p for p in pairs6 if rng.random() < 0.3)
            G = MultiGraph(6, sorted(edges))
            assert ursell(G.vertex_count, G.edges) == brute_ursell(G)


def test_criterion_06_kp_certification():
    with criterion(6, 60):
        for G, assign in corpus200():
            rep = verify_kp(G, assign, half_bound_z(G, assign))
            assert rep.certified
        G = k2()
        assign = uniform_assignment(G, "matching")
        bound = region_bounds("holant-poly", delta=1, kappa=1, r1=1.0).bound
        rep = verify_kp(G, assign, (1.0, 20.0 * bound))
        assert not rep.certified


def test_criterion_07_count_bounds():
    with criterion(7, 30):
        graphs = [k2(), p3(), p4(), c3(), c4(), k4()]
        graphs += [G for G, _ in corpus(30, seed=MASTER_SEED + 105)]
        for G in graphs:
            delta = max(1, G.max_degree())
            for v in range(G.vertex_count):
                for m in range(1, G.edge_count + 1):
                    subs = len(connected_edge_subgraphs(G, v, m))
                    assert subs <= (E * delta) ** m / 2
                    for kappa in (1, 2):
                        pols = enumerate_polymers(G, kappa, m, anchor=v)
                        assert len(pols) <= (delta * kappa * E) ** m / 2


def test_criterion_08_sampler_tv_distance():
    with criterion(8, 600):
        n = 100_000
        for G in (c3(), p4()):
            assign = uniform_assignment(G, "matching")
            bound = region_bounds(
                "mcmc-poly", delta=G.max_degree(), kappa=1, r1=1.0
            ).bound
            z = (1.0, 0.5 * bound)
            gibbs = exact_gibbs(G, assign, z)
            seed = derive_seed("acceptance-8", G.to_text())
            sigmas = sample_assignments(G, assign, z, 0.05, seed, trials=n)
            emp = Counter(sigmas)
            support = set(gibbs) | set(emp)
            tv = 0.5 * sum(
                abs(emp.get(s, 0) / n - gibbs.get(s, 0.0)) for s in support
            )
            assert tv <= 0.05, f"TV = {tv:.4f} on {G}"


def test_criterion_09_fpras_success_rate():
    with criterion(9, 600):
        for G in (k2(), c3()):
            assign = uniform_assignment(G, "matching")
            bound = region_bounds(
                "mcmc-poly", delta=G.max_degree(), kappa=1, r1=1.0
            ).bound
            z = (1.0, 0.5 * bound)
            exact = brute_holant(G, assign, z).value.real
            hits = 0
            for i in range(100):
                rep = fpras_estimate(
                    G, assign, z, 0.1, seed=derive_seed("acceptance-9", G.to_text(), i)
                )
                hits += abs(rep.value / exact - 1) <= 0.1
            assert hits >= 75, f"only {hits}/100 runs within 10% on {G}"


def test_criterion_10_mu0_exactness():
    with criterion(10, 120):
        n = 10**6
        instances = []
        G = p3()
        sigs = [
            make_signature([1.0] * 3 ** G.degree(v), G.degree(v), 2)
            for v in range(G.vertex_count)
        ]
        instances.append((G, SignatureAssignment(G, sigs), (1.0, 9e-5, 4.5e-5)))
        G2 = c3()
        instances.append((G2, uniform_assignment(G2, "matching"), (1.0, 4e-4)))
        for idx, (G, assign, z) in enumerate(instances):
            chain = PolymerChain(G, assign, z)
            pool = {p for e in range(G.edge_count) for p, _ in chain._base[e]}
            assert len(pool) <= 10
            rng = random.Random(MASTER_SEED + 106 + idx)
            counts = Counter()
            for _ in range(n):
                counts[chain.mu0(0, rng)] += 1
            none_mass = 1.0
            for p, w in chain._base[0]:
                expect = n * w
                slack = 3 * math.sqrt(expect * (1 - w)) + 1
                assert abs(counts.get(p, 0) - expect) <= slack
                none_mass -= w
            expect = n * none_mass
            slack = 3 * math.sqrt(expect * (1 - none_mass)) + 1
            assert abs(counts.get(None, 0) - expect) <= slack


def test_criterion_11_linear_systems():
    with criterion(11, 60):
        rng = random.Random(MASTER_SEED + 107)
        for _ in range(100):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            rows = [[rng.choice([-1, 0, 0, 1]) for _ in range(m)] for _ in range(n)]
            caps = [rng.randint(1, 2) for _ in range(m)]
            weights = [
                complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                for _ in range(m)
            ]
            sys_ = LinearSystem(rows, caps, weights)
            assert rel_close(weighted_count(sys_).value, brute_weighted_count(sys_), 1e-9)


def test_criterion_12_pm_polynomials():
    with criterion(12, 60):
        rng = random.Random(MASTER_SEED + 108)
        for G, matching, expected in (
            (c4(), (0, 3), lambda z: 1 + z**4),
            (k4(), (0, 5), lambda z: 1 + 2 * z**4),
        ):
            bound = region_bounds("graph-pm", delta=G.max_degree()).bound
            for _ in range(10):
                r = rng.uniform(0, 0.9) * bound
                theta = rng.uniform(0, 2 * math.pi)
                z = complex(r * math.cos(theta), r * math.sin(theta))
                for mode in ("polymer", "exact"):
                    got = pm_polynomial_graph(G, matching, z, mode=mode)
                    assert rel_close(got, expected(z), 1e-9)
        # three fixed 3-uniform instances with hand-enumerated matching sets
        hand = [
            (Hypergraph(6, [(0, 1, 2), (3, 4, 5)]), [(0, 1)]),
            (
                Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5)]),
                [(0, 1), (2, 3)],
            ),
            (
                Hypergraph(
                    9,
                    [(0, 1, 2), (3, 4, 5), (6, 7, 8),
                     (0, 3, 6), (1, 4, 7), (2, 5, 8)],
                ),
                [(0, 1, 2), (3, 4, 5)],
            ),
        ]
        for H, pms in hand:
            assert perfect_matchings(H) == sorted(pms)
            M = set(pms[0])
            for z in (0.3, 0.5 + 0.25j):
                expected = sum(
                    complex(z) ** len(M.symmetric_difference(other)) for other in pms
                )
                got = pm_polynomial_hypergraph(H, pms[0], z)
                assert rel_close(got, expected, 1e-9)
        assert abs(region_bounds("hyper-pm", delta=3, k=3).bound / (1 / (5 * E)) - 1) <= 5e-7
        assert abs(region_bounds("graph-pm", delta=3).bound / 0.320843 - 1) <= 5e-6


def test_criterion_13_bound_formula_regression():
    with criterion(13, 1):
        six = 5e-6  # six significant digits against the printed decimals
        checks = [
            (region_bounds("holant-poly", delta=3, kappa=1, r1=1.0).bound, 0.0225559),
            (region_bounds("boolean", delta=3, r1=1.0).bound, 0.0225559),
            (region_bounds("matching", delta=3).bound, 0.0735759),
            (region_bounds("holant-problem", delta=2, kappa=1).bound, 0.0557825),
            (
                region_bounds("holant-problem", delta=2, kappa=1).values["vertex_form"],
                0.0514500,
            ),
            (
                region_bounds("holant-problem", delta=2, kappa=1).values[
                    "vertex_form_exact"
                ],
                0.0514702,
            ),
            (region_bounds("graph-pm", delta=3).bound, 0.320843),
            (region_bounds("linsys", r=2, c=1, kappa=1).bound, 0.0942321),
            (region_bounds("mcmc-poly", delta=2, kappa=1, r1=1.0).bound, 8.42243e-4),
            (region_bounds("mcmc-problem", delta=2, kappa=1).bound, 8.42243e-4),
            (region_bounds("hyper-pm", delta=3, k=3).bound, 0.0735759),
        ]
        for got, printed in checks:
            assert abs(got / printed - 1) <= six, (got, printed)
        # the two printed constants appear verbatim in their formulas
        for delta, kappa in ((2, 1), (3, 2)):
            rep = region_bounds("holant-problem", delta=delta, kappa=kappa)
            assert rel_close(
                rep.values["vertex_form"], 0.2058 * (kappa + 1.0) ** -delta, 1e-12
            )
        for delta in (2, 3, 5):
            rep = region_bounds("graph-pm", delta=delta)
            assert rel_close(
                rep.values["printed"], (4.85718 * (delta - 1)) ** -0.5, 1e-12
            )
        assert truncation_order(6, 0.05, 0.5) == 10
        assert truncation_order(10, 0.1, 0.99) == 461
        # linsys region also matches a from-scratch evaluation of its forms
        sys_ = LinearSystem([[1, -1]], [1, 1], [0.1, 0.1])
        rep = linsys_region(sys_)
        assert rel_close(rep.values["simple"], 1 / ((2 * E + 1) * math.sqrt(E)), 1e-12)
