import concurrent.futures
import math
import os
import random
import statistics
import time
from collections import Counter

import pytest

import holant.errors as errors
import holant.mcmc as mcmc_mod
import holant.polymers as polymers_mod
from holant import (
    ConditionViolated,
    GateExceeded,
    InvalidFugacity,
    MultiGraph,
    NotInF0,
    RegionViolation,
    SignatureAssignment,
    UnsupportedWeights,
    exact_gibbs,
    fpras_estimate,
    make_signature,
    mixing_time,
    region_bounds,
    sample_assignments,
    tau_floor,
    uniform_assignment,
)
from holant.mcmc import (
    PolymerChain,
    certify_chain,
    check_chain_conditions,
    derive_seed,
    substream,
)
from holant.oracle import enumerate_polymers, weight_map

from helpers import (
    MASTER_SEED,
    c3,
    k2,
    k4,
    p3,
    p4,
    random_graph,
    reference_mu0,
    reference_step,
    rel_close,
    step_kernel,
    toggle,
)


def mcmc_z(G, kappa=1, r1=1.0, frac=0.5):
    b = region_bounds(
        "mcmc-poly", delta=max(1, G.max_degree()), kappa=kappa, r1=r1
    ).bound
    return tuple([1.0] + [frac * b] * kappa)


def test_tau_floor():
    assert tau_floor(1, 1) == pytest.approx(5.0)
    assert tau_floor(1, 2) == pytest.approx(5 + 3 * math.log(2))


def test_mixing_time_formula():
    G = MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert mixing_time(G, 0.05) == math.ceil(48 * math.log(80))
    assert mixing_time(G, 0.05) == 211


def test_chain_commands_without_edges_run_no_chain(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was certified or built without edges")

    monkeypatch.setattr(mcmc_mod, "certify_chain", no_chain)
    monkeypatch.setattr(mcmc_mod, "PolymerChain", no_chain)
    G = MultiGraph(2, [])
    a = uniform_assignment(G, "matching")
    assert mixing_time(G, 0.1) == 0
    moves = {}
    assert sample_assignments(G, a, (1.0, 0.1), 0.1, seed=1, trials=3, moves=moves) \
        == [(), (), ()]
    assert moves == {"visited": 0, "inserted": 0, "removed": 0}
    rep = fpras_estimate(G, a, (2.0, 0.1), 0.5, seed=1, reps=2)
    assert (rep.value, rep.estimates, rep.stages, rep.chain_steps, rep.certificate) == \
        (1.0, [1.0, 1.0], 0, 0, "none")
    assert rep.moves == {"visited": 0, "inserted": 0, "removed": 0}


def test_sample_without_edges_checks_f0(monkeypatch):
    # no chain is certified or built, but Z = 0 off F0 still raises
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain was certified or built without edges")

    monkeypatch.setattr(mcmc_mod, "certify_chain", no_chain)
    monkeypatch.setattr(mcmc_mod, "PolymerChain", no_chain)
    G = MultiGraph(2, [])
    a = SignatureAssignment(G, [make_signature([0], 0, 1)] * 2)
    with pytest.raises(NotInF0, match="vertex 0: signature 'table'"):
        sample_assignments(G, a, (1.0, 0.1), 0.1, seed=1)


def test_sampling_condition_k2():
    G = k2()
    a = uniform_assignment(G, "matching")
    (ok, tau_star, need), _ = check_chain_conditions(G, a, (1.0, math.e ** -9))
    assert ok
    assert tau_star == pytest.approx(9.0, rel=1e-9)
    assert need == pytest.approx(5.0)
    (ok2, tau2, _), _ = check_chain_conditions(G, a, (1.0, 0.1))
    assert not ok2
    assert tau2 == pytest.approx(-math.log(0.1), rel=1e-9)


def test_mixing_condition_k2():
    G = k2()
    a = uniform_assignment(G, "matching")
    _, (ok, worst) = check_chain_conditions(G, a, (1.0, 0.8))
    assert not ok
    assert worst == pytest.approx(0.8 - 0.75, rel=1e-9)
    _, (ok2, _) = check_chain_conditions(G, a, (1.0, 0.7))
    assert ok2


def test_conditions_hold_inside_region():
    for G in (k2(), c3(), p4()):
        a = uniform_assignment(G, "matching")
        z = mcmc_z(G)
        (ok_s, _, _), (ok_m, _) = check_chain_conditions(G, a, z)
        assert ok_s and ok_m


def test_chain_rejects_nonnegative_violations():
    G = k2()
    a = uniform_assignment(G, "matching")
    with pytest.raises(UnsupportedWeights):
        PolymerChain(G, a, (1.0, -0.1))
    with pytest.raises(UnsupportedWeights):
        PolymerChain(G, a, (1.0, 0.1j))


def test_chain_rejects_outside_region():
    G = c3()
    a = uniform_assignment(G, "matching")
    with pytest.raises(RegionViolation):
        certify_chain(G, a, (1.0, 0.05))


def test_chain_commands_certify_once_before_they_build(monkeypatch):
    calls = []
    certify, build = mcmc_mod.certify_chain, mcmc_mod.PolymerChain

    def spy_certify(*args):
        calls.append("certify")
        return certify(*args)

    def spy_build(*args):
        calls.append("build")
        return build(*args)

    monkeypatch.setattr(mcmc_mod, "certify_chain", spy_certify)
    monkeypatch.setattr(mcmc_mod, "PolymerChain", spy_build)
    G = c3()
    a = uniform_assignment(G, "matching")
    sample_assignments(G, a, mcmc_z(G), 0.1, seed=1, trials=3)
    assert calls == ["certify", "build"]
    calls.clear()
    assert fpras_estimate(G, a, mcmc_z(G), 0.5, seed=1, reps=2).certificate == "region"
    assert calls == ["certify", "build"]
    calls.clear()
    for run in (lambda z: sample_assignments(G, a, z, 0.1, seed=1),
                lambda z: fpras_estimate(G, a, z, 0.5, seed=1)):
        with pytest.raises(RegionViolation):
            run((1.0, 0.05))
    assert calls == ["certify", "certify"]  # a refused instance is never built


def test_chain_outside_region_with_gated_direct_checks_is_a_region_violation(monkeypatch):
    # C100 at z1 = 0.01 lies outside the mcmc-poly bound; its direct checks
    # walk only the 100 single edges and answer. Below the walk's 100 units
    # their GateExceeded would read as a size gate (exit 4) rather than a
    # bound (exit 2), so the chain raises a RegionViolation that says so.
    G = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    a = uniform_assignment(G, "matching")
    (ok, tau_star, need), _ = check_chain_conditions(G, a, (1.0, 0.01))
    assert not ok and tau_star == pytest.approx(-math.log(0.01))
    with pytest.raises(RegionViolation, match=r"direct checks give tau\* = 4\.60517 "
                       r"\(need >= 7\.07944\)"):
        certify_chain(G, a, (1.0, 0.01))
    monkeypatch.setattr(errors, "WORK_GATE", 99)
    with pytest.raises(GateExceeded):
        check_chain_conditions(G, a, (1.0, 0.01))
    with pytest.raises(RegionViolation, match="bound .* violated and direct verification "
                       "was gated"):
        certify_chain(G, a, (1.0, 0.01))


def test_direct_checks_walk_the_live_polymers_once(monkeypatch):
    walks, grow = [], polymers_mod.grow_edge_sets

    def counting(*args):
        walks.append(args[2])
        return grow(*args)

    monkeypatch.setattr(polymers_mod, "grow_edge_sets", counting)
    G = c3()
    a = uniform_assignment(G, "matching")
    with pytest.raises(RegionViolation, match=r"direct checks give tau\* = 2\.99573 "
                       r"\(need >= 7\.07944\), mixing margin -0\.6"):
        certify_chain(G, a, (1.0, 0.05))
    assert walks == [G.edge_count]


def test_direct_checks_match_the_textbook_pool():
    # against the textbook pool with one margin per polymer, zero-weight
    # ones included: the terms |E| Phi summed per vertex mask in pool order,
    # then over the masks that meet the polymer's. tau* is the same bit for
    # bit, the mixing verdict is the same, and the worst margin is the
    # textbook's largest single-edge margin (the direct checks take margins
    # at the edges only), which is its largest margin overall when the
    # condition holds. The tables have zero entries and some fugacities are
    # zero.
    rng = random.Random(MASTER_SEED + 31)
    certified = 0
    for _ in range(200):
        kappa = rng.choice([1, 2, 3])
        G = random_graph(rng, max_edges=6 if kappa < 3 else 4, max_degree=3)
        sigs = []
        for v in range(G.vertex_count):
            d = G.degree(v)
            tab = [0.0 if rng.random() < 0.4 else rng.uniform(0, 1)
                   for _ in range((kappa + 1) ** d)]
            tab[0] = rng.uniform(0.4, 1.0)
            sigs.append(make_signature(tab, d, kappa))
        a = SignatureAssignment(G, sigs)
        z = (rng.uniform(0.5, 1.5),) + tuple(
            0.0 if rng.random() < 0.3 else rng.uniform(0, 0.2) for _ in range(kappa))
        pool = enumerate_polymers(G, kappa, G.edge_count)
        wmap = weight_map(G, a, z, pool)
        tau_star = min((-math.log(wmap[p].real) / p.size for p in pool if wmap[p].real > 0),
                       default=math.inf)
        agg = {}
        for p in pool:
            agg[p.vmask] = agg.get(p.vmask, 0.0) + p.size * wmap[p].real
        lhs = {mask: sum(t for m, t in agg.items() if m & mask) for mask in agg}
        margins = [lhs[p.vmask] - mcmc_mod.DEFAULT_XI * p.size for p in pool]
        need = tau_floor(kappa, max(1, G.max_degree()))
        sampling, (ok, worst) = check_chain_conditions(G, a, z)
        assert repr(sampling) == repr((tau_star >= need, tau_star, need))
        assert ok == all(m <= 0 for m in margins)
        edge_worst = max(m for p, m in zip(pool, margins) if p.size == 1)
        assert worst == pytest.approx(edge_worst, rel=1e-12)
        if ok:
            certified += 1
            assert worst == pytest.approx(max(margins), rel=1e-12)
    assert 0 < certified < 200


def test_direct_checks_answer_fast_with_one_live_polymer_per_edge():
    # C100 and the 10x10 grid with matching: one live polymer per edge,
    # against some 1e8 and past 2e7 connected edge sets
    grid = MultiGraph(100, [(10 * r + c, 10 * r + c + 1) for r in range(10) for c in range(9)]
                      + [(10 * r + c, 10 * r + c + 10) for r in range(9) for c in range(10)])
    cycle = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    for G, z1 in ((cycle, 0.01), (grid, 1e-3)):
        a = uniform_assignment(G, "matching")
        t0 = time.perf_counter()
        (ok, tau_star, _), (ok_m, _) = check_chain_conditions(G, a, (1.0, z1))
        assert time.perf_counter() - t0 < 1.0
        assert tau_star == pytest.approx(-math.log(z1)) and not ok and ok_m


def test_chain_direct_certification_beyond_region_bound():
    # r1 = 1.5 shrinks the closed-form bound by r1^2, but the actual polymer
    # weight is z1 * 1.5 * 0.5, so direct condition checks still certify.
    G = k2()
    a = SignatureAssignment(
        G, [make_signature([1, 1.5], 1, 1), make_signature([1, 0.5], 1, 1)]
    )
    z1 = 5e-3
    b = region_bounds("mcmc-poly", delta=1, kappa=1, r1=1.5).bound
    assert z1 > b
    assert certify_chain(G, a, (1.0, z1)) == "direct"
    # inside the closed form the certificate is the region itself
    assert certify_chain(G, a, (1.0, 0.5 * b)) == "region"
    # the same tables alternating on C100, at delta = 2: every edge weighs
    # z1 * 1.5 * 0.5, and the direct checks certify from the 100 edges
    G = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    a = SignatureAssignment(G, [make_signature([1, 1.5, 1.5, 0], 2, 1),
                                make_signature([1, 0.5, 0.5, 0], 2, 1)] * 50)
    z1 = 5e-4
    assert z1 > region_bounds("mcmc-poly", delta=2, kappa=1, r1=1.5).bound
    t0 = time.perf_counter()
    assert certify_chain(G, a, (1.0, z1)) == "direct"
    assert time.perf_counter() - t0 < 1.0


def test_mu0_masses_match_weights():
    # single-edge instance: P(polymer) must equal its weight exactly
    G = k2()
    a = uniform_assignment(G, "matching")
    t = 1e-3
    chain = PolymerChain(G, a, (1.0, t))
    rng = random.Random(MASTER_SEED)
    n = 10 ** 5
    hits = sum(1 for _ in range(n) if chain.mu0(0, rng) is not None)
    sigma = math.sqrt(t * (1 - t) * n)
    assert abs(hits - t * n) <= 3 * sigma


def chi2_stat(observed, expected):
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected) if e > 0)


CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086,
           6: 16.812, 7: 18.475, 8: 20.090, 9: 21.666, 10: 23.209}


def test_mu0_distribution_chi2():
    # P3 with kappa=2 all-ones tables: polymer mass through edge 0 is exactly
    # z_c (singles) and z_c z_d (pairs); pairs are merged into the None cell
    # because their expectation is far below one hit.
    G = p3()
    sigs = [make_signature([1.0] * 3 ** G.degree(v), G.degree(v), 2)
            for v in range(3)]
    a = SignatureAssignment(G, sigs)
    z = (1.0, 9e-5, 4.5e-5)
    chain = PolymerChain(G, a, z)
    rng = random.Random(MASTER_SEED + 1)
    n = 10 ** 6
    counts = Counter()
    for _ in range(n):
        out = chain.mu0(0, rng)
        counts[out] += 1
    singles = [(p, w) for p, w in chain._base[0] if p.size == 1]
    assert len(singles) == 2
    cells = []
    rest = 1.0
    for p, w in singles:
        cells.append((counts.get(p, 0), w * n))
        rest -= w
    other = n - sum(c for c, _ in cells)
    cells.append((other, rest * n))
    stat = chi2_stat([c for c, _ in cells], [e for _, e in cells])
    assert stat <= CHI2_99[len(cells) - 1]


def test_sampler_deterministic_and_jobs_equivalent():
    G = c3()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    s1 = sample_assignments(G, a, z, 0.1, seed=42, trials=6)
    s2 = sample_assignments(G, a, z, 0.1, seed=42, trials=6)
    assert s1 == s2
    s3 = sample_assignments(G, a, z, 0.1, seed=42, trials=6, jobs=2)
    assert s1 == s3
    s4 = sample_assignments(G, a, z, 0.1, seed=43, trials=6)
    assert isinstance(s4, list)


def test_sample_assignment_single():
    G = k2()
    a = uniform_assignment(G, "matching")
    sigma = sample_assignments(G, a, mcmc_z(G), 0.1, seed=7)[0]
    assert sigma in ((0,), (1,))


def test_chain_state_space_preserved():
    # random walk stays on compatible families; polymer membership is consistent
    G = c3()
    a = uniform_assignment(G, "matching")
    chain = PolymerChain(G, a, mcmc_z(G, frac=0.9))
    rng = random.Random(5)
    state = chain.fresh_state()
    for _ in range(3000):
        chain.run(state, 1, rng)
        fam = state.family()
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert fam[i].vmask & fam[j].vmask == 0
        assert state.total_edges == sum(p.size for p in fam)


def test_detailed_balance_empirical():
    # K2 with z1 large enough to see both states often
    G = k2()
    a = uniform_assignment(G, "matching")
    t = 0.9 * math.e ** -5
    chain = PolymerChain(G, a, (1.0, t))
    pi = exact_gibbs(G, a, (1.0, t))
    rng = random.Random(MASTER_SEED + 2)
    state = chain.fresh_state()
    n = 10 ** 6
    trans = Counter()
    prev = tuple(state.family())
    for _ in range(n):
        chain.run(state, 1, rng)
        cur = tuple(state.family())
        trans[(len(prev), len(cur))] += 1
        prev = cur
    # empirical flow 0->1 vs 1->0
    f01 = trans[(0, 1)]
    f10 = trans[(1, 0)]
    # stationary flows are equal; binomial 3-sigma window on the difference
    sigma = math.sqrt(f01 + f10)
    assert abs(f01 - f10) <= 3 * sigma + 1


def test_substream_independent_of_call_order():
    a = substream(99, 3).random()
    b = substream(99, 4).random()
    assert substream(99, 3).random() == a
    assert substream(99, 4).random() == b
    assert a != b
    assert derive_seed("x", 1) == derive_seed("x", 1)
    assert derive_seed("x", 1) != derive_seed("x", 2)


def test_fpras_k2():
    G = k2()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    exact = 1 + z[1]
    rep = fpras_estimate(G, a, z, 0.1, seed=11)
    assert abs(rep.value / exact - 1) <= 0.1
    assert rep.stages >= 2
    assert len(rep.estimates) == rep.reps


def test_fpras_deterministic_and_jobs_equivalent():
    G = c3()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    r1 = fpras_estimate(G, a, z, 0.2, seed=3)
    r2 = fpras_estimate(G, a, z, 0.2, seed=3)
    assert r1.value == r2.value
    r3 = fpras_estimate(G, a, z, 0.2, seed=3, jobs=2)
    assert r1.value == r3.value


def test_jobs_are_capped_at_the_cpu_count(monkeypatch):
    # a fake pool that records its size and maps in-process, so no process starts
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    G = c3()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    serial = sample_assignments(G, a, z, 0.1, seed=5, trials=50, jobs=1)
    assert sample_assignments(G, a, z, 0.1, seed=5, trials=50, jobs=10**4) == serial
    cpus = os.cpu_count() or 1
    assert asked == ([min(50, cpus)] if cpus > 1 else [])
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sample_assignments(G, a, z, 0.1, seed=5, trials=50, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            fpras_estimate(G, a, z, 0.5, seed=5, jobs=jobs)


@pytest.mark.parametrize("jobs", [2, 3])
def test_uneven_chunks_match_serial(jobs):
    # 7 trials and 5 reps do not split evenly over 2 or 3 workers
    G = c3()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    serial = sample_assignments(G, a, z, 0.1, seed=5, trials=7)
    assert sample_assignments(G, a, z, 0.1, seed=5, trials=7, jobs=jobs) == serial
    rep = fpras_estimate(G, a, z, 0.1, seed=5, reps=5)
    assert fpras_estimate(G, a, z, 0.1, seed=5, reps=5, jobs=jobs) == rep
    assert len(set(rep.estimates)) == 5  # every rep ran on its own substream


def test_direct_certificate_chain_runs_in_workers():
    # the instance of test_chain_direct_certification_beyond_region_bound
    G = k2()
    a = SignatureAssignment(
        G, [make_signature([1, 1.5], 1, 1), make_signature([1, 0.5], 1, 1)]
    )
    z = (1.0, 5e-3)
    rep = fpras_estimate(G, a, z, 0.5, seed=2, reps=3)
    assert rep.certificate == "direct"
    assert fpras_estimate(G, a, z, 0.5, seed=2, reps=3, jobs=2) == rep
    serial = sample_assignments(G, a, z, 0.1, seed=2, trials=5)
    assert sample_assignments(G, a, z, 0.1, seed=2, trials=5, jobs=2) == serial


def test_fpras_rejects_zero_reps():
    a3 = uniform_assignment(c3(), "matching")
    with pytest.raises(ValueError, match="reps must be >= 1"):
        fpras_estimate(c3(), a3, mcmc_z(c3()), 0.2, seed=1, reps=0)
    G = MultiGraph(3, [])
    with pytest.raises(ValueError, match="reps must be >= 1"):
        fpras_estimate(G, uniform_assignment(G, "matching"), (1.0, 0.1), 0.2,
                       seed=1, reps=0)


def test_fpras_outside_region_raises():
    G = c3()
    a = uniform_assignment(G, "matching")
    with pytest.raises(RegionViolation):
        fpras_estimate(G, a, (1.0, 0.05), 0.1, seed=1)


def test_chain_entry_points_reject_non_finite_eps_and_fugacities():
    G = c3()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    edgeless = MultiGraph(3, [])
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            mixing_time(G, eps)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            fpras_estimate(G, a, z, eps, seed=1)
        for H in (G, edgeless):
            with pytest.raises(ValueError, match="eps must be positive and finite"):
                sample_assignments(H, uniform_assignment(H, "matching"), z, eps, seed=1)
    for bad in ((1.0, math.nan), (1.0, math.inf), (math.nan, 0.0)):
        with pytest.raises(InvalidFugacity, match="fugacities must be finite"):
            sample_assignments(G, a, bad, 0.1, seed=1)
        with pytest.raises(InvalidFugacity, match="fugacities must be finite"):
            fpras_estimate(G, a, bad, 0.1, seed=1)


def test_chain_build_raises_not_in_f0_for_the_vertex():
    G = p3()
    leaf = make_signature([1.0, 1.0], 1, 1)
    middle = make_signature([0.0, 1.0, 1.0, 0.0], 2, 1)  # degree 2, f(0, 0) = 0
    assign = SignatureAssignment(G, [leaf, middle, leaf])
    with pytest.raises(NotInF0, match="vertex 1"):
        PolymerChain(G, assign, (1.0, 0.1))


def test_chain_build_raises_invalid_fugacity_for_a_short_z():
    G = k2()
    sig = make_signature([1.0, 0.5, 0.5], 1, 2)  # kappa = 2
    assign = SignatureAssignment(G, [sig, sig])
    with pytest.raises(InvalidFugacity, match=r"^need 3 fugacities, got 2$"):
        PolymerChain(G, assign, (1.0, 0.1))


def test_chain_step_gate_at_the_exact_plan(monkeypatch):
    G = k2()
    a = uniform_assignment(G, "matching")
    z = mcmc_z(G)
    eps, reps, trials = 0.5, 2, 3
    K, S, burn = 2, math.ceil(32 / eps**2), mixing_time(G, 0.05)
    plan = reps * K * (burn + 2 * S)
    rep = fpras_estimate(G, a, z, eps, seed=1, reps=reps)
    assert rep.chain_steps == plan
    samples = sample_assignments(G, a, z, 0.1, seed=1, trials=trials)
    sample_plan = trials * mixing_time(G, 0.1)

    monkeypatch.setattr(errors, "WORK_GATE", plan)
    assert fpras_estimate(G, a, z, eps, seed=1, reps=reps) == rep
    monkeypatch.setattr(errors, "WORK_GATE", sample_plan)
    assert sample_assignments(G, a, z, 0.1, seed=1, trials=trials) == samples

    def no_chain(*args, **kwargs):
        raise AssertionError("chain certified or built past the step gate")

    monkeypatch.setattr(mcmc_mod, "certify_chain", no_chain)
    monkeypatch.setattr(mcmc_mod, "PolymerChain", no_chain)
    monkeypatch.setattr(errors, "WORK_GATE", plan - 1)
    with pytest.raises(GateExceeded, match=f"{plan} planned chain steps"):
        fpras_estimate(G, a, z, eps, seed=1, reps=reps)
    monkeypatch.setattr(errors, "WORK_GATE", sample_plan - 1)
    with pytest.raises(GateExceeded, match=f"{sample_plan} planned chain steps"):
        sample_assignments(G, a, z, 0.1, seed=1, trials=trials)


def _nonneg_instance(rng):
    """Random graph and non-negative tables, kappa 1-3, with f(0) > 0."""
    G = random_graph(rng, max_edges=6)
    kappa = rng.randint(1, 3)
    sigs = []
    for v in range(G.vertex_count):
        size = (kappa + 1) ** G.degree(v)
        tab = [rng.choice([0.0, rng.uniform(0.2, 1.0)]) for _ in range(size)]
        tab[0] = rng.uniform(0.5, 1.0)
        sigs.append(make_signature(tab, G.degree(v), kappa))
    return G, SignatureAssignment(G, sigs), kappa


def _busy_scale(chain):
    """The scale that puts the chain's largest mu0 acceptance mass near 0.9."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        chain.set_scale(mid)
        chain._base  # lists and sums every edge at this scale
        if max(cum[-1] for cum in chain._cum if cum) <= 0.9:
            lo = mid
        else:
            hi = mid
    return lo


def _busy(chain):
    """chain at `_busy_scale`."""
    chain.set_scale(_busy_scale(chain))
    return chain


def _busy_chain(rng):
    """Busy chain on a random, uncertified instance with two candidates at some edge."""
    while True:
        G, a, kappa = _nonneg_instance(rng)
        chain = PolymerChain(G, a, [1.0] + [1.0] * kappa)
        if any(len(entries) > 1 for entries in chain._base):
            return _busy(chain)


def _packed(chain):
    """The family that takes, edge by edge, the first candidate compatible so far."""
    state = chain.fresh_state()
    for entries in chain._base:
        for p, _ in entries:
            if not p.vmask & state.occupied:
                toggle(state, p)
                break
    return frozenset(state.family())


def _start(chain, family):
    state = chain.fresh_state()
    for p in family:
        toggle(state, p)
    return state


def _exact_laws(chain, start, steps, stride):
    """Exact laws of the family after steps steps from start, and of the
    tuple of total edge counts read after every stride-th step."""
    kernels = {}
    dist = {(start, ()): 1.0}
    for i in range(1, steps + 1):
        nxt = {}
        for (fam, reads), q in dist.items():
            if fam not in kernels:
                kernels[fam] = step_kernel(chain, fam)
            for to, r in kernels[fam].items():
                key = (to, reads + (sum(p.size for p in to),) if i % stride == 0 else reads)
                nxt[key] = nxt.get(key, 0.0) + q * r
        dist = {key: q for key, q in nxt.items() if q > 1e-13}
    families, readings = {}, {}
    for (fam, reads), q in dist.items():
        families[fam] = families.get(fam, 0.0) + q
        readings[reads] = readings.get(reads, 0.0) + q
    return families, readings


def _chi2_999(df):
    """0.999 quantile of chi-square(df), Wilson-Hilferty."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + 3.090 * math.sqrt(h)) ** 3


def _assert_follows(observed, law, n):
    """Chi-square test of n draws against law; cells under 5 expected are pooled."""
    assert set(observed) <= set(law), "a draw the exact law gives probability 0"
    big = sorted((k for k in law if law[k] * n >= 5), key=lambda k: -law[k])
    obs = [observed[k] for k in big]
    exp = [law[k] * n for k in big]
    rest_o, rest_e = n - sum(obs), n - sum(exp)
    if rest_e >= 5 or not big:
        obs.append(rest_o)
        exp.append(rest_e)
    else:
        obs[-1] += rest_o
        exp[-1] += rest_e
    if len(obs) > 1:
        assert chi2_stat(obs, exp) <= _chi2_999(len(obs) - 1)


def test_run_follows_the_step_kernel_in_law():
    # P3 whose middle vertex rejects exactly one occupied edge: its only
    # polymer is the whole path, so size-2 polymers move
    G = p3()
    leaf = make_signature([1.0, 1.0], 1, 1)
    middle = make_signature([1.0, 0.0, 0.0, 1.0], 2, 1)
    path_chain = _busy(PolymerChain(G, SignatureAssignment(G, [leaf, middle, leaf]),
                                    (1.0, 1.0)))
    # matching on two disjoint edges and on P4, with rho = 3 and 3 + 2 ln 2,
    # insert most often, also next to a covered edge
    quick = [_busy(PolymerChain(G, uniform_assignment(G, "matching"), (1.0, 1.0)))
             for G in (MultiGraph(4, [(0, 1), (2, 3)]), p4())]
    rng = random.Random(MASTER_SEED + 21)
    chains = [path_chain] + quick + [_busy_chain(rng) for _ in range(3)]
    n = 10000
    multi_edge = 0
    for case, chain in enumerate(chains):
        r = random.Random(case)
        for start in (frozenset(), _packed(chain)):
            for steps, stride in ((1, 1), (7, 3), (40, 13)):
                families, readings = _exact_laws(chain, start, steps, stride)
                seen_families, seen_readings = Counter(), Counter()
                for _ in range(n):
                    state = _start(chain, start)
                    seen_readings[tuple(chain.run(state, steps, r, stride))] += 1
                    seen_families[frozenset(state.family())] += 1
                _assert_follows(seen_families, families, n)
                _assert_follows(seen_readings, readings, n)
                multi_edge += sum(c for fam, c in seen_families.items()
                                  if fam != start and any(p.size > 1 for p in fam ^ start))
        # the kernel is the law of the reference step
        seen = Counter()
        for _ in range(n):
            state = _start(chain, start)
            reference_step(chain, state, r)
            seen[frozenset(state.family())] += 1
        _assert_follows(seen, step_kernel(chain, start), n)
    assert multi_edge >= 100


def test_run_follows_the_step_kernel_where_thinning_acts():
    # P3 with size-1 masses 0.08 and 0.02 at its two edges and mass 0.9 on
    # the whole path: every insertion rate a(e) is at most k0 / 10 and they
    # differ, so the bound A sends on some candidates and not others, and
    # the path comes only from first uniforms at most theta
    G = p3()
    e_rho = math.exp(tau_floor(1, 2) - 2.0 - math.log(2))
    left = make_signature([1.0, 0.08 / e_rho], 1, 1)
    right = make_signature([1.0, 0.02 / e_rho], 1, 1)
    middle = make_signature([1.0, 1.0, 1.0, 0.9 / (0.08 * 0.02)], 2, 1)
    chain = PolymerChain(G, SignatureAssignment(G, [left, middle, right]), (1.0, 1.0))
    assert [[p.size for p, _ in entries] for entries in chain._base] == [[1, 2], [1, 2]]
    a = [chain._theta + chain._span * t1 for t1 in chain._t1]
    assert max(a) <= 0.1 * chain._k0 and a[0] > 2 * a[1] and max(a) <= chain._bound
    n = 300000
    r = random.Random(MASTER_SEED + 26)
    for steps, stride in ((40, 13), (1, 1)):
        families, readings = _exact_laws(chain, frozenset(), steps, stride)
        seen_families, seen_readings = Counter(), Counter()
        for _ in range(n):
            state = chain.fresh_state()
            seen_readings[tuple(chain.run(state, steps, r, stride))] += 1
            seen_families[frozenset(state.family())] += 1
        _assert_follows(seen_families, families, n)
        _assert_follows(seen_readings, readings, n)
        if steps == 40:
            assert sum(c for fam, c in seen_families.items()
                       if any(p.size > 1 for p in fam)) >= 20


def test_the_thinning_bound_dominates_every_edge():
    # A comes from the tables and a(e) from the walk's sums, at every scale
    rng = random.Random(MASTER_SEED + 27)
    for _ in range(30):
        G, a, kappa = _nonneg_instance(rng)
        chain = PolymerChain(G, a, [1.0] + [rng.uniform(0.01, 1.0)] * kappa)
        for x in (1.0, 0.37, 1e-3, 0.0):
            chain.set_scale(x)
            chain._base
            worst = max(chain._theta + chain._span * min(t1, 1.0) for t1 in chain._t1)
            assert worst <= chain._bound <= worst * (1 + 1e-8)


def test_mu0_follows_the_reference():
    rng = random.Random(MASTER_SEED + 22)
    for case in range(10):
        chain = _busy_chain(rng)
        r_fast, r_slow = random.Random(case), random.Random(case)
        for e0 in range(chain.G.edge_count):
            for _ in range(200):
                assert chain.mu0(e0, r_fast) is reference_mu0(chain, e0, r_slow)
        assert r_fast.getstate() == r_slow.getstate()


def test_run_without_edges_raises():
    G = MultiGraph(2, [])
    chain = PolymerChain(G, uniform_assignment(G, "matching"), (1.0, 0.1))
    assert chain.run(chain.fresh_state(), 0, random.Random(0)) == []
    with pytest.raises(ValueError, match="no edges"):
        chain.run(chain.fresh_state(), 1, random.Random(0))


def test_no_trials_and_a_scale_outside_the_unit_interval_raise():
    G = c3()
    a = uniform_assignment(G, "matching")
    with pytest.raises(ValueError, match="trials must be >= 1"):
        sample_assignments(G, a, mcmc_z(G), 0.1, seed=5, trials=0)
    chain = PolymerChain(G, a, mcmc_z(G))
    for x in (-0.5, 1.5):
        with pytest.raises(ValueError, match=r"scale must be in \[0, 1\]"):
            chain.set_scale(x)


def test_draw_without_a_candidate_within_the_budget_is_none():
    # P3 whose middle table is zero on one coloured edge but not on two: the
    # only polymer at edge 0 is the whole path, so a size budget of 1 finds
    # no candidate, and the draw ends without a second uniform
    G = p3()
    leaf = make_signature([1.0, 1.0], 1, 1)
    middle = make_signature([1.0, 0.0, 0.0, 1.0], 2, 1)
    chain = PolymerChain(G, SignatureAssignment(G, [leaf, middle, leaf]), (1.0, 0.01))
    assert [p.size for p, _ in chain._base[0]] == [2]
    rng = random.Random(0)
    before = rng.getstate()
    u = math.exp(-1.5 * chain.rho)  # size budget k = 1
    assert int(-math.log(u) / chain.rho) == 1
    assert chain._draw(0, u, rng) is None
    assert rng.getstate() == before


def test_draw_at_the_largest_first_uniform_is_none():
    # u = k0 = e^{-rho} (1 + 1e-9) gives the size budget k = 0, so the draw
    # ends before its second uniform
    G = k2()
    chain = PolymerChain(G, uniform_assignment(G, "matching"), (1.0, 1e-3))
    assert int(-math.log(chain._k0) / chain.rho) == 0
    rng = random.Random(0)
    before = rng.getstate()
    assert chain._draw(0, chain._k0, rng) is None
    assert rng.getstate() == before


def test_median_is_statistics_median():
    rng = random.Random(MASTER_SEED + 24)
    for count in range(1, 7):
        for _ in range(100):
            values = [rng.choice([1.0, rng.uniform(0.9, 1.1)]) for _ in range(count)]
            assert mcmc_mod._median(values) == statistics.median(values)


def test_mu0_mass_above_one_raises():
    # K2 matching at z1 = 0.5: the single-edge polymer has acceptance mass
    # 0.5 e^rho = 0.5 e^3 > 1
    G = k2()
    chain = PolymerChain(G, uniform_assignment(G, "matching"), (1.0, 0.5))
    message = ("mu0 acceptance mass 10.0428 > 1 at edge 0; "
               "weights violate the sampling condition for this tau")
    rng = random.Random(MASTER_SEED + 23)
    with pytest.raises(ConditionViolated) as info:
        for _ in range(1000):
            chain.mu0(0, rng)
    assert str(info.value) == message
    with pytest.raises(ConditionViolated) as info:
        chain.run(chain.fresh_state(), 1000, rng)
    assert str(info.value) == message


class _TopRandom(random.Random):
    """random() always at its largest value: random.Random returns multiples
    of 2^-53 below 1."""

    def random(self):
        return 1.0 - 2.0**-53


def test_reach_is_the_largest_size_budget_run_draws():
    rng = random.Random(MASTER_SEED + 25)
    for _ in range(20):
        chain = _busy_chain(rng)
        assert int(-math.log(chain._k0 * 2.0**-53) / chain.rho) == chain._reach
        budgets = []
        draw = chain._draw

        def spy(e0, u, r, chain=chain, draw=draw):
            budgets.append(int(-math.log(u) / chain.rho))
            return draw(e0, u, r)

        # every first mu0 uniform run draws is k0 (1 - random()) at its smallest
        chain._draw = spy
        chain.run(chain.fresh_state(), 10**6, _TopRandom(0))
        assert budgets and set(budgets) == {chain._reach}


def _twin_cases():
    """K4 with kappa = 3 (_reach 5), C10 even-parity (_reach 9) and C12 with
    kappa = 1 (_reach 9), each with live polymers above _reach edges."""
    C10, C12 = (MultiGraph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (10, 12))
    ones = [make_signature([1.0] * 4 ** 3, 3, 3)] * 4
    return [(k4(), SignatureAssignment(k4(), ones), (1.0, 1.0, 1.0, 1.0)),
            (C10, uniform_assignment(C10, "even-parity", 0.5), (1.0, 1.0)),
            (C12, SignatureAssignment(C12, [make_signature([1.0, 0.7, 0.7, 0.4], 2, 1)] * 12),
             (1.0, 1.0))]


def _listed_to(chain, reach):
    """chain, listed at every edge to reach edges before it runs: the eager
    build, through the chain's own listing. `_reach` caps what a read of
    `_base` lists, and set_scale powers sizes up to it."""
    chain._reach = reach
    chain.set_scale(1.0)
    for e in range(chain.G.edge_count):
        chain._base[e]
    return chain


def _assert_runs_alike(chains, scales, steps):
    """Each seeded run, at each scale in turn from one state, ends every
    chain in the same state with the same readings."""
    for seed in range(3):
        ends = []
        for c in chains:
            state, rng, readings = c.fresh_state(), random.Random(seed), []
            for x in scales:
                c.set_scale(x)
                readings.append(c.run(state, steps, rng, steps // 100))
            ends.append((state.family(), state.edge_owner, state.occupied,
                         state.total_edges, state.moves, readings))
        assert all(end == ends[0] for end in ends[1:])
        assert ends[0][4]["inserted"] >= 100


def test_capped_chain_runs_as_its_uncapped_twin():
    # polymers above _reach edges are never drawn: a twin that lists every
    # live polymer ends each seeded run in the same state
    for G, a, z in _twin_cases():
        chain = PolymerChain(G, a, z)
        twin = _listed_to(PolymerChain(G, a, z), G.edge_count)
        x = _busy_scale(PolymerChain(G, a, z))
        steps = math.ceil(2000 / chain._k0)  # about 2000 insertion attempts
        _assert_runs_alike([chain, twin], [x], steps)
        assert max(p.size for entries in twin._base for p, _ in entries) > chain._reach
        assert max(p.size for entries in chain._base for p, _ in entries) == chain._reach


def test_lazy_chain_runs_as_its_eager_twin():
    # a chain that lists an edge's candidates when a draw first needs them,
    # up to the draw's budget, draws as a twin listed at every edge to _reach
    # before it runs, also across scale changes, which leave its sums stale
    for G, a, z in _twin_cases()[:2]:
        chain = PolymerChain(G, a, z)
        twin = _listed_to(PolymerChain(G, a, z), chain._reach)
        x = _busy_scale(PolymerChain(G, a, z))
        steps = math.ceil(1000 / chain._k0)
        _assert_runs_alike([chain, twin], [x, x / 2, x], steps)
        assert max(chain._listed) < chain._reach == min(twin._listed)


def test_a_fresh_chain_has_walked_no_set(monkeypatch):
    # building a chain walks nothing; a draw walks from its edge alone, to
    # its size budget, and again only when a later budget passes it
    walks, grow = [], polymers_mod.grow_edge_sets

    def counting(G, seeds, max_edges, visit, extend, touch):
        walks.append((list(seeds), max_edges))
        return grow(G, seeds, max_edges, visit, extend, touch)

    monkeypatch.setattr(polymers_mod, "grow_edge_sets", counting)
    G = k4()
    chain = PolymerChain(G, uniform_assignment(G, "even-parity", 0.5), (1.0, 1e-4))
    assert walks == [] and chain._listed == [0] * G.edge_count
    rng = random.Random(0)

    def budget(k):  # a first mu0 uniform that gives size budget k
        return math.exp(-(k + 0.5) * chain.rho)

    for k, walked in ((2, [([3], 2)]), (1, []), (2, []), (3, [([3], 3)]), (1, [])):
        chain._draw(3, budget(k), rng)
        assert walks == walked
        walks.clear()
    assert chain._listed == [0, 0, 0, 3, 0, 0]
    chain._base
    assert walks == [([e], chain._reach) for e in range(G.edge_count)]
