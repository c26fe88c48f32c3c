import random
from types import SimpleNamespace

import pytest

from holant import (
    DegenerateDistribution,
    GateExceeded,
    MultiGraph,
    SignatureAssignment,
    UnsupportedWeights,
    brute_holant,
    brute_polymer_z,
    exact_gibbs,
    make_signature,
    uniform_assignment,
)
from holant.oracle import enumerate_polymers, weight_map
from holant.polymers import holant_prefactor
import holant.oracle

from helpers import MASTER_SEED, c3, corpus, k2, rel_close


def test_k2_matching_value():
    G = k2()
    a = uniform_assignment(G, "matching")
    res = brute_holant(G, a, (1.0, 0.25), keep_table=True)
    assert rel_close(res.value, 1.25)
    assert res.terms == 2
    assert rel_close(res.table[(1,)], 0.25)
    assert rel_close(res.table[(0,)], 1.0)


def test_c3_matching_value():
    G = c3()
    a = uniform_assignment(G, "matching")
    for t in (0.0, 0.1, 0.5, 2.0):
        assert rel_close(brute_holant(G, a, (1.0, t)).value, 1 + 3 * t)


def test_translation_identity_small_corpus():
    rng = random.Random(MASTER_SEED + 10)
    for G, assign in corpus(40, seed=MASTER_SEED + 11, max_edges=7):
        kappa = assign.kappa
        z = tuple(
            [1.0 + 0j]
            + [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(kappa)]
        )
        exact = brute_holant(G, assign, z).value
        pols = enumerate_polymers(G, kappa, G.edge_count)
        wm = weight_map(G, assign, z, pols)
        pz = brute_polymer_z(pols, wm)
        assert rel_close(holant_prefactor(G, assign, z) * pz, exact)


def test_polymer_z_reproduces_matching_polynomial():
    # single-edge 'site' polymers, incompatible when edges share an endpoint:
    # the family sum is the matching polynomial of G.
    G = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    a = uniform_assignment(G, "matching")
    t = 0.35
    sites = [
        SimpleNamespace(vmask=(1 << u) | (1 << v)) for u, v in G.edges
    ]
    val = brute_polymer_z(sites, [t] * len(sites))
    assert rel_close(val, brute_holant(G, a, (1.0, t)).value)


def test_exact_gibbs_uniform_on_k2():
    G = k2()
    a = uniform_assignment(G, "matching")
    probs = exact_gibbs(G, a, (1.0, 1.0))
    assert probs[(0,)] == pytest.approx(0.5)
    assert probs[(1,)] == pytest.approx(0.5)


def test_exact_gibbs_c3():
    G = c3()
    a = uniform_assignment(G, "matching")
    t = 0.2
    probs = exact_gibbs(G, a, (1.0, t))
    z = 1 + 3 * t
    assert probs[(0, 0, 0)] == pytest.approx(1 / z)
    assert probs[(1, 0, 0)] == pytest.approx(t / z)
    assert sum(probs.values()) == pytest.approx(1.0)
    assert all(p >= 0 for p in probs.values())


def test_exact_gibbs_rejects_complex_weights():
    G = k2()
    a = SignatureAssignment(G, [make_signature([1, 1j], 1, 1)] * 2)
    with pytest.raises(UnsupportedWeights):
        exact_gibbs(G, a, (1.0, 1.0))
    b = uniform_assignment(G, "matching")
    with pytest.raises(UnsupportedWeights):
        exact_gibbs(G, b, (1.0, -0.5))


def test_exact_gibbs_degenerate():
    G = k2()
    a = SignatureAssignment(
        G, [make_signature([0, 1], 1, 1), make_signature([1, 0], 1, 1)]
    )
    with pytest.raises(DegenerateDistribution):
        exact_gibbs(G, a, (1.0, 1.0))


def test_oracle_accepts_f0_violations():
    # edge-cover style signature: fine for brute force
    G = k2()
    a = SignatureAssignment(G, [make_signature([0, 1], 1, 1)] * 2)
    assert rel_close(brute_holant(G, a, (1.0, 0.5)).value, 0.5)


def test_assignment_gate():
    path = MultiGraph(18, [(i, i + 1) for i in range(17)])
    sigs = [make_signature([1] * 3 ** path.degree(v), path.degree(v), 2)
            for v in range(18)]
    a = SignatureAssignment(path, sigs)
    with pytest.raises(GateExceeded):
        brute_holant(path, a, (1.0, 1.0, 1.0))


def test_family_visit_gate(monkeypatch):
    monkeypatch.setattr(holant.oracle, "BRUTE_FAMILY_GATE", 10)
    sites = [SimpleNamespace(vmask=1 << i) for i in range(8)]
    with pytest.raises(GateExceeded):
        brute_polymer_z(sites, [0.5] * 8)
