import functools
import math
import random
from itertools import product

import pytest

from holant import (
    InvalidFugacity,
    MultiGraph,
    NotInF0,
    Signature,
    SignatureAssignment,
    approx_polynomial_report,
    brute_holant,
    fpras_estimate,
    make_signature,
    sample_assignments,
    uniform_assignment,
    verify_kp,
)
from holant.graph import mask_vertices
from holant.mcmc import PolymerChain
from holant.oracle import (
    assignment_to_family,
    connected_edge_supersets,
    enumerate_polymers,
    make_polymer,
    polymer_weight,
    weight_map,
)
from holant.polymers import (
    ColouredPolymer,
    LiveWalk,
    compact_domain,
    family_to_assignment,
    holant_prefactor,
    relabel_ground,
)

from helpers import (
    MASTER_SEED,
    c3,
    k2,
    k4,
    live_pool,
    p3,
    random_f0_assignment,
    random_graph,
    random_instance,
    rel_close,
)


def test_make_polymer_validation():
    G = p3()
    p = make_polymer(G, (0, 1), (1, 1), kappa=1)
    assert p.size == 2
    assert mask_vertices(p.vmask) == [0, 1, 2]
    with pytest.raises(ValueError):
        make_polymer(G, (), ())
    with pytest.raises(ValueError):
        make_polymer(G, (0,), (1, 1))  # length mismatch
    with pytest.raises(ValueError):
        make_polymer(G, (0,), (2,), kappa=1)  # colour out of range
    with pytest.raises(ValueError):
        make_polymer(G, (0,), (0,), kappa=1)  # ground colour not allowed
    # disconnected support must be rejected
    with pytest.raises(ValueError):
        make_polymer(MultiGraph(4, [(0, 1), (2, 3)]), (0, 1), (1, 1))


def test_incompatibility_is_reflexive_and_vertex_based():
    G = p3()
    a = make_polymer(G, (0,), (1,))
    b = make_polymer(G, (1,), (1,))
    assert a.vmask & a.vmask
    assert a.vmask & b.vmask  # share vertex 1
    # vertex-disjoint edges are compatible
    Gp4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    x = make_polymer(Gp4, (0,), (1,))
    y = make_polymer(Gp4, (2,), (1,))
    assert not x.vmask & y.vmask


def test_enumerate_polymers_c3():
    G = c3()
    pols = enumerate_polymers(G, 1, 3)
    assert len(pols) == 7  # 3 singletons + 3 pairs + 1 triangle
    sizes = sorted(p.size for p in pols)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]
    # kappa=2 doubles each edge choice
    pols2 = enumerate_polymers(G, 2, 1)
    assert len(pols2) == 6
    assert len(set(pols2)) == 6


def test_enumerate_polymers_anchor_and_bound():
    rng = random.Random(MASTER_SEED + 5)
    for _ in range(20):
        G = random_graph(rng, max_edges=8, max_degree=3)
        kappa = rng.choice([1, 2])
        delta = max(1, G.max_degree())
        for v in range(G.vertex_count):
            for m in range(1, G.edge_count + 1):
                pols = enumerate_polymers(G, kappa, m, anchor=v)
                assert all(v in mask_vertices(p.vmask) for p in pols)
                assert len(pols) <= (delta * kappa * math.e) ** m / 2


def test_single_edge_polymer_weight_matching():
    G = k2()
    a = uniform_assignment(G, "matching")
    p = make_polymer(G, (0,), (1,))
    w = polymer_weight(G, a, (1.0, 0.3), p)
    assert rel_close(w, 0.3)


def test_polymer_weight_errors():
    G = k2()
    a = uniform_assignment(G, "matching")
    p = make_polymer(G, (0,), (1,))
    with pytest.raises(InvalidFugacity):
        polymer_weight(G, a, (0.0, 0.3), p)
    with pytest.raises(InvalidFugacity):
        polymer_weight(G, a, (1.0,), p)  # colour 1 has no fugacity
    bad = make_signature([0, 1], 1, 1)
    b = SignatureAssignment(G, [bad, bad])
    with pytest.raises(NotInF0):
        polymer_weight(G, b, (1.0, 0.3), p)


def test_family_assignment_bijection_p3():
    G = p3()
    sigma = (1, 1)
    fam = assignment_to_family(G, sigma)
    assert len(fam) == 1
    assert fam[0].edges == (0, 1)
    assert fam[0].colours == (1, 1)
    assert family_to_assignment(G, fam) == sigma


def test_family_assignment_round_trip_random():
    rng = random.Random(MASTER_SEED + 6)
    for _ in range(30):
        G = random_graph(rng, max_edges=8)
        kappa = rng.choice([1, 2])
        sigma = tuple(rng.randint(0, kappa) for _ in range(G.edge_count))
        fam = assignment_to_family(G, sigma)
        assert family_to_assignment(G, fam) == sigma
        # families are pairwise compatible by construction
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                assert not fam[i].vmask & fam[j].vmask


def test_family_to_assignment_rejects_conflicts():
    G = p3()
    a = make_polymer(G, (0,), (1,))
    b = make_polymer(G, (1,), (1,))
    with pytest.raises(ValueError):
        family_to_assignment(G, [a, b])


def test_weight_multiplicativity():
    from holant.oracle import assignment_weight

    rng = random.Random(MASTER_SEED + 7)
    for _ in range(20):
        G, assign = random_instance(rng, max_edges=7)
        kappa = assign.kappa
        z = tuple(
            [1.0 + 0j]
            + [complex(rng.uniform(0.1, 0.6), rng.uniform(-0.2, 0.2)) for _ in range(kappa)]
        )
        sigma = tuple(rng.randint(0, kappa) for _ in range(G.edge_count))
        fam = assignment_to_family(G, sigma)
        pre = holant_prefactor(G, assign, z)
        prod = 1 + 0j
        for p in fam:
            prod *= polymer_weight(G, assign, z, p)
        direct = assignment_weight(G, assign, z, sigma)
        assert abs(pre * prod - direct) <= 1e-9 * max(1.0, abs(direct))


def test_weight_scaling_invariance():
    rng = random.Random(MASTER_SEED + 8)
    G, assign = random_instance(rng, max_edges=6)
    z = tuple([1.0] + [0.2] * assign.kappa)
    pols = enumerate_polymers(G, assign.kappa, G.edge_count)

    def rescaled(s):
        k = complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1))
        return Signature(arity=s.arity, kappa=s.kappa, table=[v * k for v in s.table],
                         name=s.name)

    scaled = SignatureAssignment(G, [rescaled(s) for s in assign.sigs])
    for p in pols:
        w1 = polymer_weight(G, assign, z, p)
        w2 = polymer_weight(G, scaled, z, p)
        assert abs(w1 - w2) <= 1e-9 * max(1.0, abs(w1))


def test_relabel_ground_preserves_holant():
    rng = random.Random(MASTER_SEED + 9)
    for _ in range(10):
        G, assign = random_instance(rng, max_edges=6)
        kappa = assign.kappa
        z = tuple(
            [complex(rng.uniform(0.5, 1.0))]
            + [complex(rng.uniform(0.1, 0.5)) for _ in range(kappa)]
        )
        before = brute_holant(G, assign, z).value
        a2, z2 = relabel_ground(assign, z, kappa)
        after = brute_holant(G, a2, z2).value
        assert rel_close(after, before)
        assert z2[0] == z[kappa]


def test_relabel_ground_refuses_a_bad_colour_or_z():
    a = uniform_assignment(c3(), "matching")
    for colour in (-1, 2):
        with pytest.raises(ValueError, match=f"colour {colour} outside domain 0..1"):
            relabel_ground(a, (1, 0.5), colour)
    with pytest.raises(InvalidFugacity, match="need 2 fugacities, got 3"):
        relabel_ground(a, (1, 0.5, 0.5), 1)


def test_an_assignment_for_another_graph_is_refused():
    # P4's ends have degree 1 where C4's matching tables have arity 2, and
    # C3's assignment has a signature too few for C4; the walk and the
    # prefactor refuse both, so approx, verify_kp and the chain do too
    p4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    z = (1.0, 1e-4)
    for G, H in ((p4, c4), (c4, c3())):
        a = uniform_assignment(H, "matching")
        for run in (lambda: live_pool(G, a, z, 2), lambda: holant_prefactor(G, a, z),
                    lambda: approx_polynomial_report(G, a, z, 0.1),
                    lambda: verify_kp(G, a, z),
                    lambda: sample_assignments(G, a, z, 0.1, seed=1),
                    lambda: fpras_estimate(G, a, z, 0.3, seed=1, reps=1)):
            with pytest.raises(ValueError, match="bound to another graph"):
                run()
    # an equal graph built apart answers as the one the assignment holds
    a = uniform_assignment(c4, "matching")
    same = MultiGraph.from_text(c4.to_text())
    assert same is not a.G
    assert approx_polynomial_report(same, a, z, 0.1).value == \
        approx_polynomial_report(c4, a, z, 0.1).value
    assert verify_kp(same, a, z) == verify_kp(c4, a, z)


def test_compact_domain_drops_zero_fugacities():
    G = c3()
    sig = make_signature([complex(i + 1) for i in range(9)], 2, 2)
    assign = SignatureAssignment(G, [sig] * 3)
    z = (1.0, 0.0, 0.4)
    before = brute_holant(G, assign, z).value
    a2, z2, kept = compact_domain(assign, z)
    assert kept == (0, 2)
    assert a2.kappa == 1
    after = brute_holant(G, a2, z2).value
    assert rel_close(after, before)


def test_remapped_tables_read_the_old_table_per_tuple():
    # new(x) == old(idx[x_1], ..., idx[x_d]), where idx swaps 0 and a colour
    # (relabel_ground) or lists the kept values (compact_domain)
    rng = random.Random(MASTER_SEED + 13)
    for _ in range(20):
        kappa = rng.choice([1, 2, 3])
        G = random_graph(rng, max_edges=6, max_degree=4)
        assign = random_f0_assignment(rng, G, kappa)
        colour = rng.randint(0, kappa)
        perm = list(range(kappa + 1))
        perm[0], perm[colour] = colour, 0
        z = tuple([1.0] + [rng.choice([0.0, 0.3]) for _ in range(kappa)])
        compacted, _, kept = compact_domain(assign, z)
        assert kept == tuple([0] + [c for c in range(1, kappa + 1) if z[c] != 0])
        for new, idx in ((relabel_ground(assign, z, colour)[0], perm), (compacted, kept)):
            for old_s, new_s in zip(assign.sigs, new.sigs):
                assert new_s.kappa == len(idx) - 1
                for x in product(range(len(idx)), repeat=new_s.arity):
                    assert new_s(x) == old_s(tuple(idx[xi] for xi in x))


def _random_sparse_instance(rng, kappa, max_edges):
    """Random graph and tables with zero entries (f(0) kept nonzero), plus
    complex fugacities of which some non-ground ones are exactly zero."""
    G = random_graph(rng, max_edges=max_edges, max_degree=3)
    sigs = []
    for v in range(G.vertex_count):
        d = G.degree(v)
        p_zero = rng.choice([0.0, 0.3, 0.7])
        tab = [0j if rng.random() < p_zero
               else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range((kappa + 1) ** d)]
        tab[0] = complex(rng.uniform(0.4, 1.0), rng.uniform(-0.5, 0.5))
        sigs.append(make_signature(tab, d, kappa))
    z = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))]
    z += [0j if rng.random() < 0.25 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
          for _ in range(kappa)]
    return G, SignatureAssignment(G, sigs), tuple(z)


def _bits(pairs):
    return [(p.edges, p.colours, p.vmask, repr(w)) for p, w in pairs]


def test_live_polymers_equal_filtered_enumeration():
    rng = random.Random(MASTER_SEED + 10)
    for _ in range(300):
        kappa = rng.choice([1, 2, 3])
        G, assign, z = _random_sparse_instance(rng, kappa, 6 if kappa < 3 else 4)
        weights = weight_map(G, assign, z, enumerate_polymers(G, kappa, G.edge_count))
        for m in range(1, G.edge_count + 1):
            ref = [(p, weights[p]) for p in enumerate_polymers(G, kappa, m) if weights[p] != 0]
            assert _bits(live_pool(G, assign, z, m)) == _bits(ref)


def test_a_walk_after_one_that_raised_is_exact():
    # a prepared walk keeps its vertex indices between walks; one cut short
    # by an exception leaves them moved, and the next walk still lists the
    # live polymers a fresh walk lists, seed by seed
    G = k4()
    a = uniform_assignment(G, "even-parity", 0.5)
    walk = LiveWalk(G, a, (1.0, 0.3))

    def listed(w, seed):
        out = []
        w.walk((seed,), G.edge_count, lambda *poly: out.append(poly))
        return out

    def stop(*poly):
        raise RuntimeError("stop")

    for seed in range(G.edge_count):
        with pytest.raises(RuntimeError):
            walk.walk((seed,), G.edge_count, stop)
        assert listed(walk, seed) == listed(LiveWalk(G, a, (1.0, 0.3)), seed) != []


def test_live_polymers_ignore_an_isolated_vertex_outside_f0():
    # an edgeless vertex with f() = 0 is in no polymer, so it neither raises
    # nor changes the pool: the walk builds no f / f(0) table for it
    rng = random.Random(MASTER_SEED + 13)
    for _ in range(100):
        kappa = rng.choice([1, 2, 3])
        G, assign, z = _random_sparse_instance(rng, kappa, 6 if kappa < 3 else 4)
        H = MultiGraph(G.vertex_count + 1, G.edges)
        lone = SignatureAssignment(H, list(assign.sigs) + [make_signature([0], 0, kappa)])
        assert _bits(live_pool(H, lone, z, H.edge_count)) == \
            _bits(live_pool(G, assign, z, G.edge_count))


def test_walks_build_each_signature_table_once(monkeypatch):
    # extensions and quotients are cached on the signature: two walks over
    # one assignment build them once per distinct signature, not per vertex
    # or per walk
    built = []
    for name in ("extensions", "quotients"):
        def counted(s, build=vars(Signature)[name].func, name=name):
            built.append((name, id(s)))
            return build(s)
        prop = functools.cached_property(counted)
        prop.__set_name__(Signature, name)
        monkeypatch.setattr(Signature, name, prop)
    G = MultiGraph(6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)])  # 2x3 grid
    assign = uniform_assignment(G, "even-parity", 0.5)
    first = live_pool(G, assign, (1.0, 0.1), 4)
    assert _bits(live_pool(G, assign, (1.0, 0.1), 4)) == _bits(first)
    distinct = {id(s) for s in assign.sigs}
    assert len(distinct) == 2  # degrees 2 and 3
    assert sorted(built) == sorted((name, key) for name in ("extensions", "quotients")
                                   for key in distinct)


def test_live_polymers_of_matching_are_single_edges():
    rng = random.Random(MASTER_SEED + 11)
    for _ in range(20):
        G = random_graph(rng, max_edges=8, max_degree=4)
        assign = uniform_assignment(G, "matching")
        live = live_pool(G, assign, (1.0, 0.3), G.edge_count)
        assert [p.edges for p, _ in live] == [(e,) for e in range(G.edge_count)]


def _random_tables(rng, G, kappa, zeros):
    """Random non-negative tables, each entry zero with probability zeros,
    with f(0) >= 0.5."""
    sigs = []
    for v in range(G.vertex_count):
        d = G.degree(v)
        tab = [0.0 if rng.random() < zeros else rng.uniform(0.0, 1.0)
               for _ in range((kappa + 1) ** d)]
        tab[0] = rng.uniform(0.5, 1.0)
        sigs.append(make_signature(tab, d, kappa))
    return SignatureAssignment(G, sigs)


def _assert_chain_lists_are_supersets(G, assign, z):
    """The chain's candidates at each edge e0 are the live polymers on the
    connected supersets of e0 with up to min(|E|, _reach) edges."""
    chain = PolymerChain(G, assign, z)
    for e0 in range(G.edge_count):
        entries = []
        for S in connected_edge_supersets(G, e0, min(G.edge_count, chain._reach)):
            vmask = sum(1 << v for v in G.edge_vertices(S))
            for colouring in product(range(1, assign.kappa + 1), repeat=len(S)):
                p = ColouredPolymer(S, colouring, vmask)
                w = polymer_weight(G, assign, z, p).real
                if w > 0:
                    entries.append((p, w))
        entries.sort(key=lambda t: (t[0].size, t[0].sort_key()))
        assert [(p.edges, p.colours, p.vmask, w) for p, w in chain._base[e0]] == \
            [(p.edges, p.colours, p.vmask, w) for p, w in entries]
    return chain


def test_chain_candidate_lists_equal_per_edge_superset_construction():
    rng = random.Random(MASTER_SEED + 12)
    for _ in range(40):
        kappa = rng.choice([1, 2])
        G = random_graph(rng, max_edges=6, max_degree=3)
        assign = _random_tables(rng, G, kappa, 0.4)
        z = tuple([1.0] + [rng.choice([0.0, rng.uniform(0.01, 0.2)]) for _ in range(kappa)])
        _assert_chain_lists_are_supersets(G, assign, z)
    # graphs with more edges than _reach (5 on K4 with kappa = 3, 7 on K5, 9
    # on C12) and, with tables free of zeros, live polymers above it
    K5 = MultiGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    C12 = MultiGraph(12, [(i, (i + 1) % 12) for i in range(12)])
    for G, kappa, reach in ((k4(), 3, 5), (K5, 1, 7), (C12, 1, 9)):
        z = tuple([1.0] + [rng.uniform(0.01, 0.2) for _ in range(kappa)])
        assign = _random_tables(rng, G, kappa, 0.0)
        chain = _assert_chain_lists_are_supersets(G, assign, z)
        assert chain._reach == reach
        assert max(p.size for p, _ in live_pool(G, assign, z, G.edge_count)) > reach
        assert max(p.size for entries in chain._base for p, _ in entries) == reach
