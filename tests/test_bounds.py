import math
import random

import pytest

from holant import (
    GateExceeded,
    InvalidFugacity,
    MultiGraph,
    NotInF0,
    SignatureAssignment,
    make_signature,
    region_bounds,
    uniform_assignment,
    verify_kp,
)
from holant import errors
from holant import graph as graph_mod
from holant import polymers as polymers_mod
from holant.bounds import KpReport, kp_margins, q_factor_fugacity, q_factor_problem
from holant.mcmc import check_chain_conditions
from holant.oracle import enumerate_polymers, weight_map
from holant.polymers import live_polymers

from helpers import MASTER_SEED, c3, corpus, half_bound_z, k2, p3


E = math.e


def test_fugacity_region_values():
    rep = region_bounds("holant-poly", delta=3, kappa=1, r1=1.0)
    assert rep.bound == pytest.approx(1 / (3 * E ** 2 * 2), rel=1e-12)
    assert rep.values["simple"] == rep.bound
    # optimal alpha: (sqrt(r1) sqrt(r1+4) - r1)/2
    alpha = (math.sqrt(1 * 5) - 1) / 2
    assert rep.values["alpha_opt"] == pytest.approx(alpha, rel=1e-12)
    expect = alpha / (1 * 3 * 1 * E ** (alpha + 1) * (alpha + 1))
    assert rep.values["optimal"] == pytest.approx(expect, rel=1e-12)


def test_boolean_is_kappa_one_case():
    for delta in (1, 2, 3, 5):
        for r1 in (1.0, 2.0, 4.0):
            a = region_bounds("boolean", delta=delta, r1=r1)
            b = region_bounds("holant-poly", delta=delta, kappa=1, r1=r1)
            assert a.bound == b.bound
            assert a.values["optimal"] == b.values["optimal"]


def test_matching_region_value():
    rep = region_bounds("matching", delta=3)
    assert rep.bound == pytest.approx(1 / (5 * E), rel=1e-12)
    assert rep.bound == pytest.approx(0.0735759, rel=1e-6)


def test_problem_region_values():
    rep = region_bounds("holant-problem", delta=2, kappa=1)
    edge = 1 / (2 * math.sqrt(E)) * (2 * E) ** -1
    assert rep.values["edge_form"] == pytest.approx(edge, rel=1e-12)
    assert rep.values["vertex_form"] == pytest.approx(0.2058 / 4, rel=1e-12)
    exact_const = (math.sqrt(5) - 1) / (
        (math.sqrt(5) + 1) * E ** ((math.sqrt(5) - 1) / 2)
    )
    assert rep.values["vertex_form_exact"] == pytest.approx(exact_const / 4, rel=1e-12)
    assert exact_const == pytest.approx(0.2058809, abs=5e-7)
    assert rep.bound == pytest.approx(0.0557825, rel=1e-6)
    assert rep.bound == max(rep.values["edge_form"], rep.values["vertex_form"])


def test_mcmc_region_values():
    rep = region_bounds("mcmc-poly", delta=2, kappa=1, r1=1.0)
    assert rep.bound == pytest.approx(1 / (8 * E ** 5), rel=1e-12)
    rep2 = region_bounds("mcmc-problem", delta=2, kappa=1)
    assert rep2.bound == pytest.approx(2 ** -3 * E ** -5, rel=1e-12)


def test_linsys_region_values():
    rep = region_bounds("linsys", r=2, c=1, kappa=1)
    assert rep.bound == pytest.approx(1 / ((2 * E + 1) * math.sqrt(E)), rel=1e-12)
    assert rep.bound == pytest.approx(0.0942321, rel=1e-6)
    # optimal-alpha closed form from the region statement
    s = math.sqrt(8 * E * 2 + 1)
    spec_form = (s - 1) / ((s + 1) * 2 * 1 * 1 * E ** ((s - 1) / (8 * E) + 1))
    assert rep.values["optimal"] == pytest.approx(spec_form, rel=1e-12)


def test_hyper_pm_region_values():
    rep = region_bounds("hyper-pm", delta=3, k=3)
    assert rep.bound == pytest.approx(1 / (5 * E), rel=1e-12)
    # delta=1: single perfect matching per component; optimal collapses to simple
    rep1 = region_bounds("hyper-pm", delta=1, k=2)
    assert rep1.values["optimal"] == pytest.approx(rep1.values["simple"], rel=1e-12)


def test_graph_pm_region_values():
    rep = region_bounds("graph-pm", delta=3)
    printed = 1 / math.sqrt(4.85718 * 2)
    assert rep.values["printed"] == pytest.approx(printed, rel=1e-12)
    assert rep.bound == pytest.approx(0.320843, rel=1e-6)
    exact = math.sqrt(
        (3 - math.sqrt(5)) / (2 * 2 * E ** ((math.sqrt(5) - 1) / 2))
    )
    assert rep.values["exact"] == pytest.approx(exact, rel=1e-12)
    # the rounded paper constant and the exact expression agree to ~6 digits
    assert rep.values["printed"] == pytest.approx(rep.values["exact"], rel=1e-6)


def test_unknown_family_and_bad_params():
    with pytest.raises(ValueError):
        region_bounds("nope", delta=3)
    with pytest.raises(ValueError):
        region_bounds("holant-poly", delta=0, kappa=1, r1=1.0)
    with pytest.raises(ValueError):
        region_bounds("holant-poly", delta=3, kappa=0, r1=1.0)
    with pytest.raises(ValueError):
        region_bounds("holant-poly", delta=3, kappa=1, r1=0.5)  # r1 >= 1
    with pytest.raises(ValueError):
        region_bounds("graph-pm", delta=1)
    with pytest.raises(ValueError):
        region_bounds("linsys", r=1, c=1, kappa=1)
    with pytest.raises(ValueError):
        region_bounds("hyper-pm", delta=3, k=1)


def test_missing_params_raise_value_error_naming_them():
    with pytest.raises(ValueError, match="'matching' needs delta"):
        region_bounds("matching")
    with pytest.raises(ValueError, match="needs kappa, r1"):
        region_bounds("mcmc-poly", delta=3)
    with pytest.raises(ValueError, match="needs r, c"):
        region_bounds("linsys", kappa=1, r=None)


def test_monotone_in_parameters():
    for fam, grid in (
        ("holant-poly", [("delta", range(1, 7)), ("kappa", range(1, 5)), ("r1", (1.0, 2.0, 4.0))]),
        ("matching", [("delta", range(1, 7))]),
        ("holant-problem", [("delta", range(1, 7)), ("kappa", range(1, 5))]),
        ("mcmc-poly", [("delta", range(1, 7)), ("kappa", range(1, 5)), ("r1", (1.0, 2.0, 4.0))]),
        ("mcmc-problem", [("delta", range(1, 7)), ("kappa", range(1, 5))]),
        ("linsys", [("r", range(2, 7)), ("c", range(1, 5)), ("kappa", range(1, 5))]),
        ("hyper-pm", [("delta", range(1, 7)), ("k", range(2, 6))]),
        ("graph-pm", [("delta", range(2, 7))]),
    ):
        base = {
            "delta": 2, "kappa": 1, "r1": 1.0, "r": 2, "c": 1, "k": 2,
        }
        if fam == "graph-pm":
            base["delta"] = 2
        needed = {
            "holant-poly": ("delta", "kappa", "r1"),
            "matching": ("delta",),
            "holant-problem": ("delta", "kappa"),
            "mcmc-poly": ("delta", "kappa", "r1"),
            "mcmc-problem": ("delta", "kappa"),
            "linsys": ("r", "c", "kappa"),
            "hyper-pm": ("delta", "k"),
            "graph-pm": ("delta",),
        }[fam]
        for param, values in grid:
            prev = None
            for val in values:
                kw = {k: base[k] for k in needed}
                kw[param] = val
                bound = region_bounds(fam, **kw).bound
                if prev is not None:
                    assert bound <= prev + 1e-15, (fam, param, val)
                prev = bound


def test_optimal_at_least_simple():
    for delta in range(1, 7):
        for kappa in range(1, 5):
            for r1 in (1.0, 2.0, 4.0):
                rep = region_bounds("holant-poly", delta=delta, kappa=kappa, r1=r1)
                assert rep.values["optimal"] >= rep.values["simple"] - 1e-15
    for r in range(2, 7):
        for c in range(1, 5):
            rep = region_bounds("linsys", r=r, c=c, kappa=1)
            assert rep.values["optimal"] >= rep.values["simple"] - 1e-15
    for delta in range(1, 7):
        for k in range(2, 6):
            rep = region_bounds("hyper-pm", delta=delta, k=k)
            assert rep.values["optimal"] >= rep.values["simple"] - 1e-15


def test_report_renders_as_table():
    rep = region_bounds("holant-poly", delta=3, kappa=2, r1=1.5)
    text = str(rep)
    assert "holant-poly" in text
    assert "simple" in text and "optimal" in text


def test_q_factor_fugacity():
    b = region_bounds("holant-poly", delta=2, kappa=1, r1=1.0).bound
    assert q_factor_fugacity(2, 1, 1.0, (1.0, 0.5 * b)) == pytest.approx(2.0, rel=1e-12)
    assert math.isinf(q_factor_fugacity(2, 1, 1.0, (1.0, 0.0)))
    assert q_factor_fugacity(2, 1, 1.0, (1.0, b)) == pytest.approx(1.0, rel=1e-12)
    for bad in ((1.0, math.nan), (1.0, math.inf), (math.inf, 0.1), (1.0, complex(0, math.nan))):
        with pytest.raises(InvalidFugacity, match="fugacities must be finite"):
            q_factor_fugacity(2, 1, 1.0, bad)


def test_q_factor_problem():
    thr = region_bounds("holant-problem", delta=2, kappa=1).bound
    assert q_factor_problem(2, 1, thr / 2) == pytest.approx(math.sqrt(2), rel=1e-12)
    thr3 = region_bounds("holant-problem", delta=3, kappa=1).bound
    assert q_factor_problem(3, 1, thr3 / 2) == pytest.approx(2 ** (1 / 3), rel=1e-12)
    assert math.isinf(q_factor_problem(2, 1, 0.0))


def test_verify_kp_k2_example():
    G = k2()
    a = uniform_assignment(G, "matching")
    rep = verify_kp(G, a, (1.0, 0.1))
    assert rep.certified
    assert rep.worst_margin == pytest.approx(0.1 * E - 1.0, rel=1e-9)
    rep2 = verify_kp(G, a, (1.0, 0.5))
    assert not rep2.certified
    assert rep2.worst_margin == pytest.approx(0.5 * E - 1.0, rel=1e-9)


def test_verify_kp_certifies_inside_region():
    for G, assign in corpus(25, seed=MASTER_SEED + 15, max_edges=7):
        z = half_bound_z(G, assign)
        rep = verify_kp(G, assign, z)
        assert rep.certified, (G.edges, assign.kappa)


def test_verify_kp_vertex_size():
    G = c3()
    a = uniform_assignment(G, "matching")
    rep = verify_kp(G, a, (1.0, 0.01), size="vertices")
    assert rep.certified
    assert rep.size == "vertices"


def _grid(rows, cols):
    cell = lambda r, c: r * cols + c
    edges = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return MultiGraph(rows * cols, edges)


def _kp_reference(G, assign, z, settings):
    """verify_kp's report at each (alpha, size) of settings, from the textbook
    pool with one margin per polymer: the terms |Phi| e^a summed per vertex
    mask in pool order, then over the masks that meet the polymer's, in order
    of first appearance."""
    pool = enumerate_polymers(G, assign.kappa, G.edge_count)
    wmap = weight_map(G, assign, z, pool)
    reports = []
    for alpha, size in settings:
        a_vals = [alpha * (p.size if size == "edges" else p.vmask.bit_count()) for p in pool]
        agg = {}
        for p, a in zip(pool, a_vals):
            agg[p.vmask] = agg.get(p.vmask, 0.0) + abs(wmap[p]) * math.exp(a)
        lhs = {mask: sum(t for m, t in agg.items() if m & mask) for mask in agg}
        margins = [lhs[p.vmask] - a for p, a in zip(pool, a_vals)]
        reports.append(KpReport(certified=all(m <= 0.0 for m in margins),
                                worst_margin=max(margins), polymer_count=len(pool),
                                alpha=alpha, size=size))
    return reports


def test_verify_kp_matches_the_textbook_pool_past_the_old_shape_gates():
    # a path of 13 edges, C40 and the 3x4 grid (17 edges) passed the old edge
    # gate of 12, and the kappa = 4 table its kappa gate of 3; the kappa = 2
    # path has zero entries in its table and a zero fugacity
    rng = random.Random(MASTER_SEED + 18)
    G = c3()
    sig = make_signature([1.0] + [rng.uniform(-1, 1) for _ in range(24)], 2, 4)
    P6 = MultiGraph(6, [(i, i + 1) for i in range(5)])
    end = make_signature([1, 0.5, -0.5j], 1, 2)
    inner = make_signature([1, 0.3, 0, 0.3j, 0, 0.2, -0.3, 0, 0.1], 2, 2)
    cases = [
        (MultiGraph(14, [(i, i + 1) for i in range(13)]), "matching", (1.0, 0.01)),
        (MultiGraph(40, [(i, (i + 1) % 40) for i in range(40)]), "matching", (1.0, 0.01)),
        (_grid(3, 4), 0.5, (1.0, 0.004)),
        (G, SignatureAssignment(G, [sig] * 3), (1.0, 0.01, 0.02, 0.03, 0.04)),
        (P6, SignatureAssignment(P6, [end] + [inner] * 4 + [end]), (1.0, 0.2, 0)),
        (P6, SignatureAssignment(P6, [end] + [inner] * 4 + [end]), (1.0, 0.05j, 0.1)),
    ]
    for G, sig, z in cases:
        if sig == "matching":
            assign = uniform_assignment(G, "matching")
        elif sig == 0.5:
            assign = uniform_assignment(G, "even-parity", 0.5)
        else:
            assign = sig
        settings = ((1.0, "edges"), (0.7, "vertices"))
        got = [verify_kp(G, assign, z, alpha=alpha, size=size) for alpha, size in settings]
        assert list(map(repr, got)) == list(map(repr, _kp_reference(G, assign, z, settings)))


def test_full_pool_walks_once_and_never_grows_live_polymers(monkeypatch):
    # live_polymers walks through polymers.grow_edge_sets, so a call to it
    # would show as a second walk
    walks, grow = [], graph_mod.grow_edge_sets

    def counting(*args):
        walks.append(args[2])
        return grow(*args)

    monkeypatch.setattr(graph_mod, "grow_edge_sets", counting)
    monkeypatch.setattr(polymers_mod, "grow_edge_sets", counting)
    G = _grid(3, 3)
    a = uniform_assignment(G, "even-parity", 0.5)
    report = verify_kp(G, a, (1.0, 0.004))
    assert walks == [G.edge_count]
    assert report.polymer_count == len(enumerate_polymers(G, 1, G.edge_count))


def test_full_pool_charges_its_colouring_pass_up_front(monkeypatch):
    # verify_kp charges |S| for each of the kappa^|S| colourings of every
    # support S, plus the squared count of distinct vertex masks, once and
    # before any weight: at a gate of exactly that total it answers, one
    # below it raises with the total, and it does so before the NotInF0 of a
    # vertex with f(0) = 0
    def path(n, f0):
        G = MultiGraph(n, [(i, i + 1) for i in range(n - 1)])
        end = make_signature([1, 0.5, 0.5], 1, 2)
        inner = make_signature([1] + [0.1 * k for k in range(1, 9)], 2, 2)
        sigs = [end] + [inner] * (n - 2) + [end]
        sigs[3] = make_signature([f0, 0.3, 0.3, 0.3, 0, 0, 0.3, 0, 0], 2, 2)
        return G, SignatureAssignment(G, sigs)

    star = MultiGraph(5, [(0, v) for v in range(1, 5)])
    star_a = SignatureAssignment(star, [make_signature([1] + [0.1] * 1294 + [0], 4, 5)]
                                 + [make_signature([1] + [0.5] * 5, 1, 5)] * 4)
    for (G, a), z in ((path(10, 1), (1, 0.01, 0.01)), (path(10, 1), (1, 0.01, 0)),
                      ((star, star_a), (1, 0.01, 0.01, 0, 0.01, 0.01)),
                      (path(10, 0), (1, 0.01, 0.01))):
        pool = enumerate_polymers(G, a.kappa, G.edge_count)
        total = sum(p.size for p in pool) + len({p.vmask for p in pool}) ** 2
        monkeypatch.setattr(errors, "WORK_GATE", total - 1)
        with pytest.raises(GateExceeded) as err:
            verify_kp(G, a, z)
        assert str(err.value) == (f"{total} colouring units and vertex-mask pairs "
                                  f"exceed gate {total - 1}")
        monkeypatch.setattr(errors, "WORK_GATE", total)
        if a.sigs[3].f0:
            assert verify_kp(G, a, z).polymer_count == len(pool)
        else:
            with pytest.raises(NotInF0, match="vertex 3"):
                verify_kp(G, a, z)


def test_verify_kp_keeps_the_error_order_of_the_weights():
    # a vertex outside F0 raises live_polymers' NotInF0, word for word, and
    # a gated instance raises GateExceeded before it looks at any signature
    G = p3()
    a = SignatureAssignment(G, [make_signature([1, 1], 1, 1), make_signature([1, 1, 1, 0], 2, 1),
                                make_signature([0, 1], 1, 1)])
    with pytest.raises(NotInF0) as want:
        live_polymers(G, a, (1.0, 0.1), G.edge_count)
    with pytest.raises(NotInF0) as got:
        verify_kp(G, a, (1.0, 0.1))
    assert str(got.value) == str(want.value) == "vertex 2: signature 'table' has f(0,...,0) = 0"
    G = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    sigs = list(uniform_assignment(G, "matching").sigs)
    sigs[50] = make_signature([0, 1, 1, 0], 2, 1)
    a = SignatureAssignment(G, sigs)
    for check in (lambda: verify_kp(G, a, (1.0, 0.01)),
                  lambda: check_chain_conditions(G, a, (1.0, 0.01))):
        with pytest.raises(GateExceeded, match="vertex-mask pairs"):
            check()


def test_verify_kp_gate():
    # C100 has 9,901 connected edge sets on about 9,800 vertex masks, whose
    # 9.6e7 mask pairs pass the work gate before any weight is computed
    G = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    a = uniform_assignment(G, "matching")
    with pytest.raises(GateExceeded, match="vertex-mask pairs"):
        verify_kp(G, a, (1.0, 0.01))


def test_verify_kp_alpha_scaling():
    # alpha rescales a(gamma); tiny alpha makes the self-term dominate
    G = k2()
    a = uniform_assignment(G, "matching")
    assert verify_kp(G, a, (1.0, 0.1), alpha=2.0).certified
    assert not verify_kp(G, a, (1.0, 0.38), alpha=1.0).certified
