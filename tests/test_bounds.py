import math
import random

import pytest

from holant import (
    GateExceeded,
    MultiGraph,
    NotInF0,
    SignatureAssignment,
    make_signature,
    region_bounds,
    uniform_assignment,
    verify_kp,
)
from holant import errors
from holant import polymers as polymers_mod
from holant.bounds import KpReport
from holant.mcmc import check_chain_conditions
from holant.oracle import enumerate_polymers, polymer_weight, weight_map

from helpers import MASTER_SEED, c3, corpus, half_bound_z, k2, live_pool, p3


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


def test_int_parameters_refuse_fractional_and_boolean_values():
    # int() would read delta = 2.5 as the Delta = 2 radius and True as 1
    for family, params, name in (("matching", {"delta": 2.5}, "delta"),
                                 ("matching", {"delta": True}, "delta"),
                                 ("holant-problem", {"delta": 3, "kappa": 1.5}, "kappa"),
                                 ("linsys", {"r": 3, "c": False, "kappa": 1}, "c"),
                                 ("hyper-pm", {"delta": 2, "k": math.inf}, "k"),
                                 ("hyper-pm", {"delta": math.nan, "k": 3}, "delta")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            region_bounds(family, **params)
    # a whole float reads as its int; r1 stays a float parameter
    assert region_bounds("matching", delta=3.0).bound == region_bounds("matching", delta=3).bound
    assert region_bounds("holant-poly", delta=3, kappa=1, r1=2.5).params["r1"] == 2.5


def test_report_renders_as_table():
    G = k2()
    reports = [
        (region_bounds("holant-poly", delta=3, kappa=2, r1=1.5),
         ["holant-poly", "simple", "optimal"]),
        (verify_kp(G, uniform_assignment(G, "matching"), (1.0, 0.1)),
         ["KP condition certified", "from 1 live polymers of at most 1 edges",
          "(a = 1.0 * edges)"]),
    ]
    for rep, words in reports:
        text = str(rep)
        assert all(w in text for w in words), text


def test_verify_kp_k2_example():
    G = k2()
    a = uniform_assignment(G, "matching")
    # one live polymer, the edge itself, through each vertex and no tail:
    # L(v) = |z1| e^1 against theta = alpha / 2
    rep = verify_kp(G, a, (1.0, 0.1))
    assert rep.certified
    assert rep.worst_margin == pytest.approx(0.1 * E - 0.5, rel=1e-9)
    assert (rep.order, rep.tail, rep.polymer_count) == (1, 0.0, 1)
    rep2 = verify_kp(G, a, (1.0, 0.5))
    assert not rep2.certified
    assert rep2.worst_margin == pytest.approx(0.5 * E - 0.5, rel=1e-9)


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
    with pytest.raises(ValueError, match="size must be 'edges' or 'vertices'"):
        verify_kp(G, a, (1.0, 0.01), size="faces")


def _grid(rows, cols):
    cell = lambda r, c: r * cols + c
    edges = [(cell(r, c), cell(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(cell(r, c), cell(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return MultiGraph(rows * cols, edges)


def _kp_reference(G, assign, z, settings):
    """Whether the Kotecky-Preiss condition holds at each (alpha, size) of
    settings, from the textbook full pool with one margin per polymer: the
    terms |Phi| e^a summed over the polymers that meet it."""
    pool = enumerate_polymers(G, assign.kappa, G.edge_count)
    wmap = weight_map(G, assign, z, pool)
    out = []
    for alpha, size in settings:
        a_vals = [alpha * (p.size if size == "edges" else p.vmask.bit_count()) for p in pool]
        agg = {}
        for p, a in zip(pool, a_vals):
            agg[p.vmask] = agg.get(p.vmask, 0.0) + abs(wmap[p]) * math.exp(a)
        lhs = {mask: sum(t for m, t in agg.items() if m & mask) for mask in agg}
        margins = [lhs[p.vmask] - a for p, a in zip(pool, a_vals)]
        out.append(all(m <= 0.0 for m in margins))
    return out


def _local_kp_reference(G, assign, z, alpha, size):
    """verify_kp's report from the textbook: L(v) as the sum of |Phi| e^a
    over `enumerate_polymers` through v of at most m = min(|E|, 4) edges,
    weighed one by one by `polymer_weight`, plus deg(v) T, with T the plain
    sum of its terms (e(2 Delta - 2))^{k-1} s^k R^{k+1} e^{a_k}."""
    m = min(G.edge_count, 4)
    a_of = lambda p: alpha * (p.size if size == "edges" else p.vmask.bit_count())
    live = [p for p in enumerate_polymers(G, assign.kappa, m)
            if polymer_weight(G, assign, z, p) != 0] if m else []
    load = [sum(abs(polymer_weight(G, assign, z, p)) * math.exp(a_of(p))
                for p in enumerate_polymers(G, assign.kappa, m, anchor=v))
            if G.degree(v) else 0.0 for v in range(G.vertex_count)]
    delta = G.max_degree()
    s = sum(abs(complex(t) / complex(z[0])) for t in z[1:])
    R = max([1.0] + [abs(x / f.table[0]) for v, f in enumerate(assign.sigs)
                     if G.degree(v) for x in f.table])
    T = sum((E * (2 * delta - 2)) ** (k - 1) * s ** k * R ** (k + 1)
            * math.exp(alpha * (k if size == "edges" else k + 1))
            for k in range(m + 1, G.edge_count + 1))
    theta = alpha if size == "vertices" else alpha / 2
    margins = [load[v] + G.degree(v) * T - theta
               for v in range(G.vertex_count) if G.degree(v)]
    return KpReport(certified=all(x <= 0.0 for x in margins),
                    worst_margin=max(margins, default=-math.inf), polymer_count=len(live),
                    alpha=alpha, size=size, order=m, tail=delta * T)


def _assert_same_report(got, want):
    assert (got.certified, got.polymer_count, got.order, got.alpha, got.size) == \
        (want.certified, want.polymer_count, want.order, want.alpha, want.size)
    assert got.tail == pytest.approx(want.tail, rel=1e-12, abs=1e-300)
    assert got.worst_margin == pytest.approx(want.worst_margin, rel=1e-12, abs=1e-12)


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
        for alpha, size in ((1.0, "edges"), (0.7, "vertices")):
            _assert_same_report(verify_kp(G, assign, z, alpha=alpha, size=size),
                                _local_kp_reference(G, assign, z, alpha, size))


def test_verify_kp_is_exact_against_the_textbook_local_sums():
    # random graphs up to 8 edges (so some have a tail) with dense complex
    # tables, from far inside to far outside the region, at both sizes
    rng = random.Random(MASTER_SEED + 41)
    for G, assign in corpus(60, seed=MASTER_SEED + 41, max_edges=8):
        z = half_bound_z(G, assign, rng.choice([0.5, 2.0, 8.0, 40.0]))
        for alpha, size in ((1.0, "edges"), (0.7, "vertices"), (2.5, "edges")):
            _assert_same_report(verify_kp(G, assign, z, alpha=alpha, size=size),
                                _local_kp_reference(G, assign, z, alpha, size))


def test_local_certificate_is_sound():
    # whenever the per-vertex sums certify, the full pool satisfies the
    # condition too; at and inside the region bound they certify every case
    # the full pool does
    rejected = 0
    for G, assign in corpus(200, seed=MASTER_SEED + 43, max_edges=6):
        for frac in (0.5, 1.0, 2.0, 4.0, 8.0):
            z = half_bound_z(G, assign, frac)
            settings = ((1.0, "edges"), (1.0, "vertices"))
            full = _kp_reference(G, assign, z, settings)
            for (alpha, size), full_ok in zip(settings, full):
                local_ok = verify_kp(G, assign, z, alpha=alpha, size=size).certified
                assert full_ok or not local_ok, (G.edges, assign.kappa, frac, size)
                if frac <= 1.0:
                    assert local_ok or not full_ok, (G.edges, assign.kappa, frac, size)
                rejected += not local_ok
    assert rejected > 0  # the scales reach past what the certificate accepts


def test_direct_checks_and_verify_kp_walk_once(monkeypatch):
    # the chain's direct checks walk the live polymers once, to |E| edges, and
    # verify_kp once, to m = min(|E|, 4) edges; a second walk_live would
    # show as a second walk
    walks, grow = [], polymers_mod.grow_edge_sets

    def counting(*args):
        walks.append(args[2])
        return grow(*args)

    monkeypatch.setattr(polymers_mod, "grow_edge_sets", counting)
    G = _grid(3, 3)
    a = uniform_assignment(G, "even-parity", 0.5)
    check_chain_conditions(G, a, (1.0, 0.004))
    assert walks == [G.edge_count]
    walks.clear()
    report = verify_kp(G, a, (1.0, 0.004))
    assert walks == [4] and report.order == 4
    assert report.polymer_count == len(live_pool(G, a, (1.0, 0.004), 4))


def test_direct_checks_charge_only_their_walk(monkeypatch):
    # the chain's direct checks charge nothing past their live-polymer walk,
    # |S| for every set it visits: at a gate of exactly that total they
    # answer, and one below it they raise the walk's GateExceeded. A vertex
    # with f(0) = 0 raises NotInF0 before the walk starts, at any gate.
    def path(n, f0):
        G = MultiGraph(n, [(i, i + 1) for i in range(n - 1)])
        end = make_signature([1, 0.5, 0.5], 1, 2)
        inner = make_signature([1] + [0.1 * k for k in range(1, 9)], 2, 2)
        sigs = [end] + [inner] * (n - 2) + [end]
        sigs[3] = make_signature([f0, 0.3, 0.3, 0.3, 0, 0, 0.3, 0, 0], 2, 2)
        return G, SignatureAssignment(G, sigs)

    units, grow, gate = [], polymers_mod.grow_edge_sets, errors.WORK_GATE

    def counting(G, seeds, max_edges, visit, extend, touch):
        return grow(G, seeds, max_edges, lambda stack: units.append(len(stack)) or visit(stack),
                    extend, touch)

    star = MultiGraph(5, [(0, v) for v in range(1, 5)])
    star_a = SignatureAssignment(star, [make_signature([1] + [0.1] * 1294 + [0], 4, 5)]
                                 + [make_signature([1] + [0.5] * 5, 1, 5)] * 4)
    for (G, a), z in ((path(10, 1), (1, 0.01, 0.01)), (path(10, 1), (1, 0.01, 0)),
                      ((star, star_a), (1, 0.01, 0.01, 0, 0.01, 0.01))):
        units.clear()
        monkeypatch.setattr(errors, "WORK_GATE", gate)
        monkeypatch.setattr(polymers_mod, "grow_edge_sets", counting)
        want = check_chain_conditions(G, a, z)
        monkeypatch.setattr(polymers_mod, "grow_edge_sets", grow)
        total = sum(units)
        monkeypatch.setattr(errors, "WORK_GATE", total - 1)
        with pytest.raises(GateExceeded) as err:
            check_chain_conditions(G, a, z)
        assert str(err.value) == f"{total} units of edge-set walk exceed gate {total - 1}"
        monkeypatch.setattr(errors, "WORK_GATE", total)
        assert check_chain_conditions(G, a, z) == want
    G, a = path(10, 0)
    monkeypatch.setattr(errors, "WORK_GATE", 0)
    with pytest.raises(NotInF0, match="vertex 3"):
        check_chain_conditions(G, a, (1, 0.01, 0.01))


def test_verify_kp_keeps_the_error_order_of_the_weights():
    # a vertex outside F0 raises walk_live's NotInF0, word for word, in
    # verify_kp and in the chain's direct checks, whose walks on C100 are small
    # and meet the signature
    G = p3()
    a = SignatureAssignment(G, [make_signature([1, 1], 1, 1), make_signature([1, 1, 1, 0], 2, 1),
                                make_signature([0, 1], 1, 1)])
    with pytest.raises(NotInF0) as want:
        live_pool(G, a, (1.0, 0.1), G.edge_count)
    with pytest.raises(NotInF0) as got:
        verify_kp(G, a, (1.0, 0.1))
    assert str(got.value) == str(want.value) == "vertex 2: signature 'table' has f(0,...,0) = 0"
    G = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    sigs = list(uniform_assignment(G, "matching").sigs)
    sigs[50] = make_signature([0, 1, 1, 0], 2, 1)
    a = SignatureAssignment(G, sigs)
    with pytest.raises(NotInF0, match="vertex 50: signature 'table' has f"):
        verify_kp(G, a, (1.0, 0.01))
    with pytest.raises(NotInF0, match="vertex 50: signature 'table' has f"):
        check_chain_conditions(G, a, (1.0, 0.01))


def test_verify_kp_gate(monkeypatch):
    # verify_kp walks only the live polymers of up to 4 edges: on C100 under
    # matching the 100 single edges, charging one unit each
    G = MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)])
    a = uniform_assignment(G, "matching")
    rep = verify_kp(G, a, (1.0, 0.01))
    assert rep.certified and rep.order == 4 and rep.polymer_count == 100
    monkeypatch.setattr(errors, "WORK_GATE", 99)
    with pytest.raises(GateExceeded, match="^100 units of edge-set walk exceed gate 99$"):
        verify_kp(G, a, (1.0, 0.01))


def test_verify_kp_alpha_scaling():
    # alpha rescales a(gamma); tiny alpha makes the self-term dominate
    G = k2()
    a = uniform_assignment(G, "matching")
    assert verify_kp(G, a, (1.0, 0.1), alpha=2.0).certified
    assert not verify_kp(G, a, (1.0, 0.38), alpha=1.0).certified
