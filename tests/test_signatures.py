import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import holant.errors as errors
from holant import (
    GateExceeded,
    MultiGraph,
    NotInF0,
    ParseError,
    Signature,
    SignatureAssignment,
    assignment_from_json,
    assignment_to_json,
    make_signature,
    uniform_assignment,
)
from holant.oracle import vertex_value
from holant.signatures import (
    builtin_signature,
    even_parity_signature,
    matching_signature,
)

from helpers import MASTER_SEED, c3, p3, random_f0_assignment, random_graph


def test_table_gate_charges_the_entries_before_the_build(monkeypatch):
    monkeypatch.setattr(errors, "WORK_GATE", 16)
    assert len(matching_signature(4).table) == 16
    assert len(make_signature([1.0] * 9, 2, 2).table) == 9
    with pytest.raises(GateExceeded, match="^32 signature table entries exceed gate 16$"):
        even_parity_signature(5, 0.5)
    with pytest.raises(GateExceeded, match="^27 signature table entries"):
        make_signature([1.0] * 27, 3, 2)


def test_matching_builtin_values():
    f = matching_signature(2)
    assert f((0, 0)) == 1
    assert f((0, 1)) == 1
    assert f((1, 0)) == 1
    assert f((1, 1)) == 0
    assert list(f.table) == [1, 1, 1, 0]


def test_signature_table_is_a_tuple_of_complex():
    values = [1, 0.5, 2j, 0]
    for given_as in (list, tuple, iter):
        f = Signature(arity=2, kappa=1, table=given_as(values))
        assert f.table == (1 + 0j, 0.5 + 0j, 2j, 0j)
        assert all(type(v) is complex for v in f.table)
    assert make_signature((v for v in range(4)), 2, 1).table == (0j, 1 + 0j, 2 + 0j, 3 + 0j)


def test_matching_arity_zero_is_scalar_one():
    f = matching_signature(0)
    assert f(()) == 1
    assert f.f0 == 1


def test_even_parity_values():
    f = even_parity_signature(2, 0.1)
    assert [complex(x) for x in f.table] == [1, 0.1, 0.1, 1]
    assert f((1, 1)) == 1


def test_index_row_major_first_argument_most_significant():
    # kappa=2, arity=2: index of (a, b) is 3a + b
    tab = list(range(9))
    f = make_signature(tab, 2, 2)
    assert f((1, 0)) == 3
    assert f((0, 1)) == 1
    assert f((2, 2)) == 8


def test_ratio_r():
    assert matching_signature(3).ratio_r() == 1
    f = make_signature([2, 1], 1, 1)
    assert f.ratio_r() == 0.5
    zero_tail = make_signature([1, 0, 0, 0], 2, 1)
    assert zero_tail.ratio_r() == 0
    with pytest.raises(NotInF0):
        make_signature([0, 1], 1, 1).ratio_r()
    # arity 0: no nonzero tuple
    assert make_signature([5.0], 0, 1).ratio_r() == 0


def test_ratio_r_even_parity():
    assert even_parity_signature(2, 0.25).ratio_r() == 1
    assert even_parity_signature(2, 4.0).ratio_r() == 4.0


def test_signatures_compare_and_hash_by_table():
    quarter, four = even_parity_signature(2, 0.25), even_parity_signature(2, 4.0)
    assert quarter != four
    assert len({quarter, four}) == 2
    twin = even_parity_signature(2, 0.25)
    assert twin == quarter and hash(twin) == hash(quarter)
    assert make_signature([1, 2], 1, 1) == make_signature((1 + 0j, 2.0), 1, 1)


@settings(max_examples=30, deadline=None)
@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6),
)
def test_ratio_r_scale_invariant(c, seed):
    rng = random.Random(seed)
    tab = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    tab[0] = 1.0
    f = make_signature(tab, 2, 1)
    g = make_signature([c * t for t in tab], 2, 1)
    assert g.ratio_r() == pytest.approx(f.ratio_r(), rel=1e-9)


def test_index_rejects_a_bad_argument_tuple():
    f = matching_signature(2)
    with pytest.raises(ValueError, match="argument tuple has length 1, arity is 2"):
        f.index((0,))
    with pytest.raises(ValueError, match=r"argument value 2 outside domain 0\.\.1"):
        f.index((0, 2))


def test_class_ratio_skips_isolated_vertices():
    # an arity-0 table has ratio 0 in F0, so r(F) skips it, also off F0
    G = MultiGraph(3, [(0, 1)])
    big = make_signature([1, 3], 1, 1)
    for lone in (make_signature([2], 0, 1), make_signature([0], 0, 1)):
        a = SignatureAssignment(G, [big, big, lone])
        assert a.ratio_r_class() == 3.0 and a.r1() == 3.0
    edgeless = MultiGraph(1, [])
    assert SignatureAssignment(edgeless, [make_signature([0], 0, 1)]).r1() == 1.0


def test_class_ratio_and_r1():
    G = p3()
    a = uniform_assignment(G, "matching")
    assert a.ratio_r_class() == 1
    assert a.r1() == 1
    half = make_signature([2, 1], 1, 1)
    mid = make_signature([2, 1, 1, 1], 2, 1)
    b = SignatureAssignment(G, [half, mid, half])
    assert b.ratio_r_class() == 0.5
    assert b.r1() == 1.0  # clamped
    big = make_signature([1, 3], 1, 1)
    cassign = SignatureAssignment(G, [big, mid, half])
    assert cassign.ratio_r_class() == 3.0
    assert cassign.r1() == 3.0


def test_whole_assignment_queries_read_each_distinct_signature_once(monkeypatch):
    n = 1000
    G = MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    a = uniform_assignment(G, "matching")  # one Signature at every vertex
    calls = {"is_nonneg_real": 0, "ratio_r": 0, "remap": 0}
    for name in calls:
        def counted(self, *args, _name=name, _fn=getattr(Signature, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(Signature, name, counted)
    assert a.is_nonneg_real() and a.ratio_r_class() == 1.0 and a.r1() == 1.0
    assert a.remap([0, 1]).sigs == a.sigs
    assert calls == {"is_nonneg_real": 1, "ratio_r": 2, "remap": 1}
    # two distinct signatures, each read once
    negative = make_signature([1, -1, -1, 0], 2, 1)
    calls.update(dict.fromkeys(calls, 0))
    b = SignatureAssignment(G, [negative if v % 2 else a.sig(0) for v in range(n)])
    assert not b.is_nonneg_real() and b.ratio_r_class() == 1.0
    assert calls["is_nonneg_real"] == 2 and calls["ratio_r"] == 2


def test_assignment_validation():
    G = p3()
    with pytest.raises(ValueError):
        SignatureAssignment(G, [matching_signature(1)] * 2)  # wrong count
    with pytest.raises(ValueError):
        # arity mismatch at the middle vertex
        SignatureAssignment(G, [matching_signature(1)] * 3)
    with pytest.raises(ValueError):
        k2_sig = make_signature([1, 1, 1], 1, 2)
        SignatureAssignment(
            G, [matching_signature(1), matching_signature(2), k2_sig]
        )  # mixed kappa


def test_f0_check():
    G = p3()
    bad = make_signature([0, 1], 1, 1)
    a = SignatureAssignment(G, [bad, matching_signature(2), matching_signature(1)])
    with pytest.raises(NotInF0):
        a.check_f0()
    with pytest.raises(NotInF0):
        a.f0_product()


def test_check_f0_names_the_first_offender_among_the_given_vertices():
    G = MultiGraph(4, [(0, 3), (1, 2)])
    bad = make_signature([0, 1], 1, 1)
    a = SignatureAssignment(G, [matching_signature(1), bad, matching_signature(1), bad])
    with pytest.raises(NotInF0, match="^vertex 1: "):
        a.check_f0()
    with pytest.raises(NotInF0, match="^vertex 3: "):
        a.check_f0([0, 3, 1])
    a.check_f0([0, 2])


def test_check_graph_refuses_another_graph():
    G = c3()
    a = uniform_assignment(G, "matching")
    a.check_graph(G)
    a.check_graph(MultiGraph.from_text(G.to_text()))  # equal, not the same object
    for H in (p3(), MultiGraph(4, G.edges)):
        with pytest.raises(ValueError, match="bound to another graph"):
            a.check_graph(H)


def test_vertex_value_uses_canonical_edge_positions():
    # P3 edges: (0,1)=e0, (1,2)=e1; at vertex 1 position of e0 is 0, e1 is 1
    G = p3()
    assert G.incident(1).index(0) == 0
    assert G.incident(1).index(1) == 1
    tab = [10, 20, 30, 40]  # f(a,b) = 10 + 20*b... distinguishable entries
    f = make_signature(tab, 2, 1)
    b = SignatureAssignment(G, [matching_signature(1), f, matching_signature(1)])
    colours = {0: 1, 1: 0}
    assert vertex_value(b, 1, colours.__getitem__) == 30  # index (1,0) -> 2


def test_json_round_trip_identical_tables():
    rng = random.Random(MASTER_SEED + 4)
    for _ in range(10):
        G = random_graph(rng, max_edges=6)
        a = random_f0_assignment(rng, G, rng.choice([1, 2]))
        b = assignment_from_json(G, assignment_to_json(a))
        assert b.kappa == a.kappa
        for v in range(G.vertex_count):
            assert list(b.sig(v).table) == list(a.sig(v).table)


def test_json_builtin_and_default():
    G = c3()
    text = json.dumps({
        "signatures": {"m": {"builtin": "matching"}},
        "default": "m",
    })
    a = assignment_from_json(G, text)
    assert all(s.name == "matching" for s in a.sigs)
    text2 = json.dumps({"default": {"builtin": "even-parity", "weight": [0.5, 0]}})
    b = assignment_from_json(G, text2)
    assert b.sig(0)((0, 1)) == 0.5


def test_json_builds_each_shared_spec_once():
    # one Signature per (spec, arity): the default spec serves all six
    # vertices of C6, a named spec every vertex that names it, and an inline
    # per-vertex spec only its own vertex
    G = MultiGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    table = {"table": {"kappa": 1, "arity": 2, "values": [1, 1, 1, 0]}}
    a = assignment_from_json(G, json.dumps({"default": table}))
    assert len({id(s) for s in a.sigs}) == 1
    b = assignment_from_json(G, json.dumps({
        "signatures": {"t": table}, "assignment": {"0": "t", "3": "t", "4": table},
        "default": {"builtin": "matching"}}))
    assert b.sig(0) is b.sig(3)
    assert b.sig(4) is not b.sig(0) and b.sig(4).table == b.sig(0).table
    assert b.sig(1) is b.sig(2) is b.sig(5)
    P = MultiGraph(3, [(0, 1), (1, 2)])  # degrees 1, 2, 1: one build per arity
    c = assignment_from_json(P, json.dumps({"default": {"builtin": "matching"}}))
    assert c.sig(0) is c.sig(2) is not c.sig(1)
    assert (c.sig(0).arity, c.sig(1).arity) == (1, 2)


def test_json_errors():
    G = c3()
    with pytest.raises(ParseError):
        assignment_from_json(G, "not json")
    bad_docs = [
        {"assignment": {"0": "missing"}},
        {},  # nothing for vertex 0
        {"default": {"table": {"kappa": 1, "arity": 1, "values": [[1, 0], [0, 0]]}}},  # arity
        [1, 2],  # not an object
        {"default": 5},  # a spec that is not an object
        {"default": {"table": {"kappa": 1, "values": [1, 0, 0, 1]}}},  # no arity
        {"default": {"kind": "matching"}},  # neither builtin nor table
        {"default": {"table": {"kappa": 1, "arity": 2, "values": [1, 0, 0, "x"]}}},
        {"default": {"table": {"kappa": 1, "arity": 2, "values": 5}}},
        {"assignment": [1, 2], "default": {"builtin": "matching"}},
        {"signatures": ["a"], "default": "a"},
        {"default": {"builtin": "nope"}},  # no such builtin
        {"default": {"builtin": "even-parity"}},  # no weight
    ]
    for doc in bad_docs:
        with pytest.raises(ParseError):
            assignment_from_json(G, json.dumps(doc))
    # kappa and arity are JSON integers >= 0, never read through int()
    for field, value in BAD_SHAPES:
        table = {"kappa": 1, "arity": 2, "values": [1, 0, 0, 1]}
        table[field] = value
        with pytest.raises(ParseError, match=f"table {field} must be an integer >= 0"):
            assignment_from_json(G, json.dumps({"default": {"table": table}}))
    # an assignment key names a vertex of G as str(v) does, and a JSON
    # boolean is not a number, in a table or as a weight
    parity = {"builtin": "even-parity", "weight": 0.5}
    for key in ("7", "01", "-1", " 2"):
        doc = {"assignment": {"1": parity, key: parity}, "default": {"builtin": "matching"}}
        with pytest.raises(ParseError, match=f"assignment key {key!r} is not a vertex"):
            assignment_from_json(G, json.dumps(doc))
    for spec in ({"table": {"kappa": 1, "arity": 2, "values": [True, True, True, False]}},
                 {"table": {"kappa": 1, "arity": 2, "values": [1, [1, False], 1, 0]}},
                 {"builtin": "even-parity", "weight": True}):
        with pytest.raises(ParseError, match="a boolean is not a number"):
            assignment_from_json(G, json.dumps({"default": spec}))
    # a JSON integer past the float range names the entry, as a boolean does
    past = r"number 1000+\.\.\. \(401 characters\) is past the float range"
    with pytest.raises(ParseError, match=past):
        assignment_from_json(G, json.dumps({"default": {"table": {
            "kappa": 1, "arity": 2, "values": [1, 1, 1, 10**400]}}}))
    with pytest.raises(ParseError, match="expected number or"):
        assignment_from_json(G, json.dumps({"default": {"table": {
            "kappa": 1, "arity": 2, "values": [1, ["1", "0"], 1, 0]}}}))
    # a misspelt top-level key is refused, not dropped: C3 would answer as
    # the default's matching
    doc = {"assigment": {"0": {"builtin": "even-parity", "weight": 0.5}},
           "default": {"builtin": "matching"}}
    with pytest.raises(ParseError, match="unknown top-level key 'assigment'"):
        assignment_from_json(G, json.dumps(doc))


BAD_SHAPES = [("kappa", 1.5), ("kappa", True), ("kappa", "1"), ("kappa", -1),
              ("arity", 2.7), ("arity", "2"), ("arity", -1)]


def test_signature_refuses_a_bad_arity_or_kappa():
    for field, value in BAD_SHAPES + [("arity", 2.0), ("kappa", None)]:
        shape = {"arity": 2, "kappa": 1}
        shape[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            make_signature([1, 0, 0, 1], **shape)
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 0"):
            Signature(table=[1, 0, 0, 1], **shape)
    with pytest.raises(ValueError, match="arity must be an integer >= 0"):
        make_signature([], -1, 1)
    with pytest.raises(ValueError, match="arity must be an integer >= 0"):
        matching_signature(-1)
    with pytest.raises(ValueError, match="kappa must be an integer >= 0"):
        make_signature([1], 1, -1)
    with pytest.raises(ValueError, match="arity must be an integer >= 0"):
        make_signature([1], -1, -1)  # before the gate computes 0 ** -1
    assert make_signature([1], 0, 0).table == (1 + 0j,)


def test_uniform_assignment_requires_boolean_domain():
    # builtin signatures are Boolean, and no parameter asks for another domain
    assert uniform_assignment(c3(), "matching").kappa == 1
    with pytest.raises(TypeError):
        uniform_assignment(c3(), "matching", kappa=2)
    with pytest.raises(ValueError):
        builtin_signature("nope", 2)


def test_extensions_of_matching_are_popcount_at_most_one():
    for d in range(6):
        ext = matching_signature(d).extensions
        assert ext == tuple(bin(i).count("1") <= 1 for i in range(2**d))


def test_extensions_against_brute_force():
    # ext[x] is True when setting some 0 arguments of x to colours 1..kappa
    # (or none) reaches a nonzero entry
    rng = random.Random(MASTER_SEED + 14)
    for kappa in (1, 2, 3):
        for d in range(6):
            for p_zero in (0.5, 0.9, 0.99):
                tab = [0.0 if rng.random() < p_zero else 1.0 for _ in range((kappa + 1) ** d)]
                s = make_signature(tab, d, kappa)
                brute = tuple(
                    any(s(y) != 0 for y in product(*[range(kappa + 1) if xi == 0 else (xi,)
                                                     for xi in x]))
                    for x in product(range(kappa + 1), repeat=d)
                )
                assert s.extensions == brute
