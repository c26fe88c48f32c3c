"""End-to-end coverage of the command-line interface.

Every test drives holant.cli.main directly (fast, in-process); two tests also
run the module in a fresh interpreter, to check that it is executable and that
repeated in-process calls report what one-shot runs report.
"""

import cmath
import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from holant import (
    FAMILIES,
    MultiGraph,
    brute_holant,
    brute_weighted_count,
    parse_matrix_file,
    region_bounds,
    uniform_assignment,
)
from holant.oracle import (
    cluster_log_coefficients,
    enumerate_clusters,
    enumerate_polymers,
    weight_map,
)
from holant.polymers import holant_prefactor
from holant.bounds import PARAM_TYPES
import holant.cli as cli
from holant.cli import build_parser, main, parse_complex, parse_z
from holant import errors
from holant.errors import InvalidFugacity, ParseError

from helpers import MASTER_SEED, half_bound_z, rel_close

K2_TEXT = "2 1\n0 1\n"
C3_TEXT = "3 3\n0 1\n1 2\n0 2\n"
C4_TEXT = "4 4\n0 1\n1 2\n2 3\n0 3\n"

MATRIX_TEXT = "1 2\n1 -1\ncaps: 1 1\nweights: 0.5 0.0 0.5 0.0\n"
MATRIX_R1_TEXT = "1 1\n1\ncaps: 2\nweights: 0.5 0.0\n"
MATRIX_GATE_TEXT = "1 2\n1 -1\ncaps: 5000 5000\nweights: 0.1 0.0 0.1 0.0\n"

GRAPH_PM_TEXT = "4 4\n0 1\n1 2\n2 3\n0 3\nmatching: 0 3\n"
HYPER_PM_TEXT = "6 4\n0 1 2\n3 4 5\n0 1 3\n2 4 5\nmatching: 0 1\n"
K2_PM_TEXT = "2 1\n0 1\nmatching: 0\n"
MIXED_PM_TEXT = "5 2\n0 1\n2 3 4\nmatching: 0 1\n"

F0_ZERO_SIG = json.dumps(
    {"default": {"table": {"kappa": 1, "arity": 1, "values": [[0, 0], [1, 0]]}}}
)
KAPPA0_SIG = json.dumps({"default": {"table": {"kappa": 0, "arity": 2, "values": [2]}}})


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "k2": write("k2.txt", K2_TEXT),
        "c3": write("c3.txt", C3_TEXT),
        "c4": write("c4.txt", C4_TEXT),
        "matrix": write("m.txt", MATRIX_TEXT),
        "matrix_r1": write("m1.txt", MATRIX_R1_TEXT),
        "matrix_gate": write("mg.txt", MATRIX_GATE_TEXT),
        "gpm": write("c4pm.txt", GRAPH_PM_TEXT),
        "hpm": write("hpm.txt", HYPER_PM_TEXT),
        "k2pm": write("k2pm.txt", K2_PM_TEXT),
        "mixedpm": write("mixedpm.txt", MIXED_PM_TEXT),
        "f0zero": write("f0zero.json", F0_ZERO_SIG),
        "kappa0": write("kappa0.json", KAPPA0_SIG),
        "tmp": str(tmp_path),
    }


def _finite_or_none(value):
    """value with each non-finite float as None, lists for tuples: what the
    report writer must print as json.dumps would."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _dumps(value):
    return json.dumps(_finite_or_none(value), indent=2, sort_keys=True, allow_nan=False)


@pytest.fixture(autouse=True)
def written(monkeypatch):
    """Every report the commands of a test write as JSON, each checked to
    print as json.dumps prints it."""
    reports, write = [], cli._json_text

    def checked(value, indent="\n"):
        text = write(value, indent)
        if indent == "\n":  # a whole report, not a nested value
            assert text == _dumps(value)
            reports.append(value)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
    return reports


def run_json(capsys, argv):
    rc = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# Argument helpers


def test_parse_complex_accepts_i_and_j():
    assert parse_complex("0.5+0.25i") == 0.5 + 0.25j
    assert parse_complex(" -2j ") == -2j
    assert parse_complex("3") == 3 + 0j
    with pytest.raises(ParseError):
        parse_complex("nope")


def test_parse_z():
    assert parse_z("1,0.5,0.25") == (1 + 0j, 0.5 + 0j, 0.25 + 0j)
    assert parse_z("1, 0.5i") == (1 + 0j, 0.5j)
    # a blank entry is an error, never skipped
    for text in (",,", "1,,0.5", "1,0.5,", ",1,0.5", "1, ,0.5", ""):
        with pytest.raises(ParseError):
            parse_z(text)
    # "inf" does not parse ("i" reads as the imaginary unit), but 1e999 is inf
    for text in ("1,nan", "1,1e999", "nan", "1,-1e999+0.5i", "1,nanj"):
        with pytest.raises(InvalidFugacity, match="fugacities must be finite"):
            parse_z(text)


# ---------------------------------------------------------------------------
# Top-level parser behaviour


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for sub in ("approx", "sample", "count-mcmc", "oracle", "bounds",
                "verify-kp", "linsys", "pm"):
        assert sub in text


def test_subcommand_help_lists_flags(capsys):
    assert main(["approx", "--help"]) == 0
    text = capsys.readouterr().out
    for flag in ("--graph", "--sig", "--z", "--eps", "--format", "--out"):
        assert flag in text


def test_approx_has_no_order_override(capsys, files):
    # approx always runs at the certified order; an order flag is a usage error
    argv = ["approx", "--graph", files["c3"], "--sig", "matching",
            "--z", "1,0.01", "--eps", "0.1"]
    assert main(argv) == 0
    assert main(argv + ["--order", "6"]) == 1
    assert "--order" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["approx", "--graph", "x"]) == 1  # missing required flags
    assert main(["approx", "--nope"]) == 1
    capsys.readouterr()


def test_repeated_in_process_calls_are_independent(capsys, files):
    # main builds its parser once per process; no call may see another's
    # options, and each report equals that of a fresh interpreter
    assert build_parser() is build_parser()
    out = files["tmp"] + "/a.json"
    approx = ["approx", "--graph", files["k2"], "--sig", "matching", "--z", "1,0.05",
              "--eps", "0.01", "--out", out]
    linsys = ["linsys", "--matrix", files["matrix"]]
    seeded = ["sample", "--graph", files["k2"]] + SAMPLE_ARGS + ["--seed", "5"]
    derived = seeded[:-2]
    reports = {}
    reports["approx"] = run_json(capsys, approx)
    with open(out) as fh:
        assert json.load(fh) == reports["approx"]
    Path(out).unlink()
    reports["linsys"] = run_json(capsys, linsys)
    assert not Path(out).exists()  # approx's --out does not carry over to linsys
    reports["seeded"] = run_json(capsys, seeded)
    reports["derived"] = run_json(capsys, derived)
    assert reports["seeded"]["seed"] == 5 and reports["derived"]["seed"] != 5
    # a call without --format prints text after JSON calls
    assert main(linsys) == 0
    assert capsys.readouterr().out.startswith("command: linsys\n")
    # usage, help and version go to the streams of the call that prints them
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["approx", "--graph", files["k2"]]) == 1
    assert err.getvalue().startswith("usage: holant approx") and "required" in err.getvalue()
    assert run_json(capsys, linsys) == reports["linsys"]
    for flag in ("--help", "--version"):
        assert main([flag]) == 0
        first = capsys.readouterr().out
        with contextlib.redirect_stdout(io.StringIO()) as again:
            assert main([flag]) == 0
        assert first and again.getvalue() == first
    for name, argv in (("approx", approx), ("linsys", linsys), ("seeded", seeded),
                       ("derived", derived)):
        proc = subprocess.run([sys.executable, "-m", "holant.cli", *argv, "--format", "json"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == reports[name], name


# ---------------------------------------------------------------------------
# approx


def test_approx_polynomial_route(capsys, files):
    rep = run_json(capsys, [
        "approx", "--graph", files["k2"], "--sig", "matching",
        "--z", "1,0.05", "--eps", "0.01",
    ])
    assert rep["command"] == "approx"
    assert rep["diagnostics"]["theorem"] == "fugacity"
    value = complex(*rep["result"]["value"])
    assert abs(value - 1.05) <= 0.01  # exact K2 matching value is 1 + z1


def test_approx_agrees_with_the_cluster_sum(capsys, files):
    # the explicit cluster sum is the reference for the truncated series; an
    # eps whose certified order is 6 keeps its multiset enumeration affordable
    argv = ["approx", "--graph", files["c4"], "--sig", "even-parity:0.02",
            "--z", "1,0.02", "--eps", "0.05"]
    rep = run_json(capsys, argv)
    value = complex(*rep["result"]["value"])
    m = rep["diagnostics"]["truncation_order"]
    assert m == 6
    G = MultiGraph.from_text(C4_TEXT)
    a = uniform_assignment(G, "even-parity", 0.02)
    z = (1.0, 0.02)
    pool = enumerate_polymers(G, 1, G.edge_count)
    wmap = weight_map(G, a, z, pool)
    live = [p for p in pool if wmap[p] != 0]
    coeffs = cluster_log_coefficients(enumerate_clusters(live, m), wmap, m)
    assert rel_close(value, holant_prefactor(G, a, z) * cmath.exp(sum(coeffs)), 1e-10)


def test_approx_matches_oracle(capsys, files):
    argv = ["--graph", files["c4"], "--sig", "even-parity:0.02", "--z", "1,0.02"]
    approx = run_json(capsys, ["approx"] + argv + ["--eps", "0.01"])
    oracle = run_json(capsys, ["oracle"] + argv)
    va = complex(*approx["result"]["value"])
    vo = complex(*oracle["result"]["value"])
    assert abs(va / vo - 1) <= 0.01


def test_kappa_zero_approx_matches_oracle_and_chains_exit_1(capsys, files):
    # one colour: Z = f(0)^|V| = 8 on C3, with or without --z
    argv = ["--graph", files["c3"], "--sig", files["kappa0"]]
    oracle = run_json(capsys, ["oracle"] + argv)["result"]["value"]
    assert oracle == [8.0, 0.0]
    for z in ([], ["--z", "1"]):
        rep = run_json(capsys, ["approx"] + argv + z + ["--eps", "0.1"])
        assert rep["result"]["value"] == oracle
    # the chains have no kappa = 0 region, and say so
    for cmd in ("sample", "count-mcmc"):
        assert main([cmd] + argv + ["--eps", "0.1", "--seed", "1"]) == 1
        assert "need delta,kappa >= 1 and r1 >= 1" in capsys.readouterr().err


def test_kappa_zero_verify_kp_exits_1(capsys, files):
    # a pool of no polymers would certify vacuously; the weights refuse kappa 0
    assert main(["verify-kp", "--graph", files["c3"], "--sig", files["kappa0"]]) == 1
    assert "kappa must be >= 1" in capsys.readouterr().err


def test_negative_first_fugacity_needs_the_equals_form(capsys, files):
    # argparse reads "-1,0.5" after a space as an option, so that form exits 1
    argv = ["oracle", "--graph", files["c3"], "--sig", "matching"]
    assert main(argv + ["--z", "-1,0.5"]) == 1
    assert "--z: expected one argument" in capsys.readouterr().err
    rep = run_json(capsys, argv + ["--z=-1,0.5"])
    G = MultiGraph.from_text(C3_TEXT)
    exact = brute_holant(G, uniform_assignment(G, "matching"), (-1.0, 0.5)).value
    assert complex(*rep["result"]["value"]) == exact == 0.5


def test_approx_problem_route_region_violation(capsys, files):
    # all-ones matching weights sit far outside both regions, with or without
    # --z, and the error names each certificate's q
    argv = ["approx", "--graph", files["c3"], "--sig", "matching", "--eps", "0.1"]
    for z in ([], ["--z", "1,1"]):
        assert main(argv + z) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no certificate gives q > 1")
        assert "fugacity region bound" in err and "problem region bound" in err
        assert err.count("<= 1)") == 2


def test_approx_prints_the_same_bytes_with_all_equal_z_spelled_out(capsys, tmp_path):
    # the 3x3 grid with f(0) = 1 and 0.001 elsewhere: the problem theorem
    # certifies it, so --z 1,1 answers as no --z does, within eps of the oracle
    k = 3
    G = MultiGraph(k * k, [(k * r + c, k * r + c + 1) for r in range(k) for c in range(k - 1)]
                   + [(k * r + c, k * r + c + k) for r in range(k - 1) for c in range(k)])
    graph, sig = tmp_path / "grid3x3.txt", tmp_path / "flat.json"
    graph.write_text(G.to_text())
    sig.write_text(json.dumps({
        "signatures": {str(d): {"table": {"kappa": 1, "arity": d,
                                          "values": [1] + [0.001] * (2**d - 1)}}
                       for d in (2, 3, 4)},
        "assignment": {str(v): str(G.degree(v)) for v in range(G.vertex_count)},
    }))
    argv = ["approx", "--graph", str(graph), "--sig", str(sig), "--eps", "0.1",
            "--format", "json"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--z", "1,1"]) == 0
    assert capsys.readouterr().out == plain
    rep = json.loads(plain)
    diag = rep["diagnostics"]
    assert (diag["theorem"], diag["truncation_order"]) == ("problem", 5)
    exact = run_json(capsys, ["oracle", "--graph", str(graph), "--sig", str(sig)])
    assert abs(complex(*rep["result"]["value"]) / complex(*exact["result"]["value"]) - 1) <= 0.1


def test_approx_lost_precision_exits_2(capsys, tmp_path):
    # C3000 matching at half the region bound: the series breaks the
    # zero-free coefficient bound, so no value is printed
    n = 3000
    text = f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n))
    graph = tmp_path / "c3000.txt"
    graph.write_text(text)
    G = MultiGraph.from_text(text)
    z1 = half_bound_z(G, uniform_assignment(G, "matching"))[1].real
    assert main(["approx", "--graph", str(graph), "--sig", "matching",
                 "--z", f"1,{z1!r}", "--eps", "0.1", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the zero-free bound" in captured.err


def test_approx_just_inside_the_bound_exits_4(capsys, tmp_path):
    # C10 matching at (1 - 1e-12) of the region bound: the certified order is
    # about 3.4e12, and its series log is refused before it is allocated
    graph = tmp_path / "c10.txt"
    graph.write_text("10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
    z1 = (1 - 1e-12) * region_bounds("holant-poly", delta=2, kappa=1, r1=1.0).bound
    t0 = time.perf_counter()
    assert main(["approx", "--graph", str(graph), "--sig", "matching",
                 "--z", f"1,{z1!r}", "--eps", "0.1"]) == 4
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "series-log terms" in captured.err
    assert "Traceback" not in captured.err


def test_approx_f0_zero_exits_3(capsys, files):
    assert main(["approx", "--graph", files["k2"], "--sig", files["f0zero"],
                 "--z", "1,0.05", "--eps", "0.1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_approx_bad_inputs_exit_1(capsys, files):
    base = ["approx", "--sig", "matching", "--eps", "0.1", "--z", "1,0.01"]
    assert main(base + ["--graph", files["tmp"] + "/missing.txt"]) == 1
    assert main(["approx", "--graph", files["k2"], "--sig", "matching",
                 "--eps", "0.1", "--z", "1,zzz"]) == 1
    assert main(["approx", "--graph", files["k2"], "--sig", "matching",
                 "--eps", "0.1", "--z", "1,0.01,0.01"]) == 1  # kappa mismatch
    assert main(["approx", "--graph", files["k2"], "--sig", "bogus-name",
                 "--eps", "0.1", "--z", "1,0.01"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_with_table(capsys, files):
    rep = run_json(capsys, [
        "oracle", "--graph", files["k2"], "--sig", "matching", "--table",
    ])
    assert rep["result"]["value"] == [2.0, 0.0]
    assert rep["result"]["terms"] == 2
    assert rep["result"]["table"] == {"0": [1.0, 0.0], "1": [1.0, 0.0]}


# ---------------------------------------------------------------------------
# sample / count-mcmc


SAMPLE_ARGS = ["--sig", "matching", "--z", "1,0.001", "--eps", "0.2"]


def test_sample_shape_and_determinism(capsys, files):
    argv = ["sample", "--graph", files["k2"]] + SAMPLE_ARGS + [
        "--trials", "3", "--seed", "7"]
    a = run_json(capsys, argv)
    b = run_json(capsys, argv)
    assert a == b
    assert a["seed"] == 7
    sigmas = a["result"]["assignments"]
    assert len(sigmas) == 3 and all(len(s) == 1 for s in sigmas)
    assert all(c in (0, 1) for s in sigmas for c in s)


def test_sample_jobs_bitwise_equal(capsys, files):
    # C3 has a tighter sampling region than K2 (Delta = 2), so shrink z
    argv = ["sample", "--graph", files["c3"], "--sig", "matching",
            "--z", "1,0.0004", "--eps", "0.2", "--trials", "4", "--seed", "3"]
    assert run_json(capsys, argv) == run_json(capsys, argv + ["--jobs", "2"])


@pytest.mark.parametrize("command", ["sample", "count-mcmc"])
def test_jobs_below_one_is_a_usage_error(capsys, files, command):
    assert main([command, "--graph", files["c3"], "--sig", "matching", "--z", "1,0.0004",
                 "--eps", "0.2", "--jobs", "0"]) == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_sample_derived_seed_is_stable(capsys, files):
    argv = ["sample", "--graph", files["k2"]] + SAMPLE_ARGS
    a = run_json(capsys, argv)
    b = run_json(capsys, argv)
    assert a == b
    assert isinstance(a["seed"], int)


def test_sample_negative_fugacity_exits_3(capsys, files):
    assert main(["sample", "--graph", files["k2"], "--sig", "matching",
                 "--z", "1,-0.001", "--eps", "0.2"]) == 3
    capsys.readouterr()


def test_sample_negative_table_entry_exits_3(capsys, files):
    assert main(["sample", "--graph", files["k2"], "--sig", "even-parity:-0.5",
                 "--z", "1,0.001", "--eps", "0.2"]) == 3
    assert "non-negative real signature tables" in capsys.readouterr().err


def test_sample_without_edges_reports_no_chain_steps(capsys, tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 0\n")
    rep = run_json(capsys, ["sample", "--graph", str(path), "--sig", "matching",
                            "--z", "1,0.1", "--eps", "0.1", "--trials", "2"])
    assert rep["diagnostics"]["mixing_steps"] == rep["diagnostics"]["chain_steps"] == 0
    assert rep["result"]["assignments"] == [[], []]


def test_sample_without_edges_checks_f0(capsys, tmp_path):
    # Z = 0 on the edgeless graph whose arity-0 tables read 0: sample exits 3
    # as count-mcmc and approx do, naming vertex 0
    graph, sig = tmp_path / "e.txt", tmp_path / "zero.json"
    graph.write_text("2 0\n")
    sig.write_text(json.dumps({"default": {"table": {"kappa": 1, "arity": 0, "values": [0]}}}))
    for cmd in ("sample", "count-mcmc", "approx"):
        assert main([cmd, "--graph", str(graph), "--sig", str(sig), "--z", "1,0.1",
                     "--eps", "0.1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "vertex 0: signature 'table' has f(0,...,0) = 0" in err


def test_sample_f0_zero_names_the_vertex(capsys, tmp_path, files):
    # only vertex 1 lies off F0; the error names it, as approx's does
    sig = tmp_path / "f0one.json"
    sig.write_text(json.dumps({
        "signatures": {"ok": {"table": {"kappa": 1, "arity": 1, "values": [[1, 0], [1, 0]]}},
                       "bad": {"table": {"kappa": 1, "arity": 1, "values": [[0, 0], [1, 0]]}}},
        "assignment": {"1": "bad"}, "default": "ok"}))
    assert main(["sample", "--graph", files["k2"], "--sig", str(sig),
                 "--z", "1,0.001", "--eps", "0.2"]) == 3
    assert "vertex 1: signature 'table' has f(0,...,0) = 0" in capsys.readouterr().err


def test_every_command_names_the_first_vertex_off_f0(capsys, tmp_path):
    # vertices 1 and 3 lie off F0, and edge order meets 3 first; every
    # command names vertex 1, the first in vertex order
    graph, sig = tmp_path / "g.txt", tmp_path / "two.json"
    graph.write_text("4 2\n0 3\n1 2\n")
    bad = {"table": {"kappa": 1, "arity": 1, "values": [0, 1]}}
    sig.write_text(json.dumps({"assignment": {"1": bad, "3": bad},
                               "default": {"builtin": "matching"}}))
    for cmd in ("approx", "sample", "count-mcmc", "verify-kp"):
        eps = [] if cmd == "verify-kp" else ["--eps", "0.1"]
        _fails(capsys, [cmd, "--graph", str(graph), "--sig", str(sig), "--z", "1,0.001", *eps],
               3, "error: vertex 1: signature 'table' has f(0,...,0) = 0")


def test_isolated_vertex_off_f0_exits_3_in_every_command(capsys, tmp_path):
    # vertex 2 has no edges and an arity-0 table [0], so Z = 0: every
    # command exits 3 naming it, verify-kp too
    graph, sig = tmp_path / "g.txt", tmp_path / "lone.json"
    graph.write_text("3 1\n0 1\n")
    sig.write_text(json.dumps({
        "assignment": {"2": {"table": {"kappa": 1, "arity": 0, "values": [0]}}},
        "default": {"builtin": "matching"}}))
    for cmd in ("approx", "count-mcmc", "sample", "verify-kp"):
        eps = [] if cmd == "verify-kp" else ["--eps", "0.1"]
        _fails(capsys, [cmd, "--graph", str(graph), "--sig", str(sig), "--z", "1,0.0001", *eps],
               3, "error: vertex 2: signature 'table' has f(0,...,0) = 0")


def test_count_mcmc(capsys, files):
    argv = ["count-mcmc", "--graph", files["k2"], "--sig", "matching",
            "--z", "1,0.001", "--eps", "0.5", "--seed", "11"]
    rep = run_json(capsys, argv)
    assert abs(rep["result"]["value"] - 1.001) <= 0.2
    assert rep["diagnostics"]["certificate"] in ("region", "direct")
    assert rep["diagnostics"]["stages"] >= 2
    assert run_json(capsys, argv) == rep
    assert run_json(capsys, argv + ["--jobs", "2"]) == rep


def test_chain_reports_count_moves_and_skip_the_null_steps(capsys, tmp_path):
    # C10 matching at half the mcmc-poly bound: a step inserts with
    # probability under z1/2 = 0.02 % and removes with probability c/20, c
    # the covered edge count; the loop visits only the candidate steps, whose
    # rate A/2 + c/20 stays close to that, so most candidates move
    graph = tmp_path / "c10.txt"
    graph.write_text("10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10)))
    z1 = 0.5 * region_bounds("mcmc-poly", delta=2, kappa=1, r1=1.0).bound
    common = ["--graph", str(graph), "--sig", "matching", "--z", f"1,{z1!r}", "--seed", "1"]
    for argv in (["count-mcmc", "--eps", "0.3"], ["sample", "--eps", "0.05", "--trials", "50"]):
        rep = run_json(capsys, argv + common)
        diag = rep["diagnostics"]
        moves = diag["moves"]
        assert 0 < moves["visited"] <= 0.03 * diag["chain_steps"]
        assert moves["removed"] <= moves["inserted"] <= moves["visited"]
        if argv[0] == "count-mcmc":
            assert moves["visited"] <= 4 * (moves["inserted"] + moves["removed"]) + 10
        assert run_json(capsys, argv + common + ["--jobs", "2"]) == rep
    assert diag["chain_steps"] == 50 * diag["mixing_steps"]


def test_count_mcmc_zero_reps_exits_1(capsys, files):
    assert main(["count-mcmc", "--graph", files["k2"], "--sig", "matching",
                 "--z", "1,0.001", "--eps", "0.5", "--reps", "0"]) == 1
    assert "reps must be >= 1" in capsys.readouterr().err


def test_count_mcmc_region_violation(capsys, files):
    assert main(["count-mcmc", "--graph", files["k2"], "--sig", "matching",
                 "--z", "1,0.5", "--eps", "0.5"]) == 2
    capsys.readouterr()


def _c100(tmp_path):
    path = tmp_path / "c100.txt"
    path.write_text(MultiGraph(100, [(i, (i + 1) % 100) for i in range(100)]).to_text())
    return str(path)


@pytest.mark.parametrize("command", ["count-mcmc", "sample"])
def test_chain_outside_region_exits_2_from_the_direct_checks(capsys, tmp_path, command):
    # C100 at z1 = 0.01 lies above the mcmc-poly bound, and the direct checks
    # find tau* = -ln 0.01 below the floor: a region violation (exit 2)
    assert main([command, "--graph", _c100(tmp_path), "--sig", "matching",
                 "--z", "1,0.01", "--eps", "0.1"]) == 2
    assert "direct checks give tau* = 4.60517" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["count-mcmc", "sample"])
def test_chain_outside_region_exits_2_when_direct_checks_are_gated(capsys, tmp_path,
                                                                   monkeypatch, command):
    # the 4x4 grid with even-parity at z1 = 0.004: every support is live, so
    # the direct checks walk past a gate that the planned chain steps pass,
    # and the gated checks are a region violation (exit 2), not a size gate
    # (exit 4)
    E = [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
    E += [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)]
    path = tmp_path / "grid4x4.txt"
    path.write_text(MultiGraph(16, E).to_text())
    monkeypatch.setattr(errors, "WORK_GATE", 200_000)
    assert main([command, "--graph", str(path), "--sig", "even-parity:0.5",
                 "--z", "1,0.004", "--eps", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "bound" in err and "was gated" in err and "units of edge-set walk" in err


def test_sample_outside_region_exits_2_on_a_long_cycle(capsys, tmp_path):
    # C10^4: the direct checks walk its 10^4 single edges, once each, and
    # never nest deeper than one edge
    path = tmp_path / "c10000.txt"
    path.write_text(MultiGraph(10000, [(i, (i + 1) % 10000) for i in range(10000)]).to_text())
    t0 = time.perf_counter()
    assert main(["sample", "--graph", str(path), "--sig", "matching", "--z", "1,0.001",
                 "--eps", "0.1"]) == 2
    assert time.perf_counter() - t0 < 5.0
    assert "direct checks give tau* = 6.90776 (need >= 7.07944)" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_all(capsys):
    rep = run_json(capsys, [
        "bounds", "--family", "all", "--delta", "3", "--kappa", "1", "--r1", "1",
    ])
    table = rep["result"]
    for family in ("boolean", "matching", "holant-poly", "holant-problem",
                   "mcmc-poly", "mcmc-problem", "graph-pm"):
        assert family in table
    assert "linsys" not in table and "hyper-pm" not in table  # params missing
    assert rel_close(table["matching"]["bound"], 1 / (5 * math.e))
    assert rel_close(table["graph-pm"]["bound"], 0.32084324720862695)


def test_bounds_single_family(capsys):
    rep = run_json(capsys, [
        "bounds", "--family", "linsys", "--r", "2", "--c", "1", "--kappa", "1",
    ])
    assert rel_close(rep["result"]["linsys"]["bound"], 0.09423206108755368)


def test_bounds_flags_come_from_the_parameter_table(capsys):
    # one flag per PARAM_TYPES entry; with all six given, every family answers
    assert main(["bounds", "--help"]) == 0
    help_text = capsys.readouterr().out
    for name in PARAM_TYPES:
        assert f"--{name} {name.upper()}" in help_text
    given = {"delta": 3, "kappa": 2, "r1": 1.5, "r": 3, "c": 2, "k": 3}
    rep = run_json(capsys, ["bounds"] + [a for k, v in given.items() for a in (f"--{k}", str(v))])
    assert rep["inputs"] == given
    assert sorted(rep["result"]) == sorted(FAMILIES) and len(FAMILIES) == 9
    assert not any("skipped" in row for row in rep["result"].values())
    assert rel_close(rep["result"]["boolean"]["bound"],
                     region_bounds("holant-poly", delta=3, kappa=1, r1=1.5).bound)


def test_bounds_errors(capsys):
    assert main(["bounds", "--family", "linsys", "--r", "2"]) == 1  # missing c
    assert main(["bounds", "--family", "linsys", "--r", "1", "--c", "1",
                 "--kappa", "1"]) == 1  # r below 2 is a parameter error
    assert main(["bounds", "--family", "all", "--r", "2"]) == 1  # nothing fits
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify-kp


def test_verify_kp_certifies(capsys, files):
    rep = run_json(capsys, [
        "verify-kp", "--graph", files["k2"], "--sig", "matching", "--z", "1,0.1",
    ])
    assert rep["result"]["certified"] is True
    assert rel_close(rep["result"]["worst_margin"], 0.1 * math.e - 0.5)
    assert (rep["result"]["order"], rep["result"]["tail"]) == (1, 0.0)


def test_verify_kp_rejects_but_exits_0(capsys, files):
    rep = run_json(capsys, [
        "verify-kp", "--graph", files["k2"], "--sig", "matching", "--z", "1,0.5",
    ])
    assert rep["result"]["certified"] is False


# ---------------------------------------------------------------------------
# linsys / pm


def test_linsys_command(capsys, files):
    rep = run_json(capsys, ["linsys", "--matrix", files["matrix"]])
    value = complex(*rep["result"]["value"])
    expected = brute_weighted_count(parse_matrix_file(MATRIX_TEXT))
    assert rel_close(value, expected)
    assert rep["result"]["polymer_count"] == 1
    assert "bound" in rep["result"]["region"]


def test_linsys_region_skipped_when_r_below_2(capsys, files):
    rep = run_json(capsys, ["linsys", "--matrix", files["matrix_r1"]])
    assert "skipped" in rep["result"]["region"]
    assert complex(*rep["result"]["value"]) == 1 + 0j


def test_linsys_gate_exits_4(capsys, files):
    assert main(["linsys", "--matrix", files["matrix_gate"]]) == 4
    assert "error:" in capsys.readouterr().err


def test_linsys_matrix_with_a_trailing_line_exits_1(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(MATRIX_TEXT + "1 -1\n")
    assert main(["linsys", "--matrix", str(path)]) == 1
    assert "header promises 1 rows plus caps and weights lines, file has 4 lines" \
        in capsys.readouterr().err


def _deep_walk_files(tmp_path):
    """Two inputs whose walks nest deeper than the recursion limit, had they
    recursed once per step."""
    C = MultiGraph(2000, [(i, (i + 1) % 2000) for i in range(2000)])
    alternate = [C.edges.index((i, i + 1)) for i in range(0, 2000, 2)]
    pm = tmp_path / "c2000pm.txt"  # one polymer: the whole cycle
    pm.write_text(C.to_text() + "matching: " + " ".join(map(str, alternate)) + "\n")
    n = 900  # the directed 900-cycle: flow conservation, one column per arc
    rows = [[1 if i == j else -1 if i == (j + 1) % n else 0 for j in range(n)]
            for i in range(n)]
    matrix = tmp_path / "dcycle900.txt"
    matrix.write_text(f"{n} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
                      + "caps: " + " ".join(["1"] * n) + "\n"
                      + "weights: " + " ".join(["0.05 0.0"] * n) + "\n")
    return [
        ["pm", "--instance", str(pm), "--zc", "0.1"],
        ["linsys", "--matrix", str(matrix)],
    ]


def test_walks_past_the_recursion_limit_answer(capsys, tmp_path):
    # one polymer each, 2,000 and 900 steps deep: the walks keep explicit
    # stacks, so the interpreter's recursion limit does not bound them
    want = {"pm": {"value": [1.0, 0.0]},
            "linsys": {"polymer_count": 1, "family_count": 2, "value": [1.0, 0.0]}}
    for argv in _deep_walk_files(tmp_path):
        t0 = time.perf_counter()
        rep = run_json(capsys, argv)
        assert time.perf_counter() - t0 < 5.0, argv[0]
        result = rep["result"]
        assert {k: result[k] for k in want[argv[0]]} == want[argv[0]], argv[0]


def test_verify_kp_answers_on_a_long_path(capsys, tmp_path):
    # the full pool of P1101 nests its walk 1,100 deep; verify-kp walks
    # polymers of at most 4 edges and bounds the longer ones analytically
    path = tmp_path / "p1101.txt"
    path.write_text(MultiGraph(1101, [(i, i + 1) for i in range(1100)]).to_text())
    t0 = time.perf_counter()
    rep = run_json(capsys, ["verify-kp", "--graph", str(path), "--sig", "matching",
                            "--z", "1,0.01"])
    assert time.perf_counter() - t0 < 5.0
    assert rep["result"]["certified"] is True
    assert (rep["result"]["order"], rep["result"]["polymer_count"]) == (4, 1100)
    assert 0 < rep["result"]["tail"] < 1e-4


def test_count_mcmc_step_gate_exits_4_fast(capsys, files):
    # reps * K * (burn + 2S) = 1 * 2 * (30 + 2 * 8,000,000) = 32,000,060 planned
    # steps, over the 2e7 chain-step gate
    t0 = time.perf_counter()
    rc = main(["count-mcmc", "--graph", files["k2"], "--sig", "matching",
               "--z", "1,0.001", "--eps", "0.002", "--reps", "1"])
    assert rc == 4
    assert time.perf_counter() - t0 < 1.0
    assert "planned chain steps exceed gate" in capsys.readouterr().err


def test_pm_graph_modes(capsys, files):
    # pm evaluates by the polymer route only; its report carries the
    # graph-pm region of the instance, and --mode is gone
    rep = run_json(capsys, ["pm", "--instance", files["gpm"], "--zc", "0.5"])
    assert rel_close(complex(*rep["result"]["value"]), 1 + 0.5**4)
    assert rep["result"]["region"]["bound"] == region_bounds("graph-pm", delta=2).bound
    assert "mode" not in rep["inputs"]
    assert main(["pm", "--instance", files["gpm"], "--zc", "0.5", "--mode", "exact"]) == 1
    assert "--mode" in capsys.readouterr().err


def test_pm_region_skipped_below_delta_2(capsys, files):
    rep = run_json(capsys, ["pm", "--instance", files["k2pm"], "--zc", "0.5"])
    assert complex(*rep["result"]["value"]) == 1
    assert "delta >= 2" in rep["result"]["region"]["skipped"]


@pytest.mark.parametrize("matching", ["0 99", "0 -1"])
def test_pm_matching_id_out_of_range_exits_1(capsys, tmp_path, matching):
    path = tmp_path / "pm.txt"
    path.write_text(f"4 4\n0 1\n1 2\n2 3\n0 3\nmatching: {matching}\n")
    assert main(["pm", "--instance", str(path), "--zc", "0.5"]) == 1
    assert "must lie in 0..3" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["matching: 0\n", "# note\nmatching: 1\n"])
def test_pm_without_header_exits_1(capsys, tmp_path, text):
    path = tmp_path / "pm.txt"
    path.write_text(text)
    assert main(["pm", "--instance", str(path), "--zc", "0.5"]) == 1
    assert "empty instance file" in capsys.readouterr().err


def test_pm_hyperedge_with_a_repeated_vertex_exits_1(capsys, tmp_path):
    path = tmp_path / "pm.txt"
    path.write_text("3 2\n0 0 1\n2\nmatching: 0 1\n")
    assert main(["pm", "--instance", str(path), "--zc", "0.5"]) == 1
    assert "vertex 0 repeated in hyperedge" in capsys.readouterr().err


def test_pm_accepts_i_suffix(capsys, files):
    rep = run_json(capsys, ["pm", "--instance", files["gpm"], "--zc", "0.5+0.1i"])
    z = 0.5 + 0.1j
    assert rel_close(complex(*rep["result"]["value"]), 1 + z**4)


def test_pm_hypergraph(capsys, files):
    # the hypergraph runs the same polymer route, with the hyper-pm region
    rep = run_json(capsys, ["pm", "--instance", files["hpm"], "--zc", "0.5"])
    assert rep["inputs"]["kind"] == "hyper"
    assert rep["result"]["value"] == [1.0625, 0.0]
    assert rel_close(rep["result"]["region"]["bound"], 1 / (4 * math.e))
    assert main(["pm", "--instance", files["hpm"], "--zc", "0", "--mode", "bound"]) == 1
    mixed = run_json(capsys, ["pm", "--instance", files["mixedpm"], "--zc", "0.5"])
    assert complex(*mixed["result"]["value"]) == 1
    assert "uniform" in mixed["result"]["region"]["skipped"]


# ---------------------------------------------------------------------------
# Report plumbing


def test_out_file_matches_stdout(capsys, files):
    out = files["tmp"] + "/report.json"
    rep = run_json(capsys, [
        "approx", "--graph", files["k2"], "--sig", "matching",
        "--z", "1,0.05", "--eps", "0.01", "--out", out,
    ])
    with open(out) as fh:
        assert json.load(fh) == rep


def test_every_command_writes_its_report_as_json_dumps(capsys, files, written):
    # stdout and --out hold the same bytes, which the `written` fixture checks
    # against json.dumps, for a report of every subcommand
    instance = ["--graph", files["c3"], "--sig", "matching", "--z", "1,0.0004"]
    commands = [
        ["approx", *instance, "--eps", "0.1"],
        ["sample", *instance, "--eps", "0.2", "--trials", "3", "--seed", "1"],
        ["count-mcmc", *instance, "--eps", "0.5", "--reps", "1", "--seed", "1"],
        ["oracle", *instance, "--table"],
        ["bounds", "--delta", "3", "--kappa", "2", "--r1", "1.5"],
        ["verify-kp", *instance],
        ["linsys", "--matrix", files["matrix"]],
        ["pm", "--instance", files["gpm"], "--zc", "0.5+0.1i"],
    ]
    out = Path(files["tmp"]) / "report.json"
    for argv in commands:
        written.clear()
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert [r["command"] for r in written] == [argv[0]]
        assert text == _dumps(written[0]) + "\n" == out.read_text()


def _random_value(rng, depth=0):
    """A nested value of the kinds reports hold, and the corner cases of
    json.dumps: non-finite floats, bools among ints, empty containers,
    tuples, and strings that need escapes or are not ASCII."""
    leaves = [
        lambda: rng.choice([0, -1, 7, 2**70, -(3**50)]),
        lambda: rng.choice([0.0, -0.0, 0.1, 1e16, 1e-300, -2.5e-8, math.inf, -math.inf,
                            math.nan]),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(["", "plain", "é ü", "tab\tnew\nline", 'quote " back \\',
                            "\x00\x1f\x7f", "\u2603 \U0001f600", "\ud800"]),
        lambda: [rng.choice([0, 3, -12, 10**20]) for _ in range(rng.randrange(4))]
        + rng.choice([[], [True], [False, 1]]),
        lambda: tuple(rng.randrange(-5, 5) for _ in range(rng.randrange(4))),
    ]
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice(leaves)()
    if rng.random() < 0.5:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["a", "B", "é", "key with space", "\n", "z", "0", "10"]
    return {rng.choice(keys): _random_value(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_report_writer_prints_json_dumps_on_random_values(written):
    rng = random.Random(MASTER_SEED + 41)
    for _ in range(2000):
        value = _random_value(rng)
        assert cli._json_text(value) == _dumps(value)
    assert len(written) == 2000
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._json_text({"a": {1, 2}})


def test_json_reports_hold_no_infinity(capsys, files, tmp_path):
    # an edgeless graph has no polymers, so its worst margin is -inf, and it
    # or a zero fugacity makes q and the region bound inf; JSON has no
    # infinity, so these read null
    edgeless = tmp_path / "e3.txt"
    edgeless.write_text("3 0\n")

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    approx = ["approx", "--sig", "matching", "--eps", "0.1"]
    for argv, section, keys in (
        (["verify-kp", "--graph", str(edgeless), "--sig", "matching"], "result",
         ("worst_margin",)),
        (approx + ["--graph", str(edgeless), "--z", "1,0.1"], "diagnostics",
         ("q", "region_bound")),
        (approx + ["--graph", files["c3"], "--z", "1,0"], "diagnostics",
         ("q", "region_bound")),
    ):
        out = files["tmp"] + "/report.json"
        assert main(argv + ["--format", "json", "--out", out]) == 0
        rep = json.loads(capsys.readouterr().out, parse_constant=reject)
        with open(out) as fh:
            assert json.load(fh, parse_constant=reject) == rep
        assert [rep[section][k] for k in keys] == [None] * len(keys)


def test_text_format_prints_nested_keys(capsys, files):
    rc = main(["oracle", "--graph", files["k2"], "--sig", "matching"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "command: oracle" in text
    assert "value:" in text


def test_module_is_executable(files):
    proc = subprocess.run(
        [sys.executable, "-m", "holant.cli", "bounds", "--family", "matching",
         "--delta", "2", "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rel_close(rep["result"]["matching"]["bound"], 1 / (3 * math.e))


def test_approx_reports_family_states(capsys, files):
    argv = ["approx", "--graph", files["c4"], "--sig", "matching",
            "--z", "1,0.01", "--eps", "0.01"]
    rep = run_json(capsys, argv)
    assert rep["diagnostics"]["family_states"] > 0


def test_approx_reports_remainder_and_decay(capsys, files):
    argv = ["approx", "--graph", files["c4"], "--sig", "even-parity:0.02",
            "--z", "1,0.02", "--eps", "0.01"]
    diag = run_json(capsys, argv)["diagnostics"]
    assert 0 < diag["remainder"] <= math.log1p(0.01)
    assert diag["last_coefficient"] > 0
    assert diag["decay"] > 0
    # a fugacity far inside the region certifies m = 1, where there is no decay
    argv = ["approx", "--graph", files["c3"], "--sig", "matching",
            "--z", "1,1e-9", "--eps", "1e-6"]
    diag = run_json(capsys, argv)["diagnostics"]
    assert diag["truncation_order"] == 1
    assert 0 < diag["remainder"] <= math.log1p(1e-6)
    assert diag["decay"] is None


def test_chain_commands_at_eps_past_the_float_range(capsys, files):
    c3 = ["--graph", files["c3"], "--sig", "matching", "--z", "1,0.0004", "--seed", "1"]
    # eps^2 underflows to 0: the planned steps pass the gate
    assert main(["count-mcmc", *c3, "--eps", "1e-170"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error:") and "planned chain steps exceed gate" in captured.err
    # eps^2 overflows: one sample per stage, as at eps = 1e100
    big = run_json(capsys, ["count-mcmc", *c3, "--eps", "1e160"])
    ref = run_json(capsys, ["count-mcmc", *c3, "--eps", "1e100"])
    assert big["diagnostics"]["samples_per_stage"] == 1
    assert (big["diagnostics"], big["result"]) == (ref["diagnostics"], ref["result"])
    # n/eps overflows: sample still runs its 8|E| ln(n/eps) steps
    rep = run_json(capsys, ["sample", *c3, "--eps", "1e-310"])
    assert rep["diagnostics"]["mixing_steps"] == 17158
    assert len(rep["result"]["assignments"]) == 1


def test_approx_at_a_subnormal_fugacity_ratio_exits_0(capsys, files):
    # the zero-free guard no longer refuses a_1 = 3e-310 at q = inf
    for z in ("1,1e-310", "1e10,1e-300"):
        rep = run_json(capsys, ["approx", "--graph", files["c3"], "--sig", "matching",
                                "--z", z, "--eps", "0.1"])
        exact = run_json(capsys, ["oracle", "--graph", files["c3"], "--sig", "matching",
                                  "--z", z])
        assert abs(complex(*rep["result"]["value"]) / complex(*exact["result"]["value"]) - 1) \
            <= 0.1


def test_non_finite_eps_and_fugacities_exit_1(capsys, files):
    for cmd in ("approx", "sample", "count-mcmc"):
        base = [cmd, "--graph", files["k2"], "--sig", "matching"]
        if cmd != "approx":
            base += ["--seed", "1"]
        for eps in ("nan", "inf"):
            assert main(base + ["--z", "1,0.001", "--eps", eps]) == 1, (cmd, eps)
            err = capsys.readouterr().err
            assert "eps must be positive and finite" in err
            assert "Traceback" not in err
        for z in ("1,nan", "1,1e999", "nan,0.001"):
            assert main(base + ["--z", z, "--eps", "0.2"]) == 1, (cmd, z)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "fugacities must be finite" in captured.err


def test_removed_approx_options_exit_1(capsys, files):
    # --method (one coefficient route is left), --jobs (approx is
    # deterministic and single-process) and --force (approx runs only inside
    # the certified region) are usage errors now
    argv = ["approx", "--graph", files["c4"], "--sig", "matching",
            "--z", "1,0.01", "--eps", "0.01"]
    assert main(argv + ["--jobs", "2"]) == 1
    assert main(argv + ["--method", "series"]) == 1
    assert main(argv + ["--force"]) == 1
    # C3 matching without --z, which a forced run printed as 0.0 (the value
    # is 4), is a region error with nothing on stdout
    c3 = ["approx", "--graph", files["c3"], "--sig", "matching", "--eps", "0.1"]
    assert main(c3 + ["--force"]) == 1
    capsys.readouterr()
    assert main(c3) == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# Non-finite inputs and results


def _fails(capsys, argv, code, phrase):
    """main(argv) exits code, with phrase on stderr and nothing on stdout."""
    assert main(argv + ["--format", "json"]) == code, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert phrase in captured.err and "Traceback" not in captured.err, captured.err


def test_pm_non_finite_zc_exits_1(capsys, files):
    for zc in ("nan", "1e999", "1+nanj"):
        _fails(capsys, ["pm", "--instance", files["gpm"], "--zc", zc], 1, "--zc must be finite")


def test_non_finite_signature_entries_exit_1(capsys, files, tmp_path):
    for w in ("nan", "1e999"):
        _fails(capsys, ["oracle", "--graph", files["c3"], "--sig", f"even-parity:{w}"], 1,
               "non-finite table entry")
    specs = [{"table": {"kappa": 1, "arity": 2, "values": [1, 0, 0, math.nan]}},
             {"builtin": "even-parity", "weight": math.inf}]
    for spec in specs:
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"default": spec}))
        _fails(capsys, ["oracle", "--graph", files["c3"], "--sig", str(path)], 1,
               "non-finite table entry")


def test_malformed_signature_file_exits_1(capsys, files, tmp_path):
    # a wrong JSON type in the file is a parse error, not a raw TypeError
    docs = [{"default": {"table": {"kappa": 1, "arity": 2, "values": 5}}},
            {"assignment": [1, 2], "default": {"builtin": "matching"}},
            {"signatures": ["a"], "default": "a"}]
    for doc in docs:
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(doc))
        _fails(capsys, ["approx", "--graph", files["c3"], "--sig", str(path),
                        "--z", "1,0.01", "--eps", "0.1"], 1, "must be")
    # a table's kappa and arity are JSON integers >= 0, never read through int()
    for field, value in [("kappa", 1.5), ("kappa", True), ("kappa", "1"), ("kappa", -1),
                         ("arity", 2.7), ("arity", "2"), ("arity", -1)]:
        table = {"kappa": 1, "arity": 2, "values": [1, 0, 0, 1]}
        table[field] = value
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"default": {"table": table}}))
        _fails(capsys, ["approx", "--graph", files["c3"], "--sig", str(path),
                        "--z", "1,0.01", "--eps", "0.1"], 1, f"table {field} must be")
    # a key that names no vertex is refused, not dropped: C3 with parity
    # tables on "7" and "01" would answer as matching; so is a misspelt
    # top-level key; a boolean is no number, nor is an integer past the
    # float range
    parity = {"builtin": "even-parity", "weight": 0.5}
    docs = [({"assignment": {"7": parity, "01": parity}, "default": {"builtin": "matching"}},
             "assignment key '7' is not a vertex"),
            ({"default": {"table": {"kappa": 1, "arity": 2, "values": [True, True, True, False]}}},
             "expected a number, got true: a boolean is not a number"),
            ({"assigment": {"0": parity}, "default": {"builtin": "matching"}},
             "unknown top-level key 'assigment'"),
            ({"default": {"table": {"kappa": 1, "arity": 2, "values": [1, 1, 1, 10**400]}}},
             "number 1000")]
    for doc, phrase in docs:
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(doc))
        _fails(capsys, ["approx", "--graph", files["c3"], "--sig", str(path),
                        "--z", "1,0.01", "--eps", "0.1"], 1, f"error: {phrase}")


def test_bad_signature_specs_exit_1_with_their_message(capsys, files, tmp_path):
    docs = [
        ({"default": {"table": {"kappa": 1, "arity": 2, "values": [1, 0, 0]}}},
         "table has 3 entries, expected 4"),
        ({"assignment": {"0": {"table": {"kappa": 2, "arity": 2, "values": [1] * 9}}},
          "default": {"builtin": "matching"}}, "mixed domain sizes [1, 2]"),
        ({"default": {"builtin": "nope"}}, "unknown builtin signature 'nope'"),
        ({"default": {"builtin": "even-parity"}}, "even-parity requires a weight parameter"),
    ]
    path = tmp_path / "sig.json"
    for doc, phrase in docs:
        path.write_text(json.dumps(doc))
        _fails(capsys, ["approx", "--graph", files["c3"], "--sig", str(path),
                        "--z", "1,0.01", "--eps", "0.1"], 1, f"error: {phrase}")


def test_verify_kp_non_finite_alpha_exits_1(capsys, files):
    for alpha in ("nan", "inf"):
        _fails(capsys, ["verify-kp", "--graph", files["k2"], "--sig", "matching",
                        "--z", "1,0.1", "--alpha", alpha], 1, "alpha must be positive")


def test_bounds_infinite_r1_exits_1(capsys):
    for family in ("holant-poly", "mcmc-poly", "boolean"):
        _fails(capsys, ["bounds", "--family", family, "--delta", "3", "--kappa", "1",
                        "--r1", "inf"], 1, "r1 >= 1")
    rep = run_json(capsys, ["bounds", "--delta", "3", "--kappa", "1", "--r1", "inf"])
    assert "skipped" in rep["result"]["holant-poly"]
    assert rel_close(rep["result"]["matching"]["bound"], 1 / (5 * math.e))


def test_linsys_non_finite_weight_exits_1(capsys, tmp_path):
    path = tmp_path / "m.txt"
    for weights in ("nan 0.0 0.5 0.0", "0.5 0.0 0.5 inf"):
        path.write_text(f"1 2\n1 -1\ncaps: 1 1\nweights: {weights}\n")
        _fails(capsys, ["linsys", "--matrix", str(path)], 1, "weights must be finite")


def test_results_past_float_range_exit_2(capsys, files, tmp_path):
    # z^4 = 1e800 on the alternating 4-cycle, and w^2 = 1e400 on the solution (1, 1)
    for pm in ("gpm", "hpm"):
        _fails(capsys, ["pm", "--instance", files[pm], "--zc", "1e200"], 2,
               "outside float range")
    path = tmp_path / "m.txt"
    path.write_text("1 2\n1 -1\ncaps: 1 1\nweights: 1e200 0 1e200 0\n")
    _fails(capsys, ["linsys", "--matrix", str(path)], 2, "outside float range")
    # two odd vertices give 1e400; z_1^2 = 1e400 raises OverflowError in complex **
    _fails(capsys, ["oracle", "--graph", files["c3"], "--sig", "even-parity:1e200"], 2,
           "outside float range")
    _fails(capsys, ["oracle", "--graph", files["c4"], "--sig", "matching", "--z", "1,1e200"],
           2, "outside float range")
