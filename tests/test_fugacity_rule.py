"""One fugacity rule for every entry point that takes z.

`signatures.check_fugacities` is the rule: kappa+1 finite entries with
z_0 != 0. Every library function below rejects the same five vectors with
the same InvalidFugacity message, on C3 matching and, where it takes a
graph, on an edgeless graph, whose early exits must not skip the check. The
command line exits 1 on each of them, except `oracle`, whose brute-force
sum allows z_0 = 0.
"""

import math
import re

import pytest

from holant import (
    InvalidFugacity,
    MultiGraph,
    approx_polynomial_report,
    fpras_estimate,
    sample_assignments,
    uniform_assignment,
    verify_kp,
)
from holant.cli import main
from holant.expansion import log_z_coefficients
from holant.mcmc import PolymerChain, certify_chain, check_chain_conditions
from holant.polymers import compact_domain, holant_prefactor, walk_live
from holant.signatures import check_fugacities

from helpers import c3

# kappa = 1 throughout: (z, message, text for --z)
BAD_Z = {
    "short": ((1.0,), "need 2 fugacities, got 1", "1"),
    "long": ((1.0, 1e-4, 7.0), "need 2 fugacities, got 3", "1,0.0001,7"),
    "nan": ((1.0, math.nan), "fugacities must be finite", "1,nan"),
    "inf": ((1.0, math.inf), "fugacities must be finite", "1,1e999"),
    "z0": ((0.0, 1.0), "z_0 must be nonzero", "0,1"),
}

ENTRY_POINTS = {
    "check_fugacities": lambda G, a, z: check_fugacities(z, a.kappa),
    "compact_domain": lambda G, a, z: compact_domain(a, z),
    "holant_prefactor": lambda G, a, z: holant_prefactor(G, a, z),
    "walk_live": lambda G, a, z: walk_live(G, a, z, 2, lambda *polymer: None),
    "log_z_coefficients": lambda G, a, z: log_z_coefficients(G, a, z, 2),
    "approx_polynomial_report": lambda G, a, z: approx_polynomial_report(G, a, z, 0.1),
    "verify_kp": lambda G, a, z: verify_kp(G, a, z),
    # the sampling and the mixing half of check_chain_conditions' result
    "check_sampling_condition": lambda G, a, z: check_chain_conditions(G, a, z)[0],
    "check_mixing_condition": lambda G, a, z: check_chain_conditions(G, a, z)[1],
    "certify_chain": lambda G, a, z: certify_chain(G, a, z),
    "PolymerChain": lambda G, a, z: PolymerChain(G, a, z),
    "sample_assignments": lambda G, a, z: sample_assignments(G, a, z, 0.1, seed=1),
    "fpras_estimate": lambda G, a, z: fpras_estimate(G, a, z, 0.5, seed=1, reps=1),
}
GRAPH_FREE = ("check_fugacities", "compact_domain")


def test_check_fugacities_returns_a_tuple_of_complex():
    z = check_fugacities([1, 0.5, 2j], 2)
    assert z == (1 + 0j, 0.5 + 0j, 2j)
    assert type(z) is tuple and all(type(t) is complex for t in z)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_a_bad_z(name):
    call = ENTRY_POINTS[name]
    graphs = [c3()] if name in GRAPH_FREE else [c3(), MultiGraph(3, [])]
    for G in graphs:
        a = uniform_assignment(G, "matching")
        for case, (z, message, _) in BAD_Z.items():
            with pytest.raises(InvalidFugacity, match=f"^{re.escape(message)}$"):
                call(G, a, z)
                pytest.fail(f"{name} accepted the {case} z {z} on {G.edge_count} edges")


def test_cli_exits_1_on_a_bad_z_and_oracle_allows_z0_zero(tmp_path, capsys):
    commands = {
        "approx": ["--eps", "0.1"],
        "sample": ["--eps", "0.1", "--seed", "1"],
        "count-mcmc": ["--eps", "0.5", "--reps", "1", "--seed", "1"],
        "verify-kp": [],
        "oracle": [],
    }
    for text in ("3 3\n0 1\n1 2\n0 2\n", "3 0\n"):
        path = tmp_path / "g.txt"
        path.write_text(text)
        for command, extra in commands.items():
            for case, (_, _, z) in BAD_Z.items():
                argv = [command, "--graph", str(path), "--sig", "matching", "--z", z] + extra
                expected = 0 if (command, case) == ("oracle", "z0") else 1
                assert main(argv) == expected, (text, argv)
    capsys.readouterr()
