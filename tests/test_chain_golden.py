"""Pinned `count-mcmc` and `sample` output: the chain's random stream, draw for draw.

The digests were recorded with the one-call-per-step chain kernel that the
fused `PolymerChain.run` loop replaced, for one seed each, on C10 matching
(single-edge polymers only) and C10 even-parity(0.5) (whose pool has
polymers of every size). A change to the chain that moves any random draw
changes one of these outputs; `--jobs 2` must print the same bytes.
"""

import hashlib

import pytest

from holant.cli import main

C10 = "10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10))

GOLDEN = {
    ("count-mcmc", "matching", "1"):
        "ed0307d35fd8f0bb8c6303a3ce0c867b7cb162679ed1ea5316666933aa3033bc",
    ("count-mcmc", "even-parity:0.5", "1"):
        "f67fce0dc4fc594dfb86a44722f62b5c7d7697fccb761902099a531e0c2ab512",
    ("sample", "matching", "2"):
        "cc507bd0d264de3117333ef7210e856cd3ce34eee370acd8932f795bb5e72504",
    ("sample", "even-parity:0.5", "2"):
        "f994381e5d5175c85625b201fa106b3edf236e37553dcd971580dede583878d1",
}


def chain_output(cmd, sig, seed, jobs, graph):
    argv = [cmd, "--graph", str(graph), "--sig", sig, "--z", "1,0.0004",
            "--seed", seed, "--jobs", str(jobs), "--format", "json"]
    argv += ["--eps", "0.3"] if cmd == "count-mcmc" else ["--eps", "0.05", "--trials", "200"]
    return argv


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_chain_output_is_pinned(case, jobs, tmp_path, capsys):
    graph = tmp_path / "c10.txt"
    graph.write_text(C10)
    assert main(chain_output(*case, jobs, graph)) == 0
    out = capsys.readouterr().out.replace(str(graph), "<graph>")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[case]
