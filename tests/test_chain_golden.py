"""Pinned `count-mcmc` and `sample` output: the chain's random stream, draw for draw.

The digests were recorded with the rejection-free `PolymerChain.run` loop,
which draws one geometric skip over the null steps and then one non-null
step per iteration, for one seed each, on C10 matching (single-edge polymers
only) and C10 even-parity(0.5) (whose pool has polymers of every size). The
reports include the chain's move counts. A change to the chain that moves any
random draw changes one of these outputs; `--jobs 2` must print the same bytes.
"""

import hashlib

import pytest

from holant.cli import main

C10 = "10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10))

GOLDEN = {
    ("count-mcmc", "matching", "1"):
        "7b833053700b4209cfe7cf2a6e7357188e43ae04d1e9a7d07e350619ce29b6da",
    ("count-mcmc", "even-parity:0.5", "1"):
        "1586ede398bb39ab6db0e5c60b3ef4028bf6b02a5dec54cfcb7cce9b56b1c474",
    ("sample", "matching", "2"):
        "9612da0c6a56c18a9c6ab6585e7ab656c4a372246576667d8e225f9c5c9088b6",
    ("sample", "even-parity:0.5", "2"):
        "b7d7784a22346e546cc7d53ce4c2ec59c87d7e638e3c32fe10dc947b8bc6aeb3",
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
