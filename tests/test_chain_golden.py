"""Pinned `count-mcmc` and `sample` output: the chain's random stream, draw for draw.

The digests were recorded with the thinned `PolymerChain.run` loop, which
draws one geometric skip to the next candidate step and then the candidate,
a removal or an insertion that goes on with probability a(e0)/A, for one seed
each, on C10 matching (single-edge polymers only) and C10 even-parity(0.5)
(whose pool has polymers of every size). The reports include the chain's move
counts. A change to the chain that moves any random draw changes one of these
outputs; `--jobs 2` must print the same bytes.
"""

import hashlib

import pytest

from holant.cli import main

C10 = "10 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10))

GOLDEN = {
    ("count-mcmc", "matching", "1"):
        "2fee316a5e53defc412362a774f8d30256d2122dcb56bad0434ce36c9e4a72c2",
    ("count-mcmc", "even-parity:0.5", "1"):
        "c9feecdf3b80e103a31072728e138796d38593d6f3623dac1b29e143eb55c573",
    ("sample", "matching", "2"):
        "56504f71e77f267db5e1e6a5e4bb73b0303903fcb152ceedab70a1154ee11573",
    ("sample", "even-parity:0.5", "2"):
        "d161f433d45fe39e0c5f97af6aa5e97caf79cd12857223700b2ecfb0d4421135",
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
