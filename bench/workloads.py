"""The three benchmark workloads: their ops, instances and provenance.

Every workload runs every subcommand, so every end-to-end metric is measured
on every workload, but each is built so that a different layer does most of
the work:

* ring  - long cycles: the family DFS of the expansion and chain stepping.
* dense - grids and random 3-regular graphs: connected-set enumeration,
          polymer weights and the chain build.
* apps  - the two applications: vector-polymer enumeration (linsys) and the
          family DFS over alternating cycles (pm).

Fugacities and weights sit at FRACTION of the region bound of the path an op
runs on (`region` below); refs.py resolves them to numbers and stores them,
with the exact reference, in refs.json. Ops use only the default `--method`
and never `--jobs`.
"""

from __future__ import annotations

FRACTION = 0.5
EP = "even-parity:0.5"
OP_BUDGET_S = 60.0  # an op slower than this counts as failed


def _cycle(n):
    return {"kind": "cycle", "n": n}


def _grid(rows, cols):
    return {"kind": "grid", "rows": rows, "cols": cols}


def _regular3(n, structure_seed):
    return {"kind": "regular3", "n": n, "structure_seed": structure_seed}


def _pm_grid(rows, cols):
    return {"kind": "pm-grid", "rows": rows, "cols": cols}


def _circulation(n, chords):
    return {"kind": "circulation", "n": n, "chords": chords, "cap": 2}


def approx(name, inst, sig, eps=0.1):
    return {"id": name, "cmd": "approx", "instance": inst, "sig": sig,
            "region": "holant-poly", "eps": eps}


def count_mcmc(name, inst, sig, eps):
    return {"id": name, "cmd": "count-mcmc", "instance": inst, "sig": sig,
            "region": "mcmc-poly", "eps": eps}


def sample(name, inst, sig, eps, trials):
    return {"id": name, "cmd": "sample", "instance": inst, "sig": sig,
            "region": "mcmc-poly", "eps": eps, "trials": trials}


def verify_kp(name, inst, sig):
    return {"id": name, "cmd": "verify-kp", "instance": inst, "sig": sig,
            "region": "holant-poly"}


def linsys(name, inst):
    return {"id": name, "cmd": "linsys", "instance": inst, "region": "linsys"}


def pm(name, inst):
    return {"id": name, "cmd": "pm", "instance": inst, "region": "graph-pm"}


WORKLOADS = {
    "ring": {
        "why": "long cycles with few connected sets, so the expansion's family DFS "
               "and chain stepping do almost all the work",
        "ops": [
            approx("ring-approx-C16-even", _cycle(16), EP),
            approx("ring-approx-C22-matching", _cycle(22), "matching"),
            count_mcmc("ring-mcmc-C10-matching", _cycle(10), "matching", 0.15),
            sample("ring-sample-C12-matching", _cycle(12), "matching", 0.05, 200),
            verify_kp("ring-kp-C12-even", _cycle(12), EP),
            verify_kp("ring-kp-C12-matching", _cycle(12), "matching"),
            verify_kp("ring-kp-C11-even", _cycle(11), EP),
            linsys("ring-linsys-cycle12", _circulation(12, [])),
            pm("ring-pm-ladder2x20", _pm_grid(2, 20)),
        ],
    },
    "dense": {
        "why": "grids and random 3-regular graphs with many connected sets, mostly "
               "zero-weight under matching, so enumeration, weights and the chain "
               "build dominate",
        "ops": [
            approx("dense-approx-grid2x6-matching", _grid(2, 6), "matching"),
            approx("dense-approx-grid2x5-even", _grid(2, 5), EP),
            approx("dense-approx-reg3n8-even", _regular3(8, 1), EP),
            count_mcmc("dense-mcmc-grid2x5-matching", _grid(2, 5), "matching", 0.3),
            sample("dense-sample-reg3n6-matching", _regular3(6, 1), "matching", 0.05, 100),
            verify_kp("dense-kp-grid3x3-even", _grid(3, 3), EP),
            linsys("dense-linsys-digraph5", _circulation(5, [[0, 2], [2, 0], [1, 3], [3, 1], [0, 3]])),
            pm("dense-pm-grid6x6", _pm_grid(6, 6)),
            pm("dense-pm-grid5x8", _pm_grid(5, 8)),
        ],
    },
    "apps": {
        "why": "the two applications, whose vector-polymer enumeration and "
               "alternating-cycle family DFS use the vertex-disjoint family kernel",
        "ops": [
            linsys("apps-linsys-cycle11-chord1", _circulation(11, [[0, 5]])),
            linsys("apps-linsys-cycle9-chord2", _circulation(9, [[0, 4], [2, 6]])),
            pm("apps-pm-grid6x6", _pm_grid(6, 6)),
            pm("apps-pm-grid5x8", _pm_grid(5, 8)),
            pm("apps-pm-grid7x6", _pm_grid(7, 6)),
            approx("apps-approx-C14-even", _cycle(14), EP),
            count_mcmc("apps-mcmc-C8-matching", _cycle(8), "matching", 0.15),
            sample("apps-sample-C10-matching", _cycle(10), "matching", 0.05, 400),
            verify_kp("apps-kp-grid3x3-even", _grid(3, 3), EP),
        ],
    },
}


def all_ops():
    for workload in WORKLOADS.values():
        yield from workload["ops"]
