"""Spans around the calls into each holant layer, recorded from outside.

The traced run replaces public functions by name, as bound in the modules
that call them (for example `holant.expansion.enumerate_polymers`, which is
what `log_z_coefficients` looks up at call time), with a wrapper that times
the call. Spans nest: a span's self time is its duration minus the durations
of the spans it directly encloses, so the self times of one op add up to the
time spent inside the library. A name that this version of holant does not
have is skipped and reported as absent.

Spans are aggregated in memory per layer and per op rather than kept one by
one: the weight layer alone is entered hundreds of thousands of times a pass.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


def _count(name):
    def count(tracer, result):
        tracer.counts[name] += len(result)
    return count


def _count_live(tracer, result):
    tracer.counts["polymers.live_n"] += result != 0


# (layer, names bound in calling modules, counter run on each call's result)
TARGETS = [
    ("graph.connected_sets", ["holant.polymers:connected_edge_sets",
                              "holant.bounds:connected_edge_sets"],
     _count("graph.connected_sets_n")),
    ("graph.supersets", ["holant.mcmc:connected_edge_supersets"], _count("graph.supersets_n")),
    ("polymers.enumerate", ["holant.expansion:enumerate_polymers",
                            "holant.bounds:enumerate_polymers"], _count("polymers.pool_n")),
    ("polymers.weight", ["holant.expansion:polymer_weight", "holant.mcmc:polymer_weight",
                         "holant.bounds:polymer_weight"], _count_live),
    # the expansion front end: region checks, domain compaction, truncation order
    ("expansion.log_z", ["holant.cli:approx_polynomial_report",
                         "holant.cli:approx_problem_report",
                         "holant.expansion:log_z_coefficients"], None),
    ("expansion.family", ["holant.expansion:family_poly_coefficients"], None),
    ("expansion.series_log", ["holant.expansion:series_log"], None),
    ("expansion.clusters", ["holant.expansion:enumerate_clusters",
                            "holant.expansion:cluster_log_coefficients"], None),
    ("mcmc.build", ["holant.mcmc:PolymerChain.__init__"], None),
    ("mcmc.certify", ["holant.mcmc:region_bounds", "holant.mcmc:check_sampling_condition",
                      "holant.mcmc:check_mixing_condition"], None),
    ("mcmc.rescale", ["holant.mcmc:PolymerChain.set_scale"], None),
    # what is left of the chain entry points once build and rescaling are taken out
    # is chain stepping; step and run are not wrapped (about 1e6 calls a pass)
    ("mcmc.run", ["holant.cli:fpras_estimate", "holant.cli:sample_assignments"], None),
    ("bounds.verify_kp", ["holant.cli:verify_kp"], None),
    ("linsys.vector_enum", ["holant.linsys:enumerate_vector_polymers"],
     _count("linsys.vector_pool_n")),
    ("linsys.weighted_family", ["holant.cli:weighted_count"], None),
    ("linsys.cycles", ["holant.linsys:alternating_cycle_polymers"], _count("linsys.cycles_n")),
    ("linsys.pm_family", ["holant.cli:pm_polynomial_graph"], None),
]

LAYERS = [layer for layer, _, _ in TARGETS]
COUNTED = ["graph.connected_sets_n", "graph.supersets_n", "polymers.pool_n",
           "linsys.vector_pool_n", "linsys.cycles_n"]


def _resolve(name):
    modname, attr = name.split(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, leaf, None)):
        return None, None
    return owner, leaf


class Tracer:
    """Installs the wrappers, and accumulates self time, calls and counts."""

    def __init__(self):
        self.absent = []
        self._installed = []
        self._stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)  # durations, nested same-layer spans counted twice
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.root_s = 0.0  # time inside outermost spans
        self.op_self_s = defaultdict(lambda: defaultdict(float))
        self.op = None

    def _wrap(self, fn, layer, count):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                own = dur - stack.pop()
                tracer.self_s[layer] += own
                tracer.total_s[layer] += dur
                tracer.op_self_s[tracer.op][layer] += own
                tracer.calls[layer] += 1
                if stack:
                    stack[-1] += dur
                else:
                    tracer.root_s += dur
            if count is not None:
                count(tracer, result)
            return result

        return traced

    def install(self):
        self.absent = []
        for layer, names, count in TARGETS:
            for name in names:
                owner, leaf = _resolve(name)
                if owner is None:
                    self.absent.append(name)
                    continue
                original = getattr(owner, leaf)
                self._installed.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, layer, count))

    def uninstall(self):
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)
