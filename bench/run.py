"""Benchmark of the `holant` command line, end to end and layer by layer.

    python3 bench/run.py --workload ring --seed 1 --seconds 30 --trace 0

Run from the root of a checkout (the package is imported from `src/`). The
run writes the workload's instances, relabelled by `--seed`, as the plain
files the CLI reads, then repeats passes over the workload's ops for about
`--seconds` seconds. Each op is one closed-loop, in-process call to
`holant.cli.main(argv)` with `--format json`, one op at a time, and its
report is checked against the exact reference in refs.json. A wrong value, a
non-zero exit code, an exception or an op over its budget counts as a failed
op; failed ops are never dropped.

--trace 0 reports the end-to-end metrics: per subcommand, the wall time of
its ops summed over one pass (median over the passes), `setup_s` (median of
fresh interpreters each importing holant and parsing the workload's files)
and `peak_rss_mb`. --trace 1 alternates untraced and traced passes and
reports the per-layer metrics of spans.py (medians over the traced passes)
and `trace.overhead_s`, the traced minus the untraced pass time.

Every time is scaled to a reference host speed by the kernel of
calibrate.py, timed between ops, because the speed of a shared host drifts
by more between runs than the bounds allow. The raw wall times are reported
beside the scaled ones.

The last line of standard output is the JSON result; the lines before it
hold the spread of every metric and the per-op layer split.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import instances  # noqa: E402
from spans import COUNTED, LAYERS, Tracer  # noqa: E402
from workloads import OP_BUDGET_S, WORKLOADS  # noqa: E402

CMD_METRIC = {
    "approx": "approx_s",
    "count-mcmc": "count_mcmc_s",
    "sample": "sample_s",
    "verify-kp": "verify_kp_s",
    "linsys": "linsys_s",
    "pm": "pm_s",
}
SETUP_SAMPLES = 7
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
MAX_EXTRA_S = 120.0  # stop short of MIN_PASSES once a run has taken this long

# A fresh interpreter: import holant and parse the workload's files, then
# time the host-speed kernel.
SETUP_SNIPPET = """
import json, sys
from pathlib import Path
from time import perf_counter
t0 = perf_counter()
import holant, holant.cli
from holant.graph import MultiGraph
from holant.linsys import parse_matrix_file, parse_pm_file
parse = {"graph": MultiGraph.from_text, "linsys": parse_matrix_file, "pm": parse_pm_file}
for kind, path in json.loads(sys.argv[1]):
    parse[kind](Path(path).read_text())
setup = perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
print(setup, sorted(calibrate.timed() for _ in range(3))[1])
"""


class Op:
    def __init__(self, spec: dict, ref: dict, path: Path, argv: list):
        self.spec = spec
        self.ref = ref
        self.path = path
        self.argv = argv
        self.cmd = spec["cmd"]
        self.id = spec["id"]

    @property
    def file_kind(self):
        return {"linsys": "linsys", "pm": "pm"}.get(self.cmd, "graph")


def prepare(workload: str, seed: int, refs: dict, workdir: Path):
    ops = []
    for spec in WORKLOADS[workload]["ops"]:
        ref = refs.get(spec["id"])
        if ref is None or ref["instance"] != instances.render(spec["instance"]):
            raise SystemExit(f"refs.json is stale for {spec['id']}; rerun bench/refs.py")
        rng = random.Random(f"{seed}:{spec['id']}")
        path = workdir / f"{spec['id']}.txt"
        path.write_text(instances.render(spec["instance"], rng, weight=ref["param"]))
        cmd, p = spec["cmd"], str(path)
        if cmd == "linsys":
            argv = ["linsys", "--matrix", p]
        elif cmd == "pm":
            argv = ["pm", "--instance", p, "--zc", repr(ref["param"])]
        else:
            argv = [cmd, "--graph", p, "--sig", spec["sig"], "--z", f"1,{ref['param']!r}"]
            if "eps" in spec:
                argv += ["--eps", repr(spec["eps"])]
            if "trials" in spec:
                argv += ["--trials", str(spec["trials"])]
            if cmd in ("sample", "count-mcmc"):
                argv += ["--seed", str(seed)]
        ops.append(Op(spec, ref, path, argv + ["--format", "json"]))
    return ops


# ---------------------------------------------------------------------------
# Correctness checks


def _close(value, ref, tol):
    return abs(value - ref) <= tol * abs(ref)


def _is_matching(edges, sigma):
    used = set()
    for (u, v), c in zip(edges, sigma):
        if c:
            if u in used or v in used:
                return False
            used.update((u, v))
    return True


def check(op: Op, report: dict) -> bool:
    result = report["result"]
    ref = complex(*op.ref["reference"]) if "reference" in op.ref else None
    if op.cmd == "approx":
        ratio = complex(*result["value"]) / ref
        eps = op.spec["eps"]
        return abs(ratio - 1) <= eps and abs(cmath.phase(ratio)) <= eps
    if op.cmd == "count-mcmc":
        return _close(result["value"], ref.real, op.spec["eps"])
    if op.cmd == "sample":
        # canonical edge order, as the parser builds it; only matching is sampled
        lines = op.path.read_text().split("\n")[1:]
        edges = sorted(tuple(sorted(map(int, ln.split()))) for ln in lines if ln)
        sigmas = result["assignments"]
        return (op.spec["sig"] == "matching" and len(sigmas) == op.spec["trials"]
                and all(len(s) == len(edges) and set(s) <= {0, 1} and _is_matching(edges, s)
                        for s in sigmas))
    if op.cmd == "verify-kp":
        return result["certified"] is True
    if op.cmd == "linsys":
        return (_close(complex(*result["value"]), ref, 1e-9)
                and result["polymer_count"] == op.ref["polymer_count"])
    if op.cmd == "pm":
        return _close(complex(*result["value"]), ref, 1e-9)
    raise ValueError(op.cmd)


# ---------------------------------------------------------------------------
# Running ops and passes


def run_op(cli, op: Op):
    """(seconds, ok, report or error text) of one call to holant.cli.main."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except Exception as exc:  # a crash is a failed op, not a failed run
        return perf_counter() - t0, False, repr(exc)
    dt = perf_counter() - t0
    if code != 0:
        return dt, False, f"exit {code}: {err.getvalue().strip()}"
    try:
        report = json.loads(out.getvalue())
        ok = check(op, report)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return dt, False, f"bad report: {exc!r}"
    if dt > OP_BUDGET_S:
        return dt, False, f"over the {OP_BUDGET_S} s budget"
    return dt, ok, report if ok else "wrong value"


def report_counts(op: Op, report) -> dict:
    """Work counts the CLI reports carry (they repeat bit for bit)."""
    if not isinstance(report, dict):
        return {}
    diag, result = report.get("diagnostics", {}), report.get("result", {})
    if op.cmd == "approx":
        return {"expansion.order_m": diag["truncation_order"]}
    if op.cmd == "count-mcmc":
        return {"mcmc.stages_n": diag["stages"], "mcmc.steps_n": diag["chain_steps"]}
    if op.cmd == "sample":
        return {"mcmc.steps_n": diag["mixing_steps"] * op.spec["trials"]}
    if op.cmd == "verify-kp":
        return {"bounds.kp_pool_n": result["polymer_count"]}
    if op.cmd == "linsys":
        return {"linsys.families_n": result["family_count"]}
    return {}


def run_pass(cli, ops, failures, tracer=None):
    """One pass over the ops: per-subcommand seconds, counts, per-op seconds.

    The host-speed kernel runs between ops: `by_cmd` scales each op by the
    kernel times just before and just after it, `speed` scales whole-pass
    figures by all the kernel times of the pass.
    """
    by_cmd = {m: 0.0 for m in CMD_METRIC.values()}
    raw_by_cmd = dict(by_cmd)
    counts: dict = {}
    per_op = {}
    cli_self = 0.0
    kernel = [calibrate.timed()]
    t_pass = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
            root_before = tracer.root_s
        dt, ok, info = run_op(cli, op)
        if tracer is not None:
            cli_self += dt - (tracer.root_s - root_before)
        kernel.append(calibrate.timed())
        by_cmd[CMD_METRIC[op.cmd]] += dt * 2 * calibrate.NOMINAL_S / (kernel[-2] + kernel[-1])
        raw_by_cmd[CMD_METRIC[op.cmd]] += dt
        per_op[op.id] = dt
        if not ok:
            failures.append({"op": op.id, "error": str(info)[:300]})
        for k, v in report_counts(op, info).items():
            counts[k] = counts.get(k, 0) + v
    return {"wall_s": perf_counter() - t_pass, "by_cmd": by_cmd, "raw_by_cmd": raw_by_cmd,
            "counts": counts, "per_op": per_op, "cli_self_s": cli_self,
            "speed": calibrate.NOMINAL_S * len(kernel) / sum(kernel)}


def measure_setup(ops) -> tuple:
    files = json.dumps([[op.file_kind, str(op.path)] for op in ops])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, files, str(HERE)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed: {proc.stderr.strip()}")
        setup, kernel = map(float, proc.stdout.split())
        raw.append(setup)
        scaled.append(setup * calibrate.NOMINAL_S / kernel)
    return raw, scaled


def spread(values) -> dict:
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def keep_going(start, seconds, walls, min_passes=MIN_PASSES) -> bool:
    elapsed = perf_counter() - start
    if len(walls) < min_passes:
        return elapsed < MAX_EXTRA_S
    return elapsed + statistics.median(walls) <= seconds


# ---------------------------------------------------------------------------


def end_to_end(cli, ops, seconds, failures):
    start = perf_counter()
    passes = []
    while keep_going(start, seconds, [p["wall_s"] for p in passes]):
        passes.append(run_pass(cli, ops, failures))
    series = {m: [p["by_cmd"][m] for p in passes] for m in CMD_METRIC.values()}
    raw = {m: [p["raw_by_cmd"][m] for p in passes] for m in CMD_METRIC.values()}
    raw["pass_s"] = [p["wall_s"] for p in passes]
    raw["speed"] = [p["speed"] for p in passes]
    per_op = {op.id: spread(p["per_op"][op.id] for p in passes) for op in ops}
    return passes, series, raw, per_op


def per_layer(cli, ops, seconds, failures):
    tracer = Tracer()
    start = perf_counter()
    plain, traced = [], []
    while keep_going(start, seconds, [a["wall_s"] + b["wall_s"] for a, b in zip(plain, traced)],
                     MIN_TRACED_PAIRS):
        plain.append(run_pass(cli, ops, failures))
        tracer.reset()
        tracer.install()
        try:
            p = run_pass(cli, ops, failures, tracer)
        finally:
            tracer.uninstall()
        p["layers"] = dict(tracer.self_s)
        p["build_total_s"] = tracer.total_s["mcmc.build"]
        p["tracer_counts"] = dict(tracer.counts)
        p["calls"] = dict(tracer.calls)
        p["op_layers"] = {op: dict(v) for op, v in tracer.op_self_s.items()}
        traced.append(p)
    series = {}
    for layer in LAYERS:
        series[layer + "_s"] = [p["layers"].get(layer, 0.0) * p["speed"] for p in traced]
    for name in COUNTED:
        series[name] = [p["tracer_counts"].get(name, 0) for p in traced]
    series["polymers.weight_calls"] = [p["calls"].get("polymers.weight", 0) for p in traced]
    series["polymers.live_frac"] = [
        p["tracer_counts"].get("polymers.live_n", 0) / max(1, p["calls"].get("polymers.weight", 0))
        for p in traced]
    for name in ("expansion.order_m", "mcmc.stages_n", "mcmc.steps_n", "bounds.kp_pool_n",
                 "linsys.families_n"):
        series[name] = [p["counts"].get(name, 0) for p in traced]
    series["mcmc.steps_per_s"] = [
        p["counts"].get("mcmc.steps_n", 0) / (p["layers"]["mcmc.run"] * p["speed"])
        if p["layers"].get("mcmc.run") else 0.0 for p in traced]
    series["mcmc.build_total_s"] = [p["build_total_s"] * p["speed"] for p in traced]
    series["cli.self_s"] = [p["cli_self_s"] * p["speed"] for p in traced]
    overhead = (statistics.median(p["wall_s"] * p["speed"] for p in traced)
                - statistics.median(p["wall_s"] * p["speed"] for p in plain))
    # layer split of each op, from the traced pass nearest the median
    mid = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
    split = {op.id: {"op_s": mid["per_op"][op.id],
                     **{k: round(v, 6) for k, v in mid["op_layers"].get(op.id, {}).items()}}
             for op in ops}
    return series, overhead, split, tracer.absent, len(plain)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "holant" / "cli.py").is_file():
        print(f"error: no holant package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / "_work"))
    try:
        ops = prepare(args.workload, args.seed, refs, workdir)
        if not args.trace:
            setup_raw, setup = measure_setup(ops)
        sys.path.insert(0, str(SRC))
        from holant import cli

        failures: list = []
        detail = {"workload": args.workload, "seed": args.seed, "ops": len(ops)}
        if args.trace:
            series, overhead, split, absent, pairs = per_layer(cli, ops, args.seconds, failures)
            metrics = {k: statistics.median(v) for k, v in series.items()}
            metrics["trace.overhead_s"] = overhead
            detail.update(passes=pairs, absent=absent, layer_split=split)
        else:
            passes, series, raw, per_op = end_to_end(cli, ops, args.seconds, failures)
            series["setup_s"] = setup
            metrics = {k: statistics.median(v) for k, v in series.items()}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw["setup_s"] = setup_raw
            detail.update(passes=len(passes), per_op_raw=per_op,
                          raw={k: spread(v) for k, v in raw.items()})
            pairs = len(passes)
        if set(metrics) != set(units):
            raise SystemExit(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
        detail["spread"] = {k: spread(v) for k, v in series.items()}
        detail["failures"] = failures[:20]
        attempted = len(ops) * pairs * (2 if args.trace else 1)
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
