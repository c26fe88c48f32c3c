"""Command-line interface.

Exit codes: 0 success; 1 parse/usage error; 2 region or runtime-condition
violation; 3 unsupported weights / signature not in F0; 4 work gate exceeded.
Reports carry the resolved inputs and the seed, so a report replays to the
identical result.

`main(argv)` may be called repeatedly in one process, as the benchmark and
the tests do. It builds its parser once per process, on the first call, and
every later call reuses it; the one-shot console script builds it once, as
before. Each call parses into a fresh namespace, so no call sees another's
options. `holant --help` shows the two paragraphs above this one.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .bounds import FAMILIES, PARAM_TYPES, RADII, region_bounds, verify_kp
from .errors import (
    ConditionViolated,
    DegenerateDistribution,
    GateExceeded,
    HolantError,
    InvalidFugacity,
    NotInF0,
    ParseError,
    RegionViolation,
    UnsupportedWeights,
    outside_float_range,
)
from .expansion import approx_polynomial_report
from .graph import MultiGraph
from .linsys import (
    linsys_region,
    parse_matrix_file,
    parse_pm_file,
    pm_polynomial_graph,
    pm_polynomial_hypergraph,
    pm_region,
    weighted_count,
)
from .mcmc import derive_seed, fpras_estimate, mixing_time, sample_assignments
from .oracle import brute_holant
from .signatures import assignment_from_json, uniform_assignment


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; reserve 2 for regions
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_complex(text: str) -> complex:
    t = text.strip().replace("i", "j")
    try:
        return complex(t)
    except ValueError as exc:
        raise ParseError(f"bad complex literal {text!r}") from exc


def parse_z(text: str):
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ParseError(f"fugacity vector {text!r} has an empty entry")
    z = tuple(map(parse_complex, parts))
    if not all(cmath.isfinite(t) for t in z):
        raise InvalidFugacity(f"fugacities must be finite, got {text!r}")
    return z


def _load_assignment(G: MultiGraph, sig: str):
    if Path(sig).is_file():
        return assignment_from_json(G, Path(sig).read_text())
    if sig == "matching":
        return uniform_assignment(G, "matching")
    if sig.startswith("even-parity:"):
        return uniform_assignment(G, "even-parity", parse_complex(sig.split(":", 1)[1]))
    raise ParseError(
        f"--sig must be 'matching', 'even-parity:<w>' or a JSON file, got {sig!r}"
    )


def _instance(args):
    """(G, assign, z, inputs) from --graph, --sig and --z; z defaults to all ones.

    The library function that takes z checks it (`signatures.check_fugacities`;
    `oracle.brute_holant` checks only its length, so it allows z_0 = 0).
    inputs holds the three for the report.
    """
    G = MultiGraph.from_text(Path(args.graph).read_text())
    assign = _load_assignment(G, args.sig)
    z = parse_z(args.z) if args.z else tuple([1.0 + 0j] * (assign.kappa + 1))
    return G, assign, z, {"graph": args.graph, "sig": args.sig, "z": [_c(t) for t in z]}


def _resolve_seed(args, *parts) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return derive_seed(*parts)


def _c(v: complex):
    """[re, im] of a finite result; ConditionViolated (exit 2) past float range."""
    v = complex(v)
    if not cmath.isfinite(v):
        raise outside_float_range(v)
    return [v.real, v.imag]


def _json_text(value, indent: str = "\n") -> str:
    """value as `json.dumps(value, indent=2, sort_keys=True)` prints it, but
    with each non-finite float (an infinite q, or the worst margin of an
    empty pool) as null, which JSON can hold; indent is the newline and
    indentation of value's own level. A list or tuple of ints only (such as
    a sampled assignment) is one str.join. CPython's json runs its
    pure-Python encoder whenever indent is set; this writer prints the same
    bytes in a fraction of its time."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) <= {int}:
            items = map(str, value)
        else:
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))
                 + ": " + _json_text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, report: dict) -> None:
    """Print the report as text or JSON and write its JSON to --out if given;
    the JSON is built only when one of the two uses it."""
    as_json = getattr(args, "format", "text") == "json"
    out = getattr(args, "out", None)
    if as_json or out:
        text = _json_text(report)
    if out:
        Path(out).write_text(text + "\n")
    if as_json:
        print(text)
    else:
        _print_text(report)


def _region(bound, *args, **params) -> dict:
    """A region report as values plus bound, or {"skipped": why} when the
    bound raises ValueError (the instance lies outside its family)."""
    try:
        rep = bound(*args, **params)
    except ValueError as exc:
        return {"skipped": str(exc)}
    return dict(rep.values, bound=rep.bound)


def _print_text(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_text(value, indent + "  ")
        else:
            print(f"{indent}{key}: {value}")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_approx(args) -> int:
    G, assign, z, inputs = _instance(args)
    rep = approx_polynomial_report(G, assign, z, args.eps)
    _emit(args, {
        "command": "approx",
        "inputs": dict(inputs, eps=args.eps),
        "diagnostics": {
            "theorem": rep.theorem,
            "q": rep.q,
            "truncation_order": rep.order,
            "pool_size": rep.pool_size,
            "family_states": rep.family_states,
            "remainder": rep.remainder,
            "last_coefficient": rep.last_coefficient,
            "decay": rep.decay,
            "region_bound": rep.region_bound,
            "prefactor": _c(rep.prefactor),
        },
        "result": {"value": _c(rep.value)},
    })
    return 0


def _cmd_sample(args) -> int:
    G, assign, z, inputs = _instance(args)
    seed = _resolve_seed(args, G.to_text(), args.sig, args.z or "1", args.eps)
    moves: dict = {}
    sigmas = sample_assignments(
        G, assign, z, args.eps, seed, trials=args.trials, jobs=args.jobs, moves=moves
    )
    steps = mixing_time(G, args.eps)
    _emit(args, {
        "command": "sample",
        "inputs": dict(inputs, eps=args.eps, trials=args.trials),
        "seed": seed,
        "diagnostics": {
            "mixing_steps": steps,
            "chain_steps": args.trials * steps,
            "moves": moves,
        },
        "result": {"assignments": [list(s) for s in sigmas]},
    })
    return 0


def _cmd_count_mcmc(args) -> int:
    G, assign, z, inputs = _instance(args)
    seed = _resolve_seed(args, G.to_text(), args.sig, args.z or "1", args.eps)
    rep = fpras_estimate(G, assign, z, args.eps, seed, reps=args.reps, jobs=args.jobs)
    _emit(args, {
        "command": "count-mcmc",
        "inputs": dict(inputs, eps=args.eps, reps=args.reps),
        "seed": seed,
        "diagnostics": {
            "stages": rep.stages,
            "samples_per_stage": rep.samples_per_stage,
            "chain_steps": rep.chain_steps,
            "moves": rep.moves,
            "certificate": rep.certificate,
            "estimates": rep.estimates,
        },
        "result": {"value": rep.value},
    })
    return 0


def _cmd_oracle(args) -> int:
    G, assign, z, inputs = _instance(args)
    res = brute_holant(G, assign, z, keep_table=args.table)
    report = {
        "command": "oracle",
        "inputs": inputs,
        "result": {"value": _c(res.value), "terms": res.terms},
    }
    if args.table:
        report["result"]["table"] = {
            ",".join(map(str, sigma)): _c(w) for sigma, w in res.table.items()
        }
    _emit(args, report)
    return 0


def _cmd_bounds(args) -> int:
    wanted = FAMILIES if args.family == "all" else (args.family,)
    params = {k: getattr(args, k) for k in PARAM_TYPES}
    table = {}
    for family in wanted:
        keys = RADII[family][0]
        if any(params[k] is None for k in keys):
            if args.family != "all":
                missing = [k for k in keys if params[k] is None]
                raise ParseError(f"family {family!r} needs --{' --'.join(missing)}")
            continue
        table[family] = _region(region_bounds, family, **{k: params[k] for k in keys})
        if "skipped" in table[family] and args.family != "all":
            raise ValueError(table[family]["skipped"])
    if not table:
        raise ParseError("no family applicable to the given parameters")
    _emit(args, {
        "command": "bounds",
        "inputs": {k: v for k, v in params.items() if v is not None},
        "result": table,
    })
    return 0


def _cmd_verify_kp(args) -> int:
    G, assign, z, inputs = _instance(args)
    rep = verify_kp(G, assign, z, alpha=args.alpha, size=args.size)
    _emit(args, {
        "command": "verify-kp",
        "inputs": dict(inputs, alpha=args.alpha, size=args.size),
        "result": {
            "certified": rep.certified,
            "worst_margin": rep.worst_margin,
            "polymer_count": rep.polymer_count,
            "order": rep.order,
            "tail": rep.tail,
        },
    })
    return 0


def _cmd_linsys(args) -> int:
    system = parse_matrix_file(Path(args.matrix).read_text())
    rep = weighted_count(system)
    result = {
        "value": _c(rep.value),
        "polymer_count": rep.polymer_count,
        "family_count": rep.family_count,
        "dropped_columns": rep.dropped_columns,
        "region": _region(linsys_region, system),
    }
    _emit(args, {
        "command": "linsys",
        "inputs": {"matrix": args.matrix},
        "result": result,
    })
    return 0


def _cmd_pm(args) -> int:
    instance, matching, kind = parse_pm_file(Path(args.instance).read_text())
    z = parse_complex(args.zc)
    if not cmath.isfinite(z):
        raise ParseError(f"--zc must be finite, got {args.zc!r}")
    # one function under two names; the benchmark's pm span wraps the graph name
    pm = pm_polynomial_graph if kind == "graph" else pm_polynomial_hypergraph
    value = pm(instance, matching, z)
    region = _region(pm_region, instance)
    _emit(args, {
        "command": "pm",
        "inputs": {"instance": args.instance, "z": _c(z), "kind": kind},
        "result": {"value": _c(value), "region": region},
    })
    return 0


# ---------------------------------------------------------------------------


def _add_instance(p: argparse.ArgumentParser):
    p.add_argument("--graph", required=True)
    p.add_argument("--sig", required=True)
    p.add_argument("--z", help="fugacities z0,z1,...; default all ones (the Holant "
                               "problem), the same as spelling them out; write a "
                               "negative z0 as --z=-1,0.5")


def _add_common(p: argparse.ArgumentParser, with_seed: bool = False):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="also write the JSON report to this path")
    if with_seed:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes; every value prints the same output")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: derived from the instance)")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process, built on the first call.

    Sharing it between calls is safe: `parse_args` copies the defaults into a
    fresh namespace, and usage, help and version output look up sys.stdout,
    sys.stderr and the terminal width when they are printed.
    """
    description = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])  # None under -OO
    parser = _Parser(prog="holant", description=description)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approx", help="deterministic eps-approximation")
    _add_instance(p)
    p.add_argument("--eps", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("sample", help="eps-approximate Gibbs samples")
    _add_instance(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    _add_common(p, with_seed=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("count-mcmc", help="randomised (annealed) counting")
    _add_instance(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--reps", type=int, default=3)
    _add_common(p, with_seed=True)
    p.set_defaults(func=_cmd_count_mcmc)

    p = sub.add_parser("oracle", help="exact brute-force reference value")
    _add_instance(p)
    p.add_argument("--table", action="store_true",
                   help="include per-assignment weights in the report")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bounds", help="print region bounds for parameters")
    p.add_argument("--family", default="all", choices=FAMILIES + ("all",))
    for name, kind in PARAM_TYPES.items():
        p.add_argument(f"--{name}", type=kind)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-kp", help="check the convergence certificate")
    _add_instance(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--size", choices=("edges", "vertices"), default="edges")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_kp)

    p = sub.add_parser("linsys", help="weighted solution count of A x = 0")
    p.add_argument("--matrix", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_linsys)

    p = sub.add_parser("pm", help="perfect-matching polynomial")
    p.add_argument("--instance", required=True)
    p.add_argument("--zc", required=True, help="complex evaluation point")
    _add_common(p)
    p.set_defaults(func=_cmd_pm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RegionViolation, ConditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # complex ** int past the float range raises
        print(f"error: {outside_float_range(exc)}", file=sys.stderr)
        return 2
    except (NotInF0, UnsupportedWeights, DegenerateDistribution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GateExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, InvalidFugacity, HolantError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
