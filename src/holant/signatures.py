"""Signatures (local constraint functions) and per-vertex assignments.

A signature of arity d over domain {0, ..., kappa} is a tuple of (kappa+1)^d
complex values, indexed row-major: the tuple (x_1, ..., x_d) lives
at index sum x_i * (kappa+1)^(d-i), so the first argument is the most
significant digit. Argument position at a vertex is the canonical rank of
the incident edge (graph.MultiGraph keeps incident lists sorted by edge id).
No other production module reads a table: walks read what `Signature` caches.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from functools import cached_property

from . import errors
from .errors import InvalidFugacity, NotInF0, ParseError, past_gate
from .graph import MultiGraph


@dataclass(frozen=True)
class Signature:
    arity: int
    kappa: int
    table: tuple  # any iterable of numbers; stored as complex
    name: str = "table"

    def __post_init__(self):
        _check_shape(self.arity, self.kappa)
        object.__setattr__(self, "table", tuple(map(complex, self.table)))
        expected = (self.kappa + 1) ** self.arity
        if len(self.table) != expected:
            raise ValueError(f"table has {len(self.table)} entries, expected {expected}")
        if not all(map(cmath.isfinite, self.table)):
            raise ValueError(f"signature {self.name!r} has a non-finite table entry")

    def index(self, x) -> int:
        if len(x) != self.arity:
            raise ValueError(f"argument tuple has length {len(x)}, arity is {self.arity}")
        idx = 0
        base = self.kappa + 1
        for xi in x:
            if not (0 <= xi <= self.kappa):
                raise ValueError(f"argument value {xi} outside domain 0..{self.kappa}")
            idx = idx * base + xi
        return idx

    def __call__(self, x) -> complex:
        return self.table[self.index(x)]

    @property
    def f0(self) -> complex:
        return self.table[0]

    def in_f0(self) -> bool:
        return self.table[0] != 0

    def ratio_r(self) -> float:
        """max_{x != 0} |f(x)| / |f(0)|; zero when f(0) is the only entry.

        That is the case at arity 0 and at kappa = 0, whatever the arity.
        """
        if not self.in_f0():
            raise NotInF0(f"signature {self.name!r} has f(0,...,0) = 0")
        return max((abs(v) for v in self.table[1:]), default=0.0) / abs(self.table[0])

    def is_nonneg_real(self) -> bool:
        return all(v.imag == 0 and v.real >= 0 for v in self.table)

    @cached_property
    def digit_weights(self) -> tuple:
        """(kappa+1)^(d-1-p), the index step of argument p, for each p."""
        base = self.kappa + 1
        return tuple(base ** (self.arity - 1 - p) for p in range(self.arity))

    @cached_property
    def quotients(self) -> tuple | None:
        """f / f(0) at every index, or None off F0."""
        f0 = self.table[0]
        return tuple([t / f0 for t in self.table]) if f0 else None

    @cached_property
    def extensions(self) -> tuple:
        """ext[i] is True when some extension of index i has a nonzero value.

        An extension of an argument tuple gives some of its 0 arguments a colour
        1..kappa; the tuple itself is one. Built by an upward closure, one axis
        at a time, on the table as a bitset (bit i of an int for index i): at
        stride st, each index whose digit there is 0 takes in the bits of the
        indices with digit 1..kappa. For `matching` it is "popcount <= 1".
        """
        base, n = self.kappa + 1, len(self.table)
        bits = int("".join(["1" if v else "0" for v in reversed(self.table)]), 2)
        st = 1
        while st < n:
            zero_digit, period = (1 << st) - 1, base * st  # indices with digit 0 at st
            while period < n:
                zero_digit |= zero_digit << period
                period *= 2
            for c in range(1, base):
                bits |= (bits >> (c * st)) & zero_digit
            st *= base
        return tuple(map("1".__eq__, format(bits, f"0{n}b")[::-1]))

    def remap(self, idx) -> Signature:
        """(x_1..x_d) -> f(idx[x_1], ..., idx[x_d]), over domain 0..len(idx)-1."""
        base = self.kappa + 1
        pos = [0]  # old index of every new tuple, one argument at a time
        for _ in range(self.arity):
            pos = [j * base + i for j in pos for i in idx]
        return Signature(arity=self.arity, kappa=len(idx) - 1,
                         table=[self.table[j] for j in pos], name=self.name)


def _check_shape(arity, kappa):
    """Refuse an arity or kappa that is not an int >= 0."""
    for field, value in (("arity", arity), ("kappa", kappa)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"{field} must be an integer >= 0, got {value!r}")


def check_fugacities(z, kappa: int) -> tuple:
    """z as a tuple of kappa+1 finite complex numbers with z_0 != 0.

    The one rule for a fugacity vector: every algorithm reads the ratios
    z_i/z_0. Raises InvalidFugacity otherwise.
    """
    z = tuple(map(complex, z))
    if len(z) != kappa + 1:
        raise InvalidFugacity(f"need {kappa + 1} fugacities, got {len(z)}")
    if not all(map(cmath.isfinite, z)):
        raise InvalidFugacity("fugacities must be finite")
    if z[0] == 0:
        raise InvalidFugacity("z_0 must be nonzero")
    return z


def _check_gate(kappa: int, arity: int):
    """Charge a table's (kappa+1)^arity entries before it is built."""
    _check_shape(arity, kappa)
    entries = (kappa + 1) ** arity
    if entries > errors.WORK_GATE:
        raise past_gate(entries, "signature table entries")


def make_signature(values, arity: int, kappa: int, name: str = "table") -> Signature:
    _check_gate(kappa, arity)
    return Signature(arity=arity, kappa=kappa, table=values, name=name)


def matching_signature(arity: int) -> Signature:
    """Boolean 'at most one incident edge occupied' signature."""
    _check_gate(1, arity)
    table = [1 + 0j if idx.bit_count() <= 1 else 0j for idx in range(2**arity)]
    return Signature(arity=arity, kappa=1, table=table, name="matching")


def even_parity_signature(arity: int, weight: complex) -> Signature:
    """1 on even Hamming weight, `weight` on odd (Boolean domain)."""
    _check_gate(1, arity)
    weight = complex(weight)
    table = [weight if idx.bit_count() % 2 else 1 + 0j for idx in range(2**arity)]
    return Signature(arity=arity, kappa=1, table=table, name="even-parity")


def builtin_signature(name: str, arity: int, weight: complex | None = None) -> Signature:
    if name == "matching":
        return matching_signature(arity)
    if name == "even-parity":
        if weight is None:
            raise ValueError("even-parity requires a weight parameter")
        return even_parity_signature(arity, weight)
    raise ValueError(f"unknown builtin signature {name!r}")


class SignatureAssignment:
    """Per-vertex signatures bound to a graph, all over one shared domain."""

    def __init__(self, G: MultiGraph, sigs):
        if len(sigs) != G.vertex_count:
            raise ValueError(f"need {G.vertex_count} signatures, got {len(sigs)}")
        kappas = {s.kappa for s in sigs}
        if len(kappas) > 1:
            raise ValueError(f"mixed domain sizes {sorted(kappas)}")
        for v, s in enumerate(sigs):
            if s.arity != G.degree(v):
                raise ValueError(
                    f"vertex {v} has degree {G.degree(v)} but signature arity {s.arity}"
                )
        self.G = G
        self.sigs = tuple(sigs)
        self.kappa = kappas.pop() if kappas else 1

    def sig(self, v: int) -> Signature:
        return self.sigs[v]

    def check_graph(self, G: MultiGraph):
        """Refuse a graph other than the one these signatures were built for."""
        if not (G is self.G or G == self.G):
            raise ValueError("signature assignment is bound to another graph")

    def check_f0(self, vertices=None):
        """NotInF0 naming the first of `vertices` (default: all, ascending) off F0."""
        for v in range(len(self.sigs)) if vertices is None else vertices:
            s = self.sigs[v]
            if not s.in_f0():
                raise NotInF0(f"vertex {v}: signature {s.name!r} has f(0,...,0) = 0")

    def f0_product(self) -> complex:
        self.check_f0()
        out = 1 + 0j
        for s in self.sigs:
            out *= s.f0
        return out

    def _distinct(self):
        """Each distinct signature object once; most vertices share one."""
        return {id(s): s for s in self.sigs}.values()

    def ratio_r_class(self) -> float:
        """r(F): worst ratio over the distinct signatures in use, skipping
        arity 0 (an isolated vertex, whose ratio is 0 in F0)."""
        return max((s.ratio_r() for s in self._distinct() if s.arity), default=0.0)

    def r1(self) -> float:
        return max(1.0, self.ratio_r_class())

    def is_nonneg_real(self) -> bool:
        return all(s.is_nonneg_real() for s in self._distinct())

    def remap(self, idx) -> SignatureAssignment:
        """`Signature.remap(idx)` of every signature, each distinct one once."""
        new = {id(s): s.remap(idx) for s in self._distinct()}
        return SignatureAssignment(self.G, [new[id(s)] for s in self.sigs])


def uniform_assignment(G: MultiGraph, name: str,
                       weight: complex | None = None) -> SignatureAssignment:
    """Builtin (Boolean) signature at every vertex, arity taken from the degree."""
    cache: dict = {}
    sigs = []
    for v in range(G.vertex_count):
        d = G.degree(v)
        if d not in cache:
            cache[d] = builtin_signature(name, d, weight)
        sigs.append(cache[d])
    return SignatureAssignment(G, sigs)


# ---------------------------------------------------------------------------
# JSON (de)serialisation


def _complex_from_json(v) -> complex:
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0]
    if any(isinstance(x, bool) for x in parts):
        raise ParseError(f"expected a number, got {json.dumps(v)}: a boolean is not a number")
    if all(isinstance(x, (int, float)) for x in parts):
        try:
            return complex(float(parts[0]), float(parts[1]))
        except OverflowError as exc:  # a JSON integer past the float range
            text = json.dumps(v)
            if len(text) > 40:
                text = f"{text[:20]}... ({len(text)} characters)"
            raise ParseError(f"number {text} is past the float range") from exc
    raise ParseError(f"expected number or [re, im] pair, got {v!r}")


def _sig_from_spec(spec, arity: int) -> Signature:
    if not isinstance(spec, dict):
        raise ParseError(f"signature spec must be an object, got {spec!r}")
    if "builtin" in spec:
        weight = _complex_from_json(spec["weight"]) if "weight" in spec else None
        try:
            return builtin_signature(spec["builtin"], arity, weight)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    if "table" in spec:
        t = spec["table"]
        try:
            kappa, tab_arity, values = t["kappa"], t["arity"], t["values"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad table spec {t!r}") from exc
        try:
            _check_shape(tab_arity, kappa)
        except ValueError as exc:
            raise ParseError(f"table {exc}") from exc
        if tab_arity != arity:
            raise ParseError(f"table arity {tab_arity} does not match vertex degree {arity}")
        if not isinstance(values, list):
            raise ParseError(f"table values must be a list, got {values!r}")
        vals = [_complex_from_json(v) for v in values]
        try:
            return make_signature(vals, tab_arity, kappa)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"signature spec needs 'builtin' or 'table', got {sorted(spec)!r}")


def assignment_from_json(G: MultiGraph, text: str) -> SignatureAssignment:
    """Parse a signature file.

    Layout: {"signatures": {name: spec, ...},
             "assignment": {vertex: name-or-spec, ...},
             "default": name-or-spec}
    Specs are {"builtin": "matching"}, {"builtin": "even-parity", "weight": w}
    or {"table": {"kappa": K, "arity": d, "values": [[re, im], ...]}}.
    A spec that several vertices read (the default or a named one) builds one
    Signature per arity, which they share. Any other top-level key is a
    ParseError, so a misspelt key is not silently dropped.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("signature file must be a JSON object")
    for key in doc:
        if key not in ("signatures", "assignment", "default"):
            raise ParseError(f"unknown top-level key {key!r}: expected 'signatures', "
                             "'assignment' or 'default'")
    named = doc.get("signatures", {})
    assignment = doc.get("assignment", {})
    default = doc.get("default")
    for key, value in (("signatures", named), ("assignment", assignment)):
        if not isinstance(value, dict):
            raise ParseError(f"{key!r} must be an object, got {value!r}")
    vertices = {str(v) for v in range(G.vertex_count)}
    for key in assignment:
        if key not in vertices:
            raise ParseError(f"assignment key {key!r} is not a vertex id "
                             f"'0'..'{G.vertex_count - 1}'")

    built = {}  # (id of a spec in doc, arity) -> its Signature, one per pair

    def resolve(v: int) -> Signature:
        spec = assignment.get(str(v), default)
        if spec is None:
            raise ParseError(f"no signature for vertex {v} and no default")
        if isinstance(spec, str):
            if spec not in named:
                raise ParseError(f"vertex {v} references unknown signature {spec!r}")
            spec = named[spec]
        key = id(spec), G.degree(v)
        if key not in built:
            built[key] = _sig_from_spec(spec, key[1])
        return built[key]

    sigs = [resolve(v) for v in range(G.vertex_count)]
    try:
        return SignatureAssignment(G, sigs)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def signature_to_spec(sig: Signature) -> dict:
    """Table spec for a signature; inverse of the 'table' branch of parsing."""
    return {
        "table": {
            "kappa": sig.kappa,
            "arity": sig.arity,
            "values": [[v.real, v.imag] for v in sig.table],
        }
    }


def assignment_to_json(assign: SignatureAssignment) -> str:
    doc = {
        "assignment": {
            str(v): signature_to_spec(s) for v, s in enumerate(assign.sigs)
        }
    }
    return json.dumps(doc, indent=2)
