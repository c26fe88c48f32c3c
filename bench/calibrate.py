"""Host-speed reference: a fixed pure-Python kernel timed beside every op.

On a shared host the speed of the machine drifts by 10-30 % between runs a
minute apart, and every op of a run moves with it. The kernel below does the
kind of work holant does (connected-set growth with Python ints as bitmasks,
set and dict traffic, complex arithmetic), but none of holant's code, so a
change to holant cannot move it. run.py times it before every op and reports
each time metric as its wall time scaled to the host speed at which the
kernel takes NOMINAL_S seconds; the raw wall times are in the detail line.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.011  # seconds per kernel call on the reference host
_SIDE = 6
_MAX_SIZE = 6


def _adjacency():
    adj = []
    for v in range(_SIDE * _SIDE):
        r, c = divmod(v, _SIDE)
        mask = 0
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < _SIDE and 0 <= cc < _SIDE:
                mask |= 1 << (rr * _SIDE + cc)
        adj.append(mask)
    return adj


_ADJ = _adjacency()


def kernel() -> complex:
    """Sum of (0.3+0.1j)^|S| over connected vertex sets S of a 6x6 grid, |S| <= 6."""
    seen = set()
    weights = {}
    total = 0j
    stack = [1 << v for v in range(_SIDE * _SIDE)]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        size = bin(s).count("1")
        w = weights.get(size)
        if w is None:
            w = weights[size] = (0.3 + 0.1j) ** size
        total += w
        if size == _MAX_SIZE:
            continue
        border = 0
        m = s
        while m:
            low = m & -m
            border |= _ADJ[low.bit_length() - 1]
            m ^= low
        border &= ~s
        while border:
            low = border & -border
            stack.append(s | low)
            border ^= low
    return total


def timed() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
