"""Instance structures and their seeded relabelling.

Every workload instance is a fixed structure (a cycle, a grid, a random
3-regular graph drawn from a fixed structure seed, a directed cycle with
chords) that the run relabels with its own `--seed`: vertices of graphs, rows
and columns of linear systems. Relabelling changes the canonical edge order,
and so the order in which every enumeration and every chain walks the
instance, but it leaves the exact value unchanged. That is what lets one
stored reference check every seed, and keeps the amount of work, and so the
timings, comparable across seeds.
"""

from __future__ import annotations

import random


def cycle(n: int):
    return n, [(i, (i + 1) % n) for i in range(n)]


def grid(rows: int, cols: int):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return rows * cols, edges


def random_regular3(n: int, structure_seed: int):
    """Simple 3-regular graph on n vertices from the pairing model (rejection)."""
    rng = random.Random(structure_seed)
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)}
        if len(pairs) == len(stubs) // 2 and all(u != v for u, v in pairs):
            return n, sorted(pairs)


def row_matching(rows: int, cols: int):
    """Edges (v, v+1) pairing columns 2j, 2j+1 of every grid row."""
    return [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(0, cols, 2)]


def chorded_circulation(n: int, chords):
    """Flow conservation A x = 0 on the directed n-cycle plus chord arcs.

    Rows are vertices, columns are arcs; an arc u -> v has +1 in row u and -1
    in row v.
    """
    arcs = [(i, (i + 1) % n) for i in range(n)] + [tuple(c) for c in chords]
    rows = [[0] * len(arcs) for _ in range(n)]
    for j, (u, v) in enumerate(arcs):
        rows[u][j] = 1
        rows[v][j] = -1
    return rows


def structure(spec: dict):
    """(kind, data) for an instance spec from workloads.py, before relabelling."""
    kind = spec["kind"]
    if kind == "cycle":
        return "graph", cycle(spec["n"])
    if kind == "grid":
        return "graph", grid(spec["rows"], spec["cols"])
    if kind == "regular3":
        return "graph", random_regular3(spec["n"], spec["structure_seed"])
    if kind == "pm-grid":
        n, edges = grid(spec["rows"], spec["cols"])
        return "pm", (n, edges, row_matching(spec["rows"], spec["cols"]))
    if kind == "circulation":
        return "linsys", chorded_circulation(spec["n"], spec["chords"])
    raise ValueError(f"unknown instance kind {kind!r}")


def _graph_lines(n: int, edges):
    return [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]


def render(spec: dict, rng: random.Random | None = None, weight: float = 1.0) -> str:
    """File text of the instance, relabelled by rng (None keeps the labels).

    weight is the per-variable weight of a linear system (caps come from the
    spec); graphs and matching instances ignore it.
    """
    kind, data = structure(spec)
    if kind == "linsys":
        rows = data
        n, m = len(rows), len(rows[0])
        rperm, cperm = list(range(n)), list(range(m))
        if rng is not None:
            rng.shuffle(rperm)
            rng.shuffle(cperm)
        lines = [f"{n} {m}"]
        lines += [" ".join(str(rows[rperm[i]][cperm[j]]) for j in range(m)) for i in range(n)]
        lines.append("caps: " + " ".join([str(spec["cap"])] * m))
        lines.append("weights: " + " ".join(f"{weight!r} 0.0" for _ in range(m)))
        return "\n".join(lines) + "\n"
    if kind == "graph":
        n, edges = data
        matching = None
    else:
        n, edges, matching = data
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    lines = _graph_lines(n, edges)
    if matching is not None:
        # matching ids index the canonical (sorted) edge order the parser builds
        canon = sorted((min(u, v), max(u, v)) for u, v in edges)
        pos = {e: i for i, e in enumerate(canon)}
        ids = sorted(pos[tuple(sorted((perm[u], perm[v])))] for u, v in matching)
        lines.append("matching: " + " ".join(map(str, ids)))
    return "\n".join(lines) + "\n"
