"""Base graphs for the edge-variable constructions and random regular sampling.

Plain simple graphs carry the edge-variable single-sided construction; the
two-sided construction uses biregular bipartite graphs.  Random instances come
from the configuration model with full resampling until the pairing is simple
(and, where requested, connected), deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDegrees, InputError, NotRegular, SimplificationFailed

RESAMPLE_BUDGET = 10_000


def connected(n: int, edges) -> bool:
    """Whether the undirected graph on vertices 0..n-1 with the given (u, v)
    edges is connected, by breadth-first search from vertex 0."""
    if n == 0:
        return True
    adj = [[] for _ in range(n)]
    for (u, v) in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    for u in frontier:
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0..n-1 with a fixed edge order."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) must be sorted")
            if (u, v) in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add((u, v))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def regular_degree(self) -> int:
        deg = set(self.degrees())
        if len(deg) != 1:
            raise NotRegular(f"degrees {sorted(deg)} are not constant")
        return deg.pop()

    def neighbors(self, u: int) -> list[int]:
        out = []
        for (a, b) in self.edges:
            if a == u:
                out.append(b)
            elif b == u:
                out.append(a)
        return out

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=float)
        for (u, v) in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a

    def is_connected(self) -> bool:
        return connected(self.n, self.edges)


def complete(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, tuple(tuple(sorted((i, (i + 1) % n))) for i in range(n)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(sorted(tuple(sorted(e)) for e in outer + spokes + inner)))


def prism(n: int = 3) -> Graph:
    """Circular ladder: two n-cycles joined by a perfect matching (3-regular)."""
    if n < 3:
        raise ValueError("prism needs n >= 3")
    es = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    es += [tuple(sorted((n + i, n + (i + 1) % n))) for i in range(n)]
    es += [(i, n + i) for i in range(n)]
    return Graph(2 * n, tuple(sorted(es)))


def cube() -> Graph:
    """The 3-dimensional hypercube graph (3-regular on 8 vertices)."""
    es = []
    for u in range(8):
        for b in range(3):
            v = u ^ (1 << b)
            if u < v:
                es.append((u, v))
    return Graph(8, tuple(sorted(es)))


def random_regular(n: int, d: int, seed: int, require_connected: bool = True) -> Graph:
    """Random simple d-regular graph via configuration-model resampling.

    The whole pairing is redrawn on any self-loop or parallel edge; with
    require_connected, disconnected draws are redrawn too.  Deterministic for
    fixed (n, d, seed).
    """
    if n < 2 or d < 1 or d >= n:
        raise InfeasibleDegrees(f"no simple {d}-regular graph on {n} vertices")
    if (n * d) % 2 != 0:
        raise InfeasibleDegrees(f"n*d = {n*d} is odd")
    rng = np.random.default_rng([seed, n, d])
    stubs = np.repeat(np.arange(n), d)
    for _ in range(RESAMPLE_BUDGET):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        es = set()
        ok = True
        for (u, v) in pairs:
            u, v = int(u), int(v)
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in es:
                ok = False
                break
            es.add(e)
        if not ok:
            continue
        g = Graph(n, tuple(sorted(es)))
        if require_connected and not g.is_connected():
            continue
        return g
    raise SimplificationFailed(
        f"no simple{' connected' if require_connected else ''} {d}-regular "
        f"pairing on {n} vertices within {RESAMPLE_BUDGET} draws")


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph: left vertices 0..n_left-1, right 0..n_right-1."""

    n_left: int
    n_right: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (u, v) in self.edges:
            if not (0 <= u < self.n_left and 0 <= v < self.n_right):
                raise ValueError(f"edge ({u},{v}) out of range")
            if (u, v) in seen:
                raise ValueError(f"parallel edge ({u},{v})")
            seen.add((u, v))

    def left_degrees(self) -> list[int]:
        deg = [0] * self.n_left
        for (u, _) in self.edges:
            deg[u] += 1
        return deg

    def right_degrees(self) -> list[int]:
        deg = [0] * self.n_right
        for (_, v) in self.edges:
            deg[v] += 1
        return deg

    def biregular_degrees(self) -> tuple[int, int]:
        """(left degree c, right degree d); raises NotRegular otherwise."""
        ld, rd = set(self.left_degrees()), set(self.right_degrees())
        if len(ld) != 1 or len(rd) != 1:
            raise NotRegular("bipartite graph is not biregular")
        return ld.pop(), rd.pop()

    def full_adjacency(self) -> np.ndarray:
        """Symmetric adjacency of the union graph, left block first."""
        m, n = self.n_left, self.n_right
        a = np.zeros((m + n, m + n), dtype=float)
        for (u, v) in self.edges:
            a[u, m + v] = a[m + v, u] = 1.0
        return a

    def is_connected(self) -> bool:
        m = self.n_left
        return connected(m + self.n_right, ((u, m + v) for (u, v) in self.edges))


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph(a, b, tuple((i, j) for i in range(a) for j in range(b)))


def random_biregular(n_left: int, c: int, d: int, seed: int,
                     require_connected: bool = False) -> BipartiteGraph:
    """Random simple biregular bipartite graph: n_left vertices of degree c,
    n_left*c/d vertices of degree d on the right.

    Configuration model with full resampling until simple; deterministic for
    fixed arguments.
    """
    if n_left < 1 or c < 1 or d < 1:
        raise InfeasibleDegrees("degrees and sizes must be positive")
    if (n_left * c) % d != 0:
        raise InfeasibleDegrees(f"right side would need {n_left}*{c}/{d} vertices")
    n_right = (n_left * c) // d
    if c > n_right or d > n_left:
        raise InfeasibleDegrees("degree exceeds opposite side size, no simple graph")
    rng = np.random.default_rng([seed, n_left, c, d])
    right_stubs = np.repeat(np.arange(n_right), d)
    for _ in range(RESAMPLE_BUDGET):
        perm = rng.permutation(right_stubs)
        es = set()
        ok = True
        for i, r in enumerate(perm):
            e = (i // c, int(r))
            if e in es:
                ok = False
                break
            es.add(e)
        if not ok:
            continue
        g = BipartiteGraph(n_left, n_right, tuple(sorted(es)))
        if require_connected and not g.is_connected():
            continue
        return g
    raise SimplificationFailed(
        f"no simple ({c},{d})-biregular pairing on {n_left}+{n_right} vertices "
        f"within {RESAMPLE_BUDGET} draws")


def parse_edge_list(text: str) -> Graph:
    """Whitespace edge list, one "u v" pair per line; vertices are 0-based."""
    edges = []
    top = -1
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge list: bad line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        top = max(top, u, v)
        edges.append(tuple(sorted((u, v))))
    if not edges:
        raise ValueError("edge list: no edges")
    return Graph(top + 1, tuple(sorted(set(edges))))


def parse_bipartite_edge_list(text: str) -> BipartiteGraph:
    """Whitespace edge list "l r" with independent 0-based numbering per side."""
    edges = []
    tl = tr = -1
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge list: bad line {ln!r}")
        l, r = int(parts[0]), int(parts[1])
        tl, tr = max(tl, l), max(tr, r)
        edges.append((l, r))
    if not edges:
        raise ValueError("edge list: no edges")
    return BipartiteGraph(tl + 1, tr + 1, tuple(sorted(set(edges))))


_NAMED = {
    "petersen": petersen,
    "cube": cube,
}


def named_graph(name: str) -> Graph | BipartiteGraph:
    """Named bases: kN (complete), cN (cycle), kA,B (complete bipartite),
    prismN, petersen, cube."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]()
    if key.startswith("prism"):
        return prism(int(key[5:] or 3))
    if key.startswith("k") and "," in key:
        a, b = key[1:].split(",")
        return complete_bipartite(int(a), int(b))
    if key.startswith("k"):
        return complete(int(key[1:]))
    if key.startswith("c"):
        return cycle(int(key[1:]))
    raise InputError(f"unknown graph name {name!r}")
