"""Tanner graphs with subcode-labelled checks, covers, and constructions.

A graph here is bipartite between variables and checks, with explicit socket
numbering on both sides so covers are well defined: edge permutations act on
copies, and each cover edge inherits its base sockets.  Checks carry either
no label (plain parity) or a short binary code whose length matches the check
degree; a codeword of the graph restricts, at every labelled check, to a
codeword of the label.

Four constructions are provided: biregular graphs with parity checks, the
same with one subcode label everywhere, edge-variable graphs from a regular
base graph, and edge-variable graphs from a biregular bipartite base with a
label per side.  Cover reduction averages a cover codeword over each cloud,
yielding a rational point that always satisfies the degree-one membership
conditions of the base graph.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InconsistentParameters,
    InfeasibleDegrees,
    InputError,
    LengthMismatch,
    NotACodewordInCover,
    NotConnected,
    NotRegular,
    SpecIncomplete,
    SubcodeLengthMismatch,
)
from .gf2 import BitMatrix
from .graphs import BipartiteGraph, Graph, random_biregular
from .polytope import Pseudocodeword
from .subcodes import SubcodeSpec, from_parity

PROVENANCES = ("case_a", "case_b", "case_c", "case_d", "imported")


class TannerGraph:
    """Bipartite constraint graph with socketed edges and per-check labels."""

    __slots__ = ("n_vars", "n_checks", "edges", "labels", "provenance",
                 "_var_edges", "_check_edges", "_var_checks", "_check_vars",
                 "_parity", "_parity_masks")

    def __init__(self, n_vars: int, n_checks: int, edges, labels=None,
                 provenance: str = "imported"):
        if n_vars < 1 or n_checks < 1:
            raise InputError("need at least one variable and one check")
        if provenance not in PROVENANCES:
            raise InputError(f"unknown provenance {provenance!r}")
        edges = tuple((int(v), int(c), int(vs), int(cs)) for v, c, vs, cs in edges)
        if labels is None:
            labels = (None,) * n_checks
        labels = tuple(labels)
        if len(labels) != n_checks:
            raise InputError(f"{len(labels)} labels for {n_checks} checks")
        self.n_vars = n_vars
        self.n_checks = n_checks
        self.edges = edges
        self.labels = labels
        self.provenance = provenance
        self._parity = None
        self._parity_masks = None
        self._index()
        self._validate()

    def _index(self):
        var_edges = [[] for _ in range(self.n_vars)]
        check_edges = [[] for _ in range(self.n_checks)]
        for e, (v, c, vs, cs) in enumerate(self.edges):
            if not (0 <= v < self.n_vars and 0 <= c < self.n_checks):
                raise InputError(f"edge {e} out of range: ({v}, {c})")
            var_edges[v].append((vs, e))
            check_edges[c].append((cs, e))
        self._var_edges = tuple(tuple(e for _, e in sorted(lst)) for lst in var_edges)
        self._check_edges = tuple(tuple(e for _, e in sorted(lst)) for lst in check_edges)
        self._var_checks = tuple(tuple(self.edges[e][1] for e in lst)
                                 for lst in self._var_edges)
        self._check_vars = tuple(tuple(self.edges[e][0] for e in lst)
                                 for lst in self._check_edges)

    def _validate(self):
        seen = set()
        for v, c, _, _ in self.edges:
            if (v, c) in seen:
                raise InputError(f"parallel edge between variable {v} and check {c}")
            seen.add((v, c))
        for v, lst in enumerate(self._var_edges):
            sockets = sorted(self.edges[e][2] for e in lst)
            if sockets != list(range(len(lst))):
                raise InputError(f"variable {v} sockets are not 0..deg-1")
            if not lst:
                raise InputError(f"variable {v} is isolated")
        for c, lst in enumerate(self._check_edges):
            sockets = sorted(self.edges[e][3] for e in lst)
            if sockets != list(range(len(lst))):
                raise InputError(f"check {c} sockets are not 0..deg-1")
            if not lst:
                raise InputError(f"check {c} is isolated")
            label = self.labels[c]
            if label is not None and label.length != len(lst):
                raise SubcodeLengthMismatch(
                    f"check {c} has degree {len(lst)} but label length {label.length}")

    # -- accessors ---------------------------------------------------------------

    def var_degree(self, v: int) -> int:
        return len(self._var_edges[v])

    def check_degree(self, c: int) -> int:
        return len(self._check_edges[c])

    def var_checks(self, v: int) -> tuple[int, ...]:
        """Checks on variable v, in socket order."""
        return self._var_checks[v]

    def check_vars(self, c: int) -> tuple[int, ...]:
        """Variables on check c, in socket order."""
        return self._check_vars[c]

    @property
    def all_simple(self) -> bool:
        return all(lab is None for lab in self.labels)

    def biregular_degrees(self) -> tuple[int, int]:
        cs = {self.var_degree(v) for v in range(self.n_vars)}
        ds = {self.check_degree(c) for c in range(self.n_checks)}
        if len(cs) != 1 or len(ds) != 1:
            raise NotRegular("graph is not biregular")
        return cs.pop(), ds.pop()

    def is_connected(self) -> bool:
        total = self.n_vars + self.n_checks
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            if node < self.n_vars:
                nbrs = (self.n_vars + c for c in self.var_checks(node))
            else:
                nbrs = iter(self.check_vars(node - self.n_vars))
            for w in nbrs:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == total

    def to_parity_matrix(self) -> BitMatrix:
        """Parity-check matrix: labelled checks expand to one row per local
        parity row, mapped through the check's socket order."""
        if self._parity is not None:
            return self._parity
        rows = []
        for c in range(self.n_checks):
            idx = self.check_vars(c)
            label = self.labels[c]
            if label is None:
                row = np.zeros(self.n_vars, dtype=np.uint8)
                row[list(idx)] = 1
                rows.append(row)
            else:
                for r in range(label.h.rows):
                    row = np.zeros(self.n_vars, dtype=np.uint8)
                    for j, v in enumerate(idx):
                        row[v] ^= label.h.bits[r, j]
                    rows.append(row)
        self._parity = BitMatrix(np.array(rows, dtype=np.uint8))
        return self._parity

    def local_parity_masks(self) -> tuple[tuple[int, ...], ...]:
        """Each check's local parity rows as integer masks over its sockets
        (bit j is socket j): the label's h, or one all-ones row."""
        if self._parity_masks is None:
            self._parity_masks = tuple(
                ((1 << self.check_degree(c)) - 1,) if label is None
                else tuple(sum(int(b) << j for j, b in enumerate(row))
                           for row in label.h.bits)
                for c, label in enumerate(self.labels))
        return self._parity_masks

    def adjacency(self) -> np.ndarray:
        """Symmetric adjacency of the full bipartite graph, variables first."""
        t = self.n_vars + self.n_checks
        a = np.zeros((t, t))
        for v, c, _, _ in self.edges:
            a[v, self.n_vars + c] = 1.0
            a[self.n_vars + c, v] = 1.0
        return a

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        labels = []
        for lab in self.labels:
            if lab is None:
                labels.append(None)
            else:
                parity = ["".join(str(int(b)) for b in row) for row in lab.h.bits]
                labels.append({"name": lab.name, "parity": parity})
        return {
            "format": "tanner-graph",
            "n_vars": self.n_vars,
            "n_checks": self.n_checks,
            "provenance": self.provenance,
            "labels": labels,
            "edges": [list(e) for e in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "TannerGraph":
        if data.get("format") != "tanner-graph":
            raise InputError("missing or wrong format marker")
        labels = []
        for item in data["labels"]:
            if item is None:
                labels.append(None)
            else:
                rows = [[int(ch) for ch in line] for line in item["parity"]]
                h = BitMatrix(np.array(rows, dtype=np.uint8))
                labels.append(from_parity(h, name=item["name"]))
        return cls(int(data["n_vars"]), int(data["n_checks"]),
                   [tuple(e) for e in data["edges"]], labels,
                   provenance=data.get("provenance", "imported"))

    @classmethod
    def from_json(cls, text: str) -> "TannerGraph":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    def __repr__(self):
        kind = "simple" if self.all_simple else "labelled"
        return (f"TannerGraph(n_vars={self.n_vars}, n_checks={self.n_checks}, "
                f"{kind}, provenance={self.provenance!r})")


def from_parity_matrix(h: BitMatrix, labels=None) -> TannerGraph:
    """Graph of a parity-check matrix: one plain check per row, sockets in
    column order.  Zero rows and zero columns are rejected."""
    edges = []
    var_sock = [0] * h.cols
    for r in range(h.rows):
        cs = 0
        for j in range(h.cols):
            if h.bits[r, j]:
                edges.append((j, r, var_sock[j], cs))
                var_sock[j] += 1
                cs += 1
    return TannerGraph(h.cols, h.rows, edges, labels)


# -- the four constructions ----------------------------------------------------------


def _graph_from_bipartite(base: BipartiteGraph, labels, provenance) -> TannerGraph:
    var_sock = [0] * base.n_left
    check_sock = [0] * base.n_right
    edges = []
    for l, r in base.edges:
        edges.append((l, r, var_sock[l], check_sock[r]))
        var_sock[l] += 1
        check_sock[r] += 1
    return TannerGraph(base.n_left, base.n_right, edges, labels, provenance)


def build_case_a(c: int, d: int, n: int, seed: int,
                 require_connected: bool = False) -> TannerGraph:
    """Random (c, d)-biregular graph on n variables, all checks plain parity."""
    base = random_biregular(n, c, d, seed, require_connected=require_connected)
    return _graph_from_bipartite(base, None, "case_a")


def build_case_b(c: int, d: int, n: int, subcode: SubcodeSpec, seed: int,
                 require_connected: bool = False) -> TannerGraph:
    """Random (c, d)-biregular graph with every check labelled by `subcode`."""
    if subcode.length != d:
        raise SubcodeLengthMismatch(
            f"subcode length {subcode.length} != check degree {d}")
    base = random_biregular(n, c, d, seed, require_connected=require_connected)
    m = base.n_right
    return _graph_from_bipartite(base, (subcode,) * m, "case_b")


def build_case_c(base: Graph, subcode: SubcodeSpec) -> TannerGraph:
    """Edge-variable graph: one variable per edge of a connected d-regular
    base, one check per base vertex labelled by a length-d subcode."""
    d = base.regular_degree()
    if subcode.length != d:
        raise SubcodeLengthMismatch(
            f"subcode length {subcode.length} != base degree {d}")
    if not base.is_connected():
        raise NotConnected("base graph must be connected")
    check_sock = [0] * base.n
    edges = []
    for t, (u, v) in enumerate(base.edges):
        edges.append((t, u, 0, check_sock[u]))
        check_sock[u] += 1
        edges.append((t, v, 1, check_sock[v]))
        check_sock[v] += 1
    return TannerGraph(len(base.edges), base.n, edges,
                       (subcode,) * base.n, "case_c")


def build_case_d(base: BipartiteGraph, sub_left: SubcodeSpec,
                 sub_right: SubcodeSpec) -> TannerGraph:
    """Edge-variable graph over a (c, d)-biregular bipartite base: left
    vertices become checks labelled sub_left (length c), right vertices
    checks labelled sub_right (length d).  Left checks come first, and each
    variable's socket 0 points at its left check."""
    c, d = base.biregular_degrees()
    if sub_left.length != c:
        raise SubcodeLengthMismatch(
            f"left subcode length {sub_left.length} != left degree {c}")
    if sub_right.length != d:
        raise SubcodeLengthMismatch(
            f"right subcode length {sub_right.length} != right degree {d}")
    m, n = base.n_left, base.n_right
    left_sock = [0] * m
    right_sock = [0] * n
    edges = []
    for t, (l, r) in enumerate(base.edges):
        edges.append((t, l, 0, left_sock[l]))
        left_sock[l] += 1
        edges.append((t, m + r, 1, right_sock[r]))
        right_sock[r] += 1
    labels = (sub_left,) * m + (sub_right,) * n
    return TannerGraph(len(base.edges), m + n, edges, labels, "case_d")


def reconstruct_base(g: TannerGraph) -> Graph:
    """Base graph of an edge-variable construction over a regular base:
    variable t maps back to the edge joining its two checks."""
    edges = []
    for t in range(g.n_vars):
        cs = g.var_checks(t)
        if len(cs) != 2:
            raise InputError(f"variable {t} has degree {len(cs)}, expected 2")
        u, v = sorted(cs)
        if u == v:
            raise InputError(f"variable {t} repeats check {u}")
        edges.append((u, v))
    return Graph(g.n_checks, tuple(edges))


def reconstruct_bipartite_base(g: TannerGraph) -> BipartiteGraph:
    """Bipartite base of a two-sided edge-variable construction.  Relies on
    the construction convention: socket 0 of each variable points at a left
    check, and left checks occupy the low indices."""
    left = set()
    right = set()
    pairs = []
    for t in range(g.n_vars):
        cs = g.var_checks(t)
        if len(cs) != 2:
            raise InputError(f"variable {t} has degree {len(cs)}, expected 2")
        left.add(cs[0])
        right.add(cs[1])
        pairs.append(cs)
    if left & right:
        raise InputError("side assignment is inconsistent across variables")
    m = len(left)
    if left != set(range(m)) or right != set(range(m, g.n_checks)):
        raise InputError("left checks must occupy indices 0..m-1")
    return BipartiteGraph(m, g.n_checks - m,
                          tuple((l, r - m) for l, r in pairs))


# -- derived parameters ----------------------------------------------------------------


@dataclass(frozen=True)
class ExpanderCodeParams:
    """Construction bookkeeping: degrees, sizes, and a rate lower bound."""

    case: str
    n_vars: int
    n_checks: int
    c: int | None
    d: int | None
    rate_bound: Fraction
    subcode_names: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"case": self.case, "n_vars": self.n_vars,
                "n_checks": self.n_checks, "c": self.c, "d": self.d,
                "rate_bound": str(self.rate_bound),
                "subcode_names": list(self.subcode_names)}


def expander_params(g: TannerGraph) -> ExpanderCodeParams:
    """Degrees and the counting rate bound for a constructed graph."""
    names = tuple(sorted({lab.name for lab in g.labels if lab is not None}))
    if g.provenance == "case_a":
        c, d = g.biregular_degrees()
        rate = 1 - Fraction(c, d)
        return ExpanderCodeParams("case_a", g.n_vars, g.n_checks, c, d, rate, names)
    if g.provenance == "case_b":
        c, d = g.biregular_degrees()
        r = g.labels[0].rate
        rate = 1 - c * (1 - r)
        return ExpanderCodeParams("case_b", g.n_vars, g.n_checks, c, d, rate, names)
    if g.provenance == "case_c":
        _, d = g.biregular_degrees()
        r = g.labels[0].rate
        rate = 2 * r - 1
        return ExpanderCodeParams("case_c", g.n_vars, g.n_checks, None, d, rate, names)
    if g.provenance == "case_d":
        base = reconstruct_bipartite_base(g)
        c, d = base.biregular_degrees()
        if base.n_left * c != base.n_right * d:
            raise InconsistentParameters("side degrees do not balance")
        r1 = g.labels[0].rate
        r2 = g.labels[base.n_left].rate
        rate = r1 + r2 - 1
        return ExpanderCodeParams("case_d", g.n_vars, g.n_checks, c, d, rate, names)
    raise InputError(f"no derived parameters for provenance {g.provenance!r}")


# -- covers ------------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftSpec:
    """Degree and one permutation per base edge, in base edge order."""

    degree: int
    permutations: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise SpecIncomplete("cover degree must be at least 1")
        for i, p in enumerate(self.permutations):
            if sorted(p) != list(range(self.degree)):
                raise SpecIncomplete(f"entry {i} is not a permutation of 0..{self.degree - 1}")

    def to_dict(self) -> dict:
        return {"degree": self.degree,
                "permutations": [list(p) for p in self.permutations]}


def identity_lift(g: TannerGraph, degree: int) -> LiftSpec:
    ident = tuple(range(degree))
    return LiftSpec(degree, (ident,) * len(g.edges))


def random_lift(g: TannerGraph, degree: int, seed: int) -> LiftSpec:
    rng = np.random.default_rng([seed, degree, len(g.edges)])
    perms = tuple(tuple(int(x) for x in rng.permutation(degree))
                  for _ in g.edges)
    return LiftSpec(degree, perms)


def all_lifts(g: TannerGraph, degree: int):
    """All covers of the given degree, in lexicographic permutation order."""
    perms = list(itertools.permutations(range(degree)))
    for combo in itertools.product(perms, repeat=len(g.edges)):
        yield LiftSpec(degree, combo)


def build_lift(g: TannerGraph, spec: LiftSpec) -> TannerGraph:
    """Degree-l cover: copy t of a variable joins copy perm[t] of the check
    across each base edge.  Clouds are contiguous (copy t of node x sits at
    x*l + t) and every cover check inherits its base label."""
    if len(spec.permutations) != len(g.edges):
        raise SpecIncomplete(
            f"{len(spec.permutations)} permutations for {len(g.edges)} edges")
    l = spec.degree
    edges = []
    for (v, c, vs, cs), perm in zip(g.edges, spec.permutations):
        for t in range(l):
            edges.append((v * l + t, c * l + perm[t], vs, cs))
    labels = []
    for lab in g.labels:
        labels.extend([lab] * l)
    return TannerGraph(g.n_vars * l, g.n_checks * l, edges, labels,
                       provenance="imported")


def reduce_cover_codeword(word, base: TannerGraph, lift: TannerGraph | None = None,
                          spec: LiftSpec | None = None) -> Pseudocodeword:
    """Cloud averages of a cover codeword, as an exact rational point.

    Accepts either the built cover or the spec to build it from.  The word
    must satisfy every cover check; the result always satisfies the base
    graph's membership conditions.
    """
    if lift is None:
        if spec is None:
            raise SpecIncomplete("need either the built cover or its spec")
        lift = build_lift(base, spec)
    word = np.asarray(word, dtype=np.uint8) & 1
    if word.ndim != 1 or word.shape[0] != lift.n_vars:
        raise LengthMismatch(f"word length {word.shape[0] if word.ndim == 1 else '?'}"
                             f" != cover variables {lift.n_vars}")
    if lift.n_vars % base.n_vars != 0:
        raise InconsistentParameters("cover size is not a multiple of the base size")
    l = lift.n_vars // base.n_vars
    if lift.n_checks != base.n_checks * l:
        raise InconsistentParameters("check clouds do not match the cover degree")
    syndrome = lift.to_parity_matrix().mul_vec(word)
    if syndrome.any():
        bad = int(np.flatnonzero(syndrome)[0])
        raise NotACodewordInCover(f"parity row {bad} is unsatisfied")
    values = tuple(Fraction(int(word[v * l: (v + 1) * l].sum()), l)
                   for v in range(base.n_vars))
    for c in range(base.n_checks):
        if base.labels[c] is not None:
            continue
        local = [values[i] for i in base.check_vars(c)]
        total = sum(local)
        if not all(2 * x <= total for x in local):
            raise AssertionError("cloud averages broke a parity check")
    return Pseudocodeword(values=values, certificate=f"cover-degree-{l}")
