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
label per side.

Covers live here too.  Copy t of node x sits at x*l + t in a degree-l
cover.  `random_lift` and `build_lift` construct covers,
`reduce_cover_codeword` averages a cover codeword over each cloud into a
rational point of the base graph's fundamental polytope, and
`lift_realizability_check` goes back from such a point to a cover that
realizes it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import (
    DegreeTooLarge,
    InconsistentParameters,
    InputError,
    LengthMismatch,
    NotACodewordInCover,
    NotConnected,
    NotRegular,
    SearchSpaceTooLarge,
    SolverFailure,
    SpecIncomplete,
    SubcodeLengthMismatch,
)
from .gf2 import BitMatrix
from .graphs import BipartiteGraph, Graph, connected, random_biregular
from .polytope import Pseudocodeword, _check_length, _coerce_values
from .subcodes import SubcodeSpec, from_parity

PROVENANCES = ("case_a", "case_b", "case_c", "case_d", "imported")


class TannerGraph:
    """Bipartite constraint graph with socketed edges and per-check labels."""

    __slots__ = ("n_vars", "n_checks", "edges", "labels", "provenance",
                 "_var_checks", "_check_vars", "_parity", "_parity_masks", "_var_sockets")

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
        # expander_params and graph_bounds read labels[0] (and, for case_d,
        # the first right check's label) on the strength of the provenance
        labelled = n_checks - labels.count(None)
        one_label = labelled == n_checks == labels.count(labels[0])
        if ((provenance == "case_a" and labelled)
                or (provenance in ("case_b", "case_c") and not one_label)
                or (provenance == "case_d" and labelled < n_checks)):
            raise InputError(f"labels contradict provenance {provenance!r}")
        var_groups = [[] for _ in range(n_vars)]
        check_groups = [[] for _ in range(n_checks)]
        pairs = set()
        for e, (v, c, vs, cs) in enumerate(edges):
            if not (0 <= v < n_vars and 0 <= c < n_checks):
                raise InputError(f"edge {e} out of range: ({v}, {c})")
            if (v, c) in pairs:
                raise InputError(f"parallel edge between variable {v} and check {c}")
            pairs.add((v, c))
            var_groups[v].append((vs, c))
            check_groups[c].append((cs, v))
        self._var_checks = tuple(_placed(var_groups, "variable"))
        check_vars = []
        # a check's label length is checked right after its sockets, so the
        # first faulty check in index order decides the error
        for c, (row, label) in enumerate(zip(_placed(check_groups, "check"), labels)):
            if label is not None and label.length != len(row):
                raise SubcodeLengthMismatch(
                    f"check {c} has degree {len(row)} but label length {label.length}")
            check_vars.append(row)
        self._check_vars = tuple(check_vars)
        self.n_vars = n_vars
        self.n_checks = n_checks
        self.edges = edges
        self.labels = labels
        self.provenance = provenance
        self._parity = None
        self._parity_masks = None
        self._var_sockets = None

    # -- accessors ---------------------------------------------------------------

    def var_degree(self, v: int) -> int:
        return len(self._var_checks[v])

    def check_degree(self, c: int) -> int:
        return len(self._check_vars[c])

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
        return connected(self.n_vars + self.n_checks,
                         ((v, self.n_vars + c) for v, c, _, _ in self.edges))

    def to_parity_matrix(self) -> BitMatrix:
        """Parity-check matrix: each check's `local_parity_masks` rows,
        mapped through the check's socket order."""
        if self._parity is None:
            rows = []
            for c, local in enumerate(self.local_parity_masks()):
                idx = list(self.check_vars(c))
                for mask in local:
                    row = np.zeros(self.n_vars, dtype=np.uint8)
                    row[idx] = [mask >> j & 1 for j in range(len(idx))]
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

    def var_sockets(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each variable's (check, 1 << check socket) pairs, in socket order:
        the bit a variable sets in each of its checks' local masks."""
        if self._var_sockets is None:
            rows = [[None] * len(cs) for cs in self._var_checks]
            for v, c, vs, cs in self.edges:
                rows[v][vs] = (c, 1 << cs)
            self._var_sockets = tuple(map(tuple, rows))
        return self._var_sockets

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
        if not isinstance(data, dict):
            raise InputError(f"graph JSON must be an object, got {type(data).__name__}")
        if data.get("format") != "tanner-graph":
            raise InputError("missing or wrong format marker")

        def integer(x):
            # int() would truncate 6.9 and parse "6"; only exact integers pass
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"expected an integer, got {x!r}")
            return x

        def parity_row(line):
            if not isinstance(line, str) or set(line) - {"0", "1"}:
                raise ValueError(f"parity rows are strings of 0 and 1, got {line!r}")
            return [int(ch) for ch in line]

        def label(item):
            if item is None:
                return None
            rows = [parity_row(line) for line in item["parity"]]
            return from_parity(BitMatrix(np.array(rows, dtype=np.uint8)), name=item["name"])

        readers = {"labels": lambda labels: [label(item) for item in labels],
                   "n_vars": integer, "n_checks": integer,
                   "edges": lambda edges: [tuple(map(integer, (v, c, vs, cs)))
                                           for v, c, vs, cs in edges]}
        fields = {}
        for key, read in readers.items():
            try:
                fields[key] = read(data[key])
            except KeyError as exc:
                raise InputError(f"graph JSON lacks the key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise InputError(f"graph JSON key {key!r} has a malformed value: {exc}") from exc
        return cls(fields["n_vars"], fields["n_checks"], fields["edges"], fields["labels"],
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


def _placed(groups, kind):
    """Each node's neighbours in socket order, from its (socket, neighbour)
    pairs.  Every pair is counted, so a repeated socket is refused like a
    gap: the sockets of a degree-k node must be exactly 0..k-1."""
    for x, group in enumerate(groups):
        if not group:
            raise InputError(f"{kind} {x} is isolated")
        row = [None] * len(group)
        for s, y in group:
            if not 0 <= s < len(row) or row[s] is not None:
                raise InputError(f"{kind} {x} sockets are not 0..deg-1")
            row[s] = y
        yield tuple(row)


def _socketed(pairs) -> list[tuple[int, int, int, int]]:
    """Edges (v, c, variable socket, check socket) for (variable, check)
    pairs: each node numbers its sockets in the order its pairs are listed."""
    var_sock, check_sock = Counter(), Counter()
    edges = []
    for v, c in pairs:
        edges.append((v, c, var_sock[v], check_sock[c]))
        var_sock[v] += 1
        check_sock[c] += 1
    return edges


def from_parity_matrix(h: BitMatrix, labels=None) -> TannerGraph:
    """Graph of a parity-check matrix: one plain check per row, sockets in
    column order.  Zero rows and zero columns are rejected."""
    rows, cols = np.nonzero(h.bits)
    return TannerGraph(h.cols, h.rows, _socketed(zip(cols.tolist(), rows.tolist())), labels)


# -- the four constructions ----------------------------------------------------------


def build_case_a(c: int, d: int, n: int, seed: int,
                 require_connected: bool = False) -> TannerGraph:
    """Random (c, d)-biregular graph on n variables, all checks plain parity."""
    base = random_biregular(n, c, d, seed, require_connected=require_connected)
    return TannerGraph(base.n_left, base.n_right, _socketed(base.edges), None, "case_a")


def build_case_b(c: int, d: int, n: int, subcode: SubcodeSpec, seed: int,
                 require_connected: bool = False) -> TannerGraph:
    """Random (c, d)-biregular graph with every check labelled by `subcode`."""
    if subcode.length != d:
        raise SubcodeLengthMismatch(
            f"subcode length {subcode.length} != check degree {d}")
    base = random_biregular(n, c, d, seed, require_connected=require_connected)
    return TannerGraph(base.n_left, base.n_right, _socketed(base.edges),
                       (subcode,) * base.n_right, "case_b")


def build_case_c(base: Graph, subcode: SubcodeSpec) -> TannerGraph:
    """Edge-variable graph: one variable per edge of a connected d-regular
    base, one check per base vertex labelled by a length-d subcode."""
    d = base.regular_degree()
    if subcode.length != d:
        raise SubcodeLengthMismatch(
            f"subcode length {subcode.length} != base degree {d}")
    if not base.is_connected():
        raise NotConnected("base graph must be connected")
    pairs = ((t, x) for t, uv in enumerate(base.edges) for x in uv)
    return TannerGraph(len(base.edges), base.n, _socketed(pairs),
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
    pairs = ((t, x) for t, (l, r) in enumerate(base.edges) for x in (l, m + r))
    labels = (sub_left,) * m + (sub_right,) * n
    return TannerGraph(len(base.edges), m + n, _socketed(pairs), labels, "case_d")


def reconstruct_base(g: TannerGraph) -> Graph:
    """Base graph of an edge-variable construction over a regular base:
    variable t maps back to the edge joining its two checks."""
    edges = []
    for t in range(g.n_vars):
        cs = g.var_checks(t)
        if len(cs) != 2:
            raise InputError(f"variable {t} has degree {len(cs)}, expected 2")
        edges.append(tuple(sorted(cs)))
    return Graph(g.n_checks, tuple(edges))


def reconstruct_bipartite_base(g: TannerGraph) -> BipartiteGraph:
    """Bipartite base of a two-sided edge-variable construction.  Relies on
    the construction convention: socket 0 of each variable points at a left
    check, left checks occupy the low indices, and each side has one label."""
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
    if (g.labels[:m].count(g.labels[0]) != m
            or g.labels[m:].count(g.labels[m]) != g.n_checks - m):
        raise InputError("each side's checks must share one label")
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


def random_lift(g: TannerGraph, degree: int, seed: int) -> LiftSpec:
    rng = np.random.default_rng([seed, degree, len(g.edges)])
    perms = tuple(tuple(int(x) for x in rng.permutation(degree))
                  for _ in g.edges)
    return LiftSpec(degree, perms)


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


def reduce_cover_codeword(word, base: TannerGraph, lift: TannerGraph) -> Pseudocodeword:
    """Cloud averages of a cover codeword, as an exact rational point.

    `lift` must be a cover of `base` in the cloud layout of build_lift: l
    times the base edges, each projecting to a base edge (x // l, y // l)
    with the same sockets, and each check cloud carrying its base label.
    Socket uniqueness then makes every base edge a permutation between its
    clouds.  The word must satisfy every cover check; the result always
    satisfies the base graph's membership conditions.
    """
    word = np.asarray(word, dtype=np.uint8) & 1
    if word.ndim != 1 or word.shape[0] != lift.n_vars:
        raise LengthMismatch(f"word length {word.shape[0] if word.ndim == 1 else '?'}"
                             f" != cover variables {lift.n_vars}")
    if lift.n_vars % base.n_vars != 0:
        raise InconsistentParameters("cover size is not a multiple of the base size")
    l = lift.n_vars // base.n_vars
    if (len(lift.edges) != l * len(base.edges)
            or any(lift.labels[t::l] != base.labels for t in range(l))
            or not ({(v // l, c // l, vs, cs) for v, c, vs, cs in lift.edges}
                    <= set(base.edges))):
        raise InconsistentParameters(f"graph is not a degree-{l} cover of the base")
    syndrome = lift.to_parity_matrix().mul_vec(word)
    if syndrome.any():
        bad = int(np.flatnonzero(syndrome)[0])
        raise NotACodewordInCover(f"parity row {bad} is unsatisfied")
    counts = word.reshape(base.n_vars, l).sum(axis=1).tolist()
    for c in range(base.n_checks):
        if base.labels[c] is not None:
            continue
        local = [counts[i] for i in base.check_vars(c)]
        if 2 * max(local) > sum(local):
            raise AssertionError("cloud averages broke a parity check")
    return Pseudocodeword(values=tuple(Fraction(k, l) for k in counts),
                          certificate=f"cover-degree-{l}")


# -- cover realizability ---------------------------------------------------------------


MAX_LIFT_VARS = 10
MAX_LIFT_DEGREE = 4


@dataclass(frozen=True)
class LiftWitness:
    degree: int
    permutations: tuple[tuple[int, ...], ...]


def _distribute_local_codewords(words: np.ndarray, counts: list[int], degree: int):
    """Multiset of `degree` local codewords whose column sums equal counts,
    found by depth-first search; None when impossible."""
    d = len(counts)

    def rec(level: int, remaining: list[int], start: int, chosen: list[int]):
        if level == degree:
            return list(chosen) if all(r == 0 for r in remaining) else None
        # prune: remaining ones must fit in the levels left
        left = degree - level
        if any(r > left or r < 0 for r in remaining):
            return None
        for w in range(start, words.shape[0]):
            row = words[w]
            nxt = [remaining[j] - int(row[j]) for j in range(d)]
            if any(v < 0 for v in nxt):
                continue
            chosen.append(w)
            got = rec(level + 1, nxt, w, chosen)
            if got is not None:
                return got
            chosen.pop()
        return None

    return rec(0, list(counts), 0, [])


def lift_realizability_check(g, p, max_degree: int = MAX_LIFT_DEGREE):
    """Search for a cover of degree up to max_degree realizing p exactly.

    p must be rational; candidate degrees are the multiples of the least
    common denominator.  Returns a LiftWitness on success, None when no cover
    within the degree cap realizes p (inconclusive for larger degrees).
    Guarded at 10 variables and degree 4.
    """
    vals = _coerce_values(p)
    _check_length(g, vals)
    if g.n_vars > MAX_LIFT_VARS:
        raise SearchSpaceTooLarge(f"{g.n_vars} variables exceed the guard ({MAX_LIFT_VARS})")
    if max_degree > MAX_LIFT_DEGREE:
        raise DegreeTooLarge(f"degree cap {max_degree} exceeds the guard ({MAX_LIFT_DEGREE})")
    if any(v < 0 or v > 1 for v in vals):
        return None
    base_l = lcm(*(v.denominator for v in vals))
    if base_l > max_degree:
        raise DegreeTooLarge(f"denominator {base_l} exceeds the degree cap {max_degree}")
    for degree in range(base_l, max_degree + 1, base_l):
        counts = [int(v * degree) for v in vals]
        assignment = {}
        feasible = True
        for c in range(g.n_checks):
            idx = g.check_vars(c)
            label = g.labels[c]
            if label is None:
                d = len(idx)
                words = np.array([[ (w >> j) & 1 for j in range(d)]
                                  for w in range(1 << d)
                                  if bin(w).count("1") % 2 == 0], dtype=np.uint8)
            else:
                words = label.codewords
            local_counts = [counts[i] for i in idx]
            chosen = _distribute_local_codewords(words, local_counts, degree)
            if chosen is None:
                feasible = False
                break
            assignment[c] = (words, chosen)
        if not feasible:
            continue
        perms = _assemble_permutations(g, counts, assignment, degree)
        spec = LiftSpec(degree=degree, permutations=tuple(perms))
        lift = build_lift(g, spec)
        word = np.zeros(lift.n_vars, dtype=np.uint8)
        for v in range(g.n_vars):
            word[v * degree: v * degree + counts[v]] = 1
        reduced = reduce_cover_codeword(word, g, lift)
        if list(reduced.values) != vals:
            raise SolverFailure("internal: assembled cover does not reduce to p")
        return LiftWitness(degree=degree, permutations=tuple(perms))
    return None


def _assemble_permutations(g, counts, assignment, degree):
    """Edge permutations matching the canonical cloud patterns (first
    counts[v] copies of variable v are ones) to the chosen local codewords."""
    perms = []
    for v, c, _vs, _cs in g.edges:
        words, chosen = assignment[c]
        j = g.check_vars(c).index(v)
        one_copies = [t for t in range(degree) if words[chosen[t], j] == 1]
        zero_copies = [t for t in range(degree) if words[chosen[t], j] == 0]
        perm = [0] * degree
        ones = list(range(counts[v]))
        zeros = list(range(counts[v], degree))
        for src, dst in zip(ones, one_copies):
            perm[src] = dst
        for src, dst in zip(zeros, zero_copies):
            perm[src] = dst
        perms.append(tuple(perm))
    return perms
