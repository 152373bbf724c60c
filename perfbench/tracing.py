"""Span tracing by wrapping the package's public functions from outside.

Every public function of a layer module is replaced, for the duration of a
traced run, by a wrapper that records a span: name, start, end, parent span
and the benchmark's current instance id.  Modules bind the names they import
at import time, so the wrapper is installed on every module attribute that
refers to a package function (``bounds.spectrum`` as well as
``spectral.spectrum``); spans are named after the defining module.  scipy's
``linprog`` as bound in ``polytope`` is traced as ``polytope.highs_screen``.

Self time is a span's duration minus the durations of its direct child
spans, accumulated while the run proceeds.  Spans are kept in flat arrays
and written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("bounds", "polytope", "lpsolve", "gf2", "spectral", "expansion", "bec", "cli")
CONSTRUCTION = ("tanner", "graphs", "subcodes")
RENAMED = {("polytope", "linprog"): "polytope.highs_screen"}


class Tracer:
    def __init__(self, package: types.ModuleType):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.instance_id = -1
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._patches: list[tuple] = []
        self.reset_totals()

    def reset_totals(self) -> None:
        """Start a fresh accumulation of calls and self time (spans stay)."""
        self.calls = Counter()
        self.self_s = Counter()
        self.pair_calls = Counter()  # (parent name id, child name id)
        self.decode_rounds = 0
        self.subsets_checked = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        for mod_name in LAYERS + CONSTRUCTION:
            module = getattr(self.package, mod_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if (mod_name, attr) in RENAMED:
                    name = RENAMED[(mod_name, attr)]
                elif home.startswith(prefix):
                    name = f"{home[len(prefix):]}.{value.__name__}"
                else:
                    continue
                self._patches.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        on_result = {"bec.decode_bec": self._rounds,
                     "expansion.vertex_expansion_profile": self._subsets}.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(self.start)
            self.start.append(0.0)
            self.end.append(0.0)
            self.name_id.append(nid)
            self.parent.append(-1 if parent is None else parent[0])
            self.instance.append(self.instance_id)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.start[idx] = t0
                self.end[idx] = t1
                self.calls[nid] += 1
                self.self_s[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                self.pair_calls[(-1 if parent is None else parent[1], nid)] += 1
            if on_result is not None:
                on_result(result)
            return result

        return span

    def _rounds(self, result) -> None:
        self.decode_rounds += result.rounds

    def _subsets(self, result) -> None:
        self.subsets_checked += result.subsets_checked

    # -- read-out -----------------------------------------------------------------

    def totals(self, name: str) -> tuple[int, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def calls_under(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.pair_calls[(self._ids[parent], self._ids[child])]

    def self_by_name(self) -> dict[str, float]:
        return {self.names[i]: s for i, s in self.self_s.items()}

    def save(self, path) -> None:
        """Write every span as flat arrays (numpy .npz, one row per span)."""
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.instance, dtype=np.int32))


def layer_metrics(tr: Tracer, passes: int, construct_s: float, overhead_s: float) -> dict:
    """Per-layer metrics per traced pass, as {name: (value, unit)}."""
    out: dict[str, tuple[float, str]] = {}

    def per_pass(x):
        return x / passes

    def add(name, calls=False, self_s=False, mean_ms=False):
        n, s = tr.totals(name)
        if calls:
            out[f"{name}.calls"] = (per_pass(n), "count")
        if self_s:
            out[f"{name}.self_s"] = (per_pass(s), "s")
        if mean_ms:
            out[f"{name}.mean_ms"] = (1000 * s / n if n else 0.0, "ms")

    add("lpsolve.lp_solve", calls=True, self_s=True, mean_ms=True)
    add("lpsolve.enumerate_vertices", calls=True, self_s=True)
    add("polytope.min_bsc_pseudoweight", self_s=True)
    add("polytope.highs_screen", calls=True, self_s=True)
    screens = tr.totals("polytope.highs_screen")[0]
    exact = tr.calls_under("polytope.min_bsc_pseudoweight", "lpsolve.lp_solve")
    out["polytope.bsc_exact_per_screen"] = (exact / screens if screens else 0.0, "ratio")
    out["polytope.bsc_float_only_drops"] = (per_pass(screens - exact), "count")
    add("polytope.min_awgn_pseudoweight", self_s=True)
    add("polytope.min_stopping_set", calls=True, self_s=True)
    add("gf2.min_distance_exhaustive", self_s=True)
    add("gf2.code_params", self_s=True)
    add("gf2.solve", calls=True, self_s=True)
    add("gf2.nullspace_basis", calls=True, self_s=True)
    add("bec.decode_bec", calls=True, self_s=True)
    out["bec.decode_rounds"] = (per_pass(tr.decode_rounds), "count")
    add("bec.failure_equivalence_scan", self_s=True)
    add("spectral.spectrum", calls=True, self_s=True)
    add("spectral.hht_spectrum", self_s=True)
    add("expansion.vertex_expansion_profile", self_s=True)
    exp_s = tr.totals("expansion.vertex_expansion_profile")[1]
    out["expansion.subsets_per_s"] = (tr.subsets_checked / exp_s if exp_s else 0.0, "1/s")
    add("bounds.graph_bounds", self_s=True)
    add("bounds.verify_bounds", self_s=True)
    add("cli.main", self_s=True)
    out["construct.self_s"] = (construct_s, "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def construct_self_s(tr: Tracer) -> float:
    """Self time of the graph builders: tanner.build_case_* and graphs.random_*."""
    return sum(s for name, s in tr.self_by_name().items()
               if name.startswith("tanner.build_case_") or name.startswith("graphs.random_"))
