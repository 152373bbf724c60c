"""The four workloads: inputs made from a seed, one timed pass, and the
independent checks of that pass's outputs.

A workload's `build(seed)` is its set-up (graph construction and input
generation).  `run_pass(inputs, tracer)` performs one full pass through the
package's public functions and returns a `Pass` with its outputs and
timings: the time of every operation, in the same order on every pass
(`ops_are_instances` says whether each is one instance); nothing is
checked inside the timed region.  `reference(inputs)`
makes the benchmark's own comparison values once per run, and
`check(inputs, ref, p)` compares one pass against them.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from fractions import Fraction as F
from time import perf_counter

import numpy as np

import checks
from expandercodes import bec, bounds, cli, graphs, subcodes, tanner


@dataclass
class Pass:
    wall_s: float
    op_times: list[float]
    outputs: list
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    ops: int
    failed: int
    results_checked: int
    errors: list[str]
    extra: dict = field(default_factory=dict)


def _mark(tracer, i: int) -> None:
    if tracer is not None:
        tracer.instance_id = i


def incidence(g) -> np.ndarray:
    """Check-by-variable incidence matrix of a Tanner graph."""
    inc = np.zeros((g.n_checks, g.n_vars), dtype=np.uint8)
    for c in range(g.n_checks):
        inc[c, list(g.check_vars(c))] = 1
    return inc


def local_words(g) -> list:
    """Per check: None for plain parity, else the nonzero local codewords
    recomputed from the label's parity matrix."""
    cache: dict = {}
    out = []
    for label in g.labels:
        if label is None:
            out.append(None)
            continue
        if label.name not in cache:
            cache[label.name] = checks.local_codewords(label.h.bits)
        out.append(cache[label.name])
    return out


def _seeds(rng, k: int) -> list[int]:
    return [int(rng.integers(10 ** 6)) for _ in range(k)]


# -- verify-sweep ---------------------------------------------------------------------


class VerifySweep:
    name = "verify-sweep"
    ops_are_instances = True
    # rows compared against an oracle per pass, by bound id: about half the
    # count seen on every seed tried (78 rows in all), so that a program that
    # starts skipping an oracle fails the pass
    floors = {"A.dmin": 5, "A.smin": 5, "A.wbsc": 4, "B.dmin": 3, "B.smin": 3,
              "B.wbsc": 2, "C.dmin": 6, "C.dmin_improved": 6, "C.smin": 6,
              "C.wbsc": 1, "D.dmin": 1, "D.smin": 1, "D.wbsc": 1,
              "D.wbsc_swapped": 1, "T5.awgn": 2}

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1])
        b = subcodes.builtin
        inst = []
        # (c, d, n, subcode or None, alpha, draws); families whose cost
        # varies widely from draw to draw are left out (see README).
        # draws=None builds one graph from the fixed seed 0: case_b(2,4,8,spc4)
        # and (2,3,6,rep3) are the spc and rep families whose oracles run,
        # and their cost swings 3x and 20x between draws
        for c, d, n, sub, alpha, k in [
                (3, 6, 8, None, F(1, 4), 6),
                (2, 4, 10, None, F(1, 5), 1),
                (2, 6, 9, None, F(2, 9), 2),
                (2, 4, 8, "spc4", F(1, 4), None), (2, 3, 6, "rep3", F(1, 3), None),
                (2, 7, 7, "hamming74", F(2, 7), 2), (2, 4, 16, "spc4", F(1, 8), 1),
                (2, 3, 21, "spc3", F(2, 21), 1)]:
            for s in [0] if k is None else _seeds(rng, k):
                g = (tanner.build_case_a(c, d, n, s) if sub is None
                     else tanner.build_case_b(c, d, n, b(sub), s))
                inst.append((g, alpha))
        for s in _seeds(rng, 2):
            # connected (2,2) graphs are rings
            inst.append((tanner.build_case_a(2, 2, 7, s, require_connected=True), F(2, 7)))
        for s in _seeds(rng, 2):
            n = 16 + 2 * (s % 4)
            inst.append((tanner.build_case_a(3, 6, n, s), F(2, n)))
        for name, sub in [("k4", "spc3"), ("k4", "rep3"), ("k5", "spc4"), ("k6", "spc5"),
                          ("prism3", "rep3"), ("c5", "spc2"), ("k7", "spc6")]:
            inst.append((tanner.build_case_c(graphs.named_graph(name), b(sub)), None))
        for n, d, sub in [(6, 3, "rep3"), (6, 3, "rep3"), (5, 4, "spc4")]:
            s = _seeds(rng, 1)[0]
            inst.append((tanner.build_case_c(graphs.random_regular(n, d, s), b(sub)), None))
        inst.append((tanner.build_case_d(graphs.complete_bipartite(3, 2),
                                         b("rep2"), b("spc3")), None))
        for s in _seeds(rng, 1):
            inst.append((tanner.build_case_d(graphs.random_biregular(3, 2, 3, s),
                                             b("rep2"), b("spc3")), None))
        return inst

    def run_pass(self, inst, tracer=None) -> Pass:
        outputs, times = [], []
        t0 = perf_counter()
        for i, (g, alpha) in enumerate(inst):
            _mark(tracer, i)
            t = perf_counter()
            outputs.append(bounds.verify_bounds(g, alpha=alpha))
            times.append(perf_counter() - t)
        return Pass(perf_counter() - t0, times, outputs)

    def reference(self, inst) -> list:
        return [checks.brute_force_dmin(g.to_parity_matrix().bits) for g, _ in inst]

    def check(self, inst, ref, p: Pass) -> Verdict:
        errors, failed, seen = [], 0, {}
        for i, report in enumerate(p.outputs):
            rows = [(r.bound_id, r.quantity, r.oracle_value, r.holds, r.conjectural)
                    for r in report.rows]
            errs = checks.check_verify_rows(rows, ref[i], seen)
            if errs:
                failed += 1
                errors += [f"instance {i}: {e}" for e in errs]
        floor_errs = checks.check_floors(seen, self.floors)
        if floor_errs:
            # work the program stopped doing fails the whole pass
            failed = len(inst)
            errors += floor_errs
        checked = sum(seen.values())
        return Verdict(len(inst), failed, checked, errors, {"bounds_checked": checked})


# -- bounds-large ---------------------------------------------------------------------


class BoundsLarge:
    name = "bounds-large"
    ops_are_instances = True
    random_subsets = 10_000

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 2])
        b = subcodes.builtin
        inst = []
        for n in (60, 90, 120):
            base = graphs.random_regular(n, 4, _seeds(rng, 1)[0])
            inst.append(("c", tanner.build_case_c(base, b("spc4")), None, base))
        base = graphs.random_biregular(60, 3, 6, _seeds(rng, 1)[0])
        inst.append(("d", tanner.build_case_d(base, b("rep3"), b("spc6")), None, base))
        inst.append(("a", tanner.build_case_a(3, 6, 60, _seeds(rng, 1)[0]), F(1, 12), None))
        inst.append(("b", tanner.build_case_b(2, 4, 40, b("spc4"), _seeds(rng, 1)[0]),
                     F(1, 8), None))
        return inst

    def run_pass(self, inst, tracer=None) -> Pass:
        # the expansion profile is not part of graph_bounds' result, so the
        # one binding graph_bounds calls is tapped for the check
        profiles = []
        inner = bounds.vertex_expansion_profile

        def tap(*args, **kwargs):
            profiles.append(inner(*args, **kwargs))
            return profiles[-1]

        bounds.vertex_expansion_profile = tap
        outputs, times = [], []
        try:
            t0 = perf_counter()
            for i, (_, g, alpha, _) in enumerate(inst):
                _mark(tracer, i)
                seen = len(profiles)
                t = perf_counter()
                reports, context = bounds.graph_bounds(g, alpha=alpha)
                times.append(perf_counter() - t)
                outputs.append((reports, context, profiles[seen] if len(profiles) > seen else None))
            wall = perf_counter() - t0
        finally:
            bounds.vertex_expansion_profile = inner
        return Pass(wall, times, outputs)

    def reference(self, inst) -> list:
        ref = []
        for kind, g, _, base in inst:
            if kind == "c":
                adj = np.zeros((base.n, base.n))
                for u, v in base.edges:
                    adj[u, v] += 1
                    adj[v, u] += 1
                ref.append(adj)
            elif kind == "d":
                size = base.n_left + base.n_right
                adj = np.zeros((size, size))
                for l, r in base.edges:
                    adj[l, base.n_left + r] += 1
                    adj[base.n_left + r, l] += 1
                ref.append(adj)
            else:
                ref.append(incidence(g))
        return ref

    def check(self, inst, ref, p: Pass) -> Verdict:
        errors, failed = [], 0
        rng = np.random.default_rng(len(inst))
        for i, ((kind, _, alpha, _), (_, context, profile)) in enumerate(zip(inst, p.outputs)):
            if kind in ("c", "d"):
                errs = checks.check_mu(context["mu_upper"], ref[i], bipartite=kind == "d")
            elif profile is None:
                errs = ["no expansion profile was computed"]
            else:
                errs = [] if context["delta"] == str(profile.delta) else ["context delta differs from the profile"]
                errs += checks.check_expansion(ref[i], alpha, profile.delta, profile.witness,
                                               rng, self.random_subsets)
            if errs:
                failed += 1
                errors += [f"instance {i} (case_{kind}): {e}" for e in errs]
        return Verdict(len(inst), failed, len(inst), errors)


# -- bec-fer --------------------------------------------------------------------------


@dataclass
class BecInputs:
    mc_graph: object
    mc_probs: tuple
    mc_trials: int
    mc_seed: int
    labelled: object
    words: list
    erasures: list
    scan_graph: object


class BecFer:
    name = "bec-fer"
    ops_are_instances = False
    probs = (0.35, 0.42, 0.5)
    trials = 4
    labelled_decodes = 16

    def build(self, seed: int) -> BecInputs:
        rng = np.random.default_rng([seed, 3])
        mc = tanner.build_case_a(3, 6, 1000, _seeds(rng, 1)[0])
        base = graphs.random_regular(200, 3, _seeds(rng, 1)[0])
        lab = tanner.build_case_c(base, subcodes.builtin("spc3"))
        basis = checks.nullspace(lab.to_parity_matrix().bits)
        words, erasures = [], []
        for t in range(self.labelled_decodes):
            coeffs = rng.integers(0, 2, basis.shape[0]).astype(np.int64)
            words.append(((coeffs @ basis.astype(np.int64)) % 2).astype(np.uint8))
            p = 0.25 if t % 2 == 0 else 0.35
            erasures.append(np.flatnonzero(rng.random(lab.n_vars) < p))
        scan = tanner.build_case_a(3, 6, 14, _seeds(rng, 1)[0])
        return BecInputs(mc, self.probs, self.trials, _seeds(rng, 1)[0], lab, words,
                         erasures, scan)

    def run_pass(self, x: BecInputs, tracer=None) -> Pass:
        trials, stamps = [], []

        def hook(p_idx, t_idx, erased, stuck):
            stamps.append(perf_counter())
            trials.append((p_idx, np.array(erased), bool(stuck)))

        _mark(tracer, 0)
        t0 = perf_counter()
        rows = bec.monte_carlo_fer(x.mc_graph, x.mc_probs, x.mc_trials, x.mc_seed,
                                   trial_hook=hook)
        # operations: each Monte Carlo trial, each labelled decode, the scan
        decoded = []
        for i, (word, erased) in enumerate(zip(x.words, x.erasures), start=1):
            _mark(tracer, i)
            decoded.append(bec.decode_bec(x.labelled, erased, received=word))
            stamps.append(perf_counter())
        t2 = stamps[-1]
        _mark(tracer, len(x.words) + 1)
        scan = bec.failure_equivalence_scan(x.scan_graph)
        t3 = perf_counter()
        op_times = np.diff([t0] + stamps + [t3]).tolist()
        decodes = len(trials) + len(decoded)
        return Pass(t3 - t0, op_times, (rows, trials, decoded, scan),
                    {"decodes_per_s": decodes / (t2 - t0),
                     "scan_patterns_per_s": scan.patterns / (t3 - t2)})

    def reference(self, x: BecInputs) -> dict:
        scan_inc = incidence(x.scan_graph)
        stuck = checks.peel(scan_inc, checks.all_patterns(x.scan_graph.n_vars)).any(axis=1)
        return {"mc_inc": incidence(x.mc_graph), "scan_stuck": int(stuck.sum()),
                "scan_patterns": 1 << x.scan_graph.n_vars}

    def check(self, x: BecInputs, ref, p: Pass) -> Verdict:
        rows, trials, decoded, scan = p.outputs
        errors, failed = [], 0
        n = x.mc_graph.n_vars
        masks = np.zeros((len(trials), n), dtype=bool)
        for t, (_, erased, _) in enumerate(trials):
            masks[t, erased] = True
        peeled = checks.peel(ref["mc_inc"], masks).any(axis=1)
        failures = [0] * len(x.mc_probs)
        for t, (p_idx, _, stuck) in enumerate(trials):
            failures[p_idx] += int(peeled[t])
            if peeled[t] != stuck:
                failed += 1
                errors.append(f"trial {t}: decoder stuck={stuck}, peeling stuck={bool(peeled[t])}")
        if len(trials) != len(x.mc_probs) * x.mc_trials:
            failed += 1
            errors.append(f"{len(trials)} trials reported to the hook")
        got = [r.failures for r in rows]
        if got != failures:
            failed += 1
            errors.append(f"FER failure counts {got}, peeling counts {failures}")
        for i, (res, word) in enumerate(zip(decoded, x.words)):
            if not res.stuck and (res.word is None or not np.array_equal(res.word, word)):
                failed += 1
                errors.append(f"labelled decode {i} returned a word other than the one sent")
        if not (scan.patterns == ref["scan_patterns"] and scan.equivalent
                and scan.decoder_stuck == ref["scan_stuck"]):
            failed += 1
            errors.append(f"scan {scan} disagrees with {ref['scan_stuck']} stuck of "
                          f"{ref['scan_patterns']} patterns")
        ops = len(trials) + len(decoded) + 1
        checked = len(trials) + len(decoded) + scan.patterns
        return Verdict(ops, failed, checked, errors)


# -- analyze --------------------------------------------------------------------------


class Analyze:
    name = "analyze"
    ops_are_instances = True
    # (case, named base, subcodes) built without a seed ...
    fixed = [("c", "k4", ("spc3",)), ("c", "prism3", ("rep3",)), ("c", "c6", ("rep2",)),
             ("c", "c5", ("spc2",)), ("d", "k3,2", ("rep2", "spc3")),
             ("d", "k2,3", ("rep3", "rep2"))]
    # ... and (case, c, d, n, subcode, draws) drawn with seeds from the run's
    # seed.  Families whose cost swings from draw to draw (case_a(2,6,9),
    # case_a(2,4,8), case_b(2,3,6,rep3)) or that alone would take most of a
    # pass (case_b(2,4,6,spc4)) are left out; several draws of a small
    # family average out instead.
    seeded = [("b", 2, 4, 4, "spc4", 2), ("a", 2, 4, 6, None, 4), ("a", 2, 3, 6, None, 1),
              ("a", 2, 2, 7, None, 1)]

    def build(self, seed: int) -> list:
        """(argv, graph) pairs: the command's arguments and the same graph
        built through the package, for the benchmark's own checks."""
        rng = np.random.default_rng([seed, 4])
        b = subcodes.builtin
        inst = []
        for case, base, subs in self.fixed:
            argv = ["--case", case, "--base", base]
            for sub in subs:
                argv += ["--subcode", sub]
            if case == "c":
                g = tanner.build_case_c(graphs.named_graph(base), b(subs[0]))
            else:
                g = tanner.build_case_d(graphs.named_graph(base), b(subs[0]), b(subs[1]))
            inst.append((argv, g))
        draws = [(family, s) for *family, k in self.seeded for s in _seeds(rng, k)]
        for (case, c, d, n, sub), s in draws:
            argv = ["--case", case, "--c", str(c), "--d", str(d), "--n", str(n), "--seed", str(s)]
            if case == "b":
                argv += ["--subcode", sub]
                g = tanner.build_case_b(c, d, n, b(sub), s)
            else:
                g = tanner.build_case_a(c, d, n, s)
            inst.append((argv, g))
        return inst

    def run_pass(self, inst, tracer=None) -> Pass:
        outputs, times = [], []
        t0 = perf_counter()
        for i, (argv, _) in enumerate(inst):
            _mark(tracer, i)
            buf = io.StringIO()
            t = perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["analyze", *argv])
            times.append(perf_counter() - t)
            outputs.append((rc, buf.getvalue()))
        return Pass(perf_counter() - t0, times, outputs)

    def reference(self, inst) -> list:
        return [(checks.brute_force_dmin(g.to_parity_matrix().bits), incidence(g), local_words(g))
                for _, g in inst]

    def check(self, inst, ref, p: Pass) -> Verdict:
        errors, failed, completed = [], 0, 0
        for i, ((rc, text), (dmin, inc, labels)) in enumerate(zip(p.outputs, ref)):
            errs, done = checks.check_analyze(rc, text, dmin, inc, labels)
            completed += done
            if errs:
                failed += 1
                errors += [f"{' '.join(inst[i][0])}: {e}" for e in errs]
        return Verdict(len(inst), failed, completed, errors, {"oracles_completed": completed})


WORKLOADS = {w.name: w for w in (VerifySweep(), BoundsLarge(), BecFer(), Analyze())}
