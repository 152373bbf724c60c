"""Command-line front end: construct, analyze, bounds, verify, simulate.

Every command echoes its parsed configuration into the output document, and
all randomness flows from the user seed through named substreams, so a report
can be regenerated byte for byte from its own config block.  Rationals are
rendered as strings, floats at 12 significant digits, keys sorted.

Exit codes: 0 success, 2 when nothing was applicable (hypotheses all failed
or everything was guard-skipped), 3 verification failure, 4 input error,
5 guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache

from . import bec, bounds, expansion, gf2, graphs, polytope, spectral, subcodes, tanner
from .errors import (
    ExpanderCodesError,
    GuardExceeded,
    InputError,
)

EXIT_OK = 0
EXIT_INAPPLICABLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_INPUT = 4
EXIT_GUARD = 5

SPECTRUM_SIZE_CAP = 256


@dataclass(frozen=True)
class RunConfig:
    """Parsed command configuration, echoed into every output document."""

    command: str
    input: str | None = None
    case: str | None = None
    c: int | None = None
    d: int | None = None
    n: int | None = None
    m: int | None = None
    base: str | None = None
    subcodes: tuple[str, ...] = ()
    alpha: str | None = None
    seed: int = 0
    guard_subsets: int | None = None
    erasure_probs: tuple[float, ...] = ()
    trials: int = 1000
    trial_log: str | None = None
    format: str = "json"
    out: str | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["subcodes"] = list(self.subcodes)
        d["erasure_probs"] = list(self.erasure_probs)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "subcodes" in data:
            data["subcodes"] = tuple(data["subcodes"])
        if "erasure_probs" in data:
            data["erasure_probs"] = tuple(data["erasure_probs"])
        return cls(**data)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage, which this tool reserves
    # for "nothing applicable"; route usage problems to the input-error path
    def error(self, message):
        raise InputError(message)


@lru_cache
def _build_parser() -> _Parser:
    """The one parser of this process: argparse does not change a parser
    while it parses, and the --subcode append action copies its default."""
    p = _Parser(prog="expandercodes", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_alpha=True):
        sp.add_argument("--input", help="graph JSON or alist file to load")
        sp.add_argument("--case", choices=["a", "b", "c", "d"])
        sp.add_argument("--c", type=int, help="variable degree (left degree)")
        sp.add_argument("--d", type=int, help="check degree (right degree)")
        sp.add_argument("--n", type=int, help="variable count (cases a, b) or base vertices (case c)")
        sp.add_argument("--m", type=int, help="left base vertices (case d)")
        sp.add_argument("--base", help="named base graph (k4, c5, petersen, k3,3, ...) or edge-list file")
        sp.add_argument("--subcode", action="append", default=[], dest="subcodes",
                        help="subcode name (spc3, rep4, hamming74, ...) or parity file; repeat for case d")
        sp.add_argument("--seed", type=int, default=0)
        if with_alpha:
            sp.add_argument("--alpha", help="subset-size ratio as a rational, e.g. 1/4")
        sp.add_argument("--guard-subsets", type=int, dest="guard_subsets",
                        help="budget for exhaustive subset scans")
        sp.add_argument("--format", choices=["json", "csv"], default="json")
        sp.add_argument("--out", help="output path (default stdout); construct writes <out>.json and <out>.alist")

    for name in ("construct", "analyze", "bounds", "verify"):
        common(sub.add_parser(name))
    sim = sub.add_parser("simulate")
    common(sim)
    sim.add_argument("--erasure-probs", dest="erasure_probs", default="0.5",
                     help="comma-separated erasure probabilities")
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--trial-log", dest="trial_log",
                     help="CSV path for per-trial outcomes")
    lst = sub.add_parser("subcodes")
    lst.add_argument("--format", choices=["json", "csv"], default="json")
    lst.add_argument("--out")
    return p


def _config_from_args(args) -> RunConfig:
    values = {f.name: getattr(args, f.name, f.default) for f in fields(RunConfig)}
    values["subcodes"] = tuple(values["subcodes"])
    probs = values["erasure_probs"]  # the option's text, when the command has one
    try:
        values["erasure_probs"] = (tuple(float(x) for x in probs.split(",") if x.strip())
                                   if probs else ())
    except ValueError as exc:
        raise InputError(f"bad erasure probability list: {exc}") from exc
    bad = [p for p in values["erasure_probs"] if not math.isfinite(p)]
    if bad:
        raise InputError(f"erasure probability {bad[0]} is not a finite number")
    return RunConfig(**values)


# -- input resolution ---------------------------------------------------------------


def _resolve_subcode(name: str) -> subcodes.SubcodeSpec:
    try:
        return subcodes.builtin(name)
    except ExpanderCodesError:
        pass
    if os.path.exists(name):
        with open(name) as fh:
            text = fh.read()
        try:
            h = gf2.parse_alist(text)
        except ValueError:
            h = gf2.parse_dense_text(text)
        return subcodes.from_parity(h, name=os.path.basename(name))
    raise InputError(f"subcode {name!r} is neither a catalog name nor a file")


def _resolve_base(spec: str, bipartite: bool):
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
        return (graphs.parse_bipartite_edge_list(text) if bipartite
                else graphs.parse_edge_list(text))
    try:
        g = graphs.named_graph(spec)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    want = graphs.BipartiteGraph if bipartite else graphs.Graph
    if not isinstance(g, want):
        raise InputError(f"base {spec!r} is not {'bipartite' if bipartite else 'a plain graph'}")
    return g


def _need(cfg: RunConfig, *names: str):
    missing = [x for x in names if getattr(cfg, x) in (None, ())]
    if missing:
        raise InputError(f"case {cfg.case}: missing {', '.join('--' + m for m in missing)}")


def _construct(cfg: RunConfig) -> tanner.TannerGraph:
    if cfg.case == "a":
        _need(cfg, "c", "d", "n")
        return tanner.build_case_a(cfg.c, cfg.d, cfg.n, cfg.seed)
    if cfg.case == "b":
        _need(cfg, "c", "d", "n", "subcodes")
        return tanner.build_case_b(cfg.c, cfg.d, cfg.n,
                                   _resolve_subcode(cfg.subcodes[0]), cfg.seed)
    if cfg.case == "c":
        _need(cfg, "subcodes")
        if cfg.base is not None:
            base = _resolve_base(cfg.base, bipartite=False)
        else:
            _need(cfg, "n", "d")
            base = graphs.random_regular(cfg.n, cfg.d, cfg.seed)
        return tanner.build_case_c(base, _resolve_subcode(cfg.subcodes[0]))
    if cfg.case == "d":
        if len(cfg.subcodes) != 2:
            raise InputError("case d needs exactly two --subcode values (left, right)")
        if cfg.base is not None:
            base = _resolve_base(cfg.base, bipartite=True)
        else:
            _need(cfg, "m", "c", "d")
            base = graphs.random_biregular(cfg.m, cfg.c, cfg.d, cfg.seed)
        return tanner.build_case_d(base, _resolve_subcode(cfg.subcodes[0]),
                                   _resolve_subcode(cfg.subcodes[1]))
    raise InputError("construction needs --case a|b|c|d")


def _load_graph(path: str) -> tanner.TannerGraph:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if isinstance(doc, dict) and isinstance(doc.get("graph"), dict):
            doc = doc["graph"]  # combined construct output
        return tanner.TannerGraph.from_json_dict(doc)
    try:
        h = gf2.parse_alist(text)
    except ValueError as exc:
        raise InputError(f"{path} is neither graph JSON nor alist: {exc}") from exc
    return tanner.from_parity_matrix(h)


def _load_or_build(cfg: RunConfig) -> tanner.TannerGraph:
    if cfg.input is not None:
        return _load_graph(cfg.input)
    if cfg.case is not None:
        return _construct(cfg)
    raise InputError("need either --input or --case with construction flags")


def _parse_alpha(cfg: RunConfig):
    if cfg.alpha is None:
        return None
    try:
        return Fraction(cfg.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad --alpha {cfg.alpha!r}: {exc}") from exc


# -- output -------------------------------------------------------------------------


def _normalize(obj):
    """Fixed-precision floats and stringified exotic scalars, recursively."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    return obj


def _dump_json(doc: dict) -> str:
    return json.dumps(_normalize(doc), indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv_table(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([row.get(col, "") for col in columns])
    return buf.getvalue()


# -- commands -----------------------------------------------------------------------


def cmd_construct(cfg: RunConfig) -> int:
    g = _load_or_build(cfg)
    alist = gf2.to_alist(g.to_parity_matrix())
    doc = {"config": cfg.to_dict(), "graph": g.to_json_dict(), "alist": alist,
           "params": expander_params_or_none(g)}
    if cfg.out is not None:
        _write(g.to_json(), cfg.out + ".json")
        _write(alist, cfg.out + ".alist")
        sys.stdout.write(f"wrote {cfg.out}.json and {cfg.out}.alist\n")
    else:
        _write(_dump_json(doc), None)
    return EXIT_OK


def expander_params_or_none(g) -> dict | None:
    if g.provenance in ("case_a", "case_b", "case_c", "case_d"):
        return tanner.expander_params(g).to_dict()
    return None


def _guarded(fn, *args, **kwargs) -> dict:
    try:
        value = fn(*args, **kwargs)
    except GuardExceeded as exc:
        return {"skipped": str(exc)}
    return {"value": value}


def cmd_analyze(cfg: RunConfig) -> int:
    g = _load_or_build(cfg)
    alpha = _parse_alpha(cfg)
    doc: dict = {"config": cfg.to_dict()}
    doc["graph"] = {"n_vars": g.n_vars, "n_checks": g.n_checks,
                    "provenance": g.provenance,
                    "connected": g.is_connected(),
                    "all_simple": g.all_simple}
    try:
        c, d = g.biregular_degrees()
        doc["graph"]["degrees"] = [c, d]
    except ExpanderCodesError:
        doc["graph"]["degrees"] = None
    doc["params"] = expander_params_or_none(g)
    h = g.to_parity_matrix()
    doc["code"] = _guarded(lambda: asdict(gf2.code_params(h)))
    if h.rows <= SPECTRUM_SIZE_CAP:
        doc["hht_spectrum"] = spectral.hht_spectrum(h).to_dict()
    else:
        doc["hht_spectrum"] = {"skipped": f"{h.rows} rows exceed {SPECTRUM_SIZE_CAP}"}
    if g.provenance == "case_c":
        base = tanner.reconstruct_base(g)
        doc["base_spectrum"] = spectral.spectrum(base.adjacency()).to_dict()
    elif g.provenance == "case_d":
        base = tanner.reconstruct_bipartite_base(g)
        doc["base_spectrum"] = spectral.spectrum(base.full_adjacency()).to_dict()
    if alpha is not None:
        kwargs = {} if cfg.guard_subsets is None else {"budget": cfg.guard_subsets}
        doc["expansion"] = _guarded(
            lambda: expansion.vertex_expansion_profile(g, alpha, **kwargs).to_dict())
    oracles: dict = {}
    oracles["min_stopping_set"] = _guarded(_oracle_smin, g)
    oracles["bsc_pseudoweight"] = _guarded(_oracle_bsc, g)
    oracles["awgn_pseudoweight"] = _guarded(_oracle_awgn, g)
    doc["oracles"] = oracles
    _write(_dump_json(doc), cfg.out)
    return EXIT_OK


def _oracle_smin(g):
    s = polytope.min_stopping_set(g)
    if s is None:
        return None
    return {"size": len(s.support), "support": list(s.support), "kind": s.kind}


def _oracle_bsc(g):
    got = polytope.min_bsc_pseudoweight(g)
    if got is None:
        return None
    weight, witness = got
    return {"weight": weight, "witness": witness.to_dict()}


def _oracle_awgn(g):
    got = polytope.min_awgn_pseudoweight(g)
    if got is None:
        return None
    weight, witness = got
    return {"weight": str(weight), "weight_float": float(weight),
            "witness": witness.to_dict()}


def cmd_bounds(cfg: RunConfig) -> int:
    g = _load_or_build(cfg)
    alpha = _parse_alpha(cfg)
    reports, context = bounds.graph_bounds(g, alpha=alpha,
                                           subset_budget=cfg.guard_subsets)
    doc = {"config": cfg.to_dict(), "context": context,
           "bounds": [r.to_dict() for r in reports]}
    if cfg.format == "csv":
        rows = [r.to_dict() for r in reports]
        for row in rows:
            row["hypotheses"] = "; ".join(
                f"{h['name']}={'y' if h['holds'] else 'n'}" for h in row["hypotheses"])
        text = _csv_table(rows, ["bound_id", "quantity", "value", "applicable",
                                 "meaningful", "strict", "conjectural", "hypotheses"])
        _write(text, cfg.out)
    else:
        _write(_dump_json(doc), cfg.out)
    return EXIT_OK if any(r.applicable for r in reports) else EXIT_INAPPLICABLE


def cmd_verify(cfg: RunConfig) -> int:
    g = _load_or_build(cfg)
    alpha = _parse_alpha(cfg)
    report = bounds.verify_bounds(g, alpha=alpha, subset_budget=cfg.guard_subsets)
    doc = {"config": cfg.to_dict(), "verification": report.to_dict()}
    if cfg.format == "csv":
        text = _csv_table([r.to_dict() for r in report.rows],
                          ["bound_id", "quantity", "bound_value", "oracle_value",
                           "holds", "skipped", "strict", "conjectural"])
        _write(text, cfg.out)
    else:
        _write(_dump_json(doc), cfg.out)
    if report.failures:
        return EXIT_VERIFY_FAILED
    if report.checked == 0:
        return EXIT_INAPPLICABLE
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    g = _load_or_build(cfg)
    if not cfg.erasure_probs:
        raise InputError("simulate needs --erasure-probs")
    if cfg.trials < 1:
        raise InputError("--trials must be positive")
    log_rows: list[dict] = []
    hook = None
    if cfg.trial_log is not None:
        def hook(p_idx, t_idx, erased, stuck):
            digest = hashlib.sha256(
                ",".join(map(str, sorted(int(i) for i in erased))).encode()).hexdigest()
            log_rows.append({"prob_index": p_idx, "trial": t_idx,
                             "seed": cfg.seed, "erased_hash": digest[:16],
                             "erased_count": len(erased),
                             "outcome": "stuck" if stuck else "recovered"})
    rows = bec.monte_carlo_fer(g, cfg.erasure_probs, cfg.trials, cfg.seed,
                               trial_hook=hook)
    if cfg.trial_log is not None:
        _write(_csv_table(log_rows, ["prob_index", "trial", "seed", "erased_hash",
                                     "erased_count", "outcome"]), cfg.trial_log)
    if cfg.format == "csv":
        text = _csv_table([_normalize(r.to_dict()) for r in rows],
                          ["erasure_prob", "trials", "failures", "fer",
                           "ci_low", "ci_high"])
        _write(text, cfg.out)
    else:
        doc = {"config": cfg.to_dict(), "fer": [r.to_dict() for r in rows]}
        _write(_dump_json(doc), cfg.out)
    return EXIT_OK


def cmd_subcodes(cfg: RunConfig) -> int:
    rows = []
    for name in subcodes.catalog():
        spec = subcodes.builtin(name)
        rows.append({"name": name, "length": spec.length,
                     "dimension": spec.params.k, "dmin": spec.dmin,
                     "rate": str(spec.rate)})
    if cfg.format == "csv":
        _write(_csv_table(rows, ["name", "length", "dimension", "dmin", "rate"]),
               cfg.out)
    else:
        _write(_dump_json({"subcodes": rows,
                           "note": "custom subcodes load from alist or dense 0/1 text files"}),
               cfg.out)
    return EXIT_OK


_DISPATCH = {
    "construct": cmd_construct,
    "analyze": cmd_analyze,
    "bounds": cmd_bounds,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "subcodes": cmd_subcodes,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        rt = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        if rt != cfg:
            raise InputError("config does not round-trip; this is a bug")
        return _DISPATCH[cfg.command](cfg)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ExpanderCodesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
