"""Benchmark for expandercodes: one workload per run, timed from outside.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy.  The run builds the workload's inputs
from the seed (set-up, repeated three times), then makes whole passes over
them for about --seconds (two passes at least), one operation at a time in
this one process.  Every pass's outputs are then checked against the
benchmark's own computations.  With --trace 0 the end-to-end metrics are reported; with
--trace 1 the run is split into untraced and traced passes and the
per-layer metrics are reported.  The last line of standard output is one
JSON object; a results file (and, when traced, a span file) is written
under perfbench/results/.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# one BLAS thread: the load is a closed loop of one operation at a time
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_passes(workload, inputs, budget: float, tracer=None, least: int = 1) -> list:
    """Whole passes while the next one is expected to end within half a
    pass of the budget (at least `least` passes)."""
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(workload.run_pass(inputs, tracer))
        if (len(passes) >= least
                and time.perf_counter() - begin + passes[-1].wall_s / 2 > budget):
            return passes


def pass_time(passes: list) -> float:
    """One pass's time: the sum over its operations of each operation's
    median time across the run's passes, so that a stall of the host during
    one pass moves the figure little."""
    per_op = zip(*(p.op_times for p in passes))
    return sum(statistics.median(ts) for ts in per_op)


def machine_info() -> dict:
    import numpy
    import scipy

    return {"cpu": platform.processor() or platform.machine(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def source_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "expandercodes").glob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "expandercodes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'expandercodes'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import expandercodes
    import expandercodes.cli  # noqa: F401  (cli is not imported by the package)

    import tracing
    import workloads

    if Path(expandercodes.__file__).resolve().parent != (SRC / "expandercodes").resolve():
        print(f"error: imported {expandercodes.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    build_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        inputs = workload.build(args.seed)
        build_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(build_times)

    tracer = None
    if args.trace:
        untraced = run_passes(workload, inputs, args.seconds / 2)
        tracer = tracing.Tracer(expandercodes)
        tracer.install()
        try:
            workload.build(args.seed)
            construct_s = tracing.construct_self_s(tracer)
            tracer.reset_totals()
            traced = run_passes(workload, inputs, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        passes = untraced + traced
    else:
        # two passes at least, so that each operation's median has two samples
        passes = run_passes(workload, inputs, args.seconds, least=2)

    # peak memory of set-up and passes, before the checks allocate their own
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref = workload.reference(inputs)
    verdicts = [workload.check(inputs, ref, p) for p in passes]
    attempted = sum(v.ops for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    errors = [e for v in verdicts for e in v.errors]
    correct = not errors

    measured = untraced if args.trace else passes
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (pass_time(measured), "s"),
        "results_checked": (statistics.median(v.results_checked for v in verdicts), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    figures: dict = {}
    for p, v in zip(measured, verdicts):
        for k, x in {**p.extra, **v.extra}.items():
            figures.setdefault(k, []).append(x)
    # workload figures: kept in the results file, not bounded metrics
    extra = {k: statistics.median(xs) for k, xs in figures.items()}
    if workload.ops_are_instances:
        extra["instance_median_s"] = statistics.median(t for p in measured for t in p.op_times)
    if args.trace:
        overhead = pass_time(traced) - pass_time(untraced)
        reported = tracing.layer_metrics(tracer, len(traced), construct_s, overhead)
    else:
        reported = metrics

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "src_lines": source_lines(),
        "build_times_s": build_times, "import_s": import_s,
        "passes": [{"wall_s": p.wall_s, "op_times_s": p.op_times,
                    "traced": i >= len(measured), **p.extra, **v.extra}
                   for i, (p, v) in enumerate(zip(passes, verdicts))],
        "metrics": {k: {"value": x, "unit": u} for k, (x, u) in metrics.items()},
        "workload_metrics": extra,
        "attempted": attempted, "failed": failed, "correct": correct, "errors": errors[:50],
    }
    if args.trace:
        record["per_layer"] = {k: {"value": x, "unit": u} for k, (x, u) in reported.items()}
        record["self_s_by_span"] = {k: s / len(traced) for k, s in
                                    sorted(tracer.self_by_name().items(), key=lambda kv: -kv[1])}
        tracer.save(results_dir / f"{stem}.spans.npz")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    for k, (x, u) in reported.items():
        print(f"{k} = {x:.6g} {u}")
    for k, x in extra.items():
        print(f"{k} = {x:.6g} (workload figure, not bounded)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": x, "unit": u} for k, (x, u) in reported.items()}}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
