"""Run one workload of the signedposets benchmark and print its metrics.

    python3 bench/run.py --workload catalog-n3 --seed 1 --seconds 20 --trace 0

Run from the repository root.  With --trace 0 the last line of stdout is
one JSON object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run instead.  Each run is a fresh process, so
`count_points`' cache starts empty.  Result and trace files go to bench/out/.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
IMPORTS = 11  # package imports per run, each in a fresh interpreter
SETUPS = 3  # builds of the inputs per run
IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
               "import signedposets; print(time.perf_counter() - t0)")


def _import_times(count: int) -> list[float]:
    """Times of `import signedposets`, each in a fresh interpreter."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(ROOT / "src")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def _run_ops(specs, run_op, tracer=None):
    """Run each operation once: [(spec, output, seconds)].  With a tracer, the
    operations are numbered from 0 for the spans."""
    clock = time.perf_counter
    done = []
    for k, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        try:
            output = run_op(spec)
        except Exception as exc:  # a failed operation is counted, not fatal
            output = exc
        done.append((spec, output, clock() - t0))
    if tracer is not None:
        tracer.op = None
    return done


def _timed_pass(workload, inputs, run_op, seconds: float):
    """Whole rounds, at least `workload.min_rounds`, until their operations
    have taken `seconds`: ([(spec, output, seconds)], timed seconds).  Getting
    a round's inputs, which for sweep-n4 closes its posets, is off the clock."""
    clock = time.perf_counter
    done = []
    timed = 0.0
    r = 0
    while r < workload.min_rounds or timed < seconds:
        specs = workload.round(inputs, r)
        t0 = clock()
        done += _run_ops(specs, run_op)
        timed += clock() - t0
        r += 1
    return done, timed


def _replay(specs, run_op, tracer=None):
    """The same operations again: ([(spec, output, seconds)], wall seconds)."""
    start = time.perf_counter()
    done = _run_ops(specs, run_op, tracer)
    return done, time.perf_counter() - start


def _check(workload, done) -> tuple[int, list[str]]:
    """(failed operations, problems with the outputs of the others)."""
    failed = 0
    problems = []
    for spec, output, _ in done:
        if workload.failed(output):
            failed += 1
        else:
            problems += workload.problems(spec, output)
    return failed, problems


def _quantile(values, q: int) -> float:
    """The q-th of the 99 percentile cut points (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "signedposets" / "__init__.py").is_file():
        print(f"no signedposets sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        return _run(args, workloads.WORKLOADS[args.workload], out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload_class, out_dir, workdir) -> int:
    from tracing import Tracer

    workload = workload_class(args.seed, workdir)
    tracer = Tracer() if args.trace else None

    def span(name, fn):
        return fn() if tracer is None else tracer.run_span(name, fn)

    import_s = statistics.median(_import_times(IMPORTS))
    drawn = workload.draw()
    if tracer is not None:
        tracer.install(setup=True)
    builds = []
    for _ in range(SETUPS):
        inputs = None  # so the previous build's memory is free before the next
        t0 = time.perf_counter()
        inputs = workload.build(drawn, span)
        builds.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.restore()
    setup_s = import_s + statistics.median(builds)

    done, wall = _timed_pass(workload, inputs, workload.op(None), args.seconds)
    peak_rss_kb = resource.getrusage(workload.rusage_who).ru_maxrss
    times = [seconds for _, _, seconds in done]
    failed, problems = _check(workload, done)
    problems += workload.run_problems(inputs)
    makeup = Counter(workload.label(spec) for spec, _, _ in done)

    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(done) / wall, "1/s"),
            "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
            "op_p90_ms": (1000.0 * _quantile(times, 90), "ms"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        }
    else:
        metrics, trace_problems = _traced(workload, tracer, done, wall, args, out_dir)
        problems += trace_problems
        metrics.update(tracer.setup_metrics(SETUPS))
        metrics["catalog.posets"] = (len(inputs) if workload.name == "catalog-n3" else 0, "count")

    for problem in problems[:20]:
        print(f"wrong output: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "timed_s": wall, "makeup": dict(sorted(makeup.items())),
              "ops": [[workload.label(spec), 1000.0 * seconds] for spec, _, seconds in done],
              "problems": problems[:100], **result}
    (out_dir / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name} seed {args.seed}: {len(done)} operations in {wall:.1f} s, "
          f"{failed} failed, {len(problems)} wrong outputs", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _traced(workload, tracer, done, wall, args, out_dir):
    """Per-layer metrics: the same operations again, first untraced then traced.

    The cache is cleared before each pass, so both start as cold as the
    untraced run did.  For cli-mix the passes run `cli.main` in this process
    (clearing the cache before every command, as a fresh process would), and
    the subprocess times of the timed pass give the start-up cost.
    """
    from signedposets import verify
    from signedposets.ehrhart import count_points

    specs = [spec for spec, _, _ in done]
    clear = count_points.cache_clear
    if workload.name == "cli-mix":
        plain, plain_s = _replay(specs, workload.in_process_op(None, clear))
        tracer.install()
        traced, traced_s = _replay(specs, workload.in_process_op(tracer, clear), tracer)
    else:
        plain, plain_s = done, wall
        clear()
        tracer.install()
        traced, traced_s = _replay(specs, workload.op(tracer), tracer)
    cache_entries = count_points.cache_info().currsize
    tracer.restore()

    check_names = [name for name, _ in verify.ALL_CHECKS]
    metrics, nops = tracer.per_op_metrics(workload.op_span, check_names)
    metrics["ehrhart.cache_entries"] = (cache_entries, "count")
    metrics["trace.untraced_s"] = (plain_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    if workload.name == "cli-mix":
        main_ms = [1000.0 * s for _, _, s in plain]
        metrics["cli.main.ms"] = (statistics.fmean(main_ms), "ms")
        metrics["cli.startup_ms"] = (
            statistics.fmean(1000.0 * s for _, _, s in done) - statistics.fmean(main_ms), "ms")
    else:
        metrics["cli.main.ms"] = (0.0, "ms")
        metrics["cli.startup_ms"] = (0.0, "ms")
    _, problems = _check(workload, traced)
    if nops != len(specs):
        problems.append(f"traced {nops} operation spans for {len(specs)} operations")
    tracer.dump(out_dir / f"trace-{workload.name}-seed{args.seed}.json",
                {"workload": workload.name, "seed": args.seed})
    summary = ", ".join(f"{k.split('.')[0]} {v:.1f}" for k, (v, _) in sorted(metrics.items())
                        if k.endswith(".self_ms"))
    print(f"self time per operation (ms): {summary}", file=sys.stderr)
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
