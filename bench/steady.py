"""Steadiness of the end-to-end metrics: run each workload once per seed and
report, per metric, the median, the quartiles and the spread against its bound.

    python3 bench/steady.py --seeds 1-10 --out bench/out/steady-A.json
    python3 bench/steady.py --seeds 1          # every workload once
    python3 bench/steady.py --seeds 11-20 --compare bench/out/steady-A.json

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
`statistics.quantiles(values, n=4)`; the workloads, the run length and the
bounds come from BENCHMARK.json.  With --compare, each median is also
compared with the one in an earlier output: `shift` is how much worse it got,
as a share of the earlier median.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _run(workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _worse_share(better: str, old: float, new: float) -> float:
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--compare", help="an earlier output of this command")
    parser.add_argument("--out", help="where to write the values (default bench/out/steady-<time>.json)")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    record = {}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seeds(args.seeds):
            t0 = time.monotonic()
            result = _run(workload, seed, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.0f} s, "
                  f"correct={result['correct']} {result['failed']}/{result['attempted']} failed",
                  file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        record[workload] = {"seeds": _seeds(args.seeds), "failed_shares": shares,
                            "correct": all(r["correct"] for r in runs), "values": {}}
        print(f"\n{workload}: {len(runs)} runs, all correct: {record[workload]['correct']}, "
              f"failed shares: {shares}")
        print(f"  {'metric':<12} {'unit':<5} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>7} "
              f"{'bound':>6}  {'shift':>7}")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            record[workload]["values"][name] = values
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            line = (f"  {name:<12} {m['unit']:<5} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                    f"{spread:>7.3f} {m['bound']:>6.2f}")
            flag = "" if spread <= m["bound"] / 3 else "  spread > bound/3"
            if spread > m["bound"]:
                steady, flag = False, "  SPREAD > BOUND"
            old = earlier.get(workload, {}).get("values", {}).get(name)
            if old:
                shift = _worse_share(m["better"], statistics.median(old), med)
                line += f"  {shift:>7.3f}"
                if shift > m["bound"]:
                    steady, flag = False, flag + "  SHIFT > BOUND"
            print(line + flag)
        if len(shares) > 1 or not record[workload]["correct"]:
            steady = False
    out = Path(args.out) if args.out else BENCH / "out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"\nvalues written to {out}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
