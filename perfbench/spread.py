"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 perfbench/spread.py --seeds 1-10 [--workloads fuse-bank,eval-detect] [--out FILE]

Runs ``run.py --trace 0`` once per seed on each workload. The workload order
alternates from one seed to the next (forward, then reversed), so that slow
periods of a shared host are spread across workloads. For each metric it
prints the median and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. ``--out`` keeps every result line
as JSON, so that two sets of runs can be compared with ``--compare``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(results: dict[str, list[dict]], spec: dict) -> None:
    for workload, rows in results.items():
        print(f"{workload} ({len(rows)} runs)")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            line = f"  {m['name']:<12} median {statistics.median(values):10.4f} {m['unit']:<3}"
            if len(values) >= 2:
                s = spread(values)
                flag = "TOO WIDE" if s > m["bound"] else "within bound"
                if s <= m["bound"] / 3:
                    flag = "ok"
                line += f"  spread {s:6.3f}  bound {m['bound']}  {flag}"
            print(line)


def compare(first: dict[str, list[dict]], second: dict[str, list[dict]], spec: dict) -> None:
    for workload in first:
        print(f"{workload}: second median against first")
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            change = b / a - 1 if m["better"] == "lower" else a / b - 1
            flag = "ok" if change <= m["bound"] else "WORSE THAN BOUND"
            print(f"  {m['name']:<12} {a:10.4f} -> {b:10.4f}  worse by {change:+.3f}  {flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--out", help="write the result lines here as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two --out files instead of running")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        summarize(first, spec)
        summarize(second, spec)
        compare(first, second, spec)
        return 0

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in names if i % 2 == 0 else names[::-1]:
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                return 1
            results[workload].append(result)
            values = "  ".join(
                f"{k}={v['value']:.4f} {v['unit']}" for k, v in result["metrics"].items()
            )
            rate = result["failed"] / result["attempted"]
            print(f"{workload:<15} seed {seed:<4} {values}  error_rate={rate:g}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results))
    summarize(results, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
