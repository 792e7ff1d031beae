"""Run workloads on several seeds and report each metric's median and spread.

    python3 bench/spread.py --workloads ising_z,edit --seeds 1-10 --seconds 12

Runs `bench/run.py --trace 0` once per (workload, seed), one after another, and
prints per metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median), next to the metric's
bound from BENCHMARK.json, plus the share of failed ops.  The raw summaries
are appended to `bench/results/spread.jsonl`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / "bench" / "results" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        summaries = []
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            summary = json.loads(out.stdout.strip().splitlines()[-1])
            summaries.append(summary)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **summary}) + "\n")
        attempted = sum(s["attempted"] for s in summaries)
        failed = sum(s["failed"] for s in summaries)
        print(f"{workload}: {len(summaries)} runs, failed {failed}/{attempted}, "
              f"correct {all(s['correct'] for s in summaries)}")
        for name in summaries[0]["metrics"]:
            values = [s["metrics"][name]["value"] for s in summaries]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("nan")
            unit = summaries[0]["metrics"][name]["unit"]
            print(f"  {name:32s} {unit:>14s}  median {med:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.4f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
