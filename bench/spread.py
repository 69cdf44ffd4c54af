"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--seconds S] [--label L]

Runs bench/run.py once per (workload, seed), one process at a time, and
prints for every end-to-end metric its median, quartiles and the distance
between the quartiles as a share of the median (statistics.quantiles,
n = 4), beside the bound in BENCHMARK.json. Results go to
.bench_out/spread-<label>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
            )
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        summary = {"failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
                   "correct": all(r["correct"] for r in runs), "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                        "spread": (q3 - q1) / med}
            print(f"{workload:17s} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / med:6.3f}  bound {bounds[name]}", flush=True)
        print(f"{workload:17s} correct {summary['correct']}  failed share "
              f"{summary['failed_share']}", flush=True)
        report["workloads"][workload] = summary
    out = ROOT / ".bench_out" / f"spread-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
