"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload campaign --seeds 1-10 --seconds 25

Runs ``run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and the distance between the first and
third quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in seeds_of(args.seeds):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                               "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        attempted += result["attempted"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(seed, json.dumps(row), flush=True)
        for key, value in row.items():
            values.setdefault(key, []).append(value)
    print(f"failed {failed} of {attempted}")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print(f"{key}: median {med:.6g}  spread {(q3 - q1) / med:.4f}  "
              f"min {min(vals):.6g}  max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
