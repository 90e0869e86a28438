"""Run workloads over several seeds and report each end-to-end metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload sweep-wide ...]

For every workload and metric it prints the median over the seeds and the
distance between the first and third quartile as a share of that median,
next to the metric's bound in BENCHMARK.json. Runs go one after another, so
the machine is not shared between them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(done.stdout, file=sys.stderr)
                return 1
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            print(
                f"{workload:<15} {metric['name']:<12} median {statistics.median(v):<12.6g} "
                f"spread {spread(v):.4f}  bound {metric['bound']}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
