"""Compare two checkouts on one benchmark workload with interleaved run pairs.

Usage, from any directory:

    python3 tools/paired_bench.py BASE CHANGE --workload sweep-wide --seeds 1-10 --seconds 55

BASE and CHANGE are two checkouts of this repository (say a `git archive` of
the parent commit and the working tree). For each seed it runs
`perfbench/run.py` once in each checkout, with the same workload, seed,
seconds and `--trace`, one after the other; the side that goes first
alternates from pair to pair, so a drift in machine speed falls on both.
Both runs of a pair see the same machine state, so the pair's ratio
(CHANGE / BASE) is steadier than two medians taken apart.

For every metric a run prints (the end-to-end ones with `--trace 0`, the
per-layer ones with `--trace 1`) it prints the per-pair ratios, their median,
in how many pairs CHANGE was better (the direction comes from BENCHMARK.json),
in how many pairs the run that went first read worse (a run-order bias shows
up here whichever side it lands on), and the median and quartiles of each
side. It then prints the base side's interquartile range and whether a
claimed gain holds: CHANGE better in at least 90% of the pairs, and its
median better than BASE's by more than that range (``claim_met`` in the
JSON summary). It also says whether both runs of
each pair printed the same output checksum, which they do when CHANGE keeps
the search path. The exit code is 1 when a run fails or its output checks
do not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run: its JSON result plus the checksum line, if any."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["checksum"] = next(
        (line.split()[-1] for line in lines if line.startswith("output checksum")), None
    )
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="one pair per seed: 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}

    pairs = []
    ok = True
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: run_once(checkouts[side], args.workload, seed, args.seconds, args.trace) for side in order}
        ok &= all(run["correct"] for run in runs.values())
        pairs.append((seed, order, runs))
        base, change = runs["base"], runs["change"]
        same = "same" if base["checksum"] == change["checksum"] else "DIFFERENT"
        print(
            f"pair {i + 1} (seed {seed}, {order[0]} first): correct {base['correct']}/{change['correct']}, "
            f"checksum {base['checksum']} / {change['checksum']} ({same})",
            flush=True,
        )
        for name, entry in base["metrics"].items():
            b, c = entry["value"], change["metrics"][name]["value"]
            ratio = c / b if b else float("nan")
            print(f"  {name:<34} {b:>14.6g} -> {c:>14.6g}  x{ratio:.4f}", flush=True)

    summary = {}
    print(f"\n{args.workload}, {len(pairs)} pairs of {args.seconds:g} s runs, --trace {args.trace}:")
    for name in pairs[0][2]["base"]["metrics"]:
        values = {side: [runs[side]["metrics"][name]["value"] for _, _, runs in pairs] for side in SIDES}
        ratios = [c / b for b, c in zip(values["base"], values["change"]) if b]
        direction = better.get(name, "higher")

        def worse(a, b):
            return a < b if direction == "higher" else a > b

        wins = sum(worse(b, c) for b, c in zip(values["base"], values["change"]))
        first_worse = sum(
            worse(*(runs[side]["metrics"][name]["value"] for side in order)) for _, order, runs in pairs
        )
        q = {side: quartiles(values[side]) for side in SIDES}
        base_iqr = q["base"][2] - q["base"][0]
        # a claimed gain must win nine pairs in ten and move the median by
        # more than the base side's spread
        most_pairs = wins >= 0.9 * len(pairs)
        beyond_iqr = worse(q["base"][1], q["change"][1]) and abs(q["change"][1] - q["base"][1]) > base_iqr
        summary[name] = {
            "median_ratio": statistics.median(ratios) if ratios else None,
            "change_better": wins,
            "first_worse": first_worse,
            "pairs": len(pairs),
            **{f"{side}_quartiles": q[side] for side in SIDES},
            "base_iqr": base_iqr,
            "claim_met": most_pairs and beyond_iqr,
        }
        print(
            f"  {name} ({direction} is better): median ratio "
            f"{summary[name]['median_ratio'] if ratios else float('nan'):.4f}, "
            f"change better in {wins} of {len(pairs)}, first run worse in {first_worse}; "
            + "; ".join(f"{side} median {q[side][1]:.6g} (quartiles {q[side][0]:.6g}/{q[side][2]:.6g})" for side in SIDES)
            + f"; base IQR {base_iqr:.6g}; better in at least 90% of pairs: {'yes' if most_pairs else 'no'}, "
            f"medians apart by more than the base IQR: {'yes' if beyond_iqr else 'no'}"
        )
    print(json.dumps({"correct": ok, "workload": args.workload, "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
