"""Run one benchmark workload and print its metrics as a JSON last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics, from a separate traced run that also writes its spans
to ``perfbench/.work/``. Metric names and units come from BENCHMARK.json.
Output checks that fail turn ``correct`` to false. The program is imported
from ``src/``; without it the run exits with code 2.
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / ".work"


def _source_digest() -> str:
    """Identifies the program's and the benchmark's code, so checksums are
    compared between runs of one commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "parlns").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _compare_checksum(workload: str, seed: int, digest: str, errors: list[str]) -> None:
    """Two runs of one code and seed must walk the same search path.

    The BLAS thread count changes the order of floating-point sums, hence LP
    vertices and the path, so it is part of the key.
    """
    path = WORK_DIR / "checksums.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    blas = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    key = f"{workload}:{seed}:{_source_digest()}:cpus={os.cpu_count()}:blas={blas}"
    if key in known and known[key] != digest:
        errors.append(
            f"search-path checksum {digest} differs from {known[key]} of an earlier run of this code"
        )
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "parlns").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: on two cores the second thread
    # bought no speed on the sweep's dense LPs, and it made runs less steady.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    WORK_DIR.mkdir(exist_ok=True)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), WORK_DIR)
    if out.digest:
        _compare_checksum(args.workload, args.seed, out.digest, out.errors)
        out.lines.append(f"output checksum {out.digest}")
    values = out.per_layer if args.trace else out.e2e
    if out.recorder is not None:
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        out.recorder.write_jsonl(spans_path)
        out.lines.append(f"{len(out.recorder.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for line in out.lines:
        print(line)
    for error in out.errors:
        print(f"CHECK FAILED: {error}")
    metrics = {}
    for metric in wanted:
        # a layer this workload never calls did no work: it reads 0
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not out.errors,
                "attempted": out.attempted,
                # an operation that raises ends the run with a traceback instead
                "failed": 0,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
