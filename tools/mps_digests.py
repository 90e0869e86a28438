"""Print the SHA-256 of ``write_mps(parse_mps(text))`` for a fixed set of MPS inputs.

Usage, from the repository root:

    python3 tools/mps_digests.py --inputs DIR     # write the inputs into DIR
    PYTHONPATH=src python3 tools/mps_digests.py DIR

The inputs are `tests/data/ranged.mps` and the `write_mps` text of the three
pinned benchmark instances. Writing them once and digesting them under two
checkouts' `src/` (one `PYTHONPATH` each) shows whether parsing moved: the
texts are the same on both sides, so only the reader and the writer differ.
Each output line is a file name and its digest.
"""

import argparse
import hashlib
import shutil
from pathlib import Path

from parlns import instances
from parlns.mps import parse_mps, write_mps

ROOT = Path(__file__).resolve().parent.parent
GENERATED = {
    "knapsack_40_7.mps": lambda: instances.knapsack(40, 7),
    "setcover_30x40_7.mps": lambda: instances.set_cover(30, 40, 7),
    "indepset_60_7.mps": lambda: instances.independent_set(60, 0.1, 7),
}


def write_inputs(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(ROOT / "tests" / "data" / "ranged.mps", out / "ranged.mps")
    for name, make in GENERATED.items():
        (out / name).write_text(write_mps(make()))


def digests(inputs: Path) -> list[str]:
    return [
        f"{path.name} {hashlib.sha256(write_mps(parse_mps(path.read_text())).encode()).hexdigest()}"
        for path in sorted(inputs.glob("*.mps"))
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="the directory of the inputs")
    parser.add_argument("--inputs", action="store_true", help="write the inputs into DIR")
    args = parser.parse_args()
    if args.inputs:
        write_inputs(args.dir)
    else:
        print("\n".join(digests(args.dir)))


if __name__ == "__main__":
    main()
