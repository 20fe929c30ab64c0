#!/usr/bin/env python3
"""Run the full standard campaign set and write one JSON report per theorem.

Each campaign runs as `opineq campaign` through `opineq.cli.main`, so it
prints the command's summary line and reports errors the way the command
does.  The configs are the acceptance gate's; reports go to --outdir, and the
exit code is the worst campaign's (2 over 1 over 0).  It imports opineq from
this checkout's src/, so it runs without installing the package:
`python3 scripts/run_campaigns.py --outdir reports`.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opineq.cli import main as opineq  # noqa: E402

# theorem, count, dim range, arity range, seed
STANDARD = [
    ("EX1", 50, "2..6", "1..3", 7),
    ("T1", 1000, "2..5", "1..3", 19),
    ("T2", 2000, "2..6", "2..4", 7),
    ("T3", 2000, "2..5", "1..3", 17),
    ("T4", 2000, "2..5", "1..3", 17),
    ("T5", 2000, "2..5", "1..3", 31),
    ("T6", 2000, "2..6", "1..4", 31),
    ("COR", 2000, "2..6", "1..4", 31),
    ("LH", 1000, "2..6", "1..3", 37),
    ("KF", 1000, "2..8", "1..3", 23),
    ("CHAIN", 1000, "2..6", "2..4", 11),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports", help="directory for JSON reports")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    worst = 0
    for theorem, count, dims, arities, seed in STANDARD:
        worst = max(worst, opineq([
            "campaign", "--theorem", theorem, "--count", str(count), "--dim", dims,
            "--arity", arities, "--seed", str(seed),
            "--out", str(outdir / f"report-{theorem}-seed{seed}.json"),
        ]))
    print(f"{len(STANDARD)} campaigns in {time.perf_counter() - start:.1f} s")
    return worst


if __name__ == "__main__":
    sys.exit(main())
