#!/usr/bin/env python3
"""Run the full standard campaign set and write one JSON report per theorem.

This is the batch counterpart of `opineq campaign`: same configs as the
acceptance gate, reports dropped into --outdir, nonzero exit on any failure.
It imports opineq from this checkout's src/, so it runs without installing
the package: `python3 scripts/run_campaigns.py --outdir reports`.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opineq.harness import CampaignConfig, run_campaign  # noqa: E402

STANDARD = [
    CampaignConfig("EX1", 50, seed=7),
    CampaignConfig("T1", 1000, dim_range=(2, 5), arity_range=(1, 3), seed=19),
    CampaignConfig("T2", 2000, dim_range=(2, 6), arity_range=(2, 4), seed=7),
    CampaignConfig("T3", 2000, dim_range=(2, 5), arity_range=(1, 3), seed=17),
    CampaignConfig("T4", 2000, dim_range=(2, 5), arity_range=(1, 3), seed=17),
    CampaignConfig("T5", 2000, dim_range=(2, 5), arity_range=(1, 3), seed=31),
    CampaignConfig("T6", 2000, dim_range=(2, 6), arity_range=(1, 4), seed=31),
    CampaignConfig("COR", 2000, dim_range=(2, 6), arity_range=(1, 4), seed=31),
    CampaignConfig("LH", 1000, dim_range=(2, 6), seed=37),
    CampaignConfig("KF", 1000, dim_range=(2, 8), seed=23),
    CampaignConfig("CHAIN", 1000, dim_range=(2, 6), arity_range=(2, 4), seed=11),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports", help="directory for JSON reports")
    parser.add_argument("--seed-shift", type=int, default=0,
                        help="added to every campaign seed (fresh instance streams)")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    total_fail = 0
    print(f"{'theorem':>8} {'count':>6} {'pass':>6} {'fail':>5} {'invalid':>8} "
          f"{'near-eq':>8} {'min gap':>12} {'time':>8}")
    for base in STANDARD:
        cfg = CampaignConfig(
            base.theorem, base.count, base.dim_range, base.arity_range,
            base.seed + args.seed_shift, base.tol, base.functions,
        )
        t0 = time.perf_counter()
        rep = run_campaign(cfg)
        dt = time.perf_counter() - t0
        path = outdir / f"report-{cfg.theorem}-seed{cfg.seed}.json"
        path.write_text(rep.to_json(indent=2) + "\n")
        s = rep.summary
        gap = "n/a" if s["min_gap"] is None else f"{s['min_gap']:.3e}"
        print(f"{cfg.theorem:>8} {cfg.count:>6} {s['pass']:>6} {s['fail']:>5} "
              f"{s['invalid']:>8} {s['near_equality']:>8} {gap:>12} {dt:>7.1f}s")
        total_fail += s["fail"]
    print(f"reports in {outdir}/")
    return 0 if total_fail == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
