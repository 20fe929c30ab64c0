"""The opineq benchmark: seeded closed-loop workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload acceptance-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; opineq is imported from its src/.  The
workloads, metric names and units are those of BENCHMARK.json.  Each
workload runs in fresh worker processes (perfbench/worker.py) with one BLAS
thread:

* ``--trace 0``: set-up is timed in several fresh processes, then one
  untraced process runs the workload for ``--seconds`` and checks every
  output.  Prints the end-to-end metrics.
* ``--trace 1``: one untraced process, then one traced process, each for
  ``--seconds``, so untraced numbers never carry wrappers.  Prints the
  per-layer metrics; spans go to .perfbench_out/.

The last stdout line is the result object (correct, attempted, failed,
metrics); the line before it holds sample counts, provenance and error
details.  A worker that fails or times out makes the command exit non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 8
# Every worker of one invocation must be done this many seconds after it starts.
DEADLINE_S = 170
# Rounds a timing's tail percentile must leave beyond it.
TAIL_BEYOND = 10
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, seconds: float, mode: str, deadline: float,
            spans: Path | None = None):
    """Run one worker process; return (seconds from start to READY, parsed result or None).

    The worker is killed if it is still running at ``deadline`` (a perf_counter time).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {**os.environ, **THREAD_ENV}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - t0, 0))[0]:
            raise WorkerError(f"{mode} worker not ready within {DEADLINE_S}s")
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker not done within {DEADLINE_S}s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"{mode} worker failed (exit code {proc.returncode})")
    return setup_s, (json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None)


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values beyond it.

    Never below the median: with too few values it is the upper middle one.
    """
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND, len(s) // 2 + 1)
    return s[k - 1], 100.0 * k / len(s)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def end_to_end(run: dict, setups: list[float]) -> dict:
    rounds = run["rounds"]
    tail_value, _ = tail(rounds)
    return {
        "setup_s": statistics.median(setups),
        "instances_per_s": run["instances"] / sum(rounds),
        "round_s.p50": statistics.median(rounds),
        "round_s.tail": tail_value,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.perf_counter() + DEADLINE_S
    try:
        setup_s, run = _worker(args.workload, args.seed, args.seconds, "run", deadline)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            _, traced = _worker(args.workload, args.seed, args.seconds, "trace", deadline, spans)
            runs = [run, traced]
            values = traced["layers"]
            untraced_rate = run["instances"] / sum(run["rounds"])
            values["trace.overhead_ratio"] = traced["instances"] / sum(traced["rounds"]) / untraced_rate
        else:
            setups = [setup_s] + [
                _worker(args.workload, args.seed, args.seconds, "setup", deadline)[0]
                for _ in range(SETUP_SAMPLES)
            ]
            runs = [run]
            values = end_to_end(run, setups)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing or not all(math.isfinite(values[m["name"]]) for m in wanted):
        print(f"perfbench: metrics missing or not finite: {missing}", file=sys.stderr)
        return 1
    attempted = sum(r["instances"] for r in runs)
    failed = sum(r["errors"] for r in runs)
    rounds = run["rounds"]
    _, tail_pct = tail(rounds)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_s.tail_percentile": tail_pct,
        "error_ratio": failed / attempted,
        "error_kinds": [r["error_kinds"] for r in runs],
        "provenance": {**run["provenance"], "git_commit": git_commit()},
    }
    if args.trace:
        detail["spans"] = str(spans.relative_to(ROOT))
        detail["layers_unlisted"] = {k: v for k, v in values.items()
                                     if k not in {m["name"] for m in wanted}}
    else:
        detail["setup_s.samples"] = setups
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
