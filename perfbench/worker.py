"""One benchmark process: import opineq from the checkout, build a workload, time it.

run.py starts this script; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops once inputs are built, ``run`` times the workload
untraced, ``trace`` times it with the span tracer installed.  On stdout the
process writes ``READY`` when imports and the first inputs are done (run.py
times set-up up to that line), then, except in ``setup`` mode, one JSON line
of results.

Every workload is a closed loop with one client: round r starts when round
r-1 has returned, and uses seed + r.  Outputs are checked after each round,
outside its timer; round 0 runs again at the end and must reproduce
byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_opineq():
    """Import opineq from the checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import opineq

    if Path(opineq.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"opineq was imported from {opineq.__file__}, not from {src}")


_import_opineq()

import numpy as np  # noqa: E402

# The program is called through its module attributes, where a traced run's
# wrappers are installed.
from opineq import harness, means  # noqa: E402
from opineq.abelian import JointDiagonalizationError  # noqa: E402
from opineq.harness import CampaignConfig, GenerationError  # noqa: E402
from opineq.linalg import HermitianMatrix, JacobiConvergenceError  # noqa: E402

# Raised by the program on a numerical dead end; each one counts as an error
# of the instance that raised it instead of ending the run.
COUNTED_ERRORS = (JacobiConvergenceError, GenerationError, JointDiagonalizationError)

# (id, instances per round, dim range, arity range).  The ranges are the
# acceptance ranges of scripts/run_campaigns.py STANDARD; the counts are its
# counts divided by 1000 and rounded, at least 1.
ACCEPTANCE_MIX = (
    ("EX1", 1, (2, 6), (1, 3)),
    ("T1", 1, (2, 5), (1, 3)),
    ("T2", 2, (2, 6), (2, 4)),
    ("T3", 2, (2, 5), (1, 3)),
    ("T4", 2, (2, 5), (1, 3)),
    ("T5", 2, (2, 5), (1, 3)),
    ("T6", 2, (2, 6), (1, 4)),
    ("COR", 2, (2, 6), (1, 4)),
    ("LH", 1, (2, 6), (1, 3)),
    ("KF", 1, (2, 8), (1, 3)),
    ("CHAIN", 1, (2, 6), (2, 4)),
)

LARGE_DIM = tuple((tid, 1, (10, 16), (1, 2)) for tid in ("LH", "T6", "CHAIN", "COR", "KF"))


def scheduled(table, r: int):
    """The campaign rows of round r, each pinned to one dimension and arity of its ranges.

    Row k of round r takes dimension ``lo + (r + k) mod span`` and steps its
    arity once per full pass over the dimensions, so every (dimension,
    arity) pair of the ranges comes round equally often, whatever the seed.
    Jacobi cost grows with the cube of the dimension: letting each instance
    draw its own would make a run's throughput depend more on the draws than
    on the program.  The offset k spreads the dimensions within a round.
    """
    rows = []
    for k, (tid, count, (dlo, dhi), (alo, ahi)) in enumerate(table):
        i = r + k
        span = dhi - dlo + 1
        d = dlo + i % span
        n = alo + (i // span) % (ahi - alo + 1)
        rows.append((tid, count, (d, d), (n, n)))
    return rows


# Pairs per round, in the 500:200 proportion of acceptance criterion 4, at
# dimensions 2..6 stepped like the campaign rows.
GMEAN_INDEPENDENT = 15
GMEAN_COMMUTING = 6
GMEAN_ORACLE_RTOL = 1e-6
GMEAN_EXACT_RTOL = 1e-10


def _strip_wall_time(text: str) -> str:
    d = json.loads(text)
    d.pop("wall_time_s")
    return json.dumps(d, sort_keys=True)


class CampaignWorkload:
    """Rounds of run_campaign calls, one per row of the table, each report serialized."""

    def __init__(self, table, seed: int) -> None:
        self.table = table
        self.seed = seed

    def prepare(self, r: int):
        return [
            CampaignConfig(tid, count, dim_range=dims, arity_range=arity, seed=self.seed + r)
            for tid, count, dims, arity in scheduled(self.table, r)
        ]

    @staticmethod
    def run(configs, tracer=None):
        out = []
        for cfg in configs:
            if tracer is not None:
                tracer.new_call()
            try:
                rep = harness.run_campaign(cfg)
                out.append((rep, rep.to_json(indent=2)))
            except COUNTED_ERRORS as exc:
                out.append((exc, None))
        return out

    @staticmethod
    def check(configs, outputs):
        """(instances attempted, error kinds with their counts) for one round."""
        kinds = Counter()
        for cfg, (rep, _) in zip(configs, outputs):
            if isinstance(rep, Exception):
                kinds[type(rep).__name__] += 1
                continue
            s = rep.summary
            kinds[f"{cfg.theorem}.fail"] += s["fail"]
            kinds[f"{cfg.theorem}.invalid"] += s["invalid"]
            if len(rep.verdicts) != cfg.count or s["pass"] + s["fail"] + s["invalid"] != cfg.count:
                kinds["count_mismatch"] += 1
        return sum(cfg.count for cfg in configs), kinds

    @staticmethod
    def fingerprint(outputs) -> str:
        return "\n".join(
            _strip_wall_time(text) if text is not None else repr(rep) for rep, text in outputs
        )


class GmeanWorkload:
    """Geometric mean against the quadrature oracle (independent bases) and the exact mean (commuting)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self, r: int):
        rng = np.random.default_rng(self.seed + r)
        pairs = []
        for i in range(GMEAN_INDEPENDENT + GMEAN_COMMUTING):
            dim = 2 + (r + i) % 5
            if i < GMEAN_INDEPENDENT:
                q1 = self._basis(rng, dim)
                q2 = self._basis(rng, dim)
                x = HermitianMatrix((q1 * rng.uniform(0.3, 3.5, dim)) @ q1.conj().T)
                y = HermitianMatrix((q2 * rng.uniform(0.3, 3.5, dim)) @ q2.conj().T)
                pairs.append((x, y, None))
            else:
                q = self._basis(rng, dim)
                lx, ly = rng.uniform(0.3, 3.5, dim), rng.uniform(0.3, 3.5, dim)
                x = HermitianMatrix((q * lx) @ q.conj().T)
                y = HermitianMatrix((q * ly) @ q.conj().T)
                pairs.append((x, y, HermitianMatrix((q * np.sqrt(lx * ly)) @ q.conj().T)))
        return pairs

    @staticmethod
    def _basis(rng, dim):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return np.linalg.qr(z)[0]

    @staticmethod
    def run(pairs, tracer=None):
        out = []
        for x, y, exact in pairs:
            if tracer is not None:
                tracer.new_call()
            try:
                gm = means.geometric_mean(x, y)
                out.append((gm, means.geometric_mean_quadrature(x, y) if exact is None else None))
            except COUNTED_ERRORS as exc:
                out.append((exc, None))
        return out

    @staticmethod
    def check(pairs, outputs):
        kinds = Counter()
        for (x, y, exact), (gm, gq) in zip(pairs, outputs):
            if isinstance(gm, Exception):
                kinds[type(gm).__name__] += 1
            elif exact is None:
                kinds["oracle_tolerance"] += (gm - gq).norm() / (1.0 + gm.norm()) > GMEAN_ORACLE_RTOL
            else:
                kinds["exact_tolerance"] += (gm - exact).norm() / (1.0 + exact.norm()) > GMEAN_EXACT_RTOL
        return len(pairs), kinds

    @staticmethod
    def fingerprint(outputs) -> bytes:
        parts = []
        for gm, gq in outputs:
            for m in (gm, gq):
                parts.append(m.entries.tobytes() if isinstance(m, HermitianMatrix) else repr(m).encode())
        return b"".join(parts)


def make_workload(name: str, seed: int):
    if name == "acceptance-mix":
        return CampaignWorkload(ACCEPTANCE_MIX, seed)
    if name == "large-dim":
        return CampaignWorkload(LARGE_DIM, seed)
    if name == "gmean-oracle":
        return GmeanWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}")


def timed_loop(workload, first_inputs, seconds: float, tracer=None) -> dict:
    """Run rounds until their summed wall time reaches ``seconds``; check every output.

    With a tracer, it is installed for the rounds only.  Round 0 then runs
    again, on freshly built inputs, and must give the same fingerprint.
    """
    rounds = []
    attempted = 0
    kinds = Counter()
    inputs = first_inputs
    r = 0
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        while True:
            t0 = clock()
            outputs = workload.run(inputs, tracer)
            rounds.append(clock() - t0)
            n, k = workload.check(inputs, outputs)
            attempted += n
            kinds.update(k)
            if r == 0:
                fingerprint = workload.fingerprint(outputs)
            r += 1
            if sum(rounds) >= seconds:
                break
            inputs = workload.prepare(r)
    finally:
        if tracer is not None:
            tracer.uninstall()
    kinds["determinism"] += workload.fingerprint(workload.run(workload.prepare(0))) != fingerprint
    kinds = {key: n for key, n in kinds.items() if n}
    return {
        "rounds": rounds,
        "instances": attempted,
        "errors": sum(kinds.values()),
        "error_kinds": kinds,
    }


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spans", help="file for the spans of a traced run")
    args = p.parse_args()

    workload = make_workload(args.workload, args.seed)
    first_inputs = workload.prepare(0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    result = timed_loop(workload, first_inputs, args.seconds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result["provenance"] = provenance()
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(sum(result["rounds"]))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
