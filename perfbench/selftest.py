"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py        (from the root of a checkout)

For every workload in BENCHMARK.json it runs run.py for half a second with
``--trace 0`` and ``--trace 1`` and checks that the result line is correct
and names every listed metric with its unit, and that the traced layer self
times plus the unattributed remainder make up the traced wall time.  It then
checks in-process that the tracer wraps every opineq binding of
``eig_hermitian`` and restores the original function afterwards, and that
run.py fails without a result in a directory holding only BENCHMARK.json and
perfbench/.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, (workload, trace, out.stderr)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, (workload, trace)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert math.isfinite(got["value"]), (m, got)
        if not trace:
            assert got["value"] > 0, (m, got)
    if trace:
        value = {k: v["value"] for k, v in metrics.items()}
        attributed = sum(v for k, v in value.items() if k.endswith(".self_s"))
        assert value["trace.unattributed_s"] >= 0, value["trace.unattributed_s"]
        assert math.isclose(attributed + value["trace.unattributed_s"], value["trace.wall_s"],
                            rel_tol=1e-9), (attributed, value["trace.wall_s"])
    print(f"ok  {workload} --trace {trace}")


def check_tracer_restores() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import opineq.cli  # noqa: F401  (binds eig_hermitian too)
    from opineq import linalg
    from opineq.harness import CampaignConfig
    from tracer import Tracer

    original = linalg.eig_hermitian
    homes = [m for n, m in sys.modules.items() if n.startswith("opineq")
             and getattr(m, "eig_hermitian", None) is original]
    assert {m.__name__ for m in homes} >= {
        "opineq", "opineq.linalg", "opineq.abelian", "opineq.means", "opineq.pinching",
        "opineq.majorization", "opineq.harness", "opineq.cli"}, [m.__name__ for m in homes]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(m.eig_hermitian is not original for m in homes)
        tracer.new_call()
        sys.modules["opineq.harness"].run_campaign(CampaignConfig("LH", 2, seed=1))
        linalg.eig_hermitian(linalg.HermitianMatrix(np.eye(2)))
    finally:
        tracer.uninstall()
    assert all(m.eig_hermitian is original for m in homes)
    assert linalg.eig_hermitian is original
    metrics = tracer.layer_metrics(1.0)
    assert metrics["harness.LH.instances_per_s"] > 0, metrics
    assert metrics["linalg.eig_hermitian.calls"] > 1, metrics
    print("ok  tracer wraps every binding and restores the originals")


def check_bare_directory_fails() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, "acceptance-mix", 0)
        assert out.returncode != 0, out.stdout
        assert '"metrics"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  fails without a result when src/ is absent")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
    check_tracer_restores()
    check_bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
