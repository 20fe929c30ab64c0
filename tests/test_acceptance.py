"""Acceptance gate: every criterion at its pinned tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import json
import math
import time

import numpy as np

from opineq.abelian import AbelianTuple, uniform_cube
from opineq.harness import CampaignConfig, run_campaign
from opineq.linalg import HermitianMatrix, eig_hermitian
from opineq.majorization import kyfan_check
from opineq.means import geometric_mean, geometric_mean_quadrature
from opineq.pinching import reproduce_example1


def _report(label, detail=""):
    print(f"[PASS] {label}" + (f" | {detail}" if detail else ""))


def _stripped(report) -> str:
    d = json.loads(report.to_json())
    d.pop("wall_time_s")
    return json.dumps(d, sort_keys=True)


def test_criterion_01_example1_reproduction():
    start = time.perf_counter()
    claims = reproduce_example1(1.0, 1.3, 3.4).detail["claims"]
    assert claims["order_strict"]
    assert claims["pinch_square_not_dominated"] is True
    assert claims["trace_square_identity"]
    assert claims["trace_monotone"]
    rep = run_campaign(CampaignConfig("EX1", 50, seed=7))
    assert rep.summary["fail"] == 0 and rep.summary["invalid"] == 0
    for rec in rep.verdicts:
        assert rec["params"]["t"] < rec["params"]["c"] * math.sqrt(2.0)
        assert all(rec["claims"][k] for k in rec["claims"])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s (budget 1s)"
    _report("criterion 1: counterexample reproduction", f"50-triple sweep in {elapsed:.2f}s")


def test_criterion_02_trace_power_campaign():
    start = time.perf_counter()
    rep = run_campaign(
        CampaignConfig("T2", 2000, dim_range=(2, 6), arity_range=(2, 4), seed=7)
    )
    elapsed = time.perf_counter() - start
    assert rep.summary["fail"] == 0, rep.failures
    assert rep.summary["invalid"] == 0
    assert rep.summary["pass"] == 2000
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s (budget 60s)"
    _report("criterion 2: trace-power monotonicity, 2000 instances",
            f"min gap {rep.summary['min_gap']:.3e}, {elapsed:.1f}s")


def test_criterion_03_proof_chain():
    rep = run_campaign(
        CampaignConfig("CHAIN", 1000, dim_range=(2, 6), arity_range=(2, 4), seed=11)
    )
    assert rep.summary["fail"] == 0, rep.failures
    assert rep.summary["invalid"] == 0
    _report("criterion 3: root-product chain preserves the order, 1000 pairs",
            f"min gap {rep.summary['min_gap']:.3e}")


def test_criterion_04_geometric_mean_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        z1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        z2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q1, _ = np.linalg.qr(z1)
        q2, _ = np.linalg.qr(z2)
        x = HermitianMatrix((q1 * rng.uniform(0.3, 3.5, dim)) @ q1.conj().T)
        y = HermitianMatrix((q2 * rng.uniform(0.3, 3.5, dim)) @ q2.conj().T)
        gm = geometric_mean(x, y)
        gq = geometric_mean_quadrature(x, y)
        rel = (gm - gq).norm() / (1.0 + gm.norm())
        worst = max(worst, rel)
        assert rel <= 1e-6, rel
    worst_comm = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(z)
        lx, ly = rng.uniform(0.3, 3.5, dim), rng.uniform(0.3, 3.5, dim)
        x = HermitianMatrix((q * lx) @ q.conj().T)
        y = HermitianMatrix((q * ly) @ q.conj().T)
        gm = geometric_mean(x, y)
        exact = HermitianMatrix((q * np.sqrt(lx * ly)) @ q.conj().T)
        dev = (gm - exact).norm() / (1.0 + exact.norm())
        worst_comm = max(worst_comm, dev)
        assert dev <= 1e-10, dev
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s (budget 30s)"
    _report("criterion 4: geometric-mean closed form vs quadrature, 500 pairs",
            f"worst rel dev {worst:.2e}, commuting dev {worst_comm:.2e}, {elapsed:.1f}s")


def test_criterion_05_jensen_campaigns():
    for theorem in ("T3", "T4"):
        rep = run_campaign(
            CampaignConfig(theorem, 2000, dim_range=(2, 5), arity_range=(1, 3), seed=17)
        )
        assert rep.summary["fail"] == 0, (theorem, rep.failures)
        assert rep.summary["invalid"] == 0, theorem
        for rec in rep.verdicts:
            if rec["function"] == "affine":
                assert abs(rec["gap"]) <= 1e-9, (theorem, rec)
            if theorem == "T3":
                assert abs(rec["mu_mass"] - 1.0) <= 1e-10, rec
        _report(f"criterion 5: {theorem} campaign, 2000 instances "
                "(vector Jensen + single-operator form)" if theorem == "T3"
                else f"criterion 5: {theorem} campaign, 2000 instances",
                f"min gap {rep.summary['min_gap']:.3e}")


def test_criterion_06_pinching_jensen_and_chain():
    rep = run_campaign(
        CampaignConfig("T1", 1000, dim_range=(2, 5), arity_range=(1, 3), seed=19)
    )
    assert rep.summary["fail"] == 0, rep.failures
    assert rep.summary["invalid"] == 0
    _report("criterion 6: pinching-Jensen + monotone chain, 1000 instances",
            f"min gap {rep.summary['min_gap']:.3e}")


def test_criterion_07_kyfan():
    rep = run_campaign(CampaignConfig("KF", 1000, dim_range=(2, 8), seed=23))
    assert rep.summary["fail"] == 0, rep.failures
    assert rep.summary["invalid"] == 0
    rng = np.random.default_rng(29)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = HermitianMatrix(z)
        k = int(rng.integers(1, dim + 1))
        frame = eig_hermitian(a).basis[:, :k]
        v = kyfan_check(a, frame)
        assert v.passed
        assert abs(v.gap) <= 1e-9 * (1.0 + abs(v.detail["rhs"]))
    _report("criterion 7: top-k frame bound, 1000 random frames + 100 equality frames",
            f"min gap {rep.summary['min_gap']:.3e}")


def test_criterion_08_majorization_campaigns():
    for theorem, arity in (("T5", (1, 3)), ("T6", (1, 4)), ("COR", (1, 4))):
        rep = run_campaign(
            CampaignConfig(theorem, 2000, dim_range=(2, 5) if theorem == "T5" else (2, 6),
                           arity_range=arity, seed=31)
        )
        assert rep.summary["fail"] == 0, (theorem, rep.failures)
        assert rep.summary["invalid"] == 0, theorem
        _report(f"criterion 8: {theorem} campaign, 2000 instances",
                f"min gap {rep.summary['min_gap']:.3e}")


def test_criterion_09_lowner_heinz():
    rep = run_campaign(CampaignConfig("LH", 1000, dim_range=(2, 6), seed=37))
    assert rep.summary["fail"] == 0, rep.failures
    assert rep.summary["invalid"] == 0
    assert rep.summary["pass"] == 1000
    _report("criterion 9: fractional-power order preservation, 1000 pairs x 5 exponents")


def test_criterion_10_determinism():
    for theorem, kwargs in (
        ("T2", dict(dim_range=(2, 5), arity_range=(2, 3))),
        ("KF", dict(dim_range=(2, 8))),
        ("T3", dict(dim_range=(2, 4), arity_range=(1, 2))),
    ):
        cfg = CampaignConfig(theorem, 50, seed=41, **kwargs)
        a = _stripped(run_campaign(cfg))
        b = _stripped(run_campaign(cfg))
        assert a.encode() == b.encode(), f"{theorem} reports differ"
    _report("criterion 10: byte-identical reports for equal seeds (timing aside)")
