"""Controls that must fail: each drops one hypothesis of a theorem and evaluates its conclusion.

A harness that never reports a fail proves nothing.  Each control below
feeds the conclusion an instance that violates exactly one hypothesis, with
that hypothesis's guard out of the way, and pins that the conclusion then
fails on some instances.  It also pins that the real guard rejects the
instance, so no campaign counts it as a confirmation.
"""

import math

import numpy as np
import pytest

from opineq import harness as hz
from opineq import verdict
from opineq.abelian import AbelianTuple, CubeFunction, uniform_cube
from opineq.harness import CampaignConfig, instance_rng
from opineq.linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    diagonal,
    eig_hermitian,
    matrix_power,
    psd_margin,
    worst_gap,
)
from opineq.majorization import check_corollary, check_thm5, check_thm6, kyfan_check, partial_sums
from opineq.means import check_lowner_heinz, check_trace_power_monotone, root_product_chain
from opineq.pinching import (
    check_jensen_expectation,
    check_phi_jensen_field,
    check_phi_monotone_chain,
    reproduce_example1,
)
from opineq.state import DiagonalState, state_trace

from flag_audit import verify_flags


def generated(theorem, count, dims, arity, seed):
    """The named arguments of the first ``count`` instances of a campaign."""
    cfg = CampaignConfig(theorem, count, dim_range=dims, arity_range=arity, seed=seed)
    entry = hz._THEOREMS[theorem]
    return [entry.generate(cfg, instance_rng(cfg.seed, i), i) for i in range(count)]


def sum_of_roots_as_convex(n):
    """sum sqrt(v_i) on [0.05, 2]^n: concave, declared convex."""
    return CubeFunction(
        "control-sum-of-roots-as-convex", uniform_cube(n, 0.05, 2.0),
        lambda s: sum(math.sqrt(v) for v in s), convex=True,
    )


def test_monotone_chain_with_a_convex_function():
    # dropped hypothesis: f concave.  sum v_i^2 is convex and separately
    # increasing on [0, 2]^n; declared concave, it fails all 200 of these.
    fails = 0
    for args in generated("T1", 200, (2, 5), (1, 3), 19):
        x = args["x"]
        f = CubeFunction(
            "control-sumsq-as-concave", uniform_cube(x.n, 0.0, 2.0),
            lambda s: sum(v * v for v in s), concave=True, separately_increasing=True,
        )
        fails += check_phi_monotone_chain(f, x, args["y"], args["rho"]).status == "fail"
        assert not verify_flags(f, samples=100)
    assert fails > 0


def test_jensen_expectation_with_a_concave_function():
    # dropped hypothesis: f convex.  Declared convex, sum sqrt(v_i) fails
    # all 200 of these.
    fails = 0
    for args in generated("T3", 200, (2, 5), (1, 3), 17):
        f = sum_of_roots_as_convex(args["atoms"].n)
        v = check_jensen_expectation(f, args["field"], args["atoms"], args["xi"])
        fails += v.status == "fail"
        assert not verify_flags(f, samples=100)
    assert fails > 0


def test_pinched_jensen_field_with_a_concave_function():
    # dropped hypothesis: f convex.  The same control fails all 200 of these.
    fails = 0
    for args in generated("T4", 200, (2, 5), (1, 3), 17):
        f = sum_of_roots_as_convex(args["atoms"].n)
        v = check_phi_jensen_field(f, args["field"], args["atoms"], args["rho"])
        fails += v.status == "fail"
        assert not verify_flags(f, samples=100)
    assert fails > 0


def test_compression_majorization_with_a_concave_function():
    # dropped hypothesis: f convex.  The same control fails 104 of these 200;
    # those with a one-atom unitary field all pass, since both sides are then
    # unitarily equivalent whatever f is.
    fails = 0
    for args in generated("T5", 200, (2, 5), (1, 3), 31):
        f = sum_of_roots_as_convex(args["atoms"].n)
        fails += check_thm5(f, args["field"], args["atoms"]).status == "fail"
        assert not verify_flags(f, samples=100)
    assert fails > 0


def test_lowner_heinz_beyond_the_unit_interval():
    # dropped hypothesis: alpha <= 1.  t -> t^2 is not operator monotone, so
    # x <= y does not give x^2 <= y^2 (12 of these 200 pairs fail).
    fails = 0
    for args in generated("LH", 200, (2, 6), (1, 1), 37):
        x, y = args["x"], args["y"]
        diff = matrix_power(y, 2.0) - matrix_power(x, 2.0)
        fails += verdict.from_gap(*psd_margin(eig_hermitian(diff), DEFAULT_TOL)).status == "fail"
        with pytest.raises(ValueError, match="alphas must"):
            check_lowner_heinz(x, y, [2.0])
    assert fails > 0


def test_thm6_with_a_non_increasing_function():
    # dropped hypothesis: f separately increasing.  sum (v_i - 1)^2 is convex
    # but decreasing below 1; declared increasing, it fails 189 of these 200.
    fails = 0
    for args in generated("T6", 200, (2, 6), (1, 4), 31):
        x = args["x"]
        f = CubeFunction(
            "control-centered-sumsq", uniform_cube(x.n, 0.0, 2.0),
            lambda s: sum((v - 1.0) ** 2 for v in s), convex=True, separately_increasing=True,
        )
        fails += check_thm6(f, x, args["y"]).status == "fail"
        assert not verify_flags(f, samples=100)
    assert fails > 0


def test_corollary_with_a_concave_function():
    # dropped hypothesis: f convex.  sqrt is concave; declared convex, it fails
    # 103 of the 119 one-variable instances among these 200.
    f = CubeFunction("control-sqrt", uniform_cube(1, 0.0, 2.0), lambda s: s[0] ** 0.5,
                     convex=True)
    assert not verify_flags(f, samples=100)
    fails = ones = 0
    for args in generated("COR", 200, (2, 6), (1, 4), 31):
        if args["x"].n == 1:
            ones += 1
            fails += check_corollary(f, args["x"], args["y"], args["lam"]).status == "fail"
    assert ones > 0 and fails > 0


def test_trace_power_outside_the_centralizer():
    # dropped hypothesis: every member commutes with the state.  The paper's
    # 2x2 counterexample (Example 1 at c = 1, t = 1.3, lambda = 3.4) has
    # x <= y, both PSD, yet phi(x^2) = 2.002 > phi(y^2) = 1.7095364.
    x = HermitianMatrix([[1.0, 1.0], [1.0, 1.0]])
    y = diagonal([1.3, 4.42])
    rho = DiagonalState([1.0, 1e-3])
    lhs, rhs = (state_trace(rho, matrix_power(a, 2.0)) for a in (x, y))
    assert lhs == pytest.approx(2.002) and rhs == pytest.approx(1.7095364)
    assert verdict.from_gap(*worst_gap([lhs], [rhs], DEFAULT_TOL)).status == "fail"
    v = check_trace_power_monotone(AbelianTuple((x,)), AbelianTuple((y,)), [2.0], rho)
    assert v.status == "invalid"
    assert v.detail["reason"] == "members leave the centralizer of the state"


def test_kyfan_with_a_scaled_frame():
    # dropped hypothesis: the frame is orthonormal.  Scaling it by 1.2 scales
    # the left side by 1.44, which overtakes the top-k eigenvalue sum whenever
    # that side is positive and near it (29 of these 200 fail).
    fails = 0
    for args in generated("KF", 200, (2, 8), (1, 1), 23):
        a, u = args["a"], 1.2 * args["frame"]
        lhs = float(np.real(np.trace(u.conj().T @ a.entries @ u)))
        rhs = float(partial_sums(a)[u.shape[1] - 1])
        fails += verdict.from_gap(*worst_gap([lhs], [rhs], DEFAULT_TOL)).status == "fail"
        assert kyfan_check(a, u).status == "invalid"
    assert fails > 0


def test_root_product_chain_with_swapped_order():
    # dropped hypothesis: x <= y memberwise.  Swapping the pair makes the
    # chain's difference negative definite (all 200 of these fail).
    fails = 0
    for args in generated("CHAIN", 200, (2, 6), (2, 4), 11):
        x, y = args["y"], args["x"]
        diff = root_product_chain(y) - root_product_chain(x)
        fails += verdict.from_gap(*psd_margin(eig_hermitian(diff), DEFAULT_TOL)).status == "fail"
        v = hz._THEOREMS["CHAIN"].check({"x": x, "y": y}, DEFAULT_TOL)
        assert v.status == "invalid" and v.detail["reason"] == "x <= y fails memberwise"
    assert fails > 0


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("ratio", [math.sqrt(2.0), 1.5, 4.0])
def test_example1_beyond_c_sqrt2(c, ratio):
    # dropped hypothesis: t < c sqrt(2).  There y^2 - pinch(x^2) =
    # diag(t^2 - 2c^2, lam^2 t^2 - 2c^2) >= 0, so pinch(x^2) is dominated
    # and the pointwise escape never holds; the check must not assert it.
    t = ratio * c
    lam = 1.5 * c / (t - c)
    y2 = diagonal([t * t - 2 * c * c, lam * lam * t * t - 2 * c * c])
    assert psd_margin(eig_hermitian(y2), DEFAULT_TOL)[0] >= 0.0
    v = reproduce_example1(c, t, lam)
    assert v.detail["claims"]["pinch_square_not_dominated"] is None
    assert v.passed
