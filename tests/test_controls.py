"""Controls that must fail: each drops one hypothesis of a theorem and evaluates its conclusion.

A harness that never reports a fail proves nothing.  Each control below
feeds the conclusion an instance that violates exactly one hypothesis, with
that hypothesis's guard out of the way, and pins that the conclusion then
fails on some instances.  It also pins that the real guard rejects the
instance, so no campaign counts it as a confirmation.
"""

import pytest

from opineq import harness as hz
from opineq import verdict
from opineq.abelian import AbelianTuple, CubeFunction, uniform_cube
from opineq.harness import CampaignConfig, instance_rng, verify_flags
from opineq.linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    diagonal,
    eig_hermitian,
    matrix_power,
    psd_margin,
    worst_gap,
)
from opineq.majorization import check_corollary, check_thm6
from opineq.means import check_lowner_heinz, check_trace_power_monotone
from opineq.state import DiagonalState, state_trace


def generated(theorem, count, dims, arity, seed):
    """The named arguments of the first ``count`` instances of a campaign."""
    cfg = CampaignConfig(theorem, count, dim_range=dims, arity_range=arity, seed=seed)
    entry = hz._THEOREMS[theorem]
    return [entry.generate(cfg, instance_rng(cfg.seed, i), i) for i in range(count)]


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
            "control-centered-sumsq", x.n, uniform_cube(x.n, 0.0, 2.0),
            lambda s: sum((v - 1.0) ** 2 for v in s), convex=True, separately_increasing=True,
        )
        fails += check_thm6(f, x, args["y"]).status == "fail"
        assert not verify_flags(f, samples=100)
    assert fails > 0


def test_corollary_with_a_concave_function():
    # dropped hypothesis: f convex.  sqrt is concave; declared convex, it fails
    # 103 of the 119 one-variable instances among these 200.
    f = CubeFunction("control-sqrt", 1, uniform_cube(1, 0.0, 2.0), lambda s: s[0] ** 0.5,
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
