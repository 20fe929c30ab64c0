"""Tests for the geometric mean, its quadrature oracle, root chains, and trace checks."""

import json
import math

import numpy as np
import pytest

from opineq import harness as hz
from opineq import linalg, means
from opineq.abelian import AbelianTuple
from opineq.harness import CampaignConfig, instance_rng, random_unitary
from opineq.linalg import (
    DEFAULT_QUADRATURE_NODES,
    DEFAULT_TOL,
    HermitianMatrix,
    SpectrumDomainError,
    diagonal,
    eig_hermitian,
    identity,
    matrix_power,
)
from opineq.means import (
    check_lowner_heinz,
    check_root_product_chain,
    check_trace_power_monotone,
    geometric_mean,
    geometric_mean_quadrature,
    root_product_chain,
)
from opineq.state import DiagonalState, state_trace


def member_power_product(t, exponents):
    """``x1^p1 ... xn^pn`` as a product of per-member powers: a reference independent
    of the joint spectrum the library's power products are read from."""
    prod = np.eye(t.dim, dtype=complex)
    for x, p in zip(t.members, exponents):
        prod = prod @ matrix_power(x, p).entries
    return HermitianMatrix(prod)


def random_pd(rng, dim, lo=0.3, hi=3.5):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    lam = rng.uniform(lo, hi, dim)
    return HermitianMatrix((q * lam) @ q.conj().T)


def quadrature_loop(x, y):
    """Node-by-node reference for ``geometric_mean_quadrature``: one inversion per node."""
    x_inv = np.linalg.inv(x.entries)
    y_inv = np.linalg.inv(y.entries)
    nodes, weights = np.polynomial.legendre.leggauss(DEFAULT_QUADRATURE_NODES)
    theta = (np.pi / 4.0) * (nodes + 1.0)
    scaled = weights * (np.pi / 4.0)
    acc = np.zeros_like(x.entries)
    for th, wt in zip(theta, scaled):
        tan2 = math.tan(th) ** 2
        sec2 = 1.0 / math.cos(th) ** 2
        acc += wt * sec2 * np.linalg.inv(x_inv + tan2 * y_inv)
    return HermitianMatrix((2.0 / np.pi) * acc)


def random_conditioned(rng, dim, cond, complex_entries):
    """PD matrix with eigenvalues spread geometrically over ``[1, cond]`` in a random basis."""
    z = rng.standard_normal((dim, dim))
    if complex_entries:
        z = z + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return HermitianMatrix((q * np.geomspace(1.0, cond, dim)) @ q.conj().T)


def random_psd_ordered_pair(rng, dim, scale=1.0):
    x = random_pd(rng, dim, 0.0, scale)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    bump = HermitianMatrix(scale * 0.5 * z @ z.conj().T / dim)
    return x, x + bump


class TestGeometricMean:
    def test_identity_left_argument(self):
        rng = np.random.default_rng(1)
        y = random_pd(rng, 3)
        gm = geometric_mean(identity(3), y)
        assert (gm - matrix_power(y, 0.5)).norm() <= 1e-10 * (1 + gm.norm())

    def test_commuting_diagonals(self):
        gm = geometric_mean(diagonal([1, 4]), diagonal([4, 1]))
        assert np.allclose(gm.entries, np.diag([2.0, 2.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        a = random_pd(rng, 4)
        assert (geometric_mean(a, a) - a).norm() <= 1e-9 * (1 + a.norm())

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        x, y = random_pd(rng, 3), random_pd(rng, 3)
        lhs = geometric_mean(x, y)
        rhs = geometric_mean(y, x)
        assert (lhs - rhs).norm() <= 1e-9 * (1 + lhs.norm())

    def test_singular_input_extended_continuously(self):
        x = diagonal([1.0, 0.0])
        y = diagonal([1.0, 1.0])
        gm = geometric_mean(x, y)
        assert np.allclose(gm.entries, np.diag([1.0, 0.0]), atol=1e-4)

    def test_rejects_indefinite(self):
        from opineq.linalg import SpectrumDomainError

        with pytest.raises(SpectrumDomainError):
            geometric_mean(diagonal([1, -1]), identity(2))

    def test_congruence_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            dim = int(rng.integers(2, 6))
            x, y = random_pd(rng, dim), random_pd(rng, dim)
            c = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs = HermitianMatrix(c @ geometric_mean(x, y).entries @ c.conj().T)
            rhs = geometric_mean(
                HermitianMatrix(c @ x.entries @ c.conj().T),
                HermitianMatrix(c @ y.entries @ c.conj().T),
            )
            assert (lhs - rhs).norm() <= 1e-7 * (1 + lhs.norm())

    def test_joint_monotonicity(self):
        from opineq.linalg import loewner_leq

        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            x1, y1 = random_psd_ordered_pair(rng, dim)
            x2, y2 = random_psd_ordered_pair(rng, dim)
            assert loewner_leq(geometric_mean(x1, x2), geometric_mean(y1, y2))


def commuting(q, values):
    return HermitianMatrix((q * np.asarray(values, dtype=float)) @ q.conj().T)


def spectral_route(monkeypatch, x, y):
    """``geometric_mean`` of fresh copies of x and y with every Cholesky certificate refused."""
    with monkeypatch.context() as patch:
        patch.setattr(means, "_cholesky_certificate", lambda a: (None, None, -math.inf))
        return geometric_mean(HermitianMatrix(x.entries), HermitianMatrix(y.entries))


class TestGeometricMeanRoutes:
    """A pair whose checked Cholesky floors clear ``1e-10 (1 + ||x||_F + ||y||_F)`` takes the
    congruence route, one kernel run; every other pair is decomposed and lifted as before."""

    def test_positive_definite_pair_runs_the_kernel_once(self, jacobi_runs):
        rng = np.random.default_rng(60)
        for dim in range(1, 7):
            x, y = random_pd(rng, dim), random_pd(rng, dim)
            del jacobi_runs[:]
            geometric_mean(x, y)
            # the inner matrix L^-1 y L^-* alone; x and y are never decomposed
            assert len(jacobi_runs) == 1 and jacobi_runs[0] is not x and jacobi_runs[0] is not y
            assert "_eigensystem" not in x.__dict__ and "_eigensystem" not in y.__dict__

    # commuting pairs in a random basis, with the limit the lift realizes
    # within tolerance: the mean of the PSD parts, sqrt(max(lx, 0) * max(ly, 0))
    DECOMPOSED = {
        "x-singular": ([2.0, 1.0, 0.0], [1.0, 4.0, 9.0]),
        "y-singular": ([1.0, 4.0, 9.0], [2.0, 1.0, 0.0]),
        "x-below-eps": ([2.0, 1.0, 1e-12], [1.0, 4.0, 9.0]),
        "x-negative-rounding": ([2.0, 1.0, -1e-12], [1.0, 4.0, 9.0]),
    }

    @pytest.mark.parametrize("case", sorted(DECOMPOSED))
    def test_other_pairs_are_decomposed_and_lifted(self, case, jacobi_runs):
        lx, ly = self.DECOMPOSED[case]
        q = random_unitary(3, np.random.default_rng(61))
        x, y = commuting(q, lx), commuting(q, ly)
        gm = geometric_mean(x, y)
        # x and y, then the inner matrix of the lifted pair
        assert jacobi_runs[:2] == [x, y] and len(jacobi_runs) == 3
        limit = commuting(q, np.sqrt(np.maximum(lx, 0.0) * np.maximum(ly, 0.0)))
        assert np.allclose(gm.entries, limit.entries, atol=1e-4)

    def test_routes_agree_across_the_threshold(self, monkeypatch):
        # x + t I for a rank-3 x, t swept from above the spectral route's lift
        # threshold 1e-10 (1 + ||x||_op + ||y||_op) = 4e-10 across the
        # certificate's 1e-10 (1 + ||x||_F + ||y||_F) = 5.5e-10.  There both
        # routes form an inner matrix of norm ~4e9 and each deviates from a
        # 40-digit reference by up to 1e-7 (1 + ||gm||), so they are compared
        # at 5e-7; the lift both must skip moves the mean by more than five
        # times that
        rng = np.random.default_rng(62)
        q, u = random_unitary(4, rng), random_unitary(4, rng)
        x0 = commuting(q, [1.0, 1.0, 1.0, 0.0])
        y = commuting(u, [2.0, 1.5, 1.0, 0.5])
        routes = set()
        for t in np.geomspace(4.5e-10, 1e-8, 24):
            x = HermitianMatrix(x0.entries + t * np.eye(4))
            bound = 1e-10 * (1.0 + x.norm() + y.norm())
            routes.add(linalg._cholesky_certificate(x)[2] > bound)
            gm = geometric_mean(x, y)
            tol = 5e-7 * (1.0 + gm.norm())
            assert (gm - spectral_route(monkeypatch, x, y)).norm() <= tol, t
        assert routes == {False, True}
        x = HermitianMatrix(x0.entries + 4.5e-10 * np.eye(4))
        eps = 1e-10 * (1.0 + (1.0 + 4.5e-10) + 2.0)  # the lift: ||x||_op = 1 + t, ||y||_op = 2
        gm = geometric_mean(x, y)
        lifted = geometric_mean(x + eps * identity(4), y + eps * identity(4))
        assert (gm - lifted).norm() > 5 * 5e-7 * (1.0 + gm.norm())


class TestQuadratureOracle:
    def test_scalar_one(self):
        gm = geometric_mean_quadrature(identity(1), identity(1))
        assert abs(gm.entries[0, 0] - 1.0) < 1e-12

    def test_commuting_case(self):
        gq = geometric_mean_quadrature(identity(2), diagonal([4, 9]))
        assert np.allclose(gq.entries, np.diag([2.0, 3.0]), atol=1e-10)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            x, y = random_pd(rng, dim), random_pd(rng, dim)
            gm = geometric_mean(x, y)
            gq = geometric_mean_quadrature(x, y)
            assert (gm - gq).norm() <= 1e-8 * (1 + gm.norm())

    def test_rejects_singular(self):
        with pytest.raises(SpectrumDomainError, match="x is singular at tolerance"):
            geometric_mean_quadrature(diagonal([1.0, 0.0]), identity(2))

    @pytest.mark.parametrize("case", ["zero-eigenvalue", "half-the-slack"])
    def test_an_uncertified_argument_reaches_the_exact_check(self, case, jacobi_runs):
        if case == "zero-eigenvalue":
            x = diagonal([1.0, 0.0])
        else:
            # slack rtol (1 + ||x||_op) = 2e-9; the floor, about 1e-9, is below
            # the guard's rtol (1 + ||x||_F), so the kernel decides
            q = random_unitary(3, np.random.default_rng(63))
            x = commuting(q, [1.0, 0.5, DEFAULT_TOL.rtol])
            assert 0.0 < linalg._cholesky_certificate(x)[2] <= DEFAULT_TOL.rtol * (1 + x.norm())
        with pytest.raises(SpectrumDomainError, match="x is singular at tolerance"):
            geometric_mean_quadrature(x, identity(x.dim))
        assert jacobi_runs == [x]

    def test_certified_arguments_run_no_kernel(self, jacobi_runs):
        rng = np.random.default_rng(64)
        for _ in range(40):
            dim = int(rng.integers(1, 7))
            geometric_mean_quadrature(random_pd(rng, dim), random_pd(rng, dim))
        assert jacobi_runs == []

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_node_loop(self, dim, complex_entries):
        # the stacked inversion sums the same terms in another order
        rng = np.random.default_rng(100 + dim)
        for cond in (1.0, 10.0, 1e2, 1e3):
            x = random_conditioned(rng, dim, cond, complex_entries)
            y = random_conditioned(rng, dim, cond, complex_entries)
            ref = quadrature_loop(x, y)
            gq = geometric_mean_quadrature(x, y)
            assert (gq - ref).norm() <= 1e-13 * ref.norm(), (dim, cond)

    def test_rule_built_once(self, monkeypatch):
        x, y = identity(2), diagonal([4, 9])
        first = geometric_mean_quadrature(x, y)

        def unavailable(deg):
            raise AssertionError("Gauss-Legendre rule rebuilt")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", unavailable)
        assert np.array_equal(geometric_mean_quadrature(x, y).entries, first.entries)


class TestRootProductChain:
    def test_single_member(self):
        rng = np.random.default_rng(7)
        x = random_pd(rng, 3)
        out = root_product_chain(AbelianTuple((x,)))
        assert (out - x).norm() <= 1e-10 * (1 + x.norm())

    def test_two_diagonals(self):
        out = root_product_chain(AbelianTuple((diagonal([4, 16]), diagonal([16, 4]))))
        assert np.allclose(out.entries, np.diag([8.0, 8.0]), atol=1e-12)

    def test_identity_members(self):
        t = AbelianTuple((identity(3), identity(3), identity(3)))
        assert np.allclose(root_product_chain(t).entries, np.eye(3))

    def test_agrees_with_joint_calculus(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            dim, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(z)
            members = tuple(
                HermitianMatrix((q * rng.uniform(0.0, 2.0, dim)) @ q.conj().T)
                for _ in range(n)
            )
            t = AbelianTuple(members)
            direct = root_product_chain(t)
            oracle = member_power_product(t, (1.0 / 2 ** (n - 1),) * n)
            assert (direct - oracle).norm() <= 1e-8 * (1 + oracle.norm())

    def test_rejects_an_indefinite_member(self):
        with pytest.raises(SpectrumDomainError):
            root_product_chain(AbelianTuple((diagonal([1.0, 2.0]), diagonal([1.0, -0.5]))))


class TestGuardsCoverTheCalculus:
    """Each check's guards admit only pairs whose powers and root products are defined.

    x >= 0 and x <= y, each at its own slack, do not imply y >= 0 at the slack of
    the calculus: here x and y - x pass and y fails by 0.89e-9.
    """

    X, Y = diagonal([-1.9e-9, 1.0]), diagonal([-2.89e-9, 1.0])

    def test_trace_power_monotone(self):
        x, y = AbelianTuple((self.X,)), AbelianTuple((self.Y,))
        v = check_trace_power_monotone(x, y, (0.5,), DiagonalState.uniform(2))
        assert v.invalid and v.detail["reason"] == "y is not PSD"

    def test_lowner_heinz(self):
        v = check_lowner_heinz(self.X, self.Y, (0.25, 0.5))
        assert v.invalid and v.detail["reason"] == "y is not positive semidefinite"

    def test_chain_registry_check(self):
        args = {"x": AbelianTuple((self.X,)), "y": AbelianTuple((self.Y,))}
        v = hz._THEOREMS["CHAIN"].check(args, DEFAULT_TOL)
        assert v.invalid and v.detail["reason"] == "y is not PSD"

    def test_chain_rejects_an_indefinite_x(self):
        x = AbelianTuple((diagonal([-1.0, 1.0]),))
        assert check_root_product_chain(x, x).detail["reason"] == "x is not PSD"

    def test_chain_rejects_a_shape_mismatch(self):
        # the member zip used to compare only the common prefix and pass
        x = AbelianTuple((identity(2),))
        y = AbelianTuple((2.0 * identity(2), 2.0 * identity(2)))
        registry = hz._THEOREMS["CHAIN"].check({"x": x, "y": y}, DEFAULT_TOL)
        for v in (check_root_product_chain(x, y), registry):
            assert v.invalid and v.detail["reason"] == "shape mismatch"


class TestLownerHeinz:
    def test_scalar_monotone_sqrt(self):
        v = check_lowner_heinz(diagonal([1, 2]), diagonal([2, 3]), (0.5,))
        assert v.passed

    def test_alpha_zero_trivial(self):
        rng = np.random.default_rng(9)
        x, y = random_psd_ordered_pair(rng, 3)
        assert check_lowner_heinz(x, y, (0.0,)).passed

    def test_alpha_one_reduces_to_order(self):
        rng = np.random.default_rng(10)
        x, y = random_psd_ordered_pair(rng, 3)
        assert check_lowner_heinz(x, y, (1.0,)).passed

    def test_invalid_when_not_ordered(self):
        v = check_lowner_heinz(diagonal([2, 0]), diagonal([1, 1]), (0.5,))
        assert v.invalid

    def test_invalid_when_not_psd(self):
        v = check_lowner_heinz(diagonal([-1, 0]), diagonal([1, 1]), (0.5,))
        assert v.invalid

    def test_gap_from_the_tightest_interior_alpha(self):
        # alpha 0 compares I with I, an exact zero; the gap must come from
        # 0 < alpha < 1, while every alpha still decides pass/fail
        rng = np.random.default_rng(12)
        x, y = random_psd_ordered_pair(rng, 4)
        v = check_lowner_heinz(x, y, hz.LH_ALPHAS)
        parts = v.detail["parts"]
        assert [p["alpha"] for p in parts] == list(hz.LH_ALPHAS)
        assert parts[0]["gap"] == 0.0
        interior = [p for p in parts if 0.0 < p["alpha"] < 1.0]
        tight = min(interior, key=lambda p: p["gap"] + p["slack"])
        assert v.passed and (v.gap, v.detail["slack"]) == (tight["gap"], tight["slack"])
        assert v.gap > 0.0

    def test_endpoint_alphas_alone_report_their_gap(self):
        rng = np.random.default_rng(13)
        x, y = random_psd_ordered_pair(rng, 3)
        v = check_lowner_heinz(x, y, (0.0, 1.0))
        assert v.passed and v.gap == 0.0

    def test_dimension_mismatch_is_invalid(self):
        # a 1x1 x broadcast over y would read as a fail with gap -1.22
        v = check_lowner_heinz(HermitianMatrix([[0.5]]), diagonal([2, 3, 4]), hz.LH_ALPHAS)
        assert v.invalid and v.detail["reason"] == "shape mismatch"
        assert check_lowner_heinz(diagonal([2, 3, 4]), HermitianMatrix([[5.0]]), (0.5,)).invalid

    def test_crafted_mismatched_record_replays_invalid(self):
        args = {"x": HermitianMatrix([[0.5]]), "y": diagonal([2, 3, 4])}
        record = {"theorem": "LH", **hz._THEOREMS["LH"].encode(args)}
        assert hz.replay_instance(json.loads(json.dumps(record))).invalid

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            check_lowner_heinz(identity(2), identity(2), (1.5,))
        with pytest.raises(ValueError):
            check_lowner_heinz(identity(2), identity(2), (0.5, -0.1))
        with pytest.raises(ValueError):
            check_lowner_heinz(identity(2), identity(2), ())


class TestStateTrace:
    def test_uniform_identity(self):
        assert state_trace(DiagonalState.uniform(4), identity(4)) == 4.0

    def test_example_square_trace(self):
        # trace of the squared all-ones matrix with c=1 is 4
        x = HermitianMatrix(np.ones((2, 2), dtype=complex))
        x2 = HermitianMatrix(x.entries @ x.entries)
        assert state_trace(DiagonalState.uniform(2), x2) == 4.0

    def test_weight_selection(self):
        assert state_trace(DiagonalState([1.0, 0.0]), diagonal([5, 7])) == 5.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            state_trace(DiagonalState.uniform(2), identity(3))


class TestTracePowerMonotone:
    def test_hand_instance(self):
        x = AbelianTuple((diagonal([1, 0]), diagonal([0, 1])))
        y = AbelianTuple((diagonal([2, 1]), diagonal([1, 2])))
        v = check_trace_power_monotone(x, y, (1.0, 1.0), DiagonalState.uniform(2))
        assert v.passed
        assert v.detail["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert v.detail["rhs"] == pytest.approx(4.0, abs=1e-12)

    def test_equal_tuples_zero_gap(self):
        rng = np.random.default_rng(11)
        x = random_pd(rng, 3, 0.0, 2.0)
        t = AbelianTuple((x,))
        v = check_trace_power_monotone(t, t, (1.7,), DiagonalState.uniform(3))
        assert v.passed and abs(v.gap) <= 1e-12 * (1 + abs(v.detail["rhs"]))

    def test_zero_exponents(self):
        rng = np.random.default_rng(12)
        x, y = random_psd_ordered_pair(rng, 3)
        v = check_trace_power_monotone(
            AbelianTuple((x,)), AbelianTuple((y,)), (0.0,), DiagonalState.uniform(3)
        )
        assert v.passed and abs(v.gap) < 1e-12

    def test_invalid_on_broken_order(self):
        v = check_trace_power_monotone(
            AbelianTuple((diagonal([2, 0]),)),
            AbelianTuple((diagonal([1, 1]),)),
            (1.0,),
            DiagonalState.uniform(2),
        )
        assert v.invalid

    def test_invalid_outside_centralizer(self):
        rho = DiagonalState([1.0, 2.0])
        flip = HermitianMatrix(np.array([[1, 0.5], [0.5, 1]], dtype=complex))
        v = check_trace_power_monotone(
            AbelianTuple((flip,)), AbelianTuple((flip + identity(2),)), (1.0,), rho
        )
        assert v.invalid

    def test_exponent_vector_validation(self):
        x = AbelianTuple((diagonal([1, 2]), diagonal([1, 1])))
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            check_trace_power_monotone(x, x, (1.0, -0.5), DiagonalState.uniform(2))

    # n = 1: the one-variable lemma phi(x^p) <= phi(y^p) in the centralizer

    def test_single_identity_power(self):
        rng = np.random.default_rng(13)
        x, y = random_psd_ordered_pair(rng, 4)
        v = check_trace_power_monotone(
            AbelianTuple((x,)), AbelianTuple((y,)), (1.0,), DiagonalState.uniform(4)
        )
        assert v.passed

    def test_single_cube_on_diagonals(self):
        v = check_trace_power_monotone(
            AbelianTuple((diagonal([1, 3]),)),
            AbelianTuple((diagonal([2, 3]),)),
            (3.0,),
            DiagonalState.uniform(2),
        )
        assert v.passed
        assert v.detail["lhs"] == pytest.approx(28.0)
        assert v.detail["rhs"] == pytest.approx(35.0)

    def test_power_products_agree_with_member_powers(self):
        cfg = CampaignConfig("T2", 40, dim_range=(2, 6), arity_range=(1, 4), seed=17)
        for i in range(cfg.count):
            a = hz._THEOREMS["T2"].generate(cfg, instance_rng(cfg.seed, i), i)
            v = check_trace_power_monotone(a["x"], a["y"], a["p"], a["rho"])
            for side, t in (("lhs", a["x"]), ("rhs", a["y"])):
                ref = state_trace(a["rho"], member_power_product(t, a["p"]))
                assert abs(v.detail[side] - ref) <= 1e-10 * (1 + abs(ref)), (i, side)

    def test_invalid_on_indefinite_x(self):
        v = check_trace_power_monotone(
            AbelianTuple((diagonal([-1.0, 1.0]),)),
            AbelianTuple((diagonal([0.0, 2.0]),)),
            (1.0,),
            DiagonalState.uniform(2),
        )
        assert v.invalid and v.detail["reason"] == "x is not PSD"

    def test_single_square_on_noncommuting_campaign(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            x, y = random_psd_ordered_pair(rng, dim)
            v = check_trace_power_monotone(
                AbelianTuple((x,)), AbelianTuple((y,)), (2.0,), DiagonalState.uniform(dim)
            )
            assert v.passed, v


class TestProofChainInvariant:
    def test_order_preserved_on_dominated_pairs(self):
        from opineq.linalg import loewner_leq

        rng = np.random.default_rng(15)
        for _ in range(100):
            dim, n = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            zx = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            zy = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            qx, _ = np.linalg.qr(zx)
            qy, _ = np.linalg.qr(zy)
            xs = tuple(
                HermitianMatrix((qx * rng.uniform(0.0, 0.6, dim)) @ qx.conj().T)
                for _ in range(n)
            )
            ys = tuple(
                HermitianMatrix((qy * rng.uniform(0.8, 2.0, dim)) @ qy.conj().T)
                for _ in range(n)
            )
            cx = root_product_chain(AbelianTuple(xs))
            cy = root_product_chain(AbelianTuple(ys))
            assert loewner_leq(cx, cy)
