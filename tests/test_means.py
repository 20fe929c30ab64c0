"""Tests for the geometric mean, its quadrature oracle, root chains, and trace checks."""

import math

import numpy as np
import pytest

from opineq.abelian import AbelianTuple, CubeFunction, apply_cube_function, uniform_cube
from opineq.linalg import (
    DEFAULT_QUADRATURE_NODES,
    HermitianMatrix,
    diagonal,
    eig_hermitian,
    identity,
    matrix_power,
)
from opineq.means import (
    ExponentVector,
    SingularInputError,
    check_lowner_heinz,
    check_trace_power_monotone,
    geometric_mean,
    geometric_mean_quadrature,
    root_product_chain,
)
from opineq.state import DiagonalState, state_trace


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
        with pytest.raises(SingularInputError):
            geometric_mean_quadrature(diagonal([1.0, 0.0]), identity(2))

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
            expo = 1.0 / 2 ** (n - 1)
            f = CubeFunction(
                "rootprod", n, uniform_cube(n, 0.0, 2.0),
                lambda s: float(np.prod([v**expo for v in s])),
            )
            direct = root_product_chain(t)
            oracle = apply_cube_function(f, t)
            assert (direct - oracle).norm() <= 1e-8 * (1 + oracle.norm())


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
        with pytest.raises(ValueError):
            ExponentVector((1.0, -0.5))

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
