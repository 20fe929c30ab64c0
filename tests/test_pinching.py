"""Tests for pinching, column fields, the spectral measure, and the Jensen checks."""

import math

import numpy as np
import pytest

from opineq.abelian import AbelianTuple, CubeFunction, check_commuting, uniform_cube
from opineq.harness import gen_abelian_tuple, gen_tuple_field, random_unitary
from opineq.linalg import HermitianMatrix, diagonal, eig_hermitian, identity
from opineq.pinching import (
    ColumnField,
    TupleField,
    build_mu_xi,
    check_jensen_expectation,
    check_mond_pecaric,
    check_phi_concave_jensen,
    check_phi_jensen_field,
    check_phi_monotone_chain,
    compress,
    reproduce_example1,
)
from opineq.state import DiagonalState, pinch, state_trace

AFFINE2 = CubeFunction(
    "affine", uniform_cube(2, 0, 2), lambda s: 0.25 + 0.5 * s[0] + 0.3 * s[1],
    convex=True, concave=True, separately_increasing=True,
)
SUMSQ2 = CubeFunction(
    "sumsq", uniform_cube(2, 0, 2), lambda s: s[0] ** 2 + s[1] ** 2, convex=True
)
SQRT1 = CubeFunction(
    "sqrt", uniform_cube(1, 0, 4), lambda s: math.sqrt(s[0]),
    concave=True, separately_increasing=True,
)
SUMSQ1 = CubeFunction("sumsq", uniform_cube(1, 0, 2), lambda s: s[0] ** 2, convex=True)
GEO2 = CubeFunction(
    "geomean", uniform_cube(2, 0, 2), lambda s: math.sqrt(s[0] * s[1]),
    concave=True, separately_increasing=True,
)


def random_field(rng, dim, count):
    mats = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)) for _ in range(count)]
    weights = rng.uniform(0.5, 2.0, count)
    gram = sum(w * b.conj().T @ b for w, b in zip(weights, mats))
    lam, vec = np.linalg.eigh(gram)
    root_inv = (vec / np.sqrt(lam)) @ vec.conj().T
    return ColumnField(tuple(weights), tuple(b @ root_inv for b in mats))


def random_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestPinch:
    def test_diagonal_fixed_point(self):
        z = diagonal([1.5, -2.0, 0.25])
        out = pinch(DiagonalState.uniform(3), z)
        assert np.allclose(out, [1.5, -2.0, 0.25])

    def test_example_square(self):
        # all-ones matrix with c=1: the pinched square is (2, 2)
        x = HermitianMatrix(np.ones((2, 2), dtype=complex))
        x2 = HermitianMatrix(x.entries @ x.entries)
        out = pinch(DiagonalState.uniform(2), x2)
        assert np.allclose(out, [2.0, 2.0])

    def test_duality_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
            a = HermitianMatrix(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            z = rng.uniform(-1, 1, dim)
            za = HermitianMatrix(np.diag(z) @ a.entries)
            lhs = state_trace(rho, za)
            vals = pinch(rho, a)
            rhs = float(np.sum(z * vals * rho.weights))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_zero_weight_convention(self):
        rho = DiagonalState([1.0, 0.0])
        a = diagonal([3.0, 7.0])
        out = pinch(rho, a)
        assert out.tolist() == [3.0, 0.0]
        assert not out.flags.writeable

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # symmetrizing an infinite entry
    def test_zero_weight_index_may_be_non_finite(self):
        a = HermitianMatrix(np.diag([3.0, np.inf]).astype(complex))
        assert pinch(DiagonalState([1.0, 0.0]), a).tolist() == [3.0, 0.0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # symmetrizing an infinite entry
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_diagonal(self, bad):
        a = HermitianMatrix(np.diag([1.0, bad]).astype(complex))
        with pytest.raises(ValueError, match="values must be finite"):
            pinch(DiagonalState.uniform(2), a)


class TestDiagonalState:
    @pytest.mark.parametrize(
        "weights", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.inf, 1.0], [1.0, np.inf]]
    )
    def test_rejects_non_finite_weight(self, weights):
        # such a weight slips past `w < 0` and `sum <= 0`, and a check reading it can pass
        with pytest.raises(ValueError, match="weights must be nonnegative and finite"):
            DiagonalState(weights)


class TestCompress:
    def test_identity_atom(self):
        rng = np.random.default_rng(2)
        t = gen_abelian_tuple(3, uniform_cube(2, 0.0, 2.0), rng)
        field = ColumnField((1.0,), (np.eye(3, dtype=complex),))
        members = compress(field, TupleField((t,)))
        for got, want in zip(members, t.members):
            assert (got - want).norm() <= 1e-12 * (1 + want.norm())
        assert check_commuting(members)

    def test_two_projection_atoms(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        field = ColumnField((1.0, 1.0), (p0, p1))
        t = AbelianTuple((HermitianMatrix(np.array([[1, 1], [1, 1]], dtype=complex)),))
        members = compress(field, TupleField((t, t)))
        assert np.allclose(members[0].entries, np.diag([1.0, 1.0]))

    def test_unitary_atom_preserves_commutation(self):
        rng = np.random.default_rng(3)
        t = gen_abelian_tuple(4, uniform_cube(3, 0.0, 2.0), rng)
        u = random_unitary(4, rng)
        field = ColumnField((1.0,), (u,))
        members = compress(field, TupleField((t,)))
        assert check_commuting(members)
        AbelianTuple(members)

    def test_conjugate_sum_is_the_unital_map(self):
        rng = np.random.default_rng(7)
        u = random_unitary(3, rng)
        m = gen_abelian_tuple(3, uniform_cube(1, 0.0, 2.0), rng).members[0]
        got = ColumnField((1.0,), (u,)).conjugate_sum([m])
        assert np.allclose(got.entries, u.conj().T @ m.entries @ u)

    @pytest.mark.parametrize("count", [1, 3])
    def test_conjugate_sum_rejects_a_misaligned_list(self, count):
        # zipping would drop atoms: one matrix for two atoms gave 0.5 I
        field = ColumnField((0.5, 0.5), (np.eye(2), np.eye(2)))
        with pytest.raises(ValueError, match=f"{count} matrices for a field of 2 atoms"):
            field.conjugate_sum([identity(2)] * count)

    def test_nonunital_rejected(self):
        with pytest.raises(ValueError):
            ColumnField((1.0,), (2.0 * np.eye(2, dtype=complex),))

    def test_misaligned_rejected(self):
        rng = np.random.default_rng(4)
        t = gen_abelian_tuple(2, uniform_cube(1, 0.0, 2.0), rng)
        field = ColumnField((1.0,), (np.eye(2, dtype=complex),))
        # compress leaves the atom count to ColumnField.conjugate_sum
        with pytest.raises(ValueError, match="2 matrices for a field of 1 atoms"):
            compress(field, TupleField((t, t)))


class TestSpectralMeasure:
    def test_single_identity_atom_basis_vector(self):
        t = AbelianTuple((diagonal([0.3, 0.9]), diagonal([1.1, 0.2])))
        field = ColumnField((1.0,), (np.eye(2, dtype=complex),))
        xi = np.array([1.0, 0.0], dtype=complex)
        support, masses = build_mu_xi(field, TupleField((t,)), xi)
        idx = np.argmax(masses)
        assert masses[idx] == pytest.approx(1.0, abs=1e-12)
        assert tuple(support[idx]) == pytest.approx((0.3, 1.1))

    def test_joint_eigenvector_gives_dirac(self):
        rng = np.random.default_rng(5)
        t = gen_abelian_tuple(3, uniform_cube(2, 0.0, 2.0), rng)
        from opineq.abelian import joint_diagonalize

        js = joint_diagonalize(t)
        xi = js.basis[:, 1]
        field = ColumnField((1.0,), (np.eye(3, dtype=complex),))
        support, masses = build_mu_xi(field, TupleField((t,)), xi)
        top = np.argmax(masses)
        assert masses[top] == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(support[top], js.points[1], atol=1e-9)

    def test_mass_one_and_coordinate_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            dim, n, count = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            field = random_field(rng, dim, count)
            tf = gen_tuple_field(dim, count, uniform_cube(n, 0.0, 2.0), rng)
            xi = random_unit(rng, dim)
            support, masses = build_mu_xi(field, tf, xi)
            assert abs(masses.sum() - 1.0) <= 1e-10
            members = compress(field, tf)
            for i in range(n):
                lhs = float(masses @ support[:, i])
                rhs = float(np.real(np.vdot(xi, members[i].entries @ xi)))
                assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_mass_within_the_fields_admitted_defect(self):
        # |G - I|_F = 1.3e-9 sqrt(2) = 1.84e-9 <= rtol * count = 2e-9 admits
        # the field; the mass <G e1, e1> = 1 + 1.3e-9 must be accepted too
        t = AbelianTuple((diagonal([0.5, 1.5]),))
        field = ColumnField(
            (1.0, 1.0),
            (math.sqrt(0.5 + 1.3e-9) * np.eye(2, dtype=complex), math.sqrt(0.5) * np.eye(2, dtype=complex)),
        )
        xi = np.array([1.0, 0.0], dtype=complex)
        _, masses = build_mu_xi(field, TupleField((t, t)), xi)
        assert masses.sum() == pytest.approx(1.0 + 1.3e-9, abs=1e-15)
        v = check_jensen_expectation(SUMSQ1, field, TupleField((t, t)), xi)
        assert v.detail["mu_mass"] == masses.sum() and not v.invalid

    def test_non_unit_vector_rejected(self):
        t = AbelianTuple((diagonal([1.0, 0.0]),))
        field = ColumnField((1.0,), (np.eye(2, dtype=complex),))
        with pytest.raises(ValueError):
            build_mu_xi(field, TupleField((t,)), np.array([1.0, 1.0]))


class TestJensenExpectation:
    def test_affine_equality(self):
        rng = np.random.default_rng(7)
        field = random_field(rng, 4, 3)
        tf = gen_tuple_field(4, 3, uniform_cube(2, 0.0, 2.0), rng)
        v = check_jensen_expectation(AFFINE2, field, tf, random_unit(rng, 4))
        assert v.passed and abs(v.gap) <= 1e-9

    def test_dirac_equality(self):
        t = AbelianTuple((diagonal([0.3, 0.9]), diagonal([1.1, 0.2])))
        field = ColumnField((1.0,), (np.eye(2, dtype=complex),))
        xi = np.array([1.0, 0.0], dtype=complex)
        v = check_jensen_expectation(SUMSQ2, field, TupleField((t,)), xi)
        assert v.passed and abs(v.gap) <= 1e-9

    def test_square_of_sum_campaign(self):
        f = CubeFunction(
            "sqsum", uniform_cube(2, 0, 2), lambda s: (s[0] + s[1]) ** 2,
            convex=True, separately_increasing=True,
        )
        rng = np.random.default_rng(8)
        for _ in range(200):
            dim, count = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            field = random_field(rng, dim, count)
            tf = gen_tuple_field(dim, count, uniform_cube(2, 0.0, 2.0), rng)
            v = check_jensen_expectation(f, field, tf, random_unit(rng, dim))
            assert v.passed, v
            assert abs(v.detail["mu_mass"] - 1.0) <= 1e-10
            # the measure-side middle quantity reproduces the right side
            assert abs(v.detail["middle"] - v.detail["rhs"]) <= 1e-8 * (1 + abs(v.detail["rhs"]))

    def test_nonconvex_flag_invalid(self):
        rng = np.random.default_rng(9)
        field = random_field(rng, 3, 2)
        tf = gen_tuple_field(3, 2, uniform_cube(2, 0.0, 2.0), rng)
        v = check_jensen_expectation(GEO2, field, tf, random_unit(rng, 3))
        assert v.invalid


class TestMondPecaric:
    def test_diagonal_basis_vector_equality(self):
        f = CubeFunction("sq", uniform_cube(1, -2, 2), lambda s: s[0] ** 2, convex=True)
        t = AbelianTuple((diagonal([1.2, 0.4]),))
        v = check_mond_pecaric(f, t, np.array([1.0, 0.0]))
        assert v.passed and abs(v.gap) <= 1e-12

    def test_flip_matrix_strict(self):
        f = CubeFunction("sq", uniform_cube(1, -2, 2), lambda s: s[0] ** 2, convex=True)
        t = AbelianTuple((HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex)),))
        v = check_mond_pecaric(f, t, np.array([1.0, 0.0]))
        assert v.passed
        assert v.detail["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert v.detail["rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_reduces_to_scalar_jensen_on_diagonals(self):
        rng = np.random.default_rng(10)
        t = AbelianTuple((diagonal([0.5, 1.5]), diagonal([1.0, 0.25])))
        xi = np.array([1.0, 1.0]) / math.sqrt(2)
        v = check_mond_pecaric(SUMSQ2, t, xi)
        # probability vector (1/2, 1/2) over the joint eigenvalues
        lhs = SUMSQ2([(0.5 + 1.5) / 2, (1.0 + 0.25) / 2])
        rhs = (SUMSQ2([0.5, 1.0]) + SUMSQ2([1.5, 0.25])) / 2
        assert v.detail["lhs"] == pytest.approx(lhs, abs=1e-12)
        assert v.detail["rhs"] == pytest.approx(rhs, abs=1e-12)
        assert v.passed

    def test_nan_xi_invalid(self):
        t = AbelianTuple((diagonal([1.2, 0.4]),))
        v = check_mond_pecaric(SUMSQ1, t, np.array([1.0, math.nan]))
        assert v.invalid and v.detail["reason"] == "xi is not a unit vector"

    def test_equals_degenerate_field_jensen(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            t = gen_abelian_tuple(dim, uniform_cube(2, 0.0, 2.0), rng)
            xi = random_unit(rng, dim)
            direct = check_mond_pecaric(SUMSQ2, t, xi)
            field = ColumnField((1.0,), (np.eye(dim, dtype=complex),))
            via_field = check_jensen_expectation(SUMSQ2, field, TupleField((t,)), xi)
            assert direct.passed and via_field.passed
            assert abs(direct.gap - via_field.gap) <= 1e-12 * (1 + abs(direct.gap))


class TestPhiJensenField:
    def test_single_identity_atom_affine_equality(self):
        rng = np.random.default_rng(12)
        t = AbelianTuple((diagonal([0.2, 1.0]), diagonal([0.8, 0.1])))
        field = ColumnField((1.0,), (np.eye(2, dtype=complex),))
        rho = DiagonalState(rng.uniform(0.5, 1.5, 2))
        v = check_phi_jensen_field(AFFINE2, field, TupleField((t,)), rho)
        assert v.passed and abs(v.gap) <= 1e-9

    def test_max_campaign(self):
        f = CubeFunction(
            "max", uniform_cube(2, 0, 2), max, convex=True, separately_increasing=True
        )
        rng = np.random.default_rng(13)
        for _ in range(200):
            dim, count = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            field = random_field(rng, dim, count)
            tf = gen_tuple_field(dim, count, uniform_cube(2, 0.0, 2.0), rng)
            rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
            v = check_phi_jensen_field(f, field, tf, rho)
            assert v.passed, v

    def test_rank_one_state_recovers_vector_jensen(self):
        # a state with a single positive weight reproduces the vector-state
        # inequality at that basis vector
        rng = np.random.default_rng(14)
        dim = 3
        field = random_field(rng, dim, 2)
        tf = gen_tuple_field(dim, 2, uniform_cube(2, 0.0, 2.0), rng)
        xi = np.zeros(dim, dtype=complex)
        xi[0] = 1.0
        vector = check_jensen_expectation(SUMSQ2, field, tf, xi)
        comp_members = compress(field, tf)
        # pointwise inequality at index 0 equals the vector inequality at e_0
        lhs = SUMSQ2([m.entries[0, 0].real for m in comp_members])
        assert lhs == pytest.approx(vector.detail["lhs"], abs=1e-12)


class TestPhiConcaveJensen:
    def test_diagonal_tuple_equality(self):
        t = AbelianTuple((diagonal([0.5, 1.5]), diagonal([1.0, 0.3])))
        v = check_phi_concave_jensen(GEO2, t, DiagonalState.uniform(2))
        assert v.passed and abs(v.gap) <= 1e-10

    def test_strict_gap_hand_instance(self):
        # x = all-ones + identity: pinch(sqrt(x)) = ((sqrt3+1)/2, ...) < sqrt(2) = f(pinch(x))
        x = HermitianMatrix(np.ones((2, 2), dtype=complex) + np.eye(2))
        v = check_phi_concave_jensen(SQRT1, AbelianTuple((x,)), DiagonalState.uniform(2))
        assert v.passed
        expected_gap = math.sqrt(2.0) - (math.sqrt(3.0) + 1.0) / 2.0
        assert v.gap == pytest.approx(expected_gap, abs=1e-12)

    def test_random_campaign(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            dim = int(rng.integers(2, 6))
            t = gen_abelian_tuple(dim, uniform_cube(2, 0.0, 2.0), rng)
            rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
            v = check_phi_concave_jensen(GEO2, t, rho)
            assert v.passed, v

    def test_wrong_flag_invalid(self):
        t = AbelianTuple((diagonal([0.5, 1.5]), diagonal([1.0, 0.3])))
        v = check_phi_concave_jensen(SUMSQ2, t, DiagonalState.uniform(2))
        assert v.invalid


class TestPhiMonotoneChain:
    def test_equal_diagonal_tuples(self):
        y = AbelianTuple((diagonal([0.5, 1.0]), diagonal([1.5, 0.75])))
        v = check_phi_monotone_chain(GEO2, y, y, DiagonalState.uniform(2))
        assert v.passed

    def test_scaled_example_instance(self):
        x = AbelianTuple((HermitianMatrix(0.5 * np.ones((2, 2), dtype=complex)),))
        y = AbelianTuple((diagonal([1.5, 3.0]),))
        v = check_phi_monotone_chain(SQRT1, x, y, DiagonalState.uniform(2))
        assert v.passed

    def test_random_campaign(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            dim, n = int(rng.integers(2, 6)), int(rng.integers(1, 3))
            x = gen_abelian_tuple(dim, uniform_cube(n, 0.0, 0.6), rng)
            y = AbelianTuple(tuple(diagonal(rng.uniform(0.8, 2.0, dim)) for _ in range(n)))
            rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
            f = GEO2 if n == 2 else SQRT1
            v = check_phi_monotone_chain(f, x, y, rho)
            assert v.passed, v

    def test_nondiagonal_y_invalid(self):
        rng = np.random.default_rng(17)
        x = AbelianTuple((diagonal([0.1, 0.2]),))
        y = AbelianTuple((HermitianMatrix(np.array([[1.5, 0.2], [0.2, 1.5]], dtype=complex)),))
        v = check_phi_monotone_chain(SQRT1, x, y, DiagonalState.uniform(2))
        assert v.invalid


class TestExample1:
    def test_canonical_parameters(self):
        v = reproduce_example1(1.0, 1.3, 3.4)
        assert v.detail["claims"] == {
            "order_strict": True,
            "pinch_square_not_dominated": True,
            "trace_square_identity": True,
            "trace_monotone": True,
        }
        assert v.passed and "slack" not in v.detail

    def test_order_margin_is_lambda_min(self):
        c, t, lam = 1.0, 1.3, 3.4
        v = reproduce_example1(c, t, lam)
        x = HermitianMatrix(np.full((2, 2), c, dtype=complex))
        assert v.gap == eig_hermitian(diagonal([t, lam * t]) - x).lambda_min
        assert v.gap > 0

    def test_large_t_skips_pointwise_claim(self):
        v = reproduce_example1(1.0, 1.5, 10.0)
        claims = v.detail["claims"]
        assert claims.pop("pinch_square_not_dominated") is None
        assert all(claims.values())
        assert v.passed

    def test_trace_identity_any_c(self):
        for c in (0.25, 1.0, 2.5, 7.0):
            t = 1.3 * c
            v = reproduce_example1(c, t, 1.5 * c / (t - c))
            assert v.detail["claims"]["trace_square_identity"]

    def test_parameter_validation(self):
        # t <= c, lam <= c/(t-c), and NaN or infinite parameters
        for c, t, lam in (
            (1.0, 0.9, 10.0), (1.0, 0.5, 3.0), (1.0, math.inf, 3.0), (math.nan, 1.3, 3.4)
        ):
            v = reproduce_example1(c, t, lam)
            assert v.invalid and v.detail["reason"] == "need 0 < c < t < inf"
        for lam in (3.0, 0.1, math.nan, math.inf):
            v = reproduce_example1(1.0, 1.3, lam)
            assert v.invalid and v.detail["reason"] == "need c/(t-c) < lam < inf"

    def test_trace_values_match_closed_forms(self):
        c, t, lam = 1.0, 1.3, 3.4
        v = reproduce_example1(c, t, lam)
        assert v.detail["trace_x2"] == pytest.approx(4 * c * c, abs=1e-14)
        assert v.detail["trace_y2"] == pytest.approx(t * t * (1 + lam * lam), rel=1e-14)
        x = HermitianMatrix(np.full((2, 2), c, dtype=complex))
        x2 = HermitianMatrix(x.entries @ x.entries)
        assert np.allclose(pinch(DiagonalState.uniform(2), x2), [2 * c * c, 2 * c * c])
