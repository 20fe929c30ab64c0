"""Tests for commuting tuples, joint diagonalization, and cube-function calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import linalg
from opineq.abelian import (
    AbelianTuple,
    Cube,
    CubeFunction,
    JointDiagonalizationError,
    apply_cube_function,
    check_commuting,
    check_compatible,
    joint_diagonalize,
    memberwise_leq,
    spectrum_in_cube,
    uniform_cube,
)
from opineq.harness import CampaignConfig, gen_abelian_tuple, random_unitary, run_campaign
from opineq.linalg import (
    EigenSystem,
    HermitianMatrix,
    JacobiConvergenceError,
    Tolerance,
    diagonal,
    eig_hermitian,
    identity,
)

X_FLIP = HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex))


def _off_diagonal(dim, eps):
    off = np.zeros((dim, dim), dtype=complex)
    off[0, 1] = off[1, 0] = eps
    return off


def tuple_with_spectra(rng, spectra):
    """Tuple whose members share one random unitary eigenbasis, with the given spectra."""
    dim = len(spectra[0])
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return AbelianTuple(tuple(HermitianMatrix((q * lam) @ q.conj().T) for lam in spectra))


def split_pairs(rng, scale, gap):
    """Dim-6 spectrum of three separated pairs, each split by ``gap`` times its norm."""
    centers = np.repeat(np.array([1.0, 2.0, 3.0]) + rng.uniform(0.0, 0.5, 3), 2)
    return scale * (centers + gap * np.linalg.norm(centers) * np.tile([0.0, 1.0], 3))


def repeated_pairs(rng):
    return np.repeat(rng.uniform(-1.0, 1.0, 3), 2)


def assert_reconstructs(t, js):
    for i, x in enumerate(t.members):
        rec = (js.basis * js.points[:, i]) @ js.basis.conj().T
        assert np.linalg.norm(rec - x.entries) <= 1e-8 * x.norm()


RELATIVE_GAPS = (0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8, 1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5)
SCALES = (1.0, 1e4, 1e6, 1e8)

# Member 0 is near-degenerate on three pairs (spectrum ``split_pairs``); the
# other members resolve the pairs, are exactly degenerate on them, or are
# near-degenerate too.
MERGE_CASES = {
    "member1_degenerate": lambda rng, s, g: [split_pairs(rng, s, g), repeated_pairs(rng)],
    "member0_degenerate": lambda rng, s, g: [split_pairs(rng, s, 0.0), split_pairs(rng, 1.0, g)],
    "both_near_degenerate": lambda rng, s, g: [split_pairs(rng, s, g), split_pairs(rng, 1.0, g)],
    "three_members": lambda rng, s, g: [
        split_pairs(rng, s, g), repeated_pairs(rng), rng.uniform(-1.0, 1.0, 6)
    ],
}


class TestCommuting:
    def test_diagonals_commute(self):
        assert check_commuting([diagonal([1, 2]), diagonal([3, 4])])

    def test_noncommuting_pair(self):
        assert not check_commuting([X_FLIP, diagonal([1, 2])])

    def test_single_member(self):
        assert check_commuting([X_FLIP])

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            check_commuting([identity(2), identity(3)])

    def test_tuple_construction_rejects_noncommuting(self):
        with pytest.raises(ValueError):
            AbelianTuple((diagonal([1, 0]), X_FLIP))

    def test_nan_commutator_is_not_commuting(self):
        # the commutator norm is NaN, which proves nothing
        assert not check_commuting([diagonal([1, 2]), HermitianMatrix([[0, 1], [1, np.nan]])])


class TestAdmission:
    """An AbelianTuple is admitted by its joint spectrum, built once in the constructor."""

    def test_repeated_leading_eigenvalue_resolved_by_a_later_member(self, jacobi_runs):
        # member 0 repeats its eigenvalue 1; only the block refinement of
        # member 1 inside that cluster pairs 5 and 7 with it
        q = random_unitary(4, np.random.default_rng(21))
        spectra = ([1.0, 1.0, 2.0, 3.0], [5.0, 7.0, 6.0, 8.0])
        t = AbelianTuple(tuple(HermitianMatrix((q * np.array(s)) @ q.conj().T) for s in spectra))
        assert [a.dim for a in jacobi_runs] == [4, 2]  # member 0, then the 2x2 cluster block
        got = sorted(map(tuple, t.joint.points.round(9)))
        assert got == [(1.0, 5.0), (1.0, 7.0), (2.0, 6.0), (3.0, 8.0)]
        assert_reconstructs(t, t.joint)

    def test_kernel_basis_defect_is_far_below_eta(self):
        rng = np.random.default_rng(22)
        for dim in range(2, 17):
            for _ in range(4):
                u = gen_abelian_tuple(dim, uniform_cube(3, 0.0, 2.0), rng).joint.basis
                defect = np.linalg.norm(u.conj().T @ u - np.eye(dim))
                assert defect <= 1e-14 * dim / 5

    @pytest.mark.parametrize("n", [1, 2])
    def test_non_unitary_basis_is_a_numerical_error(self, monkeypatch, n):
        # a kernel whose bases are off unitarity by 2e-9: admission refuses the
        # tuple as a kernel fault, never as a non-commuting (invalid) instance
        original = linalg._jacobi

        def skewed(a):
            es = original(a)
            return EigenSystem(es.eigenvalues, es.basis * (1.0 + 1e-9))

        monkeypatch.setattr(linalg, "_jacobi", skewed)
        members = (diagonal([1.0, 2.0, 3.0]), diagonal([3.0, 1.0, 2.0]))[:n]
        with pytest.raises(JointDiagonalizationError, match="joint basis is not unitary") as info:
            AbelianTuple(members)
        assert not isinstance(info.value, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_0_raises_the_kernel_error(self, bad):
        with pytest.raises(JacobiConvergenceError, match="norm not finite"):
            AbelianTuple((HermitianMatrix([[bad, 0.0], [0.0, 1.0]]), diagonal([1.0, 2.0])))

    @pytest.mark.parametrize("lead", [diagonal([1.0, 2.0]), identity(2)], ids=["split", "repeated"])
    @pytest.mark.parametrize(
        "bad",
        [[[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[8e307, 0.0], [0.0, 0.0]]],
        ids=["nan", "inf", "norm-overflow"],
    )
    def test_non_finite_later_member_is_refused(self, lead, bad):
        # refused before the refinement, so a repeated leading eigenvalue that
        # would hand the member to the kernel gives the same ValueError
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="members do not commute within tolerance"):
                AbelianTuple((lead, HermitianMatrix(bad)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), n=st.integers(1, 3),
           log_eps=st.floats(-14.0, -2.0), log_rtol=st.floats(-12.0, -2.5))
    def test_joint_diagonalize_never_raises_at_the_tuples_own_tol(
        self, seed, dim, n, log_eps, log_rtol
    ):
        # commuting members plus a perturbation of relative size eps: some are
        # admitted at rtol and some refused, and an admitted tuple's spectrum
        # is always readable at its own tol
        rng = np.random.default_rng(seed)
        q = random_unitary(dim, rng)
        tol = Tolerance(10.0**log_rtol)
        members = []
        for _ in range(n):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            noise = 10.0**log_eps * z
            members.append(HermitianMatrix((q * rng.uniform(-1, 1, dim)) @ q.conj().T + noise))
        try:
            t = AbelianTuple(tuple(members), tol)
        except ValueError:
            return
        assert joint_diagonalize(t, tol) is t.joint


class TestJointDiagonalize:
    def test_diagonal_tuple(self):
        t = AbelianTuple((diagonal([1, 2]), diagonal([3, 4])))
        js = joint_diagonalize(t)
        got = sorted(map(tuple, js.points.round(12)))
        assert got == [(1.0, 3.0), (2.0, 4.0)]

    def test_functional_relation_pairing(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = HermitianMatrix(z)
        x2 = HermitianMatrix(x.entries @ x.entries)
        js = joint_diagonalize(AbelianTuple((x, x2)))
        for lam, lam2 in js.points:
            assert abs(lam**2 - lam2) < 1e-9 * (1 + abs(lam2))

    def test_single_member_reduces_to_eig(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        x = HermitianMatrix(z)
        js = joint_diagonalize(AbelianTuple((x,)))
        es = eig_hermitian(x)
        assert np.allclose(js.points[:, 0], es.eigenvalues)

    def test_reconstruction_of_members(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            t = gen_abelian_tuple(dim, uniform_cube(n, 0.0, 2.0), rng)
            js = joint_diagonalize(t)
            for i, x in enumerate(t.members):
                rec = HermitianMatrix((js.basis * js.points[:, i]) @ js.basis.conj().T)
                assert (rec - x).norm() <= 1e-8 * (1 + x.norm())

    def test_eigenvalue_multisets_preserved(self):
        rng = np.random.default_rng(8)
        t = gen_abelian_tuple(5, uniform_cube(3, 0.0, 2.0), rng)
        js = joint_diagonalize(t)
        for i, x in enumerate(t.members):
            mine = np.sort(js.points[:, i])
            ref = np.sort(eig_hermitian(x).eigenvalues)
            assert np.allclose(mine, ref, atol=1e-9)

    def test_degenerate_shared_eigenspaces(self):
        # members share eigenspaces with repeated eigenvalues: the refinement
        # carries the unresolved clusters of member 0 through every member
        t = AbelianTuple((diagonal([2, 2, 1]), diagonal([5, 5, 5]), diagonal([1, 1, 3])))
        js = joint_diagonalize(t)
        got = sorted(map(tuple, js.points.round(9)))
        assert got == [(1.0, 5.0, 3.0), (2.0, 5.0, 1.0), (2.0, 5.0, 1.0)]

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("gap", RELATIVE_GAPS)
    def test_near_degenerate_member0_grid(self, gap, scale):
        # gap 0 holds exactly repeated pairs, which only member 1 separates;
        # Jacobi's eigenvector error at gaps near the cluster cap must stay
        # below the other members' residual bound
        rng = np.random.default_rng(17)
        for _ in range(40):
            t = tuple_with_spectra(rng, [split_pairs(rng, scale, gap), rng.uniform(-1.0, 1.0, 6)])
            assert_reconstructs(t, joint_diagonalize(t))

    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    @pytest.mark.parametrize("gap", RELATIVE_GAPS)
    def test_merged_clusters(self, case, gap):
        rng = np.random.default_rng(18)
        for scale in SCALES:
            for _ in range(10):
                t = tuple_with_spectra(rng, MERGE_CASES[case](rng, scale, gap))
                assert_reconstructs(t, joint_diagonalize(t))

    def test_cluster_cap_covers_kernel_stop_threshold(self):
        # one T5 atom has a member-0 gap of 1.4e-6 relative; a cap below it
        # left 3.7e-9 of residual in member 1 against a bound of 3.5e-9
        report = run_campaign(
            CampaignConfig("T5", 2, dim_range=(5, 5), arity_range=(2, 2), seed=1187)
        )
        assert report.summary["pass"] == 2

    def test_equal_tuples_give_equal_bits(self):
        rng = np.random.default_rng(14)
        for spectra in (
            [rng.uniform(-1.0, 1.0, 5), rng.uniform(-1.0, 1.0, 5)],
            MERGE_CASES["three_members"](rng, 1e4, 1e-9),
        ):
            t = tuple_with_spectra(rng, spectra)
            twin = AbelianTuple(tuple(HermitianMatrix(x.entries.copy()) for x in t.members))
            a, b = joint_diagonalize(t), joint_diagonalize(twin)
            assert np.array_equal(a.basis, b.basis)
            assert np.array_equal(a.points, b.points)

    def test_residual_guard_on_loosely_admitted_tuple(self):
        off = np.zeros((3, 3), dtype=complex)
        off[0, 1] = off[1, 0] = 1e-5
        members = (diagonal([1.0, 2.0, 3.0]), HermitianMatrix(np.diag([3.0, 1.0, 2.0]) + off))
        with pytest.raises(ValueError):
            AbelianTuple(members)
        t = AbelianTuple(members, tol=Tolerance(1e-3))
        with pytest.raises(JointDiagonalizationError):
            joint_diagonalize(t)

    def test_second_call_returns_the_memo(self, jacobi_runs):
        t = gen_abelian_tuple(4, uniform_cube(3, 0.0, 2.0), np.random.default_rng(9))
        js = joint_diagonalize(t)
        del jacobi_runs[:]
        assert joint_diagonalize(t) is js
        assert jacobi_runs == []

    def test_memo_carries_no_tolerance(self):
        # members commuting at rtol 1e-3 but not at the default: member 1 keeps
        # a residual of 1.4e-5 in member 0's eigenbasis.  The memo keeps the
        # residuals; each call checks them against its own tol
        loose = Tolerance(1e-3)
        x1 = HermitianMatrix(np.diag([3.0, 1.0, 2.0]) + _off_diagonal(3, 1e-5))
        t = AbelianTuple((diagonal([1.0, 2.0, 3.0]), x1), tol=loose)
        js = joint_diagonalize(t, loose)
        with pytest.raises(JointDiagonalizationError):
            joint_diagonalize(t)
        assert joint_diagonalize(t, loose) is js

    def test_campaign_decomposes_each_matrix_once(self, jacobi_runs):
        run_campaign(CampaignConfig("T3", 20, dim_range=(2, 5), arity_range=(1, 3), seed=17))
        keys = [(a.dim, a.entries.tobytes()) for a in jacobi_runs]
        assert len(keys) == len(set(keys))


class TestCubeFunction:
    def test_product_on_diagonals(self):
        f = CubeFunction("product", uniform_cube(2, 0, 5), lambda s: s[0] * s[1])
        t = AbelianTuple((diagonal([1, 2]), diagonal([3, 4])))
        out = apply_cube_function(f, t)
        assert np.allclose(out.entries, np.diag([3.0, 8.0]))

    def test_coordinate_projection(self):
        rng = np.random.default_rng(9)
        t = gen_abelian_tuple(4, uniform_cube(3, 0.0, 2.0), rng)
        for i in range(3):
            f = CubeFunction(f"coord{i}", uniform_cube(3, -1, 3), lambda s, i=i: s[i])
            out = apply_cube_function(f, t)
            assert (out - t.members[i]).norm() <= 1e-10 * (1 + t.members[i].norm())

    def test_pointwise_max(self):
        f = CubeFunction("max", uniform_cube(2, 0, 6), max)
        t = AbelianTuple((diagonal([1, 5]), diagonal([4, 2])))
        out = apply_cube_function(f, t)
        assert np.allclose(out.entries, np.diag([4.0, 5.0]))

    def test_output_commutes_with_members(self):
        rng = np.random.default_rng(10)
        t = gen_abelian_tuple(5, uniform_cube(2, 0.0, 2.0), rng)
        f = CubeFunction("sum", uniform_cube(2, 0, 2), sum)
        out = apply_cube_function(f, t)
        assert check_commuting(list(t.members) + [out])

    def test_basis_covariance(self):
        rng = np.random.default_rng(11)
        t = gen_abelian_tuple(4, uniform_cube(2, 0.0, 2.0), rng)
        f = CubeFunction("sumsq", uniform_cube(2, 0, 2), lambda s: s[0] ** 2 + s[1] ** 2)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        conj = AbelianTuple(tuple(HermitianMatrix(q.conj().T @ x.entries @ q) for x in t.members))
        lhs = apply_cube_function(f, conj)
        rhs = HermitianMatrix(q.conj().T @ apply_cube_function(f, t).entries @ q)
        assert (lhs - rhs).norm() <= 1e-8 * (1 + rhs.norm())

    def test_arity_is_read_from_the_domain(self):
        f = CubeFunction("sum", uniform_cube(3, 0, 1), sum)
        assert f.arity == 3
        with pytest.raises(ValueError, match="cube arity 3 does not match tuple arity 2"):
            apply_cube_function(f, AbelianTuple((diagonal([0.5]), diagonal([0.5]))))

    def test_domain_violation_raises(self):
        from opineq.linalg import SpectrumDomainError

        f = CubeFunction("id", uniform_cube(1, 0, 1), lambda s: s[0])
        with pytest.raises(SpectrumDomainError, match="escapes the domain of 'id'"):
            apply_cube_function(f, AbelianTuple((diagonal([2.0, 0.0]),)))


class TestSpectrumInCube:
    def test_scalar_inside(self):
        assert spectrum_in_cube(AbelianTuple((diagonal([0.5]),)), uniform_cube(1, 0, 1))

    def test_outside(self):
        assert not spectrum_in_cube(AbelianTuple((diagonal([2.0, 0.0]),)), uniform_cube(1, 0, 1))

    def test_example_matrix_in_zero_two(self):
        # eigenvalues {0, 2} of the all-ones 2x2 matrix
        x = HermitianMatrix(np.ones((2, 2), dtype=complex))
        assert spectrum_in_cube(AbelianTuple((x,)), uniform_cube(1, 0, 2))

    def test_points_inside_but_residual_widened_bounds_outside(self):
        # member 0 fixes the basis; member 1 keeps an off-diagonal residual
        # r = 0.01 there, within 1e-3 (1 + ||x_1||_F) = 0.0127 but above the
        # cube slack 1e-3 (1 + 3 + 4) = 0.008, so its Weyl bounds leave [3, 4]
        loose = Tolerance(1e-3)
        x1 = HermitianMatrix(np.diag([3.0] + [4.0] * 8) + _off_diagonal(9, 0.01 / np.sqrt(2)))
        t = AbelianTuple((diagonal(np.arange(1.0, 10.0)), x1), tol=loose)
        js = joint_diagonalize(t, loose)
        assert js.points[:, 1].min() == 3.0 and js.points[:, 1].max() == 4.0
        assert js.residuals[1] == pytest.approx(0.01)
        assert not spectrum_in_cube(t, Cube(((1.0, 9.0), (3.0, 4.0))), loose)
        assert spectrum_in_cube(t, Cube(((1.0, 9.0), (2.98, 4.02))), loose)

    @pytest.mark.parametrize("interval", [(np.nan, 1.0), (-10.0, np.nan)])
    def test_nan_endpoint_admits_no_spectrum(self, interval):
        # a cube that got a NaN endpoint past its constructor still admits nothing
        cube = uniform_cube(1, -10.0, 10.0)
        object.__setattr__(cube, "intervals", (interval,))
        assert not spectrum_in_cube(AbelianTuple((diagonal([5.0, -7.0]),)), cube)

    @pytest.mark.parametrize("arity", [1, 3])
    def test_cube_of_another_arity_holds_no_spectrum(self, arity):
        # so a check's domain guard gives an invalid verdict instead of raising
        t = AbelianTuple((diagonal([0.5]), diagonal([0.5])))
        assert not spectrum_in_cube(t, uniform_cube(arity, 0, 1))


class TestCompatibility:
    def test_diagonal_tuples_compatible(self):
        x = AbelianTuple((diagonal([1, 2]), diagonal([3, 4])))
        y = AbelianTuple((diagonal([5, 0]), diagonal([1, 1])))
        assert check_compatible(x, y)

    def test_single_variable_always_compatible(self):
        rng = np.random.default_rng(12)
        a = HermitianMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        b = HermitianMatrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert check_compatible(AbelianTuple((a,)), AbelianTuple((b,)))

    def test_noncommuting_members_rejected(self):
        # the cross-commutator table for x=(diag(1,0), X), y=(X, diag(1,0))
        # is symmetric ([x1,y2] = [x2,y1] = 0), but x itself is not an
        # abelian tuple, so it never reaches the compatibility check
        x = (diagonal([1, 0]), X_FLIP)
        with pytest.raises(ValueError):
            AbelianTuple(x)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            check_compatible(AbelianTuple((identity(2),)), AbelianTuple((identity(2),) * 2))

    def test_compatible_implies_midpoint_commutes(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        mk = lambda lam: HermitianMatrix((q * lam) @ q.conj().T)
        x = AbelianTuple((mk(rng.uniform(0, 1, 4)), mk(rng.uniform(0, 1, 4))))
        y = AbelianTuple((mk(rng.uniform(1, 2, 4)), mk(rng.uniform(1, 2, 4))))
        assert check_compatible(x, y)
        mid = [0.5 * (a + b) for a, b in zip(x.members, y.members)]
        assert check_commuting(mid)


class TestMemberwiseLeq:
    @pytest.mark.parametrize(
        "y",
        [(diagonal([2, 2]), diagonal([2, 2])), (diagonal([2, 2, 2]),)],
        ids=["arity", "dim"],
    )
    def test_shape_mismatch_raises(self, y):
        # a common prefix that is in order must not pass for the whole tuples
        with pytest.raises(ValueError, match="shape mismatch"):
            memberwise_leq(AbelianTuple((diagonal([1, 1]),)), AbelianTuple(y))


class TestCube:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Cube(((1.0, 0.0),))

    @pytest.mark.parametrize("interval", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_rejects_nan_endpoint(self, interval):
        with pytest.raises(ValueError, match="empty interval"):
            Cube((interval,))

    def test_clip(self):
        c = uniform_cube(2, 0, 1)
        assert c.clip((-0.5, 2.0)) == (0.0, 1.0)

    @pytest.mark.parametrize("point", [[1.0], [1.0, 1.0, 5.0]], ids=["short", "long"])
    def test_point_of_another_arity_raises(self, point):
        # zipping would drop or ignore coordinates: [1.0, 1.0, 5.0] read as (1.0, 1.0)
        f = CubeFunction("sum", uniform_cube(2, 0.0, 2.0), sum)
        with pytest.raises(ValueError, match=f"a point of {len(point)} coordinates"):
            f.domain.clip(point)
        with pytest.raises(ValueError, match="on a cube of arity 2"):
            f(point)
