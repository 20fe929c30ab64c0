"""Tests for partial sums, weak majorization, the frame bound, and the convexity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import abelian
from opineq.abelian import AbelianTuple, CubeFunction, uniform_cube
from opineq.harness import gen_abelian_tuple, gen_tuple_field, random_frame, random_unitary
from opineq.linalg import HermitianMatrix, diagonal, eig_hermitian, identity
from opineq.majorization import (
    check_corollary,
    check_thm5,
    check_thm6,
    kyfan_check,
    partial_sums,
    weak_majorize,
    wmaj_verdict,
)
from opineq.pinching import ColumnField, TupleField, compress

from random_matrices import random_hermitian

MAX2 = CubeFunction("max", uniform_cube(2, 0, 2), max, convex=True, separately_increasing=True)
SQ1 = CubeFunction("sq", uniform_cube(1, -3, 3), lambda s: s[0] ** 2, convex=True)
SUMEXP2 = CubeFunction(
    "sumexp", uniform_cube(2, 0, 2), lambda s: math.exp(s[0]) + math.exp(s[1]),
    convex=True, separately_increasing=True,
)


class TestPartialSums:
    def test_full_sum_is_trace(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_hermitian(rng, int(rng.integers(1, 8)))
            assert abs(partial_sums(a)[-1] - a.trace()) <= 1e-10 * (1 + abs(a.trace()))

    def test_increments_non_increasing(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 6)
        s = partial_sums(a)
        inc = np.diff(np.concatenate([[0.0], s]))
        assert np.all(np.diff(inc) <= 1e-12)


class TestWeakMajorize:
    def test_hand_instance(self):
        assert weak_majorize(diagonal([2, 2]), diagonal([3, 1]))

    def test_reflexive(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 5)
        assert weak_majorize(a, a)

    def test_top_sum_violation(self):
        assert not weak_majorize(diagonal([3, 1]), diagonal([2, 2]))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            weak_majorize(identity(2), identity(3))

    def test_verdict_gap_is_tightest_partial_sum(self):
        # partial sums (3, 4) against (2, 4): the top-1 link fails by 1
        v = wmaj_verdict(diagonal([3, 1]), diagonal([2, 2]), lam=0.5)
        assert not v.passed and v.gap == -1.0
        assert v.detail["lam"] == 0.5 and "slack" in v.detail

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_transitive(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        a, b, c = (random_hermitian(rng, dim) for _ in range(3))
        if weak_majorize(a, b) and weak_majorize(b, c):
            assert weak_majorize(a, c, tol=__import__("opineq").Tolerance(rtol=5e-9))


class TestKyFan:
    def test_top_frame_equality(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 6)
        es = eig_hermitian(a)
        for k in (1, 3, 6):
            v = kyfan_check(a, es.basis[:, :k])
            assert v.passed and abs(v.gap) <= 1e-9 * (1 + abs(v.detail["rhs"]))

    def test_hand_instance(self):
        a = diagonal([3, 2, 1])
        u = np.eye(3, dtype=complex)[:, 1:]
        v = kyfan_check(a, u)
        assert v.passed
        assert v.detail["lhs"] == pytest.approx(3.0)
        assert v.detail["rhs"] == pytest.approx(5.0)

    def test_random_campaign(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            a = random_hermitian(rng, dim, scale=float(rng.uniform(0.2, 4)))
            k = int(rng.integers(1, dim + 1))
            v = kyfan_check(a, random_frame(dim, k, rng))
            assert v.passed, v

    def test_non_orthonormal_invalid(self):
        a = diagonal([1, 2])
        u = np.array([[1.0], [1.0]], dtype=complex)
        assert kyfan_check(a, u).invalid

    def test_nan_frame_invalid(self):
        assert kyfan_check(diagonal([2, 1]), [[1], [math.nan]]).invalid

    def test_maximization_approached_near_top_frames(self):
        rng = np.random.default_rng(6)
        a = random_hermitian(rng, 5)
        es = eig_hermitian(a)
        k = 2
        best = -np.inf
        for _ in range(200):
            u = random_frame(5, k, rng)
            v = kyfan_check(a, u)
            assert v.passed
            best = max(best, v.detail["lhs"])
        assert best <= v.detail["rhs"] + 1e-9
        # frames seeded near the top eigenspace approach equality
        perturbed, _ = np.linalg.qr(es.basis[:, :k] + 1e-4 * random_frame(5, k, rng))
        near = kyfan_check(a, perturbed[:, :k])
        assert near.detail["rhs"] - near.detail["lhs"] <= 1e-5 * (1 + abs(near.detail["rhs"]))


class TestThm5:
    def test_one_variable_any_field(self):
        rng = np.random.default_rng(7)
        from tests.test_pinching import random_field

        for _ in range(100):
            dim, count = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            field = random_field(rng, dim, count)
            tf = gen_tuple_field(dim, count, uniform_cube(1, -2.0, 2.0), rng)
            v = check_thm5(SQ1, field, tf)
            assert v.passed, v

    def test_single_unitary_atom_equality(self):
        rng = np.random.default_rng(8)
        u = random_unitary(4, rng)
        field = ColumnField((1.0,), (u,))
        tf = gen_tuple_field(4, 1, uniform_cube(2, 0.0, 2.0), rng)
        v = check_thm5(MAX2, field, tf)
        assert v.passed and abs(v.gap) <= 1e-8

    def test_probability_mixture_of_commuting_atoms(self):
        # all atoms diagonal in one basis: the averaged-tuple inequality
        rng = np.random.default_rng(9)
        q = random_unitary(3, rng)
        atoms = tuple(
            AbelianTuple(
                tuple(HermitianMatrix((q * rng.uniform(0, 2, 3)) @ q.conj().T) for _ in range(2))
            )
            for _ in range(3)
        )
        p = rng.uniform(0.2, 1.0, 3)
        p /= p.sum()
        field = ColumnField(tuple(p), (np.eye(3, dtype=complex),) * 3)
        v = check_thm5(MAX2, field, TupleField(atoms))
        assert v.passed, v

    def test_nonabelian_compression_invalid(self):
        rng = np.random.default_rng(10)
        # two generic atoms with independent bases: compression almost surely
        # fails to commute for n = 2
        field_mats = []
        from tests.test_pinching import random_field

        field = random_field(rng, 3, 2)
        tf = gen_tuple_field(3, 2, uniform_cube(2, 0.0, 2.0), rng)
        v = check_thm5(MAX2, field, tf)
        assert v.invalid
        assert v.detail["reason"] == "compression is not abelian"

    def test_commutation_tested_once(self, monkeypatch):
        rng = np.random.default_rng(9)
        q = random_unitary(3, rng)
        atoms = tuple(
            AbelianTuple(
                tuple(HermitianMatrix((q * rng.uniform(0, 2, 3)) @ q.conj().T) for _ in range(2))
            )
            for _ in range(3)
        )
        field = ColumnField((0.5, 0.3, 0.2), (np.eye(3, dtype=complex),) * 3)
        admitted = []
        original = AbelianTuple.__post_init__

        def counted(self):
            original(self)
            admitted.append(self)

        monkeypatch.setattr(AbelianTuple, "__post_init__", counted)
        tf = TupleField(atoms)
        assert check_thm5(MAX2, field, tf).passed
        # the compressed tuple is admitted once; the atoms were admitted when built
        assert len(admitted) == 1 and all(admitted[0] is not t for t in tf.atoms)
        expected = compress(field, tf)
        assert [m.entries.tobytes() for m in admitted[0].members] == [
            m.entries.tobytes() for m in expected
        ]


class TestCorollary:
    @pytest.mark.parametrize(
        "y",
        [(diagonal([1.0, 1.5]),), (diagonal([1.0, 1.5, 1.0]), diagonal([1.0, 1.5, 1.0]))],
        ids=["arity", "dim"],
    )
    def test_shape_mismatch_is_invalid(self, y):
        # the compatibility test would raise on it; the check says invalid first
        x = AbelianTuple((diagonal([0.5, 1.0]), diagonal([1.0, 0.5])))
        v = check_corollary(MAX2, x, AbelianTuple(y), 0.5)
        assert v.invalid and v.detail["reason"] == "shape mismatch"

    def test_endpoints_trivial(self):
        rng = np.random.default_rng(11)
        q = random_unitary(3, rng)
        mk = lambda: AbelianTuple(
            tuple(HermitianMatrix((q * rng.uniform(0, 2, 3)) @ q.conj().T) for _ in range(2))
        )
        x, y = mk(), mk()
        for lam in (0.0, 1.0):
            v = check_corollary(MAX2, x, y, lam)
            assert v.passed and v.gap >= -1e-12

    def test_one_variable_noncommuting(self):
        f = CubeFunction("sq", uniform_cube(1, -10, 10), lambda s: s[0] ** 2, convex=True)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            dim = int(rng.integers(2, 5))
            x = AbelianTuple((random_hermitian(rng, dim),))
            y = AbelianTuple((random_hermitian(rng, dim),))
            v = check_corollary(f, x, y, float(rng.uniform(0, 1)))
            assert v.passed, v

    def test_diagonal_tuples_reduce_to_scalar_convexity(self):
        x = AbelianTuple((diagonal([0.2, 1.8]), diagonal([1.0, 0.4])))
        y = AbelianTuple((diagonal([1.5, 0.1]), diagonal([0.3, 1.9])))
        v = check_corollary(MAX2, x, y, 0.5)
        assert v.passed

    def test_incompatible_pair_invalid(self):
        rng = np.random.default_rng(13)
        x = gen_abelian_tuple(3, uniform_cube(2, 0.0, 2.0), rng)
        y = gen_abelian_tuple(3, uniform_cube(2, 0.0, 2.0), rng)
        v = check_corollary(MAX2, x, y, 0.5)
        assert v.invalid

    def test_near_miss_mix_is_invalid_not_a_dead_end(self):
        # compatible at tolerance, yet the midpoint's members are not jointly
        # diagonalizable at it: its leading member splits its eigenvalues by
        # only 1e-4, so a commutator of 2.1e-10 leaves member 1 a residual of
        # 2.1e-6 in that basis.  The mix is refused as a tuple, so the verdict
        # is invalid, never a numerical dead end
        gamma, eta = 1e-4, 3e-6
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = AbelianTuple((diagonal([1.0, 1.0 + 2 * gamma]), diagonal([0.0, 0.0])))
        y = AbelianTuple((identity(2), HermitianMatrix(eta * flip)))
        assert abelian.check_compatible(x, y)
        f = CubeFunction("sumsq", uniform_cube(2, -10, 10), lambda s: s[0] ** 2 + s[1] ** 2,
                         convex=True)
        v = check_corollary(f, x, y, 0.5)
        assert v.invalid
        assert v.detail["reason"] == "convex combination fails the commutation check"
        # the commutator test alone would have admitted the mix
        mix = [0.5 * (a + b) for a, b in zip(x.members, y.members)]
        assert abelian.check_commuting(mix)

    def test_near_miss_pair_is_refused_at_construction(self):
        # this pair's members commute to 3.9e-8, under the bilinear scale 6.2e-8,
        # but member 1 keeps a residual of 3.9e-8 in member 0's eigenbasis,
        # above rtol (1 + ||y_1||_F) = 8.8e-9
        a, e, g = np.diag([5.0, 6.0]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        eps = 1.18e-4
        members = (HermitianMatrix(-a + eps * e), HermitianMatrix(-a + eps * (e + g)))
        assert abelian.check_commuting(members)
        with pytest.raises(ValueError, match="members do not commute within tolerance"):
            AbelianTuple(members)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_endpoint_decomposes_no_matrix_twice(self, jacobi_runs, lam):
        # at lam = 1 (0) the mix is x (y) itself: no copy of it goes through the kernel
        x, y = gen_tuple_field(4, 2, uniform_cube(2, 0.0, 2.0), 21, "common").atoms
        v = check_corollary(MAX2, x, y, lam)
        assert v.passed and v.gap == 0.0
        keys = [a.entries.tobytes() for a in jacobi_runs]
        assert len(keys) == len(set(keys))

    def test_lambda_out_of_range(self):
        rng = np.random.default_rng(14)
        x = gen_abelian_tuple(2, uniform_cube(1, 0.0, 2.0), rng)
        for lam in (1.5, -0.5, math.nan):
            v = check_corollary(SQ1, x, x, lam)
            assert v.invalid and v.detail["reason"] == "lambda outside [0, 1]"


class TestThm6:
    def test_equal_tuples(self):
        rng = np.random.default_rng(15)
        x = gen_abelian_tuple(4, uniform_cube(2, 0.0, 2.0), rng)
        v = check_thm6(MAX2, x, x)
        assert v.passed and abs(v.gap) <= 1e-10

    def test_one_variable_rotated(self):
        rng = np.random.default_rng(16)
        q = random_unitary(2, rng)
        x = AbelianTuple((HermitianMatrix((q * np.array([1.0, 0.0])) @ q.conj().T),))
        y = AbelianTuple((x.members[0] + identity(2),))
        f = CubeFunction("sq+", uniform_cube(1, 0, 3), lambda s: s[0] ** 2,
                         convex=True, separately_increasing=True)
        assert check_thm6(f, x, y).passed

    def test_random_campaign_independent_bases(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            dim, n = int(rng.integers(2, 7)), int(rng.integers(1, 3))
            x = gen_abelian_tuple(dim, uniform_cube(n, 0.0, 0.6), rng)
            y = gen_abelian_tuple(dim, uniform_cube(n, 0.8, 2.0), rng)
            f = SUMEXP2 if n == 2 else CubeFunction(
                "exp", uniform_cube(1, 0, 2), lambda s: math.exp(s[0]),
                convex=True, separately_increasing=True,
            )
            v = check_thm6(f, x, y)
            assert v.passed, v

    def test_one_variable_agrees_with_scalar_oracle(self):
        # brute-force oracle on diagonal inputs: sort f(eigenvalues), prefix-sum
        rng = np.random.default_rng(18)
        for _ in range(50):
            dx = np.sort(rng.uniform(0.0, 0.6, 4))
            dy = dx + rng.uniform(0.0, 1.0, 4)
            f = CubeFunction("sq+", uniform_cube(1, 0, 3), lambda s: s[0] ** 2,
                             convex=True, separately_increasing=True)
            v = check_thm6(f, AbelianTuple((diagonal(dx),)), AbelianTuple((diagonal(dy),)))
            fx = np.sort(dx**2)[::-1]
            fy = np.sort(dy**2)[::-1]
            scalar_ok = np.all(np.cumsum(fx) <= np.cumsum(fy) + 1e-12)
            assert v.passed == bool(scalar_ok)

    def test_order_violation_invalid(self):
        x = AbelianTuple((diagonal([1.0, 0.0]),))
        y = AbelianTuple((diagonal([0.5, 0.5]),))
        f = CubeFunction("id", uniform_cube(1, 0, 1), lambda s: s[0],
                         convex=True, separately_increasing=True)
        assert check_thm6(f, x, y).invalid
