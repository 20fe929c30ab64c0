"""Unit and property tests for the Hermitian core: eigensolver, order, calculus."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import linalg
from opineq.harness import random_unitary
from opineq.linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    JacobiConvergenceError,
    SpectrumDomainError,
    Tolerance,
    diagonal,
    eig_hermitian,
    hermitian_function,
    identity,
    is_psd,
    loewner_leq,
    matrix_power,
    worst_gap,
    zero,
)

from random_matrices import random_hermitian, random_psd, with_spectrum


class TestConstruction:
    def test_symmetrization_is_exact(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = HermitianMatrix(z)
        assert np.array_equal(h.entries, h.entries.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("small, big", [([[0.5]], np.eye(3)), (np.eye(2), np.eye(3))])
    def test_sum_and_difference_refuse_a_dimension_mismatch(self, small, big):
        # numpy would broadcast a 1x1 operand over the other
        a, b = HermitianMatrix(small), HermitianMatrix(big)
        for op in (lambda u, v: u + v, lambda u, v: u - v):
            for left, right in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    op(left, right)

    def test_entries_immutable(self):
        h = identity(3)
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_tolerance_bounds(self):
        with pytest.raises(ValueError):
            Tolerance(rtol=0.5)


class TestEig:
    def test_identity(self):
        es = eig_hermitian(identity(2))
        assert np.allclose(es.eigenvalues, [1.0, 1.0])
        assert np.allclose(es.basis.conj().T @ es.basis, np.eye(2))

    def test_pauli_x(self):
        # characteristic polynomial lambda^2 - 1 by hand
        es = eig_hermitian(HermitianMatrix(np.array([[0, 1], [1, 0]], dtype=complex)))
        assert np.allclose(es.eigenvalues, [1.0, -1.0], atol=1e-14)

    def test_rank_one_all_ones(self):
        # [[c, c], [c, c]] with c=1: eigenvalues 2 and 0 by the 2x2 oracle
        es = eig_hermitian(HermitianMatrix(np.ones((2, 2), dtype=complex)))
        assert np.allclose(es.eigenvalues, [2.0, 0.0], atol=1e-14)

    def test_descending_order(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            es = eig_hermitian(random_hermitian(rng, 6))
            assert np.all(np.diff(es.eigenvalues) <= 0)

    def test_deterministic(self):
        # two objects with equal entries, so the second decomposition is not the memo
        z = random_hermitian(np.random.default_rng(11), 5).entries
        a = eig_hermitian(HermitianMatrix(z))
        b = eig_hermitian(HermitianMatrix(z))
        assert a is not b
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.basis, b.basis)

    def test_memoized_per_matrix_and_read_only(self):
        h = random_hermitian(np.random.default_rng(12), 4)
        es = eig_hermitian(h)
        assert eig_hermitian(h) is es
        with pytest.raises(ValueError):
            es.eigenvalues[0] = 0.0
        with pytest.raises(ValueError):
            es.basis[0, 0] = 0.0

    def test_sweep_cap_raises(self, monkeypatch, cold_kernel):
        monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
        h = random_hermitian(np.random.default_rng(13), 6)
        message = "no convergence after 1 sweeps on a 6x6 matrix"
        with pytest.raises(JacobiConvergenceError, match=message):
            eig_hermitian(h)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_non_finite_entry_raises(self, value, at):
        z = np.eye(3, dtype=complex)
        z[at] = value
        h = HermitianMatrix(z)
        with pytest.raises(JacobiConvergenceError, match="norm not finite"):
            eig_hermitian(h)

    def test_infinite_entry_stays_real(self):
        # complex halving by 2 + 0j would give inf+nanj (and warn)
        h = HermitianMatrix([[math.inf, 1.0], [0.0, -math.inf]])
        assert h.entries.tolist() == [[math.inf, 0.5], [0.5, -math.inf]]
        assert not np.isnan(h.entries.view(float)).any()

    def test_overflowing_norm_raises(self):
        # every entry is finite, but ||a||_F overflows, so no stop threshold exists
        h = HermitianMatrix([[0.0, 1e160], [1e160, 0.0]])
        with np.errstate(over="ignore"):  # numpy 2 reports the overflow in the norm's dot
            with pytest.raises(JacobiConvergenceError, match="norm not finite"):
                eig_hermitian(h)

    def test_reconstruction_thousand_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            h = random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10)))
            es = eig_hermitian(h)
            rec = es.reconstruct()
            err = (rec - h).norm()
            assert err <= 1e-10 * (1.0 + h.norm())
            gram = es.basis.conj().T @ es.basis
            assert np.linalg.norm(gram - np.eye(dim)) <= 1e-12 * dim

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            h = random_hermitian(rng, int(rng.integers(2, 8)))
            ref = np.linalg.eigvalsh(h.entries)[::-1]
            for es in both_starts(h):
                assert np.allclose(es.eigenvalues, ref, atol=1e-11 * (1 + np.max(np.abs(ref))))


def refuse_proposal(a):
    raise np.linalg.LinAlgError("no proposal")


@pytest.fixture
def cold_kernel(monkeypatch):
    """The kernel with every LAPACK start refused: each run starts from ``a`` and ``I``."""
    monkeypatch.setattr(linalg, "_lapack_basis", refuse_proposal)


def both_starts(h):
    """The kernel's decompositions of ``h`` from a LAPACK start and from a cold one.

    On the first alone, a comparison with LAPACK would compare LAPACK with itself.
    """
    warm = eig_hermitian(HermitianMatrix(h.entries))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_lapack_basis", refuse_proposal)
        cold = eig_hermitian(HermitianMatrix(h.entries))
    return warm, cold


def assert_matches_eigvalsh(h, starts=both_starts):
    """Eigenvalues against LAPACK, reconstruction and orthogonality, all to 1e-12 relative."""
    scale = h.norm()
    ref = np.linalg.eigvalsh(h.entries)[::-1]
    for es in starts(h):
        assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-12 * scale
        assert (es.reconstruct() - h).norm() <= 1e-12 * scale
        gram = es.basis.conj().T @ es.basis
        assert np.linalg.norm(gram - np.eye(h.dim)) <= 1e-12 * h.dim


DIMS = range(1, 17)


class TestRoundRobin:
    @pytest.mark.parametrize("m", DIMS)
    def test_random_real_and_complex(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(3):
            assert_matches_eigvalsh(HermitianMatrix(rng.standard_normal((m, m))))
            assert_matches_eigvalsh(random_hermitian(rng, m))

    @pytest.mark.parametrize("m", DIMS)
    def test_scales(self, m):
        rng = np.random.default_rng(200 + m)
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            assert_matches_eigvalsh(random_hermitian(rng, m, scale=scale))

    @pytest.mark.parametrize("m", DIMS)
    def test_identity_and_zero(self, m):
        es = eig_hermitian(identity(m))
        assert np.array_equal(es.eigenvalues, np.ones(m))
        assert np.array_equal(es.basis, np.eye(m))
        es = eig_hermitian(zero(m))
        assert np.array_equal(es.eigenvalues, np.zeros(m))

    @pytest.mark.parametrize("m", DIMS)
    def test_already_diagonal_is_a_permutation(self, m):
        values = np.random.default_rng(300 + m).standard_normal(m)
        es = eig_hermitian(diagonal(values))
        assert np.array_equal(es.eigenvalues, np.sort(values)[::-1])
        assert np.array_equal(np.abs(es.basis), np.eye(m)[:, np.argsort(-values, kind="stable")])

    @pytest.mark.parametrize("m", DIMS)
    def test_rank_one(self, m):
        rng = np.random.default_rng(400 + m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        h = HermitianMatrix(np.outer(v, v.conj()))
        assert_matches_eigvalsh(h)
        assert abs(eig_hermitian(h).lambda_max - np.vdot(v, v).real) <= 1e-12 * h.norm()

    @pytest.mark.parametrize("m", DIMS)
    def test_repeated_and_clustered_blocks(self, m):
        rng = np.random.default_rng(500 + m)
        repeated = [2.0] * (m // 2) + [-1.0] * (m - m // 2)
        clustered = [1.0 + 1e-10 * k for k in range(m // 2)]
        clustered += [-3.0 + 1e-12 * k for k in range(m - m // 2)]
        for values in (repeated, clustered):
            assert_matches_eigvalsh(with_spectrum(rng, values))

    def test_complex_phase_entries(self):
        # unit-modulus off-diagonal entries with arbitrary phases, every dim
        rng = np.random.default_rng(600)
        for m in DIMS:
            z = np.exp(2j * np.pi * rng.uniform(size=(m, m)))
            assert_matches_eigvalsh(HermitianMatrix(np.triu(z, 1) + np.triu(z, 1).conj().T))


def reference_jacobi(a, start=None):
    """The cyclic-by-row loop on one 2-D matrix: the bit-level reference for kernel runs.

    It starts cold, from ``a`` and ``I``, or from ``start* a start`` and ``start``.
    """
    m = a.dim
    w = np.array(a.entries, dtype=complex)
    u = np.eye(m, dtype=complex)
    threshold = linalg._OFFDIAG_FACTOR * float(np.linalg.norm(w))
    if start is not None:
        w, u = start.conj().T @ w @ start, start
    for _ in range(linalg._SWEEP_CAP):
        off = w[~np.eye(m, dtype=bool)]
        if math.sqrt(np.vdot(off, off).real) <= threshold:
            break
        for p, q in itertools.combinations(range(m), 2):
            apq = w.item(p, q)
            r = abs(apq)
            if r <= threshold / m:
                continue
            phase = apq / r
            tau = (w.item(q, q).real - w.item(p, p).real) / (2.0 * r)
            t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            j = np.eye(m, dtype=complex)
            j[p, p], j[p, q], j[q, p], j[q, q] = c, s, -s * phase.conjugate(), c * phase.conjugate()
            w = j.conj().T @ w @ j
            w[p, q] = w[q, p] = 0.0
            u = u @ j
    else:
        raise JacobiConvergenceError("sweep cap")
    lam = np.diag(w).real.copy()
    order = np.argsort(-lam, kind="stable")
    return lam[order], u[:, order]


KINDS = ("zero", "diagonal", "rank-one", "clustered", "complex", "block")


def kind_matrix(kind, dim, seed):
    """A matrix of one shape class; the classes converge after different sweep counts."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return zero(dim)
    if kind == "diagonal":
        return diagonal(rng.standard_normal(dim))
    if kind == "rank-one":
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return HermitianMatrix(np.outer(v, v.conj()))
    if kind == "clustered":
        centers = rng.standard_normal(2)
        values = centers[np.arange(dim) % 2] + 1e-9 * rng.standard_normal(dim)
        return with_spectrum(rng, values)
    if kind == "block":
        # a direct sum keeps exact zeros off the blocks through every rotation
        z = np.zeros((dim, dim), dtype=complex)
        k = dim // 2
        if k:
            z[:k, :k] = random_hermitian(rng, k).entries
        z[k:, k:] = random_hermitian(rng, dim - k).entries
        return HermitianMatrix(z)
    return random_hermitian(rng, dim, scale=float(rng.uniform(0.1, 10.0)))


def same_bits(es, lam, basis):
    return es.eigenvalues.tobytes() == lam.tobytes() and es.basis.tobytes() == basis.tobytes()


class TestStackedKernel:
    """One kernel run against :func:`reference_jacobi`, bit for bit."""

    @pytest.mark.parametrize("m", DIMS)
    def test_mixed_batch_matches_reference(self, monkeypatch, m):
        # the kinds need different sweep counts, and some skip every pair of a
        # row; each runs from its kept LAPACK start, then from a cold one
        proposals = []

        def recorded(a):
            proposals.append(np.linalg.eigh(a)[1])
            return proposals[-1]

        monkeypatch.setattr(linalg, "_lapack_basis", recorded)
        for k in KINDS:
            a = kind_matrix(k, m, 700 + m)
            proposals.clear()
            es = linalg._jacobi(a)
            kept = [q for q in proposals if linalg._unitary_defect(q) <= linalg._OFFDIAG_FACTOR]
            if m > 2 and k in ("rank-one", "complex"):
                assert kept, k  # the warm start is exercised
            assert same_bits(es, *reference_jacobi(a, *kept)), k
        monkeypatch.setattr(linalg, "_lapack_basis", refuse_proposal)
        for k in KINDS:
            a = kind_matrix(k, m, 700 + m)
            assert same_bits(linalg._jacobi(a), *reference_jacobi(a)), k


def proposing(fn):
    """A ``_lapack_basis`` stand-in that proposes ``fn(q)`` for LAPACK's basis ``q``."""

    def propose(a):
        return fn(np.linalg.eigh(a)[1])

    return propose


def rotated(q, angle):
    """``q`` with its first two columns turned by ``angle`` radians."""
    q = q.copy()
    c, s = math.cos(angle), math.sin(angle)
    q[:, :2] = q[:, :2] @ np.array([[c, -s], [s, c]])
    return q


class TestLapackStart:
    """A LAPACK basis only proposes a start: the kernel's own stop test decides."""

    @pytest.mark.parametrize("m", range(3, 17))
    @pytest.mark.parametrize(
        "propose",
        [
            refuse_proposal,
            proposing(lambda q: np.full_like(q, math.nan)),
            proposing(lambda q: (1 + 1e-10) * q),
        ],
        ids=["linalg-error", "nan", "scaled"],
    )
    def test_refused_or_rejected_proposal_gives_the_cold_bits(self, monkeypatch, propose, m):
        monkeypatch.setattr(linalg, "_lapack_basis", propose)
        for k in KINDS:
            a = kind_matrix(k, m, 800 + m)
            assert same_bits(linalg._jacobi(a), *reference_jacobi(a)), k

    @pytest.mark.parametrize("m", range(3, 17))
    @pytest.mark.parametrize("poor", ["random-unitary", "rotated"])
    def test_poor_basis_costs_sweeps_not_accuracy(self, monkeypatch, poor, m):
        rng = np.random.default_rng(900 + m)
        fn = (lambda q: random_unitary(m, rng)) if poor == "random-unitary" else lambda q: rotated(q, 1e-4)
        monkeypatch.setattr(linalg, "_lapack_basis", proposing(fn))
        for k in ("rank-one", "clustered", "complex"):
            h = kind_matrix(k, m, 900 + m)
            es = linalg._jacobi(h)
            assert_matches_eigvalsh(h, starts=lambda h: [es])
            assert not same_bits(es, *reference_jacobi(h)), k  # the start was kept

    def test_no_proposal_where_the_cold_run_is_exact(self, monkeypatch):
        asked = []

        def propose(a):
            asked.append(len(a))
            return np.linalg.eigh(a)[1]

        monkeypatch.setattr(linalg, "_lapack_basis", propose)
        rng = np.random.default_rng(34)
        for _ in range(3):
            linalg._jacobi(random_hermitian(rng, 2))  # one exact rotation each
        for m in DIMS:  # these pass the first stop test
            for a in (zero(m), identity(m), diagonal(rng.standard_normal(m))):
                linalg._jacobi(a)
        assert asked == []
        for a in (diagonal([1.0, 2.0, 3.0]), random_hermitian(rng, 3), random_hermitian(rng, 4)):
            linalg._jacobi(a)
        assert asked == [3, 4]  # one proposal for each matrix that fails it

    def test_generic_matrices_need_no_sweep(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
        rng = np.random.default_rng(35)
        for m in range(3, 17):
            for _ in range(10):
                eig_hermitian(random_hermitian(rng, m, scale=float(rng.uniform(0.1, 10.0))))
                eig_hermitian(HermitianMatrix(rng.standard_normal((m, m))))


class TestPsdAndOrder:
    def test_identity_is_psd(self):
        assert is_psd(identity(3))

    def test_indefinite_by_hand(self):
        # eigenvalues 3 and -1
        assert not is_psd(HermitianMatrix(np.array([[1, 2], [2, 1]], dtype=complex)))

    def test_zero_boundary(self):
        assert is_psd(zero(2))

    def test_loewner_zero_identity(self):
        assert loewner_leq(zero(2), identity(2))

    def test_loewner_example_instance(self):
        # det(y - x) = 0.026 > 0, trace > 0 by hand
        x = HermitianMatrix(np.ones((2, 2), dtype=complex))
        y = diagonal([1.3, 4.42])
        assert loewner_leq(x, y)

    def test_loewner_rejected(self):
        assert not loewner_leq(diagonal([2, 0]), diagonal([1, 1]))

    def test_loewner_dim_mismatch(self):
        with pytest.raises(ValueError):
            loewner_leq(identity(2), identity(3))

    def test_reflexive_and_antisymmetric(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            assert loewner_leq(a, a)
            if loewner_leq(a, b) and loewner_leq(b, a):
                gap = eig_hermitian(a - b).op_norm
                assert gap <= 2 * DEFAULT_TOL.rtol * (1 + a.norm() + b.norm())


class TestWorstGap:
    @staticmethod
    def loop_reference(lo, hi, tol):
        gap, worst_slack = math.inf, 0.0
        for a, b in zip(lo, hi):
            slack = tol.rtol * (1.0 + abs(a) + abs(b))
            if b - a + slack < gap + worst_slack:
                gap, worst_slack = b - a, slack
        return gap, worst_slack

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(6)
        for size in range(8):
            lo, hi = rng.standard_normal(size), rng.standard_normal(size)
            assert worst_gap(lo, hi, DEFAULT_TOL) == self.loop_reference(lo, hi, DEFAULT_TOL)

    def test_first_minimum_wins(self):
        tol = Tolerance(rtol=2.0 ** -7)
        # both links have gap + slack = 1 + 2/128 exactly
        assert worst_gap([0.0, 64.5], [1.0, 64.5], tol) == (1.0, 2.0 / 128)
        assert worst_gap([64.5, 0.0], [64.5, 1.0], tol) == (0.0, 130.0 / 128)

    def test_no_links(self):
        assert worst_gap([], [], DEFAULT_TOL) == (math.inf, 0.0)


class TestFunctionalCalculus:
    def test_sqrt_on_diagonal(self):
        out = hermitian_function(diagonal([4, 9]), math.sqrt)
        assert np.allclose(out.entries, np.diag([2.0, 3.0]))

    def test_identity_fixed_by_powers(self):
        for p in (0.0, 0.5, 2.0, 7.3):
            out = hermitian_function(identity(2), lambda t: t**p)
            assert np.allclose(out.entries, np.eye(2))

    def test_sqrt_two_by_two_oracle(self):
        # [[2,1],[1,2]]: eigenvalues 3, 1 with basis (1,1)/sqrt2, (1,-1)/sqrt2
        a = HermitianMatrix(np.array([[2, 1], [1, 2]], dtype=complex))
        out = hermitian_function(a, math.sqrt)
        r3 = math.sqrt(3)
        expected = np.array([[(r3 + 1) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (r3 + 1) / 2]])
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_domain_violation(self):
        with pytest.raises(SpectrumDomainError):
            hermitian_function(diagonal([1.0, -4.0]), math.sqrt)

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            a = random_psd(rng, int(rng.integers(2, 6)))
            inner = hermitian_function(a, lambda t: t + 1.0)
            composed = hermitian_function(a, lambda t: math.sqrt(t + 1.0))
            staged = hermitian_function(inner, math.sqrt)
            assert (composed - staged).norm() <= 1e-8 * (1 + composed.norm())


class TestMatrixPower:
    def test_half_power(self):
        assert np.allclose(matrix_power(diagonal([4, 1]), 0.5).entries, np.diag([2.0, 1.0]))

    def test_power_one_is_identity_map(self):
        rng = np.random.default_rng(29)
        a = random_psd(rng, 4)
        assert (matrix_power(a, 1.0) - a).norm() <= 1e-10 * (1 + a.norm())

    def test_cube(self):
        assert np.allclose(matrix_power(diagonal([2, 3]), 3).entries, np.diag([8.0, 27.0]))

    def test_zeroth_power_of_singular(self):
        out = matrix_power(diagonal([1.0, 0.0]), 0.0)
        assert np.allclose(out.entries, np.eye(2))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            matrix_power(identity(2), -1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(SpectrumDomainError):
            matrix_power(diagonal([1.0, -1.0]), 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.0, 3.0),
        q=st.floats(0.0, 3.0),
    )
    def test_power_addition(self, seed, p, q):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, int(rng.integers(2, 6)))
        lhs = HermitianMatrix(matrix_power(a, p).entries @ matrix_power(a, q).entries)
        rhs = matrix_power(a, p + q)
        assert (lhs - rhs).norm() <= 1e-8 * (1 + rhs.norm())
