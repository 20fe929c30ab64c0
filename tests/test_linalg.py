"""Unit and property tests for the Hermitian core: eigensolver, order, calculus."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import linalg
from opineq.linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    JacobiConvergenceError,
    SpectrumDomainError,
    Tolerance,
    decompose,
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


def random_hermitian(rng, dim, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(scale * z)


def random_psd(rng, dim, scale=1.0):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(scale * z @ z.conj().T)


class TestConstruction:
    def test_symmetrization_is_exact(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = HermitianMatrix(z)
        assert np.array_equal(h.entries, h.entries.conj().T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

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

    def test_sweep_cap_raises(self, monkeypatch):
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
        with np.errstate(invalid="ignore"):  # symmetrizing inf + 0j divides by (2 + 0j)
            h = HermitianMatrix(z)
        with pytest.raises(JacobiConvergenceError, match="position 1 of a batch of 2"):
            decompose([identity(3), h])

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
            mine = eig_hermitian(h).eigenvalues
            ref = np.linalg.eigvalsh(h.entries)[::-1]
            assert np.allclose(mine, ref, atol=1e-11 * (1 + np.max(np.abs(ref))))


def unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(rng, values):
    q = unitary(rng, len(values))
    return HermitianMatrix((q * np.asarray(values, dtype=float)) @ q.conj().T)


def assert_matches_eigvalsh(h):
    """Eigenvalues against LAPACK, reconstruction and orthogonality, all to 1e-12 relative."""
    es = eig_hermitian(h)
    scale = h.norm()
    ref = np.linalg.eigvalsh(h.entries)[::-1]
    assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-12 * scale
    assert (es.reconstruct() - h).norm() <= 1e-12 * scale
    gram = es.basis.conj().T @ es.basis
    assert np.linalg.norm(gram - np.eye(h.dim)) <= 1e-12 * h.dim


DIMS = range(1, 17)


class TestRoundRobin:
    @pytest.mark.parametrize("m", DIMS)
    def test_rounds_are_disjoint_and_cover_every_pair_once(self, m):
        rounds, _, _ = linalg._rounds(m)
        seen = []
        for _, _, zeros in rounds:
            pairs = [divmod(pq, m) for pq, _ in zeros]
            touched = [i for pair in pairs for i in pair]
            assert len(set(touched)) == len(touched)
            assert all(p < q for p, q in pairs)
            seen += pairs
        assert sorted(seen) == list(itertools.combinations(range(m), 2))
        assert len(rounds) == (m - 1 if m % 2 == 0 else m)

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


def reference_jacobi(a):
    """The round-robin loop on one 2-D matrix: the bit-level reference for the stacked kernel."""
    m = a.dim
    w = np.array(a.entries, dtype=complex)
    rounds, off, eye = linalg._rounds(m)
    u = eye.copy()
    if m > 1:
        threshold = linalg._OFFDIAG_FACTOR * float(np.linalg.norm(w))
        skip_level = threshold / m
        for _ in range(linalg._SWEEP_CAP):
            v = w.take(off)
            if math.sqrt(np.vdot(v, v).real) <= threshold:
                break
            for gather, scatter, zeros in rounds:
                g = w.take(gather).tolist()
                blocks, hit = [], []
                for i, pair in enumerate(zeros):
                    apq = g[3 * i]
                    r = abs(apq)
                    if r <= skip_level:
                        blocks += (1.0, 0.0, 0.0, 1.0)
                        continue
                    hit += pair
                    phase = apq / r
                    tau = (g[3 * i + 2].real - g[3 * i + 1].real) / (2.0 * r)
                    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    cph = phase.conjugate()
                    blocks += (c, s, -s * cph, c * cph)
                if not hit:
                    continue
                j = eye.copy()
                j.put(scatter, blocks)
                w = j.conj().T @ w @ j
                w.put(hit, 0.0)
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


batches = st.integers(1, 9).flatmap(
    lambda dim: st.tuples(
        st.just(dim),
        st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 2**32 - 1)), min_size=2, max_size=6
        ),
    )
)


def same_bits(es, lam, basis):
    return es.eigenvalues.tobytes() == lam.tobytes() and es.basis.tobytes() == basis.tobytes()


class TestStackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(batches)
    def test_batch_of_n_matches_batch_of_one_bit_for_bit(self, spec):
        dim, items = spec
        together = linalg._jacobi([kind_matrix(k, dim, seed) for k, seed in items])
        for (k, seed), es in zip(items, together):
            (alone,) = linalg._jacobi([kind_matrix(k, dim, seed)])
            assert same_bits(es, alone.eigenvalues, alone.basis), (k, seed)
            assert same_bits(es, *reference_jacobi(kind_matrix(k, dim, seed))), (k, seed)

    @pytest.mark.parametrize("m", DIMS)
    def test_mixed_batch_matches_reference(self, m):
        # items leave the stack after different sweep counts, and some sit out rounds
        batch = [kind_matrix(k, m, 700 + m) for k in KINDS]
        for a, es in zip(batch, linalg._jacobi(batch)):
            assert same_bits(es, *reference_jacobi(a))

    def test_decompose_groups_by_dimension_and_skips_known_matrices(self, jacobi_runs):
        rng = np.random.default_rng(31)
        a3, b3, c3, a5 = (random_hermitian(rng, d) for d in (3, 3, 3, 5))
        known = eig_hermitian(b3)
        out = decompose([a3, a5, a3, b3, c3, a5])
        # b3 was decomposed alone; then one run per dimension, duplicates dropped
        assert jacobi_runs.batches == [1, 2, 1]
        assert [id(a) for a in jacobi_runs] == [id(b3), id(a3), id(c3), id(a5)]
        assert out[0] is out[2] is eig_hermitian(a3)
        assert out[1] is out[5] is eig_hermitian(a5)
        assert out[3] is known
        for a, es in zip([a3, a5, a3, b3, c3, a5], out):
            assert same_bits(es, *reference_jacobi(a))
        again = decompose([a5, c3])
        assert again[0] is out[1] and again[1] is out[4]
        assert jacobi_runs.batches == [1, 2, 1]

    def test_sweep_cap_names_the_matrix(self, monkeypatch):
        monkeypatch.setattr(linalg, "_SWEEP_CAP", 1)
        rng = np.random.default_rng(32)
        # the diagonal matrix converges before any sweep, the random one does not
        batch = [diagonal([1.0, 2.0, 3.0]), random_hermitian(rng, 3), diagonal([4.0, 5.0, 6.0])]
        message = r"no convergence after 1 sweeps on a 3x3 matrix \(position 1 of a batch of 3\)"
        with pytest.raises(JacobiConvergenceError, match=message):
            decompose(batch)


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
