"""The Cholesky certificate behind ``is_psd``, its kernel fallback, and ``memberwise_leq``.

A difference ``y_i - x_i`` is read only by ``is_psd``, which first asks an
untrusted LAPACK Cholesky factor of a shifted copy for a residual it checks
itself.  These tests run every way out of the certificate (no factor, too
large a residual, a garbage factor, ``rtol = 0``, a norm that is not finite)
and compare its acceptances with the kernel and with LAPACK's eigenvalues.
"""

import math

import numpy as np
import pytest

from opineq import linalg
from opineq.abelian import AbelianTuple, memberwise_leq
from opineq.harness import random_unitary
from opineq.linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    JacobiConvergenceError,
    Tolerance,
    diagonal,
    eig_hermitian,
    identity,
    is_psd,
    matrix_power,
    psd_margin,
    zero,
)

from random_matrices import with_spectrum

RTOL = DEFAULT_TOL.rtol


def certified(a, rtol=RTOL):
    return linalg._cholesky_certifies(a, rtol)


def kernel_is_psd(a, tol=DEFAULT_TOL):
    """The kernel's verdict on a fresh copy of ``a``: no certificate, no memo."""
    lam, slack = psd_margin(eig_hermitian(HermitianMatrix(a.entries)), tol)
    return lam >= -slack


def cert_slack(a, rtol=RTOL):
    """``s = rtol * (1 + ||a||_F / sqrt(m))``; the certificate proves ``lambda_min >= -s/2``."""
    return rtol * (1.0 + a.norm() / math.sqrt(a.dim))


class TestFallback:
    # spectrum 2, 1, 0.5, lambda_min: the kernel's slack is rtol * (1 + 2)
    SLACK = RTOL * 3.0

    def test_just_below_the_slack_is_not_psd(self, jacobi_runs):
        a = with_spectrum(np.random.default_rng(1), [2.0, 1.0, 0.5, -1.01 * self.SLACK])
        assert not is_psd(a)
        assert jacobi_runs == [a]

    def test_inside_the_slack_beyond_half_the_certificate_slack(self, jacobi_runs):
        a = with_spectrum(np.random.default_rng(2), [2.0, 1.0, 0.5, -0.75 * self.SLACK])
        assert -self.SLACK < -0.75 * self.SLACK < -cert_slack(a) / 2
        assert not certified(a)
        assert is_psd(a)
        assert jacobi_runs == [a]

    @pytest.mark.parametrize("factor, expected", [(-1.01, False), (-0.75, True)])
    def test_memberwise_leq_falls_back_to_the_kernel(self, factor, expected, jacobi_runs):
        a = with_spectrum(np.random.default_rng(3), [2.0, 1.0, 0.5, factor * self.SLACK])
        x, y = AbelianTuple((zero(4),)), AbelianTuple((a,))
        # each tuple's admission decomposed its leading member
        assert jacobi_runs == [x.members[0], a]
        del jacobi_runs[:]
        assert memberwise_leq(x, y) is expected
        # then the difference alone, after the certificate declined it
        assert [d.entries.tobytes() for d in jacobi_runs] == [(a - zero(4)).entries.tobytes()]

    def test_memberwise_leq_reads_each_order_through_loewner_leq(self, monkeypatch):
        from opineq import abelian

        calls = []

        def counted(a, b, tol=DEFAULT_TOL):
            calls.append((id(a), id(b)))
            return linalg.loewner_leq(a, b, tol)

        monkeypatch.setattr(abelian, "loewner_leq", counted)
        x = AbelianTuple((diagonal([0.0, 1.0]), diagonal([1.0, 0.0])))
        y = AbelianTuple((diagonal([1.0, 1.0]), diagonal([2.0, 1.0])))
        assert memberwise_leq(x, y)
        assert calls == [(id(a), id(b)) for a, b in zip(x.members, y.members)]

    def test_rtol_zero_never_certifies(self, jacobi_runs):
        rng = np.random.default_rng(4)
        for a in (identity(3), zero(3), with_spectrum(rng, [3.0, 2.0, 1.0])):
            assert not certified(a, 0.0)
            assert is_psd(a, Tolerance(0.0))
        assert len(jacobi_runs) == 3

    def test_held_or_carried_spectrum_is_read(self, monkeypatch, jacobi_runs):
        # the certificate is asked first; once it declines, the spectrum the
        # matrix holds or carries is read, with no kernel run
        asked = []

        def decline(c):
            asked.append(c)
            raise np.linalg.LinAlgError("declined")

        a = with_spectrum(np.random.default_rng(5), [3.0, 2.0, 1.0])
        eig_hermitian(a)
        root = matrix_power(a, 0.5)
        del jacobi_runs[:]
        monkeypatch.setattr(np.linalg, "cholesky", decline)
        assert is_psd(a) and is_psd(root)
        assert len(asked) == 2 and jacobi_runs == []


class TestCertified:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_zero_and_rank_deficient(self, m, jacobi_runs):
        rng = np.random.default_rng(10 + m)
        v = rng.standard_normal((m, 1)) + 1j * rng.standard_normal((m, 1))
        for a in (zero(m), HermitianMatrix(v @ v.conj().T)):
            assert certified(a)
            assert is_psd(a)
        assert jacobi_runs == []

    def test_memberwise_leq_certifies_zero_and_rank_one_differences(self, jacobi_runs):
        rng = np.random.default_rng(20)
        q = random_unitary(5, rng)
        alpha, beta = rng.uniform(0.0, 1.0, 5), rng.uniform(0.0, 1.0, 5)
        bump = alpha + np.eye(5)[0]

        def members(first):
            return tuple(HermitianMatrix((q * lam) @ q.conj().T) for lam in (first, beta))

        x, y, copy = (AbelianTuple(members(first)) for first in (alpha, bump, bump))
        # the leading members only, each at its tuple's admission
        assert jacobi_runs == [t.members[0] for t in (x, y, copy)]
        del jacobi_runs[:]
        assert memberwise_leq(x, y)
        assert memberwise_leq(y, copy)  # every difference is zero
        assert jacobi_runs == []


LAPACK_CHOLESKY = np.linalg.cholesky
LAPACK_INV = np.linalg.inv
GARBAGE = {
    "zeros": lambda c: np.zeros_like(c),
    "identity": lambda c: np.eye(len(c), dtype=complex),
    "nan": lambda c: np.full_like(c, np.nan),
    "scaled": lambda c: LAPACK_CHOLESKY(c) * (1.0 + 1e-6),
    # a lying factor: that of a matrix shifted far enough to be positive definite
    "shifted": lambda c: LAPACK_CHOLESKY(c + 10.0 * np.eye(len(c))),
    "upper": lambda c: LAPACK_CHOLESKY(c).conj().T,
}


@pytest.mark.parametrize("garbage", sorted(GARBAGE))
def test_garbage_factor_cannot_certify(garbage, monkeypatch, jacobi_runs):
    rng = np.random.default_rng(30)
    slack = RTOL * 4.0  # the kernel's slack at spectral radius 3
    cases = [
        with_spectrum(rng, [3.0, 2.0, 1.0, 0.5]),
        with_spectrum(rng, [3.0, 2.0, 1.0, 0.0]),
        with_spectrum(rng, [3.0, 2.0, 1.0, -1.01 * slack]),
        with_spectrum(rng, [3.0, 2.0, 1.0, -0.5]),
    ]
    expected = [kernel_is_psd(a) for a in cases]
    assert expected == [True, True, False, False]
    del jacobi_runs[:]
    monkeypatch.setattr(np.linalg, "cholesky", GARBAGE[garbage])
    assert [is_psd(a) for a in cases] == expected
    assert jacobi_runs == cases  # each verdict came from the kernel


class TestNotFinite:
    def test_certificate_reports_unknown_without_a_factor(self, monkeypatch):
        def refuse(c):
            raise AssertionError("no factor for a matrix whose norm is not finite")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        with np.errstate(over="ignore"):  # numpy 2 reports the overflow in the norm's dot
            big = HermitianMatrix([[0.0, 1e160], [1e160, 0.0]])
            assert not certified(big)
        assert not certified(HermitianMatrix([[math.inf, 0.0], [0.0, 1.0]]))
        assert not certified(HermitianMatrix([[math.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", ["overflow", "infinite"])
    def test_memberwise_leq_raises(self, bad):
        # members of finite norm, so the bad difference is the one that reaches is_psd: its
        # norm overflows.  A difference with an infinite entry needs members whose norm
        # overflows too, and admission refuses those: their residual bound certifies nothing
        lo, hi = {
            "overflow": ([[-1e154, 0.0], [0.0, 0.0]], [[1e154, 0.0], [0.0, 0.0]]),
            "infinite": ([[-8e307, 0.0], [0.0, 0.0]], [[8e307, 0.0], [0.0, 0.0]]),
        }[bad]
        lead = diagonal([1.0, 2.0])
        with np.errstate(over="ignore"):  # numpy 2 reports the overflow in the norm's dot
            if bad == "infinite":
                with pytest.raises(ValueError, match="members do not commute within tolerance"):
                    AbelianTuple((lead, HermitianMatrix(hi)))
                return
            x = AbelianTuple((lead, HermitianMatrix(lo)))
            y = AbelianTuple((lead, HermitianMatrix(hi)))
            with pytest.raises(JacobiConvergenceError, match="norm not finite"):
                memberwise_leq(x, y)


def sweep_matrices(count, seed):
    """Hermitian matrices at dims 1-16 with lambda_min log-uniform around 0 or around -slack.

    Half the draws put ``|lambda_min|`` log-uniform on ``[1e-18, 1e-6]`` times
    the scale, either sign, sometimes exactly 0 with extra null directions;
    the other half put it at ``-slack * (1 + t)`` with ``|t|`` log-uniform on
    ``[1e-4, 1]``, either sign, across the kernel's slack and inside it.
    """
    rng = np.random.default_rng(seed)
    for k in range(count):
        m = int(rng.integers(1, 17))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        values = scale * rng.uniform(0.0, 1.0, m)
        values[0] = scale
        if k % 2 == 0:
            lam = scale * 10.0 ** rng.uniform(-18.0, -6.0) * rng.choice([-1.0, 1.0])
            if rng.uniform() < 0.2:
                lam = 0.0
                values[: int(rng.integers(0, m))] = 0.0
        else:
            slack = RTOL * (1.0 + scale)
            lam = -slack * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 0.0))
        values[-1] = lam
        yield with_spectrum(rng, values)


def test_certificate_sweep_against_kernel_and_lapack():
    # the certificate proves lambda_min >= -s/2; LAPACK's eigenvalues are the
    # reference, allowed their own backward error
    accepted = 0
    for a in sweep_matrices(2400, 50):
        ref = np.linalg.eigvalsh(a.entries)
        if certified(a):
            accepted += 1
            assert kernel_is_psd(a)
            assert ref[0] >= -RTOL * (1.0 + np.max(np.abs(ref)))
            assert ref[0] >= -cert_slack(a) / 2 - 64 * linalg._EPS * a.norm()
        elif ref[0] >= 0.0:
            raise AssertionError(f"PSD matrix not certified (dim {a.dim}, min eigenvalue {ref[0]})")
    assert accepted >= 1000


def floor(a):
    return linalg._cholesky_certificate(a)[2]


class TestFloor:
    """``_cholesky_certificate``'s lower bound on lambda_min, read by the geometric mean
    and its quadrature oracle: never above the spectrum, whatever LAPACK returns."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 16])
    def test_floor_never_exceeds_lambda_min(self, m):
        rng = np.random.default_rng(70 + m)
        for lam_min in 10.0 ** np.arange(-14.0, 1.0):
            for cond in (1.0, 1e3, 1e6, 1e12):
                values = lam_min * np.geomspace(1.0, cond, m)[::-1]
                a = with_spectrum(rng, values)
                f = floor(a)
                assert f <= lam_min + 2 * m * linalg._EPS * values[0], (lam_min, cond)
                if cond <= 1e6:
                    # ||L^-1||_F^2 = trace(a^-1) <= m / lambda_min
                    assert f >= lam_min / (2 * m), (lam_min, cond)

    def test_memoized_and_read_only(self, monkeypatch):
        a = with_spectrum(np.random.default_rng(80), [3.0, 2.0, 1.0])
        low, inv, f = linalg._cholesky_certificate(a)

        def refuse(c):
            raise AssertionError("factored twice")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        assert linalg._cholesky_certificate(a) == (low, inv, f)
        assert not low.flags.writeable and not inv.flags.writeable
        assert np.allclose(low @ low.conj().T, a.entries) and np.allclose(low @ inv, np.eye(3))

    @pytest.mark.parametrize("values", [[2.0, 1.0, 0.0], [2.0, 1.0, -1e-12]])
    def test_singular_or_rounding_negative_floor_is_not_positive(self, values):
        # LAPACK may factor these through a rounding-sized pivot; the floor stays at 0 or below
        a = with_spectrum(np.random.default_rng(81), values)
        assert floor(a) <= 2 * a.dim * linalg._EPS * 2.0

    def test_no_factor_gives_minus_infinity(self):
        a = with_spectrum(np.random.default_rng(81), [1.0, -1.0])
        assert linalg._cholesky_certificate(a) == (None, None, -math.inf)

    def test_not_finite_gives_minus_infinity(self):
        with np.errstate(over="ignore"):  # numpy 2 reports the overflow in the norm's dot
            big = HermitianMatrix([[1e160, 0.0], [0.0, 1e160]])
            assert floor(big) == -math.inf
        for bad in (math.inf, math.nan):
            assert floor(HermitianMatrix([[bad, 0.0], [0.0, 1.0]])) == -math.inf

    CASES = ([3.0, 2.0, 1.0, 0.5], [3.0, 2.0, 1.0, 1e-6], [3.0, 2.0, 1.0, 0.0], [3.0, 2.0, 1.0, -0.5])

    @pytest.mark.parametrize("garbage", sorted(GARBAGE))
    def test_garbage_factor_cannot_raise_the_floor(self, garbage, monkeypatch):
        rng = np.random.default_rng(82)
        cases = [(with_spectrum(rng, v), v[-1]) for v in self.CASES]
        monkeypatch.setattr(np.linalg, "cholesky", GARBAGE[garbage])
        for a, lam_min in cases:
            assert floor(a) <= lam_min + 8 * linalg._EPS * 3.0, (garbage, lam_min)

    @pytest.mark.parametrize(
        "garbage",
        [
            lambda low: LAPACK_INV(low) * (1.0 + 1e-3),
            lambda low: LAPACK_INV(low) * (1.0 - 1e-3),
            lambda low: 2.0 * LAPACK_INV(low),
            lambda low: np.eye(len(low), dtype=complex),
            lambda low: np.full_like(low, np.nan),
            lambda low: LAPACK_INV(low).conj().T,
        ],
        ids=["grown", "shrunk", "doubled", "identity", "nan", "adjoint"],
    )
    def test_garbage_inverse_cannot_raise_the_floor(self, garbage, monkeypatch):
        rng = np.random.default_rng(83)
        cases = [(with_spectrum(rng, v), v[-1]) for v in self.CASES[:2]]
        monkeypatch.setattr(np.linalg, "inv", garbage)
        for a, lam_min in cases:
            assert floor(a) <= lam_min + 8 * linalg._EPS * 3.0, lam_min

