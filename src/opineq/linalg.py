"""Dense Hermitian linear algebra: Jacobi eigensolver, Loewner order, functional calculus.

Everything here is a pure function of immutable values; matrices are frozen
after construction and safe to share between threads.  The eigensolver runs
on one matrix at a time, entered only through :func:`eig_hermitian`, which
keeps the decomposition on the matrix; two threads racing on it compute the
same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_RTOL = 1e-9

_SWEEP_CAP = 100
_OFFDIAG_FACTOR = 1e-14
_EPS = float(np.finfo(float).eps)


class JacobiConvergenceError(RuntimeError):
    """No spectrum: the input's Frobenius norm is not finite (a NaN or infinite entry, or
    an overflow), or the off-diagonal threshold was not reached within the sweep cap."""


class SpectrumDomainError(ValueError):
    """A spectrum fell outside the domain of the function, power or mean being applied."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack: the relative tolerance for order checks."""

    rtol: float = DEFAULT_RTOL

    def __post_init__(self) -> None:
        if not (0.0 <= self.rtol < 1e-2):
            raise ValueError(f"rtol must lie in [0, 1e-2), got {self.rtol}")


DEFAULT_TOL = Tolerance()


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HermitianMatrix:
    """Square complex matrix with Hermitian symmetry enforced at construction.

    The constructor symmetrizes its input, ``(a + a*)/2``, so
    ``entries[i, j] == conj(entries[j, i])`` holds exactly.  The halving
    acts on the real and imaginary parts apart: complex division by ``2 + 0j``
    would turn an infinite entry into ``inf+nanj``.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        sym = arr + arr.conj().T
        parts = sym.view(float)
        parts *= 0.5
        object.__setattr__(self, "entries", _freeze(sym))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        """Frobenius norm, computed once per matrix object."""
        n = self.__dict__.get("_norm")
        if n is None:
            n = float(np.linalg.norm(self.entries))
            object.__setattr__(self, "_norm", n)
        return n

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self._beside(other) + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self._beside(other) - other.entries)

    def _beside(self, other: "HermitianMatrix") -> np.ndarray:
        """``entries``; ``ValueError`` unless ``other`` has the same dimension (numpy
        would broadcast a 1x1 operand over the other)."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return self.entries

    def __rmul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(float(scalar) * self.entries)


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dim, dtype=complex))


def zero(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.zeros((dim, dim), dtype=complex))


def diagonal(values: Sequence[float]) -> HermitianMatrix:
    return HermitianMatrix(np.diag(np.asarray(values, dtype=float)).astype(complex))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition ``a = basis @ diag(eigenvalues) @ basis*``.

    Eigenvalues are real and sorted in non-increasing order; the columns of
    ``basis`` are the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _freeze(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "basis", _freeze(np.asarray(self.basis, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def op_norm(self) -> float:
        return max(abs(self.lambda_max), abs(self.lambda_min))

    def reconstruct(self, values: np.ndarray | None = None) -> HermitianMatrix:
        """``basis @ diag(values) @ basis*`` (the matrix itself by default), carrying that pair."""
        return _spectral_matrix(self.basis, self.eigenvalues if values is None else values)


def _spectral_matrix(basis: np.ndarray, values: np.ndarray) -> HermitianMatrix:
    """``basis @ diag(values) @ basis*``, carrying the pair it was built from.

    :func:`eig_hermitian` sorts the pair into the matrix's eigensystem when
    it is first read, so no kernel runs for it.  The pair keeps its own copy of
    ``values``: a caller's later writes to its array change nothing.  Only a
    basis unitary to rounding, a kernel or joint eigenbasis, may seed it.
    """
    values = np.array(values, dtype=float)
    a = HermitianMatrix((basis * values) @ basis.conj().T)
    object.__setattr__(a, "_carried", (values, basis))
    return a


@functools.cache
def _cyclic(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the off-diagonal entries of an ``m x m`` array, and the identity."""
    eye = _freeze(np.eye(m, dtype=complex))
    return np.flatnonzero(eye == 0), eye


def _offdiag_norm(w: np.ndarray) -> float:
    """Frobenius norm of the off-diagonal part of the square array ``w``."""
    v = w.take(_cyclic(len(w))[0])
    return math.sqrt(np.vdot(v, v).real)


def _eigensystem(lam: np.ndarray, u: np.ndarray) -> EigenSystem:
    """``lam`` in non-increasing order (stable argsort) with the matching columns of ``u``."""
    order = (-lam).argsort(kind="stable")
    return EigenSystem(lam[order], u[:, order])


def _unitary_defect(q: np.ndarray) -> float:
    """``||q* q - I||_F``; not a finite number for a basis that is not finite."""
    d = q.conj().T @ q
    d.flat[:: len(d) + 1] -= 1.0
    return math.sqrt(np.vdot(d, d).real)


def _lapack_basis(a: np.ndarray) -> np.ndarray:
    """LAPACK's eigenvectors of the ``m x m`` matrix ``a``: only a proposal."""
    return np.linalg.eigh(a)[1]


def _sweeps(w: np.ndarray, u: np.ndarray, threshold: float) -> EigenSystem:
    """Cyclic Jacobi sweeps on the ``m x m`` matrix ``w`` in the basis ``u``, until the stop test.

    Each sweep visits the pairs ``p < q`` row by row (the cyclic-by-row
    order, which converges: Forsythe & Henrici, Trans. AMS 94, 1960); a pair
    with ``|a_pq| <= threshold / m`` is not rotated.  Each rotation is one
    ``m x m`` unitary ``J``, applied as ``w = (J* w) J`` and ``u = u J``.  The
    run ends once the off-diagonal Frobenius mass is at most ``threshold``;
    not within :data:`_SWEEP_CAP` sweeps raises
    :class:`JacobiConvergenceError`.
    """
    m = len(w)
    eye = _cyclic(m)[1]
    skip = threshold / m
    for _ in range(_SWEEP_CAP):
        if _offdiag_norm(w) <= threshold:
            return _eigensystem(w.diagonal().real, u)
        for p in range(m - 1):
            for q in range(p + 1, m):
                # Python scalars: numpy's complex division and hypot round differently
                apq, app, aqq = w.take((p * m + q, p * m + p, q * m + q)).tolist()
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                tau = (aqq.real - app.real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # unitary rotation J: (p,q) block [[c, s], [-s*conj(phase), c*conj(phase)]]
                cph = phase.conjugate()
                j = eye.copy()
                j[p, p], j[p, q], j[q, p], j[q, q] = c, s, -s * cph, c * cph
                w = j.conj().T @ w @ j
                w[p, q] = w[q, p] = 0.0
                u = u @ j
    raise JacobiConvergenceError(f"no convergence after {_SWEEP_CAP} sweeps on a {m}x{m} matrix")


def _jacobi(a: HermitianMatrix) -> EigenSystem:
    """Cyclic Jacobi kernel behind :func:`eig_hermitian`, run on one matrix.

    The stop threshold is ``1e-14 * ||a||_F`` from the memoized norm; a norm
    that is not finite raises :class:`JacobiConvergenceError` first.  A
    matrix of dimension 3 or more that fails the first stop test asks
    :func:`_lapack_basis` for a proposal ``q``, kept only if it is finite and
    ``||q* q - I||_F <= 1e-14``, the stop factor; then it starts from ``w =
    (q* a) q`` and ``u = q``.  A ``LinAlgError`` or any other proposal starts
    cold, from ``a`` and ``I``, as does a 2x2 matrix (its cold run is one
    exact rotation) or one that already passes (diagonal, zero, 1x1).

    Why that bound suffices: every eigenvalue of ``q* q`` then lies within
    ``1 +- 1e-14``, so by Ostrowski's theorem each eigenvalue of ``q* a q``
    is ``theta * lambda`` with ``|theta - 1| <= 1e-14`` and moves by at most
    ``1e-14 * ||a||_F``, no more than the stop test lets the off-diagonal
    mass move the diagonal (Weyl); and ``u`` starts no less unitary than the
    cold path's own ``u`` ends (1.4e-14 at m = 16).  Whatever the start,
    the stop test of :func:`_sweeps` then decides, so a poor basis costs
    sweeps, never accuracy.
    """
    threshold = _OFFDIAG_FACTOR * a.norm()
    if not math.isfinite(threshold):
        raise JacobiConvergenceError(f"norm not finite on a {a.dim}x{a.dim} matrix")
    w, u = a.entries, _cyclic(a.dim)[1]
    if a.dim > 2 and not _offdiag_norm(w) <= threshold:  # a 2x2 cold run is one exact rotation
        try:
            q = _lapack_basis(w)
        except np.linalg.LinAlgError:
            q = None
        if q is not None and _unitary_defect(q) <= _OFFDIAG_FACTOR:  # False on NaN
            w, u = q.conj().T @ w @ q, q
    return _sweeps(w, u, threshold)


def eig_hermitian(a: HermitianMatrix) -> EigenSystem:
    """Eigendecomposition by cyclic Jacobi rotations with complex phase handling.

    Each sweep visits every off-diagonal pair once, row by row, and applies
    each rotation as it comes.  Sweeps stop once the off-diagonal Frobenius
    mass drops below ``1e-14 * ||a||_F``; more than 100 sweeps, or a norm
    that is not finite, raises :class:`JacobiConvergenceError` (never returns
    silently wrong output).  A matrix of dimension 3 or more that fails that
    test at once starts from LAPACK's eigenbasis when it is unitary to
    ``1e-14``, and cold otherwise; the same test ends either run, so LAPACK
    can cost sweeps but cannot make the result less accurate.

    Deterministic for a fixed input.  The result is kept on ``a``, so each
    matrix object is decomposed once; its arrays are read-only.  A matrix
    that carries its pair (:func:`_spectral_matrix`) has it sorted as the
    kernel sorts its own output, and runs no kernel.
    """
    es = a.__dict__.get("_eigensystem")
    if es is None:
        carried = a.__dict__.get("_carried")
        es = _jacobi(a) if carried is None else _eigensystem(*carried)
        object.__setattr__(a, "_eigensystem", es)
    return es


def psd_margin(es: EigenSystem, tol: Tolerance) -> tuple[float, float]:
    """Smallest eigenvalue and its PSD slack ``rtol * (1 + ||a||_op)``."""
    return es.lambda_min, tol.rtol * (1.0 + es.op_norm)


def worst_gap(lo, hi, tol: Tolerance) -> tuple[float, float]:
    """Tightest link ``hi[k] - lo[k]`` by gap plus slack, with that link's slack.

    Each link's slack is ``rtol * (1 + |lo[k]| + |hi[k]|)``; the first
    minimum wins, and no links give ``(inf, 0.0)``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.size == 0:
        return math.inf, 0.0
    gaps = hi - lo
    slacks = tol.rtol * (1.0 + np.abs(lo) + np.abs(hi))
    k = int(np.argmin(gaps + slacks))
    return float(gaps[k]), float(slacks[k])


def psd_eigensystem(a: HermitianMatrix, tol: Tolerance, what: str) -> EigenSystem:
    """Decomposition of ``a``, which must be PSD at tolerance; ``what`` names it in the error."""
    es = eig_hermitian(a)
    lam, slack = psd_margin(es, tol)
    if lam < -slack:
        raise SpectrumDomainError(f"{what} must be positive semidefinite (min eigenvalue {lam})")
    return es


def _residual_bound(d: np.ndarray, scale: float) -> float:
    """Upper bound on the exact ``||P Q - C||_F`` of m x m matrices, from ``d = fl(P Q - C)``.

    ``scale`` bounds ``||P||_F ||Q||_F + ||C||_F``.  Error terms after
    Higham, *Accuracy and Stability of Numerical Algorithms*, 2002, 3.1 and
    3.6 (``u = eps/2``, ``g_k = k u / (1 - k u)``):

    * each entry of ``fl(P Q)`` is a complex inner product of length m, so
      ``||fl(P Q) - P Q||_F <= sqrt(2) g_(m+2) ||P||_F ||Q||_F``, in any
      summation order;
    * a ``C`` stored with rounding on its diagonal, as ``a + sigma I`` is,
      is off by at most ``u ||C||_F``;
    * the subtraction and the sum of ``2 m^2`` squares behind the computed
      norm ``r`` of ``d`` move it by a relative ``g_(m^2+2)`` at most.

    So ``||P Q - C||_F <= r + (m^2 + 2m + 8) eps (r + scale)``, whose
    coefficient covers each term above twice over.  This is a soundness
    bound, not a tuned tolerance; a non-finite ``d`` gives NaN or inf.
    """
    m = len(d)
    r = math.sqrt(np.vdot(d, d).real)
    return r + (m * m + 2 * m + 8) * _EPS * (r + scale)


def _cholesky_certifies(a: HermitianMatrix, rtol: float) -> bool:
    """True only if a checked Cholesky factor proves ``lambda_min(a) >= -s/2``.

    Here ``s = rtol * (1 + ||a||_F / sqrt(m))``, at most :func:`is_psd`'s
    slack since ``||a||_op >= ||a||_F / sqrt(m)``.  LAPACK factors
    ``c = a + sigma I`` with ``sigma = s/4`` and stays untrusted: ``L L*`` is
    PSD for any ``L`` it returns, so by Weyl ``lambda_min(a) >= -sigma -
    ||L L* - c||_F``, and the claim holds once that exact residual, bounded
    from computed values by :func:`_residual_bound` (Rump, BIT 46, 2006),
    is at most ``sigma``; ``||c||_F <= ||a||_F + sigma sqrt(m)``.  ``False``
    means unknown: ``rtol = 0``, a norm that is not finite, a
    ``LinAlgError``, a non-finite value or too large a residual.
    """
    m = a.dim
    sigma = rtol * (1.0 + a.norm() / math.sqrt(m)) / 4.0
    if not 0.0 < sigma < math.inf:
        return False
    c = np.array(a.entries)
    c.flat[:: m + 1] += sigma
    try:
        low = np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return False
    scale = float(np.vdot(low, low).real) + a.norm() + sigma * math.sqrt(m)
    return _residual_bound(low @ low.conj().T - c, scale) <= sigma  # False on NaN


def _cholesky_certificate(a: HermitianMatrix) -> tuple:
    """``(L, X, floor)``: factor ``a ~ L L*``, ``X ~ L^-1``, proven ``floor <= lambda_min(a)``.

    LAPACK's factor and inverse stay untrusted.  With ``rho`` the
    :func:`_residual_bound` of ``L X - I``, ``rho < 1`` proves ``L``
    invertible with ``||L^-1||_2 <= ||X||_F / (1 - rho)``, so ``sigma_min(L)
    >= (1 - rho) / ||X||_F``; ``L L*`` has ``sigma_min(L)^2`` as its
    smallest eigenvalue, and by Weyl ``lambda_min(a) >= sigma_min(L)^2 -
    delta`` with ``delta`` the bound on ``||L L* - a||_F``.  The factor
    ``1 - (m^2 + 2m + 8) eps`` on the square covers the rounding of
    ``||X||_F`` (a sum of ``2 m^2`` squares) and of the scalar steps.  Kept
    on ``a``, so each matrix is factored once.  A norm that is not finite, a
    ``LinAlgError``, a non-finite value or ``rho >= 1`` gives ``(None,
    None, -inf)``.
    """
    cert = a.__dict__.get("_cholesky")
    if cert is None:
        cert = None, None, -math.inf
        try:
            low = np.linalg.cholesky(a.entries)
            inv = np.linalg.inv(low)
        except np.linalg.LinAlgError:
            low = None
        if low is not None:
            m = a.dim
            with np.errstate(all="ignore"):  # a non-finite value fails a test below
                lf2 = float(np.vdot(low, low).real)
                xf = math.sqrt(np.vdot(inv, inv).real)
                rho = _residual_bound(low @ inv - _cyclic(m)[1], math.sqrt(lf2) * xf + math.sqrt(m))
                delta = _residual_bound(low @ low.conj().T - a.entries, lf2 + a.norm())
            if rho < 1.0:  # False on NaN
                t = (1.0 - rho) / xf
                floor = t * t * (1.0 - (m * m + 2 * m + 8) * _EPS) - delta
                if math.isfinite(floor):
                    cert = _freeze(low), _freeze(inv), floor
        object.__setattr__(a, "_cholesky", cert)
    return cert


def is_psd(a: HermitianMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue clears ``-rtol * (1 + ||a||_op)``.

    The matrix is first offered to :func:`_cholesky_certifies`, which
    accepts only a matrix whose smallest eigenvalue provably clears half
    that slack; every other outcome reads the spectrum from
    :func:`eig_hermitian`.
    """
    if _cholesky_certifies(a, tol.rtol):
        return True
    lam, slack = psd_margin(eig_hermitian(a), tol)
    return lam >= -slack


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Loewner order ``a <= b``, i.e. ``b - a`` is positive semidefinite at tolerance."""
    return is_psd(b - a, tol)


def hermitian_function(a: HermitianMatrix, g: Callable[[float], float]) -> HermitianMatrix:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    Raises :class:`SpectrumDomainError` when ``g`` is undefined (raises or
    returns a non-finite value) at some eigenvalue.  The result carries its
    decomposition: ``g`` of the eigenvalues in ``a``'s eigenbasis.
    """
    es = eig_hermitian(a)
    values = np.empty(es.dim, dtype=float)
    for i, lam in enumerate(es.eigenvalues):
        try:
            v = float(g(float(lam)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise SpectrumDomainError(f"function undefined at eigenvalue {lam}: {exc}") from exc
        if not math.isfinite(v):
            raise SpectrumDomainError(f"function not finite at eigenvalue {lam} (got {v})")
        values[i] = v
    return es.reconstruct(values)


def matrix_power(a: HermitianMatrix, p: float, tol: Tolerance = DEFAULT_TOL) -> HermitianMatrix:
    """Power ``a**p`` for PSD ``a`` and ``p >= 0`` via the spectral calculus.

    Within-tolerance negative eigenvalues are clamped to 0 before powering
    (the continuous extension of ``t -> t**p`` on the PSD cone); ``0**0``
    maps to 1, so ``matrix_power(a, 0)`` is the exact identity, bit for bit,
    even for singular inputs.  The result carries its decomposition.
    """
    if p < 0:
        raise ValueError(f"exponent must be nonnegative, got {p}")
    es = psd_eigensystem(a, tol, "matrix_power input")
    if p == 0:
        return _spectral_matrix(np.eye(a.dim, dtype=complex), np.ones(a.dim))
    clamped = np.maximum(es.eigenvalues, 0.0)
    return es.reconstruct(np.power(clamped, p))
