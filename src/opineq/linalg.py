"""Dense Hermitian linear algebra: Jacobi eigensolver, Loewner order, functional calculus.

Everything here is a pure function of immutable values; matrices are frozen
after construction and safe to share between threads.  A matrix keeps its
decomposition once computed; two threads racing on it compute the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_RTOL = 1e-9
DEFAULT_QUADRATURE_NODES = 128

_SWEEP_CAP = 100
_OFFDIAG_FACTOR = 1e-14


class JacobiConvergenceError(RuntimeError):
    """No spectrum: the input's Frobenius norm is not finite (a NaN or infinite entry, or
    an overflow), or the off-diagonal threshold was not reached within the sweep cap."""


class SpectrumDomainError(ValueError):
    """An eigenvalue fell outside the domain of the scalar function being applied."""


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
    ``entries[i, j] == conj(entries[j, i])`` holds exactly.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        sym = (arr + arr.conj().T) / 2.0
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
        return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        return HermitianMatrix(self.entries - other.entries)

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

    :func:`decompose` sorts the pair into the matrix's eigensystem when it is
    first read, so no kernel runs for it.  The pair keeps its own copy of
    ``values``: a caller's later writes to its array change nothing.  Only a
    basis unitary to rounding, a kernel or joint eigenbasis, may seed it.
    """
    values = np.array(values, dtype=float)
    a = HermitianMatrix((basis * values) @ basis.conj().T)
    object.__setattr__(a, "_carried", (values, basis))
    return a


_ROUNDS: dict[int, tuple] = {}


def _rounds(m: int) -> tuple:
    """Round-robin (circle method) schedule for an ``m x m`` sweep, built once per ``m``.

    Each round is a set of disjoint pairs ``p < q``; over the ``m - 1``
    rounds (``m`` when ``m`` is odd, with one idle index padded in) every
    unordered pair comes up exactly once.  A round is stored as flat indices
    into an ``m x m`` array, pair by pair: ``gather`` reads ``a_pq, a_pp,
    a_qq``, ``scatter`` addresses ``pp, pq, qp, qq``, and ``zeros`` holds
    the ``pq, qp`` entries each rotation annihilates.  Also returned: the
    flat indices of all off-diagonal entries and the identity to copy from.
    """
    sched = _ROUNDS.get(m)
    if sched is None:
        n = m + m % 2
        ring = list(range(n))
        rounds = []
        for _ in range(n - 1):
            pairs = [sorted((ring[i], ring[n - 1 - i])) for i in range(n // 2)]
            pairs = [(p, q) for p, q in pairs if q < m]
            gather = [i for p, q in pairs for i in (p * m + q, p * m + p, q * m + q)]
            scatter = [i for p, q in pairs for i in (p * m + p, p * m + q, q * m + p, q * m + q)]
            zeros = [(p * m + q, q * m + p) for p, q in pairs]
            rounds.append((np.array(gather), np.array(scatter), zeros))
            ring = [ring[0], ring[-1]] + ring[1:-1]
        eye = _freeze(np.eye(m, dtype=complex))
        sched = _ROUNDS[m] = (tuple(rounds), np.flatnonzero(eye == 0), eye)
    return sched


_STACKS: dict[int, tuple] = {}


def _stack_plan(m: int, b: int) -> tuple:
    """The schedule of :func:`_rounds` repeated down a stack of ``b`` matrices.

    Per round: the gather and scatter indices as flat indices into a
    ``(b, m, m)`` stack, matrix after matrix, and the ``pq, qp`` pairs each
    matrix's rotations zero; also the flat off-diagonal indices.  Built per
    dimension for the largest batch seen so far and cut to ``b`` by
    :func:`_fit`.
    """
    plan = _STACKS.get(m)
    if plan is None or plan[0] < b:
        rounds, off, _ = _rounds(m)
        mm = m * m
        starts = np.arange(0, b * mm, mm)[:, None]
        stacked = [
            (
                (starts + gather).ravel(),
                (starts + scatter).ravel(),
                [(at + pq, at + qp) for at in range(0, b * mm, mm) for pq, qp in zeros],
            )
            for gather, scatter, zeros in rounds
        ]
        plan = _STACKS[m] = (b, stacked, (starts + off).ravel())
    return _fit(plan[1], plan[2], b, m)


def _fit(rounds, off, n: int, m: int) -> tuple:
    """The share of a stacked plan that addresses its first ``n`` matrices."""
    p = m // 2
    fitted = [
        (gather[: n * 3 * p], scatter[: n * 4 * p], zeros[: n * p])
        for gather, scatter, zeros in rounds
    ]
    return fitted, off[: n * (m * m - m)]


def _eigensystem(lam: np.ndarray, u: np.ndarray) -> EigenSystem:
    """``lam`` in non-increasing order (stable argsort) with the matching columns of ``u``."""
    order = (-lam).argsort(kind="stable")
    return EigenSystem(lam[order], u[:, order])


def _jacobi(mats: Sequence[HermitianMatrix]) -> list[EigenSystem]:
    """Round-robin Jacobi kernel behind :func:`decompose`, run once over same-size matrices.

    ``w`` and ``u`` are ``(b, m, m)`` stacks, and a round's rotations reach
    the whole stack through stacked matmuls.  Each matrix keeps its own stop
    threshold, rotation formulas and convergence test, and sits out every
    round in which it has nothing to rotate, so its bits do not depend on
    the rest of the batch.  Converged matrices leave the stack at sweep
    boundaries.
    """
    b, m = len(mats), mats[0].dim
    mm = m * m
    rounds, off, eye = _rounds(m)
    w = np.array([a.entries for a in mats])
    if b == 1:
        ident = eye[None]
    else:
        ident = np.empty_like(w)
        ident[:] = eye
    u = ident.copy()
    thresholds = [_OFFDIAG_FACTOR * a.norm() for a in mats]
    for k, threshold in enumerate(thresholds):
        if not math.isfinite(threshold):
            raise JacobiConvergenceError(f"norm not finite (position {k} of a batch of {b})")
    if m == 1:
        return [_eigensystem(x.diagonal().real, v) for x, v in zip(w, u)]
    npairs = m // 2
    if b > 1:
        rounds, off = _stack_plan(m, b)
    out: list = [None] * b
    live = list(range(b))  # the batch position of each stack entry
    skip = [threshold / m for threshold in thresholds for _ in range(npairs)]
    for _ in range(_SWEEP_CAP):
        v = w.take(off)
        if len(live) == 1:  # a stack of one needs no per-matrix views
            keep = [] if math.sqrt(np.vdot(v, v).real) <= thresholds[0] else [0]
        else:
            v = v.reshape(len(live), -1)
            keep = [
                pos
                for pos, threshold in enumerate(thresholds)
                if not math.sqrt(np.vdot(v[pos], v[pos]).real) <= threshold
            ]
        if len(keep) < len(live):
            for pos, k in enumerate(live):
                if pos not in keep:
                    out[k] = _eigensystem(w[pos].diagonal().real, u[pos])
            if not keep:
                return out
            # converged matrices leave; the rest move up the stack
            n = len(keep)
            live = [live[pos] for pos in keep]
            thresholds = [thresholds[pos] for pos in keep]
            skip = [threshold / m for threshold in thresholds for _ in range(npairs)]
            w, u, ident = w[keep], u[keep], ident[:n]
            rounds, off = _fit(rounds, off, n, m)
        for gather, scatter, zeros in rounds:
            g = w.take(gather).tolist()
            blocks, hit = [], []
            for i, pair in enumerate(zeros):
                apq = g[3 * i]
                r = abs(apq)
                if r <= skip[i]:
                    blocks += (1.0, 0.0, 0.0, 1.0)
                    continue
                hit += pair
                phase = apq / r
                tau = (g[3 * i + 2].real - g[3 * i + 1].real) / (2.0 * r)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # unitary rotation J: (p,q) block [[c, s], [-s*conj(phase), c*conj(phase)]]
                cph = phase.conjugate()
                blocks += (c, s, -s * cph, c * cph)
            if not hit:
                continue
            j = ident.copy()
            j.put(scatter, blocks)
            # skipped pairs may leave a matrix with nothing to rotate
            idle = len(hit) < 2 * len(zeros) and len({h // mm for h in hit[::2]}) < len(ident)
            if not idle:
                w = j.conj().transpose(0, 2, 1) @ w @ j
                w.put(hit, 0.0)
                u = u @ j
            else:  # such matrices sit the round out
                rows = sorted({h // mm for h in hit[::2]})
                j = j[rows]
                w[rows] = j.conj().transpose(0, 2, 1) @ w[rows] @ j
                w.put(hit, 0.0)
                u[rows] = u[rows] @ j
    raise JacobiConvergenceError(
        f"no convergence after {_SWEEP_CAP} sweeps on a {m}x{m} matrix "
        f"(position {live[0]} of a batch of {b})"
    )


def decompose(mats: Sequence[HermitianMatrix]) -> list[EigenSystem]:
    """Eigendecompositions of ``mats``, in order, with one kernel run per dimension.

    A carried pair is sorted as the kernel sorts its own output.  The kernel
    runs on the other matrices not decomposed yet, each object once however
    often it is listed, and keeps every result on its matrix as
    :func:`eig_hermitian` does.  A matrix gets the same bits in any batch.
    """
    todo: dict[int, dict[int, HermitianMatrix]] = {}
    for a in mats:
        if "_carried" in a.__dict__ and "_eigensystem" not in a.__dict__:
            object.__setattr__(a, "_eigensystem", _eigensystem(*a.__dict__["_carried"]))
        if "_eigensystem" not in a.__dict__:
            todo.setdefault(a.dim, {})[id(a)] = a
    for group in todo.values():
        batch = list(group.values())
        for a, es in zip(batch, _jacobi(batch)):
            object.__setattr__(a, "_eigensystem", es)
    return [a.__dict__["_eigensystem"] for a in mats]


def eig_hermitian(a: HermitianMatrix) -> EigenSystem:
    """Eigendecomposition by round-robin Jacobi rotations with complex phase handling.

    Each sweep visits every off-diagonal pair once, in rounds of disjoint
    pairs (Brent-Luk ordering); a round's rotations are applied as one
    block-diagonal unitary.  Sweeps stop once the off-diagonal Frobenius
    mass drops below ``1e-14 * ||a||_F``; more than 100 sweeps, or a norm
    that is not finite, raises :class:`JacobiConvergenceError` (never returns
    silently wrong output).

    Deterministic for a fixed input.  The result is kept on ``a``, so each
    matrix object is decomposed once; its arrays are read-only.  The kernel
    is the one :func:`decompose` runs, on a batch of one, with the same bits.
    """
    return decompose([a])[0]


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


def is_psd(a: HermitianMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue clears ``-rtol * (1 + ||a||_op)``."""
    lam, slack = psd_margin(eig_hermitian(a), tol)
    return lam >= -slack


def loewner_leq(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Loewner order ``a <= b``, i.e. ``b - a`` is positive semidefinite at tolerance."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
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
