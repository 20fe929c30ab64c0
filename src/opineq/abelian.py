"""Commuting Hermitian tuples: joint diagonalization and multivariate functional calculus.

A commuting n-tuple admits a common eigenbasis; a function of n variables is
applied by evaluating it on the joint eigenvalue vectors and reassembling in
that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    SpectrumDomainError,
    Tolerance,
    _freeze,
    _offdiag_norm,
    _spectral_matrix,
    _unitary_defect,
    eig_hermitian,
    loewner_leq,
)

# Jacobi stops once the off-diagonal mass is below 1e-14 * ||x||_F, whether
# it started from a LAPACK basis or cold, and that one stop test bounds the
# eigenvector error: at relative eigenvalue gap g it is about 1e-14 / g, and
# it shows up in the other members' off-diagonal residuals, which must stay
# under rtol = 1e-9.  Gaps below 1e-5 relative (a residual
# of at most ~1e-9 relative) are therefore merged into one cluster and left
# for the next member to resolve.
_CLUSTER_GAP_FACTOR = 1e-5
# the joint basis must be unitary to 1e-14 m (see AbelianTuple)
_BASIS_DEFECT_FACTOR = 1e-14


class JointDiagonalizationError(RuntimeError):
    """No certified joint spectrum: the joint basis is not unitary to rounding (a
    kernel fault), or a member's residual is above a stricter caller's tolerance."""


def commutator_norm(a: HermitianMatrix, b: HermitianMatrix) -> float:
    prod = a.entries @ b.entries
    return float(np.linalg.norm(prod - prod.conj().T))


def check_commuting(members: Sequence[HermitianMatrix], tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all pairwise commutators vanish at the bilinear tolerance scale."""
    dims = {m.dim for m in members}
    if len(dims) > 1:
        raise ValueError(f"members have mixed dimensions: {sorted(dims)}")
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            bound = tol.rtol * (1.0 + members[i].norm() * members[j].norm())
            if not commutator_norm(members[i], members[j]) <= bound:
                return False
    return True


@dataclass(frozen=True)
class AbelianTuple:
    """Ordered family of pairwise-commuting Hermitian matrices of one dimension.

    A tuple is admitted by its joint spectrum, built once here and read by
    every check through :func:`joint_diagonalize`.  The basis ``u`` starts as
    member 0's eigenbasis (memoized on the member); each cluster of nearly
    equal eigenvalues is then refined by diagonalizing the next member inside
    it, recursively (Bunse-Gerstner, Byers & Mehrmann, SIAM J. Matrix Anal.
    Appl. 14(4), 1993).  Each member's residual ``r_i``, the Frobenius norm of
    the off-diagonal part of ``c_i = u* x_i u``, must be at most ``rtol * (1 +
    ||x_i||_F)`` at the tuple's own ``tol``; otherwise, or when a later
    member's norm is not finite, ``ValueError``.  A member 0 that is not
    finite raises the kernel's ``JacobiConvergenceError``.

    Admission is a certificate that does not trust the kernel: the basis
    must also be unitary, ``d = ||u* u - I||_F <= eta = 1e-14 m``, or
    :class:`JointDiagonalizationError` is raised (a kernel fault; Jacobi's
    own basis ends near ``1.4e-15 m`` at m <= 64, cold or from LAPACK).
    Then, with ``||.||`` the spectral norm, the admitted members satisfy

        (1 - d) ||[x_i, x_j]||_F <= 2 (1 + d) (||x_i|| r_j + ||x_j|| r_i)
                                    + 2 r_i r_j + 2 d (1 + d) ||x_i|| ||x_j||.

    Why: the diagonal parts ``e_i`` of the ``c_i`` commute, so ``[c_i, c_j] =
    [e_i, c_j - e_j] + [c_i - e_i, e_j] + [c_i - e_i, c_j - e_j]``, with
    ``||e_i|| <= ||c_i|| <= (1 + d) ||x_i||``.  Next ``u u* = I + F`` with
    ``||F||_F = d`` (it has the spectrum of ``u* u``), so ``[c_i, c_j] = u*
    [x_i, x_j] u + u* (x_i F x_j - x_j F x_i) u``, and ``||u* M u||_F >=
    (1 - d) ||M||_F``.  The computed ``d`` and ``r_i`` differ from the exact
    ones by at most about ``m^2 eps`` and ``2 m^2 eps ||x_i||_F`` (one and two
    products; Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    3.5), so the bound moves by far less than ``rtol`` at campaign sizes.
    """

    members: tuple[HermitianMatrix, ...]
    tol: Tolerance = field(default=DEFAULT_TOL, compare=False)
    joint: JointSpectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("an abelian tuple needs at least one member")
        if len({m.dim for m in members}) > 1:
            raise ValueError(f"members have mixed dimensions: {sorted({m.dim for m in members})}")
        object.__setattr__(self, "members", members)
        es = eig_hermitian(members[0])
        if not all(np.isfinite(x.norm()) for x in members[1:]):
            raise ValueError("members do not commute within tolerance")
        u = es.basis.copy()
        _refine_blocks(members, u, np.arange(self.dim), 0, es.eigenvalues)
        defect = _unitary_defect(u)
        if not defect <= _BASIS_DEFECT_FACTOR * self.dim:
            raise JointDiagonalizationError(f"joint basis is not unitary: defect {defect:.3g}")
        conj = [u.conj().T @ x.entries @ u for x in members]
        residuals = [_offdiag_norm(c) for c in conj]
        js = JointSpectrum(u, np.column_stack([np.diag(c).real for c in conj]), residuals)
        if not js.within(members, self.tol):  # a NaN residual proves nothing
            raise ValueError("members do not commute within tolerance")
        object.__setattr__(self, "joint", js)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim


@dataclass(frozen=True)
class Cube:
    """Product of closed real intervals, the domain of a function of n variables."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        for lo, hi in ivs:
            if not lo <= hi:  # also rejects a NaN endpoint
                raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)

    @property
    def arity(self) -> int:
        return len(self.intervals)

    def clip(self, point: Sequence[float]) -> tuple[float, ...]:
        if len(point) != self.arity:
            raise ValueError(f"a point of {len(point)} coordinates on a cube of arity {self.arity}")
        return tuple(
            min(max(float(s), lo), hi) for s, (lo, hi) in zip(point, self.intervals)
        )


def uniform_cube(n: int, lo: float, hi: float) -> Cube:
    return Cube(tuple((lo, hi) for _ in range(n)))


@dataclass(frozen=True)
class CubeFunction:
    """Real function of n variables on a cube, with declared shape flags.

    Flags are declarations, not inferences; the tests audit the function
    library's by randomized probing (``tests/flag_audit.py``).
    """

    name: str
    domain: Cube
    evaluator: Callable[[Sequence[float]], float]
    convex: bool = False
    concave: bool = False
    separately_increasing: bool = False

    @property
    def arity(self) -> int:
        return self.domain.arity

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluator(self.domain.clip(point)))


@dataclass(frozen=True)
class JointSpectrum:
    """Common eigenbasis and the m joint eigenvalue n-vectors of a commuting tuple."""

    basis: np.ndarray
    points: np.ndarray  # shape (m, n); row j = joint eigenvalues of eigenvector j
    residuals: np.ndarray  # (n,) off-diagonal norms in the basis; they widen the points (Weyl)

    def __post_init__(self) -> None:
        for name, dtype in (("basis", complex), ("points", float), ("residuals", float)):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), dtype=dtype)))

    @property
    def lambda_min(self) -> np.ndarray:
        return self.points.min(axis=0) - self.residuals

    @property
    def lambda_max(self) -> np.ndarray:
        return self.points.max(axis=0) + self.residuals

    @property
    def op_norm(self) -> np.ndarray:
        return np.maximum(np.abs(self.lambda_max), np.abs(self.lambda_min))

    def within(self, members: Sequence[HermitianMatrix], tol: Tolerance) -> bool:
        """True iff each member's residual is at most ``rtol * (1 + ||x_i||_F)``."""
        return all(r <= tol.rtol * (1.0 + x.norm()) for r, x in zip(self.residuals, members))


def _refine_blocks(members, u, cols, k, lam) -> None:
    """Split ``cols`` into clusters of member k's eigenvalues ``lam`` and
    diagonalize member k+1 inside each cluster of two or more columns."""
    if k + 1 >= len(members):
        return
    gap_cap = _CLUSTER_GAP_FACTOR * members[k].norm()
    start = 0
    for i in range(1, len(cols) + 1):
        if i == len(cols) or lam[i - 1] - lam[i] > gap_cap:
            cluster = cols[start:i]
            start = i
            if len(cluster) > 1:
                # the block carries rounding at the scale of the whole member;
                # the shift puts the kernel's stop threshold at that scale too,
                # so rounding alone never rotates (and so mixes) the cluster
                x = members[k + 1]
                sub = u[:, cluster]
                block = sub.conj().T @ x.entries @ sub + x.norm() * np.eye(len(cluster))
                es = eig_hermitian(HermitianMatrix(block))
                u[:, cluster] = sub @ es.basis
                _refine_blocks(members, u, cluster, k + 1, es.eigenvalues)


def joint_diagonalize(t: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> JointSpectrum:
    """The joint spectrum ``t`` was admitted by (see :class:`AbelianTuple`).

    Deterministic and built once per tuple, whatever the ``tol``; raises
    :class:`JointDiagonalizationError` when a member's residual exceeds this
    call's ``rtol * (1 + ||x||_F)``, which only a tol stricter than the
    tuple's own can do.
    """
    if not t.joint.within(t.members, tol):
        raise JointDiagonalizationError("a member's off-diagonal residual is above tolerance")
    return t.joint


def spectrum_in_cube(t: AbelianTuple, cube: Cube, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every member's joint-spectrum bounds sit in its interval, inflated by the slack.

    A cube of another arity holds no spectrum of the tuple.
    """
    if cube.arity != t.n:
        return False
    js = joint_diagonalize(t, tol)
    for low, high, (lo, hi) in zip(js.lambda_min, js.lambda_max, cube.intervals):
        pad = tol.rtol * (1.0 + abs(lo) + abs(hi))
        if not lo - pad <= low or not high <= hi + pad:  # a NaN bound is outside
            return False
    return True


def memberwise_leq(x: AbelianTuple, y: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``x_i <= y_i`` in the Loewner order for every member index i.

    Each order is read by :func:`loewner_leq`, whose Cholesky certificate
    settles it without the kernel unless it cannot prove the order.  Unequal
    shapes raise ``ValueError``.
    """
    if x.n != y.n or x.dim != y.dim:
        raise ValueError(f"shape mismatch: arity {x.n}, dim {x.dim} vs arity {y.n}, dim {y.dim}")
    return all(loewner_leq(a, b, tol) for a, b in zip(x.members, y.members))


def apply_cube_function(
    f: CubeFunction,
    t: AbelianTuple,
    tol: Tolerance = DEFAULT_TOL,
) -> HermitianMatrix:
    """Evaluate ``f`` on the tuple through its joint spectrum.

    The joint eigenvalue vectors are clipped onto the cube before evaluation;
    clipping only ever moves a coordinate by the containment slack since
    ``spectrum_in_cube`` is a precondition.  The result carries its
    decomposition: the values of ``f`` in the joint eigenbasis.
    """
    if f.arity != t.n:
        raise ValueError(f"cube arity {f.arity} does not match tuple arity {t.n}")
    if not spectrum_in_cube(t, f.domain, tol):
        raise SpectrumDomainError(f"tuple spectrum escapes the domain of {f.name!r}")
    js = joint_diagonalize(t, tol)
    return _spectral_matrix(js.basis, np.array([f(row) for row in js.points]))


def check_compatible(x: AbelianTuple, y: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the abelian tuples x and y form a compatible pair.

    Compatibility is the pairwise identity ``[x_i, y_j] == [x_j, y_i]``; with
    both tuples abelian it makes every point of the segment between them an
    abelian tuple.  For Hermitian members ``[x_i, y_j] - [x_j, y_i] = d - d*``
    with ``d = x_i y_j - x_j y_i``, the form :func:`commutator_norm` uses.
    """
    xs, ys = x.members, y.members
    if x.n != y.n or x.dim != y.dim:
        raise ValueError(f"shape mismatch: arity {x.n}, dim {x.dim} vs arity {y.n}, dim {y.dim}")
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            d = xs[i].entries @ ys[j].entries - xs[j].entries @ ys[i].entries
            scale = 1.0 + xs[i].norm() * ys[j].norm() + xs[j].norm() * ys[i].norm()
            if not np.linalg.norm(d - d.conj().T) <= tol.rtol * scale:
                return False
    return True
