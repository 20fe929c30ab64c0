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
    Tolerance,
    _spectral_matrix,
    decompose,
    eig_hermitian,
    is_psd,
)

# Jacobi stops once the off-diagonal mass is below 1e-14 * ||x||_F, so its
# eigenvectors at relative eigenvalue gap g are accurate to about 1e-14 / g,
# and that error shows up in the other members' off-diagonal residuals,
# which must stay under rtol = 1e-9.  Gaps below 1e-5 relative (a residual
# of at most ~1e-9 relative) are therefore merged into one cluster and left
# for the next member to resolve.
_CLUSTER_GAP_FACTOR = 1e-5


class JointDiagonalizationError(RuntimeError):
    """A member's off-diagonal residual stayed above tolerance after block refinement."""


class CubeDomainError(ValueError):
    """A tuple's joint spectrum escapes the declared domain cube."""


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
            if commutator_norm(members[i], members[j]) > bound:
                return False
    return True


@dataclass(frozen=True)
class AbelianTuple:
    """Ordered family of pairwise-commuting Hermitian matrices of one dimension."""

    members: tuple[HermitianMatrix, ...]
    tol: Tolerance = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("an abelian tuple needs at least one member")
        object.__setattr__(self, "members", members)
        if not check_commuting(members, self.tol):
            raise ValueError("members do not commute within tolerance")

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
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "intervals", ivs)

    @property
    def arity(self) -> int:
        return len(self.intervals)

    def clip(self, point: Sequence[float]) -> tuple[float, ...]:
        return tuple(
            min(max(float(s), lo), hi) for s, (lo, hi) in zip(point, self.intervals)
        )


def uniform_cube(n: int, lo: float, hi: float) -> Cube:
    return Cube(tuple((lo, hi) for _ in range(n)))


@dataclass(frozen=True)
class CubeFunction:
    """Real function of n variables on a cube, with declared shape flags.

    Flags are declarations, not inferences; ``opineq.harness.verify_flags``
    audits them by randomized probing.
    """

    name: str
    arity: int
    domain: Cube
    evaluator: Callable[[Sequence[float]], float]
    convex: bool = False
    concave: bool = False
    separately_increasing: bool = False

    def __post_init__(self) -> None:
        if self.domain.arity != self.arity:
            raise ValueError("domain arity does not match declared arity")

    def __call__(self, point: Sequence[float]) -> float:
        return float(self.evaluator(self.domain.clip(point)))


@dataclass(frozen=True)
class JointSpectrum:
    """Common eigenbasis and the m joint eigenvalue n-vectors of a commuting tuple."""

    basis: np.ndarray
    points: np.ndarray  # shape (m, n); row j = joint eigenvalues of eigenvector j

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=complex)
        p = np.asarray(self.points, dtype=float)
        b.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "points", p)


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
    """Simultaneous diagonalization of a commuting tuple by block refinement.

    The basis starts as member 0's eigenbasis (memoized on the member); each
    cluster of nearly equal eigenvalues is then refined by diagonalizing the
    next member inside it, recursively (Bunse-Gerstner, Byers & Mehrmann,
    SIAM J. Matrix Anal. Appl. 14(4), 1993).  Deterministic for a fixed
    tuple.  Raises :class:`JointDiagonalizationError` when some member's
    off-diagonal residual exceeds ``rtol * (1 + ||x||_F)``.
    """
    members = t.members
    es = eig_hermitian(members[0])
    u = es.basis.copy()
    _refine_blocks(members, u, np.arange(t.dim), 0, es.eigenvalues)
    points = []
    for x in members:
        conj = u.conj().T @ x.entries @ u
        diag = np.diag(conj)
        if np.linalg.norm(conj - np.diag(diag)) > tol.rtol * (1.0 + x.norm()):
            raise JointDiagonalizationError(
                "off-diagonal residual above tolerance after block refinement"
            )
        points.append(diag.real)
    return JointSpectrum(u, np.column_stack(points))


def spectrum_in_cube(t: AbelianTuple, cube: Cube, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every member's spectrum sits in its interval, inflated by the relative slack."""
    if cube.arity != t.n:
        raise ValueError(f"cube arity {cube.arity} does not match tuple arity {t.n}")
    for es, (lo, hi) in zip(decompose(t.members), cube.intervals):
        pad = tol.rtol * (1.0 + abs(lo) + abs(hi))
        if es.lambda_min < lo - pad or es.lambda_max > hi + pad:
            return False
    return True


def memberwise_leq(x: AbelianTuple, y: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``x_i <= y_i`` in the Loewner order for every member index i.

    The members of both tuples and their differences go through the kernel
    in one batch, so later spectral work on the members hits the memo.
    """
    diffs = [b - a for a, b in zip(x.members, y.members)]
    decompose([*x.members, *y.members, *diffs])
    return all(is_psd(d, tol) for d in diffs)


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
        raise ValueError(f"function arity {f.arity} does not match tuple arity {t.n}")
    if not spectrum_in_cube(t, f.domain, tol):
        raise CubeDomainError(f"tuple spectrum escapes the domain of {f.name!r}")
    js = joint_diagonalize(t, tol)
    return _spectral_matrix(js.basis, np.array([f(row) for row in js.points]))


def check_compatible(x: AbelianTuple, y: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the abelian tuples x and y form a compatible pair.

    On a positive verdict the midpoint tuple is asserted to commute —
    compatibility is equivalent to the segment between the tuples consisting
    of abelian tuples, and a midpoint failure indicates tolerance
    miscalibration, not a legitimate outcome.
    """
    xs, ys = x.members, y.members
    if len(xs) != len(ys):
        raise ValueError(f"arity mismatch: {len(xs)} vs {len(ys)}")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch between tuples")
    # [x_i, y_j] == [x_j, y_i] for all pairs, at the bilinear scale
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            lhs = xs[i].entries @ ys[j].entries - ys[j].entries @ xs[i].entries
            rhs = xs[j].entries @ ys[i].entries - ys[i].entries @ xs[j].entries
            scale = 1.0 + xs[i].norm() * ys[j].norm() + xs[j].norm() * ys[i].norm()
            if np.linalg.norm(lhs - rhs) > tol.rtol * scale:
                return False
    midpoint = [0.5 * (a + b) for a, b in zip(xs, ys)]
    relaxed = Tolerance(rtol=4 * tol.rtol)
    if not check_commuting(midpoint, relaxed):
        raise RuntimeError(
            "compatible pair whose midpoint fails the commutation check; "
            "tolerances are inconsistent"
        )
    return True
