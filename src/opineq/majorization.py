"""Weak majorization: eigenvalue partial sums, the top-k frame bound, and the convexity checks."""

from __future__ import annotations

import numpy as np

from . import verdict
from .abelian import (
    AbelianTuple,
    CubeFunction,
    apply_cube_function,
    check_compatible,
    memberwise_leq,
    spectrum_in_cube,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerance,
    _unitary_defect,
    eig_hermitian,
    worst_gap,
)
from .pinching import ColumnField, TupleField, compress
from .verdict import Verdict


def partial_sums(a: HermitianMatrix) -> np.ndarray:
    """Prefix sums of the descending eigenvalues; the last one is the trace."""
    return np.cumsum(eig_hermitian(a).eigenvalues)


def wmaj_verdict(
    a: HermitianMatrix, b: HermitianMatrix, tol: Tolerance = DEFAULT_TOL, **detail
) -> Verdict:
    """Verdict on ``a`` weakly majorized by ``b``: the tightest top-k partial-sum link.

    Keyword ``detail`` entries are recorded on the verdict next to the slack.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return verdict.from_gap(*worst_gap(partial_sums(a), partial_sums(b), tol), **detail)


def weak_majorize(a: HermitianMatrix, b: HermitianMatrix, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every top-k eigenvalue partial sum of ``a`` is at most that of ``b``."""
    return wmaj_verdict(a, b, tol).passed


def kyfan_check(a: HermitianMatrix, u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Top-k maximum principle: ``sum_i <a u_i, u_i> <= sum of the k largest eigenvalues``.

    ``u`` is an m-by-k orthonormal frame; a non-orthonormal frame gives an
    invalid verdict.  Equality is attained when the frame spans the top-k
    eigenspace.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if u.shape[0] != a.dim or not 1 <= u.shape[1] <= a.dim:
        return verdict.invalid(f"frame shape {u.shape} does not fit dimension {a.dim}")
    k = u.shape[1]
    defect = _unitary_defect(u)
    if not defect <= tol.rtol * k:
        return verdict.invalid(f"frame is not orthonormal: defect {defect}")
    lhs = float(np.real(np.trace(u.conj().T @ a.entries @ u)))
    rhs = float(partial_sums(a)[k - 1])
    return verdict.from_gap(*worst_gap([lhs], [rhs], tol), k=k, lhs=lhs, rhs=rhs)


def check_thm5(
    f: CubeFunction,
    field_: ColumnField,
    tf: TupleField,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Compression-majorization check for convex f.

    ``f(sum_t w_t a_t* x_t a_t)`` is weakly majorized by
    ``sum_t w_t a_t* f(x_t) a_t``, provided the compressed tuple is abelian
    (automatic for one variable).  A non-abelian compression is an invalid
    instance, not a counterexample.
    """
    if not f.convex:
        return verdict.invalid(f"{f.name!r} is not flagged convex")
    if not tf.in_domain(f.domain, tol):
        return verdict.invalid("an atom leaves the domain cube")
    try:
        y = AbelianTuple(compress(field_, tf), tol)
    except ValueError:
        return verdict.invalid("compression is not abelian")
    if not spectrum_in_cube(y, f.domain, tol):
        return verdict.invalid("compressed tuple leaves the domain cube")
    lhs = apply_cube_function(f, y, tol)
    rhs = field_.conjugate_sum([apply_cube_function(f, t, tol) for t in tf.atoms])
    return wmaj_verdict(lhs, rhs, tol)


def check_corollary(
    f: CubeFunction,
    x: AbelianTuple,
    y: AbelianTuple,
    lam: float,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Convex-combination majorization for compatible tuples.

    ``f(lam x + (1-lam) y)`` is weakly majorized by
    ``lam f(x) + (1-lam) f(y)``; compatibility makes every point of the
    segment an abelian tuple.  The one-variable case needs no compatibility
    beyond each tuple being a single matrix.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if not f.convex:
        return verdict.invalid(f"{f.name!r} is not flagged convex")
    if not check_compatible(x, y, tol):
        return verdict.invalid("tuples are not compatible")
    if not (spectrum_in_cube(x, f.domain, tol) and spectrum_in_cube(y, f.domain, tol)):
        return verdict.invalid("a tuple leaves the domain cube")
    if not 0.0 < lam < 1.0:
        # at lam = 1 (0) the mix is x (y) itself, and both sides are its f
        lhs = rhs = apply_cube_function(f, x if lam else y, tol)
        return wmaj_verdict(lhs, rhs, tol, lam=lam)
    mixed = tuple(
        HermitianMatrix(lam * a.entries + (1 - lam) * b.entries)
        for a, b in zip(x.members, y.members)
    )
    try:
        mix = AbelianTuple(mixed, tol)
    except ValueError:
        return verdict.invalid("convex combination fails the commutation check")
    lhs = apply_cube_function(f, mix, tol)
    fx = apply_cube_function(f, x, tol)
    fy = apply_cube_function(f, y, tol)
    rhs = HermitianMatrix(lam * fx.entries + (1 - lam) * fy.entries)
    return wmaj_verdict(lhs, rhs, tol, lam=lam)


def check_thm6(
    f: CubeFunction,
    x: AbelianTuple,
    y: AbelianTuple,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Order-to-majorization check for convex, separately increasing f.

    ``x <= y`` memberwise implies ``f(x)`` weakly majorized by ``f(y)``;
    the two tuples need not commute with each other.
    """
    if not (f.convex and f.separately_increasing):
        return verdict.invalid(f"{f.name!r} must be convex and separately increasing")
    if x.n != y.n or x.dim != y.dim:
        return verdict.invalid("shape mismatch")
    if not memberwise_leq(x, y, tol):
        return verdict.invalid("x <= y fails memberwise")
    if not (spectrum_in_cube(x, f.domain, tol) and spectrum_in_cube(y, f.domain, tol)):
        return verdict.invalid("a tuple leaves the domain cube")
    return wmaj_verdict(apply_cube_function(f, x, tol), apply_cube_function(f, y, tol), tol)
