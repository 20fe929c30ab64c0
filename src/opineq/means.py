"""Operator geometric mean, its quadrature oracle, root-product chains, and trace monotonicity checks."""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from . import verdict
from .abelian import AbelianTuple, check_commuting, joint_diagonalize, memberwise_leq
from .linalg import (
    DEFAULT_QUADRATURE_NODES,
    DEFAULT_TOL,
    EigenSystem,
    HermitianMatrix,
    SpectrumDomainError,
    Tolerance,
    _cholesky_certificate,
    _spectral_matrix,
    eig_hermitian,
    matrix_power,
    psd_eigensystem,
    psd_margin,
    worst_gap,
)
from .state import DiagonalState, state_trace
from .verdict import Verdict

_REGULARIZATION_FACTOR = 1e-10


def geometric_mean(
    x: HermitianMatrix, y: HermitianMatrix, tol: Tolerance = DEFAULT_TOL
) -> HermitianMatrix:
    """Operator geometric mean ``x^(1/2) (x^(-1/2) y x^(-1/2))^(1/2) x^(1/2)``.

    By congruence invariance it equals ``L (L^-1 y L^-*)^(1/2) L*`` for any
    factor ``x = L L*`` (Bhatia, *Positive Definite Matrices*, 2007, ch. 4).
    When the checked Cholesky floors of both arguments exceed ``1e-10 (1 +
    ||x||_F + ||y||_F)``, the mean takes that form, and the kernel runs on
    the inner matrix alone.  Every other pair is decomposed: each argument
    must be PSD at tolerance, and one whose smallest eigenvalue is at most
    ``eps = 1e-10 (1 + ||x||_op + ||y||_op)`` has both arguments lifted by
    ``eps`` before the closed form.  The mean extends continuously to the
    PSD cone, so this realizes the extension within tolerance while leaving
    well-conditioned inputs untouched; the Frobenius norms bound the
    operator norms, so a certified pair is one that would not be lifted.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    low, low_inv, floor = _cholesky_certificate(x)
    bound = _REGULARIZATION_FACTOR * (1.0 + x.norm() + y.norm())
    if floor > bound and _cholesky_certificate(y)[2] > bound:
        return _congruence_mean(low, low_inv, y.entries)
    ex = psd_eigensystem(x, tol, "first argument")
    ey = psd_eigensystem(y, tol, "second argument")
    eps = _REGULARIZATION_FACTOR * (1.0 + ex.op_norm + ey.op_norm)
    if ex.lambda_min <= eps or ey.lambda_min <= eps:
        # lifting keeps each basis and the order of the values
        ex, ey = (EigenSystem(np.maximum(es.eigenvalues, 0.0) + eps, es.basis) for es in (ex, ey))
    rx = ex.reconstruct(np.sqrt(ex.eigenvalues)).entries
    rx_inv = ex.reconstruct(1.0 / np.sqrt(ex.eigenvalues)).entries
    return _congruence_mean(rx, rx_inv, ey.reconstruct().entries)


def _congruence_mean(f: np.ndarray, g: np.ndarray, y: np.ndarray) -> HermitianMatrix:
    """``f (g y g*)^(1/2) f*`` for ``g = f^-1``: the mean of ``f f*`` and ``y``; one kernel run.

    With ``g y g* = U diag(mu) U*`` it is ``h h*`` for ``h = f U diag(mu^(1/4))``.
    """
    ei = eig_hermitian(HermitianMatrix(g @ y @ g.conj().T))
    h = (f @ ei.basis) * np.maximum(ei.eigenvalues, 0.0) ** 0.25
    return HermitianMatrix(h @ h.conj().T)


@functools.cache
def _quadrature_rule() -> tuple[np.ndarray, np.ndarray]:
    """Per-node ``tan(theta)^2`` and ``w (pi/4) sec(theta)^2`` of the rule on ``[0, pi/2]``.

    Built on first use, not at import: ``leggauss`` solves a
    ``DEFAULT_QUADRATURE_NODES``-point eigenvalue problem.  The arrays are
    read-only because every caller shares them.
    """
    nodes, weights = np.polynomial.legendre.leggauss(DEFAULT_QUADRATURE_NODES)
    theta = (np.pi / 4.0) * (nodes + 1.0)
    tan2 = np.tan(theta) ** 2
    coef = (weights * (np.pi / 4.0)) * (1.0 / np.cos(theta) ** 2)
    tan2.flags.writeable = False
    coef.flags.writeable = False
    return tan2, coef


def geometric_mean_quadrature(
    x: HermitianMatrix, y: HermitianMatrix, tol: Tolerance = DEFAULT_TOL
) -> HermitianMatrix:
    """Independent oracle for the geometric mean through its integral representation.

    The mean equals ``(1/2pi) int_0^inf 2 (x^-1 + t y^-1)^-1 t^(-1/2) dt``;
    substituting ``t = tan(theta)^2`` turns this into a smooth integral over
    ``[0, pi/2]``, evaluated with ``DEFAULT_QUADRATURE_NODES`` Gauss-Legendre
    nodes (the rule is built once per process).  Requires strictly positive
    definite inputs: an argument whose smallest eigenvalue is at most
    ``rtol (1 + ||a||_op)`` is refused.  Its checked Cholesky floor, shared
    with :func:`geometric_mean`, admits an argument whose floor exceeds
    ``rtol (1 + ||a||_F)``; only an argument it leaves unproven is
    decomposed.  All nodes go through one stacked inversion of ``x^-1 + t_k
    y^-1``, one LAPACK solve per node, so the integral stays independent of
    the closed form and never runs the Jacobi eigensolver on a certified
    argument.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    for name, a in (("x", x), ("y", y)):
        if _cholesky_certificate(a)[2] > tol.rtol * (1.0 + a.norm()):
            continue  # the floor clears the slack below, since ||a||_F >= ||a||_op
        lam, slack = psd_margin(eig_hermitian(a), tol)
        if lam <= slack:
            raise SpectrumDomainError(f"{name} is singular at tolerance; regularize first")
    tan2, coef = _quadrature_rule()
    x_inv = np.linalg.inv(x.entries)
    y_inv = np.linalg.inv(y.entries)
    invs = np.linalg.inv(x_inv + tan2[:, None, None] * y_inv)
    return HermitianMatrix((2.0 / np.pi) * np.tensordot(coef, invs, 1))


def _psd_members(t: AbelianTuple, tol: Tolerance) -> bool:
    """True iff every member's joint lower bound clears its PSD slack."""
    lam, slack = psd_margin(joint_diagonalize(t, tol), tol)
    return bool(np.all(lam >= -slack))


def _power_product(t: AbelianTuple, exponents: Sequence[float], tol: Tolerance) -> HermitianMatrix:
    if not _psd_members(t, tol):
        raise SpectrumDomainError("power product members must be positive semidefinite")
    js = joint_diagonalize(t, tol)
    return _spectral_matrix(js.basis, np.prod(np.maximum(js.points, 0.0) ** exponents, axis=1))


def root_product_chain(t: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> HermitianMatrix:
    """Ordered product of the ``2^(n-1)``-th roots of the members.

    The members commute, so the product is the joint functional calculus of
    ``prod_i max(s_i, 0)^(1/2^(n-1))``; the members must be PSD at tolerance.
    """
    return _power_product(t, (1.0 / 2.0 ** (t.n - 1),) * t.n, tol)


def check_root_product_chain(
    x: AbelianTuple, y: AbelianTuple, tol: Tolerance = DEFAULT_TOL
) -> Verdict:
    """Check ``root_product_chain(x) <= root_product_chain(y)``; invalid unless ``0 <= x <= y``."""
    if x.n != y.n or x.dim != y.dim:
        return verdict.invalid("shape mismatch")
    if not memberwise_leq(x, y, tol):
        return verdict.invalid("x <= y fails memberwise")
    for name, t in (("x", x), ("y", y)):
        if not _psd_members(t, tol):
            return verdict.invalid(f"{name} is not PSD")
    diff = root_product_chain(y, tol) - root_product_chain(x, tol)
    return verdict.from_gap(*psd_margin(eig_hermitian(diff), tol))


def check_lowner_heinz(
    x: HermitianMatrix,
    y: HermitianMatrix,
    alphas: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Check ``x^alpha <= y^alpha`` at every alpha in [0, 1], given ``0 <= x <= y``.

    The hypotheses are tested once for the pair; a violated one is an invalid
    verdict naming its reason, reported distinctly from a false
    comparison (which would indicate an implementation bug, not a
    counterexample).  Every alpha decides pass/fail and records its own gap
    in its part; the verdict's gap and slack are the tightest link's among
    the alphas strictly inside (0, 1), or among all alphas when none is.
    """
    if not alphas or not all(0.0 <= alpha <= 1.0 for alpha in alphas):
        raise ValueError(f"alphas must be a non-empty list in [0, 1], got {alphas}")
    d = y - x
    ex, ed, ey = map(eig_hermitian, (x, d, y))
    for reason, es in (("x is not positive semidefinite", ex), ("x <= y fails", ed),
                       ("y is not positive semidefinite", ey)):
        lam, slack = psd_margin(es, tol)
        if lam < -slack:
            return verdict.invalid(reason)
    diffs = [d if a == 1.0 else matrix_power(y, a, tol) - matrix_power(x, a, tol) for a in alphas]
    links = []
    for alpha, diff in zip(alphas, diffs):
        gap, slack = psd_margin(eig_hermitian(diff), tol)
        links.append(verdict.from_gap(gap, slack, alpha=alpha, gap=gap))
    # the endpoint links are I - I and the hypothesis y - x itself, so the
    # reported gap is the tightest interior link's when there is one
    tight = verdict.combine(*[v for v in links if 0.0 < v.detail["alpha"] < 1.0] or links)
    merged = verdict.combine(*links)
    return Verdict(merged.status, tight.gap, {**merged.detail, "slack": tight.detail["slack"]})


def check_trace_power_monotone(
    x: AbelianTuple,
    y: AbelianTuple,
    p: Sequence[float],
    rho: DiagonalState,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Check ``phi(x1^p1 ... xn^pn) <= phi(y1^p1 ... yn^pn)``.

    Hypotheses: x and y PSD, memberwise Loewner order, all members in the
    centralizer of the state, nonnegative exponents; both tuples are abelian
    by type.  A violated hypothesis produces an invalid verdict so campaign
    statistics never count a malformed instance as confirmation, with one
    exception: a negative exponent raises ``ValueError`` before any check runs.
    """
    p = tuple(float(v) for v in p)
    if any(v < 0 for v in p):
        raise ValueError(f"exponents must be nonnegative, got {p}")
    xs, ys = x.members, y.members
    if len(xs) != len(ys) or len(xs) != len(p):
        return verdict.invalid(f"arity mismatch: x {len(xs)}, y {len(ys)}, p {len(p)}")
    if x.dim != rho.dim or y.dim != rho.dim:
        return verdict.invalid("dimension mismatch against the state")
    if not memberwise_leq(x, y, tol):
        return verdict.invalid("x <= y fails memberwise")
    for name, t in (("x", x), ("y", y)):
        if not _psd_members(t, tol):
            return verdict.invalid(f"{name} is not PSD")
    rho_m = rho.matrix()
    if not all(check_commuting([rho_m, a], tol) for a in xs + ys):
        return verdict.invalid("members leave the centralizer of the state")
    lhs = state_trace(rho, _power_product(x, p, tol))
    rhs = state_trace(rho, _power_product(y, p, tol))
    return verdict.from_gap(*worst_gap([lhs], [rhs], tol), lhs=lhs, rhs=rhs, exponents=p)

