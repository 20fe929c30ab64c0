"""Operator geometric mean, its quadrature oracle, root-product chains, and trace monotonicity checks."""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from . import verdict
from .abelian import AbelianTuple, check_commuting, joint_diagonalize, memberwise_leq
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    SpectrumDomainError,
    Tolerance,
    _EPS,
    _cholesky_certificate,
    _polar_mean,
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

    For any factors ``x = F_x F_x*`` and ``y = F_y F_y*`` it equals ``F_x U*
    F_y*``, with ``U`` the unitary polar factor of ``F_y* F_x^-*`` (Iannazzo,
    Numer. Linear Algebra Appl. 23(2), 2016), which :func:`_polar_mean`
    forms and checks with no eigensolver run.  When the checked Cholesky
    floors of both arguments exceed ``1e-10 (1 + ||x||_F + ||y||_F)``, the
    factors are the certificates' ``L_x``, ``L_x^-1`` and ``L_y``, and no
    kernel runs.  Every other pair is decomposed: each argument must be PSD
    at tolerance, and one whose smallest eigenvalue is at most ``eps = 1e-10
    (1 + ||x||_op + ||y||_op)`` has both arguments lifted by ``eps``; the
    factors are then ``basis * sqrt(values)`` and its inverse.  The mean
    extends continuously to the PSD cone, so this realizes the extension
    within tolerance while leaving well-conditioned inputs untouched; the
    Frobenius norms bound the operator norms, so a certified pair is one
    that would not be lifted.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    low, low_inv, floor = _cholesky_certificate(x)
    bound = _REGULARIZATION_FACTOR * (1.0 + x.norm() + y.norm())
    if floor > bound and (cert_y := _cholesky_certificate(y))[2] > bound:
        return _polar_mean(low, low_inv, cert_y[0])
    ex, ey = psd_eigensystem(x, tol, "first argument"), psd_eigensystem(y, tol, "second argument")
    eps = _REGULARIZATION_FACTOR * (1.0 + ex.op_norm + ey.op_norm)
    lift = eps if ex.lambda_min <= eps or ey.lambda_min <= eps else 0.0
    rx, ry = (np.sqrt(np.maximum(es.eigenvalues, 0.0) + lift) for es in (ex, ey))
    return _polar_mean(ex.basis * rx, (ex.basis / rx).conj().T, ey.basis * ry)


# Gauss-Legendre rungs the oracle may use, and the relative truncation error
# each call must meet; the target sits above the rounding floor of the
# stacked solves, so a lower one climbs the ladder for no gain in accuracy.
_QUADRATURE_RUNGS = (32, 64, 128, 256, 512, 1024)
_QUADRATURE_TARGET = 1e-12
# the error table's grid: c = 2^(i / _GRID_STEPS) for |i| <= _GRID_STEPS * _GRID_OCTAVES
_GRID_STEPS = 8
_GRID_OCTAVES = 32


@functools.cache
def _quadrature_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``n``-node rule on ``[0, pi/2]``: ``tan(theta)^2``, ``w (pi/4) sec(theta)^2`` and its error table.

    Built on first use of each rung, not at import.  The nodes come from
    ``leggauss``; the weights ``2 (1 - s^2) / (n (P_(n-1)(s) - s P_n(s)))^2``
    are evaluated by the three-term recurrence, because ``leggauss``'s are off
    by about ``1e-11`` (n = 128) to ``1e-10`` (n = 512) relative at the ends,
    which alone would hold the large-``c`` error near ``1e-12``.

    For a pair whose eigenvalue ratios ``c`` (below) lie in ``[1/kappa,
    kappa]``, the rule's relative error is at most ``max |e_n(c)|`` over that
    interval, where ``e_n(c)`` is its relative error on ``int_0^(pi/2) dtheta /
    (cos^2 + c sin^2) = pi / (2 sqrt(c))``.  ``e_n`` depends on ``c`` alone, so
    it is tabulated once per rung on a grid of eight points per octave over
    ``[2^-32, 2^32]``, from these very arrays (the rule the oracle sums).
    Entry ``i`` of the table bounds ``|e_n|`` over ``|log2 c| <= i / 8``: twice
    the running maximum of ``|e_n|`` over the grid points there, plus ``(n + 4)
    eps`` for the rounding of each tabulated value.  A running maximum,
    because ``e_n`` changes sign as ``c`` moves, so ``|e_n|`` at one end does
    not bound it inside; the factor 2 covers a peak of ``|e_n|`` between grid
    points (on a grid 32 times finer none exceeds the running maximum by more
    than 8%).  By analyticity the error falls geometrically in ``n`` at a rate
    set by the integrand's poles, which approach the interval as ``c`` leaves 1
    (Trefethen, *Approximation Theory and Approximation Practice*, 2013,
    ch. 19), so each rung serves ``kappa`` up to a reach that grows with ``n``.
    The arrays are read-only because every caller shares them.
    """
    s = np.polynomial.legendre.leggauss(n)[0]
    p_prev, p = np.ones_like(s), s
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * s * p - (k - 1) * p_prev) / k
    weights = 2.0 * (1.0 - s) * (1.0 + s) / (n * (p_prev - s * p)) ** 2
    theta = (np.pi / 4.0) * (s + 1.0)
    tan2 = np.tan(theta) ** 2
    coef = (weights * (np.pi / 4.0)) / np.cos(theta) ** 2
    mid = _GRID_STEPS * _GRID_OCTAVES
    c = 2.0 ** (np.arange(-mid, mid + 1) / _GRID_STEPS)
    err = np.abs((2.0 / np.pi) * np.sqrt(c) * ((1.0 / (1.0 + np.multiply.outer(c, tan2))) @ coef) - 1.0)
    table = 2.0 * np.maximum.accumulate(np.maximum(err[mid:], err[mid::-1])) + (n + 4) * _EPS
    for a in (tan2, coef, table):
        a.flags.writeable = False
    return tan2, coef, table


def _rule_error_bound(n: int, kappa: float) -> float:
    """Bound on the ``n``-node rule's ``|e_n(c)|`` over ``[1/kappa, kappa]``, ``kappa >= 1``; inf past the grid."""
    if not kappa < 2.0**_GRID_OCTAVES:  # also a NaN
        return math.inf
    return float(_quadrature_rule(n)[2][math.ceil(math.log2(kappa) * _GRID_STEPS)])


def _quadrature_nodes(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerance) -> int:
    """The oracle's guard, then the smallest rung whose bound meets the target for this pair.

    Each argument needs a lower bound ``l > 0`` on its smallest eigenvalue:
    its checked Cholesky floor (shared with :func:`geometric_mean`) when that
    exceeds ``rtol (1 + ||a||_F)``, else the kernel's ``lambda_min``, which
    must exceed ``rtol (1 + ||a||_op)``.  Then ``kappa = max(||x||_F / l_y,
    ||y||_F / l_x) >= 1``.

    Why ``kappa`` sizes the rule: with ``x = L L*`` and ``L* y^-1 L = U diag(c)
    U*``, each node's ``(x^-1 + t y^-1)^-1`` is ``L U diag(1 / (1 + t c)) U*
    L*``, so the ``N``-node result is ``H diag(1 + e_N(c_j)) H*`` for the exact
    mean ``G = H H*``, ``H = L U diag(c^(-1/4))`` (the congruence of Bhatia,
    *Positive Definite Matrices*, 2007, ch. 4), and ``||G_N - G||_2 <= max_j
    |e_N(c_j)| ||G||_2``.  The ``c_j`` are the eigenvalues of ``y^-1 x``, so
    they lie in ``[l_x / ||y||_F, ||x||_F / l_y]``, inside ``[1/kappa,
    kappa]``.  A pair no rung serves raises ``SpectrumDomainError``.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    floors = []
    for name, a in (("x", x), ("y", y)):
        floor = _cholesky_certificate(a)[2]
        if not floor > tol.rtol * (1.0 + a.norm()):  # the floor leaves a unproven
            floor, slack = psd_margin(eig_hermitian(a), tol)
            if floor <= slack:
                raise SpectrumDomainError(f"{name} is singular at tolerance; regularize first")
        floors.append(floor)
    kappa = max(x.norm() / floors[1], y.norm() / floors[0])
    for n in _QUADRATURE_RUNGS:
        if _rule_error_bound(n, kappa) <= _QUADRATURE_TARGET:
            return n
    raise SpectrumDomainError(
        f"x and y are too far apart for the quadrature (kappa {kappa:.3g} needs more "
        f"than {_QUADRATURE_RUNGS[-1]} nodes)"
    )


def geometric_mean_quadrature(
    x: HermitianMatrix, y: HermitianMatrix, tol: Tolerance = DEFAULT_TOL
) -> HermitianMatrix:
    """Independent oracle for the geometric mean through its integral representation.

    The mean equals ``(1/2pi) int_0^inf 2 (x^-1 + t y^-1)^-1 t^(-1/2) dt``;
    substituting ``t = tan(theta)^2`` turns this into a smooth integral over
    ``[0, pi/2]``, evaluated with an ``N``-node Gauss-Legendre rule.  ``N`` is
    the smallest of 32, 64, ..., 1024 whose truncation bound, read from the
    pair's certified conditioning ``kappa``, is at most ``1e-12 ||G||_2``
    (:func:`_quadrature_nodes`); each rung's rule is built once per process.
    A pair beyond the top rung's reach (``kappa`` above about ``3.4e7``)
    raises ``SpectrumDomainError``, as does an argument whose smallest
    eigenvalue is at most ``rtol (1 + ||a||_op)``.  Its checked Cholesky
    floor, shared with :func:`geometric_mean`, admits an argument whose floor
    exceeds ``rtol (1 + ||a||_F)``; only an argument it leaves unproven is
    decomposed.  All nodes go through one stacked inversion of ``x^-1 + t_k
    y^-1``, one LAPACK solve per node, summed by one matmul, so the integral
    stays independent of the closed form and never runs the Jacobi
    eigensolver on a certified argument.
    """
    n = _quadrature_nodes(x, y, tol)
    tan2, coef, _ = _quadrature_rule(n)
    x_inv = np.linalg.inv(x.entries)
    y_inv = np.linalg.inv(y.entries)
    invs = np.linalg.inv(x_inv + tan2[:, None, None] * y_inv)
    return HermitianMatrix((2.0 / np.pi) * (coef @ invs.reshape(n, -1)).reshape(x.dim, x.dim))


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

    Unequal dimensions give an invalid verdict before anything is computed.
    The hypotheses are tested once for the pair; a violated one is an invalid
    verdict naming its reason, reported distinctly from a false
    comparison (which would indicate an implementation bug, not a
    counterexample).  Every alpha decides pass/fail and records its own gap
    in its part; the verdict's gap and slack are the tightest link's among
    the alphas strictly inside (0, 1), or among all alphas when none is.
    """
    if not alphas or not all(0.0 <= alpha <= 1.0 for alpha in alphas):
        raise ValueError(f"alphas must be a non-empty list in [0, 1], got {alphas}")
    if x.dim != y.dim:
        return verdict.invalid("shape mismatch")
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
    statistics never count a malformed instance as confirmation; an exponent
    that is negative, infinite or NaN is one.
    """
    p = tuple(float(v) for v in p)
    if not all(0 <= v < math.inf for v in p):
        return verdict.invalid("exponents must be finite and nonnegative")
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

