"""Operator geometric mean, its quadrature oracle, root-product chains, and trace monotonicity checks."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import verdict
from .abelian import AbelianTuple, check_commuting, memberwise_leq
from .linalg import (
    DEFAULT_QUADRATURE_NODES,
    DEFAULT_TOL,
    EigenSystem,
    HermitianMatrix,
    Tolerance,
    decompose,
    eig_hermitian,
    is_psd,
    matrix_power,
    psd_eigensystem,
    psd_margin,
    worst_gap,
)
from .state import DiagonalState, state_trace
from .verdict import Verdict

_REGULARIZATION_FACTOR = 1e-10


class SingularInputError(ValueError):
    """The quadrature oracle needs strictly positive definite inputs."""


@dataclass(frozen=True)
class ExponentVector:
    """Nonnegative exponents, one per tuple member."""

    p: tuple[float, ...]

    def __post_init__(self) -> None:
        p = tuple(float(v) for v in self.p)
        if any(v < 0 for v in p):
            raise ValueError(f"exponents must be nonnegative, got {p}")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return len(self.p)


def geometric_mean(
    x: HermitianMatrix, y: HermitianMatrix, tol: Tolerance = DEFAULT_TOL
) -> HermitianMatrix:
    """Operator geometric mean ``x^(1/2) (x^(-1/2) y x^(-1/2))^(1/2) x^(1/2)``.

    Near-singular inputs are lifted by ``eps = 1e-10 (1 + ||x|| + ||y||)``
    on both arguments before the closed form; the mean extends continuously
    to the PSD cone, so this realizes the extension within tolerance while
    leaving well-conditioned inputs untouched.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    decompose([x, y])
    ex = psd_eigensystem(x, tol, "first argument")
    ey = psd_eigensystem(y, tol, "second argument")
    eps = _REGULARIZATION_FACTOR * (1.0 + ex.op_norm + ey.op_norm)
    if ex.lambda_min <= eps or ey.lambda_min <= eps:
        # lifting keeps each basis and the order of the values
        ex, ey = (EigenSystem(np.maximum(es.eigenvalues, 0.0) + eps, es.basis) for es in (ex, ey))
    rx = ex.reconstruct(np.sqrt(ex.eigenvalues)).entries
    rx_inv = ex.reconstruct(1.0 / np.sqrt(ex.eigenvalues)).entries
    inner = HermitianMatrix(rx_inv @ ey.reconstruct().entries @ rx_inv)
    ei = eig_hermitian(inner)
    core = ei.reconstruct(np.sqrt(np.maximum(ei.eigenvalues, 0.0))).entries
    return HermitianMatrix(rx @ core @ rx)


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
    definite inputs.  All nodes go through one stacked inversion of
    ``x^-1 + t_k y^-1``, one LAPACK solve per node, so the integral stays
    independent of the closed form and never runs the Jacobi eigensolver.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    for name, a in (("x", x), ("y", y)):
        lam, slack = psd_margin(eig_hermitian(a), tol)
        if lam <= slack:
            raise SingularInputError(f"{name} is singular at tolerance; regularize first")
    tan2, coef = _quadrature_rule()
    x_inv = np.linalg.inv(x.entries)
    y_inv = np.linalg.inv(y.entries)
    invs = np.linalg.inv(x_inv + tan2[:, None, None] * y_inv)
    return HermitianMatrix((2.0 / np.pi) * np.tensordot(coef, invs, 1))


def _power_product(members, exponents: Sequence[float], tol: Tolerance) -> HermitianMatrix:
    prod = np.eye(members[0].dim, dtype=complex)
    for x, expo in zip(members, exponents):
        prod = prod @ matrix_power(x, expo, tol).entries
    return HermitianMatrix(prod)


def root_product_chain(t: AbelianTuple, tol: Tolerance = DEFAULT_TOL) -> HermitianMatrix:
    """Ordered product of the ``2^(n-1)``-th roots of the members.

    The members commute, so the product is Hermitian; it agrees with the
    joint functional calculus for ``prod_i s_i^(1/2^(n-1))``.
    """
    return _power_product(t.members, (1.0 / 2.0 ** (t.n - 1),) * t.n, tol)


def check_lowner_heinz(
    x: HermitianMatrix,
    y: HermitianMatrix,
    alphas: Sequence[float],
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Check ``x^alpha <= y^alpha`` at every alpha in [0, 1], given ``0 <= x <= y``.

    The hypotheses are tested once for the pair; a violated one is an invalid
    verdict naming its reason once per alpha, reported distinctly from a false
    comparison (which would indicate an implementation bug, not a
    counterexample).  The alphas' verdicts are merged by ``verdict.combine``.
    """
    if not alphas or not all(0.0 <= alpha <= 1.0 for alpha in alphas):
        raise ValueError(f"alphas must be a non-empty list in [0, 1], got {alphas}")
    ex, ed, _ = decompose([x, y - x, y])
    for reason, es in (("x is not positive semidefinite", ex), ("x <= y fails", ed)):
        lam, slack = psd_margin(es, tol)
        if lam < -slack:
            return verdict.combine(*[verdict.invalid(reason)] * len(alphas))
    diffs = [matrix_power(y, alpha, tol) - matrix_power(x, alpha, tol) for alpha in alphas]
    return verdict.combine(
        *[
            verdict.from_gap(*psd_margin(es, tol), alpha=alpha)
            for alpha, es in zip(alphas, decompose(diffs))
        ]
    )


def check_trace_power_monotone(
    x: AbelianTuple,
    y: AbelianTuple,
    p: ExponentVector | Sequence[float],
    rho: DiagonalState,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Check ``phi(x1^p1 ... xn^pn) <= phi(y1^p1 ... yn^pn)``.

    Hypotheses: x PSD, memberwise Loewner order, all members in the
    centralizer of the state, nonnegative exponents; both tuples are abelian
    by type.  A violated hypothesis produces an invalid verdict so campaign
    statistics never count a malformed instance as confirmation, with one
    exception: a negative exponent passed as a plain sequence raises
    ``ValueError`` from :class:`ExponentVector` before any check runs.
    """
    if not isinstance(p, ExponentVector):
        p = ExponentVector(tuple(p))
    xs, ys = x.members, y.members
    if len(xs) != len(ys) or len(xs) != p.n:
        return verdict.invalid(f"arity mismatch: x {len(xs)}, y {len(ys)}, p {p.n}")
    if x.dim != rho.dim or y.dim != rho.dim:
        return verdict.invalid("dimension mismatch against the state")
    if not memberwise_leq(x, y, tol):
        return verdict.invalid("x <= y fails memberwise")
    if not all(is_psd(a, tol) for a in xs):
        return verdict.invalid("x is not PSD")
    rho_m = rho.matrix()
    if not all(check_commuting([rho_m, a], tol) for a in xs + ys):
        return verdict.invalid("members leave the centralizer of the state")
    lhs = state_trace(rho, _power_product(xs, p.p, tol))
    rhs = state_trace(rho, _power_product(ys, p.p, tol))
    return verdict.from_gap(*worst_gap([lhs], [rhs], tol), lhs=lhs, rhs=rhs, exponents=p.p)

