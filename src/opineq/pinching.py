"""Jensen-type inequality checks under pinching, column fields, and the spectral measure.

Finite-dimensional setting throughout: the abelian subalgebra is the diagonal
algebra, states are diagonal weight vectors, and integration over the index
space of a field is a finite weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import verdict
from .abelian import (
    AbelianTuple,
    Cube,
    CubeFunction,
    apply_cube_function,
    joint_diagonalize,
    memberwise_leq,
    spectrum_in_cube,
)
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerance,
    _offdiag_norm,
    diagonal,
    eig_hermitian,
    psd_margin,
    worst_gap,
)
from .state import DiagonalState, pinch, state_trace
from .verdict import Verdict


@dataclass(frozen=True)
class ColumnField:
    """Finite weighted family ``{(w_t, a_t)}`` with ``sum_t w_t a_t* a_t = 1``."""

    weights: tuple[float, ...]
    matrices: tuple[np.ndarray, ...]
    tol: Tolerance = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self) -> None:
        ws = tuple(float(w) for w in self.weights)
        if not ws or len(ws) != len(self.matrices):
            raise ValueError("weights and matrices must be aligned and non-empty")
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be strictly positive")
        mats = []
        for a in self.matrices:
            arr = np.array(a, dtype=complex)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or (mats and arr.shape != mats[0].shape):
                raise ValueError("field matrices must share one square shape")
            arr.setflags(write=False)
            mats.append(arr)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "matrices", tuple(mats))
        gram = sum(w * a.conj().T @ a for w, a in zip(ws, mats))
        defect = np.linalg.norm(gram - np.eye(self.dim))
        if not defect <= self.tol.rtol * len(ws):
            raise ValueError(f"field is not unital: defect {defect}")

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def count(self) -> int:
        return len(self.weights)

    def conjugate_sum(self, mats: Sequence[HermitianMatrix]) -> HermitianMatrix:
        """The field's unital map ``sum_t w_t a_t* m_t a_t``, one ``m_t`` per atom."""
        if len(mats) != self.count:
            raise ValueError(f"{len(mats)} matrices for a field of {self.count} atoms")
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for w, a, m in zip(self.weights, self.matrices, mats):
            acc += w * a.conj().T @ m.entries @ a
        return HermitianMatrix(acc)


@dataclass(frozen=True)
class TupleField:
    """Abelian n-tuples aligned index-for-index with a column field."""

    atoms: tuple[AbelianTuple, ...]

    def __post_init__(self) -> None:
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("a tuple field needs at least one atom")
        if len({t.n for t in atoms}) > 1 or len({t.dim for t in atoms}) > 1:
            raise ValueError("atoms must share arity and dimension")
        object.__setattr__(self, "atoms", atoms)

    @property
    def n(self) -> int:
        return self.atoms[0].n

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    @property
    def count(self) -> int:
        return len(self.atoms)

    def in_domain(self, cube: Cube, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True iff every atom's joint spectrum, read as admitted, lies in ``cube``."""
        return all(spectrum_in_cube(t, cube, tol) for t in self.atoms)


def compress(field_: ColumnField, tf: TupleField) -> tuple[HermitianMatrix, ...]:
    """``y_i = sum_t w_t a_t* x_it a_t``; the members are Hermitian but need not commute."""
    if field_.count != tf.count:
        raise ValueError(f"field has {field_.count} atoms, tuple field {tf.count}")
    if field_.dim != tf.dim:
        raise ValueError("field and tuple field dimensions differ")
    return tuple(field_.conjugate_sum([t.members[i] for t in tf.atoms]) for i in range(tf.n))


def build_mu_xi(
    field_: ColumnField,
    tf: TupleField,
    xi: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Spectral measure of a unit vector through a column field of abelian tuples.

    Returns the support, a ``(k, n)`` array of joint eigenvalue vectors, and
    its ``(k,)`` masses.  Each atom contributes its joint eigenvalue vectors
    with mass ``w_t |<u_j, a_t xi>|^2``, so the total mass is ``<G xi, xi>``
    for the field's Gram matrix ``G = sum_t w_t a_t* a_t``.  It differs from
    ``|xi|^2`` by at most ``|G - I|_F |xi|^2``, and the field was admitted
    with ``|G - I|_F <= rtol * count``.
    """
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape[0] != field_.dim:
        raise ValueError("vector dimension does not match the field")
    if not abs(np.linalg.norm(xi) - 1.0) <= tol.rtol:
        raise ValueError("xi must be a unit vector")
    if field_.count != tf.count:
        raise ValueError("field and tuple field are misaligned")
    rows = []
    masses = []
    for w, a, t in zip(field_.weights, field_.matrices, tf.atoms):
        js = joint_diagonalize(t, tol)
        amp = js.basis.conj().T @ (a @ xi)
        rows.append(js.points)
        masses.append(w * np.abs(amp) ** 2)
    support, masses = np.vstack(rows), np.concatenate(masses)
    total, norm2 = float(masses.sum()), float(np.vdot(xi, xi).real)
    if not abs(total - norm2) <= field_.tol.rtol * field_.count * norm2:
        raise ValueError(f"total mass {total} exceeds the field's unitality defect")
    return support, masses


def _expectation(a: HermitianMatrix, xi: np.ndarray) -> float:
    return float(np.real(np.vdot(xi, a.entries @ xi)))


def check_jensen_expectation(
    f: CubeFunction,
    field_: ColumnField,
    tf: TupleField,
    xi: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Vector-state Jensen inequality for a convex f over a unital column field.

    ``f(<y_1 xi, xi>, ..., <y_n xi, xi>) <= <(sum_t w_t a_t* f(x_t) a_t) xi, xi>``
    where ``y`` is the compressed tuple.  The verdict records both sides and
    the middle quantity ``int f d(mu_xi)`` for audit.
    """
    if not f.convex:
        return verdict.invalid(f"{f.name!r} is not flagged convex")
    if not tf.in_domain(f.domain, tol):
        return verdict.invalid("an atom leaves the domain cube")
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(xi) - 1.0) <= tol.rtol:
        return verdict.invalid("xi is not a unit vector")
    lhs = f([_expectation(y, xi) for y in compress(field_, tf)])
    image = field_.conjugate_sum([apply_cube_function(f, t, tol) for t in tf.atoms])
    rhs = _expectation(image, xi)
    support, masses = build_mu_xi(field_, tf, xi, tol)
    middle = float(sum(m * f(row) for m, row in zip(masses, support)))
    return verdict.from_gap(
        *worst_gap([lhs], [rhs], tol), lhs=lhs, rhs=rhs, middle=middle, mu_mass=float(masses.sum())
    )


def check_mond_pecaric(
    f: CubeFunction,
    t: AbelianTuple,
    xi: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Single-operator Jensen inequality for expectation values.

    ``f(<x_1 xi, xi>, ..., <x_n xi, xi>) <= <f(x) xi, xi>`` for convex f;
    the degenerate case of :func:`check_jensen_expectation` with the trivial
    one-atom identity field.
    """
    if not f.convex:
        return verdict.invalid(f"{f.name!r} is not flagged convex")
    if not spectrum_in_cube(t, f.domain, tol):
        return verdict.invalid("tuple leaves the domain cube")
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(xi) - 1.0) <= tol.rtol:
        return verdict.invalid("xi is not a unit vector")
    args = [_expectation(x, xi) for x in t.members]
    lhs = f(args)
    rhs = _expectation(apply_cube_function(f, t, tol), xi)
    return verdict.from_gap(*worst_gap([lhs], [rhs], tol), lhs=lhs, rhs=rhs)


def check_phi_jensen_field(
    f: CubeFunction,
    field_: ColumnField,
    tf: TupleField,
    rho: DiagonalState,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Pinched Jensen inequality over a unital column field, pointwise per diagonal index.

    ``f(pinch(y_1)(s), ..., pinch(y_n)(s)) <= pinch(sum_t w_t a_t* f(x_t) a_t)(s)``
    at every index of the diagonal algebra.
    """
    if not f.convex:
        return verdict.invalid(f"{f.name!r} is not flagged convex")
    if not tf.in_domain(f.domain, tol):
        return verdict.invalid("an atom leaves the domain cube")
    if rho.dim != field_.dim:
        return verdict.invalid("state dimension mismatch")
    if np.any(rho.weights <= 0):
        return verdict.invalid("state weights must be strictly positive")
    pinched = [pinch(rho, y) for y in compress(field_, tf)]
    image = field_.conjugate_sum([apply_cube_function(f, t, tol) for t in tf.atoms])
    rhs_vals = pinch(rho, image)
    lhs_vals = [f([p[s] for p in pinched]) for s in range(rho.dim)]
    gap, slack = worst_gap(lhs_vals, rhs_vals, tol)
    return verdict.from_gap(gap, slack, indices=rho.dim)


def check_phi_concave_jensen(
    f: CubeFunction,
    t: AbelianTuple,
    rho: DiagonalState,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Pinching-Jensen for concave f: ``pinch(f(x))(s) <= f(pinch(x_1)(s), ...)`` pointwise.

    Only indices carrying positive state weight participate.
    """
    if not f.concave:
        return verdict.invalid(f"{f.name!r} is not flagged concave")
    if rho.dim != t.dim:
        return verdict.invalid("state dimension mismatch")
    if not spectrum_in_cube(t, f.domain, tol):
        return verdict.invalid("tuple leaves the domain cube")
    fx = apply_cube_function(f, t, tol)
    lhs_vals = pinch(rho, fx)
    pinched = [pinch(rho, x) for x in t.members]
    live = np.flatnonzero(rho.weights > 0)
    rhs_vals = [f([p[s] for p in pinched]) for s in live]
    gap, slack = worst_gap(lhs_vals[live], rhs_vals, tol)
    return verdict.from_gap(gap, slack, indices=len(live))


def _is_diagonal(x: HermitianMatrix, tol: Tolerance) -> bool:
    return _offdiag_norm(x.entries) <= tol.rtol * (1.0 + x.norm())


def check_phi_monotone_chain(
    f: CubeFunction,
    x: AbelianTuple,
    y: AbelianTuple,
    rho: DiagonalState,
    tol: Tolerance = DEFAULT_TOL,
) -> Verdict:
    """Monotonicity chain for concave, separately increasing f and diagonal dominating y.

    Checks all links pointwise at positive-weight indices:
      1. ``pinch(f(x))(s) <= f(pinch(x_1)(s), ...)``  (concavity),
      2. ``f(pinch(x_1)(s), ...) <= f(pinch(y_1)(s), ...)``  (monotonicity),
      3. ``f(pinch(y_1)(s), ...) == f(y)(s, s)``  (y lives in the diagonal algebra),
    and finally ``phi(f(x)) <= phi(f(y))``.
    """
    if not (f.concave and f.separately_increasing):
        return verdict.invalid(f"{f.name!r} must be concave and separately increasing")
    if x.n != y.n or x.dim != y.dim or rho.dim != x.dim:
        return verdict.invalid("shape mismatch")
    if not all(_is_diagonal(m, tol) for m in y.members):
        return verdict.invalid("y members must be diagonal")
    if not memberwise_leq(x, y, tol):
        return verdict.invalid("x <= y fails memberwise")
    if not (spectrum_in_cube(x, f.domain, tol) and spectrum_in_cube(y, f.domain, tol)):
        return verdict.invalid("a tuple leaves the domain cube")

    fx = apply_cube_function(f, x, tol)
    fy = apply_cube_function(f, y, tol)
    lhs_vals = pinch(rho, fx)
    px = [pinch(rho, m) for m in x.members]
    py = [pinch(rho, m) for m in y.members]
    live = np.flatnonzero(rho.weights > 0)
    mid_x = np.array([f([p[s] for p in px]) for s in live])
    mid_y = np.array([f([p[s] for p in py]) for s in live])

    dev = np.abs(mid_y - fy.diagonal()[live]) / (1.0 + np.abs(mid_y))
    equality_dev = float(np.max(dev, initial=0.0))
    if equality_dev > tol.rtol:
        return Verdict(verdict.FAIL, -equality_dev, {"reason": "diagonal equality link broke"})

    phi_x = state_trace(rho, fx)
    phi_y = state_trace(rho, fy)
    # links in (index, link) order, then the trace link
    lo = np.append(np.column_stack([lhs_vals[live], mid_x]).ravel(), phi_x)
    hi = np.append(np.column_stack([mid_x, mid_y]).ravel(), phi_y)
    gap, slack = worst_gap(lo, hi, tol)
    return verdict.from_gap(gap, slack, phi_x=phi_x, phi_y=phi_y)


def reproduce_example1(c: float, t: float, lam: float, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Reproduce the 2x2 instance where pinching-monotonicity fails pointwise but holds in trace.

    For ``x`` the all-ones matrix scaled by c and ``y = diag(t, lam*t)``, the
    verdict's ``detail["claims"]`` holds:
      * ``order_strict``: x < y strictly in the Loewner order,
      * ``pinch_square_not_dominated``: pinch(x^2) escapes below y^2
        (only asserted when t < c*sqrt(2), else None),
      * ``trace_square_identity``: tr x^2 equals 4c^2,
      * ``trace_monotone``: tr x^2 < tr y^2.

    It passes iff every asserted claim holds; its gap is the order margin,
    the smallest eigenvalue of y - x, and ``detail`` also records both traces.
    Parameters must satisfy ``0 < c < t`` and ``lam > c / (t - c)`` (which
    makes x < y strict).
    """
    if not (0 < c < t):
        raise ValueError(f"need 0 < c < t, got c={c}, t={t}")
    if lam <= c / (t - c):
        raise ValueError(f"need lam > c/(t-c) = {c / (t - c)}, got {lam}")
    x = HermitianMatrix(np.full((2, 2), float(c), dtype=complex))
    y = diagonal([t, lam * t])
    x2 = HermitianMatrix(x.entries @ x.entries)
    y2 = HermitianMatrix(y.entries @ y.entries)
    rho = DiagonalState.uniform(2)

    order_margin, slack = psd_margin(eig_hermitian(y - x), tol)
    order_strict = order_margin > slack

    not_dominated: bool | None = None
    if t < c * math.sqrt(2.0):
        lam_min, slack = psd_margin(eig_hermitian(y2 - diagonal(pinch(rho, x2))), tol)
        not_dominated = lam_min < -slack

    tr_x2 = state_trace(rho, x2)
    tr_y2 = state_trace(rho, y2)
    claims = {
        "order_strict": order_strict,
        "pinch_square_not_dominated": not_dominated,
        "trace_square_identity": abs(tr_x2 - 4.0 * c * c) <= 1e-12 * (1.0 + 4.0 * c * c),
        "trace_monotone": tr_x2 < tr_y2,
    }
    status = verdict.PASS if all(v for v in claims.values() if v is not None) else verdict.FAIL
    return Verdict(status, order_margin, {"claims": claims, "trace_x2": tr_x2, "trace_y2": tr_y2})
