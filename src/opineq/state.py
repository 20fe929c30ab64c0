"""Diagonal states: the positive functional phi and the pinching map onto the diagonal algebra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianMatrix, diagonal


@dataclass(frozen=True)
class DiagonalState:
    """Nonnegative diagonal weights with positive total mass.

    Defines the functional ``phi(a) = sum_s weights[s] * a[s, s]`` and, by
    duality against diagonal multipliers, the pinching expectation
    :func:`pinch`.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size < 1:
            raise ValueError("a diagonal state needs at least one weight")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if w.sum() <= 0:
            raise ValueError("total mass must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def matrix(self) -> HermitianMatrix:
        return diagonal(self.weights)

    @staticmethod
    def uniform(dim: int) -> "DiagonalState":
        return DiagonalState(np.ones(dim))


def state_trace(rho: DiagonalState, a: HermitianMatrix) -> float:
    """phi(a) = sum of state weights against the diagonal of ``a``."""
    if rho.dim != a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, matrix {a.dim}")
    return float(np.dot(rho.weights, a.diagonal()))


def pinch(rho: DiagonalState, a: HermitianMatrix) -> np.ndarray:
    """Conditional expectation onto the diagonal algebra, as a read-only array of values.

    At indices with positive weight the defining duality
    ``phi(z a) = sum_s z_s values[s] rho_ss`` (for all diagonal ``z``)
    forces ``values[s] = a[s, s]``, independent of the weights.  Indices
    with zero weight are undefined by the duality; their value is 0 by
    convention (any value is correct almost everywhere).
    """
    if rho.dim != a.dim:
        raise ValueError(f"dimension mismatch: state {rho.dim}, matrix {a.dim}")
    values = a.diagonal()
    values[rho.weights == 0.0] = 0.0
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    values.setflags(write=False)
    return values
