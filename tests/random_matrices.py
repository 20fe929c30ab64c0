"""Random Hermitian matrices the test modules share.

Bases come from :func:`opineq.harness.random_unitary`, so a test draws its
unitaries the way the campaigns do; tuples come from the harness's own
generators (``gen_abelian_tuple`` and its kin).
"""

import numpy as np

from opineq.harness import random_unitary
from opineq.linalg import HermitianMatrix


def random_hermitian(rng, dim, scale=1.0):
    """Hermitian part of ``scale`` times a complex Gaussian draw."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(scale * z)


def random_psd(rng, dim, scale=1.0, rank=None):
    """``scale z z*`` for a complex Gaussian ``dim``-by-``rank`` draw ``z`` (square by default)."""
    z = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    return HermitianMatrix(scale * z @ z.conj().T)


def with_spectrum(rng, values):
    """The given eigenvalues in a random unitary basis."""
    q = random_unitary(len(values), rng)
    return HermitianMatrix((q * np.asarray(values, dtype=float)) @ q.conj().T)
