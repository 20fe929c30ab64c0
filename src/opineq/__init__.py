"""opineq: randomized numerical verification of trace and operator inequalities.

The package root holds what it takes to run, replay and read a campaign, and
the eigensolver; everything else is imported from its module:

* :mod:`opineq.linalg` — Hermitian matrices, Jacobi eigensolver, Loewner
  order, scalar functional calculus;
* :mod:`opineq.abelian` — commuting tuples, joint diagonalization, functions
  of several variables, compatible pairs;
* :mod:`opineq.means` — the operator geometric mean with its quadrature
  oracle, root-product chains, trace monotonicity checks;
* :mod:`opineq.pinching` — diagonal conditional expectation, column fields,
  the spectral measure, Jensen-type checks, the 2x2 counterexample;
* :mod:`opineq.majorization` — eigenvalue partial sums, the top-k frame
  bound, weak-majorization checks;
* :mod:`opineq.harness` — seeded instance generators, the function library,
  campaign orchestration with replayable reports;
* :mod:`opineq.cli` — the ``opineq`` command.
"""

from .abelian import JointDiagonalizationError
from .harness import CampaignConfig, CampaignReport, ConfigError, replay_instance, run_campaign
from .linalg import (
    HermitianMatrix,
    JacobiConvergenceError,
    SpectrumDomainError,
    Tolerance,
    eig_hermitian,
)
from .verdict import Verdict

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "ConfigError",
    "run_campaign",
    "replay_instance",
    "Tolerance",
    "Verdict",
    "HermitianMatrix",
    "eig_hermitian",
    "JacobiConvergenceError",
    "JointDiagonalizationError",
    "SpectrumDomainError",
]
