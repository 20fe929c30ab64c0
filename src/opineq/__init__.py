"""opineq: randomized numerical verification of trace and operator inequalities.

Core layers:

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
* :mod:`opineq.harness` — seeded instance generators, the audited function
  library, campaign orchestration with replayable reports;
* :mod:`opineq.cli` — the ``opineq`` command.
"""

from .abelian import (
    AbelianTuple,
    Cube,
    CubeFunction,
    JointDiagonalizationError,
    JointSpectrum,
    apply_cube_function,
    check_commuting,
    check_compatible,
    joint_diagonalize,
    memberwise_leq,
    spectrum_in_cube,
    uniform_cube,
)
from .harness import (
    CampaignConfig,
    CampaignReport,
    ConfigError,
    GenerationError,
    function_library,
    gen_abelian_tuple,
    gen_centralizer_pair,
    gen_compatible_pair,
    gen_dominated_pair,
    gen_tuple_field,
    gen_unital_field,
    mislabeled_controls,
    replay_instance,
    run_campaign,
    verify_flags,
)
from .linalg import (
    DEFAULT_TOL,
    EigenSystem,
    HermitianMatrix,
    JacobiConvergenceError,
    SpectrumDomainError,
    Tolerance,
    diagonal,
    eig_hermitian,
    hermitian_function,
    identity,
    is_psd,
    loewner_leq,
    matrix_power,
    zero,
)
from .majorization import (
    check_corollary,
    check_thm5,
    check_thm6,
    kyfan_check,
    partial_sums,
    weak_majorize,
)
from .means import (
    check_lowner_heinz,
    check_root_product_chain,
    check_trace_power_monotone,
    geometric_mean,
    geometric_mean_quadrature,
    root_product_chain,
)
from .pinching import (
    ColumnField,
    TupleField,
    build_mu_xi,
    check_jensen_expectation,
    check_mond_pecaric,
    check_phi_concave_jensen,
    check_phi_jensen_field,
    check_phi_monotone_chain,
    compress,
    reproduce_example1,
)
from .state import DiagonalState, pinch, state_trace
from .verdict import Verdict

__all__ = [
    "AbelianTuple",
    "CampaignConfig",
    "CampaignReport",
    "ColumnField",
    "ConfigError",
    "Cube",
    "CubeFunction",
    "DEFAULT_TOL",
    "DiagonalState",
    "EigenSystem",
    "GenerationError",
    "HermitianMatrix",
    "JacobiConvergenceError",
    "JointDiagonalizationError",
    "JointSpectrum",
    "SpectrumDomainError",
    "Tolerance",
    "TupleField",
    "Verdict",
    "apply_cube_function",
    "build_mu_xi",
    "check_commuting",
    "check_compatible",
    "check_corollary",
    "check_jensen_expectation",
    "check_lowner_heinz",
    "check_mond_pecaric",
    "check_phi_concave_jensen",
    "check_phi_jensen_field",
    "check_phi_monotone_chain",
    "check_root_product_chain",
    "check_thm5",
    "check_thm6",
    "check_trace_power_monotone",
    "compress",
    "diagonal",
    "eig_hermitian",
    "function_library",
    "gen_abelian_tuple",
    "gen_centralizer_pair",
    "gen_compatible_pair",
    "gen_dominated_pair",
    "gen_tuple_field",
    "gen_unital_field",
    "geometric_mean",
    "geometric_mean_quadrature",
    "hermitian_function",
    "identity",
    "is_psd",
    "joint_diagonalize",
    "kyfan_check",
    "loewner_leq",
    "matrix_power",
    "memberwise_leq",
    "mislabeled_controls",
    "partial_sums",
    "pinch",
    "replay_instance",
    "reproduce_example1",
    "root_product_chain",
    "run_campaign",
    "spectrum_in_cube",
    "state_trace",
    "uniform_cube",
    "verify_flags",
    "weak_majorize",
    "zero",
]
