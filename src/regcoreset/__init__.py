"""Coresets for norm-regularized regression.

Row-sampling data reduction for objectives of the form
||Ax - b||_p^r + lam * ||x||_q^s: sensitivity and ridge-leverage scores,
well-conditioned bases, coreset construction and verification, matching
solvers, a counterexample demonstrator for mismatched exponents, and the
experiment protocols behind the quality tables.
"""

__version__ = "0.1.0"

from .conditioning import (
    ConditioningReport,
    WellConditionedBasis,
    p_conditioned_basis,
    verify_conditioning,
)
from .coreset import (
    Coreset,
    CoresetVerificationReport,
    build_coreset,
    identity_coreset,
    sample_size,
    transfer_check,
    verify_coreset,
)
from .errors import (
    ConditioningFailureError,
    DegenerateSignalError,
    DimensionTooLargeError,
    InvalidScoresError,
    ParseError,
    RankDeficiencyError,
    SchemaError,
    SchemeMismatchError,
    ShapeError,
    TheoremInapplicableError,
    TransferCheckError,
)
from .experiments import (
    DataTable,
    ExperimentConfig,
    TrialReport,
    build_experiment_instance,
    emit_report,
    generate_ng_matrix,
    generate_response,
    load_csv,
    parse_report,
    run_relative_error_experiment,
    run_sparsity_experiment,
)
from .linalg import (
    RegressionInstance,
    augment,
    entrywise_p_norm,
    induced_norm_upper,
    statistical_dimension,
)
from .lowerbound import (
    CounterexampleWitness,
    ViolationProbe,
    counterexample_alpha,
    demonstrate_violation,
    find_unregularized_violation,
)
from .objective import ObjectiveSpec
from .seeding import mix_seed
from .sensitivity import (
    SensitivityScores,
    brute_force_sensitivity,
    lp_lp_sensitivity_bounds,
    multiresponse_rlad_sensitivity_bounds,
    ridge_leverage_scores,
    rlad_sensitivity_bounds,
    uniform_scores,
)
from .solvers import (
    SolverResult,
    evaluate_objective,
    multiresponse_rlad_objective,
    prox_squared_l1,
    solve_lasso,
    solve_lp_lp,
    solve_modified_lasso,
    solve_multiresponse_rlad,
    solve_rlad,
    solve_ridge,
    sparsity_count,
)
