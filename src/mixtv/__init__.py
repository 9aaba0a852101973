"""Total variation distance solvers for mixtures of product distributions.

Two solving paths over the same instance format:

* a Monte Carlo estimator with multiplicative ``(1 +/- epsilon)`` error for
  general mixtures over ``{0..q-1}^n``, driven by an explicit recursive
  coupling compiled to a state DAG, and
* an exact, deterministic path for mixtures of Boolean subcubes based on
  inclusion-exclusion counting.

Both are cross-validated against brute-force enumeration (:mod:`mixtv.oracle`).
"""

from .coupling import (
    CouplingDag,
    State,
    Transition,
    TransitionKind,
    build_dag,
    evaluate_failure_mass,
    failure_mass_table,
    failure_masses,
    failure_probability,
    sample_failed_trajectories,
    sample_failed_trajectory,
    simulate_coupling,
)
from .errors import (
    FactViolation,
    MixtvError,
    NoActiveComponent,
    NormalizationError,
    NotAProbability,
    NotASubcube,
    NotThreeCnf,
    NumericalError,
    ShapeMismatch,
    TooLarge,
    ValidationError,
    WrongAlphabet,
    ZeroDenominator,
    ZeroDiscrepancy,
)
from .estimator import (
    TvEstimate,
    approximate_tv,
    f_value,
    f_values,
    sample_count,
    theoretical_gamma,
)
from .model import (
    Mixture,
    instance_document,
    mass,
    masses,
    parse_instance,
    validate_mixture,
)
from .oracle import (
    CnfFormula,
    brute_force_chi_counts,
    brute_force_tv,
    count_satisfying,
    generate_3cnf_instance,
    mass_table,
    parse_dimacs,
    random_instance,
)
from .subcube import (
    SubcubeProfile,
    chi_count,
    chi_table,
    classify_subcube,
    cube_intersection_count,
    exact_subcube_tv,
)

__version__ = "0.1.0"

__all__ = [
    "CnfFormula",
    "CouplingDag",
    "FactViolation",
    "Mixture",
    "MixtvError",
    "NoActiveComponent",
    "NormalizationError",
    "NotAProbability",
    "NotASubcube",
    "NotThreeCnf",
    "NumericalError",
    "ShapeMismatch",
    "State",
    "SubcubeProfile",
    "TooLarge",
    "Transition",
    "TransitionKind",
    "TvEstimate",
    "ValidationError",
    "WrongAlphabet",
    "ZeroDenominator",
    "ZeroDiscrepancy",
    "approximate_tv",
    "brute_force_chi_counts",
    "brute_force_tv",
    "build_dag",
    "chi_count",
    "chi_table",
    "classify_subcube",
    "count_satisfying",
    "cube_intersection_count",
    "evaluate_failure_mass",
    "exact_subcube_tv",
    "f_value",
    "f_values",
    "failure_mass_table",
    "failure_masses",
    "failure_probability",
    "generate_3cnf_instance",
    "instance_document",
    "mass",
    "mass_table",
    "masses",
    "parse_dimacs",
    "parse_instance",
    "random_instance",
    "sample_count",
    "sample_failed_trajectories",
    "sample_failed_trajectory",
    "simulate_coupling",
    "theoretical_gamma",
    "validate_mixture",
]
