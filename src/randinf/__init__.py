"""Randomization inference for randomized experiments.

Exact and Monte Carlo p-value functions for constant-effect nulls,
guaranteed-coverage interval estimation by test inversion, combination of
p-value functions across independent experiments, and Monte Carlo
sample-size planning.
"""

__version__ = "0.2.0"

from .combine import (
    CombinedPValueFunction,
    CombinerSpec,
    chisq_upper,
    combine_functions,
    combine_values,
    combined_interval,
    custom_combiner,
    double_exponential,
    fisher,
    laplace_sum_cdf,
    make_combiner,
    normal_cdf,
    normal_quantile,
    stouffer,
)
from .datasets import (
    studentized_nonmonotone_experiment,
    tied_discrete_population,
    toy_experiment,
    toy_population,
)
from .design import (
    CRD,
    DEFAULT_ENUMERATION_CAP,
    RBD,
    Design,
    EnumerationCapError,
    assignment_matrix,
    assignment_probability,
    assignment_probability_exact,
    sample_assignments,
    total_assignments,
)
from .inversion import (
    BracketingError,
    ConfidenceInterval,
    LevelTooHighError,
    NonMonotoneStatisticError,
    PValueStepFunction,
    build_step_function,
    build_step_functions,
    confidence_interval,
    invert_lower,
    invert_upper,
    traditional_interval,
)
from .mcplan import McPlan, error_bound, mc_sup_error, plan, required_k, threshold_table
from .randomization import (
    DominanceProfile,
    ExactMode,
    MCMode,
    PValueKind,
    RandomizationDistribution,
    dominance_profile,
    p_value,
    p_values,
    randomization_distribution,
)
from .simulate import (
    ArmSummary,
    AuditReport,
    ScenarioConfig,
    ScenarioResult,
    balanced_design,
    exact_validity_audit,
    generate_population,
    run_scenario,
)
from .statistics import (
    DegenerateDenominatorError,
    EIProbeResult,
    ObservedData,
    PotentialTable,
    StatisticError,
    StatisticSpec,
    ei_probe,
    evaluate,
    evaluate_many,
    get_statistic,
    impute,
    list_statistics,
    observed_statistic,
    register_statistic,
)
