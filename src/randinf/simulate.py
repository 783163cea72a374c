"""Coverage / width simulation harness and exact-enumeration validity audits.

The scenario runner pairs two experiments, draws fresh populations and
assignments each repetition, builds the p-value functions exactly or by Monte
Carlo depending on the size of the assignment space, and aggregates coverage
and width of the individual and combined intervals.  Everything is seeded
per (master_seed, repetition, experiment, purpose), so results do not depend
on scheduling and a scenario is reproducible from its config alone.

The exact audit treats every assignment of a small population in turn as the
observed one and verifies, with zero tolerance, the distributional
guarantees: uniform dominance of the weak-inequality p-values, the largest-
atom bound on their discrepancy, and interval coverage at least the nominal
level.  At the true effect every observed assignment imputes the same table,
the truth, so one pass of the statistic over the enumeration, ``tau``, serves
every observed assignment: replicate i's statistic under observed j is the
line ``tau_i + b_ij (theta - theta0)``, and its breakpoint is
``theta0 + (tau_j - tau_i) / b_ij``.  The breakpoints are built in chunks of
observed assignments, one contiguous row each, and one row sort per chunk
serves the endpoint ranks of every level.  The traditional two-crossing
interval is audited alongside for comparison; it carries no guarantee and
undercovers on heavily tied data.
"""

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ._util import round_sig
from .combine import _combined_interval, make_combiner
from .datasets import PotentialTable
from .design import CRD, RBD, Design, assignment_matrix, sample_assignments, total_assignments
from .inversion import (
    PValueStepFunction,
    _proposed_interval,
    _require_invertible,
    _step_functions,
    _traditional_interval,
    invert_lower,
    invert_upper,
)
from .randomization import (
    DominanceProfile,
    ExactMode,
    MCMode,
    PValueKind,
    _replicate_source,
    dominance_profile,
)
from .statistics import StatisticSpec, evaluate_many, get_statistic, impute

__all__ = [
    "ScenarioConfig",
    "ArmSummary",
    "ScenarioResult",
    "AuditReport",
    "balanced_design",
    "generate_population",
    "run_scenario",
    "exact_validity_audit",
]


def balanced_design(n_blocks: int, block_size: int) -> Design:
    """``n_blocks`` blocks of an even ``block_size``, half treated in each."""
    if block_size < 2 or block_size % 2:
        raise ValueError("block_size must be a positive even integer")
    if n_blocks == 1:
        return CRD(block_size, block_size // 2)
    return RBD(tuple((block_size, block_size // 2) for _ in range(n_blocks)))


def generate_population(n: int, true_theta: float, seed) -> PotentialTable:
    """Lognormal(0, 1) control potentials with a constant additive effect.

    Control values exponentiate standard normals from numpy's seeded PCG64
    generator (ziggurat method), so a seed pins the table exactly.
    """
    if n < 2:
        raise ValueError("a population needs at least two units")
    rng = np.random.default_rng(seed)
    y0 = np.exp(rng.standard_normal(n))
    return PotentialTable(y0=y0, y1=y0 + true_theta)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: two experiments, shared effect, seeded reps."""

    design1: Design
    design2: Design
    true_theta: float = 0.0
    reps: int = 500
    k_cap: int = 5000
    alpha: float = 0.05
    combiners: tuple = ("fisher", "de")
    statistic: str = "diff_means"
    master_seed: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        object.__setattr__(self, "combiners", tuple(self.combiners))


@dataclass(frozen=True)
class ArmSummary:
    coverage: float
    width_mean: float
    width_sd: float


@dataclass(frozen=True)
class ScenarioResult:
    """Coverage and width per arm: each experiment and each combiner."""

    config: ScenarioConfig
    arms: dict

    def summary_table(self) -> str:
        lines = [f"{'arm':<12} {'coverage':>9} {'width mean':>11} {'width sd':>9}"]
        for name, arm in self.arms.items():
            lines.append(
                f"{name:<12} {arm.coverage:>9.3f} {arm.width_mean:>11.3f} {arm.width_sd:>9.3f}"
            )
        return "\n".join(lines)


def _rep_seed(master: int, rep: int, experiment: int, purpose: int) -> int:
    state = np.random.SeedSequence((master, rep, experiment, purpose)).generate_state(1, np.uint64)
    return int(state[0])


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Run every repetition of a scenario and aggregate coverage and width.

    Per repetition and experiment: a fresh population, one observed
    assignment, p-value functions in exact mode when the assignment space is
    within ``k_cap`` and Monte Carlo with ``k_cap`` draws otherwise, the
    individual interval with the level split evenly across tails, and one
    combined interval per requested combiner.  An exact-mode design's rows
    do not depend on the rep, so its replicate source is made once.
    """
    stat = get_statistic(config.statistic)
    designs = (config.design1, config.design2)
    half = config.alpha / 2
    _require_invertible(stat, half, half)
    exact = {design: _replicate_source(design, ExactMode(cap=config.k_cap))
             for design in designs if total_assignments(design) <= config.k_cap}
    arm_names = ["exp1", "exp2", *config.combiners]
    covered = {name: np.zeros(config.reps, dtype=bool) for name in arm_names}
    widths = {name: np.zeros(config.reps) for name in arm_names}

    for rep in range(config.reps):
        fss = []
        for e, design in enumerate(designs, start=1):
            pop = generate_population(
                design.n_units, config.true_theta, seed=(config.master_seed, rep, e, 0)
            )
            w_obs = sample_assignments(design, 1, seed=_rep_seed(config.master_seed, rep, e, 1))[0]
            data = pop.observe(w_obs)
            if design in exact:
                source = exact[design]
            else:
                mode = MCMode(k=config.k_cap, seed=_rep_seed(config.master_seed, rep, e, 2))
                source = _replicate_source(design, mode)
            fss.append(_step_functions(data, stat, source))
            ci = _proposed_interval(fss[-1], half, half)
            name = f"exp{e}"
            covered[name][rep] = ci.contains(config.true_theta)
            widths[name][rep] = ci.width
        for comb_name in config.combiners:
            ci = _combined_interval(fss, make_combiner(comb_name), config.alpha)
            covered[comb_name][rep] = ci.contains(config.true_theta)
            widths[comb_name][rep] = ci.width

    arms = {
        name: ArmSummary(
            coverage=float(covered[name].mean()),
            width_mean=float(widths[name].mean()),
            width_sd=float(widths[name].std(ddof=1)) if config.reps > 1 else 0.0,
        )
        for name in arm_names
    }
    return ScenarioResult(config=config, arms=arms)


@dataclass(frozen=True)
class AuditReport:
    """Exact distributional checks for one small population and design."""

    design: Design
    theta0: float
    gamma_star: float
    dominance: DominanceProfile
    dominance_ok: bool
    gamma_bound_ok: bool
    max_shortfall: float
    proposed_coverage: dict
    traditional_coverage: dict
    proposed_width_mean: dict
    traditional_width_mean: dict

    def coverage_ok(self, alpha: float) -> bool:
        return self.proposed_coverage[alpha] >= 1 - alpha


def _endpoint_ranks(k: int, alpha: float):
    """Ranks of the proposed lower, proposed upper and traditional upper endpoints.

    Every column's k - 1 sorted breakpoints carry unit counts over a base atom
    (the observed assignment), so the public inverters applied to the
    index-valued function 0..k-2 pick the ranks; +-inf for infinite endpoints.
    """
    ranks = np.arange(k - 1.0)
    f = PValueStepFunction(
        side=PValueKind.LPLUS, breakpoints=ranks, counts=np.ones(k - 1, dtype=np.int64),
        base_count=1, never_count=0, denom=k, statistic="rank", t_obs=0.0, mode=ExactMode(),
    )
    g = replace(f, side=PValueKind.LMINUS)
    return invert_lower(f, alpha / 2), invert_upper(g, alpha / 2), _traditional_interval(f, alpha).upper


def exact_validity_audit(
    population: PotentialTable,
    design: Design,
    stat: Optional[StatisticSpec] = None,
    alphas: Sequence[float] = (0.05,),
    cap: int = 200_000,
) -> AuditReport:
    """Enumerate a small population and verify the exact guarantees.

    The population must satisfy a constant-effect null (``y1 - y0`` constant);
    that constant is the audited truth.  Each enumerable assignment is treated
    in turn as the observed one: its four p-values at the truth come from the
    shared randomization distribution, and its proposed and traditional
    intervals are built from its row of breakpoints.  Reports the p-value
    dominance checks, the largest-atom bound on their discrepancy, and exact
    interval coverage per level.

    Every observed assignment imputes the truth at ``theta0``, so the
    statistic of every assignment on that table, ``tau``, is one pass of the
    registered evaluator, and replicate i's breakpoint under observed j is
    ``theta0 + (tau_j - tau_i) / b_ij``.  The slope ``b_ij`` is the audit's
    only statistic-specific step: for ``diff_means`` it is the number of
    units treated under i and control under j, times ``1/n1 + 1/n0``.
    Other statistics have no such line in theta and are refused here.
    """
    stat = stat or get_statistic("diff_means")
    if stat.name != "diff_means":
        raise NotImplementedError("the vectorized audit supports diff_means only")
    effects = population.y1 - population.y0
    if np.ptp(effects) > 1e-12:
        raise ValueError("the audit population must have a constant effect")
    theta0 = float(effects[0])

    W = assignment_matrix(design, cap=cap).astype(float)
    k, n = W.shape
    n1 = float(W[0].sum())
    n0 = n - n1
    data = population.observe(W[0].astype(np.int8))
    # at the truth every observed assignment imputes this same table, so
    # replicate i's statistic under observed j is tau_i + B_ij * (theta - theta0)
    tau = evaluate_many(stat, impute(data, theta0), W)

    prof = dominance_profile(data, design, stat, theta0, cap=cap)
    dominance_ok = all(
        prof.dominated_by_uniform(kind) for kind in (PValueKind.LPLUS, PValueKind.LMINUS)
    ) and all(
        prof.dominates_uniform(kind) for kind in (PValueKind.UPLUS, PValueKind.UMINUS)
    )
    shortfall = max(
        prof.max_shortfall(PValueKind.LPLUS), prof.max_shortfall(PValueKind.LMINUS)
    )
    excess = max(prof.max_excess(PValueKind.UPLUS), prof.max_excess(PValueKind.UMINUS))
    gamma_bound_ok = max(shortfall, excess) <= prof.gamma_star + 1e-12

    alphas = tuple(alphas)
    ranks = [_endpoint_ranks(k, alpha) for alpha in alphas]
    # each chunk's breakpoints are built once and sorted for every rank any
    # alpha reads; the traditional upper rank is always finite
    finite = sorted({int(r) for rs in ranks for r in rs if np.isfinite(r)})
    covered_p = np.zeros((len(alphas), k), dtype=bool)
    covered_t = np.zeros((len(alphas), k), dtype=bool)
    width_p = np.zeros((len(alphas), k))
    width_t = np.zeros((len(alphas), k))
    chunk = max(1, (1 << 18) // k)  # rows; each chunk x k matrix holds at most 2**18 entries
    for start in range(0, k, chunk):
        obs = np.arange(start, min(start + chunk, k))
        # row j is observed assignment obs[j], column i replicate i
        swaps = n1 - W[obs] @ W.T  # units treated under i and control under j
        B = swaps / n1 + swaps / n0
        with np.errstate(divide="ignore", invalid="ignore"):
            BP = theta0 + (tau[obs, None] - tau) / B
        BP[B == 0] = np.nan  # the observed assignment itself: base mass
        # one contiguous sort per row; NaNs sort last, one per row, and
        # rounding is monotone, so only the order statistics at the finite
        # ranks are rounded
        BP.sort(axis=1)
        at = dict(zip(finite, round_sig(BP[:, finite]).T))
        for j, rs in enumerate(ranks):
            lower, upper, upper_t = (at[int(r)] if np.isfinite(r) else np.full(obs.size, r) for r in rs)
            covered_p[j, obs] = (lower <= theta0) & (theta0 <= upper)
            covered_t[j, obs] = (lower <= theta0) & (theta0 < upper_t)
            width_p[j, obs] = upper - lower
            width_t[j, obs] = upper_t - lower

    def per_alpha(values):
        return {alpha: float(row.mean()) for alpha, row in zip(alphas, values)}

    return AuditReport(
        design=design,
        theta0=theta0,
        gamma_star=prof.gamma_star,
        dominance=prof,
        dominance_ok=dominance_ok,
        gamma_bound_ok=gamma_bound_ok,
        max_shortfall=shortfall,
        proposed_coverage=per_alpha(covered_p),
        traditional_coverage=per_alpha(covered_t),
        proposed_width_mean=per_alpha(width_p),
        traditional_width_mean=per_alpha(width_t),
    )
