"""Coverage / width simulation harness and exact-enumeration validity audits.

The scenario runner pairs two experiments, draws fresh populations and
assignments each repetition, builds the p-value functions exactly or by Monte
Carlo depending on the size of the assignment space, and aggregates coverage
and width of the individual and combined intervals.  Everything is seeded
per (master_seed, repetition, experiment, purpose), so results do not depend
on scheduling and a scenario is reproducible from its config alone.

The exact audit enumerates the full assignment space of a small population
twice over -- once treating each assignment as the observed one, once inside
each p-value -- and verifies, with zero tolerance, the distributional
guarantees: uniform dominance of the weak-inequality p-values, the largest-
atom bound on their discrepancy, and interval coverage at least the nominal
level.  The traditional two-crossing interval is audited alongside for
comparison; it carries no guarantee and undercovers on heavily tied data.
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
    _traditional_interval,
    build_step_functions,
    invert_lower,
    invert_upper,
)
from .randomization import DominanceProfile, ExactMode, MCMode, PValueKind, dominance_profile
from .statistics import StatisticSpec, get_statistic

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
    combined interval per requested combiner.
    """
    stat = get_statistic(config.statistic)
    designs = (config.design1, config.design2)
    half = config.alpha / 2
    _require_invertible(stat, half, half)
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
            total = total_assignments(design)
            if total <= config.k_cap:
                mode = ExactMode(cap=config.k_cap)
            else:
                mode = MCMode(k=config.k_cap, seed=_rep_seed(config.master_seed, rep, e, 2))
            fss.append(build_step_functions(data, design, stat, mode))
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
    """Enumerate a small population twice over and verify the exact guarantees.

    The population must satisfy a constant-effect null (``y1 - y0`` constant);
    that constant is the audited truth.  Each enumerable assignment is treated
    in turn as the observed one: its four p-values at the truth come from the
    shared randomization distribution, and its proposed and traditional
    intervals are built from the per-assignment breakpoint columns.  Reports
    the p-value dominance checks, the largest-atom bound on their discrepancy,
    and exact interval coverage per level.

    The closed-form column path requires ``diff_means``; other statistics
    would need per-assignment bisection and are refused here.
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
    Y = np.where(W == 1, population.y1, population.y0)  # row j: outcomes observed under assignment j

    prof = dominance_profile(population.observe(W[0].astype(np.int8)), design, stat, theta0, cap=cap)
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

    proposed_cov = {}
    traditional_cov = {}
    proposed_width = {}
    traditional_width = {}
    for alpha in alphas:
        ranks = _endpoint_ranks(k, alpha)
        finite = [int(r) for r in ranks if np.isfinite(r)]
        covered_p = np.zeros(k, dtype=bool)
        covered_t = np.zeros(k, dtype=bool)
        width_p = np.zeros(k)
        width_t = np.zeros(k)
        chunk = max(1, int(2**22) // k)
        for start in range(0, k, chunk):
            cols = np.arange(start, min(start + chunk, k))
            Yc = Y[cols]
            Wc = W[cols]
            A = (W @ Yc.T) / n1 - ((1 - W) @ Yc.T) / n0
            B = (W @ (1 - Wc).T) / n1 + ((1 - W) @ Wc.T) / n0
            t_obs = A[cols, np.arange(cols.size)]
            with np.errstate(divide="ignore", invalid="ignore"):
                BP = (t_obs[None, :] - A) / B
            BP[B == 0] = np.nan  # the observed assignment itself: base mass
            # NaNs sort last, one per column; rounding is monotone, so only
            # the order statistics at the finite ranks (the traditional upper
            # one always is) are found and rounded
            BP.partition(finite, axis=0)
            at = dict(zip(finite, round_sig(BP[finite])))
            lower, upper, upper_t = (at[int(r)] if np.isfinite(r) else np.full(cols.size, r) for r in ranks)
            covered_p[cols] = (lower <= theta0) & (theta0 <= upper)
            covered_t[cols] = (lower <= theta0) & (theta0 < upper_t)
            width_p[cols] = upper - lower
            width_t[cols] = upper_t - lower
        proposed_cov[alpha] = float(covered_p.mean())
        traditional_cov[alpha] = float(covered_t.mean())
        proposed_width[alpha] = float(width_p.mean())
        traditional_width[alpha] = float(width_t.mean())

    return AuditReport(
        design=design,
        theta0=theta0,
        gamma_star=prof.gamma_star,
        dominance=prof,
        dominance_ok=dominance_ok,
        gamma_bound_ok=gamma_bound_ok,
        max_shortfall=shortfall,
        proposed_coverage=proposed_cov,
        traditional_coverage=traditional_cov,
        proposed_width_mean=proposed_width,
        traditional_width_mean=traditional_width,
    )
