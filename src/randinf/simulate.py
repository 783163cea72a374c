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
so one pass of the statistic over the enumeration gives every observed
assignment's p-values at the truth, and with them the dominance profile and
the coverage: an interval covers the truth exactly when its tests accept
there.  The widths need each observed assignment's sorted breakpoints, but
observed assignments that treat the same number of units of each class of
exchangeable units (equal block and outcomes) have the same ones: the
breakpoint matrix, sorted row by row in chunks, holds one row per such
composition class, which on tied data is far fewer than the assignments.
The traditional two-crossing interval is audited alongside for comparison;
it carries no guarantee and undercovers on heavily tied data.
"""

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._util import (
    InputError,
    atoms,
    is_integer,
    outcome_scale,
    require_finite,
    require_level,
    require_seed,
    round_sig,
)
from .combine import _combined_sides, _union_grid, make_combiner
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
    ONE_SIDED,
    DominanceProfile,
    ExactMode,
    MCMode,
    PValueKind,
    _profile,
    _replicate_source,
    _tails,
)
from .statistics import DIFF_MEANS, PotentialTable, StatisticSpec, evaluate_many, get_statistic, impute

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


# the exact audit enumerates at most this many assignments
_AUDIT_CAP = 200_000
# a scenario design holds at most this many units: the harness studies small
# samples, and a mistyped block count is refused before any block is built
_MAX_UNITS = 10_000
# a scenario runs at most this many reps: each keeps one coverage flag and
# one width per arm, allocated before the first rep runs
_MAX_REPS = 1_000_000


def balanced_design(n_blocks: int, block_size: int) -> Design:
    """``n_blocks`` blocks of an even ``block_size``, half treated in each.

    At most 10,000 units in all; a larger design raises ``InputError``
    before any block is built, as do arguments that are not integers.
    """
    if not (is_integer(n_blocks) and is_integer(block_size)) or block_size < 2 or block_size % 2:
        raise InputError(f"need integer n_blocks and even block_size >= 2, got ({n_blocks!r}, {block_size!r})")
    if n_blocks * block_size > _MAX_UNITS:
        raise InputError(f"a scenario design holds at most {_MAX_UNITS} units")
    if n_blocks == 1:
        return CRD(block_size, block_size // 2)
    return RBD(tuple((block_size, block_size // 2) for _ in range(n_blocks)))


def generate_population(n: int, true_theta: float, seed) -> PotentialTable:
    """Lognormal(0, 1) control potentials with a constant additive effect.

    Control values exponentiate standard normals from numpy's seeded PCG64
    generator (ziggurat method), so a seed pins the table exactly.  ``n`` must
    be an integer >= 2, ``true_theta`` a finite number a double holds and
    ``seed`` a non-negative integer or a tuple of them; anything else raises
    ``InputError``.
    """
    if not (is_integer(n) and n >= 2):
        raise InputError(f"a population needs an integer number of units >= 2, got {n!r}")
    require_finite(true_theta, "true_theta")
    require_seed(seed, "the population seed")
    rng = np.random.default_rng(seed)
    y0 = np.exp(rng.standard_normal(n))
    return PotentialTable(y0=y0, y1=y0 + true_theta)


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation scenario: two experiments, shared effect, seeded reps.

    Checks its own fields: the designs are a ``CRD`` or ``RBD``, ``reps``,
    ``k_cap`` and ``master_seed`` integers in range, ``true_theta`` a real
    number a double holds, ``alpha`` a level in (0, 1) by
    :func:`randinf._util.require_level`, ``combiners`` a sequence of names
    :func:`make_combiner` knows and ``statistic`` a name :func:`get_statistic`
    knows; anything else raises ``InputError``.
    """

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
        for name in ("design1", "design2"):
            if not isinstance(getattr(self, name), (CRD, RBD)):
                raise InputError(f"{name} must be a CRD or RBD, got {getattr(self, name)!r}")
        if not (is_integer(self.reps) and 1 <= self.reps <= _MAX_REPS):
            raise InputError(f"reps must be an integer in [1, {_MAX_REPS}], got {self.reps!r}")
        if not (is_integer(self.k_cap) and self.k_cap >= 1):
            raise InputError(f"k_cap must be an integer >= 1, got {self.k_cap!r}")
        if not (is_integer(self.master_seed) and self.master_seed >= 0):
            raise InputError(f"master_seed must be an integer >= 0, got {self.master_seed!r}")
        require_finite(self.true_theta, "true_theta")
        require_level(self.alpha, "alpha")
        if isinstance(self.combiners, str) or not isinstance(self.combiners, Sequence):
            raise InputError(f"combiners must be a sequence of names, got {self.combiners!r}")
        for name in self.combiners:
            make_combiner(name)
        get_statistic(self.statistic)
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


def _width_sd(widths: np.ndarray) -> float:
    """Sample standard deviation of an arm's widths: 0 for one rep, and ``inf``
    when an interval is unbounded, as the mean then is."""
    if widths.size < 2:
        return 0.0
    return np.inf if np.isinf(widths).any() else float(widths.std(ddof=1))


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
    _require_invertible(stat, alpha1=half, alpha2=half)
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
        grid = _union_grid(fss)  # shared by every combiner of the rep
        for comb_name in config.combiners:
            ci = _proposed_interval(_combined_sides(fss, make_combiner(comb_name), grid), half, half)
            covered[comb_name][rep] = ci.contains(config.true_theta)
            widths[comb_name][rep] = ci.width

    arms = {
        name: ArmSummary(
            coverage=float(covered[name].mean()),
            width_mean=float(widths[name].mean()),
            width_sd=_width_sd(widths[name]),
        )
        for name in arm_names
    }
    return ScenarioResult(config=config, arms=arms)


@dataclass(frozen=True)
class AuditReport:
    """Exact distributional checks for one small population and design.

    ``assignments`` is the number k of enumerated assignments, each audited
    as the observed one; ``width_classes`` the number of observed
    assignments whose breakpoints were built, one per composition class.
    """

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
    assignments: int
    width_classes: int

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
        base_count=1, never_count=0, denom=k, statistic="rank", mode=ExactMode(),
    )
    g = replace(f, side=PValueKind.LMINUS)
    return invert_lower(f, alpha / 2), invert_upper(g, alpha / 2), _traditional_interval(f, alpha).upper


def _width_classes(design: Design, table: PotentialTable, W: np.ndarray, tau: np.ndarray):
    """(rep, inverse): one representative observed assignment per composition
    class and each assignment's class, ``W[rep][inverse]`` equal in
    composition to ``W``.

    Units share a class when they have equal block and imputed potential
    outcomes in ``table``; a row's composition is its count of treated units
    in each class.  The classes are used only when ``tau`` is exactly
    constant on each of them; otherwise, and when every unit class is a
    singleton, every row is its own class.
    """
    k, n = W.shape
    block = np.repeat(np.arange(len(design.blocks)), [size for size, _ in design.blocks])
    _, unit_class, sizes = np.unique(
        np.column_stack((block, table.y0, table.y1)), axis=0, return_inverse=True, return_counts=True
    )
    unit_class = unit_class.reshape(n)  # numpy 2.0.0 returns it as a column
    if sizes.size == n:
        return np.arange(k), np.arange(k)
    # one exact mixed-radix key per row: the counts in radix size + 1 each,
    # relabelled densely (fewer than k labels) before a digit could overflow
    key = np.zeros(k, dtype=np.int64)
    span = 1
    for c, size in enumerate(sizes.tolist()):
        if span > (1 << 62) // (size + 1):
            _, key = np.unique(key, return_inverse=True)
            span = k
        key *= size + 1
        key += W[:, unit_class == c].sum(axis=1, dtype=np.int64)
        span *= size + 1
    _, rep, inverse = np.unique(key, return_index=True, return_inverse=True)
    if not np.array_equal(tau, tau[rep][inverse]):
        return np.arange(k), np.arange(k)
    return rep, inverse


def exact_validity_audit(
    population: PotentialTable,
    design: Design,
    stat: StatisticSpec = DIFF_MEANS,
    alphas: Sequence[float] = (0.05,),
) -> AuditReport:
    """Enumerate a small population and verify the exact guarantees.

    The population must satisfy a constant-effect null (``y1 - y0`` constant
    to ``1e-12`` of :func:`randinf._util.outcome_scale` of both arms, the
    kernel's scale, which must be finite); that constant is the audited
    truth.  Each assignment,
    of at most 200,000, is treated in turn as the observed one.  Reports the
    p-value dominance checks, the largest-atom bound on their discrepancy,
    and exact interval coverage and mean width per level.

    Coverage is read from each observed assignment's LPLUS and LMINUS at the
    truth, integer tail counts of its atom in one pass of the statistic,
    ``tau``, rounded as :func:`p_values` rounds: the proposed interval covers
    exactly when both exceed ``alpha/2``, the traditional one exactly when
    ``alpha/2 < LPLUS < 1 - alpha/2``, as the inverters compare levels.
    Widths come from breakpoints ``theta0 + (tau_j - tau_i) / b_ij``, where
    for ``diff_means`` the slope ``b_ij`` is the number of units treated
    under i and control under j, times ``1/n1 + 1/n0``: ``n1`` less the
    units treated under both, a popcount of the assignments packed into
    64-bit words, and ``b_ij`` one read of a table of its ``n1 + 1``
    values.  Each row of a chunk is sorted before ``theta0`` is added, and
    only the picked order statistics are shifted and rounded; both steps
    are monotone, so they pick the same doubles.

    Rows are built for one observed assignment per composition class only.
    Units share a class when they have equal block and imputed outcomes, and
    a row's composition is its count of treated units in each class.  If
    ``tau`` is exactly constant on every composition class, the classes are
    exact: a permutation of units within classes maps design rows onto
    design rows and keeps every overlap, hence every ``b_ij``, and every
    ``tau_i``; so rows j and sigma(j) have bit-identical breakpoint
    multisets and order statistics.  Otherwise (decimal outcomes, whose sums
    round by unit order) every row is its own class.  Each width mean still
    sums all k widths in enumeration order, so the report is the same to the
    last bit; ``width_classes`` counts the rows built.  Untied data, whose
    unit classes are singletons, skip the grouping.  On the tied CRD(15,5),
    3003 assignments in 18 classes, the audit takes 4 ms, and 30 ms on a
    tied RBD 3x(6,3) (343 classes of 8000), against 90 and 550 ms with one
    row per assignment; a lognormal CRD(12,6) takes 16 ms either way
    (2-vCPU x86_64, fresh processes, best of five).

    The slope formula is ``diff_means``'s closed form, so ``stat`` must carry
    that form, ``DIFF_MEANS.affine``, whatever its name; any other statistic
    is refused with :class:`InputError`.  Another statistic's widths would
    need a call per observed assignment, which costs far more (same host: one
    ``stat.affine`` call each, 0.85 s in all on the tied CRD(15,5); one
    kernel build each, 0.42 s on the lognormal CRD(12,6); best of three).
    """
    if stat.affine is not DIFF_MEANS.affine:
        raise InputError(f"the audit's widths need the diff_means closed form; {stat.name!r} lacks it")
    if not np.iterable(alphas):
        raise InputError(f"alphas must be a sequence of levels, got {alphas!r}")
    alphas = tuple(alphas)
    for alpha in alphas:
        require_level(alpha, "alpha")
    if population.n_units != design.n_units:
        raise InputError(
            f"the population has {population.n_units} units, the design {design.n_units}"
        )
    y = np.concatenate((population.y0, population.y1))
    if not np.isfinite(y).all():
        raise InputError("the audit population must have finite potential outcomes")
    # the tolerance follows the kernel's outcome scale, which must be finite
    # for the tolerance to refuse anything
    scale = outcome_scale(y)
    if not np.isfinite(scale):
        raise InputError("the audit population's outcomes must span a range a double holds")
    effects = population.y1 - population.y0
    if np.ptp(effects) > 1e-12 * scale:
        raise InputError("the audit population must have a constant effect")
    theta0 = float(effects[0])

    W = assignment_matrix(design, cap=_AUDIT_CAP)
    k, n = W.shape
    n1 = int(W[0].sum())
    n0 = n - n1
    data = population.observe(W[0])
    # at the truth every observed assignment imputes this same table, so
    # replicate i's statistic under observed j is tau_i + B_ij * (theta - theta0)
    table = impute(data, theta0)
    tau = evaluate_many(stat, table, W)
    # the observed assignments at atom i share its p-values at the truth
    _, counts, _ = atoms(round_sig(tau))
    prof = _profile(counts)
    # the weak-inequality kinds, LPLUS and LMINUS, hold at a tie with T_obs
    weak = [kind for kind in ONE_SIDED if kind.strict != kind.rising]
    strict = [kind for kind in ONE_SIDED if kind not in weak]
    dominance_ok = all(map(prof.dominated_by_uniform, weak)) and all(map(prof.dominates_uniform, strict))
    shortfall = max(map(prof.max_shortfall, weak))
    excess = max(map(prof.max_excess, strict))
    gamma_bound_ok = max(shortfall, excess) <= prof.gamma_star + 1e-12

    lplus, lminus = (_tails(counts)[kind] / k for kind in weak)

    def coverage(covers):
        # covers(half) compares the p-values count / k at the truth the way
        # invert_lower, invert_upper and _traditional_interval compare levels
        return {alpha: int(counts[covers(alpha / 2)].sum()) / k for alpha in alphas}

    ranks = [_endpoint_ranks(k, alpha) for alpha in alphas]
    # each chunk's breakpoints are built once and sorted for every rank any
    # alpha reads; the traditional upper rank is always finite
    finite = sorted({int(r) for rs in ranks for r in rs if np.isfinite(r)})
    # observed assignments of one composition class have equal widths: only
    # one representative's breakpoints are built
    rep, inverse = _width_classes(design, table, W, tau)
    width_p = np.zeros((len(alphas), rep.size))
    width_t = np.zeros((len(alphas), rep.size))
    # the units treated under both i and j: the popcount of the rows' 64-bit
    # words ANDed, summed over the words in a type that holds n1
    packed = np.packbits(W, axis=1, bitorder="little")
    words = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)
    del packed
    # the slope at each overlap o: s units treated under i and control under
    # j, s = n1 - o, times 1/n1 + 1/n0; it is 0 only at the observed
    # assignment itself, where 0 / 0 leaves NaN: its base mass
    swaps = n1 - np.arange(n1 + 1.0)
    slope = swaps / n1 + swaps / n0
    chunk = max(1, (1 << 18) // k)  # rows; each chunk x k matrix holds at most 2**18 entries
    rows = min(chunk, rep.size)
    both = np.empty((rows, k), dtype=np.uint64)
    overlap = np.empty((rows, k), dtype=np.min_scalar_type(n1))
    B = np.empty((rows, k))
    buffer = np.empty((rows, k))
    for start in range(0, rep.size, chunk):
        obs = rep[start:start + chunk]
        m = obs.size
        # row j is observed assignment obs[j], column i replicate i
        ov = overlap[:m]
        for word in range(words.shape[1]):
            np.bitwise_and(words[obs, word, None], words[:, word], out=both[:m])
            if word:
                ov += np.bitwise_count(both[:m])
            else:
                np.bitwise_count(both[:m], out=ov)
        np.take(slope, ov, out=B[:m], mode="clip")  # overlaps lie in 0..n1: no bounds check
        BP = np.subtract(tau[obs, None], tau, out=buffer[:m])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(BP, B[:m], out=BP)
        # one contiguous sort per row; NaNs sort last, one per row, and
        # adding theta0 and rounding are monotone, so only the order
        # statistics at the finite ranks are shifted and rounded
        BP.sort(axis=1)
        at = dict(zip(finite, round_sig(BP[:, finite] + theta0).T))
        for j, rs in enumerate(ranks):
            lower, upper, upper_t = (at[int(r)] if np.isfinite(r) else np.full(m, r) for r in rs)
            width_p[j, start:start + m] = upper - lower
            width_t[j, start:start + m] = upper_t - lower

    def per_alpha(values):
        # every observed assignment's width, in enumeration order
        return {alpha: float(row[inverse].mean()) for alpha, row in zip(alphas, values)}

    return AuditReport(
        design=design,
        theta0=theta0,
        gamma_star=prof.gamma_star,
        dominance=prof,
        dominance_ok=dominance_ok,
        gamma_bound_ok=gamma_bound_ok,
        max_shortfall=shortfall,
        proposed_coverage=coverage(lambda half: (lplus > half) & (lminus > half)),
        traditional_coverage=coverage(lambda half: (lplus > half) & (lplus < 1 - half)),
        proposed_width_mean=per_alpha(width_p),
        traditional_width_mean=per_alpha(width_t),
        assignments=k,
        width_classes=rep.size,
    )
