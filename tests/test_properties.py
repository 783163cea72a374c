"""Property tests: exact switch points against the generic bisection and direct
p-values, crossings that depend on their row alone, the interval-level reads of
inversion and sup-norm error against point evaluation, outputs that do not
depend on the replicate block size, enumerated row ranges against the
unranker, and the paper's exact guarantees on small tied populations, where
the exact audit equals the per-assignment public intervals."""

import dataclasses
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from randinf import (
    CRD,
    RBD,
    ExactMode,
    MCMode,
    ObservedData,
    PValueKind,
    build_step_function,
    build_step_functions,
    combine_functions,
    exact_validity_audit,
    generate_population,
    get_statistic,
    make_combiner,
    mc_sup_error,
    p_value,
    randomization_distribution,
    total_assignments,
)
from randinf import assignment_matrix
from randinf import randomization as randomization_mod
from randinf.design import _INT64_SAFE_TOTAL, _indices_to_assignments, _range_to_assignments
from randinf.combine import _combined_interval
from randinf.datasets import PotentialTable
from randinf.inversion import _bisect_crossings, _proposed_interval, _traditional_interval
from randinf.randomization import _replicate_source
from randinf.statistics import observed_statistic
from conftest import crossing_vectors, outcome_scale

WILCOXON = get_statistic("wilcoxon_rank_sum")
DIFF_MEANS = get_statistic("diff_means")
# diff_means without its closed form takes the generic bisection.  Divided
# by 1 + 100 w_0, rows that treat unit 0 cross far outside the outcome range,
# so their brackets expand and need more halvings than the other rows.
DIFF_MEANS_BISECTED = dataclasses.replace(DIFF_MEANS, name="diff_means_bisected", affine=None)
ROW_SCALED = dataclasses.replace(
    DIFF_MEANS_BISECTED, name="row_scaled", ei_certified=False,
    realized_rows=lambda Y, W: DIFF_MEANS.realized_rows(Y, W) / (1 + 100 * W[:, 0]),
)
SIDES = (PValueKind.LPLUS, PValueKind.UPLUS, PValueKind.LMINUS, PValueKind.UMINUS)
PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def experiments(draw):
    """(data, design, mode): small CRD/RBD data, continuous, integer or half-integer."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 10))
        design = CRD(n, draw(st.integers(1, n - 1)))
    else:
        sizes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=3))
        design = RBD(tuple((size, draw(st.integers(1, size - 1))) for size in sizes))
    n = design.n_units
    kind = draw(st.sampled_from(["continuous", "integer", "half-integer"]))
    if kind == "continuous":
        y = draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n))
    else:
        y = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    y = np.asarray(y, dtype=float) / (2.0 if kind == "half-integer" else 1.0)
    w = np.zeros(n, dtype=np.int8)
    start = 0
    for size, treated in design.blocks:
        members = draw(st.permutations(range(start, start + size)))
        w[list(members[:treated])] = 1
        start += size
    mode = draw(st.sampled_from([ExactMode(), MCMode(k=300, seed=draw(st.integers(0, 2**32)))]))
    return ObservedData(w, y), design, mode


@PROPERTY_SETTINGS
@given(experiments())
def test_switch_point_crossings_equal_generic_bisection(experiment):
    # both crossing vectors of the kernel, from one switch-point call
    data, design, mode = experiment
    source = _replicate_source(design, mode)
    t_obs = observed_statistic(WILCOXON, data)
    scale = outcome_scale(data)
    for strict, exact in zip((False, True), crossing_vectors(data, WILCOXON, source, t_obs, scale)):
        generic = np.concatenate([_bisect_crossings(data, WILCOXON, W.astype(float), t_obs, strict, scale)
                                  for W in source.blocks()])
        np.testing.assert_array_equal(exact, generic)


def test_crossing_depends_on_its_row_alone():
    # Monte Carlo draws are prefix-stable, so the first m of 40 draws are the
    # m draws; only a stopping rule shared across rows could move a crossing.
    # Rows that treat unit 0 widen their brackets, the others do not.  With
    # one halving count for all rows, 62 of these 78 comparisons differ.
    rng = np.random.default_rng(12)
    y = rng.lognormal(size=10)
    w = np.zeros(10, dtype=np.int8)
    w[1 + rng.choice(9, size=5, replace=False)] = 1  # unit 0 in control
    data, design = ObservedData(w, y), CRD(10, 5)
    t_obs = observed_statistic(ROW_SCALED, data)

    def crossings(k):
        return crossing_vectors(data, ROW_SCALED, _replicate_source(design, MCMode(k=k, seed=9)),
                                t_obs, outcome_scale(data))

    full = crossings(40)
    for m in range(1, 40):
        for head, whole in zip(crossings(m), full, strict=True):
            np.testing.assert_array_equal(head, whole[:m])


@PROPERTY_SETTINGS
@given(experiments(), st.sampled_from(SIDES), st.floats(-1.0, 1.0))
def test_step_function_equals_direct_p_value_off_candidates(experiment, side, u):
    data, design, mode = experiment
    y = data.y_obs
    theta = u * 2 * outcome_scale(data)
    # the rank statistic can only change at (y_j - y_i) / c, c in {1, 2}
    candidates = np.concatenate([(y[None, :] - y[:, None]).ravel() / c for c in (1, 2)])
    assume(np.min(np.abs(candidates - theta)) > 1e-6 * outcome_scale(data))
    f = build_step_function(data, design, WILCOXON, side, mode)
    assert f.value(theta) == p_value(data, design, WILCOXON, theta, side, mode)


def _union_grid(fs):
    return np.unique(np.concatenate([f.breakpoints for f in fs]))


def _first_start(grid, theta, hit):
    """Largest grid point <= the first hit test point (-inf below the grid, +inf if none)."""
    if not hit.any():
        return np.inf
    j = np.searchsorted(grid, theta[np.argmax(hit)], side="right")
    return -np.inf if j == 0 else float(grid[j - 1])


@PROPERTY_SETTINGS
@given(st.lists(experiments(), min_size=1, max_size=3),
       st.sampled_from([DIFF_MEANS, WILCOXON]),
       st.sampled_from(["fisher", "de", "stouffer"]),
       st.sampled_from([0.05, 0.2, 0.5, 0.9]))
def test_combined_interval_equals_point_evaluation(exps, stat, name, alpha):
    fss = [build_step_functions(data, design, stat, mode) for data, design, mode in exps]
    combiner = make_combiner(name)
    c_lplus = combine_functions([fs[PValueKind.LPLUS] for fs in fss], combiner)
    c_uplus = combine_functions([fs[PValueKind.UPLUS] for fs in fss], combiner)
    grid = _union_grid([c_lplus, c_uplus])
    assume(grid.size > 0)
    # one test point per theta interval and one at each grid point, in order
    mids = np.append(0.5 * (grid[:-1] + grid[1:]), grid[-1] + 1.0)
    theta = np.concatenate(([grid[0] - 1.0], np.column_stack((grid, mids)).ravel()))
    for c in (c_lplus, c_uplus):
        np.testing.assert_array_equal(c.value_from_right(grid), c.value(mids))
    half = alpha / 2
    ci = _combined_interval(fss, combiner, alpha)
    assert ci.lower == _first_start(grid, theta, c_lplus.value(theta) > half)
    assert ci.upper == _first_start(grid, theta, 1.0 - c_uplus.value(theta) <= half)


@PROPERTY_SETTINGS
@given(experiments(), st.sampled_from([DIFF_MEANS, WILCOXON]), st.integers(0, 2**32))
def test_mc_sup_error_equals_point_and_right_limit_maximum(experiment, stat, seed):
    data, design, mode = experiment
    fs = build_step_functions(data, design, stat, mode)
    estimates = build_step_functions(data, design, stat, MCMode(k=50, seed=seed))
    for side in SIDES:
        est, exact = estimates[side], fs[side]
        grid = _union_grid([est, exact])
        former = max(
            abs(est.limit_low() - exact.limit_low()),
            np.max(np.abs(est.value(grid) - exact.value(grid)), initial=0.0),
            np.max(np.abs(est.value_from_right(grid) - exact.value_from_right(grid)), initial=0.0),
        )
        assert mc_sup_error(est, exact) == former


@PROPERTY_SETTINGS
@given(experiments(), st.sampled_from([DIFF_MEANS, WILCOXON, DIFF_MEANS_BISECTED, ROW_SCALED]),
       st.sampled_from([8, 16]), st.floats(-1.0, 1.0))
def test_row_block_size_does_not_change_outputs(experiment, stat, block, u):
    # every experiment here fits one default block; 8 or 16 rows split it
    data, design, mode = experiment
    theta = u * 2 * outcome_scale(data)

    def outputs():
        fs = build_step_functions(data, design, stat, mode)
        dist = randomization_distribution(data, design, stat, theta, mode)
        return ([fs[side].breakpoints for side in SIDES] + [fs[side].counts for side in SIDES]
                + [np.array([fs[side].base_count, fs[side].never_count]) for side in SIDES]
                + [dist.values, dist.counts])

    one_block = outputs()
    with mock.patch.object(randomization_mod, "_ROW_BLOCK", block):
        blocked = outputs()
    for a, b in zip(one_block, blocked, strict=True):
        assert np.array_equal(a, b)


def _treated(draw, k):
    """One unit treated, all but one, two, two untreated, half, or any count."""
    t = draw(st.sampled_from([1, k - 1, 2, k - 2, k // 2]) | st.integers(1, k - 1))
    return min(max(t, 1), k - 1)


@st.composite
def designs(draw, many_blocks=True):
    """A CRD of 2-40 units, an RBD of 1-4 blocks or, if ``many_blocks``, of 10-30 small ones."""
    kind = draw(st.sampled_from(["crd", "rbd", "many"] if many_blocks else ["crd", "rbd"]))
    if kind == "crd":
        n = draw(st.integers(2, 40))
        return CRD(n, _treated(draw, n))
    count, size = (draw(st.integers(1, 4)), 9) if kind == "rbd" else (draw(st.integers(10, 30)), 5)
    sizes = [draw(st.integers(2, size)) for _ in range(count)]
    return RBD(tuple((k, _treated(draw, k)) for k in sizes))


@st.composite
def enumeration_ranges(draw):
    """(design, lo, hi): a row range around any row, a replicate-block edge or an RBD wrap point.

    Block b of an RBD wraps to rank 0 at each multiple of the product of the
    counts of blocks 0..b.
    """
    design = draw(designs())
    total = total_assignments(design)
    edges, stride = [randomization_mod._ROW_BLOCK], 1
    for k, t in design.blocks[:-1]:
        stride *= comb(k, t)
        edges.append(stride)
    edge = draw(st.sampled_from(edges))
    anchor = draw(st.integers(0, total) | st.integers(0, total // edge).map(lambda j: j * edge))
    reach = draw(st.sampled_from([300, 3000]))
    lo = draw(st.integers(max(0, anchor - reach), min(anchor, total - 1)))
    hi = draw(st.integers(min(anchor + 1, total), min(total, anchor + reach)))
    return design, lo, hi


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(enumeration_ranges())
def test_range_to_assignments_equals_unranked_rows(case):
    design, lo, hi = case
    dtype = np.int64 if total_assignments(design) <= _INT64_SAFE_TOTAL else object
    want = _indices_to_assignments(design, np.arange(lo, hi, dtype=dtype))
    assert np.array_equal(_range_to_assignments(design, lo, hi), want)


@PROPERTY_SETTINGS
@given(designs(many_blocks=False).filter(lambda d: total_assignments(d) <= 20_000),
       st.sampled_from([8, 24, 64, 1 << 15]))
def test_exact_source_blocks_join_to_assignment_matrix(design, block):
    with mock.patch.object(randomization_mod, "_ROW_BLOCK", block):
        blocks = list(_replicate_source(design, ExactMode()).blocks())
    assert all(b.shape[0] == block for b in blocks[:-1])
    assert np.array_equal(np.concatenate(blocks), assignment_matrix(design))


@st.composite
def small_designs(draw):
    """A CRD of 4-12 units or an RBD of 2-3 blocks of 2-5 units."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 12))
        return CRD(n, draw(st.integers(1, n - 1)))
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3))
    return RBD(tuple((size, draw(st.integers(1, size - 1))) for size in sizes))


@st.composite
def tied_populations(draw, lognormal=False):
    """(population, design): integer y0 in 0..3 (or, with ``lognormal``,
    sometimes lognormal y0) at a constant effect, under a small design."""
    design = draw(small_designs())
    n = design.n_units
    if lognormal and draw(st.booleans()):
        y0 = generate_population(n, 0.0, seed=draw(st.integers(0, 2**32 - 1))).y0
    else:
        y0 = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    theta0 = draw(st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.5]))
    return PotentialTable(y0, y0 + theta0), design


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(tied_populations())
def test_exact_audit_holds_the_guarantees_on_tied_populations(case):
    # dominance (weak sides below the uniform, strict sides above) and
    # coverage of at least 1 - alpha with zero tolerance, plus the audit's
    # largest-atom bound
    population, design = case
    alphas = (0.05, 0.1, 0.2, 0.5)
    report = exact_validity_audit(population, design, alphas=alphas)
    assert report.dominance_ok and report.gamma_bound_ok
    for kind in (PValueKind.LPLUS, PValueKind.LMINUS):
        assert report.dominance.dominated_by_uniform(kind, tol=0.0)
    for kind in (PValueKind.UPLUS, PValueKind.UMINUS):
        assert report.dominance.dominates_uniform(kind, tol=0.0)
    for alpha in alphas:
        assert report.proposed_coverage[alpha] >= 1 - alpha


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(tied_populations(lognormal=True))
def test_exact_audit_equals_per_assignment_intervals(case):
    # the audit's breakpoint matrix against the public construction: one
    # kernel build per observed assignment, inverted at every alpha the way
    # confidence_interval and traditional_interval invert it
    population, design = case
    alphas = (0.05, 0.1, 0.2, 0.5)
    theta0 = float(population.y1[0] - population.y0[0])
    report = exact_validity_audit(population, design, alphas=alphas)
    proposed = {alpha: [] for alpha in alphas}
    traditional = {alpha: [] for alpha in alphas}
    for w in assignment_matrix(design):
        fs = build_step_functions(population.observe(w), design, DIFF_MEANS)
        for alpha in alphas:
            proposed[alpha].append(_proposed_interval(fs, alpha / 2, alpha / 2))
            traditional[alpha].append(_traditional_interval(fs[PValueKind.LPLUS], alpha))
    for alpha in alphas:
        for coverage, widths, cis in (
            (report.proposed_coverage, report.proposed_width_mean, proposed[alpha]),
            (report.traditional_coverage, report.traditional_width_mean, traditional[alpha]),
        ):
            assert coverage[alpha] == np.mean([ci.contains(theta0) for ci in cis])
            assert widths[alpha] == pytest.approx(np.mean([ci.width for ci in cis]), rel=1e-12)
