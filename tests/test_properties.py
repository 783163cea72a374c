"""Property tests: exact switch points against the generic bisection and direct
p-values, and the interval-level reads of inversion and sup-norm error against
point evaluation."""

import numpy as np
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
    get_statistic,
    make_combiner,
    mc_sup_error,
    p_value,
)
from randinf.combine import _combined_interval
from randinf.inversion import _bisect_crossings, _crossings
from randinf.randomization import _replicate_matrix
from randinf.statistics import observed_statistic

WILCOXON = get_statistic("wilcoxon_rank_sum")
DIFF_MEANS = get_statistic("diff_means")
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


def _scale(data):
    return max(1.0, float(np.max(np.abs(data.y_obs))), float(np.ptp(data.y_obs)))


@PROPERTY_SETTINGS
@given(experiments())
def test_switch_point_crossings_equal_generic_bisection(experiment):
    # both crossing vectors of the kernel, from one switch-point call
    data, design, mode = experiment
    W = _replicate_matrix(design, mode)
    t_obs = observed_statistic(WILCOXON, data)
    scale = _scale(data)
    for strict, exact in zip((False, True), _crossings(data, WILCOXON, W, t_obs, scale)):
        generic = _bisect_crossings(data, WILCOXON, W, t_obs, strict, scale)
        np.testing.assert_array_equal(exact, generic)


@PROPERTY_SETTINGS
@given(experiments(), st.sampled_from(SIDES), st.floats(-1.0, 1.0))
def test_step_function_equals_direct_p_value_off_candidates(experiment, side, u):
    data, design, mode = experiment
    y = data.y_obs
    theta = u * 2 * _scale(data)
    # the rank statistic can only change at (y_j - y_i) / c, c in {1, 2}
    candidates = np.concatenate([(y[None, :] - y[:, None]).ravel() / c for c in (1, 2)])
    assume(np.min(np.abs(candidates - theta)) > 1e-6 * _scale(data))
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
