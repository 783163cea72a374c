"""Property tests: exact switch points against the generic bisection and direct p-values."""

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
    get_statistic,
    p_value,
)
from randinf.inversion import _bisect_crossings, _crossings
from randinf.randomization import _replicate_matrix
from randinf.statistics import observed_statistic

WILCOXON = get_statistic("wilcoxon_rank_sum")
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
