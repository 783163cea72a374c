"""Property tests: exact switch points against the generic bisection and direct
p-values, crossings that depend on their row alone, the endpoint search against
a scan, the interval-level reads of inversion (weighted and custom combiners
too), the union-grid reads of combined functions against their components'
values, and sup-norm error against point evaluation, outputs that do not
depend on the replicate block size, enumerated and sampled row ranges against
the per-block unranker, sampled indices against a scalar replay of their
Philox streams, prefix-stable draws, ``round_sig`` against a reference that
rounds by boolean gathers, and the paper's exact guarantees on small tied
populations, where the exact audit equals the per-assignment public
intervals."""

import dataclasses
from math import comb, isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

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
    custom_combiner,
    exact_validity_audit,
    generate_population,
    get_statistic,
    make_combiner,
    mc_sup_error,
    p_value,
    randomization_distribution,
    sample_assignments,
    total_assignments,
)
from randinf import assignment_matrix
from randinf import randomization as randomization_mod
from randinf import statistics as statistics_mod
from randinf.design import (
    _INT64_SAFE_TOTAL,
    _indices_to_assignments,
    _range_to_assignments,
    _sample_indices,
    _unrank_block_vectorized,
)
from randinf._util import SIG_DIGITS, round_sig
from randinf.combine import _combine_matrix
from randinf.datasets import PotentialTable
from randinf.inversion import _bisect_crossings, _cut, _proposed_interval, _traditional_interval
from randinf.randomization import _replicate_source
from randinf.statistics import _wilcoxon_rows, observed_statistic
from conftest import (
    assert_interval_matches_p_values,
    crossing_vectors,
    outcome_scale,
    replay_indices,
)

WILCOXON = get_statistic("wilcoxon_rank_sum")
DIFF_MEANS = get_statistic("diff_means")
# diff_means without its closed form takes the generic bisection.  Divided
# by 1 + 100 w_0, rows that treat unit 0 cross far outside the outcome range,
# so their brackets expand and need more halvings than the other rows.
DIFF_MEANS_BISECTED = dataclasses.replace(DIFF_MEANS, name="diff_means_bisected", affine=None)
ROW_SCALED = dataclasses.replace(
    DIFF_MEANS_BISECTED, name="row_scaled", ei_certified=False,
    rows=lambda y1, y0, W: DIFF_MEANS.rows(y1, y0, W) / (1 + 100 * W[:, 0]),
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
@given(st.integers(0, 5000).flatmap(
    lambda g: st.tuples(st.just(g), st.one_of(st.sampled_from([0, g, g + 1]), st.integers(0, g + 1)))))
def test_cut_search_equals_scan(size_first):
    # first == g + 1 is all miss, 0 all hit, g a hit only at the last interval
    g, first = size_first
    grid = np.cumsum(np.full(g, 0.25)) - 3.0
    hit = np.arange(g + 1) >= first
    probed = []

    def recorded_hit(j):
        probed.append(j)
        return hit[j]

    scan = int(np.argmax(hit)) if hit.any() else hit.size
    assert _cut(grid, recorded_hit) == np.concatenate(([-np.inf], grid, [np.inf]))[scan]
    probes = np.concatenate(probed)
    assert probes.min() >= 0 and probes.max() <= g
    assert probes.size <= 2 * isqrt(g + 1)


def combined_value_from_components(c, theta):
    """A combined side at ``theta``: every component read at ``theta``, then combined.

    The reference for the union-grid reads of ``CombinedPValueFunction``; a
    falling side is one minus the combination of its rising components.
    """
    out = _combine_matrix(np.vstack([np.atleast_1d(f.value(theta)) for f in c.components]), c.combiner)
    out = out if c.side in (PValueKind.LPLUS, PValueKind.UPLUS) else 1.0 - out
    return float(out[0]) if np.ndim(theta) == 0 else out


def _assert_combined_interval_equals_point_evaluation(fss, combiner, alpha):
    combined = combine_functions(fss, combiner)
    c_lplus, c_uplus = combined[PValueKind.LPLUS], combined[PValueKind.UPLUS]
    grid = _union_grid([c_lplus, c_uplus])
    assume(grid.size > 0)
    # one test point per theta interval and one at each grid point, in order
    mids = np.append(0.5 * (grid[:-1] + grid[1:]), grid[-1] + 1.0)
    theta = np.concatenate(([grid[0] - 1.0], np.column_stack((grid, mids)).ravel()))
    half = alpha / 2
    ci = _proposed_interval(combined, half, half)
    assert ci.lower == _first_start(grid, theta, combined_value_from_components(c_lplus, theta) > half)
    assert ci.upper == _first_start(grid, theta, 1.0 - combined_value_from_components(c_uplus, theta) <= half)


@PROPERTY_SETTINGS
@given(st.lists(experiments(), min_size=1, max_size=3),
       st.sampled_from([DIFF_MEANS, WILCOXON]),
       st.sampled_from(["fisher", "de", "stouffer"]),
       st.booleans())
def test_combined_value_equals_combination_of_component_values(exps, stat, name, weighted):
    fss = [build_step_functions(data, design, stat, mode) for data, design, mode in exps]
    combiner = make_combiner(name, (3.0, 1.0, 2.5)[:len(fss)] if weighted else None)
    for c in combine_functions(fss, combiner).values():
        grid = c.breakpoints
        # at and next to every breakpoint, between them, outside them and at +-inf
        theta = np.concatenate((grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
                                grid * (1 - 1e-13), grid * (1 + 1e-13), 0.5 * (grid[:-1] + grid[1:]),
                                grid[:1] - 1.0, grid[-1:] + 1.0, [0.0, -np.inf, np.inf]))
        np.testing.assert_array_equal(c.value(theta), combined_value_from_components(c, theta))
        for t in theta[::7]:
            assert c.value(float(t)) == combined_value_from_components(c, float(t))


@PROPERTY_SETTINGS
@given(st.lists(experiments(), min_size=1, max_size=3),
       st.sampled_from([DIFF_MEANS, WILCOXON]),
       st.sampled_from(["fisher", "de", "stouffer"]),
       st.sampled_from([0.05, 0.2, 0.5, 0.9]))
def test_combined_interval_equals_point_evaluation(exps, stat, name, alpha):
    fss = [build_step_functions(data, design, stat, mode) for data, design, mode in exps]
    _assert_combined_interval_equals_point_evaluation(fss, make_combiner(name), alpha)


# a logit transform with a logistic reference: non-decreasing in each p-value
LOGIT = custom_combiner(lambda u: np.log(u) - np.log1p(-u), lambda g, m: 1.0 / (1.0 + np.exp(-g / m)))


@PROPERTY_SETTINGS
@given(st.lists(experiments(), min_size=2, max_size=2),
       st.sampled_from([DIFF_MEANS, WILCOXON]),
       st.sampled_from([make_combiner("fisher", (3, 1)), make_combiner("de", (1, 2.5)), LOGIT]),
       st.sampled_from([0.05, 0.2, 0.5, 0.9]))
def test_weighted_and_custom_combined_interval_equals_point_evaluation(exps, stat, combiner, alpha):
    fss = [build_step_functions(data, design, stat, mode) for data, design, mode in exps]
    _assert_combined_interval_equals_point_evaluation(fss, combiner, alpha)


@PROPERTY_SETTINGS
@given(experiments(), st.sampled_from([DIFF_MEANS, WILCOXON]), st.integers(0, 2**32))
def test_mc_sup_error_equals_maximum_over_interior_points(experiment, stat, seed):
    data, design, mode = experiment
    fs = build_step_functions(data, design, stat, mode)
    estimates = build_step_functions(data, design, stat, MCMode(k=50, seed=seed))
    for side in SIDES:
        est, exact = estimates[side], fs[side]
        grid = _union_grid([est, exact])
        # one point inside each theta interval the union breakpoints cut
        inside = (np.concatenate(([grid[0] - 1.0], 0.5 * (grid[:-1] + grid[1:]), [grid[-1] + 1.0]))
                  if grid.size else np.zeros(1))
        assert mc_sup_error(est, exact) == np.max(np.abs(est.value(inside) - exact.value(inside)))


@PROPERTY_SETTINGS
@given(experiments(), st.sampled_from([DIFF_MEANS, WILCOXON, DIFF_MEANS_BISECTED, ROW_SCALED]),
       st.sampled_from([8, 16]), st.floats(-1.0, 1.0))
def test_row_block_size_does_not_change_outputs(experiment, stat, block, u):
    # every experiment here fits one default block and tile; 8 or 16 rows
    # split it into blocks, and each block into 8-row float tiles
    data, design, mode = experiment
    theta = u * 2 * outcome_scale(data)

    def outputs():
        fs = build_step_functions(data, design, stat, mode)
        dist = randomization_distribution(data, design, stat, theta, mode)
        return ([fs[side].breakpoints for side in SIDES] + [fs[side].counts for side in SIDES]
                + [np.array([fs[side].base_count, fs[side].never_count]) for side in SIDES]
                + [dist.values, dist.counts])

    one_block = outputs()
    with (mock.patch.object(randomization_mod, "_ROW_BLOCK", block),
          mock.patch.object(statistics_mod, "_TILE_ENTRIES", 1)):
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


@PROPERTY_SETTINGS
@given(designs(many_blocks=False), st.sampled_from(["integer", "half-integer", "lognormal"]),
       st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_rank_sum_from_pair_counts_equals_midrank_sums(design, kind, k, seed):
    # the pair-count rank sum is exact, so it equals scipy's midrank sums byte
    # for byte, whether each row is its own chunk or rows share one
    rng = np.random.default_rng(seed)
    W = sample_assignments(design, k, seed=seed).astype(float)
    Y = {
        "integer": lambda size: rng.integers(-2, 3, size=size).astype(float),
        "half-integer": lambda size: rng.integers(-4, 5, size=size) / 2,
        "lognormal": rng.lognormal,
    }[kind](size=W.shape)
    want = (rankdata(Y, axis=1) * W).sum(axis=1)
    assert _wilcoxon_rows(Y, Y, W).tobytes() == want.tobytes()
    with mock.patch.object(statistics_mod, "_PAIR_CHUNK", 1):
        assert _wilcoxon_rows(Y, Y, W).tobytes() == want.tobytes()


def switch_points_per_row(data, W, m):
    """Rank-sum switch points rebuilt from every row's own treated/control pairs.

    Each row pairs treated ``i`` with control ``j``: ``c = (1 - w_obs_i) + w_obs_j``,
    a pair with ``c = 0`` adds its win to ``base`` and the others switch at
    ``q = (y_j - y_i) / c``; the ``ceil(m - base)``-th smallest ``q`` is the
    switch point, ``-inf`` when no pair is needed and ``+inf`` past the last.
    """
    y, w_obs = data.y_obs, data.w_obs
    treated = W > 0.5
    k, n = W.shape
    n1 = int(treated[0].sum())
    ti = np.nonzero(treated)[1].reshape(k, n1)
    ci = np.nonzero(~treated)[1].reshape(k, n - n1)
    diff = (y[ci][:, None, :] - y[ti][:, :, None]).reshape(k, -1)
    c = ((1 - w_obs[ti])[:, :, None] + w_obs[ci][:, None, :]).reshape(k, -1)
    fixed = c == 0
    wins = (fixed & (diff < 0)).sum(axis=1) + 0.5 * (fixed & (diff == 0)).sum(axis=1)
    base = n1 * (n1 + 1) / 2 + wins
    q = np.divide(diff, c, out=np.full(diff.shape, np.inf), where=~fixed)
    q.sort(axis=1)
    pairs = q.shape[1]
    need = np.ceil(m.reshape(-1, 1) - base).astype(np.int64)
    pick = q[np.arange(k), np.clip(need - 1, 0, pairs - 1)]
    return np.where(need <= 0, -np.inf, np.where(need > pairs, np.inf, pick)).reshape(m.shape + (k,))


@PROPERTY_SETTINGS
@given(designs(), st.sampled_from(["integer", "half-integer", "negative", "lognormal"]),
       st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 2**20), min_size=1, max_size=4))
def test_switch_points_equal_per_row_pairs(design, kind, k, seed, picks):
    # the pair table gives every row the bytes its own pairs give, the
    # observed row (all of its pairs fixed) included, for thresholds from
    # below every row's base (-inf) to past every row's maximum (+inf)
    rng = np.random.default_rng(seed)
    n = design.n_units
    y = {
        "integer": lambda: rng.integers(-2, 3, size=n).astype(float),
        "half-integer": lambda: rng.integers(-4, 5, size=n) / 2,
        "negative": lambda: -rng.lognormal(size=n),
        "lognormal": lambda: rng.lognormal(size=n),
    }[kind]()
    w_obs = sample_assignments(design, 1, seed=seed + 1)[0]
    data = ObservedData(w_obs, y)
    W = sample_assignments(design, k, seed=seed).astype(float)
    W = np.insert(W, rng.integers(0, k + 1), w_obs, axis=0)
    n1 = int(w_obs.sum())
    low, pairs = n1 * (n1 + 1) / 2, n1 * (n - n1)
    m = np.array([low - 1, *(low + p % (2 * pairs + 1) / 2 for p in picks), low + pairs + 1])
    want = switch_points_per_row(data, W, m)
    assert (want[0] == -np.inf).all() and (want[-1] == np.inf).all()
    assert statistics_mod._wilcoxon_switch_points(data, W, m).tobytes() == want.tobytes()
    with mock.patch.object(statistics_mod, "_PAIR_CHUNK", 1):
        assert statistics_mod._wilcoxon_switch_points(data, W, m).tobytes() == want.tobytes()


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


def unranked_rows(design, idx):
    """Rows of the global indices ``idx``, every block unranked by the descent alone.

    Block ``b``'s rank is ``(i // stride) % C(k, t)`` in exact Python ints,
    ``stride`` being the product of the earlier blocks' counts; it is passed
    to :func:`_unrank_block_vectorized` as int64 when the block fits in 2**62.
    """
    rem = np.asarray(idx).astype(object)
    parts = []
    for k, t in design.blocks:
        b_total = comb(k, t)
        ranks, rem = rem % b_total, rem // b_total
        if b_total <= _INT64_SAFE_TOTAL:
            ranks = ranks.astype(np.int64)
        parts.append(_unrank_block_vectorized(k, t, ranks))
    return np.concatenate(parts, axis=1)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(enumeration_ranges())
def test_range_to_assignments_equals_unranked_rows(case):
    design, lo, hi = case
    want = unranked_rows(design, np.arange(lo, hi, dtype=object))
    assert np.array_equal(_range_to_assignments(design, lo, hi), want)


@st.composite
def sampled_indices(draw):
    """(design, idx): indices into a random design, one whose runs mix object and
    int64 ranks, or one whose blocks form product-table groups of each kind.

    ``idx`` is int64 or object when the space fits in 2**62, object past it.
    """
    design = draw(designs() | st.sampled_from([
        RBD(((70, 35), (6, 3)) * 4),  # runs of one object block and of one small block
        RBD(((6, 3),) * 30),  # runs of 14, 14 and 2 blocks
        RBD(((6, 3),) * 10),  # groups of 3, 3, 3 and 1 blocks
        RBD(((8, 4),) * 3),  # groups of 2 and 1 blocks
        RBD(((8, 1),) * 3 + ((4, 1),) * 2 + ((2, 1),)),  # a group of exactly _TABLE_BYTES, then one
        RBD(((6, 3), (6, 3), (20, 10), (6, 3), (6, 3))),  # a block too large for a table between groups
        RBD(((17, 1),) + ((2, 1),) * 63),
        CRD(100, 50),
        CRD(66, 33),
        CRD(64, 32),
    ]))
    total = total_assignments(design)
    index = st.sampled_from([0, total - 1]) | st.integers(0, total - 1)
    idx = draw(st.lists(index, min_size=1, max_size=50))
    fits = total <= _INT64_SAFE_TOTAL
    return design, np.array(idx, dtype=np.int64 if fits and draw(st.booleans()) else object)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(sampled_indices())
def test_indices_to_assignments_equals_per_block_unranker(case):
    design, idx = case
    assert np.array_equal(_indices_to_assignments(design, idx), unranked_rows(design, idx))


@st.composite
def sample_totals(draw):
    """A space size of 2-2,000 bits: any, or 2**b + 1."""
    bits = draw(st.integers(2, 2000))
    return draw(st.just((1 << (bits - 1)) + 1) | st.integers((1 << (bits - 1)) + 1, 1 << bits))


SEEDS = (st.integers(0, 2**63) | st.tuples(st.integers(0, 2**32), st.integers(0, 2**32))
         | st.integers(2**64, 2**128 - 1))


@PROPERTY_SETTINGS
@given(SEEDS, st.integers(1, 40), sample_totals())
def test_sample_indices_equal_scalar_replay(seed, k, total):
    # CRD(total, 1) has exactly `total` assignments
    assert list(_sample_indices(CRD(total, 1), k, seed)) == replay_indices(seed, k, total)


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(st.sampled_from([RBD(((17, 1),) + ((2, 1),) * 63), RBD(((6, 3),) * 200)]),
       SEEDS, st.integers(1, 300), st.integers(1, 300))
def test_sampled_draws_are_prefix_stable(design, seed, k, m):
    # about half of the draws of the first design miss attempt 0, and the
    # second is past 512 bits
    m = min(k, m)
    assert np.array_equal(sample_assignments(design, k, seed)[:m], sample_assignments(design, m, seed))


@PROPERTY_SETTINGS
@given(designs(many_blocks=False).filter(lambda d: total_assignments(d) <= 20_000),
       st.sampled_from([8, 24, 64, 1 << 15]))
def test_exact_source_blocks_join_to_assignment_matrix(design, block):
    with mock.patch.object(randomization_mod, "_ROW_BLOCK", block):
        blocks = list(_replicate_source(design, ExactMode()).blocks())
    assert all(b.shape[0] == block for b in blocks[:-1])
    assert np.array_equal(np.concatenate(blocks), assignment_matrix(design))


def round_sig_by_gathers(x):
    """The reference for ``round_sig``: the scale and the rounding on the
    normal entries alone, picked out by boolean gathers."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        ax = np.abs(x)
        normal = np.isfinite(x) & (ax > 1e-280)
        mag = np.floor(np.log10(ax, where=normal, out=np.zeros_like(x)))
        scale = np.power(10.0, SIG_DIGITS - 1 - mag, where=normal, out=np.ones_like(x))
        out[normal] = np.round(x[normal] * scale[normal]) / scale[normal]
    if np.ndim(x) == 0:
        return float(out)
    return out


def test_round_sig_equals_gathers_on_powers_of_ten_and_edge_values():
    # every power of ten and its two float neighbours, signed zeros,
    # infinities, NaN, values at and below 1e-280, the largest doubles, and
    # a log-uniform sweep over 1e-270 .. 1e300
    tens = 10.0 ** np.arange(-323, 309)
    rng = np.random.default_rng(20)
    sweep = 10.0 ** rng.uniform(-270, 300, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    edges = np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-280, np.nextafter(1e-280, 1), 5e-324,
         np.finfo(float).max, -np.finfo(float).max, np.finfo(float).tiny],
    ])
    x = np.concatenate([edges, sweep])
    assert round_sig(x).tobytes() == round_sig_by_gathers(x).tobytes()
    for value in edges.tolist():  # the 0-d path returns a float
        got, want = round_sig(value), round_sig_by_gathers(value)
        assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40)
       | st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_round_sig_equals_gathers(values):
    x = np.array(values, dtype=float)
    assert round_sig(x).tobytes() == round_sig_by_gathers(x).tobytes()
    assert round_sig(x.reshape(-1, 1)).shape == x.reshape(-1, 1).shape


@st.composite
def small_designs(draw):
    """A CRD of 4-12 units or an RBD of 2-3 blocks of 2-5 units."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 12))
        return CRD(n, draw(st.integers(1, n - 1)))
    sizes = draw(st.lists(st.integers(2, 5), min_size=2, max_size=3))
    return RBD(tuple((size, draw(st.integers(1, size - 1))) for size in sizes))


@st.composite
def tied_populations(draw, outcomes=("integer",)):
    """(population, design): y0 of one of the ``outcomes`` kinds at a constant
    effect, under a small design.  Kinds: ``integer`` y0 in 0..3,
    ``lognormal`` y0, and ``decimal`` y0 in 0.0..0.5 by tenths, which binary
    floats do not hold exactly."""
    design = draw(small_designs())
    n = design.n_units
    kind = draw(st.sampled_from(outcomes))
    if kind == "lognormal":
        y0 = generate_population(n, 0.0, seed=draw(st.integers(0, 2**32 - 1))).y0
    else:
        top = 5 if kind == "decimal" else 3
        y0 = np.asarray(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), dtype=float)
        y0 = y0 / 10 if kind == "decimal" else y0
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
        assert report.dominance.dominated_by_uniform(kind)
    for kind in (PValueKind.UPLUS, PValueKind.UMINUS):
        assert report.dominance.dominates_uniform(kind)
    for alpha in alphas:
        assert report.proposed_coverage[alpha] >= 1 - alpha


@settings(PROPERTY_SETTINGS, max_examples=100)
@given(tied_populations(outcomes=("lognormal", "decimal")))
def test_exact_audit_equals_per_assignment_intervals(case):
    # the audit against the public construction: one kernel build per
    # observed assignment, inverted at every alpha the way
    # confidence_interval and traditional_interval invert it, and each
    # proposed interval against the p_values tests at the truth
    population, design = case
    alphas = (0.05, 0.1, 0.2, 0.5)
    theta0 = float(population.y1[0] - population.y0[0])
    report = exact_validity_audit(population, design, alphas=alphas)
    proposed = {alpha: [] for alpha in alphas}
    traditional = {alpha: [] for alpha in alphas}
    for w in assignment_matrix(design):
        data = population.observe(w)
        fs = build_step_functions(data, design, DIFF_MEANS)
        for alpha in alphas:
            ci = _proposed_interval(fs, alpha / 2, alpha / 2)
            assert_interval_matches_p_values(ci, data, design, DIFF_MEANS, theta0)
            proposed[alpha].append(ci)
            traditional[alpha].append(_traditional_interval(fs[PValueKind.LPLUS], alpha))
    for alpha in alphas:
        for coverage, widths, cis in (
            (report.proposed_coverage, report.proposed_width_mean, proposed[alpha]),
            (report.traditional_coverage, report.traditional_width_mean, traditional[alpha]),
        ):
            assert coverage[alpha] == np.mean([ci.contains(theta0) for ci in cis])
            assert widths[alpha] == pytest.approx(np.mean([ci.width for ci in cis]), rel=1e-12)
