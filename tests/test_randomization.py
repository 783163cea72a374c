"""Randomization distributions, the five p-value kinds, dominance profiles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from randinf import (
    CRD,
    MCMode,
    ObservedData,
    PValueKind,
    build_step_functions,
    confidence_interval,
    dominance_profile,
    generate_population,
    p_value,
    p_values,
    randomization_distribution,
    sample_assignments,
)
from randinf.datasets import toy_population
from conftest import random_experiment

TOY_GOLDEN = {-3.0: 0.004, -1.0: 0.012, 0.0: 0.131, 1.0: 0.560, 3.0: 0.988}


class TestDistribution:
    def test_toy_tail_at_zero(self, toy, diff_means):
        data, design = toy
        dist = randomization_distribution(data, design, diff_means, 0.0)
        assert dist.denom == 252
        assert p_values(data, design, diff_means, 0.0)[PValueKind.LPLUS] == 33 / 252

    def test_constant_outcomes_single_atom(self, diff_means):
        data = ObservedData(np.array([1, 1, 0, 0]), np.full(4, 2.0))
        dist = randomization_distribution(data, CRD(4, 2), diff_means, 0.0)
        assert dist.values.size == 1
        assert dist.gamma_star == 1.0

    def test_matches_hand_enumeration(self, diff_means):
        # brute-force oracle over the six assignments of a four-unit design
        rng = np.random.default_rng(12)
        data, design = random_experiment(rng, n=4)
        theta = 0.8
        table_y1 = np.where(data.w_obs == 1, data.y_obs, data.y_obs + theta)
        table_y0 = np.where(data.w_obs == 1, data.y_obs - theta, data.y_obs)
        vals = []
        for treated in itertools.combinations(range(4), 2):
            w = np.zeros(4)
            w[list(treated)] = 1
            realized = np.where(w == 1, table_y1, table_y0)
            vals.append(realized[w == 1].mean() - realized[w == 0].mean())
        want_support, want_counts = np.unique(np.round(vals, 12), return_counts=True)
        dist = randomization_distribution(data, design, diff_means, theta)
        np.testing.assert_allclose(dist.values, want_support, atol=1e-12)
        np.testing.assert_array_equal(dist.counts, want_counts)

    def test_counts_account_for_every_assignment(self, toy, diff_means):
        data, design = toy
        dist = randomization_distribution(data, design, diff_means, 1.0)
        assert int(dist.counts.sum()) == dist.denom

    def test_mode_recorded(self, toy, diff_means):
        data, design = toy
        mc = randomization_distribution(data, design, diff_means, 0.0, MCMode(k=100, seed=1))
        assert mc.denom == 100


class TestPValues:
    @pytest.mark.parametrize("theta,expected", sorted(TOY_GOLDEN.items()))
    def test_toy_golden_lplus(self, toy, diff_means, theta, expected):
        data, design = toy
        p = p_value(data, design, diff_means, theta, PValueKind.LPLUS)
        assert round(p, 3) == expected

    def test_complementary_tails_exact(self, toy, diff_means):
        data, design = toy
        for theta in (-2.0, 0.0, 0.7, 1.0, 4.0):
            pv = p_values(data, design, diff_means, theta)
            assert pv[PValueKind.LPLUS] + pv[PValueKind.UMINUS] == 1.0
            assert pv[PValueKind.LMINUS] + pv[PValueKind.UPLUS] == 1.0

    def test_strict_tails_never_exceed_weak(self, diff_means):
        rng = np.random.default_rng(2)
        for _ in range(10):
            data, design = random_experiment(rng, n=8)
            theta = float(rng.normal())
            pv = p_values(data, design, diff_means, theta)
            assert pv[PValueKind.UPLUS] <= pv[PValueKind.LPLUS]
            assert pv[PValueKind.UMINUS] <= pv[PValueKind.LMINUS]

    def test_tie_gap_at_least_observed_probability(self, toy, diff_means):
        # Lplus - Uplus = P(T_rep = T_obs) >= P(W = w_obs) > 0 in exact mode
        data, design = toy
        for theta in (-1.0, 0.0, 2.0):
            pv = p_values(data, design, diff_means, theta)
            gap = pv[PValueKind.LPLUS] - pv[PValueKind.UPLUS]
            assert gap >= 1 / 252

    def test_two_sided_definition_and_clip(self, toy, diff_means):
        data, design = toy
        pv = p_values(data, design, diff_means, 0.4)
        want = min(1.0, 2 * min(pv[PValueKind.LPLUS], pv[PValueKind.LMINUS]))
        assert pv[PValueKind.TWO_SIDED_L] == want
        # near the point estimate both one-sided values exceed one half, so
        # the doubled minimum must clip at one
        pv_mid = p_values(data, design, diff_means, 0.912)
        assert pv_mid[PValueKind.TWO_SIDED_L] == 1.0

    def test_monotone_in_theta_for_ei(self, diff_means, wilcoxon):
        rng = np.random.default_rng(21)
        data, design = random_experiment(rng, n=8)
        grid = np.linspace(-4, 4, 41)
        for stat in (diff_means, wilcoxon):
            lplus = [p_value(data, design, stat, t, PValueKind.LPLUS) for t in grid]
            lminus = [p_value(data, design, stat, t, PValueKind.LMINUS) for t in grid]
            assert (np.diff(lplus) >= 0).all()
            assert (np.diff(lminus) <= 0).all()

    def test_theta_limits_exact(self, toy, diff_means):
        # far left only the observed assignment ties; far right everything counts
        data, design = toy
        scale = float(np.ptp(data.y_obs))
        assert p_value(data, design, diff_means, -1e6 * scale, PValueKind.LPLUS) == 1 / 252
        assert p_value(data, design, diff_means, +1e6 * scale, PValueKind.LPLUS) == 1.0

    def test_mc_with_full_enumeration_matches_exact(self, diff_means, monkeypatch):
        # aggregating uniform draws that happen to be the full space must
        # reproduce exact mode bit for bit
        import randinf.randomization as rz

        rng = np.random.default_rng(9)
        data, design = random_experiment(rng, n=6)
        exact = {k: v for k, v in p_values(data, design, diff_means, 0.3).items()}

        from randinf.design import total_assignments

        monkeypatch.setattr(
            rz, "_sample_indices", lambda d, k, seed: np.arange(total_assignments(d))
        )
        mc = p_values(data, design, diff_means, 0.3, MCMode(k=20, seed=0))
        assert mc == exact

    def test_studentized_p_valid_but_curve_non_monotone(self, nonmono, studentized):
        # each fixed-theta test is valid, yet the curve dips: a strict decrease
        data, design = nonmono
        grid = np.linspace(-2, 4, 241)
        vals = np.array([p_value(data, design, studentized, t, PValueKind.LPLUS) for t in grid])
        assert (np.diff(vals) < -1e-9).any()


class TestDominanceProfile:
    def test_toy_dominance_and_gamma(self, diff_means):
        pop = toy_population()
        data = pop.observe(np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0]))
        prof = dominance_profile(data, CRD(10, 5), diff_means, 1.0)
        assert prof.gamma_star == pytest.approx(2 / 252, abs=0)
        for kind in (PValueKind.LPLUS, PValueKind.LMINUS):
            assert prof.dominated_by_uniform(kind)
            assert prof.max_shortfall(kind) <= prof.gamma_star + 1e-12
        for kind in (PValueKind.UPLUS, PValueKind.UMINUS):
            assert prof.dominates_uniform(kind)
            assert prof.max_excess(kind) <= prof.gamma_star + 1e-12

    def test_toy_max_discrepancy_attains_gamma_star(self, diff_means):
        pop = toy_population()
        data = pop.observe(np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0]))
        prof = dominance_profile(data, CRD(10, 5), diff_means, 1.0)
        assert prof.max_shortfall(PValueKind.LPLUS) == pytest.approx(2 / 252, abs=1e-12)

    def test_constant_population_trivial(self, diff_means):
        # every p-value is one: the degenerate analogue of a one-point space
        data = ObservedData(np.array([1, 1, 0, 0]), np.full(4, 5.0))
        prof = dominance_profile(data, CRD(4, 2), diff_means, 0.0)
        levels, cdf = prof.profiles[PValueKind.LPLUS]
        np.testing.assert_array_equal(levels, [1.0])
        np.testing.assert_array_equal(cdf, [1.0])
        assert prof.dominated_by_uniform(PValueKind.LPLUS)

    def test_profile_is_distribution_over_assignments(self, diff_means):
        rng = np.random.default_rng(14)
        data, design = random_experiment(rng, n=6, effect=0.5)
        # constant-effect truth: impute from the observed data at the effect
        prof = dominance_profile(data, design, diff_means, 0.5)
        for kind in PValueKind:
            if kind == PValueKind.TWO_SIDED_L:
                continue
            levels, cdf = prof.profiles[kind]
            assert (np.diff(levels) > 0).all()
            assert cdf[-1] == 1.0
            assert (np.diff(cdf) > 0).all()


@pytest.mark.parametrize("call, block, per_row", [
    *(pytest.param(call, block, 40, id=f"{call}-{block}")
      for call in ("build_step_functions", "randomization_distribution") for block in (None, 1 << 12)),
    pytest.param("build_step_functions", 1 << 12, 20, id="build_step_functions-4096-one_vector"),
])
def test_peak_memory_is_bounded_per_row(diff_means, monkeypatch, call, block, per_row):
    # CRD(20,10) has 184,756 rows; as one float matrix they alone would take
    # 160 bytes a row.  Streamed in blocks, what spans every row is at most
    # 40 bytes of it: for the kernel, one rounded crossing vector, since
    # diff_means is affine, and while atoms runs its run starts and the
    # breakpoint and count arrays all four sides share (about 25 bytes a row
    # when every crossing is distinct); for the distribution, the rounded
    # values and their atoms.  The per-block temporaries are the int8 block
    # and a few int8-sized passes over it, plus float tiles: no float copy
    # of a whole block, which alone is 5.2 MB at 2^15 rows.  The one_vector
    # case holds the kernel to 20 bytes a row, four 2^12-row int8 blocks and
    # eight float tiles (6.1 MB), which a second rounded vector would exceed.
    import randinf.randomization as rz
    import randinf.statistics as st

    if block is not None:
        monkeypatch.setattr(rz, "_ROW_BLOCK", block)
    design = CRD(20, 10)
    data = generate_population(20, 1.0, seed=0).observe(sample_assignments(design, 1, seed=1)[0])
    run = {
        "build_step_functions": lambda: build_step_functions(data, design, diff_means),
        "randomization_distribution": lambda: randomization_distribution(data, design, diff_means, 0.5),
    }[call]
    run()  # lazily built tables and caches are not what is measured
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = 184_756
    assert peak < per_row * rows + 4 * rz._ROW_BLOCK * design.n_units + 8 * st._TILE_ENTRIES * 8


@pytest.mark.parametrize("k", [200, 8192])
def test_rank_sum_interval_memory_on_a_wide_design(wilcoxon, k):
    # CRD(2000,2) rows read 3,996 of the 4M pairs.  A pair table over every
    # unit takes 32 MB, but only units some row treats get a table row,
    # about 400 at k = 200; held to half that table.  At k = 8,192 every
    # unit is treated somewhere: the full table plus int8-sized passes over
    # the block (97.5 MB in all) stay below the 131 MB a float copy of the
    # block alone would take.
    n = 2000
    design = CRD(n, 2)
    data = generate_population(n, 1.0, seed=0).observe(sample_assignments(design, 1, seed=1)[0])
    confidence_interval(data, design, wilcoxon, 0.05, 0.05, MCMode(k=8, seed=3))  # lazily built tables
    tracemalloc.start()
    try:
        confidence_interval(data, design, wilcoxon, 0.05, 0.05, MCMode(k=k, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (4 * n * n if k == 200 else 8 * n * n + 4 * k * n)
