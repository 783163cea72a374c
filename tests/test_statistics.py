"""Imputation, statistic evaluation, Wilcoxon switch points, and the effect-increasing probe."""

import numpy as np
import pytest
from scipy.stats import rankdata

import randinf
from randinf import (
    CRD,
    RBD,
    DegenerateDenominatorError,
    ObservedData,
    PotentialTable,
    StatisticError,
    assignment_matrix,
    ei_probe,
    evaluate,
    evaluate_many,
    get_statistic,
    impute,
    observed_statistic,
    sample_assignments,
)
from randinf import statistics as statistics_mod
from conftest import random_experiment


class TestObservedData:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ObservedData(np.array([1, 0]), np.array([1.0]))

    def test_nonbinary_w(self):
        with pytest.raises(ValueError):
            ObservedData(np.array([1, 2]), np.array([1.0, 2.0]))

    def test_nonfinite_y(self):
        with pytest.raises(ValueError):
            ObservedData(np.array([1, 0]), np.array([1.0, np.inf]))


class TestImpute:
    def test_returns_the_one_potential_table_type(self, toy):
        data, _ = toy
        assert type(impute(data, 0.5)) is PotentialTable
        assert randinf.datasets.PotentialTable is randinf.statistics.PotentialTable is PotentialTable

    def test_toy_treated_row_at_zero(self, toy):
        data, _ = toy
        table = impute(data, 0.0)
        assert table.y1[0] == 2.00 and table.y0[0] == 2.00

    def test_zero_theta_collapses_table(self, toy):
        data, _ = toy
        table = impute(data, 0.0)
        np.testing.assert_array_equal(table.y1, data.y_obs)
        np.testing.assert_array_equal(table.y0, data.y_obs)

    def test_toy_control_row_matches_true_table(self, toy):
        # unit 5 is a control with y=1.85; at the true unit effect its imputed
        # treated value recovers the underlying 2.85
        data, _ = toy
        table = impute(data, 1.0)
        assert table.y1[4] == pytest.approx(2.85) and table.y0[4] == 1.85

    def test_constant_effect_holds_exactly(self, toy):
        data, _ = toy
        for theta in (-2.5, 0.3, 4.0):
            table = impute(data, theta)
            np.testing.assert_allclose(table.y1 - table.y0, theta, rtol=0, atol=1e-15)

    def test_observed_arm_preserved(self, toy):
        data, _ = toy
        table = impute(data, 0.7)
        treated = data.w_obs == 1
        np.testing.assert_array_equal(table.y1[treated], data.y_obs[treated])
        np.testing.assert_array_equal(table.y0[~treated], data.y_obs[~treated])

    def test_nonfinite_theta(self, toy):
        data, _ = toy
        with pytest.raises(ValueError):
            impute(data, np.nan)


class TestEvaluate:
    def test_toy_observed_value(self, toy, diff_means):
        data, _ = toy
        assert observed_statistic(diff_means, data) == pytest.approx(0.912, abs=1e-12)

    def test_constant_outcomes_give_zero(self, diff_means):
        data = ObservedData(np.array([1, 1, 0, 0]), np.full(4, 3.3))
        assert evaluate(diff_means, impute(data, 0.0), data.w_obs) == 0.0

    def test_two_units(self, diff_means):
        data = ObservedData(np.array([1, 0]), np.array([3.0, 1.0]))
        assert evaluate(diff_means, impute(data, 0.0), np.array([1, 0])) == 2.0

    def test_wilcoxon_midranks(self, wilcoxon):
        # tie between a treated and a control unit gets the average rank
        data = ObservedData(np.array([1, 1, 0, 0]), np.array([2.0, 5.0, 2.0, 1.0]))
        got = evaluate(wilcoxon, impute(data, 0.0), data.w_obs)
        assert got == 2.5 + 4.0

    def test_wilcoxon_matches_scipy_rankdata(self, wilcoxon):
        rng = np.random.default_rng(3)
        data, design = random_experiment(rng, n=10)
        table = impute(data, 0.4)
        w = np.array([1, 1, 1, 0, 0, 1, 0, 0, 1, 0])
        realized = np.where(w == 1, table.y1, table.y0)
        want = float(rankdata(realized)[w == 1].sum())
        assert evaluate(wilcoxon, table, w) == want

    def test_studentized_degenerate_denominator(self, studentized):
        data = ObservedData(np.array([1, 1, 0, 0]), np.full(4, 1.0))
        with pytest.raises(DegenerateDenominatorError):
            evaluate(studentized, impute(data, 0.0), data.w_obs)

    def test_studentized_small_arm(self, studentized, toy):
        data, _ = toy
        w = np.zeros(10, dtype=int)
        w[0] = 1
        with pytest.raises(StatisticError):
            evaluate(studentized, impute(data, 0.0), w)

    def test_studentized_matches_arm_size_form(self, studentized):
        # two arms of four: denominator is sqrt(s1^2/4 + s0^2/4)
        rng = np.random.default_rng(8)
        data, _ = random_experiment(rng, n=8)
        table = impute(data, 0.0)
        w = data.w_obs
        y1 = data.y_obs[w == 1]
        y0 = data.y_obs[w == 0]
        want = (y1.mean() - y0.mean()) / np.sqrt(y1.var(ddof=1) / 4 + y0.var(ddof=1) / 4)
        assert evaluate(studentized, table, w) == pytest.approx(want, rel=1e-12)


class TestThetaStructure:
    def test_diff_means_affine_slope_nonnegative(self, toy, diff_means):
        # finite differences of theta -> T are a nonnegative constant slope,
        # zero exactly at the observed assignment
        data, design = toy
        from randinf import assignment_matrix

        W = assignment_matrix(design)
        t1 = evaluate_many(diff_means, impute(data, 1.0), W)
        t0 = evaluate_many(diff_means, impute(data, 0.0), W)
        t3 = evaluate_many(diff_means, impute(data, 3.0), W)
        slope = t1 - t0
        np.testing.assert_allclose((t3 - t0) / 3.0, slope, atol=1e-12)
        assert (slope >= -1e-15).all()
        zero_rows = np.nonzero(np.abs(slope) < 1e-15)[0]
        assert [tuple(W[i]) for i in zero_rows] == [tuple(data.w_obs)]

    @pytest.mark.parametrize("name", ["diff_means", "studentized", "wilcoxon_rank_sum"])
    def test_observed_assignment_constant_in_theta(self, toy, name):
        data, _ = toy
        stat = get_statistic(name)
        vals = [evaluate(stat, impute(data, t), data.w_obs) for t in (-7.0, -1.0, 0.0, 2.0, 9.0)]
        assert np.ptp(vals) < 1e-12


class TestEIProbe:
    def test_diff_means_consistent(self, toy, diff_means):
        data, design = toy
        assert ei_probe(diff_means, data, design, trials=200, seed=4).consistent

    def test_wilcoxon_consistent(self, toy, wilcoxon):
        data, design = toy
        assert ei_probe(wilcoxon, data, design, trials=200, seed=4).consistent

    def test_studentized_counterexample(self, nonmono, studentized):
        data, design = nonmono
        result = ei_probe(studentized, data, design, trials=200, seed=4)
        assert not result.consistent
        assert result.counterexample["statistic_after"] < result.counterexample["statistic_before"]

    def test_trials_validated(self, toy, diff_means):
        data, design = toy
        with pytest.raises(ValueError):
            ei_probe(diff_means, data, design, trials=0, seed=1)


class TestWilcoxonSwitchPoints:
    def test_threshold_met_exactly_past_switch_point(self, wilcoxon):
        # T(theta) >= m just above b* and fails just below it, per row
        rng = np.random.default_rng(8)
        data, design = random_experiment(rng, n=9, n_treated=4)
        W = assignment_matrix(design).astype(float)
        D = W - data.w_obs
        for m in (12.5, 20.0, 27.5):
            b = wilcoxon.switch_points(data, W, m)
            finite = np.isfinite(b)
            for theta, want in ((b + 1e-9, True), (b - 1e-9, False)):
                t = np.where(finite, theta, 0.0)
                vals = (rankdata(data.y_obs + t[:, None] * D, axis=1) * W).sum(axis=1)
                assert ((vals >= m) == want)[finite].all()
            always = b == -np.inf
            never = b == np.inf
            for t in (-1e3, 1e3):
                vals = (rankdata(data.y_obs + t * D, axis=1) * W).sum(axis=1)
                assert (vals[always] >= m).all() and (vals[never] < m).all()

    @pytest.mark.parametrize("design", [CRD(10, 4), RBD(((5, 2), (6, 3)))])
    def test_chunking_does_not_change_result(self, wilcoxon, design, monkeypatch):
        rng = np.random.default_rng(9)
        y = np.round(rng.normal(size=design.n_units), 1)
        data = ObservedData(sample_assignments(design, 1, seed=1)[0], y)
        W = sample_assignments(design, 300, seed=2).astype(float)
        whole = wilcoxon.switch_points(data, W, 20.5)
        monkeypatch.setattr(statistics_mod, "_PAIR_CHUNK", 1)
        np.testing.assert_array_equal(wilcoxon.switch_points(data, W, 20.5), whole)

    @pytest.mark.parametrize("design", [CRD(10, 4), RBD(((5, 2), (6, 3)))])
    def test_threshold_array_sorts_once_per_row(self, wilcoxon, design, monkeypatch):
        # an array of thresholds gives one row of switch points per threshold,
        # equal to scalar calls; a scalar keeps shape (k,)
        rng = np.random.default_rng(10)
        data = ObservedData(sample_assignments(design, 1, seed=3)[0], rng.normal(size=design.n_units))
        W = sample_assignments(design, 200, seed=4).astype(float)
        m = np.array([14.0, 20.5, 27.0])
        assert wilcoxon.switch_points(data, W, 20.5).shape == (200,)
        together = wilcoxon.switch_points(data, W, m)
        assert together.shape == (3, 200)
        for row, mi in zip(together, m):
            np.testing.assert_array_equal(row, wilcoxon.switch_points(data, W, mi))
        monkeypatch.setattr(statistics_mod, "_PAIR_CHUNK", 1)
        np.testing.assert_array_equal(wilcoxon.switch_points(data, W, m), together)

    @staticmethod
    def _assert_switches(wilcoxon, data, W, m):
        # on integer outcomes every q is a multiple of 1/2: T(theta) >= m a
        # quarter above each finite b* and fails a quarter below it; -inf rows
        # pass at theta = -1e6 and +inf rows fail at 1e6
        D = W - data.w_obs

        def rank_sums(theta):
            return (rankdata(data.y_obs + theta[:, None] * D, axis=1) * W).sum(axis=1)

        b = wilcoxon.switch_points(data, W, m)
        for mi, bi in zip(m, b):
            finite = np.isfinite(bi)
            t = np.where(finite, bi, 0.0)
            assert (rank_sums(t + 0.25)[finite] >= mi).all()
            assert (rank_sums(t - 0.25)[finite] < mi).all()
            assert (rank_sums(np.full(bi.size, -1e6))[bi == -np.inf] >= mi).all()
            assert (rank_sums(np.full(bi.size, 1e6))[bi == np.inf] < mi).all()
        return b

    @staticmethod
    def _thresholds(n1, n0):
        # every half-integer from below the smallest rank sum to past the largest
        low = n1 * (n1 + 1) / 2
        return np.arange(low - 1, low + n1 * n0 + 1.5, 0.5)

    def test_one_row_per_chunk_past_the_pair_bound(self, wilcoxon):
        # CRD(600,300) has 90,000 pairs a row, more than _PAIR_CHUNK
        design = CRD(600, 300)
        rng = np.random.default_rng(14)
        data = ObservedData(sample_assignments(design, 1, seed=5)[0], rng.integers(-5, 6, 600))
        W = sample_assignments(design, 3, seed=6).astype(float)
        assert [rows.stop - rows.start for rows, _, _ in statistics_mod._pair_chunks(W)] == [1, 1, 1]
        low = 300 * 301 / 2
        m = low + np.array([-1.0, 0.0, 20000.5, 45000.0, 70000.5, 90000.0, 90001.0])
        b = self._assert_switches(wilcoxon, data, W, m)
        assert (b[0] == -np.inf).all() and (b[-1] == np.inf).all() and np.isfinite(b[3]).all()

    @pytest.mark.parametrize("n1", [1, 29])
    def test_very_unbalanced_designs(self, wilcoxon, n1):
        design = CRD(30, n1)
        rng = np.random.default_rng(15)
        data = ObservedData(sample_assignments(design, 1, seed=7)[0], rng.integers(-3, 4, 30))
        W = sample_assignments(design, 200, seed=8).astype(float)
        b = self._assert_switches(wilcoxon, data, W, self._thresholds(n1, 30 - n1))
        assert np.isfinite(b).any()

    def test_observed_row_keeps_every_pair_fixed(self, wilcoxon):
        # under the observed assignment every treated/control pair is fixed,
        # so T is T_obs at every theta and b* is -inf up to T_obs, +inf past it
        rng = np.random.default_rng(16)
        data, design = random_experiment(rng, n=9, n_treated=4)
        W = np.vstack([assignment_matrix(design), data.w_obs]).astype(float)
        m = self._thresholds(4, 5)
        b = wilcoxon.switch_points(data, W, m)
        t_obs = observed_statistic(wilcoxon, data)
        np.testing.assert_array_equal(b[:, -1], np.where(m <= t_obs, -np.inf, np.inf))
        np.testing.assert_array_equal(b[:, :-1], wilcoxon.switch_points(data, W[:-1], m))

    def test_ties_in_every_pair_class(self, wilcoxon):
        # units 0-2 (treated) tie, units 4-5 (control) tie, and unit 6
        # (control) ties units 0-2: over the enumeration tied pairs fall in all
        # four (w_obs_i, w_obs_j) classes, fixed (1, 0) and switching at q = 0
        data = ObservedData(np.array([1, 1, 1, 1, 0, 0, 0, 0]), np.array([1.0, 1, 1, 2, 0, 0, 1, 3]))
        W = assignment_matrix(CRD(8, 4)).astype(float)
        b = self._assert_switches(wilcoxon, data, W, self._thresholds(4, 4))
        assert (b == 0.0).any()


    def test_rows_treating_different_counts_are_refused(self, wilcoxon):
        # pairing by row 0's treated count would mis-pair the other rows
        data = ObservedData(np.array([1, 1, 0, 0]), np.array([0.3, 2.0, 1.1, 0.7]))
        W = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 0, 0, 0]], dtype=float)
        with pytest.raises(StatisticError, match="same number of units"):
            wilcoxon.switch_points(data, W, 5.0)
        with pytest.raises(StatisticError, match="same number of units"):
            evaluate_many(wilcoxon, impute(data, 0.0), W)


class TestAffineCapability:
    def test_diff_means_is_affine_in_theta(self, diff_means):
        # T(theta, w) = a + b * theta on every row, b >= 0
        rng = np.random.default_rng(12)
        data, design = random_experiment(rng, n=8)
        W = assignment_matrix(design).astype(float)
        a, b = diff_means.affine(data, W)
        assert (b >= 0).all()
        for theta in (-2.0, 0.0, 1.5):
            direct = evaluate_many(diff_means, impute(data, theta), W)
            np.testing.assert_allclose(a + b * theta, direct, rtol=0, atol=1e-12)
