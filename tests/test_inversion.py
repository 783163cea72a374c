"""Step-function construction, inversion, and interval guarantees."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from randinf import (
    CRD,
    ONE_SIDED,
    RBD,
    ExactMode,
    LevelTooHighError,
    MCMode,
    NonMonotoneStatisticError,
    ObservedData,
    PValueKind,
    PValueStepFunction,
    StatisticSpec,
    assignment_matrix,
    build_step_function,
    build_step_functions,
    combined_interval,
    confidence_interval,
    exact_validity_audit,
    fisher,
    generate_population,
    get_statistic,
    invert_lower,
    invert_upper,
    p_value,
    sample_assignments,
    tied_discrete_population,
    traditional_interval,
)
import randinf
from randinf import inversion as inversion_mod
from randinf import statistics as statistics_mod
from randinf._util import outcome_scale, round_sig
from randinf.datasets import PotentialTable
from randinf.randomization import _replicate_source
from randinf.statistics import _wilcoxon_rows, _wilcoxon_switch_points, observed_statistic
from conftest import assert_crossings_match_bisection, crossing_vectors, random_experiment
import golden as pins  # not golden: a test parameter of that name keeps its test ids


class TestStepFunction:
    def test_toy_golden_values(self, toy, diff_means):
        data, design = toy
        assert_crossings_match_bisection(data, diff_means, design)
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        got = [round(v, 3) for v in np.atleast_1d(f.value(np.array([-3.0, -1.0, 0.0, 1.0, 3.0])))]
        assert got == [0.004, 0.012, 0.131, 0.560, 0.988]

    def test_masses_account_for_every_assignment(self, toy, diff_means):
        data, design = toy
        for side in (PValueKind.LPLUS, PValueKind.UPLUS, PValueKind.LMINUS, PValueKind.UMINUS):
            f = build_step_function(data, design, diff_means, side)
            assert f.base_count + int(f.counts.sum()) + f.never_count == 252

    def test_observed_assignment_only_support(self, diff_means):
        # two units: one alternative assignment; the step function is a single
        # jump and the base is exactly the observed-assignment probability
        data = ObservedData(np.array([1, 0]), np.array([3.0, 1.0]))
        f = build_step_function(data, CRD(2, 1), diff_means, PValueKind.LPLUS)
        assert f.base == 0.5
        assert f.value(1e9) == 1.0

    def test_constant_effect_w_obs_only_support_is_constant_one(self, diff_means):
        # constant outcomes: at and past zero every assignment ties or exceeds
        data = ObservedData(np.array([1, 1, 0, 0]), np.full(4, 2.0))
        f = build_step_function(data, CRD(4, 2), diff_means, PValueKind.LPLUS)
        assert f.value(0.0) == 1.0 and f.value(5.0) == 1.0

    @pytest.mark.parametrize("side", [PValueKind.LPLUS, PValueKind.LMINUS])
    def test_grid_oracle_exact_agreement(self, diff_means, side):
        # lossless representation: 1001 grid evaluations equal direct p-values
        rng = np.random.default_rng(17)
        data, design = random_experiment(rng, n=4)
        f = build_step_function(data, design, diff_means, side)
        grid = np.linspace(-5, 5, 1001)
        direct = np.array([p_value(data, design, diff_means, t, side) for t in grid])
        np.testing.assert_array_equal(np.atleast_1d(f.value(grid)), direct)

    def test_grid_oracle_larger_design(self, diff_means):
        rng = np.random.default_rng(23)
        data, design = random_experiment(rng, n=8, lognormal=True)
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        grid = np.linspace(-10, 10, 501)
        direct = np.array([p_value(data, design, diff_means, t, PValueKind.LPLUS) for t in grid])
        np.testing.assert_array_equal(np.atleast_1d(f.value(grid)), direct)

    def test_wilcoxon_bisection_matches_direct(self, toy, wilcoxon):
        # rank statistic: agreement everywhere off the tie points
        data, design = toy
        f = build_step_function(data, design, wilcoxon, PValueKind.LPLUS)
        grid = np.linspace(-6, 6, 301) + 0.0037137
        direct = np.array([p_value(data, design, wilcoxon, t, PValueKind.LPLUS) for t in grid])
        np.testing.assert_allclose(np.atleast_1d(f.value(grid)), direct, atol=0)

    @pytest.mark.parametrize("side", ONE_SIDED)
    @pytest.mark.parametrize("factor", [1e9, 1e10, 1e-3, 1e-9, 2.0**-40])
    def test_wilcoxon_outcome_scale_invariance(self, toy, wilcoxon, side, factor):
        # rank statistics ignore the outcome scale: statistic values are
        # compared in rank units and crossings resolved relative to the
        # outcomes, so outcomes near 1e9 or 1e-9 invert like outcomes near 1
        data, design = toy
        big = ObservedData(data.w_obs, data.y_obs * factor)
        f = build_step_function(data, design, wilcoxon, side)
        assert_crossings_match_bisection(big, wilcoxon, design)
        g = build_step_function(big, design, wilcoxon, side)
        if factor == 2.0**-40:  # 12-digit decimal rounding does not commute with a binary scale
            np.testing.assert_allclose(g.breakpoints, round_sig(f.breakpoints * factor), rtol=1e-11, atol=0)
        else:
            np.testing.assert_array_equal(g.breakpoints, round_sig(f.breakpoints * factor))
        np.testing.assert_array_equal(g.counts, f.counts)
        assert (g.base_count, g.never_count) == (f.base_count, f.never_count)
        grid = (np.linspace(-6, 6, 61) + 0.0037137) * factor
        direct = np.array([p_value(big, design, wilcoxon, t, side) for t in grid])
        np.testing.assert_array_equal(np.atleast_1d(g.value(grid)), direct)

    def test_subnormal_outcomes_bisect_to_a_nonzero_width(self, toy, wilcoxon, monkeypatch):
        # 1e-9 of outcomes below the smallest normal double rounds to 0, a
        # width no bisection halves down to, so such outcomes take scale 1
        data, design = toy
        widths = []
        bisect = inversion_mod._bisect

        def recorded(on, b_lo, b_hi, moving, always, scale):
            thetas = []

            def seen(theta):
                # a width of 0 would halve to adjacent doubles and loop there
                assert len(thetas) < 200, "the bisection does not stop"
                thetas.append(theta)
                return on(theta)

            crossings = bisect(seen, b_lo, b_hi, moving, always, scale)
            # the last test checks each moving row two bisection widths below
            # its crossing
            width = (crossings - thetas[-1])[moving] / 2
            widths.append(width)
            assert width.size and (width > 0).all()
            return crossings

        monkeypatch.setattr(inversion_mod, "_bisect", recorded)
        build_step_functions(ObservedData(data.w_obs, data.y_obs * 1e-318), design, wilcoxon)
        assert widths

    @pytest.mark.parametrize("side", ONE_SIDED)
    def test_wilcoxon_switch_points_match_the_bisection_oracle(self, toy, wilcoxon, side):
        data, design = toy
        assert_crossings_match_bisection(data, wilcoxon, design)
        # the whole function, every row bisected without the capability
        bisected = build_step_function(data, design, dataclasses.replace(wilcoxon, switch_points=None), side)
        assert _step_digest(build_step_function(data, design, wilcoxon, side)) == _step_digest(bisected)
        # a switch-point hook off by a quarter unit is caught by the oracle
        skewed = dataclasses.replace(
            wilcoxon, switch_points=lambda d, W, m: wilcoxon.switch_points(d, W, m) + 0.25
        )
        with pytest.raises(AssertionError, match="generic bisection"):
            assert_crossings_match_bisection(data, skewed, design)

    def test_switch_points_on_a_lattice_other_than_half_integers(self, toy):
        # three times the rank sum plus a quarter steps by 3 from 0.25: its
        # hook is handed the tolerance thresholds m as they stand, and maps
        # them back to the rank sum's own, (m - 0.25) / 3
        data, design = toy
        stat = StatisticSpec(
            name="scaled_rank_sum", ei_certified=True, theta_monotone_rightcontinuous=True,
            rows=lambda y1, y0, W: 3 * _wilcoxon_rows(y1, y0, W) + 0.25,
            switch_points=lambda d, W, m: _wilcoxon_switch_points(d, W, (m - 0.25) / 3),
        )
        assert_crossings_match_bisection(data, stat, design)
        bisected = dataclasses.replace(stat, switch_points=None)
        for side in ONE_SIDED:
            want = _step_digest(build_step_function(data, design, bisected, side))
            assert _step_digest(build_step_function(data, design, stat, side)) == want

    def test_non_monotone_statistic_refused(self, toy, studentized):
        data, design = toy
        with pytest.raises(NonMonotoneStatisticError):
            build_step_function(data, design, studentized, PValueKind.LPLUS)

    def test_monotone_and_right_continuous(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        grid = np.linspace(-5, 5, 2001)
        vals = np.atleast_1d(f.value(grid))
        assert (np.diff(vals) >= 0).all()
        at_bp = np.atleast_1d(f.value(f.breakpoints))
        just_right = np.atleast_1d(f.value_from_right(f.breakpoints))
        np.testing.assert_array_equal(at_bp, just_right)

    def test_limits(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        assert f.value(-np.inf) == 1 / 252
        assert f.value(np.inf) == 1.0
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        assert g.value(-np.inf) == 1.0
        assert g.value(np.inf) == 1 / 252

    def test_mc_mode_step_function(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS, MCMode(k=500, seed=3))
        assert f.denom == 500
        grid = np.linspace(-4, 4, 101)
        direct = np.array(
            [p_value(data, design, diff_means, t, PValueKind.LPLUS, MCMode(k=500, seed=3)) for t in grid]
        )
        np.testing.assert_array_equal(np.atleast_1d(f.value(grid)), direct)


class TestInvertLower:
    def test_toy_sup_definition(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        lo = invert_lower(f, 0.025)
        # sup semantics: p stays at or below the level just left, above it at the point
        assert f.value(lo - 1e-6) <= 0.025 < f.value(lo)

    def test_alpha_below_base_mass(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        assert invert_lower(f, 1 / 300) == -np.inf

    def test_negation_mirrors_endpoints(self, diff_means):
        # negating all outcomes maps the lower-plus curve onto the lower-minus
        # curve of the original data, reflected in theta
        y = np.array([1.3, 0.4, -0.2, -1.5])
        data = ObservedData(np.array([1, 1, 0, 0]), y)
        negated = ObservedData(data.w_obs, -y)
        design = CRD(4, 2)
        f_neg = build_step_function(negated, design, diff_means, PValueKind.LPLUS)
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        alpha = 0.3
        assert invert_lower(f_neg, alpha) == pytest.approx(-invert_upper(g, alpha), abs=1e-12)

    def test_side_enforced(self, toy, diff_means):
        data, design = toy
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        with pytest.raises(ValueError):
            invert_lower(g, 0.05)


class TestInversionAtBaseLevel:
    # a level equal to the base p-value is attained: p-values are count/denom
    # floats and the base mass is compared as one, although 49 * (1/49) < 1
    K = 49

    def _index_function(self, side):
        k = self.K
        return PValueStepFunction(
            side=side, breakpoints=np.arange(k - 1.0), counts=np.ones(k - 1, dtype=np.int64),
            base_count=1, never_count=0, denom=k, statistic="rank", mode=ExactMode(),
        )

    def test_lower(self):
        f = self._index_function(PValueKind.LPLUS)
        alpha = f.value(-1.0)
        assert alpha * self.K < 1
        assert invert_lower(f, alpha) == 0.0

    def test_upper(self):
        g = self._index_function(PValueKind.LMINUS)
        alpha = g.value(self.K)
        assert invert_upper(g, alpha) == self.K - 2.0


class TestInvertUpper:
    def test_toy_inf_definition(self, toy, diff_means):
        data, design = toy
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        up = invert_upper(g, 0.025)
        assert np.isfinite(up)
        assert g.value(up) > 0.025 >= g.value(up + 1e-6)

    def test_alpha_below_base_mass(self, toy, diff_means):
        data, design = toy
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        assert invert_upper(g, 1 / 300) == np.inf

    def test_reflection_of_lower(self, toy, diff_means):
        data, design = toy
        negated = ObservedData(data.w_obs, -data.y_obs)
        f = build_step_function(negated, design, diff_means, PValueKind.LPLUS)
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        grid = np.linspace(-5, 5, 101)
        np.testing.assert_array_equal(
            np.atleast_1d(f.value(grid)), np.atleast_1d(g.value(-grid))
        )
        for alpha in (0.025, 0.1, 0.4):
            assert invert_upper(g, alpha) == pytest.approx(-invert_lower(f, alpha), abs=1e-12)


class TestConfidenceInterval:
    def test_toy_covers_truth(self, toy, diff_means):
        data, design = toy
        ci = confidence_interval(data, design, diff_means, 0.025, 0.025)
        assert ci.contains(1.0)
        assert p_value(data, design, diff_means, 1.0, PValueKind.LPLUS) > 0.025
        assert p_value(data, design, diff_means, 1.0, PValueKind.LMINUS) > 0.025

    def test_interval_is_acceptance_region(self, diff_means):
        # endpoints bracket exactly the thetas neither one-sided test rejects
        rng = np.random.default_rng(31)
        data, design = random_experiment(rng, n=8)
        ci = confidence_interval(data, design, diff_means, 0.05, 0.05)
        eps = 1e-7
        assert p_value(data, design, diff_means, ci.lower, PValueKind.LPLUS) > 0.05
        assert p_value(data, design, diff_means, ci.lower - eps, PValueKind.LPLUS) <= 0.05
        assert p_value(data, design, diff_means, ci.upper, PValueKind.LMINUS) > 0.05
        assert p_value(data, design, diff_means, ci.upper + eps, PValueKind.LMINUS) <= 0.05

    def test_exact_coverage_small_population(self, diff_means):
        # theorem-backed, zero tolerance: enumerate an eight-unit population
        from randinf import generate_population

        pop = generate_population(8, 1.0, seed=55)
        design = CRD(8, 4)
        alpha = 0.10
        covered = 0
        for w in assignment_matrix(design):
            ci = confidence_interval(pop.observe(w), design, diff_means, alpha / 2, alpha / 2)
            covered += ci.contains(1.0)
        assert covered / 70 >= 1 - alpha

    def test_exact_wilcoxon_coverage_of_tiny_outcomes(self, wilcoxon):
        # outcomes near 1e-9: crossings resolved to 1e-9 absolute, not relative
        # to the outcomes, covered the truth for 0.8413 of the assignments
        y0 = np.random.default_rng(3).lognormal(size=10) * 1e-9
        theta0 = -0.3e-9
        pop, design = PotentialTable(y0, y0 + theta0), CRD(10, 5)
        covered = [confidence_interval(pop.observe(w), design, wilcoxon, 0.05, 0.05).contains(theta0)
                   for w in assignment_matrix(design)]
        assert np.mean(covered) >= 0.90

    def test_decimal_ties_at_zero_cross_at_zero(self, diff_means):
        # one-decimal outcomes: at w = (1,1,0,1,1) two replicates tie T_obs at
        # theta = 0 once rounded, as p_values counts them; their closed-form
        # crossings were -4.44e-17, which left 0 outside [-0.3, -4.44e-17)
        y = np.array([0.4, 0.3, 0.4, 0.1, 0.4])
        pop, design = PotentialTable(y, y), CRD(5, 4)
        data = pop.observe(np.array([1, 1, 0, 1, 1]))
        ci = confidence_interval(data, design, diff_means, 0.25, 0.25)
        assert (ci.lower, ci.upper) == (-0.3, 0.0) and ci.contains(0.0)
        f = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        assert f.value(0.0) == p_value(data, design, diff_means, 0.0, PValueKind.LMINUS) == 0.6
        # over every assignment the intervals cover 0 as often as the audit
        # says, above the guaranteed 0.5
        covered = [confidence_interval(pop.observe(w), design, diff_means, 0.25, 0.25).contains(0.0)
                   for w in assignment_matrix(design)]
        audit = exact_validity_audit(pop, design, alphas=(0.5,))
        assert np.mean(covered) == audit.proposed_coverage[0.5] == 0.8

    def test_monotone_nesting(self, toy, diff_means):
        data, design = toy
        wide = confidence_interval(data, design, diff_means, 0.01, 0.01)
        narrow = confidence_interval(data, design, diff_means, 0.05, 0.05)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_translation_equivariance(self, toy, diff_means):
        # shifting every treated outcome by c shifts both endpoints by c
        data, design = toy
        c = 2.5
        shifted = ObservedData(data.w_obs, data.y_obs + c * data.w_obs)
        base = confidence_interval(data, design, diff_means, 0.025, 0.025)
        moved = confidence_interval(shifted, design, diff_means, 0.025, 0.025)
        assert moved.lower == pytest.approx(base.lower + c, abs=1e-9)
        assert moved.upper == pytest.approx(base.upper + c, abs=1e-9)

    def test_scaling_equivariance(self, toy, diff_means):
        data, design = toy
        c = 3.0
        scaled = ObservedData(data.w_obs, data.y_obs * c)
        base = confidence_interval(data, design, diff_means, 0.025, 0.025)
        moved = confidence_interval(scaled, design, diff_means, 0.025, 0.025)
        assert moved.lower == pytest.approx(base.lower * c, abs=1e-9)
        assert moved.upper == pytest.approx(base.upper * c, abs=1e-9)

    def test_high_levels_point_like_or_error(self, toy, diff_means):
        data, design = toy
        try:
            ci = confidence_interval(data, design, diff_means, 0.49, 0.49)
            assert ci.lower <= ci.upper
        except LevelTooHighError:
            pytest.fail("levels below one half must not be refused on this data")

    def test_level_sum_validated(self, toy, diff_means):
        data, design = toy
        with pytest.raises(ValueError):
            confidence_interval(data, design, diff_means, 0.5, 0.5)

    def test_non_ei_statistic_refused(self, toy, studentized):
        data, design = toy
        with pytest.raises(NonMonotoneStatisticError):
            confidence_interval(data, design, studentized, 0.025, 0.025)

    def test_wilcoxon_interval(self, toy, wilcoxon):
        data, design = toy
        ci = confidence_interval(data, design, wilcoxon, 0.05, 0.05)
        assert ci.contains(1.0)


class TestTraditional:
    def test_toy_grid_interval(self, toy, diff_means):
        data, design = toy
        tr = traditional_interval(data, design, diff_means, 0.05, theta_grid=[-3, -1, 0, 1, 3])
        assert (tr.lower, tr.upper) == (0.0, 3.0)

    def test_empty_grid_refused(self, toy, diff_means):
        with pytest.raises(ValueError, match="theta_grid"):
            traditional_interval(*toy, diff_means, 0.05, theta_grid=[])

    def test_symmetric_dataset_coincidence(self, diff_means):
        # on this symmetric dataset the two constructions agree exactly
        data = ObservedData(
            np.array([1, 1, 1, 0, 0, 0]), np.array([3.0, 2.0, 1.0, -1.0, -2.0, -3.0])
        )
        design = CRD(6, 3)
        prop = confidence_interval(data, design, diff_means, 0.10, 0.10)
        trad = traditional_interval(data, design, diff_means, 0.20)
        assert (trad.lower, trad.upper) == (prop.lower, prop.upper) == (3.0, 5.0)

    def test_never_wider_than_proposed_and_shares_lower(self, diff_means):
        # the two lower endpoints always agree (same crossing); the upper
        # endpoints differ by at most the tie atom carried by the observed
        # assignment, so the traditional interval is never wider
        rng = np.random.default_rng(40)
        for _ in range(10):
            data, design = random_experiment(rng, n=8)
            prop = confidence_interval(data, design, diff_means, 0.05, 0.05)
            trad = traditional_interval(data, design, diff_means, 0.10)
            assert trad.lower == prop.lower
            assert trad.upper <= prop.upper

    def test_membership_is_half_open(self, toy, diff_means):
        data, design = toy
        tr = traditional_interval(data, design, diff_means, 0.05)
        assert not tr.contains(tr.upper)
        assert tr.contains(tr.lower)

    def test_no_guarantee_on_tied_population(self, diff_means):
        # the audited tied population is where traditional undercovers; here
        # only check both paths run and the traditional one is no wider
        from randinf.datasets import tied_discrete_population

        pop = tied_discrete_population()
        design = CRD(15, 7)
        data = pop.observe(assignment_matrix(design)[123])
        prop = confidence_interval(data, design, diff_means, 0.025, 0.025)
        trad = traditional_interval(data, design, diff_means, 0.05)
        assert trad.upper - trad.lower <= prop.upper - prop.lower + 1e-12


def _golden_case(name):
    """(data, design, mode) of one pinned step-function case."""
    if name == "rbd_10x6_3_mc":
        design = RBD(((6, 3),) * 10)
        pop = generate_population(60, 1.0, seed=71)
        return pop.observe(sample_assignments(design, 1, seed=72)[0]), design, MCMode(k=2000, seed=73)
    if name == "crd_14_7_exact":
        design = CRD(14, 7)
        pop = generate_population(14, 1.0, seed=74)
        return pop.observe(assignment_matrix(design)[1234]), design, ExactMode()
    if name == "tied_crd_15_5_exact":
        design = CRD(15, 5)
        return tied_discrete_population().observe(assignment_matrix(design)[987]), design, ExactMode()
    assert name == "int_crd_16_8_exact"
    design = CRD(16, 8)  # integer outcomes 0..4: exact ties and dyadic candidates
    rng = np.random.default_rng(75)
    y = rng.integers(0, 4, size=16).astype(float)
    w = np.zeros(16, dtype=np.int8)
    w[rng.choice(16, size=8, replace=False)] = 1
    return ObservedData(w, y + w), design, ExactMode()


def _step_digest(f):
    h = hashlib.sha256()
    h.update(f.breakpoints.tobytes())
    h.update(f.counts.tobytes())
    h.update(np.array([f.base_count, f.never_count], dtype=np.int64).tobytes())
    return h.hexdigest()


# SHA-256 of (breakpoints, counts, base_count, never_count) of Wilcoxon step
# functions, recorded while every switch point was found by re-ranking at each
# bisection step (the Monte Carlo case re-recorded at seed stream 0.2.0): a
# change here changes breakpoint bytes.
GOLDEN_WILCOXON = pins.table("GOLDEN_WILCOXON_SHA256", [
    (case, side) for case in ("rbd_10x6_3_mc", "crd_14_7_exact", "tied_crd_15_5_exact", "int_crd_16_8_exact")
    for side in ("LPLUS", "UPLUS", "LMINUS", "UMINUS")
])


@pytest.mark.parametrize("case, side", GOLDEN_WILCOXON.cases)
def test_wilcoxon_step_function_golden_bytes(wilcoxon, case, side):
    data, design, mode = _golden_case(case)
    f = build_step_function(data, design, wilcoxon, PValueKind[side], mode)
    pins.check(GOLDEN_WILCOXON, (case, side), _step_digest(f))


# SHA-256 of the four sides of diff_means without its closed form, every
# crossing found by the generic bisection.  The generic rank sum needs no
# table of its own: it is pinned to the switch-point bytes above, and its
# strict sides in crd_14_7_exact have 84 rows whose rank sums saturate, so
# that they never switch.
GOLDEN_GENERIC_CASES = ["crd_14_7_exact", "rbd_10x6_3_mc"]
GOLDEN_GENERIC_DIFF_MEANS = pins.table("GOLDEN_GENERIC_DIFF_MEANS_SHA256", [
    (case, side.name) for case in GOLDEN_GENERIC_CASES for side in ONE_SIDED
])


@pytest.mark.parametrize("name, golden", [("diff_means", GOLDEN_GENERIC_DIFF_MEANS),
                                          ("wilcoxon_rank_sum", GOLDEN_WILCOXON)])
@pytest.mark.parametrize("case", GOLDEN_GENERIC_CASES)
def test_generic_step_functions_golden_bytes(name, golden, case):
    stat = dataclasses.replace(get_statistic(name), affine=None, switch_points=None)
    data, design, mode = _golden_case(case)
    fs = build_step_functions(data, design, stat, mode)
    assert set(fs) == set(ONE_SIDED)
    for side, f in fs.items():
        pins.check(golden, (case, side.name), _step_digest(f))


class TestKernel:
    @pytest.mark.parametrize("name", ["diff_means", "wilcoxon_rank_sum"])
    @pytest.mark.parametrize("mode", [ExactMode(), MCMode(k=400, seed=5)])
    def test_side_pairs_share_counts_with_swapped_masses(self, toy, name, mode):
        data, design = toy
        fs = build_step_functions(data, design, get_statistic(name), mode)
        assert list(fs) == [PValueKind.LPLUS, PValueKind.UMINUS, PValueKind.UPLUS, PValueKind.LMINUS]
        for a, b in ((PValueKind.LPLUS, PValueKind.UMINUS), (PValueKind.UPLUS, PValueKind.LMINUS)):
            assert fs[a].breakpoints is fs[b].breakpoints and fs[a].counts is fs[b].counts
            assert not fs[a].breakpoints.flags.writeable and not fs[a].counts.flags.writeable
            assert (fs[a].base_count, fs[a].never_count) == (fs[b].never_count, fs[b].base_count)
        for side, f in fs.items():
            assert _step_digest(f) == _step_digest(build_step_function(data, design, get_statistic(name), side, mode))

    @pytest.mark.parametrize("mode", [ExactMode(), MCMode(k=400, seed=5)])
    def test_affine_sides_share_one_crossing_vector(self, toy, diff_means, mode):
        # an affine statistic's ge and gt crossings have the same finite
        # values, so all four sides share one pair of arrays; the rows tied at
        # every theta are base mass of the weak sides and never pass the
        # strict ones
        tied = np.array([0.0, 0, 1, 1, 1, 2, 2, 3])
        design = RBD(((4, 2), (4, 2)))
        cases = (toy, (ObservedData(assignment_matrix(design)[5], tied), design))
        for data, design in cases:
            fs = build_step_functions(data, design, diff_means, mode)
            lplus = fs[PValueKind.LPLUS]
            masses = (lplus.base_count, lplus.never_count)
            assert mode != ExactMode() or masses[0] > 0
            for side in ONE_SIDED:
                assert fs[side].breakpoints is lplus.breakpoints and fs[side].counts is lplus.counts
            assert (fs[PValueKind.LMINUS].base_count, fs[PValueKind.LMINUS].never_count) == masses
            for side in (PValueKind.UPLUS, PValueKind.UMINUS):
                assert (fs[side].base_count, fs[side].never_count) == masses[::-1]

    def test_one_replicate_matrix_per_experiment(self, toy, diff_means, replicate_builds):
        data, design = toy
        build_step_functions(data, design, diff_means)
        confidence_interval(data, design, diff_means, 0.025, 0.025)
        traditional_interval(data, design, diff_means, 0.05)
        assert replicate_builds == [design] * 3
        replicate_builds.clear()
        combined_interval([(data, design)] * 3, diff_means, fisher(), 0.05)
        assert replicate_builds == [design] * 3

    def test_one_switch_point_call_for_bothcrossing_vectors(self, toy, wilcoxon):
        data, design = toy
        thresholds = []

        def switch_points(d, W, m):
            thresholds.append(np.shape(m))
            return wilcoxon.switch_points(d, W, m)

        counted = dataclasses.replace(wilcoxon, switch_points=switch_points)
        fs = build_step_functions(data, design, counted)
        assert thresholds == [(2,)]
        ref = build_step_functions(data, design, wilcoxon)
        for side in ONE_SIDED:
            assert _step_digest(fs[side]) == _step_digest(ref[side])

    @pytest.mark.parametrize("name", ["diff_means", "wilcoxon_rank_sum"])
    @pytest.mark.parametrize("mode", [ExactMode(), MCMode(k=400, seed=5)])
    def test_sides_sharing_counts_share_one_read_only_cumulative_array(self, toy, name, mode):
        data, design = toy
        fs = build_step_functions(data, design, get_statistic(name), mode)
        for f in fs.values():
            shared = [g for g in fs.values() if g.counts is f.counts]
            assert all(g.cumulative is f.cumulative for g in shared) and len(shared) >= 2
            assert not f.cumulative.flags.writeable
            assert f.cumulative.dtype == np.int64
            np.testing.assert_array_equal(f.cumulative, np.concatenate(([0], np.cumsum(f.counts))))

    @pytest.mark.parametrize("side", ONE_SIDED)
    def test_one_side_finds_only_the_crossing_vector_it_reads(self, toy, wilcoxon, side):
        # ge for LPLUS and UMINUS, gt for UPLUS and LMINUS: one threshold per
        # switch-point call, one bisection per block
        data, design = toy
        thresholds = []

        def switch_points(d, W, m):
            thresholds.append(np.asarray(m).tolist())
            return wilcoxon.switch_points(d, W, m)

        counted = dataclasses.replace(wilcoxon, switch_points=switch_points)
        fs = build_step_functions(data, design, counted)
        [[ge, gt]] = thresholds
        thresholds.clear()
        f = build_step_function(data, design, counted, side)
        assert thresholds == [[gt if side in (PValueKind.UPLUS, PValueKind.LMINUS) else ge]]
        assert _step_digest(f) == _step_digest(fs[side])
        bisected = dataclasses.replace(wilcoxon, switch_points=None)
        with mock.patch.object(inversion_mod, "_bisect_crossings", wraps=inversion_mod._bisect_crossings) as spy:
            g = build_step_function(data, design, bisected, side)
        assert [c.args[4] for c in spy.call_args_list] == [side in (PValueKind.UPLUS, PValueKind.LMINUS)]
        assert _step_digest(g) == _step_digest(build_step_functions(data, design, bisected)[side])

    def test_hand_built_function_sums_its_counts_once_and_inverts_as_before(self):
        # as _endpoint_ranks builds one: the cumulative counts are summed in
        # __post_init__, read-only, shared by a replaced side, and read as the
        # level reader summed them on every call
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 4, 30)
        f = PValueStepFunction(
            side=PValueKind.LPLUS, breakpoints=np.sort(rng.permutation(60)[:30] / 8.0), counts=counts,
            base_count=2, never_count=3, denom=int(counts.sum()) + 5, statistic="rank", mode=ExactMode(),
        )
        g = dataclasses.replace(f, side=PValueKind.LMINUS)
        assert g.cumulative is f.cumulative and not f.cumulative.flags.writeable
        below = np.cumsum(np.concatenate(([0], counts)))
        np.testing.assert_array_equal(f.cumulative, below)
        grid = np.concatenate(([-np.inf], f.breakpoints))
        rising = (f.base_count + below) / f.denom
        falling = (f.base_count + below[-1] - below) / f.denom
        for alpha in (0.01, 0.05, 0.2, 0.5, 0.9):
            hits = np.flatnonzero(rising > alpha)
            assert invert_lower(f, alpha) == (grid[hits[0]] if hits.size else np.inf)
            hits = np.flatnonzero(falling <= alpha)
            assert invert_upper(g, alpha) == (grid[hits[0]] if hits.size else np.inf)
        with pytest.raises(ValueError, match="account"):
            dataclasses.replace(f, never_count=4)

    def test_affine_copy_takes_the_closed_form(self, diff_means, monkeypatch):
        rng = np.random.default_rng(41)
        data, design = random_experiment(rng, n=9, lognormal=True)
        calls = []

        def affine(d):
            columns, form = diff_means.affine(d)

            def counted(sums):
                calls.append(sums.shape[1])  # the rows of one block
                return form(sums)

            return columns, counted

        monkeypatch.setitem(
            statistics_mod._REGISTRY, "diff_means_copy",
            dataclasses.replace(diff_means, name="diff_means_copy", affine=affine),
        )
        copy = get_statistic("diff_means_copy")
        fs = build_step_functions(data, design, copy)
        assert calls == [126]
        assert_crossings_match_bisection(data, copy, design)
        ref = build_step_functions(data, design, diff_means)
        for side in ONE_SIDED:
            assert _step_digest(fs[side]) == _step_digest(ref[side])
        # a closed form off by a constant is caught by the bisection oracle
        def skewed_affine(d):
            columns, form = diff_means.affine(d)

            def skewed(sums):
                a, b = form(sums)
                return a + 0.01, b

            return columns, skewed

        skewed = dataclasses.replace(copy, affine=skewed_affine)
        with pytest.raises(AssertionError, match="generic bisection"):
            assert_crossings_match_bisection(data, skewed, design)

    def test_switch_points_on_a_lattice_other_than_half_integers(self, toy):
        # three times the rank sum plus a quarter steps by 3 from 0.25: its
        # hook is handed the tolerance thresholds m as they stand, and maps
        # them back to the rank sum's own, (m - 0.25) / 3
        data, design = toy
        stat = StatisticSpec(
            name="scaled_rank_sum", ei_certified=True, theta_monotone_rightcontinuous=True,
            rows=lambda y1, y0, W: 3 * _wilcoxon_rows(y1, y0, W) + 0.25,
            switch_points=lambda d, W, m: _wilcoxon_switch_points(d, W, (m - 0.25) / 3),
        )
        assert_crossings_match_bisection(data, stat, design)
        bisected = dataclasses.replace(stat, switch_points=None)
        for side in ONE_SIDED:
            want = _step_digest(build_step_function(data, design, bisected, side))
            assert _step_digest(build_step_function(data, design, stat, side)) == want

    @pytest.mark.parametrize("mode", [ExactMode(), MCMode(k=300, seed=8)])
    def test_copy_without_affine_bisects_within_oracle_tolerance(self, diff_means, monkeypatch, mode):
        rng = np.random.default_rng(42)
        data, design = random_experiment(rng, n=9, lognormal=True)
        monkeypatch.setitem(
            statistics_mod._REGISTRY, "diff_means_bisected",
            dataclasses.replace(diff_means, name="diff_means_bisected", affine=None),
        )
        bisected = get_statistic("diff_means_bisected")
        source = _replicate_source(design, mode)
        t_obs = observed_statistic(diff_means, data)
        scale = outcome_scale(data.y_obs)
        for closed, generic in zip(crossing_vectors(data, diff_means, source, t_obs, scale),
                                   crossing_vectors(data, bisected, source, t_obs, scale)):
            np.testing.assert_array_equal(np.isinf(closed), np.isinf(generic))
            np.testing.assert_allclose(closed, generic, rtol=0, atol=1e-6 * scale)
        assert_crossings_match_bisection(data, bisected, design, mode)
        fs = build_step_functions(data, design, bisected, mode)
        ref = build_step_functions(data, design, diff_means, mode)
        for side in ONE_SIDED:
            assert (fs[side].base_count, fs[side].never_count) == (ref[side].base_count, ref[side].never_count)


def _golden_diff_means_case(name):
    """(data, design, mode) of one pinned ``diff_means`` step-function case."""
    if name == "crd_16_8_exact":
        design = CRD(16, 8)
        pop = generate_population(16, 0.5, seed=81)
        return pop.observe(assignment_matrix(design)[4321]), design, ExactMode()
    if name == "rbd_10x6_3_mc":  # 20^10 assignments: int64 ranks
        design = RBD(((6, 3),) * 10)
        pop = generate_population(60, 1.0, seed=82)
        return pop.observe(sample_assignments(design, 1, seed=83)[0]), design, MCMode(k=20000, seed=84)
    assert name == "crd_100_50_mc"  # ~1e29 assignments: random-key rows
    design = CRD(100, 50)
    pop = generate_population(100, -0.5, seed=85)
    return pop.observe(sample_assignments(design, 1, seed=86)[0]), design, MCMode(k=1000, seed=87)


# SHA-256 of (breakpoints, counts, base_count, never_count) of diff_means step
# functions, all re-recorded when the closed form's treated and control sums
# became exact layer sums, the same bits on every BLAS kernel: a change here
# changes breakpoint bytes.
GOLDEN_DIFF_MEANS = pins.table("GOLDEN_DIFF_MEANS_SHA256", [
    (case, side) for case in ("crd_16_8_exact", "rbd_10x6_3_mc", "crd_100_50_mc")
    for side in ("LPLUS", "UPLUS", "LMINUS", "UMINUS")
])


@pytest.mark.parametrize("case, side", GOLDEN_DIFF_MEANS.cases)
def test_diff_means_step_function_golden_bytes(diff_means, case, side):
    data, design, mode = _golden_diff_means_case(case)
    f = build_step_functions(data, design, diff_means, mode)[PValueKind[side]]
    pins.check(GOLDEN_DIFF_MEANS, (case, side), _step_digest(f))


def _golden_diff_means_digests():
    """``case/side`` -> step-function digest of every :data:`GOLDEN_DIFF_MEANS` case."""
    stat = get_statistic("diff_means")
    digests = {}
    for case in dict.fromkeys(case for case, _ in GOLDEN_DIFF_MEANS.cases):
        data, design, mode = _golden_diff_means_case(case)
        fs = build_step_functions(data, design, stat, mode)
        digests.update({f"{case}/{side.name}": _step_digest(fs[side]) for side in ONE_SIDED})
    return digests


_KERNEL_DIGESTS = """
import json
from test_inversion import _golden_diff_means_digests
print(json.dumps(_golden_diff_means_digests()))
"""


@pytest.mark.parametrize("coretype", ["Sandybridge", "Prescott"])
def test_diff_means_bytes_do_not_depend_on_the_blas_kernel(coretype):
    # OPENBLAS_CORETYPE makes a fresh process's OpenBLAS take the kernel of
    # an older x86_64 CPU, which sums in its own order; the exact layers make
    # every row sum the same bits whatever the order.  The variable is set
    # for the child process alone
    src = Path(randinf.__file__).parents[1]
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _KERNEL_DIGESTS], cwd=Path(__file__).parent, env=env,
                           capture_output=True, text=True, check=True)
    assert json.loads(child.stdout) == _golden_diff_means_digests()
