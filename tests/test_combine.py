"""Combination recipes, reference CDFs, and combined intervals."""

import dataclasses
import itertools
from math import isqrt

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from randinf import (
    CRD,
    RBD,
    ExactMode,
    MCMode,
    PValueKind,
    assignment_matrix,
    build_step_functions,
    chisq_upper,
    combine_functions,
    combine_values,
    combined_interval,
    confidence_interval,
    custom_combiner,
    double_exponential,
    evaluate_many,
    fisher,
    impute,
    laplace_sum_cdf,
    make_combiner,
    normal_cdf,
    normal_quantile,
    sample_assignments,
    stouffer,
)
from randinf import combine
from randinf.combine import _combine_matrix
from randinf.inversion import _proposed_interval
from randinf.simulate import generate_population


def laplace_sum_cdf_quadrature(m, x):
    """Independent oracle: a sum of m Laplace variables is a difference of two
    Gamma(m, 1) variables, so the CDF is a one-dimensional integral."""

    def integrand(g2):
        return stats.gamma.cdf(x + g2, m) * stats.gamma.pdf(g2, m)

    val, _ = integrate.quad(integrand, 0, np.inf, limit=200)
    return val


def laplace_sum_cdf_series(m, xs):
    """The closed-form series in 50-digit arithmetic at each of ``xs``, lower tails included."""
    with mpmath.workdps(50):
        coef = [
            mpmath.fsum(mpmath.binomial(m - 1 + j, j) / mpmath.mpf(2) ** (m + j) for j in range(m - k))
            for k in range(m)
        ]
        out = []
        for x in xs:
            a = abs(mpmath.mpf(x))
            tail = mpmath.exp(-a) * mpmath.fsum(a**k / mpmath.factorial(k) * c for k, c in enumerate(coef))
            out.append(tail if x < 0 else 1 - tail)
        return out


def logit(u):
    return np.log(u) - np.log1p(-u)


def logistic_reference(g, m):
    return 1.0 / (1.0 + np.exp(-g / m))


def combine_written_out(P, method, weights=None):
    """Each recipe's arithmetic written out per method: clip, transform, sum, reference CDF."""
    P = np.clip(np.asarray(P, dtype=float), 1e-12, 1 - 1e-12)
    m = P.shape[0]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    unit = np.allclose(w, 1.0)
    if method == "stouffer":
        return ndtr((w @ ndtri(P)) / np.sqrt(np.sum(w * w)))
    if method == "fisher":
        if unit:
            return chisq_upper(2 * m, -2.0 * np.sum(np.log(P), axis=0))
        return combine._mc_reference_values(np.log, w, w @ np.log(P))
    if method == "double_exponential":
        lq = np.where(P <= 0.5, np.log(2.0 * P), -np.log(2.0 * (1.0 - P)))
        if unit:
            return np.asarray(laplace_sum_cdf(m, np.sum(lq, axis=0)))
        return combine._mc_reference_values(combine._laplace_quantile, w, w @ lq)
    return np.asarray(logistic_reference(w @ logit(P), m))


class TestSpecialFunctions:
    def test_normal_quantile_center(self):
        assert normal_quantile(0.5) == 0.0

    def test_normal_roundtrip(self):
        ps = np.array([0.001, 0.2, 0.5, 0.9, 0.999])
        np.testing.assert_allclose(normal_cdf(normal_quantile(ps)), ps, atol=1e-12)

    def test_normal_quantile_domain(self):
        # NaN fails every comparison, so a test for values outside (0, 1) lets it through
        for bad in (0.0, 1.0, -0.2, np.nan, np.array([0.2, np.nan, 0.7])):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_chisq_upper_closed_form_df4(self):
        # survival of a chi-square with four degrees of freedom: (1 + x/2) e^{-x/2}
        x = 7.824046
        assert chisq_upper(4, x) == pytest.approx((1 + x / 2) * np.exp(-x / 2), rel=1e-10)
        assert chisq_upper(4, x) == pytest.approx(0.098241, abs=1e-5)

    def test_chisq_upper_df_validation(self):
        for bad in (3, 0, -2):
            with pytest.raises(ValueError):
                chisq_upper(bad, 1.0)

    def test_laplace_m1(self):
        assert laplace_sum_cdf(1, 0.0) == 0.5
        xs = np.array([-3.0, -0.4, 0.0, 1.2, 5.0])
        np.testing.assert_allclose(laplace_sum_cdf(1, xs), stats.laplace.cdf(xs), atol=1e-14)

    def test_laplace_m2_closed_form(self):
        for x in (-4.2, -1.0, 0.0, 0.3, 2.5, 6.0):
            exact = 1 - (2 + x) * np.exp(-x) / 4 if x >= 0 else (2 - x) * np.exp(x) / 4
            assert laplace_sum_cdf(2, x) == pytest.approx(exact, abs=1e-6)

    @pytest.mark.parametrize("m", [3, 5])
    def test_laplace_matches_quadrature(self, m):
        for x in (-6.0, -1.5, 0.0, 2.0, 7.5):
            assert laplace_sum_cdf(m, x) == pytest.approx(
                laplace_sum_cdf_quadrature(m, x), abs=1e-6
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 30])
    def test_laplace_relative_error_against_series(self, m):
        # relative, so the far lower tail (down to about 1e-300) is checked too
        xs = np.concatenate([np.linspace(-700.0, 30.0, 293), [-30.0, -1e-3, 0.0, 1e-3]])
        for x, g, want in zip(xs, laplace_sum_cdf(m, xs), laplace_sum_cdf_series(m, xs)):
            assert abs(mpmath.mpf(g) / want - 1) <= 1e-13, (m, x)
        assert laplace_sum_cdf(m, -np.inf) == 0.0 and laplace_sum_cdf(m, np.inf) == 1.0

    def test_laplace_symmetry_and_monotone(self):
        xs = np.linspace(-20, 20, 401)
        for m in (2, 3, 4):
            cdf = laplace_sum_cdf(m, xs)
            np.testing.assert_allclose(cdf + cdf[::-1], 1.0, atol=1e-9)
            assert (np.diff(cdf) >= 0).all()

    def test_laplace_m_validated(self):
        with pytest.raises(ValueError):
            laplace_sum_cdf(0, 0.0)


class TestCombineValues:
    @pytest.mark.parametrize("combiner", [stouffer(), fisher(), double_exponential()])
    def test_single_input_identity(self, combiner):
        assert combine_values([0.37], combiner) == pytest.approx(0.37, abs=1e-9)

    def test_stouffer_half_half(self):
        assert combine_values([0.5, 0.5], stouffer()) == 0.5

    def test_fisher_golden_pair(self):
        assert combine_values([0.1, 0.2], fisher()) == pytest.approx(0.098241, abs=1e-5)

    def test_fisher_equal_pair_sharpens_below_threshold(self):
        # c (1 - 2 ln c) < 1 exactly when c is below about 0.284668
        for c in (0.01, 0.1, 0.28):
            assert combine_values([c, c], fisher()) < c
        assert combine_values([0.3, 0.3], fisher()) > 0.3

    def test_monotone_in_each_coordinate(self):
        rng = np.random.default_rng(6)
        for combiner in (stouffer(), fisher(), double_exponential(), stouffer([2.0, 1.0])):
            for _ in range(25):
                p = rng.uniform(0.01, 0.99, size=2)
                bumped = p + rng.uniform(0, 0.99 - p.max(), size=1)
                for coord in (0, 1):
                    q = p.copy()
                    q[coord] = bumped[coord] if bumped[coord] > p[coord] else p[coord]
                    assert combine_values(q, combiner) >= combine_values(p, combiner) - 1e-12

    def test_exchangeable_under_unit_weights(self):
        rng = np.random.default_rng(7)
        for combiner in (stouffer(), fisher(), double_exponential()):
            for _ in range(10):
                p = rng.uniform(0.001, 0.999, size=4)
                for perm in itertools.permutations(range(4)):
                    assert combine_values(p[list(perm)], combiner) == pytest.approx(
                        combine_values(p, combiner), abs=1e-12
                    )

    def test_stouffer_of_uniforms_is_uniform(self):
        # Kolmogorov-Smirnov distance of the combined values below the 1%
        # critical value 1.63/sqrt(n)
        rng = np.random.default_rng(11)
        u = rng.uniform(size=(3, 100_000))
        combined = _combine_matrix(u, stouffer())
        d = stats.kstest(combined, "uniform").statistic
        assert d < 1.63 / np.sqrt(100_000)

    def test_weighted_stouffer_closed_form(self):
        w = [3.0, 1.0]
        p = [0.12, 0.4]
        z = (3 * normal_quantile(0.12) + normal_quantile(0.4)) / np.sqrt(10)
        assert combine_values(p, stouffer(w)) == pytest.approx(float(normal_cdf(z)), abs=1e-14)

    def test_weighted_fisher_routes_to_mc_reference(self):
        # still a probability, monotone, and far from the unit-weight value
        val = combine_values([0.1, 0.2], fisher([5.0, 1.0]))
        assert 0 < val < 1
        assert combine_values([0.05, 0.2], fisher([5.0, 1.0])) < val

    def test_clipping_keeps_transforms_finite(self):
        for combiner in (stouffer(), fisher(), double_exponential()):
            assert 0.0 <= combine_values([0.0, 1.0], combiner) <= 1.0

    @pytest.mark.parametrize("ps", [np.nan, [np.nan, 0.2], [0.2, -0.1], [1.5, 0.2]])
    def test_p_values_outside_unit_interval_refused(self, ps):
        # NaN fails every comparison, so it is refused as not inside [0, 1]
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            combine_values(ps, fisher())

    def test_custom_combiner_requires_cdf(self):
        with pytest.raises(ValueError):
            custom_combiner(np.log, None)

    def test_custom_combiner_runs(self):
        comb = custom_combiner(np.log, lambda x, m: chisq_upper(2 * m, -2 * x))
        assert combine_values([0.1, 0.2], comb) == pytest.approx(
            combine_values([0.1, 0.2], fisher()), abs=1e-12
        )

    @pytest.mark.parametrize("m", range(1, 9))
    def test_recipes_match_their_formulas_bit_for_bit(self, m):
        # np.ones(m) @ X and np.sum(X, axis=0) can differ in the last bit
        # for m >= 6, so each recipe keeps its own summation form
        rng = np.random.default_rng(m)
        P = np.column_stack([rng.uniform(size=(m, 40)), np.zeros(m), np.ones(m), np.full(m, 0.5)])
        P[:, :3] = np.eye(m, 3)  # zeros and ones mixed within a column
        weights = [None] + ([tuple(rng.uniform(0.5, 3.0, size=m))] if m in (2, 3, 4) else [])
        for w in weights:
            for name, spec in (("stouffer", stouffer(w)), ("fisher", fisher(w)),
                               ("double_exponential", double_exponential(w)),
                               ("custom", custom_combiner(logit, logistic_reference, w))):
                want = combine_written_out(P, name, w)
                np.testing.assert_array_equal(_combine_matrix(P, spec), want, err_msg=f"{name} {w}")
                for j in (0, 1, 40, 41):
                    assert combine_values(P[:, j], spec) == combine_written_out(P[:, [j]], name, w)[0]

    def test_method_is_only_a_label(self):
        P = np.random.default_rng(8).uniform(size=(2, 30))
        renamed = dataclasses.replace(fisher((2, 1)), method="renamed")
        np.testing.assert_array_equal(_combine_matrix(P, renamed), _combine_matrix(P, fisher((2, 1))))
        assert combine_values([0.1, 0.3], renamed) == combine_values([0.1, 0.3], fisher((2, 1)))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            stouffer([0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        for make in (stouffer, fisher, double_exponential):
            with pytest.raises(ValueError, match="finite"):
                make([bad, 1.0])

    def test_make_combiner_names(self):
        assert make_combiner("de").method == "double_exponential"
        with pytest.raises(ValueError):
            make_combiner("median")


class TestCombineFunctions:
    def test_single_component_identity(self, toy, diff_means):
        data, design = toy
        fs = build_step_functions(data, design, diff_means)
        c = combine_functions([fs], fisher())[PValueKind.LPLUS]
        grid = np.linspace(-3, 3, 50)
        np.testing.assert_allclose(c.value(grid), np.atleast_1d(fs[PValueKind.LPLUS].value(grid)), atol=1e-12)

    def test_two_identical_experiments_sharpen_left_tail(self, toy, diff_means):
        data, design = toy
        fs = build_step_functions(data, design, diff_means)
        c = combine_functions([fs, fs], fisher())[PValueKind.LPLUS]
        theta_left = -2.0
        single = fs[PValueKind.LPLUS].value(theta_left)
        assert single < 0.28
        assert c.value(theta_left) < single

    def test_union_breakpoints(self, diff_means):
        pop1 = generate_population(6, 0.0, seed=1)
        pop2 = generate_population(6, 0.0, seed=2)
        design = CRD(6, 3)
        fs1 = build_step_functions(pop1.observe(np.array([1, 1, 1, 0, 0, 0])), design, diff_means)
        fs2 = build_step_functions(pop2.observe(np.array([0, 1, 0, 1, 1, 0])), design, diff_means)
        f1, f2 = fs1[PValueKind.LPLUS], fs2[PValueKind.LPLUS]
        c = combine_functions([fs1, fs2], stouffer())[PValueKind.LPLUS]
        assert set(c.breakpoints) == set(f1.breakpoints) | set(f2.breakpoints)
        # piecewise constant between union breakpoints
        bps = np.sort(c.breakpoints)
        mids = (bps[:-1] + bps[1:]) / 2
        left_of_next = bps[1:] - 1e-9
        np.testing.assert_allclose(c.value(mids), c.value(left_of_next), atol=1e-12)

    def test_two_sided_combined_formula(self, toy, diff_means):
        # two-sided combined value doubles the smaller of the combined lower
        # functions, with the minus side built from the strict plus complement
        data, design = toy
        fs = build_step_functions(data, design, diff_means)
        combined = combine_functions([fs, fs], fisher())
        cl, cu = combined[PValueKind.LPLUS], combined[PValueKind.UPLUS]
        for theta in (-1.0, 0.5, 1.0, 2.0):
            lplus = cl.value(theta)
            lminus = 1.0 - cu.value(theta)
            two_sided = min(1.0, 2 * min(lplus, lminus))
            assert 0.0 <= two_sided <= 1.0

    @pytest.mark.parametrize("side", [PValueKind.LPLUS, PValueKind.LMINUS])
    @pytest.mark.parametrize("theta", [np.nan, [0.5, np.nan]])
    def test_nan_theta_refused_by_single_and_combined_functions(self, toy, diff_means, side, theta):
        # searchsorted sorts NaN above every breakpoint, which would read a level
        data, design = toy
        fs = build_step_functions(data, design, diff_means)
        for f in (fs[side], combine_functions([fs, fs], fisher())[side]):
            for read in (f.value, f.value_from_right):
                with pytest.raises(ValueError, match="NaN"):
                    read(theta)
            assert np.isfinite(f.value(np.array([-np.inf, np.inf]))).all()  # the infinities stay valid

    @pytest.mark.parametrize("stat_name", ["diff_means", "wilcoxon_rank_sum"])
    def test_falling_sides_complement_rising_sides_on_one_grid(self, stat_name):
        from randinf import get_statistic

        stat = get_statistic(stat_name)
        fss = []
        for seed, design in ((1, CRD(8, 4)), (2, RBD(((4, 2), (5, 2))))):
            data = generate_population(design.n_units, 0.5, seed=seed).observe(
                sample_assignments(design, 1, seed=seed)[0])
            fss.append(build_step_functions(data, design, stat))
        combined = combine_functions(fss, stouffer())
        grid = combined[PValueKind.LPLUS].breakpoints
        assert all(c.breakpoints is grid for c in combined.values())
        assert set(grid) == {b for fs in fss for f in fs.values() for b in f.breakpoints}
        # every breakpoint, and a point inside every interval they cut
        theta = np.concatenate((grid, 0.5 * (grid[:-1] + grid[1:]), [grid[0] - 1.0, grid[-1] + 1.0]))
        for falling, rising in ((PValueKind.LMINUS, PValueKind.UPLUS), (PValueKind.UMINUS, PValueKind.LPLUS)):
            np.testing.assert_array_equal(combined[falling].value(theta), 1.0 - combined[rising].value(theta))
            assert combined[falling].value(float(grid[0])) == 1.0 - combined[rising].value(float(grid[0]))


class TestCombinedInterval:
    def test_two_toy_copies_nest_inside_single(self, toy, diff_means):
        data, design = toy
        single = confidence_interval(data, design, diff_means, 0.025, 0.025)
        for name in ("fisher", "stouffer", "de"):
            ci = combined_interval([(data, design)] * 2, diff_means, make_combiner(name), 0.05)
            assert single.lower <= ci.lower <= ci.upper <= single.upper
            assert ci.contains(1.0)

    def test_single_experiment_equals_individual(self, toy, diff_means):
        data, design = toy
        single = confidence_interval(data, design, diff_means, 0.025, 0.025)
        ci = combined_interval([(data, design)], diff_means, fisher(), 0.05)
        assert (ci.lower, ci.upper) == (single.lower, single.upper)

    def test_three_combiners_cover_truth_on_synthetic_pair(self, diff_means):
        design = CRD(8, 4)
        pop1 = generate_population(8, 1.0, seed=101)
        pop2 = generate_population(8, 1.0, seed=202)
        data1 = pop1.observe(np.array([1, 0, 1, 1, 0, 0, 1, 0]))
        data2 = pop2.observe(np.array([0, 1, 1, 0, 1, 0, 0, 1]))
        for name in ("fisher", "stouffer", "de"):
            ci = combined_interval(
                [(data1, design), (data2, design)], diff_means, make_combiner(name), 0.05
            )
            assert ci.contains(1.0)

    def test_weighted_reference_built_once(self, toy, diff_means, monkeypatch):
        from randinf import combine

        builds = []
        build = combine._mc_reference_cdf
        monkeypatch.setattr(
            combine, "_mc_reference_cdf", lambda *a: builds.append(1) or build(*a)
        )
        combine._mc_reference_sample.cache_clear()
        pair = [toy] * 2
        first = combined_interval(pair, diff_means, fisher([2.0, 1.0]), 0.05)
        assert len(builds) == 1
        combine._mc_reference_sample.cache_clear()
        again = combined_interval(pair, diff_means, fisher([2.0, 1.0]), 0.05)
        # a cached sample gives the same interval as a fresh one
        assert (first.lower, first.upper) == (again.lower, again.upper)
        assert len(builds) == 2

    def test_combiner_runs_on_about_sqrt_of_the_union_intervals(self, diff_means, monkeypatch):
        from randinf import combine, inversion

        # a simulate-sized pair: CRD(16, 8) by 5000 Monte Carlo draws and
        # RBD 2x(8, 4) exactly, 4900 rows, about 9k union breakpoints
        fss = []
        pair = ((CRD(16, 8), MCMode(k=5000, seed=1)), (RBD(((8, 4),) * 2), ExactMode()))
        for e, (design, mode) in enumerate(pair):
            pop = generate_population(design.n_units, 0.5, seed=e)
            data = pop.observe(sample_assignments(design, 1, seed=e)[0])
            fss.append(build_step_functions(data, design, diff_means, mode))
        g = np.unique(np.concatenate([f.breakpoints for fs in fss for f in fs.values()])).size
        assert g > 5000

        columns, per_side = [], []
        combine_matrix, cut = combine._combine_matrix, inversion._cut

        def counting_combine(P, combiner):
            columns.append(P.shape[1])
            return combine_matrix(P, combiner)

        def counting_cut(grid, hit):
            start = len(columns)
            out = cut(grid, hit)
            per_side.append(sum(columns[start:]))
            return out

        monkeypatch.setattr(combine, "_combine_matrix", counting_combine)
        monkeypatch.setattr(inversion, "_cut", counting_cut)
        _proposed_interval(combine_functions(fss, fisher()), 0.025, 0.025)
        # the combiner runs only on the intervals each endpoint search probes
        assert len(per_side) == 2 and sum(per_side) == sum(columns)
        assert max(per_side) <= 4 * (isqrt(g + 1) + 2)

    def test_equals_proposed_interval_of_combined_functions(self, toy, diff_means):
        pop = generate_population(12, 1.0, seed=3)
        second = (pop.observe(sample_assignments(CRD(12, 6), 1, seed=3)[0]), CRD(12, 6))
        modes = [ExactMode(), MCMode(k=300, seed=4)]
        fss = [build_step_functions(d, g, diff_means, m) for (d, g), m in zip([toy, second], modes)]
        for combiner in (fisher(), stouffer((1.0, 2.0)), make_combiner("de")):
            for alpha in (0.05, 0.5):
                ci = combined_interval([toy, second], diff_means, combiner, alpha, modes=modes)
                assert ci == _proposed_interval(combine_functions(fss, combiner), alpha / 2, alpha / 2)

    def test_mode_records_per_experiment_modes(self, toy, diff_means):
        data, design = toy
        pair = [(data, design)] * 2
        exact, mc1, mc2 = ExactMode(cap=2000), MCMode(k=500, seed=1), MCMode(k=500, seed=2)
        # run_scenario mixes an exact arm with a Monte Carlo arm
        ci = combined_interval(pair, diff_means, fisher(), 0.05, modes=[exact, mc1])
        assert ci.mode == (exact, mc1)
        ci = combined_interval(pair, diff_means, fisher(), 0.05, modes=[mc1, mc2])
        assert ci.mode == (mc1, mc2)
        ci = combined_interval(pair, diff_means, fisher(), 0.05, modes=[mc1, mc1])
        assert ci.mode == mc1
        ci = combined_interval(pair, diff_means, fisher(), 0.05, mode=mc2)
        assert ci.mode == mc2

    def test_non_ei_statistic_refused(self, toy, studentized):
        data, design = toy
        from randinf import NonMonotoneStatisticError

        with pytest.raises(NonMonotoneStatisticError):
            combined_interval([(data, design)] * 2, studentized, fisher(), 0.05)


class TestProposition4Audit:
    def test_combined_interval_exact_coverage(self, diff_means):
        # full double enumeration: the combined interval's exact coverage is
        # at least the nominal level (theorem-backed, zero tolerance)
        design = CRD(6, 3)
        W = assignment_matrix(design)
        pop1 = generate_population(6, 0.0, seed=5)
        pop2 = generate_population(6, 0.0, seed=6)
        for name in ("fisher", "stouffer"):
            combiner = make_combiner(name)
            covered = sum(
                combined_interval(
                    [(pop1.observe(w1), design), (pop2.observe(w2), design)],
                    diff_means, combiner, alpha=0.10,
                ).contains(0.0)
                for w1 in W
                for w2 in W
            )
            assert covered / 400 >= 0.90

    def test_combined_lower_plus_dominates_uniform_exactly(self, diff_means):
        # two six-unit populations, full double enumeration of the twenty by
        # twenty assignment pairs: the combined p-value at the truth is
        # stochastically larger than uniform, at every attainable level
        design = CRD(6, 3)
        pops = [generate_population(6, 0.0, seed=s) for s in (5, 6)]
        W = assignment_matrix(design).astype(float)
        per_exp = []
        for pop in pops:
            table = impute(pop.observe(W[0].astype(np.int8)), 0.0)
            t = np.round(evaluate_many(diff_means, table, W), 12)
            per_exp.append(np.array([(t >= t[j]).mean() for j in range(len(t))]))
        for combiner in (fisher(), stouffer()):
            combined = np.array(
                [
                    combine_values([p1, p2], combiner)
                    for p1 in per_exp[0]
                    for p2 in per_exp[1]
                ]
            )
            levels = np.unique(combined)
            cdf = np.searchsorted(np.sort(combined), levels, side="right") / combined.size
            assert (cdf <= levels + 1e-12).all()
