"""Population generation, the scenario runner, and exact validity audits."""

import dataclasses

import numpy as np
import pytest

from randinf import (
    CRD,
    RBD,
    InputError,
    ObservedData,
    ScenarioConfig,
    assignment_matrix,
    balanced_design,
    confidence_interval,
    exact_validity_audit,
    generate_population,
    run_scenario,
    total_assignments,
    traditional_interval,
)
from randinf.datasets import PotentialTable, tied_discrete_population, toy_population
from randinf import simulate as simulate_mod
from randinf.simulate import _MAX_UNITS, AuditReport, _width_classes
from randinf.randomization import PValueKind
from conftest import audit_digest
import golden


class TestGeneratePopulation:
    def test_zero_effect_collapses_arms(self):
        pop = generate_population(12, 0.0, seed=4)
        np.testing.assert_array_equal(pop.y0, pop.y1)

    def test_positive_support(self):
        pop = generate_population(50, 0.5, seed=4)
        assert (pop.y0 > 0).all() and (pop.y1 > 0).all()

    def test_seed_determinism(self):
        a = generate_population(20, 1.0, seed=9)
        b = generate_population(20, 1.0, seed=9)
        np.testing.assert_array_equal(a.y0, b.y0)
        assert not np.array_equal(a.y0, generate_population(20, 1.0, seed=10).y0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_population(1, 0.0, seed=0)


class TestBalancedDesign:
    def test_single_block_is_crd(self):
        assert balanced_design(1, 16) == CRD(16, 8)

    def test_multi_block(self):
        assert balanced_design(2, 8) == RBD(((8, 4), (8, 4)))

    def test_odd_block_size_rejected(self):
        with pytest.raises(ValueError):
            balanced_design(2, 7)

    def test_more_units_than_the_limit_refused_before_any_block(self):
        assert balanced_design(_MAX_UNITS // 8, 8).n_units <= _MAX_UNITS
        for blocks, size in ((_MAX_UNITS // 8 + 1, 8), (10 ** 400, 2), (1, 2 * 10 ** 400)):
            with pytest.raises(ValueError, match="at most"):
                balanced_design(blocks, size)


class TestRunScenario:
    def test_single_rep_coverage_binary(self):
        cfg = ScenarioConfig(
            design1=balanced_design(1, 8), design2=balanced_design(1, 8),
            reps=1, k_cap=100, master_seed=5,
        )
        res = run_scenario(cfg)
        for arm in res.arms.values():
            assert arm.coverage in (0.0, 1.0)
            assert arm.width_sd == 0.0

    def test_deterministic(self):
        cfg = ScenarioConfig(
            design1=balanced_design(1, 10), design2=balanced_design(2, 6),
            reps=8, k_cap=500, master_seed=12,
        )
        assert run_scenario(cfg).arms == run_scenario(cfg).arms

    def test_level_finer_than_atoms_gives_infinite_interval(self, diff_means):
        # a 36-assignment space cannot support a 2.5% tail: the base atom is
        # 1/36, so the inverted endpoints are infinite and the width follows
        pop = generate_population(8, 0.0, seed=2)
        design = RBD(((4, 2), (4, 2)))
        data = pop.observe(assignment_matrix(design)[7])
        ci = confidence_interval(data, design, diff_means, 0.025, 0.025)
        assert ci.lower == -np.inf and ci.upper == np.inf and ci.width == np.inf

    def test_arms_present_and_sane(self):
        cfg = ScenarioConfig(
            design1=balanced_design(1, 10), design2=balanced_design(1, 12),
            reps=12, k_cap=500, master_seed=3,
        )
        res = run_scenario(cfg)
        assert set(res.arms) == {"exp1", "exp2", "fisher", "de"}
        for arm in res.arms.values():
            assert 0.0 <= arm.coverage <= 1.0
            assert arm.width_mean > 0

    def test_scaling_equivariance_single_rep(self, diff_means):
        # multiplying all outcomes by c scales the interval endpoints by c
        pop = generate_population(10, 1.0, seed=77)
        design = CRD(10, 5)
        w = assignment_matrix(design)[100]
        data = pop.observe(w)
        scaled = ObservedData(data.w_obs, 3.0 * data.y_obs)
        base = confidence_interval(data, design, diff_means, 0.025, 0.025)
        big = confidence_interval(scaled, design, diff_means, 0.025, 0.025)
        assert big.lower == pytest.approx(3 * base.lower, rel=1e-12)
        assert big.upper == pytest.approx(3 * base.upper, rel=1e-12)

    def test_summary_table_renders(self):
        cfg = ScenarioConfig(
            design1=balanced_design(1, 8), design2=balanced_design(1, 8),
            reps=2, k_cap=100, master_seed=1,
        )
        table = run_scenario(cfg).summary_table()
        assert "exp1" in table and "fisher" in table


class TestExactValidityAudit:
    def test_toy_population_guarantees(self):
        report = exact_validity_audit(toy_population(), CRD(10, 5), alphas=(0.05,))
        assert report.dominance_ok
        assert report.gamma_bound_ok
        assert report.gamma_star == pytest.approx(2 / 252, abs=0)
        assert report.max_shortfall == pytest.approx(2 / 252, abs=1e-12)
        assert report.coverage_ok(0.05)

    def test_tied_population_gap(self):
        # heavy ties: guaranteed method holds the level, traditional does not
        report = exact_validity_audit(tied_discrete_population(), CRD(15, 7), alphas=(0.05,))
        assert report.proposed_coverage[0.05] >= 0.95
        assert report.traditional_coverage[0.05] < report.proposed_coverage[0.05]
        assert round(report.proposed_coverage[0.05], 3) == 0.961
        assert round(report.traditional_coverage[0.05], 3) == 0.897

    def test_several_alphas_equal_single_alpha_audits(self):
        # one breakpoint pass partitions at every alpha's ranks at once
        alphas = (0.05, 0.1, 0.2)
        pop, design = tied_discrete_population(), CRD(15, 5)
        joint = exact_validity_audit(pop, design, alphas=alphas)
        for alpha in alphas:
            single = exact_validity_audit(pop, design, alphas=(alpha,))
            for field in dataclasses.fields(AuditReport):
                got, want = getattr(joint, field.name), getattr(single, field.name)
                if isinstance(want, dict):
                    assert list(want) == [alpha] and got[alpha] == want[alpha], field.name
                elif field.name == "dominance":
                    assert got.profiles.keys() == want.profiles.keys()
                    for kind, (levels, cdf) in want.profiles.items():
                        np.testing.assert_array_equal(got.profiles[kind][0], levels)
                        np.testing.assert_array_equal(got.profiles[kind][1], cdf)
                    assert (got.gamma_star, got.denom) == (want.gamma_star, want.denom)
                else:
                    assert got == want, field.name

    def test_constant_population_trivial_coverage(self):
        y = np.full(6, 4.0)
        report = exact_validity_audit(PotentialTable(y, y), CRD(6, 3), alphas=(0.05,))
        assert report.proposed_coverage[0.05] == 1.0
        levels, cdf = report.dominance.profiles[PValueKind.LPLUS]
        np.testing.assert_array_equal(levels, [1.0])

    def test_matches_public_interval_construction(self, diff_means):
        # dual route: the vectorized audit equals per-assignment inversion.
        # CRD(5,2) has 10 assignments: at alpha 0.10 the base atom 1/10
        # exceeds alpha/2, so both proposed endpoints are infinite ranks while
        # the traditional upper one is finite; at 0.50 all three are finite.
        # The tied integer population puts endpoints exactly on theta0 != 0,
        # where only the closed/open endpoint conventions decide coverage
        tied = np.array([0.0, 0, 1, 1, 1, 2, 2, 3])
        cases = (
            (generate_population(7, 0.5, seed=42), CRD(7, 3), (0.10,)),
            (generate_population(5, -0.25, seed=8), CRD(5, 2), (0.10, 0.50)),
            (PotentialTable(y0=tied, y1=tied + 1.5), CRD(8, 4), (0.10, 0.20, 0.50)),
            (generate_population(8, -0.75, seed=5), RBD(((4, 2), (4, 2))), (0.20, 0.50)),
        )
        for pop, design, alphas in cases:
            theta0 = float(pop.y1[0] - pop.y0[0])
            report = exact_validity_audit(pop, design, alphas=alphas)
            W = assignment_matrix(design)
            for alpha in alphas:
                cis = [confidence_interval(pop.observe(w), design, diff_means, alpha / 2, alpha / 2)
                       for w in W]
                trs = [traditional_interval(pop.observe(w), design, diff_means, alpha) for w in W]
                assert report.proposed_coverage[alpha] == np.mean([ci.contains(theta0) for ci in cis])
                assert report.traditional_coverage[alpha] == np.mean([tr.contains(theta0) for tr in trs])
                for got, cs in ((report.proposed_width_mean, cis), (report.traditional_width_mean, trs)):
                    assert got[alpha] == pytest.approx(np.mean([c.width for c in cs]), rel=1e-12)

    def test_statistic_evaluated_once_per_assignment(self, diff_means):
        # one pass over the enumeration serves the profile, coverage and
        # widths; the copy keeps diff_means's closed form, so the audit admits it
        rows = []

        def counting(y1, y0, W):
            rows.append(W.shape[0])
            return diff_means.rows(y1, y0, W)

        stat = dataclasses.replace(diff_means, rows=counting)
        design = CRD(10, 5)
        exact_validity_audit(toy_population(), design, stat=stat, alphas=(0.05, 0.1))
        assert sum(rows) == total_assignments(design) == 252

    def test_constant_effect_required(self):
        with pytest.raises(ValueError):
            exact_validity_audit(
                PotentialTable(np.arange(4.0), np.arange(4.0) ** 2), CRD(4, 2)
            )

    def test_rbd_population(self):
        pop = generate_population(8, 0.0, seed=13)
        report = exact_validity_audit(pop, RBD(((4, 2), (4, 2))), alphas=(0.10,))
        assert report.dominance_ok and report.coverage_ok(0.10)

    @pytest.fixture
    def no_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the audit enumerated a refused input")

        monkeypatch.setattr(simulate_mod, "assignment_matrix", refuse)

    @pytest.mark.parametrize("alphas", [(1.5,), (1.0,), (0.0,), (0.05, -0.1), (float("nan"),)])
    def test_alpha_outside_unit_interval_refused(self, alphas, no_enumeration):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            exact_validity_audit(generate_population(8, 1.0, seed=2), CRD(8, 4), alphas=alphas)

    @pytest.mark.parametrize("arm, value", [("y0", np.inf), ("y1", -np.inf), ("y1", np.nan)])
    def test_non_finite_outcomes_refused(self, arm, value, no_enumeration):
        pop = generate_population(8, 1.0, seed=2)
        outcomes = {"y0": pop.y0.copy(), "y1": pop.y1.copy()}
        outcomes[arm][3] = value
        with pytest.raises(ValueError, match="finite"):
            exact_validity_audit(PotentialTable(**outcomes), CRD(8, 4))

    def test_other_statistics_refused(self, wilcoxon, no_enumeration):
        with pytest.raises(InputError, match="closed form"):
            exact_validity_audit(toy_population(), CRD(10, 5), stat=wilcoxon)

    def test_statistic_refused_by_its_closed_form_not_its_name(self, wilcoxon, no_enumeration):
        # the swap-formula widths of rank sums would be reported as exact
        renamed = dataclasses.replace(wilcoxon, name="diff_means")
        with pytest.raises(InputError, match="closed form"):
            exact_validity_audit(tied_discrete_population(), CRD(15, 5), stat=renamed)

    def test_statistic_admitted_by_its_closed_form_not_its_name(self, diff_means):
        pop, design = tied_discrete_population(), CRD(15, 5)
        copy = dataclasses.replace(diff_means, name="dm_copy")
        assert audit_digest(exact_validity_audit(pop, design, stat=copy)) == audit_digest(
            exact_validity_audit(pop, design)
        )

    def test_population_size_must_match_design(self, no_enumeration):
        with pytest.raises(ValueError, match="9 units.* 8"):
            exact_validity_audit(generate_population(9, 1.0, seed=2), CRD(8, 4))

    def test_outcomes_whose_range_overflows_refused(self, no_enumeration):
        # their scale is inf, and so would be the constant-effect tolerance:
        # effects spread over 1e300 would be audited as a constant effect
        y0 = 9e307 * np.linspace(-1, 1, 8)
        with pytest.raises(InputError, match="range a double holds"):
            exact_validity_audit(PotentialTable(y0=y0, y1=y0 + np.linspace(0, 1e300, 8)), CRD(8, 4))

    def test_constant_effect_tolerance_follows_outcome_scale(self):
        # dollar-scale outcomes: the effect spread of y0 + 1e6 is about 1e-10
        pop = generate_population(10, 1.0, seed=2)
        y0 = pop.y0 * 1e6
        scaled = PotentialTable(y0=y0, y1=y0 + 1e6)
        assert np.ptp(scaled.y1 - scaled.y0) > 1e-12
        alphas = (0.05, 0.2)
        report = exact_validity_audit(pop, CRD(10, 5), alphas=alphas)
        big = exact_validity_audit(scaled, CRD(10, 5), alphas=alphas)
        assert big.proposed_coverage == report.proposed_coverage
        assert big.traditional_coverage == report.traditional_coverage
        for got, want in ((big.proposed_width_mean, report.proposed_width_mean),
                          (big.traditional_width_mean, report.traditional_width_mean)):
            for alpha in alphas:
                assert got[alpha] == pytest.approx(1e6 * want[alpha], rel=1e-12, abs=0)

    def test_constant_effect_tolerance_has_no_floor(self):
        # outcomes near 1e-13 whose effects spread over all of their range
        # break the audit's null however small they are; a constant effect
        # at that scale is still a null the audit checks
        y0 = np.random.default_rng(3).lognormal(size=8) * 1e-13
        spread = PotentialTable(y0=y0, y1=y0 + np.linspace(0, 5e-13, 8))
        with pytest.raises(InputError, match="constant effect"):
            exact_validity_audit(spread, CRD(8, 4), alphas=(0.1,))
        report = exact_validity_audit(PotentialTable(y0=y0, y1=y0 + 2e-13), CRD(8, 4), alphas=(0.1,))
        assert report.coverage_ok(0.1) and report.dominance_ok


_GOLDEN_SCENARIOS = {
    # CRD(16,8) has 12870 assignments: Monte Carlo with k_cap draws;
    # RBD 2x(8,4) has 4900: exact
    "dm_1x16_mc_2x8_exact": dict(design1=balanced_design(1, 16), design2=balanced_design(2, 8)),
    "dm_1x16_mc_both": dict(design1=balanced_design(1, 16), design2=balanced_design(1, 16)),
    "wilcoxon_2x8_exact_1x16_mc": dict(
        design1=balanced_design(2, 8), design2=balanced_design(1, 16),
        statistic="wilcoxon_rank_sum",
    ),
}

# SHA-256 of every arm's (coverage, width_mean, width_sd) float64 bytes in
# arm order, recorded while every side of every experiment was built from its
# own replicate matrix (dm_1x16_mc_2x8_exact re-recorded at seed stream 0.2.0).
GOLDEN_SCENARIO = golden.table("GOLDEN_SCENARIO_SHA256", _GOLDEN_SCENARIOS)


def _arms_digest(result):
    import hashlib

    h = hashlib.sha256()
    for name, arm in result.arms.items():
        h.update(name.encode())
        h.update(np.array([arm.coverage, arm.width_mean, arm.width_sd]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", GOLDEN_SCENARIO.cases)
def test_run_scenario_golden_bytes(case):
    cfg = ScenarioConfig(reps=3, k_cap=5000, master_seed=20260808, **_GOLDEN_SCENARIOS[case])
    golden.check(GOLDEN_SCENARIO, case, _arms_digest(run_scenario(cfg)))


def test_run_scenario_builds_one_union_grid_per_rep(monkeypatch):
    # every combiner of a rep reads the same grid, so its breakpoints are
    # sorted once whatever the number of combiners
    grids = []

    def counted(fss):
        grids.append(union_grid(fss))
        return grids[-1]

    union_grid = simulate_mod._union_grid
    monkeypatch.setattr(simulate_mod, "_union_grid", counted)
    cfg = ScenarioConfig(reps=3, k_cap=5000, master_seed=20260808,
                         combiners=("fisher", "de", "stouffer"),
                         **_GOLDEN_SCENARIOS["dm_1x16_mc_2x8_exact"])
    run_scenario(cfg)
    assert len(grids) == cfg.reps


def _former_endpoint_indices(k, alpha):
    """The audit's index arithmetic before it called the public inverters."""
    half = alpha / 2
    cum = (1.0 + np.arange(1, k)) / k
    i_lo = None if 1.0 / k > half else int(np.searchsorted(cum, half, side="right"))
    at_bp = (1.0 + (k - 1) - np.arange(k - 1)) / k
    if 1.0 / k > half:
        i_hi = None
    else:
        above = at_bp > half
        i_hi = int(np.nonzero(above)[0][-1]) if above.any() else -1
    i_tr = int(np.searchsorted(cum, 1 - half, side="left"))
    return i_lo, i_hi, i_tr if i_tr < k - 1 else None


def test_endpoint_ranks_match_former_index_arithmetic():
    from randinf.simulate import _endpoint_ranks

    for k in range(2, 201):
        # 2/k is the level whose half equals the base atom; at k = 2 it is 1,
        # not a level
        for alpha in (0.01, 0.05, 0.1, 2 / k):
            if alpha >= 1:
                continue
            lo, hi, tr = _endpoint_ranks(k, alpha)
            got = (
                None if lo == -np.inf else int(lo),
                None if hi == np.inf else int(hi),
                None if tr == np.inf else int(tr),
            )
            assert got == _former_endpoint_indices(k, alpha), (k, alpha)


def test_one_replicate_matrix_per_experiment_per_rep(replicate_builds):
    # 1x16 (12,870 rows) is above k_cap, so Monte Carlo with fresh draws in
    # every rep; 2x8 (4,900 rows) is exact, and its source serves every rep
    cfg = ScenarioConfig(
        design1=balanced_design(1, 16), design2=balanced_design(2, 8),
        reps=3, k_cap=5000, master_seed=3,
    )
    run_scenario(cfg)
    assert replicate_builds == [cfg.design2] + [cfg.design1] * 3


def _golden_audit_case(name):
    """(population, design, alphas) of one pinned audit case."""
    alphas = (0.05, 0.1, 0.2, 0.5)
    if name.startswith("tied_crd_15_5_perm"):
        pop = tied_discrete_population()
        perm = np.random.default_rng(int(name[-1])).permutation(15)
        return PotentialTable(y0=pop.y0[perm], y1=pop.y1[perm]), CRD(15, 5), alphas
    if name == "tied_crd_8_4_at_1.5":
        tied = np.array([0.0, 0, 1, 1, 1, 2, 2, 3])
        return PotentialTable(y0=tied, y1=tied + 1.5), CRD(8, 4), alphas
    assert name == "lognormal_rbd_2x4_2_at_-0.75"
    return generate_population(8, -0.75, seed=5), RBD(((4, 2), (4, 2))), alphas


# SHA-256 of every audit report field, recorded while the audit partitioned a
# replicates x observed breakpoint matrix at every alpha's ranks.
GOLDEN_AUDIT = golden.table("GOLDEN_AUDIT_SHA256", [
    "tied_crd_15_5_perm0", "tied_crd_15_5_perm1", "tied_crd_15_5_perm2", "tied_crd_8_4_at_1.5",
    "lognormal_rbd_2x4_2_at_-0.75",
])


@pytest.mark.parametrize("case", GOLDEN_AUDIT.cases)
def test_exact_validity_audit_golden_bytes(case):
    pop, design, alphas = _golden_audit_case(case)
    golden.check(GOLDEN_AUDIT, case, audit_digest(exact_validity_audit(pop, design, alphas=alphas)))


@pytest.mark.parametrize("case", [f"tied_crd_15_5_perm{i}" for i in range(3)])
def test_tied_audit_builds_one_row_per_composition(case):
    # 6, 6 and 3 tied units: 18 ways to treat 5 of them
    pop, design, alphas = _golden_audit_case(case)
    report = exact_validity_audit(pop, design, alphas=alphas)
    assert (report.assignments, report.width_classes) == (3003, 18)


def test_untied_audit_builds_every_row():
    report = exact_validity_audit(generate_population(12, 0.5, seed=3), CRD(12, 6))
    assert report.assignments == report.width_classes == 924


@pytest.mark.parametrize("design, y", [
    # 52 singleton and 9 paired units: the composition key passes 2**62
    # unless it is relabelled
    (CRD(70, 3), np.r_[np.arange(61.0), np.arange(9.0)]),
    # equal outcomes in different blocks are different classes
    (RBD(((4, 2), (4, 2), (3, 1))), np.array([0.0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1])),
])
def test_width_classes_are_the_compositions(design, y):
    W = assignment_matrix(design)
    rep, inverse = _width_classes(design, PotentialTable(y, y), W, np.zeros(len(W)))
    block = np.repeat(np.arange(len(design.blocks)), [size for size, _ in design.blocks])
    _, unit_class = np.unique(np.column_stack((block, y)), axis=0, return_inverse=True)
    counts = np.stack([W[:, unit_class == c].sum(axis=1) for c in range(unit_class.max() + 1)], axis=1)
    np.testing.assert_array_equal(counts[rep][inverse], counts)
    assert rep.size == len(np.unique(counts, axis=0))
