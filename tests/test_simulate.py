"""Population generation, the scenario runner, and exact validity audits."""

import dataclasses

import numpy as np
import pytest

from randinf import (
    CRD,
    RBD,
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
from randinf.simulate import AuditReport
from randinf.randomization import PValueKind


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
        # widths; a copy keeps the name diff_means, so the audit accepts it
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
GOLDEN_SCENARIO_SHA256 = {
    "dm_1x16_mc_2x8_exact": "2d58a1372d4286fc90b5fcfa8a0aa23e799538e312d8fa5fd44706f49e13142d",
    "dm_1x16_mc_both": "de000b698087b71e5f8ec5c7776c0809e9ec8683abd2a8ad280d2ca4557ae5a8",
    "wilcoxon_2x8_exact_1x16_mc": "dff9dcb4d6582800dcb078274bb5827de96a9959ed7f4ae2d3de3d8d521dd2b1",
}


def _arms_digest(result):
    import hashlib

    h = hashlib.sha256()
    for name, arm in result.arms.items():
        h.update(name.encode())
        h.update(np.array([arm.coverage, arm.width_mean, arm.width_sd]).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(_GOLDEN_SCENARIOS))
def test_run_scenario_golden_bytes(case):
    cfg = ScenarioConfig(reps=3, k_cap=5000, master_seed=20260808, **_GOLDEN_SCENARIOS[case])
    assert _arms_digest(run_scenario(cfg)) == GOLDEN_SCENARIO_SHA256[case]


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


def _audit_digest(report):
    import hashlib

    h = hashlib.sha256()
    h.update(np.array([report.theta0, report.gamma_star, report.max_shortfall,
                       report.dominance_ok, report.gamma_bound_ok]).tobytes())
    for kind, (levels, cdf) in report.dominance.profiles.items():
        h.update(kind.name.encode())
        h.update(np.asarray(levels, dtype=float).tobytes())
        h.update(np.asarray(cdf, dtype=float).tobytes())
    for per_alpha in (report.proposed_coverage, report.traditional_coverage,
                      report.proposed_width_mean, report.traditional_width_mean):
        h.update(np.array(list(per_alpha.items())).tobytes())
    return h.hexdigest()


# SHA-256 of every audit report field, recorded while the audit partitioned a
# replicates x observed breakpoint matrix at every alpha's ranks.
GOLDEN_AUDIT_SHA256 = {
    "tied_crd_15_5_perm0": "0c8e995ea8695974e12816132d30becd6af31f58aab871365be4b3cd3eecb8d1",
    "tied_crd_15_5_perm1": "0a5759320073dc0c3c5f3b1ae6dd4122ea663289ccc0e8a6d43e9e1afbf11764",
    "tied_crd_15_5_perm2": "8223a83c95a0142e6f6dccbada835918989a58935adb2d71341324ce11acef59",
    "tied_crd_8_4_at_1.5": "d63063e26a2c89ce25e011fd3705915db397f833642ff73c96098f9f9e81801b",
    "lognormal_rbd_2x4_2_at_-0.75": "f7bdc7f8bf329f79d8ae119874c7739abf6945f41eb90cded849ddba7468e14f",
}


@pytest.mark.parametrize("case", list(GOLDEN_AUDIT_SHA256))
def test_exact_validity_audit_golden_bytes(case):
    pop, design, alphas = _golden_audit_case(case)
    assert _audit_digest(exact_validity_audit(pop, design, alphas=alphas)) == GOLDEN_AUDIT_SHA256[case]
