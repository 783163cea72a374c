"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
timing lines.  Every tolerance is fixed here, not calibrated elsewhere.
"""

import time

import numpy as np
import pytest

from randinf import (
    CRD,
    MCMode,
    PValueKind,
    ScenarioConfig,
    assignment_matrix,
    balanced_design,
    build_step_function,
    combine_values,
    evaluate_many,
    exact_validity_audit,
    fisher,
    generate_population,
    get_statistic,
    impute,
    laplace_sum_cdf,
    mc_sup_error,
    observed_statistic,
    p_value,
    required_k,
    run_scenario,
    stouffer,
)
from randinf.datasets import (
    studentized_nonmonotone_experiment,
    tied_discrete_population,
    toy_experiment,
    toy_population,
)

DM = get_statistic("diff_means")


def report(criterion, started, budget):
    elapsed = time.perf_counter() - started
    print(f"\ncriterion {criterion}: PASS ({elapsed:.3f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded its runtime budget"


def test_criterion_1_toy_golden():
    started = time.perf_counter()
    data, design = toy_experiment()
    assert round(observed_statistic(DM, data), 3) == 0.912
    f = build_step_function(data, design, DM, PValueKind.LPLUS)
    assert f.denom == 252
    got = [round(v, 3) for v in np.atleast_1d(f.value(np.array([-3.0, -1.0, 0.0, 1.0, 3.0])))]
    assert got == [0.004, 0.012, 0.131, 0.560, 0.988]
    report(1, started, budget=1.0)


def test_criterion_2_threshold_table_exact():
    want = {
        0.1: 4794, 0.05: 19173, 0.02: 119830, 0.01: 479318,
        0.005: 1917269, 0.002: 11982930, 0.001: 47931717,
    }
    started = time.perf_counter()
    got = {eps: required_k(eps, 0.01) for eps in want}
    report(2, started, budget=0.001)
    assert got == want


def test_criterion_3_guaranteed_coverage_zero_tolerance():
    started = time.perf_counter()
    design = CRD(12, 6)
    for seed in range(20):
        population = generate_population(12, 1.0, seed=seed)
        audit = exact_validity_audit(population, design, alphas=(0.10, 0.05))
        for alpha in (0.10, 0.05):
            assert audit.proposed_coverage[alpha] >= 1 - alpha, (
                f"seed {seed}: coverage {audit.proposed_coverage[alpha]} below {1 - alpha}"
            )
    report(3, started, budget=30.0)


def test_criterion_4_traditional_versus_proposed_gap():
    started = time.perf_counter()
    population = tied_discrete_population()
    reproduced = {}
    for n_treated in (7, 8):
        audit = exact_validity_audit(population, CRD(15, n_treated), alphas=(0.05,))
        proposed = audit.proposed_coverage[0.05]
        traditional = audit.traditional_coverage[0.05]
        assert proposed >= 0.95
        assert traditional < proposed
        reproduced[n_treated] = (round(traditional, 3), round(proposed, 3))
    # the seven-treated design reproduces the reported pair exactly
    assert reproduced[7] == (0.897, 0.961)
    report(4, started, budget=60.0)


def test_criterion_5_stochastic_dominance_audit():
    started = time.perf_counter()
    audit = exact_validity_audit(toy_population(), CRD(10, 5), alphas=(0.05,))
    prof = audit.dominance
    for kind in (PValueKind.LPLUS, PValueKind.LMINUS):
        assert prof.dominated_by_uniform(kind)
        assert prof.max_shortfall(kind) <= 2 / 252 + 1e-12
    for kind in (PValueKind.UPLUS, PValueKind.UMINUS):
        assert prof.dominates_uniform(kind)
        assert prof.max_excess(kind) <= 2 / 252 + 1e-12
    assert audit.gamma_star == pytest.approx(2 / 252, abs=0)
    report(5, started, budget=10.0)


def test_criterion_6_monotone_curves_and_counterexample():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    grid = np.linspace(-8.0, 8.0, 2001)
    for case in range(50):
        n = int(rng.integers(6, 11))
        n1 = int(rng.integers(2, n - 1))
        y = rng.lognormal(size=n) if case % 2 else rng.normal(size=n)
        w = np.zeros(n, dtype=np.int8)
        w[rng.choice(n, size=n1, replace=False)] = 1
        from randinf import ObservedData

        data = ObservedData(w_obs=w, y_obs=y)
        f = build_step_function(data, CRD(n, n1), DM, PValueKind.LPLUS)
        vals = np.atleast_1d(f.value(grid))
        assert (np.diff(vals) >= 0).all(), f"violation in dataset {case}"

    nm_data, nm_design = studentized_nonmonotone_experiment()
    studentized = get_statistic("studentized")
    curve = np.array(
        [p_value(nm_data, nm_design, studentized, t, PValueKind.LPLUS) for t in np.linspace(-2, 4, 2001)]
    )
    assert (np.diff(curve) < 0).any(), "no strict decrease found for the studentized curve"
    report(6, started, budget=60.0)


@pytest.mark.parametrize("blocks,size", [(1, 16), (2, 8)])
def test_criterion_7_desk_scale_coverage_and_width(blocks, size):
    started = time.perf_counter()
    cfg = ScenarioConfig(
        design1=balanced_design(blocks, size),
        design2=balanced_design(blocks, size),
        true_theta=0.0,
        reps=500,
        k_cap=5000,
        alpha=0.05,
        combiners=("fisher", "de"),
        master_seed=20260808,
    )
    res = run_scenario(cfg)
    for arm in ("exp1", "exp2", "fisher", "de"):
        assert abs(res.arms[arm].coverage - 0.95) <= 0.02, (
            f"({blocks},{size}) {arm}: coverage {res.arms[arm].coverage}"
        )
    individual = max(res.arms["exp1"].width_mean, res.arms["exp2"].width_mean)
    smallest = min(res.arms["exp1"].width_mean, res.arms["exp2"].width_mean)
    for comb in ("fisher", "de"):
        assert res.arms[comb].width_mean < smallest, (
            f"({blocks},{size}) {comb}: width {res.arms[comb].width_mean} "
            f"not below individual widths {individual}, {smallest}"
        )
    report(f"7 ({blocks},{size})", started, budget=900.0)


def test_criterion_8_concentration_sanity():
    started = time.perf_counter()
    from randinf.datasets import toy_population

    population = toy_population()
    w_obs = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0], dtype=np.int8)
    data = population.observe(w_obs)
    design = CRD(10, 5)
    exact = build_step_function(data, design, DM, PValueKind.LPLUS)
    exceedances = 0
    for seed in range(100):
        approx = build_step_function(
            data, design, DM, PValueKind.LPLUS, MCMode(k=4794, seed=seed)
        )
        if mc_sup_error(approx, exact) > 0.1:
            exceedances += 1
    assert exceedances <= 1, f"{exceedances} of 100 trials exceeded the error target"
    report(8, started, budget=300.0)


def test_criterion_9_combiner_numerics():
    started = time.perf_counter()
    assert combine_values([0.1, 0.2], fisher()) == pytest.approx(0.098241, abs=1e-5)
    assert combine_values([0.5, 0.5], stouffer()) == 0.5
    rng = np.random.default_rng(424242)
    probe = np.linspace(-8.0, 8.0, 33)
    for m in (2, 3, 5):
        draws = np.sort(rng.laplace(size=(1_000_000, m)).sum(axis=1))
        ecdf = np.searchsorted(draws, probe, side="right") / draws.size
        got = laplace_sum_cdf(m, probe)
        assert np.max(np.abs(got - ecdf)) < 3e-3, f"m={m}"
    report(9, started, budget=120.0)


def test_criterion_10_combined_validity_exact():
    started = time.perf_counter()
    design = CRD(6, 3)
    W = assignment_matrix(design).astype(float)
    per_experiment = []
    for seed in (5, 6):
        population = generate_population(6, 0.0, seed=seed)
        table = impute(population.observe(W[0].astype(np.int8)), 0.0)
        t = np.round(evaluate_many(DM, table, W), 12)
        per_experiment.append(np.array([(t >= t[j]).mean() for j in range(len(t))]))
    p1, p2 = per_experiment
    for combiner in (fisher(), stouffer()):
        combined = np.array(
            [combine_values([a, b], combiner) for a in p1 for b in p2]
        )
        levels = np.unique(combined)
        cdf = np.searchsorted(np.sort(combined), levels, side="right") / combined.size
        assert (cdf <= levels + 1e-12).all(), f"{combiner.method}: dominance failed"
    report(10, started, budget=30.0)
