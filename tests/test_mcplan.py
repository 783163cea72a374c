"""Concentration bound, sample-size thresholds, and the execution plan."""

import numpy as np
import pytest

from randinf import (
    CRD,
    InputError,
    MCMode,
    PValueKind,
    build_step_function,
    error_bound,
    mc_sup_error,
    plan,
    required_k,
    threshold_table,
    total_assignments,
)

TABLE_EPS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)
TABLE_K = (4794, 19173, 119830, 479318, 1917269, 11982930, 47931717)


class TestErrorBound:
    def test_bound_at_tabulated_threshold(self):
        assert error_bound(4794, 0.1) <= 0.01

    def test_huge_epsilon_returns_exponential_term(self):
        assert error_bound(1, 10.0) == pytest.approx(4 * np.exp(-100 / 8))

    def test_small_k_clips_at_one(self):
        assert error_bound(1, 0.01) == 1.0

    def test_k_validated(self):
        with pytest.raises(ValueError):
            error_bound(0, 0.1)
        with pytest.raises(ValueError):
            error_bound(10, 0.0)
        with pytest.raises(InputError, match="epsilon must be positive"):
            error_bound(10, float("nan"))
        with pytest.raises(InputError, match="epsilon must be positive"):
            error_bound(10, "0.1")
        with pytest.raises(InputError, match="k must be an integer"):
            error_bound(2.5, 0.1)


class TestRequiredK:
    @pytest.mark.parametrize("eps,k", list(zip(TABLE_EPS, TABLE_K)))
    def test_tabulated_thresholds_integer_exact(self, eps, k):
        assert required_k(eps, 0.01) == k

    def test_threshold_table(self):
        assert [k for _, k in threshold_table(TABLE_EPS, 0.01)] == list(TABLE_K)

    def test_direct_formula_case(self):
        # eps=1, delta=0.5: ceil(8 ln 8) = 17
        assert required_k(1.0, 0.5) == 17

    def test_boundary_inequalities(self):
        for eps in (0.3, 0.1, 0.07, 0.02):
            for delta in (0.2, 0.05, 0.01):
                k = required_k(eps, delta)
                assert error_bound(k, eps) <= delta
                assert error_bound(k - 1, eps) > delta

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            required_k(0.0, 0.01)
        with pytest.raises(ValueError):
            required_k(0.1, 1.0)
        with pytest.raises(InputError, match=r"epsilon must lie in \(0, 1\], got '0.1'"):
            required_k("0.1", 0.01)

    @pytest.mark.parametrize("eps, delta", [(1e-300, 0.01), (1e-160, 0.01), (1e-3, 1e-320)])
    def test_threshold_past_a_double_refused(self, eps, delta):
        # eps^2 underflows to 0, or the quotient or ln(4/delta) overflows
        with pytest.raises(ValueError, match="epsilon=.*delta="):
            required_k(eps, delta)


class TestPlan:
    def test_small_space_enumerates(self):
        p = plan(CRD(10, 5), 0.1, 0.01)
        assert p.strategy == "enumerate" and p.k_threshold == 4794

    def test_large_space_samples(self):
        p = plan(CRD(30, 15), 0.1, 0.01)
        assert p.strategy == "sample" and p.k == 4794
        assert total_assignments(CRD(30, 15)) == 155117520

    def test_tiny_design(self):
        assert plan(CRD(2, 1), 0.05, 0.01).strategy == "enumerate"

    def test_strategy_boundary(self):
        for design in (CRD(10, 5), CRD(20, 10), CRD(30, 15)):
            p = plan(design, 0.1, 0.01)
            assert (p.strategy == "enumerate") == (
                total_assignments(design) <= p.k_threshold
            )


class TestSupError:
    def test_identical_functions_have_zero_error(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        assert mc_sup_error(f, f) == 0.0

    def test_matches_dense_grid_evaluation(self, toy, diff_means):
        data, design = toy
        exact = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        approx = build_step_function(
            data, design, diff_means, PValueKind.LPLUS, MCMode(k=400, seed=8)
        )
        sup = mc_sup_error(approx, exact)
        # a fine grid plus near-breakpoint probes can approach but not exceed
        # the exact breakpoint-union supremum
        bps = np.unique(np.concatenate([exact.breakpoints, approx.breakpoints]))
        grid = np.unique(np.concatenate([np.linspace(-6, 6, 4001), bps, bps + 1e-9, bps - 1e-9]))
        dense = np.max(
            np.abs(np.atleast_1d(approx.value(grid)) - np.atleast_1d(exact.value(grid)))
        )
        assert dense <= sup + 1e-15
        assert sup == pytest.approx(dense, abs=1e-12)

    def test_side_mismatch(self, toy, diff_means):
        data, design = toy
        f = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        g = build_step_function(data, design, diff_means, PValueKind.LMINUS)
        with pytest.raises(ValueError):
            mc_sup_error(f, g)

    def test_concentration_small_sample(self, toy, diff_means):
        # quick slice of the full concentration check run by the acceptance
        # suite: at the tabulated threshold the sup error stays within eps
        data, design = toy
        exact = build_step_function(data, design, diff_means, PValueKind.LPLUS)
        for seed in range(5):
            approx = build_step_function(
                data, design, diff_means, PValueKind.LPLUS, MCMode(k=4794, seed=seed)
            )
            assert mc_sup_error(approx, exact) <= 0.1
