"""Fusing p-value functions from independent experiments into one inference.

A combiner is a pair ``(g, G)``: a coordinate-wise non-decreasing map
``g(u_1, ..., u_M) = sum_i w_i F0qf(u_i)`` built from a reference quantile
function ``F0qf`` and non-negative weights, together with the reference CDF
``G`` of ``g(U_1, ..., U_M)`` for iid Uniform[0,1] inputs.  Applying ``G``
after ``g`` recalibrates the fused value to [0, 1]; the combination of valid
lower (resp. upper) p-value functions is again a valid lower (resp. upper)
p-value function, which is what makes combined intervals inherit the coverage
guarantee.

Built-in recipes:

``stouffer``
    Normal quantiles; ``G`` is a normal CDF.  Weights are handled in closed
    form (``z = sum w_i qn(p_i) / sqrt(sum w_i^2)``).
``fisher``
    Log transform; ``G`` is the upper-tail chi-square probability with ``2M``
    degrees of freedom.  The chi-square reference requires unit weights;
    weighted requests are routed to a Monte Carlo reference CDF.
``double_exponential``
    Laplace quantiles; ``G`` is the CDF of a sum of M standard Laplace
    variables, evaluated by numerical self-convolution and cached per M.

Inputs are clipped into [1e-12, 1 - 1e-12] before quantile transforms: exact
lower p-values are never 0, but strict-inequality values can be 0 and lower
values can be 1, and clipping keeps the transforms finite.  The bias this
introduces sits far below combination accuracy at the scales involved.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import gammaincc, ndtr, ndtri

from .inversion import (
    ConfidenceInterval,
    PValueStepFunction,
    _cut,
    _levels_on,
    _require_invertible,
    build_step_functions,
)
from .randomization import ExactMode, Mode, PValueKind

__all__ = [
    "CombinerSpec",
    "CombinedPValueFunction",
    "stouffer",
    "fisher",
    "double_exponential",
    "custom_combiner",
    "make_combiner",
    "combine_values",
    "combine_functions",
    "combined_interval",
    "normal_cdf",
    "normal_quantile",
    "chisq_upper",
    "laplace_sum_cdf",
]

P_CLIP = 1e-12

# seed for Monte Carlo reference CDFs (weighted fisher / double_exponential)
_MC_REFERENCE_SEED = 202406
_MC_REFERENCE_DRAWS = 1_000_000
# rows of uniforms drawn at once; a multiple of 8, so that the weighted row
# sums round as over the whole matrix
_MC_REFERENCE_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def normal_cdf(x):
    """Standard normal CDF (absolute error below 1e-12)."""
    return ndtr(x)


def normal_quantile(p):
    """Standard normal quantile; domain error outside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0) | (p >= 1)):
        raise ValueError("normal_quantile needs p in (0, 1)")
    out = ndtri(p)
    return float(out) if out.ndim == 0 else out


def chisq_upper(df: int, x):
    """Upper-tail chi-square probability P(chi2_df >= x), df a positive even integer."""
    if df <= 0 or df % 2:
        raise ValueError("df must be a positive even integer")
    return gammaincc(df / 2, np.asarray(x, dtype=float) / 2)


_LAPLACE_GRID_STEP = 1.0 / 256


@lru_cache(maxsize=16)
def _laplace_table(m: int):
    """Grid CDF of a sum of m standard Laplace variables, cached per m."""
    half_width = 40.0 + 8.0 * m
    x = np.arange(-half_width, half_width + _LAPLACE_GRID_STEP / 2, _LAPLACE_GRID_STEP)
    dens1 = 0.5 * np.exp(-np.abs(x))
    dens = dens1
    for _ in range(m - 1):
        dens = fftconvolve(dens, dens1, mode="same") * _LAPLACE_GRID_STEP
    dens = 0.5 * (dens + dens[::-1])  # the sum is symmetric; kill fft noise
    steps = 0.5 * (dens[1:] + dens[:-1]) * _LAPLACE_GRID_STEP
    cdf = np.concatenate(([0.0], np.cumsum(steps)))
    cdf /= cdf[-1]
    cdf = 0.5 * (cdf + 1.0 - cdf[::-1])
    return x, cdf


def laplace_sum_cdf(m: int, x):
    """CDF of a sum of ``m`` iid standard Laplace variables (abs. error <= 1e-6).

    ``m = 1`` is closed form; larger ``m`` interpolates a cached grid CDF built
    by repeated numerical self-convolution of the Laplace density.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.asarray(x, dtype=float)
    if m == 1:
        out = np.where(x <= 0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))
    else:
        grid, cdf = _laplace_table(m)
        out = np.interp(x, grid, cdf, left=0.0, right=1.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# combiners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinerSpec:
    """A (quantile transform, weights, reference CDF) recipe.

    ``f0_quantile`` maps a clipped p-value to the reference scale;
    ``reference_cdf(x, m)`` is the CDF of the weighted sum of ``m`` transformed
    uniforms.  ``weights`` of None means unit weights.
    """

    method: str
    weights: Optional[tuple] = None
    f0_quantile: Optional[Callable] = None
    reference_cdf: Optional[Callable] = None

    def __post_init__(self):
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            object.__setattr__(self, "weights", w)
            if any(x < 0 for x in w) or not any(w):
                raise ValueError("weights must be non-negative with at least one nonzero")

    def resolved_weights(self, m: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(m)
        if len(self.weights) != m:
            raise ValueError(f"{len(self.weights)} weights for {m} p-values")
        return np.asarray(self.weights)


def stouffer(weights: Optional[Sequence[float]] = None) -> CombinerSpec:
    """Normal-quantile combiner; weights handled in closed form."""
    return CombinerSpec(method="stouffer", weights=None if weights is None else tuple(weights))


def fisher(weights: Optional[Sequence[float]] = None) -> CombinerSpec:
    """Log combiner with the chi-square reference (unit weights).

    Non-unit weights invalidate the chi-square reference, so they are routed
    to a seeded Monte Carlo reference CDF.
    """
    return CombinerSpec(method="fisher", weights=None if weights is None else tuple(weights))


def double_exponential(weights: Optional[Sequence[float]] = None) -> CombinerSpec:
    """Laplace-quantile combiner; sharpens both tails, robust for unequal sizes."""
    return CombinerSpec(
        method="double_exponential", weights=None if weights is None else tuple(weights)
    )


def custom_combiner(f0_quantile, reference_cdf, weights=None) -> CombinerSpec:
    """User-supplied quantile transform and reference CDF."""
    if f0_quantile is None or reference_cdf is None:
        raise ValueError("a custom combiner needs both f0_quantile and a reference CDF")
    return CombinerSpec(
        method="custom",
        weights=None if weights is None else tuple(weights),
        f0_quantile=f0_quantile,
        reference_cdf=reference_cdf,
    )


_CLI_NAMES = {
    "stouffer": stouffer,
    "fisher": fisher,
    "double_exponential": double_exponential,
    "de": double_exponential,
}


def make_combiner(name: str, weights=None) -> CombinerSpec:
    try:
        return _CLI_NAMES[name](weights)
    except KeyError:
        raise ValueError(f"unknown combiner {name!r}; choose from {sorted(_CLI_NAMES)}") from None


def _laplace_quantile(u):
    return np.where(u <= 0.5, np.log(2.0 * u), -np.log(2.0 * (1.0 - u)))


def _mc_reference_cdf(f0_quantile, weights: np.ndarray) -> np.ndarray:
    """Sorted seeded sample of sum w_i F0qf(U_i): the empirical reference CDF.

    The uniforms are drawn in chunks of rows, in order, from one generator:
    the same draws as one whole matrix, without holding it.
    """
    rng = np.random.default_rng(_MC_REFERENCE_SEED)
    sample = np.empty(_MC_REFERENCE_DRAWS)
    for start in range(0, _MC_REFERENCE_DRAWS, _MC_REFERENCE_CHUNK):
        stop = min(start + _MC_REFERENCE_CHUNK, _MC_REFERENCE_DRAWS)
        u = rng.uniform(P_CLIP, 1 - P_CLIP, size=(stop - start, weights.size))
        sample[start:stop] = f0_quantile(u) @ weights
    sample.sort()
    sample.flags.writeable = False
    return sample


# a weighted combined interval combines twice with the same transform and
# weights, and later requests in the same process may again; the 1M-draw
# sample is built once for all of them
@lru_cache(maxsize=4)
def _mc_reference_sample(f0_quantile, weights: tuple) -> np.ndarray:
    return _mc_reference_cdf(f0_quantile, np.array(weights))


def _mc_reference_values(f0_quantile, weights: np.ndarray, g) -> np.ndarray:
    """Empirical reference CDF at ``g``, its sample cached per (transform, weights)."""
    sample = _mc_reference_sample(f0_quantile, tuple(weights.tolist()))
    return np.searchsorted(sample, g, side="right") / sample.size


def _combine_matrix(P: np.ndarray, combiner: CombinerSpec) -> np.ndarray:
    """Combine each column of the (M, n) matrix of p-values."""
    P = np.clip(np.asarray(P, dtype=float), P_CLIP, 1 - P_CLIP)
    m = P.shape[0]
    w = combiner.resolved_weights(m)
    unit = np.allclose(w, 1.0)

    if combiner.method == "stouffer":
        z = (w @ ndtri(P)) / np.sqrt(np.sum(w * w))
        return ndtr(z)
    if combiner.method == "fisher":
        if unit:
            return chisq_upper(2 * m, -2.0 * np.sum(np.log(P), axis=0))
        return _mc_reference_values(np.log, w, w @ np.log(P))
    if combiner.method == "double_exponential":
        if unit:
            return np.asarray(laplace_sum_cdf(m, np.sum(_laplace_quantile(P), axis=0)))
        return _mc_reference_values(_laplace_quantile, w, w @ _laplace_quantile(P))
    if combiner.method == "custom":
        if combiner.reference_cdf is None:
            raise ValueError("custom combiner lacks a reference CDF evaluator")
        g = w @ combiner.f0_quantile(P)
        return np.asarray(combiner.reference_cdf(g, m))
    raise ValueError(f"unknown combiner method {combiner.method!r}")


def combine_values(ps: Sequence[float], combiner: CombinerSpec) -> float:
    """Combine M p-values from independent tests of the same null into one.

    Inputs are clipped into [1e-12, 1 - 1e-12] before the quantile transform.
    With a single input every built-in method is the identity.
    """
    P = np.asarray(ps, dtype=float).reshape(-1, 1)
    if np.any((P < 0) | (P > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    return float(_combine_matrix(P, combiner)[0])


@dataclass(frozen=True)
class CombinedPValueFunction:
    """Coordinatewise-monotone fusion of same-side step functions.

    A step function on the union of component breakpoints: between consecutive
    union breakpoints every component is constant, so the combination is too.
    """

    components: tuple
    combiner: CombinerSpec
    side: PValueKind

    @property
    def breakpoints(self) -> np.ndarray:
        return np.unique(np.concatenate([f.breakpoints for f in self.components]))

    def value(self, theta):
        P = np.vstack([np.atleast_1d(f.value(theta)) for f in self.components])
        out = _combine_matrix(P, self.combiner)
        return float(out[0]) if np.ndim(theta) == 0 else out

    def value_from_right(self, theta):
        P = np.vstack([np.atleast_1d(f.value_from_right(theta)) for f in self.components])
        out = _combine_matrix(P, self.combiner)
        return float(out[0]) if np.ndim(theta) == 0 else out


def combine_functions(fs: Sequence[PValueStepFunction], combiner: CombinerSpec) -> CombinedPValueFunction:
    """Fuse same-side p-value functions into one evaluable function of theta."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one p-value function")
    sides = {f.side for f in fs}
    if len(sides) > 1:
        raise ValueError(f"all components must share a side, got {sorted(s.value for s in sides)}")
    return CombinedPValueFunction(components=fs, combiner=combiner, side=fs[0].side)


def combined_interval(
    experiments: Sequence[tuple],
    stat,
    combiner: CombinerSpec,
    alpha: float,
    mode: Mode = ExactMode(),
    modes: Optional[Sequence[Mode]] = None,
) -> ConfidenceInterval:
    """Interval for the common effect from M independent experiments.

    ``experiments`` is a sequence of ``(data, design)`` pairs sharing the
    estimand.  The lower endpoint inverts the combined lower-plus function at
    ``alpha/2``; the upper endpoint inverts the combined lower-minus function,
    built as one minus the combination of the strict upper-plus components, at
    ``alpha/2``.  Both are computed exactly: each combined function is read
    once per theta interval of the union breakpoint grid, and each endpoint is
    where the first interval past its level starts.  Coverage is at least
    ``1 - alpha``.

    ``modes`` optionally gives one mode per experiment (for example different
    Monte Carlo seeds); otherwise ``mode`` applies to all.  The interval's
    ``mode`` records the mode that ran: the common one when all experiments
    share it, else the tuple of per-experiment modes.
    """
    _require_invertible(stat, alpha)
    if not experiments:
        raise ValueError("need at least one experiment")
    if modes is None:
        modes = [mode] * len(experiments)
    fss = [
        build_step_functions(data, design, stat, m)
        for (data, design), m in zip(experiments, modes)
    ]
    return _combined_interval(fss, combiner, alpha)


def _combined_interval(fss: Sequence[dict], combiner: CombinerSpec, alpha: float) -> ConfidenceInterval:
    """Combined interval from each experiment's step functions (LPLUS and UPLUS)."""
    fs_lplus = [fs[PValueKind.LPLUS] for fs in fss]
    fs_uplus = [fs[PValueKind.UPLUS] for fs in fss]
    modes = [f.mode for f in fs_lplus]
    mode = modes[0] if len(set(modes)) == 1 else tuple(modes)
    grid = np.unique(np.concatenate([f.breakpoints for f in fs_lplus + fs_uplus]))
    if grid.size == 0:
        raise ValueError("no breakpoints: the combined function is constant")

    half = alpha / 2
    # lower: sup{theta: combined LPLUS <= alpha/2}; upper: inf{theta: combined
    # LMINUS <= alpha/2}, with LMINUS = 1 - combined UPLUS
    lplus = _combine_matrix(np.vstack([_levels_on(f, grid) for f in fs_lplus]), combiner)
    lminus = 1.0 - _combine_matrix(np.vstack([_levels_on(f, grid) for f in fs_uplus]), combiner)
    return ConfidenceInterval(
        lower=_cut(grid, lplus > half), upper=_cut(grid, lminus <= half), alpha1=half, alpha2=half,
        method="proposed", statistic=fs_lplus[0].statistic, mode=mode,
    )
