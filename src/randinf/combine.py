"""Fusing p-value functions from independent experiments into one inference.

A combiner is a pair ``(g, G)``: a coordinate-wise non-decreasing map
``g(u_1, ..., u_M) = sum_i w_i F0qf(u_i)`` built from a reference quantile
function ``F0qf`` and non-negative weights, together with the reference CDF
``G`` of ``g(U_1, ..., U_M)`` for iid Uniform[0,1] inputs.  Applying ``G``
after ``g`` recalibrates the fused value to [0, 1]; the combination of valid
lower (resp. upper) p-value functions is again a valid lower (resp. upper)
p-value function.  :func:`combine_functions` fuses M experiments' sides into
four combined sides on one union grid (LMINUS = 1 - UPLUS, UMINUS = 1 - LPLUS),
and :func:`combined_interval` inverts them with the routine that inverts one
experiment's, so combined intervals inherit the coverage guarantee.

Every recipe, built-in or custom, is one :class:`CombinerSpec` holding two
callables: the transform ``F0qf`` and ``combine(q, w)``, which maps the
transformed (M, n) matrix and the weights to the n combined values, that is
``G`` applied to the weighted sums.  Built-in recipes:

``stouffer``
    Normal quantiles; ``G`` is a normal CDF.  Weights are handled in closed
    form (``z = sum w_i qn(p_i) / sqrt(sum w_i^2)``).
``fisher``
    Log transform; ``G`` is the upper-tail chi-square probability with ``2M``
    degrees of freedom.  The chi-square reference requires unit weights;
    weighted requests are routed to a Monte Carlo reference CDF.
``double_exponential``
    Laplace quantiles; ``G`` is the closed-form CDF of a sum of M standard
    Laplace variables.  Weighted requests take a Monte Carlo reference CDF.

Inputs are clipped into [1e-12, 1 - 1e-12] before quantile transforms: exact
lower p-values are never 0, but strict-inequality values can be 0 and lower
values can be 1, and clipping keeps the transforms finite.  The bias this
introduces sits far below combination accuracy at the scales involved.

``scipy.special`` is imported on the first evaluation of a normal CDF, normal
quantile or chi-square tail: by :func:`normal_cdf`, :func:`normal_quantile`,
:func:`chisq_upper`, or a Stouffer or unit-weight Fisher combination.  Double
exponential and weighted Fisher never load it, nor does importing randinf.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .inversion import (
    ConfidenceInterval,
    _proposed_interval,
    _SteppedSide,
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


def _special():
    """``scipy.special``, imported on first use: the import is about half of a
    fresh process's start-up time and a third of its memory, and double
    exponential and weighted Fisher never need it."""
    import scipy.special

    return scipy.special


def normal_cdf(x):
    """Standard normal CDF (absolute error below 1e-12)."""
    return _special().ndtr(x)


def _ndtri(p):
    """Standard normal quantile without the domain check: Stouffer's transform."""
    return _special().ndtri(p)


def normal_quantile(p):
    """Standard normal quantile; domain error for any p outside (0, 1), NaN included."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0) & (p < 1)):
        raise ValueError("normal_quantile needs p in (0, 1)")
    out = _ndtri(p)
    return float(out) if out.ndim == 0 else out


def chisq_upper(df: int, x):
    """Upper-tail chi-square probability P(chi2_df >= x), df a positive even integer."""
    if df <= 0 or df % 2:
        raise ValueError("df must be a positive even integer")
    return _special().gammaincc(df / 2, np.asarray(x, dtype=float) / 2)


def laplace_sum_cdf(m: int, x):
    """CDF of a sum of ``m`` iid standard Laplace variables, in closed form.

    ``P(S > a) = e^-a sum_{k<m} a^k/k! c_k`` for ``a >= 0``, with ``c_k =
    sum_{j<m-k} C(m-1+j, j) 2^-(m+j)``.  The terms are non-negative, so the
    lower tail at ``a = -x`` has no cancellation; it underflows to 0 with
    ``e^-a``, past ``a`` of about 745."""
    if m < 1:
        raise ValueError("m must be >= 1")
    x = np.asarray(x, dtype=float)
    # c_k as exact integers over 2^(2m-1), rounded once
    num = [math.comb(m - 1 + j, j) << (m - 1 - j) for j in range(m)]
    coef = [sum(num[:m - k]) / (1 << (2 * m - 1)) for k in range(m)]
    a = np.minimum(np.abs(x), np.finfo(float).max)  # an infinite |x| has tail 0, not 0 * inf
    term = np.exp(-a)
    tail = coef[0] * term
    for k in range(1, m):
        term = term * a / k
        tail = tail + coef[k] * term
    out = np.where(x < 0, tail, 1.0 - tail)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# combiners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinerSpec:
    """A combination recipe: (quantile transform, combine) and the weights.

    ``f0_quantile`` maps clipped p-values to the reference scale;
    ``combine(q, w)`` maps the transformed (M, n) matrix ``q`` and the
    resolved weights ``w`` to the n combined values.  ``method`` is a label
    only.  ``weights`` of None means unit weights.
    """

    method: str
    f0_quantile: Callable
    combine: Callable
    weights: Optional[tuple] = None

    def __post_init__(self):
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
            object.__setattr__(self, "weights", w)
            if not all(math.isfinite(x) and x >= 0 for x in w) or not any(w):
                raise ValueError("weights must be finite and non-negative with at least one nonzero")

    def resolved_weights(self, m: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(m)
        if len(self.weights) != m:
            raise ValueError(f"{len(self.weights)} weights for {m} p-values")
        return np.asarray(self.weights)


def stouffer(weights: Optional[Sequence[float]] = None) -> CombinerSpec:
    """Normal-quantile combiner; weights handled in closed form."""
    return CombinerSpec("stouffer", _ndtri, _stouffer, weights)


def fisher(weights: Optional[Sequence[float]] = None) -> CombinerSpec:
    """Log combiner with the chi-square reference (unit weights).

    Non-unit weights invalidate the chi-square reference, so they are routed
    to a seeded Monte Carlo reference CDF.
    """
    return CombinerSpec("fisher", np.log, _fisher, weights)


def double_exponential(weights: Optional[Sequence[float]] = None) -> CombinerSpec:
    """Laplace-quantile combiner; sharpens both tails, robust for unequal sizes."""
    return CombinerSpec("double_exponential", _laplace_quantile, _double_exponential, weights)


def custom_combiner(f0_quantile, reference_cdf, weights=None) -> CombinerSpec:
    """User-supplied quantile transform and reference CDF.

    The combined value ``reference_cdf(sum_i w_i f0_quantile(p_i), m)`` must
    be non-decreasing in each p-value, as the built-in recipes are: the
    combined function is then monotone in theta, which inverting it into an
    interval relies on.
    """
    if f0_quantile is None or reference_cdf is None:
        raise ValueError("a custom combiner needs both f0_quantile and a reference CDF")
    return CombinerSpec("custom", f0_quantile, lambda q, w: reference_cdf(w @ q, w.size), weights)


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


# the built-in ``combine`` callables.  Unit-weight Fisher and double
# exponential sum with np.sum, every other recipe with w @ q; BLAS can round
# the two differently for M >= 6, so no recipe switches between them.


def _unit(w) -> bool:
    """Whether the weights pass ``np.allclose(w, 1)``, written out: its call costs a small combine."""
    return bool((np.abs(w - 1.0) <= 1e-8 + 1e-5).all())


def _stouffer(q, w):
    return normal_cdf((w @ q) / np.sqrt(np.sum(w * w)))


def _fisher(q, w):
    if _unit(w):
        return chisq_upper(2 * w.size, -2.0 * np.sum(q, axis=0))
    return _mc_reference_values(np.log, w, w @ q)


def _double_exponential(q, w):
    if _unit(w):
        return laplace_sum_cdf(w.size, np.sum(q, axis=0))
    return _mc_reference_values(_laplace_quantile, w, w @ q)


def _combine_matrix(P: np.ndarray, combiner: CombinerSpec) -> np.ndarray:
    """Combine each column of the (M, n) matrix of p-values."""
    P = np.clip(np.asarray(P, dtype=float), P_CLIP, 1 - P_CLIP)
    w = combiner.resolved_weights(P.shape[0])
    return np.asarray(combiner.combine(combiner.f0_quantile(P), w))


def combine_values(ps: Sequence[float], combiner: CombinerSpec) -> float:
    """Combine M p-values from independent tests of the same null into one.

    Inputs outside [0, 1], NaN included, are refused; the rest are clipped
    into [1e-12, 1 - 1e-12] before the quantile transform.
    With a single input every built-in method is the identity.
    """
    P = np.asarray(ps, dtype=float).reshape(-1, 1)
    if not np.all((P >= 0) & (P <= 1)):
        raise ValueError("p-values must lie in [0, 1]")
    return float(_combine_matrix(P, combiner)[0])


_RISING = {PValueKind.LPLUS: PValueKind.LPLUS, PValueKind.UPLUS: PValueKind.UPLUS,
           PValueKind.LMINUS: PValueKind.UPLUS, PValueKind.UMINUS: PValueKind.LPLUS}


@dataclass(frozen=True)
class CombinedPValueFunction(_SteppedSide):
    """One side of the fusion of M experiments' p-value functions.

    ``components`` are the experiments' functions of the rising side
    ``_RISING[side]``; a falling side is one minus their combination.  A step
    function on ``breakpoints``, the union grid, monotone like its components.
    ``mode`` is the experiments' common mode, else the tuple of their modes.
    """

    components: tuple
    combiner: CombinerSpec
    side: PValueKind
    breakpoints: np.ndarray
    statistic: str
    mode: Mode | tuple

    def _level_reader(self):
        """Reads union intervals ``j``: each component's level where ``j`` starts, combined."""
        starts = np.concatenate(([-np.inf], self.breakpoints))
        levels = [f._level_reader() for f in self.components]
        falling = self.side != _RISING[self.side]

        def read(j):
            out = _combine_matrix(np.vstack([
                level(np.searchsorted(f.breakpoints, starts[j], side="right"))
                for f, level in zip(self.components, levels)
            ]), self.combiner)
            return 1.0 - out if falling else out

        return read


def combine_functions(fss: Sequence[dict], combiner: CombinerSpec) -> dict:
    """The four combined sides of M experiments, from each one's :func:`build_step_functions` sides.

    LMINUS is one minus combined UPLUS and UMINUS one minus combined LPLUS.
    All four share one grid, the union of the distinct breakpoint arrays.
    """
    if not fss:
        raise ValueError("need at least one experiment")
    distinct = {id(f.breakpoints): f.breakpoints for fs in fss for f in fs.values()}
    grid = np.unique(np.concatenate(list(distinct.values())))
    grid.flags.writeable = False
    modes = [fs[PValueKind.LPLUS].mode for fs in fss]
    mode = modes[0] if len(set(modes)) == 1 else tuple(modes)
    return {side: CombinedPValueFunction(tuple(fs[rising] for fs in fss), combiner, side, grid,
                                         fss[0][PValueKind.LPLUS].statistic, mode)
            for side, rising in _RISING.items()}


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
    estimand.  The sides of :func:`combine_functions` are inverted as one
    experiment's are, combined LPLUS and LMINUS at ``alpha/2`` each, by a
    monotone search that combines on about ``sqrt(G)`` of the ``G + 1`` union
    intervals.  Coverage is at least ``1 - alpha``.

    ``modes`` optionally gives one mode per experiment (for example different
    Monte Carlo seeds); otherwise ``mode`` applies to all.  The interval's
    ``mode`` records the mode that ran: the common one when all experiments
    share it, else the tuple of per-experiment modes.
    """
    _require_invertible(stat, alpha)
    if modes is None:
        modes = [mode] * len(experiments)
    fss = [
        build_step_functions(data, design, stat, m)
        for (data, design), m in zip(experiments, modes)
    ]
    return _proposed_interval(combine_functions(fss, combiner), alpha / 2, alpha / 2)
