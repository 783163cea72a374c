"""Monte Carlo sample-size planning from the sup-norm concentration bound.

For a statistic monotone in theta, the probability that the Monte Carlo
estimate of a p-value curve based on K draws deviates from the exact curve by
more than ``epsilon`` anywhere in theta is at most ``min(1, 4 exp(-K eps^2 /
8))`` -- independent of the number of units, which is what makes sampling
attractive for large assignment spaces.  Inverting the bound gives the
smallest K meeting a probability budget ``delta``; enumeration wins whenever
the space is no larger than that K.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import InputError, is_integer, is_real, require_level, sorted_distinct
from .design import Design, total_assignments
from .inversion import PValueStepFunction

__all__ = [
    "McPlan",
    "error_bound",
    "required_k",
    "plan",
    "threshold_table",
    "mc_sup_error",
]


def error_bound(k: int, epsilon: float) -> float:
    """Bound on P(sup-norm Monte Carlo error of the p-curve > epsilon)."""
    if not (is_integer(k) and k >= 1):
        raise InputError(f"k must be an integer >= 1, got {k!r}")
    if not (is_real(epsilon) and epsilon > 0):  # NaN is refused too
        raise InputError(f"epsilon must be positive, got {epsilon!r}")
    return min(1.0, 4.0 * math.exp(-k * epsilon * epsilon / 8.0))


def required_k(epsilon: float, delta: float) -> int:
    """Smallest K with 4 exp(-K eps^2 / 8) <= delta, i.e. ceil(8 ln(4/delta) / eps^2).

    The ceiling is taken after a 1e-9 relative guard so a threshold that is an
    exactly representable integer does not round up by one on some platforms.
    Targets so small that the threshold overflows a double are refused.
    """
    if not (is_real(epsilon) and 0 < epsilon <= 1):
        raise InputError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    require_level(delta, "delta")
    square = epsilon * epsilon
    exact = 8.0 * math.log(4.0 / delta) / square if square else math.inf
    if not math.isfinite(exact):
        raise InputError(f"8 ln(4/delta) / epsilon^2 is not finite at epsilon={epsilon!r}, delta={delta!r}")
    return int(math.ceil(exact - 1e-9 * max(1.0, abs(exact))))


@dataclass(frozen=True)
class McPlan:
    """Enumerate-or-sample decision for one design and accuracy target."""

    strategy: str  # "enumerate" | "sample"
    epsilon: float
    delta: float
    k_threshold: int

    @property
    def k(self) -> int:
        """Monte Carlo draws to take when sampling."""
        return self.k_threshold


def plan(design: Design, epsilon: float, delta: float) -> McPlan:
    """Enumerate when the assignment space is within the K threshold, else sample."""
    k_thres = required_k(epsilon, delta)
    strategy = "enumerate" if total_assignments(design) <= k_thres else "sample"
    return McPlan(strategy=strategy, epsilon=epsilon, delta=delta, k_threshold=k_thres)


def threshold_table(epsilons, delta: float = 0.01):
    """(epsilon, K threshold) rows for a list of accuracy targets."""
    return [(float(e), required_k(float(e), delta)) for e in epsilons]


def mc_sup_error(estimated: PValueStepFunction, exact: PValueStepFunction) -> float:
    """Exact sup-norm distance between two same-side step functions.

    Both are constant on each theta interval the union of their breakpoints
    cuts, and a value at a union breakpoint is the level of the interval on
    one side of it, so the supremum is the largest difference of levels.
    Each level is read as the right limit where its interval starts: at
    ``-inf`` or at a union breakpoint.
    """
    if estimated.side != exact.side:
        raise InputError("functions must share a side")
    grid = sorted_distinct(np.concatenate([estimated.breakpoints, exact.breakpoints]))
    starts = np.concatenate(([-np.inf], grid))
    return float(np.max(np.abs(estimated.value_from_right(starts) - exact.value_from_right(starts))))
