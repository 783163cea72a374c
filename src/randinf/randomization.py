"""Randomization distributions and p-value functions, exact or Monte Carlo.

The p-value of the constant-effect null at ``theta`` compares the observed
statistic against the distribution of the statistic over re-randomized
assignments applied to the imputed potential table.  Five kinds are exposed:

===========  =====================================
``LPLUS``    P(T_rep >= T_obs)
``UPLUS``    P(T_rep >  T_obs)
``LMINUS``   P(T_rep <= T_obs)
``UMINUS``   P(T_rep <  T_obs)
``TWO_SIDED_L``  min(1, 2 min(LPLUS, LMINUS))
===========  =====================================

At the true effect, ``LPLUS`` and ``LMINUS`` are stochastically larger than
Uniform[0,1] (valid one-sided tests), while the strict-inequality variants are
stochastically smaller; the gap between the two CDFs is bounded by the largest
atom ``gamma_star`` of the randomization distribution.

Exact mode enumerates every assignment; Monte Carlo mode aggregates over
``k`` seeded draws with replacement, weight ``1/k`` each.  Both store integer
counts, so probabilities are exact ratios.  Repeated statistic values are
merged after rounding to 12 significant digits, which makes tie classification
deterministic across platforms.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from ._util import round_sig
from .design import Design, assignment_matrix, sample_assignments
from .statistics import ObservedData, StatisticSpec, evaluate_many, impute, observed_statistic

__all__ = [
    "ExactMode",
    "MCMode",
    "Mode",
    "PValueKind",
    "RandomizationDistribution",
    "DominanceProfile",
    "randomization_distribution",
    "p_value",
    "p_values",
    "dominance_profile",
]

DEFAULT_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class ExactMode:
    """Full enumeration, refused above ``cap`` assignments."""

    cap: int = DEFAULT_ENUMERATION_CAP


@dataclass(frozen=True)
class MCMode:
    """Monte Carlo over ``k`` seeded uniform draws with replacement."""

    k: int
    seed: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("Monte Carlo sample size k must be >= 1")


Mode = Union[ExactMode, MCMode]


class PValueKind(enum.Enum):
    LPLUS = "Lplus"
    UPLUS = "Uplus"
    LMINUS = "Lminus"
    UMINUS = "Uminus"
    TWO_SIDED_L = "TwoSidedL"


def _replicate_matrix(design: Design, mode: Mode) -> np.ndarray:
    if isinstance(mode, ExactMode):
        return assignment_matrix(design, cap=mode.cap).astype(float)
    return sample_assignments(design, mode.k, mode.seed).astype(float)


@dataclass(frozen=True)
class RandomizationDistribution:
    """Support and atom counts of T over assignments, plus the largest atom.

    ``values`` are the unique statistic values (after 12-significant-digit
    rounding), strictly increasing; ``counts[i]/denom`` is the probability of
    ``values[i]``.  ``denom`` is the number of assignments (exact mode) or
    Monte Carlo draws.
    """

    values: np.ndarray
    counts: np.ndarray
    denom: int
    mode: Mode

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.denom

    @property
    def gamma_star(self) -> float:
        return float(self.counts.max() / self.denom)

    def prob_fractions(self):
        """Exact rational atom probabilities."""
        return [Fraction(int(c), self.denom) for c in self.counts]

    def tail_ge(self, t: float) -> float:
        """P(T >= t) with ``t`` rounded like the support."""
        i = np.searchsorted(self.values, round_sig(t), side="left")
        return float(self.counts[i:].sum() / self.denom)


def randomization_distribution(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta: float,
    mode: Mode = ExactMode(),
) -> RandomizationDistribution:
    """Distribution of the statistic over assignments under the null at ``theta``."""
    W = _replicate_matrix(design, mode)
    table = impute(data, theta)
    t_rep = round_sig(evaluate_many(stat, table, W))
    values, counts = np.unique(t_rep, return_counts=True)
    return RandomizationDistribution(
        values=values, counts=counts.astype(np.int64), denom=W.shape[0], mode=mode
    )


def _tail_counts(dist: RandomizationDistribution, t_obs: float):
    """Counts of replicates >=, >, <=, < the rounded observed value."""
    t = round_sig(t_obs)
    lo = np.searchsorted(dist.values, t, side="left")
    hi = np.searchsorted(dist.values, t, side="right")
    total = int(dist.counts.sum())
    ge = int(dist.counts[lo:].sum())
    gt = int(dist.counts[hi:].sum())
    return {"ge": ge, "gt": gt, "le": total - gt, "lt": total - ge}


def p_values(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta: float,
    mode: Mode = ExactMode(),
) -> dict:
    """All five p-values at ``theta``, computed from one shared distribution."""
    dist = randomization_distribution(data, design, stat, theta, mode)
    t_obs = observed_statistic(stat, data)
    c = _tail_counts(dist, t_obs)
    d = dist.denom
    out = {
        PValueKind.LPLUS: c["ge"] / d,
        PValueKind.UPLUS: c["gt"] / d,
        PValueKind.LMINUS: c["le"] / d,
        PValueKind.UMINUS: c["lt"] / d,
    }
    out[PValueKind.TWO_SIDED_L] = min(
        1.0, 2.0 * min(out[PValueKind.LPLUS], out[PValueKind.LMINUS])
    )
    return out


def p_value(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta: float,
    kind: PValueKind,
    mode: Mode = ExactMode(),
) -> float:
    """One p-value of the constant-effect null at ``theta``.

    The two-sided value doubles the smaller one-sided value and clips at 1
    (the raw doubled value can exceed 1 because both one-sided values count
    the tie atom).  Interval inversion never uses the clipped value; it works
    on the two one-sided functions separately.
    """
    return p_values(data, design, stat, theta, mode)[kind]


@dataclass(frozen=True)
class DominanceProfile:
    """Exact CDFs of each p-value kind at the true effect, over assignments.

    ``profiles[kind]`` is ``(levels, cdf)``: attainable p-levels and
    ``P(p <= level)``.  For the weak-inequality kinds the CDF never exceeds
    the level, and its shortfall is at most ``gamma_star``; the
    strict-inequality kinds dominate in the other direction.
    """

    profiles: dict
    gamma_star: float
    denom: int

    def max_shortfall(self, kind: PValueKind) -> float:
        """sup over alpha in (0,1) of alpha - P(p <= alpha).

        The CDF is constant between attainable levels, so the supremum is
        approached just below each level (and just below the smallest one,
        where the CDF is still zero).
        """
        levels, cdf = self.profiles[kind]
        upper = np.append(levels[1:], 1.0)
        return float(max(levels[0], np.max(upper - cdf)))

    def max_excess(self, kind: PValueKind) -> float:
        """sup over alpha in (0,1) of P(p <= alpha) - alpha (at attainable levels)."""
        levels, cdf = self.profiles[kind]
        return float(np.max(cdf - levels))

    def dominated_by_uniform(self, kind: PValueKind, tol: float = 1e-12) -> bool:
        """True when P(p <= alpha) <= alpha for every alpha in (0, 1).

        Between attainable levels the CDF is flat, so the binding comparisons
        sit exactly at the attainable levels.
        """
        levels, cdf = self.profiles[kind]
        return bool(np.all(cdf <= levels + tol))

    def dominates_uniform(self, kind: PValueKind, tol: float = 1e-12) -> bool:
        """True when P(p <= alpha) >= alpha for every alpha in (0, 1).

        The binding comparisons here are just below the NEXT attainable level
        (the CDF must already have reached it), and 1 at the top.
        """
        levels, cdf = self.profiles[kind]
        targets = np.append(levels[1:], 1.0)
        return bool(np.all(cdf >= targets - tol))


def dominance_profile(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta0: float,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DominanceProfile:
    """Sampling distribution of each p-value kind when ``theta0`` is the truth.

    Treats every enumerable assignment in turn as the observed one.  Under the
    constant-effect null at ``theta0``, the imputed table is the same for all
    of them, so one pass over the statistic's values suffices: the p-value of
    observed assignment ``j`` is a tail probability of the common distribution
    at its own statistic value.
    """
    dist = randomization_distribution(data, design, stat, theta0, ExactMode(cap))
    counts, denom = dist.counts, dist.denom

    suffix = np.cumsum(counts[::-1])[::-1]          # counts of T >= values[i]
    prefix = np.cumsum(counts)                      # counts of T <= values[i]
    per_kind_counts = {
        PValueKind.LPLUS: suffix,
        PValueKind.UPLUS: suffix - counts,
        PValueKind.LMINUS: prefix,
        PValueKind.UMINUS: prefix - counts,
    }
    profiles = {}
    for kind, tail in per_kind_counts.items():
        # assignment with value index i attains p = tail[i]/denom, and there
        # are counts[i] such assignments
        order = np.argsort(tail, kind="stable")
        levels = tail[order] / denom
        mass = counts[order]
        uniq, start = np.unique(levels, return_index=True)
        cum = np.cumsum(mass)
        ends = np.append(start[1:], levels.size) - 1
        cdf = cum[ends] / denom  # P(p <= uniq[i])
        profiles[kind] = (uniq, cdf)
    return DominanceProfile(profiles=profiles, gamma_star=dist.gamma_star, denom=denom)
