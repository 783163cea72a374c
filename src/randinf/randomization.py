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

The assignment rows of a mode are never held as one matrix: a replicate source
writes them in ``int8`` blocks of at most ``_ROW_BLOCK`` rows, and every
consumer (here and in :mod:`randinf.inversion`) works block by block, keeping
only per-row results of 8 bytes a row.  Within a block the float work runs
on tiles of 2^15 entries or 8 rows (:mod:`randinf.statistics`), so no float
copy of a whole block is made, except by the generic bisection of
:mod:`randinf.inversion`.  Rows and their order are those of
``assignment_matrix`` (exact) or ``sample_assignments`` (Monte Carlo).
"""

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._util import atoms, round_sig
from .design import (
    DEFAULT_ENUMERATION_CAP,
    Design,
    _enumerable_total,
    _indices_to_assignments,
    _range_to_assignments,
    _sample_indices,
)
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


@dataclass(frozen=True)
class ExactMode:
    """Full enumeration, refused above ``cap`` assignments."""

    cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.cap < 1:
            raise ValueError("enumeration cap must be >= 1")


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


# Rows per block of a replicate source.  A multiple of 8: BLAS row dot
# products over a block then round exactly as over the whole matrix.
_ROW_BLOCK = 1 << 15


class _ReplicateSource:
    """The assignment rows of one design under one mode, as int8 row blocks.

    Exact mode enumerates the rows ``0..size-1``; Monte Carlo mode holds the
    ``k`` indices drawn once at construction (8 bytes a row).  :meth:`blocks`
    writes ``_ROW_BLOCK`` rows at a time, so the blocks are, in order, the
    rows of ``assignment_matrix`` or ``sample_assignments``.  Each pass writes
    them again, except that a source whose rows fit in one block keeps it.
    """

    def __init__(self, design: Design, mode: Mode, size: int, indices=None):
        self.design = design
        self.mode = mode
        self.size = size
        self._indices = indices
        self._kept = None

    def blocks(self):
        """Read-only int8 blocks of at most ``_ROW_BLOCK`` rows, in row order."""
        if self._kept is not None:
            yield self._kept
            return
        for start in range(0, self.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, self.size)
            if self._indices is None:
                block = _range_to_assignments(self.design, start, stop)
            else:
                block = _indices_to_assignments(self.design, self._indices[start:stop])
            block.flags.writeable = False
            if stop - start == self.size:
                self._kept = block
            yield block


def _replicate_source(design: Design, mode: Mode) -> _ReplicateSource:
    """The rows of ``mode``: refused above an exact cap, drawn once for Monte Carlo."""
    if isinstance(mode, ExactMode):
        return _ReplicateSource(design, mode, _enumerable_total(design, mode.cap))
    return _ReplicateSource(design, mode, mode.k, _sample_indices(design, mode.k, mode.seed))


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


def randomization_distribution(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta: float,
    mode: Mode = ExactMode(),
) -> RandomizationDistribution:
    """Distribution of the statistic over assignments under the null at ``theta``."""
    source = _replicate_source(design, mode)
    table = impute(data, theta)
    t_rep = np.empty(source.size)
    start = 0
    for W in source.blocks():
        t_rep[start:start + W.shape[0]] = round_sig(evaluate_many(stat, table, W))
        start += W.shape[0]
    values, counts = atoms(t_rep)
    return RandomizationDistribution(values=values, counts=counts, denom=source.size, mode=mode)


def p_values(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta: float,
    mode: Mode = ExactMode(),
) -> dict:
    """All five p-values at ``theta``, computed from one shared distribution."""
    dist = randomization_distribution(data, design, stat, theta, mode)
    t, d = round_sig(observed_statistic(stat, data)), dist.denom
    # counts of replicates >= and > the rounded observed value
    ge = int(dist.counts[np.searchsorted(dist.values, t, side="left"):].sum())
    gt = int(dist.counts[np.searchsorted(dist.values, t, side="right"):].sum())
    out = {
        PValueKind.LPLUS: ge / d,
        PValueKind.UPLUS: gt / d,
        PValueKind.LMINUS: (d - gt) / d,
        PValueKind.UMINUS: (d - ge) / d,
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

    def dominated_by_uniform(self, kind: PValueKind) -> bool:
        """True when P(p <= alpha) <= alpha for every alpha in (0, 1).

        Between attainable levels the CDF is flat, so the binding comparisons
        sit exactly at the attainable levels.  Levels and CDF are counts over
        one denominator, so the comparison is exact.
        """
        levels, cdf = self.profiles[kind]
        return bool(np.all(cdf <= levels))

    def dominates_uniform(self, kind: PValueKind) -> bool:
        """True when P(p <= alpha) >= alpha for every alpha in (0, 1).

        The binding comparisons here are just below the NEXT attainable level
        (the CDF must already have reached it), and 1 at the top.
        """
        levels, cdf = self.profiles[kind]
        targets = np.append(levels[1:], 1.0)
        return bool(np.all(cdf >= targets))


def _tails(counts: np.ndarray) -> dict:
    """By kind, the p-value numerator of a statistic at each atom: the counts >=, >, <= and < it."""
    ge, le = np.cumsum(counts[::-1])[::-1], np.cumsum(counts)
    return {PValueKind.LPLUS: ge, PValueKind.UPLUS: ge - counts,
            PValueKind.LMINUS: le, PValueKind.UMINUS: le - counts}


def _profile(counts: np.ndarray) -> DominanceProfile:
    """The dominance profile when every assignment in turn is observed, from the atom counts.

    Each assignment at atom ``i`` attains p = ``tails[kind][i] / denom``, and
    ``counts[i]`` assignments do.  The plus tails fall and the minus tails
    rise strictly in ``i``, so each kind's levels are its tails in order.
    """
    denom = int(counts.sum())
    profiles = {}
    for kind, tail in _tails(counts).items():
        step = -1 if kind in (PValueKind.LPLUS, PValueKind.UPLUS) else 1
        profiles[kind] = (tail[::step] / denom, np.cumsum(counts[::step]) / denom)  # P(p <= level)
    return DominanceProfile(profiles=profiles, gamma_star=float(counts.max() / denom), denom=denom)


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
    return _profile(dist.counts)
