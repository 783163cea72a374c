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

What each one-sided kind counts (``ge`` or ``gt``) and whether it rises
with theta or is one minus that count is said once, by :class:`PValueKind`;
``ONE_SIDED`` lists the four, and every side table here and in the other
modules reads them.

At the true effect, ``LPLUS`` and ``LMINUS`` are stochastically larger than
Uniform[0,1] (valid one-sided tests), while the strict-inequality variants are
stochastically smaller; the gap between the two CDFs is bounded by the largest
atom ``gamma_star`` of the randomization distribution.

Exact mode enumerates every assignment; Monte Carlo mode aggregates over
``k`` seeded draws with replacement, weight ``1/k`` each.  Both count
replicates in integers, so probabilities are exact ratios.  Statistic values
are compared after rounding to 12 significant digits, which makes tie
classification deterministic across platforms.

The assignment rows of a mode are never held as one matrix: a replicate source
writes them in ``int8`` blocks of at most ``_ROW_BLOCK`` rows, and every
consumer (here and in :mod:`randinf.inversion`) works block by block.  The
p-values, at one theta or a grid of them, keep only two tail counts per theta
(the replicates at or above and above the observed value), so nothing spans
the rows; a distribution or dominance profile keeps each row's rounded value,
8 bytes a row, to sort into atoms.  Within a block the float work runs on
tiles of 2^15 entries or 8 rows (:mod:`randinf.statistics`), so no float
copy of a whole block is made.  An ``affine`` statistic reads each block as
its rows' sums of a few unit columns instead: enumerated rows are then
summed off the colex recurrence and no ``int8`` row is written.  Its
p-values count a row from the closed form ``a + b * theta`` when that lies
farther from the observed value than a band
(:func:`randinf._util.closed_form_bands`) that bounds the closed form's
distance from the rounded statistic, and write and evaluate only the rows
within it, so their counts are those of evaluating every row.  One
classifier, :func:`_tail_counts`, evaluates and counts rows for every
p-value.  Rows and their order are those of ``assignment_matrix`` (exact) or
``sample_assignments`` (Monte Carlo).
"""

import enum
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._util import InputError, atoms, closed_form_bands, is_integer, round_sig
from .design import (
    DEFAULT_ENUMERATION_CAP,
    Design,
    _enumerable_total,
    _indices_to_assignments,
    _range_to_assignments,
    _require_assignment,
    _require_draws,
    _sample_indices,
    _unit_sums,
)
from .statistics import (
    ObservedData,
    StatisticSpec,
    _by_tile,
    _require_finite_theta,
    evaluate_many,
    impute,
    observed_statistic,
)

__all__ = [
    "ExactMode",
    "MCMode",
    "Mode",
    "PValueKind",
    "ONE_SIDED",
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
        if not (is_integer(self.cap) and self.cap >= 1):
            raise InputError(f"enumeration cap must be >= 1 and an integer, got {self.cap!r}")


@dataclass(frozen=True)
class MCMode:
    """Monte Carlo over ``k`` seeded uniform draws with replacement.

    ``seed`` is an integer or a tuple of integers.
    """

    k: int
    seed: int | tuple

    def __post_init__(self):
        _require_draws(self.k, self.seed)


Mode = Union[ExactMode, MCMode]


class PValueKind(enum.Enum):
    """A p-value kind, and for a one-sided kind what it counts and which way it moves.

    ``strict`` is whether the kind counts the replicates above T_obs (the
    ``gt`` crossings of :mod:`randinf.inversion`) rather than at or above it
    (``ge``); ``rising`` is whether its p-value is that count over the
    replicates, which rises with theta, rather than one minus it.  Both are
    ``None`` for ``TWO_SIDED_L``, which combines LPLUS and LMINUS.
    """

    LPLUS = "Lplus", False, True
    UPLUS = "Uplus", True, True
    LMINUS = "Lminus", True, False
    UMINUS = "Uminus", False, False
    TWO_SIDED_L = "TwoSidedL"

    def __new__(cls, value, strict=None, rising=None):
        kind = object.__new__(cls)
        kind._value_, kind.strict, kind.rising = value, strict, rising
        return kind

    def tail(self, ge, gt, total):
        """The p-value numerator: of ``total`` replicates, ``ge`` at or above T_obs and ``gt`` above it."""
        count = gt if self.strict else ge
        return count if self.rising else total - count


# the four one-sided kinds, in enum order
ONE_SIDED = (PValueKind.LPLUS, PValueKind.UPLUS, PValueKind.LMINUS, PValueKind.UMINUS)


def _require_kind(kind, name: str, kinds=ONE_SIDED) -> None:
    """Refuse, with ``InputError`` naming ``name`` and ``kind``, anything but one of ``kinds``."""
    if not (isinstance(kind, PValueKind) and kind in kinds):
        raise InputError(f"{name} must be one of {', '.join(k.name for k in kinds)}, got {kind!r}")


# Rows per block of a replicate source.  A multiple of 8: BLAS row dot
# products over a block then round exactly as over the whole matrix.
_ROW_BLOCK = 1 << 15


class _ReplicateSource:
    """The assignment rows of one design under one mode, as int8 row blocks or their row sums.

    Exact mode enumerates the rows ``0..size-1``; Monte Carlo mode holds the
    ``k`` draws made once at construction by ``design._sample_indices``: for
    each row, 8 bytes (an int64 rank) a run of blocks whose joint count fits
    in 2**62 and ``ceil(n / 8)`` bytes (its packed row) a block of ``n`` units
    past it.  :meth:`blocks` writes ``_ROW_BLOCK`` rows at a time, so the
    blocks are, in order, the rows of ``assignment_matrix`` or
    ``sample_assignments``.  Each pass writes them again, except that a
    source whose rows fit in one block keeps it.
    """

    def __init__(self, design: Design, mode: Mode, size: int, draws=None):
        self.design = design
        self.mode = mode
        self.size = size
        self._draws = draws
        self._kept = None

    def blocks(self):
        """Read-only int8 blocks of at most ``_ROW_BLOCK`` rows, in row order."""
        if self._kept is not None:
            yield self._kept
            return
        for start in range(0, self.size, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, self.size)
            if self._draws is None:
                block = _range_to_assignments(self.design, start, stop)
            else:
                block = _indices_to_assignments(self.design, [run[start:stop] for run in self._draws])
            block.flags.writeable = False
            if stop - start == self.size:
                self._kept = block
            yield block

    def sums(self, columns):
        """Per block of rows, in row order, the rows' sums of the unit ``columns``: a (c, rows) float block.

        ``columns`` (n_units x c) must have subset sums that are exact in any
        order, so that both routes give the same bits on every BLAS kernel.
        Enumerated rows are never written: their sums come from the colex
        recurrence, half a row block at a time, which keeps a process's peak
        resident memory where ``int8`` blocks kept it.  Drawn rows are written
        in ``int8`` blocks and summed by one product a float tile.
        """
        if self._draws is not None:
            for W in self.blocks():
                yield _by_tile(lambda tile: tile @ columns, W).T
            return
        sums = _unit_sums(self.design, columns)
        step = _ROW_BLOCK // 2  # a row's sums and their closed form's vectors are 8 bytes each
        for start in range(0, self.size, step):
            yield _range_to_assignments(self.design, start, min(start + step, self.size), sums)

    def rows(self, positions):
        """The rows at int64 ``positions`` as one int8 matrix, in the order given.

        One :func:`design._indices_to_assignments` gather: of the kept draws
        at those positions, or of the enumeration ranks themselves, which
        are the ranks that gather reads for a design of one run of blocks,
        as every design of at most 2**62 assignments is.
        """
        if self._draws is None:
            return _indices_to_assignments(self.design, [positions])
        return _indices_to_assignments(self.design, [run[positions] for run in self._draws])


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
    """Distribution of the statistic over assignments under the null at ``theta``.

    Refuses, with ``InputError``, observed data whose assignment the design
    cannot draw and a ``theta`` that is not finite, before any row is built.
    """
    _require_assignment(design, data.w_obs)
    table = impute(data, theta)
    source = _replicate_source(design, mode)
    t_rep = np.empty(source.size)
    start = 0
    for W in source.blocks():
        t_rep[start:start + W.shape[0]] = round_sig(evaluate_many(stat, table, W))
        start += W.shape[0]
    values, counts, _ = atoms(t_rep)
    return RandomizationDistribution(values=values, counts=counts, denom=source.size, mode=mode)


def _tail_counts(stat: StatisticSpec, table, W: np.ndarray, t: float) -> tuple:
    """Of the rows of ``W``, the counts whose statistic on ``table`` is at or above ``t`` and above it.

    The one tail classifier: values rounded to 12 significant digits, then
    compared in numpy's sort order, which puts NaN above every number and
    NaN equal to NaN, as the sorted atoms of
    :func:`randomization_distribution` hold them; so these are the tails
    that ``searchsorted`` reads off those atoms.
    """
    r = round_sig(evaluate_many(stat, table, W))
    if np.isnan(t):
        return int(np.count_nonzero(np.isnan(r))), 0
    return r.size - int(np.count_nonzero(r < t)), r.size - int(np.count_nonzero(r <= t))


def _p_value_grid(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    thetas: Sequence[float],
    mode: Mode = ExactMode(),
) -> list:
    """The five p-values of :func:`p_values` at each of ``thetas``, in one pass over the rows.

    Refuses what :func:`randomization_distribution` refuses, every theta
    before any row is built.  The replicate source is built (Monte Carlo
    rows drawn) once, and only the two tail counts of each theta span the
    rows.  Every row is classified by :func:`_tail_counts`, except that an
    ``affine`` statistic settles most rows from its closed form first: the
    source hands over each block's row sums, ``form`` turns them into
    ``(a, b)``, and a row whose ``a + b * theta`` is finite and farther from
    the rounded observed value than the band of
    :func:`randinf._util.closed_form_bands` joins both upper tails or
    neither.  Only the rows within the band are written, by
    :meth:`_ReplicateSource.rows`, and classified.  The band bounds the
    distance between the closed form and the rounded statistic, so the
    counts are those of the classifier on every row, to the bit.  When a
    band or the observed value is not finite, every row is classified.
    """
    _require_assignment(design, data.w_obs)
    for theta in thetas:
        _require_finite_theta(theta)
    source = _replicate_source(design, mode)
    t = round_sig(observed_statistic(stat, data))
    tables = [impute(data, theta) for theta in thetas]
    tails = np.zeros((len(thetas), 2), dtype=np.int64)  # the counts of replicates >= and > t, by theta
    bands = closed_form_bands(t, data.y_obs, thetas) if stat.affine is not None else [np.inf]
    if not np.isfinite(bands).all():
        for W in source.blocks():
            for table, counts in zip(tables, tails):
                counts += _tail_counts(stat, table, W, t)
    else:
        columns, form = stat.affine(data)
        start = 0
        for sums in source.sums(columns):
            a, b = form(sums)
            for theta, band, table, counts in zip(thetas, bands, tables, tails):
                gap = a + b * theta - t
                far = np.abs(gap)
                far = (far > band) & (far < np.inf)  # a NaN or infinite closed form is classified
                counts += np.count_nonzero(far & (gap > 0))
                near = np.flatnonzero(~far)
                if near.size:
                    counts += _tail_counts(stat, table, source.rows(start + near), t)
            start += a.size
    d = source.size
    out = [{kind: kind.tail(int(ge), int(gt), d) / d for kind in ONE_SIDED} for ge, gt in tails]
    for p in out:
        p[PValueKind.TWO_SIDED_L] = min(1.0, 2.0 * min(p[PValueKind.LPLUS], p[PValueKind.LMINUS]))
    return out


def p_values(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    theta: float,
    mode: Mode = ExactMode(),
) -> dict:
    """All five p-values at ``theta``, from the two tail counts of one pass over the rows.

    The counts of replicates at or above and above the observed statistic,
    both rounded to 12 significant digits, are those of
    :func:`randomization_distribution` at ``theta``; no distribution is built.
    An ``affine`` statistic counts most rows from its closed form, and
    evaluates only the rows whose closed form lies within a band of the
    observed value (see :func:`_p_value_grid`), with the same counts.
    """
    return _p_value_grid(data, design, stat, (theta,), mode)[0]


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
    on the two one-sided functions separately.  A ``kind`` that is not a
    ``PValueKind`` is refused with ``InputError`` before any row is built.
    """
    _require_kind(kind, "kind", tuple(PValueKind))
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

    def _levels_cdf(self, kind: PValueKind):
        """``profiles[kind]``; anything but a one-sided kind raises ``InputError``."""
        _require_kind(kind, "kind")
        return self.profiles[kind]

    def max_shortfall(self, kind: PValueKind) -> float:
        """sup over alpha in (0,1) of alpha - P(p <= alpha).

        The CDF is constant between attainable levels, so the supremum is
        approached just below each level (and just below the smallest one,
        where the CDF is still zero).
        """
        levels, cdf = self._levels_cdf(kind)
        upper = np.append(levels[1:], 1.0)
        return float(max(levels[0], np.max(upper - cdf)))

    def max_excess(self, kind: PValueKind) -> float:
        """sup over alpha in (0,1) of P(p <= alpha) - alpha (at attainable levels)."""
        levels, cdf = self._levels_cdf(kind)
        return float(np.max(cdf - levels))

    def dominated_by_uniform(self, kind: PValueKind) -> bool:
        """True when P(p <= alpha) <= alpha for every alpha in (0, 1).

        Between attainable levels the CDF is flat, so the binding comparisons
        sit exactly at the attainable levels.  Levels and CDF are counts over
        one denominator, so the comparison is exact.
        """
        levels, cdf = self._levels_cdf(kind)
        return bool(np.all(cdf <= levels))

    def dominates_uniform(self, kind: PValueKind) -> bool:
        """True when P(p <= alpha) >= alpha for every alpha in (0, 1).

        The binding comparisons here are just below the NEXT attainable level
        (the CDF must already have reached it), and 1 at the top.
        """
        levels, cdf = self._levels_cdf(kind)
        targets = np.append(levels[1:], 1.0)
        return bool(np.all(cdf >= targets))


def _tails(counts: np.ndarray) -> dict:
    """By one-sided kind, the p-value numerator at each atom: the counts >=, >, <= and < it."""
    ge = np.cumsum(counts[::-1])[::-1]
    return {kind: kind.tail(ge, ge - counts, int(counts.sum())) for kind in ONE_SIDED}


def _profile(counts: np.ndarray) -> DominanceProfile:
    """The dominance profile when every assignment in turn is observed, from the atom counts.

    Each assignment at atom ``i`` attains p = ``tails[kind][i] / denom``, and
    ``counts[i]`` assignments do.  The plus tails fall and the minus tails
    rise strictly in ``i``, so each kind's levels are its tails in order.
    """
    denom = int(counts.sum())
    profiles = {}
    for kind, tail in _tails(counts).items():
        step = -1 if kind.rising else 1
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
