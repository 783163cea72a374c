"""Exact p-value step functions of theta and their inversion into intervals.

For a monotone (effect-increasing) statistic, each assignment ``w`` has one
switch point in theta: the smallest hypothesized effect at which the statistic
on the imputed table under ``w`` reaches (or strictly exceeds, for the
strict-inequality sides) the observed statistic.  The p-value function is a
step function jumping exactly at those points, so it is represented losslessly
by sorted breakpoints with probability weights.

:func:`build_step_functions` is the one kernel per experiment: one pass over
the replicate rows in ``int8`` blocks (see :mod:`randinf.randomization`), two
crossing vectors ``ge`` (``T >= T_obs``) and ``gt`` (``T > T_obs``) found
block by block and rounded as they arrive, and all four one-sided functions
from them by counting.  An ``affine`` statistic's two vectors have the same
finite values, so it keeps one, whose breakpoints all four sides share.  How
crossings are found is a capability of the statistic:

- ``affine`` (``diff_means``): ``T = a + b * theta`` per row, closed form;
- ``switch_points`` (``wilcoxon_rank_sum``): each row's exact switch point
  ``b*`` (for the rank sum an order statistic of the pairwise differences
  ``(y_j - y_i) / c``, ``c`` in {1, 2}) decides each bisection step instead
  of re-ranking the replicates; the statistic is evaluated only at exact hits
  on ``b*``, so breakpoints are the same bytes as from plain bisection;
- otherwise bisection to an absolute tolerance of ``1e-9 * max(1, scale)`` in
  theta, comparing statistic values with a tolerance of
  ``1e-9 * max(1, |T_obs|)`` in the statistic's own units.  Each row's
  bracket is halved until it alone is that narrow, so a row's crossing
  depends on that row only, not on the other rows drawn or on the blocks.

Evaluation semantics per side (``b`` a breakpoint):

==========  =================  =========================================
``LPLUS``   ``1{theta >= b}``  non-decreasing, right continuous
``UPLUS``   ``1{theta >  b}``  non-decreasing, left continuous
``LMINUS``  ``1{theta <= b}``  non-increasing, left continuous
``UMINUS``  ``1{theta <  b}``  non-increasing, right continuous
==========  =================  =========================================

Exact for statistics continuous in theta; for rank statistics (which jump in
theta) membership exactly at a breakpoint can be off by one atom within the
bisection tolerance, and is exact elsewhere.

Inverting the lower function at ``alpha1`` and the upper at ``alpha2`` yields
an interval whose exact coverage of the true effect is at least
``1 - alpha1 - alpha2`` over the randomization distribution: the only failure
events are the two valid one-sided tests rejecting at the truth.  With heavily
tied (discrete) outcomes the upper endpoint can land exactly on the true
effect; that boundary point belongs to the inverted acceptance region (neither
one-sided test rejects there), so :meth:`ConfidenceInterval.contains` treats
the upper endpoint as inclusive for the proposed method even though the
interval is reported with the conventional half-open closure.  For continuous
outcome data the distinction occurs with probability zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import atoms, round_sig
from .design import Design
from .randomization import ExactMode, Mode, PValueKind, _replicate_source
from .statistics import (
    ObservedData,
    StatisticSpec,
    evaluate_realized,
    observed_statistic,
)

__all__ = [
    "PValueStepFunction",
    "ConfidenceInterval",
    "NonMonotoneStatisticError",
    "BracketingError",
    "LevelTooHighError",
    "build_step_function",
    "build_step_functions",
    "invert_lower",
    "invert_upper",
    "confidence_interval",
    "traditional_interval",
]

class NonMonotoneStatisticError(ValueError):
    """Inversion requested for a statistic without a monotone p-value curve."""


class BracketingError(RuntimeError):
    """Bisection could not bracket a breakpoint."""


class LevelTooHighError(ValueError):
    """Requested tail levels leave no interval (lower would exceed upper)."""


class _SteppedSide:
    """A one-sided p-value function of theta, read on its sorted ``breakpoints``.

    ``_level_reader()`` maps indices ``j`` of the ``breakpoints.size + 1``
    intervals the breakpoints cut to their levels; every read at theta goes
    through it, whether the function is one experiment's or a combination.
    """

    def value(self, theta):
        """Evaluate at ``theta`` (scalar or array), exact step semantics; NaN is refused."""
        return self._at(theta, "right" if self.side in (PValueKind.LPLUS, PValueKind.UMINUS) else "left")

    def value_from_right(self, theta):
        """Right limit at ``theta``: the value just above it."""
        return self._at(theta, "right")

    def _at(self, theta, search):
        theta = np.asarray(theta, dtype=float)
        if np.isnan(theta).any():  # searchsorted would sort it above every breakpoint
            raise ValueError("theta must not be NaN")
        idx = np.searchsorted(self.breakpoints, round_sig(theta), side=search)
        out = self._level_reader()(idx)
        return out.item() if theta.ndim == 0 else out


@dataclass(frozen=True)
class PValueStepFunction(_SteppedSide):
    """A one-sided p-value function of theta in breakpoint form.

    ``breakpoints`` are finite, strictly increasing, rounded to 12 significant
    digits; ``counts[i]/denom`` is the probability mass switching at
    breakpoint ``i``.  ``base_count/denom`` is mass whose indicator holds for
    every theta (for the weak-inequality sides this includes the observed
    assignment, which is tied at all theta); ``never_count/denom`` is mass
    whose indicator never holds.  ``base + sum(counts) + never == denom``.
    """

    side: PValueKind
    breakpoints: np.ndarray
    counts: np.ndarray
    base_count: int
    never_count: int
    denom: int
    statistic: str
    mode: Mode

    def __post_init__(self):
        if self.side == PValueKind.TWO_SIDED_L:
            raise ValueError("step functions are one-sided; two-sided values combine LPLUS and LMINUS")
        if self.base_count + int(self.counts.sum()) + self.never_count != self.denom:
            raise ValueError("breakpoint masses do not account for every assignment")

    @property
    def base(self) -> float:
        """Mass active at theta = -inf (LPLUS) resp. +inf (LMINUS)."""
        return self.base_count / self.denom

    def _level_reader(self):
        """Reads the levels of intervals ``j``, of the breakpoints.size + 1 the breakpoints cut.

        One integer cumsum per reader, not kept on the function; only the
        levels read are divided.
        """
        below = np.cumsum(np.concatenate(([0], self.counts)))  # mass switching below interval j
        if self.side in (PValueKind.LPLUS, PValueKind.UPLUS):  # mass switched on below theta
            return lambda j: (self.base_count + below[j]) / self.denom
        top = self.base_count + int(below[-1])  # mass not yet switched off
        return lambda j: (top - below[j]) / self.denom


def _threshold(t_obs, strict):
    """Value a replicate must reach (or pass, if strict): T_obs moved by half the tie tolerance."""
    t_tol = 1e-9 * max(1.0, abs(t_obs))  # statistic units
    return t_obs + t_tol / 2 if strict else t_obs - t_tol / 2


def _row_tests(data, stat, W, t_obs, strict):
    """For rows of the block ``W`` at per-row theta: the statistic, and whether it reaches T_obs."""
    threshold = _threshold(t_obs, strict)
    y = data.y_obs
    w_obs = data.w_obs.astype(float)

    def t_at(theta_rows, rows=slice(None)):
        # realized outcomes under row w at theta: y + theta * d
        Wr = W[rows]
        D = Wr * (1 - w_obs) - (1 - Wr) * w_obs
        return evaluate_realized(stat, y + theta_rows[:, None] * D, Wr)

    def on(theta_rows, rows=slice(None)):
        vals = t_at(theta_rows, rows)
        return (vals > threshold) if strict else (vals >= threshold)

    return t_at, on


def _bisect(on, b_lo, b_hi, moving, always, tol):
    """A block's crossings: each moving row's bracket halved until it is at most ``tol`` wide.

    Each row stops on its own bracket, so its crossing does not depend on the
    other rows.  Every moving row's crossing is then confirmed to switch within
    ``tol``; the other rows are ``-inf`` where ``always`` on, else ``+inf``.
    """
    live = moving & (b_hi - b_lo > tol)
    while live.any():
        mid = 0.5 * (b_lo + b_hi)
        is_on = on(mid)
        b_lo = np.where(live & ~is_on, mid, b_lo)
        b_hi = np.where(live & is_on, mid, b_hi)
        live &= b_hi - b_lo > tol
    chk = moving.nonzero()[0]
    if chk.size and (~on(b_hi)[chk] | on(b_hi - 2 * tol)[chk]).any():
        raise BracketingError("a resolved breakpoint failed the +/- tolerance check")
    return np.where(moving, b_hi, np.where(always, -np.inf, np.inf))


def _bisect_crossings(data, stat, W, t_obs, strict, scale):
    """One float block's per-row switch points of 1{T(theta, w) >= T_obs} (or > for strict).

    Brackets expand geometrically from the outcome scale; a side whose
    statistic stops changing across a doubling has saturated (rank statistics
    freeze once theta clears the outcome range), which classifies the row as
    never switching (+inf) or always on (-inf).  :func:`_bisect` then halves
    every moving row's bracket until it is within the tolerance.
    """
    tol = 1e-9 * max(1.0, scale)  # theta units: bisection width
    t_tol = 1e-9 * max(1.0, abs(t_obs))  # statistic units: tie tolerance
    reach = 2.0 * max(1.0, scale)
    t_at, on = _row_tests(data, stat, W, t_obs, strict)
    lo = np.full(W.shape[0], -reach)
    hi = np.full(W.shape[0], reach)
    never = np.zeros(W.shape[0], dtype=bool)
    always = np.zeros(W.shape[0], dtype=bool)
    for _ in range(200):
        on_hi = on(hi)
        on_lo = on(lo)
        grow_hi = ~on_hi & ~never & ~always
        grow_lo = on_lo & ~always & ~never
        if not grow_hi.any() and not grow_lo.any():
            break
        if grow_hi.any():
            old = t_at(hi)
            hi = np.where(grow_hi, hi * 2, hi)
            frozen = grow_hi & (np.abs(t_at(hi) - old) <= t_tol / 4) & ~on(hi)
            never |= frozen
        if grow_lo.any():
            old = t_at(lo)
            lo = np.where(grow_lo, lo * 2, lo)
            frozen = grow_lo & (np.abs(t_at(lo) - old) <= t_tol / 4) & on(lo)
            always |= frozen
    else:
        raise BracketingError("no bracket for some assignment after 200 doublings")
    return _bisect(on, lo, hi, ~never & ~always, always, tol)


def _switch_point_crossings(data, stat, W, t_obs, strict, scale, b_star):
    """One int8 block's crossings from its rows' exact switch points ``b_star``.

    Rows with ``b* = +-inf`` are classified directly.  Every finite ``b*`` lies
    within the outcome range, inside the initial bracket of
    :func:`_bisect_crossings`, which therefore never widens it.  Each bisection
    decision is then ``theta > b*``; the statistic is evaluated only where
    theta is within ``1e-12 * scale`` of ``b*``, where rounding or a tie at
    ``b*`` itself can decide.  Both ways halve the same bracket with the same
    decisions under the same row-local stopping rule and final check of
    :func:`_bisect`, so they give the same bytes.
    """
    tol = 1e-9 * max(1.0, scale)
    near_tol = 1e-12 * max(1.0, scale)
    _, passes = _row_tests(data, stat, W, t_obs, strict)

    def on(theta_rows):
        is_on = theta_rows > b_star
        near = np.flatnonzero(np.abs(theta_rows - b_star) <= near_tol)
        if near.size:
            is_on[near] = passes(theta_rows[near], near)
        return is_on

    always = b_star == -np.inf
    moving = ~always & (b_star != np.inf)
    reach = np.full(b_star.size, 2.0 * max(1.0, scale))
    return _bisect(on, -reach, reach, moving, always, tol)


def _crossings(data, stat, source, t_obs, scale):
    """The ``ge`` and ``gt`` crossings of each block of the source's rows, in row order.

    How they are found is a capability of the statistic, which reads the
    ``int8`` block itself.  An ``affine`` statistic yields the ``ge``
    crossings alone: its ``gt`` crossings are the same finite values, and its
    ``-inf`` rows, tied at every theta, never pass.
    """
    for W in source.blocks():
        if stat.affine is not None:
            a, b = stat.affine(data, W)
            moving = b > 0  # rows with b = 0 tie T_obs at every theta
            gap = t_obs - a
            at = np.divide(gap, b, out=np.zeros_like(a), where=moving)
            # rows tied with T_obs at theta = 0 under p_values' rounding cross
            # at exactly 0; equal roundings are within 1e-11 |T_obs| of it
            near = np.flatnonzero(np.abs(gap) <= 1e-10 * abs(t_obs))
            at[near[round_sig(a[near]) == round_sig(t_obs)]] = 0.0
            yield (np.where(moving, at, -np.inf),)
        elif stat.switch_points is not None:
            # smallest half-integers that pass the two tolerance tests
            m = np.array([np.ceil(2 * _threshold(t_obs, False)) / 2,
                          np.floor(2 * _threshold(t_obs, True)) / 2 + 0.5])
            b_ge, b_gt = stat.switch_points(data, W, m)
            yield (_switch_point_crossings(data, stat, W, t_obs, False, scale, b_ge),
                   _switch_point_crossings(data, stat, W, t_obs, True, scale, b_gt))
        else:
            W = W.astype(float)  # every bisection step reads the whole block
            yield (_bisect_crossings(data, stat, W, t_obs, False, scale),
                   _bisect_crossings(data, stat, W, t_obs, True, scale))


def build_step_functions(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    mode: Mode = ExactMode(),
) -> dict:
    """All four one-sided p-value functions of one experiment, keyed by side.

    ``LPLUS``/``UMINUS`` count the ``ge`` crossings and ``UPLUS``/``LMINUS``
    the ``gt`` crossings; each pair shares its (read-only) breakpoint and
    count arrays, with base and never masses swapped.  For an ``affine``
    statistic all four sides share one pair of arrays.  Refuses statistics
    not certified monotone and right continuous in theta.
    """
    if not stat.theta_monotone_rightcontinuous:
        raise NonMonotoneStatisticError(
            f"statistic {stat.name!r} is not certified monotone in theta; "
            "its p-value curve can be non-monotone and inversion need not yield an interval"
        )
    return _step_functions(data, stat, _replicate_source(design, mode))


def _step_functions(data: ObservedData, stat: StatisticSpec, source) -> dict:
    """:func:`build_step_functions` on the rows of a replicate source.

    Each block's finite crossings are rounded as the block arrives, so the
    rounded crossing vectors, 8 bytes a row each, are all that spans every
    row: ``ge`` and ``gt``, or for an ``affine`` statistic one vector whose
    breakpoint and count arrays all four sides share.
    """
    t_obs = observed_statistic(stat, data)
    scale = max(1.0, float(np.max(np.abs(data.y_obs))), float(np.ptp(data.y_obs)))
    vectors = 1 if stat.affine is not None else 2
    rounded = [np.empty(source.size) for _ in range(vectors)]  # finite crossings, rounded
    filled = [0] * vectors
    always = [0] * vectors
    never = [0] * vectors
    for block in _crossings(data, stat, source, t_obs, scale):
        for i, crossings in enumerate(block):
            always[i] += int(np.sum(crossings == -np.inf))
            never[i] += int(np.sum(crossings == np.inf))
            finite = round_sig(crossings[np.isfinite(crossings)])
            rounded[i][filled[i]:filled[i] + finite.size] = finite
            filled[i] += finite.size

    masses = []
    for i in range(vectors):
        # handed over, so that atoms frees the vector once it has the values
        breakpoints, counts = atoms(rounded.pop(0)[:filled[i]])
        breakpoints.flags.writeable = counts.flags.writeable = False
        masses.append((breakpoints, counts, always[i], never[i]))
    if vectors == 1:  # affine: gt shares ge's atoms, and its tied rows never pass
        masses.append((*masses[0][:2], 0, always[0] + never[0]))

    fs = {}
    for (rising, falling), (breakpoints, counts, on, off) in zip(
            ((PValueKind.LPLUS, PValueKind.UMINUS), (PValueKind.UPLUS, PValueKind.LMINUS)), masses):
        # complements: rows whose crossing event always holds never satisfy
        # the <= / < event, and vice versa
        for side, base, rest in ((rising, on, off), (falling, off, on)):
            fs[side] = PValueStepFunction(
                side=side, breakpoints=breakpoints, counts=counts, base_count=base,
                never_count=rest, denom=source.size, statistic=stat.name, mode=source.mode,
            )
    return fs


def build_step_function(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    side: PValueKind,
    mode: Mode = ExactMode(),
) -> PValueStepFunction:
    """One side's p-value curve: ``build_step_functions(...)[side]``."""
    if side == PValueKind.TWO_SIDED_L:
        raise ValueError("build one-sided functions; two-sided values combine LPLUS and LMINUS")
    return build_step_functions(data, design, stat, mode)[side]


def _cut(grid: np.ndarray, hit) -> float:
    """Where the first theta interval whose level is a ``hit`` starts: -inf, a grid point or +inf.

    The sorted ``grid`` cuts ``grid.size + 1`` intervals, indexed from 0.
    ``hit`` tests an integer array of interval indices and must be monotone in
    the index: False up to the first hit, True from it on.  The search keeps
    the gap between the last interval known to miss and the first known to
    hit; each round tests about ``sqrt(grid.size + 1)`` evenly spaced indices
    inside it, so two rounds find the first hit.
    """
    n = grid.size + 1
    per_round = math.isqrt(n) + 1
    lo, hi = -1, n  # hi == n: no hit found yet
    while hi - lo > 1:
        step = -(-(hi - lo) // per_round)
        probes = np.arange(lo + step, hi, step)
        first = int(np.argmax(np.append(hit(probes), True)))  # probes.size: no probe hits
        lo, hi = np.concatenate(([lo], probes, [hi]))[[first, first + 1]]
    return float(np.concatenate(([-np.inf], grid, [np.inf]))[hi])


def invert_lower(f, alpha1: float) -> float:
    """sup{theta : p(theta) <= alpha1} for a LPLUS function, one experiment's or combined.

    Returns ``-inf`` when even the base mass exceeds ``alpha1`` (no theta
    attains so small a p-value) and ``+inf`` when the function never rises
    above ``alpha1``.  Levels are compared with the p-values ``f.value``
    returns, for one experiment ``count / denom`` floats.
    """
    if f.side != PValueKind.LPLUS:
        raise ValueError("lower inversion needs a LPLUS function")
    if not 0 < alpha1 < 1:
        raise ValueError("alpha1 must lie in (0, 1)")
    # the intervals with p <= alpha1 come first; their union ends at the cut
    read = f._level_reader()
    return _cut(f.breakpoints, lambda j: read(j) > alpha1)


def invert_upper(f, alpha2: float) -> float:
    """inf{theta : p(theta) <= alpha2} for a LMINUS function (mirror of lower)."""
    if f.side != PValueKind.LMINUS:
        raise ValueError("upper inversion needs a LMINUS function")
    if not 0 < alpha2 < 1:
        raise ValueError("alpha2 must lie in (0, 1)")
    # the intervals with p > alpha2 come first; the rest starts at the cut
    read = f._level_reader()
    return _cut(f.breakpoints, lambda j: read(j) <= alpha2)


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval for the constant treatment effect, with tail levels.

    Reported with the conventional lower-closed, upper-open closure.  For the
    proposed method, :meth:`contains` additionally counts the exact upper
    endpoint as covered: that point belongs to the inverted acceptance region
    (neither one-sided test rejects there), and excluding it would break the
    guaranteed coverage exactly in heavily tied populations.  Traditional
    intervals use the plain half-open membership and carry no guarantee.
    Membership reads ``theta`` rounded to 12 significant digits, as the step
    functions inverted into the endpoints read it.

    ``mode`` is how the interval was computed: one ``ExactMode`` or
    ``MCMode``, or, for a combined interval whose experiments ran under
    different modes, the tuple of per-experiment modes in experiment order.
    """

    lower: float
    upper: float
    alpha1: float
    alpha2: float
    method: str
    statistic: str
    mode: Mode | tuple

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, theta: float) -> bool:
        theta = round_sig(theta)
        if self.method == "proposed":
            return bool(self.lower <= theta <= self.upper)
        return bool(self.lower <= theta < self.upper)


def _require_invertible(stat: StatisticSpec, alpha1: float, alpha2: float | None = None):
    """Every interval needs levels in (0, 1), summing below 1, and an EI statistic."""
    if alpha2 is None:
        if not 0 < alpha1 < 1:
            raise ValueError("alpha must lie in (0, 1)")
    elif not (0 < alpha1 < 1 and 0 < alpha2 < 1 and alpha1 + alpha2 < 1):
        raise ValueError("need 0 < alpha1, alpha2 and alpha1 + alpha2 < 1")
    if not stat.ei_certified:
        raise NonMonotoneStatisticError(
            f"statistic {stat.name!r} is not certified effect increasing; "
            "inversion with it has no coverage guarantee"
        )


def _proposed_interval(fs: dict, alpha1: float, alpha2: float) -> ConfidenceInterval:
    """Guaranteed interval from the sides of one experiment or of a ``combine_functions`` fusion."""
    f = fs[PValueKind.LPLUS]
    lower = invert_lower(f, alpha1)
    upper = invert_upper(fs[PValueKind.LMINUS], alpha2)
    if lower > upper:
        raise LevelTooHighError(
            f"levels alpha1={alpha1}, alpha2={alpha2} leave no interval "
            f"(lower {lower} > upper {upper})"
        )
    return ConfidenceInterval(
        lower=lower, upper=upper, alpha1=alpha1, alpha2=alpha2,
        method="proposed", statistic=f.statistic, mode=f.mode,
    )


def _traditional_interval(f: PValueStepFunction, alpha: float, theta_grid=None) -> ConfidenceInterval:
    """Two-crossing interval from one LPLUS function, at alpha/2 and 1 - alpha/2."""
    half = alpha / 2
    if theta_grid is None:
        grid, read = f.breakpoints, f._level_reader()
    else:
        # a coarse grid is read at its points only; nothing below its first point
        grid = np.sort(np.asarray(theta_grid, dtype=float))
        read = np.concatenate(([0.0], f.value(grid))).__getitem__
    lower = _cut(grid, lambda j: read(j) > half)
    upper = _cut(grid, lambda j: read(j) >= 1 - half)
    return ConfidenceInterval(
        lower=lower, upper=upper, alpha1=half, alpha2=half,
        method="traditional", statistic=f.statistic, mode=f.mode,
    )


def confidence_interval(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    alpha1: float,
    alpha2: float,
    mode: Mode = ExactMode(),
) -> ConfidenceInterval:
    """Interval with guaranteed coverage at least ``1 - alpha1 - alpha2``.

    The lower endpoint inverts the LPLUS function at ``alpha1`` and the upper
    inverts the LMINUS function at ``alpha2``; both functions come from the
    same effect-increasing statistic.  Coverage holds exactly, with no
    tolerance, over the randomization distribution.
    """
    _require_invertible(stat, alpha1, alpha2)
    return _proposed_interval(build_step_functions(data, design, stat, mode), alpha1, alpha2)


def traditional_interval(
    data: ObservedData,
    design: Design,
    stat: StatisticSpec,
    alpha: float,
    mode: Mode = ExactMode(),
    theta_grid=None,
) -> ConfidenceInterval:
    """Interval from the LPLUS curve alone, crossed at alpha/2 and 1 - alpha/2.

    Provided for comparison studies only: because the same one-sided function
    is inverted at both tails, this construction has no coverage guarantee and
    can undercover in small or heavily tied populations.  With ``theta_grid``
    the crossings are read off the grid (first grid point past each level),
    reproducing the coarse-grid workflow; otherwise they are exact.
    """
    _require_invertible(stat, alpha)
    f = build_step_functions(data, design, stat, mode)[PValueKind.LPLUS]
    return _traditional_interval(f, alpha, theta_grid)
