"""Shared helpers: the input-error type, the largest array size, significant-digit rounding, the outcome scale, the tie tolerance and the closed-form band, number, finite-value, level and seed checks, seed folding, distinct values and atoms of a sample."""

import math
import numbers

import numpy as np


class InputError(ValueError):
    """A refused argument: the caller's input breaks a documented rule.

    Raised where the rule is checked, so a caller can tell bad input from a
    failed computation; it is a ``ValueError``, so ``except ValueError``
    catches it too.  The CLI exits 2 on it.
    """


# The most 8-byte entries (doubles, int64 or object references) that numpy can
# size one array of; a longer array is refused by numpy with a message that
# names no argument, a shorter one at worst fails to find memory
MAX_ARRAY_ENTRIES = np.iinfo(np.intp).max // 8


# Number of significant digits used everywhere tie classification or breakpoint
# comparison happens.  Deterministic across platforms, coarse enough to absorb
# last-ulp noise from different summation orders.
SIG_DIGITS = 12


# 10.0 ** (SIG_DIGITS - 1 - e) for each decade e = floor(log10(|x|)) that the
# magnitudes round_sig rounds, (1e-280, largest double], reach: np.power once
# here, not on every element; every entry is finite
_LOWEST, _HIGHEST = np.floor(np.log10([np.nextafter(1e-280, np.inf), np.finfo(float).max]))
_SCALES = np.power(10.0, SIG_DIGITS - 1 - np.arange(_LOWEST, _HIGHEST + 1))
_SCALES.flags.writeable = False


def round_sig(x):
    """Round to ``SIG_DIGITS`` significant digits, elementwise.

    Zeros, infinities, NaNs and magnitudes below 1e-280 pass through unchanged
    (the scale factor for tinier values would overflow a double; such values
    never arise from real outcome data).
    """
    x = np.asarray(x, dtype=float)
    scale = np.abs(x, out=np.empty_like(x))
    normal = (scale > 1e-280) & (scale < np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        # the decade, its scale and the rounding over the whole array; entries
        # that are not normal come out as junk (a clipped read for the NaN or
        # infinite decades) and are put back
        np.log10(scale, out=scale)
        np.floor(scale, out=scale)
        decade = np.subtract(scale, _LOWEST, out=scale).astype(np.intp)
    np.take(_SCALES, decade, out=scale, mode="clip")
    del decade
    out = np.multiply(x, scale, out=np.empty_like(x))
    np.round(out, out=out)
    np.divide(out, scale, out=out)
    np.copyto(out, x, where=~normal)
    if np.ndim(x) == 0:
        return float(out)
    return out


def outcome_scale(y) -> float:
    """How big the outcomes ``y`` are: the larger of ``max |y|`` and their range.

    The one rule for every tolerance in the outcomes' units (theta's): the
    inversion kernel's bisection width and bracket, the exact audit's
    constant-effect check and ``ei_probe``'s perturbations follow it down to
    the smallest normal double.  Below it (zero outcomes included) 1e-9 of
    the scale could round to 0, which no bisection reaches, so it is 1.
    A range past the largest double is inf, with no overflow warning.
    """
    with np.errstate(over="ignore"):
        scale = max(float(np.max(np.abs(y))), float(np.ptp(y)))
    return scale if scale >= np.finfo(float).tiny else 1.0


def tie_tolerance(t) -> float:
    """The width within which two statistic values near ``t`` tie: ``1e-9 * max(1, |t|)``.

    The one rule in the statistic's own units, read by the inversion
    kernel's thresholds and saturation test and by ``ei_probe``.  With the
    floor of 1, statistic values near 0 tie within 1e-9.
    """
    return 1e-9 * max(1.0, abs(float(t)))


def closed_form_bands(t, y, thetas) -> list:
    """How far from ``t`` an affine statistic's closed form ``a + b * theta`` settles a row's tails, at each of ``thetas``.

    ``1e-9 * (|t| + outcome_scale(y) + |theta|)`` for observed outcomes ``y``
    of ``n`` units; inf when ``(n + 2) * (outcome_scale(y) + |theta|)``
    overflows, since a sum of imputed outcomes or the closed form itself can
    then overflow, and NaN with ``t``.  A row whose closed form is more than
    the band above ``t`` has a rounded statistic above ``t``, and one more
    than the band below it one below ``t``, so only rows within the band
    need the statistic itself.  The margin: with ``u = 2**-53`` and ``R =
    outcome_scale(y) + |theta|``, the statistic of imputed outcomes (each
    within ``u * R`` of ``y +- theta``) summed in numpy's pairwise order is
    within ``(2 * log2(n) + 60) * u * R`` of the exact value, and within
    ``(2 * n + 8) * u * R`` in any order; the closed form's sums are exact
    and it rounds a few times more, within ``12 * u * R``.  Below ``n =
    2**20`` units both stay under ``3e-10 * R``.  Rounding to 12
    significant digits moves a value ``v`` by about ``5e-12 * |v|`` at
    most, far under the ``1e-9 * |t|`` left.
    """
    scale, n = outcome_scale(y), np.size(y)
    bands = []
    for theta in thetas:
        reach = scale + abs(theta)
        bands.append(1e-9 * (abs(t) + reach) if math.isfinite((n + 2) * reach) else math.inf)
    return bands


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not a count or a seed."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number, Python, numpy or ``fractions``; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_finite(value, name: str) -> None:
    """Refuse, with ``InputError`` naming ``name`` and ``value``, anything but a finite real a double holds.

    A bool, a string, NaN, an infinity and an integer past the largest double
    are refused.  The test converts to a double, so a numpy float32 is not
    compared with a double's largest value, a comparison numpy warns on.
    """
    try:
        finite = is_real(value) and math.isfinite(value)
    except OverflowError:  # past the largest double
        finite = False
    if not finite:
        raise InputError(f"{name} must be a finite number a double holds, got {value!r}")


def require_level(value, name: str) -> None:
    """Refuse, with ``InputError`` naming ``name`` and ``value``, a level outside (0, 1).

    The one rule for every test level, interval tail and probability budget:
    a real number in (0, 1); a bool, a string, an array and NaN are refused.
    """
    if not (is_real(value) and 0 < value < 1):
        raise InputError(f"{name} must lie in (0, 1), got {value!r}")


def require_seed(seed, name: str) -> None:
    """Refuse, with ``InputError`` naming ``name`` and ``seed``, anything but a
    non-negative integer or a tuple of them.

    A negative integer is refused: folded as two's complement it would share
    its stream with a positive one.
    """
    if not all(is_integer(e) and e >= 0 for e in (seed if isinstance(seed, tuple) else (seed,))):
        raise InputError(f"{name} must be a non-negative integer or a tuple of them, got {seed!r}")


def fold_seed(seed) -> int:
    """Collapse a non-negative int or tuple-of-ints seed into one 128-bit integer key.

    Plain ints below 2**128 are used directly, so documented integer seeds
    map to the same stream everywhere.  Anything else is folded through
    numpy's SeedSequence, which is stable across platforms and splits each
    element into words, so elements of 2**64 or more, and ints of 2**128 or
    more, keep all their bits.
    """
    if isinstance(seed, (int, np.integer)) and 0 <= int(seed) < (1 << 128):
        return int(seed)
    entropy = seed if isinstance(seed, (tuple, list)) else (seed,)
    state = np.random.SeedSequence([int(e) for e in entropy]).generate_state(2, np.uint64)
    return int(state[0]) | (int(state[1]) << 64)


def sorted_distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of the 1-d float array ``x``, which is sorted in place.

    The array ``np.unique(x)`` returns, without the ``numpy.ma`` import that
    ``np.unique`` makes on its first call with no index or count option.
    """
    x.sort()
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def atoms(x: np.ndarray):
    """Sorted distinct values of the 1-d float array ``x``, their int64 counts and offsets.

    The values and counts are the arrays of ``np.unique(x, return_counts=True)``;
    ``offsets`` has one more entry, where each value's run starts in sorted
    ``x`` and then ``x.size``: the cumulative counts from 0.  ``x`` is sorted
    in place and never copied.  A caller that hands over its only reference
    to ``x`` lets it go once the values are picked, so the call needs at most
    24 bytes a distinct value beyond ``x``.
    """
    x.sort()
    first = np.empty(x.size + 1, dtype=bool)  # each run of equal values starts here
    first[0] = first[-1] = True  # the end closes the last run
    np.not_equal(x[1:], x[:-1], out=first[1:-1])
    offsets = np.flatnonzero(first)
    del first
    values = x[offsets[:-1]]
    del x
    return values, np.diff(offsets), offsets
