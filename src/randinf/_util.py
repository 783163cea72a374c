"""Shared numeric helpers: significant-digit rounding, seed folding, atoms of a sample."""

import numpy as np

# Number of significant digits used everywhere tie classification or breakpoint
# comparison happens.  Deterministic across platforms, coarse enough to absorb
# last-ulp noise from different summation orders.
SIG_DIGITS = 12


def round_sig(x):
    """Round to ``SIG_DIGITS`` significant digits, elementwise.

    Zeros, infinities, NaNs and magnitudes below 1e-280 pass through unchanged
    (the scale factor for tinier values would overflow a double; such values
    never arise from real outcome data).
    """
    x = np.asarray(x, dtype=float)
    scale = np.abs(x, out=np.empty_like(x))
    normal = (scale > 1e-280) & (scale < np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the scale and the rounding over the whole array, in two buffers;
        # entries that are not normal come out as junk and are put back
        np.log10(scale, out=scale)
        np.floor(scale, out=scale)
        np.subtract(SIG_DIGITS - 1, scale, out=scale)
        np.power(10.0, scale, out=scale)
        out = np.multiply(x, scale, out=np.empty_like(x))
        np.round(out, out=out)
        np.divide(out, scale, out=out)
    np.copyto(out, x, where=~normal)
    if np.ndim(x) == 0:
        return float(out)
    return out


def fold_seed(seed) -> int:
    """Collapse an int or tuple-of-ints seed into one 128-bit integer key.

    Plain non-negative ints below 2**128 are used directly, so documented
    integer seeds map to the same stream everywhere.  Anything else is folded
    through numpy's SeedSequence, which is stable across platforms.
    """
    if isinstance(seed, (int, np.integer)) and 0 <= int(seed) < (1 << 128):
        return int(seed)
    entropy = seed if isinstance(seed, (tuple, list)) else (int(seed),)
    state = np.random.SeedSequence([int(e) & ((1 << 64) - 1) for e in entropy]).generate_state(2, np.uint64)
    return int(state[0]) | (int(state[1]) << 64)


def atoms(x: np.ndarray):
    """Sorted distinct values of the 1-d float array ``x`` and their int64 counts.

    The same arrays as ``np.unique(x, return_counts=True)``, but ``x`` is
    sorted in place and never copied.  A caller that hands over its only
    reference to ``x`` lets it go once the values are picked, so the call
    needs at most 24 bytes a distinct value beyond ``x``.
    """
    x.sort()
    first = np.empty(x.size, dtype=bool)  # each run of equal values starts here
    first[:1] = True
    np.not_equal(x[1:], x[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    values = x[starts]
    size = x.size
    del x
    counts = np.empty(starts.size, dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1:] = size - starts[-1:]
    return values, counts
