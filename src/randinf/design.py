"""Randomized assignment mechanisms: enumeration, sampling, and probabilities.

Two mechanisms are supported: the completely randomized design (``CRD``),
which treats a fixed number of units, and the randomized block design
(``RBD``), which treats a fixed number of units within each block.  An RBD
with a single block is observationally identical to a CRD.

Assignments are binary numpy vectors (1 = treatment, 0 = control).  The
enumeration order is fixed: treated-index sets in colexicographic order, and
for an RBD the product order over blocks with block 0 varying fastest.  This
order is part of the public contract so that golden results are stable.

Enumerated rows are written straight from that order's recurrence
(:func:`_range_to_assignments`): the t-subsets of ``range(n)`` are those of
``range(n-1)``, then those of size ``t-1`` with unit ``n-1`` added, so any
contiguous rank range is a few slice copies of small colex tables and fixed
columns.  Each block of an RBD runs through consecutive ranks, each repeated
as often as the earlier blocks have assignments, so its columns are filled
pieces expanded by ``np.repeat``.  :func:`assignment_matrix` and the exact
replicate source in :mod:`randinf.randomization` both use it.

Sampled rows come from global indices.  An index is split once per run of
consecutive blocks whose joint count fits in 2**62 (object ``%`` and ``//``
past 2**62), and into group ranks within the run on int64, block 0 fastest.
A group is a stretch of consecutive blocks of a run, merged while their
units times their joint count fit the table budget.  Its product table
holds all of its assignments in enumeration order, so rank ``m`` is row
``m``, and its rows are one gather from that table (cached, read-only).  A
block too large for a table of its own is unranked by a ``searchsorted``
walk down a cached binomial table, all rows at once: on exact Python ints
(numpy ``object`` arrays) while a rank may exceed 2**62, on int64 from the
step where every rank fits.

Sampling is counter based: draw ``j`` of ``sample_assignments(design, k,
seed)`` depends only on ``(seed, j)``, so the first draws are the same for
every ``k``.  Each draw is an exact uniform index, by rejection against the
power of two above the space size, on rows of Philox words: eight words, or
``ceil(bits / 64)`` past 512 bits.  Up to 2**62 the eight words are eight
candidates, the first one below the size taken: every row is decided on its
first word, and only rows whose first word misses read the other seven.
Otherwise the row's last ``ceil(bits / 64)`` words are one candidate, the
first word most significant.  Attempt 0 reads row ``j`` of the stream keyed
by the folded seed; attempt ``a`` gives the draws still missing, in order,
the rows of the stream keyed by ``fold_seed((key_lo, key_hi, a))``.  This is
the seed stream of version 0.2.0.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Union

import numpy as np

from ._util import MAX_ARRAY_ENTRIES, InputError, fold_seed, is_integer

__all__ = [
    "CRD",
    "RBD",
    "Design",
    "DEFAULT_ENUMERATION_CAP",
    "EnumerationCapError",
    "total_assignments",
    "assignment_matrix",
    "sample_assignments",
    "assignment_probability",
    "assignment_probability_exact",
]

# Vectorized index arithmetic needs headroom below 2**63; larger indices and
# block ranks are exact Python ints in object arrays.
_INT64_SAFE_TOTAL = 1 << 62

# Full enumeration is refused above this many assignments unless a caller
# passes its own cap.
DEFAULT_ENUMERATION_CAP = 2_000_000

# Largest colex or product table kept, in bytes (rows x units, int8); a
# longer piece of the enumeration order is split at its top unit first.
_TABLE_BYTES = 1 << 18


class EnumerationCapError(RuntimeError):
    """Raised when full enumeration would exceed the caller's cap."""


@dataclass(frozen=True)
class CRD:
    """Completely randomized design: ``n_treated`` of ``n_units`` get treatment."""

    n_units: int
    n_treated: int

    def __post_init__(self):
        if not (is_integer(self.n_units) and is_integer(self.n_treated) and 0 < self.n_treated < self.n_units):
            raise InputError(
                f"CRD requires integers 0 < n_treated < n_units, got ({self.n_units!r}, {self.n_treated!r})"
            )

    @property
    def blocks(self):
        return ((self.n_units, self.n_treated),)


@dataclass(frozen=True)
class RBD:
    """Randomized block design: per block ``(size, treated)`` with 0 < treated < size."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise InputError("RBD requires at least one block")
        for k, t in blocks:
            if not (is_integer(k) and is_integer(t) and 0 < t < k):
                raise InputError(f"block requires integers 0 < treated < size, got ({k!r}, {t!r})")
        object.__setattr__(self, "blocks", tuple((int(k), int(t)) for k, t in blocks))

    @property
    def n_units(self):
        return sum(k for k, _ in self.blocks)


Design = Union[CRD, RBD]


def _block_slices(design: Design):
    """(start, size, treated) for each block; a CRD is one block."""
    out = []
    start = 0
    for k, t in design.blocks:
        out.append((start, k, t))
        start += k
    return out


def total_assignments(design: Design) -> int:
    """Exact number of assignments consistent with the design (big integer)."""
    n = 1
    for k, t in design.blocks:
        n *= comb(k, t)
    return n


# ---------------------------------------------------------------------------
# Colexicographic unranking of k-subsets
#
# The rank of a treated-index set {c_1 < ... < c_k} is sum_i C(c_i, i); rank 0
# is {0, ..., k-1}.  The vectorized unranker maps sampled ranks to rows.
# ---------------------------------------------------------------------------

# Largest binomial table kept by the unranker's cache, in entries; a bigger
# one is built for each call.
_BINOMIAL_ENTRIES = 1 << 15


def _binomial_tables(n, k):
    """C(r, i) for i <= k and r <= n: exact (object) and clipped to 2**62 (int64), read-only."""
    # exact C(r, i) by the hockey-stick rule C(r, i) = sum of C(s, i - 1) over s < r
    exact = np.empty((k + 1, n + 1), dtype=object)
    exact[0] = 1
    exact[1:, 0] = 0
    for i in range(1, k + 1):
        exact[i, 1:] = np.cumsum(exact[i - 1, :-1])
    clipped = np.minimum(exact, _INT64_SAFE_TOTAL).astype(np.int64)
    exact.flags.writeable = clipped.flags.writeable = False
    return exact, clipped


# at most 8 tables of at most _BINOMIAL_ENTRIES entries each
_kept_binomial_tables = lru_cache(maxsize=8)(_binomial_tables)


def _unrank_block_vectorized(n, k, m):
    """Colex-unrank an array of ranks into a (len(m), n) 0/1 matrix.

    int64 ranks are unranked against binomials clipped to 2**62: ranks of a
    block that fits stay below that, so a clipped entry is never selected.
    object ranks (Python ints, for blocks past 2**62) use exact binomials
    until every rank fits: after step ``i`` a rank is below C(c_i, i - 1),
    so once that is at most 2**62 for the largest c_i the rest is int64.
    A block that treats most of its units is the complement of the set of
    ``n - k`` at colex rank ``C(n, k) - 1 - m``, which takes fewer steps.
    """
    if 2 * k > n:
        return 1 - _unrank_block_vectorized(n, n - k, (comb(n, k) - 1) - m)
    kept = (k + 1) * (n + 1) <= _BINOMIAL_ENTRIES
    exact, clipped = (_kept_binomial_tables if kept else _binomial_tables)(n, k)
    table = exact if m.dtype == object else clipped
    rows = np.arange(m.size)
    w = np.zeros((m.size, n), dtype=np.int8)
    for i in range(k, 0, -1):
        # table[i] is non-decreasing in r and C(r, i) = 0 for r < i, so this
        # is the largest c >= i - 1 with C(c, i) <= m
        c = np.searchsorted(table[i], m, side="right") - 1
        w[rows, c] = 1
        m = m - table[i, c]
        if table is exact and m.size and comb(int(c.max()), i - 1) <= _INT64_SAFE_TOTAL:
            m, table = m.astype(np.int64), clipped
    return w


def _block_runs(design: Design):
    """Runs of consecutive blocks whose joint count fits in 2**62, cut into groups.

    Each run is (groups, count); a block past 2**62 is a run of its own.  A
    group is (start, blocks, count): consecutive blocks merged while their
    units times their joint count fit ``_TABLE_BYTES``, so that their rows
    are read off one :func:`_product_table`.  A block too large for a table
    of its own is a group of one.
    """
    runs, groups, run_total = [], [], 1
    for start, k, t in _block_slices(design):
        b_total = comb(k, t)
        if groups and run_total * b_total > _INT64_SAFE_TOTAL:
            runs.append((groups, run_total))
            groups, run_total = [], 1
        if groups and (start + k - groups[-1][0]) * groups[-1][2] * b_total <= _TABLE_BYTES:
            g_start, blocks, g_total = groups.pop()
            groups.append((g_start, blocks + ((k, t),), g_total * b_total))
        else:
            groups.append((start, ((k, t),), b_total))
        run_total *= b_total
    runs.append((groups, run_total))
    return runs


@lru_cache(maxsize=16)  # at most 16 * _TABLE_BYTES
def _product_table(blocks):
    """All assignments of ``RBD(blocks)`` in enumeration order, read-only."""
    design = RBD(blocks)
    table = _range_to_assignments(design, 0, total_assignments(design))
    table.flags.writeable = False
    return table


def _indices_to_assignments(design: Design, idx: np.ndarray) -> np.ndarray:
    """Map global assignment indices to assignment vectors (block 0 fastest).

    ``idx`` is int64, or object (Python ints) for spaces past 2**62.  It is
    split once per run of blocks whose joint count fits in 2**62 (one object
    ``%`` and ``//`` each), and into group ranks within the run on int64
    (:func:`_block_runs`).  A group's rows are gathered from its
    :func:`_product_table` by rank; a block too large for a table is
    unranked by :func:`_unrank_block_vectorized`.
    """
    w = np.empty((idx.size, design.n_units), dtype=np.int8)
    rem = idx
    runs = _block_runs(design)
    for r, (groups, run_total) in enumerate(runs):
        m = rem
        if r < len(runs) - 1:
            m, rem = rem % run_total, rem // run_total
        if run_total <= _INT64_SAFE_TOTAL:
            m = m.astype(np.int64, copy=False)
        for g, (start, blocks, g_total) in enumerate(groups):
            ranks = m
            if g < len(groups) - 1:
                m, ranks = np.divmod(m, g_total)
            units = sum(k for k, _ in blocks)
            if units * g_total <= _TABLE_BYTES:
                w[:, start:start + units] = np.take(_product_table(blocks), ranks, axis=0)
            else:
                (k, t), = blocks
                w[:, start:start + k] = _unrank_block_vectorized(k, t, ranks)
    return w


# ---------------------------------------------------------------------------
# Enumeration by the colex recurrence
#
# T(n, t), the colex order of t-subsets of range(n), is T(n-1, t) with unit
# n-1 off followed by T(n-1, t-1) with it on.  So T(n, t) starts with T(m, t)
# for every m <= n (the other units off), and a contiguous rank range of it
# splits at C(n-1, t) into at most two contiguous pieces.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)  # at most 16 * _TABLE_BYTES
def _colex_table(t):
    """T(m, t) for the largest m with m * C(m, t) <= _TABLE_BYTES, read-only.

    Its first C(n, t) rows and first n columns are T(n, t) for every n <= m.
    It is built one unit at a time, keeping only the T(j, u) that lead to
    T(m, t); those of one j together are at most the size of T(m, t).
    """
    m = t
    while (m + 1) * comb(m + 1, t) <= _TABLE_BYTES:
        m += 1
    level = {0: np.zeros((1, 0), dtype=np.int8)}
    for j in range(1, m + 1):
        nxt = {}
        for u in range(max(0, t - (m - j)), min(j, t) + 1):
            tab = np.empty((comb(j, u), j), dtype=np.int8)
            off = comb(j - 1, u)
            if u < j:
                tab[:off, :-1] = level[u]
            if u > 0:
                tab[off:, :-1] = level[u - 1]
            tab[:off, -1] = 0
            tab[off:, -1] = 1
            nxt[u] = tab
        level = nxt
    table = level[t]
    table.flags.writeable = False
    return table


def _fill_colex(out, n, t, lo, hi):
    """Write rows ``lo..hi-1`` of T(n, t) into the (hi - lo, n) int8 view ``out``.

    With at most two units treated, or at most two untreated, the rows are
    written in closed form; a piece whose T(n, t) fits the table budget is a
    slice of :func:`_colex_table`.
    Otherwise the leading units that every row leaves off, or the trailing
    ones that every row treats, are set at once (found by bisection), and a
    range that straddles C(n-1, t) is split there: the shorter piece recurses
    and the longer one loops, so the depth stays below log2(hi - lo) + 1.
    """
    while True:
        total = comb(n, t)
        u = min(t, n - t)
        if u <= 2:
            # complements are read from T(n, n - t) with ranks reversed: the
            # complement of a set of colex rank r has rank total - 1 - r
            flip = t > u
            ranks = np.arange(total - 1 - lo, total - 1 - hi, -1) if flip else np.arange(lo, hi)
            rows = np.arange(hi - lo)
            out[...] = flip
            if u == 2:
                starts = np.arange(n) * np.arange(-1, n - 1) // 2  # C(c, 2)
                top = np.searchsorted(starts, ranks, side="right") - 1
                out[rows, top] = not flip
                ranks = ranks - starts[top]
            if u >= 1:
                out[rows, ranks] = not flip
            return
        if n * total <= _TABLE_BYTES:
            out[...] = _colex_table(t)[lo:hi, :n]
            return
        m = t + bisect_left(range(t, n + 1), hi, key=lambda r: comb(r, t))
        if m < n:  # rows below C(m, t) leave units m.. off
            out[:, m:] = 0
            out, n = out[:, :m], m
            continue
        # rows in the last C(n-j, t-j) treat units n-j..
        j = bisect_right(range(t + 1), lo - total, key=lambda i: -comb(n - i, t - i)) - 1
        if j > 0:
            out[:, n - j:] = 1
            shift = total - comb(n - j, t - j)
            out, n, t, lo, hi = out[:, :n - j], n - j, t - j, lo - shift, hi - shift
            continue
        split = comb(n - 1, t) - lo
        out[:split, n - 1] = 0
        out[split:, n - 1] = 1
        pieces = [(out[:split, :n - 1], n - 1, t, lo, lo + split),
                  (out[split:, :n - 1], n - 1, t - 1, 0, hi - lo - split)]
        pieces.sort(key=lambda piece: piece[0].shape[0])
        _fill_colex(*pieces[0])
        out, n, t, lo, hi = pieces[1]


def _fill_cyclic(out, k, t, r0):
    """Write ranks r0, r0 + 1, ... of T(k, t), modulo C(k, t), into the rows of ``out``."""
    count, total = out.shape[0], comb(k, t)
    head = min(count, total - r0)
    _fill_colex(out[:head], k, t, r0, r0 + head)
    filled = min(count - head, total)
    if filled:
        _fill_colex(out[head:head + filled], k, t, 0, filled)
    # past the wrap the rows repeat with period total: copy, doubling
    while head + filled < count:
        step = min(filled, count - head - filled)
        out[head + filled:head + filled + step] = out[head:head + step]
        filled += step


def _range_to_assignments(design: Design, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo..hi-1`` of the enumeration order as a (hi - lo, n_units) int8 matrix.

    Row ``i``'s block rank is ``(i // stride) % C(k, t)``, ``stride`` being
    the product of the earlier blocks' counts.  Over the range, a block thus
    runs through consecutive ranks modulo C(k, t), each repeated ``stride``
    times except where the range cuts a run: one filled piece per block,
    expanded by ``np.repeat``.
    """
    w = np.empty((hi - lo, design.n_units), dtype=np.int8)
    stride = 1
    for start, k, t in _block_slices(design):
        b_total = comb(k, t)
        first, last = lo // stride, (hi - 1) // stride
        if stride == 1:
            _fill_cyclic(w[:, start:start + k], k, t, first % b_total)
        else:
            runs = np.empty((last - first + 1, k), dtype=np.int8)
            _fill_cyclic(runs, k, t, first % b_total)
            counts = np.full(len(runs), min(stride, hi - lo))
            counts[0] = min(hi, (first + 1) * stride) - lo
            counts[-1] = hi - max(lo, last * stride)
            w[:, start:start + k] = np.repeat(runs, counts, axis=0)
        stride *= b_total
    return w


def _enumerable_total(design: Design, cap: int) -> int:
    """The number of assignments, refused above ``cap``."""
    total = total_assignments(design)
    if total > cap:
        raise EnumerationCapError(
            f"{total} assignments exceed the enumeration cap of {cap}"
        )
    return total


def assignment_matrix(design: Design, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """All assignments as one (total, n_units) int8 matrix, in enumeration order."""
    return _range_to_assignments(design, 0, _enumerable_total(design, cap))


def _sample_indices(design: Design, k: int, seed) -> np.ndarray:
    """k iid uniform assignment indices; entry j depends only on (seed, j).

    int64 for spaces of at most 2**62 assignments, object (Python ints) past it.
    A retry's row depends on the draws missing before j, hence on (seed, j).
    """
    total = total_assignments(design)
    bits = total.bit_length()
    words = (bits + 63) // 64  # of a candidate, the first most significant
    top = np.uint64((1 << (bits - 64 * (words - 1))) - 1)  # bits kept of its first word
    width = max(8, words)  # of a row
    key = fold_seed(seed)
    fits = total <= _INT64_SAFE_TOTAL
    idx = np.empty(k, dtype=np.int64 if fits else object)
    missing, attempt = np.arange(k), 0
    while missing.size:
        stream = key if attempt == 0 else fold_seed((key & ((1 << 64) - 1), key >> 64, attempt))
        rows = np.random.Philox(key=stream).random_raw(missing.size * width).reshape(-1, width)
        if fits:
            # eight candidates per row; the first one below total is taken,
            # and only rows whose first candidate misses read the other seven
            got = (rows[:, 0] & top).astype(np.int64)
            hit = got < total
            miss = np.flatnonzero(~hit)
            if miss.size:
                cand = (rows[miss, 1:] & top).astype(np.int64)
                ok = cand < total
                got[miss] = cand[np.arange(miss.size), np.argmax(ok, axis=1)]
                hit[miss] = ok.any(axis=1)
        else:
            # one candidate per row: its last `words` words read as one integer
            cand = rows[:, width - words:]
            cand[:, 0] &= top
            got = cand[:, 0].astype(object)
            for j in range(1, words):
                got = (got << 64) | cand[:, j].astype(object)
            hit = got < total
        idx[missing] = got  # a miss is written over by a later attempt
        missing, attempt = missing[~hit], attempt + 1
    return idx


def sample_assignments(design: Design, k: int, seed) -> np.ndarray:
    """Draw ``k`` iid uniform assignments with replacement, as a (k, n) matrix.

    Fully reproducible: draw ``j`` is a pure function of ``(seed, j)``, so the
    first ``m`` draws are the same for every ``k >= m``.  Each draw is a
    uniform index into the space, drawn from Philox streams of the folded seed
    (see the module docstring), and unranked into the row of
    :func:`assignment_matrix` at that index.  Indices are int64 while the
    space has at most 2**62 assignments and exact Python ints past it; even
    then a run of blocks whose joint space fits is read on int64.  ``k`` is
    an integer >= 1, and ``seed`` an integer or a tuple of integers.
    """
    _require_draws(k, seed)
    return _indices_to_assignments(design, _sample_indices(design, k, seed))


def _require_draws(k, seed) -> None:
    """Refuse, with ``InputError``, a draw count ``k`` that is not an integer >= 1,
    one past the draws numpy can size an index array of, and a seed that is
    neither an integer nor a tuple of integers."""
    if not (is_integer(k) and k >= 1):
        raise InputError(f"Monte Carlo sample size k must be an integer >= 1, got {k!r}")
    if k > MAX_ARRAY_ENTRIES:
        raise InputError(f"Monte Carlo sample size k must be at most {MAX_ARRAY_ENTRIES}, the most "
                         f"draws numpy can size an array of, got {k!r}")
    if not all(map(is_integer, seed if isinstance(seed, tuple) else (seed,))):
        raise InputError(f"Monte Carlo draws need an integer seed for reproducibility, got {seed!r}")


def _miscount(design: Design, w) -> str:
    """Why the design cannot draw ``w``: a block's treated count, or "" when it can.

    A ``w`` of another length, or with entries other than 0 and 1, is no
    assignment vector of the design at all and raises ``InputError``.
    """
    w = np.asarray(w)
    if w.shape != (design.n_units,):
        raise InputError(f"assignment has length {w.size}, design has {design.n_units} units")
    if not np.isin(w, (0, 1)).all():
        raise InputError("assignment entries must be 0 or 1")
    for b, (start, k, t) in enumerate(_block_slices(design)):
        treated = int(w[start:start + k].sum())
        if treated != t:
            return f"{treated} treated units in block {b}, design declares {t}"
    return ""


def _require_assignment(design: Design, w) -> None:
    """Refuse, with ``InputError``, an observed assignment the design cannot draw."""
    if miscount := _miscount(design, w):
        raise InputError(miscount)


def assignment_probability(design: Design, w) -> float:
    """P(W = w) under the design: 1/total for valid w, 0 otherwise."""
    return float(assignment_probability_exact(design, w))


def assignment_probability_exact(design: Design, w) -> Fraction:
    """Exact rational assignment probability (for enumeration-based checks).

    A 0/1 vector of the design's length has probability 0 when a block's
    treated count differs from the design's; any other vector is refused.
    """
    if _miscount(design, w):
        return Fraction(0)
    return Fraction(1, total_assignments(design))
