"""Randomized assignment mechanisms: enumeration, sampling, and probabilities.

Two mechanisms are supported: the completely randomized design (``CRD``),
which treats a fixed number of units, and the randomized block design
(``RBD``), which treats a fixed number of units within each block.  An RBD
with a single block is observationally identical to a CRD.

Assignments are binary numpy vectors (1 = treatment, 0 = control).  The
enumeration order is fixed: treated-index sets in colexicographic order, and
for an RBD the product order over blocks with block 0 varying fastest.  This
order is part of the public contract so that golden results are stable.

A colex rank becomes a subset by one walk, the combinatorial number system
(:func:`_colex_units`): for i = t, ..., 2 the unit ``c`` is the largest with
C(c, i) at most what is left of the rank, found by ``searchsorted`` along a
row of an int64 binomial table, and what is left at the end is the last
unit.  A block that treats most of its units walks its complement at the
reversed rank.  The colex tables are this walk over all their ranks, and it
writes the short leaves of the enumeration and the sampled rows of blocks
too large for a table, in place.

Enumerated rows are written straight from that order's recurrence
(:func:`_range_to_assignments`): the t-subsets of ``range(n)`` are those of
``range(n-1)``, then those of size ``t-1`` with unit ``n-1`` added, so any
contiguous rank range is a few slice copies of small colex tables, walks of
at most two steps and fixed columns.  Each block of an RBD runs through
consecutive ranks, each repeated as often as the earlier blocks have
assignments, so its columns are filled pieces expanded by ``np.repeat``.
:func:`assignment_matrix` and the exact replicate source in
:mod:`randinf.randomization` both use it.  The same range splitting gives
rows' sums of unit columns with no row written (:class:`_UnitSums`): a
slice of a colex table's row sums, one small product per table and build,
plus the units every row of the slice treats.

Sampled rows come from one draw per run of blocks (:func:`_block_runs`).
A run of consecutive blocks whose joint count fits in 2**62 draws one int64
index, split into group ranks on int64, block 0 fastest.  A group is a
stretch of consecutive blocks of a run, merged while their units times their
joint count fit the table budget.  Its product table holds all of its
assignments in enumeration order, so rank ``m`` is row ``m``, and its rows
are one gather from that table (cached, read-only).  A block too large for a
table of its own is unranked by the walk, all rows at once, straight into
its columns of the rows.  A block whose own count is past 2**62 is
a run of its own, and draws its row by random keys.

Sampling is counter based: draw ``j`` of ``sample_assignments(design, k,
seed)`` depends only on ``(seed, j)``, so the first draws are the same for
every ``k``.  Each run draws from its own Philox streams, and each of its
draws is exactly uniform, by rejection:

- a run that fits reads rows of eight Philox words, each word masked to the
  bits of the run's count a candidate; the first one below the count is
  taken, so every row is decided on its first word, and only rows whose
  first word misses read the other seven;
- a block of ``n`` units past 2**62 reads rows of ``n`` words, one key a
  unit, and treats the ``t`` units of smallest key.  A row whose ``t``-th
  and ``(t+1)``-th smallest keys tie misses.  The keys are iid, so given no
  tie there every ``t``-subset is equally likely to hold the smallest.  The
  words are drawn a chunk of rows at a time, never ``k * n`` at once.

A row that misses is redrawn at the next attempt: attempt ``a`` of a run
gives the draws still missing, in order, the next rows of its stream.  Run
0's attempt 0 is keyed by the folded seed, and its attempt ``a`` by
``fold_seed((key_lo, key_hi, a))``; run ``r >= 1``'s attempt ``a`` by
``fold_seed((key_lo, key_hi, a, r))``.  (A trailing 0 would give no new key:
SeedSequence pads short entropy with zeros.)  This is the seed stream of
version 0.3.0.  A design of one run that fits in 2**62, which is every
design of at most 2**62 assignments, draws the bytes of stream 0.2.0.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Union

import numpy as np

from ._util import MAX_ARRAY_ENTRIES, InputError, fold_seed, is_integer, require_seed

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

# The largest count of a run of blocks that draws one int64 index: index
# arithmetic keeps headroom below 2**63.  A block past it draws by random keys.
_INT64_SAFE_TOTAL = 1 << 62

# Most Philox words drawn at once for the rows of a block past 2**62, and
# most bytes of its rows unpacked at once
_KEY_WORDS = 1 << 16

# Full enumeration is refused above this many assignments unless a caller
# passes its own cap.
DEFAULT_ENUMERATION_CAP = 2_000_000

# Largest colex or product table kept, in bytes (rows x units, int8); a
# longer piece of the enumeration order is split at its top unit first.
_TABLE_BYTES = 1 << 18

# Largest table of colex row sums made per build, in bytes (rows x sums x
# 8); the enumeration order is cut into leaves no longer than it.  Larger
# tables mean fewer leaves but more memory: at 512 KB those of one exact
# diff_means build on CRD(22,11) hold 2.9 MB.
_SUM_TABLE_BYTES = 1 << 16


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
# is {0, ..., k-1}.  One walk down a binomial table maps ranks to units: the
# colex tables, the small leaves of the enumeration and sampled blocks all
# read it.
# ---------------------------------------------------------------------------


def _binomial_table(n, k):
    """C(r, i) for i <= k <= n / 2 and r <= n, as a read-only int64 table.

    Built by the hockey-stick rule C(r, i) = sum of C(s, i - 1) over s < r, a
    cumulative sum of the row above.  Every entry, and so every partial sum,
    is at most C(n, k), which an unranked block keeps within 2**62.
    """
    table = np.zeros((k + 1, n + 1), dtype=np.int64)
    table[0] = 1
    for i in range(1, k + 1):
        np.cumsum(table[i - 1, :-1], out=table[i, 1:])
    table.flags.writeable = False
    return table


# at most 8 tables of at most _TABLE_BYTES each
_kept_binomial_table = lru_cache(maxsize=8)(_binomial_table)


def _colex_units(n, t, ranks):
    """Yield the units of the t-subsets of range(n) at the int64 colex ``ranks``.

    ``ranks`` lie below C(n, t) <= 2**62.  Yields ``min(t, n - t)`` index
    arrays, one entry a rank, largest unit first: the units each subset
    treats, or when ``2 * t > n`` the units it leaves off, walked as the
    complement, the (n - t)-subset of colex rank ``C(n, t) - 1 - rank``.
    The last unit is what is left of the rank, since C(c, 1) = c.
    """
    if 2 * t > n:
        t, ranks = n - t, (comb(n, t) - 1) - ranks
    if t > 1:
        kept = 8 * (t + 1) * (n + 1) <= _TABLE_BYTES
        table = (_kept_binomial_table if kept else _binomial_table)(n, t)
        for i in range(t, 1, -1):
            # table[i] is non-decreasing in r and C(r, i) = 0 for r < i, so
            # this is the largest c >= i - 1 with C(c, i) <= rank
            c = np.searchsorted(table[i], ranks, side="right") - 1
            yield c
            ranks = ranks - table[i, c]
    if t > 0:
        yield ranks


def _unrank_block_vectorized(out, n, t, ranks):
    """Write the t-subsets of range(n) at the int64 colex ``ranks`` into the (len(ranks), n) int8 view ``out``."""
    flip = 2 * t > n
    out[...] = flip
    rows = np.arange(len(ranks))
    for c in _colex_units(n, t, ranks):
        out[rows, c] = not flip


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


def _indices_to_assignments(design: Design, draws) -> np.ndarray:
    """Map the draws of :func:`_sample_indices` to assignment vectors.

    ``draws`` holds one array per run of :func:`_block_runs`: the int64
    ranks of a run that fits in 2**62, split into group ranks within the run
    (block 0 fastest), or the packed rows of a block past it, unpacked.  A
    group's rows are gathered from its :func:`_product_table` by rank; a
    block too large for a table is unranked by
    :func:`_unrank_block_vectorized`.
    """
    w = np.empty((len(draws[0]), design.n_units), dtype=np.int8)
    for (groups, _), m in zip(_block_runs(design), draws):
        if m.ndim == 2:  # the rows of one block past 2**62
            (start, ((k, _),), _), = groups
            step = max(1, 8 * _KEY_WORDS // k)
            for lo in range(0, len(m), step):
                w[lo:lo + step, start:start + k] = np.unpackbits(m[lo:lo + step], axis=1, count=k)
            continue
        for g, (start, blocks, g_total) in enumerate(groups):
            ranks = m
            if g < len(groups) - 1:
                m, ranks = np.divmod(m, g_total)
            units = sum(k for k, _ in blocks)
            if units * g_total <= _TABLE_BYTES:
                w[:, start:start + units] = np.take(_product_table(blocks), ranks, axis=0)
            else:
                (k, t), = blocks
                _unrank_block_vectorized(w[:, start:start + k], k, t, ranks)
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
    """
    m = t
    while (m + 1) * comb(m + 1, t) <= _TABLE_BYTES:
        m += 1
    table = np.empty((comb(m, t), m), dtype=np.int8)
    _unrank_block_vectorized(table, m, t, np.arange(len(table)))
    table.flags.writeable = False
    return table


def _colex_leaves(n, t, lo, hi, rows=_TABLE_BYTES):
    """Rows ``lo..hi-1`` of T(n, t), split into leaves that are written at once.

    Yields ``(first, n', t', lo', hi', on)``: rows ``first..first+hi'-lo'-1``
    of the range are rows ``lo'..hi'-1`` of T(n', t') in their first n'
    units, with the units of the list ``on`` treated and the other units from
    n' on left off.  A leaf treats at most two units, or leaves at most two
    untreated (a walk of :func:`_colex_units` of at most two steps), or its
    T(n', t') fits the table budget and has at most ``rows`` rows (a slice of
    :func:`_colex_table`).
    Above that, the leading units that every row leaves off, or the trailing
    ones that every row treats, are peeled at once (found by bisection), and
    a range that straddles C(n-1, t) is split there; the piece above is kept
    for later, so at most log2(hi - lo) + 1 pieces wait at a time.
    """
    pieces = [(0, n, t, lo, hi, [])]
    while pieces:
        first, n, t, lo, hi, on = pieces.pop()
        while True:
            total = comb(n, t)
            if min(t, n - t) <= 2 or (n * total <= _TABLE_BYTES and total <= rows):
                yield first, n, t, lo, hi, on
                break
            m = t + bisect_left(range(t, n + 1), hi, key=lambda r: comb(r, t))
            if m < n:  # rows below C(m, t) leave units m.. off
                n = m
                continue
            # rows in the last C(n-j, t-j) treat units n-j..
            j = bisect_right(range(t + 1), lo - total, key=lambda i: -comb(n - i, t - i)) - 1
            if j > 0:
                shift = total - comb(n - j, t - j)
                on = on + list(range(n - j, n))
                n, t, lo, hi = n - j, t - j, lo - shift, hi - shift
                continue
            split = comb(n - 1, t) - lo
            pieces.append((first + split, n - 1, t - 1, 0, hi - lo - split, on + [n - 1]))
            n, hi = n - 1, lo + split


class _UnitSums:
    """Row sums of unit columns over enumerated rows of one design block, no row written.

    ``columns`` is the block's (k, c) slice of the unit columns; it is kept
    transposed, so that each of its ``c`` sums runs along the rows.  Every
    subset sum of a column must be exact in any order (integers, or the
    layers of :func:`randinf.statistics._exact_layers`): the sums then have
    the same bits however they are taken.  A leaf with more than two units
    treated and untreated reads a slice of the row sums of a colex table of
    at most ``rows`` rows: one product, made on first use and kept with the
    object.  A smaller leaf adds the columns of the units
    :func:`_colex_units` walks.
    """

    def __init__(self, columns):
        self.columns = np.ascontiguousarray(columns.T)
        self.rows = max(1, _SUM_TABLE_BYTES // (8 * len(self.columns)))
        self._tables = {}

    def leaf(self, out, n, t, lo, hi, on):
        """Write the sums of a leaf of :func:`_colex_leaves` into the (c, hi - lo) view ``out``."""
        fixed = self.columns[:, on].sum(axis=1, keepdims=True)  # the units every row treats
        if min(t, n - t) > 2:
            np.add(self._table(t)[:, lo:hi], fixed, out=out)
            return
        out[...] = 0
        for u in _colex_units(n, t, np.arange(lo, hi)):
            out += self.columns.take(u, axis=1)
        if 2 * t > n:  # the rows treat all n units but the ones summed
            np.subtract(fixed + self.columns[:, :n].sum(axis=1, keepdims=True), out, out=out)
        else:
            out += fixed

    def _table(self, t):
        """The row sums of T(m, t) for the largest m whose table a leaf may read, (c, C(m, t))."""
        if t not in self._tables:
            m = min(_colex_table(t).shape[1], self.columns.shape[1])
            while comb(m, t) > self.rows:
                m -= 1
            self._tables[t] = self.columns[:, :m] @ _colex_table(t)[:comb(m, t), :m].T
        return self._tables[t]


def _unit_sums(design: Design, columns) -> list:
    """One :class:`_UnitSums` per block of ``design``, of the unit ``columns`` (n_units x c)."""
    return [_UnitSums(columns[start:start + k]) for start, k, _ in _block_slices(design)]


def _fill_colex(out, n, t, lo, hi, sums=None):
    """Write rows ``lo..hi-1`` of T(n, t) into the (hi - lo, n) int8 view ``out``.

    Given the block's :class:`_UnitSums` as ``sums``, ``out`` is a
    (hi - lo, c) float view instead, the transpose of a (c, hi - lo) one,
    and each row's column sums are written into it.  Each leaf of
    :func:`_colex_leaves` is unranked in place by
    :func:`_unrank_block_vectorized` or written as a colex table slice, or
    its sums are taken from the walk or the table's.
    """
    if sums is None:
        out[...] = 0
    for first, n, t, lo, hi, on in _colex_leaves(n, t, lo, hi, _TABLE_BYTES if sums is None else sums.rows):
        part = out[first:first + hi - lo]
        if sums is not None:
            sums.leaf(part.T, n, t, lo, hi, on)
            continue
        part[:, on] = 1
        if min(t, n - t) > 2:
            part[:, :n] = _colex_table(t)[lo:hi, :n]
        else:
            _unrank_block_vectorized(part[:, :n], n, t, np.arange(lo, hi))


def _fill_cyclic(out, k, t, r0, sums=None):
    """Write ranks r0, r0 + 1, ... of T(k, t), modulo C(k, t), into the rows of ``out``.

    ``out`` and ``sums`` are as for :func:`_fill_colex`.
    """
    count, total = out.shape[0], comb(k, t)
    head = min(count, total - r0)
    _fill_colex(out[:head], k, t, r0, r0 + head, sums)
    filled = min(count - head, total)
    if filled:
        _fill_colex(out[head:head + filled], k, t, 0, filled, sums)
    # past the wrap the rows repeat with period total: copy, doubling
    while head + filled < count:
        step = min(filled, count - head - filled)
        out[head + filled:head + filled + step] = out[head:head + step]
        filled += step


def _range_to_assignments(design: Design, lo: int, hi: int, sums=None) -> np.ndarray:
    """Rows ``lo..hi-1`` of the enumeration order as a (hi - lo, n_units) int8 matrix.

    Row ``i``'s block rank is ``(i // stride) % C(k, t)``, ``stride`` being
    the product of the earlier blocks' counts.  Over the range, a block thus
    runs through consecutive ranks modulo C(k, t), each repeated ``stride``
    times except where the range cuts a run: one filled piece per block,
    expanded by ``np.repeat``.

    Given the design's :func:`_unit_sums` as ``sums``, no row is written:
    the result is the rows' sums of the unit columns, a (c, hi - lo) float
    matrix, the blocks' sums added.
    """
    if sums is None:
        out = np.empty((hi - lo, design.n_units), dtype=np.int8)
    else:
        out = np.empty((len(sums[0].columns), hi - lo))
    stride = 1
    for b, (start, k, t) in enumerate(_block_slices(design)):
        b_total = comb(k, t)
        first, last = lo // stride, (hi - 1) // stride
        if sums is None:
            runs = out[:, start:start + k] if stride == 1 else np.empty((last - first + 1, k), dtype=np.int8)
            _fill_cyclic(runs, k, t, first % b_total)
        else:  # each sum runs along the rows, which are the second axis
            runs = out if stride == 1 else np.empty((len(out), last - first + 1))
            _fill_cyclic(runs.T, k, t, first % b_total, sums[b])
        if stride > 1:
            counts = np.full(last - first + 1, min(stride, hi - lo))
            counts[0] = min(hi, (first + 1) * stride) - lo
            counts[-1] = hi - max(lo, last * stride)
            if sums is None:
                out[:, start:start + k] = np.repeat(runs, counts, axis=0)
            else:
                out += np.repeat(runs, counts, axis=1)
        stride *= b_total
    return out


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


def _stream_key(key: int, run: int, attempt: int) -> int:
    """The Philox key of one attempt of one run of blocks, from the folded seed ``key``."""
    if run == attempt == 0:
        return key
    words = (key & ((1 << 64) - 1), key >> 64, attempt)
    return fold_seed(words + (run,) if run else words)


def _ranks(gen, count: int, total: int):
    """``count`` candidate ranks below ``total`` <= 2**62 from ``gen``, and which of them hit.

    Each reads a row of eight words masked to the bits of ``total``, taking
    the first one below it; only rows whose first word misses read the rest.
    """
    top = np.uint64((1 << total.bit_length()) - 1)
    rows = gen.random_raw(count * 8).reshape(-1, 8)
    got = (rows[:, 0] & top).astype(np.int64)
    hit = got < total
    miss = np.flatnonzero(~hit)
    if miss.size:
        cand = (rows[miss, 1:] & top).astype(np.int64)
        ok = cand < total
        got[miss] = cand[np.arange(miss.size), np.argmax(ok, axis=1)]
        hit[miss] = ok.any(axis=1)
    return got, hit


def _key_rows(gen, count: int, n: int, t: int):
    """``count`` candidate rows of a block of ``n`` units treating ``t``, packed, and which of them hit.

    Each reads ``n`` words from ``gen``, one key a unit, and treats the units
    whose keys are at most the ``t``-th smallest: exactly ``t`` of them, and
    a hit, unless the ``(t+1)``-th smallest key ties the ``t``-th.
    """
    packed = np.empty((count, (n + 7) // 8), dtype=np.uint8)
    hit = np.empty(count, dtype=bool)
    chunk = max(1, _KEY_WORDS // n)
    for lo in range(0, count, chunk):
        keys = gen.random_raw(min(chunk, count - lo) * n).reshape(-1, n)
        treated = keys <= np.partition(keys, t - 1, axis=1)[:, t - 1:t]
        hit[lo:lo + len(keys)] = np.count_nonzero(treated, axis=1) == t
        packed[lo:lo + len(keys)] = np.packbits(treated, axis=1)
    return packed, hit


def _sample_indices(design: Design, k: int, seed) -> list:
    """k iid uniform draws, as one array per run of :func:`_block_runs`; draw j depends only on (seed, j).

    A run that fits in 2**62 gives its draws' int64 ranks, and a block past
    it their rows, ``ceil(n / 8)`` bytes each (``np.packbits``).  Each run
    draws by rejection from its own streams (see the module docstring); a
    retry's row depends on the draws missing before j, hence on (seed, j).
    """
    key = fold_seed(seed)
    draws = []
    for run, (groups, total) in enumerate(_block_runs(design)):
        if total <= _INT64_SAFE_TOTAL:
            out, candidates, shape = np.empty(k, dtype=np.int64), _ranks, (total,)
        else:
            (_, ((n, t),), _), = groups
            out, candidates, shape = np.empty((k, (n + 7) // 8), dtype=np.uint8), _key_rows, (n, t)
        missing, attempt = np.arange(k), 0
        while missing.size:
            gen = np.random.Philox(key=_stream_key(key, run, attempt))
            got, hit = candidates(gen, missing.size, *shape)
            out[missing] = got  # a miss is written over by a later attempt
            missing, attempt = missing[~hit], attempt + 1
        draws.append(out)
    return draws


def sample_assignments(design: Design, k: int, seed) -> np.ndarray:
    """Draw ``k`` iid uniform assignments with replacement, as a (k, n) matrix.

    Fully reproducible: draw ``j`` is a pure function of ``(seed, j)``, so the
    first ``m`` draws are the same for every ``k >= m``.  Each run of blocks
    whose joint count fits in 2**62 draws a uniform int64 index into its
    space, unranked into that run's part of the row of
    :func:`assignment_matrix` at that index; a block past 2**62 treats the
    units of smallest random key.  Every draw is exactly uniform, by
    rejection, from Philox streams of the folded seed, one set a run: seed
    stream 0.3.0 (see the module docstring), which draws the bytes of 0.2.0
    for every design of at most 2**62 assignments.  ``k`` is an integer >=
    1, and ``seed`` a non-negative integer or a tuple of them.
    """
    _require_draws(k, seed)
    return _indices_to_assignments(design, _sample_indices(design, k, seed))


def _require_draws(k, seed) -> None:
    """Refuse, with ``InputError``, a draw count ``k`` that is not an integer >= 1,
    one past the draws numpy can size an index array of, and a seed that
    :func:`randinf._util.require_seed` refuses."""
    if not (is_integer(k) and k >= 1):
        raise InputError(f"Monte Carlo sample size k must be an integer >= 1, got {k!r}")
    if k > MAX_ARRAY_ENTRIES:
        raise InputError(f"Monte Carlo sample size k must be at most {MAX_ARRAY_ENTRIES}, the most "
                         f"draws numpy can size an array of, got {k!r}")
    require_seed(seed, "the Monte Carlo seed")


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
