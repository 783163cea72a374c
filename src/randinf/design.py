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
past 2**62), and into block ranks within the run on int64, block 0 fastest.
A block whose T(k, t) fits the colex table budget is read off that table by
rank.  Any other block is unranked by a ``searchsorted`` walk down a cached
binomial table, all rows at once: on exact Python ints (numpy ``object``
arrays) while a rank may exceed 2**62, on int64 from the step where every
rank fits.

Sampling is counter based: draw ``j`` of ``sample_assignments(design, k,
seed)`` depends only on ``(seed, j)``, never on ``k`` or on which other draws
were made, so results are reproducible regardless of batching or parallelism.
Each draw is an exact uniform index, by rejection against the power of two
above the space size.  Row ``j`` of a counter-based Philox block gives eight
64-bit words: for a space of at most 2**62 they are eight candidates, the
first one below the size taken; up to 512 bits they are one candidate, read
as one integer.  A draw whose candidates all miss, and every draw past 512
bits, reads the stream of its own PCG64 generator seeded from ``(seed, j)``
(:func:`_fallback_indices`, which computes those streams for all such draws
at once).
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Union

import numpy as np

from ._util import fold_seed

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

# Largest colex table kept, in bytes (rows x units, int8); a longer piece of
# the enumeration order is split at its top unit first.
_TABLE_BYTES = 1 << 18


class EnumerationCapError(RuntimeError):
    """Raised when full enumeration would exceed the caller's cap."""


@dataclass(frozen=True)
class CRD:
    """Completely randomized design: ``n_treated`` of ``n_units`` get treatment."""

    n_units: int
    n_treated: int

    def __post_init__(self):
        if not (0 < self.n_treated < self.n_units):
            raise ValueError(
                f"CRD requires 0 < n_treated < n_units, got ({self.n_units}, {self.n_treated})"
            )

    @property
    def blocks(self):
        return ((self.n_units, self.n_treated),)


@dataclass(frozen=True)
class RBD:
    """Randomized block design: per block ``(size, treated)`` with 0 < treated < size."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((int(k), int(t)) for k, t in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks:
            raise ValueError("RBD requires at least one block")
        for k, t in blocks:
            if not (0 < t < k):
                raise ValueError(f"block requires 0 < treated < size, got ({k}, {t})")

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
    """
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
    """Runs of consecutive blocks whose joint count fits in 2**62, with that count.

    Each run is a list of (start, size, treated, count); a block past 2**62
    is a run of its own.
    """
    runs, run, run_total = [], [], 1
    for start, k, t in _block_slices(design):
        b_total = comb(k, t)
        if run and run_total * b_total > _INT64_SAFE_TOTAL:
            runs.append((run, run_total))
            run, run_total = [], 1
        run.append((start, k, t, b_total))
        run_total *= b_total
    runs.append((run, run_total))
    return runs


def _indices_to_assignments(design: Design, idx: np.ndarray) -> np.ndarray:
    """Map global assignment indices to assignment vectors (block 0 fastest).

    ``idx`` is int64, or object (Python ints) for spaces past 2**62.  It is
    split once per run of blocks whose joint count fits in 2**62 (one object
    ``%`` and ``//`` each), and into block ranks within the run on int64.
    A block whose T(k, t) fits the colex table budget is read off
    :func:`_colex_table` by rank; any other is unranked by
    :func:`_unrank_block_vectorized`.
    """
    w = np.empty((idx.size, design.n_units), dtype=np.int8)
    rem = idx
    runs = _block_runs(design)
    for g, (run, run_total) in enumerate(runs):
        m = rem
        if g < len(runs) - 1:
            m, rem = rem % run_total, rem // run_total
        if run_total <= _INT64_SAFE_TOTAL:
            m = m.astype(np.int64, copy=False)
        for b, (start, k, t, b_total) in enumerate(run):
            ranks = m
            if b < len(run) - 1:
                m, ranks = np.divmod(m, b_total)
            if k * b_total <= _TABLE_BYTES:
                w[:, start:start + k] = _colex_table(t)[ranks, :k]
            else:
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


def _philox_words(seed, k: int) -> np.ndarray:
    """(k, 8) uint64 block of counter-based random words; row j is f(seed, j)."""
    key = fold_seed(seed)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.integers(0, 1 << 64, size=(k, 8), dtype=np.uint64, endpoint=False)


# np.random.SeedSequence's hash constants (uint32 arithmetic) and PCG64's
# 128-bit LCG multiplier, for replaying a per-draw generator on arrays.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(0xFFFFFFFF)


def _uint32_words(n: int) -> list:
    """The uint32 words SeedSequence makes of a non-negative int, least significant first."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _seed_sequence_state(entropy: list) -> list:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for columns of uint32 entropy words.

    ``entropy`` is a list of equal-length uint32 arrays, word by word; the
    result is four uint64 arrays, one state word each, one entry per row.
    """
    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _SS_INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _SS_MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [state[2 * i] | state[2 * i + 1] << np.uint64(32) for i in range(4)]


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, on uint64 halves."""
    m_hi, m_lo = np.uint64(_PCG64_MULT >> 64), _PCG64_MULT & ((1 << 64) - 1)
    b0, b1 = np.uint64(m_lo & 0xFFFFFFFF), np.uint64(m_lo >> 32)
    # lo * m_lo in full from 32-bit halves; the cross terms wrap into the top half
    a0, a1 = lo & _LOW32, lo >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    new_lo = ((mid << np.uint64(32)) | (p00 & _LOW32)) + inc_lo
    new_hi = (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))
              + hi * np.uint64(m_lo) + lo * m_hi + inc_hi + (new_lo < inc_lo))
    return new_hi, new_lo


def _fallback_indices(seed, draws: np.ndarray, total: int) -> np.ndarray:
    """Exact uniform indices on [0, total) for the draw numbers ``draws``, as an object array.

    Draw ``j`` reads the uint32 stream of its own generator,
    ``np.random.default_rng((key_lo, key_hi, j, 0xFA11BACC))`` with ``key``
    the folded seed: each attempt takes ``ceil(bits / 32)`` words, the first
    most significant, keeps the low ``bits`` bits and is taken when below
    ``total``.  Every draw's SeedSequence and PCG64 stream (XSL-RR output,
    low 32 bits first) is computed here at once, on arrays, and only the draws
    still missing are retried.
    """
    key = fold_seed(seed)
    prefix = _uint32_words(key & ((1 << 64) - 1)) + _uint32_words(key >> 64)
    draws = np.asarray(draws, dtype=np.uint64)
    wide = draws >> np.uint64(32) != 0  # j >= 2**32 is two entropy words
    rows, states = [], []
    for is_wide in (False, True):
        part = np.flatnonzero(wide == is_wide)
        if part.size:
            j = draws[part]
            j_words = [j & _LOW32, j >> np.uint64(32)] if is_wide else [j]
            columns = [np.full(part.size, w, dtype=np.uint32) for w in prefix]
            columns += [w.astype(np.uint32) for w in j_words]
            columns.append(np.full(part.size, 0xFA11BACC, dtype=np.uint32))
            rows.append(part)
            states.append(_seed_sequence_state(columns))
    rows = np.concatenate(rows)
    seed_hi, seed_lo, seq_hi, seq_lo = (np.concatenate(s) for s in zip(*states))
    # pcg64 seeding: inc = 2 * seq + 1, state = inc; state += seed; one step
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi, lo = _pcg64_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)

    bits = total.bit_length()
    words = (bits + 31) // 32
    out = np.empty(draws.size, dtype=object)
    spare = []  # the high half of the last output, when an attempt ended mid-output
    while rows.size:
        pieces = spare
        while len(pieces) < words:
            hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
            x = hi ^ lo
            rot = hi >> np.uint64(58)
            x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
            pieces = pieces + [x & _LOW32, x >> np.uint64(32)]
        pieces, spare = pieces[:words], pieces[words:]
        cand = np.zeros(rows.size, dtype=object)
        for piece in pieces:
            cand = (cand << 32) | piece.astype(object)
        cand &= (1 << bits) - 1
        hit = cand < total
        out[rows[hit]] = cand[hit]
        miss = ~hit
        rows, hi, lo, inc_hi, inc_lo = rows[miss], hi[miss], lo[miss], inc_hi[miss], inc_lo[miss]
        spare = [s[miss] for s in spare]
    return out


def _sample_indices(design: Design, k: int, seed) -> np.ndarray:
    """k iid uniform assignment indices; entry j depends only on (seed, j).

    int64 for spaces of at most 2**62 assignments, object (Python ints) past it.
    """
    total = total_assignments(design)
    bits = total.bit_length()
    if bits > 512:
        return _fallback_indices(seed, np.arange(k), total)
    words = _philox_words(seed, k)
    if total <= _INT64_SAFE_TOTAL:
        # eight candidates per draw; the first one below total is taken
        cand = (words & np.uint64((1 << bits) - 1)).astype(np.int64)
        ok = cand < total
        idx = cand[np.arange(k), np.argmax(ok, axis=1)]
        missed = ~ok.any(axis=1)
    else:
        # one candidate per draw: the low `bits` bits of the row's eight words
        # read as one 512-bit integer, word 0 most significant
        idx = np.zeros(k, dtype=object)
        for col in words[:, 8 - (bits + 63) // 64 :].T:
            idx = (idx << 64) | col.astype(object)
        idx &= (1 << bits) - 1
        missed = idx >= total
    missed = np.flatnonzero(missed)
    if missed.size:
        idx[missed] = _fallback_indices(seed, missed, total)
    return idx


def sample_assignments(design: Design, k: int, seed) -> np.ndarray:
    """Draw ``k`` iid uniform assignments with replacement, as a (k, n) matrix.

    Fully reproducible: draw ``j`` is a pure function of ``(seed, j)``, so the
    result is byte-identical however the draws are batched or parallelized.
    Each draw is a uniform index into the space, unranked into the row of
    :func:`assignment_matrix` at that index.  Indices are int64 while the space
    has at most 2**62 assignments and exact Python ints past it; even then a
    block whose own space fits is unranked on int64.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _indices_to_assignments(design, _sample_indices(design, k, seed))


def _satisfies(design: Design, w: np.ndarray) -> bool:
    for start, k, t in _block_slices(design):
        if int(w[start : start + k].sum()) != t:
            return False
    return True


def assignment_probability(design: Design, w) -> float:
    """P(W = w) under the design: 1/total for valid w, 0 otherwise."""
    return float(assignment_probability_exact(design, w))


def assignment_probability_exact(design: Design, w) -> Fraction:
    """Exact rational assignment probability (for enumeration-based checks)."""
    w = np.asarray(w)
    if w.shape != (design.n_units,):
        raise ValueError(f"assignment has length {w.size}, design has {design.n_units} units")
    if not _satisfies(design, w):
        return Fraction(0)
    return Fraction(1, total_assignments(design))
