"""Assignment mechanisms: counts, enumeration order, sampling, probabilities."""

import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest

from randinf import (
    CRD,
    RBD,
    EnumerationCapError,
    assignment_matrix,
    assignment_probability,
    assignment_probability_exact,
    sample_assignments,
    total_assignments,
)
from randinf import cli as cli_mod
from randinf import design as design_mod
from randinf import randomization as randomization_mod
from randinf.design import (
    _block_runs,
    _colex_table,
    _indices_to_assignments,
    _product_table,
    _range_to_assignments,
    _unrank_block_vectorized,
)
from randinf._util import fold_seed
from scipy.stats import chi2
from conftest import replay_key_rows, stream_key
import golden


class TestConstruction:
    def test_crd_bounds(self):
        with pytest.raises(ValueError):
            CRD(10, 0)
        with pytest.raises(ValueError):
            CRD(10, 10)

    def test_rbd_bounds(self):
        with pytest.raises(ValueError):
            RBD(((4, 0),))
        with pytest.raises(ValueError):
            RBD(((4, 4),))
        with pytest.raises(ValueError):
            RBD(())

    def test_rbd_unit_total(self):
        assert RBD(((8, 4), (6, 3))).n_units == 14


class TestTotals:
    def test_crd_10_5(self):
        assert total_assignments(CRD(10, 5)) == 252

    def test_crd_2_1(self):
        assert total_assignments(CRD(2, 1)) == 2

    def test_rbd_product(self):
        assert total_assignments(RBD(((8, 4), (8, 4)))) == 4900

    def test_big_integer_exact(self):
        # the hundred-unit balanced space has ~1e29 assignments; must not overflow
        assert total_assignments(CRD(100, 50)) == 100891344545564193334812497256

    def test_single_block_rbd_matches_crd(self):
        assert total_assignments(RBD(((10, 5),))) == total_assignments(CRD(10, 5))


def _colex(n, t):
    """Oracle: every t-subset of range(n), in colex order."""
    return sorted(itertools.combinations(range(n), t), key=lambda c: c[::-1])


def _oracle_matrix(design):
    """Oracle: the product of per-block colex orders, block 0 varying fastest."""
    rows = []
    for combo in itertools.product(*[_colex(k, t) for k, t in reversed(design.blocks)]):
        row = []
        for (k, _), subset in zip(design.blocks, reversed(combo)):
            row += [int(j in subset) for j in range(k)]
        rows.append(row)
    return np.array(rows, dtype=np.int8)


def _colex_rank(subset):
    return sum(comb(int(c), i) for i, c in enumerate(subset, start=1))


class TestEnumeration:
    def test_crd_4_2_colex_order(self):
        assigns = assignment_matrix(CRD(4, 2))
        assert assigns.shape == (6, 4)
        np.testing.assert_array_equal(assigns[0], [1, 1, 0, 0])
        treated_sets = [tuple(np.nonzero(a)[0]) for a in assigns]
        assert treated_sets == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]

    def test_crd_10_5_count(self):
        assert assignment_matrix(CRD(10, 5)).shape == (252, 10)

    def test_rbd_2x2(self):
        assigns = assignment_matrix(RBD(((2, 1), (2, 1))))
        assert len(assigns) == 4
        assert all(a[:2].sum() == 1 and a[2:].sum() == 1 for a in assigns)
        # block 0 varies fastest
        np.testing.assert_array_equal(
            assigns, [[1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]]
        )

    def test_each_assignment_once(self):
        assigns = assignment_matrix(CRD(7, 3))
        assert len(assigns) == 35
        assert len({tuple(a.tolist()) for a in assigns}) == 35

    def test_cap_exceeded(self):
        with pytest.raises(EnumerationCapError):
            assignment_matrix(CRD(30, 15), cap=1000)

    def test_matrix_matches_colex_oracle(self):
        for design in (CRD(6, 3), CRD(7, 5), RBD(((4, 2), (3, 1))), RBD(((3, 1), (4, 2), (2, 1)))):
            np.testing.assert_array_equal(assignment_matrix(design), _oracle_matrix(design))

    def test_matrix_matches_itertools_set(self):
        # brute-force oracle: colex enumeration hits exactly the k-subsets
        mat = assignment_matrix(CRD(8, 3))
        got = {tuple(np.nonzero(r)[0]) for r in mat}
        want = set(itertools.combinations(range(8), 3))
        assert got == want

    def test_unbalanced_majority_treated(self):
        # binomials above the treated count can overflow naive tables
        mat = assignment_matrix(CRD(12, 9))
        assert mat.shape == (220, 12)
        assert (mat.sum(axis=1) == 9).all()
        assert len({tuple(r) for r in mat.tolist()}) == 220

    def test_one_enumeration_cap(self):
        for module in (randomization_mod, cli_mod):
            assert module.DEFAULT_ENUMERATION_CAP is design_mod.DEFAULT_ENUMERATION_CAP
        with pytest.raises(EnumerationCapError):
            assignment_matrix(CRD(24, 12))  # 2,704,156 rows
        assert randomization_mod.ExactMode().cap == design_mod.DEFAULT_ENUMERATION_CAP

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            randomization_mod.ExactMode(cap)

    @pytest.mark.parametrize("n, t", [(1500, 2), (1500, 1498), (20000, 1)])
    def test_wide_ranges_equal_unranked_rows_in_bounded_memory(self, n, t):
        # 2^10-row ranges at the start, middle and end of each order; beyond
        # the rows themselves, peak memory stays under 2 MB, any colex table
        # built on the way included
        design, total = CRD(n, t), comb(n, t)
        for lo in (0, total // 2, total - 1024):
            _colex_table.cache_clear()
            tracemalloc.start()
            try:
                rows = _range_to_assignments(design, lo, lo + 1024)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - rows.nbytes < 2 << 20
            want = _indices_to_assignments(design, [np.arange(lo, lo + 1024)])
            np.testing.assert_array_equal(rows, want)
            # both read the same walk, so each row's rank is checked on its own
            assert [_colex_rank(np.nonzero(r)[0]) for r in rows] == list(range(lo, lo + 1024))

    def test_colex_tables_match_colex_oracle(self):
        for n in range(1, 13):
            for t in range(n + 1):
                want = np.array([[int(j in s) for j in range(n)] for s in _colex(n, t)], dtype=np.int8)
                np.testing.assert_array_equal(_colex_table(t)[:comb(n, t), :n], want)


def _unranked(n, t, ranks):
    """The rows :func:`_unrank_block_vectorized` writes for ``ranks`` into a view of a wider matrix.

    The columns either side of the view must keep their fill.
    """
    rows = np.full((len(ranks), n + 2), 7, dtype=np.int8)
    _unrank_block_vectorized(rows[:, 1:-1], n, t, np.asarray(ranks, dtype=np.int64))
    assert (rows[:, [0, -1]] == 7).all()
    return rows[:, 1:-1]


def _spread_ranks(total, seed):
    """Both ends, the middle and 20 seeded ranks of [0, total)."""
    rng = np.random.default_rng(seed)
    ranks = [0, 1, total // 2, total - 2, total - 1]
    return ranks + [int(x) * total // (1 << 62) for x in rng.integers(0, 1 << 62, size=20)]


class TestUnranker:
    @pytest.mark.parametrize("n, t", [(1, 1), (4, 2), (6, 1), (7, 3), (8, 5), (9, 8)])
    def test_ranks_match_colex_oracle(self, n, t):
        ranks = np.arange(comb(n, t))
        oracle = _colex(n, t)
        want = np.array([[int(j in oracle[m]) for j in range(n)] for m in ranks], dtype=np.int8)
        np.testing.assert_array_equal(_unranked(n, t, ranks), want)

    @pytest.mark.parametrize("n, t", [(64, 32), (65, 32), (65, 37), (1500, 7)])
    def test_ranks_up_to_2_62_invert_the_rank(self, n, t):
        # the largest blocks that still draw an int64 index: every binomial
        # of the table, and so every partial sum it is built from, fits
        total = comb(n, t)
        assert (1 << 60) < total <= design_mod._INT64_SAFE_TOTAL
        ranks = _spread_ranks(total, n)
        rows = _unranked(n, t, ranks)
        assert (rows.sum(axis=1) == t).all()
        assert [_colex_rank(np.nonzero(r)[0]) for r in rows] == ranks

    @pytest.mark.parametrize("n, t", [(400, 398), (40, 30), (62, 40), (3000, 2995)])
    def test_majority_treated_blocks_invert_the_rank(self, n, t):
        # too large for the colex table, so sampling unranks these blocks, by
        # their complements
        total = comb(n, t)
        assert n * total > design_mod._TABLE_BYTES and total <= design_mod._INT64_SAFE_TOTAL
        ranks = _spread_ranks(total, n + t)
        rows = _unranked(n, t, ranks)
        assert rows.dtype == np.int8 and (rows.sum(axis=1) == t).all()
        assert [_colex_rank(np.nonzero(r)[0]) for r in rows] == ranks


class TestProductTables:
    # groups of 3, 3, 3 and 1 blocks; of 2 and 1; one that fills the table
    # budget exactly (32 units x 8^3 x 4^2 = 2^18 bytes), then one more; a
    # block too large for a table between small ones; three int64 runs
    GROUPED = {
        RBD(((6, 3),) * 10): [3, 3, 3, 1],
        RBD(((8, 4),) * 3): [2, 1],
        RBD(((8, 1),) * 3 + ((4, 1),) * 2 + ((2, 1),)): [5, 1],
        RBD(((6, 3), (6, 3), (20, 10), (6, 3), (6, 3))): [2, 1, 2],
        RBD(((6, 3),) * 30): [3, 3, 3, 3, 2, 3, 3, 3, 3, 2, 2],
        CRD(16, 8): [1],
    }

    def test_groups_cover_the_blocks_in_order(self):
        for design, sizes in self.GROUPED.items():
            groups = [g for run_groups, _ in _block_runs(design) for g in run_groups]
            assert [len(blocks) for _, blocks, _ in groups] == sizes
            assert [b for _, blocks, _ in groups for b in blocks] == list(design.blocks)
            units = 0
            for start, blocks, count in groups:
                assert start == units and count == total_assignments(RBD(blocks))
                units += sum(k for k, _ in blocks)

    def test_cached_tables_are_read_only_bounded_and_enumerated(self):
        _product_table.cache_clear()
        tables = set()
        for design in self.GROUPED:
            _indices_to_assignments(design, [np.arange(5)] * len(_block_runs(design)))
            for run_groups, _ in _block_runs(design):
                for _, blocks, count in run_groups:
                    if sum(k for k, _ in blocks) * count <= design_mod._TABLE_BYTES:
                        tables.add(blocks)
        info = _product_table.cache_info()
        assert info.maxsize == 16 and info.currsize == len(tables) <= 16
        full = ((8, 1),) * 3 + ((4, 1),) * 2
        assert full in tables and _product_table(full).nbytes == design_mod._TABLE_BYTES
        for blocks in tables:
            table = _product_table(blocks)
            assert not table.flags.writeable and table.nbytes <= design_mod._TABLE_BYTES
            total = total_assignments(RBD(blocks))
            np.testing.assert_array_equal(table, _range_to_assignments(RBD(blocks), 0, total))


def _chi_square(design, k, seed):
    """Pearson's statistic of ``k`` seeded draws over every cell of the design's space."""
    index = {row: i for i, row in enumerate(map(tuple, assignment_matrix(design).tolist()))}
    cells = np.bincount([index[row] for row in map(tuple, sample_assignments(design, k, seed).tolist())],
                        minlength=len(index))
    expected = k / len(index)
    return float(((cells - expected) ** 2 / expected).sum())


class TestSampling:
    def test_constraint_satisfied(self):
        draws = sample_assignments(CRD(10, 5), 3, seed=7)
        assert (draws.sum(axis=1) == 5).all()

    def test_rbd_block_constraint(self):
        draws = sample_assignments(RBD(((4, 2),)), 1, seed=99)
        assert draws[0].sum() == 2

    def test_empirical_frequency_crd_2_1(self):
        # binomial tolerance at four standard errors
        draws = sample_assignments(CRD(2, 1), 10_000, seed=2024)
        freq = float((draws[:, 0] == 1).mean())
        assert abs(freq - 0.5) < 0.02

    def test_deterministic_byte_for_byte(self):
        a = sample_assignments(CRD(12, 4), 50, seed=5)
        b = sample_assignments(CRD(12, 4), 50, seed=5)
        assert a.tobytes() == b.tobytes()

    def test_draw_depends_only_on_seed_and_index(self):
        # prefix stability: batching cannot change earlier draws
        long = sample_assignments(CRD(9, 4), 40, seed=31)
        short = sample_assignments(CRD(9, 4), 7, seed=31)
        np.testing.assert_array_equal(long[:7], short)

    def test_seed_changes_stream(self):
        a = sample_assignments(CRD(10, 5), 20, seed=1)
        b = sample_assignments(CRD(10, 5), 20, seed=2)
        assert not np.array_equal(a, b)

    def test_prefix_stable_past_int64(self):
        # random-key rows, three runs of int64 ranks, and runs of each kind
        # keep the (seed, j) contract too
        for design in (CRD(100, 50), RBD(((6, 3),) * 30), RBD(((70, 35), (6, 3)) * 4)):
            long = sample_assignments(design, 400, seed=31)
            for m in (1, 7, 143):
                np.testing.assert_array_equal(long[:m], sample_assignments(design, m, seed=31))

    def test_huge_space(self):
        draws = sample_assignments(CRD(135, 72), 4, seed=0)
        assert (draws.sum(axis=1) == 72).all()

    def test_uniformity_chi_square(self):
        # goodness of fit over the ten cells of CRD(5, 2), seeded
        assert _chi_square(CRD(5, 2), 5000, seed=77) < chi2.ppf(0.999, 9)

    @pytest.mark.parametrize("design, limit, kinds", [
        (CRD(6, 3), 10, ["keys"]),
        (CRD(7, 2), 10, ["keys"]),
        (RBD(((3, 1), (3, 1), (2, 1))), 3, ["ranks"] * 3),
        (RBD(((4, 2), (2, 1), (2, 1), (3, 2))), 5, ["keys", "ranks", "ranks"]),
    ], ids=["crd_6_3_keys", "crd_7_2_keys", "three_runs", "keys_and_runs"])
    def test_uniform_down_each_path(self, monkeypatch, design, limit, kinds):
        # a lowered 2**62 sends small designs down the random-key path and
        # into several runs; every cell of the space stays equally likely
        monkeypatch.setattr(design_mod, "_INT64_SAFE_TOTAL", limit)
        assert [("ranks" if count <= limit else "keys") for _, count in _block_runs(design)] == kinds
        cells = total_assignments(design)
        assert _chi_square(design, 250 * cells, seed=77) < chi2.ppf(0.999, cells - 1)

    def test_tied_keys_are_redrawn(self, monkeypatch):
        # with keys of two bits, most rows of CRD(6, 3) tie at the third and
        # fourth smallest key; each is redrawn from the next attempt's stream,
        # so the rows equal the scalar replay and stay uniform
        real = np.random.Philox

        class TwoBitPhilox:
            def __init__(self, key):
                self._gen = real(key=key)

            def advance(self, delta):
                self._gen.advance(delta)

            def random_raw(self, size):
                return self._gen.random_raw(size) & np.uint64(3)

        monkeypatch.setattr(design_mod, "_INT64_SAFE_TOTAL", 10)
        monkeypatch.setattr(np.random, "Philox", TwoBitPhilox)
        with mock.patch.object(np.random, "Philox", wraps=TwoBitPhilox) as philox:
            rows = sample_assignments(CRD(6, 3), 60, seed=5)
        assert philox.call_count > 3
        assert [set(np.flatnonzero(r)) for r in rows] == replay_key_rows(5, 60, 6, 3)
        assert _chi_square(CRD(6, 3), 5000, seed=77) < chi2.ppf(0.999, 19)

    def test_run_and_attempt_keys_all_differ(self):
        # SeedSequence pads short entropy with zeros, so a fold with a
        # trailing 0 is no new key; run r >= 1 folds (lo, hi, a, r), never 0
        assert fold_seed((5, 0, 1)) == fold_seed((5, 0, 1, 0))
        for seed in (0, 5, 11, (3, 5), (1 << 64) + 12345, (1 << 128) - 1, (1 << 70, 1)):
            key = fold_seed(seed)
            keys = [design_mod._stream_key(key, run, attempt) for run in range(20) for attempt in range(20)]
            assert len(set(keys)) == len(keys)
            assert keys[:20] == [stream_key(seed, 0, attempt) for attempt in range(20)]

    def test_no_generator_per_draw(self):
        # draws whose eight words all miss (at seed 3, a few in runs 0, 9 and
        # 14 of the 15 of RBD 200x(6, 3)) are retried together: exactly one
        # Philox stream an attempt of a run, the runs in order, never a
        # generator a draw; the key rows of CRD(100, 50) do not tie here
        for design, k, retried in ((RBD(((6, 3),) * 200), 1000, True), (RBD(((6, 3),) * 10), 1000, True),
                                   (CRD(100, 50), 1000, False)):
            with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as made, \
                    mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as philox:
                sample_assignments(design, k, seed=3)
            assert made.call_count == 0
            runs = len(_block_runs(design))
            stream = {stream_key(3, run, attempt): (run, attempt) for run in range(runs) for attempt in range(30)}
            made_keys = [stream[call.kwargs["key"]] for call in philox.call_args_list]
            attempts = Counter(run for run, _ in made_keys)
            assert set(attempts) == set(range(runs))
            assert made_keys == [(run, attempt) for run in range(runs) for attempt in range(attempts[run])]
            assert (len(made_keys) > runs) == retried

    def test_key_rows_equal_scalar_replay(self):
        # a block past 2**62 treats the units of its 50 smallest Philox keys
        for seed in (31, (3, 5)):
            rows = sample_assignments(CRD(100, 50), 12, seed)
            assert [set(np.flatnonzero(r)) for r in rows] == replay_key_rows(seed, 12, 100, 50)

    def test_seeds_past_64_bit_elements_and_2_128_keep_every_bit(self):
        # elements of 2**64 or more and ints of 2**128 or more are split into
        # words, not cut to their low 64 bits; smaller ones keep their keys
        assert fold_seed(2**128 + 5) != fold_seed(2**129 + 5)
        assert fold_seed((2**64 + 1, 2)) != fold_seed((1, 2))
        assert fold_seed(11) == 11 and fold_seed((1 << 64) + 12345) == (1 << 64) + 12345
        assert fold_seed((3, 5)) == fold_seed((np.uint64(3), np.int64(5)))
        a, b = (sample_assignments(CRD(10, 5), 20, seed) for seed in (2**128 + 5, 2**129 + 5))
        assert not np.array_equal(a, b)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_assignments(CRD(4, 2), 0, seed=1)


# SHA-256 of sample_assignments(design, 40, seed).tobytes(), recorded at seed
# stream 0.3.0; crd_64_32's is also that of 0.2.0 and of the sampler before
# it was vectorized: a change here is a seed-stream change.
GOLDEN_DESIGNS = {
    "crd_100_50": CRD(100, 50),
    "crd_200_100": CRD(200, 100),
    "crd_135_72": CRD(135, 72),
    "crd_66_33": CRD(66, 33),  # just above 2**62 assignments
    "crd_64_32": CRD(64, 32),  # just below 2**62 assignments
    "rbd_30x6_3": RBD(((6, 3),) * 30),
    "rbd_mixed": RBD(((70, 35), (6, 3)) * 4),
    "rbd_200x6_3": RBD(((6, 3),) * 200),  # index wider than 512 bits
    # 17 * 2**40 and 17 * 2**63 assignments: about half of the candidates
    # miss, so some draws retry several times
    "rbd_17_1_2x40": RBD(((17, 1),) + ((2, 1),) * 40),
    "rbd_17_1_2x63": RBD(((17, 1),) + ((2, 1),) * 63),
}
GOLDEN_SEEDS = {"int": 11, "tuple": (3, 5), "big": (1 << 64) + 12345}
GOLDEN_SAMPLE = golden.table("GOLDEN_SAMPLE_SHA256", [
    (design, seed) for design in ("crd_100_50", "crd_200_100", "crd_135_72", "crd_66_33", "crd_64_32",
                                  "rbd_30x6_3", "rbd_mixed", "rbd_200x6_3")
    for seed in GOLDEN_SEEDS
])


@pytest.mark.parametrize("design_name, seed_name", GOLDEN_SAMPLE.cases)
def test_sample_golden_bytes(design_name, seed_name):
    draws = sample_assignments(GOLDEN_DESIGNS[design_name], 40, GOLDEN_SEEDS[seed_name])
    golden.check(GOLDEN_SAMPLE, (design_name, seed_name), hashlib.sha256(draws.tobytes()).hexdigest())


# SHA-256 of sample_assignments(design, k, seed).tobytes() at Monte Carlo
# sizes (k = 4,794 is the K that required_k plans at epsilon 0.1, delta 0.01),
# recorded at seed stream 0.3.0 (rbd_17_1_2x40's also at 0.2.0): a change
# here is a seed-stream change.
GOLDEN_SAMPLE_K = golden.table("GOLDEN_SAMPLE_K_SHA256", [
    (design, k, seed) for design, k in (("rbd_17_1_2x40", 5000), ("rbd_17_1_2x63", 200),
                                        ("rbd_30x6_3", 4794), ("rbd_200x6_3", 1000))
    for seed in GOLDEN_SEEDS
])


@pytest.mark.parametrize("design_name, k, seed_name", GOLDEN_SAMPLE_K.cases)
def test_sample_golden_bytes_at_monte_carlo_sizes(design_name, k, seed_name):
    draws = sample_assignments(GOLDEN_DESIGNS[design_name], k, GOLDEN_SEEDS[seed_name])
    golden.check(GOLDEN_SAMPLE_K, (design_name, k, seed_name), hashlib.sha256(draws.tobytes()).hexdigest())


# SHA-256 of assignment_matrix(design).tobytes() and of the first and last
# exact replicate-source blocks, recorded while every enumerated row was
# unranked one by one: a change here is an enumeration-order change.
GOLDEN_MATRIX_DESIGNS = {
    "crd_22_11": CRD(22, 11),
    "rbd_small": RBD(((4, 2), (3, 1), (5, 2))),
    "rbd_2x10_5_8_4": RBD(((10, 5), (10, 5), (8, 4))),  # 4,445,280 rows, past the default cap
}
GOLDEN_MATRIX = golden.table("GOLDEN_MATRIX_SHA256", GOLDEN_MATRIX_DESIGNS)
GOLDEN_SOURCE_BLOCK_SHAPES = {"first": (32768, 24), "last": (29552, 24)}
GOLDEN_SOURCE_BLOCKS = golden.table("GOLDEN_SOURCE_BLOCKS_CRD_24_9", GOLDEN_SOURCE_BLOCK_SHAPES)


@pytest.mark.parametrize("name", GOLDEN_MATRIX.cases)
def test_assignment_matrix_golden_bytes(name):
    design = GOLDEN_MATRIX_DESIGNS[name]
    mat = assignment_matrix(design, cap=5_000_000)
    assert mat.shape == (total_assignments(design), design.n_units)
    golden.check(GOLDEN_MATRIX, name, hashlib.sha256(mat.tobytes()).hexdigest())


def test_exact_source_first_and_last_block_golden_bytes():
    from randinf.randomization import ExactMode, _replicate_source

    blocks = list(_replicate_source(CRD(24, 9), ExactMode()).blocks())
    assert sum(b.shape[0] for b in blocks) == comb(24, 9)
    for case, block in zip(GOLDEN_SOURCE_BLOCKS.cases, (blocks[0], blocks[-1])):
        assert block.shape == GOLDEN_SOURCE_BLOCK_SHAPES[case]
        golden.check(GOLDEN_SOURCE_BLOCKS, case, hashlib.sha256(block.tobytes()).hexdigest())


class TestProbability:
    def test_crd_valid(self):
        w = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        assert assignment_probability(CRD(10, 5), w) == 1 / 252

    def test_constraint_violation_gives_zero(self):
        assert assignment_probability(CRD(4, 2), np.array([1, 1, 1, 0])) == 0.0

    def test_rbd_valid(self):
        w = np.array([1, 0, 0, 1])
        assert assignment_probability(RBD(((2, 1), (2, 1))), w) == 0.25

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            assignment_probability(CRD(4, 2), np.array([1, 0, 1]))

    def test_probabilities_sum_to_one_exactly(self):
        for design in (CRD(6, 3), RBD(((3, 1), (4, 2)))):
            total = sum(
                assignment_probability_exact(design, w)
                for w in assignment_matrix(design)
            )
            assert total == Fraction(1)
