"""Assignment mechanisms: counts, enumeration order, sampling, probabilities."""

import hashlib
import itertools
import tracemalloc
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
from conftest import attempt_key


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
            want = _indices_to_assignments(design, np.arange(lo, lo + 1024))
            np.testing.assert_array_equal(rows, want)


class TestUnranker:
    @pytest.mark.parametrize("n, t", [(1, 1), (4, 2), (6, 1), (7, 3), (8, 5), (9, 8)])
    def test_object_ranks_match_colex_oracle(self, n, t):
        ranks = np.arange(comb(n, t))
        oracle = _colex(n, t)
        want = np.array([[int(j in oracle[m]) for j in range(n)] for m in ranks], dtype=np.int8)
        np.testing.assert_array_equal(_unrank_block_vectorized(n, t, ranks.astype(object)), want)
        np.testing.assert_array_equal(_unrank_block_vectorized(n, t, ranks), want)

    @pytest.mark.parametrize("n, t", [(66, 33), (100, 50), (200, 100), (135, 72)])
    def test_object_ranks_past_int64_invert_the_rank(self, n, t):
        total = comb(n, t)
        rng = np.random.default_rng(n)
        ranks = [0, 1, total // 2, total - 2, total - 1]
        ranks += [int(x) * total // (1 << 62) for x in rng.integers(0, 1 << 62, size=20)]
        rows = _unrank_block_vectorized(n, t, np.array(ranks, dtype=object))
        assert (rows.sum(axis=1) == t).all()
        assert [_colex_rank(np.nonzero(r)[0]) for r in rows] == ranks

    @pytest.mark.parametrize("n, t", [(400, 398), (40, 30), (70, 40), (300, 260)])
    def test_majority_treated_blocks_invert_the_rank(self, n, t):
        # too large for the colex table, so sampling unranks these blocks, by
        # their complements; int64 ranks while the block fits in 2**62
        total = comb(n, t)
        assert n * total > design_mod._TABLE_BYTES
        rng = np.random.default_rng(n + t)
        ranks = [0, 1, total // 2, total - 2, total - 1]
        ranks += [int(x) * total // (1 << 62) for x in rng.integers(0, 1 << 62, size=20)]
        dtypes = (object, np.int64) if total <= design_mod._INT64_SAFE_TOTAL else (object,)
        for dtype in dtypes:
            rows = _unrank_block_vectorized(n, t, np.array(ranks, dtype=dtype))
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
            _indices_to_assignments(design, np.arange(5))
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
        # the big-integer path keeps the (seed, j) contract too
        for design in (CRD(100, 50), RBD(((6, 3),) * 30)):
            long = sample_assignments(design, 40, seed=31)
            short = sample_assignments(design, 7, seed=31)
            np.testing.assert_array_equal(long[:7], short)

    def test_huge_space(self):
        draws = sample_assignments(CRD(135, 72), 4, seed=0)
        assert (draws.sum(axis=1) == 72).all()

    def test_uniformity_chi_square(self):
        # goodness of fit over the ten cells of CRD(5, 2), seeded
        design = CRD(5, 2)
        draws = sample_assignments(design, 5000, seed=77)
        keys = [tuple(r) for r in assignment_matrix(design).tolist()]
        index = {k: i for i, k in enumerate(keys)}
        counts = np.zeros(len(keys))
        for row in draws.tolist():
            counts[index[tuple(row)]] += 1
        expected = 5000 / len(keys)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 27.88  # df=9 critical value at the 0.1% level

    def test_no_generator_per_draw(self):
        # draws that miss attempt 0 (a third of them in CRD(100, 50), and about
        # half of them in RBD 200x(6, 3), past 512 bits) are retried together:
        # one Philox stream an attempt, never a generator a draw
        for design, k in ((CRD(100, 50), 1000), (RBD(((6, 3),) * 200), 50)):
            with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as made, \
                    mock.patch.object(np.random, "Philox", wraps=np.random.Philox) as philox:
                sample_assignments(design, k, seed=3)
            assert made.call_count == 0
            keys = [call.kwargs["key"] for call in philox.call_args_list]
            assert 1 < len(keys) < 30
            assert keys == [attempt_key(3, a) for a in range(len(keys))]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_assignments(CRD(4, 2), 0, seed=1)


# SHA-256 of sample_assignments(design, 40, seed).tobytes(), recorded at seed
# stream 0.2.0 (crd_64_32's also before the sampler was vectorized): a change
# here is a seed-stream change.
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
GOLDEN_SAMPLE_SHA256 = {
    ("crd_100_50", "int"): "b49db94a17961927fe9842bbded56ab50a4d6229cd3ee36e1e76acd490809568",
    ("crd_100_50", "tuple"): "8da0e3c3f3ad22f65674dba9c2bd417f491626d23fdce30ced93df615c6a4539",
    ("crd_100_50", "big"): "8911937df04f7b2540cb3b26e8acac0ec344fc53cea7f3f06a01c8053a95009f",
    ("crd_200_100", "int"): "18446ada77bd24d56280976d9678eb7df41610ef58c1bc471dedfe8084f32fe7",
    ("crd_200_100", "tuple"): "d0d12c6b5b1100e37ac2a037885f49ee25de49cd1ea19b32d51aa3ada89027b5",
    ("crd_200_100", "big"): "084edeb205ed8e4eda686a3673f26dbf1ba4fb305bed88e7810e5f7ed65777ec",
    ("crd_135_72", "int"): "07cf0c692956b9cb13b163654249cdd3d0cb8735e030b9adc3c35f7180fb7574",
    ("crd_135_72", "tuple"): "b912eee0fb5851dcbf79267a8543133a8ba3e353e5ec4cb452eebb30c74c4bb0",
    ("crd_135_72", "big"): "7b7e99422a89d7375a72d9bb10d644b06b00fc3e6b729cd3386ef7524661f982",
    ("crd_66_33", "int"): "3e590044f0b004e696f45ecb3e21e607c793cefaa8e7a78c1d9c4c46c6e4ff9e",
    ("crd_66_33", "tuple"): "e571fdeb6c30dee8f4f8f5f10c923caddefd37c00ce8a9e27e294fb2f7ea672a",
    ("crd_66_33", "big"): "68c5106c7b4390ff25702bd1006749438b0e0d4f6afda0b993aec999238432d8",
    ("crd_64_32", "int"): "a1abf4042d1e2c1798fab4de9485b83a5955be3051f40691255bbd311764cd2b",
    ("crd_64_32", "tuple"): "96eeecf6e4bd64a8bf66b9550be27ee48d239ef817dfa32bf127dcaa5cfce976",
    ("crd_64_32", "big"): "e3a6803db55e9ed095935739e46657382d298fe39fa18581823017a93d12e8cc",
    ("rbd_30x6_3", "int"): "28fe516690e9988fe8cad8a2df7ddb96549e627cfd0afbf90e5952c15f2ec3c3",
    ("rbd_30x6_3", "tuple"): "8d0bcb912821b02ba0e4febe9bfb8f5e3b2d83d5d97acc7e323f4119828b3045",
    ("rbd_30x6_3", "big"): "b7974a3f02dc66ba41f6b5aec86668cb9bddd9fd7ed2481eb787650250ed3c3e",
    ("rbd_mixed", "int"): "b5a21f28102065fd8f2c368d629417fd0e111f101634509d338165de9d5ff68c",
    ("rbd_mixed", "tuple"): "c0867f0511b5aefe06baad74056552cc6fa6852607962dc6683cec20cf67dabb",
    ("rbd_mixed", "big"): "64d853513ba31d26d8ac6626917143c005c347e6f0e328eb30f2a6f0e3e71141",
    ("rbd_200x6_3", "int"): "5f442dd9059079ad26842139f9c8ed38e480535a4822742a986dc5521b6499f9",
    ("rbd_200x6_3", "tuple"): "068413f51908324129d7a6bc54d42e0e65f5957e7100f86c754092e64e2194b6",
    ("rbd_200x6_3", "big"): "484c626104fee5b2ac754327e7ebaf68948acc1a2cb4d3be2e1c1ba046f0f4e0",
}


@pytest.mark.parametrize("design_name, seed_name", list(GOLDEN_SAMPLE_SHA256))
def test_sample_golden_bytes(design_name, seed_name):
    draws = sample_assignments(GOLDEN_DESIGNS[design_name], 40, GOLDEN_SEEDS[seed_name])
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_SAMPLE_SHA256[design_name, seed_name]


# SHA-256 of sample_assignments(design, k, seed).tobytes() at Monte Carlo
# sizes (k = 4,794 is the K that required_k plans at epsilon 0.1, delta 0.01),
# recorded at seed stream 0.2.0: a change here is a seed-stream change.
GOLDEN_SAMPLE_K_SHA256 = {
    ("rbd_17_1_2x40", 5000, "int"): "61b6cee4731eaab6a2ff447081d21ffdbc374aaca6d963f2479623a45d119d6a",
    ("rbd_17_1_2x40", 5000, "tuple"): "f84c67bed5672c7776fcd69360eca56ce897a5bb63493923b68413c4aebd6f94",
    ("rbd_17_1_2x40", 5000, "big"): "356c21a178149f7bf71b780fe60056e4c2d67762792faa0301ecd680e7b5a9ef",
    ("rbd_17_1_2x63", 200, "int"): "1a7b382185f64dd05e6da8afa303bf078a4948b59becfa338208f6b6223af9be",
    ("rbd_17_1_2x63", 200, "tuple"): "5dda15ecf559586125bee747df947153e2c6006253c37d79c658f846667c021e",
    ("rbd_17_1_2x63", 200, "big"): "6e60e80f04259e3121d9a1d5cfced175fc5e69bf315c11e3b3624a4610bbc301",
    ("rbd_30x6_3", 4794, "int"): "1986a2b9e4e477e133722311325b772dfd523e6f8c244cdda87b3aac2f89984f",
    ("rbd_30x6_3", 4794, "tuple"): "e7b780cbdfd8e1e936247dade75ee5f045ef5e17e22471a5ca3c299338699c69",
    ("rbd_30x6_3", 4794, "big"): "2dc85095f7a3ac8afecb0356331331f7430e5e44f592134293eb05cca4ecd0e4",
    ("rbd_200x6_3", 1000, "int"): "f834651985703486fbb091c6f666d3fb99c38c95c285891763960d3b161f719e",
    ("rbd_200x6_3", 1000, "tuple"): "9c3e4d967e99d279bd6ae617aa3b6aef1a52986fb099d1ff87e65f86f4e169fd",
    ("rbd_200x6_3", 1000, "big"): "df373e708e39d286b5baaa1a17659e50a17628b659f6c25e7bd15e50399993bc",
}


@pytest.mark.parametrize("design_name, k, seed_name", list(GOLDEN_SAMPLE_K_SHA256))
def test_sample_golden_bytes_at_monte_carlo_sizes(design_name, k, seed_name):
    draws = sample_assignments(GOLDEN_DESIGNS[design_name], k, GOLDEN_SEEDS[seed_name])
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_SAMPLE_K_SHA256[design_name, k, seed_name]


# SHA-256 of assignment_matrix(design).tobytes() and of the first and last
# exact replicate-source blocks, recorded while every enumerated row was
# unranked one by one: a change here is an enumeration-order change.
GOLDEN_MATRIX_SHA256 = {
    "crd_22_11": (CRD(22, 11), "5ebe094e574969feb328dd0904bf8ec4711383074d551f7c8e9a16f309cfdd33"),
    "rbd_small": (RBD(((4, 2), (3, 1), (5, 2))), "dd410c7936893ac4dfd26af6a536130225b78eb9d59507ac9b9f37c53b91fcf2"),
    "rbd_2x10_5_8_4": (
        RBD(((10, 5), (10, 5), (8, 4))),  # 4,445,280 rows, past the default cap
        "3b8206b31f2d3bb5bae83b0340e00b28a4872d57fdc32d15b6a3b0a09f721c33",
    ),
}
GOLDEN_SOURCE_BLOCKS_CRD_24_9 = (
    ((32768, 24), "f46be9932c79dc0eea4ee0d252338e022fa3ec37891eff3e557b7504c9ad7050"),
    ((29552, 24), "293c43ce9e5e1692a30eca3986ed76b72489e8e2490ea8e573105d695ee9b538"),
)


@pytest.mark.parametrize("name", list(GOLDEN_MATRIX_SHA256))
def test_assignment_matrix_golden_bytes(name):
    design, digest = GOLDEN_MATRIX_SHA256[name]
    mat = assignment_matrix(design, cap=5_000_000)
    assert mat.shape == (total_assignments(design), design.n_units)
    assert hashlib.sha256(mat.tobytes()).hexdigest() == digest


def test_exact_source_first_and_last_block_golden_bytes():
    from randinf.randomization import ExactMode, _replicate_source

    blocks = list(_replicate_source(CRD(24, 9), ExactMode()).blocks())
    assert sum(b.shape[0] for b in blocks) == comb(24, 9)
    for block, (shape, digest) in zip((blocks[0], blocks[-1]), GOLDEN_SOURCE_BLOCKS_CRD_24_9):
        assert block.shape == shape
        assert hashlib.sha256(block.tobytes()).hexdigest() == digest


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
