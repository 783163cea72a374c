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
    _colex_table,
    _indices_to_assignments,
    _range_to_assignments,
    _unrank_block_vectorized,
)


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
            if t == n - 2:
                # the unranker's binomial table for CRD(1500, 1498) holds
                # 2.2M big integers and takes half a minute to build; the
                # complement of the set of colex rank r in CRD(n, 2) has rank
                # total - 1 - r here (checked against the unranker directly
                # for n <= 40 in test_properties.py)
                ranks = np.arange(total - 1 - lo, total - 1 - lo - 1024, -1)
                want = 1 - _indices_to_assignments(CRD(n, 2), ranks)
            else:
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
        # draws whose candidates miss (a third of them in CRD(100, 50), all of
        # them past 512 bits) are redrawn from their streams on arrays
        with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as made:
            sample_assignments(CRD(100, 50), 1000, seed=3)
            sample_assignments(RBD(((6, 3),) * 200), 50, seed=3)
        assert made.call_count == 0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_assignments(CRD(4, 2), 0, seed=1)


# SHA-256 of sample_assignments(design, 40, seed).tobytes(), recorded before the
# sampler was vectorized: a change here is a seed-stream change.
GOLDEN_DESIGNS = {
    "crd_100_50": CRD(100, 50),
    "crd_200_100": CRD(200, 100),
    "crd_135_72": CRD(135, 72),
    "crd_66_33": CRD(66, 33),  # just above 2**62 assignments
    "crd_64_32": CRD(64, 32),  # just below 2**62 assignments
    "rbd_30x6_3": RBD(((6, 3),) * 30),
    "rbd_mixed": RBD(((70, 35), (6, 3)) * 4),
    "rbd_200x6_3": RBD(((6, 3),) * 200),  # index wider than 512 bits
    # 17 * 2**40 and 17 * 2**63 assignments: about half of the candidates and
    # of the fallback attempts miss, so some draws retry several times
    "rbd_17_1_2x40": RBD(((17, 1),) + ((2, 1),) * 40),
    "rbd_17_1_2x63": RBD(((17, 1),) + ((2, 1),) * 63),
}
GOLDEN_SEEDS = {"int": 11, "tuple": (3, 5), "big": (1 << 64) + 12345}
GOLDEN_SAMPLE_SHA256 = {
    ("crd_100_50", "int"): "cdf4703a5da1c236c42d273b06b15ace127725cd08ca1f05aef3ab333bdd54a8",
    ("crd_100_50", "tuple"): "a06d536de50ccdf22c89834645cbd8698ed1ec51fabfb08dea4998f81d703d16",
    ("crd_100_50", "big"): "e7e6e76d78ffbb2801a59ea833b1f8dc3ff787bc8c78644488ac40c04ae6d100",
    ("crd_200_100", "int"): "d963d991e615ad75483d6e3e2f85d04507e849916619694e7e5031e253d44727",
    ("crd_200_100", "tuple"): "caff3cbb9b63473eebf5eb7f664d7d0efc2aac031b2305f45923b4f3b107be8a",
    ("crd_200_100", "big"): "20313d9fa3df4a36017e1e29602dbc35b34b254d382043eab55ae2eda9cf49da",
    ("crd_135_72", "int"): "3290a0a9adaac0b17e920b6a43fcb4f17704ab84e557a159ba7162c6ebf132e5",
    ("crd_135_72", "tuple"): "c12f634d36cdd7461efcb776c490230d1da97c1b093c7159a0959a366974fa54",
    ("crd_135_72", "big"): "339d6bcd3301e88fc1175b03a493bffb698cdd002c1f52a6c794db593a90b85a",
    ("crd_66_33", "int"): "223bc2db2c532ab6d7d1aeb8267b3c04159e49d31942d117e427b877d430e13d",
    ("crd_66_33", "tuple"): "2e8e0c5ba4dc1de9514980887b0b3cb80a3bb1c19d3b907cbb49871cb0435a2d",
    ("crd_66_33", "big"): "57ebe8d583efa24ca31ebe21355fc48f70e8873e6285b84e4ea671ac73179713",
    ("crd_64_32", "int"): "a1abf4042d1e2c1798fab4de9485b83a5955be3051f40691255bbd311764cd2b",
    ("crd_64_32", "tuple"): "96eeecf6e4bd64a8bf66b9550be27ee48d239ef817dfa32bf127dcaa5cfce976",
    ("crd_64_32", "big"): "e3a6803db55e9ed095935739e46657382d298fe39fa18581823017a93d12e8cc",
    ("rbd_30x6_3", "int"): "101c363d6ed24b337937318073d09ee59cb2069654fb0d03ce5e7c3c1445b746",
    ("rbd_30x6_3", "tuple"): "89bfb7cafec4cda0ed658cac1312508de736b76b2290bb55c9a1cdeb611a31df",
    ("rbd_30x6_3", "big"): "437dc1d88c0d2934ac0630c8b1f2d2f1c317fc7d451b0883850cab5874b9da88",
    ("rbd_mixed", "int"): "6f223eba8889054881b60ad9f32060fcf3017666116dc2f1325815cf4e5c8e29",
    ("rbd_mixed", "tuple"): "f6688be3377cce4be18e403dbc0ce1e259f4309f205351560bdceeeb60efda53",
    ("rbd_mixed", "big"): "5d0db14d15044634ec609a604ee9986943dd030ca24f301e3ac493c4eec9b36c",
    ("rbd_200x6_3", "int"): "6439f28fa00a5afde1626b6929db2cbc1f8cfec10aa53da83c741950fb1f0f5d",
    ("rbd_200x6_3", "tuple"): "364e97ccddc1ffd4e4739425935b9d6d4ef5a59aa2b2f3ee124e63b7a9ac5faf",
    ("rbd_200x6_3", "big"): "f5cc6860937e08ce7ff30080f7f86cc0462e0516e9bb20994f062cd889540fc1",
}


@pytest.mark.parametrize("design_name, seed_name", list(GOLDEN_SAMPLE_SHA256))
def test_sample_golden_bytes(design_name, seed_name):
    draws = sample_assignments(GOLDEN_DESIGNS[design_name], 40, GOLDEN_SEEDS[seed_name])
    assert hashlib.sha256(draws.tobytes()).hexdigest() == GOLDEN_SAMPLE_SHA256[design_name, seed_name]


# SHA-256 of sample_assignments(design, k, seed).tobytes() at Monte Carlo
# sizes (k = 4,794 is the K that required_k plans at epsilon 0.1, delta 0.01),
# recorded while every draw that missed its candidates built its own generator:
# a change here is a seed-stream change.
GOLDEN_SAMPLE_K_SHA256 = {
    ("rbd_17_1_2x40", 5000, "int"): "bb191ea324b97f2ca89b988d4a2a72c0f8497fde8edeb30e2803123fe06fbcc2",
    ("rbd_17_1_2x40", 5000, "tuple"): "0da32f84a7140bf3d24948c534c0fd153b535db9dfd2b2f84316c1e6aa5e6a7e",
    ("rbd_17_1_2x40", 5000, "big"): "d56e5be7260211c8bca99fdcc50e389f090a87c845151b389d6e6306210da99f",
    ("rbd_17_1_2x63", 200, "int"): "45c077675f3e9396da867c77fc63f7bb6f290b56855f46132e16af4876fbf13c",
    ("rbd_17_1_2x63", 200, "tuple"): "3d36c66ced65445665e7414467220bea734be010d3daf1037f25a652d19dec51",
    ("rbd_17_1_2x63", 200, "big"): "5a8a14adc483bcab37e8bbec36fa6055ac4149ff6e74a540293f521c37020634",
    ("rbd_30x6_3", 4794, "int"): "9fb248b6320ad31717c4c95ac7cc77d9b0aa0220af077afaffc4b811b9ae3d26",
    ("rbd_30x6_3", 4794, "tuple"): "3fe6b57a69812cddc05c1fcf77590d5b5e1d3cf597519bc555d3cf98b855c294",
    ("rbd_30x6_3", 4794, "big"): "cc9df733247d12cd14d7724015bc3e1a7a5cc2bb1225e4a0bffba8672fd42ad6",
    ("rbd_200x6_3", 1000, "int"): "c8700668f492c9a569dc79ec490e3ee51d9d28661e3c672aa8ef7dc9c83c15dd",
    ("rbd_200x6_3", 1000, "tuple"): "d9777574a14e2971c025ffbb89060ff3be52a7d512fbc051ea78d08e8f291966",
    ("rbd_200x6_3", 1000, "big"): "df07c76cb8988a2987987c7392dda353e0e48133cb8c08dff295105a252e8cd9",
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
