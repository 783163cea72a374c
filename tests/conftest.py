from types import SimpleNamespace

import numpy as np
import pytest

from randinf import CRD, ExactMode, ObservedData, PValueKind, get_statistic, p_values
from randinf._util import fold_seed
from randinf.statistics import observed_statistic
from randinf.datasets import studentized_nonmonotone_experiment, toy_experiment


@pytest.fixture(scope="session")
def toy():
    """Ten-unit worked example: (data, design)."""
    return toy_experiment()


@pytest.fixture(scope="session")
def nonmono():
    """Eight-unit dataset with a non-monotone studentized p-curve."""
    return studentized_nonmonotone_experiment()


@pytest.fixture(scope="session")
def diff_means():
    return get_statistic("diff_means")


@pytest.fixture(scope="session")
def wilcoxon():
    return get_statistic("wilcoxon_rank_sum")


@pytest.fixture(scope="session")
def studentized():
    return get_statistic("studentized")


def random_experiment(rng, n=8, n_treated=None, effect=0.0, lognormal=False):
    """A seeded dataset under a balanced (or given) completely randomized design."""
    n_treated = n_treated or n // 2
    y0 = rng.lognormal(size=n) if lognormal else rng.normal(size=n)
    w = np.zeros(n, dtype=np.int8)
    w[rng.choice(n, size=n_treated, replace=False)] = 1
    y_obs = y0 + effect * w
    return ObservedData(w_obs=w, y_obs=y_obs), CRD(n, n_treated)


def outcome_scale(data):
    """The inversion kernel's theta scale: the largest of 1, max |y| and the range of y."""
    return max(1.0, float(np.max(np.abs(data.y_obs))), float(np.ptp(data.y_obs)))


def crossing_vectors(data, stat, source, t_obs, scale):
    """The inversion kernel's ``ge`` and ``gt`` crossings of every row, joined from its blocks.

    An ``affine`` statistic's kernel yields ``ge`` alone; its ``gt`` is the
    same with the rows tied at every theta never passing.
    """
    from randinf.inversion import _crossings

    vectors = [np.concatenate(v) for v in zip(*_crossings(data, stat, source, t_obs, scale))]
    if len(vectors) == 1:
        vectors.append(np.where(vectors[0] == -np.inf, np.inf, vectors[0]))
    return tuple(vectors)


def assert_crossings_match_bisection(data, stat, design, mode=None, rows=100):
    """Check a statistic's crossing capability against the generic bisection.

    On the first ``rows`` replicate rows of ``mode`` (exact by default) both
    kernel crossing vectors must equal the bisection's: exactly for
    ``switch_points``, to ``1e-6 * scale`` for the ``affine`` closed form.
    """
    from randinf.inversion import _bisect_crossings
    from randinf.randomization import _replicate_source

    W = next(_replicate_source(design, mode or ExactMode()).blocks())[:rows]
    t_obs = observed_statistic(stat, data)
    scale = outcome_scale(data)
    head = SimpleNamespace(blocks=lambda: iter([W]))
    atol = 1e-6 * scale if stat.affine is not None else 0.0
    for strict, kernel in zip((False, True), crossing_vectors(data, stat, head, t_obs, scale)):
        ref = _bisect_crossings(data, stat, W.astype(float), t_obs, strict, scale)
        if not np.allclose(kernel, ref, rtol=0.0, atol=atol):
            raise AssertionError("crossings disagree with the generic bisection")


def assert_interval_matches_p_values(ci, data, design, stat, theta):
    """Check that a proposed interval contains ``theta`` exactly when neither one-sided test rejects there.

    The LPLUS and LMINUS p-values at ``theta`` come from ``p_values``, the
    direct randomization distribution, not from the step functions the
    interval was inverted from; they must exceed ``ci.alpha1`` and
    ``ci.alpha2``.
    """
    p = p_values(data, design, stat, theta)
    accepts = p[PValueKind.LPLUS] > ci.alpha1 and p[PValueKind.LMINUS] > ci.alpha2
    if ci.contains(theta) != accepts:
        raise AssertionError(
            f"interval [{ci.lower!r}, {ci.upper!r}] and the tests at {theta!r} disagree: "
            f"LPLUS {p[PValueKind.LPLUS]}, LMINUS {p[PValueKind.LMINUS]}"
        )


def attempt_key(seed, attempt):
    """The Philox key of a sampling attempt: the folded seed, then its fold with the attempt."""
    key = fold_seed(seed)
    return key if attempt == 0 else fold_seed((key & ((1 << 64) - 1), key >> 64, attempt))


def replay_indices(seed, k, total):
    """Exact uniform indices on [0, total) for draws 0..k-1, one draw and one attempt at a time.

    The scalar reference for ``design._sample_indices``.  A row holds eight
    64-bit words, or ``ceil(bits / 64)`` when that is more; the words of a
    candidate are read most significant first and masked to ``bits`` bits.
    Up to 62 bits each of a row's eight words is a candidate, the first one
    below ``total`` taken; past it the row's last ``ceil(bits / 64)`` words
    are one.  Each draw takes the next unread row of attempt 0's stream, and
    after a miss the next unread row of the following attempt's stream.
    """
    bits = total.bit_length()
    words = (bits + 63) // 64
    width = max(8, words)
    rows_read = []  # of each attempt's stream, by the draws before
    out = []
    for _ in range(k):
        attempt, index = 0, None
        while index is None:
            if attempt == len(rows_read):
                rows_read.append(0)
            start = rows_read[attempt] * width  # in words; Philox yields four per counter step
            rows_read[attempt] += 1
            gen = np.random.Philox(key=attempt_key(seed, attempt))
            gen.advance(start // 4)
            row = [int(x) for x in gen.random_raw(start % 4 + width)[start % 4:]]
            if bits > 62:
                row = [sum(word << (64 * i) for i, word in enumerate(reversed(row[width - words:])))]
            hits = [c & ((1 << bits) - 1) for c in row if c & ((1 << bits) - 1) < total]
            index = hits[0] if hits else None
            attempt += 1
        out.append(index)
    return out


@pytest.fixture
def replicate_builds(monkeypatch):
    """Designs of the replicate sources made, in order, wherever they are made."""
    import randinf.inversion as inversion_mod
    import randinf.randomization as randomization_mod
    import randinf.simulate as simulate_mod

    builds = []
    real = randomization_mod._replicate_source

    def counting(design, mode):
        builds.append(design)
        return real(design, mode)

    for mod in (randomization_mod, inversion_mod, simulate_mod):
        monkeypatch.setattr(mod, "_replicate_source", counting)
    return builds
