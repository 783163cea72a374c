import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from randinf import CRD, ExactMode, ObservedData, PValueKind, get_statistic, p_values
from randinf._util import fold_seed, outcome_scale
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
    scale = outcome_scale(data.y_obs)
    head = SimpleNamespace(blocks=lambda: iter([W]), sums=lambda columns: iter([(W @ columns).T]))
    atol = 1e-6 * scale if stat.affine is not None else 0.0
    for strict, kernel in zip((False, True), crossing_vectors(data, stat, head, t_obs, scale)):
        ref = _bisect_crossings(data, stat, W, t_obs, strict, scale)
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


def audit_digest(report):
    """SHA-256 of the audit report's results: truth, dominance, coverage, widths."""
    h = hashlib.sha256()
    h.update(np.array([report.theta0, report.gamma_star, report.max_shortfall,
                       report.dominance_ok, report.gamma_bound_ok]).tobytes())
    for kind, (levels, cdf) in report.dominance.profiles.items():
        h.update(kind.name.encode())
        h.update(np.asarray(levels, dtype=float).tobytes())
        h.update(np.asarray(cdf, dtype=float).tobytes())
    for per_alpha in (report.proposed_coverage, report.traditional_coverage,
                      report.proposed_width_mean, report.traditional_width_mean):
        h.update(np.array(list(per_alpha.items())).tobytes())
    return h.hexdigest()


def stream_key(seed, run, attempt):
    """The Philox key of one sampling attempt of one run of blocks.

    Run 0 keys attempt 0 by the folded seed and attempt ``a`` by its fold
    with ``a``; run ``r >= 1`` keys attempt ``a`` by the fold with ``(a, r)``.
    """
    key = fold_seed(seed)
    if run == attempt == 0:
        return key
    return fold_seed((key & ((1 << 64) - 1), key >> 64, attempt) + ((run,) if run else ()))


def _replay(seed, k, run, width, decide):
    """Draws 0..k-1 of one run, one draw and one attempt at a time.

    Each draw takes the next unread row of ``width`` words of attempt 0's
    stream, and after a miss the next unread row of the following attempt's
    stream; ``decide(row)`` is the draw a row of Python ints gives, or None
    for a miss.
    """
    rows_read = []  # of each attempt's stream, by the draws before
    out = []
    for _ in range(k):
        attempt, draw = 0, None
        while draw is None:
            if attempt == len(rows_read):
                rows_read.append(0)
            start = rows_read[attempt] * width  # in words; Philox yields four per counter step
            rows_read[attempt] += 1
            gen = np.random.Philox(key=stream_key(seed, run, attempt))
            gen.advance(start // 4)
            draw = decide([int(x) for x in gen.random_raw(start % 4 + width)[start % 4:]])
            attempt += 1
        out.append(draw)
    return out


def replay_indices(seed, k, total, run=0):
    """Exact uniform indices on [0, total <= 2**62) for draws 0..k-1 of run ``run``.

    The scalar reference for the ranks of ``design._sample_indices``.  A row
    holds eight 64-bit words, each masked to the bits of ``total`` a
    candidate; the first one below ``total`` is taken.
    """
    mask = (1 << total.bit_length()) - 1
    return _replay(seed, k, run, 8, lambda row: next((c & mask for c in row if c & mask < total), None))


def replay_key_rows(seed, k, n, t, run=0):
    """Treated-unit sets of draws 0..k-1 of a block of ``n`` units treating ``t``, run ``run``.

    The scalar reference for the key rows of ``design._sample_indices``: a
    row of ``n`` words is one key a unit, and treats the ``t`` units of
    smallest key, unless the ``t``-th and ``(t+1)``-th smallest keys tie.
    """
    def decide(keys):
        order = sorted(keys)
        return None if order[t - 1] == order[t] else {u for u in range(n) if keys[u] <= order[t - 1]}

    return _replay(seed, k, run, n, decide)


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
