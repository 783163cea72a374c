from types import SimpleNamespace

import numpy as np
import pytest

from randinf import CRD, ExactMode, ObservedData, get_statistic
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
