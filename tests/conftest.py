import numpy as np
import pytest

from randinf import CRD, ObservedData, get_statistic
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
    """The inversion kernel's ``ge`` and ``gt`` crossings of every row, joined from its blocks."""
    from randinf.inversion import _crossings

    ge, gt = zip(*_crossings(data, stat, source, t_obs, scale))
    return np.concatenate(ge), np.concatenate(gt)


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
