"""Bundled example datasets and small populations used by tests and demos.

The populations are :class:`randinf.statistics.PotentialTable`s, the table
type that imputation also returns; it is importable from here too.
"""

from importlib import resources

import numpy as np

from .design import CRD
from .statistics import ObservedData, PotentialTable

__all__ = [
    "PotentialTable",
    "toy_experiment",
    "toy_population",
    "studentized_nonmonotone_experiment",
    "tied_discrete_population",
    "data_path",
]


# ten units, balanced CRD; control potentials lognormal-ish, unit effect 1
_TOY_Y0 = np.array([1.00, 1.88, 1.52, 4.00, 1.85, 2.27, 0.92, 3.37, 0.72, 1.15])
_TOY_W = np.array([1, 1, 1, 1, 0, 0, 0, 0, 1, 0], dtype=np.int8)


def toy_experiment():
    """The ten-unit worked example: observed data and its balanced design.

    True constant effect 1; the observed difference of means is 0.912.
    """
    table = toy_population()
    return table.observe(_TOY_W), CRD(10, 5)


def toy_population() -> PotentialTable:
    """Full potential table behind :func:`toy_experiment` (effect exactly 1)."""
    return PotentialTable(y0=_TOY_Y0, y1=_TOY_Y0 + 1.0)


# eight units with unit effect; the studentized statistic's p-value curve is
# non-monotone on this data, the standard counterexample to naive inversion
_NONMONO_Y = np.array([1.14, 2.12, 0.80, 2.80, 0.90, 0.44, 2.13, 0.53])
_NONMONO_W = np.array([1, 1, 0, 1, 0, 0, 1, 0], dtype=np.int8)


def studentized_nonmonotone_experiment():
    """Eight-unit dataset on which the studentized p-value curve is non-monotone."""
    return ObservedData(w_obs=_NONMONO_W, y_obs=_NONMONO_Y), CRD(8, 4)


def tied_discrete_population() -> PotentialTable:
    """Fifteen units with zero effect and only three outcome values.

    Six units at 0, six at 1, three at 2; the heavy ties make the gap between
    guaranteed-coverage inversion and traditional two-crossing inversion
    visible in exact audits.
    """
    y = np.array([0.0] * 6 + [1.0] * 6 + [2.0] * 3)
    return PotentialTable(y0=y, y1=y)


def data_path(name: str):
    """Path to a bundled CSV (context manager not needed; files ship unpacked)."""
    return resources.files("randinf").joinpath("data", name)
