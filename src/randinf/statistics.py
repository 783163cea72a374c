"""Test statistics and potential-outcome imputation under constant-effect nulls.

A constant-effect null pins every unit's treatment effect to one value
``theta``, which lets the full potential-outcome table be reconstructed from
the observed half: :func:`impute`.  Statistics are evaluated on the dataset
realized by applying an assignment vector to that imputed table.

Three statistics ship with the registry:

``diff_means``
    Mean of treated outcomes minus mean of control outcomes.  Effect
    increasing (EI), so its p-value curves are monotone in ``theta``.
``studentized``
    ``diff_means`` divided by ``sqrt(s1^2/n1 + s0^2/n0)`` with the two arms'
    sample variances.  Not EI: raising a treated potential outcome can lower
    the statistic through the variance term, and its p-value curve can be
    non-monotone, so interval inversion refuses it.
``wilcoxon_rank_sum``
    Sum of treatment-arm ranks of the realized outcomes, midranks for ties.
    EI.  Its exact per-assignment switch points in ``theta`` come from the
    pairwise differences of treated and control outcomes (the structure
    behind the Hodges-Lehmann estimator), see :func:`_wilcoxon_switch_points`.

All statistics here are oriented so that large values indicate effects above
the hypothesized ``theta``.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import rankdata

__all__ = [
    "ObservedData",
    "ImputedOutcomes",
    "StatisticSpec",
    "StatisticError",
    "DegenerateDenominatorError",
    "EIProbeResult",
    "impute",
    "evaluate",
    "evaluate_many",
    "evaluate_realized",
    "get_statistic",
    "register_statistic",
    "list_statistics",
    "ei_probe",
]


class StatisticError(ValueError):
    """A statistic could not be evaluated on the given data."""


class DegenerateDenominatorError(StatisticError):
    """Studentized denominator is zero: both arm variances vanish."""


@dataclass(frozen=True)
class ObservedData:
    """One experiment's realized assignment and outcomes.

    ``blocks`` optionally carries integer block labels (same length) for data
    from blocked designs; statistics here pool across blocks, so labels are
    used only for input validation against a declared design.
    """

    w_obs: np.ndarray
    y_obs: np.ndarray
    blocks: Optional[np.ndarray] = None

    def __post_init__(self):
        w = np.asarray(self.w_obs, dtype=np.int8)
        y = np.asarray(self.y_obs, dtype=float)
        object.__setattr__(self, "w_obs", w)
        object.__setattr__(self, "y_obs", y)
        if w.ndim != 1 or y.shape != w.shape:
            raise ValueError("w_obs and y_obs must be equal-length vectors")
        if not np.isin(w, (0, 1)).all():
            raise ValueError("w_obs entries must be 0 or 1")
        if not np.isfinite(y).all():
            raise ValueError("y_obs entries must be finite")
        if self.blocks is not None:
            b = np.asarray(self.blocks)
            object.__setattr__(self, "blocks", b)
            if b.shape != w.shape:
                raise ValueError("block labels must match the outcome length")

    @property
    def n_units(self) -> int:
        return self.w_obs.size


@dataclass(frozen=True)
class ImputedOutcomes:
    """Full potential-outcome table consistent with a constant effect ``theta``."""

    y1: np.ndarray
    y0: np.ndarray
    theta: float


def impute(data: ObservedData, theta: float) -> ImputedOutcomes:
    """Fill in the missing potential outcomes under a constant effect ``theta``.

    Treated units keep their observed value as ``y1`` and get ``y_obs - theta``
    as ``y0``; control units keep ``y0`` and get ``y_obs + theta`` as ``y1``.
    The returned table satisfies ``y1 - y0 == theta`` exactly and agrees with
    the observed data on the observed arm.
    """
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    w = data.w_obs
    y = data.y_obs
    y1 = np.where(w == 1, y, y + theta)
    y0 = np.where(w == 1, y - theta, y)
    return ImputedOutcomes(y1=y1, y0=y0, theta=float(theta))


@dataclass(frozen=True)
class StatisticSpec:
    """A registered test statistic and its certification flags.

    ``realized_rows(Y, W)`` computes the statistic for every row of the
    realized-outcome matrix ``Y`` with assignment rows ``W``, vectorized.
    ``ei_certified`` statistics are non-decreasing in the treated potentials
    and non-increasing in the control potentials, which guarantees
    ``theta_monotone_rightcontinuous`` for the map theta -> T(imputed, w).

    Optional capabilities replace inversion's generic bisection.
    ``affine(data, W)`` returns per-row ``(a, b)``, ``b >= 0``, with
    ``T(theta, w) = a + b * theta`` and ``b = 0`` only on rows that tie the
    observed value: switch points are closed form.
    ``switch_points(data, W, m)`` returns every row's exact ``b*`` such that
    ``T(theta, w) >= m`` holds for every theta above ``b*`` and fails below
    it, ``-inf``/``+inf`` for rows where it always/never holds; for an array
    of thresholds ``m`` the result has shape ``m.shape + (k,)``.  A statistic
    with it takes only half-integer values, so a tolerance test against the
    observed value is ``T >= m`` for a half-integer ``m``, and the bisection
    compares theta with ``b*``.
    """

    name: str
    large_favor_plus: bool
    ei_certified: bool
    theta_monotone_rightcontinuous: bool
    realized_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]
    affine: Optional[Callable[..., tuple]] = None
    switch_points: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self):
        if self.ei_certified and not self.theta_monotone_rightcontinuous:
            raise ValueError(
                "an EI statistic is automatically monotone and right continuous in theta"
            )


def _arm_sizes(W):
    n1 = W.sum(axis=1)
    n0 = W.shape[1] - n1
    return n1.astype(float), n0.astype(float)


def _diff_means_rows(Y, W):
    n1, n0 = _arm_sizes(W)
    return (Y * W).sum(axis=1) / n1 - (Y * (1 - W)).sum(axis=1) / n0


def _diff_means_affine(data: ObservedData, W: np.ndarray):
    """Intercept and slope of theta -> diff_means(imputed_theta, w), per row.

    The slope counts treatment/control mismatches against the observed
    assignment scaled by arm sizes, so it is >= 0 and vanishes exactly for
    rows equal to the observed assignment (which stay tied at T_obs).  Both
    mismatch counts follow from the units treated under both, ``W @ w_obs``,
    as exact integers.
    """
    y = data.y_obs
    w_obs = data.w_obs.astype(float)
    n1 = W.sum(axis=1)
    n0 = W.shape[1] - n1
    a = (W @ y) / n1 - ((1 - W) @ y) / n0
    both = W @ w_obs
    b = (n1 - both) / n1 + (w_obs.sum() - both) / n0
    return a, b


def _studentized_rows(Y, W):
    n1, n0 = _arm_sizes(W)
    if (n1 < 2).any() or (n0 < 2).any():
        raise StatisticError("studentized statistic requires both arms of size >= 2")
    m1 = (Y * W).sum(axis=1) / n1
    m0 = (Y * (1 - W)).sum(axis=1) / n0
    ss1 = (Y * Y * W).sum(axis=1) - n1 * m1 * m1
    ss0 = (Y * Y * (1 - W)).sum(axis=1) - n0 * m0 * m0
    v1 = np.maximum(ss1, 0.0) / (n1 - 1)
    v0 = np.maximum(ss0, 0.0) / (n0 - 1)
    denom = np.sqrt(v1 / n1 + v0 / n0)
    if (denom == 0).any():
        raise DegenerateDenominatorError(
            "both arm variances are zero for at least one assignment"
        )
    return (m1 - m0) / denom


def _wilcoxon_rows(Y, W):
    R = rankdata(Y, axis=1, method="average")
    return (R * W).sum(axis=1)


# Pair entries built at once by the switch-point kernel; bounds its memory.
_PAIR_CHUNK = 1 << 16


def _wilcoxon_switch_points(data: ObservedData, W: np.ndarray, m) -> np.ndarray:
    """Exact switch points of ``1{T(theta, w) >= m}`` for the rank sum.

    Under the constant-effect null unit ``i`` realizes ``y_i + theta * d_i``
    with ``d_i = w_i - w_obs_i``.  The rank sum of row ``w`` is
    ``n1(n1+1)/2`` plus, over treated ``i`` and control ``j``, 1 if unit
    ``i`` outranks ``j`` and 1/2 if they tie.  With ``c = d_i - d_j`` in
    {0, 1, 2}, a pair with ``c = 0`` contributes a constant and a pair with
    ``c > 0`` switches on at ``q = (y_j - y_i) / c``.  Away from the ``q``,
    ``T = base + #{q < theta}``, so ``T >= m`` exactly when theta exceeds the
    ``ceil(m - base)``-th smallest ``q`` of the row.  Every CRD/RBD row treats
    the same number of units; pairs are built in row chunks of at most
    ``_PAIR_CHUNK`` entries, and each row's ``q`` are sorted once for every
    threshold in ``m``.
    """
    y = data.y_obs
    w_obs = data.w_obs
    k, n = W.shape
    m = np.asarray(m, dtype=float)
    out = np.empty((m.size, k))
    n1 = int(round(W[0].sum()))
    n0 = n - n1
    step = max(1, _PAIR_CHUNK // (n1 * n0))
    for start in range(0, k, step):
        treated = W[start:start + step] > 0.5
        r = treated.shape[0]
        ti = np.nonzero(treated)[1].reshape(r, n1)
        ci = np.nonzero(~treated)[1].reshape(r, n0)
        diff = (y[ci][:, None, :] - y[ti][:, :, None]).reshape(r, -1)
        c = ((1 - w_obs[ti])[:, :, None] + w_obs[ci][:, None, :]).reshape(r, -1)
        fixed = c == 0
        wins = (fixed & (diff < 0)).sum(axis=1) + 0.5 * (fixed & (diff == 0)).sum(axis=1)
        base = n1 * (n1 + 1) / 2 + wins
        q = np.divide(diff, c, out=np.full(diff.shape, np.inf), where=~fixed)
        q.sort(axis=1)
        need = np.ceil(m.reshape(-1, 1) - base).astype(np.int64)  # pairs that must be on
        pick = q[np.arange(r), np.clip(need - 1, 0, n1 * n0 - 1)]
        out[:, start:start + r] = np.where(need <= 0, -np.inf, np.where(need > n1 * n0, np.inf, pick))
    return out.reshape(m.shape + (k,))


_REGISTRY: dict = {}


def register_statistic(spec: StatisticSpec) -> StatisticSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"statistic {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_statistic(name: str) -> StatisticSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown statistic {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_statistics():
    return sorted(_REGISTRY)


DIFF_MEANS = register_statistic(
    StatisticSpec(
        name="diff_means",
        large_favor_plus=True,
        ei_certified=True,
        theta_monotone_rightcontinuous=True,
        realized_rows=_diff_means_rows,
        affine=_diff_means_affine,
    )
)

STUDENTIZED = register_statistic(
    StatisticSpec(
        name="studentized",
        large_favor_plus=True,
        ei_certified=False,
        theta_monotone_rightcontinuous=False,
        realized_rows=_studentized_rows,
    )
)

WILCOXON = register_statistic(
    StatisticSpec(
        name="wilcoxon_rank_sum",
        large_favor_plus=True,
        ei_certified=True,
        theta_monotone_rightcontinuous=True,
        realized_rows=_wilcoxon_rows,
        switch_points=_wilcoxon_switch_points,
    )
)


def evaluate_realized(stat: StatisticSpec, Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Statistic values for realized-outcome rows ``Y`` under assignment rows ``W``."""
    return stat.realized_rows(np.asarray(Y, dtype=float), np.asarray(W, dtype=float))


def evaluate_many(stat: StatisticSpec, imputed: ImputedOutcomes, W: np.ndarray) -> np.ndarray:
    """Statistic values for every assignment row of ``W`` (shape (k, n))."""
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        W = W[None, :]
    Y = np.where(W == 1, imputed.y1, imputed.y0)
    return stat.realized_rows(Y, W)


def evaluate(stat: StatisticSpec, imputed: ImputedOutcomes, w: np.ndarray) -> float:
    """Statistic value on the dataset realized by applying ``w`` to the table."""
    return float(evaluate_many(stat, imputed, np.asarray(w, dtype=float)[None, :])[0])


def observed_statistic(stat: StatisticSpec, data: ObservedData) -> float:
    """T computed on the observed data (independent of any hypothesized theta)."""
    table = ImputedOutcomes(y1=data.y_obs, y0=data.y_obs, theta=0.0)
    return evaluate(stat, table, data.w_obs)


@dataclass(frozen=True)
class EIProbeResult:
    """Outcome of a randomized search for an effect-increasing violation.

    A counterexample is definitive; consistency after ``trials`` trials is
    evidence, not proof.
    """

    consistent: bool
    counterexample: Optional[dict] = None

    def __bool__(self):
        return self.consistent


def ei_probe(stat: StatisticSpec, data: ObservedData, design, trials: int, seed) -> EIProbeResult:
    """Randomized search for violations of the effect-increasing property.

    Each trial raises a single treated-potential coordinate (or lowers a
    control-potential coordinate) by a random positive amount and checks the
    statistic's change over a handful of sampled assignments.  Raising ``y1``
    must never decrease the statistic; lowering ``y0`` must never increase it.
    """
    from . import design as design_mod

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    table = impute(data, 0.0)
    scale = max(1.0, float(np.ptp(data.y_obs)))
    n = data.n_units
    if design_mod.total_assignments(design) <= 256:
        W = design_mod.assignment_matrix(design)
    else:
        W = design_mod.sample_assignments(design, 64, seed=seed)
    W = W.astype(float)
    base = evaluate_many(stat, table, W)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(base))))
    for trial in range(trials):
        i = int(rng.integers(0, n))
        delta = float(scale * 2.0 ** rng.integers(-2, 5))
        raise_y1 = bool(rng.integers(0, 2))
        y1 = table.y1.copy()
        y0 = table.y0.copy()
        if raise_y1:
            y1[i] += delta
        else:
            y0[i] -= delta
        perturbed = evaluate_many(stat, ImputedOutcomes(y1, y0, 0.0), W)
        change = perturbed - base
        bad = np.nonzero(change < -tol)[0]
        if bad.size:
            j = int(bad[0])
            return EIProbeResult(
                consistent=False,
                counterexample={
                    "trial": trial,
                    "unit": i,
                    "perturbation": ("y1 += " if raise_y1 else "y0 -= ") + f"{delta:g}",
                    "assignment": W[j].astype(int).tolist(),
                    "statistic_before": float(base[j]),
                    "statistic_after": float(perturbed[j]),
                },
            )
    return EIProbeResult(consistent=True)
