"""Test statistics and potential-outcome imputation under constant-effect nulls.

A constant-effect null pins every unit's treatment effect to one value
``theta``, which lets the full potential-outcome table be reconstructed from
the observed half: :func:`impute`.  The imputed table and a population's
true table are one type, :class:`PotentialTable`, whose ``observe`` realizes
the :class:`ObservedData` of an assignment.  Statistics are evaluated on the
dataset realized by applying an assignment vector to that imputed table: a
statistic reads the treated potentials where the assignment treats and the
control potentials elsewhere (:class:`StatisticSpec`).

Assignment rows arrive as ``int8`` blocks.  The float work walks a block in
tiles of at most ``_TILE_ENTRIES`` entries (:func:`_by_tile`), so the float
copies of the rows and their temporaries stay cache sized whatever the
block size.

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
    Sum of treatment-arm ranks of the realized outcomes, midranks for ties,
    read from treated/control pair counts (:func:`_wilcoxon_rows`).  EI.  Its
    exact per-assignment switch points in ``theta`` come from the pairwise
    differences of treated and control outcomes (the structure behind the
    Hodges-Lehmann estimator), read from one table of pair values per call,
    see :func:`_wilcoxon_switch_points`.

All statistics here are oriented so that large values indicate effects above
the hypothesized ``theta``.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ObservedData",
    "PotentialTable",
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

    Statistics here pool across blocks, so the data carry no block labels;
    a blocked design's labels only validate input against it.
    """

    w_obs: np.ndarray
    y_obs: np.ndarray

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

    @property
    def n_units(self) -> int:
        return self.w_obs.size


@dataclass(frozen=True)
class PotentialTable:
    """A full potential-outcome table: control and treated values per unit."""

    y0: np.ndarray
    y1: np.ndarray

    def __post_init__(self):
        y0 = np.asarray(self.y0, dtype=float)
        y1 = np.asarray(self.y1, dtype=float)
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "y1", y1)
        if y0.shape != y1.shape or y0.ndim != 1:
            raise ValueError("y0 and y1 must be equal-length vectors")

    @property
    def n_units(self) -> int:
        return self.y0.size

    def observe(self, w: np.ndarray) -> ObservedData:
        """Realize the data an experimenter would see under assignment ``w``."""
        w = np.asarray(w)
        y_obs = np.where(w == 1, self.y1, self.y0)
        return ObservedData(w_obs=w.astype(np.int8), y_obs=y_obs)


def impute(data: ObservedData, theta: float) -> PotentialTable:
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
    return PotentialTable(y0=y0, y1=y1)


@dataclass(frozen=True)
class StatisticSpec:
    """A registered test statistic and its certification flags.

    ``rows(y1, y0, W)`` computes the statistic for every row of the float
    assignment rows ``W`` (shape (k, n)), vectorized: unit ``i`` of row ``r``
    realizes ``y1[r, i]`` where ``W[r, i] = 1`` and ``y0[r, i]`` where it is
    0.  Each of ``y1`` and ``y0`` is a vector of n shared by every row or a
    matrix of ``W``'s shape, and is read only where its arm is assigned.  It
    is called on one tile of rows at a time (:func:`_by_tile`).
    ``ei_certified`` statistics are non-decreasing in the treated potentials
    and non-increasing in the control potentials, which guarantees
    ``theta_monotone_rightcontinuous`` for the map theta -> T(imputed, w).

    Optional capabilities replace inversion's generic bisection.  Both
    receive a read-only ``int8`` block of assignment rows.
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
    ei_certified: bool
    theta_monotone_rightcontinuous: bool
    rows: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    affine: Optional[Callable[..., tuple]] = None
    switch_points: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self):
        if self.ei_certified and not self.theta_monotone_rightcontinuous:
            raise ValueError(
                "an EI statistic is automatically monotone and right continuous in theta"
            )


# Entries of an assignment block converted to float at a time.  Tiles are a
# multiple of 8 rows (at least 8), so BLAS row dot products over a tile round
# exactly as over the whole block, and results do not depend on the size.
_TILE_ENTRIES = 1 << 15


def _by_tile(fn, W, *outcomes):
    """``fn(*outcomes, tile)`` on float tiles of the rows of ``W``, results joined in row order.

    A tile has at most ``_TILE_ENTRIES`` entries, or 8 rows when a row is
    longer.  Each outcome matrix (2-D) is cut into the tile's rows; a vector
    serves every row.  ``fn`` returns a per-row vector or a tuple of them,
    none a view of the tile: the tiles of one call share one buffer.
    """
    k, n = W.shape
    step = max(8, _TILE_ENTRIES // max(n, 1) // 8 * 8)
    buffer = np.empty((min(step, k), n))
    parts = []
    for start in range(0, max(k, 1), step):
        tile = buffer[:min(step, k - start)]
        np.copyto(tile, W[start:start + step])
        parts.append(fn(*(y[start:start + step] if y.ndim == 2 else y for y in outcomes), tile))
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _arm_sizes(W):
    n1 = W @ np.ones(W.shape[1])  # exact integers
    return n1, W.shape[1] - n1


def _diff_means_rows(y1, y0, W):
    # a 0/1 factor picks a value or a zero, so these are the sums of the
    # realized treated and control outcomes
    n1, n0 = _arm_sizes(W)
    picked = W * y1
    treated = picked.sum(axis=1)
    np.subtract(1, W, out=picked)
    picked *= y0
    return treated / n1 - picked.sum(axis=1) / n0


def _diff_means_affine(data: ObservedData, W: np.ndarray):
    """Intercept and slope of theta -> diff_means(imputed_theta, w), per row.

    The slope counts treatment/control mismatches against the observed
    assignment scaled by arm sizes, so it is >= 0 and vanishes exactly for
    rows equal to the observed assignment (which stay tied at T_obs).  Both
    mismatch counts follow from the units treated under both, ``W @ w_obs``,
    and the arm sizes from ``W @ ones``, all as exact integers.
    """
    y = data.y_obs
    w_obs = data.w_obs.astype(float)
    ones = np.ones(y.size)

    def tile(W):
        n1 = W @ ones
        n0 = W.shape[1] - n1
        both = W @ w_obs
        treated = W @ y
        control = np.subtract(1, W, out=W) @ y  # the tile is scratch, refilled for the next
        a = treated / n1 - control / n0
        b = (n1 - both) / n1 + (w_obs.sum() - both) / n0
        return a, b

    return _by_tile(tile, W)


def _studentized_rows(y1, y0, W):
    n1, n0 = _arm_sizes(W)
    if (n1 < 2).any() or (n0 < 2).any():
        raise StatisticError("studentized statistic requires both arms of size >= 2")
    m1 = (W * y1).sum(axis=1) / n1
    m0 = ((1 - W) * y0).sum(axis=1) / n0
    ss1 = ((y1 * y1) * W).sum(axis=1) - n1 * m1 * m1
    ss0 = ((y0 * y0) * (1 - W)).sum(axis=1) - n0 * m0 * m0
    v1 = np.maximum(ss1, 0.0) / (n1 - 1)
    v0 = np.maximum(ss0, 0.0) / (n0 - 1)
    denom = np.sqrt(v1 / n1 + v0 / n0)
    if (denom == 0).any():
        raise DegenerateDenominatorError(
            "both arm variances are zero for at least one assignment"
        )
    return (m1 - m0) / denom


# Treated/control pairs built at once by the rank-sum kernels: bounds their
# memory, for the switch points the gathered q and their flat indices.
_PAIR_CHUNK = 1 << 16


def _pair_chunks(W: np.ndarray):
    """Yield ``(rows, ti, ci)``: a slice of the rows of ``W`` with the indices
    of each row's ``n1`` treated and ``n0`` control units, shapes ``(r, n1)``
    and ``(r, n0)``, in chunks of at most ``_PAIR_CHUNK`` pairs (or one row).
    Every row must treat as many units as row 0, as CRD/RBD rows do."""
    treated = W > 0.5
    k, n = treated.shape
    n1 = int(treated[:1].sum())
    if (treated.sum(axis=1) != n1).any():
        raise StatisticError("rank-sum rows must all treat the same number of units")
    n0 = n - n1
    step = max(1, _PAIR_CHUNK // max(1, n1 * n0))
    for start in range(0, k, step):
        t = treated[start:start + step]
        r = t.shape[0]
        yield slice(start, start + r), np.nonzero(t)[1].reshape(r, n1), np.nonzero(~t)[1].reshape(r, n0)


def _wilcoxon_rows(y1, y0, W):
    """Rank sum of each row from pair counts: ``n1(n1+1)/2`` plus, over treated
    ``i`` and control ``j``, 1 if ``y_i > y_j`` and 1/2 if they tie, on the
    realized outcomes.  The values are exact half-integers, equal to the
    treated midrank sums."""
    Y = np.where(W == 1, y1, y0)
    out = np.empty(W.shape[0])
    for rows, ti, ci in _pair_chunks(W):
        n1 = ti.shape[1]
        yt = np.take_along_axis(Y[rows], ti, axis=1)[:, :, None]
        yc = np.take_along_axis(Y[rows], ci, axis=1)[:, None, :]
        out[rows] = n1 * (n1 + 1) / 2 + (yt > yc).sum(axis=(1, 2)) + 0.5 * (yt == yc).sum(axis=(1, 2))
    return out


def _wilcoxon_switch_points(data: ObservedData, W: np.ndarray, m) -> np.ndarray:
    """Exact switch points of ``1{T(theta, w) >= m}`` for the rank sum.

    Under the constant-effect null unit ``i`` realizes ``y_i + theta * d_i``
    with ``d_i = w_i - w_obs_i``.  In the pair count of :func:`_wilcoxon_rows`,
    with ``c = d_i - d_j`` in {0, 1, 2}, a pair with ``c = 0`` contributes a
    constant and a pair with ``c > 0`` switches on at ``q = (y_j - y_i) / c``.
    Away from the ``q``, ``T = base + #{q < theta}``, so ``T >= m`` exactly
    when theta exceeds the ``ceil(m - base)``-th smallest ``q`` of the row.

    Neither ``q`` nor a fixed pair's win depends on the row, only on the
    pair and ``w_obs``.  So each call builds one pair table ``Q`` (``+inf``
    where ``c = 0``) with a row for each unit ``i`` that some row of ``W``
    treats, the ``i`` of every pair read, and each row's ``q`` are gathered
    from it by flat index.  It takes 8·|U|·n bytes for |U| such units, at
    most 8·n² (29 KB at n = 60; at n = 2,000, 6.4 MB for 200 rows treating
    two units each, 32 MB once every unit is treated somewhere).
    The fixed pairs are the observed-treated ``i`` and observed-control
    ``j`` that the row keeps in place; their wins
    ``B = [y_j < y_i] + 1/2 [y_j = y_i]`` (at most n1_obs·n0_obs doubles)
    give a chunk's ``base`` in one matrix product, exact because every
    partial sum is a small half-integer.  Each row's ``q`` are sorted once
    for every threshold in ``m``.
    """
    y = data.y_obs
    w_obs = data.w_obs
    m = np.asarray(m, dtype=float)
    n = y.size
    treated, control = np.flatnonzero(w_obs == 1), np.flatnonzero(w_obs == 0)
    units = np.flatnonzero(W.any(axis=0))  # the i of the pairs read
    start = np.zeros(n, dtype=np.int64)  # where unit i's row of Q starts
    start[units] = np.arange(units.size) * n
    B = y[None, control] - y[treated, None]  # the pairs with c = 0
    B = (B < 0) + 0.5 * (B == 0)
    Q = y[None, :] - y[units, None]  # y_j - y_i: the pairs with c = 1 as they stand
    Q[np.ix_(w_obs[units] == 0, w_obs == 1)] /= 2  # c = 2
    Q[np.ix_(w_obs[units] == 1, w_obs == 0)] = np.inf  # c = 0
    Q = Q.ravel()
    out = np.empty((m.size, W.shape[0]))
    for rows, ti, ci in _pair_chunks(W):
        r, n1 = ti.shape
        pairs = n1 * ci.shape[1]
        q = Q[start[ti][:, :, None] + ci[:, None, :]].reshape(r, pairs)
        q.sort(axis=1)
        Wr = W[rows]
        base = n1 * (n1 + 1) / 2 + np.einsum("ij,ij->i", Wr[:, treated], (1 - Wr[:, control]) @ B.T)
        need = np.ceil(m.reshape(-1, 1) - base).astype(np.int64)  # pairs that must be on
        pick = q[np.arange(r), np.clip(need - 1, 0, pairs - 1)]
        out[:, rows] = np.where(need <= 0, -np.inf, np.where(need > pairs, np.inf, pick))
    return out.reshape(m.shape + (W.shape[0],))


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
        ei_certified=True,
        theta_monotone_rightcontinuous=True,
        rows=_diff_means_rows,
        affine=_diff_means_affine,
    )
)

STUDENTIZED = register_statistic(
    StatisticSpec(
        name="studentized",
        ei_certified=False,
        theta_monotone_rightcontinuous=False,
        rows=_studentized_rows,
    )
)

WILCOXON = register_statistic(
    StatisticSpec(
        name="wilcoxon_rank_sum",
        ei_certified=True,
        theta_monotone_rightcontinuous=True,
        rows=_wilcoxon_rows,
        switch_points=_wilcoxon_switch_points,
    )
)


def evaluate_realized(stat: StatisticSpec, Y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Statistic values for realized-outcome rows ``Y`` under assignment rows ``W``."""
    Y = np.asarray(Y, dtype=float)
    return _by_tile(stat.rows, np.asarray(W), Y, Y)


def evaluate_many(stat: StatisticSpec, imputed: PotentialTable, W: np.ndarray) -> np.ndarray:
    """Statistic values for every assignment row of ``W`` (shape (k, n)), ``int8`` or float."""
    W = np.asarray(W)
    if W.ndim == 1:
        W = W[None, :]
    return _by_tile(stat.rows, W, imputed.y1, imputed.y0)


def evaluate(stat: StatisticSpec, imputed: PotentialTable, w: np.ndarray) -> float:
    """Statistic value on the dataset realized by applying ``w`` to the table."""
    return float(evaluate_many(stat, imputed, np.asarray(w, dtype=float)[None, :])[0])


def observed_statistic(stat: StatisticSpec, data: ObservedData) -> float:
    """T computed on the observed data (independent of any hypothesized theta)."""
    table = PotentialTable(y0=data.y_obs, y1=data.y_obs)
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
        perturbed = evaluate_many(stat, PotentialTable(y0=y0, y1=y1), W)
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
