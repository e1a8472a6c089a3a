"""Model-quality metrics and repeated k-fold cross-validation.

NMSE normalizes squared error by the uncorrected variance of the evaluation
response, so a null model that predicts the mean scores about 1. FDR is the
fraction of selected features outside the true support. Power is the
all-signals-detected event, not per-feature recall.

cross_validate tunes (lambda, delta) on repeated k-fold splits. To avoid
leakage, normalization factors are recomputed on each training fold through
normalize.compute_plan and never see held-out rows; only the lambda grid is
anchored once at lambda_max of the full data so fold errors aggregate on
common knots. Selection pools held-out predictions per repeat, which keeps
leave-one-out (where every per-fold variance is degenerate) well defined,
and ties break toward heavier regularization: larger lambda, then smaller
delta.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import normalize as _normalize
from .dataset import Dataset
from .errors import DimensionMismatchError, DomainError, ZeroScaleError
from .normalize import PLAIN, BinaryDelta, PerFeature, mixed_binary_delta
from .rng import RandomStream
from .solver import FitOptions, fit_path, lambda_grid, lambda_max
from .solver import fit  # noqa: F401  (perfbench/test_bench.py pins this binding site)

_log = logging.getLogger(__name__)


def nmse(y_true, y_pred) -> float:
    """Mean squared error divided by the uncorrected variance of y_true."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.ndim != 1 or y_true.shape != y_pred.shape:
        raise DimensionMismatchError("y_true and y_pred must be 1-d with equal length")
    if y_true.shape[0] < 2:
        raise DomainError("nmse needs at least 2 observations")
    var = float(np.mean((y_true - y_true.mean()) ** 2))
    if var == 0.0:
        raise DomainError("nmse undefined for a constant response")
    return float(np.mean((y_true - y_pred) ** 2)) / var


def fdr(support, truth) -> float:
    """|support \\ truth| / max(1, |support|); empty support scores 0."""
    support_set = set(support)
    truth_set = set(truth)
    return len(support_set - truth_set) / max(1, len(support_set))


def power_all(support, truth) -> int:
    """1 iff every true index was selected."""
    return int(set(truth) <= set(support))


@dataclass(frozen=True)
class CVPlan:
    """Grid and resampling layout for cross_validate.

    deltas is the normalization grid: each value maps binary columns to
    BinaryDelta(delta, comparability) and continuous columns to Standardize.
    """

    folds: int = 10
    repeats: int = 10
    seed: int = 0
    lambda_count: int = 100
    lambda_ratio: float = 1e-2
    deltas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)
    comparability: str = PLAIN

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise DomainError(f"folds must be >= 2, got {self.folds!r}")
        if self.repeats < 1:
            raise DomainError(f"repeats must be >= 1, got {self.repeats!r}")
        if not self.deltas:
            raise DomainError("deltas grid must be non-empty")
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))


class CVRow(NamedTuple):
    repeat: int
    fold: int
    lam: float
    delta: float
    nmse: float


@dataclass(frozen=True)
class CVBest:
    delta: float
    lam: float
    mean_nmse: float


@dataclass(frozen=True)
class CVResult:
    rows: tuple[CVRow, ...]
    best: CVBest
    lambdas: dict
    skipped: tuple[str, ...]


def fold_assignments(n: int, plan: CVPlan) -> list[list[np.ndarray]]:
    """Held-out index arrays, one list of plan.folds arrays per repeat.

    Each repeat permutes [0, n) with its own substream of plan.seed and cuts
    the permutation into folds of near-equal size, so assignments partition
    the rows and differ across repeats.
    """
    stream = RandomStream(plan.seed)
    out = []
    for repeat in range(plan.repeats):
        perm = stream.substream(repeat).generator().permutation(n)
        out.append([np.sort(chunk) for chunk in np.array_split(perm, plan.folds)])
    return out


def cross_validate(
    data: Dataset,
    plan: CVPlan,
    alpha: float = 1.0,
    options: FitOptions = FitOptions(),
) -> CVResult:
    """Repeated k-fold search over the (lambda, delta) grid.

    Returns per-(repeat, fold, lambda, delta) NMSE rows plus the best cell
    under mean pooled-per-repeat NMSE. Folds whose held-out response is
    constant contribute no per-fold row (logged) but still enter the pooled
    selection; a fold whose training columns degenerate under a delta (for
    example a single-class binary column) is skipped for that delta.
    """
    n = data.n
    if n < plan.folds:
        raise DomainError(f"need n >= folds, got n={n}, folds={plan.folds}")
    y_var_full = float(np.mean((data.y - data.y.mean()) ** 2))
    if y_var_full == 0.0:
        raise DomainError("cross_validate undefined for a constant response")

    # Per-delta lambda grid, anchored at full-data lambda_max under that
    # delta's normalization. Factors used for fitting remain fold-local.
    grids: dict[float, np.ndarray] = {}
    strategies: dict[float, PerFeature] = {}
    for delta in plan.deltas:
        strategy = mixed_binary_delta(data, BinaryDelta(delta, comparability=plan.comparability))
        full_plan = _normalize.compute_plan(data, strategy)
        full_norm = _normalize.apply(data, full_plan)
        grids[delta] = lambda_grid(
            lambda_max(full_norm), count=plan.lambda_count, ratio=plan.lambda_ratio
        )
        strategies[delta] = strategy

    assignments = fold_assignments(n, plan)
    rows: list[CVRow] = []
    skipped: list[str] = []
    # pooled squared-error sums: (delta, lam_index) -> per-repeat totals,
    # with per-delta row counts so skipped folds do not bias the pooled mean
    pooled = {
        (delta, i): np.zeros(plan.repeats)
        for delta in plan.deltas
        for i in range(plan.lambda_count)
    }
    counts = {delta: np.zeros(plan.repeats) for delta in plan.deltas}

    for repeat, folds in enumerate(assignments):
        for fold_id, test_idx in enumerate(folds):
            mask = np.ones(n, dtype=bool)
            mask[test_idx] = False
            train = Dataset(data.x[mask], data.y[mask], kinds=data.kinds, names=data.names)
            x_test = data.x[test_idx]
            y_test = data.y[test_idx]
            test_var = float(np.mean((y_test - y_test.mean()) ** 2))
            if test_var == 0.0:
                msg = f"repeat {repeat} fold {fold_id}: constant held-out response, per-fold rows skipped"
                _log.info(msg)
                skipped.append(msg)
            for delta in plan.deltas:
                try:
                    fold_plan = _normalize.compute_plan(train, strategies[delta])
                except ZeroScaleError as exc:
                    msg = f"repeat {repeat} fold {fold_id} delta {delta}: {exc}"
                    _log.info(msg)
                    skipped.append(msg)
                    continue
                train_norm = _normalize.apply(train, fold_plan)
                x_test_norm = fold_plan.transform(x_test)
                counts[delta][repeat] += test_idx.shape[0]
                path = fit_path(train_norm, alpha, grids[delta], options)
                for i, (lam, res) in enumerate(zip(grids[delta], path)):
                    pred = res.beta0_norm + x_test_norm @ res.beta_norm
                    sq = y_test - pred
                    pooled[(delta, i)][repeat] += float(np.dot(sq, sq))
                    if test_var > 0.0:
                        rows.append(
                            CVRow(repeat, fold_id, float(lam), delta,
                                  float(np.mean(sq * sq)) / test_var)
                        )

    best_key = None
    best_score = None
    for delta in plan.deltas:
        covered = counts[delta] > 0
        if not np.any(covered):
            continue
        for i, lam in enumerate(grids[delta]):
            per_repeat = pooled[(delta, i)][covered] / (counts[delta][covered] * y_var_full)
            score = float(np.mean(per_repeat))
            key = (score, -float(lam), delta)
            if best_key is None or key < best_key:
                best_key = key
                best_score = (delta, float(lam), score)
    if best_score is None:
        raise DomainError("every fold degenerated under every delta; nothing to select")
    best = CVBest(delta=best_score[0], lam=best_score[1], mean_nmse=best_score[2])
    lambdas = {delta: tuple(float(v) for v in grid) for delta, grid in grids.items()}
    return CVResult(rows=tuple(rows), best=best, lambdas=lambdas, skipped=tuple(skipped))
