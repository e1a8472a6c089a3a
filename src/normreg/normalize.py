"""Feature normalization: x_tilde[i, j] = (x[i, j] - c[j]) / s[j].

Strategies fix how the per-column center c and scale s are computed:

    ==============  ==========  ===========================================
    strategy        center      scale
    ==============  ==========  ===========================================
    NoNorm          0           1
    Standardize     mean        uncorrected sd  (||x - mean||_2 / sqrt(n))
    L1Centered      mean        ||x - mean||_1 / sqrt(n)
    MaxAbs          0           max |x|
    MinMax          min         max - min
    Robust          median      Q3 - Q1
    BinaryDelta     mean (= q)  (q - q^2)^delta, optionally anchored
    ==============  ==========  ===========================================

BinaryDelta applies only to binary columns; its class-balance scale
nu^delta = (q - q^2)^delta spans no scaling (delta=0), sd scaling
(delta=1/2) and variance scaling (delta=1). The comparability variants
multiply by an anchor so a binary effect at class balance q0 matches a
continuous effect of the same size:

    plain:  s = nu^delta
    lasso:  s = kappa * (q0 - q0^2)^(1 - delta)   * nu^delta
    ridge:  s =         (q0 - q0^2)^(1/2 - delta) * nu^delta

The ridge exponent makes s(q0)^2 equal the anchor variance q0 - q0^2, which
is what the quadratic penalty requires; the lasso exponent makes s(q0) equal
kappa * (q0 - q0^2).

A column with no variance gets scale 1 under every strategy: most rules give
it none (and nu^delta = 0 for delta > 0 on a single-class binary column).
Its normalized version is identically zero, and the solver, which finds such
columns once at set-up, keeps its coefficient at exactly zero whatever its
weight, so a constant training fold or split changes no other coefficient.
compute_plan raises ZeroScaleError only for a varying column whose scale
comes out zero, such as Robust on a column with a zero interquartile range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import BINARY, Dataset, infer_kinds
from .errors import DimensionMismatchError, DomainError, KindMismatchError, ZeroScaleError

PLAIN = "plain"
LASSO_COMPARABLE = "lasso"
RIDGE_COMPARABLE = "ridge"


@dataclass(frozen=True)
class NoNorm:
    pass


@dataclass(frozen=True)
class Standardize:
    pass


@dataclass(frozen=True)
class L1Centered:
    pass


@dataclass(frozen=True)
class MaxAbs:
    pass


@dataclass(frozen=True)
class MinMax:
    pass


@dataclass(frozen=True)
class Robust:
    pass


@dataclass(frozen=True)
class BinaryDelta:
    """Class-balance scaling for binary columns.

    delta >= 0 is the class-balance exponent; comparability selects the
    anchor variant ("plain", "lasso", "ridge"); kappa > 0 and q0 in (0, 1)
    parameterize the anchor.
    """

    delta: float
    comparability: str = PLAIN
    kappa: float = 2.0
    q0: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise DomainError(f"delta must be finite and >= 0, got {self.delta!r}")
        if self.comparability not in (PLAIN, LASSO_COMPARABLE, RIDGE_COMPARABLE):
            raise DomainError(f"unknown comparability {self.comparability!r}")
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError(f"kappa must be finite and > 0, got {self.kappa!r}")
        if not 0.0 < self.q0 < 1.0:
            raise DomainError(f"q0 must lie in (0, 1), got {self.q0!r}")

    def scale_at(self, q: float) -> float:
        """Scale factor for a binary column with class balance q; 1 when nu = 0."""
        nu = q - q * q
        if nu == 0.0:
            return 1.0
        if self.comparability == LASSO_COMPARABLE:
            nu0 = self.q0 - self.q0 * self.q0
            return self.kappa * nu0 ** (1.0 - self.delta) * nu**self.delta
        if self.comparability == RIDGE_COMPARABLE:
            nu0 = self.q0 - self.q0 * self.q0
            return nu0 ** (0.5 - self.delta) * nu**self.delta
        return nu**self.delta


@dataclass(frozen=True)
class PerFeature:
    """One strategy per column."""

    strategies: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(self.strategies))


Strategy = NoNorm | Standardize | L1Centered | MaxAbs | MinMax | Robust | BinaryDelta | PerFeature


@dataclass(frozen=True)
class NormalizationPlan:
    """Frozen per-column centers and scales.

    compute_plan makes them from a strategy; a plan built directly from
    explicit factors gets the same checks (finite, scales positive).
    """

    centers: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        centers = np.ascontiguousarray(np.asarray(self.centers, dtype=np.float64))
        scales = np.ascontiguousarray(np.asarray(self.scales, dtype=np.float64))
        if centers.ndim != 1 or scales.shape != centers.shape:
            raise DimensionMismatchError("centers and scales must be 1-d with equal length")
        if not np.all(np.isfinite(centers)) or not np.all(np.isfinite(scales)):
            raise DomainError("normalization factors must be finite")
        bad = np.nonzero(scales <= 0.0)[0]
        if bad.size:
            raise ZeroScaleError(f"non-positive scale for column(s) {bad.tolist()}")
        centers.setflags(write=False)
        scales.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "scales", scales)

    @property
    def p(self) -> int:
        return self.centers.shape[0]


def class_balance(col: np.ndarray) -> float:
    """Fraction of ones in a binary column."""
    col = np.asarray(col, dtype=np.float64)
    if not np.all((col == 0.0) | (col == 1.0)):
        raise KindMismatchError("class_balance requires a binary column")
    return float(col.mean())


def _column_factors(col: np.ndarray, strategy, j: int) -> tuple[float, float]:
    if isinstance(strategy, NoNorm):
        return 0.0, 1.0
    if isinstance(strategy, Standardize):
        c = float(col.mean())
        s = float(np.sqrt(np.mean((col - c) ** 2)))
    elif isinstance(strategy, L1Centered):
        c = float(col.mean())
        s = float(np.sum(np.abs(col - c)) / np.sqrt(col.shape[0]))
    elif isinstance(strategy, MaxAbs):
        c = 0.0
        s = float(np.max(np.abs(col)))
    elif isinstance(strategy, MinMax):
        c = float(col.min())
        s = float(col.max() - col.min())
    elif isinstance(strategy, Robust):
        q1, q2, q3 = np.quantile(col, [0.25, 0.5, 0.75])
        c = float(q2)
        s = float(q3 - q1)
    elif isinstance(strategy, BinaryDelta):
        if not np.all((col == 0.0) | (col == 1.0)):
            raise KindMismatchError(
                f"BinaryDelta applied to non-binary column {j}; wrap strategies in "
                "PerFeature for mixed data"
            )
        q = float(col.mean())
        c = q
        s = strategy.scale_at(q)
    else:
        raise DomainError(f"unknown strategy {strategy!r}")
    if col.min() == col.max():
        return c, 1.0
    if s <= 0.0:
        raise ZeroScaleError(f"column {j} has zero scale under {type(strategy).__name__}")
    return c, s


def mixed_binary_delta(data: Dataset, binary: BinaryDelta) -> PerFeature:
    """`binary` on the binary columns of data, Standardize on the others."""
    kinds = infer_kinds(data.x)
    return PerFeature(tuple(binary if kind == BINARY else Standardize() for kind in kinds))


def compute_plan(data: Dataset, strategy: Strategy) -> NormalizationPlan:
    """Compute per-column normalization factors from the data.

    A single strategy applies to every column; PerFeature supplies one
    strategy per column. Factors are computed from `data` only, so held-out
    rows never influence a plan computed on training rows.
    """
    if isinstance(strategy, PerFeature):
        if len(strategy.strategies) != data.p:
            raise DimensionMismatchError(
                f"PerFeature has {len(strategy.strategies)} strategies for {data.p} columns"
            )
        per_col = strategy.strategies
    else:
        per_col = (strategy,) * data.p
    centers = np.empty(data.p)
    scales = np.empty(data.p)
    for j in range(data.p):
        centers[j], scales[j] = _column_factors(data.column(j), per_col[j], j)
    return NormalizationPlan(centers=centers, scales=scales)


def apply(data: Dataset, plan: NormalizationPlan) -> Dataset:
    """Return data with x mapped to (x - c) / s; the response is untouched."""
    if plan.p != data.p:
        raise DimensionMismatchError(f"plan covers {plan.p} columns, data has {data.p}")
    x = np.subtract(data.x, plan.centers)
    x /= plan.scales
    return Dataset(x=x, y=data.y.copy(), names=data.names)


def backtransform(beta_norm: np.ndarray, beta0_norm: float, plan: NormalizationPlan):
    """Map normalized-scale coefficients back to the original scale.

    beta[j] = beta_norm[j] / s[j]; the intercept absorbs the centers:
    beta0 = beta0_norm - sum_j c[j] * beta[j]. Predictions are invariant:
    beta0 + x @ beta == beta0_norm + x_tilde @ beta_norm.
    """
    beta_norm = np.asarray(beta_norm, dtype=np.float64)
    if beta_norm.shape != (plan.p,):
        raise DimensionMismatchError(f"beta_norm must have shape ({plan.p},)")
    beta = beta_norm / plan.scales
    beta0 = float(beta0_norm - np.dot(plan.centers, beta))
    return beta, beta0


def make_interaction(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Product feature from two columns: (x1 - mean x1) * (x2 - mean x2).

    Centering both factors keeps the product orthogonal to both main effects
    in expectation. Both product scale rules of the interactions scenario
    (standardize the product, or divide by s1 * s2) apply to this centered
    product.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise DimensionMismatchError("interaction inputs must be 1-d with equal length")
    return (x1 - x1.mean()) * (x2 - x2.mean())
