"""Cyclic coordinate descent for the weighted elastic net.

Minimizes, over (beta0, beta) and for fixed per-feature weights u, v > 0,

    (1/2) ||y - beta0 - X beta||^2
        + lam1 * sum_j u_j |beta_j| + (lam2 / 2) * sum_j v_j beta_j^2.

The module operates on already-normalized data and never computes
normalization factors itself; pass the plan that produced the data to get
original-scale coefficients in the result. With u = v = 1 this is the
standard elastic net; with u_j = s_j and v_j = s_j^2 on centered unscaled
data it reproduces the normalized fit exactly (the weighted/normalized
equivalence), which the tests exercise.

Each coordinate update is the exact scalar minimizer

    beta_j <- ST(x_j' r + ||x_j||^2 beta_j, lam1 u_j) / (||x_j||^2 + lam2 v_j)

against the full residual r = y - beta0 - X beta, so the objective never
increases. The intercept is always fit and never penalized: it is
re-centered by mean(r) each sweep, which is its exact coordinate step; for
mean-centered columns this lands on beta0 = mean(y) immediately. After the
first full pass the solver iterates over the current support and re-checks
the full coordinate set before declaring convergence (max absolute
coefficient change <= tolerance on a full sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DimensionMismatchError, DomainError
from .normalize import NormalizationPlan, backtransform


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty levels lam1 (l1) and lam2 (quadratic) with optional weights."""

    lam1: float
    lam2: float = 0.0
    u: np.ndarray | None = None
    v: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("lam1", "lam2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("u", "v"):
            w = getattr(self, name)
            if w is None:
                continue
            w = np.ascontiguousarray(np.asarray(w, dtype=np.float64))
            if w.ndim != 1:
                raise DimensionMismatchError(f"{name} must be 1-d")
            if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
                raise DomainError(f"{name} entries must be positive and finite")
            w.setflags(write=False)
            object.__setattr__(self, name, w)

    def resolve_weights(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        u = self.u if self.u is not None else np.ones(p)
        v = self.v if self.v is not None else np.ones(p)
        if u.shape[0] != p or v.shape[0] != p:
            raise DimensionMismatchError(f"weights must have length {p}")
        return u, v


def from_mixing(alpha: float, lam: float, u=None, v=None) -> PenaltySpec:
    """Penalty from the mixing parameterization: lam1 = alpha*lam, lam2 = (1-alpha)*lam."""
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha must lie in [0, 1], got {alpha!r}")
    if lam < 0.0:
        raise DomainError(f"lam must be >= 0, got {lam!r}")
    return PenaltySpec(lam1=alpha * lam, lam2=(1.0 - alpha) * lam, u=u, v=v)


@dataclass(frozen=True)
class FitOptions:
    tolerance: float = 1e-8
    max_sweeps: int = 1000

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise DomainError("tolerance must be positive")
        if self.max_sweeps < 1:
            raise DomainError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Solver output on both scales.

    beta/beta0 equal beta_norm/beta0_norm when no plan was supplied.
    """

    beta_norm: np.ndarray
    beta0_norm: float
    beta: np.ndarray
    beta0: float
    sweeps_used: int
    converged: bool
    objective_value: float
    lam1: float
    lam2: float

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.beta_norm)[0]


def _objective(r, beta, lam1, lam2, u, v) -> float:
    return float(
        0.5 * np.dot(r, r)
        + lam1 * np.dot(u, np.abs(beta))
        + 0.5 * lam2 * np.dot(v, beta * beta)
    )


def fit(
    data: Dataset,
    penalty: PenaltySpec,
    options: FitOptions = FitOptions(),
    plan: NormalizationPlan | None = None,
    warm_start: np.ndarray | None = None,
) -> FitResult:
    """Solve the weighted elastic net on (already normalized) data."""
    x, y = data.x, data.y
    n, p = data.n, data.p
    if penalty.lam1 == 0.0 and penalty.lam2 == 0.0 and p >= n:
        raise DomainError("unpenalized fit requires p < n")
    u, v = penalty.resolve_weights(p)
    lam1, lam2 = penalty.lam1, penalty.lam2

    col_sq = np.einsum("ij,ij->j", x, x)
    denom = col_sq + lam2 * v
    if warm_start is not None:
        beta = np.array(warm_start, dtype=np.float64)
        if beta.shape != (p,):
            raise DimensionMismatchError(f"warm_start must have shape ({p},)")
    else:
        beta = np.zeros(p)
    beta0 = 0.0
    r = y - x @ beta

    # A fit's cost is the interpreter's per-update overhead, so the sweep
    # reads Python floats from lists, keeps the (contiguous) column views and
    # updates r in place through one scratch vector. Each step is the same
    # IEEE operation as on NumPy scalars, with r -= delta * x_j kept as a
    # multiply then a subtract (an axpy would fuse them and round
    # differently), so the iterates are unchanged bit for bit.
    columns = list(x.T)
    col_sq_l, denom_l = col_sq.tolist(), denom.tolist()
    thresh_l = (lam1 * u).tolist()
    coef = beta.tolist()
    step = np.empty(n)
    r_dot, multiply, subtract, copysign = r.dot, np.multiply, np.subtract, math.copysign

    def sweep(indices) -> float:
        nonlocal beta0
        shift = float(r.mean())
        beta0 += shift
        subtract(r, shift, out=r)
        max_delta = abs(shift)
        for j in indices:
            dj = denom_l[j]
            if dj == 0.0:
                continue
            xj = columns[j]
            bj_old = coef[j]
            z = float(r_dot(xj)) + col_sq_l[j] * bj_old
            zt = abs(z) - thresh_l[j]
            bj = 0.0 if zt <= 0.0 else copysign(zt, z) / dj
            delta = bj - bj_old
            if delta != 0.0:
                multiply(xj, delta, out=step)
                subtract(r, step, out=r)
                coef[j] = bj
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        return max_delta

    all_indices = range(p)
    sweeps = 0
    converged = False
    while sweeps < options.max_sweeps:
        full_delta = sweep(all_indices)
        sweeps += 1
        if full_delta <= options.tolerance:
            converged = True
            break
        # ascending, as np.nonzero(beta) gives it
        active = [j for j, b in enumerate(coef) if b != 0.0]
        while sweeps < options.max_sweeps:
            active_delta = sweep(active)
            sweeps += 1
            if active_delta <= options.tolerance:
                break

    beta = np.array(coef)
    objective = _objective(r, beta, lam1, lam2, u, v)
    if plan is not None:
        beta_orig, beta0_orig = backtransform(beta, beta0, plan)
    else:
        beta_orig, beta0_orig = beta.copy(), beta0
    return FitResult(
        beta_norm=beta,
        beta0_norm=beta0,
        beta=beta_orig,
        beta0=beta0_orig,
        sweeps_used=sweeps,
        converged=converged,
        objective_value=objective,
        lam1=lam1,
        lam2=lam2,
    )


def orthogonal_solution(
    xty: np.ndarray, col_sq: np.ndarray, penalty: PenaltySpec, ybar: float = 0.0
) -> tuple[np.ndarray, float]:
    """Closed-form solution for a design with orthogonal mean-centered columns.

    beta_j = ST(x_j' y, lam1 u_j) / (||x_j||^2 + lam2 v_j) and beta0 = mean(y).
    Used as the solver's test oracle.
    """
    xty = np.asarray(xty, dtype=np.float64)
    col_sq = np.asarray(col_sq, dtype=np.float64)
    if xty.shape != col_sq.shape or xty.ndim != 1:
        raise DimensionMismatchError("xty and col_sq must be 1-d with equal length")
    u, v = penalty.resolve_weights(xty.shape[0])
    shrunk = np.sign(xty) * np.maximum(np.abs(xty) - penalty.lam1 * u, 0.0)
    denom = col_sq + penalty.lam2 * v
    if np.any(denom <= 0.0):
        raise DomainError("each column needs ||x_j||^2 + lam2 v_j > 0")
    return shrunk / denom, float(ybar)


def lambda_max(data: Dataset, u: np.ndarray | None = None) -> float:
    """Smallest l1 level at which the fit is the null model.

    max_j |x_j' (y - mean(y))| / u_j: at or above this level every
    coordinate satisfies the zero-coefficient optimality condition.
    """
    u_arr = u if u is not None else np.ones(data.p)
    u_arr = np.asarray(u_arr, dtype=np.float64)
    if u_arr.shape != (data.p,):
        raise DimensionMismatchError(f"u must have shape ({data.p},)")
    if np.any(u_arr <= 0.0):
        raise DomainError("u entries must be positive")
    grads = np.abs(data.x.T @ (data.y - data.y.mean())) / u_arr
    value = float(grads.max()) if data.p else 0.0
    if value == 0.0:
        raise DomainError("lambda_max undefined: all columns uncorrelated with response")
    # pad by a few ulps so lam1 * u_j >= |x_j' r| survives the divide/multiply
    # round trip and a fit at exactly this level is the null model
    return value * (1.0 + 4.0 * np.finfo(np.float64).eps)


def lambda_grid(lam_max: float, count: int = 100, ratio: float = 1e-2) -> np.ndarray:
    """Log-spaced grid from lam_max down to ratio * lam_max."""
    if lam_max <= 0.0 or count < 1 or not 0.0 < ratio <= 1.0:
        raise DomainError("need lam_max > 0, count >= 1, ratio in (0, 1]")
    if count == 1:
        return np.array([lam_max])
    return lam_max * np.exp(np.linspace(0.0, np.log(ratio), count))


def fit_path(
    data: Dataset,
    alpha: float,
    lambdas: np.ndarray,
    options: FitOptions = FitOptions(),
    u: np.ndarray | None = None,
    v: np.ndarray | None = None,
    plan: NormalizationPlan | None = None,
) -> list[FitResult]:
    """Warm-started fits over the caller's lambda grid, in the given order.

    The caller owns the grid: lambda_grid(lambda_max(data, u), count, ratio)
    gives a path from this data's null model down, and any other anchor (the
    full-data lambda_max for a cross-validation fold, say) works the same.
    Each fit starts from the previous coefficients. Returns one FitResult
    per grid value.
    """
    results: list[FitResult] = []
    warm: np.ndarray | None = None
    for lam in lambdas:
        res = fit(data, from_mixing(alpha, float(lam), u=u, v=v), options, plan=plan, warm_start=warm)
        warm = res.beta_norm
        results.append(res)
    return results


def kkt_residuals(data: Dataset, penalty: PenaltySpec, result: FitResult):
    """(max active stationarity residual, max inactive excess) for a fit.

    Active coordinates must satisfy x_j' r - lam2 v_j b_j = lam1 u_j sign(b_j);
    inactive ones |x_j' r| <= lam1 u_j. Both residuals scale with n.
    """
    u, v = penalty.resolve_weights(data.p)
    r = data.y - result.beta0_norm - data.x @ result.beta_norm
    grads = data.x.T @ r
    beta = result.beta_norm
    active = beta != 0.0
    active_res = 0.0
    if np.any(active):
        station = grads[active] - penalty.lam2 * v[active] * beta[active]
        station -= penalty.lam1 * u[active] * np.sign(beta[active])
        active_res = float(np.max(np.abs(station)))
    inactive_res = 0.0
    if np.any(~active):
        excess = np.abs(grads[~active]) - penalty.lam1 * u[~active]
        inactive_res = float(max(np.max(excess), 0.0))
    return active_res, inactive_res
