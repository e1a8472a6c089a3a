"""Coordinate-descent solver against closed forms and KKT conditions."""

import numpy as np
import pytest

from normreg.dataset import Dataset
from normreg.errors import DomainError
from normreg.normalize import BinaryDelta, NormalizationPlan, apply, backtransform, compute_plan
from normreg.solver import (
    FitOptions,
    PenaltySpec,
    fit,
    fit_path,
    from_mixing,
    kkt_residuals,
    lambda_grid,
    lambda_max,
    orthogonal_solution,
)

from conftest import binary_design, orthogonal_design

TIGHT = FitOptions(tolerance=1e-12, max_sweeps=50_000)


def test_orthogonal_solution_examples():
    beta, beta0 = orthogonal_solution(
        np.array([5.0]), np.array([10.0]), PenaltySpec(lam1=2.0), ybar=1.5
    )
    assert beta[0] == pytest.approx(0.3, abs=1e-15)
    assert beta0 == 1.5
    beta, _ = orthogonal_solution(
        np.array([-5.0]), np.array([10.0]), PenaltySpec(lam1=2.0, lam2=3.0), ybar=0.0
    )
    assert beta[0] == pytest.approx(-3.0 / 13.0, abs=1e-15)


def test_orthogonal_solution_ridge_shrinks_monotonically():
    xty, diag = np.array([5.0]), np.array([10.0])
    values = [
        abs(orthogonal_solution(xty, diag, PenaltySpec(lam1=0.0, lam2=lam2), 0.0)[0][0])
        for lam2 in (0.0, 1e3, 1e6)
    ]
    assert values[0] > values[1] > values[2] > 0.0


def test_single_feature_fit_matches_hand_value():
    # centered column with x'x = 10, x'y = 5, lam1 = 2 -> ST_2(5)/10 = 0.3
    x = np.array([2.0, -1.0, -1.0, 1.0, -1.0])
    x = x - x.mean()
    x = x * np.sqrt(10.0 / np.dot(x, x))
    y_target = 0.5 * x  # x'y = 5
    data = Dataset(x=x[:, np.newaxis], y=y_target)
    res = fit(data, PenaltySpec(lam1=2.0), TIGHT)
    assert res.beta_norm[0] == pytest.approx(0.3, abs=1e-10)
    assert res.converged


def test_null_model_at_lambda_max():
    data = binary_design(3)
    lam = lambda_max(
        Dataset(x=data.x - data.x.mean(axis=0), y=data.y)
    )
    res = fit(
        Dataset(x=data.x - data.x.mean(axis=0), y=data.y),
        PenaltySpec(lam1=lam * 1.0001),
        TIGHT,
    )
    assert np.all(res.beta_norm == 0.0)
    assert res.beta0_norm == pytest.approx(data.y.mean(), abs=1e-12)
    assert res.support.size == 0
    res = fit(
        Dataset(x=data.x - data.x.mean(axis=0), y=data.y),
        PenaltySpec(lam1=lam * 0.99),
        TIGHT,
    )
    assert len(res.support) >= 1


def test_solver_matches_orthogonal_closed_form():
    for seed in range(5):
        data = orthogonal_design(seed)
        rng = np.random.default_rng(1000 + seed)
        penalty = PenaltySpec(
            lam1=rng.uniform(0.0, 3.0),
            lam2=rng.uniform(0.0, 5.0),
            u=rng.uniform(0.5, 2.0, data.p),
            v=rng.uniform(0.5, 2.0, data.p),
        )
        res = fit(data, penalty, TIGHT)
        xty = data.x.T @ data.y
        diag = np.sum(data.x * data.x, axis=0)
        beta_ref, beta0_ref = orthogonal_solution(xty, diag, penalty, float(data.y.mean()))
        assert np.allclose(res.beta_norm, beta_ref, atol=1e-8)
        assert res.beta0_norm == pytest.approx(beta0_ref, abs=1e-8)


def test_lambda_max_examples():
    x = np.array([0.5, -0.5, 0.5, -0.5]) * np.sqrt(49.0)  # x'(y - ybar) = 7 with y below
    y = x / 7.0
    data = Dataset(x=x[:, np.newaxis], y=y)
    assert lambda_max(data) == pytest.approx(abs(np.dot(x, y - y.mean())), abs=1e-12)
    assert lambda_max(data, u=np.array([2.0])) == pytest.approx(lambda_max(data) / 2.0, abs=1e-12)


def test_lambda_grid_shape():
    grid = lambda_grid(10.0, count=5, ratio=1e-2)
    assert grid[0] == 10.0
    assert grid[-1] == pytest.approx(0.1, abs=1e-12)
    assert np.all(np.diff(grid) < 0.0)
    with pytest.raises(DomainError):
        lambda_grid(0.0)


def test_fit_path_starts_null_and_matches_cold_refits():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((60, 20))
    x = x - x.mean(axis=0)
    beta = np.zeros(20)
    beta[:4] = (1.5, -2.0, 1.0, 0.5)
    y = x @ beta + rng.standard_normal(60)
    data = Dataset(x=x, y=y)
    grid = lambda_grid(lambda_max(data), count=12, ratio=1e-2)
    # null start only holds when the whole penalty is l1 (lam1 == lam at the anchor)
    lasso = fit_path(data, 1.0, grid[:5], options=TIGHT)
    assert lasso[0].support.size == 0
    # the caller owns the grid: one anchored elsewhere (here at a subsample's
    # lambda_max, as cross-validation does for a fold) warm-starts the same way
    off_anchor = lambda_grid(lambda_max(Dataset(x=x[:30], y=y[:30])), count=6, ratio=1e-2)
    for alpha, lambdas in ((0.8, grid), (1.0, off_anchor)):
        path = fit_path(data, alpha, lambdas, options=TIGHT)
        assert [res.lam1 + res.lam2 for res in path] == pytest.approx(lambdas, rel=1e-15)
        for res in path:
            cold = fit(data, from_mixing(alpha, res.lam1 + res.lam2), TIGHT)
            assert np.allclose(res.beta_norm, cold.beta_norm, atol=1e-6)


def test_objective_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 10))
    y = rng.standard_normal(80)
    data = Dataset(x=x, y=y)
    penalty = PenaltySpec(lam1=1.0, lam2=0.5)
    full = fit(data, penalty, FitOptions(tolerance=1e-10, max_sweeps=10_000))
    assert full.converged and full.sweeps_used >= 2
    # a fit capped at k sweeps stops in the state after sweep k
    hist = np.array([
        fit(data, penalty, FitOptions(tolerance=1e-10, max_sweeps=k)).objective_value
        for k in range(1, full.sweeps_used + 1)
    ])
    assert hist[-1] == full.objective_value
    assert np.all(np.diff(hist) <= 1e-10)


def test_kkt_residuals_on_converged_fit():
    data = binary_design(11)
    centered = Dataset(x=data.x - data.x.mean(axis=0), y=data.y)
    penalty = PenaltySpec(lam1=3.0, lam2=1.0)
    res = fit(centered, penalty, TIGHT)
    active_res, inactive_res = kkt_residuals(centered, penalty, res)
    assert active_res <= 1e-6 * centered.n
    assert inactive_res <= 1e-6 * centered.n


def test_weighted_equals_normalized():
    data = binary_design(20)
    strategy = BinaryDelta(1.0)
    plan = compute_plan(data, strategy)
    centered = NormalizationPlan(centers=plan.centers, scales=np.ones(data.p))

    normalized = apply(data, plan)
    res_norm = fit(normalized, PenaltySpec(lam1=2.5, lam2=1.5), TIGHT, plan=plan)

    weighted_penalty = PenaltySpec(lam1=2.5, lam2=1.5, u=plan.scales, v=plan.scales**2)
    res_w = fit(apply(data, centered), weighted_penalty, TIGHT, plan=centered)

    assert np.allclose(res_w.beta, res_norm.beta, atol=1e-8)
    assert res_w.beta0 == pytest.approx(res_norm.beta0, abs=1e-8)


def test_permutation_invariance():
    data = binary_design(31)
    centered = Dataset(x=data.x - data.x.mean(axis=0), y=data.y)
    penalty = PenaltySpec(lam1=2.0, lam2=0.5)
    res = fit(centered, penalty, TIGHT)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = Dataset(x=centered.x[:, perm], y=centered.y)
    res_p = fit(permuted, penalty, TIGHT)
    assert np.allclose(res_p.beta_norm, res.beta_norm[perm], atol=1e-8)


def test_unpenalized_wide_problem_rejected():
    rng = np.random.default_rng(6)
    data = Dataset(x=rng.standard_normal((5, 8)), y=rng.standard_normal(5))
    with pytest.raises(DomainError):
        fit(data, PenaltySpec(lam1=0.0, lam2=0.0), TIGHT)


def test_non_convergence_is_flagged_not_raised():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((100, 30))
    y = rng.standard_normal(100)
    res = fit(
        Dataset(x=x, y=y),
        PenaltySpec(lam1=0.01),
        FitOptions(tolerance=1e-14, max_sweeps=2),
    )
    assert not res.converged
    assert res.sweeps_used == 2


def test_penalty_validation():
    with pytest.raises(DomainError):
        PenaltySpec(lam1=-1.0)
    with pytest.raises(DomainError):
        from_mixing(1.5, 2.0)
    with pytest.raises(DomainError):
        PenaltySpec(lam1=1.0, u=np.array([1.0, -1.0]))


def test_backtransform_through_fit():
    data = binary_design(40)
    plan = compute_plan(data, BinaryDelta(0.5))
    normalized = apply(data, plan)
    res = fit(normalized, PenaltySpec(lam1=1.0), TIGHT, plan=plan)
    beta_ref, beta0_ref = backtransform(res.beta_norm, res.beta0_norm, plan)
    assert np.allclose(res.beta, beta_ref, atol=1e-14)
    assert res.beta0 == pytest.approx(beta0_ref, abs=1e-14)
    pred_orig = res.beta0 + data.x @ res.beta
    pred_norm = res.beta0_norm + normalized.x @ res.beta_norm
    assert np.allclose(pred_orig, pred_norm, atol=1e-9)


def _reference_fit(data, penalty, options, warm_start=None):
    """The coordinate-descent loop as first written, on NumPy scalars.

    Frozen as the reference for `fit`: any rewrite of the sweep must take the
    same IEEE steps, so its results must equal these bit for bit.
    """
    x, y = data.x, data.y
    p = data.p
    u, v = penalty.resolve_weights(p)
    lam1, lam2 = penalty.lam1, penalty.lam2
    col_sq = np.einsum("ij,ij->j", x, x)
    denom = col_sq + lam2 * v
    beta = np.array(warm_start, dtype=np.float64) if warm_start is not None else np.zeros(p)
    beta0 = 0.0
    r = y - x @ beta

    def objective():
        return float(
            0.5 * np.dot(r, r)
            + lam1 * np.dot(u, np.abs(beta))
            + 0.5 * lam2 * np.dot(v, beta * beta)
        )

    def sweep(indices):
        nonlocal beta0, r
        shift = float(r.mean())
        beta0 += shift
        r -= shift
        max_delta = abs(shift)
        for j in indices:
            if denom[j] == 0.0:
                continue
            xj = x[:, j]
            z = float(np.dot(xj, r)) + col_sq[j] * beta[j]
            zt = abs(z) - lam1 * u[j]
            bj = 0.0 if zt <= 0.0 else np.copysign(zt, z) / denom[j]
            delta = bj - beta[j]
            if delta != 0.0:
                r -= delta * xj
                beta[j] = bj
                if abs(delta) > max_delta:
                    max_delta = abs(delta)
        return max_delta

    sweeps = 0
    converged = False
    while sweeps < options.max_sweeps:
        full_delta = sweep(range(p))
        sweeps += 1
        if full_delta <= options.tolerance:
            converged = True
            break
        active = np.nonzero(beta)[0]
        while sweeps < options.max_sweeps:
            active_delta = sweep(active)
            sweeps += 1
            if active_delta <= options.tolerance:
                break
    return beta, beta0, sweeps, converged, objective()


def _wide_lasso():
    rng = np.random.default_rng(5)
    x = (rng.random((40, 90)) < rng.uniform(0.05, 0.6, 90)).astype(float)
    y = x[:, :6] @ np.array([2.0, -1.5, 1.0, 0.8, -0.6, 0.4]) + rng.standard_normal(40)
    # centered and scaled, so that r -= delta * x_j rounds
    x = (x - x.mean(axis=0)) * rng.uniform(0.5, 2.0, 90)
    data = Dataset(x=x, y=y)
    return data, PenaltySpec(lam1=0.2 * lambda_max(data))


def _elastic_net_weighted():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 12))
    y = x[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(50)
    u, v = rng.uniform(0.5, 2.0, 12), rng.uniform(0.5, 2.0, 12)
    return Dataset(x=x, y=y), PenaltySpec(lam1=3.0, lam2=2.0, u=u, v=v)


def _zero_column():
    data = binary_design(9, n=60, p=6)
    x = np.array(data.x)
    x[:, 2] = 0.0
    return Dataset(x=x, y=data.y), PenaltySpec(lam1=1.0, lam2=0.0)


CAPPED = FitOptions(tolerance=1e-14, max_sweeps=7)
CONVERGE = FitOptions(tolerance=1e-10, max_sweeps=20_000)


@pytest.mark.parametrize(
    "problem, options, warm",
    [
        pytest.param(_wide_lasso, CAPPED, False, id="wide-capped"),
        pytest.param(_wide_lasso, CONVERGE, False, id="wide-converged"),
        pytest.param(_wide_lasso, CONVERGE, True, id="warm-start"),
        pytest.param(_elastic_net_weighted, CONVERGE, False, id="elnet-weighted"),
        pytest.param(_zero_column, CONVERGE, False, id="zero-column"),
    ],
)
def test_fit_equals_reference_sweep_bit_for_bit(problem, options, warm):
    data, penalty = problem()
    start = fit(data, PenaltySpec(lam1=2.0 * penalty.lam1), options).beta_norm if warm else None
    res = fit(data, penalty, options, warm_start=start)
    beta, beta0, sweeps, converged, objective = _reference_fit(data, penalty, options, start)
    assert res.beta_norm.tobytes() == beta.tobytes()
    assert res.beta0_norm == beta0
    assert res.sweeps_used == sweeps
    assert res.converged == converged
    assert res.objective_value == objective
    # each case reaches the branch it is named for
    assert converged == (options is not CAPPED)
    assert not np.any(beta[~data.x.any(axis=0)])
