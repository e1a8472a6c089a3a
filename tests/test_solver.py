"""Homotopy solver against closed forms, a frozen coordinate descent and KKT conditions."""

from collections import Counter, namedtuple

import numpy as np
import pytest

from normreg.dataset import Dataset
from normreg.errors import DomainError
from normreg.normalize import BinaryDelta, apply, backtransform, compute_plan
import normreg.solver
from normreg.solver import (
    KKT_TOLERANCE,
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
    res = fit(data, PenaltySpec(lam1=2.0))
    assert res.beta[0] == pytest.approx(0.3, abs=1e-10)
    assert res.converged


def test_null_model_at_lambda_max():
    data = binary_design(3)
    lam = lambda_max(
        Dataset(x=data.x - data.x.mean(axis=0), y=data.y)
    )
    res = fit(
        Dataset(x=data.x - data.x.mean(axis=0), y=data.y),
        PenaltySpec(lam1=lam * 1.0001),
    )
    assert np.all(res.beta == 0.0)
    assert res.beta0 == pytest.approx(data.y.mean(), abs=1e-12)
    assert res.support.size == 0
    res = fit(
        Dataset(x=data.x - data.x.mean(axis=0), y=data.y),
        PenaltySpec(lam1=lam * 0.99),
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
        res = fit(data, penalty)
        xty = data.x.T @ data.y
        diag = np.sum(data.x * data.x, axis=0)
        beta_ref, beta0_ref = orthogonal_solution(xty, diag, penalty, float(data.y.mean()))
        assert np.allclose(res.beta, beta_ref, atol=1e-8)
        assert res.beta0 == pytest.approx(beta0_ref, abs=1e-8)


def test_lambda_max_examples():
    x = np.array([0.5, -0.5, 0.5, -0.5]) * np.sqrt(49.0)  # x'(y - ybar) = 7 with y below
    y = x / 7.0
    data = Dataset(x=x[:, np.newaxis], y=y)
    assert lambda_max(data) == pytest.approx(abs(np.dot(x, y - y.mean())), abs=1e-12)
    assert lambda_max(data, u=np.array([2.0])) == pytest.approx(lambda_max(data) / 2.0, abs=1e-12)


def test_a_constant_columns_round_off_is_no_correlation():
    # x'(y - mean y) of the 0.1 column is round-off (7.9e-18 with this y),
    # which must not pass for a lambda_max
    x = np.column_stack([np.full(5, 0.1), np.zeros(5)])
    data = Dataset(x=x, y=np.random.default_rng(0).standard_normal(5))
    with pytest.raises(DomainError, match="uncorrelated"):
        lambda_max(data)
    # below that round-off too, and as a ridge, the certificate reads the
    # dead columns' x_j'r as zero
    for penalty in (PenaltySpec(lam1=1e-3), PenaltySpec(lam1=4e-18), PenaltySpec(lam1=1e-20),
                    PenaltySpec(lam1=0.0, lam2=1.0)):
        res = fit(data, penalty)
        assert res.converged and res.kkt_residual == 0.0 and not res.beta.any()
        assert res.beta0 == pytest.approx(data.y.mean(), abs=1e-15)
        assert kkt_residuals(data, penalty, res) == (0.0, 0.0)


def test_a_design_without_columns_fits_the_null_model():
    y = np.random.default_rng(0).standard_normal(5)
    data = Dataset(x=np.zeros((5, 0)), y=y)
    penalties = (PenaltySpec(lam1=1.0), PenaltySpec(lam1=0.0, lam2=1.0),
                 PenaltySpec(lam1=1.0, lam2=1.0))
    results = [fit(data, penalty) for penalty in penalties]
    results += fit_path(data, 1.0, [2.0, 1.0]) + fit_path(data, 0.5, [2.0, 1.0])
    for res in results:
        assert res.converged and res.kkt_residual == 0.0
        assert res.beta.shape == (0,) and res.beta0 == y.sum() / 5


def test_lambda_grid_shape():
    grid = lambda_grid(10.0, count=5, ratio=1e-2)
    assert grid[0] == 10.0
    assert grid[-1] == pytest.approx(0.1, abs=1e-12)
    assert np.all(np.diff(grid) < 0.0)
    with pytest.raises(DomainError):
        lambda_grid(0.0)


@pytest.mark.parametrize("lam_max", [np.nan, np.inf])
def test_lambda_grid_rejects_a_non_finite_lambda_max(lam_max):
    with pytest.raises(DomainError, match="finite lam_max"):
        lambda_grid(lam_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_lambda_max_rejects_weights_a_fit_rejects(bad):
    rng = np.random.default_rng(2)
    data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
    with pytest.raises(DomainError, match="positive and finite"):
        lambda_max(data, u=[bad, 1.0])
    with pytest.raises(DomainError, match="positive and finite"):
        fit(data, PenaltySpec(lam1=1.0, u=[bad, 1.0]))


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
    lasso = fit_path(data, 1.0, grid[:5])
    assert lasso[0].support.size == 0
    # the caller owns the grid: one anchored elsewhere (here at a subsample's
    # lambda_max, as cross-validation does for a fold) warm-starts the same way
    off_anchor = lambda_grid(lambda_max(Dataset(x=x[:30], y=y[:30])), count=6, ratio=1e-2)
    for alpha, lambdas in ((0.8, grid), (1.0, off_anchor)):
        path = fit_path(data, alpha, lambdas)
        assert [res.lam1 + res.lam2 for res in path] == pytest.approx(lambdas, rel=1e-15)
        for res in path:
            cold = fit(data, from_mixing(alpha, res.lam1 + res.lam2))
            assert res.converged and cold.converged
            assert np.allclose(res.beta, cold.beta, rtol=0.0, atol=1e-10)


def test_objective_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 10))
    y = rng.standard_normal(80)
    data = Dataset(x=x, y=y)
    # the optimal value falls as the penalty does, along a certified path
    path = fit_path(data, 1.0, lambda_grid(lambda_max(data), count=20, ratio=1e-3))
    assert all(res.converged for res in path)
    assert np.all(np.diff([res.objective_value for res in path]) <= 0.0)
    # and no point near a certified fit has a lower objective
    penalty = PenaltySpec(lam1=1.0, lam2=0.5)
    res = fit(data, penalty)
    assert res.converged and res.kkt_residual <= KKT_TOLERANCE
    assert res.sweeps_used >= 2

    def objective(beta0, beta):
        r = y - beta0 - x @ beta
        return 0.5 * r @ r + penalty.lam1 * np.abs(beta).sum() + 0.25 * beta @ beta

    assert objective(res.beta0, res.beta) == pytest.approx(res.objective_value, abs=1e-12)
    for _ in range(50):
        step = 1e-4 * rng.standard_normal(11)
        moved = objective(res.beta0 + step[0], res.beta + step[1:])
        assert moved >= res.objective_value - 1e-12


def test_kkt_residuals_on_converged_fit():
    data = binary_design(11)
    centered = Dataset(x=data.x - data.x.mean(axis=0), y=data.y)
    penalty = PenaltySpec(lam1=3.0, lam2=1.0)
    res = fit(centered, penalty)
    active_res, inactive_res = kkt_residuals(centered, penalty, res)
    assert active_res <= 1e-6 * centered.n
    assert inactive_res <= 1e-6 * centered.n


def test_weighted_equals_normalized():
    data = binary_design(20)
    plan = compute_plan(data, BinaryDelta(1.0))

    copy = fit(apply(data, plan), PenaltySpec(lam1=2.5, lam2=1.5))
    beta, beta0 = backtransform(copy.beta, copy.beta0, plan)

    weighted_penalty = PenaltySpec(lam1=2.5, lam2=1.5, u=plan.scales, v=plan.scales**2)
    res_w = fit(data, weighted_penalty)

    assert np.allclose(res_w.beta, beta, atol=1e-8)
    assert res_w.beta0 == pytest.approx(beta0, abs=1e-8)


def test_permutation_invariance():
    data = binary_design(31)
    centered = Dataset(x=data.x - data.x.mean(axis=0), y=data.y)
    penalty = PenaltySpec(lam1=2.0, lam2=0.5)
    res = fit(centered, penalty)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = Dataset(x=centered.x[:, perm], y=centered.y)
    res_p = fit(permuted, penalty)
    assert np.allclose(res_p.beta, res.beta[perm], atol=1e-8)


def test_wide_active_columns_follow_the_active_set(monkeypatch):
    # a wide lasso keeps its active columns in a buffer in the order of the
    # active set; this path grows it past 64 columns and drops columns there,
    # which swaps buffer rows, so a buffer out of step would show as a fit
    # that moves with the order of the columns or loses its certificate
    rng = np.random.default_rng(5)
    n, p = 90, 200
    data = Dataset(x=rng.standard_normal((n, p)), y=rng.standard_normal(n))
    penalty = PenaltySpec(lam1=1e-2 * lambda_max(data))
    sizes = []
    drop = normreg.solver._Homotopy.drop

    def counted(path, i):
        sizes.append(path.k)
        return drop(path, i)

    monkeypatch.setattr(normreg.solver._Homotopy, "drop", counted)
    res = fit(data, penalty)
    assert res.converged and res.support.size > 64
    assert any(k > 64 for k in sizes)
    perm = rng.permutation(p)
    res_p = fit(Dataset(x=data.x[:, perm], y=data.y), penalty)
    assert res_p.converged
    assert np.allclose(res_p.beta, res.beta[perm], rtol=0.0, atol=1e-10)


def _inverse_error(path) -> float:
    """Largest entry of M_A^{-1}, pending updates included, minus the inverse of
    a fresh M_A, relative to the largest entry of that inverse."""
    k = path.k
    exact = np.linalg.inv(path.d.system(path.act[:k]))
    return float(np.abs(path.apply(np.eye(k)) - exact).max() / np.abs(exact).max())


def _traced_homotopy(monkeypatch, data, ratio, check):
    """Run the wide lasso homotopy of data down to ratio * lambda_max; count
    folds of pending updates, drops and buffer growths while updates are
    pending, and call check(path) after each of those and at the end."""
    H = normreg.solver._Homotopy
    fold, drop, reserve = H.fold, H.drop, H.reserve
    seen = {"fold": 0, "pending drop": 0, "pending growth": 0, "drop": 0}

    def counted_fold(path, size):
        seen["fold"] += path.m > 0
        fold(path, size)

    def counted_drop(path, i):
        seen["drop"] += 1
        seen["pending drop"] += path.m > 0
        drop(path, i)
        check(path)

    def counted_reserve(path, k):
        grows = k > path.act.shape[0] and path.m > 0
        seen["pending growth"] += grows
        reserve(path, k)
        if grows:
            check(path)

    monkeypatch.setattr(H, "fold", counted_fold)
    monkeypatch.setattr(H, "drop", counted_drop)
    monkeypatch.setattr(H, "reserve", counted_reserve)
    u, v = PenaltySpec(0.0).resolve_weights(data.p)
    design = normreg.solver._Design(normreg.solver._setup(data), u, v, 0.0)
    path = H(design, normreg.solver._max_steps(data.p))
    assert path.run(ratio * lambda_max(data))
    check(path)
    return path, seen


def test_deferred_inverse_updates_keep_the_inverse_exact(monkeypatch):
    # beyond _RANK active columns a join's or a drop's rank-1 update of
    # M_A^{-1} waits in (lo, hi) until _RANK have built up; every product
    # with M_A^{-1} must still see the exact inverse, across folds, across
    # drops (which swap rows of the pending buffers) and across buffer growth
    rng = np.random.default_rng(5)
    n, p = 90, 200
    data = Dataset(x=rng.standard_normal((n, p)), y=rng.standard_normal(n))
    errors = []
    path, seen = _traced_homotopy(
        monkeypatch, data, 1e-2, lambda path: errors.append(_inverse_error(path))
    )
    assert path.k > 64 and seen["drop"] > 0
    assert seen["fold"] >= 1 and seen["pending drop"] >= 1 and seen["pending growth"] >= 1
    assert max(errors) <= 1e-9
    beta = path.solve(path.lam)
    res = fit(data, PenaltySpec(lam1=path.lam))
    assert res.converged
    assert np.allclose(beta, res.beta, rtol=0.0, atol=1e-10)


def test_small_active_sets_update_the_inverse_at_once(monkeypatch):
    # an active set of at most _RANK columns takes each update as it comes,
    # so such fits do the same arithmetic as an inverse updated in place
    rng = np.random.default_rng(5)
    n, p = 60, 120
    data = Dataset(x=rng.standard_normal((n, p)), y=rng.standard_normal(n))
    sizes, pending = [], []

    def check(path):
        sizes.append(path.k)
        pending.append(path.m)

    update = normreg.solver._Homotopy.update

    def recorded(path, size, col, row):
        update(path, size, col, row)
        check(path)

    monkeypatch.setattr(normreg.solver._Homotopy, "update", recorded)
    path, seen = _traced_homotopy(monkeypatch, data, 0.2, check)
    assert seen["drop"] > 0 and 20 < max(sizes) <= normreg.solver._RANK
    assert not any(pending) and seen["fold"] == 0


def test_unpenalized_wide_problem_rejected():
    rng = np.random.default_rng(6)
    data = Dataset(x=rng.standard_normal((5, 8)), y=rng.standard_normal(5))
    with pytest.raises(DomainError):
        fit(data, PenaltySpec(lam1=0.0, lam2=0.0))


def test_non_convergence_is_flagged_not_raised(monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((100, 30))
    y = rng.standard_normal(100)
    data = Dataset(x=x, y=y)
    penalty = PenaltySpec(lam1=0.01)
    monkeypatch.setattr(normreg.solver, "_max_steps", lambda p: 2)
    res = fit(data, penalty)
    assert not res.converged
    assert res.sweeps_used == 2
    assert res.kkt_residual > KKT_TOLERANCE
    # the last point is returned as it stands: its residual is the one reported
    scale = np.abs(x.T @ (y - y.mean())).max()
    assert max(kkt_residuals(data, penalty, res)) / scale == pytest.approx(res.kkt_residual)
    # a continued path point that fails is redone from lambda_max: one step
    # to the first point, one more to the cap, then two from lambda_max
    near, far = fit_path(data, 1.0, [0.999 * lambda_max(data), penalty.lam1])
    assert near.converged and near.sweeps_used == 1
    assert not far.converged and far.sweeps_used == 1 + 2
    monkeypatch.undo()
    full = fit(data, penalty)
    assert full.converged and full.sweeps_used > 2


@pytest.mark.parametrize(
    "n, lam1, lam2",
    [(20, 0.5, 1.0), (20, 0.0, 1.0), (60, 1e-3, 0.0)],
    ids=["elnet", "ridge", "lasso-saturated"],
)
def test_wide_elastic_net_makes_no_p_by_p_array(n, lam1, lam2):
    import tracemalloc

    rng = np.random.default_rng(31)
    p = 3000
    data = Dataset(x=rng.standard_normal((n, p)), y=rng.standard_normal(n))
    penalty = PenaltySpec(lam1=lam1 * lambda_max(data), lam2=lam2)
    tracemalloc.start()
    try:
        res = fit(data, penalty)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    if lam2 > 0.0:
        # a p x p float array would take 72 MB; a few copies of X take 0.5 MB each
        assert peak < 8 * p * p / 20
    else:
        # the lasso spans n - 1 columns here; a k x p array would take as
        # much as X (1.4 MB), and the path needs neither one nor a copy of X
        assert res.support.size == n - 1
        assert peak < 8 * n * p / 2


@pytest.mark.parametrize("shape", [(60, 12), (12, 40)], ids=["tall", "wide"])
def test_a_set_up_is_read_only_and_a_tall_one_holds_the_centered_gram(shape):
    # every fit of one Dataset shares its set-up and nothing writes to it
    # after it is made: a lasso path, a ridge fit and an elastic-net fit
    # leave all of its arrays read-only
    rng = np.random.default_rng(17)
    x = 3.0 + rng.standard_normal(shape)
    data = Dataset(x=x, y=x[:, :3].sum(axis=1) + rng.standard_normal(shape[0]))
    lam = lambda_max(data)
    fits = fit_path(data, 1.0, lambda_grid(lam, count=8, ratio=1e-2))
    fits += [fit(data, PenaltySpec(0.0, lam2=1.0)), fit(data, from_mixing(0.5, 0.1 * lam))]
    assert all(res.converged for res in fits)
    setup = normreg.solver._setup(data)
    arrays = [value for value in vars(setup).values() if isinstance(value, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    if shape[0] < shape[1]:
        assert setup.gram is None
        return
    xc = x - x.mean(axis=0)
    assert np.allclose(setup.gram, xc.T @ xc, rtol=0.0, atol=1e-12 * np.abs(x).max() ** 2 * x.shape[0])


def test_penalty_validation():
    with pytest.raises(DomainError):
        PenaltySpec(lam1=-1.0)
    with pytest.raises(DomainError):
        from_mixing(1.5, 2.0)
    with pytest.raises(DomainError):
        PenaltySpec(lam1=1.0, u=np.array([1.0, -1.0]))


def _reference_fit(data, penalty, options):
    """The coordinate-descent loop the package used before the homotopy.

    Frozen as an independent reference for `fit`: run to a tight tolerance it
    reaches the same optimum, so the two must agree within 1e-8.
    """
    x, y = data.x, data.y
    p = data.p
    u, v = penalty.resolve_weights(p)
    lam1, lam2 = penalty.lam1, penalty.lam2
    col_sq = np.einsum("ij,ij->j", x, x)
    denom = col_sq + lam2 * v
    beta = np.zeros(p)
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


Sweeps = namedtuple("Sweeps", "tolerance max_sweeps")


@pytest.mark.parametrize(
    "problem",
    [
        pytest.param(_wide_lasso, id="wide-converged"),
        pytest.param(_elastic_net_weighted, id="elnet-weighted"),
        pytest.param(_zero_column, id="zero-column"),
    ],
)
def test_fit_equals_converged_reference_sweep(problem):
    data, penalty = problem()
    res = fit(data, penalty)
    beta, beta0, _, converged, objective = _reference_fit(
        data, penalty, Sweeps(tolerance=1e-13, max_sweeps=200_000)
    )
    assert converged and res.converged
    assert np.allclose(res.beta, beta, rtol=0.0, atol=1e-8)
    assert res.beta0 == pytest.approx(beta0, abs=1e-8)
    assert res.objective_value == pytest.approx(objective, rel=1e-12)
    assert not np.any(res.beta[~data.x.any(axis=0)])


def _certified(data, penalty, result):
    """The scale-free KKT residual, computed apart from `fit`."""
    scale = np.max(np.abs(data.x.T @ (data.y - data.y.mean())))
    residual = max(kkt_residuals(data, penalty, result)) / scale
    assert residual == pytest.approx(result.kkt_residual, rel=1e-6, abs=1e-15)
    return residual <= KKT_TOLERANCE


def test_tie_at_lambda_max_joins_both_columns():
    # two orthogonal centred columns with equal |x_j'y| reach lambda_max together
    h = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    x = np.tile(h, (5, 1))
    y = x @ np.array([1.0, -1.0])
    data = Dataset(x=x, y=y)
    lam = 0.5 * lambda_max(data)
    res = fit(data, PenaltySpec(lam1=lam))
    beta_ref, _ = orthogonal_solution(x.T @ y, (x * x).sum(axis=0), PenaltySpec(lam1=lam))
    assert np.allclose(res.beta, beta_ref, rtol=0.0, atol=1e-14)
    assert np.all(res.beta != 0.0)
    assert _certified(data, PenaltySpec(lam1=lam), res)


def _saturating_design():
    """12 rows, 30 columns with a zero column, a constant column, a duplicate
    of column 0 and a column that is column 1 plus column 2."""
    rng = np.random.default_rng(17)
    x = (rng.random((12, 30)) < 0.4).astype(float)
    x[:, 5] = 0.0
    x[:, 6] = 1.0
    x[:, 7] = x[:, 0]
    x[:, 8] = x[:, 1] + x[:, 2]
    y = x[:, :4] @ np.array([2.0, -1.0, 1.5, 0.5]) + rng.standard_normal(12)
    return Dataset(x=x, y=y)


def test_degenerate_columns_never_join_and_the_path_saturates():
    data = _saturating_design()
    x = data.x
    grid = lambda_grid(lambda_max(data), count=40, ratio=1e-6)
    path = fit_path(data, 1.0, grid)
    assert all(res.converged for res in path)
    for lam, res in zip(grid, path):
        assert _certified(data, PenaltySpec(lam1=lam), res)
        beta = res.beta
        assert beta[5] == 0.0 and beta[6] == 0.0
        # of two equal columns at most one is active, and the tie goes to the
        # lower index
        assert beta[7] == 0.0 or beta[0] == 0.0
        # the span of the active columns has at most n - 1 centred dimensions
        assert res.support.size <= data.n - 1
        active = x[:, res.support] - x[:, res.support].mean(axis=0)
        assert np.linalg.matrix_rank(active) == res.support.size
    assert path[-1].support.size == data.n - 1


def test_duplicate_column_matches_the_reference_optimum():
    data = _saturating_design()
    penalty = PenaltySpec(lam1=0.3 * lambda_max(data))
    res = fit(data, penalty)
    _, _, _, converged, objective = _reference_fit(
        data, penalty, Sweeps(tolerance=1e-13, max_sweeps=200_000)
    )
    assert converged and _certified(data, penalty, res)
    # the optimum is not unique here, its value is
    assert res.objective_value == pytest.approx(objective, rel=1e-10)
    assert res.beta[7] == 0.0


def test_a_duplicate_of_an_active_column_never_tries_to_join(monkeypatch):
    # the duplicate sits on its bound and moves with the active column, so
    # its outward rate is round-off; taken as outward it would join at zero
    # length, be refused by the Schur test and cost a whole step
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 120))
    x[:, 1] = x[:, 0]
    y = x[:, [0, 2, 4]] @ np.array([2.0, -1.5, 1.0]) + rng.standard_normal(40)
    data = Dataset(x=x, y=y)
    tried = []
    join = normreg.solver._Homotopy.join

    def counted(path, j, sign):
        tried.append(j)
        return join(path, j, sign)

    monkeypatch.setattr(normreg.solver._Homotopy, "join", counted)
    penalty = PenaltySpec(lam1=0.01 * lambda_max(data))
    res = fit(data, penalty)
    assert res.converged and _certified(data, penalty, res)
    assert 0 in tried and 1 not in tried
    alone = fit(Dataset(x=np.delete(x, 1, axis=1), y=y), penalty)
    assert res.beta[1] == 0.0
    assert np.allclose(np.delete(res.beta, 1), alone.beta, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("offset", [1e5, 1e7])
def test_columns_far_from_their_means_fit_like_centered_ones(offset):
    # centered through their means, such columns would lose (offset / sd)^2
    # ulps of their Gram entries, and their KKT check as much again
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 8))
    y = x @ rng.standard_normal(8) + rng.standard_normal(200)
    shifted = Dataset(x=x + offset, y=y)
    near = Dataset(x=shifted.x - offset, y=y)  # the same columns, rounded alike
    grid = lambda_grid(lambda_max(near), 10, 1e-3)
    for res, ref in zip(fit_path(shifted, 1.0, grid), fit_path(near, 1.0, grid)):
        assert res.converged and ref.converged
        assert np.allclose(res.beta, ref.beta, rtol=1e-9, atol=0.0)
        assert res.beta0 == pytest.approx(ref.beta0 - offset * ref.beta.sum())
    ridge = fit(shifted, PenaltySpec(lam1=0.0, lam2=1.0))
    assert ridge.converged


def _tall_lasso():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((80, 30)) * rng.uniform(0.2, 5.0, 30) + rng.uniform(-3.0, 3.0, 30)
    y = x[:, :5] @ np.array([1.0, -0.5, 0.3, 0.2, -0.1]) + rng.standard_normal(80)
    data = Dataset(x=x, y=y)
    return data, PenaltySpec(lam1=0.05 * lambda_max(data))


@pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["lasso", "elnet"])
@pytest.mark.parametrize("problem", [_tall_lasso, _wide_lasso], ids=["tall", "wide"])
def test_path_points_equal_cold_fits(problem, alpha):
    data, _ = problem()
    # the lasso's first two points lie at and above lambda_max, where the
    # path's one column drops again and leaves the active set empty
    grid = np.concatenate([[1.5 * lambda_max(data)], lambda_grid(lambda_max(data), 12, 1e-2)])
    path = fit_path(data, alpha, grid)
    assert alpha < 1.0 or path[0].support.size == path[1].support.size == 0
    for lam, res in zip(grid, path):
        cold = fit(data, from_mixing(alpha, lam))
        assert res.converged and cold.converged
        assert _certified(data, from_mixing(alpha, lam), res)
        assert np.allclose(res.beta, cold.beta, rtol=0.0, atol=1e-10)
        assert res.beta0 == pytest.approx(cold.beta0, abs=1e-10)
    if alpha == 1.0:
        # the path continued: it took the last cold fit's steps, and one
        # more per point, where it stopped inside a segment
        assert sum(res.sweeps_used for res in path) <= cold.sweeps_used + len(grid)


def _large_support(shape, ratio):
    """A dense Gaussian design and a penalty at ratio * lambda_max whose fit
    holds 80 (tall) or 84 (wide) active columns: more than the 64 the
    active-set buffers start with."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal(shape)
    y = x @ rng.standard_normal(shape[1]) + rng.standard_normal(shape[0])
    data = Dataset(x=x, y=y)
    return data, PenaltySpec(lam1=ratio * lambda_max(data))


_LARGE_SUPPORTS = pytest.mark.parametrize(
    "shape, ratio", [((200, 100), 0.03), ((150, 200), 0.1)], ids=["tall", "wide"]
)


@_LARGE_SUPPORTS
def test_active_set_beyond_the_initial_buffers(shape, ratio):
    data, penalty = _large_support(shape, ratio)
    res = fit(data, penalty)
    assert res.support.size > 64
    assert res.converged and _certified(data, penalty, res)
    beta, beta0, _, converged, objective = _reference_fit(
        data, penalty, Sweeps(tolerance=1e-13, max_sweeps=200_000)
    )
    assert converged
    assert np.allclose(res.beta, beta, rtol=0.0, atol=1e-8)
    assert res.beta0 == pytest.approx(beta0, abs=1e-8)
    assert res.objective_value == pytest.approx(objective, rel=1e-12)


@_LARGE_SUPPORTS
def test_path_continues_beyond_the_initial_buffers(shape, ratio):
    data, penalty = _large_support(shape, ratio)
    target = PenaltySpec(lam1=penalty.lam1 / 3.0)
    start, end = fit_path(data, 1.0, [penalty.lam1, target.lam1])
    assert start.support.size > 64
    cold = fit(data, target)
    assert end.converged and cold.converged and _certified(data, target, end)
    assert np.allclose(end.beta, cold.beta, rtol=0.0, atol=1e-8)
    # the path went on from the point before rather than from lambda_max
    assert end.sweeps_used < cold.sweeps_used


def test_fit_path_calls_fit_once_per_grid_point(monkeypatch):
    data, _ = _wide_lasso()
    calls = []
    exact = normreg.solver.fit

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return exact(*args, **kwargs)

    monkeypatch.setattr(normreg.solver, "fit", counting)
    grid = lambda_grid(lambda_max(data), count=7)
    fit_path(data, 1.0, grid)
    assert len(calls) == 7


@pytest.mark.parametrize(
    "case",
    ["zero-column", "constant-column", "duplicate", "saturated", "ridge-singular",
     "ridge-wide", "constant-response", "single-column", "elnet-wide"],
)
def test_every_degenerate_case_is_certified(case):
    data = _saturating_design()
    lam_max = lambda_max(data)
    penalty = PenaltySpec(lam1=0.2 * lam_max)
    if case == "zero-column":
        data, penalty = _zero_column()
    elif case == "constant-column":
        data = Dataset(x=np.column_stack([data.x[:, :4], np.full(12, 0.3)]), y=data.y)
    elif case == "saturated":
        penalty = PenaltySpec(lam1=1e-9 * lam_max)
    elif case == "ridge-singular":
        data = Dataset(x=data.x[:, [0, 1, 2, 7, 8]], y=data.y)
        penalty = PenaltySpec(lam1=0.0)
    elif case == "ridge-wide":
        penalty = PenaltySpec(lam1=0.0, lam2=1e-3)
    elif case == "constant-response":
        data = Dataset(x=data.x, y=np.full(12, 2.0))
    elif case == "single-column":
        data = Dataset(x=data.x[:, :1], y=data.y)
    elif case == "elnet-wide":
        penalty = PenaltySpec(lam1=1e-6 * lam_max, lam2=1e-3)
    res = fit(data, penalty)
    assert res.converged
    if case == "ridge-wide":
        # the zero and the constant column take no weight
        assert res.beta[5] == 0.0 and res.beta[6] == 0.0
        assert np.count_nonzero(res.beta) == data.p - 2
    scale = np.max(np.abs(data.x.T @ (data.y - data.y.mean())))
    if scale > 0.0:
        assert _certified(data, penalty, res)
    else:
        assert max(kkt_residuals(data, penalty, res)) == 0.0


def _small_design(case):
    """p <= 3 designs, where the active set never exceeds three columns."""
    rng = np.random.default_rng(26)
    z = rng.standard_normal((30, 1))
    x = z + 0.3 * rng.standard_normal((30, 3))
    y = x @ np.array([2.0, -1.5, 0.2]) + rng.standard_normal(30)
    lam_max = lambda_max(Dataset(x=x, y=y))
    penalty = PenaltySpec(lam1=0.01 * lam_max)
    if case == "elnet-weighted":
        penalty = PenaltySpec(lam1=0.1 * lam_max, lam2=3.0, u=[0.5, 1.0, 2.0], v=[2.0, 1.0, 0.7])
    elif case == "tie":
        h = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        x = np.tile(h, (5, 1))
        y = x @ np.array([1.0, -1.0])
        penalty = PenaltySpec(lam1=0.5 * lambda_max(Dataset(x=x, y=y)))
    elif case == "duplicate":
        x = np.column_stack([x[:, 0], x[:, 1], x[:, 0]])
    elif case == "zero-column":
        x = np.column_stack([x[:, 0], np.zeros(30), x[:, 1]])
    elif case == "saturated":
        x, y = x[:3], y[:3]
        penalty = PenaltySpec(lam1=1e-6 * lambda_max(Dataset(x=x, y=y)))
    return Dataset(x=x, y=y), penalty


@pytest.mark.parametrize(
    "case", ["drop", "elnet-weighted", "tie", "duplicate", "zero-column", "saturated"]
)
def test_small_designs_match_the_reference_sweep(case):
    data, penalty = _small_design(case)
    res = fit(data, penalty)
    assert res.converged and _certified(data, penalty, res)
    if case == "saturated":
        # three rows span two centred dimensions, where the sweep crawls
        assert res.support.size == 2
        return
    _, _, _, converged, objective = _reference_fit(
        data, penalty, Sweeps(tolerance=1e-13, max_sweeps=200_000)
    )
    assert converged
    assert res.objective_value == pytest.approx(objective, rel=1e-12)
    if case == "drop":
        # a column leaves the path and comes back before the target
        assert res.sweeps_used > res.support.size
    if case == "duplicate":
        # the lower index of two equal columns takes the tie
        assert res.support.tolist() == [0, 1]


def _random_design(seed):
    """A random design with a duplicate, a zero and a summed column, and p
    close to n: the conditions under which round-off can cost the path an
    event. Returns the data, the weights and a grid ratio per alpha."""
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(5, 60)), int(rng.integers(1, 90))
    kind = seed % 3
    if kind == 0:
        x = (rng.random((n, p)) < rng.uniform(0.02, 0.6, p)).astype(float)
    elif kind == 1:
        x = rng.standard_normal((n, p))
    else:
        x = np.round(rng.standard_normal((n, p)))
    x[:, 1] = x[:, 0]
    x[:, 2] = 0.0
    x[:, 3] = x[:, 0] + x[:, 4]
    y = x[:, :5] @ rng.standard_normal(5) + rng.standard_normal(n)
    if seed % 7 == 0:
        y = np.round(y)
    u = rng.uniform(0.3, 3, p) if seed % 2 else None
    v = rng.uniform(0.3, 3, p) if seed % 4 == 1 else None
    ratios = {alpha: float(rng.choice([1e-1, 1e-3, 1e-6])) for alpha in (1.0, 0.5)}
    return Dataset(x=x, y=y), u, v, ratios


def _count_rules(monkeypatch) -> Counter:
    """Counts, as paths run, of the solver's rules for degenerate designs:
    M_A built from a tall design's Gram rows, a join judged by a Cholesky
    factor of the bordered system or refused when that factor fails, and a
    join refused with the active set full or by its Schur complement."""
    seen = Counter()
    solver = normreg.solver
    system, join, cholesky = solver._Design.system, solver._Homotopy.join, np.linalg.cholesky

    def counted_system(design, cols):
        seen["tall-system"] += design.gram is not None
        return system(design, cols)

    def counted_join(path, j, sign):
        joined = join(path, j, sign)
        if not joined and not path.d.dead[j]:
            seen["full-refusal" if path.k >= path.cap else "schur-refusal"] += 1
        return joined

    def counted_cholesky(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            seen["cholesky-failure"] += 1
            raise
        seen["cholesky"] += 1
        return factor

    monkeypatch.setattr(solver._Design, "system", counted_system)
    monkeypatch.setattr(solver._Homotopy, "join", counted_join)
    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    return seen


@pytest.mark.parametrize(
    "seed, alpha, rule",
    [
        # a column that dropped crosses its other bound on the next segment
        pytest.param(7, 1.0, None, id="other-bound"),
        # round-off flips the sign of a coefficient that reaches zero at lam1
        pytest.param(1080, 0.5, None, id="drop-at-target"),
        # joins within 1e-6 of the span of the active columns, which a worn
        # inverse could refuse falsely; judged by a Cholesky factor, each is
        # accepted
        pytest.param(2165, 0.5, "cholesky", id="false-refusal"),
        # drops on an ill-conditioned M_A wear the inverse down until the
        # directions miss events
        pytest.param(1381, 0.5, None, id="worn-inverse"),
        # columns tied at one lambda, where a warm start once joined and
        # dropped them in a cycle of zero steps; the continued path does not
        pytest.param(5712, 1.0, None, id="tie-cycle"),
        # a worn inverse of a tall design is rebuilt from its Gram rows
        pytest.param(8, 0.5, "tall-system", id="tall-system"),
        # with n - 1 columns active, every other column is in their span
        pytest.param(672, 1.0, "full-refusal", id="full-refusal"),
        # a Schur complement below 1e-10 of its diagonal refuses the join
        pytest.param(1878, 1.0, "schur-refusal", id="schur-refusal"),
        # the bordered system is not positive definite to Cholesky, so the
        # join is refused
        pytest.param(1246, 1.0, "cholesky-failure", id="cholesky-failure"),
    ],
)
def test_ill_conditioned_paths_stay_certified(seed, alpha, rule, monkeypatch):
    seen = _count_rules(monkeypatch)
    data, u, v, ratios = _random_design(seed)
    grid = lambda_grid(lambda_max(data), count=15, ratio=ratios[alpha])
    for res in fit_path(data, alpha, grid, u=u, v=v):
        assert res.converged, (res.lam1, res.kkt_residual)
        assert res.sweeps_used < normreg.solver._max_steps(data.p)
    if rule is not None:
        assert seen[rule], seen
