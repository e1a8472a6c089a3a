"""Homotopy solver against closed forms, a frozen coordinate descent and KKT conditions."""

import weakref
from collections import Counter, namedtuple

import numpy as np
import pytest

from normreg.dataset import Dataset
from normreg.errors import DimensionMismatchError, DomainError
from normreg.normalize import BinaryDelta, apply, backtransform, compute_plan
import normreg.simulate
import normreg.solver
from normreg.simulate import ScenarioSpec, run_scenario
from normreg.solver import (
    KKT_TOLERANCE,
    PenaltySpec,
    fit,
    fit_each,
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
    # empty weights are the weights of no columns, not a malformed input
    results.append(fit(data, PenaltySpec(lam1=1.0, lam2=1.0, u=[], v=np.empty(0))))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
def test_lambda_max_rejects_weights_a_fit_rejects(bad):
    rng = np.random.default_rng(2)
    data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
    with pytest.raises(DomainError, match="^u entries must be positive and finite$"):
        lambda_max(data, u=[bad, 1.0])
    with pytest.raises(DomainError, match="^u entries must be positive and finite$"):
        fit(data, PenaltySpec(lam1=1.0, u=[1.0, bad]))
    with pytest.raises(DomainError, match="^v entries must be positive and finite$"):
        PenaltySpec(1.0, 2.0, v=[bad, 1.0])
    with pytest.raises(DomainError, match="^v entries must be positive and finite$"):
        from_mixing(0.5, 2.0, v=[1.0, bad])


def test_default_weights_are_one_read_only_array_per_width():
    u, v = PenaltySpec(lam1=1.0).resolve_weights(3)
    assert u is v and np.array_equal(u, np.ones(3)) and u.dtype == np.float64
    assert not u.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        u[0] = 2.0
    assert PenaltySpec(lam1=2.0, lam2=1.0).resolve_weights(3)[0] is u
    assert PenaltySpec(lam1=1.0).resolve_weights(0)[0].shape == (0,)


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_weights_are_checked_into_a_copy_and_the_callers_array_stays_writable(strided):
    data = binary_design(4, p=3)
    s = np.array([0.5, 1.0, 2.0]) if not strided else np.array([0.5, 9.0, 1.0, 9.0, 2.0])[::2]
    kept = s.copy()
    specs = [PenaltySpec(1.0, u=s, v=s), from_mixing(0.5, 1.0, u=s, v=s)]
    lam = lambda_max(data, u=s)
    assert s.flags.writeable
    s[:] = 7.0  # the caller's array is its own to change
    assert lambda_max(data, u=kept) == lam
    for spec in specs:
        for w in (spec.u, spec.v):
            assert np.array_equal(w, kept) and w.flags.c_contiguous
            assert not w.flags.writeable and not np.shares_memory(w, s)


def test_lambda_max_refuses_weights_of_a_shape_a_fit_refuses():
    rng = np.random.default_rng(2)
    data = Dataset(x=rng.standard_normal((20, 2)), y=rng.standard_normal(20))
    for call in (lambda u: lambda_max(data, u=u), lambda u: fit(data, PenaltySpec(1.0, u=u))):
        with pytest.raises(DimensionMismatchError, match="weights must have length 2"):
            call([1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError, match="u must be 1-d"):
            call([[1.0, 1.0]])


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


def _kkt_reference(x, r, beta, lam1, lam2, u, v, dead):
    """The certificate's per-coordinate formula, written out as it reads."""
    grads = x.T @ r
    grads[dead] = 0.0
    station = np.abs(grads - lam2 * v * beta - lam1 * u * np.sign(beta))
    excess = np.maximum(np.abs(grads) - lam1 * u, 0.0)
    return np.where(beta != 0.0, station, excess)


@pytest.mark.parametrize("lam1, lam2", [(2.0, 0.0), (2.0, 1.5), (0.0, 1.5), (0.0, 0.0)])
def test_the_certificate_and_objective_equal_their_formulas_bit_for_bit(lam1, lam2):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((30, 7))
    x[:, 3] = 0.1  # a dead column, whose x_j'r is round-off
    data = Dataset(x=x, y=rng.standard_normal(30))
    u, v = rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 7)
    penalty = PenaltySpec(lam1, lam2, u=u, v=v)
    dead = normreg.solver._setup(data).moments.dead
    assert dead.tolist() == [j == 3 for j in range(7)]
    points = [np.array([0.0, -0.7, 1.3, 0.0, -0.0, 2.1, -1e-3]), np.zeros(7), -np.zeros(7)]
    for beta in [*points, fit(data, penalty).beta]:
        beta0 = float(data.y.mean() - data.x.mean(axis=0) @ beta)
        r = data.y - beta0 - data.x @ beta
        want = _kkt_reference(data.x, r, beta, lam1, lam2, u, v, dead)
        got = normreg.solver._kkt(data.x, r, beta, lam1, lam2, u, v, dead)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        active = beta != 0.0
        got = kkt_residuals(data, penalty, namedtuple("Point", "beta beta0")(beta, beta0))
        assert got == (want[active].max(initial=0.0), want[~active].max(initial=0.0))
        objective = float(
            0.5 * np.dot(r, r)
            + lam1 * np.dot(u, np.abs(beta))
            + 0.5 * lam2 * np.dot(v, beta * beta)
        )
        value = normreg.solver._objective(r, beta, lam1, lam2, u, v)
        assert type(value) is float and value == objective


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
    path = H(design)
    assert path.run(ratio * lambda_max(data))
    check(path)
    return path, seen


def test_deferred_inverse_updates_keep_the_inverse_exact(monkeypatch):
    # beyond _RANK active columns a join's or a drop's rank-1 update of
    # M_A^{-1} waits in (lo, hi) until _RANK have built up; every product
    # with M_A^{-1} must still see the exact inverse, across folds, across
    # drops (which swap rows of the pending buffers) and across buffer growth
    data, errors = _gaussian(), []
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
    data, sizes, pending = _gaussian(60, 120), [], []

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


def _near_join_design():
    """A wide design whose column 100 is 0.99 x_0 plus a 1e-3 perturbation
    that the response follows: it joins beyond _RANK active columns with a
    Schur complement ~1e-7 of its diagonal, judged by a Cholesky factor."""
    rng = np.random.default_rng(0)
    n, p = 150, 240
    x = rng.standard_normal((n, p))
    z = rng.standard_normal(n)
    x[:, 100] = 0.99 * x[:, 0] + 1e-3 * z
    y = x[:, :40] @ np.full(40, 3.0) + rng.standard_normal(n) + 20.0 * z
    return Dataset(x=x, y=y)


def _gaussian(n=90, p=200):
    rng = np.random.default_rng(5)
    return Dataset(x=rng.standard_normal((n, p)), y=rng.standard_normal(n))


def _formed_directions(monkeypatch, data, ratio):
    """Run the lasso homotopy of data down to ratio * lambda_max as
    _traced_homotopy does; also return the active-set sizes seen and, for
    each step whose direction the join or drop before it formed, (the
    event, that direction's relative distance to a fresh M_A^{-1}(u_A s),
    the same distance once both are refined against M_A)."""
    opened = normreg.solver._Homotopy.open
    formed, sizes = [], [0]

    def distance(a, b):
        return float(np.abs(a - b).max() / np.abs(b).max())

    def recorded(path):
        direction, k = path.next, path.k
        sizes.append(k)
        opened(path)
        if direction is None:
            return
        system, target = path.d.system(path.act[:k]), path.target

        def refined(z):
            return z + path.apply(target - system @ z)

        fresh = path.apply(target)
        formed.append((
            "join" if k > sizes[-2] else "drop",
            distance(direction, fresh),
            distance(refined(direction), refined(fresh)),
        ))

    monkeypatch.setattr(normreg.solver._Homotopy, "open", recorded)
    path, seen = _traced_homotopy(monkeypatch, data, ratio, lambda path: None)
    return path, seen, formed, sizes


@pytest.mark.parametrize(
    "design", [_gaussian, _near_join_design], ids=["gaussian", "near-join"]
)
def test_an_events_direction_is_a_fresh_product(design, monkeypatch):
    # a join or a drop forms the next step's direction from the step's own,
    # in O(|A|), rather than by a product with M_A^{-1}. Past _RANK active
    # columns, refined once against M_A, as every step refines it, it equals
    # the refined fresh product. Unrefined they differ by M_A's round-off: up
    # to ~4e-9 once the near join leaves M_A with a condition number ~1e7,
    # where the formed one is the nearer to M_A^{-1}(u_A s).
    cholesky, near = np.linalg.cholesky, []

    def counted_cholesky(a):
        near.append(a.shape[0] - 1)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    path, seen, formed, _ = _formed_directions(monkeypatch, design(), 1e-2)
    assert path.k > 64 and seen["pending drop"] >= 1 and seen["pending growth"] >= 1
    assert {event for event, _, _ in formed} == {"join", "drop"}
    if design is _near_join_design:
        assert near and min(near) > normreg.solver._RANK
    assert max(error for _, _, error in formed) <= 1e-12


@pytest.mark.parametrize("shape, ratio", [((60, 30), 1e-3), ((60, 120), 0.2)], ids=["tall", "wide"])
def test_small_active_sets_form_directions_as_fresh_products(shape, ratio, monkeypatch):
    # at or below _RANK active columns too, each join or drop forms the next
    # step's direction, on tall designs as on wide ones; unrefined, it is a
    # fresh M_A^{-1}(u_A s) to round-off (~1e-15 measured)
    data = _gaussian(*shape)
    path, seen, formed, sizes = _formed_directions(monkeypatch, data, ratio)
    assert (data.p <= data.n) == (path.d.gram is not None)
    assert max(sizes) <= normreg.solver._RANK
    assert {event for event, _, _ in formed} == {"join", "drop"}
    assert max(error for _, error, _ in formed) <= 1e-10


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
    parts = [*vars(setup).values(), *vars(setup.moments).values()]
    arrays = [value for value in parts if isinstance(value, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)
    gram = setup.moments.gram
    if shape[0] < shape[1]:
        assert gram is None
        return
    xc = x - x.mean(axis=0)
    assert np.allclose(gram, xc.T @ xc, rtol=0.0, atol=1e-12 * np.abs(x).max() ** 2 * x.shape[0])


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
    restart, join = normreg.solver._Homotopy.restart, normreg.solver._Homotopy.join

    def started(path):
        # the first column joins at lambda_max inside restart, not by join
        restart(path)
        tried.extend(int(j) for j in path.act[: path.k])

    def counted(path, j, sign, known=None):
        tried.append(j)
        return join(path, j, sign, known)

    monkeypatch.setattr(normreg.solver._Homotopy, "restart", started)
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


def _dense_grid(data, monkeypatch, u=None, v=None, ratio=1e-2) -> np.ndarray:
    """200 log-spaced points from lambda_max down to ratio lambda_max, and
    the points 1e-12 relative either side of each knot (a join or a drop,
    or a refused join) that a first run of the lasso path over those points
    meets: most points lie inside a segment, the others at its ends."""
    grid = lambda_grid(lambda_max(data, u=u), 200, ratio)
    knots, close = [], normreg.solver._Homotopy.close

    def recorded(path, lam1, a):
        close(path, lam1, a)
        if path.lam > lam1:
            knots.append(path.lam)

    with monkeypatch.context() as patch:
        patch.setattr(normreg.solver._Homotopy, "close", recorded)
        fit_path(data, 1.0, grid, u=u, v=v)
    knots = np.array([k for k in knots if grid[-1] < k < grid[0]])
    assert knots.size
    return np.sort(np.concatenate([grid, knots * (1.0 + 1e-12), knots * (1.0 - 1e-12)]))[::-1]


def _checked_coasts(monkeypatch, drift=None) -> list:
    """The lambda of every step along a kept segment from now on, each
    checked as it ends: beta is zero off the active columns, which a segment
    kept past a drop would break, and, given drift, c is X'(y - X beta) -
    lam2 v beta on the centered problem within drift of max |c0|. c moves by
    the unrefined direction's product, so on an ill-conditioned M_A it
    drifts from that by more than round-off along any step."""
    coasts, coast = [], normreg.solver._Homotopy.coast

    def checked(path, lam1):
        coast(path, lam1)
        act = path.act[: path.k]
        off = np.ones(path.beta.shape[0], dtype=bool)
        off[act] = False
        assert not np.any(path.beta[off])
        if drift is not None:
            exact = path.d.correlations(path.beta, act)
            assert np.allclose(path.c, exact, rtol=0.0, atol=drift * np.abs(path.d.c0).max())
        coasts.append(lam1)

    monkeypatch.setattr(normreg.solver._Homotopy, "coast", checked)
    return coasts


@pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["lasso", "elnet"])
@pytest.mark.parametrize(
    "problem, dense",
    [(_tall_lasso, False), (_wide_lasso, False), (_tall_lasso, True), (_wide_lasso, True)],
    ids=["tall", "wide", "tall-dense", "wide-dense"],
)
def test_path_points_equal_cold_fits(problem, dense, alpha, monkeypatch):
    data, _ = problem()
    lam_max = lambda_max(data)
    # the lasso's first two points lie at and above lambda_max, where the
    # path's one column drops again and leaves the active set empty
    points = _dense_grid(data, monkeypatch) if dense else lambda_grid(lam_max, 12, 1e-2)
    grid = np.concatenate([[1.5 * lam_max], points])
    coasts = _checked_coasts(monkeypatch, drift=1e-9)
    path = fit_path(data, alpha, grid)
    # only a lasso path continues, and most points of a dense grid lie
    # inside the segment of the step before
    assert (len(coasts) > len(grid) / 2) == (dense and alpha == 1.0)
    assert alpha < 1.0 or path[0].support.size == path[1].support.size == 0
    for lam, res in zip(grid, path):
        cold = fit(data, from_mixing(alpha, lam))
        assert res.converged and cold.converged
        assert _certified(data, from_mixing(alpha, lam), res)
        assert np.allclose(res.beta, cold.beta, rtol=0.0, atol=1e-10)
        assert res.beta0 == pytest.approx(cold.beta0, abs=1e-10)
    if alpha == 1.0 and not dense:
        # the path continued: it took the last cold fit's steps, and one
        # more per point, where it stopped inside a segment (on the dense
        # grid a few points beside a knot are redone from lambda_max)
        assert sum(res.sweeps_used for res in path) <= cold.sweeps_used + len(grid)


def test_a_dense_grid_makes_fewer_passes_than_steps(monkeypatch):
    # a point inside the segment of the step before is reached along it,
    # with no pass over X, and still counts as a step
    data, _ = _wide_lasso()
    grid = _dense_grid(data, monkeypatch)
    passes = _passes(monkeypatch)
    steps = sum(res.sweeps_used for res in fit_path(data, 1.0, grid))
    assert len(grid) < steps
    assert len(passes) < steps / 2


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


@pytest.mark.parametrize("alpha", [1.0, 0.5], ids=["lasso", "elnet"])
def test_a_path_checks_its_weights_once(alpha, monkeypatch):
    data, _ = _tall_lasso()
    rng = np.random.default_rng(1)
    u, v = rng.uniform(0.5, 2.0, data.p), rng.uniform(0.5, 2.0, data.p)
    grid = lambda_grid(lambda_max(data, u=u), count=7, ratio=1e-2)
    checks = []
    exact = normreg.solver._weights

    def counting(name, w, p=None):
        checks.append(name)
        return exact(name, w, p)

    monkeypatch.setattr(normreg.solver, "_weights", counting)
    results = fit_path(data, alpha, grid, u=u, v=v)
    assert checks == ["u", "v"]
    # each point is the fit at its own spec, whose weights are checked copies
    for lam, res in zip(grid, results):
        cold = fit(data, from_mixing(alpha, float(lam), u=u, v=v))
        assert np.allclose(res.beta, cold.beta, rtol=1e-9, atol=1e-12)
    with pytest.raises(DomainError, match="lam must be >= 0"):
        fit_path(data, alpha, [-1.0], u=u, v=v)


def _outcome(res):
    """What fit_each must reproduce of the cold fit, bit for bit: the final
    solve depends on the path only through its active sets and signs."""
    return (res.beta.tolist(), res.beta0, res.sweeps_used, res.converged,
            res.kkt_residual, res.objective_value)


def _passes(monkeypatch) -> list:
    """The passes over X made from now on, one entry each: how many products
    each gave (1, or 2 for a paired step)."""
    seen = []
    scan = normreg.solver._Design.scan

    def counted(design, z):
        seen.append(1 if z.ndim == 1 else z.shape[1])
        return scan(design, z)

    monkeypatch.setattr(normreg.solver._Design, "scan", counted)
    return seen


def _products(monkeypatch) -> list:
    """The products with M_A^{-1} made from now on, one entry each: how many
    vectors each multiplied."""
    seen = []
    apply = normreg.solver._Homotopy.apply

    def counted(path, z):
        seen.append(1 if z.ndim == 1 else z.shape[1])
        return apply(path, z)

    monkeypatch.setattr(normreg.solver._Homotopy, "apply", counted)
    return seen


def _paired_passes(steps) -> int:
    """Passes when each step of the arm being fitted takes one step of the
    next unfinished arm along, for arms of these step counts."""
    left, passes = list(steps), 0
    for i in range(len(left)):
        while left[i]:
            left[i] -= 1
            passes += 1
            j = next((j for j in range(i + 1, len(left)) if left[j]), None)
            if j is not None:
                left[j] -= 1
    return passes


@pytest.mark.parametrize(
    "design, ratios, lam2",
    [
        pytest.param(_wide_lasso, (0.05, 0.3), 0.0, id="two"),
        # the first arm outlasts the second, then takes the third along
        pytest.param(_wide_lasso, (0.05, 0.4, 0.01), 0.0, id="three"),
        pytest.param(_wide_lasso, (0.3, 0.05), 2.0, id="elnet"),
        pytest.param(_wide_lasso, (1.0, 0.05, 1.5, 0.2), 0.0, id="at-and-above-lambda-max"),
        # arms past _RANK active columns, whose joins take w = M_A^{-1} x_A'x_j
        # from one product with the refinement's residual
        pytest.param(lambda: (_gaussian(), None), (0.3, 0.02, 0.1), 0.0, id="past-rank"),
    ],
)
def test_fit_each_equals_cold_fits_and_shares_their_passes(design, ratios, lam2, monkeypatch):
    data, _ = design()
    penalties = [PenaltySpec(lam1=r * lambda_max(data), lam2=lam2) for r in ratios]
    passes = _passes(monkeypatch)
    cold = [fit(data, penalty) for penalty in penalties]
    steps = [res.sweeps_used for res in cold]
    moving = [count for count in steps if count]
    assert len(set(moving)) == len(moving) > 1 and len(passes) == sum(steps)
    assert all(res.converged for res in cold)
    passes.clear()
    arms, exact = [], normreg.solver.fit

    def recorded(data, penalty, *, continuation=None):
        # an arm's buffers go once it is fitted
        assert all(arm() is None for arm in arms)
        arms.append(weakref.ref(continuation))
        return exact(data, penalty, continuation=continuation)

    monkeypatch.setattr(normreg.solver, "fit", recorded)
    each = fit_each(data, penalties)
    assert [_outcome(res) for res in each] == [_outcome(res) for res in cold]
    assert len(arms) == len(penalties)
    assert len(passes) == _paired_passes(steps) < sum(steps)
    assert sum(passes) == sum(steps)


@pytest.mark.parametrize("cap", [4, 15])
def test_fit_each_arms_stop_at_the_step_cap_like_cold_fits(cap, monkeypatch):
    monkeypatch.setattr(normreg.solver, "_max_steps", lambda p: cap)
    data, _ = _wide_lasso()
    penalties = [PenaltySpec(lam1=r * lambda_max(data)) for r in (0.05, 0.4, 0.01)]
    cold = [fit(data, penalty) for penalty in penalties]
    capped = [not res.converged and res.sweeps_used == cap for res in cold]
    assert any(capped)
    for res, ref, stopped in zip(fit_each(data, penalties), cold, capped):
        if not stopped:
            assert _outcome(res) == _outcome(ref)
            continue
        # a capped fit reports the path's own point, whose steps used X'z
        # from the paired X'Z: the same numbers to round-off, not bit for bit
        assert (res.sweeps_used, res.converged) == (ref.sweeps_used, ref.converged)
        assert np.allclose(res.beta, ref.beta, rtol=0.0, atol=1e-13)
        assert res.beta0 == pytest.approx(ref.beta0, rel=1e-13)
        assert res.kkt_residual == pytest.approx(ref.kkt_residual, rel=1e-12)
        assert res.objective_value == pytest.approx(ref.objective_value, rel=1e-13)


@pytest.mark.parametrize(
    "shape, paired",
    [((60, 12), False), ((30, 1), False), ((20, 40), True)],
    ids=["tall", "one-column", "wide"],
)
def test_fit_each_leaves_tall_designs_one_column_and_ridge_arms_plain(shape, paired, monkeypatch):
    rng = np.random.default_rng(3)
    data = Dataset(x=rng.standard_normal(shape), y=rng.standard_normal(shape[0]))
    penalties = [PenaltySpec(lam1=r * lambda_max(data)) for r in (0.1, 0.5)]
    penalties.append(PenaltySpec(lam1=0.0, lam2=1.0))
    cold = [fit(data, penalty) for penalty in penalties]
    continued, exact = [], normreg.solver.fit

    def recorded(data, penalty, *, continuation=None):
        continued.append(continuation is not None)
        return exact(data, penalty, continuation=continuation)

    monkeypatch.setattr(normreg.solver, "fit", recorded)
    each = fit_each(data, penalties)
    assert continued == [paired, paired, False]
    assert [_outcome(res) for res in each] == [_outcome(res) for res in cold]


def test_fit_each_shares_passes_on_the_wide_benchmark_design(monkeypatch):
    # the wide-fit benchmark's design: one 500 x 1000 replication of
    # criterion 7 at seed 11, with delta 0 and 1; pinned on this module's
    # BLAS as the golden digests are
    calls, each = [], normreg.simulate.fit_each

    def recorded(data, penalties):
        calls.append((data, penalties))
        return each(data, penalties)

    monkeypatch.setattr(normreg.simulate, "fit_each", recorded)
    passes, products = _passes(monkeypatch), _products(monkeypatch)
    spec = ScenarioSpec(scenario="decreasing-classbalance", seed=11, n=500, p=1000,
                        replications=1, params={"delta_grid": (0.0, 1.0)})
    run_scenario(spec)
    paired, made = len(passes), list(products)
    passes.clear()
    products.clear()
    [(data, penalties)] = calls
    cold = [fit(data, penalty) for penalty in penalties]
    assert sum(res.sweeps_used for res in cold) == len(passes) == 788
    assert paired == 552
    # products with M_A^{-1}: a step makes one, over [residual, x_A'x_j]
    # when a column joins before lam1; the other eight are each arm's first
    # direction, its last step's refinement and its final solve (the first
    # join, at lambda_max, makes none)
    assert len(made) == len(products) == 794
    assert made.count(2) == products.count(2) == 786


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
def test_small_designs_match_the_reference_sweep(case, monkeypatch):
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
        # a column leaves the path and comes back before the target; the
        # closed form takes the fit, so the drop is asserted on the homotopy
        drops = _count_calls(monkeypatch, normreg.solver._Homotopy, "drop")
        solver = normreg.solver
        design = solver._Design(solver._setup(data), *penalty.resolve_weights(3), 0.0)
        path = solver._Homotopy(design)
        assert path.run(penalty.lam1) and drops
        assert path.steps > res.support.size
        reference = path.solve(penalty.lam1)
        assert np.array_equal(np.sign(reference), np.sign(res.beta))
        assert np.max(np.abs(reference - res.beta)) <= 1e-12 * np.max(np.abs(reference))
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
    # only the columns that exist; the draws do not depend on p
    if p > 1:
        x[:, 1] = x[:, 0]
    if p > 2:
        x[:, 2] = 0.0
    if p > 4:
        x[:, 3] = x[:, 0] + x[:, 4]
    y = x[:, :5] @ rng.standard_normal(5)[:p] + rng.standard_normal(n)
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

    def counted_join(path, j, sign, known=None):
        joined = join(path, j, sign, known)
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
        # with n - 1 columns active, every other column is in their span, so
        # one reaches its bound there only by round-off (here a duplicate of
        # an active column), and which seed reaches the rule moves with it
        pytest.param(2638, 1.0, "full-refusal", id="full-refusal"),
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


@pytest.mark.parametrize("seed", [7, 1080, 2165, 1381, 5712, 8, 2638, 1878, 1246])
def test_dense_paths_on_ill_conditioned_designs_equal_cold_fits(seed, monkeypatch):
    # the designs of the sweep above, on a dense lasso grid with points on
    # either side of each knot. A duplicate and a summed column leave beta
    # without a unique optimum, so the fit X beta + beta0, which is unique,
    # is compared with the cold fit's
    data, u, v, ratios = _random_design(seed)
    grid = _dense_grid(data, monkeypatch, u, v, ratios[1.0])
    coasts = _checked_coasts(monkeypatch)
    for lam, res in zip(grid, fit_path(data, 1.0, grid, u=u, v=v)):
        penalty = PenaltySpec(float(lam), 0.0, u, v)
        cold = fit(data, penalty)
        assert res.converged and _certified(data, penalty, res), (lam, res.kkt_residual)
        assert np.allclose(
            res.beta0 + data.x @ res.beta, cold.beta0 + data.x @ cold.beta, rtol=0.0, atol=1e-10
        )
    assert coasts


# the first ten seeds of _random_design with p <= 4, where the first join at
# lambda_max and saturation (n - 1 active columns, or all p) come together
@pytest.mark.parametrize("seed", [34, 53, 85, 126, 142, 150, 184, 195, 230, 239])
def test_paths_on_designs_of_at_most_four_columns_stay_certified(seed):
    data, u, v, ratios = _random_design(seed)
    assert data.p <= 4
    for alpha in (1.0, 0.5):
        grid = lambda_grid(lambda_max(data), count=15, ratio=ratios[alpha])
        for res in fit_path(data, alpha, grid, u=u, v=v):
            assert res.converged, (alpha, res.lam1, res.kkt_residual)
            assert _certified(data, PenaltySpec(res.lam1, res.lam2, u, v), res)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: from_mixing(0.5, -1.0), DomainError, "lam must be >= 0, got -1.0"),
        (lambda: orthogonal_solution(np.ones(3), np.ones(2), PenaltySpec(1.0)),
         DimensionMismatchError, "xty and col_sq must be 1-d with equal length"),
        (lambda: orthogonal_solution(np.ones(2), np.array([1.0, 0.0]), PenaltySpec(1.0)),
         DomainError, r"each column needs \|\|x_j\|\|\^2 \+ lam2 v_j > 0"),
    ],
    ids=["negative-lambda", "shape-mismatch", "zero-denominator"],
)
def test_the_penalty_helpers_refuse_a_negative_lambda_and_a_bad_closed_form(
    call, error, message
):
    with pytest.raises(error, match=message):
        call()


def _two_columns(seed):
    """A random tall design of two columns as the mixed-feature scenarios fit
    them, a binary and a normal column (even seeds) or a correlated binary
    pair (odd seeds), with weights and lam2 drawn or left out by seed, and a
    variant: a dead column, or a second column equal to the first with equal
    or unequal u."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    x = np.empty((n, 2))
    x[:, 0] = rng.random(n) < rng.uniform(0.1, 0.9)
    if seed % 2:
        x[:, 1] = np.where(rng.random(n) < rng.uniform(0.05, 0.5), 1.0 - x[:, 0], x[:, 0])
    else:
        x[:, 1] = rng.uniform(0.1, 3.0) * rng.standard_normal(n)
    y = x @ rng.uniform(-2.0, 2.0, 2) + rng.uniform(0.1, 2.0) * rng.standard_normal(n)
    u = rng.uniform(0.3, 3.0, 2) if seed % 3 else None
    v = rng.uniform(0.3, 3.0, 2) if seed % 4 else None
    lam2 = float(rng.choice([0.0, rng.uniform(0.01, 0.1) * n, rng.uniform(1.0, 10.0) * n]))
    variant = seed % 10
    if variant == 7:
        x[:, int(rng.integers(2))] = 0.75  # dead
    elif variant == 8:
        x[:, 1] = x[:, 0]
        u = np.array([1.0, 1.7])
        if seed % 20 == 18:
            u = u[::-1].copy()
    elif variant == 9:
        # equal u and lam2 > 0, where the optimum splits between the two (at
        # lam2 = 0 it is not unique, and the path decides: see the edges)
        x[:, 1] = x[:, 0]
        u, lam2 = None, max(lam2, 1.0)
    return Dataset(x=x, y=y), u, v, lam2


def _path_optimum(data, penalty):
    """The homotopy's own optimum, run down to lam1 and solved there."""
    solver = normreg.solver
    design = solver._Design(solver._setup(data), *penalty.resolve_weights(data.p), penalty.lam2)
    path = solver._Homotopy(design)
    assert path.run(penalty.lam1)
    return path.solve(penalty.lam1)


def _made_homotopies(monkeypatch) -> list:
    """Every _Homotopy built from now on, in the order they were made."""
    made = []
    init = normreg.solver._Homotopy.__init__

    def recorded(path, *args):
        made.append(path)
        init(path, *args)

    monkeypatch.setattr(normreg.solver._Homotopy, "__init__", recorded)
    return made


def _count_calls(monkeypatch, owner, name) -> list:
    calls = []
    method = getattr(owner, name)

    def counted(*args):
        calls.append(args[1:])
        return method(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# lam1 as a fraction of lambda_max: above it, at it, inside and at zero
_FRACTIONS = (1.5, 1.0, 0.999, 0.7, 0.3, 0.05, 1e-3, 0.0)


def _closed_form_matches_the_path(data, penalty, monkeypatch):
    """A closed-form fit with the support, signs and (to 1e-12 of its
    largest entry) coefficients of the homotopy's own optimum, certified."""
    reference = _path_optimum(data, penalty)
    monkeypatch.undo()
    runs = _count_calls(monkeypatch, normreg.solver._Homotopy, "run")
    ridges = _count_calls(monkeypatch, normreg.solver._Design, "ridge")
    res = fit(data, penalty)
    assert not runs and not ridges and res.sweeps_used == 1, penalty
    assert np.array_equal(np.sign(res.beta), np.sign(reference)), (penalty, res.beta, reference)
    scale = np.max(np.abs(reference), initial=0.0)
    assert np.max(np.abs(res.beta - reference)) <= 1e-12 * scale, (penalty, res.beta, reference)
    assert res.converged and _certified(data, penalty, res)
    return res


def _one_column(seed):
    """A random design of one column, binary (even seeds) or normal with an
    offset (odd seeds), with its weights and lam2 drawn or left out by seed;
    the column is dead in one seed of ten."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    if seed % 2:
        x = rng.uniform(0.1, 3.0) * rng.standard_normal(n) + rng.uniform(-2.0, 2.0)
    else:
        x = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
    if seed % 10 == 7:
        x[:] = 0.75
    y = rng.uniform(-2.0, 2.0) * x + rng.uniform(0.1, 2.0) * rng.standard_normal(n)
    u = rng.uniform(0.3, 3.0, 1) if seed % 3 else None
    v = rng.uniform(0.3, 3.0, 1) if seed % 4 else None
    lam2 = float(rng.choice([0.0, rng.uniform(0.01, 0.1) * n, rng.uniform(1.0, 10.0) * n]))
    return Dataset(x=x[:, None], y=y), u, v, lam2


@pytest.mark.parametrize("seed", range(40))
def test_one_column_takes_the_closed_form_with_the_paths_support(seed, monkeypatch):
    data, u, v, lam2 = _one_column(seed)
    dead = normreg.solver._setup(data).moments.dead[0]
    assert dead == (seed % 10 == 7)
    # a dead column has no lambda_max: every lam1 gives the null model
    lam_max = 1.0 if dead else lambda_max(data, u=u)
    for fraction in _FRACTIONS:
        penalty = PenaltySpec(lam1=fraction * lam_max, lam2=lam2, u=u, v=v)
        res = _closed_form_matches_the_path(data, penalty, monkeypatch)
        assert (res.support.size == 0) == (dead or fraction >= 1.0)


@pytest.mark.parametrize("lam1, lam2", [(0.0, 0.0), (1.0, 0.0), (0.5, 2.0)])
def test_a_design_of_no_columns_takes_the_null_model_in_closed_form(lam1, lam2, monkeypatch):
    runs = _count_calls(monkeypatch, normreg.solver._Homotopy, "run")
    ridges = _count_calls(monkeypatch, normreg.solver._Design, "ridge")
    y = np.array([1.0, 2.5, 0.3, -1.0])
    res = fit(Dataset(x=np.zeros((4, 0)), y=y), PenaltySpec(lam1, lam2))
    assert not runs and not ridges and res.sweeps_used == 1 and res.converged
    assert res.beta.shape == (0,) and res.beta0 == y.mean()


@pytest.mark.parametrize("seed", range(6))
def test_one_column_near_its_knot(seed, monkeypatch):
    # the knot of one column is lambda_max = |c| / u: just below it the
    # coefficient is within _TIE of zero, so the sign holds by no margin and
    # the homotopy decides; just above it the path's own test gives the null
    # model, with no step
    data, u, v, lam2 = _one_column(seed)
    setup = normreg.solver._setup(data)
    w = np.ones(1) if u is None else u
    knot = abs(float(setup.c0[0])) / float(w[0])
    runs = _count_calls(monkeypatch, normreg.solver._Homotopy, "run")
    for offset in (-1e-11, 1e-11):
        runs.clear()
        penalty = PenaltySpec(knot * (1.0 + offset), lam2, u, v)
        res = fit(data, penalty)
        assert res.converged and _certified(data, penalty, res)
        assert len(runs) == (offset < 0.0) and res.sweeps_used == 1
        reference = _path_optimum(data, penalty)
        assert np.array_equal(np.sign(res.beta), np.sign(reference)), (offset, res.beta)
        if offset < 0.0:
            assert res.beta[0] * float(setup.c0[0]) > 0.0
        else:
            assert res.beta[0] == 0.0


@pytest.mark.parametrize("seed", range(60))
def test_two_columns_take_the_closed_form_with_the_paths_support(seed, monkeypatch):
    data, u, v, lam2 = _two_columns(seed)
    lam_max = lambda_max(data, u=u)
    singular = lam2 == 0.0 and np.array_equal(data.x[:, 0], data.x[:, 1])
    # a singular ridge is lstsq's minimum-norm solve, not the path's point
    for fraction in _FRACTIONS[:-1] if singular else _FRACTIONS:
        penalty = PenaltySpec(lam1=fraction * lam_max, lam2=lam2, u=u, v=v)
        _closed_form_matches_the_path(data, penalty, monkeypatch)


def test_the_first_column_to_join_can_leave_a_two_column_optimum(monkeypatch):
    # two correlated normal columns whose path drops the column that joined
    # first, at lambda_max, so the optimum has the other column alone
    rng = np.random.default_rng(59)
    z = rng.standard_normal(30)
    x = np.column_stack([z + 0.5 * rng.standard_normal(30), z + 0.5 * rng.standard_normal(30)])
    data = Dataset(x=x, y=x @ rng.uniform(-2.0, 2.0, 2) + rng.standard_normal(30))
    first = int(np.argmax(np.abs(normreg.solver._setup(data).c0)))
    res = _closed_form_matches_the_path(data, PenaltySpec(0.03 * lambda_max(data)), monkeypatch)
    assert res.support.tolist() == [1 - first]


def test_two_column_edges_reach_the_path(monkeypatch):
    runs = _count_calls(monkeypatch, normreg.solver._Homotopy, "run")
    ridges = _count_calls(monkeypatch, normreg.solver._Design, "ridge")
    # a near-collinear pair with both columns active: M's determinant is
    # below _NEAR of its diagonal's product, where the path goes on by Cholesky
    rng = np.random.default_rng(3)
    x1 = rng.standard_normal(50)
    x = np.column_stack([x1, x1 + 1e-4 * rng.standard_normal(50)])
    data = Dataset(x=x, y=x @ np.array([3e4, -3e4]) + 0.01 * rng.standard_normal(50))
    for lam1 in (1e-6 * lambda_max(data), 0.0):
        res = fit(data, PenaltySpec(lam1=lam1))
        assert res.converged and np.all(res.beta != 0.0)
    assert len(runs) == len(ridges) == 1
    # lam1 at the knot where the second column joins the first: its bound
    # holds with equality and its coefficient in the case of both is
    # round-off, whose sign may differ from the path's
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = np.column_stack([rng.random(80) < 0.3, rng.standard_normal(80)])
        data = Dataset(x=x, y=x @ np.array([2.0, 0.5]) + rng.standard_normal(80))
        setup = normreg.solver._setup(data)
        c, g = setup.c0, setup.moments.gram
        f = int(np.argmax(np.abs(c)))
        o, lam_max = 1 - f, abs(c[f])
        for side in (1.0, -1.0):
            slope = g[o, f] * np.sign(c[f]) / g[f, f]
            knot = side * (c[o] - slope * lam_max) / (1.0 - side * slope)
            if 0.0 < knot < lam_max:
                break
        runs.clear()
        res = fit(data, PenaltySpec(knot))
        assert len(runs) == 1 and res.converged, (seed, res.beta)
    # two equal columns at equal u: with lam2 = 0 each column's bound holds
    # with equality, so no case holds with margin (_random_design's seeds 142
    # and 184, whose alpha = 1 paths reach the path below lambda_max)
    made = _made_homotopies(monkeypatch)
    for seed in (142, 184):
        runs.clear()
        made.clear()
        data, u, v, ratios = _random_design(seed)
        assert data.p == 2 and np.array_equal(data.x[:, 0], data.x[:, 1]) and u is None
        grid = lambda_grid(lambda_max(data), count=15, ratio=ratios[1.0])
        results = fit_path(data, 1.0, grid, u=u, v=v)
        # the first point, at lambda_max, is the closed form's null model;
        # one homotopy continues down the grid, one step to each other point
        assert len(runs) == len(grid) - 1 and results[0].sweeps_used == 1
        assert len(made) == 1 and made[0].steps == len(grid) - 1
        assert all(res.sweeps_used == 1 for res in results)
        for lam, res in zip(grid, results):
            assert res.converged and _certified(data, PenaltySpec(lam), res)
            # the tie goes to the lower index, as on any path
            assert res.beta[1] == 0.0
        # and at lam1 = 0 the ridge solve takes the tie, splitting it evenly
        ridges.clear()
        res = fit(data, PenaltySpec(0.0))
        assert len(ridges) == 1 and res.converged and res.beta[0] == pytest.approx(res.beta[1])


def _three_columns(seed):
    """A random tall design of three columns: a binary column, a normal one
    and their centered product, as the interactions scenario fits them (even
    seeds), or a correlated triple (odd seeds); weights and lam2 drawn or
    left out by seed, and a variant with one or two dead columns."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    if seed % 2:
        x = rng.standard_normal((n, 1)) + rng.uniform(0.1, 1.0) * rng.standard_normal((n, 3))
    else:
        x1 = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        x2 = rng.uniform(0.1, 3.0) * rng.standard_normal(n)
        x = np.column_stack([x1, x2, (x1 - x1.mean()) * (x2 - x2.mean())])
    y = x @ rng.uniform(-2.0, 2.0, 3) + rng.uniform(0.1, 2.0) * rng.standard_normal(n)
    u = rng.uniform(0.3, 3.0, 3) if seed % 3 else None
    v = rng.uniform(0.3, 3.0, 3) if seed % 4 else None
    lam2 = float(rng.choice([0.0, rng.uniform(0.01, 0.1) * n, rng.uniform(1.0, 10.0) * n]))
    variant = seed % 10
    if variant in (7, 8):
        # one dead column, or two
        x[:, rng.choice(3, variant - 6, replace=False)] = 0.75
    return Dataset(x=x, y=y), u, v, lam2


@pytest.mark.parametrize("seed", range(80))
def test_three_columns_take_the_closed_form_with_the_paths_support(seed, monkeypatch):
    data, u, v, lam2 = _three_columns(seed)
    for fraction in _FRACTIONS:
        penalty = PenaltySpec(lam1=fraction * lambda_max(data, u=u), lam2=lam2, u=u, v=v)
        _closed_form_matches_the_path(data, penalty, monkeypatch)


def test_three_column_edges_reach_the_path(monkeypatch):
    runs = _count_calls(monkeypatch, normreg.solver._Homotopy, "run")
    ridges = _count_calls(monkeypatch, normreg.solver._Design, "ridge")
    rng = np.random.default_rng(4)
    x1, x2 = rng.standard_normal(60), rng.standard_normal(60)
    # a near-singular M with all three columns active: its determinant is
    # below _NEAR of its diagonal's product
    x = np.column_stack([x1, x2, x1 + x2 + 1e-4 * rng.standard_normal(60)])
    y = x @ np.array([3e4 + 1.0, 3e4 - 1.0, -3e4]) + 0.01 * rng.standard_normal(60)
    data = Dataset(x=x, y=y)
    for lam1 in (1e-6 * lambda_max(data), 0.0):
        res = fit(data, PenaltySpec(lam1=lam1))
        assert res.converged and np.all(res.beta != 0.0)
    assert len(runs) == len(ridges) == 1
    # two equal columns at equal u and lam2 = 0: where one of them is
    # active, each one's bound holds with equality, and the path keeps the
    # one that joined first
    x = np.column_stack([x1, x2, x1])
    data = Dataset(x=x, y=x1 - x2 + rng.standard_normal(60))
    for fraction in (0.5, 0.05):
        runs.clear()
        penalty = PenaltySpec(lam1=fraction * lambda_max(data))
        res = fit(data, penalty)
        assert len(runs) == 1 and res.converged and _certified(data, penalty, res)
        assert (res.beta[0] == 0.0) != (res.beta[2] == 0.0)
    # lam1 at a knot of the path, where a column joins or leaves: its bound,
    # or its sign in the case with it, holds with equality. The knots are
    # the homotopy's own, and the second join worked out from the first
    # column's segment, whose round-off differs from the path's
    solver = normreg.solver
    knots = []
    for seed in range(8):
        data, u, v, lam2 = _three_columns(2 * seed)
        weights = PenaltySpec(0.0, u=u, v=v).resolve_weights(3)
        design = solver._Design(solver._setup(data), *weights, lam2)
        path = solver._Homotopy(design)
        while path.steps < 10:
            path.open()
            path.close(0.0, design.product(path.idx, path.dvec))
            if path.lam == 0.0:
                break
            knots.append((data, PenaltySpec(path.lam, lam2, u, v)))
        c, g, w = design.c0, design.gram, weights[0]
        f = int(np.argmax(np.abs(c) / w))
        s, m = np.sign(c[f]), g[f, f] + lam2 * weights[1][f]
        lam_max = abs(c[f]) / w[f]
        # on the first segment c_j(lam) = c_j - g_jf (c_f - lam w_f s) / m
        slope, at_zero = g[:, f] * w[f] * s / m, c - g[:, f] * c[f] / m
        joins = [
            at_zero[j] / (side * w[j] - slope[j])
            for j in range(3) for side in (1.0, -1.0) if j != f
        ]
        joins = [lam for lam in joins if 0.0 < lam < lam_max]
        if joins:
            knots.append((data, PenaltySpec(max(joins), lam2, u, v)))
    assert len(knots) >= 20
    for data, penalty in knots:
        runs.clear()
        res = fit(data, penalty)
        assert len(runs) == 1 and res.converged, (penalty, res.beta)


def _near_collinear(seed, p):
    """Near-collinear columns x1 + eps * noise, eps from 6e-4 to 3e-2, with
    a response of any size: round-off in beta_S is then many times _TIE of
    lam1 u_j, so it can pass for room inside a bound."""
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal(40), rng.standard_normal(40)
    eps = 10 ** rng.uniform(-3.2, -1.5)
    cols = [x1, x1 + eps * x2]
    if p == 3:
        cols.append(x1 - eps * rng.standard_normal(40))
    x = np.column_stack(cols)
    y = x @ rng.uniform(-3.0, 3.0, p) * 10 ** rng.uniform(0.0, 3.0) + rng.standard_normal(40)
    return Dataset(x=x, y=y)


@pytest.mark.parametrize(
    "p, seed", [(2, 82), (2, 273), (2, 363), (3, 2990), (3, 2993), (3, 2996)]
)
def test_a_closed_form_near_a_knot_of_a_near_singular_design_keeps_the_paths_support(
    p, seed, monkeypatch
):
    # just above a knot where a column leaves, the exact optimum keeps it
    # with a coefficient of ~1e-8, which the closed form must not drop
    data = _near_collinear(seed, p)
    solver = normreg.solver
    design = solver._Design(solver._setup(data), *PenaltySpec(0.0).resolve_weights(p), 0.0)
    path = solver._Homotopy(design)
    knots = []
    while path.steps < 10:
        path.open()
        path.close(0.0, design.product(path.idx, path.dvec))
        if path.lam == 0.0:
            break
        knots.append(path.lam)
    for knot in knots:
        for offset in (-1e-9, -1e-11, 1e-11, 1e-9):
            penalty = PenaltySpec(knot * (1.0 + offset))
            res = fit(data, penalty)
            reference = _path_optimum(data, penalty)
            assert np.array_equal(np.sign(res.beta), np.sign(reference)), (knot, offset, res.beta)
            assert res.converged
