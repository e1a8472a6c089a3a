"""Metrics and cross-validation behavior.

The leakage test wraps the plan-computation hook and replays the recorded
training responses against independently reconstructed fold assignments, so
any peek at held-out rows changes a recorded array and fails the comparison.
"""

from dataclasses import replace

import numpy as np
import pytest

import normreg.evaluate
import normreg.normalize
import normreg.solver
from conftest import binary_design
from normreg import (
    CVPlan,
    Dataset,
    DimensionMismatchError,
    DomainError,
    cross_validate,
    fdr,
    fold_assignments,
    nmse,
    power_all,
)


def test_nmse_null_model_scores_one():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    pred = np.full(4, y.mean())
    assert nmse(y, pred) == pytest.approx(1.0, abs=1e-12)


def test_nmse_perfect_fit_scores_zero():
    y = np.array([1.0, -2.0, 0.5])
    assert nmse(y, y) == 0.0


def test_nmse_hand_value():
    assert nmse([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-15)


def test_nmse_shift_invariance():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(30)
    pred = rng.standard_normal(30)
    base = nmse(y, pred)
    # identity holds because the normalizer is recomputed; the only slack is
    # rounding of the shifted inputs themselves (ulps, growing with |c|)
    for c in (1.0, -3.5):
        assert nmse(y + c, pred + c) == pytest.approx(base, rel=1e-12)
    assert nmse(y + 1e6, pred + 1e6) == pytest.approx(base, rel=1e-6)


def test_nmse_rejects_bad_input():
    with pytest.raises(DomainError):
        nmse([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        nmse([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        nmse([1.0], [1.0])


def test_fdr_and_power_trivials():
    truth = range(10)
    assert fdr((), truth) == 0.0
    assert power_all((), truth) == 0
    assert fdr(truth, truth) == 0.0
    assert power_all(truth, truth) == 1
    extra = list(truth) + [99]
    assert fdr(extra, truth) == pytest.approx(1.0 / 11.0)
    assert power_all(extra, truth) == 1


def test_fdr_bounds_and_power_binary():
    rng = np.random.default_rng(3)
    for _ in range(50):
        support = set(rng.choice(20, size=rng.integers(0, 10), replace=False).tolist())
        truth = set(rng.choice(20, size=rng.integers(0, 10), replace=False).tolist())
        value = fdr(support, truth)
        assert 0.0 <= value <= 1.0
        assert power_all(support, truth) in (0, 1)


def test_fold_assignments_partition_and_vary_by_repeat():
    plan = CVPlan(folds=4, repeats=3, seed=11)
    reps = fold_assignments(26, plan)
    assert len(reps) == 3
    flat_first = None
    for folds in reps:
        assert len(folds) == 4
        merged = np.sort(np.concatenate(folds))
        assert np.array_equal(merged, np.arange(26))
        if flat_first is None:
            flat_first = [f.tolist() for f in folds]
    assert [f.tolist() for f in reps[1]] != flat_first
    again = fold_assignments(26, plan)
    for a, b in zip(reps, again):
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)


def test_fold_assignments_leave_one_out_layout():
    plan = CVPlan(folds=20, repeats=1, seed=5)
    folds = fold_assignments(20, plan)[0]
    sizes = sorted(f.shape[0] for f in folds)
    assert sizes == [1] * 20


def test_cvplan_validation():
    with pytest.raises(DomainError):
        CVPlan(folds=1)
    with pytest.raises(DomainError):
        CVPlan(repeats=0)
    with pytest.raises(DomainError):
        CVPlan(deltas=())


def test_cross_validate_rejects_degenerate_input():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 2))
    with pytest.raises(DomainError):
        cross_validate(Dataset(x=x, y=rng.standard_normal(6)), CVPlan(folds=10, repeats=1))
    with pytest.raises(DomainError):
        cross_validate(Dataset(x=x, y=np.ones(6)), CVPlan(folds=3, repeats=1))


def test_cross_validate_never_sees_held_out_rows(monkeypatch):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40, 4))
    y = x[:, 0] + 0.5 * rng.standard_normal(40)
    data = Dataset(x=x, y=y)
    plan = CVPlan(folds=4, repeats=2, seed=9, lambda_count=5, deltas=(0.0, 1.0))

    seen = []
    original = normreg.normalize.compute_plan

    def spy(ds, strategy):
        seen.append(ds.y.copy())
        return original(ds, strategy)

    monkeypatch.setattr(normreg.normalize, "compute_plan", spy)
    cross_validate(data, plan)

    n_deltas = len(plan.deltas)
    # grid anchoring sees the full data once per delta, nothing else does
    for anchor in seen[:n_deltas]:
        assert np.array_equal(anchor, y)
    expected = []
    for folds in fold_assignments(40, plan):
        for test_idx in folds:
            mask = np.ones(40, dtype=bool)
            mask[test_idx] = False
            expected.extend([y[mask]] * n_deltas)
    trained = seen[n_deltas:]
    assert len(trained) == len(expected)
    for got, want in zip(trained, expected):
        assert np.array_equal(got, want)


def test_cross_validate_leave_one_out_runs_and_selects():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((20, 3))
    y = x @ np.array([1.0, 0.0, -0.5]) + 0.3 * rng.standard_normal(20)
    data = Dataset(x=x, y=y)
    plan = CVPlan(folds=20, repeats=1, seed=2, lambda_count=8, deltas=(0.5,))
    result = cross_validate(data, plan)
    # singleton held-out responses are constant, so no per-fold rows survive
    assert result.rows == ()
    assert len(result.skipped) == 20
    assert np.isfinite(result.best.mean_nmse)
    repeat = cross_validate(data, plan)
    assert repeat.best == result.best


def test_cross_validate_pure_noise_prefers_null_model():
    rng = np.random.default_rng(100)
    x = rng.standard_normal((200, 50))
    y = rng.standard_normal(200)
    data = Dataset(x=x, y=y)
    plan = CVPlan(folds=5, repeats=2, seed=4, lambda_count=30, deltas=(0.5,))
    result = cross_validate(data, plan)
    assert result.best.mean_nmse >= 0.9


def test_cross_validate_strong_signal_scores_well():
    rng = np.random.default_rng(101)
    x = rng.standard_normal((400, 10))
    beta = np.zeros(10)
    beta[0] = 1.0
    sigma = np.sqrt(1.0 / 10.0)
    y = x @ beta + sigma * rng.standard_normal(400)
    data = Dataset(x=x, y=y)
    plan = CVPlan(folds=5, repeats=2, seed=6, lambda_count=30, deltas=(0.5,))
    result = cross_validate(data, plan)
    assert result.best.mean_nmse < 0.2


def test_cross_validate_row_schema_on_binary_design():
    data = binary_design(31)
    plan = CVPlan(folds=4, repeats=2, seed=13, lambda_count=6, deltas=(0.0, 1.0))
    result = cross_validate(data, plan)
    assert len(result.rows) == 2 * 4 * 2 * 6
    for row in result.rows:
        assert 0 <= row.repeat < 2 and 0 <= row.fold < 4
        assert row.delta in (0.0, 1.0)
        assert row.lam in result.lambdas[row.delta]
        assert np.isfinite(row.nmse) and row.nmse >= 0.0
    best = result.best
    assert best.delta in (0.0, 1.0)
    assert best.lam in result.lambdas[best.delta]


def test_cross_validate_warns_once_about_uncertified_fits(caplog, monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 3))
    data = Dataset(x=x, y=x[:, 0] + rng.standard_normal(30))
    plan = CVPlan(folds=3, repeats=1, seed=4, lambda_count=4, deltas=(0.5,))
    with caplog.at_level("WARNING", logger="normreg.evaluate"):
        cross_validate(data, plan)
    assert not caplog.records
    exact = normreg.solver.fit
    # every path fit reaches solver.fit through fit_path
    monkeypatch.setattr(
        normreg.solver, "fit", lambda *a, **k: replace(exact(*a, **k), converged=False)
    )
    with caplog.at_level("WARNING", logger="normreg.evaluate"):
        cross_validate(data, plan)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "12 of 12 path fits failed the KKT certificate")
    ]


def test_each_training_fold_is_copied_once(monkeypatch):
    folds = []

    class Recorded(Dataset):
        def __post_init__(self):
            given = self.x
            super().__post_init__()
            folds.append((given, self.x))

    monkeypatch.setattr(normreg.evaluate, "Dataset", Recorded)
    data = binary_design(8)
    plan = CVPlan(folds=5, repeats=1, lambda_count=4, deltas=(0.5,))
    cross_validate(data, plan)
    assert len(folds) == plan.folds
    # the rows come out of the indexing in column-major order, which the
    # Dataset keeps instead of copying them again
    for given, kept in folds:
        assert np.shares_memory(kept, given)
        assert not np.shares_memory(given, data.x)
