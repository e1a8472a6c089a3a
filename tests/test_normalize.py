"""Normalization strategies, plans, back-transform, interactions."""

import math

import numpy as np
import pytest

from normreg.dataset import BINARY, Dataset
from normreg.errors import DimensionMismatchError, DomainError, KindMismatchError, ZeroScaleError
from normreg.normalize import (
    LASSO_COMPARABLE,
    PLAIN,
    RIDGE_COMPARABLE,
    BinaryDelta,
    L1Centered,
    MaxAbs,
    MinMax,
    NoNorm,
    NormalizationPlan,
    PerFeature,
    Robust,
    Standardize,
    apply,
    backtransform,
    class_balance,
    compute_plan,
    make_interaction,
)

ALL_SINGLE = (NoNorm(), Standardize(), L1Centered(), MaxAbs(), MinMax(), Robust())


def _column_dataset(values) -> Dataset:
    col = np.asarray(values, dtype=np.float64)
    return Dataset(x=col[:, np.newaxis], y=np.zeros(col.shape[0]))


def test_class_balance_examples():
    assert class_balance(np.array([0.0, 1.0, 1.0, 1.0])) == 0.75
    assert class_balance(np.array([1.0, 0.0])) == 0.5
    assert class_balance(np.zeros(5)) == 0.0
    with pytest.raises(KindMismatchError):
        class_balance(np.array([0.0, 0.5]))


def test_standardize_binary_column():
    data = _column_dataset([1.0, 1.0, 1.0, 0.0])
    plan = compute_plan(data, Standardize())
    assert plan.centers[0] == pytest.approx(0.75)
    assert plan.scales[0] == pytest.approx(math.sqrt(0.1875), abs=1e-12)


def test_binary_delta_lasso_example():
    strategy = BinaryDelta(1.0, LASSO_COMPARABLE, kappa=2.0, q0=0.5)
    assert strategy.scale_at(0.9) == pytest.approx(0.18, abs=1e-12)


def test_maxabs_example():
    data = _column_dataset([-3.0, 2.0, 0.5])
    plan = compute_plan(data, MaxAbs())
    assert plan.centers[0] == 0.0
    assert plan.scales[0] == 3.0


def test_minmax_and_robust_factors():
    data = _column_dataset([1.0, 5.0, 2.0, 4.0, 3.0])
    minmax = compute_plan(data, MinMax())
    assert minmax.centers[0] == 1.0
    assert minmax.scales[0] == 4.0
    robust = compute_plan(data, Robust())
    assert robust.centers[0] == 3.0
    assert robust.scales[0] == 2.0


def test_l1_factor():
    data = _column_dataset([0.0, 1.0, 2.0, 3.0])
    plan = compute_plan(data, L1Centered())
    # centered absolute sums: |{-1.5,-0.5,0.5,1.5}| = 4, over sqrt(4)
    assert plan.centers[0] == 1.5
    assert plan.scales[0] == pytest.approx(2.0, abs=1e-12)


def test_factor_recomputation_on_normalized_output():
    rng = np.random.default_rng(5)
    data = Dataset(x=rng.lognormal(size=(200, 3)), y=np.zeros(200))
    for strategy in (Standardize(), L1Centered(), MaxAbs(), MinMax(), Robust()):
        plan = compute_plan(data, strategy)
        replan = compute_plan(apply(data, plan), strategy)
        assert np.allclose(replan.centers, 0.0, atol=1e-10)
        assert np.allclose(replan.scales, 1.0, atol=1e-10)


def test_binary_delta_zero_is_identity_scale():
    strategy = BinaryDelta(0.0)
    for q in (0.1, 0.5, 0.99):
        assert strategy.scale_at(q) == 1.0


def test_lasso_anchor_invariance():
    for delta in (0.0, 0.25, 0.5, 1.0, 2.0):
        strategy = BinaryDelta(delta, LASSO_COMPARABLE, kappa=2.0, q0=0.5)
        assert strategy.scale_at(0.5) == pytest.approx(2.0 * 0.25, abs=1e-12)
    for delta in (0.0, 0.5, 1.0):
        strategy = BinaryDelta(delta, LASSO_COMPARABLE, kappa=3.0, q0=0.3)
        assert strategy.scale_at(0.3) == pytest.approx(3.0 * 0.21, abs=1e-12)


def test_ridge_anchor_squares_to_variance():
    for delta in (0.0, 0.25, 0.5, 1.0):
        strategy = BinaryDelta(delta, RIDGE_COMPARABLE, q0=0.4)
        nu0 = 0.4 - 0.16
        assert strategy.scale_at(0.4) ** 2 == pytest.approx(nu0, abs=1e-12)


def test_swap_symmetry():
    col = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    data = _column_dataset(col)
    flipped = _column_dataset(1.0 - col)
    for delta in (0.5, 1.0):
        plan = compute_plan(data, BinaryDelta(delta))
        plan_f = compute_plan(flipped, BinaryDelta(delta))
        assert plan_f.scales[0] == pytest.approx(plan.scales[0], abs=1e-12)
        assert plan_f.centers[0] == pytest.approx(1.0 - plan.centers[0], abs=1e-12)


def test_apply_examples():
    data = _column_dataset([0.0, 1.0])
    plan = NormalizationPlan(centers=np.array([0.5]), scales=np.array([0.5]))
    normalized = apply(data, plan)
    assert np.allclose(normalized.x[:, 0], [-1.0, 1.0])
    identity = NormalizationPlan(centers=np.array([0.0]), scales=np.array([1.0]))
    assert np.array_equal(apply(data, identity).x, data.x)


def test_apply_standardize_moments():
    rng = np.random.default_rng(0)
    data = Dataset(x=rng.normal(3.0, 2.5, size=(500, 2)), y=np.zeros(500))
    normalized = apply(data, compute_plan(data, Standardize()))
    assert np.allclose(normalized.x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(np.sqrt(np.mean(normalized.x**2, axis=0)), 1.0, atol=1e-12)


def test_backtransform_examples():
    plan = NormalizationPlan(centers=np.array([0.0]), scales=np.array([2.0]))
    beta, beta0 = backtransform(np.array([1.0]), 3.0, plan)
    assert beta[0] == 0.5 and beta0 == 3.0
    plan = NormalizationPlan(centers=np.array([1.0]), scales=np.array([1.0]))
    beta, beta0 = backtransform(np.array([2.0]), 0.0, plan)
    assert beta[0] == 2.0 and beta0 == -2.0


def test_backtransform_prediction_roundtrip():
    rng = np.random.default_rng(8)
    for strategy in ALL_SINGLE[1:]:
        x = rng.uniform(-2.0, 5.0, size=(50, 4))
        data = Dataset(x=x, y=rng.standard_normal(50))
        plan = compute_plan(data, strategy)
        normalized = apply(data, plan)
        beta_norm = rng.standard_normal(4)
        beta0_norm = rng.standard_normal()
        beta, beta0 = backtransform(beta_norm, beta0_norm, plan)
        pred_norm = beta0_norm + normalized.x @ beta_norm
        pred = beta0 + data.x @ beta
        assert np.allclose(pred, pred_norm, atol=1e-10)


def test_zero_scale_names_column():
    # a column with no variance gets scale 1 under every strategy, at its center
    data = Dataset(x=np.column_stack([np.arange(4.0), np.full(4, 3.0)]), y=np.zeros(4))
    for strategy, center in (
        (NoNorm(), 0.0), (Standardize(), 3.0), (L1Centered(), 3.0),
        (MaxAbs(), 0.0), (MinMax(), 3.0), (Robust(), 3.0),
    ):
        plan = compute_plan(data, strategy)
        assert (plan.centers[1], plan.scales[1]) == (center, 1.0), strategy
    x = np.column_stack([[0.0, 1.0, 1.0, 0.0], np.zeros(4), np.ones(4)])
    binary = Dataset(x=x, y=np.zeros(4))
    for comparability in (PLAIN, LASSO_COMPARABLE, RIDGE_COMPARABLE):
        for delta in (0.0, 0.5, 1.0):
            plan = compute_plan(binary, BinaryDelta(delta, comparability))
            assert plan.centers[1:].tolist() == [0.0, 1.0]
            assert plan.scales[1:].tolist() == [1.0, 1.0], (comparability, delta)
    # a varying column whose scale comes out zero is still refused, by index
    x = np.column_stack([np.arange(5.0), [0.0, 0.0, 0.0, 0.0, 1.0]])
    with pytest.raises(ZeroScaleError, match="column 1 has zero scale under Robust"):
        compute_plan(Dataset(x=x, y=np.zeros(5)), Robust())


def test_binary_delta_on_continuous_rejected():
    data = _column_dataset([0.1, 0.9, 0.4])
    with pytest.raises(KindMismatchError, match="non-binary column 0; wrap .* in PerFeature"):
        compute_plan(data, BinaryDelta(0.5))


def test_binary_delta_reads_the_kind_off_the_values():
    # a 0/1 column is binary wherever it comes from, apply's output included
    data = _column_dataset([0.0, 1.0, 1.0, 0.0])
    for strategy in (NoNorm(), MaxAbs()):
        out = apply(data, compute_plan(data, strategy))
        plan = compute_plan(out, BinaryDelta(1.0))
        assert (plan.centers[0], plan.scales[0]) == (0.5, 0.25)


def test_per_feature_mixed():
    x = np.column_stack([np.array([0.0, 1.0, 1.0, 0.0]), np.array([2.0, 4.0, 6.0, 8.0])])
    data = Dataset(x=x, y=np.zeros(4))
    plan = compute_plan(data, PerFeature((BinaryDelta(1.0), Standardize())))
    assert plan.centers[0] == 0.5
    assert plan.scales[0] == 0.25
    assert plan.centers[1] == 5.0
    with pytest.raises(DimensionMismatchError):
        compute_plan(data, PerFeature((Standardize(),)))


def test_plan_validation():
    with pytest.raises(ZeroScaleError):
        NormalizationPlan(centers=np.zeros(2), scales=np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        NormalizationPlan(centers=np.zeros(2), scales=np.ones(3))
    data = _column_dataset([0.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        apply(data, NormalizationPlan(centers=np.zeros(2), scales=np.ones(2)))


def test_binary_delta_parameter_validation():
    with pytest.raises(DomainError):
        BinaryDelta(-0.5)
    with pytest.raises(DomainError):
        BinaryDelta(0.5, "weird")
    with pytest.raises(DomainError):
        BinaryDelta(0.5, kappa=0.0)
    with pytest.raises(DomainError):
        BinaryDelta(0.5, q0=1.0)
    with pytest.raises(DomainError, match="delta must be finite and >= 0, got nan"):
        BinaryDelta(math.nan)
    with pytest.raises(DomainError, match="kappa must be finite and > 0, got inf"):
        BinaryDelta(0.5, kappa=math.inf)


def test_make_interaction_examples():
    x1 = np.array([0.0, 1.0])
    x2 = np.array([-1.0, 1.0])
    assert np.allclose(make_interaction(x1, x2), [0.5, 0.5])
    with pytest.raises(DimensionMismatchError):
        make_interaction(x1, np.zeros(3))


def test_interaction_variance_centered():
    # binary(q) x centered normal(sigma): Var of centered product -> sigma^2 (q - q^2)
    rng = np.random.default_rng(17)
    n, q, sigma = 100_000, 0.7, 1.5
    x1 = (rng.uniform(size=n) < q).astype(float)
    x2 = sigma * rng.standard_normal(n)
    x3 = make_interaction(x1, x2)
    target = sigma**2 * (q - q * q)
    assert np.var(x3) == pytest.approx(target, rel=0.03)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: NormalizationPlan(centers=[math.nan, 0.0], scales=[1.0, 1.0]), DomainError,
         "normalization factors must be finite"),
        (lambda: backtransform(np.ones(3), 0.0, NormalizationPlan([0.0, 0.0], [1.0, 2.0])),
         DimensionMismatchError, r"beta_norm must have shape \(2,\)"),
    ],
    ids=["non-finite-center", "wrong-shape"],
)
def test_a_plan_refuses_a_non_finite_center_and_backtransform_the_wrong_shape(
    call, error, message
):
    with pytest.raises(error, match=message):
        call()
