"""Closed-form estimator moments, selection probabilities, and limits.

Frozen reference numbers were produced by an adaptive-quadrature oracle
(see conftest.quad_st_moments) and a bisection inverse cdf, then pinned
here as literals; live quadrature cross-checks run on a coarser grid.
"""

import math

import numpy as np
import pytest

from normreg.oracle import (
    EULER_GAMMA,
    FINITE,
    INFINITE,
    ZERO,
    BinaryFeatureModel,
    ComparabilityAnchor,
    Delta,
    Omega,
    asymptotic_limits,
    estimator_bias,
    estimator_mean,
    estimator_mse,
    estimator_variance,
    maxabs_gumbel,
    moments,
    noiseless_estimate,
    selection_probability,
    soft_threshold,
    st_mean,
    st_variance,
)
from normreg.errors import DomainError, UnsupportedLimitError
from normreg.normalize import LASSO_COMPARABLE, BinaryDelta
from normreg.special import std_normal_cdf, std_normal_pdf, std_normal_quantile

from conftest import quad_st_moments


def model(beta=1.0, n=100, q=0.5, sigma=1.0, lam1=0.0, lam2=0.0, scaling=None, anchor=None):
    return BinaryFeatureModel(
        beta=beta,
        n=n,
        q=q,
        sigma_eps=sigma,
        lam1=lam1,
        lam2=lam2,
        scaling=scaling if scaling is not None else Delta(0.5),
        anchor=anchor,
    )


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold():
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(5.0, 2.0) == 3.0
    assert soft_threshold(-5.0, 2.0) == -3.0
    assert soft_threshold(1.23, 0.0) == 1.23


# ---------------------------------------------------------------------------
# moments


def test_moments_delta_one_cancels_scale():
    for q in (0.3, 0.5, 0.9):
        m = moments(model(q=q, scaling=Delta(1.0)))
        assert m.mu == pytest.approx(100.0, abs=1e-9)


def test_moments_delta_zero_example():
    m = moments(model(q=0.5, lam2=7.0, scaling=Delta(0.0)))
    assert m.mu == pytest.approx(25.0, abs=1e-12)
    assert m.sigma == pytest.approx(5.0, abs=1e-12)
    assert m.d == pytest.approx(25.0 + 7.0, abs=1e-12)


def test_moments_ridge_half_denominator():
    m = moments(model(q=0.7, sigma=0.0, lam2=25.0, scaling=Delta(0.5)))
    nu = 0.7 - 0.49
    assert m.d == pytest.approx(math.sqrt(nu) * 125.0, abs=1e-10)
    est = noiseless_estimate(model(q=0.7, sigma=0.0, lam2=25.0, scaling=Delta(0.5)))
    assert est == pytest.approx(100.0 / 125.0, abs=1e-12)


def test_moments_theta_gamma_construction():
    m = moments(model(lam1=3.0, scaling=Delta(0.25)))
    assert m.theta == pytest.approx(-m.mu - 3.0, abs=1e-12)
    assert m.gamma == pytest.approx(m.mu - 3.0, abs=1e-12)


def test_moments_boundary_class_balance_rejected():
    for q in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            model(q=q)


def test_moments_monte_carlo_cross_check():
    # beta*=1, n=100, q=0.5, delta=0: x'y over fresh noise has mean 25, sd 5
    rng = np.random.default_rng(123)
    n, q, beta = 100, 0.5, 1.0
    x = np.zeros(n)
    x[:50] = 1.0
    x_c = x - q
    draws = beta * np.dot(x_c, x) + rng.standard_normal((100_000, n)) @ x_c
    assert draws.mean() == pytest.approx(25.0, abs=0.08)
    assert draws.std() == pytest.approx(5.0, rel=0.02)


# ---------------------------------------------------------------------------
# soft-threshold moments under Gaussian noise


def test_st_moments_lambda_zero_identity():
    m = moments(model(q=0.6, sigma=2.0, scaling=Delta(0.0)))
    assert st_mean(m) == pytest.approx(m.mu, abs=1e-9)
    assert st_variance(m) == pytest.approx(m.sigma**2, abs=1e-7)


def test_st_moments_frozen_quadrature_values():
    import dataclasses

    from normreg.oracle import Moments

    def raw(mu, sigma, lam):
        return Moments(mu=mu, sigma=sigma, d=1.0, theta=-mu - lam, gamma=mu - lam)

    cases = {
        (2.0, 1.0, 1.0): (1.0829333162706387, 0.752119084247793),
        (0.0, 1.0, 1.0): (0.0, 0.1506795666875415),
        (-3.0, 2.0, 5.0): (-0.16661665065850775, 0.27361038593083775),
        (25.0, 5.0, 10.0): (15.00191077158436, 24.93758732441026),
    }
    for (mu, sigma, lam), (mean_ref, var_ref) in cases.items():
        m = raw(mu, sigma, lam)
        assert st_mean(m) == pytest.approx(mean_ref, abs=1e-8)
        assert st_variance(m) == pytest.approx(var_ref, abs=1e-8)


def test_st_moments_quadrature_grid():
    from normreg.oracle import Moments

    for mu in (-5.0, -2.0, 0.0, 2.0, 5.0):
        for sigma in (0.5, 1.0, 2.0):
            for lam in (0.0, 1.0, 5.0):
                m = Moments(mu=mu, sigma=sigma, d=1.0, theta=-mu - lam, gamma=mu - lam)
                mean_ref, var_ref = quad_st_moments(mu, sigma, lam)
                assert st_mean(m) == pytest.approx(mean_ref, abs=1e-8)
                assert st_variance(m) == pytest.approx(var_ref, abs=1e-8)


# ---------------------------------------------------------------------------
# estimator bias/variance/mse


def test_unpenalized_estimator_is_unbiased():
    m = model(q=0.6, sigma=1.5, scaling=Delta(0.0))
    assert estimator_bias(m) == pytest.approx(0.0, abs=1e-10)
    nu = 0.6 - 0.36
    assert estimator_variance(m) == pytest.approx(1.5**2 / (100 * nu), abs=1e-10)
    assert estimator_mse(m) == pytest.approx(estimator_variance(m), abs=1e-12)


def test_estimator_frozen_generic_cell():
    # beta*=1, n=100, q=0.6, sigma=1, lam1=10, lam2=5, Delta(0.5); quadrature refs
    m = model(q=0.6, lam1=10.0, lam2=5.0, scaling=Delta(0.5))
    assert estimator_mean(m) == pytest.approx(0.7579791679890668, abs=1e-8)
    assert estimator_variance(m) == pytest.approx(0.03778942975694261, abs=1e-8)


def test_noiseless_lasso_delta_one_exact():
    m = model(q=0.8, sigma=0.0, lam1=10.0, scaling=Delta(1.0))
    assert estimator_bias(m) == soft_threshold(100.0, 10.0) / 100.0 - 1.0
    assert estimator_variance(m) == 0.0


def test_finite_balance_values_approach_their_limits():
    fixed = dict(beta=1.0, n=100, sigma=1.0, lam1=5.0, lam2=10.0)
    cases = [
        (Delta(0.3), estimator_mean, 0.0),
        (
            Delta(0.5),
            estimator_mean,
            (2.0 * 100.0 / 110.0) * std_normal_cdf(-5.0 / 10.0),
        ),
        (Omega(1.0), estimator_mean, 100.0 / 110.0),
    ]
    for scaling, func, limit in cases:
        gaps = []
        for k in (2, 3, 4):
            value = func(model(q=1.0 - 10.0**-k, scaling=scaling, **fixed))
            gaps.append(abs(value - limit))
        assert gaps[0] > gaps[1] > gaps[2]
    # quadratic-penalty-only variance at its critical exponent delta = 1/4
    gaps = []
    for k in (2, 3, 4):
        m = model(q=1.0 - 10.0**-k, lam1=0.0, lam2=50.0, scaling=Delta(0.25))
        gaps.append(abs(estimator_variance(m) - 100.0 / 2500.0))
    assert gaps[0] > gaps[1] > gaps[2]


# ---------------------------------------------------------------------------
# selection probability


def test_selection_null_feature_flat_in_q():
    ref = 2.0 * std_normal_cdf(-10.0 / 10.0)
    for q in (0.5, 0.7, 0.95):
        m = model(beta=0.0, q=q, lam1=10.0, scaling=Delta(0.5))
        assert selection_probability(m) == pytest.approx(ref, abs=1e-12)


def test_selection_limit_cases():
    q = 1.0 - 1e-8
    low = selection_probability(model(q=q, lam1=5.0, scaling=Delta(0.0)))
    high = selection_probability(model(q=q, lam1=5.0, scaling=Delta(1.0)))
    assert low < 1e-6
    assert high > 0.999


def test_selection_frozen_value_and_lam2_independence():
    ref = 0.9999683297447546
    for lam2 in (0.0, 10.0, 1e3):
        m = model(lam1=10.0, lam2=lam2, scaling=Delta(0.5))
        assert selection_probability(m) == pytest.approx(ref, abs=1e-12)


def test_selection_delta_omega_interchangeable():
    for t in (0.0, 0.25, 0.5, 1.0):
        for q in (0.5, 0.8):
            a = selection_probability(model(q=q, lam1=12.0, scaling=Delta(t)))
            b = selection_probability(model(q=q, lam1=12.0, scaling=Omega(t)))
            assert a == pytest.approx(b, abs=1e-14)


def test_selection_monte_carlo_cross_check():
    # one-feature lasso at beta*=1, n=100, sigma=1, lam1=10, delta=1/2, q=0.5
    rng = np.random.default_rng(7)
    n, lam1 = 100, 10.0
    x = np.zeros(n)
    x[:50] = 1.0
    x_c = x - 0.5
    s = 0.5
    scores = (np.dot(x_c, x) + rng.standard_normal((100_000, n)) @ x_c) / s
    freq = np.mean(np.abs(scores) > lam1)
    assert freq == pytest.approx(0.9999683297447546, abs=0.005)


def test_selection_noiseless_indicator():
    inside = model(q=0.5, sigma=0.0, lam1=30.0, scaling=Delta(0.0))
    outside = model(q=0.5, sigma=0.0, lam1=20.0, scaling=Delta(0.0))
    assert selection_probability(inside) == 0.0  # |mu| = 25 <= 30
    assert selection_probability(outside) == 1.0


# ---------------------------------------------------------------------------
# asymptotic limits


def test_limits_small_delta():
    summary = asymptotic_limits(model(lam1=5.0, lam2=10.0, scaling=Delta(0.3)))
    assert summary.mean == 0.0
    assert summary.variance.kind == ZERO
    assert summary.selection == 0.0


def test_limits_delta_half():
    summary = asymptotic_limits(model(lam1=5.0, lam2=10.0, scaling=Delta(0.5)))
    expected = (2.0 * 100.0 / 110.0) * std_normal_cdf(-0.5)
    assert summary.mean == pytest.approx(expected, abs=1e-12)
    assert summary.variance.kind == INFINITE
    assert summary.selection == pytest.approx(2.0 * std_normal_cdf(-0.5), abs=1e-12)


def test_limits_large_delta():
    summary = asymptotic_limits(model(lam1=5.0, lam2=10.0, scaling=Delta(0.8)))
    assert summary.mean == pytest.approx(1.0, abs=1e-12)
    assert summary.variance.kind == INFINITE
    assert summary.selection == 1.0


def test_limits_omega_one():
    summary = asymptotic_limits(model(lam1=5.0, lam2=10.0, scaling=Omega(1.0)))
    assert summary.mean == pytest.approx(100.0 / 110.0, abs=1e-12)


def test_limits_ridge_quarter():
    summary = asymptotic_limits(model(lam1=0.0, lam2=50.0, scaling=Delta(0.25)))
    assert summary.variance.kind == FINITE
    assert summary.variance.value == pytest.approx(0.04, abs=1e-15)


def test_limits_ridge_other_branches():
    low = asymptotic_limits(model(lam1=0.0, lam2=50.0, scaling=Delta(0.2)))
    high = asymptotic_limits(model(lam1=0.0, lam2=50.0, scaling=Delta(0.3)))
    assert low.variance.kind == ZERO
    assert high.variance.kind == INFINITE


def test_limits_omega_both_penalties_branches():
    b = 5.0 / (1.0 * math.sqrt(100.0))
    low = asymptotic_limits(model(lam1=5.0, lam2=10.0, scaling=Omega(0.3)))
    assert (low.mean, low.variance.kind, low.selection) == (0.0, ZERO, 0.0)
    half = asymptotic_limits(model(lam1=5.0, lam2=10.0, scaling=Omega(0.5)))
    assert half.mean == 0.0
    assert half.variance.kind == INFINITE
    assert half.selection == pytest.approx(2.0 * std_normal_cdf(-b), abs=1e-15)
    high = asymptotic_limits(model(beta=1.5, lam1=5.0, lam2=10.0, scaling=Omega(1.5)))
    assert (high.mean, high.variance.kind, high.selection) == (1.5, INFINITE, 1.0)


@pytest.mark.parametrize("omega", [0.3, 0.5, 0.8])
def test_limits_omega_lasso_reduces_to_delta_omega(omega):
    weighted = asymptotic_limits(model(lam1=5.0, scaling=Omega(omega)))
    assert weighted == asymptotic_limits(model(lam1=5.0, scaling=Delta(omega)))


@pytest.mark.parametrize("omega, kind", [(0.4, ZERO), (0.5, FINITE), (0.7, INFINITE)])
def test_limits_omega_ridge_reduces_to_delta_half_omega(omega, kind):
    weighted = asymptotic_limits(model(lam2=50.0, scaling=Omega(omega)))
    assert weighted == asymptotic_limits(model(lam2=50.0, scaling=Delta(omega / 2.0)))
    assert weighted.variance.kind == kind
    if kind == FINITE:
        assert weighted.variance.value == pytest.approx(100.0 / 2500.0, rel=1e-15)


def test_limits_with_a_comparability_anchor():
    # kappa (q0 - q0^2)^(1 - t): 2 * 0.16^0.5 = 0.8 at t = 1/2, 2 at t = 1
    anchor = ComparabilityAnchor(kappa=2.0, q0=0.2)
    fixed = dict(lam1=5.0, lam2=10.0, anchor=anchor)
    b = 5.0 * 0.8 / 10.0
    # Delta scales lam1 by the multiplier and lam2 by its square
    delta = asymptotic_limits(model(scaling=Delta(0.5), **fixed))
    expected = (2.0 * 100.0 / (100.0 + 10.0 * 0.64)) * std_normal_cdf(-b)
    assert delta.mean == pytest.approx(expected, rel=1e-12)
    assert delta.selection == pytest.approx(2.0 * std_normal_cdf(-b), rel=1e-12)
    # Omega scales both by the multiplier
    half = asymptotic_limits(model(scaling=Omega(0.5), **fixed))
    assert half.selection == pytest.approx(2.0 * std_normal_cdf(-b), rel=1e-12)
    one = asymptotic_limits(model(scaling=Omega(1.0), **fixed))
    assert one.mean == pytest.approx(100.0 / 120.0, rel=1e-12)
    ridge = asymptotic_limits(model(lam2=10.0, scaling=Omega(0.5), anchor=anchor))
    assert ridge.variance.value == pytest.approx(100.0 / (10.0 * 0.8) ** 2, rel=1e-12)


def test_limits_unsupported():
    with pytest.raises(UnsupportedLimitError):
        asymptotic_limits(model(lam1=0.0, lam2=0.0, scaling=Delta(0.5)))
    with pytest.raises(UnsupportedLimitError):
        asymptotic_limits(model(sigma=0.0, lam1=5.0, scaling=Delta(0.5)))


# ---------------------------------------------------------------------------
# noiseless estimates


def test_noiseless_lasso_constant_in_q():
    values = [
        noiseless_estimate(model(q=q, sigma=0.0, lam1=10.0, scaling=Delta(1.0)))
        for q in (0.5, 0.7, 0.99)
    ]
    assert values == [pytest.approx(0.9, abs=1e-12)] * 3


def test_noiseless_ridge_constant_in_q():
    values = [
        noiseless_estimate(model(q=q, sigma=0.0, lam2=25.0, scaling=Delta(0.5)))
        for q in (0.5, 0.7, 0.99)
    ]
    assert values == [pytest.approx(0.8, abs=1e-12)] * 3


def test_noiseless_comparability_factor():
    est = noiseless_estimate(model(q=0.5, sigma=0.0, lam1=10.0, scaling=Delta(0.0)))
    assert est == pytest.approx(soft_threshold(25.0, 10.0) / 25.0, abs=1e-12)


def test_noiseless_omega_constant_in_q():
    values = [
        noiseless_estimate(model(q=q, sigma=0.0, lam1=10.0, lam2=20.0, scaling=Omega(1.0)))
        for q in (0.5, 0.8, 0.95)
    ]
    assert values == [pytest.approx(90.0 / 120.0, abs=1e-10)] * 3


def test_anchor_multiplier():
    anchor = ComparabilityAnchor(kappa=2.0, q0=0.5)
    assert anchor.multiplier(1.0) == pytest.approx(2.0, abs=1e-12)
    assert anchor.multiplier(0.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, 0.25, 0.5, 1.0])
def test_anchored_scale_matches_the_lasso_comparable_plan(delta):
    # kappa (q0 - q0^2)^(1 - delta) nu^delta, read off d = n nu / s at lam2 = 0,
    # against the normalize module's own implementation of the same rule
    anchor = ComparabilityAnchor(kappa=1.7, q0=0.3)
    plan = BinaryDelta(delta, LASSO_COMPARABLE, 1.7, 0.3)
    for q in (0.5, 0.8, 0.97):
        d = moments(model(q=q, lam1=1.0, scaling=Delta(delta), anchor=anchor)).d
        assert 100.0 * (q - q * q) / d == pytest.approx(plan.scale_at(q), rel=1e-14)


# ---------------------------------------------------------------------------
# gumbel approximation for max |X|


def test_gumbel_n2_location():
    g = maxabs_gumbel(0.0, 1.0, 2)
    assert g.location == pytest.approx(0.6744897501960816, abs=1e-9)


def test_gumbel_frozen_n100():
    g = maxabs_gumbel(0.0, 1.0, 100)
    assert g.location == pytest.approx(2.575829303548897, abs=1e-9)
    assert g.scale == pytest.approx(0.3457876112108109, abs=1e-9)
    assert g.mean_approx == pytest.approx(2.7754233294686577, abs=1e-8)


def test_gumbel_mean_increasing():
    means = [maxabs_gumbel(0.0, 1.0, n).mean_approx for n in (10, 100, 1000)]
    assert means[0] < means[1] < means[2]


def test_gumbel_monte_carlo_n100():
    rng = np.random.default_rng(99)
    maxima = np.abs(rng.standard_normal((10_000, 100))).max(axis=1)
    ref = maxabs_gumbel(0.0, 1.0, 100).mean_approx
    assert abs(maxima.mean() - ref) / ref < 0.02


@pytest.mark.parametrize("mu", [1e10, 1e15, 1e17, -1e17])
def test_gumbel_at_large_means(mu):
    # far from zero |X| is X ~ N(|mu|, 1): b_n = |mu| + z and a_n = 1 / (n phi(z))
    # at z = Phi^-1(1 - 1/n), though |mu| + z rounds to the spacing of |mu|
    z = std_normal_quantile(0.9)
    g = maxabs_gumbel(mu, 1.0, 10)
    assert g.scale == pytest.approx(1.0 / (10.0 * std_normal_pdf(z)), abs=1e-9)
    assert g.location == pytest.approx(abs(mu) + z, rel=1e-15)
    assert g.mean_approx == pytest.approx(abs(mu) + z + EULER_GAMMA * g.scale, rel=1e-15)


@pytest.mark.parametrize("sigma", [1e-12, 1e-9, 1e3])
def test_gumbel_is_scale_equivariant(sigma):
    # max |X| for X ~ N(0, sigma^2) is sigma times max |Z|
    unit = maxabs_gumbel(0.0, 1.0, 10)
    g = maxabs_gumbel(0.0, sigma, 10)
    assert g.location == pytest.approx(sigma * unit.location, rel=1e-9, abs=0.0)
    assert g.scale == pytest.approx(sigma * unit.scale, rel=1e-9, abs=0.0)
    assert g.mean_approx == pytest.approx(sigma * unit.mean_approx, rel=1e-9, abs=0.0)


def test_gumbel_near_the_top_of_the_float_range():
    # the quantile, about 8e307, lies where lo + hi overflows in the bisection
    unit = maxabs_gumbel(0.0, 1.0, 10**15)
    g = maxabs_gumbel(0.0, 1e307, 10**15)
    assert g.location == pytest.approx(1e307 * unit.location, rel=1e-9, abs=0.0)
    # at n = 1e15 the cdf's spacing below 1 fixes the quantile only to about
    # 1e-3 sigma, which the density, and so the scale, magnifies
    assert g.scale == pytest.approx(1e307 * unit.scale, rel=1e-2, abs=0.0)


def test_gumbel_rejects_a_subnormal_sigma():
    # 1 / sigma overflows there, which gave a scale of 0.0 without an error
    with pytest.raises(DomainError, match="subnormal"):
        maxabs_gumbel(1.0, 1e-310, 10)


def test_gumbel_rejects_tiny_n():
    with pytest.raises(DomainError):
        maxabs_gumbel(0.0, 1.0, 1)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n": 0}, "n must be >= 1, got 0"),
        ({"sigma": -0.5}, "sigma_eps must be >= 0, got -0.5"),
        ({"lam1": -1.0}, "penalty levels must be >= 0"),
        ({"lam2": -1.0}, "penalty levels must be >= 0"),
    ],
    ids=["no-rows", "negative-noise", "negative-lam1", "negative-lam2"],
)
def test_a_model_refuses_no_rows_negative_noise_and_a_negative_penalty(change, message):
    with pytest.raises(DomainError, match=message):
        model(**change)
