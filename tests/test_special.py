"""Normal and folded-normal special functions."""

import math

import numpy as np
import pytest

from normreg.errors import DomainError
from normreg.special import (
    _folded_offset,
    folded_normal_cdf,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

from conftest import bisect_normal_quantile


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_pdf_at_zero():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), abs=1e-15)


def test_quantile_frozen_values():
    # frozen from a 200-step bisection on the erfc-based cdf
    assert std_normal_quantile(0.975) == pytest.approx(1.9599639845400532, abs=1e-9)
    assert std_normal_quantile(1e-6) == pytest.approx(-4.753424308822899, abs=1e-9)
    assert abs(std_normal_quantile(0.5)) < 1e-12


def test_quantile_matches_bisection_oracle():
    for u in (1e-300, 1e-100, 1e-10, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-4,
              1.0 - 1e-10, 1.0 - 1e-16):
        assert std_normal_quantile(u) == pytest.approx(bisect_normal_quantile(u), abs=1e-9)


def test_cdf_symmetry():
    for x in np.linspace(-8.0, 8.0, 81):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-12


def test_quantile_cdf_roundtrip():
    for x in np.linspace(-6.0, 6.0, 61):
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-8)
    for u in np.linspace(1e-6, 1.0 - 1e-6, 101):
        assert std_normal_cdf(std_normal_quantile(u)) == pytest.approx(u, abs=1e-8)


def test_quantile_domain_errors():
    for u in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(DomainError):
            std_normal_quantile(u)


def test_folded_cdf_negative_support():
    assert folded_normal_cdf(-0.1, 2.0, 1.0) == 0.0


def _folded_quantile(u, mu, sigma):
    return abs(mu) + _folded_offset(u, mu, sigma)


def test_folded_quantile_frozen_values():
    # folded median at mu=0 equals the 75th normal percentile
    assert _folded_quantile(0.5, 0.0, 1.0) == pytest.approx(0.6744897501960816, abs=1e-9)
    assert _folded_quantile(0.8, 3.0, 2.0) == pytest.approx(4.683678694210599, abs=1e-9)


def test_folded_quantile_inverts_cdf():
    for mu, sigma in ((0.0, 1.0), (1.5, 0.7), (-2.0, 3.0)):
        for u in (0.05, 0.3, 0.5, 0.9, 0.999):
            x = _folded_quantile(u, mu, sigma)
            assert folded_normal_cdf(x, mu, sigma) == pytest.approx(u, abs=1e-9)


def test_folded_domain_errors():
    with pytest.raises(DomainError):
        folded_normal_cdf(1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        _folded_offset(0.5, 0.0, -1.0)
    with pytest.raises(DomainError):
        _folded_offset(1.0, 0.0, 1.0)


def test_folded_quantile_ends_on_huge_means():
    # the bracket overflows to inf: a named error, not an endless bisection
    with pytest.raises(DomainError, match="no finite bracket"):
        _folded_offset(0.9, 1e308, 1.0)
    # floats near 1e10 are 2e-6 apart, wider than the 1e-10 tolerance
    expected = 1e10 + 1.2815515655446004
    assert _folded_quantile(0.9, 1e10, 1.0) == pytest.approx(expected, abs=4e-6)
    for mu, sigma in ((math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)):
        with pytest.raises(DomainError, match="must be finite"):
            _folded_offset(0.9, mu, sigma)
