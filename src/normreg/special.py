"""Scalar special functions: standard normal and folded normal.

The cdf is built on the C library's erfc (max error about 1 ulp). The
standard normal quantile uses a rational initial guess (Acklam's
approximation, |rel err| < 1.15e-9) refined by one Newton step on the cdf,
which brings the absolute error below 1e-13 over (1e-300, 1-1e-16). A
folded normal quantile is found by bracketed bisection on the cdf to
1e-10 sigma, as its offset from |mu| (_folded_offset, for maxabs_gumbel).

All functions take and return Python floats; vectorized callers should loop
(grids in this package are small) or cache, as gen_quasinormal does.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam's rational approximation coefficients for the inverse normal cdf.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_LOW = 0.02425


def std_normal_pdf(x: float) -> float:
    """Density of N(0, 1) at x."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z ~ N(0, 1), accurate to ~1 ulp via erfc."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _acklam(u: float) -> float:
    # rational initial guess: the lower tail, its mirror image, the center
    if u < _ACKLAM_LOW:
        q = math.sqrt(-2.0 * math.log(u))
        c = _ACKLAM_C
        d = _ACKLAM_D
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if u > 1.0 - _ACKLAM_LOW:
        # 1 - u is exact here and below _ACKLAM_LOW, so this is the lower tail
        return -_acklam(1.0 - u)
    q = u - 0.5
    r = q * q
    a = _ACKLAM_A
    b = _ACKLAM_B
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def std_normal_quantile(u: float) -> float:
    """Inverse of std_normal_cdf on (0, 1).

    Acklam initial guess plus one Newton refinement on the cdf. The Newton
    residual is formed on the nearer tail: for u >= 1/2 it solves
    0.5*erfc(x/sqrt2) = 1-u, where 1-u is exact and both sides stay far from
    1, so no cancellation. Naive Phi(x)-u loses ~7 digits near u=1.
    """
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {u!r}")
    x = _acklam(u)
    pdf = std_normal_pdf(x)
    if pdf > 0.0:
        if u >= 0.5:
            x += (0.5 * math.erfc(x / _SQRT2) - (1.0 - u)) / pdf
        else:
            x -= (0.5 * math.erfc(-x / _SQRT2) - u) / pdf
    return x


def folded_normal_cdf(x: float, mu: float, sigma: float) -> float:
    """P(|Y| <= x) for Y ~ N(mu, sigma^2); zero for x < 0."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if x < 0.0:
        return 0.0
    return std_normal_cdf((x - mu) / sigma) + std_normal_cdf((x + mu) / sigma) - 1.0


def _folded_offset(u: float, mu: float, sigma: float) -> float:
    """t = x - |mu| at the u quantile x of |N(mu, sigma^2)|.

    Bracketed bisection on the centred cdf Phi(t/sigma) + Phi((t + 2|mu|)/sigma)
    - 1 keeps t exact where |mu| + t rounds to the spacing of a large |mu|. It
    stops at a bracket width of 1e-10 sigma, so that t scales with sigma, or
    when the midpoint rounds to an end (offsets beyond about 2e5 sigma); an
    upper bracket |mu| + t that overflows to inf, or a subnormal sigma,
    raises DomainError.
    """
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {u!r}")
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu!r}")
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma!r}")
    if sigma < sys.float_info.min:
        # 1/sigma overflows, so the density would too
        raise DomainError(f"sigma {sigma!r} is subnormal")
    m = abs(mu)

    def cdf(t: float) -> float:
        return std_normal_cdf(t / sigma) + std_normal_cdf((t + 2.0 * m) / sigma) - 1.0

    lo = -m
    hi = m + 2.0 * sigma
    while cdf(hi - m) < u:
        hi *= 2.0
    if not math.isfinite(hi):
        raise DomainError(f"the {u!r} quantile of |N({mu!r}, {sigma!r}^2)| has no finite bracket")
    hi -= m
    width = 1e-10 * sigma
    # lo + half the width: 0.5 * (lo + hi) overflows near the top of the range
    while hi - lo > width:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return lo + 0.5 * (hi - lo)
