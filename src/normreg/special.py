"""Scalar special functions: standard normal and folded normal.

The cdf is built on the C library's erfc (max error about 1 ulp). The
standard normal quantile is the standard library's NormalDist.inv_cdf
(Wichura's AS 241), within a relative 1e-15 of the cdf's inverse over
(1e-300, 1-1e-16). A folded normal quantile is found by bracketed bisection
on the cdf to 1e-10 sigma, as its offset from |mu| (_folded_offset, for
maxabs_gumbel).

All functions take and return Python floats; vectorized callers should loop
(grids in this package are small) or cache, as gen_quasinormal does.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STD_NORMAL = NormalDist()


def std_normal_pdf(x: float) -> float:
    """Density of N(0, 1) at x."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """P(Z <= x) for Z ~ N(0, 1), accurate to ~1 ulp via erfc."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(u: float) -> float:
    """Inverse of std_normal_cdf on (0, 1)."""
    if not 0.0 < u < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {u!r}")
    return _STD_NORMAL.inv_cdf(u)


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
