"""Closed-form results for one binary feature under penalized regression.

For a centered binary column with class balance q (variance nu = q - q^2),
scaled by s, the penalized one-feature estimate is

    beta_hat = ST(Z, l1) / d,   Z = x_tilde' y ~ N(mu, sigma^2),

with ST the soft-threshold operator, mu = beta* n nu / s,
sigma = sigma_eps sqrt(n nu) / s and d = n nu / s + lam2 s. Everything in
this module is an exact function of those three numbers: the mean and
variance of ST(Z), the estimator's bias/variance/mse, its selection
probability, its limits as q -> 1, and the Gumbel approximation for the
max-abs scale of a normal column. The simulate module reproduces these
values by Monte Carlo; the tests also check them against adaptive
quadrature.

Two scalings are supported. Delta puts the class-balance exponent in the
data scale (s = nu^delta, penalty weights 1); Omega leaves the data
unscaled and puts the exponent in the penalty weights
(u = v = nu^omega). An optional comparability anchor multiplies s (Delta)
or u = v (Omega) by kappa * (q0 - q0^2)^(1 - t) with t the exponent, which
covers both the baseline-equalization factor 4^(t-1) (kappa=1, q0=1/2) and
penalty weights like 2 * 4^(omega-1) * nu^omega (kappa=2, q0=1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import DomainError, UnsupportedLimitError
from .special import _folded_offset, std_normal_cdf, std_normal_pdf

EULER_GAMMA = 0.5772156649015329


def soft_threshold(z: float, lam: float) -> float:
    """sign(z) * max(|z| - lam, 0)."""
    if lam < 0.0:
        raise DomainError(f"threshold must be >= 0, got {lam!r}")
    return math.copysign(max(abs(z) - lam, 0.0), z)


@dataclass(frozen=True)
class Delta:
    """Class-balance exponent applied to the data scale: s = nu^delta."""

    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise DomainError(f"delta must be finite and >= 0, got {self.delta!r}")


@dataclass(frozen=True)
class Omega:
    """Class-balance exponent applied to the penalty weights: u = v = nu^omega."""

    omega: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise DomainError(f"omega must be finite and >= 0, got {self.omega!r}")


@dataclass(frozen=True)
class ComparabilityAnchor:
    """Multiplier kappa * (q0 - q0^2)^(1 - t) applied to s or to u = v."""

    kappa: float = 1.0
    q0: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError(f"kappa must be finite and > 0, got {self.kappa!r}")
        if not 0.0 < self.q0 < 1.0:
            raise DomainError(f"q0 must lie in (0, 1), got {self.q0!r}")

    def multiplier(self, exponent: float) -> float:
        nu0 = self.q0 - self.q0 * self.q0
        return self.kappa * nu0 ** (1.0 - exponent)


@dataclass(frozen=True)
class BinaryFeatureModel:
    """One binary feature with true effect beta, n rows, class balance q."""

    beta: float
    n: int
    q: float
    sigma_eps: float
    lam1: float
    lam2: float
    scaling: Delta | Omega
    anchor: ComparabilityAnchor | None = None

    def __post_init__(self) -> None:
        for name in ("beta", "sigma_eps", "lam1", "lam2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n!r}")
        if not 0.0 < self.q < 1.0:
            raise DomainError(f"q must lie in (0, 1), got {self.q!r}")
        if self.sigma_eps < 0.0:
            raise DomainError(f"sigma_eps must be >= 0, got {self.sigma_eps!r}")
        if self.lam1 < 0.0 or self.lam2 < 0.0:
            raise DomainError("penalty levels must be >= 0")

    @property
    def exponent(self) -> float:
        return self.scaling.delta if isinstance(self.scaling, Delta) else self.scaling.omega

    @property
    def anchor_multiplier(self) -> float:
        if self.anchor is None:
            return 1.0
        return self.anchor.multiplier(self.exponent)


@dataclass(frozen=True)
class Moments:
    """Distributional summary of the one-feature problem.

    Z = x_tilde' y ~ N(mu, sigma^2); the estimate is ST(Z, threshold) / d
    with threshold = -(theta + gamma)/2 (the effective l1 level, reweighted
    in Omega mode). theta = -mu - threshold and gamma = mu - threshold hold
    by construction.
    """

    mu: float
    sigma: float
    d: float
    theta: float
    gamma: float

    @property
    def threshold(self) -> float:
        return -0.5 * (self.theta + self.gamma)


def moments(model: BinaryFeatureModel) -> Moments:
    """Exact (mu, sigma, d, theta, gamma) for the model's one-feature fit."""
    nu = model.q - model.q * model.q
    m = model.anchor_multiplier
    t = model.exponent
    if isinstance(model.scaling, Delta):
        s = m * nu**t
        mu = model.beta * model.n * nu / s
        sigma = model.sigma_eps * math.sqrt(model.n * nu) / s
        d = model.n * nu / s + model.lam2 * s
        lam1_eff = model.lam1
    else:
        w = m * nu**t
        mu = model.beta * model.n * nu
        sigma = model.sigma_eps * math.sqrt(model.n * nu)
        d = model.n * nu + model.lam2 * w
        lam1_eff = model.lam1 * w
    if d <= 0.0:
        raise DomainError("degenerate problem: n nu / s + lam2 s must be positive")
    return Moments(mu=mu, sigma=sigma, d=d, theta=-mu - lam1_eff, gamma=mu - lam1_eff)


def st_mean(m: Moments) -> float:
    """E[ST(Z, threshold)] for Z ~ N(mu, sigma^2)."""
    if m.sigma == 0.0:
        return soft_threshold(m.mu, m.threshold)
    t = m.theta / m.sigma
    g = m.gamma / m.sigma
    return (
        -m.theta * std_normal_cdf(t)
        - m.sigma * std_normal_pdf(t)
        + m.gamma * std_normal_cdf(g)
        + m.sigma * std_normal_pdf(g)
    )


def st_variance(m: Moments) -> float:
    """Var[ST(Z, threshold)] for Z ~ N(mu, sigma^2).

    Uses E[ST^2] = (sigma^2 + theta^2) Phi(theta/sigma)
                 + sigma theta phi(theta/sigma) + (same in gamma),
    the direct-integration form of the closed expression.
    """
    if m.sigma == 0.0:
        return 0.0
    t = m.theta / m.sigma
    g = m.gamma / m.sigma
    second = (
        (m.sigma**2 + m.theta**2) * std_normal_cdf(t)
        + m.sigma * m.theta * std_normal_pdf(t)
        + (m.sigma**2 + m.gamma**2) * std_normal_cdf(g)
        + m.sigma * m.gamma * std_normal_pdf(g)
    )
    return max(second - st_mean(m) ** 2, 0.0)


def estimator_mean(model: BinaryFeatureModel) -> float:
    """E[beta_hat] = E[ST(Z)] / d."""
    m = moments(model)
    return st_mean(m) / m.d


def estimator_bias(model: BinaryFeatureModel) -> float:
    """E[beta_hat] - beta*."""
    return estimator_mean(model) - model.beta


def estimator_variance(model: BinaryFeatureModel) -> float:
    """Var[beta_hat] = Var[ST(Z)] / d^2."""
    m = moments(model)
    return st_variance(m) / m.d**2


def estimator_mse(model: BinaryFeatureModel) -> float:
    """bias^2 + variance."""
    return estimator_bias(model) ** 2 + estimator_variance(model)


def selection_probability(model: BinaryFeatureModel) -> float:
    """P(beta_hat != 0) = Phi(gamma/sigma) + Phi(theta/sigma).

    Free of lam2: the quadratic penalty rescales a nonzero estimate but
    never zeroes it.
    """
    m = moments(model)
    if m.sigma == 0.0:
        return 1.0 if abs(m.mu) > m.threshold else 0.0
    return std_normal_cdf(m.gamma / m.sigma) + std_normal_cdf(m.theta / m.sigma)


def noiseless_estimate(model: BinaryFeatureModel) -> float:
    """The exact estimate when sigma_eps = 0: ST(mu, threshold) / d.

    Delta mode reduces to ST(beta* n nu^(1-delta), lam1) divided by
    (n nu^(1-delta) + lam2 nu^delta); in Omega mode the nu^omega weight
    factors cancel exactly at omega = 1, leaving ST(beta* n, lam1)/(n+lam2)
    independent of class balance.
    """
    m = moments(model)
    return soft_threshold(m.mu, m.threshold) / m.d


ZERO = "zero"
FINITE = "finite"
INFINITE = "infinite"


@dataclass(frozen=True)
class VarianceLimit:
    """Tagged variance limit: zero, a finite value, or divergence."""

    kind: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ZERO, FINITE, INFINITE):
            raise DomainError(f"unknown limit kind {self.kind!r}")
        if self.kind == INFINITE and self.value is not None:
            raise DomainError("an infinite limit carries no value")
        if self.kind != INFINITE and self.value is None:
            raise DomainError("zero/finite limits must carry a value")

    @property
    def is_infinite(self) -> bool:
        return self.kind == INFINITE


@dataclass(frozen=True)
class LimitSummary:
    """Limits of the estimator mean, variance and selection probability as q -> 1."""

    mean: float
    variance: VarianceLimit
    selection: float


def _delta_limits(model, delta, lam1, lam2) -> LimitSummary:
    # lam1/lam2 arrive pre-multiplied by the anchor (m and m^2 respectively)
    beta, n, sig = model.beta, model.n, model.sigma_eps
    b = lam1 / (sig * math.sqrt(n))
    if delta < 0.5:
        mean = 0.0
    elif delta == 0.5:
        mean = (2.0 * n * beta / (n + lam2)) * std_normal_cdf(-b)
    else:
        mean = beta
    if lam1 > 0.0:
        variance = VarianceLimit(ZERO, 0.0) if delta < 0.5 else VarianceLimit(INFINITE)
        if delta < 0.5:
            selection = 0.0
        elif delta == 0.5:
            selection = 2.0 * std_normal_cdf(-b)
        else:
            selection = 1.0
    else:
        if delta < 0.25:
            variance = VarianceLimit(ZERO, 0.0)
        elif delta == 0.25:
            variance = VarianceLimit(FINITE, sig**2 * n / lam2**2)
        else:
            variance = VarianceLimit(INFINITE)
        selection = 1.0
    return LimitSummary(mean=mean, variance=variance, selection=selection)


def asymptotic_limits(model: BinaryFeatureModel) -> LimitSummary:
    """Limits as q -> 1 (equivalently nu -> 0) for fixed beta*, n, penalties.

    Delta mode branches at delta = 1/2 for the mean and selection
    probability, at delta = 1/2 (l1 > 0) or delta = 1/4 (ridge) for the
    variance. Omega mode with both penalties positive branches at omega = 1
    (mean) and omega = 1/2 (variance/selection). Omega with a single active
    penalty is handled through the exact reductions to Delta mode: a
    weighted l1 penalty with exponent omega acts like delta = omega, and a
    weighted quadratic penalty like delta = omega / 2.
    """
    if model.sigma_eps <= 0.0:
        raise UnsupportedLimitError("limits require sigma_eps > 0")
    if model.lam1 == 0.0 and model.lam2 == 0.0:
        raise UnsupportedLimitError("limits require at least one active penalty")
    m = model.anchor_multiplier
    if isinstance(model.scaling, Delta):
        return _delta_limits(model, model.scaling.delta, model.lam1 * m, model.lam2 * m * m)
    omega = model.scaling.omega
    lam1, lam2 = model.lam1 * m, model.lam2 * m
    if model.lam1 > 0.0 and model.lam2 > 0.0:
        # variance and selection are those of Delta at delta = omega
        if omega < 1.0:
            mean = 0.0
        elif omega == 1.0:
            mean = model.beta * model.n / (model.n + lam2)
        else:
            mean = model.beta
        return replace(_delta_limits(model, omega, lam1, lam2), mean=mean)
    if model.lam2 == 0.0:
        return _delta_limits(model, omega, lam1, 0.0)
    return _delta_limits(model, omega / 2.0, 0.0, lam2)


@dataclass(frozen=True)
class GumbelApprox:
    """Gumbel location/scale for max_i |X_i| over n iid N(mu, sigma^2) draws."""

    location: float
    scale: float
    mean_approx: float


def maxabs_gumbel(mu: float, sigma: float, n: int) -> GumbelApprox:
    """Gumbel approximation of the max-abs statistic of a normal column.

    location b_n is the 1 - 1/n folded-normal quantile, scale
    a_n = 1 / (n f(b_n)), and the approximate mean is
    b_n + euler_gamma * a_n. Both are computed on the offset b_n - |mu|,
    which b_n itself loses to rounding when |mu| is large.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n!r}")
    t = _folded_offset(1.0 - 1.0 / n, mu, sigma)
    m = abs(mu)
    density = (std_normal_pdf(t / sigma) + std_normal_pdf((t + 2.0 * m) / sigma)) / sigma
    b_n = m + t
    if density == 0.0:
        raise DomainError(f"the folded normal density underflows to 0 at its quantile {b_n!r}")
    a_n = 1.0 / (n * density)
    return GumbelApprox(location=b_n, scale=a_n, mean_approx=b_n + EULER_GAMMA * a_n)
