"""Seeded synthetic-experiment harness.

Each scenario draws data through named substreams (stream id = replication *
slot-count + purpose), so cells sharing a replication reuse the same design
and noise draws. That gives common random numbers across cells (cross-cell
contrasts have reduced Monte Carlo variance) and makes every run bit-exactly
reproducible regardless of execution order.

Scenario output is a tidy table: one row per (replication, cell, metric),
plus a per-cell summary (mean, uncorrected sd, count) and a manifest that
echoes every resolved parameter, the lambda-scaling rule in force, any
degenerate cells that were skipped, and whether defaults deviate from the
configured reference scale.

A scenario is one `_scenario(id, cell_columns, **defaults)` registration on a
runner that takes `(spec, cfg, rec)`, records each cell with one `rec.add` call
and returns only its own manifest entries (`lambda_rule`, `flags`, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import normalize as _normalize
from .dataset import Dataset
from .errors import DimensionMismatchError, DomainError, ParseError
from .evaluate import fdr, nmse, power_all
from .io import ResultTable
from .normalize import (
    LASSO_COMPARABLE,
    RIDGE_COMPARABLE,
    BinaryDelta,
    MaxAbs,
    NormalizationPlan,
    Standardize,
    class_balance,
    make_interaction,
)
from .oracle import (
    BinaryFeatureModel,
    Delta,
    Omega,
    estimator_mean,
    estimator_variance,
    maxabs_gumbel,
    selection_probability,
)
from .rng import RandomStream
from .solver import FitOptions, PenaltySpec, fit, fit_path, from_mixing, lambda_grid, lambda_max
from .special import std_normal_quantile

# stream slots reserved per replication; purposes index into this block
_SLOTS = 4
_X, _EPS, _TEST = 0, 1, 2

_FIT = FitOptions(tolerance=1e-10, max_sweeps=2000)


def _stream(seed: int, rep: int, purpose: int) -> np.random.Generator:
    return RandomStream(seed, rep * _SLOTS + purpose).generator()


# ---------------------------------------------------------------------------
# generators


def gen_binary(n: int, q: float, stream: np.random.Generator) -> np.ndarray:
    """Binary column with exactly ceil(n q) ones placed uniformly.

    The 1e-9 slack keeps float products like 1000 * 0.7 = 699.999... from
    rounding the count up. q = 1 - 1/(2n) style values can still yield an
    all-ones column; that degenerate case is the caller's to reject.
    """
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie in (0, 1), got {q!r}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    k = math.ceil(n * q - 1e-9)
    x = np.zeros(n)
    x[stream.choice(n, size=k, replace=False)] = 1.0
    return x


@lru_cache(maxsize=32)
def _quantile_comb(n: int) -> np.ndarray:
    w = np.linspace(1e-4, 1.0 - 1e-4, n)
    values = np.array([std_normal_quantile(float(u)) for u in w])
    values.setflags(write=False)
    return values


def gen_quasinormal(n: int, stream: np.random.Generator, sd: float | None = None) -> np.ndarray:
    """Shuffled Gaussian quantile comb: deterministic values, random order.

    The raw comb maps a linear sequence on [1e-4, 1-1e-4] through the normal
    quantile, so its multiset is fixed given n (mean 0 by symmetry, sd within
    a couple percent of 1). With sd given, the column is recentered to mean 0
    and rescaled to that exact uncorrected sd.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n!r}")
    values = stream.permutation(_quantile_comb(n))
    if sd is not None:
        if sd <= 0.0:
            raise DomainError(f"sd must be > 0, got {sd!r}")
        values -= values.mean()
        values *= sd / math.sqrt(float(values @ values) / n)
    return values


def inject_correlation(x: np.ndarray, rho: float) -> np.ndarray:
    """Copy the first ceil(rho n / 2) entries of column 1 into all later
    columns. Returns a new array; rho = 0 is a plain copy."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise DimensionMismatchError("x must be 2-d with at least 2 columns")
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    out = x.copy()
    k = math.ceil(rho * x.shape[0] / 2.0 - 1e-9)
    if k > 0:
        out[:k, 1:] = out[:k, :1]
    return out


def sigma_for_snr(x: np.ndarray, beta_star: np.ndarray, snr: float) -> float:
    """Noise sd giving Var(X beta*) / sigma^2 = snr, variances uncorrected."""
    if snr <= 0.0:
        raise DomainError(f"snr must be > 0, got {snr!r}")
    signal = np.asarray(x, dtype=np.float64) @ np.asarray(beta_star, dtype=np.float64)
    var = float(signal.var())
    if var <= 0.0:
        raise DomainError("signal X beta* is constant; snr is undefined")
    return math.sqrt(var / snr)


def _feasible_q(n: int, q: float) -> bool:
    return math.ceil(n * q - 1e-9) < n


_ALL_ONES = "ceil(n q) = n gives an all-ones column"


def _name_all_ones_bound(n: int, cfg: dict, names) -> None:
    """Raise DomainError naming the first balance bound in names at which an
    n-row binary column comes out all ones."""
    for name in names:
        if not _feasible_q(n, cfg[name]):
            raise DomainError(f"{name}={cfg[name]}: {_ALL_ONES} at n={n}")


def _name_all_ones_nulls(n: int, k: int, x: np.ndarray, cfg: dict) -> None:
    """Name the null balance bound if a drawn null column of x is all ones."""
    if (x[:, k:] == 1.0).all(axis=0).any():
        _name_all_ones_bound(n, cfg, ("null_q_high", "null_q_low"))


def _binary_design(n: int, p: int, qs: np.ndarray, cfg: dict, gx) -> np.ndarray:
    """n x p binary design: signal columns at balances qs, then null columns at
    balances drawn uniformly between null_q_low and null_q_high."""
    null_q = gx.uniform(cfg["null_q_low"], cfg["null_q_high"], size=p - len(qs))
    x = np.empty((n, p), order="F")
    for j, q in enumerate(np.concatenate([qs, null_q])):
        x[:, j] = gen_binary(n, float(q), gx)
    return x


# ---------------------------------------------------------------------------
# spec / result plumbing


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario id plus overrides; unset fields take catalogue defaults."""

    scenario: str
    seed: int = 0
    n: int | None = None
    p: int | None = None
    replications: int | None = None
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise DomainError(
                f"unknown scenario {self.scenario!r}; expected one of {', '.join(SCENARIOS)}"
            )
        if not 0 <= self.seed < 2**63:
            raise DomainError(f"seed must be a non-negative 63-bit integer, got {self.seed!r}")
        for name in ("n", "p", "replications"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise DomainError(f"{name} must be >= 1, got {value!r}")
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class ScenarioResult:
    """Tidy rows, per-cell summary, and the resolved-configuration manifest."""

    scenario: str
    cell_columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: tuple[tuple, ...]
    manifest: dict

    def table(self) -> ResultTable:
        header = ("scenario", "replication", *self.cell_columns, "metric", "value")
        rows = tuple((self.scenario, *row) for row in self.rows)
        return ResultTable(header=header, rows=rows, manifest=self.manifest)

    def summary_table(self) -> ResultTable:
        header = ("scenario", *self.cell_columns, "metric", "mean", "sd", "count")
        rows = tuple((self.scenario, *row) for row in self.summary)
        return ResultTable(header=header, rows=rows, manifest=self.manifest)


class _Collector:
    """Accumulates (replication, cell, metric, value) rows and skip logs."""

    def __init__(self, cell_columns: tuple[str, ...]):
        self.cell_columns = cell_columns
        self.rows: list[tuple] = []
        self.skipped: list[str] = []

    def add(self, rep: int, cell: tuple, /, **metrics: float) -> None:
        """One row per metric, in keyword order."""
        if len(cell) != len(self.cell_columns):
            raise DimensionMismatchError(
                f"cell has {len(cell)} values for columns {self.cell_columns}"
            )
        for metric, value in metrics.items():
            self.rows.append((rep, *cell, metric, float(value)))

    def skip(self, message: str) -> None:
        if message not in self.skipped:
            self.skipped.append(message)

    def summarize(self) -> tuple[tuple, ...]:
        k = len(self.cell_columns)
        groups: dict[tuple, list[float]] = {}
        for row in self.rows:
            groups.setdefault(row[1 : k + 2], []).append(row[k + 2])
        out = []
        for key, values in groups.items():
            arr = np.asarray(values)
            out.append((*key, float(arr.mean()), float(arr.std()), len(values)))
        return tuple(out)


def _feasible_qs(n: int, grid, rec: _Collector) -> list:
    """The balances in grid that leave a zero in n rows; rec logs the rest as skipped."""
    qs = []
    for q in grid:
        if _feasible_q(n, q):
            qs.append(q)
        else:
            rec.skip(f"q={q}: {_ALL_ONES}")
    return qs


def _replications(spec: ScenarioSpec, cfg: dict):
    """Yield (replication, design stream, noise stream) for each replication."""
    for rep in range(cfg["replications"]):
        yield rep, _stream(spec.seed, rep, _X), _stream(spec.seed, rep, _EPS)


def _resolve(spec: ScenarioSpec, defaults: dict) -> tuple[dict, list[str]]:
    """Merge overrides into the scenario defaults, tracking what changed."""
    cfg = dict(defaults)
    overridden = []
    for name in ("n", "p", "replications"):
        value = getattr(spec, name)
        if value is not None:
            if name not in cfg:
                raise DomainError(f"scenario {spec.scenario!r} takes no {name} override")
            cfg[name] = int(value)
            overridden.append(name)
    for key, value in spec.params.items():
        if key not in cfg:
            raise DomainError(
                f"unknown parameter {key!r} for scenario {spec.scenario!r}; "
                f"expected one of {', '.join(sorted(cfg))}"
            )
        if key.endswith("_grid") and not isinstance(value, (tuple, list)):
            value = (value,)
        if isinstance(defaults[key], tuple):
            value = tuple(_exact(key, v, defaults[key][0]) for v in value)
        else:
            value = _exact(key, value, defaults[key])
        cfg[key] = value
        overridden.append(key)
    return cfg, overridden


def _exact(key: str, value, default):
    """value as the type of default; DomainError if that fails, would change
    it (3.9 for an integer, "abc" for a float) or gives a non-finite float."""
    kind = type(default)
    try:
        converted = kind(value)
    except (TypeError, ValueError, OverflowError):
        converted = None
    if converted is None or converted != value:
        raise DomainError(f"parameter {key!r} takes {kind.__name__} values, got {value!r}")
    if kind is float and not math.isfinite(converted):
        raise DomainError(f"parameter {key!r} takes finite float values, got {value!r}")
    return converted


def parse_value(text: str):
    """Parse a config or --param value.

    Comma-separated values become tuples; numbers are parsed as int then
    float; `true`/`false` as booleans; anything else stays a stripped string.
    """

    def scalar(token: str):
        token = token.strip()
        if token.lower() in ("true", "false"):
            return token.lower() == "true"
        try:
            return int(token)
        except ValueError:
            pass
        try:
            return float(token)
        except ValueError:
            return token

    return tuple(scalar(part) for part in text.split(",")) if "," in text else scalar(text)


def parse_scenario_config(path) -> ScenarioSpec:
    """Read a plain-text `key = value` scenario config.

    '#' starts a comment; values are read by parse_value. The `scenario` key
    is required; `seed`, `n`, `p`, `replications` map to spec fields and
    everything else lands in params.
    """
    pairs: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep or not key.strip():
                raise ParseError(f"expected `key = value`, got {raw.strip()!r}", line=line_no)
            key = key.strip()
            if key in pairs:
                raise ParseError(f"duplicate key {key!r}", line=line_no)
            pairs[key] = parse_value(value)
    if "scenario" not in pairs:
        raise ParseError("config must set `scenario`", line=1)
    fields = {"scenario": str(pairs.pop("scenario"))}
    for name in ("seed", "n", "p", "replications"):
        if name in pairs:
            value = pairs.pop(name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParseError(f"{name} must be an integer, got {value!r}", line=1)
            fields[name] = value
    return ScenarioSpec(params=pairs, **fields)


_CATALOGUE: dict[str, tuple] = {}  # id -> (cell columns, defaults, runner)


def _scenario(name: str, cells: tuple[str, ...], **defaults):
    """Register the decorated runner as scenario `name` with its cell columns and defaults."""

    def register(runner):
        _CATALOGUE[name] = (cells, defaults, runner)
        return runner

    return register


# ---------------------------------------------------------------------------
# scenario 1: selection probability of a single binary feature


@_scenario(
    "selection-probability",
    ("q", "delta", "lambda1", "sigma"),
    n=1000,
    replications=100,
    beta_star=0.2,
    q_grid=(0.5, 0.6, 0.7, 0.8, 0.9),
    delta_grid=(0.0, 0.5, 0.75, 1.0),
    lambda1_grid=(40.0,),
    sigma_grid=(2.0,),
)
def _run_selection_probability(spec, cfg, rec):
    n, beta = cfg["n"], cfg["beta_star"]
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    oracle = {}
    for q in qs:
        for d in cfg["delta_grid"]:
            for lam1 in cfg["lambda1_grid"]:
                for s in cfg["sigma_grid"]:
                    model = BinaryFeatureModel(
                        beta=beta, n=n, q=q, sigma_eps=s, lam1=lam1, lam2=0.0, scaling=Delta(d)
                    )
                    oracle[(q, d, lam1, s)] = selection_probability(model)
    for rep, gx, ge in _replications(spec, cfg):
        columns = {q: gen_binary(n, q, gx) for q in qs}
        noise = {s: (s * ge.standard_normal(n) if s > 0.0 else None) for s in cfg["sigma_grid"]}
        for q in qs:
            x = columns[q][:, np.newaxis]
            base = Dataset(x=x, y=np.zeros(n))
            scaled = {}
            for d in cfg["delta_grid"]:
                plan = _normalize.compute_plan(base, BinaryDelta(d))
                scaled[d] = (plan.transform(x), plan)
            for s in cfg["sigma_grid"]:
                y = beta * columns[q] if noise[s] is None else beta * columns[q] + noise[s]
                for d in cfg["delta_grid"]:
                    xn, plan = scaled[d]
                    data = Dataset(x=xn, y=y, kinds=("continuous",))
                    for lam1 in cfg["lambda1_grid"]:
                        res = fit(data, PenaltySpec(lam1=lam1), _FIT, plan=plan)
                        cell = (q, d, lam1, s)
                        selected = 1.0 if res.beta_norm[0] != 0.0 else 0.0
                        rec.add(rep, cell, selected=selected, oracle_probability=oracle[cell])
    return {
        "lambda_rule": "fixed lambda1 grid on the normalized scale (no rescaling)",
        "canonical": False,
    }


# ---------------------------------------------------------------------------
# scenario 2: bias / variance / mse of a single binary feature


@_scenario(
    "bias-var",
    ("q", "exponent", "sigma"),
    n=100,
    replications=100,
    beta_star=1.0,
    model="lasso",
    q_grid=(0.5, 0.6, 0.75, 0.9),
    exponent_grid=(0.0, 0.5, 1.0),
    sigma_grid=(0.5, 1.0, 2.0),
    lambda1=10.0,
    lambda2=25.0,
)
def _run_bias_var(spec, cfg, rec):
    n, beta, variant = cfg["n"], cfg["beta_star"], cfg["model"]
    if variant not in ("lasso", "ridge", "weighted"):
        raise DomainError(f"model must be lasso, ridge, or weighted, got {variant!r}")
    lam1 = cfg["lambda1"] if variant != "ridge" else 0.0
    lam2 = cfg["lambda2"] if variant != "lasso" else 0.0
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    oracle = {}
    for q in qs:
        for t in cfg["exponent_grid"]:
            scaling = Omega(t) if variant == "weighted" else Delta(t)
            for s in cfg["sigma_grid"]:
                model = BinaryFeatureModel(
                    beta=beta, n=n, q=q, sigma_eps=s, lam1=lam1, lam2=lam2, scaling=scaling
                )
                oracle[(q, t, s)] = dict(
                    oracle_mean=estimator_mean(model), oracle_variance=estimator_variance(model)
                )
    for rep, gx, ge in _replications(spec, cfg):
        columns = {q: gen_binary(n, q, gx) for q in qs}
        noise = {s: (s * ge.standard_normal(n) if s > 0.0 else None) for s in cfg["sigma_grid"]}
        for q in qs:
            x = columns[q][:, np.newaxis]
            base = Dataset(x=x, y=np.zeros(n))
            prepared = {}
            for t in cfg["exponent_grid"]:
                if variant == "weighted":
                    w = np.array([BinaryDelta(t).scale_at(q)])
                    prepared[t] = (base.x, None, PenaltySpec(lam1=lam1, lam2=lam2, u=w, v=w))
                else:
                    plan = _normalize.compute_plan(base, BinaryDelta(t))
                    prepared[t] = (plan.transform(x), plan, PenaltySpec(lam1=lam1, lam2=lam2))
            for s in cfg["sigma_grid"]:
                y = beta * columns[q] if noise[s] is None else beta * columns[q] + noise[s]
                for t in cfg["exponent_grid"]:
                    xn, plan, penalty = prepared[t]
                    data = Dataset(x=xn, y=y, kinds=base.kinds if plan is None else ("continuous",))
                    res = fit(data, penalty, _FIT, plan=plan)
                    rec.add(rep, (q, t, s), estimate=res.beta[0], **oracle[(q, t, s)])
    rule = (
        "penalty weights u = v = nu^omega from the nominal class balance"
        if variant == "weighted"
        else "plain nu^delta scaling, fixed penalty level (no rescaling)"
    )
    return {"lambda_rule": rule, "canonical": False}


# ---------------------------------------------------------------------------
# scenario 3: many binary features with decreasing class balance


def signal_balances(k: int, q_first: float, q_last: float) -> np.ndarray:
    """Class balances whose zero-fractions 1-q decay geometrically."""
    if k < 2:
        raise DomainError(f"need at least 2 signal features, got {k!r}")
    ratio = (1.0 - q_last) / (1.0 - q_first)
    return 1.0 - (1.0 - q_first) * ratio ** (np.arange(k) / (k - 1))


@_scenario(
    "decreasing-classbalance",
    ("delta", "rho"),
    n=500,
    p=1000,
    replications=100,
    n_signal=20,
    snr=2.0,
    delta_grid=(0.0, 0.5, 1.0),
    rho_grid=(0.0,),
    q_first=0.5,
    q_last=0.99,
    null_q_low=0.5,
    null_q_high=0.99,
)
def _run_decreasing_classbalance(spec, cfg, rec):
    n, p, k = cfg["n"], cfg["p"], cfg["n_signal"]
    if p <= k:
        raise DomainError(f"p must exceed n_signal={k}, got {p}")
    qs = signal_balances(k, cfg["q_first"], cfg["q_last"])
    beta = np.zeros(p)
    beta[:k] = 1.0
    lam_rule = "lambda1 = 2 sigma sqrt(2 log p); plain nu^delta scaling"
    # An all-ones column has zero scale at every delta > 0. It stays whole at
    # rho = 0 (rho > 0 copies column 1 into the top rows of the others), so
    # only then is the failure certain; it is named here, not by column index.
    doomed = any(d > 0.0 for d in cfg["delta_grid"]) and 0.0 in cfg["rho_grid"]
    if doomed:
        _name_all_ones_bound(n, cfg, ("q_first", "q_last"))
    for rep, gx, ge in _replications(spec, cfg):
        x = _binary_design(n, p, qs, cfg, gx)
        if doomed:
            _name_all_ones_nulls(n, k, x, cfg)
        z = ge.standard_normal(n)
        for rho in cfg["rho_grid"]:
            xr = inject_correlation(x, rho) if rho > 0.0 else x
            sigma = sigma_for_snr(xr, beta, cfg["snr"])
            data = Dataset(x=xr, y=xr[:, :k] @ beta[:k] + sigma * z)
            lam1 = 2.0 * sigma * math.sqrt(2.0 * math.log(p))
            for d in cfg["delta_grid"]:
                plan = _normalize.compute_plan(data, BinaryDelta(d))
                res = fit(_normalize.apply(data, plan), PenaltySpec(lam1=lam1), _FIT, plan=plan)
                estimates = {f"estimate_{j + 1:02d}": res.beta[j] for j in range(k)}
                rec.add(rep, (d, rho), **estimates, support_size=len(res.support))
    return {
        "lambda_rule": lam_rule,
        "signal_balances": [float(q) for q in qs],
        "flags": {"balance_spacing": "geometric in 1-q"},
    }


# ---------------------------------------------------------------------------
# scenario 4: one binary + one quasi-normal feature, comparability scaling


def _orthogonalize(col: np.ndarray, against: np.ndarray, sd: float) -> np.ndarray:
    """Residualize col on {1, against}, then rescale to exact sd."""
    out = col - col.mean()
    b = against - against.mean()
    out -= (out @ b) / (b @ b) * b
    return out * (sd / math.sqrt(float(out @ out) / out.shape[0]))


@_scenario(
    "mixed-data",
    ("model", "q", "delta"),
    n=1000,
    replications=100,
    q_grid=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99),
    delta_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    model_grid=("lasso", "ridge"),
    snr=0.5,
    kappa=2.0,
    q0=0.5,
    cont_sd=0.5,
    beta_binary=1.0,
    beta_cont=1.0,
    noise_free=False,
)
def _run_mixed_data(spec, cfg, rec):
    n = cfg["n"]
    beta = np.array([cfg["beta_binary"], cfg["beta_cont"]])
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    for model in cfg["model_grid"]:
        if model not in ("lasso", "ridge"):
            raise DomainError(f"model_grid entries must be lasso or ridge, got {model!r}")
    for rep, gx, ge in _replications(spec, cfg):
        z = ge.standard_normal(n)
        for q in qs:
            x1 = gen_binary(n, q, gx)
            x2 = gen_quasinormal(n, gx, sd=cfg["cont_sd"])
            if cfg["noise_free"]:
                x2 = _orthogonalize(x2, x1, cfg["cont_sd"])
            x = np.column_stack([x1, x2])
            sigma = 0.0 if cfg["noise_free"] else sigma_for_snr(x, beta, cfg["snr"])
            y = x @ beta + sigma * z
            data = Dataset(x=x, y=y)
            sd2 = float(x2.std())
            for model in cfg["model_grid"]:
                comparability = LASSO_COMPARABLE if model == "lasso" else RIDGE_COMPARABLE
                for d in cfg["delta_grid"]:
                    strategy = _normalize.PerFeature(
                        (BinaryDelta(d, comparability, cfg["kappa"], cfg["q0"]), Standardize())
                    )
                    plan = _normalize.compute_plan(data, strategy)
                    nd = _normalize.apply(data, plan)
                    lam_max = lambda_max(nd)
                    penalty = (
                        PenaltySpec(lam1=lam_max / 2.0)
                        if model == "lasso"
                        else PenaltySpec(lam1=0.0, lam2=2.0 * lam_max)
                    )
                    res = fit(nd, penalty, _FIT, plan=plan)
                    rec.add(
                        rep,
                        (model, q, d),
                        estimate_binary=res.beta[0],
                        estimate_continuous=res.beta[1],
                        sd_continuous=sd2,
                    )
    return {
        "lambda_rule": "lasso lambda1 = lambda_max/2; ridge lambda2 = 2 lambda_max",
        "flags": {"orthogonalized_continuous": bool(cfg["noise_free"])},
    }


# ---------------------------------------------------------------------------
# scenario 5: interaction of a binary and a quasi-normal feature


@_scenario(
    "interactions",
    ("q", "beta3", "strategy"),
    n=1000,
    replications=100,
    q_grid=(0.5, 0.7, 0.9),
    beta3_grid=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0),
    beta_binary=1.0,
    beta_cont=1.0,
    snr=0.5,
    delta=1.0,
    kappa=2.0,
    q0=0.5,
    cont_sd=0.5,
)
def _run_interactions(spec, cfg, rec):
    n, d = cfg["n"], cfg["delta"]
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    lam1 = n / 4.0
    binary_scale = BinaryDelta(d, LASSO_COMPARABLE, cfg["kappa"], cfg["q0"])
    for rep, gx, ge in _replications(spec, cfg):
        z = ge.standard_normal(n)
        for q in qs:
            x1 = gen_binary(n, q, gx)
            x2 = gen_quasinormal(n, gx, sd=cfg["cont_sd"])
            x3 = make_interaction(x1, x2)
            x = np.column_stack([x1, x2, x3])
            s1 = binary_scale.scale_at(class_balance(x1))
            s2 = float(x2.std())
            centers = x.mean(axis=0)
            plans = {
                1: NormalizationPlan(centers, np.array([s1, s2, float(x3.std())])),
                2: NormalizationPlan(centers, np.array([s1, s2, s1 * s2])),
            }
            for beta3 in cfg["beta3_grid"]:
                beta = np.array([cfg["beta_binary"], cfg["beta_cont"], beta3])
                sigma = sigma_for_snr(x, beta, cfg["snr"])
                data = Dataset(x=x, y=x @ beta + sigma * z)
                for strategy, plan in plans.items():
                    nd = _normalize.apply(data, plan)
                    res = fit(nd, PenaltySpec(lam1=lam1), _FIT, plan=plan)
                    rec.add(
                        rep,
                        (q, beta3, strategy),
                        estimate_binary=res.beta[0],
                        estimate_continuous=res.beta[1],
                        estimate_interaction=res.beta[2],
                    )
    return {
        "lambda_rule": "lambda1 = n/4 on the normalized scale",
        "flags": {
            "strategies": "1 = standardize the product column, 2 = scale by s1*s2",
            "interaction": "centered product (x1 - mean)(x2 - mean)",
        },
    }


# ---------------------------------------------------------------------------
# scenario 6: penalty weighting instead of data scaling


@_scenario(
    "weighted-elnet",
    ("q", "omega"),
    n=1000,
    replications=100,
    q_grid=(0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99),
    omega_grid=(0.0, 0.25, 0.5, 0.75, 1.0),
    alpha=0.5,
    snr=0.5,
    cont_sd=0.5,
    beta_binary=1.0,
    beta_cont=1.0,
    noise_free=False,
    orthogonalize=False,
)
def _run_weighted_elnet(spec, cfg, rec):
    n = cfg["n"]
    beta = np.array([cfg["beta_binary"], cfg["beta_cont"]])
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    for rep, gx, ge in _replications(spec, cfg):
        z = ge.standard_normal(n)
        for q in qs:
            x1 = gen_binary(n, q, gx)
            x2 = gen_quasinormal(n, gx, sd=cfg["cont_sd"])
            if cfg["orthogonalize"]:
                x2 = _orthogonalize(x2, x1, cfg["cont_sd"])
            x = np.column_stack([x1, x2])
            sigma = 0.0 if cfg["noise_free"] else sigma_for_snr(x, beta, cfg["snr"])
            data = Dataset(x=x, y=x @ beta + sigma * z)
            variances = x.var(axis=0)
            for omega in cfg["omega_grid"]:
                w = variances**omega
                lam = lambda_max(data, u=w) / 2.0
                res = fit(data, from_mixing(cfg["alpha"], lam, u=w, v=w), _FIT)
                cell = (q, omega)
                rec.add(rep, cell, estimate_binary=res.beta[0], estimate_continuous=res.beta[1])
    return {
        "lambda_rule": "lambda = lambda_max(u-weighted)/2, split lam1 = alpha lambda, "
        "lam2 = (1-alpha) lambda",
        "flags": {"weights": "u = v = Var_hat^omega for every column"},
    }


# ---------------------------------------------------------------------------
# scenario 7: correlated binary pair, shrinkage unaffected by correlation


def correlated_binary_pair(n: int, q1: float, q2: float, rho: float) -> np.ndarray | None:
    """Two binary columns with exact joint counts matching correlation rho.

    Cell probabilities come from p11 = q1 q2 + rho sqrt(nu1 nu2); returns
    None when rounding makes any cell count negative (rho outside the
    Frechet bounds for these balances).
    """
    nu1, nu2 = q1 - q1 * q1, q2 - q2 * q2
    if nu1 <= 0.0 or nu2 <= 0.0:
        return None
    n11 = round(n * (q1 * q2 + rho * math.sqrt(nu1 * nu2)))
    n10 = round(n * q1) - n11
    n01 = round(n * q2) - n11
    n00 = n - n11 - n10 - n01
    if min(n11, n10, n01, n00) < 0 or round(n * q1) in (0, n) or round(n * q2) in (0, n):
        return None
    x1 = np.concatenate([np.ones(n11 + n10), np.zeros(n01 + n00)])
    x2 = np.concatenate([np.ones(n11), np.zeros(n10), np.ones(n01), np.zeros(n00)])
    return np.column_stack([x1, x2])


@_scenario(
    "orthogonality",
    ("q2", "rho"),
    n=10000,
    replications=100,
    q1=0.5,
    q2_grid=(0.5, 0.6, 0.7, 0.8, 0.9),
    rho_grid=(0.0, 0.4, 0.6),
    snr=1.0,
    beta_binary=1.0,
    beta_cont=1.0,
)
def _run_orthogonality(spec, cfg, rec):
    n = cfg["n"]
    beta = np.array([cfg["beta_binary"], cfg["beta_cont"]])
    designs = {}
    for q2 in cfg["q2_grid"]:
        for rho in cfg["rho_grid"]:
            x = correlated_binary_pair(n, cfg["q1"], q2, rho)
            if x is None:
                rec.skip(f"q2={q2}, rho={rho}: joint cell counts infeasible")
                continue
            sigma = sigma_for_snr(x, beta, cfg["snr"])
            corr = float(np.corrcoef(x[:, 0], x[:, 1])[0, 1])
            plan = _normalize.compute_plan(Dataset(x=x, y=np.zeros(n)), Standardize())
            designs[(q2, rho)] = (x, plan.transform(x), plan, sigma, corr)
    for rep, _, ge in _replications(spec, cfg):
        z = ge.standard_normal(n)
        for (q2, rho), (x, xn, plan, sigma, corr) in designs.items():
            y = x @ beta + sigma * z
            nd = Dataset(x=xn, y=y, kinds=("continuous", "continuous"))
            lam_max = lambda_max(nd)
            res = fit(nd, PenaltySpec(lam1=lam_max / 2.0), _FIT, plan=plan)
            cell = (q2, rho)
            rec.add(rep, cell, estimate_1=res.beta[0], estimate_2=res.beta[1], realized_corr=corr)
    return {
        "lambda_rule": "lambda1 = lambda_max/2 per replication",
        "flags": {
            "design": "exact joint counts, rows in fixed block order",
            "normalization": "standardize (delta = 1/2)",
        },
    }


# ---------------------------------------------------------------------------
# scenario 8: power / FDR / NMSE across dimension


@_scenario(
    "power-fdr",
    ("p", "delta"),
    n=10000,
    replications=100,
    p_grid=(20, 40, 60, 80, 100),
    delta_grid=(0.0, 0.5, 1.0),
    n_signal=10,
    beta_signal=2.0,
    sigma=1.0,
    q_first=0.5,
    q_last=0.99,
    null_q_low=0.5,
    null_q_high=0.99,
)
def _run_power_fdr(spec, cfg, rec):
    n, k = cfg["n"], cfg["n_signal"]
    p_max = max(cfg["p_grid"])
    if min(cfg["p_grid"]) <= k:
        raise DomainError(f"every p must exceed n_signal={k}")
    qs = np.linspace(cfg["q_first"], cfg["q_last"], k)
    truth = set(range(k))
    # an all-ones column has zero scale at every delta > 0; name its bound
    doomed = any(d > 0.0 for d in cfg["delta_grid"])
    if doomed:
        _name_all_ones_bound(n, cfg, ("q_first", "q_last"))
    for rep, gx, ge in _replications(spec, cfg):
        gt = _stream(spec.seed, rep, _TEST)
        x_full = _binary_design(n, p_max, qs, cfg, gx)
        if doomed:
            _name_all_ones_nulls(n, k, x_full, cfg)
        signal = cfg["beta_signal"] * x_full[:, :k].sum(axis=1)
        y = signal + cfg["sigma"] * ge.standard_normal(n)
        y_test = signal + cfg["sigma"] * gt.standard_normal(n)
        for p in cfg["p_grid"]:
            data = Dataset(x=x_full[:, :p], y=y)
            for d in cfg["delta_grid"]:
                plan = _normalize.compute_plan(data, BinaryDelta(d))
                lam1 = n * 4.0**d / 10.0
                res = fit(_normalize.apply(data, plan), PenaltySpec(lam1=lam1), _FIT, plan=plan)
                support = set(res.support.tolist())
                y_hat = res.beta0 + data.x @ res.beta
                rec.add(
                    rep,
                    (p, d),
                    power_all=power_all(support, truth),
                    fdr=fdr(support, truth),
                    nmse=nmse(y_test, y_hat),
                    support_size=len(support),
                )
    return {
        "lambda_rule": "lambda1 = n 4^delta / 10; plain nu^delta scaling",
        "flags": {
            "desk_scale": "n defaults to 1e4 (reference configuration uses 1e5)",
            "nmse": "against a fresh test response on the same design",
            "designs": "nested across p within a replication",
        },
    }


# ---------------------------------------------------------------------------
# scenario 9: held-out predictive error across SNR


def _tolerant_plan(x_train: np.ndarray, delta: float) -> NormalizationPlan:
    """BinaryDelta(delta) factors of a binary training split, tolerating
    constant columns.

    A column constant on the split gets scale 1 (its normalized version is
    identically zero, and the solver leaves its coefficient at zero), so one
    unlucky split cannot abort the sweep. Scales come from the scalar
    `scale_at`, per column, as in `compute_plan`: numpy's vectorized pow can
    round differently from libm's.
    """
    means = x_train.mean(axis=0)
    rule = BinaryDelta(delta)
    scales = np.array([1.0 if q in (0.0, 1.0) else rule.scale_at(q) for q in means.tolist()])
    return NormalizationPlan(means, scales)


@_scenario(
    "predictive-sim",
    ("snr", "delta"),
    n=300,
    p=1000,
    replications=25,
    n_signal=10,
    beta_signal=2.0,
    snr_grid=tuple(float(v) for v in np.geomspace(0.05, 6.0, 8)),
    delta_grid=(0.0, 0.5, 1.0),
    path_count=100,
    path_ratio=1e-2,
    q_first=0.5,
    q_last=0.99,
    null_q_low=0.5,
    null_q_high=0.99,
)
def _run_predictive_sim(spec, cfg, rec):
    n, p, k = cfg["n"], cfg["p"], cfg["n_signal"]
    if p <= k:
        raise DomainError(f"p must exceed n_signal={k}, got {p}")
    qs = np.linspace(cfg["q_first"], cfg["q_last"], k)
    beta = np.zeros(p)
    beta[:k] = cfg["beta_signal"]
    third = n // 3
    if third < 2:
        raise DomainError(f"n={n} leaves fewer than 2 rows per split")
    for rep, gx, ge in _replications(spec, cfg):
        gs = _stream(spec.seed, rep, _TEST)
        x = _binary_design(n, p, qs, cfg, gx)
        z = ge.standard_normal(n)
        order = gs.permutation(n)
        train, val, test = order[:third], order[third : 2 * third], order[2 * third :]
        signal = x[:, :k] @ beta[:k]
        for snr in cfg["snr_grid"]:
            sigma = sigma_for_snr(x, beta, snr)
            y = signal + sigma * z
            for d in cfg["delta_grid"]:
                plan = _tolerant_plan(x[train], d)
                nd = Dataset(x=plan.transform(x[train]), y=y[train], kinds=("continuous",) * p)
                grid = lambda_grid(lambda_max(nd), count=cfg["path_count"], ratio=cfg["path_ratio"])
                xv = plan.transform(x[val])
                best = None
                for lam, res in zip(grid, fit_path(nd, 1.0, grid, _FIT)):
                    score = nmse(y[val], res.beta0_norm + xv @ res.beta_norm)
                    if best is None or score < best[0]:
                        best = (score, float(lam), res)
                _, lam, res = best
                xs = plan.transform(x[test])
                rec.add(
                    rep,
                    (snr, d),
                    nmse_test=nmse(y[test], res.beta0_norm + xs @ res.beta_norm),
                    lambda_selected=lam,
                    support_size=len(res.support),
                )
    return {
        "lambda_rule": "100-point log path from lambda_max(train), selected on validation "
        "NMSE (ties to the larger lambda)",
        "flags": {
            "desk_scale": "25 replications (reference configuration uses 100)",
            "tolerant_plan": "train-constant columns get scale 1 and stay at zero",
            "splits": "equal train/validation/test thirds",
        },
    }


# ---------------------------------------------------------------------------
# scenario 10: max-abs scaling and the Gumbel approximation


@_scenario(
    "maxabs-gev",
    ("part", "n"),
    replications=100,
    part="a",
    n_grid=(10, 100, 1000),
    q=0.5,
    snr=1.0,
    cont_sd=0.5,
    beta_binary=1.0,
    beta_cont=1.0,
)
def _run_maxabs_gev(spec, cfg, rec):
    part = cfg["part"]
    if part not in ("a", "b"):
        raise DomainError(f"part must be 'a' or 'b', got {part!r}")
    sizes = tuple(sorted(cfg["n_grid"]))
    if part == "a":
        approx = {n: maxabs_gumbel(0.0, 1.0, n).mean_approx for n in sizes}
        for rep, g, _ in _replications(spec, cfg):
            for n in sizes:
                m = float(np.abs(g.standard_normal(n)).max())
                rec.add(rep, ("a", n), maxabs=m, gumbel_mean=approx[n])
        return {"lambda_rule": "not applicable", "flags": {"statistic": "max |z| over n draws"}}
    else:
        # The growing max-abs factor of the normal column must outrun a fixed
        # per-row penalty for its coefficient to hit zero; anchoring lambda1 at
        # half the binary feature's noiseless score nu1 n keeps the binary
        # estimate stable while the normal one vanishes inside the n grid.
        beta = np.array([cfg["beta_binary"], cfg["beta_cont"]])
        nu1 = cfg["q"] - cfg["q"] ** 2
        for rep, gx, ge in _replications(spec, cfg):
            for n in sizes:
                if not _feasible_q(n, cfg["q"]):
                    rec.skip(f"n={n}: {_ALL_ONES}")
                    continue
                x = np.column_stack(
                    [gen_binary(n, cfg["q"], gx), cfg["cont_sd"] * gx.standard_normal(n)]
                )
                sigma = sigma_for_snr(x, beta, cfg["snr"])
                data = Dataset(x=x, y=x @ beta + sigma * ge.standard_normal(n))
                plan = _normalize.compute_plan(data, MaxAbs())
                nd = _normalize.apply(data, plan)
                res = fit(nd, PenaltySpec(lam1=n * nu1 / 2.0), _FIT, plan=plan)
                rec.add(rep, ("b", n), estimate_binary=res.beta[0], estimate_normal=res.beta[1])
        return {
            "lambda_rule": "lambda1 = n nu1 / 2, anchored on the binary feature",
            "flags": {"normalization": "max-abs on both columns, true normal draws"},
        }


# ---------------------------------------------------------------------------
# dispatch

SCENARIOS = tuple(_CATALOGUE)


def scenario_defaults(scenario: str) -> dict:
    """The complete default configuration for a scenario."""
    if scenario not in _CATALOGUE:
        raise DomainError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}"
        )
    return dict(_CATALOGUE[scenario][1])


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Run one catalogue scenario to a tidy ScenarioResult.

    Degenerate cells are skipped and logged in the manifest; the run fails
    only if no cell at all is feasible.
    """
    cells, defaults, runner = _CATALOGUE[spec.scenario]
    cfg, overridden = _resolve(spec, defaults)
    rec = _Collector(cells)
    extra = runner(spec, cfg, rec)
    if not rec.rows:
        raise DomainError(
            f"scenario {spec.scenario!r} produced no cells: {'; '.join(rec.skipped) or 'empty grid'}"
        )
    manifest = {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "resolved": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()},
        "overridden": sorted(overridden),
        "skipped": list(rec.skipped),
        "cell_columns": list(cells),
        **extra,
    }
    return ScenarioResult(spec.scenario, cells, tuple(rec.rows), rec.summarize(), manifest)
