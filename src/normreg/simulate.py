"""Seeded synthetic-experiment harness.

Each scenario draws data through named substreams (stream id = replication *
slot-count + purpose), so cells sharing a replication reuse the same design
and noise draws. That gives common random numbers across cells (cross-cell
contrasts have reduced Monte Carlo variance) and makes every run bit-exactly
reproducible regardless of execution order.

A binary column at balance q holds exactly ceil(n q - 1e-9) ones. It draws n
uniform keys and puts its k ones at the ranks of its first k keys, a uniformly
random k-subset of rows; a design draws its columns' keys one after another
from one stream, a block of columns at a time.

Scenario output is a tidy table: one row per (replication, cell, metric),
plus a per-cell summary (mean, uncorrected sd, count) and a manifest that
echoes every resolved parameter, the lambda-scaling rule in force, any
degenerate cells that were skipped, and whether defaults deviate from the
configured reference scale.

A scenario is one `_scenario(id, cell_columns, **defaults)` registration on a
runner that takes `(cfg, rec, reps)`: the resolved configuration, the
collector, and the replications to run as `(rep, design stream, noise
stream, test stream)` tuples. It records each cell of each of those
replications with one `rec.add` call and returns only its own manifest
entries (`lambda_rule`, `flags`, ...). `run_scenario` alone decides which
replications run, through `_replications`, the one maker of streams; a
runner handed some of them records exactly their rows, so a run split by
replication gives the rows of the whole run, in replication order.
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
from .solver import PenaltySpec, fit, fit_each, fit_path, from_mixing, lambda_grid, lambda_max
from .special import std_normal_quantile

# stream slots reserved per replication; purposes index into this block
_SLOTS = 4
_X, _EPS, _TEST = 0, 1, 2
# the spec fields a scenario's defaults may hold, each an integer >= 1
_SIZES = ("n", "p", "replications")


def _stream(seed: int, rep: int, purpose: int) -> np.random.Generator:
    return RandomStream(seed, rep * _SLOTS + purpose).generator()


# ---------------------------------------------------------------------------
# generators


def gen_binary(n: int, q: float, stream: np.random.Generator) -> np.ndarray:
    """Binary column with exactly ceil(n q) ones at a uniformly random subset
    of rows: n keys from stream.random, ones at the ranks of the first
    ceil(n q) keys, found by one sort of tagged keys; a tie between keys goes
    to the earlier one. The one-column case of `_binary_columns`.

    The 1e-9 slack keeps float products like 1000 * 0.7 = 699.999... from
    rounding the count up. q = 1 - 1/(2n) style values can still yield an
    all-ones column, which gets scale 1 and a zero coefficient in a fit.
    """
    return _binary_columns(n, np.array([q], dtype=np.float64), stream)[:, 0]


# most keys drawn at once (a whole column at least); the stream fills in
# order, so the design does not depend on this size, only the memory does
_BLOCK_KEYS = 1 << 15


def _ones(n: int, qs):
    """Ones in an n-row binary column at each balance: ceil(n q - 1e-9)."""
    return np.ceil(n * qs - 1e-9).astype(np.intp)


def _check_balances(qs: np.ndarray) -> None:
    """Refuse a class balance outside (0, 1), naming the first in column order."""
    ok = (qs > 0.0) & (qs < 1.0)
    if not ok.all():
        raise DomainError(f"q must lie in (0, 1), got {float(qs[ok.argmin()])!r}")


def _binary_columns(n: int, qs: np.ndarray, stream: np.random.Generator) -> np.ndarray:
    """F-ordered n x len(qs) binary design. Column j draws n uniform keys from
    stream.random, after those of column j - 1, and holds its k = _ones(n, q_j)
    ones at the ranks of its first k keys. The ranks of n keys are a
    uniformly random permutation, so every subset of rows of that size is
    equally likely, and the count is exact whatever the keys.

    The ranks come from one sort of tagged keys: doubles in [0, 1) order like
    their bit patterns, whose top bit is 0, so shifting each pattern left by
    one bit keeps the order and frees the low bit to tag the keys after the
    first k. Row i of the sorted column is a one when its low bit is 0. Of
    two equal keys, the untagged one sorts first, so the design equals
    np.argsort(keys, axis=1, kind="stable") < k, ties included.
    """
    _check_balances(qs)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    counts = _ones(n, qs)
    x = np.empty((n, qs.size), order="F")
    step = max(_BLOCK_KEYS // n, 1)
    keys = np.empty((min(step, qs.size), n))
    bits = keys.view(np.uint64)
    tagged = np.empty(keys.shape, dtype=bool)
    rank = np.arange(n)
    for j in range(0, qs.size, step):
        k = counts[j : j + step, None]
        block, tag = bits[: k.size], tagged[: k.size]
        stream.random(out=keys[: k.size])
        np.left_shift(block, 1, out=block)
        np.greater_equal(rank, k, out=tag)
        np.bitwise_or(block, tag, out=block)
        block.sort(axis=1)
        # a one at rank i when the key of rank i is one of the first k
        np.bitwise_and(block, 1, out=block)
        np.equal(block, 0, out=x.T[j : j + step], casting="unsafe")
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
    """Whether an n-row binary column at balance q keeps a zero; q outside (0, 1) is refused."""
    _check_balances(np.array([q], dtype=np.float64))
    return bool(_ones(n, q) < n)


_ALL_ONES = "ceil(n q) = n gives an all-ones column"


def _binary_design(n: int, p: int, qs: np.ndarray, cfg: dict, gx) -> np.ndarray:
    """n x p binary design: signal columns at balances qs, then null columns at
    balances drawn uniformly between null_q_low and null_q_high."""
    null_q = gx.uniform(cfg["null_q_low"], cfg["null_q_high"], size=p - len(qs))
    return _binary_columns(n, np.concatenate([qs, null_q]), gx)


def _delta_scales(balances: list[float], delta: float) -> np.ndarray:
    """BinaryDelta(delta) scales of binary columns with these class balances.

    Scales come from the scalar `scale_at`, per column, as in `compute_plan`:
    numpy's vectorized pow can round differently from libm's. A constant
    column (balance 0 or 1) gets scale 1, as there.
    """
    rule = BinaryDelta(delta)
    return np.array([rule.scale_at(q) for q in balances])


# ---------------------------------------------------------------------------
# spec / result plumbing


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario id plus overrides; unset fields take catalogue defaults.
    seed, n, p and replications must be ints (not bools)."""

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
        if type(self.seed) is not int or not 0 <= self.seed < 2**63:
            raise DomainError(f"seed must be a non-negative 63-bit integer, got {self.seed!r}")
        for name in _SIZES:
            value = getattr(self, name)
            if value is not None:
                _count(name, value)
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


def _replications(seed: int, count: int):
    """Yield (replication, design stream, noise stream, test stream) for each
    of count replications: the one place a replication's streams are made."""
    for rep in range(count):
        yield rep, _stream(seed, rep, _X), _stream(seed, rep, _EPS), _stream(seed, rep, _TEST)


def _resolve(spec: ScenarioSpec, defaults: dict) -> tuple[dict, set[str]]:
    """Merge overrides into the scenario defaults, tracking what changed; a
    param wins over the spec field of its name, and both are typed by _exact."""
    cfg = dict(defaults)
    sizes = {name: getattr(spec, name) for name in _SIZES if getattr(spec, name) is not None}
    overrides = {**sizes, **spec.params}
    for key, value in overrides.items():
        if key not in cfg:
            if key not in spec.params:
                raise DomainError(f"scenario {spec.scenario!r} takes no {key} override")
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
        cfg[key] = _count(key, value) if key in _SIZES else value
    return cfg, set(overrides)


def _count(name: str, value) -> int:
    """value, if it is an int (not a bool) >= 1; else DomainError naming name."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value!r}")
    return value


def _exact(key: str, value, default):
    """value as the type of default; DomainError if that fails, would change
    it (3.9 for an integer, "abc" for a float, 1 for a bool, True for a
    number) or gives a non-finite float."""
    kind = type(default)
    try:
        converted = kind(value) if isinstance(value, bool) == (kind is bool) else None
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
    fields = ("seed", *_SIZES)
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
            pairs[key] = value = parse_value(value)
            if key in fields and type(value) is not int:
                raise ParseError(f"{key} must be an integer, got {value!r}", line=line_no)
    if "scenario" not in pairs:
        raise ParseError("config must set `scenario`", line=1)
    spec = {name: pairs.pop(name) for name in fields if name in pairs}
    return ScenarioSpec(str(pairs.pop("scenario")), params=pairs, **spec)


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
def _run_selection_probability(cfg, rec, reps):
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
    for rep, gx, ge, _ in reps:
        columns = {q: gen_binary(n, q, gx) for q in qs}
        noise = {s: (s * ge.standard_normal(n) if s > 0.0 else None) for s in cfg["sigma_grid"]}
        for q in qs:
            x, data = columns[q][:, np.newaxis], None
            q_hat = class_balance(columns[q])
            scales = {d: np.array([BinaryDelta(d).scale_at(q_hat)]) for d in cfg["delta_grid"]}
            for s in cfg["sigma_grid"]:
                y = beta * columns[q] if noise[s] is None else beta * columns[q] + noise[s]
                # one design per q, refit on each sigma's response
                data = Dataset(x=x, y=y) if data is None else data.with_response(y)
                for d in cfg["delta_grid"]:
                    for lam1 in cfg["lambda1_grid"]:
                        res = fit(data, PenaltySpec(lam1=lam1, u=scales[d]))
                        cell = (q, d, lam1, s)
                        selected = 1.0 if res.beta[0] != 0.0 else 0.0
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
def _run_bias_var(cfg, rec, reps):
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
    for rep, gx, ge, _ in reps:
        columns = {q: gen_binary(n, q, gx) for q in qs}
        noise = {s: (s * ge.standard_normal(n) if s > 0.0 else None) for s in cfg["sigma_grid"]}
        for q in qs:
            x, data = columns[q][:, np.newaxis], None
            # weights at the nominal balance; scaling at the realized one
            q_hat = q if variant == "weighted" else class_balance(columns[q])
            penalties = {}
            for t in cfg["exponent_grid"]:
                u = np.array([BinaryDelta(t).scale_at(q_hat)])
                v = u if variant == "weighted" else u * u
                penalties[t] = PenaltySpec(lam1=lam1, lam2=lam2, u=u, v=v)
            for s in cfg["sigma_grid"]:
                y = beta * columns[q] if noise[s] is None else beta * columns[q] + noise[s]
                data = Dataset(x=x, y=y) if data is None else data.with_response(y)
                for t in cfg["exponent_grid"]:
                    res = fit(data, penalties[t])
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
def _run_decreasing_classbalance(cfg, rec, reps):
    n, p, k = cfg["n"], cfg["p"], cfg["n_signal"]
    if p <= k:
        raise DomainError(f"p must exceed n_signal={k}, got {p}")
    qs = signal_balances(k, cfg["q_first"], cfg["q_last"])
    beta = np.zeros(p)
    beta[:k] = 1.0
    lam_rule = "lambda1 = 2 sigma sqrt(2 log p); plain nu^delta scaling"
    for rep, gx, ge, _ in reps:
        x = xr = data = None  # the last design goes before the next is drawn
        x = _binary_design(n, p, qs, cfg, gx)
        z = ge.standard_normal(n)
        for rho in cfg["rho_grid"]:
            xr = inject_correlation(x, rho) if rho > 0.0 else x
            sigma = sigma_for_snr(xr, beta, cfg["snr"])
            data = Dataset(x=xr, y=xr[:, :k] @ beta[:k] + sigma * z)
            lam1 = 2.0 * sigma * math.sqrt(2.0 * math.log(p))
            balances = data.x.mean(axis=0).tolist()
            deltas = cfg["delta_grid"]
            penalties = [PenaltySpec(lam1=lam1, u=_delta_scales(balances, d)) for d in deltas]
            for d, res in zip(deltas, fit_each(data, penalties)):
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
def _run_mixed_data(cfg, rec, reps):
    n = cfg["n"]
    beta = np.array([cfg["beta_binary"], cfg["beta_cont"]])
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    for model in cfg["model_grid"]:
        if model not in ("lasso", "ridge"):
            raise DomainError(f"model_grid entries must be lasso or ridge, got {model!r}")
    for rep, gx, ge, _ in reps:
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
            q1, sd2 = class_balance(x1), float(x2.std())
            for model in cfg["model_grid"]:
                comparability = LASSO_COMPARABLE if model == "lasso" else RIDGE_COMPARABLE
                for d in cfg["delta_grid"]:
                    rule = BinaryDelta(d, comparability, cfg["kappa"], cfg["q0"])
                    s = np.array([rule.scale_at(q1), sd2])
                    lam_max = lambda_max(data, u=s)
                    penalty = (
                        PenaltySpec(lam1=lam_max / 2.0, u=s)
                        if model == "lasso"
                        else PenaltySpec(lam1=0.0, lam2=2.0 * lam_max, v=s * s)
                    )
                    res = fit(data, penalty)
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
def _run_interactions(cfg, rec, reps):
    n, d = cfg["n"], cfg["delta"]
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    lam1 = n / 4.0
    binary_scale = BinaryDelta(d, LASSO_COMPARABLE, cfg["kappa"], cfg["q0"])
    for rep, gx, ge, _ in reps:
        z = ge.standard_normal(n)
        for q in qs:
            x1 = gen_binary(n, q, gx)
            x2 = gen_quasinormal(n, gx, sd=cfg["cont_sd"])
            x3 = make_interaction(x1, x2)
            x = np.column_stack([x1, x2, x3])
            s1 = binary_scale.scale_at(class_balance(x1))
            s2 = float(x2.std())
            # the centers of both plans are the column means, which the
            # intercept absorbs; the scales enter as penalty weights
            scales = {1: np.array([s1, s2, float(x3.std())]), 2: np.array([s1, s2, s1 * s2])}
            data = None
            for beta3 in cfg["beta3_grid"]:
                beta = np.array([cfg["beta_binary"], cfg["beta_cont"], beta3])
                sigma = sigma_for_snr(x, beta, cfg["snr"])
                y = x @ beta + sigma * z
                # one design per q, refit on each beta3's response
                data = Dataset(x=x, y=y) if data is None else data.with_response(y)
                for strategy, s in scales.items():
                    res = fit(data, PenaltySpec(lam1=lam1, u=s))
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
def _run_weighted_elnet(cfg, rec, reps):
    n = cfg["n"]
    beta = np.array([cfg["beta_binary"], cfg["beta_cont"]])
    qs = _feasible_qs(n, cfg["q_grid"], rec)
    for rep, gx, ge, _ in reps:
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
                res = fit(data, from_mixing(cfg["alpha"], lam, u=w, v=w))
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

    Each column holds the ceil(n q - 1e-9) ones of a gen_binary column at
    its balance, and round(n p11) rows hold a one in both, where
    p11 = q1 q2 + rho sqrt(nu1 nu2); a balance outside (0, 1) is refused.
    Returns None when a column is constant or a cell count negative (rho
    outside the Frechet bounds).
    """
    qs = np.array([q1, q2], dtype=np.float64)
    _check_balances(qs)
    ones1, ones2 = _ones(n, qs).tolist()
    nu1, nu2 = q1 - q1 * q1, q2 - q2 * q2
    n11 = round(n * (q1 * q2 + rho * math.sqrt(nu1 * nu2)))
    n10 = ones1 - n11
    n01 = ones2 - n11
    n00 = n - n11 - n10 - n01
    if min(n11, n10, n01, n00) < 0 or ones1 in (0, n) or ones2 in (0, n):
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
def _run_orthogonality(cfg, rec, reps):
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
            x = np.asfortranarray(x)
            # the noiseless response; each replication refits the design on its own
            noiseless = Dataset(x=x, y=x @ beta)
            designs[(q2, rho)] = (noiseless, x.std(axis=0), sigma, corr)
    for rep, _, ge, _ in reps:
        z = ge.standard_normal(n)
        for (q2, rho), (noiseless, s, sigma, corr) in designs.items():
            data = noiseless.with_response(noiseless.y + sigma * z)
            res = fit(data, PenaltySpec(lam1=lambda_max(data, u=s) / 2.0, u=s))
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
def _run_power_fdr(cfg, rec, reps):
    n, k = cfg["n"], cfg["n_signal"]
    p_max = max(cfg["p_grid"])
    if min(cfg["p_grid"]) <= k:
        raise DomainError(f"every p must exceed n_signal={k}")
    qs = np.linspace(cfg["q_first"], cfg["q_last"], k)
    truth = set(range(k))
    for rep, gx, ge, gt in reps:
        x_full = full = data = None  # the last design goes before the next is drawn
        x_full = _binary_design(n, p_max, qs, cfg, gx)
        signal = cfg["beta_signal"] * x_full[:, :k].sum(axis=1)
        y = signal + cfg["sigma"] * ge.standard_normal(n)
        y_test = signal + cfg["sigma"] * gt.standard_normal(n)
        # the nested designs are heads of one, set up once
        full = Dataset(x=x_full, y=y)
        for p in cfg["p_grid"]:
            data = full.head(p)
            balances = data.x.mean(axis=0).tolist()
            for d in cfg["delta_grid"]:
                res = fit(data, PenaltySpec(lam1=n * 4.0**d / 10.0, u=_delta_scales(balances, d)))
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
def _run_predictive_sim(cfg, rec, reps):
    n, p, k = cfg["n"], cfg["p"], cfg["n_signal"]
    if p <= k:
        raise DomainError(f"p must exceed n_signal={k}, got {p}")
    qs = np.linspace(cfg["q_first"], cfg["q_last"], k)
    beta = np.zeros(p)
    beta[:k] = cfg["beta_signal"]
    third = n // 3
    if third < 2:
        raise DomainError(f"n={n} leaves fewer than 2 rows per split")
    for rep, gx, ge, gs in reps:
        x = xt = xv = xs = data = None  # the last design goes before the next is drawn
        x = _binary_design(n, p, qs, cfg, gx)
        z = ge.standard_normal(n)
        order = gs.permutation(n)
        train, val, test = order[:third], order[third : 2 * third], order[2 * third :]
        signal = x[:, :k] @ beta[:k]
        xt, xv, xs = np.asfortranarray(x[train]), x[val], x[test]
        balances = xt.mean(axis=0).tolist()
        scales = {d: _delta_scales(balances, d) for d in cfg["delta_grid"]}
        for snr in cfg["snr_grid"]:
            sigma = sigma_for_snr(x, beta, snr)
            y = signal + sigma * z
            # one training design per replication, refit on each snr's response
            data = Dataset(x=xt, y=y[train]) if data is None else data.with_response(y[train])
            for d in cfg["delta_grid"]:
                s = scales[d]
                lam_max = lambda_max(data, u=s)
                grid = lambda_grid(lam_max, count=cfg["path_count"], ratio=cfg["path_ratio"])
                best = None
                for lam, res in zip(grid, fit_path(data, 1.0, grid, u=s)):
                    score = nmse(y[val], res.beta0 + xv @ res.beta)
                    if best is None or score < best[0]:
                        best = (score, float(lam), res)
                _, lam, res = best
                rec.add(
                    rep,
                    (snr, d),
                    nmse_test=nmse(y[test], res.beta0 + xs @ res.beta),
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
def _run_maxabs_gev(cfg, rec, reps):
    part = cfg["part"]
    if part not in ("a", "b"):
        raise DomainError(f"part must be 'a' or 'b', got {part!r}")
    sizes = tuple(sorted(cfg["n_grid"]))
    if part == "a":
        approx = {n: maxabs_gumbel(0.0, 1.0, n).mean_approx for n in sizes}
        for rep, g, _, _ in reps:
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
        for rep, gx, ge, _ in reps:
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
                res = fit(data, PenaltySpec(lam1=n * nu1 / 2.0, u=plan.scales))
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
    extra = runner(cfg, rec, _replications(spec.seed, cfg["replications"]))
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
