"""Fits go through penalty weights on the raw design, one set-up per design.

A plan's scales enter a fit as weights u = s, v = s^2 on the data as given,
so no fit path builds a normalized copy; and what a fit needs of (x, y)
alone is computed once per Dataset, however many fits share it, and what it
needs of x alone once per design, however many responses and nested column
sets refit it.
"""

import dataclasses
import sys

import numpy as np
import pytest

import normreg.solver
from normreg import CVPlan, Dataset, ScenarioSpec, cross_validate, run_scenario
from normreg import normalize
from normreg.solver import PenaltySpec, fit, fit_path, lambda_grid, lambda_max
from normreg.cli import main

from test_golden import CASES, TABLES, _mixed_csv

FIT = ["fit", "--normalize", "binary-delta", "--delta", "1", "--omega", "0.5", "--lambda1", "2"]


@pytest.mark.parametrize("case", sorted(CASES) + ["fit"])
def test_no_fit_path_makes_a_normalized_copy(case, tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a fit path made a normalized copy")

    for name, module in list(sys.modules.items()):
        if name == "normreg" or name.startswith("normreg."):
            for key, value in list(vars(module).items()):
                if value is normalize.apply:
                    monkeypatch.setattr(module, key, refuse)
    argv = CASES.get(case, FIT)
    if argv[0] in ("cv", "path", "fit"):
        argv = [*argv, "--input", TABLES.get(case, _mixed_csv)(tmp_path / "input.csv")]
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
    capsys.readouterr()


@pytest.fixture
def setups(monkeypatch):
    """The number of design set-ups (_Moments) made so far, as a one-element list."""
    made = [0]
    init = normreg.solver._Moments.__init__

    def counted(self, x):
        made[0] += 1
        init(self, x)

    monkeypatch.setattr(normreg.solver._Moments, "__init__", counted)
    return made


def _fitted(monkeypatch) -> list:
    """The Dataset of every fit, fit_path or fit_each call a scenario makes from now on."""
    fits = []
    for name in ("fit", "fit_path", "fit_each"):
        exact = getattr(normreg.simulate, name)

        def counted(*args, exact=exact, **kwargs):
            fits.append(args[0])
            return exact(*args, **kwargs)

        monkeypatch.setattr(normreg.simulate, name, counted)
    return fits


def test_mixed_data_sets_up_once_per_design(setups, monkeypatch):
    fits = _fitted(monkeypatch)
    spec = ScenarioSpec(
        scenario="mixed-data", seed=3, n=50, replications=2,
        params={"q_grid": (0.5, 0.9), "delta_grid": (0.0, 0.5, 1.0)},
    )
    run_scenario(spec)
    # two models and three deltas share each (replication, q) design
    assert len(fits) == 2 * 2 * 2 * 3
    assert setups[0] == len({id(data) for data in fits}) == 2 * 2


@pytest.mark.parametrize(
    "scenario, sizes, params, designs, datasets",
    [
        # a design per (q2, rho) cell, refit on each replication's response
        ("orthogonality", dict(n=200), {"q2_grid": (0.5, 0.7), "rho_grid": (0.0, 0.4)},
         4, 2 * 4),
        # a design per (replication, q), refit on each beta3's response
        ("interactions", dict(n=60), {"q_grid": (0.5, 0.9), "beta3_grid": (0.0, 1.0, 5.0)},
         2 * 2, 2 * 2 * 3),
        # a design per (replication, q), refit on each sigma's response
        ("bias-var", dict(n=60), {"q_grid": (0.5, 0.9), "sigma_grid": (0.5, 2.0)},
         2 * 2, 2 * 2 * 2),
        ("selection-probability", dict(n=60), {"q_grid": (0.5, 0.9), "sigma_grid": (0.5, 2.0)},
         2 * 2, 2 * 2 * 2),
        # a design per replication, whose first p columns are each p's design
        ("power-fdr", dict(n=300), {"p_grid": (20, 40), "delta_grid": (0.0, 1.0)}, 2, 2 * 2),
        # a training design per replication, refit on each snr's response
        ("predictive-sim", dict(n=60, p=40),
         {"n_signal": 3, "snr_grid": (0.5, 2.0), "delta_grid": (1.0,), "path_count": 3},
         2, 2 * 2),
    ],
)
def test_a_design_refit_on_new_responses_or_columns_is_set_up_once(
    scenario, sizes, params, designs, datasets, setups, monkeypatch
):
    fits = _fitted(monkeypatch)
    result = run_scenario(
        ScenarioSpec(scenario=scenario, seed=3, replications=2, params=params, **sizes)
    )
    assert not result.manifest["skipped"]
    assert setups[0] == designs < len({id(data) for data in fits}) == datasets


def _fields(res) -> list:
    """Every field of a fit, arrays as lists: equal lists are equal bits."""
    return [
        value.tolist() if isinstance(value, np.ndarray) else value
        for value in (getattr(res, f.name) for f in dataclasses.fields(res))
    ]


def _fits(data) -> list:
    """A lasso path, an elastic-net fit and a ridge fit of data, field by field."""
    lam = lambda_max(data)
    results = fit_path(data, 1.0, lambda_grid(lam, count=8, ratio=1e-2))
    results.append(fit(data, PenaltySpec(0.2 * lam, lam2=1.0)))
    results.append(fit(data, PenaltySpec(0.0, lam2=2.0)))
    return [_fields(res) for res in results]


def _design(kind: str, rng) -> np.ndarray:
    n, p = (30, 60) if kind == "wide" else (80, 8)
    if kind == "binary":
        return (rng.random((n, p)) < rng.uniform(0.1, 0.9, p)).astype(float)
    x = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0, p)
    if kind == "shifted":
        # centered once, in a copy, which the new response's fits share
        x[:, 2] += 1e4
    elif kind == "dead":
        x[:, 1] = 0.3
    return x


@pytest.mark.parametrize("kind", ["binary", "normal", "wide", "shifted", "dead"])
def test_a_new_responses_fits_equal_a_fresh_datasets_field_for_field(kind, setups):
    rng = np.random.default_rng(12)
    x = _design(kind, rng)
    first = Dataset(x=x, y=rng.standard_normal(x.shape[0]))
    _fits(first)
    y = x[:, :3] @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(x.shape[0])
    refit = first.with_response(y)
    assert _fits(refit) == _fits(Dataset(x=x, y=y))
    # the first Dataset's design part served the new response's fits
    assert setups[0] == 2


@pytest.mark.parametrize("n", [1000, 10_000])
def test_a_heads_fits_equal_a_fresh_datasets_bit_for_bit_on_a_binary_design(n, setups):
    # every sum over a binary column is an exact integer, so the sliced
    # moments are those of a fresh set-up of the head, bit for bit
    rng = np.random.default_rng(n)
    x = np.asfortranarray(rng.random((n, 60)) < rng.uniform(0.02, 0.98, 60), dtype=float)
    y = x[:, :5] @ rng.uniform(-2.0, 2.0, 5) + rng.standard_normal(n)
    full = Dataset(x=x, y=y)
    for p in (1, 3, 20, 60):
        head = full.head(p)
        assert head.names == full.names[:p]
        assert _fits(head) == _fits(Dataset(x=x[:, :p].copy(order="F"), y=y))
    # the full design's set-up, which its heads slice, and one per fresh copy
    assert setups[0] == 1 + 4


@pytest.mark.parametrize("kind", ["shifted", "wide"])
def test_a_head_that_slicing_cannot_give_is_set_up_afresh(kind, setups):
    # after a shift the source's x is a centered copy, and a wide source has
    # no Gram for a tall head: either head gets a set-up of its own columns,
    # and on a binary head the fits of a fresh Dataset, bit for bit
    rng = np.random.default_rng(6)
    n, p = (300, 12) if kind == "shifted" else (40, 90)
    x = (rng.random((n, p)) < rng.uniform(0.1, 0.9, p)).astype(float)
    if kind == "shifted":
        x[:, -1] = 1e4 + rng.standard_normal(n)
    full = Dataset(x=x, y=x[:, :3] @ np.array([1.0, -1.0, 2.0]) + rng.standard_normal(n))
    _fits(full)
    assert _fits(full.head(8)) == _fits(Dataset(x=x[:, :8], y=full.y))
    assert setups[0] == 3


def test_a_heads_fits_equal_a_fresh_datasets_to_round_off_on_a_continuous_design(setups):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 30)) * rng.uniform(0.5, 3.0, 30) + rng.uniform(-2.0, 2.0, 30)
    full = Dataset(x=x, y=x[:, :4] @ np.array([1.0, -1.0, 0.5, 2.0]) + rng.standard_normal(200))
    head = full.head(12).with_response(full.y + 0.1)
    fresh = Dataset(x=x[:, :12], y=full.y + 0.1)
    lam = lambda_max(fresh)
    grid = lambda_grid(lam, count=8, ratio=1e-2)
    for ours, theirs in zip(fit_path(head, 1.0, grid), fit_path(fresh, 1.0, grid)):
        assert ours.converged and theirs.converged
        assert np.allclose(ours.beta, theirs.beta, rtol=1e-9, atol=1e-12)
        assert ours.beta0 == pytest.approx(theirs.beta0, rel=1e-9, abs=1e-12)
    # the head of a head, and a new response of it, slice the one set-up
    assert setups[0] == 2


def test_cross_validation_sets_up_once_per_training_fold(setups):
    rng = np.random.default_rng(4)
    x = np.column_stack([rng.standard_normal((60, 3)), rng.random(60) < 0.4])
    data = Dataset(x=x, y=x @ np.array([1.0, -0.5, 0.0, 2.0]) + rng.standard_normal(60))
    plan = CVPlan(folds=3, repeats=2, lambda_count=5, deltas=(0.0, 1.0))
    result = cross_validate(data, plan)
    assert not result.skipped
    # the full data's, for the lambda grids, and one per training fold
    assert setups[0] == 1 + plan.folds * plan.repeats


_DELTAS = (0.0, 0.25, 0.5, 1.0)


def _mixed(comparability, kappa=2.0, q0=0.5):
    return [
        normalize.PerFeature(
            (normalize.BinaryDelta(d, comparability, kappa, q0), normalize.Standardize())
        )
        for d in _DELTAS
    ]


# scenario, its parameters, the weight that carries the scale, and the
# strategy of each fit on one design, in the order the scenario fits them
_SCALED = {
    "selection-probability": (
        "selection-probability",
        {"q_grid": (0.5, 0.7, 0.9), "delta_grid": _DELTAS, "sigma_grid": (2.0,),
         "lambda1_grid": (40.0,)},
        "u",
        [normalize.BinaryDelta(d) for d in _DELTAS],
    ),
    "bias-var-lasso": (
        "bias-var",
        {"model": "lasso", "exponent_grid": _DELTAS, "sigma_grid": (1.0,)},
        "u",
        [normalize.BinaryDelta(d) for d in _DELTAS],
    ),
    "bias-var-ridge": (
        "bias-var",
        {"model": "ridge", "exponent_grid": _DELTAS, "sigma_grid": (1.0,)},
        "v",
        [normalize.BinaryDelta(d) for d in _DELTAS],
    ),
    "mixed-data-lasso": (
        "mixed-data",
        {"model_grid": ("lasso",), "q_grid": (0.5, 0.7, 0.9), "delta_grid": _DELTAS},
        "u",
        _mixed(normalize.LASSO_COMPARABLE),
    ),
    "mixed-data-ridge": (
        "mixed-data",
        {"model_grid": ("ridge",), "q_grid": (0.5, 0.7, 0.9), "delta_grid": _DELTAS,
         "kappa": 3.0, "q0": 0.3},
        "v",
        _mixed(normalize.RIDGE_COMPARABLE, 3.0, 0.3),
    ),
    "mixed-data-noise-free": (
        "mixed-data",
        {"model_grid": ("lasso",), "q_grid": (0.6,), "delta_grid": _DELTAS, "noise_free": True},
        "u",
        _mixed(normalize.LASSO_COMPARABLE),
    ),
    "orthogonality": ("orthogonality", {}, "u", [normalize.Standardize()]),
    # at n = 97 a balance of 0.99 would make an all-ones column
    "decreasing-classbalance": (
        "decreasing-classbalance",
        {"p": 200, "delta_grid": _DELTAS, "rho_grid": (0.0, 0.3), "q_last": 0.95,
         "null_q_high": 0.95},
        "u",
        [normalize.BinaryDelta(d) for d in _DELTAS],
    ),
    "power-fdr": (
        "power-fdr",
        {"p_grid": (20, 40), "delta_grid": _DELTAS, "q_last": 0.95, "null_q_high": 0.95},
        "u",
        [normalize.BinaryDelta(d) for d in _DELTAS],
    ),
    # at n = 97 the 0.99 signal column is all ones, so every training split
    # holds a constant column
    "predictive-sim": (
        "predictive-sim",
        {"p": 40, "n_signal": 3, "snr_grid": (1.0,), "delta_grid": _DELTAS, "path_count": 3},
        "u",
        [normalize.BinaryDelta(d) for d in _DELTAS],
    ),
}


@pytest.mark.parametrize("case", sorted(_SCALED))
def test_scenario_scales_equal_compute_plans(case, monkeypatch):
    """Scenarios that read a scale off a column apply compute_plan's rule exactly."""
    scenario, params, weight, strategies = _SCALED[case]
    calls = []
    fit, fit_path = normreg.simulate.fit, normreg.simulate.fit_path
    fit_each = normreg.simulate.fit_each

    def recorded(data, penalty, **kwargs):
        calls.append((data, {"u": penalty.u, "v": penalty.v}))
        return fit(data, penalty, **kwargs)

    def recorded_path(data, alpha, lambdas, u=None, v=None):
        calls.append((data, {"u": u, "v": v}))
        return fit_path(data, alpha, lambdas, u=u, v=v)

    def recorded_each(data, penalties):
        calls.extend((data, {"u": penalty.u, "v": penalty.v}) for penalty in penalties)
        return fit_each(data, penalties)

    monkeypatch.setattr(normreg.simulate, "fit", recorded)
    monkeypatch.setattr(normreg.simulate, "fit_path", recorded_path)
    monkeypatch.setattr(normreg.simulate, "fit_each", recorded_each)
    # an odd n keeps the realized class balances off round values
    run_scenario(ScenarioSpec(scenario=scenario, seed=5, n=97, replications=2, params=params))
    assert calls and len(calls) % len(strategies) == 0
    for i, (data, weights) in enumerate(calls):
        scales = normalize.compute_plan(data, strategies[i % len(strategies)]).scales
        want = scales if weight == "u" else scales**2
        assert np.array_equal(weights[weight], want)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["binary", "normal", "dead", "shifted"])
def test_a_tall_setups_sums_of_squares_are_its_grams_diagonal(kind, seed):
    # joins and the closed form take M_jj from the set-up's centered sums of
    # squares, so on a tall design these must be the centered Gram's
    # diagonal bit for bit: with a dead column, and after the shift that
    # centers a design whose column mean exceeds 100 sd
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 200))
    p = int(rng.integers(1, min(n, 12) + 1))
    if kind == "binary":
        x = (rng.random((n, p)) < rng.uniform(0.05, 0.95, p)).astype(float)
    else:
        x = rng.uniform(0.1, 10.0, p) * rng.standard_normal((n, p)) + rng.uniform(-5.0, 5.0, p)
    j = int(rng.integers(p))
    if kind == "dead":
        x[:, j] = rng.uniform(-3.0, 3.0)
    elif kind == "shifted":
        x[:, j] = 1e4 + 0.5 * rng.standard_normal(n)
    setup = normreg.solver._setup(Dataset(x=x, y=rng.standard_normal(n))).moments
    assert setup.gram is not None
    assert (setup.shift is not None) == (kind == "shifted")
    assert bool(setup.dead[j]) == (kind == "dead")
    assert setup.own.tobytes() == setup.gram.diagonal().tobytes()
