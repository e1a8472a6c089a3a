"""Fits go through penalty weights on the raw design, one set-up per Dataset.

A plan's scales enter a fit as weights u = s, v = s^2 on the data as given,
so no fit path builds a normalized copy; and what a fit needs of (x, y)
alone is computed once per Dataset, however many fits share it.
"""

import sys

import numpy as np
import pytest

import normreg.solver
from normreg import CVPlan, Dataset, ScenarioSpec, cross_validate, run_scenario
from normreg import normalize
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
    """The number of set-ups made so far, as a one-element list."""
    made = [0]
    init = normreg.solver._Setup.__init__

    def counted(self, x, y):
        made[0] += 1
        init(self, x, y)

    monkeypatch.setattr(normreg.solver._Setup, "__init__", counted)
    return made


def test_mixed_data_sets_up_once_per_design(setups, monkeypatch):
    fits = []
    fit = normreg.simulate.fit

    def counted(*args, **kwargs):
        fits.append(args[0])
        return fit(*args, **kwargs)

    monkeypatch.setattr(normreg.simulate, "fit", counted)
    spec = ScenarioSpec(
        scenario="mixed-data", seed=3, n=50, replications=2,
        params={"q_grid": (0.5, 0.9), "delta_grid": (0.0, 0.5, 1.0)},
    )
    run_scenario(spec)
    # two models and three deltas share each (replication, q) design
    assert len(fits) == 2 * 2 * 2 * 3
    assert setups[0] == len({id(data) for data in fits}) == 2 * 2


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
    setup = normreg.solver._setup(Dataset(x=x, y=rng.standard_normal(n)))
    assert setup.gram is not None
    assert (setup.shift is not None) == (kind == "shifted")
    assert bool(setup.dead[j]) == (kind == "dead")
    assert setup.own.tobytes() == setup.gram.diagonal().tobytes()
