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

from test_golden import CASES, _mixed_csv

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
    monkeypatch.setattr(normalize.NormalizationPlan, "transform", refuse)
    argv = CASES.get(case, FIT)
    if argv[0] in ("cv", "path", "fit"):
        argv = [*argv, "--input", _mixed_csv(tmp_path / "mixed.csv")]
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
