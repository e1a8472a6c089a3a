"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

The determinism tests trace every workload twice and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.pin_blas()
run.load_package()

import numpy as np  # noqa: E402

import normreg  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from normreg.dataset import Dataset  # noqa: E402
from normreg.solver import FitResult, PenaltySpec, orthogonal_solution  # noqa: E402

WORK = run.OUT / "test-work"
SEED = 11
DETERMINISTIC = ("solver.fit.calls", "solver.sweeps", "solver.capped", "solver.uncertified")


def _traced(name: str, seed: int = SEED):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, WORK / name)
    try:
        with tracing.Tracer() as tracer:
            results = workload.run(inputs)
        outcome = workload.check(inputs, results)
        return tracer, outcome, tracer.metrics(), inputs
    finally:
        shutil.rmtree(WORK / name, ignore_errors=True)


def test_every_binding_site_is_wrapped_then_restored():
    import normreg.cli
    import normreg.evaluate
    import normreg.simulate
    import normreg.solver

    fit = normreg.solver.fit
    with tracing.Tracer() as tracer:
        sites = set(tracer.sites["normreg.solver.fit"])
        assert {"normreg.solver.fit", "normreg.simulate.fit", "normreg.evaluate.fit",
                "normreg.cli._fit", "normreg.fit"} <= sites
        assert "normreg.simulate.selection_probability" in tracer.sites[
            "normreg.oracle.selection_probability"]
        assert "normreg.simulate.gen_binary" in tracer.sites["normreg.simulate.gen_binary"]
        assert normreg.cli._fit is not fit and normreg.evaluate.fit is not fit
        assert hasattr(Dataset.__dict__["__post_init__"], "__perfbench_original__")
    assert normreg.simulate.fit is fit and normreg.cli._fit is fit and normreg.fit is fit
    assert not hasattr(Dataset.__dict__["__post_init__"], "__perfbench_original__")


def test_span_without_parent_fails_the_trace():
    with tracing.Tracer() as tracer:
        Dataset(x=np.eye(3), y=np.arange(3.0))
    tracer.check()
    tracer.spans[1][3] = -1
    with pytest.raises(tracing.TraceError):
        tracer.metrics()


def test_kkt_normalizer_is_zero_at_the_orthogonal_closed_form():
    # mean-centred orthogonal columns: rows of a 4x4 Hadamard block, tiled
    h = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    x = np.tile(h, (25, 1))
    rng = np.random.default_rng(0)
    y = x @ np.array([3.0, 0.0, -1.5]) + rng.standard_normal(100)
    data = Dataset(x=x, y=y)
    penalty = PenaltySpec(lam1=20.0, lam2=5.0)
    beta, beta0 = orthogonal_solution(x.T @ (y - y.mean()), (x * x).sum(axis=0), penalty,
                                      ybar=float(y.mean()))
    exact = FitResult(beta_norm=beta, beta0_norm=beta0, beta=beta, beta0=beta0, sweeps_used=0,
                      converged=True, objective_value=0.0, lam1=20.0, lam2=5.0)
    assert tracing.kkt_violation(data, penalty, exact) < 1e-13
    off = beta + np.array([0.0, 0.0, 1e-3])
    perturbed = FitResult(beta_norm=off, beta0_norm=beta0, beta=off, beta0=beta0, sweeps_used=0,
                          converged=True, objective_value=0.0, lam1=20.0, lam2=5.0)
    assert tracing.kkt_violation(data, penalty, perturbed) > tracing.KKT_THRESHOLD


@pytest.mark.parametrize(
    "name, fits",
    [
        ("wide-fit", 1 * 2 * 1),  # replications x delta x rho
        ("wide-path", 3 * 1 * 1 * 5),  # replications x snr x delta x path_count
        ("cli-batch", None),  # from every manifest's resolved grid and skips
    ],
)
def test_traced_counts_match_the_grid_and_repeat(name, fits):
    first_tracer, first, m1, _ = _traced(name)
    _, second, m2, _ = _traced(name)
    assert not first.problems and not first.failed
    expected = first.fits_expected if fits is None else fits
    assert first.fits_expected == expected
    assert m1["solver.fit.calls"] == expected
    assert {k: m1[k] for k in DETERMINISTIC} == {k: m2[k] for k in DETERMINISTIC}
    assert first.digests == second.digests
    if name == "cli-batch":
        _, start, end, _ = first_tracer.spans[0]
        shares = {layer: t / (end - start) for layer, t in first_tracer.layer_self.items()}
        assert max(shares.values()) < 0.95, shares


def test_baseline_defects_show():
    tracer, _, fit_metrics, _ = _traced("wide-fit")
    assert fit_metrics["solver.uncertified"] > 0
    _, start, end, _ = tracer.spans[0]
    # tracing only adds time, so this share is a lower bound on the untraced one
    assert fit_metrics["solver.fit.s"] >= 0.95 * (end - start)
    _, _, path_metrics, _ = _traced("wide-path")
    assert path_metrics["solver.capped"] > 0


def test_speed_sampler_samples_then_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert 0.0 < sampler.spent < 0.5
    assert sampler.scaled(0.5) == pytest.approx((0.5 - sampler.spent) * sampler.speed())


def test_run_fails_without_the_package():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    _, _, metrics, _ = _traced("cli-batch")
    layer_names = {m["name"] for m in bench["per_layer"]}
    assert layer_names == set(metrics) | {"trace.overhead_s"}
