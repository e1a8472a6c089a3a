"""The three benchmark workloads, their inputs and their output checks.

Every workload drives normreg only through its public entry points,
simulate.run_scenario and cli.main, looked up on the module at call time so
that a traced iteration goes through the tracer's wrappers. The package must
be importable (run.load_package) before this module is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import normreg.cli
import normreg.simulate


@dataclass
class Outcome:
    """What one iteration did: entry-point calls, failures and output facts."""

    ops: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    fits_expected: int = 0


# scenario -> (cell grid keys, grid keys that one skip message removes,
#              result rows per cell, fits per cell), per replication.
_LAYOUT = {
    "selection-probability": (
        ("q_grid", "delta_grid", "lambda1_grid", "sigma_grid"), ("q_grid",),
        lambda c: 2, lambda c: 1),
    "bias-var": (("q_grid", "exponent_grid", "sigma_grid"), ("q_grid",), lambda c: 3, lambda c: 1),
    "decreasing-classbalance": (
        ("delta_grid", "rho_grid"), (), lambda c: c["n_signal"] + 1, lambda c: 1),
    "mixed-data": (("model_grid", "q_grid", "delta_grid"), ("q_grid",), lambda c: 3, lambda c: 1),
    # two normalization strategies, three estimates each, per (q, beta3)
    "interactions": (("q_grid", "beta3_grid"), ("q_grid",), lambda c: 6, lambda c: 2),
    "weighted-elnet": (("q_grid", "omega_grid"), ("q_grid",), lambda c: 2, lambda c: 1),
    "orthogonality": (("q2_grid", "rho_grid"), ("q2_grid", "rho_grid"), lambda c: 3, lambda c: 1),
    "power-fdr": (("p_grid", "delta_grid"), (), lambda c: 4, lambda c: 1),
    "predictive-sim": (("snr_grid", "delta_grid"), (), lambda c: 3, lambda c: c["path_count"]),
    "maxabs-gev": (("n_grid",), ("n_grid",), lambda c: 2, lambda c: int(c["part"] == "b")),
}


def expected_counts(manifest: dict) -> tuple[int, int, int]:
    """(table rows, summary rows, fits) implied by a scenario manifest.

    The resolved grid gives the cells; each skip message in the manifest
    removes the cells its grid keys pin down.
    """
    cfg = manifest["resolved"]
    keys, skip_keys, rows_per, fits_per = _LAYOUT[manifest["scenario"]]
    total = math.prod(len(cfg[k]) for k in keys)
    per_skip = total // math.prod(len(cfg[k]) for k in skip_keys)
    cells = total - len(manifest["skipped"]) * per_skip
    reps = cfg["replications"]
    return reps * cells * rows_per(cfg), cells * rows_per(cfg), reps * cells * fits_per(cfg)


_FOLD_SKIP = re.compile(r"^repeat (\d+) fold (\d+) delta ")
_CONSTANT_FOLD = re.compile(r"^repeat (\d+) fold (\d+): constant held-out response")


def expected_cv_counts(manifest: dict) -> tuple[int, int]:
    """(result rows, fits) implied by a cv manifest and its skip messages."""
    folds, repeats = manifest["folds"], manifest["repeats"]
    deltas, lambdas = len(manifest["deltas"]), manifest["lambda_count"]
    skipped = [tuple(map(int, m.groups())) for m in map(_FOLD_SKIP.match, manifest["skipped"]) if m]
    constant = {tuple(map(int, m.groups())) for m in map(_CONSTANT_FOLD.match, manifest["skipped"]) if m}
    fits = (repeats * folds * deltas - len(skipped)) * lambdas
    rows = sum(
        (deltas - skipped.count((r, f))) * lambdas
        for r in range(repeats)
        for f in range(folds)
        if (r, f) not in constant
    )
    return max(rows, 1), fits


def _nonfinite(values) -> int:
    return sum(1 for v in values if not math.isfinite(float(v)))


def _check_csv(path: Path, rows_expected: int, value_columns, problems: list[str]) -> str:
    """Check row count, width and finiteness of a result CSV; return its SHA-256."""
    raw = path.read_bytes()
    lines = raw.decode("utf-8").splitlines()
    header, body = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if len(body) != rows_expected:
        problems.append(f"{path.name}: {len(body)} rows, expected {rows_expected}")
    if any(len(row) != len(header) for row in body):
        problems.append(f"{path.name}: a row does not match the header width")
    else:
        idx = [header.index(c) for c in value_columns]
        bad = _nonfinite(row[i] for row in body for i in idx)
        if bad:
            problems.append(f"{path.name}: {bad} non-finite values")
    return hashlib.sha256(raw).hexdigest()


class ScenarioWorkload:
    """One simulate.run_scenario call on a fixed, reduced configuration."""

    def __init__(self, name: str, why: str, scenario: str, n: int, p: int, replications: int,
                 params: dict):
        self.name, self.why = name, why
        self.scenario, self.n, self.p = scenario, n, p
        self.replications, self.params = replications, params

    def setup(self, seed: int, workdir: Path):
        return normreg.simulate.ScenarioSpec(
            scenario=self.scenario, seed=seed, n=self.n, p=self.p,
            replications=self.replications, params=dict(self.params),
        )

    def run(self, spec) -> list:
        try:
            return [normreg.simulate.run_scenario(spec)]
        except Exception as exc:  # a failed call is counted, not fatal
            return [exc]

    def check(self, spec, results: list) -> Outcome:
        (result,) = results
        if isinstance(result, Exception):
            return Outcome(ops=1, failed=1, problems=[f"run_scenario raised {result!r}"])
        rows, summary_rows, fits = expected_counts(result.manifest)
        out = Outcome(ops=1, fits_expected=fits)
        if len(result.rows) != rows:
            out.problems.append(f"{len(result.rows)} result rows, expected {rows}")
        if len(result.summary) != summary_rows:
            out.problems.append(f"{len(result.summary)} summary rows, expected {summary_rows}")
        bad = _nonfinite(row[-1] for row in result.rows)
        bad += _nonfinite(v for row in result.summary for v in row[-3:-1])
        if bad:
            out.problems.append(f"{bad} non-finite values")
        text = repr((result.rows, result.summary)).encode()
        out.digests[self.scenario] = hashlib.sha256(text).hexdigest()
        return out


SMALL_P_SCENARIOS = (
    "selection-probability",
    "bias-var",
    "mixed-data",
    "interactions",
    "weighted-elnet",
    "orthogonality",
    "maxabs-gev",
)


def write_cv_input(path: Path, seed: int, n: int = 200) -> None:
    """Mixed binary/continuous table with two rare binary columns.

    r1 has a single positive row, so in every repeat the training split of
    the fold holding that row sees a constant column and cv skips it for
    each delta > 0; r2 has three positive rows and skips only sometimes.
    """
    rng = np.random.default_rng(seed)
    cont = rng.standard_normal((n, 3))
    common = (rng.random((n, 3)) < (0.5, 0.3, 0.15)).astype(float)
    rare = np.zeros((n, 2))
    rare[rng.integers(n), 0] = 1.0
    rare[rng.choice(n, size=3, replace=False), 1] = 1.0
    x = np.column_stack([cont, common, rare])
    y = x @ np.array([1.0, -0.5, 0.0, 1.5, 0.0, -1.0, 2.0, 0.0]) + rng.standard_normal(n)
    names = ("c1", "c2", "c3", "b1", "b2", "b3", "r1", "r2", "y")
    lines = [",".join(names)]
    lines += [",".join(repr(float(v)) for v in row) for row in np.column_stack([x, y])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class CliBatch:
    """simulate --out for the small-p scenarios and power-fdr, then cv."""

    name = "cli-batch"
    why = ("~2,600 small fits through cli.main: per-call overhead, data generation, "
           "normalization, io and cv, not the sweep kernel")
    small_p_replications = 10
    power_fdr_replications = 2
    cv_flags = ("--folds", "5", "--repeats", "2", "--deltas", "0,0.5,1", "--lambda-count", "20")

    def setup(self, seed: int, workdir: Path) -> list[list[str]]:
        workdir.mkdir(parents=True, exist_ok=True)
        cv_input = workdir / "cv-input.csv"
        write_cv_input(cv_input, seed)
        calls = [
            ["simulate", "--scenario", scenario, "--replications", str(self.small_p_replications),
             "--seed", str(seed), "--out", str(workdir / f"{scenario}.csv")]
            for scenario in SMALL_P_SCENARIOS
        ]
        calls.append(["simulate", "--scenario", "power-fdr", "--replications",
                      str(self.power_fdr_replications), "--seed", str(seed),
                      "--out", str(workdir / "power-fdr.csv")])
        calls.append(["cv", "--input", str(cv_input), *self.cv_flags, "--seed", str(seed),
                      "--out", str(workdir / "cv.csv")])
        return calls

    def run(self, calls: list[list[str]]) -> list:
        codes = []
        for argv in calls:
            try:
                codes.append(normreg.cli.main(argv))
            except Exception as exc:  # a failed call is counted, not fatal
                codes.append(exc)
        return codes

    def check(self, calls: list[list[str]], results: list) -> Outcome:
        out = Outcome(ops=len(calls))
        for argv, code in zip(calls, results):
            if code != 0:
                out.failed += 1
                out.problems.append(f"normreg {' '.join(argv[:3])} returned {code!r}")
                continue
            path = Path(argv[argv.index("--out") + 1])
            manifest = json.loads(Path(str(path) + ".manifest.json").read_text(encoding="utf-8"))
            if argv[0] == "cv":
                rows, fits = expected_cv_counts(manifest)
                out.digests[path.name] = _check_csv(path, rows, ("nmse",), out.problems)
            else:
                rows, summary_rows, fits = expected_counts(manifest)
                out.digests[path.name] = _check_csv(path, rows, ("value",), out.problems)
                summary = path.with_name(f"{path.stem}.summary.csv")
                out.digests[summary.name] = _check_csv(
                    summary, summary_rows, ("mean", "sd"), out.problems
                )
            out.fits_expected += fits
        return out


WORKLOADS = {
    w.name: w
    for w in (
        ScenarioWorkload(
            "wide-fit",
            "criterion-7 design: cold-started 500x1000 lasso fits at delta 0 and 1 (capped); "
            "the coordinate sweep is ~99% of the run",
            "decreasing-classbalance", n=500, p=1000, replications=1,
            params={"delta_grid": (0.0, 1.0)},
        ),
        ScenarioWorkload(
            "wide-path",
            "warm-started lambda paths on 100 training rows x 1000 columns with validation "
            "selection; the path ends in capped fits",
            "predictive-sim", n=300, p=1000, replications=3,
            params={"snr_grid": (1.0,), "delta_grid": (1.0,), "path_count": 5,
                    "path_ratio": 1e-2},
        ),
        CliBatch(),
    )
}
