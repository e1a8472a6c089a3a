"""Command-line behavior: exit codes, output files, stdout payloads.

Everything runs in-process through main(argv) so exit codes and stderr text
can be asserted without spawning subprocesses.
"""

import json

import numpy as np
import pytest

import normreg.cli as cli
from normreg import Dataset, FitResult, compute_plan, Standardize, write_delimited
from normreg.cli import main


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    rng = np.random.default_rng(8)
    x = np.column_stack(
        [
            rng.integers(0, 2, 60).astype(float),
            rng.standard_normal(60),
            rng.integers(0, 2, 60).astype(float),
        ]
    )
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.1 * rng.standard_normal(60)
    write_delimited(Dataset(x=x, y=y), path)
    return str(path)


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    assert "fit" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert main(["fit", "--help"]) == 0


def test_usage_errors_exit_one(toy_csv, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    # mutually exclusive penalty flags
    code = main(["fit", "--input", toy_csv, "--lambda1", "1", "--alpha", "0.5", "--lambda", "2"])
    assert code == 1
    assert "--lambda1/--lambda2 cannot be combined" in capsys.readouterr().err
    # no penalty at all
    assert main(["fit", "--input", toy_csv]) == 1
    assert "penalty is required" in capsys.readouterr().err
    # --alpha without --lambda
    assert main(["fit", "--input", toy_csv, "--alpha", "0.5"]) == 1
    # alpha out of range
    assert main(["fit", "--input", toy_csv, "--alpha", "1.5", "--lambda", "1"]) == 1
    # oracle curve without its grid
    assert main(["oracle", "--curve", "selection", "--lambda1", "1"]) == 1
    assert "--q-grid" in capsys.readouterr().err
    assert main(["oracle", "--curve", "gumbel"]) == 1
    # simulate needs exactly one source
    assert main(["simulate"]) == 1
    assert main(["simulate", "--scenario", "bias-var", "--config", "x.cfg"]) == 1
    # malformed --param
    assert main(["simulate", "--scenario", "bias-var", "--param", "nonsense"]) == 1


def test_data_errors_exit_two(tmp_path, toy_csv, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["fit", "--input", missing, "--lambda1", "1"]) == 2
    assert "nope.csv" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1,oops\n")
    assert main(["fit", "--input", str(bad), "--lambda1", "1"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column 2" in err
    # a balance bound that rounds to an all-ones column is named up front
    argv = ["simulate", "--scenario", "power-fdr", "--n", "40", "--replications", "1",
            "--param", "p_grid=8", "--param", "n_signal=3"]
    assert main(argv) == 2
    assert "q_last=0.99: ceil(n q) = n gives an all-ones column at n=40" in capsys.readouterr().err
    # a --param value that does not convert exactly to its default's type
    for item, message in (
        ("q_grid=abc", "parameter 'q_grid' takes float values, got 'abc'"),
        ("n_signal=3.9", "parameter 'n_signal' takes int values, got 3.9"),
        ("p_grid=12.7", "parameter 'p_grid' takes int values, got 12.7"),
    ):
        scenario = "bias-var" if item.startswith("q_grid") else "power-fdr"
        assert main(["simulate", "--scenario", scenario, "--param", item]) == 2
        assert message in capsys.readouterr().err
    # a non-finite penalty, oracle parameter or float --param value is named
    oracle = ["oracle", "--curve", "mean", "--delta", "0.5", "--q-grid", "0.5:0.9:2"]
    for argv, message in (
        (["fit", "--input", toy_csv, "--lambda1", "1e400"], "lam1 must be finite and >= 0, got inf"),
        (["fit", "--input", toy_csv, "--lambda1", "nan"], "lam1 must be finite and >= 0, got nan"),
        ([*oracle, "--lambda1", "inf"], "lam1 must be finite, got inf"),
        ([*oracle, "--lambda1", "1", "--sigma", "inf"], "sigma_eps must be finite, got inf"),
        ([*oracle, "--lambda1", "1", "--beta=-inf"], "beta must be finite, got -inf"),
        (["simulate", "--scenario", "mixed-data", "--param", "snr=inf"],
         "parameter 'snr' takes finite float values, got inf"),
        (["simulate", "--scenario", "power-fdr", "--param", "n_signal=inf"],
         "parameter 'n_signal' takes int values, got inf"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_usage_error_leaves_no_output(tmp_path, toy_csv):
    out = tmp_path / "result.json"
    code = main(["fit", "--input", toy_csv, "--out", str(out)])  # no penalty
    assert code == 1
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()


def test_fit_stdout_payload(toy_csv, capsys):
    assert main(["fit", "--input", toy_csv, "--normalize", "std", "--lambda1", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {row["term"]: row for row in payload["results"]}
    assert set(rows) == {"(intercept)", "x1", "x2", "x3"}
    assert rows["x1"]["selected"] == 1
    assert rows["x1"]["estimate"] == pytest.approx(2.0, abs=0.2)
    manifest = payload["manifest"]
    assert manifest["command"] == "fit"
    assert manifest["version"]
    assert manifest["lam1"] == 5.0 and manifest["lam2"] == 0.0
    assert manifest["converged"] is True
    assert "x1" in manifest["support"]


def test_fit_above_lambda_max_reports_empty_support(tmp_path, toy_csv, capsys):
    data = cli._io.read_delimited(toy_csv)
    plan = compute_plan(data, Standardize())
    normalized = cli._normalize.apply(data, plan)
    lam = 1.1 * cli.lambda_max(normalized)
    code = main([
        "fit", "--input", toy_csv, "--normalize", "std", "--lambda1", str(lam),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["support"] == []
    assert payload["manifest"]["support_size"] == 0
    assert all(r["selected"] == 0 for r in payload["results"] if r["term"] != "(intercept)")


def test_fit_alpha_lambda_parameterization(toy_csv, capsys):
    assert main([
        "fit", "--input", toy_csv, "--normalize", "std",
        "--alpha", "0.25", "--lambda", "8",
    ]) == 0
    manifest = json.loads(capsys.readouterr().out)["manifest"]
    assert manifest["lam1"] == pytest.approx(2.0)
    assert manifest["lam2"] == pytest.approx(6.0)


def test_fit_strict_non_convergence_exits_three(toy_csv, monkeypatch, capsys):
    stuck = FitResult(
        beta_norm=np.zeros(3),
        beta0_norm=0.0,
        beta=np.zeros(3),
        beta0=0.0,
        sweeps_used=1,
        converged=False,
        objective_value=1.0,
        lam1=1.0,
        lam2=0.0,
    )
    monkeypatch.setattr(cli, "_fit", lambda *a, **k: stuck)
    assert main(["fit", "--input", toy_csv, "--lambda1", "1", "--strict"]) == 3
    assert "no convergence" in capsys.readouterr().err
    # without --strict the result is still reported
    assert main(["fit", "--input", toy_csv, "--lambda1", "1"]) == 0


def test_fit_sparse_input(tmp_path, capsys):
    path = tmp_path / "data.sp"
    path.write_text("2.0 1:1\n0.0 2:1\n2.2 1:1 3:1\n-0.1 2:1 3:1\n1.9 1:1\n0.1 2:1\n")
    assert main(["fit", "--input", str(path), "--input-format", "sparse",
                 "--lambda1", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {row["term"]: row for row in payload["results"]}
    assert set(rows) == {"(intercept)", "x1", "x2", "x3"}
    assert rows["x1"]["estimate"] > 0.5


def test_fit_headerless_numeric_response(tmp_path, capsys):
    path = tmp_path / "plain.csv"
    path.write_text("1,3.0\n0,1.0\n1,3.1\n0,0.9\n")
    assert main(["fit", "--input", str(path), "--no-header", "--response", "1",
                 "--lambda1", "0.1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {row["term"] for row in payload["results"]} == {"(intercept)", "x1"}


def test_oracle_noiseless_curve_constant(capsys):
    code = main([
        "oracle", "--curve", "noiseless", "--delta", "1", "--beta", "1",
        "--n", "100", "--lambda1", "10", "--q-grid", "0.5:0.99:50",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    values = [row["value"] for row in payload["results"]]
    assert len(values) == 50
    assert all(v == pytest.approx(0.9, abs=1e-12) for v in values)


def test_oracle_limits_rows(capsys):
    code = main([
        "oracle", "--curve", "limits", "--lambda1", "5", "--lambda2", "10",
        "--exponent-grid", "0:1:3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {row["exponent"]: row for row in payload["results"]}
    assert rows[0.0]["variance_kind"] == "zero"
    assert rows[1.0]["variance_kind"] == "infinite"
    assert rows[1.0]["selection"] == 1.0


def test_stdout_records_are_json_and_equal_the_json_file(tmp_path, capsys):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    argv = ["oracle", "--curve", "limits", "--delta", "0.75", "--lambda1", "5",
            "--exponent-grid", "0:1:3"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
    out = tmp_path / "limits.json"
    assert main([*argv, "--out", str(out), "--format", "json"]) == 0
    assert printed == json.loads(out.read_text(), parse_constant=reject)
    assert [row["variance"] for row in printed] == [0.0, "Inf", "Inf"]


def test_oracle_gumbel_rows(capsys):
    assert main(["oracle", "--curve", "gumbel", "--n-grid", "10,100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ns = [row["n"] for row in payload["results"]]
    assert ns == [10, 100]
    means = [row["mean"] for row in payload["results"]]
    assert means[1] > means[0]


def test_normalize_rows_match_plan(tmp_path, toy_csv, capsys):
    assert main(["normalize", "--input", toy_csv, "--normalize", "std"]) == 0
    payload = json.loads(capsys.readouterr().out)
    data = cli._io.read_delimited(toy_csv)
    plan = compute_plan(data, Standardize())
    for j, row in enumerate(payload["results"]):
        assert row["term"] == data.names[j]
        assert row["kind"] == data.kinds[j]
        assert row["center"] == pytest.approx(plan.centers[j])
        assert row["scale"] == pytest.approx(plan.scales[j])


def test_simulate_deterministic_files(tmp_path):
    args = [
        "simulate", "--scenario", "selection-probability", "--seed", "7",
        "--n", "100", "--replications", "3",
        "--param", "q_grid=0.5,0.8", "--param", "delta_grid=1.0",
        "--param", "lambda1_grid=5.0", "--param", "sigma_grid=1.0",
    ]
    out1, out2 = tmp_path / "sel1.csv", tmp_path / "sel2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    sum1 = tmp_path / "sel1.summary.csv"
    sum2 = tmp_path / "sel2.summary.csv"
    assert sum1.read_bytes() == sum2.read_bytes()
    manifest = json.loads((tmp_path / "sel1.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert manifest["scenario"] == "selection-probability"
    assert manifest["resolved"]["n"] == 100
    header = out1.read_text().splitlines()[0]
    assert header == "scenario,replication,q,delta,lambda1,sigma,metric,value"


def test_simulate_summary_without_extension_takes_the_format(tmp_path):
    out = tmp_path / "res"
    argv = ["simulate", "--scenario", "bias-var", "--n", "30", "--replications", "2",
            "--param", "q_grid=0.5", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    summary = json.loads((tmp_path / "res.summary.json").read_text())
    assert summary[0]["scenario"] == "bias-var"
    assert json.loads(out.read_text())[0]["scenario"] == "bias-var"
    assert not (tmp_path / "res.summary.csv").exists()


def test_simulate_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "scenario = bias-var\n"
        "seed = 3\n"
        "replications = 2\n"
        "q_grid = 0.5\n"
        "exponent_grid = 1.0\n"
        "sigma_grid = 0.0\n"
        "model = lasso\n"
    )
    assert main(["simulate", "--config", str(cfg), "--param", "lambda1=10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["results", "summary", "manifest"]
    estimates = [r["value"] for r in payload["results"] if r["metric"] == "estimate"]
    assert estimates == pytest.approx([0.9, 0.9], abs=1e-8)
    assert payload["manifest"]["seed"] == 3
    assert "lambda1" in payload["manifest"]["overridden"]
    # an explicit --seed wins over the config's seed, 0 included
    for seed in ("0", "4"):
        assert main(["simulate", "--config", str(cfg), "--seed", seed]) == 0
        assert json.loads(capsys.readouterr().out)["manifest"]["seed"] == int(seed)


def test_cv_runs_and_reports_best(tmp_path, toy_csv, capsys):
    out = tmp_path / "cv.csv"
    code = main([
        "cv", "--input", toy_csv, "--folds", "4", "--repeats", "2",
        "--deltas", "0.0,1.0", "--lambda-count", "8", "--out", str(out),
    ])
    assert code == 0
    assert "best:" in capsys.readouterr().err
    lines = out.read_text().splitlines()
    assert lines[0] == "repeat,fold,lambda,delta,nmse"
    assert len(lines) == 1 + 2 * 4 * 2 * 8
    manifest = json.loads((tmp_path / "cv.csv.manifest.json").read_text())
    assert manifest["best"]["delta"] in (0.0, 1.0)
    assert manifest["best"]["mean_nmse"] > 0.0


def test_path_output_long_format(tmp_path, toy_csv):
    out = tmp_path / "path.csv"
    code = main([
        "path", "--input", toy_csv, "--normalize", "std",
        "--count", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,lam1,lam2,term,estimate,estimate_normalized"
    assert len(lines) == 1 + 5 * 4  # five grid points, intercept + three terms
    manifest = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert manifest["lambda_max"] > 0.0
    first = lines[1].split(",")
    assert first[3] == "(intercept)"


def test_output_to_unwritable_target_exits_two(tmp_path, toy_csv, capsys):
    blocked = tmp_path / "dir"
    blocked.mkdir()
    code = main([
        "fit", "--input", toy_csv, "--lambda1", "1", "--out", str(blocked),
    ])
    assert code == 2
    assert "dir" in capsys.readouterr().err
