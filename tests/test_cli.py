"""Command-line behavior: exit codes, output files, stdout payloads.

Everything runs in-process through main(argv) so exit codes and stderr text
can be asserted without spawning subprocesses.
"""

import dataclasses
import json

import numpy as np
import pytest

import normreg.cli as cli
import normreg.solver
from normreg import Dataset, FitResult, compute_plan, infer_kinds, Standardize, write_delimited
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
    # the two oracle scalings exclude each other
    assert main(["oracle", "--curve", "limits", "--lambda1", "1",
                 "--delta", "0.5", "--omega", "0.5"]) == 1
    assert "--delta and --omega are mutually exclusive" in capsys.readouterr().err
    # malformed grids and lists
    mean = ["oracle", "--curve", "mean", "--delta", "0.5", "--lambda1", "1", "--q-grid"]
    for argv, message in (
        ([*mean, "0.1:0.9"], "expected lo:hi:count, got '0.1:0.9'"),
        ([*mean, "0.1:0.9:0"], "grid count must be >= 1"),
        (["oracle", "--curve", "gumbel", "--n-grid", "10,x"],
         "expected comma-separated integers, got '10,x'"),
        (["cv", "--input", toy_csv, "--deltas", "0,abc"],
         "expected comma-separated numbers, got '0,abc'"),
    ):
        assert main(argv) == 1, argv
        assert message in capsys.readouterr().err, argv


def test_data_errors_exit_two(tmp_path, toy_csv, capsys):
    missing = str(tmp_path / "nope.csv")
    assert main(["fit", "--input", missing, "--lambda1", "1"]) == 2
    assert "nope.csv" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("a,y\n1,oops\n")
    assert main(["fit", "--input", str(bad), "--lambda1", "1"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column 2" in err
    # a --param value that does not convert exactly to its default's type
    for scenario, item, message in (
        ("bias-var", "q_grid=abc", "parameter 'q_grid' takes float values, got 'abc'"),
        ("power-fdr", "n_signal=3.9", "parameter 'n_signal' takes int values, got 3.9"),
        ("power-fdr", "p_grid=12.7", "parameter 'p_grid' takes int values, got 12.7"),
        # a bool is not a number, nor a number a bool
        ("bias-var", "sigma_grid=true", "parameter 'sigma_grid' takes float values, got True"),
        ("power-fdr", "n_signal=false", "parameter 'n_signal' takes int values, got False"),
        ("mixed-data", "noise_free=1", "parameter 'noise_free' takes bool values, got 1"),
    ):
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
        (["simulate", "--scenario", "power-fdr", "--n", "40", "--param", "p_grid=8",
          "--param", "n_signal=3", "--param", "null_q_low=1.2", "--param", "null_q_high=1.5",
          "--param", "delta_grid=0"],
         "q must lie in (0, 1), got 1.4828812658648638"),
        (["cv", "--input", toy_csv, "--seed", "-1"], "master_seed must be non-negative, got -1"),
        # a class balance outside (0, 1) in a grid or setting is refused, not skipped
        (["simulate", "--scenario", "selection-probability", "--n", "30", "--replications", "1",
          "--param", "q_grid=0.5,1.5"], "q must lie in (0, 1), got 1.5"),
        (["simulate", "--scenario", "mixed-data", "--n", "30", "--replications", "1",
          "--param", "q_grid=0.5,1.0"], "q must lie in (0, 1), got 1.0"),
        (["simulate", "--scenario", "orthogonality", "--n", "30", "--replications", "1",
          "--param", "q2_grid=0.5,1.2"], "q must lie in (0, 1), got 1.2"),
        (["simulate", "--scenario", "maxabs-gev", "--replications", "1", "--param", "part=b",
          "--param", "q=1.0"], "q must lie in (0, 1), got 1.0"),
        # n, p and replications get one check, set as fields or as params
        (["simulate", "--scenario", "decreasing-classbalance", "--replications", "0"],
         "replications must be >= 1, got 0"),
        (["simulate", "--scenario", "decreasing-classbalance", "--param", "replications=0"],
         "replications must be >= 1, got 0"),
        (["simulate", "--scenario", "decreasing-classbalance", "--param", "n=0"],
         "n must be >= 1, got 0"),
        (["simulate", "--scenario", "decreasing-classbalance", "--param", "p=0"],
         "p must be >= 1, got 0"),
        # a grid whose every cell is skipped fails, naming the skips
        (["simulate", "--scenario", "selection-probability", "--n", "50", "--param",
          "q_grid=0.999"],
         "produced no cells: q=0.999: ceil(n q) = n gives an all-ones column"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    # non-finite oracle and normalization parameters are named, and so is a gumbel
    # quantile that leaves the float range
    gumbel = ["oracle", "--curve", "gumbel", "--n-grid", "10"]
    limits = ["oracle", "--curve", "limits", "--lambda1", "1"]
    binary = ["fit", "--input", toy_csv, "--lambda1", "1", "--normalize", "binary-delta"]
    for argv, message in (
        ([*gumbel, "--mu", "inf"], "mu must be finite, got inf"),
        ([*gumbel, "--mu", "nan"], "mu must be finite, got nan"),
        ([*gumbel, "--sd", "inf"], "sigma must be finite and positive, got inf"),
        ([*gumbel, "--sd", "nan"], "sigma must be finite and positive, got nan"),
        ([*gumbel, "--mu", "1e308"], "quantile of |N(1e+308, 1.0^2)| has no finite bracket"),
        ([*limits, "--exponent-grid", "nan:1:2"],
         "--exponent-grid bounds must be finite, got nan:1.0"),
        ([*limits, "--exponent-grid", "0:inf:2"],
         "--exponent-grid bounds must be finite, got 0.0:inf"),
        ([*oracle, "--lambda1", "1", "--q-grid", "0.5:inf:2"],
         "--q-grid bounds must be finite, got 0.5:inf"),
        ([*oracle, "--lambda1", "1", "--q0", "nan"], "q0 must lie in (0, 1), got nan"),
        ([*limits, "--omega", "nan"], "omega must be finite and >= 0, got nan"),
        ([*limits, "--delta", "0.5", "--kappa", "nan"], "kappa must be finite and > 0, got nan"),
        ([*binary, "--delta", "nan"], "delta must be finite and >= 0, got nan"),
        ([*binary, "--kappa", "inf"], "kappa must be finite and > 0, got inf"),
        (["fit", "--input", toy_csv, "--lambda1", "1", "--omega", "nan"],
         "--omega must be finite, got nan"),
        (["path", "--input", toy_csv, "--omega", "inf"], "--omega must be finite, got inf"),
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


def test_fit_on_a_table_of_only_the_response_is_the_null_model(tmp_path, capsys):
    path = tmp_path / "y.csv"
    path.write_text("y\n1.0\n2.5\n0.3\n-1.0\n0.7\n")
    for normalize in ("none", "std", "binary-delta"):
        argv = ["fit", "--input", str(path), "--lambda1", "1", "--normalize", normalize]
        assert main([*argv, "--strict"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["converged"] is True
        assert [row["term"] for row in payload["results"]] == ["(intercept)"]
        assert payload["results"][0]["estimate"] == pytest.approx(0.7, abs=1e-15)


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
        kkt_residual=0.25,
    )
    monkeypatch.setattr(cli, "_fit", lambda *a, **k: stuck)
    assert main(["fit", "--input", toy_csv, "--lambda1", "1", "--strict"]) == 3
    assert "failed the KKT certificate (residual 0.25)" in capsys.readouterr().err
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


def test_non_finite_manifest_values_are_json_tokens(tmp_path, capsys):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    # the gumbel curve records --beta and --sigma without using them; --q0,
    # which the other curves record, must be finite (test_data_errors_exit_two)
    for argv, expected in (
        (["oracle", "--curve", "gumbel", "--n-grid", "10", "--sigma", "nan", "--beta", "inf"],
         {"beta": "Inf", "sigma": "NaN"}),
    ):
        assert main(argv) == 0
        printed = json.loads(capsys.readouterr().out, parse_constant=reject)["manifest"]
        out = tmp_path / "oracle.csv"
        assert main([*argv, "--out", str(out)]) == 0
        written = (tmp_path / "oracle.csv.manifest.json").read_text()
        assert printed == json.loads(written, parse_constant=reject)
        assert {key: printed[key] for key in expected} == expected


def test_oracle_gumbel_rows(capsys):
    assert main(["oracle", "--curve", "gumbel", "--n-grid", "10,100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ns = [row["n"] for row in payload["results"]]
    assert ns == [10, 100]
    means = [row["mean"] for row in payload["results"]]
    assert means[1] > means[0]


def test_oracle_gumbel_scale_holds_at_a_huge_mean(capsys):
    # the mean in units of sd is what counts: 1e3, 1e17 and 1e300
    scales = []
    for mu, sd in (("1e3", "1"), ("1e17", "1"), ("1", "1e-300")):
        argv = ["oracle", "--curve", "gumbel", "--n-grid", "10", "--mu", mu, "--sd", sd]
        assert main(argv) == 0
        scales.append(json.loads(capsys.readouterr().out)["results"][0]["scale"] / float(sd))
    assert scales[0] == pytest.approx(0.5698059856, abs=1e-9)
    assert scales[1] == pytest.approx(scales[0], abs=1e-9)
    assert scales[2] == pytest.approx(scales[0], rel=1e-9)


def test_normalize_rows_match_plan(tmp_path, toy_csv, capsys):
    assert main(["normalize", "--input", toy_csv, "--normalize", "std"]) == 0
    payload = json.loads(capsys.readouterr().out)
    data = cli._io.read_delimited(toy_csv)
    plan = compute_plan(data, Standardize())
    for j, row in enumerate(payload["results"]):
        assert row["term"] == data.names[j]
        assert row["kind"] == infer_kinds(data.x)[j]
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


def test_path_strict_uncertified_points_exit_three(tmp_path, toy_csv, monkeypatch, capsys):
    exact = normreg.solver.fit

    def uncertified(*args, **kwargs):
        return dataclasses.replace(exact(*args, **kwargs), converged=False)

    monkeypatch.setattr(normreg.solver, "fit", uncertified)
    out = tmp_path / "path.csv"
    argv = ["path", "--input", toy_csv, "--count", "5", "--out", str(out)]
    assert main([*argv, "--strict"]) == 3
    assert "5 grid points failed the KKT certificate" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "path.csv.manifest.json").exists()
    # without --strict the path is still written, and its manifest counts them
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "path.csv.manifest.json").read_text())
    assert manifest["non_converged"] == 5


def test_cv_scores_every_fold_of_a_binary_column_with_one_positive(tmp_path, capsys):
    rng = np.random.default_rng(13)
    x = np.column_stack([rng.standard_normal(40), np.zeros(40)])
    x[7, 1] = 1.0
    y = x[:, 0] + x[:, 1] + 0.5 * rng.standard_normal(40)
    data = tmp_path / "rare.csv"
    write_delimited(Dataset(x=x, y=y), data)
    out = tmp_path / "cv.csv"
    code = main([
        "cv", "--input", str(data), "--folds", "4", "--repeats", "2",
        "--deltas", "0,0.5,1", "--lambda-count", "5", "--out", str(out),
    ])
    assert code == 0
    assert "best:" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "cv.csv.manifest.json").read_text())
    # in each repeat the fold that holds row 7 out trains on an all-zero
    # column; it gets scale 1 at every delta, so every fold is scored
    assert manifest["skipped"] == []
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 4 * 3 * 5


def test_cv_leave_one_out_reports_only_the_selection(tmp_path, capsys):
    # a held-out fold of one row has a constant response and no NMSE of its
    # own, so its rows are skipped; the selection, scored on the pooled
    # squared errors, is the one row written
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 2))
    data = tmp_path / "six.csv"
    write_delimited(Dataset(x=x, y=x[:, 0] + 0.1 * rng.standard_normal(6)), data)
    out = tmp_path / "loo.csv"
    code = main(["cv", "--input", str(data), "--folds", "6", "--repeats", "1",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    assert "best:" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "loo.csv.manifest.json").read_text())
    assert len(manifest["skipped"]) == 6
    best = manifest["best"]
    assert best["mean_nmse"] > 0.0
    lines = out.read_text().splitlines()
    assert lines[0] == "repeat,fold,lambda,delta,nmse"
    assert [[float(v) for v in line.split(",")] for line in lines[1:]] == [
        [-1.0, -1.0, best["lambda"], best["delta"], best["mean_nmse"]]
    ]


def test_constant_columns_fit_at_zero(tmp_path, capsys):
    # a constant continuous column (x2) and an all-zero binary column (x4) get
    # scale 1 under every strategy and weight 1 under --omega, and every fit
    # leaves both at zero
    rng = np.random.default_rng(21)
    x = np.column_stack([
        rng.standard_normal(30), np.full(30, 3.0), rng.integers(0, 2, 30).astype(float),
        np.zeros(30),
    ])
    y = x[:, 0] - x[:, 2] + 0.3 * rng.standard_normal(30)
    data = tmp_path / "constant.csv"
    write_delimited(Dataset(x=x, y=y), data)
    out = tmp_path / "out.csv"

    def run(*argv):
        assert main([*argv, "--input", str(data), "--out", str(out)]) == 0, argv
        return [line.split(",") for line in out.read_text().splitlines()[1:]]

    for normalize in ("none", "std", "binary-delta"):
        for omega in ((), ("--omega", "0.5")):
            rows = run("fit", "--normalize", normalize, "--lambda1", "1", *omega, "--strict",
                       "--format", "csv")
            assert [float(row[1]) for row in rows if row[0] in ("x2", "x4")] == [0.0, 0.0]
    for normalize in ("none", "std"):
        rows = run("path", "--normalize", normalize, "--omega", "1", "--count", "4", "--strict")
        constant = [float(row[4]) for row in rows if row[3] in ("x2", "x4")]
        assert constant == [0.0] * 8
    rows = run("normalize", "--normalize", "std")
    plan = {row[0]: (float(row[2]), float(row[3])) for row in rows}
    assert (plan["x2"], plan["x4"]) == ((3.0, 1.0), (0.0, 1.0))
    run("cv", "--folds", "3", "--repeats", "1", "--deltas", "0,1", "--lambda-count", "4")
    assert json.loads((tmp_path / "out.csv.manifest.json").read_text())["skipped"] == []
    capsys.readouterr()


def test_output_to_unwritable_target_exits_two(tmp_path, toy_csv, capsys):
    blocked = tmp_path / "dir"
    blocked.mkdir()
    code = main([
        "fit", "--input", toy_csv, "--lambda1", "1", "--out", str(blocked),
    ])
    assert code == 2
    assert "dir" in capsys.readouterr().err
