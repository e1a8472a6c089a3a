"""Generators and scenario harness.

Closed-form checks exploit noise-free cells where the solution is known in
closed form: a single binary feature gives ST(beta n) / n estimates, and
orthogonalized two-feature designs decouple, making the comparability and
weighting identities hold to solver tolerance.
"""

import ast
import hashlib
import inspect
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from normreg import (
    SCENARIOS,
    BinaryDelta,
    Dataset,
    DimensionMismatchError,
    DomainError,
    ParseError,
    RandomStream,
    ScenarioSpec,
    compute_plan,
    correlated_binary_pair,
    gen_binary,
    gen_quasinormal,
    inject_correlation,
    parse_scenario_config,
    run_scenario,
    scenario_defaults,
    sigma_for_snr,
    signal_balances,
)
from normreg import simulate
from normreg.simulate import _binary_columns, _Collector


def _gen(seed: int = 0, stream_id: int = 0) -> np.random.Generator:
    return RandomStream(seed, stream_id).generator()


def test_gen_binary_exact_counts():
    assert gen_binary(4, 0.5, _gen()).sum() == 2
    for draw in range(10):
        col = gen_binary(100, 0.73, _gen(stream_id=draw))
        assert col.sum() == 73
        assert set(np.unique(col)) <= {0.0, 1.0}
    # 1000 * 0.7 = 699.999... in floats; the ceiling must not round up
    assert gen_binary(1000, 0.7, _gen()).sum() == 700
    # a design: every column exact, 0.9995 giving k = n and 1e-12 giving k = 0
    qs = np.array([0.7, 0.05, 0.5, 0.99, 0.9995, 1e-12])
    x = _binary_columns(1000, qs, _gen())
    assert x.flags.f_contiguous
    assert set(np.unique(x)) == {0.0, 1.0}
    assert x.sum(axis=0).tolist() == [700, 50, 500, 990, 1000, 0]
    # gen_binary is column 0 of a one-column design from an equal stream
    column = _binary_columns(1000, qs[:1], _gen())[:, 0]
    assert np.array_equal(gen_binary(1000, 0.7, _gen()), column)


def test_binary_design_does_not_depend_on_the_key_block(monkeypatch):
    qs = np.linspace(0.1, 0.9, 37)
    whole = _binary_columns(50, qs, _gen(4))
    monkeypatch.setattr(simulate, "_BLOCK_KEYS", 1)
    assert np.array_equal(_binary_columns(50, qs, _gen(4)), whole)


class _KeysInOrder:
    """A stream whose random(out=...) hands out the given keys in order."""

    def __init__(self, keys):
        self.keys, self.used = keys.ravel(), 0

    def random(self, *, out):
        out.flat = self.keys[self.used : self.used + out.size]
        self.used += out.size
        return out


@pytest.mark.parametrize("block", [1, simulate._BLOCK_KEYS])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_binary_design_is_the_stable_rank_rule(monkeypatch, n, block):
    monkeypatch.setattr(simulate, "_BLOCK_KEYS", block)
    # the first two columns have k = 0 and k = n ones
    qs = np.concatenate([[1e-12, 1.0 - 1e-12], np.linspace(0.05, 0.95, 19)])
    k = simulate._ones(n, qs)[:, None]
    assert k[0] == 0 and k[1] == n

    def stable(keys):
        return (np.argsort(keys, axis=1, kind="stable") < k).T

    keys = _gen(5).random((qs.size, n))
    assert np.array_equal(_binary_columns(n, qs, _gen(5)), stable(keys))
    # keys of three values tie across the k boundary of most columns
    tied = np.floor(np.random.default_rng(n).random((qs.size, n)) * 3.0) / 4.0
    assert np.array_equal(_binary_columns(n, qs, _KeysInOrder(tied)), stable(tied))
    assert _binary_columns(n, qs[:0], _gen()).shape == (n, 0)


def test_binary_design_subsets_are_uniform():
    # 2 ones in 4 rows: each of the 6 subsets has probability 1/6
    x = _binary_columns(4, np.full(6000, 0.5), _gen(7))
    assert (x.sum(axis=0) == 2).all()
    codes = (x * np.array([[1.0], [2.0], [4.0], [8.0]])).sum(axis=0).astype(int)
    counts = np.bincount(codes, minlength=16)[[3, 5, 6, 9, 10, 12]]
    sd = math.sqrt(6000 * (1 / 6) * (5 / 6))
    assert np.abs(counts - 1000).max() <= 5 * sd


def test_binary_design_names_the_first_bad_balance_in_column_order():
    for qs, bad in (([0.5, 1.2, -0.1], "1.2"), ([0.5, 0.0], "0.0"), ([np.nan, 2.0], "nan")):
        with pytest.raises(DomainError, match=rf"q must lie in \(0, 1\), got {bad}$"):
            _binary_columns(10, np.array(qs), _gen())


def test_gen_binary_ceiling_hazard_and_validation():
    assert gen_binary(10, 0.99, _gen()).sum() == 10  # degenerate all-ones column
    with pytest.raises(DomainError):
        gen_binary(10, 0.0, _gen())
    with pytest.raises(DomainError):
        gen_binary(10, 1.0, _gen())
    with pytest.raises(DomainError):
        gen_binary(0, 0.5, _gen())


def test_gen_quasinormal_comb_values():
    col = gen_quasinormal(3, _gen())
    assert sorted(col)[1] == 0.0
    assert sorted(col)[0] == pytest.approx(-sorted(col)[2], abs=1e-12)
    for n in (2, 51, 400):
        assert abs(gen_quasinormal(n, _gen()).mean()) < 1e-10
    sd = gen_quasinormal(1000, _gen()).std()
    assert abs(sd - 1.0) < 0.02


def test_gen_quasinormal_rescaling_and_determinism():
    col = gen_quasinormal(100, _gen(seed=4), sd=0.5)
    assert col.mean() == pytest.approx(0.0, abs=1e-12)
    assert col.std() == pytest.approx(0.5, abs=1e-12)
    again = gen_quasinormal(100, _gen(seed=4), sd=0.5)
    assert np.array_equal(col, again)
    other = gen_quasinormal(100, _gen(seed=5), sd=0.5)
    assert not np.array_equal(col, other)
    # same multiset up to rescaling arithmetic, which sums in draw order
    assert np.allclose(np.sort(col), np.sort(other), atol=1e-12)
    raw_a = np.sort(gen_quasinormal(100, _gen(seed=4)))
    raw_b = np.sort(gen_quasinormal(100, _gen(seed=5)))
    assert np.array_equal(raw_a, raw_b)
    with pytest.raises(DomainError):
        gen_quasinormal(1, _gen())
    with pytest.raises(DomainError):
        gen_quasinormal(10, _gen(), sd=0.0)


def test_inject_correlation_copies_prefix():
    x = np.column_stack([gen_binary(40, 0.5, _gen(1, 0)), gen_binary(40, 0.7, _gen(1, 1))])
    same = inject_correlation(x, 0.0)
    assert np.array_equal(same, x)
    same[0, 0] = 99.0
    assert x[0, 0] != 99.0  # output is a copy
    full = inject_correlation(x, 1.0)
    assert np.array_equal(full[:20, 1], full[:20, 0])
    assert np.array_equal(full[20:], x[20:])
    with pytest.raises(DimensionMismatchError):
        inject_correlation(x[:, :1], 0.5)
    with pytest.raises(DomainError):
        inject_correlation(x, 1.5)


def test_inject_correlation_raises_realized_correlation():
    x = np.column_stack(
        [gen_binary(2000, 0.5, _gen(2, 0)), gen_binary(2000, 0.5, _gen(2, 1))]
    )
    corrs = [
        float(np.corrcoef(out[:, 0], out[:, 1])[0, 1])
        for out in (inject_correlation(x, rho) for rho in (0.0, 0.3, 0.6))
    ]
    assert corrs[0] < corrs[1] < corrs[2]


def test_sigma_for_snr_values():
    x = np.array([[0.0], [2.0]])
    assert sigma_for_snr(x, [2.0], 1.0) == pytest.approx(2.0)  # Var(signal) = 4
    xb = np.array([[1.0], [1.0], [0.0], [0.0]])
    assert sigma_for_snr(xb, [3.0], 9.0) == pytest.approx(0.5)
    assert sigma_for_snr(x, [2.0], 1e6) < 1e-2 * sigma_for_snr(x, [2.0], 1.0)
    with pytest.raises(DomainError):
        sigma_for_snr(np.ones((4, 1)), [1.0], 1.0)
    with pytest.raises(DomainError):
        sigma_for_snr(x, [2.0], 0.0)


def test_signal_balances_geometric_in_zero_fraction():
    qs = signal_balances(3, 0.5, 0.99)
    assert qs[0] == pytest.approx(0.5)
    assert qs[-1] == pytest.approx(0.99)
    ratios = (1.0 - qs[1:]) / (1.0 - qs[:-1])
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)
    with pytest.raises(DomainError):
        signal_balances(1, 0.5, 0.99)


def test_correlated_binary_pair_counts_and_feasibility():
    x = correlated_binary_pair(100, 0.5, 0.5, 0.5)
    assert x.shape == (100, 2)
    assert x[:, 0].sum() == 50 and x[:, 1].sum() == 50
    assert np.corrcoef(x[:, 0], x[:, 1])[0, 1] == pytest.approx(0.5, abs=0.03)
    assert correlated_binary_pair(100, 0.5, 0.9, 0.6) is None
    # a balance outside (0, 1) is refused, not reported as infeasible counts
    for q1, q2, bad in ((0.5, 1.2, "1.2"), (0.0, 0.5, "0.0"), (0.5, 1.0, "1.0")):
        with pytest.raises(DomainError, match=rf"q must lie in \(0, 1\), got {bad}$"):
            correlated_binary_pair(100, q1, q2, 0.0)


def test_correlated_binary_pair_columns_hold_the_ones_of_gen_binary():
    # where n q is not integral, rounding it can leave a column with one
    # fewer one than gen_binary draws at the same balance
    q1 = scenario_defaults("orthogonality")["q1"]
    for n in range(20, 61):
        for q2 in scenario_defaults("orthogonality")["q2_grid"]:
            x = correlated_binary_pair(n, q1, q2, 0.0)
            assert x is not None, (n, q2)
            expected = [gen_binary(n, q, _gen()).sum() for q in (q1, q2)]
            assert x.sum(axis=0).tolist() == expected, (n, q2)


def test_scenario_spec_validation():
    with pytest.raises(DomainError, match="unknown scenario"):
        ScenarioSpec("no-such-scenario")
    with pytest.raises(DomainError):
        ScenarioSpec("bias-var", seed=-1)
    with pytest.raises(DomainError):
        ScenarioSpec("bias-var", replications=0)
    # the seed and sizes are ints, as a config file must give them; a bool is none
    for name, value in (("n", 30.9), ("n", 30.0), ("p", True), ("replications", 2.5)):
        with pytest.raises(DomainError, match=f"{name} must be an integer, got {value!r}"):
            ScenarioSpec("bias-var", **{name: value})
    for seed in (True, 1.5):
        with pytest.raises(DomainError, match=f"63-bit integer, got {seed!r}"):
            ScenarioSpec("bias-var", seed=seed)


def test_a_size_set_as_field_and_param_is_checked_and_listed_once():
    result = run_scenario(ScenarioSpec("bias-var", n=50, replications=1, params={"n": 60}))
    assert result.manifest["overridden"] == ["n", "replications"]
    assert result.manifest["resolved"]["n"] == 60  # the param wins
    with pytest.raises(DomainError, match="n must be >= 1, got 0"):
        run_scenario(ScenarioSpec("bias-var", n=50, params={"n": 0}))
    # a param is typed by the one rule, whichever field it sets
    for params, message in (({"n": 30.9}, "parameter 'n' takes int values, got 30.9"),
                            ({"replications": True}, "takes int values, got True"),
                            ({"sigma_grid": (True,)}, "takes float values, got True"),
                            ({"noise_free": 1}, "takes bool values, got 1")):
        scenario = "mixed-data" if "noise_free" in params else "bias-var"
        with pytest.raises(DomainError, match=message):
            run_scenario(ScenarioSpec(scenario, params=params))


def test_scenario_rejects_unknown_parameter_and_override():
    with pytest.raises(DomainError, match="unknown parameter"):
        run_scenario(ScenarioSpec("bias-var", params={"bogus": 1}))
    with pytest.raises(DomainError, match="takes no n override"):
        run_scenario(ScenarioSpec("maxabs-gev", n=50))


def test_scenario_defaults_are_complete_and_copied():
    defaults = scenario_defaults("selection-probability")
    assert defaults["replications"] == 100
    defaults["replications"] = 1
    assert scenario_defaults("selection-probability")["replications"] == 100
    with pytest.raises(DomainError):
        scenario_defaults("nope")


def test_scenario_ids_in_catalogue_order():
    assert SCENARIOS == (
        "selection-probability",
        "bias-var",
        "decreasing-classbalance",
        "mixed-data",
        "interactions",
        "weighted-elnet",
        "orthogonality",
        "power-fdr",
        "predictive-sim",
        "maxabs-gev",
    )


# SHA-256 of json.dumps(list(scenario_defaults(s).items())): pins every default
# value and the key order, which stdout manifests show but golden files (written
# with sort_keys=True) do not.
DEFAULTS_DIGEST = {
    "selection-probability": "4fd98b40c2dd791297e91607263311477c0bc88405e6113318f30f6a589de6a8",
    "bias-var": "c0b3c458508a65f1d2e05a1258bd6c0179cb16bea08f470c5fa773ebbc4e8b89",
    "decreasing-classbalance": "669786383ecd2ca349e2ab884f735a2490605a079a21872ec4cb62c181892941",
    "mixed-data": "c8c86bf567a011208fa7a23b896747fec5028f59fbfd688c8be353bafff1906e",
    "interactions": "bd4ea1312aeb7d0ef822093dc5df004d26b204639929e66a986a825f15a11995",
    "weighted-elnet": "ca43901af654c9858e41183e8856c5ecbb25ad71f26ab70aa28067a53ce08d13",
    "orthogonality": "b3a2200cb608037afe070a3b0556d22dcd6895099eba6914639f369cb6adc146",
    "power-fdr": "cdbe8075b5d1efdaff23252b29fa8abfecf2a874e630474e162905dfd1ce29c0",
    "predictive-sim": "b2e368a0ab10d5cba3cad3abe536048b15980df3271c9a47a6a1dd3daaf2437e",
    "maxabs-gev": "a59f6de92465b6eea450fc8b45bd3efde1f03ff9556486e8ee039c5be03953c9",
}


@pytest.mark.parametrize("scenario", sorted(DEFAULTS_DIGEST))
def test_each_scenario_default_is_pinned_in_key_order(scenario):
    text = json.dumps(list(scenario_defaults(scenario).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULTS_DIGEST[scenario], text


def test_collector_rejects_a_cell_of_the_wrong_width():
    rec = _Collector(("q", "delta"))
    with pytest.raises(DimensionMismatchError, match="cell has 1 values"):
        rec.add(0, (0.5,), estimate=1.0)
    with pytest.raises(DimensionMismatchError, match="cell has 3 values"):
        rec.add(0, (0.5, 1.0, 2.0), estimate=1.0)
    assert rec.rows == []


def test_collector_records_one_row_per_metric_in_keyword_order():
    rec = _Collector(("q", "delta"))
    rec.add(3, (0.5, 1.0), support_size=np.int64(2), estimate=np.float64(0.25), rep=7.0)
    assert rec.rows == [
        (3, 0.5, 1.0, "support_size", 2.0),
        (3, 0.5, 1.0, "estimate", 0.25),
        (3, 0.5, 1.0, "rep", 7.0),
    ]
    assert all(type(row[-1]) is float for row in rec.rows)


SMALL_SELECTION = dict(
    n=200,
    replications=3,
    params={
        "q_grid": (0.5, 0.9),
        "delta_grid": (0.0, 1.0),
        "lambda1_grid": (10.0,),
        "sigma_grid": (1.0,),
    },
)


def test_run_scenario_bit_exact_determinism():
    first = run_scenario(ScenarioSpec("selection-probability", seed=5, **SMALL_SELECTION))
    second = run_scenario(ScenarioSpec("selection-probability", seed=5, **SMALL_SELECTION))
    assert first.rows == second.rows
    assert first.summary == second.summary
    assert first.manifest == second.manifest
    shifted = run_scenario(ScenarioSpec("selection-probability", seed=6, **SMALL_SELECTION))
    assert shifted.rows != first.rows


def test_run_scenario_row_counts_and_tables():
    result = run_scenario(ScenarioSpec("selection-probability", seed=5, **SMALL_SELECTION))
    cells = 2 * 2 * 1 * 1
    assert len(result.rows) == 3 * cells * 2
    assert len(result.summary) == cells * 2
    assert all(row[-1] == 3 for row in result.summary)  # count column
    table = result.table()
    assert table.header == (
        "scenario", "replication", "q", "delta", "lambda1", "sigma", "metric", "value",
    )
    assert all(row[0] == "selection-probability" for row in table.rows)
    summary = result.summary_table()
    assert summary.header == (
        "scenario", "q", "delta", "lambda1", "sigma", "metric", "mean", "sd", "count",
    )
    assert result.manifest["overridden"] == sorted(
        ["n", "replications", "q_grid", "delta_grid", "lambda1_grid", "sigma_grid"]
    )
    assert result.manifest["resolved"]["n"] == 200
    assert result.manifest["skipped"] == []


def test_run_scenario_skips_degenerate_class_balance():
    spec = ScenarioSpec(
        "selection-probability",
        n=10,
        replications=2,
        params={
            "q_grid": (0.5, 0.99),
            "delta_grid": (0.5,),
            "lambda1_grid": (1.0,),
            "sigma_grid": (1.0,),
        },
    )
    result = run_scenario(spec)
    assert len(result.manifest["skipped"]) == 1
    assert "q=0.99" in result.manifest["skipped"][0]
    assert {row[1] for row in result.rows} == {0.5}


def test_bias_var_noise_free_lasso_matches_soft_threshold():
    spec = ScenarioSpec(
        "bias-var",
        replications=2,
        params={
            "model": "lasso",
            "q_grid": (0.5, 0.75),
            "exponent_grid": (1.0,),
            "sigma_grid": (0.0,),
            "lambda1": 10.0,
        },
    )
    result = run_scenario(spec)
    by_metric = {}
    for row in result.rows:
        by_metric.setdefault(row[-2], []).append(row[-1])
    # beta_hat = ST_10(100) / 100 = 0.9 for every q at delta = 1
    assert np.allclose(by_metric["estimate"], 0.9, atol=1e-8)
    assert np.allclose(by_metric["oracle_mean"], 0.9, atol=1e-12)
    assert np.allclose(by_metric["oracle_variance"], 0.0, atol=1e-15)
    assert len(by_metric["estimate"]) == 2 * 2


def test_mixed_data_noise_free_comparability_identities():
    spec = ScenarioSpec(
        "mixed-data",
        n=400,
        replications=2,
        params={
            "q_grid": (0.5, 0.7, 0.9),
            "delta_grid": (0.5, 1.0),
            "noise_free": True,
        },
    )
    result = run_scenario(spec)
    kappa = result.manifest["resolved"]["kappa"]
    cells = {}
    for row in result.rows:
        rep, model, q, delta, metric, value = row
        cells.setdefault((rep, model, q, delta), {})[metric] = value
    checked_lasso = checked_ridge = 0
    for (rep, model, q, delta), metrics in cells.items():
        b1, b2 = metrics["estimate_binary"], metrics["estimate_continuous"]
        sd2 = metrics["sd_continuous"]
        if model == "lasso" and delta == 1.0:
            assert b1 == pytest.approx(kappa * sd2 * b2, abs=1e-6)
            checked_lasso += 1
        if model == "ridge" and delta == 0.5:
            assert b1 == pytest.approx(b2, abs=1e-6)
            checked_ridge += 1
    assert checked_lasso == 6 and checked_ridge == 6


def test_weighted_elnet_unit_omega_noise_free_is_flat_and_symmetric():
    spec = ScenarioSpec(
        "weighted-elnet",
        n=500,
        replications=2,
        params={
            "q_grid": (0.5, 0.7, 0.9),
            "omega_grid": (1.0,),
            "noise_free": True,
            "orthogonalize": True,
        },
    )
    result = run_scenario(spec)
    values = {}
    for row in result.rows:
        rep, q, omega, metric, value = row
        values.setdefault(metric, []).append(value)
    binary = np.asarray(values["estimate_binary"])
    cont = np.asarray(values["estimate_continuous"])
    # lambda = lambda_max/2 = n beta/2, split half lasso half ridge:
    # beta_hat = (n - lambda1) / (n + lambda2) = 375/625 for every column and q
    assert np.allclose(binary, 0.6, atol=1e-8)
    assert np.allclose(cont, 0.6, atol=1e-8)


def test_weighted_elnet_unit_omega_noisy_means_flat_within_error():
    spec = ScenarioSpec(
        "weighted-elnet",
        n=500,
        replications=32,
        params={"q_grid": (0.5, 0.8), "omega_grid": (1.0,)},
    )
    result = run_scenario(spec)
    # result rows are (replication, q, omega, metric, value); the standard
    # error of each cell's mean comes from the corrected sd of its estimates
    means, variances = [], []
    for q in (0.5, 0.8):
        est = np.array(
            [row[4] for row in result.rows if row[1] == q and row[3] == "estimate_binary"]
        )
        assert est.size == 32
        means.append(est.mean())
        variances.append(est.var(ddof=1) / est.size)
    assert abs(means[0] - means[1]) <= 3.0 * math.sqrt(sum(variances))


def test_orthogonality_scenario_skips_infeasible_cells():
    spec = ScenarioSpec("orthogonality", n=2000, replications=2)
    result = run_scenario(spec)
    assert len(result.manifest["skipped"]) == 3
    joined = " ".join(result.manifest["skipped"])
    assert "q2=0.9, rho=0.4" in joined
    assert "q2=0.9, rho=0.6" in joined
    assert "q2=0.8, rho=0.6" in joined
    realized = {
        (row[0], row[1]): row[3]
        for row in result.summary
        if row[2] == "realized_corr"
    }
    assert len(realized) == 5 * 3 - 3
    for (q2, rho), mean_corr in realized.items():
        assert mean_corr == pytest.approx(rho, abs=0.02)


def test_orthogonality_correlation_leaves_balance_shrinkage_intact():
    spec = ScenarioSpec(
        "orthogonality",
        replications=12,
        params={"q2_grid": (0.5, 0.6, 0.7), "rho_grid": (0.0, 0.6)},
    )
    result = run_scenario(spec)
    stats = {
        (row[0], row[1], row[2]): (row[3], row[4], row[5]) for row in result.summary
    }
    # the symmetric cell is indifferent to correlation
    for metric in ("estimate_1", "estimate_2"):
        m0, s0, c0 = stats[(0.5, 0.0, metric)]
        m6, s6, c6 = stats[(0.5, 0.6, metric)]
        assert abs(m0 - m6) <= 2.0 * math.sqrt(s0**2 / c0 + s6**2 / c6)
    # growing imbalance shrinks the second estimate under every correlation,
    # and correlation moves the curve only slightly (it sharpens the effect,
    # so exact cellwise agreement is not expected at large q2)
    for rho in (0.0, 0.6):
        curve = [stats[(q2, rho, "estimate_2")][0] for q2 in (0.5, 0.6, 0.7)]
        assert curve[0] > curve[-1]
    for q2 in (0.5, 0.6, 0.7):
        gap = abs(stats[(q2, 0.0, "estimate_2")][0] - stats[(q2, 0.6, "estimate_2")][0])
        assert gap <= 0.05


def test_decreasing_classbalance_smoke():
    spec = ScenarioSpec(
        "decreasing-classbalance",
        n=80,
        p=40,
        replications=2,
        params={
            "n_signal": 5,
            "delta_grid": (0.0,),
            "q_last": 0.9,
            "null_q_high": 0.9,
        },
    )
    result = run_scenario(spec)
    metrics = {row[3] for row in result.rows}
    assert metrics == {"estimate_01", "estimate_02", "estimate_03",
                       "estimate_04", "estimate_05", "support_size"}
    assert len(result.rows) == 2 * 1 * 6
    assert len(result.manifest["signal_balances"]) == 5
    assert "lambda1 = 2 sigma sqrt(2 log p)" in result.manifest["lambda_rule"]


def test_all_ones_columns_fit_at_zero(monkeypatch):
    # at n = 40 a balance of 0.99 rounds to 40 ones: a signal column, every
    # null column, and power-fdr's last signal column at its defaults. Each
    # gets scale 1 at every delta and a certified fit keeps it at zero.
    fits = []
    fit, fit_each = simulate.fit, simulate.fit_each

    def recorded(data, penalty, **kwargs):
        res = fit(data, penalty, **kwargs)
        fits.append((data, res))
        return res

    def recorded_each(data, penalties):
        results = fit_each(data, penalties)
        fits.extend((data, res) for res in results)
        return results

    monkeypatch.setattr(simulate, "fit", recorded)
    monkeypatch.setattr(simulate, "fit_each", recorded_each)
    deltas = {"delta_grid": (0.0, 0.5, 1.0)}
    cases = [
        ("decreasing-classbalance", {"n_signal": 5, "rho_grid": (0.0, 0.5)}, 6),
        ("decreasing-classbalance", {"n_signal": 5, "q_last": 0.9, "null_q_low": 0.98,
                                     "rho_grid": (0.0, 0.5)}, 6),
        ("power-fdr", {"p_grid": (8,), "n_signal": 3}, 3),
    ]
    for scenario, params, count in cases:
        fits.clear()
        sizes = {"p": 20} if scenario != "power-fdr" else {}
        spec = ScenarioSpec(scenario, n=40, replications=1, params={**params, **deltas}, **sizes)
        assert run_scenario(spec).rows
        assert len(fits) == count
        constant = [np.ptp(data.x, axis=0) == 0.0 for data, _ in fits]
        assert all(c.any() for c in constant[:3]), scenario  # rho = 0 keeps them whole
        for (data, res), dead in zip(fits, constant):
            assert res.converged
            assert np.all(res.beta[dead] == 0.0)


def test_power_fdr_smoke_metrics_in_range():
    spec = ScenarioSpec(
        "power-fdr",
        n=400,
        replications=2,
        params={"p_grid": (15,), "delta_grid": (0.5,), "n_signal": 5},
    )
    result = run_scenario(spec)
    values = {}
    for row in result.rows:
        values.setdefault(row[3], []).append(row[4])
    assert all(v in (0.0, 1.0) for v in values["power_all"])
    assert all(0.0 <= v <= 1.0 for v in values["fdr"])
    assert all(np.isfinite(v) and v >= 0.0 for v in values["nmse"])
    assert all(0 <= v <= 15 for v in values["support_size"])


def test_predictive_sim_smoke():
    spec = ScenarioSpec(
        "predictive-sim",
        n=60,
        p=30,
        replications=1,
        params={
            "n_signal": 5,
            "snr_grid": (1.0,),
            "delta_grid": (0.5,),
            "path_count": 20,
            "q_last": 0.9,
            "null_q_high": 0.9,
        },
    )
    result = run_scenario(spec)
    values = {row[3]: row[4] for row in result.rows}
    assert np.isfinite(values["nmse_test"]) and values["nmse_test"] >= 0.0
    assert values["lambda_selected"] > 0.0
    assert values["support_size"] >= 0


def test_maxabs_gev_part_a_tracks_gumbel_mean():
    spec = ScenarioSpec(
        "maxabs-gev", replications=50, params={"n_grid": (10, 100)}
    )
    result = run_scenario(spec)
    empirical = {}
    gumbel = {}
    for row in result.rows:
        rep, part, n, metric, value = row
        if metric == "maxabs":
            empirical.setdefault(n, []).append(value)
        else:
            gumbel.setdefault(n, set()).add(value)
    for n in (10, 100):
        assert len(gumbel[n]) == 1  # constant approximation per cell
        mean = float(np.mean(empirical[n]))
        assert mean == pytest.approx(gumbel[n].pop(), rel=0.10)
    assert np.mean(empirical[100]) > np.mean(empirical[10])


def test_maxabs_gev_part_b_normal_coefficient_shrinks():
    spec = ScenarioSpec(
        "maxabs-gev",
        replications=3,
        params={"part": "b", "n_grid": (20, 400)},
    )
    result = run_scenario(spec)
    normal = {}
    for row in result.rows:
        rep, part, n, metric, value = row
        if metric == "estimate_normal":
            normal.setdefault(n, []).append(abs(value))
    assert np.mean(normal[400]) <= np.mean(normal[20])


def test_parse_scenario_config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# scenario configuration\n"
        "scenario = bias-var\n"
        "seed = 3\n"
        "replications = 7  # inline comment\n"
        "q_grid = 0.5, 0.75\n"
        "model = ridge\n"
        "lambda2 = 12.5\n"
    )
    spec = parse_scenario_config(path)
    assert spec.scenario == "bias-var"
    assert spec.seed == 3
    assert spec.replications == 7
    assert spec.params == {"q_grid": (0.5, 0.75), "model": "ridge", "lambda2": 12.5}


def test_parse_value_agrees_between_config_and_param(tmp_path):
    from normreg.cli import _parse_param

    path = tmp_path / "cfg.txt"
    for line, want in [
        ("noise_free = TRUE", True),
        ("lambda1 = 7", 7),
        ("rate = 2.5e-1", 0.25),
        ("model = ridge", "ridge"),
        ("q_grid = 0.5, 0.75,1", (0.5, 0.75, 1)),
    ]:
        path.write_text(f"scenario = bias-var\n{line}\n")
        params = parse_scenario_config(path).params
        key, value = _parse_param(line)
        assert params == {key: value}
        assert repr(value) == repr(want)


def test_delta_scales_equal_compute_plan_with_constant_columns():
    from normreg.simulate import _delta_scales

    x = np.column_stack([gen_binary(40, q, _gen(stream_id=j)) for j, q in
                         enumerate((0.5, 0.1, 0.3, 0.85, 0.95))])
    x = np.column_stack([x, np.zeros(40), np.ones(40)])
    data = Dataset(x=x, y=np.zeros(40))
    balances = x.mean(axis=0).tolist()
    for delta in (0.0, 0.25, 0.5, 1.0):
        scales = _delta_scales(balances, delta)
        assert np.array_equal(scales, compute_plan(data, BinaryDelta(delta)).scales)
        assert np.array_equal(scales[5:], [1.0, 1.0])


def test_parse_scenario_config_errors(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("scenario = bias-var\nseed = 1\nseed = 2\n")
    with pytest.raises(ParseError, match="duplicate key"):
        parse_scenario_config(path)
    path.write_text("seed = 1\n")
    with pytest.raises(ParseError, match="must set `scenario`"):
        parse_scenario_config(path)
    path.write_text("scenario = bias-var\nn = abc\n")
    with pytest.raises(ParseError, match="integer"):
        parse_scenario_config(path)
    # the error names the line of the key, not line 1
    path.write_text("scenario = bias-var\nseed = 1\n\n# sizes\nn = abc\n")
    with pytest.raises(ParseError, match=r"n must be an integer, got 'abc' \(line 5\)"):
        parse_scenario_config(path)
    path.write_text("scenario = bias-var\n= 5\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_scenario_config(path)


@pytest.mark.parametrize(
    "scenario, overrides, message",
    [
        ("bias-var", {"model": "foo"}, "model must be lasso, ridge, or weighted, got 'foo'"),
        ("mixed-data", {"model_grid": ("lasso", "foo")},
         "model_grid entries must be lasso or ridge, got 'foo'"),
        ("decreasing-classbalance", {"p": 20}, "p must exceed n_signal=20, got 20"),
        ("power-fdr", {"p_grid": (10, 40)}, "every p must exceed n_signal=10"),
        ("predictive-sim", {"p": 10}, "p must exceed n_signal=10, got 10"),
        ("predictive-sim", {"n": 5}, "n=5 leaves fewer than 2 rows per split"),
        ("maxabs-gev", {"part": "c"}, "part must be 'a' or 'b', got 'c'"),
    ],
    ids=["bias-var-model", "mixed-data-model", "decreasing-classbalance-p", "power-fdr-p",
         "predictive-sim-p", "predictive-sim-n", "maxabs-gev-part"],
)
def test_a_scenario_refuses_a_configuration_it_cannot_run(scenario, overrides, message):
    spec = ScenarioSpec(scenario=scenario, replications=1, params=overrides)
    with pytest.raises(DomainError, match=message):
        run_scenario(spec)


def _schedule_faults(source: str) -> list[str]:
    """What in source lets a worker decide which replications run: a use of
    _stream outside _replications, or a runner registered by _scenario that
    takes other parameters than (cfg, rec, reps)."""
    faults = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        if node.name != "_replications":
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and inner.id == "_stream":
                    faults.append(f"{node.name} uses _stream")
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", None) == "_scenario":
                if ast.unparse(node.args) != "cfg, rec, reps":
                    faults.append(f"{node.name} takes ({ast.unparse(node.args)})")
    return faults


def test_streams_are_made_only_by_replications_and_runners_take_cfg_rec_reps():
    # run_scenario alone decides which replications run: a runner sees no
    # spec, so no seed, and loops over the replications it is handed
    source = pathlib.Path(simulate.__file__).read_text(encoding="utf-8")
    assert _schedule_faults(source) == []
    runners = {entry[2] for entry in simulate._CATALOGUE.values()}
    assert len(runners) == len(SCENARIOS)
    assert all(inspect.getsource(runner).startswith("@_scenario(") for runner in runners)


def test_the_schedule_check_sees_a_runner_that_makes_its_own_streams():
    source = (
        "def _replications(seed, count):\n    yield 0, _stream(seed, 0, 0)\n"
        "@_scenario('x', ())\ndef _run(spec, cfg, rec):\n    g = _stream(spec.seed, 0, 2)\n"
    )
    assert _schedule_faults(source) == ["_run uses _stream", "_run takes (spec, cfg, rec)"]


@pytest.mark.parametrize(
    "scenario, sizes",
    [
        ("power-fdr", dict(n=4000, params={"p_grid": (20, 50), "delta_grid": (1.0,)})),
        ("predictive-sim", dict(n=1500, p=150, params={"snr_grid": (1.0,), "path_count": 3})),
        ("decreasing-classbalance", dict(n=2000, p=100, params={"delta_grid": (1.0,)})),
    ],
)
def test_a_replication_draws_its_design_after_the_last_one_is_gone(scenario, sizes):
    # a runner that kept the last design while drawing the next would peak
    # one design higher at two replications than at one
    spec = dict(sizes, params={**sizes["params"], "delta_grid": (1.0,), "n_signal": 3})
    design = 8 * spec["n"] * (spec.get("p") or max(spec["params"]["p_grid"]))
    run_scenario(ScenarioSpec(scenario, seed=3, replications=1, **spec))  # caches and imports
    peaks = []
    for replications in (1, 2):
        tracemalloc.start()
        try:
            run_scenario(ScenarioSpec(scenario, seed=3, replications=replications, **spec))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < design / 2, (peaks, design)
