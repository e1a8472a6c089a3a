"""Golden digests: pinned SHA-256 of every scenario's output at a small scale.

Criterion 10 proves that two runs of the same code agree; these digests
prove that code before and after a refactor agrees. Each case runs through
cli.main with --out and hashes the result file, the summary file (simulate)
and the manifest with its input path removed, so a changed skip message or
resolved parameter shows up too.

A change that is meant to move numbers re-pins the digests; print the
current ones, each that differs from GOLDEN marked, and the PINNED_ON line
for this host, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from normreg import Dataset, ScenarioSpec, simulate, write_delimited
from normreg.cli import main
from normreg.simulate import parse_value


def _simulate(scenario: str, *params: str, **sizes: int) -> list[str]:
    argv = ["simulate", "--scenario", scenario, "--seed", "5"]
    for name, value in sizes.items():
        argv += [f"--{name}", str(value)]
    for item in params:
        argv += ["--param", item]
    return argv


# Small designs that still reach every branch: each q-grid holds one balance
# that rounds to an all-ones column, so the skip message is pinned as well.
CASES = {
    "selection-probability": _simulate(
        "selection-probability", "q_grid=0.5,0.7,0.99", "delta_grid=0,0.5,1",
        n=50, replications=3,
    ),
    "bias-var": _simulate(
        "bias-var", "q_grid=0.5,0.75,0.99", "sigma_grid=0,1", n=30, replications=3,
    ),
    "bias-var-weighted": _simulate(
        "bias-var", "model=weighted", "q_grid=0.5,0.99", n=30, replications=2,
    ),
    "bias-var-json": [
        *_simulate("bias-var", "q_grid=0.5,0.99", "sigma_grid=1", n=30, replications=2),
        "--format", "json",
    ],
    "decreasing-classbalance": _simulate(
        "decreasing-classbalance", "n_signal=4", "q_last=0.9", "null_q_high=0.9",
        "delta_grid=0,1", "rho_grid=0,0.4", n=40, p=12, replications=2,
    ),
    # p > n, as in predictive-sim-wide's 20 training rows: the two wide cases
    # reach the designs whose homotopy steps each pass over X
    "decreasing-classbalance-wide": _simulate(
        "decreasing-classbalance", "n_signal=4", "q_last=0.9", "null_q_high=0.9",
        "delta_grid=0,0.5,1", n=40, p=60, replications=2,
    ),
    # active sets of up to 63 columns, past the solver's _RANK = 32, beyond
    # which updates of M_A^{-1} are kept pending
    "decreasing-classbalance-wide-large": _simulate(
        "decreasing-classbalance", "n_signal=4", "q_last=0.9", "null_q_high=0.9",
        "delta_grid=0,0.5,1", n=80, p=120, replications=2,
    ),
    "mixed-data": _simulate(
        "mixed-data", "q_grid=0.5,0.9,0.99", "delta_grid=0,0.5,1", n=50, replications=2,
    ),
    "interactions": _simulate(
        "interactions", "q_grid=0.5,0.99", "beta3_grid=0,2", n=50, replications=2,
    ),
    "weighted-elnet": _simulate(
        "weighted-elnet", "q_grid=0.5,0.8,0.99", "omega_grid=0,1", n=50, replications=2,
    ),
    "orthogonality": _simulate("orthogonality", "q2_grid=0.5,0.8", n=200, replications=3),
    "power-fdr": _simulate(
        "power-fdr", "p_grid=6,9", "n_signal=3", "q_last=0.9", "null_q_high=0.9",
        "delta_grid=0,1", n=200, replications=2,
    ),
    "predictive-sim": _simulate(
        "predictive-sim", "n_signal=3", "snr_grid=1,4", "path_count=4", "q_last=0.9",
        "null_q_high=0.9", n=60, p=15, replications=2,
    ),
    "predictive-sim-wide": _simulate(
        "predictive-sim", "n_signal=3", "snr_grid=1,4", "path_count=4", "q_last=0.9",
        "null_q_high=0.9", n=60, p=40, replications=2,
    ),
    "maxabs-gev-a": _simulate("maxabs-gev", "n_grid=10,100", replications=3),
    "maxabs-gev-b": _simulate("maxabs-gev", "part=b", "n_grid=1,10,100", replications=3),
    "cv": ["cv", "--folds", "3", "--repeats", "2", "--deltas", "0,0.5,1",
           "--lambda-count", "6", "--seed", "5"],
    "cv-rare": ["cv", "--folds", "4", "--repeats", "2", "--deltas", "0,0.5,1",
                "--lambda-count", "6", "--seed", "5"],
    "fit-std": ["fit", "--normalize", "std", "--lambda1", "5"],
    "fit-omega": ["fit", "--omega", "0.5", "--lambda1", "3", "--lambda2", "2"],
    "path": ["path", "--normalize", "std", "--count", "6"],
    "path-omega": ["path", "--normalize", "std", "--omega", "0.5", "--count", "6"],
    "path-binary-delta": ["path", "--normalize", "binary-delta", "--delta", "1",
                          "--alpha", "0.7", "--count", "6"],
}

# Float output can move by an ulp with the BLAS dot kernel, numpy's SIMD pow
# or libm, so the digests hold for the host below; a mismatch prints this
# host's description next to it to tell a host difference from a code change.
PINNED_ON = "numpy 2.4.6, scipy-openblas 0.3.31.188.0, x86_64, glibc 2.36, AVX512F"


def _host() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        features = {}
    simd = next((f for f in ("AVX512F", "AVX2", "SSE42", "ASIMD") if features.get(f)), "no SIMD")
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown BLAS"
    libc = " ".join(platform.libc_ver()) or "unknown libc"
    return f"numpy {np.__version__}, {blas}, {platform.machine()}, {libc}, {simd}"


GOLDEN = {
    "bias-var": "786c5a77a8f9dcb3437e5f702f9f86000d3d3c1e65e1cac22a32639fea52fd9d",
    "bias-var-json": "bd3920587959415873c9137b88ea32e554eec35fd92bc3d42ea73b54614a317f",
    "bias-var-weighted": "85415a0e4b2bdb467a5dbc951b27144afd9f6c6645f4a481b2c744d7005e73e6",
    "cv": "a2759925f2c79b2faf6791409024f5a822817f2cce767ccbf95267386dd81a44",
    "cv-rare": "1a7e012a34890bc3a7af0ce807d7ffa50bf92659e6cb1e49f562023bfe162be4",
    "decreasing-classbalance": "6a977ad4b5510836fe345169d43581edb866a7be5e2cc0dc1dc7643bd2cf695f",
    "decreasing-classbalance-wide": "be3515915da8ec076d3f7ad95f8e78abc414417e982675fd3a0c65e5009e69de",
    "decreasing-classbalance-wide-large": "876d76996d9168363fac5ded61551d1663dbdced7ef45aa229f3fe125e7e7e29",
    "fit-omega": "4897b0b9fa075b6e3887e766ed30c28ab134793fafe68ed9b5f93b7ba13053ea",
    "fit-std": "22eec49dd9551a05ab289ca43f791133e61f2722fc9f986f7d41daf9c28854a8",
    "interactions": "f095ece87ac778ef6784738283acf21a6fab07a4ed0f629fbf708a4d1cfd974e",
    "maxabs-gev-a": "7a469733f6793ed53d556c66ae4ec7d31f75d7028d14bc5c989537301c497aa2",
    "maxabs-gev-b": "58d6da3ef67a26ff9bcb65e7faec5e982d350b7f78a01c4a5ab723d824fc728c",
    "mixed-data": "e19ab7ef6549b1591c175c65560c3b18f6eecf76089955a9e60637f84d3c0cb1",
    "orthogonality": "bc1f63ef86cefe480aaeb989982e94cca79bcd37f129554852b827cd60bfdcf1",
    "path": "38e017012db3bff2f561a5b80a3296a034db70a31af73e231052daad160e7185",
    "path-binary-delta": "1f8db038da0cc671ef1c88bd52ed61b64eb34fecfd0ecfe941b6d57b6564f3c6",
    "path-omega": "231b9a46c34fc2c0747bab107ee5d1fd5dc016308f31bf4ac03b6e72a7780501",
    "power-fdr": "dce9e1220249743f3d7c59ede58a304c16ac13eb973b3d32e97e7f8b887bae38",
    "predictive-sim": "ba3fe53cfb067a0f7f16715c7d277ef5e00e23bd3944c93093e1bb04526227c1",
    "predictive-sim-wide": "f606c3a182daa21af9eec66da48bf1c61d649774300318f44b9a20b774208f68",
    "selection-probability": "c6e8553bbc216bcd3c2edbab765f86797dc316e48f94c6bc4433d036ccf826e7",
    "weighted-elnet": "1ee2f79658312a501c9abdd923d9395ddf4408c8e117cf6585e4b41803a9a871",
}


def _mixed_csv(path: Path) -> str:
    """Seeded mixed design: two rare binary columns, one balanced, two normal."""
    rng = np.random.default_rng(2024)
    n = 48
    x = np.column_stack([
        (rng.uniform(size=n) < 0.15).astype(float),
        (rng.uniform(size=n) < 0.5).astype(float),
        rng.standard_normal(n),
        (rng.uniform(size=n) < 0.25).astype(float),
        rng.standard_normal(n),
    ])
    y = 1.5 * x[:, 0] - x[:, 2] + 0.8 * x[:, 3] + 0.5 * rng.standard_normal(n)
    write_delimited(Dataset(x=x, y=y), path)
    return str(path)


def _rare_csv(path: Path) -> str:
    """Seeded design whose second column is binary with one positive row, so
    every training fold that holds that row out sees the column constant."""
    rng = np.random.default_rng(2025)
    n = 40
    x = np.column_stack([
        rng.standard_normal(n),
        np.zeros(n),
        (rng.uniform(size=n) < 0.5).astype(float),
        rng.standard_normal(n),
    ])
    x[11, 1] = 1.0
    y = x[:, 0] + 2.0 * x[:, 1] - 0.7 * x[:, 2] + 0.5 * rng.standard_normal(n)
    write_delimited(Dataset(x=x, y=y), path)
    return str(path)


# the fit, cv and path cases that read a table other than _mixed_csv
TABLES = {"cv-rare": _rare_csv}


def _digest(case: str, workdir: Path) -> str:
    """SHA-256 over every file the case's run writes, manifests without input paths."""
    argv = CASES[case]
    out = workdir / ("out.json" if "json" in argv else "out.csv")
    if argv[0] in ("fit", "cv", "path"):
        argv = [*argv, "--input", TABLES.get(case, _mixed_csv)(workdir / "input.csv")]
    code = main([*argv, "--out", str(out)])
    assert code == 0, f"{' '.join(argv)} exited {code}"
    h = hashlib.sha256()
    for path in sorted(workdir.glob("out*")):
        if path.name.endswith(".manifest.json"):
            manifest = json.loads(path.read_text())
            manifest.pop("input", None)
            text = json.dumps(manifest, sort_keys=True)
        else:
            text = path.read_text()
        h.update(path.name.encode())
        h.update(text.encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_digest_is_pinned(case, tmp_path, capsys):
    actual = _digest(case, tmp_path)
    capsys.readouterr()
    assert actual == GOLDEN[case], (
        f"golden digest changed: {case!r}: {actual!r}, "
        f"pinned on {PINNED_ON!r}, this host {_host()!r}"
    )


def _spec(argv: list[str]) -> ScenarioSpec:
    """The ScenarioSpec a simulate case's argv asks for."""
    fields, params = {}, {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag == "--param":
            key, _, text = value.partition("=")
            params[key] = parse_value(text)
        elif flag == "--scenario":
            fields["scenario"] = value
        elif flag != "--format":
            fields[flag[2:]] = int(value)
    return ScenarioSpec(params=params, **fields)


@pytest.mark.parametrize("case", sorted(c for c in CASES if CASES[c][0] == "simulate"))
def test_a_run_split_by_replication_gives_the_rows_of_the_whole_run(case):
    # what running replications in separate calls (or processes) relies on:
    # a runner handed some replications records exactly their rows, so
    # replication 0 and then the rest, run apart, give the whole run's rows
    spec = _spec(CASES[case])
    cells, defaults, runner = simulate._CATALOGUE[spec.scenario]
    cfg, _ = simulate._resolve(spec, defaults)
    whole = simulate.run_scenario(spec)
    parts = []
    for first in (True, False):
        rec = simulate._Collector(cells)
        reps = simulate._replications(spec.seed, cfg["replications"])
        extra = runner(cfg, rec, (r for r in reps if (r[0] == 0) == first))
        parts.append(rec)
        assert extra.items() <= whole.manifest.items()
        assert rec.skipped == whole.manifest["skipped"]
    assert {row[0] for row in parts[0].rows} == {0}
    assert repr(parts[0].rows + parts[1].rows) == repr(list(whole.rows))


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            value = _digest(case, Path(tmp))
        mark = "" if GOLDEN.get(case) == value else "  # differs from GOLDEN"
        print(f"    \"{case}\": \"{value}\",{mark}")
    print(f"PINNED_ON = {_host()!r}")
