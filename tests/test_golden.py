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
    "bias-var": "077ad43444c835594e2d604a72a54847aa0d6932371dd9f1d8b4c8588f2f3745",
    "bias-var-json": "37f5d0582a4959ebb29b6925320f8f7449eb753437db909eaf8861439bdce1a4",
    "bias-var-weighted": "f4736fae88275b53f8d102fea3aef8c7881d1daad868e497e9b2a5394d5d168b",
    "cv": "90a1e30cd87db425b8493a81c5f22cc11732b5dec558c93cb1f83957afebbed4",
    "cv-rare": "ef8beb94d5483168bba33f36f8c03cd9c7dc41a4f94728b16b4d0bf49184dfbe",
    "decreasing-classbalance": "aeccdb12724021ad79a7c4c6111a854c51d6cccc7ef3cb52ae84d4542dca4498",
    "decreasing-classbalance-wide": "e239d55d1b00ea662fd3f9ec82b44144cd3b12487dd4c11a6b688d37ce951dfa",
    "decreasing-classbalance-wide-large": "9eab45c9290f6bd9e3d7ce1ade7e5aac8752c42bff034ed38360c04535cd3ee6",
    "fit-omega": "220a58a57b905ae50720b8214b076ca11d50b6d985767b864833eaedfaf793e8",
    "fit-std": "8402fcac2aa883007ba617369a86a2a797b723223b0c065b9da45293ffd55371",
    "interactions": "98c9157f855b333f8f4475ee57ff5eaa659242102d2df64319ed357caeac2cc9",
    "maxabs-gev-a": "b15e9daa4409a0481563ecb8c9ae171f53f5b5c32f46a7cebb13f40c3935e054",
    "maxabs-gev-b": "2afbeac7cc9a050c28d36406efd443229f20017f0a48f8f07db1ae1b892891e1",
    "mixed-data": "7123f00faaf9b9f11e9175a4d39d5f35bf06cc4b4ddcd668019f9850c08949ec",
    "orthogonality": "e12ee09baea9f3def1e16d3461d760a514daf230c20b39fd34fcf46684891edb",
    "path": "e9b77246952902acad0d110cf6b701519da8a894d323bf2694faf2a53ed3cf01",
    "path-binary-delta": "29b3fbdb55467a970b462a3766e7a0cd3b9080cf3e102ec65b5907bcb0711d5b",
    "path-omega": "ff8620e5c1e1972301340e290f79e0dbdac1ca6125313e7a24c7cb2a17b12d7e",
    "power-fdr": "6ace81eacaa1a4c5b8d5fa79fb5fc2a8ff17fc6d7feabd14216aa5844c1b46e1",
    "predictive-sim": "2fcc32187ab99bb66325d034bd8cd948edcfc79db15f4ebecf50ac2cd0b6d372",
    "predictive-sim-wide": "038f63b837b20e4647ee65db6813bfd05123c8be9de030394136f5d88210a91f",
    "selection-probability": "b502fc73b2875c01df95f0a35b087a3f10282ce96d526227f8e654d036cd2476",
    "weighted-elnet": "34f3634e053a2ddbc0e64ce4c426af0ccf695f3825999a781fb2b54c315fa660",
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
