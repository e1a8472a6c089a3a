"""Golden digests: pinned SHA-256 of every scenario's output at a small scale.

Criterion 10 proves that two runs of the same code agree; these digests
prove that code before and after a refactor agrees. Each case runs through
cli.main with --out and hashes the result file, the summary file (simulate)
and the manifest with its input path removed, so a changed skip message or
resolved parameter shows up too.

A change that is meant to move numbers re-pins the digests; print the
current ones, and the PINNED_ON line for this host, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from normreg import Dataset, write_delimited
from normreg.cli import main


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
    "maxabs-gev-a": _simulate("maxabs-gev", "n_grid=10,100", replications=3),
    "maxabs-gev-b": _simulate("maxabs-gev", "part=b", "n_grid=1,10,100", replications=3),
    "cv": ["cv", "--folds", "3", "--repeats", "2", "--deltas", "0,0.5,1",
           "--lambda-count", "6", "--seed", "5"],
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
    "bias-var": "004394352466226eb9a5f7560daf0811df5220ccdb47d72a1ec70706d4724dd7",
    "bias-var-json": "1f909c8be5789b35c5065f9a552b83d13dc1343eca518cb2e48aee423a5e4fc9",
    "bias-var-weighted": "7eedc74cadc4fc35ca977a9be01815072fdf0c9ebc081a81974f991ae4639811",
    "cv": "b57857d1b9f2193829c05e1360d182e32559e5ee8714ccdf551921c17430b154",
    "decreasing-classbalance": "7dbe18f8507acf342375e084094dde46175358d3b2492b5ebd87d6b6967a1eed",
    "interactions": "36cbd234b10fb49c47cd00bc4c6704a288be949f88eb68bbcd402f336e57abc0",
    "maxabs-gev-a": "7a469733f6793ed53d556c66ae4ec7d31f75d7028d14bc5c989537301c497aa2",
    "maxabs-gev-b": "b511e4e2690fdd5d13d70b2507226a83083daba2b4b515f42ace484be58aaade",
    "mixed-data": "3f9f332e698386449abf899435b9556ec20186a8c318a53c28743923cb6e5e70",
    "orthogonality": "fcb2103c4e17e81cafcdc7fba7742734d57b7138dc08de61a1842d05d8a8ca5e",
    "path": "cb31d441c80998979e21e2dc7cfdb8b895feb2cc1811d3fe8afedba691ce5a73",
    "path-binary-delta": "05620f3a99178f3b0972d3f7e20dcbe80d888a7dc6d71193eef7322f337909ca",
    "path-omega": "da331a2596a12e44292bc84d39805e4cafc55fcd25b85bcbcc6c374b3b683d2f",
    "power-fdr": "9e37bf087a422df727909864ac7a4521b2e94a59908912b3a867c3f7533441d1",
    "predictive-sim": "b6be81af67d959c1b97dce84526b3d4831065fb42d933f998a9e64ab6750636b",
    "selection-probability": "c6e8553bbc216bcd3c2edbab765f86797dc316e48f94c6bc4433d036ccf826e7",
    "weighted-elnet": "4e4247cc08cb313fd3b1d755d01e976a4e732077c24bfc324e1378073932b152",
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


def _digest(argv: list[str], workdir: Path) -> str:
    """SHA-256 over every file the run writes, manifests without input paths."""
    out = workdir / ("out.json" if "json" in argv else "out.csv")
    if argv[0] in ("cv", "path"):
        argv = [*argv, "--input", _mixed_csv(workdir / "mixed.csv")]
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
    actual = _digest(CASES[case], tmp_path)
    capsys.readouterr()
    assert actual == GOLDEN[case], (
        f"golden digest changed: {case!r}: {actual!r}, "
        f"pinned on {PINNED_ON!r}, this host {_host()!r}"
    )


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            value = _digest(CASES[case], Path(tmp))
        print(f"    \"{case}\": \"{value}\",")
    print(f"PINNED_ON = {_host()!r}")
