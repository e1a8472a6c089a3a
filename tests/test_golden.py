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
    "bias-var": "d8f57df65559ad3b396c00f6f5eda6eee04cf5ae1d78f3f9ebaa0d88c59f7c5a",
    "bias-var-json": "61bf89311e95aca718d85b159010e89661f2338202770682b3613bc0ea3607a8",
    "bias-var-weighted": "161288278256b34f9bd49c4014ed6583ea624d6af57e44a5f8434ee6af77a5c3",
    "cv": "67e191fbae26eeceb19b40cc3de67cda9f3bd322a3ec60e8b3b480c8c55e12ea",
    "decreasing-classbalance": "dfbef4e7ce2aa09217cdca1082dc90b23b833886fa707af520f68a1584f60d3a",
    "interactions": "54a8d328f70e4971697a7bac90b905a316d7d9f1c56ae77f408ffab0354af55c",
    "maxabs-gev-a": "7a469733f6793ed53d556c66ae4ec7d31f75d7028d14bc5c989537301c497aa2",
    "maxabs-gev-b": "cbfb820fe45612185d7d4ccc0dfcc2e998752fee80d79e603af90558819134cc",
    "mixed-data": "01ac1bb28f21b34be25bb505313ed4acc49b969802970ab75cad7725f8b2a87b",
    "orthogonality": "62dbddf25a5609d0a4c8260b8f52a68d0c15ad25868770fac04d20f6218dd105",
    "path": "c4c7889f676f2fc8933441a73cfd7897bbcebb75435c9d93c8f351eb594d35c2",
    "path-binary-delta": "1491ba04745eab139532827a1f7adcd567f248f08b9bae8e30b78ec55861c45c",
    "path-omega": "5a0f3356182d46104749bba7bfdd5a4ecf1994d8358fb4162da7c65b312d05ab",
    "power-fdr": "8239bd02fa1d0a4137ab2086c8f20b7f939fe6b61e0a0353bc7233604173732b",
    "predictive-sim": "951896f8c44893f52a3ed431bee64e390c093c8d923b9ffc55c3e97e895b43fa",
    "selection-probability": "c6e8553bbc216bcd3c2edbab765f86797dc316e48f94c6bc4433d036ccf826e7",
    "weighted-elnet": "e79bc54f0f3eead35234e4fce661b23e8587d7690498b6e17242a365155b6424",
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
