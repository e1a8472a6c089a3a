#!/usr/bin/env python3
"""normreg benchmark: run one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload wide-fit --seed 11 --seconds 40 --trace 0

The package is imported from ./src; nothing is installed. A run sets up the
inputs several times (a fresh interpreter imports normreg each time), runs
one traced iteration, then repeats the untraced workload until --seconds
have passed. With --trace 1 an untraced warm-up iteration comes first, so
the traced one runs warm. Untraced iterations and set-ups are also scaled to
a reference CPU speed (speed.py), because the shared machines this runs on
change speed by up to 2x from one second to the next; the scaled medians are
the end-to-end wall_norm_s and setup_s. Each iteration's outputs are checked; the metrics
are printed one per line with their units, a result file with provenance
goes to .perfbench-out/, and the last line of stdout is the JSON summary:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Exit status is 0 when a result was printed (its "correct" field says
whether every check passed) and 2 when the package cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 5

HERE = Path(__file__).resolve().parent

# Runs in a fresh interpreter: the import time and the CPU speed just after.
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import normreg, normreg.cli\n"
    "took = time.perf_counter() - t\n"
    "import speed\n"
    "print(took, speed.speed())\n"
)


class PackageMissing(RuntimeError):
    pass


def pin_blas() -> None:
    """One BLAS thread, so runs on a shared two-core machine stay comparable.

    Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def load_package() -> None:
    """Import normreg from ./src and nowhere else."""
    if not (SRC / "normreg" / "__init__.py").is_file():
        raise PackageMissing(f"no normreg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import normreg

    if Path(normreg.__file__).resolve().parent != (SRC / "normreg").resolve():
        raise PackageMissing(f"normreg was imported from {normreg.__file__}, not {SRC}")


def import_seconds() -> tuple[float, float]:
    """(seconds, speed) of importing normreg and its CLI in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(HERE), str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    took, speed = done.stdout.split()[-2:]
    return float(took), float(speed)


def _blas_threads() -> int | str:
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        func = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if func is not None:
            func.restype = ctypes.c_int
            return func()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def provenance(seed: int) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run and check one workload; return every measurement.

    Times are raw wall seconds except wall_norm_s and setup_s, which are
    scaled to the reference CPU speed (see speed.py)."""
    import speed
    import tracing

    setup_raw, setup_s = [], []
    for _ in range(SETUP_SAMPLES):
        imported, import_speed = import_seconds()
        before = speed.speed()
        t0 = perf_counter()
        inputs = workload.setup(seed, workdir)
        built = perf_counter() - t0
        build_speed = (before + speed.speed()) / 2
        setup_raw.append(imported + built)
        setup_s.append(imported * import_speed + built * build_speed)

    deadline = perf_counter() + seconds
    outcomes = []
    if trace:
        outcomes.append(workload.check(inputs, workload.run(inputs)))

    tracer = tracing.Tracer()
    with speed.Sampler() as traced_speed, tracer:
        t0 = perf_counter()
        results = workload.run(inputs)
        traced_wall = perf_counter() - t0
    traced = workload.check(inputs, results)
    outcomes.append(traced)
    problems = []
    try:
        layers = tracer.metrics()
    except tracing.TraceError as exc:
        problems.append(f"trace: {exc}")
        layers = {}

    walls, scaled, speeds = [], [], []
    while True:
        with speed.Sampler() as sampler:
            t0 = perf_counter()
            results = workload.run(inputs)
            walls.append(perf_counter() - t0)
        scaled.append(sampler.scaled(walls[-1]))
        speeds.append(sampler.speed())
        outcomes.append(workload.check(inputs, results))
        if len(walls) >= (1 if trace else 2) and perf_counter() + max(walls) > deadline:
            break
    wall = statistics.median(walls)
    layers["trace.overhead_s"] = traced_speed.scaled(traced_wall) - statistics.median(scaled)

    for out in outcomes:
        problems += [p for p in out.problems if p not in problems]
    if any(out.digests != outcomes[0].digests for out in outcomes):
        problems.append("outputs differ between iterations with the same seed")
    fits = layers.get("solver.fit.calls", 0)
    if fits != traced.fits_expected:
        problems.append(f"traced {fits} fits, the workload's grid implies {traced.fits_expected}")
    certified = 1.0 - layers.get("solver.uncertified", 0) / fits if fits else 0.0

    return {
        "end_to_end": {
            "wall_norm_s": statistics.median(scaled),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_frac": certified,
        },
        "per_layer": layers,
        "wall_s": wall,
        "samples": {"wall_s": walls, "wall_norm_s": scaled, "speed": speeds,
                    "setup_raw_s": setup_raw, "setup_s": setup_s, "traced_wall_s": traced_wall},
        "layer_self_share": {
            layer: value / traced_wall for layer, value in tracer.layer_self.items()
        },
        "attempted": sum(out.ops for out in outcomes),
        "failed": sum(out.failed for out in outcomes),
        "problems": problems,
        "digests": traced.digests,
        "binding_sites": tracer.sites,
        "spans": tracer.dump() if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pin_blas()
    try:
        load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        found = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spans = found.pop("spans")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed), **found}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    shown = ("end_to_end", "per_layer") if args.trace else ("end_to_end",)
    for group in shown:
        for spec in bench[group]:
            value = found[group].get(spec["name"])
            print(f"{group:10s} {spec['name']:24s} {value!r:>24} {spec['unit']}")
    print(f"{'raw':10s} {'wall_s':24s} {found['wall_s']!r:>24} s")
    print(f"wall times are medians of {len(found['samples']['wall_s'])} untraced iterations, "
          f"setup_s of {SETUP_SAMPLES} set-ups; wall_norm_s and setup_s are scaled to the "
          f"reference CPU speed (median speed {statistics.median(found['samples']['speed']):.3f})")
    for problem in found["problems"]:
        print(f"check failed: {problem}")

    group = "per_layer" if args.trace else "end_to_end"
    missing = [spec["name"] for spec in bench[group] if spec["name"] not in found[group]]
    correct = not found["problems"] and not found["failed"] and not missing
    summary = {
        "correct": correct,
        "attempted": found["attempted"],
        "failed": found["failed"],
        "metrics": {
            spec["name"]: {"value": found[group].get(spec["name"], 0.0), "unit": spec["unit"]}
            for spec in bench[group]
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
