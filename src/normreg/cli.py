"""Command-line interface.

Subcommands: fit, path, cv, simulate, oracle, normalize. Results go to
--out (CSV or JSON) with a `<out>.manifest.json` sidecar; without --out the
records and manifest print to stdout as one JSON document. A manifest holds
every option of the parsed command line but --out, each at its default when
not given, then the tool version, then what the run computed (see
_manifest). All file writes are atomic and happen only after the
computation succeeds, so a failed or misused invocation never leaves
partial output behind.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure
(a fit that failed the KKT certificate, under --strict).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from . import evaluate as _evaluate
from . import io as _io
from . import normalize as _normalize
from . import oracle as _oracle
from . import simulate as _simulate
from .dataset import Dataset, infer_kinds
from .errors import DomainError, NormRegError
from .solver import PenaltySpec, fit as _fit, fit_path, lambda_grid, lambda_max

_USAGE_EXIT, _DATA_EXIT, _NUMERIC_EXIT = 1, 2, 3


class _UsageError(Exception):
    """Flag-level misuse detected after parsing; exits 1 before any output."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


class _Grid(NamedTuple):
    """lo:hi:count as typed. values() expands it when the command runs, so a
    non-finite bound is a data error with its own message."""

    lo: float
    hi: float
    count: int

    def values(self, flag: str) -> tuple[float, ...]:
        """The inclusive linear grid."""
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"{flag} bounds must be finite, got {self.lo!r}:{self.hi!r}")
        return tuple(float(v) for v in np.linspace(self.lo, self.hi, self.count))


def _grid(text: str) -> _Grid:
    """Parse lo:hi:count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}")
    try:
        grid = _Grid(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:count, got {text!r}") from None
    if grid.count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return grid


def _comma_list(kind, noun: str):
    """Parser of a comma-separated list of `kind` values, named `noun` in errors."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}") from None

    return parse


def _add_output_flags(sub, default_format: str) -> None:
    sub.add_argument("--out", help="output path (stdout JSON when omitted)")
    sub.add_argument(
        "--format", choices=(_io.CSV, _io.JSON), default=default_format, help="output format"
    )


def _add_input_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="dataset path")
    sub.add_argument(
        "--input-format",
        choices=("delimited", "sparse"),
        default="delimited",
        help="delimited table or `label idx:val` sparse lines",
    )
    sub.add_argument("--delimiter", default=",", help="cell delimiter for delimited input")
    sub.add_argument(
        "--no-header", action="store_true", help="delimited input has no header row"
    )
    sub.add_argument(
        "--response", default="y", help="response column name, or 0-based index if numeric"
    )


# --normalize's strategies without parameters; binary-delta is built from its flags
_STRATEGIES = {
    "none": _normalize.NoNorm,
    "std": _normalize.Standardize,
    "l1": _normalize.L1Centered,
    "maxabs": _normalize.MaxAbs,
    "minmax": _normalize.MinMax,
    "robust": _normalize.Robust,
}


def _add_comparability_flag(sub) -> None:
    sub.add_argument(
        "--comparability",
        choices=(_normalize.PLAIN, _normalize.LASSO_COMPARABLE, _normalize.RIDGE_COMPARABLE),
        default=_normalize.PLAIN,
    )


def _add_normalize_flags(sub, default: str) -> None:
    sub.add_argument("--normalize", choices=(*_STRATEGIES, "binary-delta"), default=default)
    sub.add_argument("--delta", type=float, default=0.5, help="binary-delta exponent")
    _add_comparability_flag(sub)
    sub.add_argument("--kappa", type=float, default=2.0, help="comparability multiplier")
    sub.add_argument("--q0", type=float, default=0.5, help="comparability anchor balance")


def _add_penalty_flags(sub) -> None:
    """The penalty levels, read by _resolve_penalty."""
    sub.add_argument("--lambda1", type=float, help="l1 penalty level")
    sub.add_argument("--lambda2", type=float, help="quadratic penalty level")
    sub.add_argument("--alpha", type=float, help="elastic-net mixing (with --lambda)")
    sub.add_argument("--lambda", dest="lam", type=float, help="total penalty (with --alpha)")


def build_parser() -> _Parser:
    parser = _Parser(prog="normreg", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"normreg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = subs.add_parser("fit", help="fit one elastic-net model", description="Fit one model.")
    _add_input_flags(p)
    _add_normalize_flags(p, default="none")
    _add_penalty_flags(p)
    p.add_argument(
        "--omega", type=float, help="penalty weights u = v = Var^omega on the fitted design"
    )
    p.add_argument(
        "--strict", action="store_true", help="exit 3 if the fit fails the KKT certificate"
    )
    _add_output_flags(p, _io.JSON)
    p.set_defaults(run=_cmd_fit)

    p = subs.add_parser("path", help="fit a warm-started lambda path")
    _add_input_flags(p)
    _add_normalize_flags(p, default="none")
    p.add_argument("--alpha", type=float, default=1.0, help="elastic-net mixing")
    p.add_argument("--omega", type=float, help="penalty weights u = v = Var^omega")
    p.add_argument("--count", type=int, default=100, help="grid size")
    p.add_argument("--ratio", type=float, default=1e-2, help="smallest/largest lambda")
    p.add_argument(
        "--strict", action="store_true", help="exit 3 if any point fails the KKT certificate"
    )
    _add_output_flags(p, _io.CSV)
    p.set_defaults(run=_cmd_path)

    p = subs.add_parser("cv", help="repeated k-fold search over (lambda, delta)")
    _add_input_flags(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0, help="elastic-net mixing")
    p.add_argument(
        "--deltas", type=_comma_list(float, "numbers"), default=(0.0, 0.25, 0.5, 0.75, 1.0),
        help="comma-separated binary-delta exponents",
    )
    _add_comparability_flag(p)
    p.add_argument("--lambda-count", type=int, default=100)
    p.add_argument("--lambda-ratio", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=0, help="seed of the fold assignment")
    _add_output_flags(p, _io.CSV)
    p.set_defaults(run=_cmd_cv)

    p = subs.add_parser("simulate", help="run a catalogue scenario")
    p.add_argument("--scenario", choices=_simulate.SCENARIOS, help="scenario id")
    p.add_argument("--config", help="key = value scenario config file")
    p.add_argument("--n", type=int, help="override rows")
    p.add_argument("--p", type=int, help="override columns")
    p.add_argument("--replications", type=int, help="override replications")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter override (repeatable; comma lists allowed)",
    )
    # no default seed: an explicit --seed, 0 included, overrides a config's seed
    p.add_argument("--seed", type=int, help="master seed (default: the config's, else 0)")
    _add_output_flags(p, _io.CSV)
    p.set_defaults(run=_cmd_simulate)

    p = subs.add_parser("oracle", help="closed-form curves over a parameter grid")
    p.add_argument(
        "--curve",
        required=True,
        choices=("selection", "mean", "bias", "variance", "mse", "noiseless", "limits", "gumbel"),
    )
    p.add_argument("--beta", type=float, default=1.0, help="true coefficient")
    p.add_argument("--n", type=int, default=100, help="sample size")
    p.add_argument("--sigma", type=float, default=1.0, help="noise sd")
    _add_penalty_flags(p)
    p.add_argument("--delta", type=float, help="data-scaling exponent nu^delta")
    p.add_argument("--omega", type=float, help="penalty-weight exponent nu^omega")
    p.add_argument("--exponent-grid", type=_grid, help="sweep the exponent: lo:hi:count")
    p.add_argument("--q-grid", type=_grid, help="class-balance grid lo:hi:count")
    p.add_argument("--kappa", type=float, help="comparability anchor multiplier")
    p.add_argument("--q0", type=float, default=0.5, help="comparability anchor balance")
    p.add_argument("--mu", type=float, default=0.0, help="gumbel: normal mean")
    p.add_argument("--sd", type=float, default=1.0, help="gumbel: normal sd")
    p.add_argument(
        "--n-grid", type=_comma_list(int, "integers"), help="gumbel: comma-separated sample sizes"
    )
    _add_output_flags(p, _io.CSV)
    p.set_defaults(run=_cmd_oracle)

    p = subs.add_parser("normalize", help="print the normalization plan for a dataset")
    _add_input_flags(p)
    _add_normalize_flags(p, default="std")
    _add_output_flags(p, _io.CSV)
    p.set_defaults(run=_cmd_normalize)

    return parser


# ---------------------------------------------------------------------------
# shared helpers


def _read_dataset(args) -> Dataset:
    if args.input_format == "sparse":
        return _io.read_sparse_labeled(args.input)
    response: str | int = args.response
    try:
        response = int(args.response)
    except ValueError:
        pass
    schema = _io.TableSchema(
        delimiter=args.delimiter, header=not args.no_header, response=response
    )
    return _io.read_delimited(args.input, schema)


def _plan_for(data: Dataset, args) -> _normalize.NormalizationPlan:
    if args.normalize == "binary-delta":
        strategy = _normalize.mixed_binary_delta(
            data, _normalize.BinaryDelta(args.delta, args.comparability, args.kappa, args.q0)
        )
    else:
        strategy = _STRATEGIES[args.normalize]()
    return _normalize.compute_plan(data, strategy)


def _resolve_penalty(args) -> tuple[float, float]:
    direct = args.lambda1 is not None or args.lambda2 is not None
    mixed = args.alpha is not None or args.lam is not None
    if direct and mixed:
        raise _UsageError("--lambda1/--lambda2 cannot be combined with --alpha/--lambda")
    if mixed:
        if args.lam is None:
            raise _UsageError("--alpha requires --lambda")
        alpha = 1.0 if args.alpha is None else args.alpha
        if not 0.0 <= alpha <= 1.0:
            raise _UsageError(f"--alpha must lie in [0, 1], got {alpha}")
        return alpha * args.lam, (1.0 - alpha) * args.lam
    if not direct:
        raise _UsageError("a penalty is required: --lambda1/--lambda2 or --alpha with --lambda")
    return args.lambda1 or 0.0, args.lambda2 or 0.0


def _weights(data: Dataset, plan: _normalize.NormalizationPlan, omega: float | None):
    """Weights u = s w, v = s^2 w that fit data as its normalized copy with
    weights w = Var(normalized column)^omega, or w = 1 without --omega. A
    column with no variance keeps w = 1, as it keeps scale 1."""
    s, w = plan.scales, 1.0
    if omega is not None:
        if not math.isfinite(omega):
            raise DomainError(f"--omega must be finite, got {omega!r}")
        var = data.x.var(axis=0) / (s * s)
        w = np.where(np.ptp(data.x, axis=0) == 0.0, 1.0, var) ** omega
    return s * w, s * s * w


def _normalized(plan: _normalize.NormalizationPlan, beta0: float, beta: np.ndarray):
    """The coefficients of the normalized copy: (beta0 + c'beta, s beta)."""
    return beta0 + float(plan.centers @ beta), plan.scales * beta


def _emit(args, header, rows, manifest, summary: _io.ResultTable | None = None) -> None:
    """Write the results, and simulate's summary table when given, to --out in
    --format with their manifests, or print them with the manifest as one JSON
    document."""
    tables = {"results": _io.ResultTable(tuple(header), tuple(rows), manifest)}
    if summary is not None:
        tables["summary"] = _io.ResultTable(summary.header, summary.rows, manifest)
    if args.out is None:
        payload = {key: _io.json_records(t) for key, t in tables.items()}
        payload["manifest"] = _io.json_value(manifest)
        print(json.dumps(payload, indent=2))
        return
    _io.write_results(tables["results"], args.out, args.format)
    if summary is not None:
        stem, ext = os.path.splitext(args.out)
        path = f"{stem}.summary{ext or '.' + args.format}"
        _io.write_results(tables["summary"], path, args.format)


def _manifest(args, extra: dict) -> dict:
    """The one rule for what a manifest holds: every entry of the parsed
    command line but `run` and `out` (the command, and each option at its
    default when not given), the tool version, then extra, what the run
    computed, which wins over a flag of the same name (simulate's resolved
    seed and scenario)."""
    manifest = {key: value for key, value in vars(args).items() if key not in ("run", "out")}
    manifest["version"] = __version__
    manifest.update(extra)
    return manifest


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fit(args) -> int:
    lam1, lam2 = _resolve_penalty(args)
    data = _read_dataset(args)
    plan = _plan_for(data, args)
    u, v = _weights(data, plan, args.omega)
    result = _fit(data, PenaltySpec(lam1=lam1, lam2=lam2, u=u, v=v))
    if not result.converged:
        print(
            f"normreg fit: failed the KKT certificate (residual {result.kkt_residual:.3g})",
            file=sys.stderr,
        )
        if args.strict:
            return _NUMERIC_EXIT
    support = [data.names[j] for j in result.support]
    header = ("term", "estimate", "estimate_normalized", "selected")
    beta0_norm, beta_norm = _normalized(plan, result.beta0, result.beta)
    rows = [("(intercept)", result.beta0, beta0_norm, 1)]
    for j, name in enumerate(data.names):
        rows.append(
            (name, float(result.beta[j]), float(beta_norm[j]), int(result.beta[j] != 0.0))
        )
    manifest = _manifest(
        args,
        {
            "lam1": lam1,
            "lam2": lam2,
            "converged": result.converged,
            "sweeps": result.sweeps_used,
            "objective": result.objective_value,
            "support": support,
            "support_size": len(support),
        },
    )
    _emit(args, header, rows, manifest)
    return 0


def _cmd_path(args) -> int:
    data = _read_dataset(args)
    plan = _plan_for(data, args)
    u, v = _weights(data, plan, args.omega)
    grid = lambda_grid(lambda_max(data, u), args.count, args.ratio)
    results = fit_path(data, args.alpha, grid, u=u, v=v)
    stragglers = [r for r in results if not r.converged]
    if stragglers:
        print(
            f"normreg path: {len(stragglers)} grid points failed the KKT certificate",
            file=sys.stderr,
        )
        if args.strict:
            return _NUMERIC_EXIT
    header = ("lambda", "lam1", "lam2", "term", "estimate", "estimate_normalized")
    rows = []
    for res in results:
        lam = res.lam1 + res.lam2
        beta0_norm, beta_norm = _normalized(plan, res.beta0, res.beta)
        rows.append((lam, res.lam1, res.lam2, "(intercept)", res.beta0, beta0_norm))
        for j, name in enumerate(data.names):
            rows.append((lam, res.lam1, res.lam2, name, float(res.beta[j]), float(beta_norm[j])))
    manifest = _manifest(
        args,
        {"lambda_max": results[0].lam1 + results[0].lam2, "non_converged": len(stragglers)},
    )
    _emit(args, header, rows, manifest)
    return 0


def _cmd_cv(args) -> int:
    data = _read_dataset(args)
    plan = _evaluate.CVPlan(
        folds=args.folds,
        repeats=args.repeats,
        seed=args.seed,
        lambda_count=args.lambda_count,
        lambda_ratio=args.lambda_ratio,
        deltas=args.deltas,
        comparability=args.comparability,
    )
    result = _evaluate.cross_validate(data, plan, alpha=args.alpha)
    header = ("repeat", "fold", "lambda", "delta", "nmse")
    rows = [tuple(row) for row in result.rows]
    manifest = _manifest(
        args,
        {
            "best": {
                "delta": result.best.delta,
                "lambda": result.best.lam,
                "mean_nmse": result.best.mean_nmse,
            },
            "skipped": list(result.skipped),
        },
    )
    if not rows:
        # every fold degenerated to a constant response (e.g. leave-one-out);
        # selection still resolved, so report it without per-fold rows
        rows = [(-1, -1, result.best.lam, result.best.delta, result.best.mean_nmse)]
    _emit(args, header, rows, manifest)
    print(
        f"best: delta={result.best.delta} lambda={result.best.lam:.6g} "
        f"mean NMSE={result.best.mean_nmse:.6g}",
        file=sys.stderr,
    )
    return 0


def _parse_param(text: str):
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise _UsageError(f"--param expects KEY=VALUE, got {text!r}")
    return key.strip(), _simulate.parse_value(value)


def _cmd_simulate(args) -> int:
    if (args.scenario is None) == (args.config is None):
        raise _UsageError("exactly one of --scenario or --config is required")
    if args.config is not None:
        spec = _simulate.parse_scenario_config(args.config)
    else:
        spec = _simulate.ScenarioSpec(scenario=args.scenario)
    params = dict(spec.params)
    params.update(_parse_param(item) for item in args.param)
    set_flags = {
        name: getattr(args, name)
        for name in ("seed", "n", "p", "replications")
        if getattr(args, name) is not None
    }
    spec = dataclasses.replace(spec, params=params, **set_flags)
    result = _simulate.run_scenario(spec)
    table = result.table()
    _emit(args, table.header, table.rows, _manifest(args, result.manifest),
          summary=result.summary_table())
    return 0


def _oracle_model(args, scaling, lam1, lam2, q):
    anchor = None if args.kappa is None else _oracle.ComparabilityAnchor(args.kappa, args.q0)
    return _oracle.BinaryFeatureModel(
        beta=args.beta,
        n=args.n,
        q=q,
        sigma_eps=args.sigma,
        lam1=lam1,
        lam2=lam2,
        scaling=scaling,
        anchor=anchor,
    )


_CURVE_FUNCS = {
    "selection": _oracle.selection_probability,
    "mean": _oracle.estimator_mean,
    "bias": _oracle.estimator_bias,
    "variance": _oracle.estimator_variance,
    "mse": _oracle.estimator_mse,
    "noiseless": _oracle.noiseless_estimate,
}


def _cmd_oracle(args) -> int:
    if args.delta is not None and args.omega is not None:
        raise _UsageError("--delta and --omega are mutually exclusive")
    if args.curve == "gumbel":
        if args.n_grid is None:
            raise _UsageError("--curve gumbel requires --n-grid")
        header = ("n", "location", "scale", "mean")
        rows = []
        for n in args.n_grid:
            g = _oracle.maxabs_gumbel(args.mu, args.sd, n)
            rows.append((n, g.location, g.scale, g.mean_approx))
        _emit(args, header, rows, _manifest(args, {}))
        return 0

    lam1, lam2 = _resolve_penalty(args)
    # checked here too, since only --kappa builds the anchor that checks it
    if not 0.0 < args.q0 < 1.0:
        raise DomainError(f"q0 must lie in (0, 1), got {args.q0!r}")
    # --delta and --omega exclude each other; with neither, Delta is the mode
    if args.omega is not None:
        mode, scaling, value = "omega", _oracle.Omega, args.omega
    else:
        mode, scaling, value = "delta", _oracle.Delta, args.delta
    if args.exponent_grid is not None:
        exponents = args.exponent_grid.values("--exponent-grid")
    else:
        exponents = (0.5 if value is None else value,)
    extra = {"lam1": lam1, "lam2": lam2, "mode": mode}

    if args.curve == "limits":
        header = ("exponent", "mean", "variance_kind", "variance", "selection")
        rows = []
        for t in exponents:
            limits = _oracle.asymptotic_limits(_oracle_model(args, scaling(t), lam1, lam2, 0.5))
            value = float("inf") if limits.variance.is_infinite else limits.variance.value
            rows.append((t, limits.mean, limits.variance.kind, value, limits.selection))
        _emit(args, header, rows, _manifest(args, extra))
        return 0

    if args.q_grid is None:
        raise _UsageError(f"--curve {args.curve} requires --q-grid lo:hi:count")
    func = _CURVE_FUNCS[args.curve]
    header = ("q", "exponent", "value")
    rows = []
    for q in args.q_grid.values("--q-grid"):
        for t in exponents:
            rows.append((q, t, func(_oracle_model(args, scaling(t), lam1, lam2, q))))
    _emit(args, header, rows, _manifest(args, extra))
    return 0


def _cmd_normalize(args) -> int:
    data = _read_dataset(args)
    plan = _plan_for(data, args)
    header = ("term", "kind", "center", "scale")
    rows = [
        (name, kind, float(c), float(s))
        for name, kind, c, s in zip(data.names, infer_kinds(data.x), plan.centers, plan.scales)
    ]
    _emit(args, header, rows, _manifest(args, {"n": data.n}))
    return 0


# ---------------------------------------------------------------------------
# entry


@functools.cache
def _parser() -> _Parser:
    """The one parser of this process, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; returns its exit code.

    The parser is built on the first call, not at import, and then serves
    every call in the process: parsing reads it and never changes it, and
    each call gets a namespace of its own (an appended --param list
    included), so calls share no state through it.
    """
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else _USAGE_EXIT
    try:
        return args.run(args)
    except _UsageError as exc:
        print(f"normreg {args.command}: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except NormRegError as exc:
        print(f"normreg {args.command}: {exc}", file=sys.stderr)
        return _DATA_EXIT
    except OSError as exc:
        print(f"normreg {args.command}: {exc}", file=sys.stderr)
        return _DATA_EXIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
