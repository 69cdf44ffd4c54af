"""Command-line surface: simulate, predict, attack-surface, nn-class,
sigma-search and built-in figure reproduction.

Exit codes: 0 success, 1 configuration/validation failure, 2 runtime
failure. Failures also emit one machine-readable JSON line on stderr.

This module writes outputs but defines none of their formats: sweep rows
and the number format come from `engine`, model and profile JSON from
`model`, and the moment-table columns from `analysis`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import configs
from .analysis import (
    METHOD_CLT_EXACT,
    METHOD_CLT_LOWER_BOUND,
    METHOD_MONTE_CARLO,
    METHOD_Q_OF_SNR,
    MOMENT_COLUMNS,
    _clt_error_from_moments,
    cost_difference_moments,
    error_from_snr,
    moment_study,
    sigma_for_target_error,
    snr_glrt,
    snr_minimax,
    y_bound_moments,
)
# clt_error stays bound here: bench/tracing.py patches it through this name
from .analysis import clt_error  # noqa: F401
from .attacks import brute_force_attack_oracle, nn_class_glrt, nn_class_min_distance
from .classifiers import ClassifierKind, build_classifier
from .engine import (
    CSV_HEADER,
    SWEEP_KAPPA,
    ConfigError,
    ExperimentConfig,
    _fmt,
    format_row,
    run_experiment,
    run_experiments,
    sweep_row,
)
from .model import AttackMode, HypothesisModel, TwoLevelProfile, check_eps

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_RUNTIME = 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else _EXIT_OK
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"threads: must be >= 1, got {args.threads}")
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        _emit_error("validation", exc)
        return _EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _emit_error("runtime", exc)
        return _EXIT_RUNTIME


def _emit_error(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first `main` call and reused after it.

    Parsing does not change the parser: each call gets a fresh namespace
    filled from the same defaults.
    """
    parser = argparse.ArgumentParser(
        prog="robustht",
        description="Gaussian hypothesis testing under l-infinity adversarial attacks: "
        "simulation, prediction and attack exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, *names):
        """Add the shared output and sampling flags that the subcommand reads."""
        specs = {
            "seed": dict(type=int, default=0, help="base RNG seed"),
            "trials": dict(type=int, default=None, help="Monte Carlo trials"),
            "out": dict(type=Path, default=None, help="output file (default stdout)"),
            "format": dict(choices=("csv", "json"), default="csv"),
            "threads": dict(type=int, default=1, help="worker threads"),
        }
        for name in names:
            p.add_argument(f"--{name}", **specs[name])

    p = sub.add_parser("simulate", help="run a JSON experiment config")
    p.add_argument("config", type=Path)
    flags(p, "seed", "trials", "out", "format", "threads")
    p.set_defaults(func=_cmd_simulate, seed=None)  # no --seed: keep the config's

    p = sub.add_parser("predict", help="analytic error estimates, no sampling")
    _profile_flags(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--kappa", type=_float_list, default=[1.0],
                   help="comma-separated attack strengths")
    flags(p, "seed", "out", "format")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("attack-surface", help="brute-force error surface (d <= 3)")
    p.add_argument("--model", required=True,
                   help="model JSON file or builtin name (ternary-2d, ternary-20d)")
    p.add_argument("--classifier", choices=[k.value for k in ClassifierKind],
                   default=ClassifierKind.GLRT.value)
    p.add_argument("--true-class", type=int, default=0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--grid", type=int, default=41, help="grid points per axis")
    flags(p, "seed", "trials", "out", "format", "threads")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("nn-class", help="nearest-neighbor class tables")
    p.add_argument("--model", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kappa", type=float, default=None,
                   help="employed strength (defaults to eps)")
    flags(p, "out")
    p.set_defaults(func=_cmd_nn_class)

    p = sub.add_parser("sigma-search", help="noise level hitting a target error")
    _profile_flags(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--method", choices=(METHOD_CLT_EXACT, METHOD_MONTE_CARLO),
                   default=METHOD_CLT_EXACT)
    flags(p, "seed", "trials", "out")
    p.set_defaults(func=_cmd_sigma_search)

    p = sub.add_parser("reproduce", help="built-in figure recipes")
    p.add_argument("figure", choices=sorted(configs.FIGURES))
    flags(p, "seed", "trials", "out", "format", "threads")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _profile_flags(p) -> None:
    p.add_argument("--d", type=int, required=True, help="number of coordinates")
    p.add_argument("--p", type=float, required=True, help="fraction of strong coordinates")
    p.add_argument("--a", type=float, required=True, help="strong mean, in units of eps")
    p.add_argument("--b", type=float, required=True, help="weak mean, in units of eps")
    p.add_argument("--eps", type=float, required=True, help="designed attack budget")


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


@contextmanager
def _open_out(args):
    if args.out is None:
        yield sys.stdout
    else:
        with open(args.out, "w") as fh:
            yield fh


def _write_rows(args, header, csv_row, run) -> None:
    """Write the rows that run(sink) passes to sink, then the metadata it returns.

    CSV: the header, then each row, flushed as it arrives. JSON: one
    {"metadata", "rows"} object, written at the end. With --out, the
    metadata also goes to the sidecar.
    """
    if args.format == "json":
        rows = []
        metadata = run(rows.append)
        with _open_out(args) as fh:
            fh.write(json.dumps({"metadata": metadata, "rows": rows}, indent=2) + "\n")
    else:
        with _open_out(args) as fh:
            fh.write(header + "\n")

            def sink(row):
                fh.write(csv_row(row) + "\n")
                fh.flush()

            metadata = run(sink)
    if args.out is not None:
        _write_sidecar(args.out, metadata)


def _write_sidecar(out: Path, metadata: dict) -> None:
    side = out.with_suffix(out.suffix + ".meta.json")
    side.write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path, field: str):
    """The JSON value in path; a file that is not valid JSON names field."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{field}: {path} is not valid JSON: {exc}") from None


def _load_model(spec: str) -> HypothesisModel:
    path = Path(spec)
    if path.exists():
        return HypothesisModel.from_dict(_read_json(path, "model"))
    return configs.builtin_model(spec)


def _warn_nonuniform(model: HypothesisModel) -> None:
    if not model.has_uniform_priors():
        sys.stderr.write(
            "warning: non-uniform priors; the decision rules ignore priors and "
            "the reference scenarios assume equi-probable classes\n"
        )


def _cmd_simulate(args) -> int:
    raw = _read_json(args.config, "config")
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.trials is not None:
        raw["trials"] = args.trials
    config = ExperimentConfig.from_dict(raw)
    _warn_nonuniform(config.resolved_model())
    _write_rows(args, CSV_HEADER, format_row,
                lambda sink: run_experiment(config, args.threads, sink).metadata)
    return _EXIT_OK


def _cmd_predict(args) -> int:
    profile = TwoLevelProfile(d=args.d, p=args.p, a=args.a, b=args.b, eps=args.eps)
    if not 0 < args.sigma < math.inf:
        raise ConfigError(f"sigma: must be finite and > 0, got {args.sigma}")
    if not args.kappa:
        raise ConfigError("kappa: must list at least one strength")
    for kappa in args.kappa:
        # a finite kappa above eps is an overdriven attack: only its minimax row is written
        if not 0 <= kappa < math.inf:
            raise ConfigError(f"kappa: must be finite and >= 0, got {kappa}")
    try:
        # every row exists before the first is written
        rows = list(_predict_rows(profile, args.sigma, args.kappa, args.seed))
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"sigma: no finite prediction at sigma = {args.sigma}: {exc}") from None

    def run(sink):
        for row in rows:
            sink(row)
        return {"profile": profile.to_dict(), "sigma": args.sigma, "seed": args.seed}

    _write_rows(args, CSV_HEADER, format_row, run)
    return _EXIT_OK


def _predict_rows(profile, sigma, kappas, seed):
    """For each kappa: the minimax q-of-snr row, then, within the budget, the
    GLRT's clt-analytic, clt-lower-bound and q-of-snr rows."""
    eps = profile.eps
    levels, counts = profile.levels()

    def row(kappa, kind, error, method):
        return sweep_row(SWEEP_KAPPA, kappa, kind, AttackMode.NOISE_AGNOSTIC_HEURISTIC,
                         kappa, error, method, seed)

    for kappa in kappas:
        snr_mm = snr_minimax(profile.d, profile.p, profile.a, kappa / eps, eps, sigma)
        yield row(kappa, ClassifierKind.MINIMAX_LINEAR, error_from_snr(snr_mm), METHOD_Q_OF_SNR)
        if kappa <= eps:
            # one moment pair serves the CLT and the q-of-snr rows
            mb, ma = (cost_difference_moments(mu, eps, kappa, sigma) for mu in levels)
            exact = _clt_error_from_moments((mb, ma), counts, METHOD_CLT_EXACT)
            lower = _clt_error_from_moments(
                [y_bound_moments(mu, eps, kappa, sigma) for mu in levels], counts,
                METHOD_CLT_LOWER_BOUND)
            yield row(kappa, ClassifierKind.GLRT, exact.value, exact.method)
            yield row(kappa, ClassifierKind.GLRT, lower.value, lower.method)
            yield row(kappa, ClassifierKind.GLRT,
                      error_from_snr(snr_glrt(profile.d, profile.p, ma, mb))
                      if ma.mean * profile.p + mb.mean * (1 - profile.p) >= 0 else 0.5,
                      METHOD_Q_OF_SNR)


def _cmd_surface(args) -> int:
    if args.grid < 1:
        raise ConfigError(f"grid: must be >= 1, got {args.grid}")
    model = _load_model(args.model)
    _warn_nonuniform(model)
    classifier = build_classifier(ClassifierKind(args.classifier), model, args.eps)
    surface = brute_force_attack_oracle(
        model, classifier, args.true_class, args.eps,
        grid_points_per_axis=args.grid,
        trials=args.trials if args.trials is not None else 10_000,
        seed=args.seed,
        threads=args.threads,
    )
    _write_surface(surface, model, args)
    return _EXIT_OK


def _write_surface(surface, model, args) -> None:
    """The surface as JSON rows through `_write_rows`, or as one CSV pass.

    The CSV formats each axis value once and streams the rows into the
    buffered file without a flush per row: the surface is complete before
    its first row is written.
    """
    if args.format == "json":
        def run(sink):
            for e, err in surface.iter_rows():
                sink({"attack": e.tolist(), "error": err})
            return _surface_metadata(surface, model)

        _write_rows(args, None, None, run)
        return
    axes = [[_fmt(v) for v in axis.tolist()] for axis in surface.axes]
    errors = map(_fmt, surface.errors.ravel().tolist())
    with _open_out(args) as fh:
        fh.write(",".join(f"e{i + 1}" for i in range(model.dim)) + ",error\n")
        fh.writelines(",".join((*attack, err)) + "\n"
                      for attack, err in zip(itertools.product(*axes), errors))
    if args.out is not None:
        _write_sidecar(args.out, _surface_metadata(surface, model))


def _surface_metadata(surface, model) -> dict:
    return {
        "model": model.to_dict(),
        "eps": surface.eps,
        "true_class": surface.true_class,
        "trials": surface.trials,
        "seed": surface.seed,
        "argmax_attack": surface.argmax_attack.tolist(),
        "max_error": surface.max_error,
    }


def _cmd_nn_class(args) -> int:
    model = _load_model(args.model)
    _warn_nonuniform(model)
    kappa = args.eps if args.kappa is None else args.kappa
    check_eps(args.eps, kappa)
    lines = ["classifier,true_class,nn_class,score,degenerate"]
    for j in range(model.num_classes):
        sel = nn_class_min_distance(model, j, kappa)
        lines.append(f"min-distance,{j},{sel.target},{_fmt(sel.scores[sel.target])},false")
        sel = nn_class_glrt(model, j, args.eps, kappa)
        lines.append(f"glrt,{j},{sel.target},{_fmt(sel.scores[sel.target])},"
                     f"{'true' if sel.degenerate else 'false'}")
    with _open_out(args) as fh:
        fh.write("\n".join(lines) + "\n")
    return _EXIT_OK


def _cmd_sigma_search(args) -> int:
    profile = TwoLevelProfile(d=args.d, p=args.p, a=args.a, b=args.b, eps=args.eps)
    sigma = sigma_for_target_error(
        profile, args.kappa, args.target,
        method=args.method,
        trials=args.trials if args.trials is not None else 200_000,
        seed=args.seed,
    )
    with _open_out(args) as fh:
        fh.write(json.dumps({"sigma": sigma, "sigma_sq": sigma * sigma,
                             "target_error": args.target, "method": args.method}) + "\n")
    return _EXIT_OK


def _cmd_reproduce(args) -> int:
    recipe = configs.figure_recipe(args.figure, trials=args.trials, seed=args.seed)
    if isinstance(recipe, configs.MomentStudyRecipe):
        rows = moment_study(recipe.mus, recipe.eps, recipe.kappa, recipe.sigma,
                            trials=recipe.trials, seed=recipe.seed, threads=args.threads)
        _write_moment_rows(rows, recipe, args)
        return _EXIT_OK
    if isinstance(recipe, configs.SurfaceRecipe):
        classifier = build_classifier(recipe.classifier, recipe.model, recipe.eps)
        surface = brute_force_attack_oracle(
            recipe.model, classifier, recipe.true_class, recipe.eps,
            grid_points_per_axis=recipe.grid_points_per_axis,
            trials=recipe.trials, seed=recipe.seed, threads=args.threads,
        )
        _write_surface(surface, recipe.model, args)
        return _EXIT_OK
    recipes = recipe if isinstance(recipe, list) else [recipe]
    _write_rows(args, CSV_HEADER, format_row, lambda sink: {
        "configs": [r.metadata for r in run_experiments(recipes, args.threads, sink)],
        "seed": args.seed,
    })
    return _EXIT_OK


def _write_moment_rows(rows, recipe, args) -> None:
    def run(sink):
        for row in rows:
            sink(row)
        return {
            "eps": recipe.eps, "kappa": recipe.kappa, "sigma": recipe.sigma,
            "trials": recipe.trials, "seed": recipe.seed,
        }

    _write_rows(args, ",".join(MOMENT_COLUMNS), lambda row: format_row(row, MOMENT_COLUMNS), run)


if __name__ == "__main__":
    sys.exit(main())
