"""Seeded Monte Carlo engine and declarative experiment sweeps.

The engine turns (model, classifier, attack policy) into error frequencies
with reproducibility guarantees: noise comes from counter-based substreams
keyed by (seed, block), errors are integer counts per block, and merging
counts is order-independent, so results are byte-identical for any
`threads` setting. Common random numbers are shared across every cell
that shares a model (a whole kappa or eps_over_sigma_sq sweep, or one
dimension), which turns the paper-style ordering comparisons into paired
tests.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    METHOD_CLT_EXACT,
    METHOD_MONTE_CARLO,
    ErrorEstimate,
    clt_error,
    sigma_for_target_error,
)
from .attacks import heuristic_agnostic_attack, noise_aware_labels
from .classifiers import ClassifierKind, build_classifier
from .model import (
    REJECT,
    AttackMode,
    AttackSpec,
    HypothesisModel,
    TwoLevelProfile,
)
from .rng import block_plan, noise_block

__all__ = [
    "CSV_HEADER",
    "TrialCounts",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "model_from_dict",
    "monte_carlo_error",
    "run_experiment",
]

CSV_HEADER = (
    "sweep_axis,sweep_value,classifier,attack_mode,kappa,error,ci,reject_rate,method,seed"
)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass
class TrialCounts:
    """Integer tallies of one class-conditional simulation."""

    errors: int = 0
    rejects: int = 0
    trials: int = 0

    def merge(self, other: "TrialCounts") -> None:
        self.errors += other.errors
        self.rejects += other.rejects
        self.trials += other.trials

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def reject_rate(self) -> float:
        return self.rejects / self.trials

    def ci_halfwidth(self) -> float:
        p = self.error_rate
        return _Z95 * math.sqrt(p * (1.0 - p) / self.trials)


def _attack_plan(model, classifier, spec: AttackSpec, true_class: int):
    """Reduce an AttackSpec to either a fixed vector or the aware procedure."""
    if spec.mode is AttackMode.NONE:
        return ("fixed", np.zeros(model.dim))
    if spec.mode is AttackMode.FIXED_VECTOR:
        return ("fixed", spec.vector)
    if spec.mode is AttackMode.NOISE_AGNOSTIC_HEURISTIC:
        result = heuristic_agnostic_attack(
            model, classifier.kind, true_class, spec.budget, spec.strength
        )
        return ("fixed", result.vector)
    if spec.mode is AttackMode.NOISE_AWARE_OPTIMAL:
        return ("aware", spec.strength)
    raise ValueError(f"unknown attack mode: {spec.mode}")


def _count_block(model, classifier, plan, true_class, z_block, sigma) -> TrialCounts:
    """Tally errors and rejects on one block of standard normal draws."""
    j = true_class
    # mu_j + sigma * z, built in place so that one (rows, d) array is live per task
    base = sigma * z_block
    base += model.means[j]
    if plan[0] == "fixed":
        base += plan[1]
        labels = classifier.decide_batch(base)
    else:
        labels, _ = noise_aware_labels(model, classifier, base, j, plan[1])
    return TrialCounts(int((labels != j).sum()), int((labels == REJECT).sum()), z_block.shape[0])


def _monte_carlo_cells(model, cells, true_class, trials, seed, threads) -> list[tuple]:
    """(error, ci, reject_rate) of each (classifier, AttackSpec, sigma) cell.

    The one place where Monte Carlo noise is drawn: each block is drawn
    once and every cell and true class is tallied on it, so all cells
    share common random numbers. true_class picks a class-conditional
    error; None weights the class-conditional errors with the priors.
    """
    blocks = list(block_plan(trials))
    classes = [true_class] if true_class is not None else range(model.num_classes)
    tasks = [
        (classifier, _attack_plan(model, classifier, spec, j), j, sigma)
        for classifier, spec, sigma in cells
        for j in classes
    ]

    def run_block(block_spec):
        b, _, rows = block_spec
        z = noise_block(seed, b, rows, model.dim)
        return [_count_block(model, clf, plan, j, z, sigma) for clf, plan, j, sigma in tasks]

    totals = [TrialCounts() for _ in tasks]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(run_block, blocks))
    else:
        tallies = map(run_block, blocks)
    for block_counts in tallies:
        for total, counts in zip(totals, block_counts):
            total.merge(counts)

    out = []
    per_cell = iter(totals)
    for _ in cells:
        err = rej = var = 0.0
        for j in classes:
            counts = next(per_cell)
            w = 1.0 if true_class is not None else float(model.priors[j])
            err += w * counts.error_rate
            rej += w * counts.reject_rate
            var += (w * counts.ci_halfwidth()) ** 2
        out.append((err, math.sqrt(var), rej))
    return out


def monte_carlo_error(
    model: HypothesisModel,
    classifier,
    attack: AttackSpec,
    true_class: int | None = None,
    trials: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> ErrorEstimate:
    """Empirical error frequency with a 95% confidence half-width.

    true_class picks a class-conditional error; None averages the
    class-conditional errors with the model's priors (all classes reuse
    the same noise draws).
    """
    if true_class is not None:
        true_class = model.check_class(true_class)
    [(value, ci, _)] = _monte_carlo_cells(
        model, [(classifier, attack, model.sigma)], true_class, trials, seed, threads
    )
    return ErrorEstimate(value=value, method=METHOD_MONTE_CARLO, ci_halfwidth=ci, trials=trials)


# --------------------------------------------------------------------------
# Declarative sweeps

SWEEP_KAPPA = "kappa"
SWEEP_EPS_OVER_SIGMA_SQ = "eps_over_sigma_sq"
SWEEP_DIMENSION = "dimension"

_VALID_AXES = (SWEEP_KAPPA, SWEEP_EPS_OVER_SIGMA_SQ, SWEEP_DIMENSION)


class ConfigError(ValueError):
    """Experiment configuration failed validation; message names the field."""


@dataclass
class ExperimentConfig:
    """Declarative description of one tabular experiment sweep.

    Exactly one of model / profile is set. For the dimension axis, profile
    is mandatory and the noise level is calibrated per dimension to hit
    target_error; otherwise sigma comes from the model or the explicit
    sigma field.
    """

    eps: float
    classifiers: list[ClassifierKind]
    attack_modes: list[AttackMode]
    sweep_axis: str
    sweep_values: list[float]
    trials: int = 100_000
    seed: int = 0
    model: HypothesisModel | None = None
    profile: TwoLevelProfile | None = None
    sigma: float | None = None
    kappas: list[float] = field(default_factory=lambda: [None])
    true_class: int | None = None
    target_error: float | None = None
    calibration_method: str = METHOD_CLT_EXACT

    def validate(self) -> None:
        if (self.model is None) == (self.profile is None):
            raise ConfigError("model/profile: exactly one must be given")
        if self.true_class is not None:
            classes = self.model.num_classes if self.model is not None else 2
            if not 0 <= self.true_class < classes:
                raise ConfigError(
                    f"true_class: must lie in [0, {classes}), got {self.true_class}"
                )
        if self.sweep_axis not in _VALID_AXES:
            raise ConfigError(f"sweep.axis: must be one of {_VALID_AXES}, got {self.sweep_axis!r}")
        if not self.sweep_values:
            raise ConfigError("sweep.values: must be non-empty")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if not self.classifiers:
            raise ConfigError("classifiers: must be non-empty")
        if not self.attack_modes:
            raise ConfigError("attack_modes: must be non-empty")
        if AttackMode.FIXED_VECTOR in self.attack_modes:
            raise ConfigError(
                f"attack_modes: {AttackMode.FIXED_VECTOR.value!r} needs a vector, "
                "which a config cannot carry"
            )
        if self.eps < 0:
            raise ConfigError(f"eps: must be >= 0, got {self.eps}")
        if self.sweep_axis == SWEEP_DIMENSION:
            if self.profile is None:
                raise ConfigError("sweep.axis=dimension requires a profile, not a model")
            if self.target_error is None:
                raise ConfigError("sweep.axis=dimension requires target_error")
            if any(int(v) != v or v < 1 for v in self.sweep_values):
                raise ConfigError("sweep.values: dimensions must be positive integers")
            if len(self.kappas) != 1:
                raise ConfigError(f"kappas: the dimension axis takes one value, got {self.kappas}")
            if self.profile.eps != self.eps:
                # sigma is calibrated at the profile's eps, then simulated at eps
                raise ConfigError(
                    f"eps: the dimension axis needs eps equal to profile.eps, got "
                    f"eps = {self.eps} and profile.eps = {self.profile.eps}"
                )
        elif self.sweep_axis == SWEEP_EPS_OVER_SIGMA_SQ:
            for value in self.sweep_values:
                if not value > 0:
                    raise ConfigError(f"sweep.values: (eps/sigma)^2 must be > 0, got {value}")
        else:
            if self.model is None and self.sigma is None:
                raise ConfigError("sigma: required when sweeping a profile over kappa")
            for value in self.sweep_values:
                if not 0 <= value <= self.eps + 1e-12:
                    raise ConfigError(f"sweep.values: kappa must lie in [0, eps], got {value}")
        for kappa in self.kappas:
            if kappa is None:
                continue
            if not 0 <= _number("kappas", kappa) <= self.eps + 1e-12:
                raise ConfigError(f"kappas: each must lie in [0, eps], got {kappa}")

    def resolved_kappas(self) -> list[float]:
        """Employed strengths of the non-kappa axes; None stands for eps."""
        return [k if k is not None else self.eps for k in self.kappas]

    def resolved_model(self) -> HypothesisModel:
        if self.model is not None:
            return self.model
        assert self.profile is not None
        return self.profile.to_model(self.sigma if self.sigma is not None else 1.0)

    def to_dict(self) -> dict:
        d: dict = {
            "eps": self.eps,
            "classifiers": [c.value for c in self.classifiers],
            "attack_modes": [m.value for m in self.attack_modes],
            "sweep": {"axis": self.sweep_axis, "values": list(self.sweep_values)},
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.model is not None:
            d["model"] = {
                "means": self.model.means.tolist(),
                "sigma": self.model.sigma,
                "priors": self.model.priors.tolist(),
            }
        if self.profile is not None:
            p = self.profile
            d["profile"] = {"d": p.d, "p": p.p, "a": p.a, "b": p.b, "eps": p.eps}
        if self.sigma is not None:
            d["sigma"] = self.sigma
        if any(k is not None for k in self.kappas):
            d["kappas"] = list(self.kappas)
        if self.true_class is not None:
            d["true_class"] = self.true_class
        if self.target_error is not None:
            d["target_error"] = self.target_error
            d["calibration_method"] = self.calibration_method
        return d

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        return _config_from_dict(raw)


@dataclass
class ExperimentResult:
    """Sweep output: one row per (sweep point, classifier, attack mode, kappa)."""

    rows: list[dict]
    metadata: dict


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def format_row(row: dict) -> str:
    return ",".join(
        _fmt(row[key])
        for key in (
            "sweep_axis", "sweep_value", "classifier", "attack_mode", "kappa",
            "error", "ci", "reject_rate", "method", "seed",
        )
    )


def _make_row(config, sweep_value, kind, mode, kappa, **fields) -> dict:
    row = {
        "sweep_axis": config.sweep_axis,
        "sweep_value": sweep_value,
        "classifier": kind.value,
        "attack_mode": mode.value,
        "kappa": kappa,
        "error": None,
        "ci": None,
        "reject_rate": None,
        "method": METHOD_MONTE_CARLO,
        "seed": config.seed,
    }
    row.update(fields)
    return row


def run_experiment(config: ExperimentConfig, threads: int = 1, row_sink=None) -> ExperimentResult:
    """Execute a sweep. Deterministic for a given (config, seed).

    row_sink, if given, receives each row as soon as it is final, so
    partial results of long sweeps survive interruption. Cells that share
    a model are sampled together: one group for the kappa and
    eps_over_sigma_sq axes (common random numbers across the sweep), one
    group per dimension, whose rows are final before the next dimension
    is calibrated.
    """
    config.validate()
    rows = []
    for model, cells in _cell_groups(config):
        classifiers = {kind: build_classifier(kind, model, config.eps) for kind in config.classifiers}
        estimates = _monte_carlo_cells(
            model,
            [
                (classifiers[kind], _spec_for(config.eps, mode, kappa),
                 _sigma_for(config, model, value))
                for value, kind, mode, kappa in cells
            ],
            config.true_class, config.trials, config.seed, threads,
        )
        for row in _group_rows(config, model, cells, estimates):
            rows.append(row)
            if row_sink is not None:
                row_sink(row)
    metadata = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "trials": config.trials,
    }
    return ExperimentResult(rows=rows, metadata=metadata)


def _cells_for(config) -> list[tuple]:
    """(sweep_value, kind, mode, kappa) grid, kappa resolved per axis."""
    cells = []
    for value in config.sweep_values:
        if config.sweep_axis == SWEEP_DIMENSION:
            value = int(value)
        kappa_list = [value] if config.sweep_axis == SWEEP_KAPPA else config.resolved_kappas()
        for kind in config.classifiers:
            for mode in config.attack_modes:
                for kappa in kappa_list:
                    if mode is AttackMode.NONE:
                        kappa = 0.0
                    cells.append((value, kind, mode, kappa))
    # NONE mode ignores kappa; drop duplicate cells it would create
    return list(dict.fromkeys(cells))


def _cell_groups(config):
    """(model, cells) pairs; the cells of one pair share its noise draws.

    The dimension axis calibrates sigma per dimension, lazily, so that a
    dimension's rows are emitted before the next one is calibrated.
    """
    cells = _cells_for(config)
    if config.sweep_axis != SWEEP_DIMENSION:
        yield config.resolved_model(), cells
        return
    [kappa] = config.resolved_kappas()
    for d, group in itertools.groupby(cells, key=lambda cell: cell[0]):
        profile = config.profile.with_dimension(d)
        sigma = sigma_for_target_error(
            profile, kappa, config.target_error,
            method=config.calibration_method, seed=config.seed,
        )
        yield profile.to_model(sigma), list(group)


def _sigma_for(config, model, value) -> float:
    if config.sweep_axis == SWEEP_EPS_OVER_SIGMA_SQ:
        return config.eps / math.sqrt(value)
    return model.sigma


def _spec_for(eps: float, mode: AttackMode, kappa: float) -> AttackSpec:
    if mode is AttackMode.NONE:
        return AttackSpec.none()
    return AttackSpec(budget=eps, strength=kappa, mode=mode)


def _group_rows(config, model, cells, estimates):
    """Rows of one cell group, in cell order.

    On the dimension axis each sweep point's GLRT Monte Carlo rows are
    followed by the CLT prediction, which models the agnostic sign attack.
    """
    estimated = zip(cells, estimates)
    for (value, kind), block in itertools.groupby(estimated, key=lambda pair: pair[0][:2]):
        for (_, _, mode, kappa), (err, ci, rej) in block:
            yield _make_row(
                config, value, kind, mode, kappa,
                error=err, ci=ci,
                reject_rate=rej if kind is ClassifierKind.PAIRWISE_ROBUST_LINEAR else None,
            )
        if config.sweep_axis == SWEEP_DIMENSION and kind is ClassifierKind.GLRT:
            [kappa] = config.resolved_kappas()
            yield _make_row(
                config, value, kind, AttackMode.NOISE_AGNOSTIC_HEURISTIC, kappa,
                error=clt_error(model, config.eps, kappa).value, method=METHOD_CLT_EXACT,
            )


def model_from_dict(raw: dict) -> HypothesisModel:
    """Model from its JSON object {"means", "sigma", "priors"?}; errors name `model`."""
    try:
        return HypothesisModel(
            means=np.asarray(raw["means"], dtype=float),
            sigma=float(raw["sigma"]),
            priors=np.asarray(raw["priors"], dtype=float) if "priors" in raw else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _number(name: str, value) -> float:
    """A JSON number as a float; anything else is a ConfigError naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _integer(name: str, value) -> int:
    """A JSON number with no fractional part (2 or 2.0, not 2.7) as an int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name}: expected an integer, got {value!r}")


def _config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    known = {
        "model", "profile", "sigma", "eps", "classifiers", "attack_modes",
        "kappas", "sweep", "trials", "seed", "true_class", "target_error",
        "calibration_method",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config: unknown fields {sorted(unknown)}")

    def need(name):
        if name not in raw:
            raise ConfigError(f"{name}: required field is missing")
        return raw[name]

    model = model_from_dict(raw["model"]) if "model" in raw else None
    profile = None
    if "profile" in raw:
        p = raw["profile"]
        try:
            profile = TwoLevelProfile(
                d=_integer("d", p["d"]), p=float(p["p"]), a=float(p["a"]),
                b=float(p["b"]), eps=float(p["eps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"profile: {exc}") from exc

    try:
        classifiers = [ClassifierKind(c) for c in need("classifiers")]
    except ValueError as exc:
        raise ConfigError(f"classifiers: {exc}") from exc
    try:
        modes = [AttackMode(m) for m in raw.get("attack_modes", ["agnostic"])]
    except ValueError as exc:
        raise ConfigError(f"attack_modes: {exc}") from exc

    kappas = raw.get("kappas", [None])
    if not isinstance(kappas, list):
        raise ConfigError(f"kappas: expected a list, got {kappas!r}")

    sweep = need("sweep")
    if not isinstance(sweep, dict) or "axis" not in sweep or "values" not in sweep:
        raise ConfigError("sweep: expected an object with 'axis' and 'values'")
    if not isinstance(sweep["values"], list):
        raise ConfigError(f"sweep.values: expected a list, got {sweep['values']!r}")

    config = ExperimentConfig(
        eps=_number("eps", need("eps")),
        classifiers=classifiers,
        attack_modes=modes,
        sweep_axis=str(sweep["axis"]),
        sweep_values=[_number("sweep.values", v) for v in sweep["values"]],
        trials=_integer("trials", raw.get("trials", 100_000)),
        seed=_integer("seed", raw.get("seed", 0)),
        model=model,
        profile=profile,
        sigma=_number("sigma", raw["sigma"]) if "sigma" in raw else None,
        kappas=kappas,
        true_class=(_integer("true_class", raw["true_class"])
                    if raw.get("true_class") is not None else None),
        target_error=(_number("target_error", raw["target_error"])
                      if "target_error" in raw else None),
        calibration_method=str(raw.get("calibration_method", METHOD_CLT_EXACT)),
    )
    config.validate()
    return config
