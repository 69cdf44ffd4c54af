"""Seeded Monte Carlo engine and declarative experiment sweeps.

The engine turns (model, classifier, attack policy) into error frequencies
with reproducibility guarantees: noise comes from counter-based substreams
keyed by (seed, block), errors are integer counts per block, and
`rng.sum_over_blocks` adds them in block order, so results are
byte-identical for any `threads` setting. Common random numbers are
shared by every cell of one run that has the same seed, trials and
true class (a whole kappa, eps_over_sigma_sq or dimension sweep), across
the configs of a multi-config run too, which turns the paper-style
ordering comparisons into paired tests and draws each noise block once
per run. The block is drawn at the widest dimension of the cells that
share it, and a narrower cell reads its block as a prefix of that draw,
so a dimension sweep's rows are all final, and arrive, after its last
block. The draw is streamed: `_tally_block` reads the block's substream
in order into a window of about two tiles, so a block's memory does not
grow with its dimension, and up to `threads` windows are alive at once.
A sweep's points come from one generator, `_sweep_points`: each point's
value, its classifiers (built once per model), its sigma (calibrated per
dimension on the dimension axis) and its distinct (classifier, attack mode,
kappa) cells. `_tally_configs` turns the cells of every point into Monte
Carlo cells and the estimates back into rows, in sweep order.
Each cell's attack is resolved once to replays (`_attack_plan`), and each
sign attack and NN target is built once per run. Cells that see the same
observations (same model, classifier, true class and sigma) decide each of
their distinct attacks once per row tile, and a cell errs where one of its
replays does. The GLRT counts errors, not labels: an attack that only
serves as a noise-aware replay toward rival l is checked against l alone,
any other against every rival (`GlrtClassifier.attack_errors`). The other
rules take each cell's labels from its replays by one rule,
`attacks.noise_aware_labels`, which PRL's reject count needs.

This module also owns the sweep row: COLUMNS names its fields, `sweep_row`
builds one (for sweeps and for the CLI's `predict`), and `format_row` with
`_fmt`, the one number formatter of every CSV the CLI writes, prints it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    METHOD_CLT_EXACT,
    METHOD_MONTE_CARLO,
    ErrorEstimate,
    clt_error,
    sigma_for_target_error,
)
# heuristic_agnostic_attack stays bound here: bench/tracing.py patches it through this name
from .attacks import _NN_CRITERIA, binary_sign_attack, noise_aware_labels
from .attacks import heuristic_agnostic_attack  # noqa: F401
from .classifiers import ClassifierKind, build_classifier
from .model import (
    REJECT,
    AttackMode,
    AttackSpec,
    ConfigError,
    HypothesisModel,
    TwoLevelProfile,
    _integer,
    _number,
    check_eps,
)
from .rng import noise_block, substream, sum_over_blocks

__all__ = [
    "COLUMNS",
    "CSV_HEADER",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "format_row",
    "monte_carlo_error",
    "run_experiment",
    "run_experiments",
    "sweep_row",
]

#: The fields of a sweep row, in CSV column order.
COLUMNS = ("sweep_axis", "sweep_value", "classifier", "attack_mode", "kappa",
           "error", "ci", "reject_rate", "method", "seed")
CSV_HEADER = ",".join(COLUMNS)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# float64 values per observation tile of `_tally_block` (512 KB), the size of
# the decision kernel's workspace
_TILE_ELEMENTS = 1 << 16


def _attack_plan(model, classifier, spec: AttackSpec, true_class: int, built: dict) -> list:
    """An AttackSpec's replays as (rivals, attack) pairs: one attack, unless it is noise-aware.

    rivals are the classes that the attack must be checked against for the
    GLRT's errors. The noise-aware replays are the zero attack and the sign
    attack toward each rival l. That sign attack minimises the GLRT's cost
    gap between l and class j over the kappa box, so under it only l need
    be checked against j. Every other attack, the zero replay included, is
    scored by its own label, so it is checked against every class but j.
    The agnostic attack is the sign attack toward its NN target. built
    memoizes, across the plans of one `_decision_groups` call, each sign
    attack by (model, j, rival, kappa) and each NN target by (model,
    criterion, j, budget, kappa).
    """
    j, kappa = true_class, spec.strength
    others = [k for k in range(model.num_classes) if k != j]

    def sign(k):
        key = (id(model), j, k, kappa)
        if key not in built:
            built[key] = binary_sign_attack(model, j, k, kappa)
        return built[key]

    if spec.mode is AttackMode.NOISE_AWARE_OPTIMAL:
        return [(others, np.zeros(model.dim))] + [([k], sign(k)) for k in others]
    if spec.mode is AttackMode.NONE:
        return [(others, np.zeros(model.dim))]
    if spec.mode is AttackMode.FIXED_VECTOR:
        return [(others, spec.vector)]
    if spec.mode is AttackMode.NOISE_AGNOSTIC_HEURISTIC:
        criterion = _NN_CRITERIA[classifier.kind]
        key = (id(model), criterion, j, spec.budget, kappa)
        if key not in built:
            built[key] = criterion(model, j, spec.budget, kappa).target
        return [(others, sign(built[key]))]
    raise ValueError(f"unknown attack mode: {spec.mode}")


def _decision_groups(tasks) -> list[tuple[list, np.ndarray, list]]:
    """(members, attacks, rivals) of each group of tasks that see the same observations.

    Those are tasks with the same model and classifier objects, true class
    and sigma. attacks holds the group's distinct attack vectors, one per
    row; member (task, picks) replays attacks[p] for each p in picks, in
    order. rivals[p] lists, in increasing order, every class that some
    member's `_attack_plan` checks attack p against. Each attack is built
    once.
    """
    built: dict = {}
    groups: dict[tuple, tuple[list, dict]] = {}
    for t, (model, classifier, spec, j, sigma) in enumerate(tasks):
        members, attacks = groups.setdefault((id(model), id(classifier), j, sigma), ([], {}))
        picks = []
        for rivals, e in _attack_plan(model, classifier, spec, j, built):
            p, _, needed = attacks.setdefault(e.tobytes(), (len(attacks), e, set()))
            needed.update(rivals)
            picks.append(p)
        members.append((t, picks))
    return [(members, np.array([e for _, e, _ in attacks.values()]),
             [tuple(sorted(needed)) for _, _, needed in attacks.values()])
            for members, attacks in groups.values()]


def _tally_tile(counts, members, attacks, rivals, classifier, j, base, work) -> None:
    """Add each member's (errors, rejects) on one tile of observations, base.

    One call decides each of the group's distinct attacks once on the tile.
    The GLRT counts errors only, and never rejects: `attack_errors` checks
    each attack against its rivals, and a member's errors are the OR of its
    attacks' masks, the rows where some replay leaves j. Every other rule
    takes its labels from its replays through `noise_aware_labels`: PRL's
    reject count needs the label of the first replay that leaves j.
    """
    if classifier.kind is ClassifierKind.GLRT:
        wrong = classifier.attack_errors(base, j, attacks, rivals, work=work)
        for t, picks in members:
            counts[t, 0] += np.count_nonzero(np.any(wrong[picks], axis=0))
        return
    decided = classifier.decide_attacks(base, attacks, work=work)
    for t, picks in members:
        labels = noise_aware_labels(j, [decided[i] for i in picks])
        counts[t, 0] += np.count_nonzero(labels != j)
        counts[t, 1] += np.count_nonzero(labels == REJECT)


def _tally_block(tasks, groups, seed, block, rows, widest) -> np.ndarray:
    """(errors, rejects) of every task, one row each, on one noise block.

    The block's substream is opened once and read in order through
    `noise_block`, in chunks of whole rows at the widest dimension of the
    tasks, into a ring window of about two tiles: 2 * max(largest tile,
    widest) values, or the whole block, in one chunk, when that is smaller.
    A group of dimension d reads the first rows * d values of the stream as
    its own (rows, d) block, which is what `noise_block` draws at d. It
    decides its next tile of about _TILE_ELEMENTS values as soon as the
    stream has drawn the tile's last value, and the window overwrites a
    value once every unfinished group has passed it, so the memory of a
    block does not grow with rows * widest.
    For each tile, mu_j + sigma * z is built from the window in one buffer
    reused by every group (the scaling reads the ring, so no value is
    copied twice), and `_tally_tile` decides each of the group's distinct
    attacks once on it and adds up its members' errors and rejects. Each
    row is decided on its own, so neither tiling, chunking nor sharing
    changes a single count.
    """
    dims = [attacks.shape[1] for _, attacks, _ in groups]
    steps = [min(max(1, _TILE_ELEMENTS // dim), rows) for dim in dims]
    # one pair of tile buffers per block, large enough for every group's tile
    size = max(step * dim for step, dim in zip(steps, dims))
    tile_buffer = np.empty(size)
    attacked_buffer = np.empty(size)
    # value v of the block, once drawn, sits at window[v % window.size] until overwritten;
    # room for a tile and a row past the first value still needed means every refill
    # completes the next tile of the group that needs that value
    window = np.empty(min(rows, -(-2 * max(size, widest) // widest)) * widest)
    stream = substream(seed, block)
    drawn = 0
    starts = [0] * len(groups)  # the first row of each group's next tile
    counts = np.zeros((len(tasks), 2), dtype=np.int64)
    while True:
        for g, (step, dim, (members, attacks, rivals)) in enumerate(zip(steps, dims, groups)):
            model, classifier, _, j, sigma = tasks[members[0][0]]
            while starts[g] < rows and min(starts[g] + step, rows) * dim <= drawn:
                n = min(step, rows - starts[g])
                # sigma * z of the tile, from one or (across the ring's end) two runs of the window
                at = starts[g] * dim % window.size
                head = min(n * dim, window.size - at)
                np.multiply(sigma, window[at:at + head], out=tile_buffer[:head])
                if head < n * dim:
                    np.multiply(sigma, window[:n * dim - head], out=tile_buffer[head:n * dim])
                base = tile_buffer[:n * dim].reshape(n, dim)
                base += model.means[j]
                # the GLRT adds a lone attack in place, which keeps one tile in cache
                # (a dimension sweep's groups); several need the tile kept intact
                work = base if len(attacks) == 1 else attacked_buffer[:n * dim].reshape(n, dim)
                _tally_tile(counts, members, attacks, rivals, classifier, j, base, work)
                starts[g] += n
        needed = [start * dim for start, dim in zip(starts, dims) if start < rows]
        if not needed:
            return counts
        # draw on, in whole widest rows, up to one window past the first value still needed
        end = min(rows, (min(needed) + window.size) // widest) * widest
        while drawn < end:
            at = drawn % window.size
            n = min(end - drawn, window.size - at)
            noise_block(seed, block, n // widest, widest, stream=stream,
                        out=window[at:at + n].reshape(-1, widest))
            drawn += n


def _monte_carlo_cells(cells, true_class, trials, seed, threads) -> list[tuple]:
    """(error, ci, reject_rate) of each (model, classifier, AttackSpec, sigma) cell.

    The one place where the engine draws Monte Carlo noise: each block is
    drawn once, at the widest dimension of the cells' models, streamed
    through `_tally_block`'s window, and every cell and true class is
    tallied on it, so all cells share common random numbers;
    `rng.sum_over_blocks` adds up the blocks' integer counts, with up to
    `threads` blocks, and so windows, alive at once. A cell of narrower
    dimension d reads the first d-wide block of that draw, the block
    `noise_block` gives at d (its prefix property), so its counts do not
    depend on the other cells. The models may differ in anything.
    true_class picks a class-conditional error; None weights each model's
    class-conditional errors with its priors.
    """
    widest = max(model.dim for model, _, _, _ in cells)

    def classes(model):
        return [true_class] if true_class is not None else range(model.num_classes)

    tasks = [
        (model, classifier, spec, j, sigma)
        for model, classifier, spec, sigma in cells
        for j in classes(model)
    ]
    groups = _decision_groups(tasks)
    totals = sum_over_blocks(
        trials, lambda b, rows: _tally_block(tasks, groups, seed, b, rows, widest), threads)

    # Wald intervals from the integer totals, weighted and added in quadrature
    out = []
    per_task = iter(totals.tolist())
    for model, _, _, _ in cells:
        err = rej = var = 0.0
        for j in classes(model):
            errors, rejects = next(per_task)
            w = 1.0 if true_class is not None else float(model.priors[j])
            p = errors / trials
            err += w * p
            rej += w * (rejects / trials)
            var += (w * (_Z95 * math.sqrt(p * (1.0 - p) / trials))) ** 2
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
        [(model, classifier, attack, model.sigma)], true_class, trials, seed, threads
    )
    return ErrorEstimate(value=value, method=METHOD_MONTE_CARLO, ci_halfwidth=ci, trials=trials)


# --------------------------------------------------------------------------
# Declarative sweeps

SWEEP_KAPPA = "kappa"
SWEEP_EPS_OVER_SIGMA_SQ = "eps_over_sigma_sq"
SWEEP_DIMENSION = "dimension"

_VALID_AXES = (SWEEP_KAPPA, SWEEP_EPS_OVER_SIGMA_SQ, SWEEP_DIMENSION)


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
        check_eps(self.eps)
        if self.target_error is not None and not 0 < self.target_error < 0.5:
            raise ConfigError(f"target_error: must lie in (0, 0.5), got {self.target_error}")
        if self.calibration_method not in (METHOD_CLT_EXACT, METHOD_MONTE_CARLO):
            raise ConfigError(f"calibration_method: must be {METHOD_CLT_EXACT!r} or "
                              f"{METHOD_MONTE_CARLO!r}, got {self.calibration_method!r}")
        if self.sweep_axis == SWEEP_DIMENSION:
            if self.profile is None:
                raise ConfigError("sweep.axis=dimension requires a profile, not a model")
            if self.target_error is None:
                raise ConfigError("sweep.axis=dimension requires target_error")
            if any(not float(v).is_integer() or v < 1 for v in self.sweep_values):
                raise ConfigError("sweep.values: dimensions must be positive integers")
            for value in self.sweep_values:
                try:
                    self.profile.with_dimension(int(value))
                except ValueError as exc:
                    raise ConfigError(f"sweep.values: {exc}") from None
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
                if not 0 < value < math.inf:
                    raise ConfigError(
                        f"sweep.values: (eps/sigma)^2 must be finite and > 0, got {value}")
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
            d["model"] = self.model.to_dict()
        if self.profile is not None:
            d["profile"] = self.profile.to_dict()
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
        """A validated config from its JSON object; errors name the field."""
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

        model = HypothesisModel.from_dict(raw["model"]) if "model" in raw else None
        profile = TwoLevelProfile.from_dict(raw["profile"]) if "profile" in raw else None
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


@dataclass
class ExperimentResult:
    """Sweep output: one row per (sweep point, classifier, attack mode, kappa)."""

    rows: list[dict]
    metadata: dict


def _fmt(value) -> str:
    """One value of a CSV row: floats to 10 significant digits, None empty."""
    if isinstance(value, float):
        return format(value, ".10g")
    return "" if value is None else str(value)


def format_row(row: dict, columns=COLUMNS) -> str:
    """The CSV line of a row dict, its values in the order of columns."""
    return ",".join(_fmt(row[key]) for key in columns)


def sweep_row(axis, value, kind, mode, kappa, error, method, seed,
              ci=None, reject_rate=None) -> dict:
    """A row of COLUMNS; ci and reject_rate stay None where no Monte Carlo count backs them."""
    return dict(zip(COLUMNS, (axis, value, kind.value, mode.value, kappa, float(error),
                              ci, reject_rate, method, seed)))


def run_experiment(config: ExperimentConfig, threads: int = 1, row_sink=None) -> ExperimentResult:
    """Execute one sweep: the one-config case of `run_experiments`.

    Deterministic for a given (config, seed). row_sink, if given, receives
    each row as soon as it is final, so partial results of long sweeps
    survive interruption. Every cell of the sweep shares one noise draw
    (common random numbers across the sweep) and is sampled with the
    others, a dimension sweep's at its widest dimension: every dimension
    is calibrated first, and the rows arrive after the last noise block.
    """
    [result] = run_experiments([config], threads, row_sink)
    return result


def run_experiments(configs, threads: int = 1, row_sink=None) -> list[ExperimentResult]:
    """Execute several sweeps as one run, one result per config.

    Every config is validated before any noise is drawn. The configs that
    share (seed, trials, true_class) have every point of their
    `_sweep_points` resolved, and then their cells tallied together on one
    draw of each noise block at their widest dimension, so common random
    numbers span configs and dimensions and no block is drawn twice. Rows
    come out config by config, each config's in its own order: row_sink
    receives the rows of the config being run once the last block of
    their draw is tallied (for a dimension sweep, all of its rows at
    once), and holds rows of a later config, tallied early, until every
    config before it is done.
    """
    configs = list(configs)
    for config in configs:
        config.validate()
    # noise key -> the indices of the configs that draw it, in run order
    sharing: dict[tuple, list] = {}
    for i, config in enumerate(configs):
        sharing.setdefault(_noise_key(config), []).append(i)

    held: dict[int, list] = {}  # config index -> rows tallied, not yet emitted
    results = []
    for i, config in enumerate(configs):
        if i not in held:
            key = _noise_key(config)
            members = sharing.pop(key)
            held.update(zip(members, _tally_configs([configs[m] for m in members], key, threads)))
        rows = held.pop(i)
        if row_sink is not None:
            for row in rows:
                row_sink(row)
        metadata = {
            "config": config.to_dict(),
            "config_hash": config.config_hash(),
            "seed": config.seed,
            "trials": config.trials,
        }
        results.append(ExperimentResult(rows=rows, metadata=metadata))
    return results


def _noise_key(config) -> tuple:
    """What decides a config's noise draws; configs with equal keys share them.

    The dimension is not part of it: every sweep point of one key, whatever
    its dimension, is tallied on one draw of each block at the widest of
    them, and the narrower points read their blocks as prefixes of it.
    """
    return (config.seed, config.trials, config.true_class)


def _tally_configs(configs, key, threads) -> list[list[dict]]:
    """Rows of each config, all tallied on the draws of their one noise key.

    Every config's `_sweep_points` are resolved, and so every sigma is
    calibrated, before the first block is drawn. On the dimension axis
    each sweep point's GLRT Monte Carlo rows are followed by the CLT
    prediction, which models the agnostic sign attack.
    """
    points = [(k, point) for k, config in enumerate(configs) for point in _sweep_points(config)]
    cells = [
        (classifiers[kind].model, classifiers[kind], _spec_for(configs[k].eps, mode, kappa), sigma)
        for k, (_, classifiers, sigma, point_cells) in points
        for kind, mode, kappa in point_cells
    ]
    seed, trials, true_class = key
    estimates = iter(_monte_carlo_cells(cells, true_class, trials, seed, threads))
    rows = [[] for _ in configs]
    for k, (value, classifiers, _, point_cells) in points:
        config = configs[k]
        for kind, kind_cells in itertools.groupby(point_cells, key=lambda cell: cell[0]):
            for _, mode, kappa in kind_cells:
                err, ci, rej = next(estimates)
                rows[k].append(sweep_row(
                    config.sweep_axis, value, kind, mode, kappa, err, METHOD_MONTE_CARLO,
                    config.seed, ci=ci,
                    reject_rate=rej if kind is ClassifierKind.PAIRWISE_ROBUST_LINEAR else None,
                ))
            if config.sweep_axis == SWEEP_DIMENSION and kind is ClassifierKind.GLRT:
                [kappa] = config.resolved_kappas()
                rows[k].append(sweep_row(
                    config.sweep_axis, value, kind, AttackMode.NOISE_AGNOSTIC_HEURISTIC, kappa,
                    clt_error(classifiers[kind].model, config.eps, kappa).value,
                    METHOD_CLT_EXACT, config.seed,
                ))
    return rows


def _sweep_points(config):
    """(value, classifiers, sigma, cells) of each sweep point, in sweep order.

    classifiers maps each kind to its classifier, built once per model: one
    model serves the whole sweep, except on the dimension axis, where each
    point calibrates its own sigma to target_error. cells holds the point's
    distinct (kind, mode, kappa) in first-seen order, kappa 0 for the none
    mode, and a repeated sweep value yields no second point.
    """
    axis = config.sweep_axis

    def build(model):
        return {kind: build_classifier(kind, model, config.eps) for kind in config.classifiers}

    if axis == SWEEP_DIMENSION:
        values = dict.fromkeys(int(value) for value in config.sweep_values)
    else:
        values = dict.fromkeys(config.sweep_values)
        model = config.resolved_model()
        classifiers = build(model)
    for value in values:
        kappas = [value] if axis == SWEEP_KAPPA else config.resolved_kappas()
        if axis == SWEEP_DIMENSION:
            profile = config.profile.with_dimension(value)
            model = profile.to_model(sigma_for_target_error(
                profile, kappas[0], config.target_error,
                method=config.calibration_method, seed=config.seed,
            ))
            classifiers = build(model)
        sigma = config.eps / math.sqrt(value) if axis == SWEEP_EPS_OVER_SIGMA_SQ else model.sigma
        cells = dict.fromkeys(
            (kind, mode, 0.0 if mode is AttackMode.NONE else kappa)
            for kind in config.classifiers for mode in config.attack_modes for kappa in kappas
        )
        yield value, classifiers, sigma, list(cells)


def _spec_for(eps: float, mode: AttackMode, kappa: float) -> AttackSpec:
    if mode is AttackMode.NONE:
        return AttackSpec.none()
    return AttackSpec(budget=eps, strength=kappa, mode=mode)
