"""The four benchmark workloads: what one unit runs, and how it is checked.

A unit drives the program only through `robustht.cli.main`, writing into a
scratch directory, with a seed of its own. `set_up` does what a user's
process does before its first result: import, build the CLI parser, the
recipe and the classifiers. `check` reads a unit's output files and
returns {check name: failure message or None}; every check compares
against `reference` (an independent numpy derivation) or against a
property the method must have.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref
import robustht.cli
from robustht import analysis, configs, rng
from robustht.classifiers import build_classifier

_REL_TOL = 1e-9  # outputs carry 10 significant digits
_WILSON_WIDTHS = 4.0


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit `index` of a run seeded with `seed`."""
    return seed * 100_000 + index


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(value: float, expected: float, rel: float = _REL_TOL) -> bool:
    return abs(value - expected) <= rel * abs(expected) + 1e-300


def _parse_help(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        robustht.cli.main([*argv, "--help"])


def _verdicts(names, failures: dict) -> dict:
    return {name: failures.get(name) for name in names}


class DimensionSweep:
    name = "dimension-sweep"
    trials = 4096
    checks = ("complete", "mc-row-exact", "clt-quadrature", "clt-hits-target", "mc-near-clt")

    def set_up(self):
        _parse_help(["reproduce"])
        for config in configs.figure_recipe("fig5", self.trials, 0):
            model = config.profile.to_model(1.0)
            for kind in config.classifiers:
                build_classifier(kind, model, config.eps)

    def run(self, seed: int, out: Path) -> int:
        return robustht.cli.main(["reproduce", "fig5", "--trials", str(self.trials),
                                  "--seed", str(seed), "--out", str(out / "fig5.csv")])

    def read(self, out: Path):
        return _read_csv(out / "fig5.csv")

    def check(self, rows, seed: int) -> dict:
        failures = {}
        recipes = configs.figure_recipe("fig5", self.trials, seed)
        table = {}
        for row in rows:
            key = (float(row["kappa"]), int(row["sweep_value"]), row["method"])
            table[key] = float(row["error"])
        expected = {(c.kappas[0], int(d), method) for c in recipes for d in c.sweep_values
                    for method in ("monte-carlo", "clt-analytic")}
        if set(table) != expected or len(rows) != len(expected):
            failures["complete"] = f"rows {sorted(table)} != {sorted(expected)}"
            return _verdicts(self.checks, failures)

        for config in recipes:
            kappa, eps, target = config.kappas[0], config.eps, config.target_error
            dims = [int(d) for d in config.sweep_values]
            for d in dims:
                profile = config.profile.with_dimension(d)
                sigma = analysis.sigma_for_target_error(
                    profile, kappa, target, method=config.calibration_method, seed=seed)
                clt = table[(kappa, d, "clt-analytic")]
                mc = table[(kappa, d, "monte-carlo")]
                quad = ref.clt_error_quadrature(
                    ref.profile_coordinates(d, profile.p, profile.a, profile.b, eps),
                    eps, kappa, sigma)
                if not _close(clt, quad):
                    failures["clt-quadrature"] = (
                        f"kappa={kappa} d={d}: clt {clt} != quadrature {quad}")
                if not _close(clt, target, 1e-3):
                    failures["clt-hits-target"] = (
                        f"kappa={kappa} d={d}: clt {clt} vs target {target}")
                if d == max(dims):
                    half = ref.wilson_halfwidth(mc, self.trials)
                    if abs(mc - clt) > _WILSON_WIDTHS * half:
                        failures["mc-near-clt"] = (
                            f"kappa={kappa} d={d}: |mc {mc} - clt {clt}| > 4 x {half}")
                if config is recipes[0] and d == min(dims):
                    means = ref.profile_means(d, profile.p, profile.a, profile.b, eps)
                    got = self._recount(means, sigma, eps, kappa, seed)
                    if abs(mc - got) > 0.1 / self.trials:
                        failures["mc-row-exact"] = f"kappa={kappa} d={d}: mc {mc} != recount {got}"
        return _verdicts(self.checks, failures)

    def _recount(self, means, sigma, eps, kappa, seed) -> float:
        """Prior-weighted GLRT error under the sign attack, from the same draws."""
        z = rng.noise_block(seed, 0, self.trials, means.shape[1])
        error = 0.0
        for j, other in ((0, 1), (1, 0)):
            x = (means[j] + sigma * z) + ref.sign_attack(means, j, other, kappa)
            # cost(other) - cost(j): the true class loses ties only when j = 1
            stat = (np.sum(ref.soft(x - means[other], eps) ** 2, axis=1)
                    - np.sum(ref.soft(x - means[j], eps) ** 2, axis=1))
            wrong = stat < 0 if j == 0 else stat <= 0
            error += 0.5 * (int(wrong.sum()) / self.trials)
        return error


class MulticlassSweep:
    name = "multiclass-sweep"
    trials = 4096
    recount_kappa = 1.0
    checks = ("complete", "aware-ge-agnostic", "modes-equal-at-kappa-0",
              "prl-reject-le-error", "numpy-recount")

    def set_up(self):
        _parse_help(["reproduce"])
        config = configs.figure_recipe("fig8", self.trials, 0)
        for kind in config.classifiers:
            build_classifier(kind, config.model, config.eps)

    def run(self, seed: int, out: Path) -> int:
        return robustht.cli.main(["reproduce", "fig8", "--trials", str(self.trials),
                                  "--seed", str(seed), "--out", str(out / "fig8.csv")])

    def read(self, out: Path):
        return _read_csv(out / "fig8.csv")

    def check(self, rows, seed: int) -> dict:
        failures = {}
        config = configs.figure_recipe("fig8", self.trials, seed)
        table = {(r["classifier"], r["attack_mode"], float(r["kappa"])): r for r in rows}
        expected = {(k.value, m.value, float(v)) for k in config.classifiers
                    for m in config.attack_modes for v in config.sweep_values}
        if set(table) != expected or len(rows) != len(expected):
            failures["complete"] = f"rows {sorted(table)} != {sorted(expected)}"
            return _verdicts(self.checks, failures)

        for (kind, mode, kappa), row in table.items():
            error = float(row["error"])
            if mode == "aware":
                agnostic = float(table[(kind, "agnostic", kappa)]["error"])
                if error < agnostic:
                    failures["aware-ge-agnostic"] = (
                        f"{kind} kappa={kappa}: aware {error} < agnostic {agnostic}")
                if kappa == 0.0 and error != agnostic:
                    failures["modes-equal-at-kappa-0"] = (
                        f"{kind}: aware {error} != agnostic {agnostic}")
            if kind == "prl" and float(row["reject_rate"]) > error:
                failures["prl-reject-le-error"] = (
                    f"{mode} kappa={kappa}: reject {row['reject_rate']} > error {error}")

        means, eps, kappa = config.model.means, config.eps, self.recount_kappa
        z = rng.noise_block(seed, 0, self.trials, means.shape[1])
        labelers = {"glrt": lambda x: ref.glrt_labels(x, means, eps),
                    "min-distance": lambda x: ref.min_distance_labels(x, means)}
        for kind, labels_of in labelers.items():
            for mode in ("agnostic", "aware"):
                error = 0.0
                for j in range(len(means)):
                    base = means[j] + config.model.sigma * z
                    target = ref.nn_target(means, j, kind, eps, kappa)
                    wrong = ref.count_errors(labels_of, means, j, base, kappa, mode, target)
                    error += (1.0 / len(means)) * (wrong / self.trials)
                got = float(table[(kind, mode, kappa)]["error"])
                if abs(got - error) > 0.1 / (len(means) * self.trials):
                    failures["numpy-recount"] = (
                        f"{kind} {mode} kappa={kappa}: program {got} != recount {error}")
        return _verdicts(self.checks, failures)


class AttackSurface:
    name = "attack-surface"
    trials = 2000
    checks = ("complete", "cells-recount", "max-near-heuristic")

    def set_up(self):
        _parse_help(["reproduce"])
        recipe = configs.figure_recipe("fig6", self.trials, 0)
        build_classifier(recipe.classifier, recipe.model, recipe.eps)

    def run(self, seed: int, out: Path) -> int:
        return robustht.cli.main(["reproduce", "fig6", "--trials", str(self.trials),
                                  "--seed", str(seed), "--out", str(out / "fig6.csv")])

    def read(self, out: Path):
        return _read_csv(out / "fig6.csv")

    def check(self, rows, seed: int) -> dict:
        failures = {}
        recipe = configs.figure_recipe("fig6", self.trials, seed)
        means, eps, sigma = recipe.model.means, recipe.eps, recipe.model.sigma
        j = recipe.true_class
        cells = {(float(r["e1"]), float(r["e2"])): float(r["error"]) for r in rows}
        n = recipe.grid_points_per_axis
        axis = set(np.round(np.linspace(-eps, eps, n), 12))
        if len(rows) != n * n or {round(e, 12) for pair in cells for e in pair} != axis:
            failures["complete"] = f"{len(rows)} rows, expected a {n} x {n} grid on [-eps, eps]"
            return _verdicts(self.checks, failures)

        z = np.concatenate([rng.noise_block(seed, b, rows_b, means.shape[1])
                            for b, _, rows_b in rng.block_plan(self.trials)])
        base = means[j] + sigma * z
        target = ref.nn_target(means, j, "glrt", eps, eps)
        heuristic = ref.sign_attack(means, j, target, eps)
        for e in (np.zeros(means.shape[1]), heuristic):
            got = cells.get(tuple(float(v) for v in e))
            wrong = int(np.sum(ref.glrt_labels(e + base, means, eps) != j))
            if got is None or abs(got - wrong / self.trials) > 0.1 / self.trials:
                failures["cells-recount"] = f"cell {e.tolist()}: program {got} != recount {wrong}"

        heur_error = cells.get(tuple(float(v) for v in heuristic), math.nan)
        top = max(cells.values())
        half = ref.wilson_halfwidth(heur_error, self.trials)
        if not top - heur_error <= _WILSON_WIDTHS * half:
            failures["max-near-heuristic"] = (
                f"grid max {top} exceeds heuristic cell {heur_error} by more than 4 x {half}")
        return _verdicts(self.checks, failures)


class CltCalibration:
    name = "clt-calibration"
    dims = (20, 40, 80, 160)
    fractions = (0.1, 0.25)
    kappas = (0.5, 1.0)
    predict_kappas = (0.0, 0.5, 1.0)
    eps = 1.0
    checks = ("complete", "sigma-hits-target", "minimax-q-of-snr", "glrt-clt-quadrature",
              "sigma-rises-with-d")

    def set_up(self):
        _parse_help(["sigma-search"])
        _parse_help(["predict"])

    def grid(self, seed: int):
        """(d, p, a, b, kappa, target) cases of one unit; a, b, targets come from the seed."""
        draw = np.random.default_rng(seed)
        a = round(float(draw.uniform(1.1, 2.0)), 6)
        b = round(float(draw.uniform(0.5, 0.9)), 6)
        targets = [round(float(t), 8) for t in np.exp(draw.uniform(math.log(0.005),
                                                                  math.log(0.05), 2))]
        return [(d, p, a, b, kappa, target) for p in self.fractions for kappa in self.kappas
                for target in targets for d in self.dims]

    def _profile_args(self, d, p, a, b):
        return ["--d", str(d), "--p", str(p), "--a", str(a), "--b", str(b), "--eps", str(self.eps)]

    def run(self, seed: int, out: Path) -> int:
        main = robustht.cli.main
        kappa_list = ",".join(str(k) for k in self.predict_kappas)
        for i, (d, p, a, b, kappa, target) in enumerate(self.grid(seed)):
            found = out / f"sigma-{i}.json"
            code = main(["sigma-search", *self._profile_args(d, p, a, b), "--kappa", str(kappa),
                         "--target", str(target), "--out", str(found)])
            if code:
                return code
            sigma = json.loads(found.read_text())["sigma"]
            code = main(["predict", *self._profile_args(d, p, a, b), "--sigma", repr(sigma),
                         "--kappa", kappa_list, "--out", str(out / f"predict-{i}.csv")])
            if code:
                return code
        return 0

    def read(self, out: Path):
        return [(json.loads((out / f"sigma-{i}.json").read_text())["sigma"],
                 _read_csv(out / f"predict-{i}.csv")) for i in range(len(self.grid(0)))]

    def check(self, outputs, seed: int) -> dict:
        failures = {}
        cases = self.grid(seed)
        if len(outputs) != len(cases):
            failures["complete"] = f"{len(outputs)} outputs for {len(cases)} cases"
            return _verdicts(self.checks, failures)
        eps = self.eps
        series = {}
        for (d, p, a, b, kappa, target), (sigma, rows) in zip(cases, outputs):
            series.setdefault((p, kappa, target), []).append(sigma)
            coords = ref.profile_coordinates(d, p, a, b, eps)
            err = ref.clt_error_quadrature(coords, eps, kappa, sigma)
            if not _close(err, target, 1e-3):
                failures["sigma-hits-target"] = (
                    f"d={d} p={p} kappa={kappa}: sigma {sigma} gives {err}, target {target}")
            got = {(r["classifier"], r["method"], float(r["kappa"])): float(r["error"])
                   for r in rows}
            if len(rows) != len(got) or len(got) != 4 * len(self.predict_kappas):
                failures["complete"] = f"predict rows {sorted(got)}"
                continue
            for k in self.predict_kappas:
                snr = (a - k / eps) ** 2 * d * p * (eps / sigma) ** 2
                if not _close(got[("minimax", "q-of-snr", k)], ref.q(math.sqrt(snr))):
                    failures["minimax-q-of-snr"] = (
                        f"d={d} kappa={k}: {got[('minimax', 'q-of-snr', k)]} != "
                        f"Q(sqrt({snr})) = {ref.q(math.sqrt(snr))}")
                quad = ref.clt_error_quadrature(coords, eps, k, sigma)
                if not _close(got[("glrt", "clt-analytic", k)], quad):
                    failures["glrt-clt-quadrature"] = (
                        f"d={d} kappa={k}: {got[('glrt', 'clt-analytic', k)]} != {quad}")
        for key, sigmas in series.items():
            if any(s2 <= s1 for s1, s2 in zip(sigmas, sigmas[1:])):
                failures["sigma-rises-with-d"] = f"{key}: sigma over d = {sigmas}"
        return _verdicts(self.checks, failures)


WORKLOADS = {w.name: w for w in (DimensionSweep(), MulticlassSweep(), AttackSurface(),
                                 CltCalibration())}
