"""Built-in experiment recipes reproducing the reference scenarios.

Each `figN` entry yields the tabular data behind one published curve or
surface at desk scale; plotting is downstream. The ternary instances and
two-level profiles here are also handy fixtures for ad hoc runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import ClassifierKind
from .engine import (
    SWEEP_DIMENSION,
    SWEEP_EPS_OVER_SIGMA_SQ,
    SWEEP_KAPPA,
    ExperimentConfig,
)
from .model import AttackMode, HypothesisModel, TwoLevelProfile
from .numerics import q_function

__all__ = [
    "FIGURES",
    "MomentStudyRecipe",
    "SurfaceRecipe",
    "ternary_2d_model",
    "ternary_20d_model",
    "builtin_model",
    "figure_recipe",
]


def ternary_2d_model(sigma_sq: float = 0.1) -> HypothesisModel:
    """Two-dimensional ternary instance used for the attack-surface studies."""
    means = np.array([[0.0, 0.0], [2.5, 0.25], [-1.75, -2.25]])
    return HypothesisModel(means=means, sigma=math.sqrt(sigma_sq))


def ternary_20d_model(sigma_sq: float = 0.1) -> HypothesisModel:
    """20-dimensional ternary instance whose pairwise mean differences mix
    many weak components with a few strong ones."""
    mu0 = np.full(20, 1.0)
    mu0[:3] = 0.0
    mu1 = np.full(20, 0.9)
    mu1[:2] = -2.1
    mu2 = np.full(20, 1.75)
    mu2[:4] = -1.8
    return HypothesisModel(means=np.stack([mu0, mu1, mu2]), sigma=math.sqrt(sigma_sq))


_BUILTIN_MODELS = {
    "ternary-2d": ternary_2d_model,
    "ternary-20d": ternary_20d_model,
}


def builtin_model(name: str) -> HypothesisModel:
    try:
        return _BUILTIN_MODELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown builtin model {name!r}; available: {sorted(_BUILTIN_MODELS)}"
        ) from None


@dataclass(frozen=True)
class MomentStudyRecipe:
    """Coordinate-moment comparison over a grid of coordinate means."""

    mus: tuple
    eps: float
    kappa: float
    sigma: float
    trials: int
    seed: int


@dataclass(frozen=True)
class SurfaceRecipe:
    """Brute-force attack surface for one classifier on an instance of d <= 3;
    `attack-surface` builds one from its arguments."""

    model: HypothesisModel
    classifier: ClassifierKind
    true_class: int
    eps: float
    grid_points_per_axis: int
    trials: int
    seed: int


def _fig2(seed, trials=1_000_000):
    return MomentStudyRecipe(
        mus=tuple(np.round(np.arange(0.0, 3.0 + 1e-9, 0.25), 10)),
        eps=1.0, kappa=1.0, sigma=1.0,
        trials=trials, seed=seed,
    )


def _fig3(seed, trials=100_000):
    return ExperimentConfig(
        profile=TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0),
        sigma=1.0,
        eps=1.0,
        classifiers=[ClassifierKind.GLRT, ClassifierKind.MINIMAX_LINEAR,
                     ClassifierKind.MIN_DISTANCE],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
        sweep_axis=SWEEP_KAPPA,
        sweep_values=[round(0.1 * i, 10) for i in range(11)],
        trials=trials,
        seed=seed,
    )


def _fig4(seed, trials=100_000):
    # the published curves do not list the (eps/sigma)^2 grid or the attack
    # strengths; these cover the plotted range at reasonable density
    return ExperimentConfig(
        profile=TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0),
        eps=1.0,
        classifiers=[ClassifierKind.GLRT, ClassifierKind.MINIMAX_LINEAR,
                     ClassifierKind.MIN_DISTANCE],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
        sweep_axis=SWEEP_EPS_OVER_SIGMA_SQ,
        sweep_values=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        kappas=[0.0, 0.5, 0.8, 1.0],
        trials=trials,
        seed=seed,
    )


def _fig5(seed, trials=1_000_000):
    # two convergence studies: full-strength attack at error Q(sqrt(5)),
    # weakened attack at error Q(sqrt(8))
    configs = []
    for kappa, snr in ((1.0, 5.0), (0.8, 8.0)):
        configs.append(
            ExperimentConfig(
                profile=TwoLevelProfile(d=50, p=0.3, a=1.1, b=0.9, eps=1.0),
                eps=1.0,
                classifiers=[ClassifierKind.GLRT],
                attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
                sweep_axis=SWEEP_DIMENSION,
                sweep_values=[50, 100, 200, 400],
                kappas=[kappa],
                target_error=q_function(math.sqrt(snr)),
                trials=trials,
                seed=seed,
            )
        )
    return configs


def _fig6(seed, trials=10_000):
    return SurfaceRecipe(
        model=ternary_2d_model(),
        classifier=ClassifierKind.GLRT,
        true_class=0,
        eps=1.0,
        grid_points_per_axis=41,
        trials=trials,
        seed=seed,
    )


def _fig7(seed, trials=10_000):
    return SurfaceRecipe(
        model=ternary_2d_model(),
        classifier=ClassifierKind.PAIRWISE_ROBUST_LINEAR,
        true_class=0,
        eps=1.0,
        grid_points_per_axis=41,
        trials=trials,
        seed=seed,
    )


def _fig8(seed, trials=100_000):
    return ExperimentConfig(
        model=ternary_20d_model(),
        eps=1.0,
        classifiers=[ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR,
                     ClassifierKind.MIN_DISTANCE],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NOISE_AWARE_OPTIMAL],
        sweep_axis=SWEEP_KAPPA,
        sweep_values=[round(0.1 * i, 10) for i in range(11)],
        trials=trials,
        seed=seed,
    )


FIGURES = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}


def figure_recipe(name: str, trials: int | None = None, seed: int = 0):
    """Recipe for one built-in figure; trials=None keeps its default."""
    try:
        builder = FIGURES[name]
    except KeyError:
        raise ValueError(f"unknown figure {name!r}; available: {sorted(FIGURES)}") from None
    return builder(seed) if trials is None else builder(seed, trials)
