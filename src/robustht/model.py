"""Problem-instance data model: hypotheses, mean profiles and attacks.

The observation model is X = mu_k + e + N with N ~ Normal(0, sigma^2 I),
where e is an l-infinity bounded perturbation chosen by the adversary.

HypothesisModel and TwoLevelProfile own their JSON objects (`to_dict` and
`from_dict`), which experiment configs, model files and output sidecars share.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "REJECT",
    "HypothesisModel",
    "TwoLevelProfile",
    "AttackMode",
    "AttackSpec",
    "pairwise_half_difference",
    "ConfigError",
    "check_eps",
]

#: Sentinel label for a pairwise-robust classifier that finds no clear winner.
REJECT = -1

_PRIOR_TOL = 1e-12


class AttackMode(enum.Enum):
    """How the adversary picks its perturbation."""

    NONE = "none"
    NOISE_AGNOSTIC_HEURISTIC = "agnostic"
    NOISE_AWARE_OPTIMAL = "aware"
    FIXED_VECTOR = "fixed"


@dataclass(frozen=True)
class HypothesisModel:
    """Gaussian M-class instance: class means, shared noise level, priors.

    Attributes:
        means: array of shape (M, d), one template per class.
        sigma: noise standard deviation, > 0.
        priors: length-M probabilities summing to 1. Stored for averaging
            and future MAP use; the decision rules themselves ignore them.
    """

    means: np.ndarray
    sigma: float
    priors: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        means = np.atleast_2d(np.asarray(self.means, dtype=float))
        if means.ndim != 2:
            raise ValueError(f"means must be a (M, d) array, got shape {means.shape}")
        m, d = means.shape
        if m < 2:
            raise ValueError(f"need at least 2 classes, got {m}")
        if d < 1:
            raise ValueError("mean vectors must have at least one coordinate")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite number, got {self.sigma}")
        priors = self.priors
        if priors is None:
            priors = np.full(m, 1.0 / m)
        else:
            priors = np.asarray(priors, dtype=float)
            if priors.shape != (m,):
                raise ValueError(
                    f"priors must have length {m} (one per class), got shape {priors.shape}"
                )
            if np.any(priors < 0) or abs(priors.sum() - 1.0) > _PRIOR_TOL:
                raise ValueError("priors must be nonnegative and sum to 1 within 1e-12")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "sigma", float(self.sigma))

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def has_uniform_priors(self, tol: float = 1e-9) -> bool:
        return bool(np.allclose(self.priors, 1.0 / self.num_classes, atol=tol))

    def check_class(self, k: int) -> int:
        k = int(k)
        if not 0 <= k < self.num_classes:
            raise ValueError(f"class index {k} out of range [0, {self.num_classes})")
        return k

    @staticmethod
    def symmetric_binary(mu, sigma: float) -> "HypothesisModel":
        """Binary instance with means +mu and -mu and uniform priors."""
        mu = np.asarray(mu, dtype=float)
        return HypothesisModel(means=np.stack([mu, -mu]), sigma=sigma)

    def to_dict(self) -> dict:
        """The model's JSON object {"means", "sigma", "priors"}, as `from_dict` reads it."""
        return {"means": self.means.tolist(), "sigma": self.sigma, "priors": self.priors.tolist()}

    @staticmethod
    def from_dict(raw: dict) -> "HypothesisModel":
        """Model from its JSON object, where "priors" is optional; errors name `model`."""
        try:
            return HypothesisModel(
                means=np.asarray(raw["means"], dtype=float),
                sigma=float(raw["sigma"]),
                priors=np.asarray(raw["priors"], dtype=float) if "priors" in raw else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"model: {exc}") from exc


@dataclass(frozen=True)
class TwoLevelProfile:
    """Symmetric binary mean profile used throughout the worked examples.

    A fraction p of the d coordinates sit at a*eps and the rest at b*eps,
    with a > 1 (survives thresholding at eps) and 0 <= b <= 1 (nulled by
    it). eps must be > 0, since eps = 0 puts both means at 0. p*d must be
    an integer so closed forms and sampled models agree exactly.
    """

    d: int
    p: float
    a: float
    b: float
    eps: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if not 0 < self.p < 1:
            raise ValueError(f"p must be in (0, 1), got {self.p}")
        if not self.a > 1:
            raise ValueError(f"a must be > 1, got {self.a}")
        if not 0 <= self.b <= 1:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be > 0 and finite, got {self.eps}")
        n_a = self.p * self.d
        if abs(n_a - round(n_a)) > 1e-9 or not 0 < round(n_a) < self.d:
            raise ValueError(
                f"p*d must be an integer in (0, d); got p*d = {n_a} for d = {self.d}"
            )

    @property
    def num_strong(self) -> int:
        return int(round(self.p * self.d))

    def levels(self) -> tuple[tuple[float, float], tuple[int, int]]:
        """The two coordinate means, ascending, and the number of coordinates at each."""
        return (self.b * self.eps, self.a * self.eps), (self.d - self.num_strong, self.num_strong)

    def mean_vector(self) -> np.ndarray:
        (weak, strong), _ = self.levels()
        mu = np.full(self.d, weak)
        mu[: self.num_strong] = strong
        return mu

    def to_model(self, sigma: float) -> HypothesisModel:
        return HypothesisModel.symmetric_binary(self.mean_vector(), sigma)

    def with_dimension(self, d: int) -> "TwoLevelProfile":
        return TwoLevelProfile(d=d, p=self.p, a=self.a, b=self.b, eps=self.eps)

    def to_dict(self) -> dict:
        """The profile's JSON object {"d", "p", "a", "b", "eps"}, as `from_dict` reads it."""
        return {"d": self.d, "p": self.p, "a": self.a, "b": self.b, "eps": self.eps}

    @staticmethod
    def from_dict(raw: dict) -> "TwoLevelProfile":
        """Profile from its JSON object, d an integer; errors name `profile`."""
        try:
            return TwoLevelProfile(
                d=_integer("d", raw["d"]), p=float(raw["p"]), a=float(raw["a"]),
                b=float(raw["b"]), eps=float(raw["eps"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"profile: {exc}") from exc


@dataclass(frozen=True)
class AttackSpec:
    """Designed budget, employed strength, and mode of the adversary.

    budget is the l-infinity radius the defense is designed for; strength
    is the magnitude the adversary actually employs (0 <= strength <=
    budget). FIXED_VECTOR carries an explicit perturbation instead.
    """

    budget: float
    strength: float = None  # type: ignore[assignment]
    mode: AttackMode = AttackMode.NOISE_AGNOSTIC_HEURISTIC
    vector: np.ndarray | None = None

    def __post_init__(self):
        if not 0 <= self.budget < math.inf:
            raise ValueError(f"budget must be finite and >= 0, got {self.budget}")
        strength = self.budget if self.strength is None else float(self.strength)
        if not 0 <= strength <= self.budget + 1e-12:
            raise ValueError(
                f"strength must satisfy 0 <= strength <= budget; got "
                f"strength={strength}, budget={self.budget}"
            )
        if self.mode is AttackMode.FIXED_VECTOR:
            if self.vector is None:
                raise ValueError("FIXED_VECTOR mode requires a vector")
            vec = np.asarray(self.vector, dtype=float)
            if np.max(np.abs(vec), initial=0.0) > self.budget + 1e-12:
                raise ValueError("fixed attack vector exceeds the l-infinity budget")
            object.__setattr__(self, "vector", vec)
        elif self.vector is not None:
            raise ValueError(f"vector is only meaningful in FIXED_VECTOR mode, not {self.mode}")
        object.__setattr__(self, "strength", strength)

    @staticmethod
    def none() -> "AttackSpec":
        return AttackSpec(budget=0.0, strength=0.0, mode=AttackMode.NONE)


def pairwise_half_difference(model: HypothesisModel, j: int, k: int) -> np.ndarray:
    """(mu_j - mu_k) / 2, the separation vector of the (j, k) binary subproblem."""
    j = model.check_class(j)
    k = model.check_class(k)
    if j == k:
        raise ValueError(f"need two distinct classes, got j = k = {j}")
    return (model.means[j] - model.means[k]) / 2.0


class ConfigError(ValueError):
    """Input failed validation; the message names the field."""


def check_eps(eps: float, kappa: float | None = None) -> float:
    """eps as a float, once it is finite and >= 0 and kappa, if given, lies in [0, eps]."""
    if not 0 <= eps < math.inf:
        raise ConfigError(f"eps: must be finite and >= 0, got {eps}")
    if kappa is not None and not 0 <= kappa <= eps + 1e-12:
        raise ConfigError(f"kappa: must satisfy 0 <= kappa <= eps, got kappa={kappa}, eps={eps}")
    return float(eps)


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
