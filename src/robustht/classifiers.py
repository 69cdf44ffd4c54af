"""The decision rules: minimum distance, GLRT, minimax linear, pairwise robust linear.

All classifiers are immutable after construction and classification is pure,
so instances can be shared freely across threads. Each exposes two decision
calls. `decide_batch` takes an (n, d) array of observations (or one
d-vector) and returns n labels. `decide_attacks(x, attacks)` returns one
row of labels per attack e, those of x + e; the Monte Carlo engine, the
noise-aware replay and the generic grid oracle drive it. Each row is
decided on its own. Its optional `work`, shaped like x, is where the GLRT
builds each x + e; the other rules never build it. Ties always resolve to the lowest class index, which
keeps golden tests deterministic and is measure-zero under continuous noise.

Minimum distance and the GLRT share one decision kernel: it visits the M
classes in turn with a single workspace of about 2^16 values (one row when
d is larger) and keeps a running argmin, so beyond its input a call holds
only that workspace and a few vectors with one entry per row and attack,
whatever M is. The GLRT decides each x + e afresh. The other rules are
linear in the attack and score every attack from one pass over x: the
minimax and pairwise rules from s(x) + w.e, minimum distance from
||x - mu_k||^2 - 2 e.mu_k. Every dot product goes through np.einsum, never
BLAS, so no label depends on the BLAS kernel.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .model import REJECT, HypothesisModel, check_eps, pairwise_half_difference

__all__ = [
    "ClassifierKind",
    "LinearRule",
    "minimax_linear_rule",
    "MinDistanceClassifier",
    "GlrtClassifier",
    "MinimaxLinearClassifier",
    "PairwiseRobustLinearClassifier",
    "build_classifier",
    "per_coordinate_cost_difference",
]


class ClassifierKind(enum.Enum):
    MIN_DISTANCE = "min-distance"
    MINIMAX_LINEAR = "minimax"
    GLRT = "glrt"
    PAIRWISE_ROBUST_LINEAR = "prl"


@dataclass(frozen=True)
class LinearRule:
    """Affine statistic w^T x + b for one binary test; decide the first class
    of the pair when the statistic is positive.

    When the soft threshold nulls every coordinate of the separation vector,
    the weight is all zero, the statistic is identically 0 and the rule
    always falls back to the lower-indexed class: a risk-1/2 rule.
    """

    weight: np.ndarray
    offset: float

    def statistic(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.einsum("...d,d->...", x, self.weight) + self.offset

    def thresholds(self, attacks) -> np.ndarray:
        """-w^T e of each attack e, as an (attacks, 1) column to compare with statistic(x).

        s(x + e) = s(x) + w^T e, and a rounded sum has the sign of the exact
        one, so s(x) > -w^T e exactly where s(x) + w^T e > 0, and likewise
        for < and ==.
        """
        return -np.einsum("ad,d->a", _as_batch(attacks), self.weight)[:, None]


def minimax_linear_rule(model: HypothesisModel, j: int, k: int, eps: float) -> LinearRule:
    """Robust linear rule for the binary subproblem j-vs-k.

    The weight soft-thresholds the half-difference of the means at eps,
    discarding coordinates whose sign the adversary could flip and
    shrinking the rest; the offset recentres at the midpoint. Positive
    statistic favors class j.
    """
    check_eps(eps)
    half_diff = pairwise_half_difference(model, j, k)
    weight = np.sign(half_diff) * np.maximum(0.0, np.abs(half_diff) - eps)
    midpoint = (model.means[j] + model.means[k]) / 2.0
    return LinearRule(weight=weight, offset=float(-np.einsum("d,d->", weight, midpoint)))


def _as_batch(x) -> np.ndarray:
    """x as an (n, d) float array; one d-vector becomes a single row."""
    x = np.asarray(x, dtype=float)
    return x[None, :] if x.ndim == 1 else x


# float64 values per decision workspace (512 KB): small enough to stay in a
# core's L2 cache across the passes the kernel makes over it
_CHUNK_ELEMENTS = 1 << 16


def _soft_threshold_in_place(work: np.ndarray, eps: float) -> None:
    """Overwrite work with g_eps(work) = max(0, |work| - eps), the GLRT's residual.

    The one definition of these elementwise steps: the decision kernel and
    the grid oracle's cost tables both apply them, so their costs agree
    bit for bit.
    """
    np.abs(work, out=work)
    work -= eps
    np.maximum(work, 0.0, out=work)


def _class_costs(x: np.ndarray, means: np.ndarray, eps: float | None):
    """Yield, for each row of means, the cost of every row of x under that class.

    The cost is ||g_eps(x - mu_k)||^2, with g_eps the double-sided ReLU
    max(0, |.| - eps); eps None is the plain squared distance. The residual
    is built in one workspace the shape of x, reused for every class, and
    the yielded vector is overwritten by the next class.
    """
    work = np.empty_like(x)
    cost = np.empty(x.shape[0])
    for mu in means:
        np.subtract(x, mu, out=work)
        if eps is not None:
            _soft_threshold_in_place(work, eps)
        yield np.einsum("nd,nd->n", work, work, out=cost)


def _nearest_class(x, means: np.ndarray, eps: float | None, shifts=None) -> np.ndarray:
    """Row-wise argmin of `_class_costs` minus shifts; the lowest index wins ties.

    shifts, (M, attacks, 1), gives one row of labels per attack, class k's
    cost lowered by shifts[k]; None gives one row, unshifted. Rows go
    through in chunks of about _CHUNK_ELEMENTS, so the workspace stays
    cache-sized whatever n is. Each row's cost is summed on its own, so
    chunking does not change a single bit of it.
    """
    xb = _as_batch(x)
    n, d = xb.shape
    shape = (1 if shifts is None else shifts.shape[1], n)
    labels = np.zeros(shape, dtype=np.int64)
    best = np.full(shape, np.inf)
    closer = np.empty(shape, dtype=bool)
    shifted = None if shifts is None else np.empty(shape)
    step = max(1, _CHUNK_ELEMENTS // d)
    for lo in range(0, n, step):
        rows = np.s_[:, lo:lo + step]
        for k, cost in enumerate(_class_costs(xb[lo:lo + step], means, eps)):
            if shifts is not None:
                cost = np.subtract(cost, shifts[k], out=shifted[rows])
            np.less(cost, best[rows], out=closer[rows])
            np.copyto(labels[rows], k, where=closer[rows])
            np.copyto(best[rows], cost, where=closer[rows])
    return labels


class MinDistanceClassifier:
    """Nearest-mean rule, optimal without an adversary."""

    kind = ClassifierKind.MIN_DISTANCE

    def __init__(self, model: HypothesisModel):
        self.model = model

    def decide_batch(self, x) -> np.ndarray:
        return _nearest_class(x, self.model.means, None)[0]

    def decide_attacks(self, x, attacks, work=None) -> np.ndarray:
        # ||x + e - mu_k||^2 = ||x - mu_k||^2 - 2 e.mu_k + (2 e.x + ||e||^2),
        # and the last term is the same for every class
        shifts = 2.0 * np.einsum("ad,kd->ka", _as_batch(attacks), self.model.means)
        return _nearest_class(x, self.model.means, None, shifts[:, :, None])


class GlrtClassifier:
    """Joint estimation of class and perturbation under an l-infinity budget.

    Under hypothesis k the most favorable in-budget perturbation is the
    clipped residual f_eps(x - mu_k); plugging it back in leaves the cost
    ||g_eps(x - mu_k)||^2, a minimum-distance rule with each coordinate
    difference passed through the double-sided ReLU. eps = 0 recovers the
    plain minimum distance classifier.
    """

    kind = ClassifierKind.GLRT

    def __init__(self, model: HypothesisModel, eps: float):
        self.model = model
        self.eps = check_eps(eps)

    def decide_batch(self, x) -> np.ndarray:
        return _nearest_class(x, self.model.means, self.eps)[0]

    def decide_attacks(self, x, attacks, work=None) -> np.ndarray:
        """Labels of x + e for each attack, each decided by `decide_batch`.

        work, shaped like x, receives each x + e; it may be x itself when
        there is one attack.
        """
        x = _as_batch(x)
        work = np.empty_like(x) if work is None else work
        return np.stack([self.decide_batch(np.add(x, e, out=work)) for e in attacks])


class MinimaxLinearClassifier:
    """Binary robust linear rule; the worst-case-optimal defense for
    symmetric binary Gaussian instances."""

    kind = ClassifierKind.MINIMAX_LINEAR

    def __init__(self, model: HypothesisModel, eps: float):
        if model.num_classes != 2:
            raise ValueError(
                f"the minimax linear rule is binary; got {model.num_classes} classes "
                "(use the pairwise robust linear classifier for M > 2)"
            )
        self.model = model
        self.eps = float(eps)
        self.rule = minimax_linear_rule(model, 0, 1, eps)

    def decide_batch(self, x) -> np.ndarray:
        return self.decide_attacks(x, np.zeros((1, self.model.dim)))[0]

    def decide_attacks(self, x, attacks, work=None) -> np.ndarray:
        # statistic > 0 decides class 0; a tie at exactly 0 also goes to 0
        s = self.rule.statistic(_as_batch(x))
        return (s < self.rule.thresholds(attacks)).astype(np.int64)


class PairwiseRobustLinearClassifier:
    """All-pairs extension of the binary minimax rule.

    Class k is declared only when it strictly wins every one of its M-1
    binary tests; a statistic of exactly 0 is a win for neither side.
    Anything short of a clear winner is a REJECT, which risk estimates
    score as an error.
    """

    kind = ClassifierKind.PAIRWISE_ROBUST_LINEAR

    def __init__(self, model: HypothesisModel, eps: float):
        self.model = model
        self.eps = float(eps)
        self.rules: dict[tuple[int, int], LinearRule] = {
            (j, k): minimax_linear_rule(model, j, k, eps)
            for j, k in itertools.combinations(range(model.num_classes), 2)
        }

    def decide_batch(self, x) -> np.ndarray:
        return self.decide_attacks(x, np.zeros((1, self.model.dim)))[0]

    def decide_attacks(self, x, attacks, work=None) -> np.ndarray:
        xb = _as_batch(x)
        wins = np.ones((self.model.num_classes, len(attacks), xb.shape[0]), dtype=bool)
        for (j, k), rule in self.rules.items():
            s, t = rule.statistic(xb), rule.thresholds(attacks)
            wins[j] &= s > t
            wins[k] &= s < t
        labels = np.full(wins.shape[1:], REJECT, dtype=np.int64)
        # at most one class can win all of its tests
        for k, won in enumerate(wins):
            np.copyto(labels, k, where=won)
        return labels


def build_classifier(kind: ClassifierKind, model: HypothesisModel, eps: float):
    if kind is ClassifierKind.MIN_DISTANCE:
        return MinDistanceClassifier(model)
    if kind is ClassifierKind.GLRT:
        return GlrtClassifier(model, eps)
    if kind is ClassifierKind.MINIMAX_LINEAR:
        return MinimaxLinearClassifier(model, eps)
    if kind is ClassifierKind.PAIRWISE_ROBUST_LINEAR:
        return PairwiseRobustLinearClassifier(model, eps)
    raise ValueError(f"unknown classifier kind: {kind}")


def per_coordinate_cost_difference(mu, noise, attack, eps: float):
    """Single-coordinate GLRT cost difference under the true hypothesis.

    For a symmetric binary pair with coordinate mean mu, attack value e and
    noise value n, the wrong-class cost minus the true-class cost is
    g_eps(2 mu + e + n)^2 - g_eps(e + n)^2. Monotone non-decreasing in e
    where mu >= 0 and non-increasing where mu < 0, which is what makes the
    full-budget sign attack worst-case. Broadcasts over array inputs.
    """
    mu = np.asarray(mu, dtype=float)
    v = np.asarray(attack, dtype=float) + np.asarray(noise, dtype=float)
    wrong = np.maximum(0.0, np.abs(2.0 * mu + v) - eps)
    true = np.maximum(0.0, np.abs(v) - eps)
    out = wrong * wrong - true * true
    return float(out) if out.ndim == 0 else out
