"""Adversary constructions: sign attacks, nearest-neighbor targeting,
the optimal noise-aware procedure, and a brute-force grid oracle.

Every operation returns perturbations satisfying the l-infinity budget it
was given; that is asserted at each boundary. sign(0) = 0 throughout, so
coordinates with no separation are left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import (
    ClassifierKind,
    GlrtClassifier,
    MinDistanceClassifier,
    MinimaxLinearClassifier,
    _soft_threshold_in_place,
    per_coordinate_cost_difference,
)
from .model import HypothesisModel, check_eps, pairwise_half_difference
from .rng import noise_block, sum_over_blocks

__all__ = [
    "UnsupportedDimensionError",
    "AttackResult",
    "NNSelection",
    "ErrorSurface",
    "binary_sign_attack",
    "nn_class_min_distance",
    "nn_class_glrt",
    "heuristic_agnostic_attack",
    "sign_replays",
    "noise_aware_labels",
    "noise_aware_attack",
    "brute_force_attack_oracle",
]

_BUDGET_TOL = 1e-12

# float64 values in the largest table of one span of rows on any grid-oracle
# path (2 MB): fig6's 3 classes x 41 last-axis points take 2131-row spans;
# a block of at most two spans is counted whole
_SPAN_VALUES = 1 << 18


class UnsupportedDimensionError(ValueError):
    """The exhaustive grid oracle only scales to d <= 3."""


@dataclass(frozen=True)
class AttackResult:
    """A constructed perturbation.

    feasible is only informative in noise-aware mode, where False means no
    candidate attack could force a misclassification for this noise
    realization (the returned vector is then zero). target_class is the
    competing class the attack steers toward, when one was chosen.
    """

    vector: np.ndarray
    feasible: bool
    target_class: int | None = None


@dataclass(frozen=True)
class NNSelection:
    """Nearest-neighbor class choice with the per-candidate scores behind it.

    degenerate flags an all-zero score set (every coordinate of every
    pairwise separation nulled); the lowest candidate index is then
    returned purely by the tie rule.
    """

    target: int
    scores: dict[int, float]
    degenerate: bool = False


def _assert_budget(vector: np.ndarray, budget: float) -> np.ndarray:
    # written so that a NaN in the attack or the budget fails too
    if not np.max(np.abs(vector), initial=0.0) <= budget + _BUDGET_TOL:
        raise AssertionError("constructed attack exceeds its l-infinity budget")
    return vector


def binary_sign_attack(
    model: HypothesisModel, true_class: int, other_class: int, strength: float
) -> np.ndarray:
    """Worst-case sign attack -strength * sign(mu_true - mu_other).

    Pushes the observation from the true template toward the competing one
    on every separating coordinate. For binary GLRT (and the minimax and
    minimum-distance rules) this is worst-case at full budget for both
    noise-aware and noise-agnostic adversaries.
    """
    j = model.check_class(true_class)
    k = model.check_class(other_class)
    if j == k:
        raise ValueError(f"need two distinct classes, got j = k = {j}")
    if not 0 <= strength < np.inf:
        raise ValueError(f"strength: must be finite and >= 0, got {strength}")
    # + 0.0 turns the -0.0 of a zero strength into +0.0: equal attacks, equal bytes
    e = -strength * np.sign(model.means[j] - model.means[k]) + 0.0
    return _assert_budget(e, strength)


def _candidate_separations(model: HypothesisModel, j: int) -> dict[int, np.ndarray]:
    out = {}
    for k in range(model.num_classes):
        if k == j:
            continue
        h = pairwise_half_difference(model, j, k)
        if not np.any(h):
            raise ValueError(f"classes {j} and {k} have identical means")
        out[k] = h
    return out


def nn_class_min_distance(model: HypothesisModel, true_class: int, eps: float) -> NNSelection:
    """Competing class that dominates the minimum-distance error at high SNR.

    Scores each candidate k by ||h|| - eps * ||h||_1 / ||h|| with
    h = (mu_j - mu_k)/2; the argmin is the class whose binary test fails
    worst under a sign attack of magnitude eps. Lowest index wins ties.
    """
    check_eps(eps)
    j = model.check_class(true_class)
    scores = {}
    for k, h in _candidate_separations(model, j).items():
        l2 = float(np.sqrt(np.einsum("i,i->", h, h)))
        scores[k] = l2 - eps * float(np.abs(h).sum()) / l2
    target = min(scores, key=lambda k: (scores[k], k))
    return NNSelection(target=target, scores=scores)


def nn_class_glrt(
    model: HypothesisModel, true_class: int, eps: float, kappa: float | None = None
) -> NNSelection:
    """Competing class that dominates the GLRT (and PRL) error at high SNR.

    Scores candidate k by the surviving separation energy
    sum_i max(0, |h_i| - (kappa + eps)/2)^2, i.e. the squared soft threshold
    of the half-difference at (kappa + eps)/2. With kappa = eps this is the
    full-budget criterion sum over |h_i| >= eps of (|h_i| - eps)^2; a weaker
    employed strength kappa < eps raises the set of coordinates that still
    matter. An all-zero score set is legal and resolved by the tie rule
    with the degenerate flag set.
    """
    kappa = eps if kappa is None else float(kappa)
    check_eps(eps, kappa)
    j = model.check_class(true_class)
    threshold = 0.5 * (kappa + eps)
    scores = {}
    for k, h in _candidate_separations(model, j).items():
        kept = np.maximum(0.0, np.abs(h) - threshold)
        scores[k] = float(np.einsum("i,i->", kept, kept))
    target = min(scores, key=lambda k: (scores[k], k))
    return NNSelection(
        target=target, scores=scores, degenerate=all(s == 0.0 for s in scores.values())
    )


def heuristic_agnostic_attack(
    model: HypothesisModel,
    classifier_kind: ClassifierKind,
    true_class: int,
    eps: float,
    kappa: float,
) -> AttackResult:
    """Noise-agnostic attack: sign attack of strength kappa on the NN class.

    The NN class is chosen by the rule matched to the defense: the
    minimum-distance criterion scores with the employed strength kappa
    (that is what its worst-case error depends on); GLRT and PRL share the
    soft-threshold criterion in (eps, kappa). feasible is always True:
    an agnostic adversary cannot certify misclassification.
    """
    check_eps(eps, kappa)
    j = model.check_class(true_class)
    if classifier_kind is ClassifierKind.MIN_DISTANCE:
        nn = nn_class_min_distance(model, j, kappa)
    elif classifier_kind in (ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR):
        nn = nn_class_glrt(model, j, eps, kappa)
    elif classifier_kind is ClassifierKind.MINIMAX_LINEAR:
        if model.num_classes != 2:
            raise ValueError("the minimax linear classifier is binary only")
        nn = nn_class_glrt(model, j, eps, kappa)  # single candidate either way
    else:
        raise ValueError(f"unsupported classifier kind: {classifier_kind}")
    vector = binary_sign_attack(model, j, nn.target, kappa)
    return AttackResult(vector=_assert_budget(vector, eps), feasible=True, target_class=nn.target)


def sign_replays(model: HypothesisModel, true_class: int, strength: float) -> dict:
    """The noise-aware adversary's replays {rival: attack}, in the order it tries them.

    The zero attack, keyed -1, then the sign attack toward each rival k, keyed k.
    """
    j = model.check_class(true_class)
    replays = {-1: np.zeros(model.dim)}
    for k in range(model.num_classes):
        if k != j:
            replays[k] = binary_sign_attack(model, j, k, strength)
    return replays


def noise_aware_labels(true_class: int, decided) -> np.ndarray:
    """Labels under a replay of attacks, one row per noise draw.

    decided[i] holds the labels of the observations under the i-th replay.
    Each row starts from the first replay's label and takes the first later
    replay whose label leaves the true class (REJECT counts as leaving),
    even where the first already misclassifies it. One replay is a fixed
    attack, whose labels are decided[0] itself, not a copy; the
    `sign_replays` are the optimal noise-aware attack.
    """
    if len(decided) == 1:
        return decided[0]
    labels = decided[0].copy()
    # the last replay first, so that the first one that leaves is applied last
    for flipped in reversed(decided[1:]):
        np.copyto(labels, flipped, where=flipped != true_class)
    return labels


def noise_aware_attack(
    model: HypothesisModel,
    classifier,
    observation_noise,
    true_class: int,
    strength: float,
) -> AttackResult:
    """Optimal noise-aware attack of the given l-infinity magnitude.

    The one-row view of `noise_aware_labels` over the `sign_replays`: the
    target is the first later replay whose label leaves the true class. If
    none does, misclassification is not achievable with this procedure and
    the zero attack is returned with feasible False.
    """
    noise = np.asarray(observation_noise, dtype=float)
    if noise.shape != (model.dim,):
        raise ValueError(f"noise must have shape ({model.dim},), got {noise.shape}")
    j = model.check_class(true_class)
    base = model.means[j] + noise[None, :]
    replays = sign_replays(model, j, strength)
    decided = classifier.decide_attacks(base, list(replays.values()))
    k = next((k for k, labels in zip(list(replays)[1:], decided[1:]) if labels[0] != j), -1)
    return AttackResult(vector=replays[k], feasible=k >= 0, target_class=k if k >= 0 else None)


@dataclass(frozen=True)
class ErrorSurface:
    """Class-conditional error over a full grid of attacks.

    axes holds the per-coordinate attack grids; errors has shape
    (len(axis_1), ..., len(axis_d)). All grid points share the same noise
    draws, so surfaces are smooth and point-to-point comparisons are exact
    rather than two-sample.
    """

    axes: list[np.ndarray]
    errors: np.ndarray
    trials: int
    seed: int
    eps: float
    true_class: int

    @property
    def argmax_attack(self) -> np.ndarray:
        idx = np.unravel_index(int(np.argmax(self.errors)), self.errors.shape)
        return np.array([self.axes[i][idx[i]] for i in range(len(self.axes))])

    @property
    def max_error(self) -> float:
        return float(self.errors.max())


def brute_force_attack_oracle(
    model: HypothesisModel,
    classifier,
    true_class: int,
    eps: float,
    grid_points_per_axis: int = 41,
    trials: int = 10_000,
    seed: int = 0,
    threads: int = 1,
) -> ErrorSurface:
    """Monte Carlo class-conditional error for every attack on a grid.

    Exhaustively realizes the noise-agnostic maximization over the
    l-infinity ball at desk scale (d <= 3), with common random numbers
    across grid points. Noise is drawn one block at a time, on up to
    `threads` blocks at once (`rng.sum_over_blocks`), and each block is
    counted in consecutive spans of rows whose largest table holds about
    _SPAN_VALUES values, so no table grows with the trials; the integer
    counts of the spans and blocks add up. A block that fits in two spans
    is counted whole: a second span would pay the path's fixed cost per
    leading grid point again to save at most one span's tables. Binary
    models with cost- or statistic-separable rules take a per-coordinate
    fast path, whose largest table is (grid points on an axis, rows); the
    GLRT and minimum distance with more classes compare per-class costs
    summed from per-coordinate terms, with a largest table of (classes,
    rows, last-axis points); everything else (the pairwise robust linear
    rule) decides every grid point at once through `decide_attacks`, into
    (grid points, rows) labels. Each path's `_*_row_values` gives the
    values per row of its largest table.
    """
    try:
        j = model.check_class(true_class)
    except ValueError as exc:
        raise ValueError(f"true_class: {exc}") from None
    d = model.dim
    if d > 3:
        raise UnsupportedDimensionError(
            f"the grid oracle supports d <= 3, got d = {d} "
            f"({grid_points_per_axis}^{d} grid points would not be tractable)"
        )
    check_eps(eps)
    if grid_points_per_axis < 1:
        raise ValueError("need at least one grid point per axis")
    if eps == 0:
        axes = [np.zeros(1) for _ in range(d)]
    else:
        axes = [np.linspace(-eps, eps, grid_points_per_axis) for _ in range(d)]

    nearest = isinstance(classifier, (GlrtClassifier, MinDistanceClassifier))
    separable = model.num_classes == 2 and (
        nearest or isinstance(classifier, MinimaxLinearClassifier)
    )
    # each path with the values per row of its largest table
    if separable:
        surface_counts, row_values = _separable_surface_counts, _separable_row_values
    elif nearest:
        surface_counts, row_values = _nearest_surface_counts, _nearest_row_values
    else:
        surface_counts, row_values = _generic_surface_counts, _generic_row_values
    span = max(1, _SPAN_VALUES // row_values(model, [len(a) for a in axes]))

    def block_counts(b, rows):
        # identical per-trial noise to the sweep engine's, so grid estimates and
        # engine estimates at the same (seed, trials) are exactly comparable
        noise = model.sigma * noise_block(seed, b, rows, d)
        step = rows if rows <= 2 * span else span
        return sum(surface_counts(model, classifier, j, axes, noise[lo:lo + step])
                   for lo in range(0, rows, step))

    counts = sum_over_blocks(trials, block_counts, threads)
    return ErrorSurface(
        axes=axes,
        errors=counts / trials,
        trials=trials,
        seed=seed,
        eps=eps,
        true_class=j,
    )


def _beats(k: int, j: int):
    """The comparison under which class k's cost beats class j's: the
    decision kernel's tie rule, in which the lower index wins ties."""
    return np.less_equal if k < j else np.less


def _separable_surface_counts(model, classifier, j, axes, noise) -> np.ndarray:
    """Per-coordinate decomposition of binary decision statistics.

    For the binary GLRT, minimum-distance and minimax rules the decisive
    statistic is a sum of per-coordinate terms in (e_i, N_i), so a table of
    shape (grid, rows) per axis replaces the full (grid^d, rows, d) tensor.
    """
    other = 1 - j
    delta = model.means[j] - model.means[other]

    tables = []
    for i, axis in enumerate(axes):
        if isinstance(classifier, GlrtClassifier):
            tables.append(
                per_coordinate_cost_difference(delta[i] / 2.0, noise[:, i], axis[:, None],
                                               classifier.eps)
            )
            continue
        v = axis[:, None] + noise[None, :, i]  # e + N, shape (g, rows)
        if isinstance(classifier, MinDistanceClassifier):
            tables.append(delta[i] * (delta[i] + 2.0 * v))
        else:  # minimax linear: oriented statistic, positive favors class j
            rule = classifier.rule
            orient = 1.0 if j == 0 else -1.0
            x = model.means[j][i] + v
            contrib = orient * rule.weight[i] * x
            # spread the offset across coordinates once
            if i == 0:
                contrib = contrib + orient * rule.offset
            tables.append(contrib)

    # each point of the leading axes adds its rows in axis order, then the
    # last axis's whole table
    counts = np.zeros(tuple(len(a) for a in axes), dtype=np.int64)
    for lead in np.ndindex(counts.shape[:-1]):
        s = sum(tables[i][a] for i, a in enumerate(lead)) + tables[-1]
        # s is the other class's cost minus class j's (minimax: its statistic
        # oriented toward class j)
        counts[lead] = _beats(other, j)(s, 0.0).sum(axis=1)
    return counts


def _separable_row_values(model, shape) -> int:
    # one axis's (points, rows) table
    return max(shape)


def _nearest_surface_counts(model, classifier, j, axes, noise) -> np.ndarray:
    """GLRT and minimum-distance errors from per-(class, coordinate) cost terms.

    A term is the decision kernel's squared residual of one coordinate, for
    every class and noise row, built with the kernel's elementwise steps
    (`classifiers._class_costs`, whose soft threshold
    `_soft_threshold_in_place` these terms share). The last axis has one
    (classes, rows, points) table, the largest array here. The first
    leading axis has no table: its (classes, rows) terms are built for one
    point at a time, when its index changes. A second leading axis (d = 3)
    is revisited for every index of the first, so its terms are tabled,
    (classes, points, rows), the last table's size on a square grid. A
    class's cost at a grid point adds its d entries in the order that
    einsum("nd,nd->n") adds them (t0, t0 + t1, (t0 + t2) + t1), so it
    equals the kernel's cost bit for bit.

    Most rows keep one label along the whole last axis. At each point of
    the leading axes, a class's cost with its last-axis entry replaced by
    that entry's row-wise min (max), added in the same order, is a lower
    (upper) bound on its cost at every last-axis point, exactly and not
    only up to rounding: IEEE round-to-nearest addition is monotone in each
    operand, so a smaller operand never gives a larger rounded sum.
    `_rows_to_sweep` settles the rows whose bounds decide the kernel's tie
    rule at every last-axis point. Only the others are gathered into two
    reused (rows, last-axis points) workspaces, class j's cost and one
    rival's, and compared point by point; a workspace's pages are touched
    only for the most rows that any leading point sweeps.
    """
    eps = classifier.eps if isinstance(classifier, GlrtClassifier) else None
    base = model.means[j] + noise
    shape = tuple(len(a) for a in axes)

    def squared_residuals(values, i, out=None):
        # class k's terms of coordinate i at values = e + base: thresholded, squared
        mu = model.means[:, i].reshape((-1,) + (1,) * values.ndim)
        t = np.subtract(values, mu, out=out)
        if eps is not None:
            _soft_threshold_in_place(t, eps)
        t *= t
        return t

    # (classes, rows, points), so a gathered row is contiguous
    last = squared_residuals(np.add.outer(base[:, -1], axes[-1]), -1)
    extremes = np.stack((last.min(axis=2), last.max(axis=2)))
    tables = [squared_residuals(np.add.outer(axes[i], base[:, i]), i)
              for i in range(1, len(shape) - 1)]
    # the first axis's terms are built into a buffer; a second axis's are views of its table
    terms = [np.empty((model.num_classes, len(base))) if i == 0 else None
             for i in range(len(shape) - 1)]
    # bounds[i]: the extremes plus the leading terms up to axis i, in the kernel's order
    bounds = [np.empty_like(extremes) for _ in shape[:-1]]
    counts = np.zeros(shape, dtype=np.int64)
    # workspaces at their largest size; each lead point fills views of them
    cols = np.empty((len(terms), len(base), 1))
    own, rival = np.empty((2, len(base), shape[-1]))
    wrong, beaten = np.empty((2, len(base), shape[-1]), dtype=bool)
    rivals = [k for k in range(model.num_classes) if k != j]
    prev = (-1,) * len(terms)
    for lead in np.ndindex(shape[:-1]):
        # from the first axis whose index changed on: every later one changed too
        first = next((i for i, (a, b) in enumerate(zip(lead, prev)) if a != b), len(lead))
        prev = lead
        for i in range(first, len(lead)):
            if i == 0:
                squared_residuals(axes[0][lead[0]] + base[:, 0], 0, out=terms[0])
            else:
                terms[i] = tables[i - 1][:, lead[i]]
            np.add(terms[i], bounds[i - 1] if i else extremes, out=bounds[i])
        counts[lead], idx = _rows_to_sweep(*(bounds[-1] if bounds else extremes), j)
        n = len(idx)
        if not n:
            continue
        wrong[:n] = False
        for k in [j, *rivals]:
            cost = own[:n] if k == j else rival[:n]
            np.take(last[k], idx, axis=0, out=cost, mode="clip")
            for col, t in zip(cols, terms):
                np.take(t[k], idx, out=col[:n, 0], mode="clip")
            _add_lead_terms(cost, [col[:n] for col in cols], cost)
            if k != j:
                _beats(k, j)(cost, own[:n], out=beaten[:n])
                wrong[:n] |= beaten[:n]
        counts[lead] += np.count_nonzero(wrong[:n], axis=0)
    return counts


def _nearest_row_values(model, shape) -> int:
    # the last axis's (classes, rows, points) table
    return model.num_classes * shape[-1]


def _add_lead_terms(last, terms, out) -> None:
    """Into out, the cost with last-axis entry last and leading entries terms.

    The entries are added in the kernel's order, (t0 + last) + t1; with no
    leading axis the cost is last itself. last may be out.
    """
    if not terms:
        np.copyto(out, last)
        return
    np.add(terms[0], last, out=out)
    for t in terms[1:]:
        out += t


def _rows_to_sweep(lower, upper, j):
    """Split the rows by whether class j's label can change along the last axis.

    lower[k] and upper[k] bound class k's cost over the last axis, row by
    row. A rival whose upper bound beats class j's lower bound under the
    kernel's tie rule wins at every point; a row where every rival's lower
    bound loses to class j's upper bound is right at every point. Returns
    the number of rows wrong at every point and the indices of the others
    that are not right at every point, which must be compared point by point.
    """
    wrong = np.zeros(lower.shape[1], dtype=bool)
    right = np.ones(lower.shape[1], dtype=bool)
    for k in range(len(lower)):
        if k != j:
            wrong |= _beats(k, j)(upper[k], lower[j])
            right &= _beats(j, k)(upper[j], lower[k])
    return np.count_nonzero(wrong), np.flatnonzero(~(wrong | right))


def _generic_surface_counts(model, classifier, j, axes, noise) -> np.ndarray:
    # the grid points in itertools.product order, the last axis fastest
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    labels = classifier.decide_attacks(model.means[j] + noise, grid)
    return np.count_nonzero(labels != j, axis=1).reshape(tuple(len(a) for a in axes))


def _generic_row_values(model, shape) -> int:
    # the (grid points, rows) labels
    return int(np.prod(shape))
