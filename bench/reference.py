"""Independent reference computations for the benchmark's output checks.

Nothing here calls robustht: every quantity is recomputed from the model
parameters with numpy and the math module, so a check compares the
program against a second derivation rather than against a stored copy of
its own output.
"""

from __future__ import annotations

import math

import numpy as np

Z95 = 1.959963984540054

# 16-point Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def q(x: float) -> float:
    """Upper standard normal tail P(Z > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def wilson_halfwidth(p: float, n: int, z: float = Z95) -> float:
    """Half-width of the Wilson score interval; positive even at p = 0."""
    denom = 1.0 + z * z / n
    return z / denom * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))


def soft(u: np.ndarray, eps: float) -> np.ndarray:
    """|u| shrunk by eps and floored at 0 (magnitude of the double-sided ReLU)."""
    return np.maximum(0.0, np.abs(u) - eps)


def cost_difference_quadrature(mu_abs: float, eps: float, kappa: float, sigma: float):
    """Mean and variance of C = g(2|mu| + N - kappa)^2 - g(N - kappa)^2, N ~ N(0, sigma^2).

    Gauss-Legendre quadrature against the normal density over +-40 sigma,
    split at the kinks of C and into pieces no wider than sigma / 2, so
    each piece integrates a smooth function.
    """
    span = 40.0 * sigma
    kinks = [s for shift in (2.0 * mu_abs - kappa, -kappa) for s in (eps - shift, -eps - shift)]
    edges = sorted({-span, span, *(k for k in kinks if -span < k < span)})
    lo_list, hi_list = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces = max(1, math.ceil((hi - lo) / (0.5 * sigma)))
        cuts = np.linspace(lo, hi, pieces + 1)
        lo_list.append(cuts[:-1])
        hi_list.append(cuts[1:])
    lo = np.concatenate(lo_list)[:, None]
    hi = np.concatenate(hi_list)[:, None]
    n = 0.5 * (hi - lo) * _GL_NODES[None, :] + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * _GL_WEIGHTS[None, :]
    w = w * np.exp(-0.5 * (n / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    c = soft(2.0 * mu_abs + n - kappa, eps) ** 2 - soft(n - kappa, eps) ** 2
    mean = float(np.sum(w * c))
    var = float(np.sum(w * (c - mean) ** 2))
    return mean, var


def clt_error_quadrature(mean_abs_counts, eps: float, kappa: float, sigma: float) -> float:
    """Q(sum m / sqrt(sum v)) over coordinates given as (|mu|, multiplicity) pairs."""
    m_sum = 0.0
    v_sum = 0.0
    for mu_abs, count in mean_abs_counts:
        m, v = cost_difference_quadrature(mu_abs, eps, kappa, sigma)
        m_sum += count * m
        v_sum += count * v
    return q(m_sum / math.sqrt(v_sum))


def profile_coordinates(d: int, p: float, a: float, b: float, eps: float):
    """(|mu|, multiplicity) pairs of a two-level profile's half-difference."""
    strong = int(round(p * d))
    return [(a * eps, strong), (b * eps, d - strong)]


def profile_means(d: int, p: float, a: float, b: float, eps: float) -> np.ndarray:
    """Class means (+mu, -mu) of a symmetric two-level profile."""
    mu = np.full(d, b * eps)
    mu[: int(round(p * d))] = a * eps
    return np.stack([mu, -mu])


def glrt_labels(x: np.ndarray, means: np.ndarray, eps: float) -> np.ndarray:
    """Class with the least soft-thresholded distance; ties go to the lower index."""
    costs = np.stack([np.sum(soft(x - mu, eps) ** 2, axis=-1) for mu in means], axis=-1)
    return np.argmin(costs, axis=-1)


def min_distance_labels(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    costs = np.stack([np.sum((x - mu) ** 2, axis=-1) for mu in means], axis=-1)
    return np.argmin(costs, axis=-1)


def nn_target(means: np.ndarray, j: int, rule: str, eps: float, kappa: float) -> int:
    """Competing class the noise-agnostic attack steers toward.

    min-distance scores ||h|| - kappa ||h||_1 / ||h||; GLRT scores the
    surviving energy sum max(0, |h| - (kappa + eps) / 2)^2; h is the half
    difference of the means. The least score wins, then the lower index.
    """
    best = None
    for k in range(len(means)):
        if k == j:
            continue
        h = (means[j] - means[k]) / 2.0
        if rule == "min-distance":
            l2 = float(np.linalg.norm(h))
            score = l2 - kappa * float(np.abs(h).sum()) / l2
        else:
            kept = np.maximum(0.0, np.abs(h) - 0.5 * (kappa + eps))
            score = float(kept @ kept)
        if best is None or score < best[0]:
            best = (score, k)
    return best[1]


def sign_attack(means: np.ndarray, j: int, k: int, kappa: float) -> np.ndarray:
    return -kappa * np.sign(means[j] - means[k])


def count_errors(labels_of, means: np.ndarray, j: int, base: np.ndarray, kappa: float,
                 mode: str, target: int | None = None) -> int:
    """Errors of one true class j on observations base = mu_j + noise.

    agnostic: the sign attack toward `target`. aware: replay the sign attack
    toward each other class in index order; a trial is an error if any replay
    leaves class j, and otherwise if the unattacked observation does.
    """
    if mode == "agnostic":
        return int(np.sum(labels_of(base + sign_attack(means, j, target, kappa)) != j))
    wrong = np.zeros(base.shape[0], dtype=bool)
    for k in range(len(means)):
        if k != j:
            wrong |= labels_of(base + sign_attack(means, j, k, kappa)) != j
    wrong |= labels_of(base) != j
    return int(wrong.sum())
