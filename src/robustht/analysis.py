"""Closed-form and semi-analytic error predictors for the binary problem.

The decision statistic of the binary soft-threshold (GLRT) rule under a
sign attack of strength kappa decomposes into independent per-coordinate
cost differences

    C = g_eps(2|mu| + N - kappa)^2 - g_eps(N - kappa)^2,  N ~ Normal(0, sigma^2),

whose exact moments follow from piecewise truncated-Gaussian integration,
and which is bounded below by

    Y = 1{N >= -t} (t + N)^2 - N^2,  t = 2|mu| - kappa - eps,

whose moments have closed forms. Summing coordinates and applying the CLT
gives the error estimate Q(sum of means / sqrt(sum of variances)); the
estimate becomes exact as the dimension grows.

`moment_study` tabulates these moments against Monte Carlo; MOMENT_COLUMNS
names the fields of its rows, which the CLI writes as its header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classifiers import GlrtClassifier, per_coordinate_cost_difference
from .model import (
    AttackMode,
    AttackSpec,
    HypothesisModel,
    TwoLevelProfile,
    check_eps,
    pairwise_half_difference,
)
# truncated_gaussian_moment stays bound here: bench/tracing.py counts its calls
# through this name
from .numerics import (  # noqa: F401
    gaussian_end_terms,
    gaussian_pdf,
    q_function,
    truncated_gaussian_moment,
    truncated_moments_between,
)
from .rng import noise_block, sum_over_blocks

__all__ = [
    "MOMENTS_EXACT_C",
    "MOMENTS_LOWER_BOUND_Y",
    "METHOD_MONTE_CARLO",
    "METHOD_CLT_EXACT",
    "METHOD_CLT_LOWER_BOUND",
    "METHOD_Q_OF_SNR",
    "CoordinateMoments",
    "ErrorEstimate",
    "DegenerateModelError",
    "BracketExhaustedError",
    "y_bound_moments",
    "cost_difference_moments",
    "clt_error",
    "snr_minimax",
    "snr_glrt",
    "error_from_snr",
    "low_noise_thresholds",
    "sigma_for_target_error",
    "MOMENT_COLUMNS",
    "moment_study",
]

MOMENTS_EXACT_C = "exact-c"
MOMENTS_LOWER_BOUND_Y = "y-lower-bound"

METHOD_MONTE_CARLO = "monte-carlo"
METHOD_CLT_EXACT = "clt-analytic"
METHOD_CLT_LOWER_BOUND = "clt-lower-bound"
METHOD_Q_OF_SNR = "q-of-snr"


class DegenerateModelError(ValueError):
    """The requested predictor has no signal or no noise term to normalize by."""


class BracketExhaustedError(RuntimeError):
    """The noise search could not bracket the target error."""


@dataclass(frozen=True)
class CoordinateMoments:
    """Mean and variance of one coordinate's cost-difference contribution."""

    mean: float
    variance: float
    kind: str

    def __post_init__(self):
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("moments must be finite")
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


@dataclass(frozen=True)
class ErrorEstimate:
    """A probability with the method that produced it.

    ci_halfwidth is the 95% normal-approximation half-width and is present
    exactly when the estimate is Monte Carlo.
    """

    value: float
    method: str
    ci_halfwidth: float | None = None
    trials: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"error probability must be in [0, 1], got {self.value}")
        if (self.method == METHOD_MONTE_CARLO) != (self.ci_halfwidth is not None):
            raise ValueError("ci_halfwidth is present exactly for Monte Carlo estimates")


def _check_attack_params(eps: float, kappa: float, sigma: float) -> None:
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    check_eps(eps, kappa)


def y_bound_moments(mu: float, eps: float, kappa: float, sigma: float) -> CoordinateMoments:
    """Closed-form moments of the lower-bounding variable Y.

    With t = 2|mu| - kappa - eps:
        E[Y]   = Q(-t/s)(t^2 + s^2) - s^2 + s t phi(t/s)
        E[Y^2] = 3 s^4 + Q(-t/s)(t^4 + 4 t^2 s^2 - 3 s^4)
                 + s t phi(t/s)(t^2 + 3 s^2)
    At high t/sigma these approach t^2 and 4 sigma^2 t^2: such coordinates
    behave like the ones a hard-threshold linear rule retains.
    """
    _check_attack_params(eps, kappa, sigma)
    t = 2.0 * abs(mu) - kappa - eps
    r = t / sigma
    q = q_function(-r)
    pdf = gaussian_pdf(r)
    s2 = sigma * sigma
    mean = q * (t * t + s2) - s2 + sigma * t * pdf
    second = 3.0 * s2 * s2 + q * (t**4 + 4.0 * t * t * s2 - 3.0 * s2 * s2)
    second += sigma * t * pdf * (t * t + 3.0 * s2)
    # below sigma ~ 5e-9 the difference can round below 0, as cost_difference_moments' can
    variance = max(0.0, second - mean * mean)
    return CoordinateMoments(mean=mean, variance=variance, kind=MOMENTS_LOWER_BOUND_Y)


def _piecewise_cost_polys(mu_abs: float, eps: float, kappa: float):
    """Intervals of N on which the cost difference is a fixed quadratic.

    The two soft-threshold arguments 2|mu| + N - kappa and N - kappa cross
    their breakpoints +-eps at four (not necessarily distinct) values of N;
    between consecutive breakpoints each squared term is either zero or a
    shifted square, so their difference is a quadratic with constant
    coefficients. Returns (lo, hi, coeffs) triples, coeffs being the three
    ascending-power coefficients as floats.
    """
    upper = 2.0 * mu_abs - kappa  # the arguments are N + upper and N + lower
    lower = -kappa
    points = sorted({eps - upper, -eps - upper, eps - lower, -eps - lower})
    edges = [-math.inf, *points, math.inf]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if not lo < hi:
            continue
        # representative point of the open interval
        if math.isinf(lo):
            probe = hi - 1.0
        elif math.isinf(hi):
            probe = lo + 1.0
        else:
            probe = 0.5 * (lo + hi)
        p0, p1, p2 = _branch_coeffs(probe + upper, upper, eps)
        q0, q1, q2 = _branch_coeffs(probe + lower, lower, eps)
        pieces.append((lo, hi, (p0 - q0, p1 - q1, p2 - q2)))
    return pieces


def _branch_coeffs(u: float, shift: float, eps: float) -> tuple[float, float, float]:
    """Ascending coefficients in N of g_eps(N + shift)^2 where N + shift = u."""
    if u >= eps:
        c = shift - eps  # (N + shift - eps)^2
    elif u <= -eps:
        c = shift + eps  # (N + shift + eps)^2
    else:
        return 0.0, 0.0, 0.0
    return c * c, 2.0 * c, 1.0


# gaussian_end_terms at -inf and +inf, the same at every sigma
_INFINITE_ENDS = {-math.inf: (0.0, 0.0, 0.0, 0.0, 0.0), math.inf: (1.0, 0.0, 0.0, 0.0, 0.0)}


class _CostPieces:
    """The nonzero quadratic pieces of C for each of several levels |mu|.

    A level's pieces depend on eps and kappa only, so one table serves
    every sigma of a call. `moments(sigma)` evaluates the Gaussian end
    terms of each finite breakpoint once, when a piece first needs them:
    the two pieces that meet there share them, and so do the levels, whose
    -kappa breakpoints coincide. Each piece keeps its coefficients and
    those of its square, summed in np.convolve's order.
    """

    def __init__(self, levels, eps: float, kappa: float):
        self.levels = [
            [(lo, hi, c0, c1, c2, c0 * c0, c0 * c1 + c1 * c0, c0 * c2 + c1 * c1 + c2 * c0,
              c1 * c2 + c2 * c1, c2 * c2)
             for lo, hi, (c0, c1, c2) in _piecewise_cost_polys(abs(float(mu)), eps, kappa)
             if c0 or c1 or c2]
            for mu in levels]

    def moments(self, sigma: float) -> list[tuple[float, float]]:
        """(mean, variance) of C at each level, the variance clamped at 0."""
        ends = dict(_INFINITE_ENDS)
        out = []
        for pieces in self.levels:
            mean = 0.0
            second = 0.0
            for lo, hi, c0, c1, c2, k0, k1, k2, k3, k4 in pieces:
                lo_end = ends.get(lo)
                if lo_end is None:
                    lo_end = ends[lo] = gaussian_end_terms(lo, sigma)
                hi_end = ends.get(hi)
                if hi_end is None:
                    hi_end = ends[hi] = gaussian_end_terms(hi, sigma)
                m0, m1, m2, m3, m4 = truncated_moments_between(sigma, lo_end, hi_end)
                mean += c0 * m0 + c1 * m1 + c2 * m2
                second += k0 * m0 + k1 * m1 + k2 * m2 + k3 * m3 + k4 * m4
            variance = max(0.0, second - mean * mean)
            if not (math.isfinite(mean) and math.isfinite(variance)):
                raise ValueError("moments must be finite")
            out.append((mean, variance))
        return out


def cost_difference_moments(
    mu: float, eps: float, kappa: float, sigma: float
) -> CoordinateMoments:
    """Exact moments of the per-coordinate cost difference C.

    Integrates each quadratic branch of C (and each quartic branch of C^2)
    against the Normal(0, sigma^2) density via truncated moments. Only the
    magnitude of mu matters: the noise and attack are symmetric under a
    sign flip of the coordinate.
    """
    _check_attack_params(eps, kappa, sigma)
    [(mean, variance)] = _CostPieces([mu], eps, kappa).moments(sigma)
    return CoordinateMoments(mean=mean, variance=variance, kind=MOMENTS_EXACT_C)


def _binary_half_difference(model: HypothesisModel) -> np.ndarray:
    if model.num_classes != 2:
        raise ValueError(
            f"this predictor is for binary models, got {model.num_classes} classes"
        )
    return pairwise_half_difference(model, 0, 1)


def clt_error(
    model: HypothesisModel, eps: float, kappa: float, use_lower_bound: bool = False
) -> ErrorEstimate:
    """CLT estimate of the binary soft-threshold rule's error under a sign attack.

    Asymmetric means are recentred to the half-difference vector first.
    With exact per-coordinate moments the estimate is Q(sum m / sqrt(sum
    rho^2)); with the lower-bound moments the pre-CLT quantity upper-bounds
    the true error. A zero variance sum is the deterministic limit: the
    statistic is then a constant, and ties favor the true class.
    """
    half = _binary_half_difference(model)
    levels, counts = np.unique(np.abs(half), return_counts=True)
    moment_fn = y_bound_moments if use_lower_bound else cost_difference_moments
    moments = [moment_fn(float(value), eps, kappa, model.sigma) for value in levels]
    method = METHOD_CLT_LOWER_BOUND if use_lower_bound else METHOD_CLT_EXACT
    return _clt_error_from_moments(moments, counts, method)


def _clt_error_from_moments(moments, counts, method: str) -> ErrorEstimate:
    """The CLT estimate from each level's moments, `counts[i]` coordinates at level i."""
    value = _clt_value([(m.mean, m.variance) for m in moments], counts)
    return ErrorEstimate(value=value, method=method)


def _clt_value(moments, counts) -> float:
    """Q(sum of means / sqrt(sum of variances)) over (mean, variance) pairs per level,
    summed in level order; the deterministic limit when the variance sum is 0."""
    mean_sum = 0.0
    var_sum = 0.0
    for (mean, variance), count in zip(moments, counts):
        mean_sum += count * mean
        var_sum += count * variance
    if var_sum <= 0.0:
        return 0.0 if mean_sum >= 0 else 1.0
    return q_function(mean_sum / math.sqrt(var_sum))


def snr_minimax(
    d: int, p: float, a: float, kappa_ratio: float, eps: float, sigma: float
) -> float:
    """Effective SNR of the robust linear rule on a two-level profile.

    Only the fraction p of coordinates with means a*eps survive the soft
    threshold; under a sign attack of strength kappa_ratio*eps each
    contributes signal (a - kappa_ratio)*eps. Predicted error is
    Q(sqrt(snr)). kappa_ratio is deliberately unconstrained so that
    overdriven attacks (kappa_ratio > a fully reverses the signal) can be
    explored analytically.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return (a - kappa_ratio) ** 2 * d * p * (eps / sigma) ** 2


def snr_glrt(
    d: int, p: float, moments_a: CoordinateMoments, moments_b: CoordinateMoments
) -> float:
    """Effective SNR of the soft-threshold rule on a two-level profile.

    d * (p m_a + (1-p) m_b)^2 / (p rho_a^2 + (1-p) rho_b^2), from the CLT
    estimate with the two coordinate populations' moments.
    """
    mean = p * moments_a.mean + (1.0 - p) * moments_b.mean
    var = p * moments_a.variance + (1.0 - p) * moments_b.variance
    if var <= 0.0:
        raise DegenerateModelError("zero variance sum: the error is deterministic, not Q-shaped")
    return d * mean * mean / var


def error_from_snr(snr: float) -> float:
    """Q(sqrt(snr)); the predicted error at a given effective SNR."""
    if snr < 0:
        raise ValueError(f"snr must be >= 0, got {snr}")
    return q_function(math.sqrt(snr))


def low_noise_thresholds(model: HypothesisModel) -> tuple[float, float]:
    """Largest attack budgets each rule survives as the noise vanishes.

    Returns (||h||_inf, ||h||^2 / ||h||_1) for the recentred half-difference
    h: below the first, the soft-threshold rule's error still vanishes in
    the low-noise limit; at or above the second, the plain nearest-mean
    rule errs with probability at least one half under the sign attack.
    The first always dominates the second (Cauchy-Schwarz), which is the
    robustness gap between the two rules.
    """
    half = _binary_half_difference(model)
    if not np.any(half):
        raise ValueError("the two class means are identical")
    linf = float(np.max(np.abs(half)))
    l1 = float(np.abs(half).sum())
    l2sq = float(np.einsum("i,i->", half, half))
    return linf, l2sq / l1


def sigma_for_target_error(
    profile: TwoLevelProfile,
    kappa: float,
    target_error: float,
    method: str = METHOD_CLT_EXACT,
    trials: int = 200_000,
    seed: int = 0,
    rel_tol: float = 1e-3,
) -> float:
    """Noise level at which the soft-threshold rule hits a target error.

    Error is smooth and increasing in sigma, so a geometric bracket plus
    bisection suffices. The search stops once the estimate is within
    rel_tol of the target, or, with Monte Carlo, within its own confidence
    half-width of it (the analytic half-width is 0).
    """
    if not 0.0 < target_error < 0.5:
        raise ValueError(f"target_error must be in (0, 0.5), got {target_error}")
    if method not in (METHOD_CLT_EXACT, METHOD_MONTE_CARLO):
        raise ValueError(f"method must be clt-analytic or monte-carlo, got {method!r}")

    if method == METHOD_CLT_EXACT:
        check_eps(profile.eps, kappa)
        # the profile's half-difference is its mean vector, whatever sigma is,
        # and the pieces of its levels do not depend on sigma either
        levels, counts = profile.levels()
        pieces = _CostPieces(levels, profile.eps, kappa)

        def err(sigma: float) -> tuple[float, float]:
            return _clt_value(pieces.moments(sigma), counts), 0.0
    else:
        from .engine import monte_carlo_error

        def err(sigma: float) -> tuple[float, float]:
            m = profile.to_model(sigma)
            attack = AttackSpec(
                budget=profile.eps, strength=kappa, mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC
            )
            est = monte_carlo_error(
                m, GlrtClassifier(m, profile.eps), attack,
                true_class=0, trials=trials, seed=seed,
            )
            return est.value, est.ci_halfwidth

    lo = hi = float(profile.eps)
    e_lo = e_hi = err(lo)[0]
    grow = 0
    while e_hi < target_error:
        hi *= 2.0
        e_hi, _ = err(hi)
        grow += 1
        if grow > 60:
            raise BracketExhaustedError(
                f"no sigma <= {hi} reaches error {target_error}"
            )
    grow = 0
    while e_lo > target_error:
        lo /= 2.0
        e_lo, _ = err(lo)
        grow += 1
        if grow > 60:
            raise BracketExhaustedError(
                f"no sigma >= {lo} stays below error {target_error}"
            )

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e_mid, ci = err(mid)
        if abs(e_mid - target_error) <= max(ci, rel_tol * target_error):
            return mid
        if e_mid < target_error:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


#: The fields of a `moment_study` row, in CSV column order.
MOMENT_COLUMNS = ("mu", "c_mean_exact", "c_var_exact", "c_mean_mc", "c_var_mc",
                  "c_mean_se", "c_var_se", "y_mean", "y_var")


def moment_study(
    mus,
    eps: float,
    kappa: float,
    sigma: float,
    trials: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Exact, empirical and lower-bound coordinate moments over a mean grid.

    For each coordinate mean mu: the exact moments of C by piecewise
    integration, sample moments of C from `trials` seeded noise draws
    (with standard errors), and the closed-form moments of Y. One row of
    MOMENT_COLUMNS per mu; this is the tabular form of the mean/variance
    comparison figure. threads runs each mu's blocks on that many workers
    and does not change a bit of the result.
    """
    rows = []
    for i, mu in enumerate(np.asarray(mus, dtype=float)):
        exact = cost_difference_moments(mu, eps, kappa, sigma)
        ybound = y_bound_moments(mu, eps, kappa, sigma)
        sampled = _sample_cost_moments(mu, eps, kappa, sigma, trials, seed + i, threads)
        rows.append(dict(zip(MOMENT_COLUMNS, (
            float(mu), exact.mean, exact.variance, *sampled, ybound.mean, ybound.variance))))
    return rows


def _sample_cost_moments(mu, eps, kappa, sigma, trials, seed, threads):
    """Sample mean, variance and their asymptotic standard errors for C."""

    def power_sums(b, rows):
        noise = sigma * noise_block(seed, b, rows, 1)[:, 0]
        c = per_coordinate_cost_difference(abs(mu), noise, -kappa, eps)
        return np.array([c.sum(), (c * c).sum(), (c**3).sum(), (c**4).sum()])

    n = trials
    s1, s2, s3, s4 = sum_over_blocks(trials, power_sums, threads)
    mean = s1 / n
    m2 = s2 / n - mean * mean
    # fourth central moment drives the SE of the sample variance
    mu4 = s4 / n - 4 * mean * (s3 / n) + 6 * mean**2 * (s2 / n) - 3 * mean**4
    se_mean = math.sqrt(max(m2, 0.0) / n)
    se_var = math.sqrt(max(mu4 - m2 * m2, 0.0) / n)
    return float(mean), float(m2), float(se_mean), float(se_var)
