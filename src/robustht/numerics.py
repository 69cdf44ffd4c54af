"""Gaussian special functions behind the closed-form error predictors.

Everything here is pure and stateless: the standard normal density, CDF
and upper tail, and truncated moments of a centred Gaussian.
"""

from __future__ import annotations

import math

__all__ = [
    "gaussian_pdf",
    "gaussian_cdf",
    "q_function",
    "truncated_gaussian_moment",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gaussian_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF, via erfc to keep the lower tail accurate."""
    return 0.5 * math.erfc(-x / _SQRT2)


def q_function(x: float) -> float:
    """Upper-tail probability Q(x) = P(Z > x) for standard normal Z.

    Computed as erfc(x / sqrt(2)) / 2 rather than 1 - cdf so that values
    down to ~1e-300 come out with full relative precision; high-SNR error
    predictions live deep in that tail.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def truncated_gaussian_moment(n: int, sigma: float, lo: float, hi: float) -> float:
    """E[N^n * 1{lo <= N <= hi}] for N ~ Normal(0, sigma^2), n in 0..4.

    Uses the standard integration-by-parts recursion
        M_n = sigma^2 * ((n-1) M_{n-2} + lo^{n-1} p(lo) - hi^{n-1} p(hi)),
    where p is the N(0, sigma^2) density; boundary terms vanish at +-inf.
    Degree 4 is all the error analysis needs: squared cost-difference
    branches are polynomials of degree <= 4 in the noise.
    """
    if not 0 <= n <= 4:
        raise ValueError(f"moment order must be in 0..4, got {n}")
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not lo < hi:
        raise ValueError(f"empty integration range: lo={lo}, hi={hi}")

    def dens(v: float) -> float:
        if math.isinf(v):
            return 0.0
        return gaussian_pdf(v / sigma) / sigma

    def edge(v: float, k: int) -> float:
        # v^k * p(v); zero at infinite endpoints since the density wins
        if math.isinf(v):
            return 0.0
        return v**k * dens(v)

    s2 = sigma * sigma
    m = [0.0] * (n + 1)
    m[0] = gaussian_cdf(hi / sigma) - gaussian_cdf(lo / sigma)
    if n >= 1:
        m[1] = s2 * (dens(lo) - dens(hi))
    for k in range(2, n + 1):
        m[k] = s2 * ((k - 1) * m[k - 2] + edge(lo, k - 1) - edge(hi, k - 1))
    return m[n]
