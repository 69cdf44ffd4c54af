"""Gaussian special functions behind the closed-form error predictors.

Everything here is pure and stateless: the standard normal density, CDF
and upper tail, and truncated moments of a centred Gaussian.
`truncated_gaussian_moments` returns all five orders M_0..M_4 from one pass
of the recursion; `truncated_gaussian_moment` reads one order from it. The
recursion needs five numbers of each end (`gaussian_end_terms`), so a caller
that integrates over adjacent intervals evaluates each shared end once and
runs `truncated_moments_between` on the pairs.
"""

from __future__ import annotations

import math

__all__ = [
    "gaussian_pdf",
    "gaussian_cdf",
    "q_function",
    "gaussian_end_terms",
    "truncated_moments_between",
    "truncated_gaussian_moment",
    "truncated_gaussian_moments",
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
    """E[N^n * 1{lo <= N <= hi}] for N ~ Normal(0, sigma^2), n in 0..4."""
    if not 0 <= n <= 4:
        raise ValueError(f"moment order must be in 0..4, got {n}")
    return truncated_gaussian_moments(sigma, lo, hi)[n]


def truncated_gaussian_moments(
    sigma: float, lo: float, hi: float
) -> tuple[float, float, float, float, float]:
    """(M_0, ..., M_4) with M_n = E[N^n * 1{lo <= N <= hi}], N ~ Normal(0, sigma^2)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    if not lo < hi:
        raise ValueError(f"empty integration range: lo={lo}, hi={hi}")
    return truncated_moments_between(
        sigma, gaussian_end_terms(lo, sigma), gaussian_end_terms(hi, sigma))


def gaussian_end_terms(v: float, sigma: float) -> tuple[float, float, float, float, float]:
    """(Phi(v / sigma), p, v p, v^2 p, v^3 p), p the N(0, sigma^2) density at v.

    The powers are zero wherever the density is, which covers an infinite
    end and keeps v^3 from overflowing at a far one.
    """
    r = v / sigma
    p = gaussian_pdf(r) / sigma
    if not p:
        return gaussian_cdf(r), 0.0, 0.0, 0.0, 0.0
    return gaussian_cdf(r), p, v * p, v**2 * p, v**3 * p


def truncated_moments_between(
    sigma: float, lo_end: tuple, hi_end: tuple
) -> tuple[float, float, float, float, float]:
    """(M_0, ..., M_4) between two ends given by their `gaussian_end_terms`.

    Uses the standard integration-by-parts recursion
        M_n = sigma^2 * ((n-1) M_{n-2} + lo^{n-1} p(lo) - hi^{n-1} p(hi)),
    where p is the N(0, sigma^2) density; boundary terms vanish at +-inf.
    Degree 4 is all the error analysis needs: squared cost-difference
    branches are polynomials of degree <= 4 in the noise.
    """
    f_lo, a0, a1, a2, a3 = lo_end
    f_hi, b0, b1, b2, b3 = hi_end
    s2 = sigma * sigma
    m0 = f_hi - f_lo
    m1 = s2 * (a0 - b0)
    m2 = s2 * (m0 + a1 - b1)
    m3 = s2 * (2 * m1 + a2 - b2)
    m4 = s2 * (3 * m2 + a3 - b3)
    return m0, m1, m2, m3, m4
