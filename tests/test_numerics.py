import math

import numpy as np
import pytest
from scipy import integrate

from robustht.numerics import (
    gaussian_cdf,
    gaussian_pdf,
    q_function,
    truncated_gaussian_moment,
    truncated_gaussian_moments,
)


class TestGaussianTails:
    def test_q_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_q_at_two(self):
        # reference value from a 20-digit erfc evaluation
        assert q_function(2.0) == pytest.approx(0.022750131948179207, rel=1e-12)

    def test_complement_identity(self):
        for x in np.linspace(-6, 6, 25):
            assert gaussian_cdf(x) + q_function(x) == pytest.approx(1.0, abs=1e-15)

    def test_q_symmetry(self):
        for x in np.linspace(-5, 5, 21):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-15)

    def test_q_monotone_decreasing(self):
        xs = np.linspace(-8, 8, 200)
        qs = [q_function(x) for x in xs]
        assert all(a > b for a, b in zip(qs, qs[1:]))

    def test_q_far_tail_has_relative_precision(self):
        # 1 - cdf would return exactly 0 out here
        assert 0 < q_function(15.0) < 1e-40

    def test_q_against_quadrature(self):
        # brute-force integration of the density over [x, x+40]
        for x in np.linspace(-8, 8, 17):
            ref, err = integrate.quad(gaussian_pdf, x, x + 40.0, epsabs=1e-14, limit=200)
            assert abs(q_function(x) - ref) < 1e-12

    def test_pdf_normalization(self):
        ref, _ = integrate.quad(gaussian_pdf, -40, 40, epsabs=1e-14, limit=200)
        assert ref == pytest.approx(1.0, abs=1e-13)


class TestTruncatedMoments:
    def test_full_line_moments(self):
        inf = math.inf
        assert truncated_gaussian_moment(0, 1.0, -inf, inf) == pytest.approx(1.0, abs=1e-15)
        assert truncated_gaussian_moment(1, 1.0, -inf, inf) == pytest.approx(0.0, abs=1e-15)
        assert truncated_gaussian_moment(2, 1.0, -inf, inf) == pytest.approx(1.0, rel=1e-14)
        assert truncated_gaussian_moment(3, 1.0, -inf, inf) == pytest.approx(0.0, abs=1e-15)
        assert truncated_gaussian_moment(4, 1.0, -inf, inf) == pytest.approx(3.0, rel=1e-14)

    def test_scaling_with_sigma(self):
        inf = math.inf
        for sigma in (0.3, 1.7, 4.0):
            assert truncated_gaussian_moment(2, sigma, -inf, inf) == pytest.approx(
                sigma**2, rel=1e-13
            )
            assert truncated_gaussian_moment(4, sigma, -inf, inf) == pytest.approx(
                3 * sigma**4, rel=1e-13
            )

    def test_partition_sums_to_full_moment(self):
        rng = np.random.default_rng(7)
        inf = math.inf
        for sigma in (0.5, 1.0, 2.3):
            for _ in range(20):
                cuts = np.sort(rng.uniform(-4 * sigma, 4 * sigma, size=3))
                edges = [-inf, *cuts, inf]
                for n in range(5):
                    total = sum(
                        truncated_gaussian_moment(n, sigma, lo, hi)
                        for lo, hi in zip(edges[:-1], edges[1:])
                    )
                    full = truncated_gaussian_moment(n, sigma, -inf, inf)
                    scale = max(abs(full), sigma**n)
                    assert abs(total - full) <= 1e-10 * scale

    def test_against_quadrature(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            sigma = rng.uniform(0.4, 2.5)
            lo, hi = np.sort(rng.uniform(-3 * sigma, 3 * sigma, size=2))
            if hi - lo < 1e-3:
                continue
            for n in range(5):
                ref, _ = integrate.quad(
                    lambda v: v**n * gaussian_pdf(v / sigma) / sigma,
                    lo, hi, epsabs=1e-13, limit=200,
                )
                got = truncated_gaussian_moment(n, sigma, lo, hi)
                assert got == pytest.approx(ref, abs=1e-10, rel=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            truncated_gaussian_moment(5, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            truncated_gaussian_moment(2, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            truncated_gaussian_moment(2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            truncated_gaussian_moment(2, 1.0, 2.0, -2.0)

    def test_one_pass_equals_each_order_exactly(self):
        inf = math.inf
        ends = [(-inf, inf), (-inf, 0.3), (-1.2, inf), (-0.5, 2.5), (1.0, 1.0001),
                (-40.0, -39.0), (-inf, -3.0), (2.0, inf)]
        for sigma in (1e-3, 0.3, 1.0, 7.0, 1e2):
            for lo, hi in ends:
                moments = truncated_gaussian_moments(sigma, lo, hi)
                assert len(moments) == 5
                for n in range(5):
                    assert moments[n] == truncated_gaussian_moment(n, sigma, lo, hi)
                    assert moments[n] == _per_order_recursion(n, sigma, lo, hi)

    def test_far_end_acts_as_infinite(self):
        # the density underflows long before v^3 would overflow
        inf = math.inf
        assert truncated_gaussian_moments(1.0, -1e200, 0.0) == truncated_gaussian_moments(
            1.0, -inf, 0.0)
        assert truncated_gaussian_moments(0.5, 1.0, 1e200) == truncated_gaussian_moments(
            0.5, 1.0, inf)

    def test_one_pass_invalid_arguments(self):
        with pytest.raises(ValueError):
            truncated_gaussian_moments(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            truncated_gaussian_moments(1.0, 1.0, 1.0)


def _per_order_recursion(n, sigma, lo, hi):
    """The recursion run from M_0 up to order n alone, as one call per order did."""

    def dens(v):
        return 0.0 if math.isinf(v) else gaussian_pdf(v / sigma) / sigma

    def edge(v, k):
        return 0.0 if math.isinf(v) else v**k * dens(v)

    s2 = sigma * sigma
    m = [0.0] * (n + 1)
    m[0] = gaussian_cdf(hi / sigma) - gaussian_cdf(lo / sigma)
    if n >= 1:
        m[1] = s2 * (dens(lo) - dens(hi))
    for k in range(2, n + 1):
        m[k] = s2 * ((k - 1) * m[k - 2] + edge(lo, k - 1) - edge(hi, k - 1))
    return m[n]
