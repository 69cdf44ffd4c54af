import math

import numpy as np
import pytest
from scipy import integrate

from robustht.numerics import (
    gaussian_cdf,
    gaussian_pdf,
    q_function,
    truncated_gaussian_moment,
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
