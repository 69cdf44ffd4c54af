import csv
import math

import numpy as np
import pytest
from scipy import integrate

import robustht.engine
from robustht import cli
from robustht.analysis import (
    METHOD_CLT_EXACT,
    METHOD_CLT_LOWER_BOUND,
    METHOD_MONTE_CARLO,
    clt_error,
    cost_difference_moments,
    error_from_snr,
    low_noise_thresholds,
    moment_study,
    sigma_for_target_error,
    snr_glrt,
    snr_minimax,
    y_bound_moments,
)
from robustht.analysis import _piecewise_cost_polys
from robustht.classifiers import GlrtClassifier, per_coordinate_cost_difference
from robustht.engine import monte_carlo_error
from robustht.model import AttackMode, AttackSpec, HypothesisModel, TwoLevelProfile
from robustht.numerics import (
    gaussian_pdf,
    q_function,
    truncated_gaussian_moment,
    truncated_gaussian_moments,
)


def gauss_quad(fn, sigma, lo, hi):
    val, _ = integrate.quad(
        lambda v: fn(v) * gaussian_pdf(v / sigma) / sigma, lo, hi,
        epsabs=1e-12, limit=400,
    )
    return val


def direct_cost(mu, eps, kappa):
    def c(n):
        return per_coordinate_cost_difference(abs(mu), n, -kappa, eps)
    return c


class TestYBoundMoments:
    def test_exact_values_at_t_zero(self):
        m = y_bound_moments(1.0, 1.0, 1.0, 1.0)  # t = 0
        assert m.mean == -0.5
        assert m.variance == 1.25

    def test_high_snr_limits(self):
        # t/sigma = 8: mean ~ t^2, variance ~ 4 sigma^2 t^2
        sigma = 0.5
        t = 4.0
        mu = (t + 1.0 + 1.0) / 2  # eps = kappa = 1
        m = y_bound_moments(mu, 1.0, 1.0, sigma)
        assert m.mean == pytest.approx(t * t, rel=1e-6)
        assert m.variance == pytest.approx(4 * sigma * sigma * t * t, rel=1e-4)

    def test_sign_of_mu_irrelevant(self):
        a = y_bound_moments(1.3, 0.8, 0.5, 0.9)
        b = y_bound_moments(-1.3, 0.8, 0.5, 0.9)
        assert (a.mean, a.variance) == (b.mean, b.variance)

    def test_against_quadrature(self):
        # E[Y^k] by integrating the two branches of Y against the density
        rng = np.random.default_rng(8)
        for _ in range(10):
            eps = rng.uniform(0.2, 1.5)
            kappa = rng.uniform(0.0, eps)
            mu = rng.uniform(0.0, 2.5)
            sigma = rng.uniform(0.3, 2.0)
            t = 2 * mu - kappa - eps
            lim = 12 * sigma + abs(t)
            mean_ref = gauss_quad(
                lambda n: (t + n) ** 2 - n**2, sigma, -t, lim
            ) + gauss_quad(lambda n: -(n**2), sigma, -lim, -t)
            second_ref = gauss_quad(
                lambda n: ((t + n) ** 2 - n**2) ** 2, sigma, -t, lim
            ) + gauss_quad(lambda n: n**4, sigma, -lim, -t)
            m = y_bound_moments(mu, eps, kappa, sigma)
            assert m.mean == pytest.approx(mean_ref, abs=1e-8)
            assert m.variance == pytest.approx(second_ref - mean_ref**2, abs=1e-7)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(4)
        n = 200_000
        for t in (-2.0, 0.0, 1.0, 3.0):
            sigma = 1.0
            mu = (t + 2.0) / 2  # eps = kappa = 1
            noise = rng.standard_normal(n) * sigma
            y = np.where(noise >= -t, (t + noise) ** 2 - noise**2, -(noise**2))
            m = y_bound_moments(mu, 1.0, 1.0, sigma)
            se_mean = y.std() / math.sqrt(n)
            assert abs(y.mean() - m.mean) < 5 * se_mean
            centered = y - y.mean()
            se_var = math.sqrt(
                max((centered**4).mean() - centered.var() ** 2, 0.0) / n
            )
            assert abs(y.var() - m.variance) < 5 * se_var

    def test_variance_clamped_at_zero(self):
        # second - mean^2 rounds to -5.6e-17 here
        m = y_bound_moments(0.9, 1.0, 0.0, 4e-9)
        assert m.variance == 0.0
        assert m.mean == pytest.approx(0.64, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            y_bound_moments(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            y_bound_moments(1.0, 1.0, 1.5, 1.0)  # kappa > eps
        with pytest.raises(ValueError):
            y_bound_moments(1.0, -0.5, 0.0, 1.0)


def _per_order_cost_moments(mu, eps, kappa, sigma):
    """Moments of C with one truncated-moment call per order and the squared
    branch from polymul, summed as the per-order implementation did."""
    mean = 0.0
    second = 0.0
    for lo, hi, coeffs in _piecewise_cost_polys(abs(mu), eps, kappa):
        coeffs = np.asarray(coeffs, dtype=float)
        if not np.any(coeffs):
            continue
        sq = np.polynomial.polynomial.polymul(coeffs, coeffs)
        moments = [truncated_gaussian_moment(n, sigma, lo, hi) for n in range(5)]
        mean += sum(c * moments[n] for n, c in enumerate(coeffs))
        second += sum(c * moments[n] for n, c in enumerate(sq))
    return mean, max(0.0, second - mean * mean)


def _piece_sum_cost_moments(mu, eps, kappa, sigma):
    """Moments of C from one truncated_gaussian_moments call per nonzero piece,
    each piece evaluating both of its ends."""
    mean = 0.0
    second = 0.0
    for lo, hi, (c0, c1, c2) in _piecewise_cost_polys(abs(mu), eps, kappa):
        if not (c0 or c1 or c2):
            continue
        m0, m1, m2, m3, m4 = truncated_gaussian_moments(sigma, lo, hi)
        mean += c0 * m0 + c1 * m1 + c2 * m2
        second += (c0 * c0 * m0 + (c0 * c1 + c1 * c0) * m1
                   + (c0 * c2 + c1 * c1 + c2 * c0) * m2
                   + (c1 * c2 + c2 * c1) * m3 + c2 * c2 * m4)
    return mean, max(0.0, second - mean * mean)


class TestCostDifferenceMoments:
    def test_zero_mean_coordinate_vanishes(self):
        m = cost_difference_moments(0.0, 1.0, 1.0, 1.0)
        assert m.mean == 0.0
        assert m.variance == 0.0

    def test_zero_eps_reduces_to_quadratic_difference(self):
        # g_0 is the identity: C = (2 mu + N)^2 - N^2 = 4 mu^2 + 4 mu N
        m = cost_difference_moments(1.0, 0.0, 0.0, 1.0)
        assert m.mean == pytest.approx(4.0, rel=1e-12)
        assert m.variance == pytest.approx(16.0, rel=1e-12)

    def test_bit_identical_to_per_order_reference(self):
        # |mu| <= eps puts an atom at 0; kappa in {0, eps}; sigma over 5 decades
        eps = 0.8
        for sigma in np.geomspace(1e-3, 1e2, 11):
            for mu in (0.0, 0.3, -0.5, 0.8, 0.8000001, 1.1, -1.6, 2.5, 40.0):
                for kappa in (0.0, 0.35, eps):
                    got = cost_difference_moments(mu, eps, kappa, float(sigma))
                    mean, variance = _per_order_cost_moments(mu, eps, kappa, float(sigma))
                    assert got.mean == mean and got.variance == variance, (mu, kappa, sigma)

    def test_bit_identical_to_sum_over_pieces(self):
        # shared breakpoint terms change no bit of the piece-by-piece sum
        rng = np.random.default_rng(19)
        cases = []
        for _ in range(400):
            eps = float(rng.uniform(0.05, 3.0))
            mu = float(rng.choice([0.0, rng.uniform(-4.0, 4.0) * eps]))
            kappa = float(rng.choice([0.0, eps, rng.uniform(0.0, eps)]))
            sigma = float(rng.choice([1e-3, 40.0, np.exp(rng.uniform(-7.0, 4.0))]))
            cases.append((mu, eps, kappa, sigma))
        cases += [(0.0, 1.0, 0.0, 1e-3), (0.0, 1.0, 1.0, 40.0), (1.5, 1.0, 1.0, 1e-3)]
        for mu, eps, kappa, sigma in cases:
            got = cost_difference_moments(mu, eps, kappa, sigma)
            mean, variance = _piece_sum_cost_moments(mu, eps, kappa, sigma)
            assert (got.mean, got.variance) == (mean, variance), (mu, eps, kappa, sigma)
            assert math.copysign(1.0, got.mean) == math.copysign(1.0, mean)

    def test_piecewise_matches_direct_formula(self):
        # the interval polynomials must agree with the soft-threshold
        # definition everywhere, for both branch structures (|mu|>eps and
        # |mu|<=eps) and weakened attacks
        for mu, eps, kappa in ((2.5, 1.0, 1.0), (0.6, 1.0, 1.0), (1.4, 0.9, 0.4),
                               (0.3, 0.8, 0.0), (1.0, 1.0, 1.0), (0.0, 0.5, 0.2)):
            pieces = _piecewise_cost_polys(mu, eps, kappa)
            direct = direct_cost(mu, eps, kappa)
            for lo, hi, coeffs in pieces:
                probes = np.linspace(max(lo, -8), min(hi, 8), 30)
                probes = probes[(probes > lo) & (probes < hi)]
                for n in probes:
                    poly_val = coeffs[0] + coeffs[1] * n + coeffs[2] * n * n
                    assert poly_val == pytest.approx(direct(n), abs=1e-10)

    def test_against_quadrature(self):
        rng = np.random.default_rng(15)
        for _ in range(8):
            eps = rng.uniform(0.2, 1.4)
            kappa = rng.uniform(0.0, eps)
            mu = rng.uniform(0.0, 3.0)
            sigma = rng.uniform(0.4, 1.8)
            direct = direct_cost(mu, eps, kappa)
            lim = 14 * sigma + 2 * mu + eps + kappa
            mean_ref = gauss_quad(direct, sigma, -lim, lim)
            second_ref = gauss_quad(lambda n: direct(n) ** 2, sigma, -lim, lim)
            m = cost_difference_moments(mu, eps, kappa, sigma)
            assert m.mean == pytest.approx(mean_ref, abs=1e-7)
            assert m.variance == pytest.approx(second_ref - mean_ref**2, abs=1e-6)

    def test_against_monte_carlo(self):
        rng = np.random.default_rng(23)
        n = 300_000
        for mu, sigma in ((0.9, 1.0), (1.1, 1.0), (2.0, 0.5), (0.5, 1.5)):
            noise = sigma * rng.standard_normal(n)
            c = direct_cost(mu, 1.0, 1.0)(noise)
            m = cost_difference_moments(mu, 1.0, 1.0, sigma)
            se_mean = c.std() / math.sqrt(n)
            assert abs(c.mean() - m.mean) < 4 * se_mean
            centered = c - c.mean()
            se_var = math.sqrt(max((centered**4).mean() - centered.var() ** 2, 0) / n)
            assert abs(c.var() - m.variance) < 4 * se_var

    def test_mean_dominates_lower_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            eps = rng.uniform(0.1, 1.5)
            kappa = rng.uniform(0.0, eps)
            mu = rng.uniform(0.0, 3.0)
            sigma = rng.uniform(0.2, 2.0)
            mc = cost_difference_moments(mu, eps, kappa, sigma)
            my = y_bound_moments(mu, eps, kappa, sigma)
            assert mc.mean >= my.mean - 1e-10

    def test_gap_closes_in_low_noise_limit(self):
        gap_hi = (cost_difference_moments(2.0, 1.0, 1.0, 1.0).mean
                  - y_bound_moments(2.0, 1.0, 1.0, 1.0).mean)
        gap_lo = (cost_difference_moments(2.0, 1.0, 1.0, 0.05).mean
                  - y_bound_moments(2.0, 1.0, 1.0, 0.05).mean)
        assert 0 <= gap_lo < 0.01
        assert gap_lo < gap_hi / 50


class TestCltError:
    def test_low_noise_limit_vanishes(self):
        m = HypothesisModel.symmetric_binary(np.array([2.0, 0.5, 0.5]), 1e-8)
        assert clt_error(m, 1.0, 1.0).value == 0.0

    def test_deterministic_zero_statistic(self):
        # identical means in every coordinate: C is identically zero and
        # ties resolve to the true class
        m = HypothesisModel.symmetric_binary(np.zeros(4), 1.0)
        est = clt_error(m, 1.0, 1.0)
        assert est.value == 0.0
        assert est.method == METHOD_CLT_EXACT

    def test_matches_monte_carlo_at_fig3_parameters(self):
        profile = TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0)
        model = profile.to_model(1.0)
        clf = GlrtClassifier(model, 1.0)
        for kappa in (0.8, 1.0):
            pred = clt_error(model, 1.0, kappa)
            mc = monte_carlo_error(
                model, clf,
                AttackSpec(budget=1.0, strength=kappa,
                           mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
                true_class=0, trials=30_000, seed=77,
            )
            assert abs(pred.value - mc.value) < mc.ci_halfwidth

    def test_lower_bound_variant_bounds_error_from_above(self, tmp_path):
        # P(sum C < 0) <= P(sum Y < 0) holds before the CLT; check the CLT
        # realization, predict's clt-lower-bound row, against Monte Carlo at
        # moderate dimension
        profile = TwoLevelProfile(d=100, p=0.3, a=1.1, b=0.9, eps=1.0)
        out = tmp_path / "predict.csv"
        assert cli.main(["predict", "--d", "100", "--p", "0.3", "--a", "1.1", "--b", "0.9",
                         "--eps", "1", "--sigma", "0.35", "--kappa", "1", "--out", str(out)]) == 0
        with open(out) as fh:
            [bound] = [float(row["error"]) for row in csv.DictReader(fh)
                       if row["method"] == METHOD_CLT_LOWER_BOUND]
        model = profile.to_model(0.35)
        clf = GlrtClassifier(model, 1.0)
        mc = monte_carlo_error(
            model, clf,
            AttackSpec(budget=1.0, strength=1.0,
                       mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
            true_class=0, trials=100_000, seed=3,
        )
        assert bound >= mc.value - 3 * mc.ci_halfwidth

    def test_requires_binary_model(self):
        m = HypothesisModel(means=np.zeros((3, 2)) + np.arange(3)[:, None], sigma=1.0)
        with pytest.raises(ValueError, match="binary"):
            clt_error(m, 1.0, 1.0)

    def test_recentring_asymmetric_means(self):
        rng = np.random.default_rng(2)
        mu0 = rng.normal(size=6)
        mu1 = rng.normal(size=6)
        asym = HypothesisModel(means=np.stack([mu0, mu1]), sigma=0.8)
        sym = HypothesisModel.symmetric_binary((mu0 - mu1) / 2, 0.8)
        a = clt_error(asym, 0.7, 0.5)
        b = clt_error(sym, 0.7, 0.5)
        assert a.value == b.value


class TestSnrFormulas:
    def test_minimax_substitution(self):
        snr = snr_minimax(d=10, p=0.1, a=2.0, kappa_ratio=1.0, eps=1.0, sigma=0.5)
        assert snr == pytest.approx(4.0, rel=1e-12)
        assert error_from_snr(snr) == pytest.approx(q_function(2.0), rel=1e-12)

    def test_cancelled_signal(self):
        snr = snr_minimax(d=10, p=0.1, a=2.0, kappa_ratio=2.0, eps=1.0, sigma=0.5)
        assert snr == 0.0
        assert error_from_snr(snr) == 0.5

    def test_glrt_snr_consistent_with_clt(self):
        # same formula factored differently; exact when the mean sum is
        # positive
        d, p, eps, sigma, kappa = 10, 0.5, 1.0, 0.5, 1.0
        profile = TwoLevelProfile(d=d, p=p, a=2.0, b=0.5, eps=eps)
        ma = cost_difference_moments(2.0 * eps, eps, kappa, sigma)
        mb = cost_difference_moments(0.5 * eps, eps, kappa, sigma)
        assert p * ma.mean + (1 - p) * mb.mean > 0
        snr = snr_glrt(d, p, ma, mb)
        pred = clt_error(profile.to_model(sigma), eps, kappa)
        assert error_from_snr(snr) == pytest.approx(pred.value, rel=1e-12)

    def test_zero_variance_is_the_deterministic_limit(self):
        ma = cost_difference_moments(0.0, 1.0, 1.0, 1.0)
        assert ma.variance == 0.0
        snr = snr_glrt(10, 0.5, ma, ma)
        assert snr == math.inf
        assert error_from_snr(snr) == 0.0


class TestLowNoiseThresholds:
    def test_profile_example(self):
        prof = TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0)
        glrt_thr, md_thr = low_noise_thresholds(prof.to_model(1.0))
        assert glrt_thr == 2.0
        assert md_thr == pytest.approx(6.25 / 6.5, rel=1e-12)

    def test_flat_profile_collapses(self):
        m = HypothesisModel.symmetric_binary(np.full(6, 0.8), 1.0)
        glrt_thr, md_thr = low_noise_thresholds(m)
        assert glrt_thr == pytest.approx(0.8, rel=1e-12)
        assert md_thr == pytest.approx(0.8, rel=1e-12)

    def test_ordering_is_universal(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = HypothesisModel.symmetric_binary(rng.normal(size=8), 1.0)
            glrt_thr, md_thr = low_noise_thresholds(m)
            assert glrt_thr >= md_thr - 1e-12

    def test_zero_separation_rejected(self):
        m = HypothesisModel(means=np.zeros((2, 3)), sigma=1.0)
        with pytest.raises(ValueError):
            low_noise_thresholds(m)


def _clt_bisection(err, eps, target, rel_tol=1e-3):
    """The CLT sigma search: a geometric bracket from eps, then bisection."""
    lo = hi = float(eps)
    while err(hi) < target:
        hi *= 2.0
    while err(lo) > target:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        e_mid = err(mid)
        if abs(e_mid - target) <= rel_tol * target:
            return mid
        if e_mid < target:
            lo = mid
        else:
            hi = mid
        if (hi - lo) <= 1e-12 * hi:
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)


class TestSigmaSearch:
    def test_analytic_self_consistency(self):
        profile = TwoLevelProfile(d=50, p=0.3, a=1.1, b=0.9, eps=1.0)
        target = error_from_snr(5.0)
        sigma = sigma_for_target_error(profile, 1.0, target)
        achieved = clt_error(profile.to_model(sigma), 1.0, 1.0).value
        assert achieved == pytest.approx(target, rel=1.5e-3)

    def test_sigma_grows_with_dimension(self):
        target = error_from_snr(5.0)
        sigmas = []
        for d in (50, 100, 200):
            profile = TwoLevelProfile(d=d, p=0.3, a=1.1, b=0.9, eps=1.0)
            sigmas.append(sigma_for_target_error(profile, 1.0, target))
        assert sigmas[0] < sigmas[1] < sigmas[2]

    def test_monte_carlo_method(self, monkeypatch):
        # the search runs no sigma twice, eps (its first sigma) included
        searched = []
        monkeypatch.setattr(robustht.engine, "monte_carlo_error",
                            lambda model, *args, **kwargs: searched.append(model.sigma)
                            or monte_carlo_error(model, *args, **kwargs))
        profile = TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0)
        sigma = sigma_for_target_error(
            profile, 1.0, 0.1, method=METHOD_MONTE_CARLO, trials=20_000, seed=1
        )
        assert searched[0] == 1.0 and len(set(searched)) == len(searched) > 2
        model = profile.to_model(sigma)
        est = monte_carlo_error(
            model, GlrtClassifier(model, 1.0),
            AttackSpec(budget=1.0, strength=1.0,
                       mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
            true_class=0, trials=20_000, seed=1,
        )
        assert abs(est.value - 0.1) <= max(est.ci_halfwidth, 1e-3 * 0.1) + 1e-12

    @pytest.mark.parametrize("profile, kappa, target", [
        (TwoLevelProfile(d=50, p=0.3, a=1.1, b=0.9, eps=1.0), 1.0, 0.02),
        (TwoLevelProfile(d=40, p=0.25, a=1.5, b=0.0, eps=1.0), 0.5, 0.01),
        (TwoLevelProfile(d=20, p=0.1, a=1.9, b=0.6, eps=0.7), 0.0, 0.04),
    ], ids=["fig5-like", "b-zero", "kappa-zero"])
    def test_clt_search_equals_bisection_on_clt_error(self, profile, kappa, target):
        def err(sigma):
            return clt_error(profile.to_model(sigma), profile.eps, kappa).value

        assert sigma_for_target_error(profile, kappa, target) == _clt_bisection(err, profile.eps,
                                                                                 target)

    def test_target_validation(self):
        profile = TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0)
        for bad in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                sigma_for_target_error(profile, 1.0, bad)
        with pytest.raises(ValueError):
            sigma_for_target_error(profile, 1.0, 0.1, method="guess")


class TestExponentialDecay:
    def test_error_decays_superlinearly_in_log(self):
        # fixed per-coordinate profile, doubled dimension: the log error
        # should roughly double (exponential decay in d)
        profile = TwoLevelProfile(d=36, p=0.5, a=2.0, b=0.5, eps=1.0)
        sigma = sigma_for_target_error(profile, 1.0, 1e-2)
        errs = {}
        for d in (36, 72):
            model = profile.with_dimension(d).to_model(sigma)
            est = monte_carlo_error(
                model, GlrtClassifier(model, 1.0),
                AttackSpec(budget=1.0, strength=1.0,
                           mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
                true_class=0, trials=400_000, seed=6,
            )
            errs[d] = est.value
        assert 0 < errs[72] < errs[36] ** 1.4


class TestMomentStudy:
    def test_rows_are_self_consistent(self):
        rows = moment_study([0.5, 1.5], eps=1.0, kappa=1.0, sigma=1.0,
                            trials=100_000, seed=12)
        assert len(rows) == 2
        for row in rows:
            assert abs(row["c_mean_exact"] - row["c_mean_mc"]) < 4 * row["c_mean_se"]
            assert abs(row["c_var_exact"] - row["c_var_mc"]) < 4 * row["c_var_se"]
            assert row["c_mean_exact"] >= row["y_mean"] - 1e-10
