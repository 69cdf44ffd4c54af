import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from robustht.attacks import sign_replays
from robustht.classifiers import (
    ClassifierKind,
    GlrtClassifier,
    MinDistanceClassifier,
    MinimaxLinearClassifier,
    PairwiseRobustLinearClassifier,
    _nearest_class,
    build_classifier,
    minimax_linear_rule,
    per_coordinate_cost_difference,
)
from robustht.configs import ternary_20d_model
from robustht.model import REJECT, HypothesisModel, TwoLevelProfile


def binary(mu, sigma=1.0):
    return HypothesisModel.symmetric_binary(np.asarray(mu, float), sigma)


def random_models(rng, count, d=4, classes=2):
    for _ in range(count):
        yield HypothesisModel(means=rng.normal(size=(classes, d)), sigma=1.0)


class TestGlrt:
    def test_cost_zero_at_mean(self):
        # the cost of class 1 is 0 on the whole eps-box around its mean, and
        # class 0's is not, so the box decides class 1
        m = binary([1.0, -2.0])
        corners = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=2)))
        labels = GlrtClassifier(m, eps=1.0).decide_batch(m.means[1] + corners)
        np.testing.assert_array_equal(labels, np.ones(len(corners)))

    def test_cost_hand_example(self):
        # per-coordinate residuals (2, 0.5) from mean 0 at eps=1 leave
        # 1^2 + 0^2 = 1; a rival mean at (4, 0.5) leaves (1, 0) too. An
        # exact tie goes to the lower index in either order, so the hand
        # cost is exactly 1
        hand, rival = [0.0, 0.0], [4.0, 0.5]
        for means in ([hand, rival], [rival, hand]):
            m = HypothesisModel(means=np.array(means), sigma=1.0)
            assert GlrtClassifier(m, eps=1.0).decide_batch(np.array([2.0, 0.5])).tolist() == [0]

    def test_cost_equals_plugin_residual(self):
        # the GLRT cost under class k is the residual left once the most
        # favorable in-budget perturbation clip(x - mu_k, +-eps) is removed
        rng = np.random.default_rng(3)
        for m in random_models(rng, 10, d=5, classes=3):
            clf = GlrtClassifier(m, eps=0.7)
            x = rng.normal(scale=2.0, size=(200, 5))
            resid = x[:, None, :] - m.means[None, :, :]
            resid -= np.clip(resid, -0.7, 0.7)
            expect = np.argmin((resid ** 2).sum(axis=2), axis=1)
            np.testing.assert_array_equal(clf.decide_batch(x), expect)

    def test_classify_returns_true_class_when_clean(self):
        m = binary([3.0, -3.0, 2.0])
        labels = GlrtClassifier(m, eps=0.5).decide_batch(m.means)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_all_costs_zero_ties_to_class_zero(self):
        # every x in [-9.5, 10] is within eps of both means: both costs are 0
        m = HypothesisModel(means=np.array([[0.0], [0.5]]), sigma=1.0)
        x = np.linspace(-9.5, 10.0, 40)[:, None]
        labels = GlrtClassifier(m, eps=10.0).decide_batch(x)
        np.testing.assert_array_equal(labels, np.zeros(40))

    def test_binary_rule_matches_two_sided_comparison(self):
        rng = np.random.default_rng(8)
        mu = rng.normal(size=6)
        m = binary(mu)
        clf = GlrtClassifier(m, eps=1.0)
        x = rng.normal(scale=2.0, size=(500, 6))
        c0 = np.square(np.maximum(0.0, np.abs(x - mu) - 1.0)).sum(1)
        c1 = np.square(np.maximum(0.0, np.abs(x + mu) - 1.0)).sum(1)
        expect = np.where(c1 < c0, 1, 0)
        np.testing.assert_array_equal(clf.decide_batch(x), expect)

    def test_eps_zero_equals_min_distance_bulk(self):
        rng = np.random.default_rng(17)
        m = HypothesisModel(means=rng.normal(size=(3, 4)), sigma=1.0)
        glrt = GlrtClassifier(m, eps=0.0)
        md = MinDistanceClassifier(m)
        x = rng.normal(scale=3.0, size=(100_000, 4))
        np.testing.assert_array_equal(glrt.decide_batch(x), md.decide_batch(x))

    def test_costs_shift_invariant(self):
        rng = np.random.default_rng(4)
        m = HypothesisModel(means=rng.normal(size=(3, 5)), sigma=1.0)
        clf = GlrtClassifier(m, eps=0.8)
        shift = rng.normal(size=5)
        shifted = HypothesisModel(means=m.means + shift, sigma=1.0)
        clf_shift = GlrtClassifier(shifted, eps=0.8)
        x = rng.normal(scale=2.0, size=(2000, 5))
        np.testing.assert_array_equal(clf.decide_batch(x), clf_shift.decide_batch(x + shift))


def reference_costs(x, means, eps):
    """(n, M) costs by direct broadcasting; eps None is the squared distance."""
    resid = np.abs(x[:, None, :] - means[None, :, :])
    if eps is not None:
        resid = np.maximum(0.0, resid - eps)
    return (resid ** 2).sum(axis=2)


def midpoint_rows(classes, shift):
    """One-hot means 8 e_k plus an integer shift, and the exact midpoint of
    every pair a < b: both halves of each pair are equally far, by exact
    arithmetic, and every other class is farther."""
    means = 8.0 * np.eye(classes) + shift
    pairs = list(itertools.combinations(range(classes), 2))
    rows = np.array([(means[a] + means[b]) / 2.0 for a, b in pairs])
    return means, rows, [a for a, _ in pairs]


def make_classifier(eps, model):
    return MinDistanceClassifier(model) if eps is None else GlrtClassifier(model, eps)


# eps for the GLRT, or None for minimum distance
KERNEL_RULES = [None, 0.0, 0.4, 1.5]


class TestDecisionKernel:
    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("eps", KERNEL_RULES)
    def test_matches_reference_argmin(self, classes, eps):
        rng = np.random.default_rng(classes)
        m = HypothesisModel(means=rng.normal(size=(classes, 12)), sigma=1.0)
        clf = make_classifier(eps, m)
        # 6000 x 12 values: more than one of the kernel's row chunks
        x = rng.normal(scale=1.5, size=(6000, 12))
        expect = np.argmin(reference_costs(x, m.means, eps), axis=1)
        np.testing.assert_array_equal(clf.decide_batch(x), expect)
        for row, label in zip(x[:20], expect[:20]):
            assert clf.decide_batch(row).tolist() == [label]

    @pytest.mark.parametrize("classes", [2, 3, 10])
    @pytest.mark.parametrize("eps", KERNEL_RULES)
    def test_exact_tie_goes_to_lowest_index(self, classes, eps):
        shift = np.random.default_rng(5).integers(-4, 5, size=classes).astype(float)
        means, rows, lower = midpoint_rows(classes, shift)
        costs = reference_costs(rows, means, eps)
        for i, a in enumerate(lower):
            tied = np.flatnonzero(costs[i] == costs[i].min())
            assert tied[0] == a and len(tied) == 2
        clf = make_classifier(eps, HypothesisModel(means=means, sigma=1.0))
        np.testing.assert_array_equal(clf.decide_batch(rows), lower)

    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_glrt_eps_zero_is_min_distance(self, classes):
        rng = np.random.default_rng(40 + classes)
        shift = rng.integers(-4, 5, size=classes).astype(float)
        means, ties, _ = midpoint_rows(classes, shift)
        m = HypothesisModel(means=means, sigma=1.0)
        x = np.concatenate([ties, shift + rng.normal(scale=6.0, size=(5000, classes))])
        np.testing.assert_array_equal(
            GlrtClassifier(m, eps=0.0).decide_batch(x), MinDistanceClassifier(m).decide_batch(x)
        )

    def test_memory_is_one_workspace(self):
        # M = 10, d = 10^4, 1024 rows: an (n, M, d) float64 temporary would be
        # 10 times x, while the kernel's workspace is a fixed 512 KB
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from robustht.classifiers import GlrtClassifier, MinDistanceClassifier
            from robustht.model import HypothesisModel

            rng = np.random.default_rng(0)
            model = HypothesisModel(means=rng.standard_normal((10, 10_000)), sigma=1.0)
            x = np.empty((1024, 10_000))
            rng.standard_normal(out=x)
            rules = [GlrtClassifier(model, eps=0.5), MinDistanceClassifier(model)]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            for rule in rules:
                rule.decide_batch(x)
            rules[1].decide_attacks(x, rng.standard_normal((3, 10_000)))
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024, x.nbytes)
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        grown, x_bytes = map(int, proc.stdout.split())
        assert grown < 1.5 * x_bytes, f"peak RSS grew by {grown / 2**20:.1f} MB"


class TestMinDistance:
    def test_returns_nearest_mean(self):
        m = binary([2.0, 1.0])
        assert MinDistanceClassifier(m).decide_batch(m.means[1]).tolist() == [1]

    def test_matches_correlator_form(self):
        # for symmetric means the rule is sign(mu . x)
        rng = np.random.default_rng(21)
        mu = rng.normal(size=5)
        m = binary(mu)
        clf = MinDistanceClassifier(m)
        x = rng.normal(scale=2.0, size=(1000, 5))
        corr = np.where(x @ mu > 0, 0, 1)
        labels = clf.decide_batch(x)
        agree = labels == corr
        # the correlator form breaks ties the other way; ignore exact zeros
        nonzero = x @ mu != 0
        assert np.all(agree[nonzero])

    def test_equidistant_tie_goes_low(self):
        m = binary([1.0, 0.0])
        assert MinDistanceClassifier(m).decide_batch(np.zeros(2)).tolist() == [0]


class TestMinimaxLinear:
    def test_matched_filter_at_eps_zero(self):
        mu = np.array([1.0, -0.5, 2.0])
        rule = minimax_linear_rule(binary(mu), 0, 1, eps=0.0)
        np.testing.assert_array_equal(rule.weight, mu)
        assert rule.offset == 0.0

    def test_weight_soft_thresholds_profile(self):
        prof = TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0)
        rule = minimax_linear_rule(prof.to_model(1.0), 0, 1, eps=1.0)
        expect = np.zeros(10)
        expect[0] = 1.0
        np.testing.assert_array_equal(rule.weight, expect)

    def test_degenerate_rule_flagged_and_fixed_label(self):
        m = binary([0.3, -0.4])
        clf = MinimaxLinearClassifier(m, eps=1.0)
        rng = np.random.default_rng(0)
        labels = clf.decide_batch(rng.normal(size=(100, 2)))
        assert np.all(labels == 0)

    def test_symmetric_statistic_is_correlation(self):
        rng = np.random.default_rng(9)
        mu = rng.normal(size=4) * 2
        m = binary(mu)
        clf = MinimaxLinearClassifier(m, eps=0.8)
        w = np.sign(mu) * np.maximum(0.0, np.abs(mu) - 0.8)
        x = rng.normal(size=(200, 4))
        np.testing.assert_allclose(clf.rule.statistic(x), x @ w, rtol=1e-12, atol=1e-12)

    def test_generic_means_recentred(self):
        rng = np.random.default_rng(12)
        mu0, mu1 = rng.normal(size=(2, 3))
        m = HypothesisModel(means=np.stack([mu0, mu1]), sigma=1.0)
        rule = minimax_linear_rule(m, 0, 1, eps=0.3)
        x = rng.normal(size=3)
        half = (mu0 - mu1) / 2
        w = np.sign(half) * np.maximum(0.0, np.abs(half) - 0.3)
        direct = w @ (x - (mu0 + mu1) / 2)
        assert rule.statistic(x) == pytest.approx(direct, rel=1e-12)

    def test_requires_binary(self):
        m = HypothesisModel(means=np.zeros((3, 2)) + np.arange(3)[:, None], sigma=1.0)
        with pytest.raises(ValueError, match="binary"):
            MinimaxLinearClassifier(m, eps=0.1)


class TestPairwiseRobustLinear:
    def test_binary_matches_minimax(self):
        rng = np.random.default_rng(30)
        mu = rng.normal(size=5)
        m = binary(mu)
        prl = PairwiseRobustLinearClassifier(m, eps=0.5)
        mm = MinimaxLinearClassifier(m, eps=0.5)
        x = rng.normal(scale=2.0, size=(5000, 5))
        stats = prl.rules[(0, 1)].statistic(x)
        mask = stats != 0  # boundary points reject under PRL by design
        np.testing.assert_array_equal(prl.decide_batch(x)[mask], mm.decide_batch(x)[mask])

    def test_clean_low_noise_classification(self):
        m = HypothesisModel(
            means=np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]]), sigma=0.01
        )
        prl = PairwiseRobustLinearClassifier(m, eps=0.5)
        np.testing.assert_array_equal(prl.decide_batch(m.means), [0, 1, 2])

    def test_cyclic_outcome_rejects(self):
        # frozen instance found by brute-force search over integer means:
        # 0 beats 1, 1 beats 2, 2 beats 0 at this observation
        m = HypothesisModel(
            means=np.array([[-3.0, -3.0], [-3.0, 2.0], [0.0, 0.0]]), sigma=1.0
        )
        prl = PairwiseRobustLinearClassifier(m, eps=1.0)
        x = np.array([-1.75, -1.0])
        assert prl.rules[(0, 1)].statistic(x) > 0
        assert prl.rules[(1, 2)].statistic(x) > 0
        assert prl.rules[(0, 2)].statistic(x) < 0  # i.e. 2 beats 0
        assert prl.decide_batch(x).tolist() == [REJECT]

    def test_exact_boundary_rejects(self):
        m = binary([1.0, 0.0])
        prl = PairwiseRobustLinearClassifier(m, eps=0.2)
        # statistic is w . x with w = (0.8, 0); x on the hyperplane
        assert prl.decide_batch(np.array([0.0, 3.0])).tolist() == [REJECT]

    def test_at_most_one_winner(self):
        rng = np.random.default_rng(44)
        m = HypothesisModel(means=rng.normal(size=(4, 3), scale=2.0), sigma=1.0)
        prl = PairwiseRobustLinearClassifier(m, eps=0.4)
        labels = prl.decide_batch(rng.normal(size=(2000, 3), scale=3.0))
        assert set(np.unique(labels)) <= {REJECT, 0, 1, 2, 3}


def one_by_one(clf, x, attacks):
    """The labels of x + e for each attack, one decide_batch call each."""
    return np.array([clf.decide_batch(x + e) for e in attacks])


def rule_for(kind, model, eps):
    # the minimax rule is binary: it gets the first two classes
    if kind is ClassifierKind.MINIMAX_LINEAR:
        model = HypothesisModel(means=model.means[:2], sigma=model.sigma)
    return build_classifier(kind, model, eps)


class TestDecideAttacks:
    """decide_attacks(x, attacks) labels every x + e as decide_batch(x + e) does."""

    @pytest.mark.parametrize("kind", list(ClassifierKind))
    def test_fig8_sign_attacks(self, kind):
        clf = rule_for(kind, ternary_20d_model(), 1.0)
        model = clf.model
        rng = np.random.default_rng(80)
        for j in range(model.num_classes):
            x = model.means[j] + model.sigma * rng.standard_normal((3000, model.dim))
            attacks = np.array([e for kappa in (0.0, 0.3, 0.7, 1.0)
                                for e in sign_replays(model, j, kappa).values()])
            np.testing.assert_array_equal(clf.decide_attacks(x, attacks),
                                          one_by_one(clf, x, attacks))

    @pytest.mark.parametrize("lattice", [False, True], ids=["continuous", "lattice"])
    @pytest.mark.parametrize("kind", list(ClassifierKind))
    def test_random_models(self, kind, lattice):
        # on the lattice, means, eps, observations and attacks are multiples
        # of 1/4, so every cost and statistic is exact: rows land on PRL
        # boundaries and on exact ties, where both sides must agree too
        rng = np.random.default_rng(81)
        on_boundary = 0
        for _ in range(40):
            d, m = int(rng.integers(1, 21)), int(rng.integers(2, 6))
            if lattice:
                means = rng.integers(-4, 5, size=(m, d)) / 4.0
                eps = int(rng.integers(0, 4)) / 4.0
                x = rng.integers(-8, 9, size=(300, d)) / 4.0
                attacks = rng.integers(-4, 5, size=(5, d)) / 4.0
            else:
                means = rng.normal(size=(m, d))
                eps = float(rng.uniform(0.0, 1.0))
                x = rng.normal(scale=1.5, size=(300, d))
                attacks = rng.uniform(-1.0, 1.0, size=(5, d))
            clf = rule_for(kind, HypothesisModel(means=means, sigma=1.0), eps)
            labels = clf.decide_attacks(x, attacks)
            np.testing.assert_array_equal(labels, one_by_one(clf, x, attacks))
            if kind is ClassifierKind.PAIRWISE_ROBUST_LINEAR:
                on_boundary += sum(np.count_nonzero(rule.statistic(x + e) == 0)
                                   for rule in clf.rules.values() for e in attacks)
        if kind is ClassifierKind.PAIRWISE_ROBUST_LINEAR and lattice:
            assert on_boundary > 0

    def test_prl_pair_with_zero_weight(self):
        # |mu_0 - mu_1| / 2 <= eps on every coordinate: that pair's statistic is
        # identically 0, so neither class 0 nor class 1 can ever win
        model = HypothesisModel(means=np.array([[0.0, 0.0], [0.5, -0.5], [4.0, 4.0]]),
                                sigma=1.0)
        prl = PairwiseRobustLinearClassifier(model, eps=0.5)
        assert not prl.rules[(0, 1)].weight.any()
        rng = np.random.default_rng(83)
        x = rng.normal(loc=2.0, scale=2.0, size=(500, 2))
        attacks = rng.uniform(-0.5, 0.5, size=(4, 2))
        labels = prl.decide_attacks(x, attacks)
        np.testing.assert_array_equal(labels, one_by_one(prl, x, attacks))
        assert set(np.unique(labels)) == {REJECT, 2}

    def test_prl_boundary(self):
        # w = (0.75, 0) and b = 0: a row lands on the boundary exactly when
        # its first coordinate plus the attack's is 0
        prl = PairwiseRobustLinearClassifier(binary([1.0, 0.0]), eps=0.25)
        x = np.array([[-0.5, 3.0], [0.0, 3.0]])
        attacks = np.array([[0.5, 0.0], [0.0, 1.0]])
        expect = [[REJECT, 0], [1, REJECT]]
        np.testing.assert_array_equal(prl.decide_attacks(x, attacks), expect)
        np.testing.assert_array_equal(one_by_one(prl, x, attacks), expect)

    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_min_distance_zero_attack_matches_kernel(self, classes):
        # exact ties go to the lowest index, and every label is the kernel's
        rng = np.random.default_rng(84)
        shift = rng.integers(-4, 5, size=classes).astype(float)
        means, ties, lower = midpoint_rows(classes, shift)
        x = np.concatenate([ties, shift + rng.normal(scale=6.0, size=(5000, classes))])
        clf = MinDistanceClassifier(HypothesisModel(means=means, sigma=1.0))
        labels = clf.decide_attacks(x, np.zeros((1, classes)))
        np.testing.assert_array_equal(labels[0, :len(ties)], lower)
        assert labels.tobytes() == _nearest_class(x, means, None).tobytes()

    def test_no_result_depends_on_the_blas_kernel(self):
        # OpenBLAS kernels round x @ w differently: Sandybridge at d = 400, Prescott
        # at d = 3, 20 and 400; the labels, statistics and thresholds of the linear
        # rules, the NN-class scores and the low-noise thresholds must not see it
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from robustht.analysis import low_noise_thresholds
            from robustht.attacks import nn_class_glrt, nn_class_min_distance
            from robustht.classifiers import (
                MinimaxLinearClassifier, PairwiseRobustLinearClassifier)
            from robustht.model import HypothesisModel

            digest = hashlib.sha256()
            for d in (20, 400):
                rng = np.random.default_rng(d)
                model = HypothesisModel(means=rng.normal(size=(3, d)), sigma=1.0)
                binary = HypothesisModel(means=model.means[:2], sigma=1.0)
                x = model.means[0] + rng.standard_normal((3276, d))
                attacks = rng.uniform(-0.2, 0.2, size=(4, d))
                minimax = MinimaxLinearClassifier(binary, 0.2)
                prl = PairwiseRobustLinearClassifier(model, 0.2)
                for clf in (minimax, prl):
                    digest.update(clf.decide_attacks(x, attacks).tobytes())
                for rule in (minimax.rule, *prl.rules.values()):
                    digest.update(rule.statistic(x).tobytes())
                    digest.update(rule.thresholds(attacks).tobytes())
            for d in (3, 20, 400):
                rng = np.random.default_rng(1000 + d)
                for _ in range(20):
                    model = HypothesisModel(means=rng.normal(size=(3, d)), sigma=1.0)
                    binary = HypothesisModel(means=model.means[:2], sigma=1.0)
                    digest.update(np.array(low_noise_thresholds(binary)).tobytes())
                    for j in range(3):
                        for sel in (nn_class_glrt(model, j, 0.5, 0.3),
                                    nn_class_min_distance(model, j, 0.5)):
                            digest.update(np.array(list(sel.scores.values())).tobytes())
            print(digest.hexdigest())
        """)
        digests = set()
        for core in ("Haswell", "Sandybridge", "Prescott"):
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1"}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout)
        assert len(digests) == 1


class TestBuildClassifier:
    def test_all_kinds(self):
        m = binary([1.0, 2.0])
        for kind in ClassifierKind:
            clf = build_classifier(kind, m, eps=0.5)
            assert clf.kind is kind


class TestCostDifferenceMonotonicity:
    @given(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_monotone_in_attack(self, mu, noise, eps, e1, e2):
        hi, lo = max(e1, e2), min(e1, e2)
        c_hi = per_coordinate_cost_difference(mu, noise, hi, eps)
        c_lo = per_coordinate_cost_difference(mu, noise, lo, eps)
        if mu >= 0:
            assert c_hi >= c_lo - 1e-12
        else:
            assert c_hi <= c_lo + 1e-12

    def test_vectorized_consistency(self):
        rng = np.random.default_rng(77)
        mu = rng.uniform(-2, 2, size=1000)
        n = rng.normal(size=1000)
        e = rng.uniform(-1, 1, size=1000)
        batch = per_coordinate_cost_difference(mu, n, e, 0.8)
        singles = [
            per_coordinate_cost_difference(mu[i], n[i], e[i], 0.8) for i in range(1000)
        ]
        np.testing.assert_array_equal(batch, np.array(singles))
