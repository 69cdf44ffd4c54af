import json
import math

import numpy as np
import pytest

from robustht.model import (
    AttackMode,
    AttackSpec,
    ConfigError,
    HypothesisModel,
    TwoLevelProfile,
    pairwise_half_difference,
)


def ternary():
    return HypothesisModel(
        means=np.array([[0.0, 0.0], [2.5, 0.25], [-1.75, -2.25]]),
        sigma=np.sqrt(0.1),
    )


class TestHypothesisModel:
    def test_valid_construction(self):
        m = ternary()
        assert m.num_classes == 3
        assert m.dim == 2
        assert m.has_uniform_priors()

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="2 classes"):
            HypothesisModel(means=np.array([[1.0, 2.0]]), sigma=1.0)

    def test_rejects_nonpositive_sigma(self):
        means = np.array([[1.0], [-1.0]])
        for sigma in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                HypothesisModel(means=means, sigma=sigma)

    def test_rejects_bad_priors(self):
        means = np.array([[1.0], [-1.0]])
        with pytest.raises(ValueError, match="priors"):
            HypothesisModel(means=means, sigma=1.0, priors=np.array([0.6, 0.6]))
        with pytest.raises(ValueError, match="priors"):
            HypothesisModel(means=means, sigma=1.0, priors=np.array([1.0]))
        with pytest.raises(ValueError, match="priors"):
            HypothesisModel(means=means, sigma=1.0, priors=np.array([1.5, -0.5]))

    def test_rejects_nonfinite_means(self):
        with pytest.raises(ValueError):
            HypothesisModel(means=np.array([[np.inf], [0.0]]), sigma=1.0)

    def test_priors_sum_tolerance(self):
        means = np.array([[1.0], [-1.0]])
        ok = np.array([0.5 + 4e-13, 0.5 - 4e-13])
        HypothesisModel(means=means, sigma=1.0, priors=ok)

    def test_class_index_validation(self):
        m = ternary()
        with pytest.raises(ValueError, match="out of range"):
            m.check_class(3)
        with pytest.raises(ValueError, match="out of range"):
            m.check_class(-1)


class TestJsonObjects:
    """to_dict and from_dict, through JSON text as a file or sidecar holds it."""

    @pytest.mark.parametrize("priors", [None, [0.5, 0.25, 0.25]], ids=["uniform", "given"])
    def test_model_round_trip(self, priors):
        model = HypothesisModel(means=ternary().means, sigma=math.sqrt(0.1), priors=priors)
        back = HypothesisModel.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(back.means, model.means)
        np.testing.assert_array_equal(back.priors, model.priors)
        assert back.sigma == model.sigma

    def test_profile_round_trip(self):
        profile = TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0)
        assert TwoLevelProfile.from_dict(json.loads(json.dumps(profile.to_dict()))) == profile

    @pytest.mark.parametrize("raw", [{"means": [[0.0], [1.0]]}, [[0.0], [1.0]],
                                     {"means": [[0.0], [1.0]], "sigma": -1.0}])
    def test_model_errors_name_model(self, raw):
        with pytest.raises(ConfigError, match="^model: "):
            HypothesisModel.from_dict(raw)

    @pytest.mark.parametrize("raw", [{"d": 20, "p": 0.1, "a": 1.1, "b": 0.9},
                                     {"d": 20.5, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
                                     {"d": 20, "p": 0.1, "a": 0.5, "b": 0.9, "eps": 1.0}])
    def test_profile_errors_name_profile(self, raw):
        with pytest.raises(ConfigError, match="^profile: "):
            TwoLevelProfile.from_dict(raw)


class TestTwoLevelProfile:
    def test_mean_vector_layout(self):
        prof = TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0)
        mu = prof.mean_vector()
        assert mu[0] == 2.0
        assert np.all(mu[1:] == 0.5)

    def test_symmetric_model(self):
        prof = TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0)
        m = prof.to_model(1.0)
        np.testing.assert_array_equal(m.means[0], -m.means[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoLevelProfile(d=10, p=0.1, a=0.9, b=0.5, eps=1.0)  # a <= 1
        with pytest.raises(ValueError):
            TwoLevelProfile(d=10, p=0.1, a=2.0, b=1.5, eps=1.0)  # b > 1
        with pytest.raises(ValueError):
            TwoLevelProfile(d=10, p=0.15, a=2.0, b=0.5, eps=1.0)  # p*d not integral
        with pytest.raises(ValueError, match="eps"):
            TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=0.0)  # both means at 0


class TestPairwiseHalfDifference:
    def test_identical_means_give_zero(self):
        m = HypothesisModel(means=np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]), sigma=1.0)
        np.testing.assert_array_equal(pairwise_half_difference(m, 0, 1), np.zeros(2))

    def test_ternary_value(self):
        np.testing.assert_array_equal(
            pairwise_half_difference(ternary(), 0, 1), np.array([-1.25, -0.125])
        )

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(5)
        m = HypothesisModel(means=rng.normal(size=(4, 6)), sigma=1.0)
        for j in range(4):
            for k in range(4):
                if j == k:
                    continue
                np.testing.assert_array_equal(
                    pairwise_half_difference(m, j, k),
                    -pairwise_half_difference(m, k, j),
                )

    def test_same_class_rejected(self):
        with pytest.raises(ValueError):
            pairwise_half_difference(ternary(), 1, 1)


class TestAttackSpec:
    def test_strength_defaults_to_budget(self):
        spec = AttackSpec(budget=1.0)
        assert spec.strength == 1.0

    def test_strength_above_budget_rejected(self):
        with pytest.raises(ValueError, match="strength"):
            AttackSpec(budget=1.0, strength=1.5)

    def test_fixed_vector_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            AttackSpec(budget=0.5, mode=AttackMode.FIXED_VECTOR,
                       vector=np.array([0.6, 0.0]))
        spec = AttackSpec(budget=0.5, mode=AttackMode.FIXED_VECTOR,
                          vector=np.array([0.5, -0.5]))
        assert np.max(np.abs(spec.vector)) <= 0.5

    @pytest.mark.parametrize("budget", [math.inf, math.nan])
    def test_non_finite_budget_rejected(self, budget):
        # an infinite budget with an infinite fixed vector scored error 0 and 1 with ci 0
        with pytest.raises(ValueError, match="^budget"):
            AttackSpec(budget=budget, mode=AttackMode.FIXED_VECTOR,
                       vector=np.array([math.inf, 0.0]))
        with pytest.raises(ValueError, match="^budget"):
            AttackSpec(budget=budget)

    def test_vector_requires_fixed_mode(self):
        with pytest.raises(ValueError):
            AttackSpec(budget=1.0, vector=np.array([0.1]))

    def test_none_spec(self):
        spec = AttackSpec.none()
        assert spec.mode is AttackMode.NONE
        assert spec.strength == 0.0
