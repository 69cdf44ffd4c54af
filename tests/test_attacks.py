import itertools

import numpy as np
import pytest

import robustht.attacks
from robustht.attacks import (
    UnsupportedDimensionError,
    binary_sign_attack,
    brute_force_attack_oracle,
    heuristic_agnostic_attack,
    nn_class_glrt,
    nn_class_min_distance,
    noise_aware_attack,
    sign_replays,
)
from robustht.classifiers import (
    ClassifierKind,
    GlrtClassifier,
    MinDistanceClassifier,
    PairwiseRobustLinearClassifier,
    build_classifier,
)
from robustht.configs import ternary_20d_model
from robustht.engine import monte_carlo_error
from robustht.model import AttackMode, AttackSpec, HypothesisModel
from robustht.rng import block_plan, noise_block


def ternary_2d(sigma_sq=0.1):
    return HypothesisModel(
        means=np.array([[0.0, 0.0], [2.5, 0.25], [-1.75, -2.25]]),
        sigma=np.sqrt(sigma_sq),
    )


class TestBinarySignAttack:
    def test_pushes_toward_other_class(self):
        m = HypothesisModel(means=np.array([[1.0, -1.0], [0.0, 0.0]]), sigma=1.0)
        np.testing.assert_array_equal(
            binary_sign_attack(m, 0, 1, 0.5), np.array([-0.5, 0.5])
        )

    def test_zero_strength(self):
        m = HypothesisModel(means=np.array([[1.0, -1.0], [0.0, 0.0]]), sigma=1.0)
        np.testing.assert_array_equal(binary_sign_attack(m, 0, 1, 0.0), np.zeros(2))

    def test_zero_strength_has_no_negative_zero(self):
        # equal attacks must have equal bytes, so that decisions can be keyed by them
        m = ternary_20d_model()
        for j, k in itertools.permutations(range(m.num_classes), 2):
            e = binary_sign_attack(m, j, k, 0.0)
            assert not np.signbit(e).any(), (j, k)
            assert e.tobytes() == np.zeros(m.dim).tobytes()

    def test_symmetric_means_other_hypothesis(self):
        mu = np.array([2.0, -3.0, 0.0])
        m = HypothesisModel.symmetric_binary(mu, 1.0)
        # under class 1 the attack flips sign; the zero coordinate stays zero
        np.testing.assert_array_equal(
            binary_sign_attack(m, 1, 0, 0.7), 0.7 * np.sign(mu)
        )

    def test_same_class_rejected(self):
        m = ternary_2d()
        with pytest.raises(ValueError):
            binary_sign_attack(m, 1, 1, 0.5)

    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            binary_sign_attack(ternary_2d(), 0, 1, -0.1)

    @pytest.mark.parametrize("strength", [np.nan, np.inf, -1.0])
    def test_strength_not_finite_and_non_negative_is_named(self, strength):
        m = ternary_2d()
        clf = GlrtClassifier(m, eps=1.0)
        for build in (lambda: binary_sign_attack(m, 0, 1, strength),
                      lambda: sign_replays(m, 0, strength),
                      lambda: noise_aware_attack(m, clf, np.zeros(2), 0, strength)):
            with pytest.raises(ValueError, match="strength"):
                build()

    @pytest.mark.parametrize("vector, budget", [([np.nan, 0.0], 1.0), ([0.5, 0.0], np.nan)])
    def test_budget_check_fails_on_nan(self, vector, budget):
        with pytest.raises(AssertionError, match="budget"):
            robustht.attacks._assert_budget(np.array(vector), budget)


class TestNearestNeighborClasses:
    def test_min_distance_ternary_scores(self):
        sel = nn_class_min_distance(ternary_2d(), 0, eps=1.0)
        assert sel.target == 2
        # recompute from the defining norms as the oracle
        for k, h in ((1, np.array([-1.25, -0.125])), (2, np.array([0.875, 1.125]))):
            l2 = np.linalg.norm(h)
            assert sel.scores[k] == pytest.approx(l2 - np.abs(h).sum() / l2, rel=1e-12)
        assert sel.scores[1] == pytest.approx(0.1617, abs=5e-4)
        assert sel.scores[2] == pytest.approx(0.0219, abs=5e-4)

    def test_min_distance_eps_zero_is_nearest_class(self):
        rng = np.random.default_rng(3)
        m = HypothesisModel(means=rng.normal(size=(5, 4)), sigma=1.0)
        sel = nn_class_min_distance(m, 2, eps=0.0)
        dists = {
            k: np.linalg.norm((m.means[2] - m.means[k]) / 2) for k in range(5) if k != 2
        }
        assert sel.target == min(dists, key=lambda k: (dists[k], k))

    def test_min_distance_tie_takes_lower_index(self):
        means = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        sel = nn_class_min_distance(HypothesisModel(means=means, sigma=1.0), 0, eps=0.5)
        assert sel.target == 1

    def test_glrt_ternary_scores_exact(self):
        sel = nn_class_glrt(ternary_2d(), 0, eps=1.0, kappa=1.0)
        assert sel.target == 2
        assert sel.scores[1] == 0.0625
        assert sel.scores[2] == 0.015625
        assert not sel.degenerate

    def test_glrt_full_budget_matches_threshold_form(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = HypothesisModel(means=rng.normal(size=(4, 5), scale=2.0), sigma=1.0)
            eps = rng.uniform(0.1, 1.5)
            sel = nn_class_glrt(m, 0, eps=eps)  # kappa defaults to eps
            direct = {}
            for k in range(1, 4):
                h = np.abs((m.means[0] - m.means[k]) / 2)
                direct[k] = float(np.sum(np.square(np.maximum(0.0, h - eps))))
            assert sel.target == min(direct, key=lambda k: (direct[k], k))
            assert sel.scores[sel.target] == pytest.approx(direct[sel.target], rel=1e-12)

    def test_glrt_all_nulled_is_degenerate(self):
        means = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])
        sel = nn_class_glrt(HypothesisModel(means=means, sigma=1.0), 0, eps=1.0)
        assert sel.degenerate
        assert sel.target == 1  # tie rule

    def test_duplicate_means_rejected(self):
        means = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        m = HypothesisModel(means=means, sigma=1.0)
        with pytest.raises(ValueError, match="identical"):
            nn_class_glrt(m, 0, eps=1.0)
        with pytest.raises(ValueError, match="identical"):
            nn_class_min_distance(m, 0, eps=1.0)


class TestHeuristicAgnosticAttack:
    def test_ternary_glrt_attack_vector(self):
        res = heuristic_agnostic_attack(ternary_2d(), ClassifierKind.GLRT, 0, 1.0, 1.0)
        np.testing.assert_array_equal(res.vector, np.array([-1.0, -1.0]))
        assert res.target_class == 2
        assert res.feasible

    def test_zero_strength_still_targets(self):
        res = heuristic_agnostic_attack(ternary_2d(), ClassifierKind.GLRT, 0, 1.0, 0.0)
        np.testing.assert_array_equal(res.vector, np.zeros(2))
        assert res.target_class == 2

    def test_binary_reduces_to_sign_attack(self):
        rng = np.random.default_rng(10)
        m = HypothesisModel(means=rng.normal(size=(2, 6)), sigma=1.0)
        for kind in (ClassifierKind.GLRT, ClassifierKind.MIN_DISTANCE,
                     ClassifierKind.PAIRWISE_ROBUST_LINEAR):
            res = heuristic_agnostic_attack(m, kind, 0, 1.0, 0.6)
            np.testing.assert_array_equal(res.vector, binary_sign_attack(m, 0, 1, 0.6))

    def test_budget_respected(self):
        res = heuristic_agnostic_attack(ternary_2d(), ClassifierKind.MIN_DISTANCE,
                                        1, 1.0, 0.3)
        assert np.max(np.abs(res.vector)) <= 0.3


class TestNoiseAwareAttack:
    def test_infeasible_at_low_noise(self):
        m = HypothesisModel(
            means=np.array([[5.0, 5.0], [-5.0, -5.0], [5.0, -5.0]]), sigma=0.01
        )
        clf = GlrtClassifier(m, eps=0.2)
        res = noise_aware_attack(m, clf, np.array([0.001, -0.002]), 0, 0.2)
        assert not res.feasible
        np.testing.assert_array_equal(res.vector, np.zeros(2))

    def test_feasible_attacks_replay_as_errors(self):
        rng = np.random.default_rng(40)
        m = ternary_2d(sigma_sq=0.5)
        for clf in (GlrtClassifier(m, 1.0), MinDistanceClassifier(m),
                    PairwiseRobustLinearClassifier(m, 1.0)):
            hits = 0
            for _ in range(300):
                j = rng.integers(0, 3)
                noise = m.sigma * rng.standard_normal(2)
                res = noise_aware_attack(m, clf, noise, int(j), 1.0)
                if res.feasible:
                    hits += 1
                    replay = m.means[j] + res.vector + noise
                    assert int(clf.decide_batch(replay)[0]) != j
                    assert np.max(np.abs(res.vector)) <= 1.0
            assert hits > 0  # the setting is noisy enough to admit attacks

    def test_binary_glrt_aware_equals_sign_attack(self):
        # the same attack is worst case aware and agnostic for binary GLRT
        rng = np.random.default_rng(41)
        mu = np.array([1.2, -0.7, 0.4])
        m = HypothesisModel.symmetric_binary(mu, 1.0)
        clf = GlrtClassifier(m, eps=1.0)
        sign_attack = binary_sign_attack(m, 0, 1, 1.0)
        for _ in range(500):
            noise = rng.standard_normal(3)
            res = noise_aware_attack(m, clf, noise, 0, 1.0)
            flipped = int(clf.decide_batch(m.means[0] + sign_attack + noise)[0]) != 0
            assert res.feasible == flipped
            if res.feasible:
                np.testing.assert_array_equal(res.vector, sign_attack)

    def test_aware_error_dominates_agnostic(self):
        m = ternary_2d(sigma_sq=0.3)
        clf = GlrtClassifier(m, eps=1.0)
        agn = monte_carlo_error(
            m, clf, AttackSpec(budget=1.0, strength=1.0,
                               mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
            true_class=0, trials=50_000, seed=5,
        )
        aware = monte_carlo_error(
            m, clf, AttackSpec(budget=1.0, strength=1.0,
                               mode=AttackMode.NOISE_AWARE_OPTIMAL),
            true_class=0, trials=50_000, seed=5,
        )
        # shared noise makes this a paired comparison: dominance is exact
        assert aware.value >= agn.value


class TestWorstCaseDominance:
    def test_statistic_dominance_over_random_attacks(self):
        # cost difference under any in-budget attack is bounded below by the
        # cost difference under the full sign attack, noise by noise
        rng = np.random.default_rng(50)
        for _ in range(50):
            d = rng.integers(1, 5)
            mu = rng.normal(size=d)
            eps = rng.uniform(0.1, 1.5)
            noise = rng.normal(size=(200, d))
            e_rand = rng.uniform(-eps, eps, size=(200, d))
            e_star = -eps * np.sign(mu)

            def stat(e):
                wrong = np.maximum(0.0, np.abs(2 * mu + e + noise) - eps)
                true = np.maximum(0.0, np.abs(e + noise) - eps)
                return (wrong * wrong - true * true).sum(axis=1)

            assert np.all(stat(e_rand) >= stat(e_star) - 1e-12)


class TestBruteForceOracle:
    def test_eps_zero_single_point_matches_engine(self):
        m = HypothesisModel.symmetric_binary(np.array([1.0, 0.5]), 0.8)
        clf = GlrtClassifier(m, eps=0.0)
        surf = brute_force_attack_oracle(m, clf, 0, eps=0.0, trials=4000, seed=9)
        assert surf.errors.shape == (1, 1)
        clean = monte_carlo_error(m, clf, AttackSpec.none(), true_class=0,
                                  trials=4000, seed=9)
        assert surf.errors[0, 0] == clean.value  # identical noise, identical count

    def test_binary_argmax_is_sign_attack_cell(self):
        # positive means put the sign attack at the first grid corner, which
        # also wins argmax ties
        m = HypothesisModel.symmetric_binary(np.array([1.3, 0.6]), 0.9)
        clf = GlrtClassifier(m, eps=1.0)
        surf = brute_force_attack_oracle(m, clf, 0, eps=1.0,
                                         grid_points_per_axis=21, trials=5000, seed=2)
        np.testing.assert_allclose(surf.argmax_attack, np.array([-1.0, -1.0]),
                                   atol=1e-12)

    def test_max_equals_sign_attack_error_exactly(self):
        # dominance + common random numbers + the sign attack on the grid
        m = HypothesisModel.symmetric_binary(np.array([0.9, -1.1, 0.4]), 1.1)
        clf = GlrtClassifier(m, eps=1.0)
        surf = brute_force_attack_oracle(m, clf, 0, eps=1.0,
                                         grid_points_per_axis=11, trials=8000, seed=13)
        attack = AttackSpec(budget=1.0, mode=AttackMode.FIXED_VECTOR,
                            vector=binary_sign_attack(m, 0, 1, 1.0))
        sign_err = monte_carlo_error(m, clf, attack, true_class=0,
                                     trials=8000, seed=13)
        assert surf.max_error == sign_err.value

    def test_generic_path_matches_direct_evaluation(self):
        # ternary model exercises the chunked batch path; spot-check grid
        # points against a direct replay with the same noise
        m = ternary_2d(sigma_sq=0.4)
        clf = PairwiseRobustLinearClassifier(m, eps=1.0)
        trials = 3000
        surf = brute_force_attack_oracle(m, clf, 0, eps=1.0,
                                         grid_points_per_axis=5, trials=trials, seed=7)
        noise = m.sigma * np.concatenate(
            [noise_block(7, b, rows, 2) for b, _, rows in block_plan(trials)]
        )
        rng = np.random.default_rng(0)
        for _ in range(5):
            i, j = rng.integers(0, 5, size=2)
            e = np.array([surf.axes[0][i], surf.axes[1][j]])
            labels = clf.decide_batch(m.means[0] + e + noise)
            assert surf.errors[i, j] == np.mean(labels != 0)

    @pytest.mark.parametrize("span", [1, 7, 1000, 8192])
    @pytest.mark.parametrize("path, d", [("separable", 1), ("separable", 2), ("separable", 3),
                                         ("nearest", 2),
                                         ("generic", 1), ("generic", 2), ("generic", 3)])
    def test_multi_block_surface_matches_one_shot_recount(self, path, d, span, monkeypatch):
        # 9000 trials span two noise blocks, of 8192 and 808 rows; the oracle draws
        # them one at a time and counts each in spans of `span` rows, or whole if it
        # fits in two (1000 does not divide 8192 and leaves the 808 rows whole, 8192
        # covers both), while the recount concatenates the same draws and decides
        # every grid point with a direct numpy formula.
        # The nearest path's spans at d = 1 and 3 are checked by
        # test_nearest_path_equals_decide_batch_replay.
        if path == "separable":
            m = HypothesisModel.symmetric_binary(np.array([0.8, -0.5, 0.3])[:d], 0.7)
        else:
            means = np.array([[0.0, 0.0, 0.0], [2.5, 0.25, 1.0], [-1.75, -2.25, -0.5]])
            m = HypothesisModel(means=means[:, :d].copy(), sigma=np.sqrt(0.4))
        eps, trials, seed = 0.6, 9000, 11
        if path == "generic":
            clf = PairwiseRobustLinearClassifier(m, eps=eps)
        else:
            clf = GlrtClassifier(m, eps=eps)
        # the values per row of each path's largest table, at 5 points per axis
        row_values = {"separable": 5, "nearest": 3 * 5, "generic": 5 ** d}[path]
        monkeypatch.setattr(robustht.attacks, "_SPAN_VALUES", span * row_values)
        events = []
        for name in ("noise_block", f"_{path}_surface_counts"):
            real = getattr(robustht.attacks, name)

            def record(*args, _real=real, _name=name):
                out = _real(*args)
                rows = out.shape[0] if _name == "noise_block" else args[4].shape[0]
                events.append((_name, rows))
                return out

            monkeypatch.setattr(robustht.attacks, name, record)
        surf = brute_force_attack_oracle(m, clf, 0, eps=eps, grid_points_per_axis=5,
                                         trials=trials, seed=seed)
        counter = f"_{path}_surface_counts"
        expect_events = []
        for rows in (8192, 808):
            expect_events.append(("noise_block", rows))
            step = rows if rows <= 2 * span else span
            expect_events += [(counter, min(step, rows - lo)) for lo in range(0, rows, step)]
        assert events == expect_events
        noise = m.sigma * np.concatenate(
            [noise_block(seed, b, rows, d) for b, _, rows in block_plan(trials)]
        )
        base = m.means[0] + noise
        expect = np.zeros((5,) * d)
        for point in np.ndindex(expect.shape):
            x = np.array([surf.axes[i][a] for i, a in enumerate(point)]) + base
            if path == "generic":
                # class 0 is declared only when it strictly wins both of its tests
                wins = np.ones(trials, dtype=bool)
                for k in (1, 2):
                    h = (m.means[0] - m.means[k]) / 2.0
                    w = np.sign(h) * np.maximum(0.0, np.abs(h) - eps)
                    wins &= x @ w - w @ (m.means[0] + m.means[k]) / 2.0 > 0
                expect[point] = np.count_nonzero(~wins) / trials
            else:
                resid = np.maximum(0.0, np.abs(x[:, None, :] - m.means[None, :, :]) - eps)
                labels = np.argmin((resid ** 2).sum(axis=2), axis=1)
                expect[point] = np.count_nonzero(labels != 0) / trials
        np.testing.assert_array_equal(surf.errors, expect)
        if span == 8192:  # the blocks on two workers; the spans within a block do not interleave
            threaded = brute_force_attack_oracle(m, clf, 0, eps=eps, grid_points_per_axis=5,
                                                 trials=trials, seed=seed, threads=2)
            np.testing.assert_array_equal(threaded.errors, surf.errors)

    @pytest.mark.parametrize("kind", ["minimax", "glrt", "min-distance"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_separable_path_equals_decide_batch_replay(self, d, kind, monkeypatch):
        def replay(m, clf, j, axes, noise):
            grid = np.array(list(itertools.product(*axes)))
            x = (grid[:, None, :] + (m.means[j] + noise)[None, :, :]).reshape(-1, d)
            labels = clf.decide_batch(x).reshape(len(grid), -1)
            return np.count_nonzero(labels != j, axis=1).reshape(tuple(len(a) for a in axes))

        m = HypothesisModel.symmetric_binary(np.array([0.9, -0.7, 0.6])[:d], 0.6)
        clf = build_classifier(ClassifierKind(kind), m, 0.5)
        trials, seed = 3000, 5
        noise = m.sigma * noise_block(seed, 0, trials, d)
        for j in (0, 1):
            surf = brute_force_attack_oracle(m, clf, j, eps=0.5, grid_points_per_axis=7,
                                             trials=trials, seed=seed)
            wrong = replay(m, clf, j, surf.axes, noise)
            np.testing.assert_array_equal(surf.errors, wrong / trials)
            assert 0 < wrong.min() < wrong.max() < trials

        # means, noise and attacks on a grid of step 1/4, as in the nearest-path
        # lattice test: every statistic is exact, and on some rows it is exactly
        # 0, where the tie rule alone decides the label
        m = HypothesisModel.symmetric_binary(np.array([1.0, -0.75, 0.5])[:d], 1.0)
        clf = build_classifier(ClassifierKind(kind), m, 0.5)
        noise = 0.25 * np.random.default_rng(d).integers(-4, 5, size=(400, d)).astype(float)
        axes = [np.linspace(-0.5, 0.5, 5)] * d
        real = robustht.attacks._beats
        ties = []

        def beats(k, j):
            def counted(stat, zero):
                ties.append(np.count_nonzero(stat == zero))
                return real(k, j)(stat, zero)

            return counted

        monkeypatch.setattr(robustht.attacks, "_beats", beats)
        for j in (0, 1):
            ties.clear()
            counts = robustht.attacks._separable_surface_counts(m, clf, j, axes, noise)
            np.testing.assert_array_equal(counts, replay(m, clf, j, axes, noise))
            assert sum(ties) > 0

    @pytest.mark.parametrize("kind", ["glrt", "min-distance"])
    @pytest.mark.parametrize("num_classes", [3, 4, 5])
    @pytest.mark.parametrize("d, span", [(d, span) for d in (1, 2, 3) for span in (1, 7, 250, 600)
                                         if span > 1 or d < 3])
    def test_nearest_path_equals_decide_batch_replay(self, d, span, num_classes, kind,
                                                     monkeypatch):
        # the nearest path adds per-coordinate costs in einsum's order and applies
        # the kernel's tie rule itself, so every cell must match a replay through
        # decide_batch exactly; this fails if numpy changes einsum's order. The
        # oracle counts the 600 rows in spans of `span` rows (250 does not divide
        # them), and every span length must give the same counts. 1-row spans
        # run at d <= 2 only: at d = 3 each of 600 spans sweeps 25 leading points,
        # about 3 s a case, and 7-row spans already split those rows 86 ways.
        lattice = np.array([[0, 0, 0], [1, 0, 1], [-1, 1, 0], [0, -1, -1], [1, 1, -1]], float)
        means = lattice[:num_classes, :d].copy()
        # the last class repeats class 1's mean one ulp off in its first
        # coordinate: the two costs often round to one value, and which is
        # lower otherwise depends on the order the coordinates are added in
        means[-1] = means[1]
        means[-1, 0] = np.nextafter(means[1, 0], 2.0)
        if kind == "glrt":
            # eps above the lattice spacing: many rows cost 0 under several classes
            eps = 1.2
            m = HypothesisModel(means=means, sigma=0.3)
            clf = GlrtClassifier(m, eps=eps)
        else:
            eps = 0.5
            m = HypothesisModel(means=means, sigma=0.6)
            clf = MinDistanceClassifier(m)
        # the oracle's values per row of its largest table are classes x 5 points
        monkeypatch.setattr(robustht.attacks, "_SPAN_VALUES", span * num_classes * 5)
        noise = m.sigma * noise_block(3, 0, 600, d)
        ties = 0
        for j in (0, num_classes // 2, num_classes - 1):
            surf = brute_force_attack_oracle(m, clf, j, eps=eps, grid_points_per_axis=5,
                                             trials=600, seed=3)
            grid = np.array(list(itertools.product(*surf.axes)))
            x = (grid[:, None, :] + (m.means[j] + noise)[None, :, :]).reshape(-1, d)
            labels = clf.decide_batch(x).reshape(len(grid), -1)
            expect = np.count_nonzero(labels != j, axis=1).reshape(surf.errors.shape)
            np.testing.assert_array_equal(surf.errors, expect / 600)
            resid = np.abs(x[:, None, :] - m.means[None, :, :])
            if kind == "glrt":
                resid = np.maximum(0.0, resid - eps)
            costs = (resid ** 2).sum(axis=2)
            ties += np.count_nonzero((costs == costs.min(axis=1)[:, None]).sum(axis=1) > 1)
        assert ties > 0

    @pytest.mark.parametrize("data", ["lattice", "low-noise"])
    @pytest.mark.parametrize("kind", ["glrt", "min-distance"])
    @pytest.mark.parametrize("num_classes", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pruned_rows_equal_decide_batch_replay(self, d, num_classes, kind, data,
                                                   monkeypatch):
        # rows settled by their last-axis cost bounds are counted without a
        # point-by-point comparison, so every count must still match a replay.
        # "lattice" draws noise and attacks on a grid of step 1/4: every cost is
        # exact, so geometric ties are float ties and some land on a bound.
        # "low-noise" settles every row, as wrong or as right: the GLRT's
        # threshold zeroes the cost of each class within 1 of class j (ties the
        # lower index wins), and the minimum-distance attacks all push past the
        # midpoint toward the neighbour at +1 where there is one.
        means = np.array([[0, 0, 0], [1, 0, 1], [-1, 1, 0], [2, -1, -1]], float)
        m = HypothesisModel(means=means[:num_classes, :d].copy(), sigma=1.0)
        draw = np.random.default_rng(d * 10 + num_classes)
        if data == "lattice":
            eps, noise = 0.5, 0.25 * draw.integers(-4, 5, size=(400, d)).astype(float)
            axis = np.linspace(-eps, eps, 5)
        else:
            eps, noise = 1.5, 0.01 * draw.standard_normal((400, d))
            axis = np.linspace(-0.2, 0.2, 5) if kind == "glrt" else np.linspace(0.6, 0.7, 5)
        clf = GlrtClassifier(m, eps=eps) if kind == "glrt" else MinDistanceClassifier(m)
        axes = [axis] * d
        grid = np.array(list(itertools.product(*axes)))
        real = robustht.attacks._rows_to_sweep
        seen = {"rows": 0, "wrong": 0, "swept": 0, "on_bound": 0}

        def record(lower, upper, j):
            settled_wrong, idx = real(lower, upper, j)
            seen["rows"] += lower.shape[1]
            seen["wrong"] += settled_wrong
            seen["swept"] += len(idx)
            rivals = np.delete(np.arange(len(lower)), j)
            seen["on_bound"] += np.count_nonzero((upper[rivals] == lower[j])
                                                 | (lower[rivals] == upper[j]))
            return settled_wrong, idx

        monkeypatch.setattr(robustht.attacks, "_rows_to_sweep", record)
        for j in range(num_classes):
            counts = robustht.attacks._nearest_surface_counts(m, clf, j, axes, noise)
            x = (grid[:, None, :] + (m.means[j] + noise)[None, :, :]).reshape(-1, d)
            labels = clf.decide_batch(x).reshape(len(grid), -1)
            expect = np.count_nonzero(labels != j, axis=1).reshape(counts.shape)
            np.testing.assert_array_equal(counts, expect)
        right = seen["rows"] - seen["wrong"] - seen["swept"]
        if data == "lattice":
            assert seen["on_bound"] > 0
        else:
            assert seen["wrong"] > 0 and right > 0
            assert seen["swept"] <= 0.1 * seen["rows"]

    def test_fig6_shape_sweeps_few_rows_point_by_point(self, monkeypatch):
        # the pruning must do its work: on fig6's model, seed 5 and 2000 rows,
        # 14.2% of (lead point, row) pairs need a point-by-point comparison,
        # however the rows are split into spans
        from robustht import configs

        recipe = configs.figure_recipe("fig6", 2000, 5)
        clf = GlrtClassifier(recipe.model, eps=recipe.eps)
        real = robustht.attacks._rows_to_sweep
        swept = []

        def record(lower, upper, j):
            settled_wrong, idx = real(lower, upper, j)
            swept.append((lower.shape[1], len(idx)))
            return settled_wrong, idx

        monkeypatch.setattr(robustht.attacks, "_rows_to_sweep", record)
        brute_force_attack_oracle(recipe.model, clf, recipe.true_class, recipe.eps,
                                  grid_points_per_axis=recipe.grid_points_per_axis,
                                  trials=recipe.trials, seed=recipe.seed)
        pairs = recipe.grid_points_per_axis * recipe.trials
        assert recipe.true_class == 0 and recipe.trials == 2000
        # every (lead point, row) pair is bounded once
        assert sum(rows for rows, _ in swept) == pairs
        assert sum(n for _, n in swept) <= 0.2 * pairs

    def test_dimension_guard(self):
        m = HypothesisModel(means=np.zeros((2, 4)) + np.arange(4), sigma=1.0)
        clf = GlrtClassifier(m, eps=0.5)
        with pytest.raises(UnsupportedDimensionError):
            brute_force_attack_oracle(m, clf, 0, eps=0.5)
