import collections
import functools
import hashlib
import itertools
import math
import weakref

import numpy as np
import pytest

import robustht.analysis
import robustht.attacks
import robustht.classifiers
import robustht.engine
from robustht import cli
from robustht.analysis import METHOD_CLT_EXACT, METHOD_MONTE_CARLO, moment_study
from robustht.attacks import (
    binary_sign_attack,
    brute_force_attack_oracle,
    heuristic_agnostic_attack,
    noise_aware_labels,
    sign_replays,
)
from robustht.classifiers import (
    ClassifierKind,
    GlrtClassifier,
    MinDistanceClassifier,
    PairwiseRobustLinearClassifier,
    build_classifier,
)
from robustht.configs import ternary_2d_model, ternary_20d_model
from robustht.engine import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    format_row,
    monte_carlo_error,
    run_experiment,
    run_experiments,
)
from robustht.model import REJECT, AttackMode, AttackSpec, HypothesisModel, TwoLevelProfile
from robustht.numerics import q_function
from robustht.rng import BLOCK_SIZE, block_plan, noise_block, substream, sum_over_blocks


class AlwaysRight:
    """Stub classifier that echoes a fixed label."""

    kind = ClassifierKind.MIN_DISTANCE

    def __init__(self, label):
        self.label = label

    def decide_attacks(self, x, attacks, work=None):
        return np.full((len(attacks), len(x)), self.label, dtype=np.int64)


def binary(mu, sigma=1.0):
    return HypothesisModel.symmetric_binary(np.asarray(mu, float), sigma)


def record_draws(monkeypatch) -> list:
    """Log each noise_block call of the engine: (args, stream, a copy of the values drawn)."""
    log = []
    real = robustht.engine.noise_block

    def recorded(*args, **kwargs):
        values = real(*args, **kwargs)
        log.append((args, kwargs.get("stream"), values.copy()))
        return values

    monkeypatch.setattr(robustht.engine, "noise_block", recorded)
    return log


def assert_streamed(log, seed, blocks, widest):
    """Each (block, rows) of blocks was read from its own substream, opened once and
    read in order at the widest dimension: its chunks, end to end, are exactly the
    rows * widest values of noise_block(seed, block, rows, widest)."""
    chunks = collections.defaultdict(list)
    for (s, b, _, dim), stream, values in log:
        assert (s, dim) == (seed, widest) and stream is not None
        chunks[b].append((stream, values))
    assert sorted(chunks) == [b for b, _ in blocks]
    streams = {b: {id(stream) for stream, _ in calls} for b, calls in chunks.items()}
    assert all(len(ids) == 1 for ids in streams.values())
    assert len(set.union(*streams.values())) == len(blocks)
    for b, rows in blocks:
        drawn = np.concatenate([values.ravel() for _, values in chunks[b]])
        assert drawn.tobytes() == noise_block(seed, b, rows, widest).tobytes()


class TestNoiseStreams:
    def test_block_plan_covers_trials(self):
        plan = list(block_plan(2 * BLOCK_SIZE + 3))
        assert [rows for _, _, rows in plan] == [BLOCK_SIZE, BLOCK_SIZE, 3]
        assert [start for _, start, _ in plan] == [0, BLOCK_SIZE, 2 * BLOCK_SIZE]

    def test_blocks_bitwise_reproducible(self):
        a = noise_block(42, 3, 100, 5)
        b = noise_block(42, 3, 100, 5)
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()

    def test_blocks_independent_across_index_and_seed(self):
        assert not np.array_equal(noise_block(1, 0, 10, 2), noise_block(1, 1, 10, 2))
        assert not np.array_equal(noise_block(1, 0, 10, 2), noise_block(2, 0, 10, 2))

    def test_partial_block_is_prefix(self):
        full = noise_block(5, 0, 100, 3)
        part = noise_block(5, 0, 40, 3)
        np.testing.assert_array_equal(part, full[:40])

    @pytest.mark.parametrize("dim, wide", [(50, 400), (7, 400), (1, 2)])
    def test_narrow_block_is_prefix_of_wide_block(self, dim, wide):
        # the engine reads each narrower dimension of a run from its widest draw
        for seed, block, rows in itertools.product((0, 31, 2**63 + 5), (0, 3),
                                                   (1, 1696, BLOCK_SIZE)):
            prefix = noise_block(seed, block, rows, wide).ravel()[:rows * dim]
            narrow = noise_block(seed, block, rows, dim)
            assert narrow.tobytes() == prefix.reshape(rows, dim).tobytes()

    def test_chunks_of_an_open_substream_equal_one_draw(self):
        # the engine reads a block in chunks; here they run from 1 value to more than the block
        whole = noise_block(9, 2, BLOCK_SIZE, 3).ravel()
        sizes = np.random.default_rng(0)
        for case in range(20):
            stream, buffer, at = substream(9, 2), np.empty(whole.size), 0
            while at < whole.size:
                n = min(whole.size - at, int(np.exp(sizes.uniform(0, math.log(2 * whole.size)))))
                if case % 2:
                    out = buffer[at:at + n].reshape(1, n)
                    assert noise_block(9, 2, 1, n, stream=stream, out=out) is out
                else:
                    buffer[at:at + n] = noise_block(9, 2, 1, n, stream=stream).ravel()
                at += n
            assert buffer.tobytes() == whole.tobytes()

    def test_sum_over_blocks_does_not_depend_on_threads(self):
        # float sums expose any change in the order the blocks are added
        def count(b, rows):
            z = noise_block(3, b, rows, 2)
            return np.array([z.sum(), (z * z).sum(), np.count_nonzero(z > 1.0), rows])

        trials = 5 * BLOCK_SIZE + 7
        one = sum_over_blocks(trials, count)
        assert one[3] == trials
        for threads in (2, 3):
            assert sum_over_blocks(trials, count, threads).tobytes() == one.tobytes()

    def test_sum_over_blocks_one_thread_runs_blocks_in_order_one_at_a_time(self):
        events = []

        def count(b, rows):
            events.append(("count", b, rows))
            part = np.array([rows])
            weakref.finalize(part, events.append, ("freed", b, rows))
            return part

        assert sum_over_blocks(2 * BLOCK_SIZE + 3, count).tolist() == [2 * BLOCK_SIZE + 3]
        # each block's part is gone before the next block is counted
        assert events == [(kind, b, rows) for b, rows in enumerate([BLOCK_SIZE, BLOCK_SIZE, 3])
                          for kind in ("count", "freed")]

    def test_every_monte_carlo_path_draws_through_its_module(self, monkeypatch):
        # bench/tracing.py counts draws through these names, so each path must use them:
        # the engine streams each block in chunks, the grid oracle and moment study draw it whole
        draws = collections.defaultdict(list)

        def recorder(module, real):
            return lambda *args, **kwargs: (draws[module.__name__].append((args, kwargs))
                                            or real(*args, **kwargs))

        for module in (robustht.attacks, robustht.analysis):
            monkeypatch.setattr(module, "noise_block", recorder(module, module.noise_block))
        engine = record_draws(monkeypatch)
        trials = BLOCK_SIZE + 5
        run_experiment(kappa_sweep_config(trials=trials, seed=5), threads=2)
        model = ternary_2d_model()
        brute_force_attack_oracle(model, build_classifier(ClassifierKind.GLRT, model, 1.0), 0,
                                  eps=1.0, grid_points_per_axis=3, trials=trials, seed=6,
                                  threads=2)
        moment_study([0.5, 1.5], eps=1.0, kappa=0.5, sigma=1.0, trials=trials, seed=7)
        blocks = [(0, BLOCK_SIZE), (1, 5)]
        # block 0 is wider than the engine's window: it comes in more than one chunk
        assert len(engine) > len(blocks)
        assert_streamed(engine, 5, blocks, 20)
        assert {name: sorted(calls) for name, calls in draws.items()} == {
            "robustht.attacks": [((6, b, rows, 2), {}) for b, rows in blocks],
            "robustht.analysis": [((seed, b, rows, 1), {}) for seed in (7, 8)
                                  for b, rows in blocks],
        }


class TestMonteCarloError:
    def test_perfect_classifier_zero_error(self):
        m = binary([1.0, 2.0])
        est = monte_carlo_error(m, AlwaysRight(0), AttackSpec.none(),
                                true_class=0, trials=5000, seed=0)
        assert est.value == 0.0
        assert est.ci_halfwidth == 0.0
        assert est.method == METHOD_MONTE_CARLO

    def test_matched_filter_error(self):
        mu = np.array([0.8, -0.6, 0.3])
        m = binary(mu, sigma=1.0)
        est = monte_carlo_error(m, MinDistanceClassifier(m), AttackSpec.none(),
                                true_class=0, trials=200_000, seed=3)
        expected = q_function(float(np.linalg.norm(mu)))
        assert abs(est.value - expected) < 3 * est.ci_halfwidth

    def test_naive_detector_collapses_past_threshold(self):
        # threshold ||mu||^2/||mu||_1 < 1 = attack budget, so the plain
        # nearest-mean rule errs at least half the time
        profile = TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0)
        m = profile.to_model(0.5)
        est = monte_carlo_error(
            m, MinDistanceClassifier(m),
            AttackSpec(budget=1.0, strength=1.0,
                       mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
            true_class=0, trials=100_000, seed=1,
        )
        assert est.value >= 0.5

    def test_thread_count_invariance(self):
        m = binary([1.0, 0.5], sigma=0.9)
        clf = GlrtClassifier(m, eps=0.6)
        attack = AttackSpec(budget=0.6, strength=0.6,
                            mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC)
        single = monte_carlo_error(m, clf, attack, true_class=0,
                                   trials=3 * BLOCK_SIZE + 11, seed=8, threads=1)
        multi = monte_carlo_error(m, clf, attack, true_class=0,
                                  trials=3 * BLOCK_SIZE + 11, seed=8, threads=8)
        assert single.value == multi.value
        assert single.ci_halfwidth == multi.ci_halfwidth

    def test_dimension_sweep_thread_count_invariance(self):
        config = dimension_sweep_config(
            classifiers=[ClassifierKind.GLRT, ClassifierKind.MIN_DISTANCE],
            attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NOISE_AWARE_OPTIMAL],
            trials=2 * BLOCK_SIZE + 5,
        )
        assert run_experiment(config, threads=1).rows == run_experiment(config, threads=2).rows

    def test_prior_weighted_combination(self):
        m = HypothesisModel(
            means=np.array([[1.0, 0.0], [-1.0, 0.5], [0.0, -1.0]]),
            sigma=0.8,
            priors=np.array([0.5, 0.3, 0.2]),
        )
        clf = MinDistanceClassifier(m)
        attack = AttackSpec.none()
        averaged = monte_carlo_error(m, clf, attack, true_class=None,
                                     trials=20_000, seed=4)
        parts = [
            monte_carlo_error(m, clf, attack, true_class=j, trials=20_000, seed=4)
            for j in range(3)
        ]
        combo = sum(float(m.priors[j]) * parts[j].value for j in range(3))
        assert averaged.value == pytest.approx(combo, abs=1e-15)

    def test_aware_mode_counts_zero_attack_fallback(self):
        # even when no candidate flips the decision, noisy trials can still
        # be misclassified with the zero attack; those count as errors
        m = binary([0.4, 0.3], sigma=2.0)
        clf = GlrtClassifier(m, eps=0.1)
        aware = monte_carlo_error(
            m, clf, AttackSpec(budget=0.1, strength=0.1,
                               mode=AttackMode.NOISE_AWARE_OPTIMAL),
            true_class=0, trials=30_000, seed=2,
        )
        none = monte_carlo_error(m, clf, AttackSpec.none(),
                                 true_class=0, trials=30_000, seed=2)
        assert aware.value >= none.value > 0

    def test_trials_validation(self):
        m = binary([1.0])
        with pytest.raises(ValueError):
            monte_carlo_error(m, AlwaysRight(0), AttackSpec.none(),
                              true_class=0, trials=0)


class TestSingleDraw:
    """Each noise block is drawn once, whatever the classes and cells on it: its
    substream is opened once and read in order, rows * widest values in all."""

    @pytest.fixture
    def draws(self, monkeypatch):
        return record_draws(monkeypatch)

    def test_prior_weighted_error(self, draws):
        m = binary([1.0, 0.5], sigma=0.9)
        attack = AttackSpec(budget=0.6, strength=0.6,
                            mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC)
        monte_carlo_error(m, GlrtClassifier(m, eps=0.6), attack, true_class=None,
                          trials=3 * BLOCK_SIZE, seed=1)
        assert_streamed(draws, 1, [(b, BLOCK_SIZE) for b in range(3)], 2)

    def test_dimension_sweep(self, draws):
        config = dimension_sweep_config(
            attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NONE],
            trials=1000,
        )
        run_experiment(config)
        # both dimensions read one draw at the wider
        assert_streamed(draws, 2, [(0, 1000)], 40)

    def test_reproduce_fig5_draws_each_block_once(self, draws, tmp_path):
        # the kappa = 1 and kappa = 0.8 studies share seed and trials, and all
        # four dimensions read one draw at the widest
        code = cli.main(["reproduce", "fig5", "--trials", "1000", "--seed", "3",
                         "--out", str(tmp_path / "fig5.csv")])
        assert code == 0
        assert_streamed(draws, 3, [(0, 1000)], 400)

    def test_reproduce_fig5_draws_each_block_once_on_threads(self, draws, tmp_path):
        code = cli.main(["reproduce", "fig5", "--trials", str(BLOCK_SIZE + 5), "--seed", "3",
                         "--threads", "2", "--out", str(tmp_path / "fig5.csv")])
        assert code == 0
        assert_streamed(draws, 3, [(0, BLOCK_SIZE), (1, 5)], 400)


class TestCountBlockTiles:
    """Tiled, shared decisions tally exactly as a one-shot replay of each cell."""

    ROWS = BLOCK_SIZE - 1
    SIGMA = 0.9

    @staticmethod
    def one_shot(model, classifier, spec, j, z, sigma) -> tuple[int, int]:
        """One cell's (errors, rejects) from whole-block decide_batch calls, nothing shared."""
        base = sigma * z + model.means[j]
        if spec.mode is AttackMode.NOISE_AWARE_OPTIMAL:
            labels = classifier.decide_batch(base)
            left = np.zeros(z.shape[0], dtype=bool)
            for k in range(model.num_classes):
                if k != j:
                    flipped = classifier.decide_batch(
                        base + binary_sign_attack(model, j, k, spec.strength))
                    newly = (flipped != j) & ~left
                    labels[newly] = flipped[newly]
                    left |= newly
        elif spec.mode is AttackMode.NONE:
            labels = classifier.decide_batch(base)
        else:
            e = heuristic_agnostic_attack(model, classifier.kind, j, spec.budget, spec.strength)
            labels = classifier.decide_batch(base + e.vector)
        return int((labels != j).sum()), int((labels == REJECT).sum())

    @classmethod
    @functools.cache
    def case(cls, dim, kind):
        """Cells at kappa 0, 0.1 and 0.2 (agnostic, aware) and no attack, with the
        one-shot counts of each (true class, cell), shared by both tile sizes."""
        gen = np.random.default_rng(dim)
        model = HypothesisModel(means=gen.normal(size=(3, dim)) * (2.0 / math.sqrt(dim)),
                                sigma=1.0)
        classifier = build_classifier(kind, model, 0.2)
        specs = [AttackSpec(budget=0.2, strength=kappa, mode=mode)
                 for mode in (AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NOISE_AWARE_OPTIMAL)
                 for kappa in (0.0, 0.1, 0.2)] + [AttackSpec.none()]
        z = noise_block(11, 0, cls.ROWS, dim)
        expected = [[cls.one_shot(model, classifier, spec, j, z, cls.SIGMA) for spec in specs]
                    for j in range(model.num_classes)]
        return [(model, classifier, spec, cls.SIGMA) for spec in specs], expected

    @pytest.mark.parametrize("tile", [1 << 16, 1000], ids=["default-tile", "small-tile"])
    @pytest.mark.parametrize("kind", [ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR,
                                      ClassifierKind.MIN_DISTANCE])
    @pytest.mark.parametrize("dim", [1, 2, 20, 400])
    def test_bit_exact_against_one_shot(self, dim, kind, tile, monkeypatch):
        monkeypatch.setattr(robustht.engine, "_TILE_ELEMENTS", tile)
        assert self.ROWS % max(1, tile // dim) != 0
        # every cell of one true class shares the tile's decisions
        cells, expected = self.case(dim, kind)
        for j, counts in enumerate(expected):
            tallied = robustht.engine._monte_carlo_cells(cells, j, self.ROWS, 11, 1)
            for cell, (error, ci, reject), (errors, rejects) in zip(cells, tallied, counts):
                assert (error, reject) == (errors / self.ROWS, rejects / self.ROWS), (j, cell[2])
                assert errors > 0
                # the Wald half-width of a class-conditional cell
                assert ci == pytest.approx(
                    1.959963984540054 * math.sqrt(error * (1 - error) / self.ROWS), rel=1e-12)
            # a lone fixed cell adds its attack in place
            agnostic = cells[2]
            assert agnostic[2].strength == 0.2
            assert robustht.engine._monte_carlo_cells([agnostic], j, self.ROWS, 11, 1) == [
                tallied[2]]

    def streamed_against_one_shot(self, dims, kind, monkeypatch, classes=(0, 1, 2)) -> list:
        """Tally the cells of case(d, kind) for each d in dims on one stream read at the
        widest, assert each cell's counts equal its one-shot replay, and return the
        end of each chunk drawn (in values) for each true class of classes."""
        cases = [self.case(dim, kind) for dim in dims]
        cells = [cell for case_cells, _ in cases for cell in case_cells]
        log = record_draws(monkeypatch)
        chunk_ends = []
        for j in classes:
            log.clear()
            tallied = robustht.engine._monte_carlo_cells(cells, j, self.ROWS, 11, 1)
            expected = [counts for _, per_class in cases for counts in per_class[j]]
            assert [(error, reject) for error, _, reject in tallied] == [
                (errors / self.ROWS, rejects / self.ROWS) for errors, rejects in expected]
            assert_streamed(log, 11, [(0, self.ROWS)], max(dims))
            chunk_ends.append(np.cumsum([values.size for _, _, values in log]))
        return chunk_ends

    @pytest.mark.parametrize("kind", [ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR,
                                      ClassifierKind.MIN_DISTANCE])
    def test_tiles_straddling_chunks_bit_exact(self, kind, monkeypatch):
        # tiles of 998 (d = 2) and 980 (d = 20) values on chunks of whole 20-wide rows
        monkeypatch.setattr(robustht.engine, "_TILE_ELEMENTS", 999)
        for ends in self.streamed_against_one_shot((2, 20), kind, monkeypatch):
            assert len(ends) > 2
            for dim in (2, 20):
                span = 999 // dim * dim
                starts = np.arange(0, self.ROWS * dim, span)
                # some tile of each dimension holds a chunk boundary strictly inside
                assert any(((lo < ends) & (ends < lo + span)).any() for lo in starts), dim

    def test_one_row_tiles_bit_exact(self, monkeypatch):
        # d = 400 exceeds the tile, so each of its tiles is one row; d = 20 takes 3 rows
        monkeypatch.setattr(robustht.engine, "_TILE_ELEMENTS", 64)
        [ends] = self.streamed_against_one_shot((20, 400), ClassifierKind.GLRT, monkeypatch,
                                                classes=(1,))
        assert len(ends) > self.ROWS // 4

    def test_sign_attacks_built_at_plan_time(self, monkeypatch):
        # more tiles per block, or a second rule, must not build more sign
        # attacks or NN targets: each is built once per run
        calls, targets = [], []
        real = robustht.attacks.binary_sign_attack
        for module in (robustht.attacks, robustht.engine):
            monkeypatch.setattr(module, "binary_sign_attack",
                                lambda *args: calls.append(args) or real(*args))
        real_nn = robustht.attacks.nn_class_glrt

        def counted_nn(*args):
            targets.append(args)
            return real_nn(*args)

        # one wrapper for every rule that shares the criterion, as the table shares it
        for kind, criterion in robustht.attacks._NN_CRITERIA.items():
            if criterion is real_nn:
                monkeypatch.setitem(robustht.attacks._NN_CRITERIA, kind, counted_nn)
        model = ternary_20d_model(sigma_sq=1.0)
        cells = [(model, build_classifier(kind, model, 1.0),
                  AttackSpec(budget=1.0, strength=0.5, mode=mode), model.sigma)
                 for kind in (ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR)
                 for mode in (AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NOISE_AWARE_OPTIMAL)]
        counted = []
        for tile in (1 << 16, 1000):
            monkeypatch.setattr(robustht.engine, "_TILE_ELEMENTS", tile)
            calls.clear()
            targets.clear()
            robustht.engine._monte_carlo_cells(cells, None, 4096, 3, 1)
            counted.append((len(calls), len(targets)))
        # per true class: the sign attack toward each rival, which the agnostic
        # cells reuse, and one NN target that the GLRT and PRL share
        assert counted == [(3 * 2, 3)] * 2


class TestGlrtErrorPath:
    """The GLRT's errors from its pairwise checks equal the replay rule's, row by row.

    The engine decides each attack of a group against the rivals of its plan
    (`attack_errors`), and a cell errs where one of its attacks does. The
    reference replays every attack with a full `decide_batch` and takes the
    labels through `noise_aware_labels`.
    """

    ROWS = 400

    @staticmethod
    def models():
        """(model, lattice) for M = 3..12: random means and noise, then means, noise,
        eps and kappa on a grid of step 1/4, so that costs tie exactly."""
        gen = np.random.default_rng(29)
        for m in range(3, 13):
            d = int(gen.integers(2, 21))
            yield HypothesisModel(means=gen.normal(size=(m, d)), sigma=0.7), False
        for m in range(3, 13):
            d = int(gen.integers(4, 9))
            means = gen.integers(-3, 4, size=(m, d)) / 4.0
            while len(np.unique(means, axis=0)) < m:
                means = gen.integers(-3, 4, size=(m, d)) / 4.0
            yield HypothesisModel(means=means, sigma=1.0), True

    @staticmethod
    def replayed(model, classifier, spec, j, base) -> np.ndarray:
        """A cell's error indicator from full decide_batch replays."""
        if spec.mode is AttackMode.NOISE_AWARE_OPTIMAL:
            labels = noise_aware_labels(j, [classifier.decide_batch(base + e) for e in
                                            sign_replays(model, j, spec.strength).values()])
        elif spec.mode is AttackMode.NONE:
            labels = classifier.decide_batch(base)
        else:
            e = heuristic_agnostic_attack(model, classifier.kind, j, spec.budget, spec.strength)
            labels = classifier.decide_batch(base + e.vector)
        return labels != j

    def test_errors_equal_the_replay_rule(self):
        gen = np.random.default_rng(30)
        # exact cost ties of a rival with j under the rival's own replay, by
        # whether the rival's index is below or above j
        ties = collections.Counter()
        for model, lattice in self.models():
            z = (gen.integers(-6, 7, size=(self.ROWS, model.dim)) / 4.0 if lattice
                 else gen.standard_normal((self.ROWS, model.dim)))
            # the GLRT at eps > 0 and at eps = 0, with an attack budget of 0.5
            for eps in (0.5, 0.0):
                classifier = GlrtClassifier(model, eps)
                for kappa in (0.0, 0.25, 0.5):
                    specs = [AttackSpec(budget=0.5, strength=kappa, mode=mode) for mode in (
                        AttackMode.NOISE_AWARE_OPTIMAL, AttackMode.NOISE_AGNOSTIC_HEURISTIC)]
                    specs.append(AttackSpec.none())
                    for j in range(model.num_classes):
                        base = model.means[j] + model.sigma * z
                        # the cells together, and the aware cell alone, whose zero
                        # replay then shares no attack with a cell scored on its own
                        for cells in (specs, specs[:1]):
                            tasks = [(model, classifier, spec, j, model.sigma) for spec in cells]
                            [(members, attacks, rivals)] = robustht.engine._decision_groups(tasks)
                            if kappa == 0.0:
                                # every replay is the zero attack, checked against every rival
                                assert len(attacks) == 1
                                assert rivals == [tuple(k for k in range(model.num_classes)
                                                        if k != j)]
                            wrong = classifier.attack_errors(base, j, attacks, rivals)
                            for t, picks in members:
                                np.testing.assert_array_equal(
                                    np.any(wrong[picks], axis=0),
                                    self.replayed(model, classifier, cells[t], j, base),
                                    err_msg=f"M={model.num_classes} eps={eps} kappa={kappa} "
                                            f"j={j} {cells[t].mode}")
                        if lattice:
                            for k, e in sign_replays(model, j, kappa).items():
                                if k >= 0:
                                    own, rival = [
                                        cost.copy() for cost in robustht.classifiers._class_costs(
                                            base + e, model.means[[j, k]], eps)]
                                    ties[k < j] += np.count_nonzero(own == rival)
        assert ties[True] > 0 and ties[False] > 0


class TestSharedDecisions:
    """Cells that see the same observations decide each of them once, and no others share."""

    @pytest.fixture
    def decided(self, monkeypatch):
        """(kind, shape, tile digest, attack or class digest) -> times decided, and
        the work per kind: the row·class costs of the GLRT and minimum distance
        (`classifiers._class_costs`, whose eps is None for minimum distance) and
        the rows of each attack of a PRL decide_attacks call."""
        tiles = collections.Counter()
        spent = collections.Counter()
        real_costs = robustht.classifiers._class_costs

        def costs(x, means, eps):
            kind = ClassifierKind.MIN_DISTANCE if eps is None else ClassifierKind.GLRT
            tile = hashlib.sha256(x.tobytes()).digest()
            for mu in means:
                tiles[(kind, x.shape, tile, mu.tobytes())] += 1
            spent[kind] += x.shape[0] * len(means)
            return real_costs(x, means, eps)

        def recorded(self, x, attacks, work=None,
                     real=PairwiseRobustLinearClassifier.decide_attacks):
            tile = hashlib.sha256(x.tobytes()).digest()
            for e in attacks:
                tiles[(self.kind, x.shape, tile, e.tobytes())] += 1
                spent[self.kind] += x.shape[0]
            return real(self, x, attacks, work)

        monkeypatch.setattr(robustht.classifiers, "_class_costs", costs)
        monkeypatch.setattr(PairwiseRobustLinearClassifier, "decide_attacks", recorded)
        return tiles, spent

    def test_fig8_decides_each_distinct_observation_once(self, decided, tmp_path):
        # per class j: the zero attack and 2 sign attacks at each of the 10 kappas > 0
        code = cli.main(["reproduce", "fig8", "--trials", "1000",
                         "--out", str(tmp_path / "fig8.csv")])
        assert code == 0
        tiles, spent = decided
        assert spent == {
            # the zero attack and the agnostic cell's attack, which aware shares,
            # against both rivals: 3 costs each; the other aware replay 2
            ClassifierKind.GLRT: 3 * (3 + 10 * (3 + 2)) * 1000,
            # one cost table per tile serves every attack
            ClassifierKind.MIN_DISTANCE: 3 * 3 * 1000,
            ClassifierKind.PAIRWISE_ROBUST_LINEAR: 3 * 21 * 1000,
        }
        assert max(tiles.values()) == 1

    @staticmethod
    def cell_by_cell(config, model, sigma):
        """(error, ci) of each cell of config in row order, from its own monte_carlo_error run."""
        cell_model = HypothesisModel(means=model.means, sigma=sigma, priors=model.priors)
        out = []
        for kind in config.classifiers:
            classifier = build_classifier(kind, model, config.eps)
            for mode in config.attack_modes:
                for kappa in config.resolved_kappas():
                    spec = (AttackSpec.none() if mode is AttackMode.NONE
                            else AttackSpec(budget=config.eps, strength=kappa, mode=mode))
                    est = monte_carlo_error(cell_model, classifier, spec, None,
                                            config.trials, config.seed)
                    out.append((est.value, est.ci_halfwidth))
        return out

    def test_sigma_sweep_shares_nothing_across_sigma(self):
        config = ExperimentConfig(
            model=ternary_2d_model(), eps=1.0,
            classifiers=[ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR],
            attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NOISE_AWARE_OPTIMAL],
            sweep_axis="eps_over_sigma_sq", sweep_values=[0.5, 2.0, 8.0],
            kappas=[0.5, 1.0], trials=5000, seed=3,
        )
        model = config.resolved_model()
        expected = []
        for value in config.sweep_values:
            expected += self.cell_by_cell(config, model, config.eps / math.sqrt(value))
        rows = run_experiment(config).rows
        assert [(row["error"], row["ci"]) for row in rows] == expected

    def test_configs_with_other_models_share_no_decisions(self):
        # same dimension, sigma, seed and classifier kinds: one noise draw, two models
        first = ternary_2d_model()
        second = HypothesisModel(means=first.means * 0.8, sigma=first.sigma)
        configs = [
            ExperimentConfig(
                model=model, eps=1.0,
                classifiers=[ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR],
                attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC,
                              AttackMode.NOISE_AWARE_OPTIMAL, AttackMode.NONE],
                sweep_axis="kappa", sweep_values=[1.0], trials=5000, seed=4,
            )
            for model in (first, second)
        ]
        for config, result in zip(configs, run_experiments(configs)):
            expected = self.cell_by_cell(config, config.model, config.model.sigma)
            assert [(row["error"], row["ci"]) for row in result.rows] == expected

    def test_aware_agnostic_and_none_agree_at_zero_strength(self):
        config = ExperimentConfig(
            model=ternary_20d_model(sigma_sq=1.0), eps=1.0,
            classifiers=[ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR,
                         ClassifierKind.MIN_DISTANCE],
            attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NOISE_AWARE_OPTIMAL,
                          AttackMode.NONE],
            sweep_axis="kappa", sweep_values=[0.0], trials=20_000, seed=6,
        )
        rows = run_experiment(config).rows
        assert len(rows) == 9
        for kind in ("glrt", "prl", "min-distance"):
            values = {(r["error"], r["reject_rate"]) for r in rows if r["classifier"] == kind}
            assert len(values) == 1, kind
            assert next(iter(values))[0] > 0


def kappa_sweep_config(trials=20_000, seed=5, **overrides):
    base = dict(
        profile=TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0),
        sigma=1.0,
        eps=1.0,
        classifiers=[ClassifierKind.GLRT, ClassifierKind.MINIMAX_LINEAR],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
        sweep_axis="kappa",
        sweep_values=[0.0, 0.5, 1.0],
        trials=trials,
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def dimension_sweep_config(**overrides):
    base = dict(
        profile=TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0),
        eps=1.0,
        classifiers=[ClassifierKind.GLRT],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
        sweep_axis="dimension",
        sweep_values=[20, 40],
        kappas=[1.0],
        target_error=0.1,
        trials=20_000,
        seed=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_row_grid_and_header_fields(self):
        result = run_experiment(kappa_sweep_config())
        assert len(result.rows) == 3 * 2
        for row in result.rows:
            assert set(row) == set(CSV_HEADER.split(","))
            assert 0.0 <= row["error"] <= 1.0
            assert row["method"] == METHOD_MONTE_CARLO
        assert result.metadata["config_hash"] == kappa_sweep_config().config_hash()

    def test_deterministic_across_threads(self):
        r1 = run_experiment(kappa_sweep_config(), threads=1)
        r8 = run_experiment(kappa_sweep_config(), threads=8)
        assert r1.rows == r8.rows

    def test_error_monotone_in_kappa_under_crn(self):
        # per-trial monotonicity of the cost difference in the attack makes
        # shared-noise error counts monotone in the employed strength
        config = kappa_sweep_config(sweep_values=[0.0, 0.25, 0.5, 0.75, 1.0])
        result = run_experiment(config)
        for kind in ("glrt", "minimax"):
            errs = [r["error"] for r in result.rows if r["classifier"] == kind]
            assert errs == sorted(errs)

    def test_error_monotone_in_sigma_under_crn(self):
        # kappa = 0.5 keeps the cost-difference mean sum positive; at full
        # attack strength this profile's soft-threshold error is genuinely
        # non-monotone in sigma (negative mean sum, shrinking spread)
        config = kappa_sweep_config(
            sigma=None,
            sweep_axis="eps_over_sigma_sq",
            sweep_values=[1.0, 2.0, 4.0, 8.0],
            kappas=[0.5],
        )
        result = run_experiment(config)
        for kind in ("glrt", "minimax"):
            errs = [r["error"] for r in result.rows if r["classifier"] == kind]
            # larger (eps/sigma)^2 = smaller sigma = smaller error
            assert errs == sorted(errs, reverse=True)

    def test_reject_rate_only_for_prl(self):
        m = HypothesisModel(
            means=np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, -2.0]]), sigma=0.5
        )
        config = ExperimentConfig(
            model=m, eps=1.0,
            classifiers=[ClassifierKind.PAIRWISE_ROBUST_LINEAR, ClassifierKind.GLRT],
            attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
            sweep_axis="kappa", sweep_values=[1.0],
            trials=5000, seed=0,
        )
        rows = run_experiment(config).rows
        by_kind = {r["classifier"]: r for r in rows}
        assert by_kind["prl"]["reject_rate"] is not None
        assert by_kind["glrt"]["reject_rate"] is None

    def test_dimension_sweep_emits_prediction_rows(self):
        rows = run_experiment(dimension_sweep_config()).rows
        mc = [r for r in rows if r["method"] == METHOD_MONTE_CARLO]
        clt = [r for r in rows if r["method"] == METHOD_CLT_EXACT]
        assert len(mc) == 2 and len(clt) == 2
        # calibration holds the analytic error at the target
        for row in clt:
            assert row["error"] == pytest.approx(0.1, rel=2e-3)
        for row in mc:
            assert abs(row["error"] - 0.1) < 0.02

    def test_row_sink_receives_rows(self):
        seen = []
        run_experiment(kappa_sweep_config(trials=2000), row_sink=seen.append)
        assert len(seen) == 6

    def test_row_sink_receives_dimension_rows(self):
        seen = []
        result = run_experiment(dimension_sweep_config(trials=2000), row_sink=seen.append)
        assert [r["sweep_value"] for r in seen] == [20, 20, 40, 40]
        assert seen == result.rows

    def test_configs_of_one_run_keep_their_rows_in_order(self, monkeypatch):
        # both configs and both dimensions are tallied on one draw at d = 40;
        # the rows then come config by config, each config's in its own order
        configs = [dimension_sweep_config(trials=2000, kappas=[k]) for k in (1.0, 0.8)]
        events = []
        real = robustht.engine.noise_block

        def counted(*args, **kwargs):
            values = real(*args, **kwargs)
            events.append(("draw", args[3], values.size))
            return values

        monkeypatch.setattr(robustht.engine, "noise_block", counted)
        run_experiments(configs, row_sink=lambda row: events.append(
            ("row", row["kappa"], row["sweep_value"])))
        # every value of the block is drawn, at d = 40, before the first row comes out
        first_row = next(i for i, event in enumerate(events) if event[0] == "row")
        assert {event[:2] for event in events[:first_row]} == {("draw", 40)}
        assert sum(event[2] for event in events[:first_row]) == 2000 * 40
        assert events[first_row:] == [
            ("row", 1.0, 20), ("row", 1.0, 20), ("row", 1.0, 40), ("row", 1.0, 40),
            ("row", 0.8, 20), ("row", 0.8, 20), ("row", 0.8, 40), ("row", 0.8, 40),
        ]
        seen = []
        results = run_experiments(configs, row_sink=seen.append)
        assert seen == results[0].rows + results[1].rows

    def test_shared_draws_give_each_config_its_own_result(self):
        configs = [
            dimension_sweep_config(trials=2000, kappas=[1.0], sweep_values=[40, 20]),
            kappa_sweep_config(trials=2000, seed=2, sweep_values=[0.5]),
            dimension_sweep_config(trials=2000, kappas=[0.8]),
            dimension_sweep_config(trials=2000, kappas=[0.8], seed=3),
        ]
        together = run_experiments(configs)
        assert [r.rows for r in together] == [run_experiment(c).rows for c in configs]
        assert [r.metadata for r in together] == [run_experiment(c).metadata for c in configs]

    def test_invalid_later_config_fails_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(robustht.engine, "noise_block",
                            lambda *args, **kwargs: draws.append(args))
        bad = dimension_sweep_config(kappas=[0.5, 1.0])
        with pytest.raises(ConfigError, match="kappas"):
            run_experiments([dimension_sweep_config(), bad])
        assert draws == []

    def test_reproduce_fig5_bytes_do_not_depend_on_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"fig5-t{threads}.csv"
            assert cli.main(["reproduce", "fig5", "--trials", "3000", "--seed", "4",
                             "--threads", threads, "--out", str(out)]) == 0
            sidecar = out.with_suffix(".csv.meta.json")
            outputs.append((out.read_bytes(), sidecar.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("axis", ["kappa", "eps_over_sigma_sq", "dimension"])
    def test_one_row_rule_on_every_axis(self, axis):
        # PRL rows carry reject_rate and NONE rows carry kappa 0, whatever the axis
        grid = dict(
            classifiers=[ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR],
            attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC, AttackMode.NONE],
            trials=2000,
        )
        if axis == "kappa":
            config = kappa_sweep_config(sweep_values=[0.7], **grid)
        elif axis == "eps_over_sigma_sq":
            config = kappa_sweep_config(sigma=None, sweep_axis=axis, sweep_values=[1.0, 4.0],
                                        kappas=[0.7], **grid)
        else:
            config = dimension_sweep_config(kappas=[0.7], **grid)
        rows = [r for r in run_experiment(config).rows if r["method"] == METHOD_MONTE_CARLO]
        assert len(rows) == 4 * (1 if axis == "kappa" else 2)
        for row in rows:
            assert (row["reject_rate"] is not None) == (row["classifier"] == "prl")
            assert row["kappa"] == (0.0 if row["attack_mode"] == "none" else 0.7)

    @pytest.mark.parametrize("case", ["kappa-values", "kappas", "none-mode", "dimension"])
    def test_duplicate_cells_are_run_once(self, case, monkeypatch):
        # a duplicate sweep value or kappa adds no row and no calibration, and
        # the first-seen order of the remaining cells is kept
        if case == "kappa-values":
            config, unique = (kappa_sweep_config(trials=2000, sweep_values=values)
                              for values in ([0.5, 0.0, 0.5], [0.5, 0.0]))
        elif case == "kappas":
            config, unique = (kappa_sweep_config(trials=2000, sigma=None, kappas=kappas,
                                                 sweep_axis="eps_over_sigma_sq",
                                                 sweep_values=[2.0, 1.0])
                              for kappas in ([0.5, 0.5], [0.5]))
        elif case == "none-mode":
            config, unique = (kappa_sweep_config(trials=2000, sigma=None, kappas=kappas,
                                                 attack_modes=[AttackMode.NONE],
                                                 sweep_axis="eps_over_sigma_sq",
                                                 sweep_values=[1.0])
                              for kappas in ([0.3, 0.7], [0.3]))
        else:
            config, unique = (dimension_sweep_config(trials=2000, sweep_values=values)
                              for values in ([20, 40, 20], [20, 40]))
        calls = []
        real = robustht.engine.sigma_for_target_error
        monkeypatch.setattr(robustht.engine, "sigma_for_target_error",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        lines = [format_row(row) for row in run_experiment(config).rows]
        if case == "dimension":
            assert len(calls) == 2
        assert lines == [format_row(row) for row in run_experiment(unique).rows]

    def test_format_row_stable(self):
        row = {
            "sweep_axis": "kappa", "sweep_value": 0.5, "classifier": "glrt",
            "attack_mode": "agnostic", "kappa": 0.5, "error": 0.125,
            "ci": 0.001953125, "reject_rate": None, "method": "monte-carlo",
            "seed": 7,
        }
        assert format_row(row) == "kappa,0.5,glrt,agnostic,0.5,0.125,0.001953125,,monte-carlo,7"


class TestConfigValidation:
    def test_requires_exactly_one_model_source(self):
        with pytest.raises(ConfigError, match="model/profile"):
            kappa_sweep_config(model=binary([1.0]), ).validate()
        config = kappa_sweep_config()
        config.profile = None
        with pytest.raises(ConfigError, match="model/profile"):
            config.validate()

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match="sweep.axis"):
            kappa_sweep_config(sweep_axis="epsilon").validate()

    def test_empty_values(self):
        with pytest.raises(ConfigError, match="sweep.values"):
            kappa_sweep_config(sweep_values=[]).validate()

    def test_kappa_beyond_budget(self):
        with pytest.raises(ConfigError, match="kappas"):
            kappa_sweep_config(kappas=[1.5], sweep_axis="eps_over_sigma_sq",
                               sweep_values=[1.0]).validate()

    def test_dimension_axis_requirements(self):
        config = kappa_sweep_config(sweep_axis="dimension", sweep_values=[10, 20])
        with pytest.raises(ConfigError, match="target_error"):
            config.validate()

    @pytest.mark.parametrize("field, value", [
        ("calibration_method", "bogus"), ("target_error", 0.7), ("target_error", 0.0),
        ("target_error", math.nan)])
    def test_bad_calibration_rejected_before_any_sampling(self, field, value, monkeypatch):
        # the first config is valid: none of its rows may come out or be sampled
        draws, rows = [], []
        real = robustht.engine.noise_block
        monkeypatch.setattr(robustht.engine, "noise_block",
                            lambda *args, **kwargs: draws.append(args) or real(*args, **kwargs))
        configs = [kappa_sweep_config(trials=1000), dimension_sweep_config(**{field: value})]
        with pytest.raises(ConfigError, match=f"^{field}:"):
            run_experiments(configs, row_sink=rows.append)
        assert draws == [] and rows == []

    @pytest.mark.parametrize("field, value", [("calibration_method", "bogus"),
                                              ("target_error", 0.7)])
    def test_calibration_fields_checked_on_every_axis(self, field, value):
        # unused off the dimension axis, but written to the sidecar and hashed
        with pytest.raises(ConfigError, match=f"^{field}:"):
            kappa_sweep_config(**{field: value}).validate()

    def test_dimension_axis_takes_one_kappa(self):
        with pytest.raises(ConfigError, match="kappas"):
            dimension_sweep_config(kappas=[0.5, 1.0]).validate()

    def test_nonpositive_eps_over_sigma_sq(self):
        for value in (0.0, -1.0):
            config = kappa_sweep_config(sigma=None, sweep_axis="eps_over_sigma_sq",
                                        sweep_values=[1.0, value])
            with pytest.raises(ConfigError, match="sweep.values"):
                config.validate()

    def test_from_dict_non_numeric_kappas(self):
        raw = {
            "profile": {"d": 10, "p": 0.1, "a": 2, "b": 0.5, "eps": 1.0},
            "eps": 1.0, "classifiers": ["glrt"],
            "sweep": {"axis": "eps_over_sigma_sq", "values": [1.0]},
        }
        for kappas in (["strong"], 0.5, [True]):
            with pytest.raises(ConfigError, match="kappas"):
                ExperimentConfig.from_dict({**raw, "kappas": kappas})

    def test_from_dict_fractional_profile_dimension(self):
        raw = {
            "profile": {"d": 20.5, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
            "sigma": 1.0, "eps": 1.0, "classifiers": ["glrt"],
            "sweep": {"axis": "kappa", "values": [0.5]},
        }
        with pytest.raises(ConfigError, match="profile: d: expected an integer"):
            ExperimentConfig.from_dict(raw)

    def test_from_dict_round_trip(self):
        raw = {
            "profile": {"d": 20, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
            "sigma": 1.0,
            "eps": 1.0,
            "classifiers": ["glrt", "minimax"],
            "attack_modes": ["agnostic"],
            "sweep": {"axis": "kappa", "values": [0.0, 1.0]},
            "trials": 1000,
            "seed": 3,
        }
        config = ExperimentConfig.from_dict(raw)
        assert config.config_hash() == ExperimentConfig.from_dict(raw).config_hash()
        assert config.classifiers == [ClassifierKind.GLRT, ClassifierKind.MINIMAX_LINEAR]

    def test_from_dict_explicit_model(self):
        raw = {
            "model": {
                "means": [[0.0, 0.0], [2.5, 0.25], [-1.75, -2.25]],
                "sigma": 0.5,
            },
            "eps": 1.0,
            "classifiers": ["glrt", "prl"],
            "attack_modes": ["agnostic", "aware"],
            "sweep": {"axis": "kappa", "values": [0.5, 1.0]},
            "trials": 1000,
            "seed": 1,
        }
        config = ExperimentConfig.from_dict(raw)
        rows = run_experiment(config).rows
        assert len(rows) == 2 * 2 * 2
        assert config.resolved_model().num_classes == 3

    def test_from_dict_unknown_field(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            ExperimentConfig.from_dict({"volume": 11})

    def test_from_dict_missing_required(self):
        with pytest.raises(ConfigError, match="required"):
            ExperimentConfig.from_dict({"eps": 1.0, "classifiers": ["glrt"],
                                        "profile": {"d": 10, "p": 0.1, "a": 2, "b": 0.5,
                                                    "eps": 1.0}})

    def test_from_dict_bad_classifier(self):
        with pytest.raises(ConfigError, match="classifiers"):
            ExperimentConfig.from_dict({
                "eps": 1.0, "classifiers": ["svm"], "sigma": 1.0,
                "profile": {"d": 10, "p": 0.1, "a": 2, "b": 0.5, "eps": 1.0},
                "sweep": {"axis": "kappa", "values": [0.5]},
            })
