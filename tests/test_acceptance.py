"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them live).

Each quantitative clause asserts what the mathematics promises and no
more: criterion 4 checks that the exact cost-difference moments approach
the lower-bound curves as the coordinate mean grows, and criterion 5 checks
the GLRT/minimax trade-off against the minimax rule's exact error at full
attack strength. Every criterion is expected to pass; a failure is a
regression.
"""

import math
import subprocess
import sys
import time

import numpy as np

from robustht.analysis import (
    clt_error,
    cost_difference_moments,
    error_from_snr,
    low_noise_thresholds,
    moment_study,
    sigma_for_target_error,
    snr_minimax,
    y_bound_moments,
)
from robustht.attacks import (
    binary_sign_attack,
    brute_force_attack_oracle,
    heuristic_agnostic_attack,
    nn_class_glrt,
    noise_aware_attack,
)
from robustht.classifiers import (
    ClassifierKind,
    GlrtClassifier,
    MinDistanceClassifier,
    build_classifier,
)
from robustht.configs import ternary_2d_model, ternary_20d_model
from robustht.engine import ExperimentConfig, monte_carlo_error, run_experiment
from robustht.model import AttackMode, AttackSpec, HypothesisModel, TwoLevelProfile


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {criterion}: {status} - {detail}")
    return ok


def test_criterion_01_sign_attack_is_grid_optimum():
    """Brute-force oracle vs closed-form sign attack on random binary
    instances at desk scale."""
    start = time.time()
    rng = np.random.default_rng(20240)
    worst = -np.inf
    for i in range(20):
        d = i % 3 + 1
        mu0 = rng.normal(scale=1.2, size=d)
        mu1 = rng.normal(scale=1.2, size=d)
        while np.allclose(mu0, mu1):
            mu1 = rng.normal(scale=1.2, size=d)
        sigma = float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
        model = HypothesisModel(means=np.stack([mu0, mu1]), sigma=sigma)
        clf = GlrtClassifier(model, eps=1.0)
        trials = 10_000
        surf = brute_force_attack_oracle(
            model, clf, 0, eps=1.0, grid_points_per_axis=41,
            trials=trials, seed=1000 + i,
        )
        sign_vec = binary_sign_attack(model, 0, 1, 1.0)
        sign_est = monte_carlo_error(
            model, clf,
            AttackSpec(budget=1.0, mode=AttackMode.FIXED_VECTOR, vector=sign_vec),
            true_class=0, trials=trials, seed=1000 + i,
        )
        diff = surf.max_error - sign_est.value
        p = surf.max_error
        se_oracle = math.sqrt(p * (1 - p) / trials)
        se_comb = math.sqrt(se_oracle**2 + (sign_est.ci_halfwidth / 1.96) ** 2)
        worst = max(worst, diff)
        assert diff <= 0 or diff < 2 * se_comb, (
            f"instance {i}: oracle max {surf.max_error} exceeds sign-attack "
            f"error {sign_est.value} by {diff} (> 2 SE = {2 * se_comb})"
        )
    elapsed = time.time() - start
    ok = elapsed <= 300
    report(1, ok, f"20 instances, worst (max - sign) = {worst:.2e}, {elapsed:.0f}s")
    assert ok, f"runtime {elapsed:.0f}s exceeds 5 minutes"


def test_criterion_02_cost_difference_monotonicity():
    """1e6 random tuples: cost difference ordered with the attack."""
    rng = np.random.default_rng(71)
    n = 1_000_000
    mu = rng.uniform(-3.0, 3.0, n)
    sigma = rng.uniform(0.2, 2.0, n)
    noise = sigma * rng.standard_normal(n)
    eps = rng.uniform(0.0, 2.0, n)
    e1 = rng.uniform(-eps, eps)
    e2 = rng.uniform(-eps, eps)
    hi, lo = np.maximum(e1, e2), np.minimum(e1, e2)

    # eps varies per tuple, so evaluate the defining expression directly
    def cost(e):
        wrong = np.maximum(0.0, np.abs(2 * mu + e + noise) - eps)
        true = np.maximum(0.0, np.abs(e + noise) - eps)
        return wrong * wrong - true * true

    c_hi, c_lo = cost(hi), cost(lo)
    pos = mu >= 0
    violations = int(np.sum(c_hi[pos] < c_lo[pos] - 1e-12))
    violations += int(np.sum(c_hi[~pos] > c_lo[~pos] + 1e-12))
    report(2, violations == 0, f"{n} tuples, {violations} violations beyond 1e-12")
    assert violations == 0


def test_criterion_03_y_bound_closed_forms():
    """Closed-form moments of the lower-bounding variable vs sampling."""
    exact = y_bound_moments(1.0, 1.0, 1.0, 1.0)  # t = 0, sigma = 1
    assert exact.mean == -0.5 and exact.variance == 1.25
    rng = np.random.default_rng(12)
    n = 1_000_000
    eps = kappa = 3.0
    worst_z = 0.0
    for t in (-4.0, -2.0, 0.0, 1.0, 2.0, 4.0, 8.0):
        mu = (t + eps + kappa) / 2
        m = y_bound_moments(mu, eps, kappa, 1.0)
        noise = rng.standard_normal(n)
        y = np.where(noise >= -t, (t + noise) ** 2 - noise**2, -(noise**2))
        se_mean = y.std() / math.sqrt(n)
        z_mean = abs(y.mean() - m.mean) / se_mean
        centered = y - y.mean()
        se_var = math.sqrt(max((centered**4).mean() - centered.var() ** 2, 0.0) / n)
        z_var = abs(y.var() - m.variance) / se_var
        worst_z = max(worst_z, z_mean, z_var)
        assert z_mean < 4, f"t={t}: mean off by {z_mean:.2f} SE"
        assert z_var < 4, f"t={t}: variance off by {z_var:.2f} SE"
    report(3, True, f"t/sigma grid, exact (-0.5, 1.25) at t=0, worst |z| = {worst_z:.2f}")


def test_criterion_04_moment_curves_and_convergence():
    """Exact vs empirical cost-difference moments, and their approach to
    the lower-bound curves at the strong end of the mean grid."""
    mus = np.round(np.arange(0.0, 3.0 + 1e-9, 0.25), 10)
    rows = moment_study(mus, eps=1.0, kappa=1.0, sigma=1.0,
                        trials=1_000_000, seed=2024)
    agree = True
    for row in rows:
        agree &= abs(row["c_mean_exact"] - row["c_mean_mc"]) <= 4 * row["c_mean_se"]
        agree &= abs(row["c_var_exact"] - row["c_var_mc"]) <= 4 * row["c_var_se"]
    clause_a = report(4, agree, "exact vs empirical moments within 4 SE on [0, 3]")

    # Y bounds C from below, and the approach is slow: E[C] - E[Y] is a
    # constant while Var C - Var Y grows linearly in mu, so the relative mean
    # gap falls like 1/mu^2 and the relative variance gap only like 1/mu.
    def rel_gap(value, bound):
        return abs(value - bound) / abs(bound)

    strong = [row for row in rows if row["mu"] >= 2.5]
    below = [
        (row["mu"], key) for row in strong
        for key in ("c_mean_exact", "c_mean_mc") if row[key] < row["y_mean"]
    ]
    gaps = {
        value_key: [rel_gap(row[value_key], row[bound_key]) for row in strong]
        for value_key, bound_key in (
            ("c_mean_exact", "y_mean"), ("c_mean_mc", "y_mean"),
            ("c_var_exact", "y_var"), ("c_var_mc", "y_var"),
        )
    }
    stalled = [
        key for key, seq in gaps.items()
        if not all(a > b for a, b in zip(seq, seq[1:]))
    ]

    def exact_gaps(mu):
        c = cost_difference_moments(mu, 1.0, 1.0, 1.0)
        y = y_bound_moments(mu, 1.0, 1.0, 1.0)
        return rel_gap(c.mean, y.mean), rel_gap(c.variance, y.variance)

    far_mean = {mu: exact_gaps(mu)[0] for mu in (2.75, 3.0)}
    far_var = exact_gaps(10.0)[1]
    within = all(g < 0.05 for g in far_mean.values()) and far_var < 0.05

    mus_strong = ", ".join(str(row["mu"]) for row in strong)
    detail = (
        f"gaps at mu = {mus_strong}: "
        + "; ".join(
            f"{key} " + "/".join(f"{g:.1%}" for g in seq)
            for key, seq in gaps.items()
        )
        + "; exact mean gap "
        + ", ".join(f"{g:.2%} at mu={mu}" for mu, g in far_mean.items())
        + f"; exact variance gap {far_var:.2%} at mu=10"
    )
    report(
        4, not below and not stalled and within,
        f"approach to the lower bound: {detail}",
    )
    assert clause_a, "moment agreement failed"
    assert not below, f"C mean below the lower bound Y at (mu, estimate): {below}"
    assert not stalled, (
        f"relative gap to the lower bound does not shrink with mu for {stalled}: "
        + detail
    )
    assert within, (
        "exact relative gap not below 5% (mean at mu = 2.75 and 3, variance "
        "at mu = 10): " + detail
    )


def test_criterion_05_tradeoff_ordering():
    """Soft-threshold rule vs robust linear rule across attack strengths."""
    start = time.time()
    config = ExperimentConfig(
        profile=TwoLevelProfile(d=20, p=0.1, a=1.1, b=0.9, eps=1.0),
        sigma=1.0,
        eps=1.0,
        classifiers=[ClassifierKind.GLRT, ClassifierKind.MINIMAX_LINEAR],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC],
        sweep_axis="kappa",
        sweep_values=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        trials=100_000,
        seed=314,
    )
    result = run_experiment(config)
    elapsed = time.time() - start
    table = {}
    for row in result.rows:
        table[(row["sweep_value"], row["classifier"])] = (row["error"], row["ci"])
    ordered = True
    for kappa in (0.0, 0.2, 0.4, 0.6, 0.8):
        g, _ = table[(kappa, "glrt")]
        m, _ = table[(kappa, "minimax")]
        ordered &= g <= m
    clause_a = report(
        5, ordered and elapsed <= 120,
        f"glrt <= minimax at kappa in 0..0.8, runtime {elapsed:.0f}s",
    )
    # The minimax rule is linear in the noise, so its error under the sign
    # attack is exactly Q(sqrt(snr)). It is optimal against the worst-case
    # attack, and the sign attack is the GLRT's worst case (criterion 1), so
    # at full strength the GLRT cannot beat it.
    g1, ci_g = table[(1.0, "glrt")]
    m1, ci_m = table[(1.0, "minimax")]
    m_exact = error_from_snr(snr_minimax(20, 0.1, 1.1, 1.0, 1.0, 1.0))
    joint = math.sqrt(ci_g**2 + ci_m**2)
    minimax_ok = abs(m1 - m_exact) <= 3 * ci_m
    endpoint_ok = g1 >= m1 - 3 * joint
    report(
        5, minimax_ok and endpoint_ok,
        f"full attack: minimax={m1:.4f} exact={m_exact:.4f} 3*CI={3 * ci_m:.4f}; "
        f"glrt={g1:.4f} >= minimax - 3*joint CI={m1 - 3 * joint:.4f}",
    )
    assert clause_a, "ordering clause failed"
    assert minimax_ok, (
        f"minimax error at full attack strength {m1:.4f} is more than 3 CI "
        f"({3 * ci_m:.4f}) from its exact value Q(sqrt(snr)) = {m_exact:.4f}"
    )
    assert endpoint_ok, (
        f"at full attack strength glrt={g1:.4f} falls below minimax={m1:.4f} "
        f"by more than 3 joint CI ({3 * joint:.4f})"
    )


def test_criterion_06_naive_detector_collapse():
    """Past the norm-ratio threshold the nearest-mean rule errs at least
    half the time under the full sign attack."""
    profile = TwoLevelProfile(d=10, p=0.1, a=2.0, b=0.5, eps=1.0)
    model = profile.to_model(0.5)  # sigma^2 = 0.25
    _, md_threshold = low_noise_thresholds(model)
    assert md_threshold == 6.25 / 6.5 < 1.0
    est = monte_carlo_error(
        model, MinDistanceClassifier(model),
        AttackSpec(budget=1.0, strength=1.0,
                   mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
        true_class=0, trials=100_000, seed=9,
    )
    ok = est.value >= 0.5 and est.ci_halfwidth <= 5e-3
    report(6, ok, f"threshold {md_threshold:.4f} < 1, error {est.value:.4f} "
                  f"(ci {est.ci_halfwidth:.4f})")
    assert est.value >= 0.5
    assert est.ci_halfwidth <= 5e-3


def test_criterion_07_clt_convergence_with_dimension():
    """The analytic error estimate tightens as the dimension grows."""
    results = []
    for kappa, snr in ((1.0, 5.0), (0.8, 8.0)):
        target = error_from_snr(snr)
        gaps = {}
        for d in (50, 400):
            profile = TwoLevelProfile(d=d, p=0.3, a=1.1, b=0.9, eps=1.0)
            sigma = sigma_for_target_error(profile, kappa, target)
            model = profile.to_model(sigma)
            pred = clt_error(model, 1.0, kappa).value
            est = monte_carlo_error(
                model, GlrtClassifier(model, 1.0),
                AttackSpec(budget=1.0, strength=kappa,
                           mode=AttackMode.NOISE_AGNOSTIC_HEURISTIC),
                true_class=0, trials=1_000_000, seed=42, threads=2,
            )
            gaps[d] = abs(pred - est.value)
        results.append((kappa, target, gaps[50], gaps[400]))
        assert gaps[400] < gaps[50] / 2, (
            f"kappa={kappa}: gap at d=400 ({gaps[400]:.2e}) not below half "
            f"the gap at d=50 ({gaps[50]:.2e})"
        )
    detail = "; ".join(
        f"kappa={k} target={t:.4g}: gap {g50:.2e} -> {g400:.2e}"
        for k, t, g50, g400 in results
    )
    report(7, True, detail)


def test_criterion_08_ternary_nearest_neighbor_and_surface():
    """Nearest-neighbor class, heuristic attack vector, and grid argmax on
    the two-dimensional ternary instance."""
    model = ternary_2d_model(sigma_sq=0.1)
    sel = nn_class_glrt(model, 0, eps=1.0, kappa=1.0)
    assert sel.target == 2
    assert sel.scores[1] == 0.0625
    assert sel.scores[2] == 0.015625
    res = heuristic_agnostic_attack(model, ClassifierKind.GLRT, 0, 1.0, 1.0)
    np.testing.assert_array_equal(res.vector, np.array([-1.0, -1.0]))
    surf = brute_force_attack_oracle(
        model, GlrtClassifier(model, 1.0), 0, eps=1.0,
        grid_points_per_axis=41, trials=10_000, seed=88,
    )
    cell = 2.0 / 40
    off = np.max(np.abs(surf.argmax_attack - np.array([-1.0, -1.0])))
    ok = off <= cell + 1e-12
    report(8, ok, f"scores (0.0625, 0.015625), attack [-1, -1], "
                  f"surface argmax {surf.argmax_attack} within one cell")
    assert ok


def test_criterion_09_noise_aware_dominance():
    """Noise-aware attacks dominate agnostic ones pointwise, and feasible
    attacks replay as misclassifications."""
    model = ternary_20d_model(sigma_sq=0.1)
    config = ExperimentConfig(
        model=model,
        eps=1.0,
        classifiers=[ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR,
                     ClassifierKind.MIN_DISTANCE],
        attack_modes=[AttackMode.NOISE_AGNOSTIC_HEURISTIC,
                      AttackMode.NOISE_AWARE_OPTIMAL],
        sweep_axis="kappa",
        sweep_values=[0.25, 0.5, 0.75, 1.0],
        trials=20_000,
        seed=77,
    )
    result = run_experiment(config)
    table = {}
    for row in result.rows:
        table[(row["sweep_value"], row["classifier"], row["attack_mode"])] = row["error"]
    for kappa in (0.25, 0.5, 0.75, 1.0):
        for kind in ("glrt", "prl", "min-distance"):
            aware = table[(kappa, kind, "aware")]
            agn = table[(kappa, kind, "agnostic")]
            assert aware >= agn, (
                f"{kind} at kappa={kappa}: aware {aware} < agnostic {agn}"
            )

    rng = np.random.default_rng(5)
    replayed = 0
    for kind in (ClassifierKind.GLRT, ClassifierKind.PAIRWISE_ROBUST_LINEAR,
                 ClassifierKind.MIN_DISTANCE):
        clf = build_classifier(kind, model, 1.0)
        for _ in range(200):
            j = int(rng.integers(0, 3))
            noise = model.sigma * rng.standard_normal(model.dim)
            res = noise_aware_attack(model, clf, noise, j, 1.0)
            if res.feasible:
                replayed += 1
                label = int(clf.decide_batch(model.means[j] + res.vector + noise)[0])
                assert label != j
    report(9, True, f"aware >= agnostic at all 12 cells; "
                    f"{replayed} feasible attacks replayed as errors")


def test_criterion_10_thread_count_determinism(tmp_path):
    """Identical bytes from the surface reproduction at 1 and 8 threads."""
    outputs = []
    for threads in (1, 8):
        out = tmp_path / f"fig6_t{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "robustht.cli", "reproduce", "fig6",
             "--seed", "7", "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(),
                        (tmp_path / f"fig6_t{threads}.csv.meta.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    report(10, ok, "reproduce fig6 --seed 7: threads 1 and 8 byte-identical")
    assert ok
