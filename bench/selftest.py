"""Self-tests of the benchmark: smoke runs, and a planted wrong output per check.

    python3 bench/selftest.py

Each check must pass on the program's real output and fail on a copy of
that output with one planted fault. The smoke tests run bench/run.py for
one second per workload, untraced and traced twice, and require the
traced counts to repeat exactly. The last test runs the benchmark in a
directory without the program and requires a non-zero exit and no result.
"""

import copy
import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEED = 424242


def _set(row, key, value):
    row[key] = repr(float(value))


def _find(rows, **match):
    return next(r for r in rows if all(float(r[k]) == v if isinstance(v, float) else r[k] == v
                                       for k, v in match.items()))


# --- planted faults: each takes a deep copy of a unit's outputs and breaks it

def fig5_extra_count(rows):
    row = _find(rows, kappa=1.0, sweep_value=50.0, method="monte-carlo")
    _set(row, "error", float(row["error"]) + 0.5 / workloads.DimensionSweep.trials)


def fig5_scale_clt(rows):
    row = _find(rows, kappa=0.8, sweep_value=200.0, method="clt-analytic")
    _set(row, "error", 1.01 * float(row["error"]))


def fig5_far_mc(rows):
    row = _find(rows, kappa=1.0, sweep_value=400.0, method="monte-carlo")
    _set(row, "error", float(row["error"]) + 0.2)


def fig8_swap_modes(rows):
    # the (classifier, kappa) where the aware attack gains most over the agnostic one
    pairs = [(_find(rows, classifier=r["classifier"], attack_mode="aware",
                    kappa=float(r["kappa"])), r)
             for r in rows if r["attack_mode"] == "agnostic"]
    aware, agnostic = max(pairs, key=lambda p: float(p[0]["error"]) - float(p[1]["error"]))
    aware["error"], agnostic["error"] = agnostic["error"], aware["error"]


def fig8_shift_kappa0(rows):
    row = _find(rows, classifier="glrt", attack_mode="aware", kappa=0.0)
    _set(row, "error", float(row["error"]) + 1.0 / (3 * workloads.MulticlassSweep.trials))


def fig8_reject_above_error(rows):
    row = _find(rows, classifier="prl", attack_mode="agnostic", kappa=0.5)
    _set(row, "reject_rate", float(row["error"]) + 0.01)


def fig8_shift_recount(rows):
    row = _find(rows, classifier="min-distance", attack_mode="agnostic", kappa=1.0)
    _set(row, "error", float(row["error"]) + 1.0 / (3 * workloads.MulticlassSweep.trials))


def fig6_shift_zero_cell(rows):
    row = _find(rows, e1=0.0, e2=0.0)
    _set(row, "error", float(row["error"]) + 1.0 / workloads.AttackSurface.trials)


def fig6_raise_far_cell(rows):
    row = _find(rows, e1=1.0, e2=1.0)
    top = max(float(r["error"]) for r in rows)
    _set(row, "error", top + 0.2)


def clt_scale_sigma(outputs):
    sigma, rows = outputs[0]
    outputs[0] = (1.01 * sigma, rows)


def clt_scale_minimax(outputs):
    row = _find(outputs[3][1], classifier="minimax", kappa=0.5)
    _set(row, "error", 1.01 * float(row["error"]))


def clt_scale_glrt(outputs):
    row = _find(outputs[5][1], classifier="glrt", method="clt-analytic", kappa=1.0)
    _set(row, "error", 1.01 * float(row["error"]))


def clt_swap_dims(outputs):
    outputs[0], outputs[1] = (outputs[1][0], outputs[0][1]), (outputs[0][0], outputs[1][1])


def drop_last(outputs):
    outputs.pop()


# (workload, planted fault, checks it must fail)
PLANTED = [
    ("dimension-sweep", drop_last, ("complete",)),
    ("dimension-sweep", fig5_extra_count, ("mc-row-exact",)),
    ("dimension-sweep", fig5_scale_clt, ("clt-quadrature", "clt-hits-target")),
    ("dimension-sweep", fig5_far_mc, ("mc-near-clt",)),
    ("multiclass-sweep", drop_last, ("complete",)),
    ("multiclass-sweep", fig8_swap_modes, ("aware-ge-agnostic",)),
    ("multiclass-sweep", fig8_shift_kappa0, ("modes-equal-at-kappa-0",)),
    ("multiclass-sweep", fig8_reject_above_error, ("prl-reject-le-error",)),
    ("multiclass-sweep", fig8_shift_recount, ("numpy-recount",)),
    ("attack-surface", drop_last, ("complete",)),
    ("attack-surface", fig6_shift_zero_cell, ("cells-recount",)),
    ("attack-surface", fig6_raise_far_cell, ("max-near-heuristic",)),
    ("clt-calibration", drop_last, ("complete",)),
    ("clt-calibration", clt_scale_sigma, ("sigma-hits-target",)),
    ("clt-calibration", clt_scale_minimax, ("minimax-q-of-snr",)),
    ("clt-calibration", clt_scale_glrt, ("glrt-clt-quadrature",)),
    ("clt-calibration", clt_swap_dims, ("sigma-rises-with-d",)),
]


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


class PlantedFaults(unittest.TestCase):
    outputs = {}

    @classmethod
    def setUpClass(cls):
        for name, workload in workloads.WORKLOADS.items():
            out = SCRATCH / name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            assert workload.run(SEED, out) == 0, name
            cls.outputs[name] = workload.read(out)

    def test_checks_pass_on_program_output(self):
        for name, workload in workloads.WORKLOADS.items():
            verdicts = workload.check(self.outputs[name], SEED)
            self.assertEqual(set(verdicts), set(workload.checks))
            self.assertEqual({k: v for k, v in verdicts.items() if v}, {}, name)

    def test_every_check_has_a_planted_fault(self):
        for name, workload in workloads.WORKLOADS.items():
            covered = {c for w, _, checks in PLANTED if w == name for c in checks}
            self.assertEqual(covered, set(workload.checks), name)

    def test_planted_faults_fail_their_checks(self):
        for name, plant, checks in PLANTED:
            with self.subTest(workload=name, fault=plant.__name__):
                broken = copy.deepcopy(self.outputs[name])
                plant(broken)
                verdicts = workloads.WORKLOADS[name].check(broken, SEED)
                for check in checks:
                    self.assertIsNotNone(verdicts[check], f"{plant.__name__} passed {check}")


class SmokeRuns(unittest.TestCase):
    def test_each_workload_runs_and_traced_counts_repeat(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                plain = _run_bench("--workload", name, "--seed", "3", "--seconds", "1")
                self.assertEqual(plain.returncode, 0, plain.stderr)
                result = json.loads(plain.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {"setup_s", "unit_s", "peak_rss_mb"})
                traced = []
                for _ in range(2):
                    run = _run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                     "--trace", "1")
                    self.assertEqual(run.returncode, 0, run.stderr)
                    traced.append(json.loads(run.stdout.splitlines()[-1])["metrics"])
                counts = [{k: m["value"] for k, m in t.items() if m["unit"] == "count"}
                          for t in traced]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(sum(counts[0].values()), 0)

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        run = _run_bench("--workload", "dimension-sweep", "--seed", "1", "--seconds", "1",
                         cwd=bare)
        self.assertNotEqual(run.returncode, 0)
        self.assertNotIn("metrics", run.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
