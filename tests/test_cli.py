import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import robustht.attacks
import robustht.engine
from robustht import cli

CLI = [sys.executable, "-m", "robustht.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600, **kwargs
    )


class TestReproduce:
    def test_fig6_repeat_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            r = run_cli("reproduce", "fig6", "--seed", "7", "--trials", "2000",
                        "--out", str(out))
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fig6_surface_format(self, tmp_path):
        out = tmp_path / "fig6.csv"
        r = run_cli("reproduce", "fig6", "--seed", "1", "--trials", "500",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "e1,e2,error"
        assert len(lines) == 1 + 41 * 41
        meta = json.loads((tmp_path / "fig6.csv.meta.json").read_text())
        assert meta["trials"] == 500
        assert meta["eps"] == 1.0
        assert len(meta["argmax_attack"]) == 2

    def test_fig3_rows_and_sidecar(self, tmp_path):
        out = tmp_path / "fig3.csv"
        r = run_cli("reproduce", "fig3", "--seed", "2", "--trials", "2000",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ("sweep_axis,sweep_value,classifier,attack_mode,kappa,"
                            "error,ci,reject_rate,method,seed")
        assert len(lines) == 1 + 11 * 3  # 11 kappas x 3 classifiers
        meta = json.loads((tmp_path / "fig3.csv.meta.json").read_text())
        assert meta["configs"][0]["config_hash"]

    def test_fig2_moment_table(self, tmp_path):
        out = tmp_path / "fig2.csv"
        r = run_cli("reproduce", "fig2", "--trials", "20000", "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0].startswith("mu,c_mean_exact,c_var_exact")
        assert len(lines) == 1 + 13  # mu grid 0:0.25:3

    @pytest.mark.parametrize("figure", ["fig2", "fig8"])
    def test_zero_trials_rejected(self, tmp_path, figure):
        out = tmp_path / "out.csv"
        r = run_cli("reproduce", figure, "--trials", "0", "--out", str(out))
        assert r.returncode == 1
        err = json.loads(r.stderr.splitlines()[-1])
        assert err["error"] == "validation"
        assert "trials" in err["message"]
        # nothing past a header was written
        assert not out.exists() or len(out.read_text().splitlines()) <= 1

    def test_unknown_figure_rejected(self):
        r = run_cli("reproduce", "fig9")
        assert r.returncode == 2  # argparse exits with its own code


class TestSimulate:
    def config(self, tmp_path):
        raw = {
            "profile": {"d": 20, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
            "sigma": 1.0,
            "eps": 1.0,
            "classifiers": ["glrt", "minimax"],
            "attack_modes": ["agnostic"],
            "sweep": {"axis": "kappa", "values": [0.0, 1.0]},
            "trials": 2000,
            "seed": 3,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return path

    def test_runs_and_writes_outputs(self, tmp_path):
        out = tmp_path / "run.csv"
        r = run_cli("simulate", str(self.config(tmp_path)), "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4
        meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
        assert meta["trials"] == 2000

    def test_stdout_when_no_out(self, tmp_path):
        r = run_cli("simulate", str(self.config(tmp_path)))
        assert r.returncode == 0
        assert r.stdout.startswith("sweep_axis,")

    def test_json_format(self, tmp_path):
        r = run_cli("simulate", str(self.config(tmp_path)), "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert len(payload["rows"]) == 4

    def test_trials_override(self, tmp_path):
        r = run_cli("simulate", str(self.config(tmp_path)), "--trials", "100",
                    "--format", "json")
        payload = json.loads(r.stdout)
        assert payload["metadata"]["trials"] == 100

    def test_seed_zero_overrides_config_seed(self, tmp_path):
        path = self.config(tmp_path)
        raw = json.loads(path.read_text())
        path.write_text(json.dumps({**raw, "seed": 5}))
        r = run_cli("simulate", str(path), "--seed", "0")
        assert r.returncode == 0, r.stderr
        rows = r.stdout.splitlines()[1:]
        assert rows and all(row.endswith(",0") for row in rows)

    def test_validation_failure_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eps": 1.0, "classifiers": ["svm"]}))
        r = run_cli("simulate", str(path))
        assert r.returncode == 1
        err = json.loads(r.stderr.splitlines()[-1])
        assert err["error"] == "validation"

    def test_missing_file_is_runtime_failure(self):
        r = run_cli("simulate", "/nonexistent/config.json")
        assert r.returncode == 2
        err = json.loads(r.stderr.splitlines()[-1])
        assert err["error"] == "runtime"


class TestNNClass:
    def test_ternary_table(self):
        r = run_cli("nn-class", "--model", "ternary-2d", "--eps", "1.0")
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[0] == "classifier,true_class,nn_class,score,degenerate"
        glrt_row_0 = next(l for l in lines if l.startswith("glrt,0,"))
        assert glrt_row_0 == "glrt,0,2,0.015625,false"

    def test_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "means": [[0.0, 0.0], [2.5, 0.25], [-1.75, -2.25]],
            "sigma": 0.31622776601683794,
        }))
        r = run_cli("nn-class", "--model", str(path), "--eps", "1.0")
        assert r.returncode == 0
        assert "glrt,0,2," in r.stdout

    def test_unknown_builtin(self):
        r = run_cli("nn-class", "--model", "ternary-9d", "--eps", "1.0")
        assert r.returncode == 1


class TestPredict:
    def test_overdriven_attack_gives_half(self):
        r = run_cli("predict", "--d", "10", "--p", "0.1", "--a", "2.0", "--b", "0.5",
                    "--eps", "1.0", "--sigma", "0.5", "--kappa", "2.0")
        assert r.returncode == 0, r.stderr
        rows = [l.split(",") for l in r.stdout.splitlines()[1:]]
        minimax = [row for row in rows if row[2] == "minimax"]
        assert len(minimax) == 1
        assert float(minimax[0][5]) == 0.5
        # kappa beyond the budget: no glrt estimate is defined
        assert not any(row[2] == "glrt" for row in rows)

    def test_in_budget_prediction_rows(self):
        r = run_cli("predict", "--d", "10", "--p", "0.1", "--a", "2.0", "--b", "0.5",
                    "--eps", "1.0", "--sigma", "0.5", "--kappa", "1.0,0.5")
        assert r.returncode == 0
        rows = [l.split(",") for l in r.stdout.splitlines()[1:]]
        methods = {(row[2], row[8]) for row in rows}
        assert ("minimax", "q-of-snr") in methods
        assert ("glrt", "clt-analytic") in methods
        assert ("glrt", "clt-lower-bound") in methods


class TestSigmaSearch:
    def test_analytic_search(self):
        r = run_cli("sigma-search", "--d", "50", "--p", "0.3", "--a", "1.1",
                    "--b", "0.9", "--eps", "1.0", "--kappa", "1.0",
                    "--target", "0.0126736593387")
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["sigma"] == pytest.approx(0.1068, abs=2e-3)

    def test_invalid_target(self):
        r = run_cli("sigma-search", "--d", "50", "--p", "0.3", "--a", "1.1",
                    "--b", "0.9", "--eps", "1.0", "--kappa", "1.0",
                    "--target", "0.9")
        assert r.returncode == 1


class TestAttackSurface:
    def test_builtin_model_surface(self, tmp_path):
        out = tmp_path / "surf.csv"
        r = run_cli("attack-surface", "--model", "ternary-2d", "--classifier", "prl",
                    "--true-class", "0", "--eps", "1.0", "--grid", "5",
                    "--trials", "400", "--out", str(out))
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "e1,e2,error"
        assert len(lines) == 1 + 25

    def test_too_many_dimensions(self, tmp_path):
        path = tmp_path / "model.json"
        means = np.stack([np.zeros(4), np.ones(4)])
        path.write_text(json.dumps({"means": means.tolist(), "sigma": 1.0}))
        r = run_cli("attack-surface", "--model", str(path), "--eps", "0.5")
        assert r.returncode == 1
        err = json.loads(r.stderr.splitlines()[-1])
        assert "d <= 3" in err["message"]


# SHA-256 of (output CSV, .meta.json sidecar) at --seed 7, recorded with
# numpy 2.4.6 before the sweep driver and the row writer were unified.
# A refactor keeps these bytes; a change that alters them on purpose
# records which stream or rounding moved and why, then updates them here.
CONTRACT_NUMPY = "2.4.6"
CONTRACT = {
    ("reproduce", "fig2", "--trials", "20000"): (
        "a5f115cea8bf37e63dd863ec8f95b9e79676dc85a2ef0e5ae018431d0e793076",
        "5b859ec84abd79f9bdbb6218acf4159f58d9fb73a274143381c2dcdda8efc57a"),
    ("reproduce", "fig3", "--trials", "10000"): (
        "9407fe5a6e7f9113ce9b92b9bda380cde2406b46f41914174066c288c743a53b",
        "18831eb9ae04bfda3678202c1d24ece3c2e3b8efd4c7bc9fcf24631584c5a182"),
    ("reproduce", "fig4", "--trials", "3000"): (
        "f4edb482e433150b525a29ef54261ba09463c9055428bc12b7b385bbe843e7ec",
        "2b963c004b5a4b0e1da8e9ee07d551bb88d9c28dd8e635eb4b96f75c0c6efaed"),
    ("reproduce", "fig5", "--trials", "3000"): (
        "e11ef89b9398722c10bc32626fccf18ccc0376d4480343d500843c9507488c3b",
        "372f15e70493388741d66e661af06afefd2a49e8b0359e146b64cca110cfe6d4"),
    ("reproduce", "fig6", "--trials", "300"): (
        "ba1a9006ecae8c8d213fdda346e61b655253b31329da7f561a993a68034d8789",
        "1ebc1833c0d9c58af163c3f91bf7a28d3b2537a83739c9c1a876479f73d64822"),
    ("reproduce", "fig7", "--trials", "300"): (
        "b3a0086d13269fe0f1cf17e19750aa6f203d776d0caf89253e46920600c09089",
        "719a73f7b4414a506bf9b06bcf781db93930d12b9918e1475d2ec9dcd36455f5"),
    ("reproduce", "fig8", "--trials", "2000"): (
        "90992f6af09c4244442f9f62dcea3e74776106d49f3ec646a062aae4d3df9a87",
        "c4c5bb5a8c56dbb95bd39db002d00b00330e60d933729e271ab2ff5963bbacef"),
    ("predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
     "--sigma", "1", "--kappa", "0,0.5,1,1.5"): (
        "52cc12d01364167089f816c74cd8fb12f8d7c27299e2fd1f2dc81343536eb3d6",
        "bbdbd0bcb42b75fce3e1a6a6db82e77857bfae0e998594b4af604c4b4ce3da55"),
}


def test_behaviour_contract_digests(tmp_path):
    changed = []
    for i, (argv, expected) in enumerate(CONTRACT.items()):
        out = tmp_path / f"{i}.csv"
        assert cli.main([*argv, "--seed", "7", "--out", str(out)]) == 0, argv
        side = tmp_path / f"{i}.csv.meta.json"
        got = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (out, side))
        if got != expected:
            changed.append(" ".join(argv))
    assert not changed, (
        f"output bytes differ from the recorded contract (recorded with numpy "
        f"{CONTRACT_NUMPY}, running {np.__version__}): {changed}")


class TestSubcommandFlags:
    PROFILE = ["--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1"]

    @pytest.mark.parametrize("argv", [
        ["nn-class", "--model", "ternary-2d", "--eps", "1", "--format", "json"],
        ["nn-class", "--model", "ternary-2d", "--eps", "1", "--seed", "1"],
        ["nn-class", "--model", "ternary-2d", "--eps", "1", "--trials", "10"],
        ["nn-class", "--model", "ternary-2d", "--eps", "1", "--threads", "2"],
        ["predict", *PROFILE, "--sigma", "1", "--trials", "10"],
        ["predict", *PROFILE, "--sigma", "1", "--threads", "2"],
        ["sigma-search", *PROFILE, "--kappa", "1", "--target", "0.05", "--format", "csv"],
        ["sigma-search", *PROFILE, "--kappa", "1", "--target", "0.05", "--threads", "2"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_unread_flag_rejected(self, argv, capsys):
        assert cli.main(argv) == 2
        assert argv[-2] in capsys.readouterr().err


def _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv) -> str:
    """Run argv with --out and return its validation message, asserting exit 1,
    no noise draw and no output file."""
    out = tmp_path / "out.csv"
    draws = []
    for module in (robustht.engine, robustht.attacks):
        real = module.noise_block
        monkeypatch.setattr(module, "noise_block",
                            lambda *args, real=real: draws.append(args) or real(*args))
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "validation"
    assert draws == []
    assert not out.exists()
    return err["message"]


def test_fixed_attack_mode_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    path = tmp_path / "fixed.json"
    path.write_text(json.dumps({
        "profile": {"d": 20, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
        "eps": 1.0,
        "classifiers": ["glrt"],
        "attack_modes": ["fixed"],
        "sweep": {"axis": "dimension", "values": [20, 40]},
        "target_error": 0.1,
        "calibration_method": "monte-carlo",
        "trials": 2000,
    }))
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, ["simulate", str(path)])
    assert "attack_modes" in message


_TERNARY_KAPPA_CONFIG = {
    "model": {"means": [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]], "sigma": 0.3},
    "eps": 0.5,
    "classifiers": ["glrt"],
    "attack_modes": ["agnostic"],
    "sweep": {"axis": "kappa", "values": [0.0, 0.5]},
    "trials": 2000,
}
_DIMENSION_CONFIG = {
    "profile": {"d": 20, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
    "eps": 1.0,
    "classifiers": ["glrt"],
    "attack_modes": ["agnostic"],
    "sweep": {"axis": "dimension", "values": [20, 40]},
    "target_error": 0.1,
    "calibration_method": "monte-carlo",
    "trials": 2000,
}


@pytest.mark.parametrize("true_class", [5, -1])
@pytest.mark.parametrize("config", [_TERNARY_KAPPA_CONFIG, _DIMENSION_CONFIG],
                         ids=["kappa", "dimension"])
def test_true_class_out_of_range_rejected_before_sampling(
    tmp_path, monkeypatch, capsys, config, true_class
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "true_class": true_class}))
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, ["simulate", str(path)])
    assert "true_class" in message


@pytest.mark.parametrize("field, patch", [
    ("sweep.values", {"eps": 1.0, "sweep": {"axis": "kappa", "values": [1.5]}}),
    ("sweep.values", {"sweep": {"axis": "kappa", "values": ["x"]}}),
    ("eps", {"eps": "abc"}),
    ("seed", {"seed": "s"}),
    ("seed", {"seed": 1.5}),
    ("trials", {"trials": 2.7}),
    ("true_class", {"true_class": 0.5}),
], ids=["kappa-above-eps", "value-not-number", "eps-string", "seed-string",
        "seed-fraction", "trials-fraction", "true-class-fraction"])
def test_malformed_config_value_names_field(tmp_path, monkeypatch, capsys, field, patch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_TERNARY_KAPPA_CONFIG, **patch}))
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, ["simulate", str(path)])
    assert message.startswith(f"{field}:")


_SURFACE = ["attack-surface", "--model", "ternary-2d", "--eps", "1", "--trials", "100"]


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [["reproduce", "fig8", "--trials", "100"], _SURFACE],
                         ids=["reproduce", "attack-surface"])
def test_nonpositive_threads_rejected_before_sampling(tmp_path, monkeypatch, capsys,
                                                      argv, threads):
    argv = [*argv, "--threads", threads]
    assert _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv).startswith("threads:")


@pytest.mark.parametrize("true_class", ["5", "-1"])
def test_surface_true_class_out_of_range_names_field(tmp_path, monkeypatch, capsys,
                                                     true_class):
    argv = [*_SURFACE, "--true-class", true_class]
    assert _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv).startswith("true_class:")


def test_predict_zero_eps_rejected_before_output(tmp_path, monkeypatch, capsys):
    # eps = 0 would put both means of the two-level profile at 0
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, [
        "predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "0",
        "--sigma", "1"])
    assert "eps must be > 0" in message


def test_model_file_without_sigma_names_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"means": [[0.0, 0.0], [2.5, 0.25]]}))
    assert cli.main(["attack-surface", "--model", str(path), "--eps", "1"]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "validation"
    assert err["message"].startswith("model:")


def test_dimension_sweep_with_other_eps_than_profile_rejected(tmp_path, monkeypatch, capsys):
    # sigma is calibrated at profile.eps, so another eps would simulate a different problem
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_DIMENSION_CONFIG,
                                "profile": {**_DIMENSION_CONFIG["profile"], "eps": 2.0}}))
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, ["simulate", str(path)])
    assert message.startswith("eps:")


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_surface_nonpositive_grid_names_field(tmp_path, monkeypatch, capsys, grid):
    argv = [*_SURFACE, "--grid", grid]
    assert _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv).startswith("grid:")


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # one process, one parser: each call must print what it prints as a process's first call
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**_TERNARY_KAPPA_CONFIG, "seed": 11}))
    calls = [
        ["reproduce", "fig3", "--seed", "5", "--trials", "2000"],
        ["simulate", str(config)],
        ["predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
         "--sigma", "0.4", "--kappa", "0,1"],
        ["simulate", "--help"],
        ["predict", "--d", "twenty"],
        ["simulate", str(config)],
    ]
    outputs = []
    for argv in calls:
        code = cli.main(argv)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    for argv, got in zip(calls, outputs):
        fresh = run_cli(*argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert outputs[3][0] == 0 and "usage: robustht simulate" in outputs[3][1]
    assert outputs[4][0] == 2 and "--d: invalid int value" in outputs[4][2]
    seeds = {row.split(",")[-1] for row in outputs[1][1].splitlines()[1:]}
    assert seeds == {"11"}
    assert outputs[5] == outputs[1]
