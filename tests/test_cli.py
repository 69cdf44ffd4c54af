import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest
from conftest import PEAK_KB

import robustht.analysis
import robustht.attacks
import robustht.engine
from robustht import cli
from robustht.rng import BLOCK_SIZE

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

    def test_fig2_threads_reach_the_block_sum(self, tmp_path, monkeypatch):
        # --threads runs each mean's blocks on a pool and leaves fig2's bytes alone
        seen = []
        real = robustht.analysis.sum_over_blocks
        monkeypatch.setattr(robustht.analysis, "sum_over_blocks",
                            lambda trials, count, threads=1:
                            seen.append(threads) or real(trials, count, threads))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"fig2-{threads}.csv"
            assert cli.main(["reproduce", "fig2", "--trials", "20000", "--seed", "3",
                             "--threads", threads, "--out", str(out)]) == 0
            outs.append((out.read_bytes(), (tmp_path / f"{out.name}.meta.json").read_bytes()))
        assert outs[0] == outs[1]
        assert seen == [1] * 13 + [2] * 13  # one block sum per mean of the 13-point grid

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

    @pytest.mark.parametrize("figure", ["fig6", "fig7"])
    def test_surface_peak_memory_is_bounded(self, tmp_path, figure):
        # the grid oracle counts each block in spans of rows whose largest table
        # holds about 2^18 values, never a whole block's tables or a
        # (grid x trials, d) tensor: fig6 grows by about 6 MB (9 MB on two
        # workers), where whole-block tables would take 26 MB
        probe = PEAK_KB + (
            "import sys\n"
            "from robustht import cli\n"
            "before = peak_kb()\n"
            "code = cli.main(['reproduce', sys.argv[1], '--seed', '7', '--threads', sys.argv[2],"
            " '--out', sys.argv[3]])\n"
            "print(code, peak_kb() - before)\n"
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out-{threads}.csv"
            r = subprocess.run([sys.executable, "-c", probe, figure, threads, str(out)],
                               capture_output=True, text=True, timeout=600)
            assert r.returncode == 0, r.stderr
            code, grown_kb = map(int, r.stdout.split())
            assert code == 0
            assert grown_kb <= 16 * 1024, threads
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

    def test_wide_cell_peak_memory_is_bounded(self, tmp_path):
        # each block is streamed through a window of about two tiles, never held
        # as 8192 x d values (437 MB at d = 6400)
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({
            "profile": {"d": 6400, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
            "sigma": 3.0, "eps": 1.0, "classifiers": ["glrt"], "attack_modes": ["agnostic"],
            "sweep": {"axis": "kappa", "values": [0.5]}, "trials": BLOCK_SIZE, "seed": 3,
        }))
        probe = PEAK_KB + (
            "import sys\n"
            "from robustht import cli\n"
            "code = cli.main(['simulate', sys.argv[1], '--threads', sys.argv[2],"
            " '--out', sys.argv[3]])\n"
            "print(code, peak_kb())\n"
        )
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"wide-{threads}.csv"
            r = subprocess.run([sys.executable, "-c", probe, str(config), threads, str(out)],
                               capture_output=True, text=True, timeout=600)
            assert r.returncode == 0, r.stderr
            code, peak_kb = map(int, r.stdout.split())
            assert code == 0
            assert peak_kb <= 80 * 1024, threads
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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


# Outputs that CONTRACT does not reach: configs and a model file read from disk,
# JSON output and the nn-class table, which has no sidecar (None). Recorded like
# CONTRACT, at --seed 7 where the subcommand takes one.
FORMAT_CONTRACT_FILES = {
    "model-config.json": {
        "model": {"means": [[1.0, 0.0], [-0.5, 0.8], [-0.5, -0.8]], "sigma": 0.3,
                  "priors": [0.5, 0.25, 0.25]},
        "eps": 0.5,
        "classifiers": ["glrt", "prl"],
        "attack_modes": ["agnostic", "aware", "none"],
        "sweep": {"axis": "kappa", "values": [0.0, 0.25, 0.5]},
        "trials": 3000,
    },
    "profile-config.json": {
        "profile": {"d": 20, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
        "eps": 1.0,
        "classifiers": ["glrt", "minimax"],
        "attack_modes": ["agnostic"],
        "sweep": {"axis": "dimension", "values": [20, 40]},
        "target_error": 0.1,
        "trials": 3000,
    },
    # unsorted dimensions, none dividing another; p*d must be an integer at each
    "dimension-config.json": {
        "profile": {"d": 20, "p": 0.2, "a": 1.1, "b": 0.9, "eps": 1.0},
        "eps": 1.0,
        "classifiers": ["glrt", "min-distance"],
        "attack_modes": ["agnostic", "aware"],
        "kappas": [0.5],
        "sweep": {"axis": "dimension", "values": [15, 10, 25]},
        "target_error": 0.1,
        "trials": BLOCK_SIZE + 5,
    },
    "binary-model.json": {"means": [[0.8, -0.3], [-0.8, 0.3]], "sigma": 0.5},
    "ternary-3d-model.json": {"means": [[0.0, 0.0, 0.0], [1.0, 0.5, -0.5], [-0.5, -1.0, 0.5]],
                              "sigma": 0.6},
}
FIG5_PROFILE = ("--p", "0.3", "--a", "1.1", "--b", "0.9", "--eps", "1")
Q_SQRT5 = "0.012673659338734137"  # repr of Q(sqrt(5)), fig5's first target
FORMAT_CONTRACT = {
    ("simulate", "model-config.json"): (
        "96be5df74da0fc4205f83aef07bd52005c12147735d5f906f0ddfd60702c8f31",
        "c119bbccfcbff2cd00274dfbf5102930515dc3dd28d0dde92e27bc7ddc31b802"),
    ("simulate", "model-config.json", "--format", "json"): (
        "a7addba827c2f5ba9f0d7d5b0f10887222bcc8987105054e409d91ede7ff9afb",
        "c119bbccfcbff2cd00274dfbf5102930515dc3dd28d0dde92e27bc7ddc31b802"),
    ("simulate", "profile-config.json"): (
        "5b257989ad9ef3d58445454599d48682d72c4738d9aeac8eaa4379b14411c973",
        "4c59dbfaf28d29407243df2ec349566aa593d9c8dacb37ba9003f0d8ef2d358a"),
    # a dimension sweep over two noise blocks, the second of 5 rows
    ("simulate", "dimension-config.json", "--threads", "1"): (
        "d0d9b1ed17dfe7aed2f47c47030be7d545d826af5ee8ee45a718e8a405c7ecac",
        "321d058775a2cfb3c945dd881aeb2d3e04fa397dbacc7e96120383b64cfe70a1"),
    ("simulate", "dimension-config.json", "--threads", "2"): (
        "d0d9b1ed17dfe7aed2f47c47030be7d545d826af5ee8ee45a718e8a405c7ecac",
        "321d058775a2cfb3c945dd881aeb2d3e04fa397dbacc7e96120383b64cfe70a1"),
    ("reproduce", "fig5", "--trials", str(BLOCK_SIZE + 5), "--threads", "2"): (
        "c919bb893e4e93a5760f793cb327eca3e74089a1bff5af1eec8762f9407f7313",
        "d2de013f5cae34e18bc738d4d239fa9b65362a6e1863c1212284f7f8be2a5b14"),
    ("attack-surface", "--model", "binary-model.json", "--eps", "0.5", "--grid", "5",
     "--trials", "2000"): (
        "2b6d84ce91a782f93e2b08d44944b07ca5002b44aafc40b4ec32c0e90613e863",
        "9baf59db6f1f97fb098e6e8694e29c1572d732f090c70f43ae9554c8879d0f4e"),
    ("attack-surface", "--model", "ternary-2d", "--eps", "1", "--format", "json",
     "--trials", "2000"): (
        "b70550fc098ad106046160389b181612ccf3df26a33438901ae81100ad898fc9",
        "556b9310c28ff8a5d136dae6403a462ff64ed2568699bc0cbd3191577a4e7683"),
    # two noise blocks through the d = 3 nearest-class path
    ("attack-surface", "--model", "ternary-3d-model.json", "--classifier", "min-distance",
     "--eps", "0.5", "--grid", "7", "--trials", "9000"): (
        "2b16523b25ba4d7f706abf97f048dabccba7ee686b7bd3bdfbe4e0bb183e9a65",
        "d1114b73d2650636b2d0ab9bc3a718c6695670c57db6d4bed78ca7dbaec1fd0e"),
    ("reproduce", "fig6", "--trials", "9000", "--threads", "2"): (
        "49dfad8a9c36c5bd9ec04b913198427abe88c6207f2fbc7890e153af97d8e34d",
        "b49ec65ecb35cb18cb42654c11dc0a512e299093fcf622f93bdc99796d94f88d"),
    ("predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
     "--sigma", "1", "--kappa", "0,0.5,1,1.5", "--format", "json"): (
        "201cc0e816681252a1a1e6d173fb751fc32abc799ec1be7bc92f4667fd3c9c90",
        "bbdbd0bcb42b75fce3e1a6a6db82e77857bfae0e998594b4af604c4b4ce3da55"),
    # every level variance rounds to a positive number (at 1e-9 they are 0)
    ("predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
     "--kappa", "0,0.5,1", "--sigma", "3e-9"): (
        "841042746fb156ad32b27f5b76adbe3a52c677ff18e6d79b3d6ede1f9c7ca019",
        "56db37b4f1d762310a8d4413a74b63d5e1f3b60073f2ede934d6a683bb85b5a5"),
    # the third and fourth power sums come from c2 = c * c, not pow
    ("reproduce", "fig2", "--trials", "2000", "--format", "json"): (
        "558c902392212e765940a373fe01ddf0fac38dbba468529755ce647e26903c34",
        "1e29ae5c75bbb19d8273394b25b4e7dd1825c8126bd3047eab1ebf2dd0d14939"),
    ("nn-class", "--model", "ternary-2d", "--eps", "1", "--kappa", "0.5"): (
        "1d5a178e10a3c590cce5509ab3de371bca957d9c14a1a7e45de6ae3be060cda2", None),
    # the clt-analytic search at fig5's profile and target Q(sqrt(5)), a profile
    # whose weak level is 0, and an attack of strength 0
    ("sigma-search", "--d", "50", *FIG5_PROFILE, "--kappa", "1", "--target", Q_SQRT5): (
        "26436d64209ef63d71952a5757f3ad916d12ab61251ad1f6ee88782638b80068", None),
    ("sigma-search", "--d", "400", *FIG5_PROFILE, "--kappa", "1", "--target", Q_SQRT5): (
        "a737b706b2736bbe2c73bbffdc235fee951e0914ef8fa6ebf5c8451cb3e6fcae", None),
    ("sigma-search", "--d", "50", *FIG5_PROFILE, "--kappa", "0.8", "--target", Q_SQRT5): (
        "611a5b4b6eb0b6d12c73830d635586f3419c2f8ff4ab4f63957f523186b66c22", None),
    ("sigma-search", "--d", "400", *FIG5_PROFILE, "--kappa", "0.8", "--target", Q_SQRT5): (
        "19ba279862c36a613a96c8cd482cebbebc6ad1fdddc99c4f4fe72025e6df6d09", None),
    ("sigma-search", "--d", "40", "--p", "0.25", "--a", "1.5", "--b", "0", "--eps", "1",
     "--kappa", "1", "--target", "0.01"): (
        "d4b4da4ca7b99136a5cc9ffc7f054c8070f15eb9012f10bc6efae3bc5920146a", None),
    ("sigma-search", "--d", "50", *FIG5_PROFILE, "--kappa", "0", "--target", "0.01"): (
        "286a6098bc3ae9150c330f4f9a3d518c9bb7aadfe6c552f2bf80ad4d2a98b601", None),
}


def test_format_contract_digests(tmp_path):
    for name, raw in FORMAT_CONTRACT_FILES.items():
        (tmp_path / name).write_text(json.dumps(raw))
    changed = []
    for i, (argv, expected) in enumerate(FORMAT_CONTRACT.items()):
        out = tmp_path / f"{i}.out"
        args = [str(tmp_path / a) if a in FORMAT_CONTRACT_FILES else a for a in argv]
        seed = [] if argv[0] == "nn-class" else ["--seed", "7"]
        assert cli.main([*args, *seed, "--out", str(out)]) == 0, argv
        side = tmp_path / f"{i}.out.meta.json"
        got = (hashlib.sha256(out.read_bytes()).hexdigest(),
               hashlib.sha256(side.read_bytes()).hexdigest() if side.exists() else None)
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
                            lambda *args, real=real, **kwargs: draws.append(args)
                            or real(*args, **kwargs))
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


@pytest.mark.parametrize("value, reason", [
    (13, "d = 13"),  # p = 0.1 puts 1.3 coordinates at the strong level
    (float("inf"), "positive integers"),
    (float("nan"), "positive integers"),
], ids=["fractional-strong-count", "infinite", "nan"])
def test_bad_dimension_rejected_before_sampling(tmp_path, monkeypatch, capsys, value, reason):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_DIMENSION_CONFIG, "sweep": {"axis": "dimension",
                                                               "values": [20, value]}}))
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, ["simulate", str(path)])
    assert message.startswith("sweep.values:") and reason in message


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["infinite", "nan"])
def test_bad_eps_over_sigma_sq_rejected_before_sampling(tmp_path, monkeypatch, capsys, value):
    # an infinite (eps/sigma)^2 would run its cell at sigma = 0
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "profile": {"d": 20, "p": 0.1, "a": 1.1, "b": 0.9, "eps": 1.0},
        "eps": 1.0,
        "classifiers": ["glrt"],
        "sweep": {"axis": "eps_over_sigma_sq", "values": [1.0, value]},
        "trials": 2000,
    }))
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, ["simulate", str(path)])
    assert message.startswith("sweep.values: (eps/sigma)^2 must be finite and > 0")


@pytest.mark.parametrize("field, patch", [
    ("sweep.values", {"eps": 1.0, "sweep": {"axis": "kappa", "values": [1.5]}}),
    ("sweep.values", {"sweep": {"axis": "kappa", "values": ["x"]}}),
    ("eps", {"eps": "abc"}),
    ("eps", {"eps": float("nan")}),
    ("eps", {"eps": float("inf")}),
    ("seed", {"seed": "s"}),
    ("seed", {"seed": 1.5}),
    ("trials", {"trials": 2.7}),
    ("true_class", {"true_class": 0.5}),
], ids=["kappa-above-eps", "value-not-number", "eps-string", "eps-nan", "eps-inf", "seed-string",
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


@pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--trials", "100"]],
                         ids=["no-override", "seed", "trials"])
@pytest.mark.parametrize("raw", [[_TERNARY_KAPPA_CONFIG], "config"], ids=["list", "string"])
def test_config_not_an_object_names_config(tmp_path, monkeypatch, capsys, raw, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    argv = ["simulate", str(path), *flags]
    assert _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv).startswith("config:")


@pytest.mark.parametrize("field, argv", [
    ("eps", ["attack-surface", "--model", "ternary-2d", "--trials", "100", "--eps", "nan"]),
    ("eps", ["attack-surface", "--model", "ternary-2d", "--trials", "100", "--eps", "inf"]),
    ("eps", ["attack-surface", "--model", "ternary-2d", "--trials", "100", "--eps", "nan",
             "--classifier", "min-distance"]),
    ("eps", ["nn-class", "--model", "ternary-2d", "--eps", "inf"]),
    ("eps", ["nn-class", "--model", "ternary-2d", "--eps", "nan"]),
    ("kappa", ["nn-class", "--model", "ternary-2d", "--eps", "1", "--kappa", "nan"]),
    ("eps", ["predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "inf",
             "--sigma", "1"]),
], ids=["surface-nan", "surface-inf", "surface-min-distance-nan", "nn-class-inf", "nn-class-nan",
        "nn-class-kappa-nan", "predict-inf"])
def test_non_finite_budget_names_field(tmp_path, monkeypatch, capsys, field, argv):
    assert _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv).startswith(field)


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


@pytest.mark.parametrize("kappa", ["nan", "-1", "0.5,inf"])
def test_predict_bad_kappa_rejected_before_output(tmp_path, monkeypatch, capsys, kappa):
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, [
        "predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
        "--sigma", "1", f"--kappa={kappa}"])
    assert message.startswith("kappa:")


_PREDICT = ["predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
            "--kappa", "0,0.5,1,1.5"]


def test_predict_sigma_where_the_lower_bound_variance_rounds_below_zero(tmp_path):
    # y_bound_moments(0.9, 1, 0, 4e-9) used to give a variance of -5.6e-17 and
    # stop predict after its first row
    out = tmp_path / "out.csv"
    assert cli.main([*_PREDICT, "--sigma", "4e-9", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 3 * 4 + 1


def test_predict_sigma_where_every_level_variance_is_zero(tmp_path):
    # every row takes its deterministic limit: the statistic is a constant
    # whose mean sum is >= 0, so no attack within the budget flips it
    out = tmp_path / "out.csv"
    argv = ["predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
            "--kappa", "0,0.5,1", "--sigma", "1e-9", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3 * 4
    assert {row.split(",")[5] for row in rows} == {"0"}


# at 1e150 a second moment overflows to inf - inf, a NaN variance that is not clamped to 0
@pytest.mark.parametrize("sigma", ["1e-300", "1e150", "1e300", "0", "-1", "nan", "inf"],
                         ids=["snr-overflow", "nan-variance", "moment-overflow", "zero",
                              "negative", "nan", "inf"])
def test_predict_sigma_without_finite_prediction_rejected_before_output(
        tmp_path, monkeypatch, capsys, sigma):
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path,
                                        [*_PREDICT, "--sigma", sigma])
    assert message.startswith("sigma:")


def test_predict_empty_kappa_list_rejected_before_output(tmp_path, monkeypatch, capsys):
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, [
        "predict", "--d", "20", "--p", "0.1", "--a", "1.1", "--b", "0.9", "--eps", "1",
        "--sigma", "1", "--kappa="])
    assert message.startswith("kappa:")


def test_model_file_without_sigma_names_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"means": [[0.0, 0.0], [2.5, 0.25]]}))
    assert cli.main(["attack-surface", "--model", str(path), "--eps", "1"]) == 1
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "validation"
    assert err["message"].startswith("model:")


@pytest.mark.parametrize("raw", [
    [[0.0, 0.0], [2.5, 0.25]],
    {"means": [[0.0, 0.0], [2.5]], "sigma": 0.5},
    {"means": [[0.0, 0.0], [2.5, 0.25]], "sigma": "wide"},
    {"means": [[0.0, 0.0], [2.5, 0.25]], "sigma": 0.5, "priors": [1.0]},
], ids=["not-an-object", "ragged-means", "sigma-string", "priors-length"])
@pytest.mark.parametrize("command", [["attack-surface", "--trials", "100"], ["nn-class"]],
                         ids=["attack-surface", "nn-class"])
def test_malformed_model_file_names_model(tmp_path, monkeypatch, capsys, raw, command):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    argv = [*command, "--model", str(path), "--eps", "1"]
    assert _rejected_before_sampling(monkeypatch, capsys, tmp_path, argv).startswith("model:")


@pytest.mark.parametrize("command, field", [
    (["nn-class", "--eps", "1", "--model"], "model"),
    (["attack-surface", "--eps", "1", "--trials", "100", "--model"], "model"),
    (["simulate"], "config"),
], ids=["nn-class", "attack-surface", "simulate"])
def test_invalid_json_file_names_field(tmp_path, monkeypatch, capsys, command, field):
    path = tmp_path / "truncated.json"
    path.write_text('{"means": [[0,0],[1,1]], "sigma": 0.5')
    message = _rejected_before_sampling(monkeypatch, capsys, tmp_path, [*command, str(path)])
    assert message.startswith(f"{field}:")


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
