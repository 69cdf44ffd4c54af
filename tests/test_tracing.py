"""Smoke test of the benchmark tracer against the names it patches."""

import importlib.util
from pathlib import Path

import pytest

import robustht.analysis
import robustht.attacks
import robustht.engine
import robustht.rng
from robustht import cli

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_draws_of_every_sampled_figure(tracing, tmp_path):
    # every Monte Carlo path must draw through a name the tracer patches
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for figure, trials in (("fig2", 200), ("fig5", 200), ("fig6", 200), ("fig7", 50),
                               ("fig8", 200)):
            mark = tracer.mark()
            assert cli.main(["reproduce", figure, "--trials", str(trials),
                             "--out", str(tmp_path / f"{figure}.csv")]) == 0
            assert tracer.summary_since(mark)["counts"].get("rng.noise_block.calls", 0) > 0, (
                figure)
    finally:
        tracer.uninstall()
    for module in (robustht.engine, robustht.attacks, robustht.analysis):
        assert module.noise_block is robustht.rng.noise_block, module.__name__
