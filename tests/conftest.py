import os
from pathlib import Path

from hypothesis import settings

# deterministic property tests: same examples every run
settings.register_profile("ci", derandomize=True, max_examples=200)
settings.load_profile("ci")

# subprocesses of the tests import robustht from this checkout, as the tests do
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
