import os
from pathlib import Path

from hypothesis import settings

# deterministic property tests: same examples every run
settings.register_profile("ci", derandomize=True, max_examples=200)
settings.load_profile("ci")

# subprocesses of the tests import robustht from this checkout, as the tests do
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# A probe's own peak RSS in KB, as source for a child process to run. Linux keeps
# ru_maxrss across exec, so a child's ru_maxrss starts at the RSS of the test
# process that spawned it; VmHWM is the high-water mark of the child's own memory.
PEAK_KB = ("def peak_kb():\n"
           "    with open('/proc/self/status') as fh:\n"
           "        return next(int(line.split()[1]) for line in fh\n"
           "                    if line.startswith('VmHWM:'))\n")
