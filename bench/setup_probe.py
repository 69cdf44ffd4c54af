"""Set up one workload in a fresh interpreter, then print the monotonic clock.

Started by run.py, which subtracts its own clock reading taken just before
the launch; the difference is the set-up time a user's process pays before
its first result.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].set_up()
print(time.monotonic())
