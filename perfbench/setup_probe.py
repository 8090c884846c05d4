"""Time one workload's set-up in a fresh process: import maniplang and load
the workload's inputs. Prints the seconds taken.

    python3 perfbench/setup_probe.py mock_tasks 1
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

sys.path.insert(0, str(harness.SRC))
workload, seed = sys.argv[1], int(sys.argv[2])
module = __import__(workload)  # imports maniplang
module.load_inputs(seed)
print(time.perf_counter() - t0)
