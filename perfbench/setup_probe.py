"""Times one benchmark set-up in this fresh interpreter.

Set-up is importing ``braidbracket`` (with its CLI) and making the
workload's inputs.  ``run.py`` starts this script several times and
reports the median.  Usage: ``setup_probe.py WORKLOAD SEED [--tiny]``;
prints the seconds taken, then the median time of the reference
computation of ``calibrate.py`` run right after.
"""

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t0 = time.perf_counter()
import braidbracket  # noqa: E402,F401
import braidbracket.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.generate(sys.argv[1], int(sys.argv[2]), tiny="--tiny" in sys.argv[3:])
setup = time.perf_counter() - t0

import calibrate  # noqa: E402

ref = statistics.median(calibrate.time_reference() for _ in range(5))
print(f"{setup:.9f} {ref:.9f}")
