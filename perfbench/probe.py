"""Time `import orderfinding.cli` in this fresh interpreter.

    python3 perfbench/probe.py SRC

Nothing else is imported before the timed import.  Prints one JSON object:
the CPU seconds of `import numpy` and then of `import orderfinding.cli`,
the wall seconds of both, a calibration time (see timebase.py) and the
file the module came from.
"""
import sys
from time import perf_counter, process_time

sys.path.insert(0, sys.argv[1])
w0, t0 = perf_counter(), process_time()
import numpy  # noqa: E402,F401
t1 = process_time()
import orderfinding.cli  # noqa: E402
t2, w2 = process_time(), perf_counter()

import json  # noqa: E402

from timebase import calibrate  # noqa: E402

print(json.dumps({"numpy_import_s": t1 - t0, "import_s": t2 - t1, "wall_s": w2 - w0,
                  "cal_s": sorted(calibrate() for _ in range(3))[1], "file": orderfinding.cli.__file__}))
