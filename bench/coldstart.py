"""Times ``import nbrv.cli`` inside a fresh interpreter.

Run by ``run.py`` as a child process with ``src`` on ``PYTHONPATH``.  Prints
one JSON object: the import's seconds and the calibration kernel's times
before and after it.  Only ``time``, ``sys`` and ``calib`` are imported
before the timed import, so nbrv's own imports are all counted.
"""

import sys
import time

import calib

before = [calib.time_kernel() for _ in range(3)]
start = time.perf_counter()
import nbrv.cli  # noqa: E402,F401
elapsed = time.perf_counter() - start
after = [calib.time_kernel() for _ in range(3)]
sys.stdout.write('{"import_s": %r, "kernels": %r}\n' % (elapsed, before + after))
