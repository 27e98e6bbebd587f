"""One set-up sample: interpreter start plus ``import dowlab``.

Usage: python3 perfbench/setup_time.py RESULT.json

Writes to RESULT the ``time.perf_counter()`` reading taken just after the
import (a clock that all processes of the host share, so the parent
subtracts its own reading from before the start) and the unit times of
speed.py taken just after it.
"""

import time

import dowlab  # noqa: F401  (the set-up being measured)

IMPORTED_AT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

with open(sys.argv[1], "w") as handle:
    json.dump({
        "imported_at": IMPORTED_AT,
        "samples": [speed.time_unit() for _ in range(speed.SETUP_UNITS)],
    }, handle)
