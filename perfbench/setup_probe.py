"""Time ``import tspectral`` plus one warm-up CLI job in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR ARGV_JSON

Prints ``<seconds> <exit code of the job>`` as its last line.  It imports
nothing but the standard library before the clock starts, so the time
includes numpy's import, as a user's first command does.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tspectral import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = cli.main(json.loads(sys.argv[2]))
print(f"{time.perf_counter() - t0!r} {rc}")
