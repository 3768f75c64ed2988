"""Run latbel with the given arguments and fail if it peaks at 100 MB or more.

Usage, from the root of a checkout:  python3 .github/peak.py ARGS...

The command writes its stdout straight to this script's, unread; one line on
stderr gives its exit code, wall time and peak resident memory.  Exits 3
when it peaked at 100 MB or more or ran past 20 seconds, else with the
command's own code, so that a command expected to fail is held to the same
limits.
"""

import os
import resource
import subprocess
import sys
import time

LIMIT_MB, TIMEOUT_S = 100, 20

command = " ".join(sys.argv[1:])
start = time.perf_counter()
try:
    p = subprocess.run([sys.executable, "-m", "latbel", *sys.argv[1:]],
                       env={**os.environ, "PYTHONPATH": "src"}, timeout=TIMEOUT_S)
except subprocess.TimeoutExpired:
    print(f"latbel {command}: timed out after {TIMEOUT_S} s", file=sys.stderr)
    sys.exit(3)
wall_s = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"latbel {command}: exit {p.returncode}, {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB",
      file=sys.stderr)
sys.exit(3 if peak_mb >= LIMIT_MB else p.returncode)
