"""Run latbel with the given arguments and fail if it peaks at 100 MB or more.

Usage, from the root of a checkout:  python3 .github/peak.py ARGS...

The command's stdout passes through; one line on stderr gives its exit code
and peak resident memory.  Exits with the command's code, else 1 when it
peaked at 100 MB or more or ran past 20 seconds, else 0.
"""

import os
import resource
import subprocess
import sys

LIMIT_MB, TIMEOUT_S = 100, 20

command = " ".join(sys.argv[1:])
try:
    p = subprocess.run([sys.executable, "-m", "latbel", *sys.argv[1:]], stdout=subprocess.PIPE,
                       text=True, env={**os.environ, "PYTHONPATH": "src"}, timeout=TIMEOUT_S)
except subprocess.TimeoutExpired:
    print(f"latbel {command}: timed out after {TIMEOUT_S} s", file=sys.stderr)
    sys.exit(1)
sys.stdout.write(p.stdout)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"latbel {command}: exit {p.returncode}, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
sys.exit(p.returncode or peak_mb >= LIMIT_MB)
