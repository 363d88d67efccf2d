"""One polsim subcommand in a fresh interpreter, with timestamps, for traced cli runs.

    python -X importtime perfbench/cliprobe.py REPORT.json <polsim arguments>

Runs exactly what the `polsim` console script runs and writes to REPORT.json
the `time.monotonic()` readings at start, after `import polsim.cli` and after
`main`, plus the modules loaded.  A marker line on stderr splits the
`-X importtime` lines into package import and lazy imports made by `main`.
"""

import sys
import time

t_start = time.monotonic()
from polsim.cli import main  # noqa: E402

t_imported = time.monotonic()
print("perfbench: polsim.cli imported", file=sys.stderr, flush=True)
code = main(sys.argv[2:])
t_done = time.monotonic()
sys.stdout.flush()
sys.stderr.flush()

import json  # noqa: E402

with open(sys.argv[1], "w", encoding="ascii") as fh:
    json.dump({"t_start": t_start, "t_imported": t_imported, "t_done": t_done,
               "modules": len(sys.modules), "scipy_loaded": int("scipy" in sys.modules)}, fh)
sys.exit(code)
