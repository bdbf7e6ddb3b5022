"""Set-up probe, run in a fresh interpreter by run.py.

Times `import curveobs.cli` plus one first call of each public entry point the
named workload uses, on a fixed genus-1 input, and prints the wall seconds.

Usage: PYTHONPATH=src python3 perfbench/probe.py WORKLOAD PAIRS_FILE
"""

import contextlib
import io
import sys
import time

t0 = time.perf_counter()
import curveobs  # noqa: E402
import curveobs.cli  # noqa: E402

workload, pairs_file = sys.argv[1], sys.argv[2]
if workload == "analyze-long":
    curveobs.analyze(1, curveobs.parse_word("x1", 1),
                     curveobs.parse_word("y1", 1)).to_json()
elif workload == "twist-wide":
    curveobs.twist_consistency(1, curveobs.parse_word("x1", 1),
                               curveobs.parse_word("x1^-1", 1))
elif workload == "cli-batch":
    with contextlib.redirect_stdout(io.StringIO()):
        if curveobs.cli.main(["analyze", "--pairs", pairs_file]) != 0:
            sys.exit("probe: analyze --pairs failed")
else:
    sys.exit(f"probe: unknown workload {workload!r}")
print(time.perf_counter() - t0)
