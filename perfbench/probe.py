"""Set-up probe: import the library, make a workload's first inputs, say so.

    python3 perfbench/probe.py WORKLOAD SEED

``run.py`` times fresh runs of this script, from spawn to the "ready" line,
for its ``setup_s`` metric.
"""

import sys

from run import prepare

prepare(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
