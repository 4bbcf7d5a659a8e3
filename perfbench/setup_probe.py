"""Set-up probe: time importing symplat and building one workload's inputs.

Run in a fresh process by run.py, which times several of these for
``setup_s``:

    python3 perfbench/setup_probe.py <workload> <seed>

It prints the seconds spent.  Nothing is imported before the clock starts,
so numpy's import is part of the set-up, as it is for a user of symplat.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(perf_counter() - t0))
