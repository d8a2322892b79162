"""Set-up probe: times one cold set-up of a workload in this fresh interpreter.

Invoked by run.py as ``probe.py <workload> <seed> [--smoke]`` with
``PYTHONPATH`` pointing at the checkout's ``src``; prints
``{"setup_s": ..., "ref_s": ...}``, the second being the reference-loop time
(calib.py) measured right after the set-up.
The time covers importing carlitz and the workload's ``setup`` (engines,
screens, field tables, primes, and for pooled scans a pool start), not the
interpreter's own start.
"""

import json
import sys
import time

from calib import loop_time
from workloads import SMOKE, WORKLOADS


def main(argv):
    name, seed = argv[0], int(argv[1])
    workload = (SMOKE if "--smoke" in argv[2:] else WORKLOADS)[name]
    t0 = time.perf_counter()
    workload.setup(seed)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "ref_s": loop_time()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
