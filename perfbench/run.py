"""Run one benchmark workload and print its metrics; see perfbench/README.md.

    python3 perfbench/run.py --workload train|sweep|search|all --seed N \
        --seconds S --trace 0|1

BLAS is pinned to one thread here, before anything imports numpy.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
# import perfbench as a package and m3enc from this checkout's sources only
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

if __name__ == "__main__":
    from perfbench.bench import main
    sys.exit(main())
