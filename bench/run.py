"""lipcert benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload exact_mix --seed 0 --seconds 36 --trace 0

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``bench/README.md`` for the workloads and what each metric measures.
``python3 bench/run.py --write-references`` re-derives ``references.json``.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    # The benchmark is a single sequential client: BLAS runs on one thread
    # too, so that a helper thread spinning on the second core does not make
    # the timings depend on the machine's other load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
