"""Time one benchmark set-up in a fresh interpreter.

Set-up is the package import (which builds the catalog) plus the workload's
input generation. Usage, from the root of a checkout:

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the set-up time and then the reference time of ``speed.py``, timed
just after the set-up in the same interpreter, both in seconds.
"""

import time

START = time.perf_counter()

import statistics  # noqa: E402
import sys  # noqa: E402

import checkout  # noqa: E402

WARM_REFERENCES = 3
REFERENCES = 5


def main(argv: list[str]) -> int:
    workload, seed = argv[1], int(argv[2])
    checkout.pin_blas_threads()
    checkout.import_package()
    import workloads

    workloads.build(workload, seed)
    setup = time.perf_counter() - START
    import speed

    for _ in range(WARM_REFERENCES):
        speed.reference_seconds()
    reference = statistics.median(speed.reference_seconds() for _ in range(REFERENCES))
    print(setup, reference)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
