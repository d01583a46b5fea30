"""The ``np.sort`` baseline process (see ``harness.NpSortBaseline``).

Loads the raw little-endian int64 key files named on the command line,
prints ``ready``, then for every line read on stdin sorts the next file's
keys (round-robin) and prints the wall time of one sort in milliseconds.
Exits at end of input.

A sample is ``np.sort`` minus its allocation: the keys are copied into a
buffer allocated once and sorted there, because the fresh pages of a new
64 MB result would make the baseline vary more than what it is the base
of.  Arrays that sort in under a few milliseconds are sorted several times
per sample and the mean is reported, to stay clear of timer noise.
"""

import sys
import time

import numpy as np

MIN_SAMPLE_S = 0.004


def sort_once(keys: np.ndarray, buf: np.ndarray) -> float:
    t0 = time.perf_counter()
    np.copyto(buf, keys)
    buf.sort()
    return time.perf_counter() - t0


def main() -> None:
    pool = [np.fromfile(path, dtype=np.int64) for path in sys.argv[1:]]
    buf = np.empty_like(pool[0])
    reps = max(1, int(MIN_SAMPLE_S / sort_once(pool[0], buf)))
    print("ready", flush=True)
    for i, _line in enumerate(sys.stdin):
        keys = pool[i % len(pool)]
        total = sum(sort_once(keys, buf) for _ in range(reps))
        print(repr(total / reps * 1e3), flush=True)


if __name__ == "__main__":
    main()
