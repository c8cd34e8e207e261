"""Host-speed reference: a fixed pure-Python Fraction elimination.

    python3 -I bench/reference.py

Prints the seconds the elimination took.  It imports nothing from jackcc,
so no change to the package moves it; run.py starts it in a fresh
interpreter before and after every repetition, as the workloads run, and
scales wall_s by it.  On a shared host whose speed drifts by tens of percent
from minute to minute, a fresh-process Fraction workload like this one
tracks the drift that the workloads see.
"""

import time
from fractions import Fraction

SIZE = 60
STEPS = 25


def eliminate():
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(SIZE)] for i in range(SIZE)]
    for r in range(STEPS):
        pivot = rows[r][r]
        for i in range(r + 1, SIZE):
            scale = rows[i][r] / pivot
            rows[i] = [a - scale * b for a, b in zip(rows[i], rows[r])]
    return rows


if __name__ == "__main__":
    t0 = time.perf_counter()
    eliminate()
    print(time.perf_counter() - t0)
