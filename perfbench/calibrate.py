"""A fixed pure-Python kernel that measures how fast the host runs right now.

    python3 perfbench/calibrate.py      # print 0.3 s of samples and their mean

The host that runs the benchmark is shared, and the speed at which it runs
this interpreter drifts by tens of percent, within seconds and over minutes.
``grqn`` is pure Python, so its run time follows that speed.  The kernel
below does the same kind of work as grqn's hot loops (recursive partition
enumeration, tuple hashing, dict and set lookups, small-integer arithmetic),
but it never changes and never imports ``grqn``.  ``run.py`` times it between the
commands of a run and scales the run's times to the reference speed, at
which one sample takes ``REFERENCE_S`` on average.
"""

from __future__ import annotations

import statistics
import time

# A typical sample on a 2-vCPU Intel Xeon VM with Python 3.11.7 while the
# host was quiet.  It only sets the scale of the reported times.
REFERENCE_S = 0.015

# Grid of the enumeration: C(6 + 6, 6) = 924 partitions.
_ROWS, _COLS = 6, 6


def _partitions(rows: int, cols: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    row = [0] * rows

    def rec(i: int, cap: int) -> None:
        if i == rows:
            j = rows
            while j and row[j - 1] == 0:
                j -= 1
            out.append(tuple(row[:j]))
            return
        for v in range(cap, -1, -1):
            row[i] = v
            rec(i + 1, v)
        row[i] = 0

    rec(0, cols)
    return out


def kernel() -> int:
    """One sample of fixed work; returns a checksum so that none is skipped."""
    parts = _partitions(_ROWS, _COLS)
    index = {p: i for i, p in enumerate(parts)}
    by_weight: dict[int, int] = {}
    for p in parts:
        by_weight[sum(p)] = by_weight.get(sum(p), 0) + 1
    total = 0
    for p in parts:
        # Every partition one box larger: add a box to a row that allows it.
        padded = list(p) + [0]
        for i in range(min(len(padded), _ROWS)):
            if padded[i] < _COLS and (i == 0 or padded[i - 1] > padded[i]):
                padded[i] += 1
                q = tuple(x for x in padded if x)
                padded[i] -= 1
                cells = frozenset((r, col) for r, hi in enumerate(q) for col in range(hi))
                total ^= index[q] * len(cells) + hash(cells) % 1021
        total += by_weight[sum(p)]
    return total


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def measure(seconds: float, least: int = 2) -> list[float]:
    """Samples for about ``seconds``, and at least ``least`` of them."""
    end = time.perf_counter() + seconds
    times = [sample() for _ in range(least)]
    while time.perf_counter() < end:
        times.append(sample())
    return times


if __name__ == "__main__":
    times = measure(0.3)
    print(" ".join(f"{t * 1000:.2f}" for t in times), "ms")
    print(f"mean {statistics.fmean(times) * 1000:.2f} ms, reference {REFERENCE_S * 1000:.2f} ms")
