"""Operation times corrected for the speed of a shared machine.

The machine the benchmark runs on can run the same pure-Python code two or
three times slower for minutes at a time, when other tenants load its
host.  Such a swing moves every timing of a run together, so the run-to-run
spread of a wall-clock figure measures the host, not the program.

:class:`Clock` corrects for it in two steps.  It times each operation in
process CPU time, which leaves out the time the process waits for a CPU
(other processes, and the host's steal time).  And it runs a fixed
calibration block, the benchmark's own pure-Python code (dict lookups on
tuple keys, tuple building, float sums, a sort, as the parsers do), between
every two timed operations, which catches a CPU that runs slower per
instruction (a busy sibling thread, a lower clock).  An operation's time is
its CPU time multiplied by ``REF_BLOCK_S`` over the median CPU time of the
calibration blocks around it: the time it would take on a quiet machine
that runs the block in ``REF_BLOCK_S``.  For a single-threaded run on a
quiet machine that is its wall time.  The program never runs inside a
block, and the block's table is small enough to stay in cache, so a change
to the program moves the corrected times and not the calibration.
"""

from __future__ import annotations

import statistics
from time import perf_counter, process_time

# The block's median CPU time on the reference machine (2 vCPUs, Python
# 3.11, quiet host): corrected times are in that machine's seconds.
REF_BLOCK_S = 0.001
WINDOW = 4          # blocks taken on each side of an operation
_STEPS = 2700       # block size, about REF_BLOCK_S on the reference machine

_LABELS = ("NP", "VP", "PP", "S", "SBAR", "ADJP", "ADVP", "QP")
_KEYS = [(_LABELS[i % 8], i % 45, i) for i in range(1024)]
_TABLE = {k: -0.001 * (i % 97) for i, k in enumerate(_KEYS)}


def _block() -> float:
    keys, table = _KEYS, _TABLE
    n = len(keys)
    j = 1
    total = 0.0
    kept = []
    for _ in range(_STEPS):
        j = (j * 1103515245 + 12345) & 0x7FFFFFFF
        key = keys[j % n]
        lp = table[key] + total * 1e-9
        kept.append((lp, key[1], key))
        total += lp
    kept.sort()
    return total


def block_seconds() -> float:
    t0 = process_time()
    _block()
    return process_time() - t0


class Clock:
    """Times operations and the calibration blocks between them."""

    def __init__(self):
        self.blocks = [block_seconds()]
        self.ops: list[tuple[float, float, int]] = []  # (cpu s, wall s, next block)

    def calibrate(self, n: int) -> None:
        self.blocks += [block_seconds() for _ in range(n)]

    def time(self, fn, *args):
        """``(fn(*args), op)``; :meth:`seconds` of ``op`` is its corrected time."""
        w0, t0 = perf_counter(), process_time()
        result = fn(*args)
        cpu, wall = process_time() - t0, perf_counter() - w0
        self.blocks.append(block_seconds())
        self.ops.append((cpu, wall, len(self.blocks) - 1))
        return result, len(self.ops) - 1

    def wall(self, op: int) -> float:
        """Uncorrected wall time, for reading only."""
        return self.ops[op][1]

    def seconds(self, op: int) -> float:
        cpu, _, after = self.ops[op]
        near = self.blocks[max(0, after - WINDOW):after + WINDOW]
        return cpu * REF_BLOCK_S / statistics.median(near)

    def slowdown(self) -> float:
        """Median block time over ``REF_BLOCK_S``: 1 on a quiet reference machine."""
        return statistics.median(self.blocks) / REF_BLOCK_S
