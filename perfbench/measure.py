"""Timing statistics shared by the benchmark's processes.

* :func:`ref_loop` is the fixed pure-Python reference work.  Every
  operation's time is divided by the reference-loop time measured next to
  it, which cancels most of the host's speed drift (the host this was
  tuned on changes speed by up to 60% within a minute, in CPU time as much
  as in wall time).
* :func:`tail_percentile` is the reporting rule for the tail: the highest
  whole percentile that still has at least ten samples beyond it.
"""

from __future__ import annotations

import cmath
import gc
import math
import time
from fractions import Fraction

MIN_TAIL_BEYOND = 10


def ref_loop() -> float:
    """Fixed interpreter work in three equal parts, one for each kind of
    work the library does: integer, list and dict operations; float and
    complex arithmetic with math/cmath calls; and Fraction arithmetic, as
    in the exact layer.  On a drifting host each part alone follows some
    operations better than others; the sum follows all of them within a
    few per cent.  Never change it: every ``*_ref`` metric is expressed in
    its units."""
    acc = 0
    table = {}
    items = []
    for i in range(1000):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
        items.append(acc & 1)
        if len(items) > 32:
            items.clear()
    z = 0.3 + 0.1j
    x = 0.0
    for i in range(600):
        z = z * z * 0.5 + cmath.exp(-abs(z)) + complex(i & 3, 0.5)
        x += math.exp(-0.001 * i) * math.sqrt(i + 1.0)
        z = z / (1 + abs(z))
    q = Fraction(1, 3)
    s = Fraction(0)
    for i in range(1, 120):
        s = s + q * Fraction(i, i + 7)
        if s.denominator > 10 ** 12:
            s = Fraction(s.numerator % 1000003, 7)
    return acc + len(table) + x + abs(z) + float(s)


def time_ref(reps: int = 1) -> float:
    """Seconds for one reference loop (the median of ``reps`` back-to-back
    runs).  The cyclic garbage collector is paused meanwhile: a collection
    walks the whole heap, so it would make the loop's time depend on how
    much the workload holds rather than on the speed of the host."""
    ts = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            ref_loop()
            ts.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    ts.sort()
    return ts[len(ts) // 2]


def median(xs) -> float:
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail_percentile(n: int) -> int:
    """Highest whole percentile p (50 <= p <= 99) such that at least
    ``MIN_TAIL_BEYOND`` of ``n`` samples lie beyond the p-th percentile
    (nearest-rank).  With fewer than forty samples there is no tail worth
    the name, and the median (50) is returned."""
    best = 50
    if n < 4 * MIN_TAIL_BEYOND:
        return best
    for p in range(50, 100):
        if n - nearest_rank(n, p) >= MIN_TAIL_BEYOND:
            best = p
    return best


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p / 100.0 * n))


def percentile(xs, p: float) -> float:
    s = sorted(xs)
    return s[nearest_rank(len(s), p) - 1]


def per_op_medians(ops, xs) -> list:
    """The median of each operation's samples across rounds."""
    by_op = {}
    for i, x in zip(ops, xs):
        by_op.setdefault(i, []).append(x)
    return [median(v) for v in by_op.values()]


def summarize(ops, op_s, op_ref, p_tail: int) -> dict:
    """End-to-end timing metrics from per-sample operation indices, seconds
    and the same times in reference-loop units.  The medians and the
    reference throughput are taken over each operation's median across
    rounds, so that one disturbed sample of an operation does not move
    them; the tails and ``ops_per_s`` are taken over all samples."""
    med_s = per_op_medians(ops, op_s)
    med_ref = per_op_medians(ops, op_ref)
    return {
        "ops_per_s": len(op_s) / math.fsum(op_s),
        "op_ms": 1e3 * median(med_s),
        "op_ms_tail": 1e3 * percentile(op_s, p_tail),
        "op_ref": median(med_ref),
        "op_ref_tail": percentile(op_ref, p_tail),
        "ops_per_ref": len(med_ref) / math.fsum(med_ref),
    }
