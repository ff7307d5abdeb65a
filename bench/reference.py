"""The reference kernel: a fixed amount of plain-Python work that calls no
lgseries code, timed in the same child just before and after what it
measures, so that the benchmark can report times at a fixed machine speed.

A shared virtual machine runs the same Python code at speeds that differ by
up to 2x from one minute (or one second) to the next.  A CLI call's wall
time divided by the reference kernel's time around it cancels that factor;
multiplied by ``REFERENCE_S`` it reads as seconds on a machine where the
kernel takes 0.200 s.  Garbage collection is off while the kernel runs, so
the heap a CLI call leaves behind does not change the kernel's time.

This module imports nothing but the interpreter's built-in ``gc`` and
``time``, so importing it loads no other module a CLI call would load.
"""

import gc
import time

REFERENCE_S = 0.200
ROUNDS = 2
COUNT = 800
SHAPE = (8, 9)
P = 7


def reference_rref(rows: list, p: int) -> tuple:
    """Classical RREF over GF(p) on plain ints: (rows without zeros, pivots)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    top = 0
    for col in range(ncols):
        sel = next((i for i in range(top, len(work)) if work[i][col] % p), None)
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        inv = pow(work[top][col], p - 2, p)
        work[top] = [(inv * x) % p for x in work[top]]
        for i in range(len(work)):
            c = work[i][col] % p
            if i != top and c:
                work[i] = [(a - c * b) % p for a, b in zip(work[i], work[top])]
        pivots.append(col)
        top += 1
    return tuple(tuple(r) for r in work[:top]), tuple(pivots)


def _inputs() -> list:
    # A linear congruential stream, so that no module has to be imported.
    state = 12345
    nrows, ncols = SHAPE
    out = []
    for _ in range(COUNT):
        rows = []
        for _ in range(nrows):
            row = []
            for _ in range(ncols):
                state = (1103515245 * state + 12345) % 2147483648
                row.append((state >> 16) % P)
            rows.append(row)
        out.append(rows)
    return out


_INPUTS = _inputs()


def reference_s() -> float:
    """Seconds that ``reference_rref`` takes on the COUNT fixed matrices,
    ROUNDS times over."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            for rows in _INPUTS:
                reference_rref(rows, P)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
