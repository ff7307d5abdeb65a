"""Seeded micro-kernels for the scalar and the RREF layers.

``linalg.rref_5x6_us`` echelonizes 2,000 random 5x6 GF(3) matrices and
compares every result with a plain-integer reference RREF, so the kernel
is checked as well as timed.  ``fields.fp_mul_ns`` multiplies GF(p) elements
pairwise.  Each is timed several times and the median is reported.
"""

from __future__ import annotations

import random
import statistics
import time

from lgseries.fields import Fp, PrimeField
from lgseries.linalg import Matrix, rref
from reference import reference_rref

RREF_COUNT = 2000
RREF_SHAPE = (5, 6)
RREF_P = 3
MUL_COUNT = 50000
MUL_P = 10007
REPEATS = 5


def _as_int(x) -> int:
    return int(getattr(x, "v", x))


def rref_kernel(seed: int) -> dict:
    rng = random.Random(seed)
    nrows, ncols = RREF_SHAPE
    field = PrimeField(RREF_P)
    inputs = [[[rng.randrange(RREF_P) for _ in range(ncols)]
               for _ in range(nrows)] for _ in range(RREF_COUNT)]
    matrices = [Matrix.from_rows(field, rows) for rows in inputs]
    times = []
    results = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        echs = [rref(m) for m in matrices]
        times.append(time.perf_counter() - t0)
        results = [(tuple(tuple(_as_int(x) for x in e.matrix.row(i))
                          for i in range(e.matrix.rows)), tuple(e.pivots))
                   for e in echs]
    expected = [reference_rref(rows, RREF_P) for rows in inputs]
    return {"us": statistics.median(times) / RREF_COUNT * 1e6,
            "ok": results == expected}


def mul_kernel(seed: int) -> dict:
    rng = random.Random(seed + 1)
    a = [rng.randrange(MUL_P) for _ in range(MUL_COUNT)]
    b = [rng.randrange(MUL_P) for _ in range(MUL_COUNT)]
    xs = [Fp(v, MUL_P) for v in a]
    ys = [Fp(v, MUL_P) for v in b]
    times = []
    prods = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        prods = [x * y for x, y in zip(xs, ys)]
        times.append(time.perf_counter() - t0)
    ok = [_as_int(z) for z in prods] == [(u * v) % MUL_P for u, v in zip(a, b)]
    return {"ns": statistics.median(times) / MUL_COUNT * 1e9, "ok": ok}


def run_all(seed: int) -> dict:
    rr = rref_kernel(seed)
    mm = mul_kernel(seed)
    return {"linalg.rref_5x6_us": rr["us"], "fields.fp_mul_ns": mm["ns"],
            "ok": rr["ok"] and mm["ok"]}
