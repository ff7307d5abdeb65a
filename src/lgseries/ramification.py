"""Linear series on a single projective line over GF(p): vanishing and
ramification sequences, Hasse-derivative Wronskians, separability, tameness
certificates, and the expected-dimension count.

A degree-<=m series is a subspace of GF(p)^(m+1) whose coordinates are the
polynomial coefficients in ascending order.  Orders of vanishing at infinity
are m minus the degree.  Hasse derivatives D^(j) y^k = binom(k, j) y^(k-j)
replace ordinary derivatives so that everything stays correct in small
characteristic.

Polynomials are tuples of ints in [0, p); ``hasse_derivative`` and
``poly_order_at`` reduce their input (ints, or ``Fp`` of the same p) and,
like ``wronskian``, raise ValueError over the dual numbers.  A point is
INFINITY or a field value read by the ring call (``fields._residue``), so
any other point, a float, a bool or None, raises ValueError.

The orders of vanishing of a series at a point have one owner,
``_orders``: ``vanishing_sequence`` adds the ramification and the
tameness to them, and ``series`` reads its node orders and imposed bounds
from it, with no tameness determinant.  ``poly_order_at`` finds the order
of one polynomial by Hasse derivatives instead, independently of it.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb
from typing import Optional, Sequence

from .fields import Record, is_tame
from .linalg import Subspace, _entries, _field_p, _images

INFINITY = "inf"


def _poly_trim(coeffs: tuple) -> tuple:
    n = len(coeffs)
    while n > 0 and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def poly_add(a: tuple, b: tuple, p: int) -> tuple:
    return tuple((x + y) % p for x, y in zip_longest(a, b, fillvalue=0))


def poly_mul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(c % p for c in out)


def poly_eval(a: tuple, t: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * t + c) % p
    return acc


def hasse_derivative(a: tuple, j: int, ring) -> tuple:
    """j-th Hasse derivative: coefficient k+j contributes binom(k+j, j)."""
    p = _field_p(ring, "a Hasse derivative")
    a = _entries(ring, a)
    return tuple(comb(k + j, j) * a[k + j] % p for k in range(len(a) - j))


def poly_order_at(a: tuple, t, ring, degree_bound: Optional[int] = None):
    """Order of vanishing at t (or at INFINITY with the given degree bound).

    Returns None for the zero polynomial.
    """
    p = _field_p(ring, "an order of vanishing")
    a = _poly_trim(_entries(ring, a))
    if not a:
        return None
    if t == INFINITY:
        if degree_bound is None:
            raise ValueError("order at infinity needs the degree bound")
        return degree_bound - (len(a) - 1)
    t = ring(t).v
    for k in range(len(a)):
        if poly_eval(hasse_derivative(a, k, ring), t, p):
            return k
    raise AssertionError("nonzero polynomial with no finite order")


class RamificationData(Record):
    __slots__ = ("point", "vanishing", "ramification", "tame")

    def __init__(self, point, vanishing: tuple, ramification: tuple,
                 tame: bool):
        self.point = point                # field value as int, or "inf"
        self.vanishing = vanishing        # strictly increasing orders a_j
        self.ramification = ramification  # alpha_j = a_j - j
        self.tame = tame

    @property
    def weight(self) -> int:
        return sum(self.ramification)


def _shift_basis_rows(m: int, t: int, p: int) -> list:
    """Rows of the change of coordinates from coefficients in y to those in
    (y - t): row k reads off the k-th Hasse coefficient at t."""
    return [[comb(j, k) * pow(t, j - k, p) % p if j >= k else 0
             for j in range(m + 1)] for k in range(m + 1)]


def _orders(v: Subspace, point) -> tuple:
    """The distinct orders of vanishing of the series v at one point,
    ascending: the pivot columns of v's basis rewritten in the order
    filtration at the point and re-echelonized.  The degree bound m is the
    ambient dimension minus one.  At t = 0 mod p the ascending coefficients
    already are that filtration, so the orders are v's own pivots."""
    ring = v.ring
    if ring.dual:
        raise ValueError("vanishing_sequence needs field coefficients; "
                         "use vanishing_sequence_dual for dual-number probes")
    if v.dim == 0:
        raise ValueError("vanishing sequence of the zero series is undefined")
    if point == INFINITY:
        rows = [row[::-1] for row in v.basis_rows()]
    else:
        t = ring(point).v
        if not t:
            return v.pivots
        rows = _images(_shift_basis_rows(v.ambient_dim - 1, t, ring.p),
                       v.basis_rows(), ring.p)
    return Subspace.from_rows(ring, v.ambient_dim, rows).pivots


def vanishing_sequence(v: Subspace, point) -> RamificationData:
    """Vanishing and ramification sequences of the series v at one point
    (``_orders``), with the tameness of the orders there."""
    orders = _orders(v, point)
    if point != INFINITY:
        point = v.ring(point).v
    alpha = tuple(a - j for j, a in enumerate(orders))
    return RamificationData(point, orders, alpha, is_tame(orders, v.ring.p))


def wronskian(v: Subspace) -> tuple:
    """Determinant of the Hasse-derivative matrix of a basis, as a polynomial.

    Changing the basis scales the result by a nonzero constant, so the
    zero/nonzero verdict and all root orders are invariants of the series.
    """
    ring = v.ring
    p = _field_p(ring, "the Wronskian")
    if v.dim == 0:
        raise ValueError("Wronskian of the zero series is undefined")
    basis = v.basis_rows()
    grid = [[_poly_trim(hasse_derivative(b, j, ring)) for b in basis]
            for j in range(len(basis))]
    return _poly_det(grid, p)


def _poly_det(grid, p: int) -> tuple:
    """Cofactor expansion of a square grid of polynomials along its first row."""
    n = len(grid)
    if n == 0:
        return (1,)
    if n == 1:
        return grid[0][0]
    acc = ()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in grid[1:]]
        term = poly_mul(grid[0][j], _poly_det(minor, p), p)
        if j % 2 == 1:
            term = tuple(-x % p for x in term)
        acc = poly_add(acc, term, p)
    return _poly_trim(acc)


def is_separable(v: Subspace) -> bool:
    """A series is separable when it is not everywhere ramified, i.e. its
    Wronskian does not vanish identically."""
    return len(wronskian(v)) > 0


class PluckerCertificate(Record):
    __slots__ = ("genus", "degree", "r", "bound", "found_weight", "separable",
                 "all_inspected_tame", "inspected", "ramified")

    def __init__(self, genus: int, degree: int, r: int, bound: int,
                 found_weight: int, separable: bool, all_inspected_tame: bool,
                 inspected: list, ramified: list):
        self.genus = genus
        self.degree = degree
        self.r = r
        self.bound = bound
        self.found_weight = found_weight
        self.separable = separable
        self.all_inspected_tame = all_inspected_tame
        self.inspected = inspected  # point labels, in inspection order
        # RamificationData at the ramified inspected points
        self.ramified = ramified

    def as_dict(self) -> dict:
        return dict(super().as_dict(), schema_version=1)


def plucker_check(v: Subspace, genus: int = 0,
                  points: Optional[Sequence] = None) -> PluckerCertificate:
    """Total inspected ramification weight against (r+1)d + C(r+1,2)(2g-2),
    where d is the ambient dimension minus one.

    Inspect at least every rational point plus infinity (the default) to
    account for all ramification of a series whose Wronskian splits over the
    base field.  A genus that is not a nonnegative int (a bool is not one),
    a point that is not an int or INFINITY, or a point inspected twice
    (points are read mod p), raises ValueError.  A separable series
    exceeding the bound is impossible; it is reported as a hard error
    rather than a certificate.
    """
    ring = v.ring
    m = v.ambient_dim - 1
    r = v.dim - 1
    if type(genus) is not int:
        raise ValueError("genus must be an integer, got %r" % (genus,))
    if genus < 0:
        raise ValueError("genus must be nonnegative, got %d" % genus)
    separable = is_separable(v)
    if points is None:
        points = list(range(ring.p)) + [INFINITY]
    points = [pt if pt == INFINITY else ring(pt).v for pt in points]
    if len(set(points)) != len(points):
        raise ValueError("a point is inspected twice: %r (points are read "
                         "mod %d)" % (points, ring.p))
    bound = (r + 1) * m + comb(r + 1, 2) * (2 * genus - 2)
    total = 0
    all_tame = True
    ramified = []
    for pt in points:
        data = vanishing_sequence(v, pt)
        total += data.weight
        if not data.tame:
            all_tame = False
        if data.weight > 0:
            ramified.append(data)
    if separable and total > bound:
        raise RuntimeError(
            "separable series with inspected weight %d above the bound %d"
            % (total, bound))
    return PluckerCertificate(genus, m, r, bound, total, separable, all_tame,
                              points, ramified)


def rho(genus: int, r: int, d: int, alphas: Sequence[Sequence[int]] = ()) -> int:
    """Expected dimension (r+1)(d-r) - r*genus - sum of all ramification.

    ValueError unless genus, r and d are nonnegative ints (not bools) and
    ``alphas`` a list or tuple of non-decreasing lists or tuples of r+1
    nonnegative ints."""
    if not all(type(x) is int for x in (genus, r, d)):
        raise ValueError("genus, r and d must be integers, got %r"
                         % ((genus, r, d),))
    if genus < 0 or r < 0 or d < 0:
        raise ValueError("need genus >= 0, r >= 0 and d >= 0, got genus=%d "
                         "r=%d d=%d" % (genus, r, d))
    if not isinstance(alphas, (list, tuple)) or not all(
            isinstance(alpha, (list, tuple))
            and all(type(a) is int for a in alpha) for alpha in alphas):
        raise ValueError("alphas must be a list of integer lists, got %r"
                         % (alphas,))
    total = 0
    for alpha in alphas:
        if len(alpha) != r + 1:
            raise ValueError("ramification sequence must have length r+1")
        if any(a < 0 for a in alpha):
            raise ValueError("ramification sequence must be nonnegative")
        if any(x > y for x, y in zip(alpha, alpha[1:])):
            raise ValueError("ramification sequence must be non-decreasing")
        total += sum(alpha)
    return (r + 1) * (d - r) - r * genus - total
