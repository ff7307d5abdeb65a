"""Exact scalar arithmetic: prime fields GF(p) and dual numbers GF(p)[eps]/(eps^2).

Every value is immutable and every operation is a pure function.  The
package's routines compute with ints mod p and call none of the element
arithmetic below.  Moduli are capped at 2^31 so that all intermediate
products stay comfortably inside machine integers on any platform;
determinants are computed over unbounded integers first and only reduced
at the end.

``_residue`` is the one way a scalar enters GF(p), for ring calls and
matrix entries (``linalg._entries``) alike: an int, or an ``Fp`` of the
same p, is reduced, and anything else raises ValueError.

``Record`` is the base of the package's report records (every module
imports this one), declared without ``dataclasses`` so that importing the
package loads neither it nor the modules it pulls in.
"""

from __future__ import annotations

from math import comb

MAX_MODULUS = 2**31


class Record:
    """Base of a report record: a class whose ``__slots__`` name its fields,
    in the order of its ``__init__`` parameters.

    Two records are equal when they are of one class and equal field by
    field; a record of another class, or any other object, compares with
    ``NotImplemented``, so ``__hash__`` stays ``None`` and a record, being
    mutable, is unhashable.  ``repr`` reads ``Name(field=value, ...)``.
    ``as_dict`` is the JSON form: every field by its slot name, a tuple or
    list as a list and a nested record by its own ``as_dict``, at any
    depth of lists; a subclass adds to it or reshapes only what differs.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def as_dict(self) -> dict:
        return {name: _json_field(getattr(self, name))
                for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


def _json_field(x):
    """A record field as ``Record.as_dict`` writes it."""
    if isinstance(x, (tuple, list)):
        return [_json_field(v) for v in x]
    return x.as_dict() if isinstance(x, Record) else x


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for moduli below 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _residue(x, p: int) -> int:
    """One GF(p) entry as an int in [0, p): an int, or an Fp over the same p."""
    if isinstance(x, Fp):
        if x.p != p:
            raise ValueError("element of GF(%d) used in GF(%d)" % (x.p, p))
        return x.v
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x) % p
    raise ValueError("entries over GF(%d) must be integers, got %r" % (p, x))


class Fp:
    """An element of GF(p).  Arithmetic requires both operands to share p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ValueError("mixed moduli: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int) and not isinstance(other, bool):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return "Fp(%d, %d)" % (self.v, self.p)

    def is_zero(self) -> bool:
        return self.v == 0

    def is_unit(self) -> bool:
        return self.v != 0

    def inverse(self) -> "Fp":
        if self.v == 0:
            raise ZeroDivisionError("inverse of zero in GF(%d)" % self.p)
        return Fp(pow(self.v, -1, self.p), self.p)


class Dual:
    """An element a0 + a1*eps of GF(p)[eps]/(eps^2); a unit iff a0 != 0."""

    __slots__ = ("a0", "a1", "p")

    def __init__(self, a0: int, a1: int, p: int):
        self.a0 = a0 % p
        self.a1 = a1 % p
        self.p = p

    def _coerce(self, other) -> "Dual":
        if isinstance(other, Dual):
            if other.p != self.p:
                raise ValueError("mixed moduli: %d vs %d" % (self.p, other.p))
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return Dual(other, 0, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dual(self.a0 + o.a0, self.a1 + o.a1, self.p)

    __radd__ = __add__

    def __mul__(self, other):
        # (a0 + a1 eps)(b0 + b1 eps) = a0 b0 + (a0 b1 + a1 b0) eps
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Dual(self.a0 * o.a0, self.a0 * o.a1 + self.a1 * o.a0, self.p)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Dual):
            return (self.p, self.a0, self.a1) == (other.p, other.a0, other.a1)
        if isinstance(other, int) and not isinstance(other, bool):
            return self.a1 == 0 and self.a0 == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.a0, self.a1, self.p))

    def __repr__(self):
        return "Dual(%d, %d, %d)" % (self.a0, self.a1, self.p)

    def inverse(self) -> "Dual":
        """(a0 + a1 eps)^-1 = a0^-1 - a0^-2 a1 eps."""
        if self.a0 == 0:
            raise ZeroDivisionError(
                "not a unit in GF(%d)[eps]: %r" % (self.p, self))
        inv0 = pow(self.a0, -1, self.p)
        return Dual(inv0, -inv0 * inv0 * self.a1, self.p)


class PrimeField:
    """Ring descriptor for GF(p).  Calling it coerces through ``_residue``.
    ``dual_ring`` is GF(p)[eps] over it, built once on first use, so that
    ``to_dual`` reruns no primality test."""

    __slots__ = ("p", "_dual_ring")
    dual = False

    def __init__(self, p: int):
        # the size cap first: trial division of a huge modulus never ends
        if isinstance(p, int) and p >= MAX_MODULUS:
            raise ValueError("modulus must be < 2^31, got %d" % p)
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError("modulus must be a prime integer, got %r" % (p,))
        self.p = p
        self._dual_ring = None

    @property
    def dual_ring(self) -> "DualNumbers":
        ring = self._dual_ring
        if ring is None:
            ring = self._dual_ring = DualNumbers.__new__(DualNumbers)
            ring.p, ring.field = self.p, self
        return ring

    def __call__(self, v) -> Fp:
        if isinstance(v, Fp) and v.p == self.p:
            return v
        return Fp(_residue(v, self.p), self.p)

    def zero(self) -> Fp:
        return Fp(0, self.p)

    def one(self) -> Fp:
        return Fp(1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    def as_dict(self) -> dict:
        return {"p": self.p, "dual": False}


class DualNumbers:
    """Ring descriptor for GF(p)[eps]/(eps^2).  ``field`` is its residue
    field GF(p), built once: reducing mod eps reads it rather than rerunning
    the primality test."""

    __slots__ = ("p", "field")
    dual = True

    def __init__(self, p: int):
        self.field = PrimeField(p)  # validates primality and the size cap
        self.p = p

    def __call__(self, a0, a1: int = 0) -> Dual:
        if isinstance(a0, Dual) and a0.p == self.p:
            return a0
        p = self.p
        return Dual(_residue(a0, p), _residue(a1, p), p)

    def zero(self) -> Dual:
        return Dual(0, 0, self.p)

    def one(self) -> Dual:
        return Dual(1, 0, self.p)

    def eps(self) -> Dual:
        return Dual(0, 1, self.p)

    def __eq__(self, other):
        return isinstance(other, DualNumbers) and other.p == self.p

    def __hash__(self):
        return hash(("dual", self.p))

    def __repr__(self):
        return "DualNumbers(%d)" % self.p

    def as_dict(self) -> dict:
        return {"p": self.p, "dual": True}


def ring_from_dict(d: dict, known=None):
    """The ring of ``as_dict``; ``dual``, when present, must be a bool.
    ``known`` is returned when it is that ring: no new primality test."""
    dual = d.get("dual", False)
    if type(dual) is not bool:
        raise ValueError("ring 'dual' must be a JSON boolean, got %r" % (dual,))
    if (known is not None and type(d["p"]) is int and d["p"] == known.p
            and dual == known.dual):
        return known
    return DualNumbers(d["p"]) if dual else PrimeField(d["p"])


def integer_determinant(m: list) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def binomial_matrix(a) -> list:
    """Matrix binom(a_i, j) for 0 <= i, j <= r, over the integers."""
    r = len(a) - 1
    return [[comb(ai, j) for j in range(r + 1)] for ai in a]


def tameness_determinant(a, p: int) -> Fp:
    """det(binom(a_i, j)) mod p for a strictly increasing vanishing sequence.

    Nonzero exactly when the sequence is "tame" at the point: the orders are
    spread out mod p so that the leading term of the ramification section
    survives reduction.  Computed exactly over the integers, then reduced.
    """
    a = list(a)
    if not a or a[0] < 0 or any(x >= y for x, y in zip(a, a[1:])):
        raise ValueError(
            "vanishing sequence must be strictly increasing and nonnegative: %r" % (a,))
    return PrimeField(p)(integer_determinant(binomial_matrix(a)))


def is_tame(a, p: int) -> bool:
    return tameness_determinant(a, p).is_unit()
