"""Canonical exact linear algebra over GF(p) and GF(p)[eps]/(eps^2).

Matrices act on column vectors; vectors are plain tuples of entries.
Subspaces are stored by their reduced row-echelon basis, which is the unique
canonical representative, so subspace equality, hashing and set-level
deduplication are exact.  Everything is immutable and side-effect free; the
subspace stream splits deterministically by pivot pattern into echelon cells.

Entries.  Over GF(p) a Matrix or Subspace holds its entries as plain ints in
[0, p), with p read from ``ring.p``, and every routine works on them with int
arithmetic reduced mod p.  ``Fp`` and ``Dual`` are the boundary types:
``Matrix.from_rows``, ``Subspace.from_rows`` and the ``from_dict`` readers
accept ints, or ``Fp`` of the same p, and reduce them through
``fields._residue``, as the ring calls do (vectors passed to ``apply``,
``contains_vector`` and ``coords_in_rows`` too); anything else raises
ValueError.  Entry accessors (``entry``, ``row``, ``row_list``,
``basis_rows``, ``apply``) return ints over GF(p); since ``Fp(a, p) == a``,
comparisons against ``Fp`` values still hold.  ``Matrix.det`` returns an
``Fp``.  A field matrix never mixes ``Fp`` and int entries, because they
hash differently and subspace hashing reads ``entries``.

Kernels.  The field routines share one elimination on lists of int rows,
``_reduce``, which ``rref`` wraps, and one product, ``_images``, which
every map applied to int rows in the package runs through.  ``apply_map``,
``kernel`` and ``preimage`` each reduce once and build no intermediate
Matrix, Echelon or Subspace; the null spaces are reduced with pivots taken
right to left, so their null vectors are already canonical
(``_null_basis``).  The streams
``_cells`` (behind ``enumerate_subspaces``) and ``_between`` (over a
``_cells`` stream its caller passes) yield echelon entries, not subspaces,
so a caller can intern a space before building it.  Nothing is cached.

Dual numbers.  Over R = GF(p)[eps]/(eps^2) the entries are ``Dual`` values,
and a submodule M of R^d is decided through the GF(p)-subspace
W = {(x0 | x1) : x0 + eps x1 in M} of GF(p)^(2d), which is stable under
eps: (x0 | x1) -> (0 | x0).  The field RREF of W is unique and is read back
as the canonical basis of M: rows led in the x0 block are the unit-pivot
rows x0 + eps x1; rows (0 | t) led in the x1 block run over the RREF of
T = {t : eps t in M}, and eps t is kept (as an eps-torsion row, after the
unit-pivot rows) only when the pivot of t is not a unit pivot.  So equal
modules have equal bases and hashes, and membership is membership in W.
Rank counts unit pivots; ``unit_pivots`` is False when a torsion row is kept
or a unit-pivot row has an eps entry left of its pivot.  Matrix products,
sums, ``scale``, ``apply``, ``det``, ``kernel``, ``constraints`` and
``coords_in_rows`` require field coefficients and raise ValueError over the
dual numbers; ``apply_map`` also takes a map over GF(p) on a module over
GF(p)[eps], acting on both eps-parts.  A containment of modules is one test
against W.  Rank conditions that must hold on the whole ring (not just at
the closed point) go through ``rank_everywhere_at_most``, which splits a
dual matrix as A0 + eps A1 and decides the bound from the GF(p) rank of A0
and, at the boundary rank, from whether A1 maps ker A0 into im A0.  No
routine does arithmetic on ``Fp`` or ``Dual`` elements.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .fields import (Dual, Fp, PrimeField, _residue,
                     integer_determinant, ring_from_dict)


class BudgetError(RuntimeError):
    """An enumeration would examine more candidates than the budget allows."""

    def __init__(self, message: str, count: Optional[int] = None):
        super().__init__(message)
        self.count = count


def _entries(ring, xs) -> tuple:
    """A row through ``fields._residue``: ints mod p over a field, the ring's
    own ``Dual`` values over the dual numbers."""
    if ring.dual:
        return tuple(map(ring, xs))
    p = ring.p
    return tuple([x % p if type(x) is int else _residue(x, p) for x in xs])


def _field_p(ring, what: str) -> int:
    """p of a field ring; dual-number coefficients raise ValueError."""
    if ring.dual:
        raise ValueError("%s requires field coefficients" % what)
    return ring.p


def _require_dict(d, what: str, keys: Sequence[str] = ()) -> dict:
    """``d``, checked to be a JSON object holding every one of ``keys``."""
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, got %s"
                         % (what, type(d).__name__))
    for key in keys:
        if key not in d:
            raise ValueError("%s is missing key %r" % (what, key))
    return d


class Matrix:
    __slots__ = ("ring", "rows", "cols", "entries", "_row_tuples")

    def __init__(self, ring, rows: int, cols: int, entries: tuple):
        if len(entries) != rows * cols:
            raise ValueError("entry count %d does not match %dx%d"
                             % (len(entries), rows, cols))
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._row_tuples = None

    @classmethod
    def from_rows(cls, ring, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of ``rows``, a list or tuple of equally long lists or
        tuples of entries; any other shape raises ValueError."""
        if not isinstance(rows, (list, tuple)) or \
                not all(isinstance(row, (list, tuple)) for row in rows):
            raise ValueError("rows must be a list of lists, got %r" % (rows,))
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        ents = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            ents.extend(row)
        return cls(ring, nrows, ncols, _entries(ring, ents))

    @classmethod
    def identity(cls, ring, n: int) -> "Matrix":
        return cls(ring, n, n, _entries(ring, [int(i == j) for i in range(n)
                                               for j in range(n)]))

    @classmethod
    def zero(cls, ring, rows: int, cols: int) -> "Matrix":
        return cls(ring, rows, cols, _entries(ring, (0,) * (rows * cols)))

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _rows(self) -> list:
        # a new list each call, of row tuples sliced once per matrix (the
        # entries never change), so a caller may replace its items
        rows = self._row_tuples
        if rows is None:
            c, e = self.cols, self.entries
            rows = self._row_tuples = tuple([e[i * c:(i + 1) * c]
                                             for i in range(self.rows)])
        return list(rows)

    def column(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def row_list(self) -> list:
        return [list(r) for r in self._rows()]

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, self.cols, self.rows,
                      tuple(chain.from_iterable(self.column(j)
                                                for j in range(self.cols))))

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows or self.ring != other.ring:
            raise ValueError("shape/ring mismatch in matrix product")
        p = _field_p(self.ring, "a matrix product")
        # row i of the product is the transpose of other applied to row i
        cols = [other.column(j) for j in range(other.cols)]
        ents = tuple(chain.from_iterable(_images(cols, self._rows(), p)))
        return Matrix(self.ring, self.rows, other.cols, ents)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ValueError("shape/ring mismatch in matrix sum")
        p = _field_p(self.ring, "a matrix sum")
        ents = tuple((a + b) % p for a, b in zip(self.entries, other.entries))
        return Matrix(self.ring, self.rows, self.cols, ents)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols, self.ring) != (other.rows, other.cols, other.ring):
            raise ValueError("shape/ring mismatch in matrix difference")
        p = _field_p(self.ring, "a matrix difference")
        ents = tuple((a - b) % p for a, b in zip(self.entries, other.entries))
        return Matrix(self.ring, self.rows, self.cols, ents)

    def scale(self, c) -> "Matrix":
        p = _field_p(self.ring, "scaling a matrix")
        c = _residue(c, p)
        ents = tuple(c * x % p for x in self.entries)
        return Matrix(self.ring, self.rows, self.cols, ents)

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product m @ v with v a length-`cols` vector."""
        if len(v) != self.cols:
            raise ValueError("vector length %d does not match cols %d"
                             % (len(v), self.cols))
        v = _entries(self.ring, v)
        p = _field_p(self.ring, "applying a matrix")
        return tuple(_images(self._rows(), (v,), p)[0])

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        ents = tuple(self.entry(i, j) for i in rows for j in cols)
        return Matrix(self.ring, len(rows), len(cols), ents)

    def det(self):
        """Determinant over GF(p), as an ``Fp``: fraction-free Bareiss on the
        entries as integers, reduced at the end."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        p = _field_p(self.ring, "a determinant")
        return Fp(integer_determinant(self._rows()), p)

    def to_dual(self) -> "Matrix":
        """Reinterpret a GF(p) matrix over GF(p)[eps]/(eps^2)."""
        if self.ring.dual:
            return self
        p = self.ring.p
        return Matrix(self.ring.dual_ring, self.rows, self.cols,
                      tuple(Dual(x, 0, p) for x in self.entries))

    def mod_eps(self) -> "Matrix":
        """Reduce a dual-number matrix modulo eps."""
        if not self.ring.dual:
            return self
        return Matrix(self.ring.field, self.rows, self.cols,
                      tuple(x.a0 for x in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring, self.rows, self.cols, self.entries) == \
               (other.ring, other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __repr__(self):
        return "Matrix(%r, %s)" % (self.ring, _rows_repr(self._rows()))

    def as_dict(self) -> dict:
        return {"ring": self.ring.as_dict(), "rows": self.rows, "cols": self.cols,
                "entries": [_entry_json(x) for x in self.entries]}

    @classmethod
    def from_dict(cls, d: dict, ring=None) -> "Matrix":
        d = _require_dict(d, "a matrix", ("ring", "rows", "cols", "entries"))
        ring = ring_from_dict(_require_dict(d["ring"], "a matrix ring",
                                            ("p",)), ring)
        rows, cols, ents = d["rows"], d["cols"], d["entries"]
        if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
            raise ValueError("matrix rows and cols must be nonnegative integers")
        if not isinstance(ents, list):
            raise ValueError("matrix entries must be a JSON list")
        return cls(ring, rows, cols, tuple(_entry_from_json(ring, e) for e in ents))


def _rows_repr(rows) -> str:
    """Rows as a bracketed list, ints bare and a dual entry as a0+a1e."""
    return "[%s]" % ", ".join("[%s]" % ", ".join(
        "%d+%de" % (x.a0, x.a1) if isinstance(x, Dual) else str(x)
        for x in row) for row in rows)


def _entry_json(x):
    return [x.a0, x.a1] if isinstance(x, Dual) else x


def _entry_from_json(ring, e):
    if not ring.dual:
        return _residue(e, ring.p)
    if not isinstance(e, list) or len(e) != 2:
        raise ValueError("dual-number entries must be [a0, a1] pairs, got %r"
                         % (e,))
    return ring(*e)


class Echelon(NamedTuple):
    matrix: Matrix          # canonical form, zero rows dropped
    rank: int               # number of unit pivots
    pivots: tuple           # pivot column per unit-pivot row
    unit_pivots: bool       # every surviving row is led by its unit pivot


def _images(mrows: Sequence[Sequence[int]], vectors: Iterable[Sequence[int]],
            p: int) -> list:
    """The images M v mod p, as lists, of the int ``vectors`` under the map
    M given by its int rows ``mrows``: the one product kernel, so every
    map applied to int rows, and every matrix product, runs here."""
    return [[sum(map(mul, row, v)) % p for row in mrows] for v in vectors]


def _reduce(rows: list, cols, p: int) -> list:
    """Row-reduce rows of ints in [0, p) in place, taking pivot columns in
    the order ``cols``; return the pivots.  ``rows`` is left holding one row
    per pivot, 1 there, 0 at the other pivots and at the columns before it
    in ``cols``.  Rows are replaced, not mutated, so tuples may be passed."""
    nrows = len(rows)
    pivots = []
    rank = 0
    for col in cols:
        if rank == nrows:
            break
        for sel in range(rank, nrows):
            if rows[sel][col]:
                break
        else:
            continue
        prow = rows[sel]
        rows[sel] = rows[rank]
        lead = prow[col]
        if lead != 1:
            inv = pow(lead, -1, p)
            prow = [inv * x % p for x in prow]
        rows[rank] = prow
        for i in range(nrows):
            if i != rank:
                row = rows[i]
                c = row[col]
                if c:
                    rows[i] = [(a - c * b) % p for a, b in zip(row, prow)]
        pivots.append(col)
        rank += 1
    del rows[rank:]
    return pivots


def rref(m: Matrix) -> Echelon:
    """Reduced row-echelon form, canonical over both rings.

    Over a field this is the classical unique RREF.  Over the dual numbers
    it is the RREF of the eps-stable GF(p)-subspace W read back as a module
    basis (see the module docstring): unit-pivot rows first, then the
    eps-torsion rows, so the form depends only on the module spanned.
    """
    if m.ring.dual:
        return _rref_dual(m)
    rows = m._rows()
    pivots = _reduce(rows, range(m.cols), m.ring.p)
    flat = tuple(chain.from_iterable(rows))
    return Echelon(Matrix(m.ring, len(rows), m.cols, flat), len(rows),
                   tuple(pivots), True)


def _eps_stable(m: Matrix) -> Matrix:
    """GF(p) matrix whose row space is W for the row module M of a dual matrix.

    Each row x0 + eps x1 contributes (x0 | x1) and its eps multiple (0 | x0).
    """
    zeros = [0] * m.cols
    rows = []
    for r in m._rows():
        x0 = [x.a0 for x in r]
        rows.append(x0 + [x.a1 for x in r])
        rows.append(zeros + x0)
    return Matrix(m.ring.field, 2 * m.rows, 2 * m.cols,
                  tuple(chain.from_iterable(rows)))


def _rref_dual(m: Matrix) -> Echelon:
    d, p = m.cols, m.ring.p
    w = rref(_eps_stable(m))
    rows = []
    pivots = []
    unit_ok = True
    # field RREF lists every row led in the x0 block before the x1 block
    for r, pc in zip(w.matrix._rows(), w.pivots):
        if pc < d:
            pivots.append(pc)
            unit_ok = unit_ok and not any(r[d:d + pc])
            rows.append([Dual(a, b, p) for a, b in zip(r[:d], r[d:])])
        elif pc - d not in pivots:
            unit_ok = False
            rows.append([Dual(0, b, p) for b in r[d:]])
    return Echelon(Matrix(m.ring, len(rows), d, tuple(chain.from_iterable(rows))),
                   len(pivots), tuple(pivots), unit_ok)


class Subspace:
    """A subspace of ring^d held by its canonical echelon basis.

    Two subspaces are equal iff their canonical bases agree entrywise.  Over
    the dual numbers the basis is the canonical form of the eps-stable
    GF(p)-subspace W (module docstring), so two generating sets of one module
    give equal, equally hashed Subspaces.  A dual Subspace tracks
    ``unit_pivots`` (every basis row is led by its unit pivot) and exposes
    ``is_free_cofree`` (no eps-torsion row: free with free quotient), which
    is the condition for being an honest rank-r sub-bundle.

    Only this module builds a Subspace from its parts: a space whose
    canonical basis is already known (an echelon cell, an interval's
    candidate, a reduced span or null space) comes from ``_from_echelon``.
    """

    __slots__ = ("ring", "ambient_dim", "basis", "pivots", "unit_pivots",
                 "_hash")

    def __init__(self, ring, ambient_dim: int, basis: Matrix, pivots: tuple,
                 unit_pivots: bool):
        self.ring = ring
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots
        self.unit_pivots = unit_pivots
        self._hash = None

    @classmethod
    def from_rows(cls, ring, ambient_dim: int, rows: Sequence[Sequence]) -> "Subspace":
        """The span of ``rows``, checked as ``Matrix.from_rows`` checks them."""
        m = Matrix.from_rows(ring, rows)
        if not m.rows:
            return cls.zero_space(ring, ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("row length %d does not match ambient %d"
                             % (m.cols, ambient_dim))
        return cls.from_matrix(m)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "Subspace":
        ech = rref(m)
        return cls(m.ring, m.cols, ech.matrix, ech.pivots, ech.unit_pivots)

    @classmethod
    def _from_echelon(cls, ring, ambient_dim: int, entries: tuple,
                      pivots: Sequence[int]) -> "Subspace":
        """The space over a field whose canonical basis has the row-major
        ``entries`` and pivot columns ``pivots``, trusted as given."""
        return cls(ring, ambient_dim,
                   Matrix(ring, len(pivots), ambient_dim, entries),
                   tuple(pivots), True)

    @classmethod
    def zero_space(cls, ring, ambient_dim: int) -> "Subspace":
        return cls._from_echelon(ring, ambient_dim, (), ())

    @classmethod
    def full_space(cls, ring, ambient_dim: int) -> "Subspace":
        return cls.from_matrix(Matrix.identity(ring, ambient_dim))

    @classmethod
    def _span(cls, ring, ambient_dim: int, rows: list) -> "Subspace":
        # span of rows that already hold entries of ring
        if not rows:
            return cls.zero_space(ring, ambient_dim)
        if ring.dual:
            flat = tuple(chain.from_iterable(rows))
            return cls.from_matrix(Matrix(ring, len(rows), ambient_dim, flat))
        rows = list(rows)
        pivots = _reduce(rows, range(ambient_dim), ring.p)
        return cls._from_echelon(ring, ambient_dim,
                                 tuple(chain.from_iterable(rows)), pivots)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def is_free_cofree(self) -> bool:
        """No eps-torsion basis row, i.e. every row has a unit pivot (always
        true over a field)."""
        return self.dim == len(self.pivots)

    def basis_rows(self) -> list:
        return self.basis._rows()

    def contains_vector(self, v: Sequence) -> bool:
        """Membership test by reduction against the canonical basis.

        Over a field the coefficients are forced by the pivot coordinates
        (pivot columns are cleared in every other basis row).  Over the dual
        numbers v0 + eps v1 lies in the module iff (v0 | v1) lies in W.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return self._holds((_entries(self.ring, v),))

    def _holds(self, vectors) -> bool:
        # every vector lies in this subspace, unchecked: (v0 | v1) in W for
        # each dual v0 + eps v1; over a field, of ints (any representatives
        # mod p), pivot coordinates are never touched by the other basis
        # rows, so reduction mod p can wait until the end
        if self.ring.dual:
            w = Subspace.from_matrix(_eps_stable(self.basis))
            return w._holds([[x.a0 for x in v] + [x.a1 for x in v]
                             for v in vectors])
        basis = list(zip(self.basis._rows(), self.pivots))
        p = self.ring.p
        for v in vectors:
            for row, pc in basis:
                c = v[pc]
                if c:
                    v = [a - c * b for a, b in zip(v, row)]
            if any(x % p for x in v):
                return False
        return True

    def contains(self, other: "Subspace") -> bool:
        """True when ``other`` is a subspace of ``self``."""
        if other.ambient_dim != self.ambient_dim or other.ring != self.ring:
            raise ValueError("ambient mismatch in containment test")
        return self._holds(other.basis_rows())

    def sum(self, other: "Subspace") -> "Subspace":
        _check_ambient(self, other)
        return Subspace._span(self.ring, self.ambient_dim,
                              self.basis_rows() + other.basis_rows())

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked dual constraints."""
        _check_ambient(self, other)
        a, b = self.constraints(), other.constraints()
        return kernel(Matrix(self.ring, a.rows + b.rows, self.ambient_dim,
                             a.entries + b.entries))

    __and__ = intersect

    def constraints(self) -> Matrix:
        """A matrix whose kernel is exactly this subspace (field rings only):
        the annihilator read off the canonical basis b_i with pivots pc_i,
        one row e_c - sum_i b_i[c] e_(pc_i) per non-pivot column c."""
        p = _field_p(self.ring, "constraints")
        d = self.ambient_dim
        rows = self._annihilate(Matrix.identity(self.ring, d)._rows(), p)
        return Matrix(self.ring, len(rows), d, tuple(chain.from_iterable(rows)))

    def _annihilate(self, mrows: list, p: int) -> list:
        # the rows a m, for m given by its rows and a over the annihilator
        # rows of ``constraints``: row c of m minus the b_i[c] multiples of
        # m's rows at the pivots, never a matrix product
        basis = list(zip(self.basis_rows(), self.pivots))
        pset = set(self.pivots)
        rows = []
        for c in range(self.ambient_dim):
            if c in pset:
                continue
            eq = mrows[c]
            for b, pc in basis:
                x = b[c]
                if x:
                    eq = [a - x * y for a, y in zip(eq, mrows[pc])]
            rows.append([a % p for a in eq])
        return rows

    def mod_eps(self) -> "Subspace":
        return Subspace.from_matrix(self.basis.mod_eps())

    def to_dual(self) -> "Subspace":
        return Subspace.from_matrix(self.basis.to_dual())

    def key(self) -> tuple:
        return (self.ambient_dim,) + self.basis.entries

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        # entries first: they differ far more often than the rings do
        return (self.basis.entries == other.basis.entries
                and self.ambient_dim == other.ambient_dim
                and self.ring == other.ring)

    def __hash__(self):
        # computed on first use: the canonical basis never changes
        h = self._hash
        if h is None:
            h = self._hash = hash((self.ring, self.ambient_dim,
                                   self.basis.entries))
        return h

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d, basis=%s)" % (
            self.dim, self.ambient_dim, _rows_repr(self.basis_rows()))

    def as_dict(self) -> dict:
        return {"ring": self.ring.as_dict(), "ambient_dim": self.ambient_dim,
                "rank": self.dim,
                "basis": [[_entry_json(x) for x in r] for r in self.basis_rows()]}

    @classmethod
    def from_dict(cls, d: dict, ring=None) -> "Subspace":
        d = _require_dict(d, "a subspace",
                          ("ring", "ambient_dim", "rank", "basis"))
        ring = ring_from_dict(_require_dict(d["ring"], "a subspace ring",
                                            ("p",)), ring)
        ambient, rank, basis = d["ambient_dim"], d["rank"], d["basis"]
        if type(ambient) is not int or ambient < 0:
            raise ValueError("subspace ambient_dim must be a nonnegative integer")
        if not isinstance(basis, list) or \
                not all(isinstance(row, list) for row in basis):
            raise ValueError("subspace basis must be a JSON list of rows")
        sp = cls.from_rows(ring, ambient,
                           [[_entry_from_json(ring, e) for e in row]
                            for row in basis])
        if type(rank) is not int or rank != sp.dim:
            raise ValueError("subspace rank %r does not match the dimension %d "
                             "of its basis" % (rank, sp.dim))
        return sp


def _check_ambient(u: Subspace, w: Subspace) -> None:
    if u.ambient_dim != w.ambient_dim or u.ring != w.ring:
        raise ValueError("ambient dimension or ring mismatch")


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} as a canonical Subspace (field coefficients)."""
    p = _field_p(m.ring, "kernel computation")
    return _null_space(m.ring, m._rows(), m.cols, p)


def _null_space(ring, rows: list, d: int, p: int) -> Subspace:
    """{v : r . v = 0 for every row r}, by one elimination of ``rows``."""
    basis, free = _null_basis(rows, d, p)
    return Subspace._from_echelon(ring, d, tuple(chain.from_iterable(basis)),
                                  free)


def _null_basis(rows: list, d: int, p: int) -> tuple:
    """(basis rows, pivots) of the canonical basis of ``_null_space``.

    Pivots are taken right to left, so each reduced row is 0 right of its
    pivot pc.  The null vector e_c - sum_i row_i[c] e_(pc_i) of a free
    column c is then nonzero only at c and at pivots right of c: the null
    vectors, by free column, are already the canonical basis.
    """
    pivots = _reduce(rows, range(d - 1, -1, -1), p)
    pset = set(pivots)
    free = [c for c in range(d) if c not in pset]
    basis = []
    for c in free:
        v = [0] * d
        v[c] = 1
        for row, pc in zip(rows, pivots):
            x = row[c]
            if x:
                v[pc] = p - x
        basis.append(v)
    return basis, tuple(free)


def image(m: Matrix) -> Subspace:
    """Column space of m, i.e. the image of v -> m v."""
    return Subspace._span(m.ring, m.rows, [m.column(j) for j in range(m.cols)])


def apply_map(m: Matrix, u: Subspace) -> Subspace:
    """Image of the subspace u under the linear map m, which has field
    coefficients.  A map over GF(p) also acts on a module u over
    GF(p)[eps], on both eps-parts: m(x0 + eps x1) = m x0 + eps m x1."""
    if (m.cols != u.ambient_dim or m.ring.p != u.ring.p
            or m.ring.dual and not u.ring.dual):
        raise ValueError("map domain %d over %r does not match ambient %d "
                         "over %r" % (m.cols, m.ring, u.ambient_dim, u.ring))
    p = _field_p(m.ring, "applying a matrix")
    basis, mrows = u.basis_rows(), m._rows()
    if not u.ring.dual:
        return Subspace._span(u.ring, m.rows, _images(mrows, basis, p))
    lo = _images(mrows, [[x.a0 for x in b] for b in basis], p)
    hi = _images(mrows, [[x.a1 for x in b] for b in basis], p)
    return Subspace._span(u.ring, m.rows,
                          [[Dual(a, b, p) for a, b in zip(y0, y1)]
                           for y0, y1 in zip(lo, hi)])


def preimage(m: Matrix, w: Subspace) -> Subspace:
    """{v : m v in w} (field coefficients), by one elimination.

    Its equations are the rows a m for the annihilator rows
    a = e_c - sum_i b_i[c] e_(pc_i) of w (``constraints``), read off w's
    basis and m's rows.  A full w has no equations, and its preimage is the
    whole domain.
    """
    if m.rows != w.ambient_dim or m.ring != w.ring:
        raise ValueError("map codomain %d over %r does not match ambient %d "
                         "over %r" % (m.rows, m.ring, w.ambient_dim, w.ring))
    p = _field_p(m.ring, "preimage")
    return _null_space(m.ring, w._annihilate(m._rows(), p), m.cols, p)


def sum_spaces(u: Subspace, w: Subspace) -> Subspace:
    return u.sum(w)


def intersect(u: Subspace, w: Subspace) -> Subspace:
    return u.intersect(w)


def contains(u: Subspace, w: Subspace) -> bool:
    return u.contains(w)


def coords_in_rows(rows: Sequence[Sequence], v: Sequence, ring):
    """Coefficients expressing v as a combination of the given rows, or None."""
    _field_p(ring, "coords_in_rows")
    if not rows:
        return () if not any(_entries(ring, v)) else None
    m = Matrix.from_rows(ring, rows)
    if len(v) != m.cols:
        raise ValueError("vector length %d does not match row length %d"
                         % (len(v), m.cols))
    # the system sum_i c_i rows[i] = v has the rows as its columns: reduce
    # the augmented [rows^T | v]
    aug = chain.from_iterable(zip(*m._rows(), _entries(ring, v)))
    ech = rref(Matrix(ring, m.cols, m.rows + 1, tuple(aug)))
    x = [0] * m.rows
    for i, pc in enumerate(ech.pivots):
        if pc == m.rows:
            return None  # pivot in the augmented column: inconsistent
        x[pc] = ech.matrix.entry(i, m.rows)
    return tuple(x)


def gaussian_binomial(d: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^d; q must be an int
    (not a bool) >= 2, or ValueError is raised."""
    if type(q) is not int or q < 2:
        raise ValueError("q must be an integer >= 2, got %r" % (q,))
    if r < 0 or r > d:
        return 0
    num = 1
    den = 1
    for i in range(r):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _free_position_count(d: int, pivots: Sequence[int]) -> int:
    pset = set(pivots)
    return sum(1 for i, pc in enumerate(pivots)
               for c in range(pc + 1, d) if c not in pset)


def pivot_patterns(d: int, r: int) -> Iterator[tuple]:
    """All echelon pivot-column patterns in lexicographic order."""
    return combinations(range(d), r)


def enumerate_subspaces(d: int, r: int, q: int,
                        pivots: Optional[tuple] = None) -> Iterator[Subspace]:
    """Yield every r-dimensional subspace of GF(q)^d exactly once.

    Deterministic order: pivot patterns lexicographically, then free entries
    lexicographically (row-major positions, last position varying fastest).
    Restricting ``pivots`` to one pattern yields a single echelon cell, so an
    exhaustive search splits into disjoint cells; ValueError is raised
    unless the pattern is a strictly increasing sequence of r ints (not
    bools) in [0, d).  The spaces are those of the entry stream ``_cells``,
    each built as a ``Subspace``.
    """
    if r < 0 or r > d:
        raise ValueError("need 0 <= r <= d, got r=%d d=%d" % (r, d))
    if pivots is not None:
        pivots = tuple(pivots)
        if (len(pivots) != r
                or any(type(c) is not int or not 0 <= c < d for c in pivots)
                or any(a >= b for a, b in zip(pivots, pivots[1:]))):
            raise ValueError("pivots must be %d strictly increasing integers "
                             "in [0, %d), got %r" % (r, d, pivots))
    ring = PrimeField(q)
    for ents, pat in _cells(d, r, q, pivots):
        yield Subspace._from_echelon(ring, d, ents, pat)


def _cells(d: int, r: int, q: int,
           pivots: Optional[tuple] = None) -> Iterator[tuple]:
    """(echelon entries, pivots) of each space of ``enumerate_subspaces``,
    in its order, with no ``Subspace`` built (0 <= r <= d unchecked)."""
    patterns = [tuple(pivots)] if pivots is not None else pivot_patterns(d, r)
    for pat in patterns:
        pset = set(pat)
        # flat row-major positions of the free entries, and the cell's
        # template with its pivot ones in place
        free_pos = [i * d + c for i, pc in enumerate(pat)
                    for c in range(pc + 1, d) if c not in pset]
        template = [0] * (r * d)
        for i, pc in enumerate(pat):
            template[i * d + pc] = 1
        # the free entries are the base-q digits of a counter, last
        # position fastest, so no list of GF(q) is built
        free_pos.reverse()
        for count in range(q ** len(free_pos)):
            ents = template[:]
            for pos in free_pos:
                count, ents[pos] = divmod(count, q)
            yield tuple(ents), pat


def enumerate_between(lower: Subspace, upper: Subspace, r: int) -> Iterator[Subspace]:
    """All r-dimensional subspaces V with lower <= V <= upper, each once.

    A thin wrapper over the private entry stream ``_between``, which the
    interval passes of ``chains`` read directly: it checks the coefficients
    and the containment (dual coefficients, or lower not inside upper, raise
    ValueError), passes a fresh quotient stream ``_cells`` and builds a
    ``Subspace`` for each space the stream yields.  Deterministic order
    inherited from enumerate_subspaces.
    """
    q = _field_p(lower.ring, "enumerate_between")
    if not upper.contains(lower):
        raise ValueError("lower is not contained in upper")
    ring, ambient = lower.ring, lower.ambient_dim
    cells = _cells(upper.dim - lower.dim, r - lower.dim, q)
    for ents, pivots in _between((lower.basis_rows(), lower.pivots),
                                 (upper.basis_rows(), upper.pivots), r, q,
                                 cells):
        yield Subspace._from_echelon(ring, ambient, ents, pivots)


def _between(lower: tuple, upper: tuple, r: int, q: int,
             cells: Iterable[tuple]) -> Iterator[tuple]:
    """(entries, pivots) of the canonical basis of each r-dimensional space
    between lower and upper, which are given by their canonical (rows,
    pivots) over GF(q), with lower inside upper (unchecked).

    Works in quotient coordinates of upper/lower so candidates are generated,
    never filtered.  The pivots of a subspace are the leading columns of its
    vectors, so lower's pivots are among upper's, and the rows of upper's
    canonical basis at the other pivots span a complement of lower: they are
    the quotient coordinates, read off the two echelon forms without
    solving.  The quotient spaces are read from ``cells``, the caller's
    stream (or replay) of ``_cells(dim upper - dim lower, r - dim lower,
    q)``, only as far as this stream runs; for r = dim lower or dim upper
    the one candidate is lower or upper, and ``cells`` is not read.  The
    canonical basis of a candidate is built, not reduced: the lifted
    rows are 1 at their own pivots and 0 at one another's and at lower's,
    so it is lower's rows cleared at the lifted pivots plus the lifted rows,
    sorted by pivot.  Quotient spaces share rows, so each quotient row is
    lifted once per call and its lift kept for the rest of the stream.
    """
    (lrows, lpivots), (urows, upivots) = lower, upper
    a, b = len(lrows), len(urows)
    if r < a or r > b:
        return
    if r == a or r == b:
        rows, pivots = (lrows, lpivots) if r == a else (urows, upivots)
        yield tuple(chain.from_iterable(rows)), tuple(pivots)
        return
    lpiv = set(lpivots)
    quotient = [(pc, row) for row, pc in zip(urows, upivots) if pc not in lpiv]
    lower_rows = list(zip(lpivots, lrows))
    ambient, m = len(urows[0]), b - a
    lifts = {}
    for wents, wpivots in cells:
        lifted = []
        for i, wpc in zip(range(0, len(wents), m), wpivots):
            wrow = wents[i:i + m]
            lift = lifts.get(wrow)
            if lift is None:
                # lift through the complement coordinates back to ambient
                amb = [0] * ambient
                for coeff, (_, urow) in zip(wrow, quotient):
                    if coeff:
                        amb = [x + coeff * y for x, y in zip(amb, urow)]
                lift = lifts[wrow] = (quotient[wpc][0], [x % q for x in amb])
            lifted.append(lift)
        rows = lifted[:]
        for pc, row in lower_rows:
            for lpc, lrow in lifted:
                c = row[lpc]
                if c:
                    row = [x - c * y for x, y in zip(row, lrow)]
            rows.append((pc, [x % q for x in row]))
        pivots, rows = zip(*sorted(rows, key=itemgetter(0)))
        yield tuple(chain.from_iterable(rows)), pivots


def rank_everywhere_at_most(m: Matrix, j: int) -> bool:
    """True iff every (j+1)-minor of m vanishes identically in the ring.

    Over the dual numbers this is the scheme-wide rank bound: a minor equal
    to eps is *not* zero, even though it vanishes at the closed point.  It
    is decided over GF(p) from m = A0 + eps A1: the eps-part of a
    (j+1)-minor is a sum of determinants that take j columns from A0, so
    the bound holds when rank A0 < j and fails when rank A0 > j.  When
    rank A0 = j it holds exactly when A1 maps ker A0 into im A0, the
    tangent space of the determinantal locus at A0.
    """
    if j < 0:
        raise ValueError("rank bound must be nonnegative, got %d" % j)
    a0 = m.mod_eps()
    rank = rref(a0).rank
    if rank != j or not m.ring.dual:
        return rank <= j
    a1 = Matrix(a0.ring, m.rows, m.cols, tuple(x.a1 for x in m.entries))
    return image(a0).contains(apply_map(a1, kernel(a0)))
