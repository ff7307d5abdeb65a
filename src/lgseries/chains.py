"""Linked subspace chains: validation, point enumeration, exactness, censuses.

A linked chain is the data (n, d, r, {f_i}, {g_i}, s): n copies of a
d-dimensional space over GF(p), forward maps f_i and backward maps g_i with
f_i g_i = g_i f_i = s * id, kernel/image exchange wherever s vanishes, and no
collapsing of consecutive images.  Its points are tuples of r-dimensional
subspaces carried into each other by the maps.  All functions here are pure;
enumeration order is fixed, so censuses are byte-reproducible and can be
partitioned by the pivot pattern of the first subspace and merged in any
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .fields import Fp, PrimeField
from .linalg import (BudgetError, Matrix, Subspace, _require_dict, apply_map,
                     contains, enumerate_between, enumerate_subspaces, image,
                     intersect, kernel, pivot_patterns, preimage, rref)


class LinkedChain:
    """The chain datum; levels are 0-based (spaces 0..n-1, maps 0..n-2).

    ``_kernels`` caches (ker f_i, ker g_i) per step once computed; it takes
    no part in equality or hashing, and ``truncate``/``reverse`` start with
    an empty cache.
    """

    __slots__ = ("field", "n", "d", "r", "fs", "gs", "s", "_kernels")

    def __init__(self, field_: PrimeField, n: int, d: int, r: int,
                 fs: Sequence[Matrix], gs: Sequence[Matrix], s: Fp):
        if n < 1:
            raise ValueError("chain length must be >= 1")
        if not 0 <= r < d:
            raise ValueError("need 0 <= r < d, got r=%d d=%d" % (r, d))
        if len(fs) != n - 1 or len(gs) != n - 1:
            raise ValueError("expected %d forward and backward maps" % (n - 1))
        for m in list(fs) + list(gs):
            if m.rows != d or m.cols != d:
                raise ValueError("all chain maps must be %dx%d" % (d, d))
            if m.ring != field_:
                raise ValueError("chain maps must live over %r" % field_)
        self.field = field_
        self.n = n
        self.d = d
        self.r = r
        self.fs = tuple(fs)
        self.gs = tuple(gs)
        self.s = field_(s)
        self._kernels = None

    @property
    def p(self) -> int:
        return self.field.p

    def _step_kernels(self) -> tuple:
        """(ker f_i, ker g_i) for every step, computed on first use.

        Concurrent first calls may both compute the kernels; they store equal
        values, so the race is harmless.
        """
        if self._kernels is None:
            self._kernels = tuple((kernel(f), kernel(g))
                                  for f, g in zip(self.fs, self.gs))
        return self._kernels

    def truncate(self, n_prime: int) -> "LinkedChain":
        if not 1 <= n_prime <= self.n:
            raise ValueError("truncation length out of range")
        return LinkedChain(self.field, n_prime, self.d, self.r,
                           self.fs[:n_prime - 1], self.gs[:n_prime - 1], self.s)

    def reverse(self) -> "LinkedChain":
        """The same chain walked backwards (f and g swap roles)."""
        return LinkedChain(self.field, self.n, self.d, self.r,
                           tuple(reversed(self.gs)), tuple(reversed(self.fs)),
                           self.s)

    def __eq__(self, other):
        if not isinstance(other, LinkedChain):
            return NotImplemented
        return (self.field, self.n, self.d, self.r, self.fs, self.gs, self.s) == \
               (other.field, other.n, other.d, other.r, other.fs, other.gs, other.s)

    def __hash__(self):
        return hash((self.field, self.n, self.d, self.r, self.fs, self.gs, self.s))

    def __repr__(self):
        return "LinkedChain(n=%d, d=%d, r=%d, s=%d, p=%d)" % (
            self.n, self.d, self.r, self.s.v, self.p)

    def as_dict(self) -> dict:
        return {"ring": self.field.as_dict(), "n": self.n, "d": self.d,
                "r": self.r, "s": self.s.v,
                "fs": [m.as_dict() for m in self.fs],
                "gs": [m.as_dict() for m in self.gs]}

    @classmethod
    def from_dict(cls, d: dict) -> "LinkedChain":
        d = _require_dict(d, "a chain")
        field_ = PrimeField(_require_dict(d["ring"], "a chain ring")["p"])
        for key in ("n", "d", "r", "s"):
            if type(d[key]) is not int:
                raise ValueError("chain %r must be an integer, got %r"
                                 % (key, d[key]))
        for key in ("fs", "gs"):
            if not isinstance(d[key], list):
                raise ValueError("chain %r must be a JSON list of matrices" % key)
        return cls(field_, d["n"], d["d"], d["r"],
                   [Matrix.from_dict(m) for m in d["fs"]],
                   [Matrix.from_dict(m) for m in d["gs"]],
                   field_(d["s"]))


class ChainPoint:
    """A candidate or verified point: one rank-r subspace per level."""

    __slots__ = ("spaces",)

    def __init__(self, spaces: Sequence[Subspace]):
        self.spaces = tuple(spaces)

    def __len__(self):
        return len(self.spaces)

    def __getitem__(self, i):
        return self.spaces[i]

    def __iter__(self):
        return iter(self.spaces)

    def __eq__(self, other):
        if not isinstance(other, ChainPoint):
            return NotImplemented
        return self.spaces == other.spaces

    def __hash__(self):
        return hash(self.spaces)

    def __repr__(self):
        return "ChainPoint(%r)" % (list(self.spaces),)

    def key(self) -> tuple:
        return tuple(s.key() for s in self.spaces)

    def as_dict(self) -> dict:
        return {"spaces": [s.as_dict() for s in self.spaces]}

    @classmethod
    def from_dict(cls, d: dict) -> "ChainPoint":
        spaces = _require_dict(d, "a chain point")["spaces"]
        if not isinstance(spaces, list):
            raise ValueError("chain point 'spaces' must be a JSON list")
        return cls([Subspace.from_dict(s) for s in spaces])


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, index: int, detail: str, witness=None):
        self.violations.append({
            "condition": condition, "index": index, "detail": detail,
            "witness": witness})

    def as_dict(self) -> dict:
        return {"ok": self.ok, "violations": self.violations}


@dataclass
class SignatureReport:
    f_ranks: tuple
    g_ranks: tuple
    exact: bool

    def key(self) -> tuple:
        return (self.f_ranks, self.g_ranks)

    def as_dict(self) -> dict:
        return {"f_ranks": list(self.f_ranks), "g_ranks": list(self.g_ranks),
                "exact": self.exact}


@dataclass
class DecompositionReport:
    level: int
    image_block: list        # basis vectors of f_{i-1}(V_{i-1}) inside V_i
    kernel_block: list       # basis vectors of ker f_i restricted to V_i
    complement_block: list   # greedy complement, extending any supplied seed
    block_dims: tuple

    def as_dict(self) -> dict:
        return {"level": self.level,
                "image_block": [list(row) for row in self.image_block],
                "kernel_block": [list(row) for row in self.kernel_block],
                "complement_block": [list(row) for row in self.complement_block],
                "block_dims": list(self.block_dims)}


def validate_chain(chain: LinkedChain) -> ValidationReport:
    """Check the three chain axioms; violations are reported, not raised."""
    report = ValidationReport()
    d = chain.d
    s_id = Matrix.identity(chain.field, d).scale(chain.s)
    for i, (f, g) in enumerate(zip(chain.fs, chain.gs)):
        for name, prod in (("f*g", f * g), ("g*f", g * f)):
            if prod != s_id:
                col = next(j for j in range(d)
                           if prod.column(j) != s_id.column(j))
                basis_vec = [0] * d
                basis_vec[col] = 1
                report.add("I", i, "%s is not s*id at step %d" % (name, i),
                           witness=basis_vec)
                break
    if chain.s.is_zero():
        for i, (f, g) in enumerate(zip(chain.fs, chain.gs)):
            kf, ig = kernel(f), image(g)
            if kf != ig:
                wit = _containment_witness(kf, ig)
                report.add("II", i, "ker f != im g at step %d" % i, witness=wit)
            kg, iff = kernel(g), image(f)
            if kg != iff:
                wit = _containment_witness(kg, iff)
                report.add("II", i, "ker g != im f at step %d" % i, witness=wit)
    for i in range(chain.n - 2):
        meet = intersect(image(chain.fs[i]), kernel(chain.fs[i + 1]))
        if meet.dim > 0:
            report.add("III", i, "im f_%d meets ker f_%d" % (i, i + 1),
                       witness=list(meet.basis.row(0)))
        meet = intersect(image(chain.gs[i + 1]), kernel(chain.gs[i]))
        if meet.dim > 0:
            report.add("III", i, "im g_%d meets ker g_%d" % (i + 1, i),
                       witness=list(meet.basis.row(0)))
    return report


def _containment_witness(a: Subspace, b: Subspace):
    """A vector of a not in b, or of b not in a (they are known unequal)."""
    for row in a.basis_rows():
        if not b.contains_vector(row):
            return list(row)
    for row in b.basis_rows():
        if not a.contains_vector(row):
            return list(row)
    return None


def make_standard_chain(n: int, d: int, d1: int, s, p: int, r: int) -> LinkedChain:
    """The model chain: coordinate projections when s = 0, scaled identities
    otherwise.

    With s = 0 every forward map projects onto the first d1 coordinates and
    every backward map onto the last d - d1; d1 in {0, d} is rejected as
    degenerate.  With s a unit, f = id and g = s*id (d1 is irrelevant).
    """
    field_ = PrimeField(p)
    s = field_(s)
    if s.is_zero():
        if not 0 < d1 < d:
            raise ValueError("degenerate chain: need 0 < d1 < d when s = 0")
        rows_f = [[int(i == j and i < d1) for j in range(d)] for i in range(d)]
        rows_g = [[int(i == j and i >= d1) for j in range(d)] for i in range(d)]
        f = Matrix.from_rows(field_, rows_f)
        g = Matrix.from_rows(field_, rows_g)
    else:
        f = Matrix.identity(field_, d)
        g = Matrix.identity(field_, d).scale(s)
    return LinkedChain(field_, n, d, r, [f] * (n - 1), [g] * (n - 1), s)


def _check_point_shape(chain: LinkedChain, pt: ChainPoint) -> None:
    if len(pt) != chain.n:
        raise ValueError("point has %d levels, chain has %d" % (len(pt), chain.n))
    for i, sp in enumerate(pt):
        if sp.ambient_dim != chain.d:
            raise ValueError("level %d ambient %d != %d" % (i, sp.ambient_dim, chain.d))
        if sp.dim != chain.r:
            raise ValueError("level %d has rank %d, expected %d"
                             % (i, sp.dim, chain.r))


def is_linked_point(chain: LinkedChain, pt: ChainPoint) -> bool:
    """f_i(V_i) <= V_{i+1} and g_i(V_{i+1}) <= V_i for every step."""
    _check_point_shape(chain, pt)
    for i in range(chain.n - 1):
        if not contains(pt[i + 1], apply_map(chain.fs[i], pt[i])):
            return False
        if not contains(pt[i], apply_map(chain.gs[i], pt[i + 1])):
            return False
    return True


class _Budget:
    """Shared candidate counter; raises once more candidates than allowed."""

    __slots__ = ("limit", "used", "_lock")

    def __init__(self, limit: Optional[int]):
        import threading

        self.limit = limit
        self.used = 0
        self._lock = threading.Lock()

    def spend(self, k: int = 1) -> None:
        if self.limit is None:
            return
        with self._lock:
            self.used += k
            if self.used > self.limit:
                raise BudgetError(
                    "enumeration examined more than %d candidate subspaces"
                    % self.limit, count=self.used)


def enumerate_points(chain: LinkedChain, q: Optional[int] = None,
                     budget: Optional[int] = None,
                     first_pivots: Optional[tuple] = None) -> Iterator[ChainPoint]:
    """All linked points, each exactly once, in a fixed deterministic order.

    Level 0 runs over the subspace stream of GF(q)^d; each later level runs
    only over the interval f_i(V_i) <= V <= g_i^{-1}(V_i), so no candidate is
    ever generated and then filtered for linkage.  ``first_pivots`` restricts
    level 0 to one pivot pattern, the unit of work-partitioning.
    """
    if q is not None and q != chain.p:
        raise ValueError("q=%d does not match the chain's field GF(%d)"
                         % (q, chain.p))
    counter = budget if isinstance(budget, _Budget) else _Budget(budget)
    for pt in _extend_levels(chain, [], counter, first_pivots):
        yield pt


def _extend_levels(chain: LinkedChain, prefix: list, counter: _Budget,
                   first_pivots: Optional[tuple]) -> Iterator[ChainPoint]:
    level = len(prefix)
    if level == chain.n:
        yield ChainPoint(prefix)
        return
    if level == 0:
        candidates = enumerate_subspaces(chain.d, chain.r, chain.p,
                                         pivots=first_pivots)
    else:
        lower = apply_map(chain.fs[level - 1], prefix[-1])
        upper = preimage(chain.gs[level - 1], prefix[-1])
        candidates = enumerate_between(lower, upper, chain.r)
    for cand in candidates:
        counter.spend()
        yield from _extend_levels(chain, prefix + [cand], counter, first_pivots)


def signature(chain: LinkedChain, pt: ChainPoint) -> SignatureReport:
    """Per-step ranks of f and g restricted to the point, plus exactness.

    The 2(n-1) step images f_i(V_i) and g_i(V_{i+1}) are computed once: the
    ranks are their dimensions, and exactness is decided from the same images
    by the helper ``is_exact`` uses, with the chain's cached kernels.  When
    s = 0 the containment definition of exactness must agree with the rank
    law (sum of the two step ranks equals r); a disagreement raises
    RuntimeError, since it would indicate a corrupted chain or an unlinked
    point.
    """
    _check_point_shape(chain, pt)
    f_imgs, g_imgs = _step_images(chain, pt)
    f_ranks = tuple(im.dim for im in f_imgs)
    g_ranks = tuple(im.dim for im in g_imgs)
    exact = _exact_from_images(chain, pt, f_imgs, g_imgs)
    if chain.s.is_zero():
        by_ranks = all(rf + rg == chain.r for rf, rg in zip(f_ranks, g_ranks))
        if by_ranks != exact:
            raise RuntimeError(
                "exactness rank law violated; the chain is not linked-valid")
    return SignatureReport(f_ranks, g_ranks, exact)


def is_exact(chain: LinkedChain, pt: ChainPoint) -> bool:
    """ker g_i on V_{i+1} sits in f_i(V_i) and ker f_i on V_i in g_i(V_{i+1}).

    Computes the step images and decides with the helper ``signature`` uses;
    ker f_i and ker g_i come from the chain's cache.
    """
    _check_point_shape(chain, pt)
    return _exact_from_images(chain, pt, *_step_images(chain, pt))


def _step_images(chain: LinkedChain, pt: ChainPoint) -> tuple:
    """(f_i(V_i) per step, g_i(V_{i+1}) per step)."""
    steps = range(chain.n - 1)
    return (tuple(apply_map(chain.fs[i], pt[i]) for i in steps),
            tuple(apply_map(chain.gs[i], pt[i + 1]) for i in steps))


def _exact_from_images(chain: LinkedChain, pt: ChainPoint,
                       f_imgs: Sequence[Subspace],
                       g_imgs: Sequence[Subspace]) -> bool:
    """Exactness at every step, given the step images of the point."""
    for i, (ker_f, ker_g) in enumerate(chain._step_kernels()):
        if not contains(f_imgs[i], intersect(pt[i + 1], ker_g)):
            return False
        if not contains(g_imgs[i], intersect(pt[i], ker_f)):
            return False
    return True


def tangent_dimension(chain: LinkedChain, pt: ChainPoint,
                      complements: Optional[Sequence[Matrix]] = None) -> int:
    """Dimension of the space of first-order deformations of a linked point.

    Unknowns are maps phi_i from V_i to E/V_i, one per level, written in the
    complement coordinates; each step contributes the linearised linkage
    conditions.  The answer does not depend on the complement choice, which
    can be exercised by passing explicit complements.

    Method: each level's frame M_i (the basis of V_i over its complement
    rows) is inverted by one RREF of [M_i | I], for the default coordinate
    complement and a supplied one alike; the frame coordinates of any vector
    v are then v M_i^-1, the first r of them in V_i and the rest in the
    quotient.  Per step and direction, the source frame pushed through the
    map and read in the target frame gives, on the basis rows, the target
    basis coordinates of each image f_i(b) or g_i(b), and on the complement
    rows, the carried complement in quotient coordinates.  Checks: a
    complement of the wrong shape or ring, or whose frame is singular,
    raises ValueError ("does not complement"), before any linkage check; a
    source basis vector whose image has a nonzero quotient part raises
    ValueError (non-linked point).
    """
    _check_point_shape(chain, pt)
    field_ = chain.field
    p = field_.p
    d, r, n = chain.d, chain.r, chain.n
    unit = [(0,) * k + (1,) + (0,) * (d - 1 - k) for k in range(d)]
    frames = []
    inverses = []
    for i, sp in enumerate(pt):
        if complements is not None:
            comp = complements[i]
            if comp.rows != d - r or comp.cols != d:
                raise ValueError("complement %d must be %dx%d" % (i, d - r, d))
            if comp.ring != field_:
                raise ValueError("complement %d must live over %r" % (i, field_))
            rows = [comp.row(k) for k in range(comp.rows)]
        else:
            pset = set(sp.pivots)
            rows = [tuple(int(j == c) for j in range(d))
                    for c in range(d) if c not in pset]
        frame = sp.basis_rows() + rows
        ech = rref(Matrix.from_rows(field_,
                                    [row + e for row, e in zip(frame, unit)]))
        if ech.pivots != tuple(range(d)):
            raise ValueError("supplied complement does not complement V_%d" % i)
        frames.append(Matrix.from_rows(field_, frame))
        inverses.append(ech.matrix.submatrix(range(d), range(d, 2 * d)))

    nunk = n * r * (d - r)
    if nunk == 0:
        return 0
    eqs = []

    def unknown(level: int, a: int, c: int) -> int:
        return (level * r + a) * (d - r) + c

    for i in range(n - 1):
        for mat, src, dst in ((chain.fs[i], i, i + 1), (chain.gs[i], i + 1, i)):
            # row k: the coordinates of mat(row k of the source frame) in
            # the target frame; rows 0..r-1 image the basis, the rest carry
            # the complement
            coords = frames[src] * mat.transpose() * inverses[dst]
            if not coords.submatrix(range(r), range(r, d)).is_zero():
                raise ValueError("tangent space requested at a non-linked point")
            for a in range(r):
                lam = coords.row(a)[:r]
                for out_c in range(d - r):
                    row = [0] * nunk
                    for c in range(d - r):
                        row[unknown(src, a, c)] += coords.entry(r + c, r + out_c)
                    for k in range(r):
                        row[unknown(dst, k, out_c)] -= lam[k]
                    eqs.append([x % p for x in row])
    if not eqs:
        return nunk
    system = Matrix.from_rows(field_, eqs)
    return nunk - rref(system).rank


def decompose(chain: LinkedChain, pt: ChainPoint, level: int,
              c_prime: Optional[Subspace] = None) -> DecompositionReport:
    """Split V_level into the incoming image, the outgoing kernel, and a
    greedy complement extending the optional seed C'.

    Boundary convention follows the chain structure: level 0 has no incoming
    image block, level n-1 has no outgoing kernel block.  The seed must sit
    inside ker g_{level-1} restricted to V_level and meet the image block
    trivially.
    """
    _check_point_shape(chain, pt)
    if not chain.s.is_zero():
        raise ValueError("decomposition requires s = 0")
    if not 0 <= level < chain.n:
        raise ValueError("level out of range")
    v = pt[level]
    if level > 0:
        img_block = apply_map(chain.fs[level - 1], pt[level - 1])
    else:
        img_block = Subspace.zero_space(chain.field, chain.d)
    if level < chain.n - 1:
        ker_block = intersect(v, kernel(chain.fs[level]))
    else:
        ker_block = Subspace.zero_space(chain.field, chain.d)
    seed_rows = []
    if c_prime is not None:
        if level == 0:
            raise ValueError("no incoming map at level 0 to constrain C'")
        ker_g_restr = intersect(v, kernel(chain.gs[level - 1]))
        if not ker_g_restr.contains(c_prime):
            raise ValueError("C' must lie in ker g restricted to V")
        if intersect(c_prime, img_block).dim > 0:
            raise ValueError("C' must meet the incoming image trivially")
        seed_rows = [list(rw) for rw in c_prime.basis_rows()]
    acc_rows = ([list(rw) for rw in img_block.basis_rows()]
                + [list(rw) for rw in ker_block.basis_rows()] + seed_rows)
    acc = Subspace.from_rows(chain.field, chain.d, acc_rows) if acc_rows \
        else Subspace.zero_space(chain.field, chain.d)
    if acc.dim != img_block.dim + ker_block.dim + len(seed_rows):
        raise ValueError("supplied C' is not independent from the blocks")
    comp_rows = list(seed_rows)
    for row in v.basis_rows():
        if not acc.contains_vector(row):
            comp_rows.append(list(row))
            acc = acc.sum(Subspace.from_rows(chain.field, chain.d, [row]))
        if acc.dim == v.dim:
            break
    if acc.dim != v.dim or not acc.contains(v):
        raise RuntimeError("decomposition failed to span the level")
    dims = (img_block.dim, ker_block.dim, len(comp_rows))
    return DecompositionReport(
        level,
        [list(rw) for rw in img_block.basis_rows()],
        [list(rw) for rw in ker_block.basis_rows()],
        comp_rows, dims)


def extend_truncation(chain: LinkedChain, partial: ChainPoint) -> ChainPoint:
    """Complete a linked point of a truncation to the full chain.

    Each new level takes the first subspace, in enumeration order, of the
    interval f(V) <= W <= g^{-1}(V); the interval is nonempty because the
    preimage has dimension at least r.
    """
    n_prime = len(partial)
    if not 1 <= n_prime <= chain.n:
        raise ValueError("partial point length out of range")
    if not is_linked_point(chain.truncate(n_prime), partial):
        raise ValueError("partial point is not linked for the truncated chain")
    spaces = list(partial)
    for i in range(n_prime - 1, chain.n - 1):
        lower = apply_map(chain.fs[i], spaces[-1])
        upper = preimage(chain.gs[i], spaces[-1])
        nxt = next(iter(enumerate_between(lower, upper, chain.r)), None)
        if nxt is None:
            raise RuntimeError("no completion exists; chain axioms violated")
        spaces.append(nxt)
    return ChainPoint(spaces)


def exactify(chain: LinkedChain, pt: ChainPoint) -> tuple:
    """Two exact points witnessing that a non-exact point sits on several
    components: the first keeps every forward rank of the input, the second
    keeps every backward rank.

    Levels up to the first non-exact step are kept verbatim; the remaining
    levels are rebuilt as the lexicographically least completion that is
    linked, preserves the forward ranks, and is exact at every step (the
    backward output is the mirrored run on the reversed chain).
    """
    if not chain.s.is_zero():
        raise ValueError("exactify requires s = 0")
    sig = signature(chain, pt)
    if sig.exact:
        raise ValueError("point is already exact")
    f_point = _exactify_forward(chain, pt, sig.f_ranks)
    rev = chain.reverse()
    rev_pt = ChainPoint(tuple(reversed(pt.spaces)))
    rev_sig = signature(rev, rev_pt)
    g_fixed = _exactify_forward(rev, rev_pt, rev_sig.f_ranks)
    g_point = ChainPoint(tuple(reversed(g_fixed.spaces)))
    return f_point, g_point


def _exactify_forward(chain: LinkedChain, pt: ChainPoint,
                      target_f: tuple) -> ChainPoint:
    first_bad = None
    for i in range(chain.n - 1):
        rf = apply_map(chain.fs[i], pt[i]).dim
        rg = apply_map(chain.gs[i], pt[i + 1]).dim
        if rf + rg != chain.r:
            first_bad = i
            break
    if first_bad is None:
        return pt
    prefix = list(pt.spaces[:first_bad + 1])
    result = _complete_exact(chain, prefix, target_f)
    if result is None:
        raise RuntimeError(
            "no exact completion preserving the forward ranks exists")
    return ChainPoint(result)


def _complete_exact(chain: LinkedChain, prefix: list, target_f: tuple):
    level = len(prefix)
    if level == chain.n:
        return list(prefix)
    i = level - 1
    lower = apply_map(chain.fs[i], prefix[-1])
    upper = preimage(chain.gs[i], prefix[-1])
    want_g = chain.r - target_f[i]
    for cand in enumerate_between(lower, upper, chain.r):
        if apply_map(chain.gs[i], cand).dim != want_g:
            continue
        if level < chain.n - 1 and \
                apply_map(chain.fs[level], cand).dim != target_f[level]:
            continue
        result = _complete_exact(chain, prefix + [cand], target_f)
        if result is not None:
            return result
    return None


def admissible_signatures_n2(d: int, r: int, d1: int, d2: int) -> range:
    """Forward ranks that exact points of a two-level chain can realise."""
    if d1 + d2 != d:
        raise ValueError("need d1 + d2 = d")
    if not 0 < r < d:
        raise ValueError("need 0 < r < d")
    return range(max(0, r - d2), min(r, d1) + 1)


def expected_component_count_n2(d: int, r: int, d1: int, d2: int) -> int:
    """min(r+1, d-r+1, d1+1, d2+1); always the size of the admissible range."""
    count = min(r + 1, d - r + 1, d1 + 1, d2 + 1)
    rng = admissible_signatures_n2(d, r, d1, d2)
    if len(rng) != count:
        raise RuntimeError("component count does not match signature range")
    return count


@dataclass
class CensusReport:
    """Aggregated point data; merging censuses of disjoint partitions of the
    level-0 stream is a commutative sum on every field."""

    chain: dict
    q: int
    points: int = 0
    exact: int = 0
    signatures: dict = field(default_factory=dict)  # exact points by signature
    tangent_histogram: dict = field(default_factory=dict)
    signature_graph: Optional[dict] = None

    def merge(self, other: "CensusReport") -> "CensusReport":
        out = CensusReport(self.chain, self.q, self.points + other.points,
                           self.exact + other.exact,
                           dict(self.signatures), dict(self.tangent_histogram))
        for k, v in other.signatures.items():
            out.signatures[k] = out.signatures.get(k, 0) + v
        for k, v in other.tangent_histogram.items():
            out.tangent_histogram[k] = out.tangent_histogram.get(k, 0) + v
        return out

    def as_dict(self) -> dict:
        d = {"schema_version": 1,
             "chain": self.chain, "q": self.q, "points": self.points,
             "exact": self.exact,
             "signatures": [[[list(sig[0]), list(sig[1])], cnt]
                            for sig, cnt in sorted(self.signatures.items())],
             "tangent_histogram": [[dim, cnt] for dim, cnt
                                   in sorted(self.tangent_histogram.items())]}
        if self.signature_graph is not None:
            d["signature_graph"] = self.signature_graph
        return d


def census(chain: LinkedChain, q: Optional[int] = None,
           budget: Optional[int] = None, workers: int = 1,
           experiments: bool = False) -> CensusReport:
    """Count points, exact points, exact signatures, and tangent dimensions.

    The report is identical for any worker count: partitions are the pivot
    patterns of the level-0 subspace and the merge is commutative.  With
    ``experiments`` set, a signature-adjacency graph is attached (edges join
    the two exactified signatures over each non-exact point); its
    connectivity is reported as data, with nothing asserted.
    """
    if q is not None and q != chain.p:
        raise ValueError("q=%d does not match the chain's field GF(%d)"
                         % (q, chain.p))
    counter = _Budget(budget)
    patterns = list(pivot_patterns(chain.d, chain.r))
    edges = set()
    chain._step_kernels()  # fill the cache before partitions share the chain

    def run_partition(pat) -> CensusReport:
        part = CensusReport(chain.as_dict(), chain.p)
        for pt in enumerate_points(chain, budget=counter, first_pivots=pat):
            part.points += 1
            sig = signature(chain, pt)
            tdim = tangent_dimension(chain, pt)
            part.tangent_histogram[tdim] = part.tangent_histogram.get(tdim, 0) + 1
            if sig.exact:
                part.exact += 1
                key = sig.key()
                part.signatures[key] = part.signatures.get(key, 0) + 1
            elif experiments and chain.s.is_zero():
                fpt, gpt = exactify(chain, pt)
                a = signature(chain, fpt).key()
                b = signature(chain, gpt).key()
                edges.add(tuple(sorted((a, b))))
        return part

    report = CensusReport(chain.as_dict(), chain.p)
    if workers <= 1:
        for pat in patterns:
            report = report.merge(run_partition(pat))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(run_partition, patterns):
                report = report.merge(part)
    if experiments:
        nodes = sorted(report.signatures)
        adj = {node: set() for node in nodes}
        for a, b in edges:
            if a in adj and b in adj:
                adj[a].add(b)
                adj[b].add(a)
        components = 0
        seen = set()
        for node in nodes:
            if node in seen:
                continue
            components += 1
            stack = [node]
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(adj[cur] - seen)
        report.signature_graph = {
            "nodes": [[list(a), list(b)] for a, b in nodes],
            "edges": [[[list(x[0]), list(x[1])] for x in e]
                      for e in sorted(edges)],
            "connected_components": components,
        }
    return report
