"""Limit linear series on a two-component rational nodal curve.

The curve is two projective lines glued at one node, with affine coordinates
y and z vanishing at the node.  The level-i section space is

    E_i = {(a(y), b(z)) : deg a <= d-i, deg b <= i, a(0) = b(0)},

of dimension d+1, with coordinates (node value, a_1..a_{d-i}, b_1..b_i).
The forward map multiplies the z-side by z and kills the y-side; the
backward map multiplies the y-side by y and kills the z-side.  These satisfy
the linked-chain axioms with s = 0, and a degree-d series of projective
dimension r is a linked point with subspaces of dimension r+1.

Everything is exact, over GF(p) for enumeration and over GF(p)[eps]/(eps^2)
for first-order probes of the node vanishing orders.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .chains import (ChainPoint, LinkedChain, _linkage_fault,
                     boundary_counts, enumerate_points, is_linked_point)
from .fields import DualNumbers, PrimeField, Record, _json_field
from .linalg import (Matrix, Subspace, _free_position_count, apply_map,
                     enumerate_subspaces, intersect, pivot_patterns, preimage,
                     rank_everywhere_at_most)
from .ramification import INFINITY, _orders


class NodalModel:
    """Coordinate bookkeeping for the section spaces of the nodal curve."""

    __slots__ = ("d", "field")

    def __init__(self, d: int, p: int):
        if d < 1:
            raise ValueError("degree must be at least 1")
        self.d = d
        self.field = PrimeField(p)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def ambient_dim(self) -> int:
        return self.d + 1

    def forward_matrix(self, i: int) -> Matrix:
        """E_i -> E_{i+1}: (a, b) -> (0, z*b) in level coordinates."""
        d = self.d
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        rows[d - i][0] = 1                             # new b_1 = node value
        for j in range(1, i + 1):                      # new b_{j+1} = b_j
            rows[d - i + j][d - i + j] = 1
        return Matrix.from_rows(self.field, rows)

    def backward_matrix(self, i: int) -> Matrix:
        """E_{i+1} -> E_i: (a, b) -> (y*a, 0) in level coordinates."""
        d = self.d
        rows = [[0] * (d + 1) for _ in range(d + 1)]
        rows[1][0] = 1                                 # new a_1 = node value
        for k in range(1, d - i):                      # new a_{k+1} = a_k
            rows[k + 1][k] = 1
        return Matrix.from_rows(self.field, rows)

    def chain(self, rank: int) -> LinkedChain:
        fs = [self.forward_matrix(i) for i in range(self.d)]
        gs = [self.backward_matrix(i) for i in range(self.d)]
        return LinkedChain(self.field, self.d + 1, self.d + 1, rank, fs, gs,
                           self.field.zero())

    def z_vanishing_space(self, i: int) -> Subspace:
        """Sections with b identically zero (rows supported on a_1..a_{d-i})."""
        return self._coordinate_space(range(1, self.d - i + 1))

    def _coordinate_space(self, cols) -> Subspace:
        """The span of the level coordinate vectors e_c, c in cols."""
        return Subspace.from_rows(
            self.field, self.d + 1,
            [[int(j == c) for j in range(self.d + 1)] for c in cols])

    def section(self, i: int, a_coeffs: Sequence, b_coeffs: Sequence,
                ring=None) -> tuple:
        """Coordinate vector of the pair (a(y), b(z)) at level i."""
        ring = ring or self.field
        d = self.d
        a = [ring(x) for x in a_coeffs] + [ring.zero()] * (d - i + 1 - len(a_coeffs))
        b = [ring(x) for x in b_coeffs] + [ring.zero()] * (i + 1 - len(b_coeffs))
        if len(a) != d - i + 1 or len(b) != i + 1:
            raise ValueError("coefficient lists exceed the level degrees")
        if a[0] != b[0]:
            raise ValueError("sections must agree at the node: a(0) != b(0)")
        return tuple([a[0]] + a[1:] + b[1:])


def build_section_chain(d: int, p: int, rank: int) -> LinkedChain:
    """The (d+1)-step chain of section spaces; passes validate_chain, s = 0.

    ``rank`` is the dimension of the chain subspaces: a series of projective
    dimension r uses rank r+1.
    """
    return NodalModel(d, p).chain(rank)


def _require_series_rank(d: int, r: int) -> None:
    """A degree-d series of projective dimension r has (r+1)-dimensional
    spaces in the (d+1)-dimensional level spaces, proper and nonzero, so
    0 <= r < d; the message is in the series' own r and d."""
    if r < 0:
        raise ValueError("series rank r must be nonnegative, got %d" % r)
    if r >= d:
        raise ValueError("series rank r must be less than the degree d, "
                         "got r=%d d=%d" % (r, d))


class LimitSeriesPoint:
    """A linked point of the section chain, i.e. one limit series."""

    __slots__ = ("model", "point")

    def __init__(self, model: NodalModel, point: ChainPoint):
        self.model = model
        self.point = point

    @property
    def r(self) -> int:
        return self.point[0].dim - 1

    def __eq__(self, other):
        if not isinstance(other, LimitSeriesPoint):
            return NotImplemented
        return (self.model.d, self.model.p, self.point) == \
               (other.model.d, other.model.p, other.point)

    def __hash__(self):
        return hash((self.model.d, self.model.p, self.point))

    def __repr__(self):
        return "LimitSeriesPoint(d=%d, p=%d, %r)" % (
            self.model.d, self.model.p, self.point)

    def as_dict(self) -> dict:
        return {"d": self.model.d, "p": self.model.p,
                "point": self.point.as_dict()}


class EHPair:
    """An aspect pair: a degree-d series on each component plus its node
    vanishing sequences."""

    __slots__ = ("vy", "vz", "a_y", "a_z")

    def __init__(self, vy: Subspace, vz: Subspace, a_y: tuple, a_z: tuple):
        self.vy = vy
        self.vz = vz
        self.a_y = tuple(a_y)
        self.a_z = tuple(a_z)

    @classmethod
    def from_subspaces(cls, vy: Subspace, vz: Subspace) -> "EHPair":
        if vy.ring != vz.ring:
            raise ValueError("aspects must share the ring")
        if vy.ambient_dim != vz.ambient_dim:
            raise ValueError("aspects must share the degree bound")
        if vy.dim != vz.dim:
            raise ValueError("aspects must have equal dimension")
        return cls(vy, vz, node_orders(vy), node_orders(vz))

    @property
    def d(self) -> int:
        """The degree: aspects are series of degree-<=d polynomials."""
        return self.vy.ambient_dim - 1

    @property
    def r(self) -> int:
        return self.vy.dim - 1

    def key(self) -> tuple:
        return (self.vy.key(), self.vz.key())

    def __eq__(self, other):
        if not isinstance(other, EHPair):
            return NotImplemented
        return self.vy == other.vy and self.vz == other.vz

    def __hash__(self):
        return hash((self.vy, self.vz))

    def __repr__(self):
        return "EHPair(aY=%r, aZ=%r, d=%d)" % (self.a_y, self.a_z, self.d)

    def as_dict(self) -> dict:
        return {"d": self.d, "vy": self.vy.as_dict(), "vz": self.vz.as_dict(),
                "a_y": list(self.a_y), "a_z": list(self.a_z)}


def node_orders(v: Subspace) -> tuple:
    """Vanishing sequence of an aspect at the node (coordinate 0),
    ``ramification._orders(v, 0)``: the coordinates are ascending
    coefficients, already the order filtration at 0, so the orders are the
    pivot columns of the canonical basis."""
    return _orders(v, 0)


def crude_orders(a_y: Sequence[int], a_z: Sequence[int], d: int) -> bool:
    """a_y[i] + a_z[r-i] >= d for every i."""
    r = len(a_y) - 1
    return all(a_y[i] + a_z[r - i] >= d for i in range(r + 1))


def refined_orders(a_y: Sequence[int], a_z: Sequence[int], d: int) -> bool:
    """a_y[i] + a_z[r-i] = d for every i."""
    r = len(a_y) - 1
    return all(a_y[i] + a_z[r - i] == d for i in range(r + 1))


def is_crude(pair: EHPair) -> bool:
    """Node orders satisfy a_y[i] + a_z[r-i] >= d for every i."""
    return crude_orders(pair.a_y, pair.a_z, pair.d)


def is_refined(pair: EHPair) -> bool:
    """Node orders satisfy a_y[i] + a_z[r-i] = d for every i."""
    return refined_orders(pair.a_y, pair.a_z, pair.d)


def forgetful_map(model: NodalModel, point: ChainPoint) -> EHPair:
    """Send a linked point to its outer aspect pair with node data.

    Level-0 coordinates are exactly the ascending y-coefficients and level-d
    coordinates the ascending z-coefficients, so both aspects are the
    boundary subspaces themselves, already in canonical form.  A point
    without exactly d + 1 levels, or with a level over another ring than
    the model's field, raises ValueError.
    """
    if len(point) != model.d + 1:
        raise ValueError("point has %d levels, the degree-%d model has %d"
                         % (len(point), model.d, model.d + 1))
    for i, sp in enumerate(point):
        if sp.ring != model.field:
            raise ValueError("level %d is over %r, the model over %r"
                             % (i, sp.ring, model.field))
    vy, vz = point[0], point[model.d]
    if vy.ambient_dim != model.d + 1:
        raise ValueError("row length %d does not match ambient %d"
                         % (vy.ambient_dim, model.d + 1))
    return EHPair.from_subspaces(vy, vz)


def reconstruct_refined(pair: EHPair) -> LimitSeriesPoint:
    """The unique linked point over a refined pair: ``lift_crude``
    restricted to refined pairs.

    Over a refined pair the Eisenbud-Harris theory leaves exactly one linked
    point, so the crude lift is that point; the enumeration oracle
    (``tests/test_series.py::test_reconstruct_uniqueness_by_enumeration``)
    checks the uniqueness exhaustively on small cases.
    """
    if not is_refined(pair):
        raise ValueError("reconstruction requires a refined pair")
    return lift_crude(pair)


def lift_crude(pair: EHPair) -> LimitSeriesPoint:
    """A linked point over any crude pair, built level by level.

    Each middle level is generated by the forward image of the previous
    level together with the maximal block of the backward preimage vanishing
    on the z-side; when that falls one short, the missing generator is either
    a glued section (both sides nonvanishing at the node, available exactly
    when the z-aspect has a section of node order d-i) or one more y-side
    vanishing section divided down from the z-aspect.  Free choices are
    resolved by taking first rows of canonical bases, so the output is
    deterministic.  Aspects of dimension r+1 with r outside 0 <= r < d
    (full aspects, say) raise ValueError before any level is built.
    """
    d, r = pair.d, pair.r
    _require_series_rank(d, r)
    if not is_crude(pair):
        raise ValueError("lifting requires a crude pair")
    model = NodalModel(d, pair.vy.ring.p)
    spaces = [pair.vy]
    for i in range(1, d):
        prev = spaces[-1]
        image_block = apply_map(model.forward_matrix(i - 1), prev)
        z_van = model.z_vanishing_space(i)
        back_pre = preimage(model.backward_matrix(i - 1), prev)
        kernel_block = intersect(z_van, back_pre)
        w = image_block.sum(kernel_block)
        if w.dim == r:
            w = w.sum(_crude_patch(model, pair, i, prev, w))
        if w.dim != r + 1:
            raise RuntimeError(
                "crude lifting produced dimension %d at level %d" % (w.dim, i))
        spaces.append(w)
    spaces.append(pair.vz)
    point = ChainPoint(spaces)
    chain = model.chain(r + 1)
    if not is_linked_point(chain, point):
        raise RuntimeError("crude lifting is not linked")
    return LimitSeriesPoint(model, point)


def _crude_patch(model: NodalModel, pair: EHPair, i: int, prev: Subspace,
                 partial: Subspace) -> Subspace:
    """The (r+1)-st generator when image + kernel blocks fall one short."""
    d = model.d
    field_ = model.field
    # the previous level's z-vanishing block and its unique node-order-1 row
    w_prev = intersect(model.z_vanishing_space(i - 1), prev)
    r3_prev = w_prev.dim
    if r3_prev == 0:
        raise RuntimeError("short level without a z-vanishing block")
    order_one = None
    for k, pc in enumerate(w_prev.pivots):
        if pc == 1:
            order_one = w_prev.basis.row(k)
            break
    if order_one is None:
        raise RuntimeError("short level without an order-one section")
    a_z_threshold = pair.a_z[r3_prev - 1]
    if a_z_threshold == d - i:
        # glue: divide the order-one section by y, pair it with the z-aspect
        # section of node order exactly d-i (both pivot-normalised, so the
        # node values already agree at 1)
        a_star = list(order_one[1:d - i + 2])
        b_row = None
        for k, pc in enumerate(pair.vz.pivots):
            if pc == d - i:
                b_row = pair.vz.basis.row(k)
                break
        if b_row is None:
            raise RuntimeError("z-aspect lost its order d-i section")
        b_star = list(b_row[d - i:])
        vec = model.section(i, a_star, b_star)
        return Subspace.from_rows(field_, d + 1, [vec])
    # otherwise add one more y-side vanishing generator divided from the
    # z-aspect sections of node order > d-i
    for k, pc in enumerate(pair.vz.pivots):
        if pc >= d - i + 1:
            b = list(pair.vz.basis.row(k)[d - i:])
            vec = model.section(i, [0], b)
            if not partial.contains_vector(vec):
                return Subspace.from_rows(field_, d + 1, [vec])
    raise RuntimeError("no independent y-vanishing generator available")


def enumerate_limit_series(d: int, r: int, q: int,
                           constraints: Optional[Sequence[dict]] = None,
                           budget: Optional[int] = None) -> Iterator[LimitSeriesPoint]:
    """All linked points of the degree-d section chain with rank r+1 spaces.

    ``constraints`` is a list (or tuple) of {"side": "Y"|"Z", "point": int
    or "inf", "min": [a_0..a_r]} lower bounds on vanishing sequences,
    imposed on the y-aspect of level 0 for Y-points and the z-aspect of
    level d for Z-points.  Order is deterministic.  An r outside
    0 <= r < d (``_require_series_rank``), or constraints of any other
    shape (other keys, a bool for an int, a "min" not of r+1 ints), raise
    ValueError before any budget is spent.
    """
    _require_series_rank(d, r)
    checks = _bound_checks(constraints, d, r)
    model = NodalModel(d, q)
    for pt in enumerate_points(model.chain(r + 1), budget=budget):
        if not checks or all(_meets_bound(pt[level], point, bound)
                             for level, point, bound in checks):
            yield LimitSeriesPoint(model, pt)


def _bound_checks(constraints: Optional[Sequence[dict]], d: int,
                  r: int) -> list:
    """(level, point, min) for each constraint, checked for shape: the
    y-aspect is level 0, the z-aspect level d."""
    if constraints is None:
        return []
    if not isinstance(constraints, (list, tuple)):
        raise ValueError("constraints must be a list, got %r" % (constraints,))
    checks = []
    for c in constraints:
        if not isinstance(c, dict) or set(c) != {"side", "point", "min"}:
            raise ValueError("a constraint must be an object with exactly the "
                             "keys side, point and min, got %r" % (c,))
        side, point, bound = c["side"], c["point"], c["min"]
        if side not in ("Y", "Z"):
            raise ValueError("constraint side must be Y or Z, got %r" % (side,))
        if not (type(point) is int or point == INFINITY):
            raise ValueError('constraint point must be an integer or "inf", '
                             "got %r" % (point,))
        if not isinstance(bound, (list, tuple)) or len(bound) != r + 1 or \
                not all(type(b) is int for b in bound):
            raise ValueError("constraint min must be a list of %d integers, "
                             "got %r" % (r + 1, bound))
        checks.append((0 if side == "Y" else d, point, bound))
    return checks


def _meets_bound(aspect: Subspace, point, bound: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(_orders(aspect, point), bound))


class ImageReport(Record):
    """Comparison of {forgetful image of all linked points} with {all crude
    pairs}, plus the preimage multiplicities."""

    __slots__ = ("d", "r", "q", "points", "image_size", "crude_pairs",
                 "refined_pairs", "refined_points", "equal", "fr_not_crude",
                 "crude_not_fr", "preimage_counts",
                 "refined_preimages_all_unique")

    def __init__(self, d: int, r: int, q: int, points: int = 0,
                 image_size: int = 0, crude_pairs: int = 0,
                 refined_pairs: int = 0, refined_points: int = 0,
                 equal: bool = False, fr_not_crude: Optional[list] = None,
                 crude_not_fr: Optional[list] = None,
                 preimage_counts: Optional[dict] = None,
                 refined_preimages_all_unique: bool = False):
        self.d = d
        self.r = r
        self.q = q
        self.points = points
        self.image_size = image_size
        self.crude_pairs = crude_pairs
        self.refined_pairs = refined_pairs
        # points over refined pairs, vs `points` total
        self.refined_points = refined_points
        self.equal = equal
        self.fr_not_crude = [] if fr_not_crude is None else fr_not_crude
        self.crude_not_fr = [] if crude_not_fr is None else crude_not_fr
        self.preimage_counts = ({} if preimage_counts is None
                                else preimage_counts)
        self.refined_preimages_all_unique = refined_preimages_all_unique

    def as_dict(self) -> dict:
        return dict(super().as_dict(), schema_version=1,
                    preimage_counts=_json_field(
                        sorted(self.preimage_counts.items())))


def _pattern_orders(d: int, r: int) -> dict:
    """{(P_y, P_z): (crude, refined)} over the pivot-pattern pairs of
    (r+1)-dimensional aspects, each order condition evaluated once per pair:
    every pair of subspaces in the two echelon cells shares the verdicts,
    since its node orders are the pivots."""
    patterns = list(pivot_patterns(d + 1, r + 1))
    return {(py, pz): (crude_orders(py, pz, d), refined_orders(py, pz, d))
            for py in patterns for pz in patterns}


def _cell_pair_count(d: int, q: int, pattern_pairs: list) -> int:
    """Number of aspect pairs in the given products of echelon cells."""
    return sum(q ** (_free_position_count(d + 1, py)
                     + _free_position_count(d + 1, pz))
               for py, pz in pattern_pairs)


def missing_crude_pairs(d: int, r: int, q: int, image_keys,
                        orders: Optional[dict] = None) -> list:
    """Keys of the crude aspect pairs not in ``image_keys``, sorted.

    Lists the crude pairs explicitly, cell by cell over the crude pattern
    pairs of ``orders`` (``_pattern_orders(d, r)`` if not given) only;
    ``fr_image_report`` calls it only when the counts show that some crude
    pair is missing.
    """
    cells = {}

    def cell(pattern):
        if pattern not in cells:
            cells[pattern] = [v.key() for v in enumerate_subspaces(
                d + 1, r + 1, q, pivots=pattern)]
        return cells[pattern]

    missing = []
    for (py, pz), (crude, _) in (orders or _pattern_orders(d, r)).items():
        if crude:
            missing.extend((ky, kz) for ky in cell(py) for kz in cell(pz)
                           if (ky, kz) not in image_keys)
    return sorted(missing)


def fr_image_report(d: int, r: int, q: int,
                    budget: Optional[int] = None) -> ImageReport:
    """Exhaustively compare the forgetful image with the crude locus.

    A linked point maps to its boundary pair (V_0, V_d), so the image and
    its preimage counts are the path counts of ``boundary_counts``, with no
    point listed.  The crude and refined loci are counted by echelon cells:
    the node orders of an aspect are its pivot columns, so both conditions
    depend only on the pair of pivot patterns (``_pattern_orders``), and a
    cell pair holds q^(free entries) pairs.  The image equals the crude
    locus exactly when every image pair is crude and the counts agree;
    crude pairs are listed only to name the missing ones when they do not.

    ``budget`` caps the candidates the point stream would take, counted by
    ``boundary_counts``.  Its level 0 alone spends one unit on each of the
    G(d+1, r+1, q) subspaces, so a run that finishes has spent at least G,
    and no separate check on the aspect space is needed.
    """
    _require_series_rank(d, r)
    report = ImageReport(d, r, q)
    counts = boundary_counts(build_section_chain(d, q, r + 1), budget)
    orders = _pattern_orders(d, r)
    keys = {v: v.key() for v in {v for pair in counts for v in pair}}
    preimages, not_crude, refined = {}, [], []
    for (vy, vz), cnt in counts.items():
        pair = keys[vy], keys[vz]
        preimages[pair] = cnt
        crude, fine = orders[vy.pivots, vz.pivots]
        if not crude:
            not_crude.append(pair)
        if fine:
            refined.append(pair)
    report.points = sum(preimages.values())
    report.image_size = len(preimages)
    report.crude_pairs = _cell_pair_count(
        d, q, [pair for pair, (crude, _) in orders.items() if crude])
    report.refined_pairs = _cell_pair_count(
        d, q, [pair for pair, (_, fine) in orders.items() if fine])
    report.refined_points = sum(preimages[k] for k in refined)
    crude_in_image = report.image_size - len(not_crude)
    report.equal = not not_crude and crude_in_image == report.crude_pairs
    report.fr_not_crude = [list(map(list, k)) for k in sorted(not_crude)]
    if crude_in_image != report.crude_pairs:
        report.crude_not_fr = [list(map(list, k)) for k in
                               missing_crude_pairs(d, r, q, preimages, orders)]
    report.preimage_counts = preimages
    report.refined_preimages_all_unique = (
        len(refined) == report.refined_pairs
        and all(preimages[k] == 1 for k in refined))
    return report


def vanishing_sequence_dual(v: Subspace) -> tuple:
    """Scheme-valued node vanishing sequence of a dual-number aspect.

    Coordinates are ascending polynomial coefficients; the m-th evaluation
    map reads off the first m of them.  a_j is the largest m for which every
    (j+1)-minor of the truncated basis vanishes identically in the ring, so
    an eps in a low coefficient counts as nonzero even though it dies at the
    closed point.
    """
    if not v.ring.dual:
        raise ValueError("expected a dual-number subspace")
    if not v.is_free_cofree:
        raise ValueError("aspect is not free with free quotient over the "
                         "dual numbers")
    m = v.ambient_dim - 1
    basis = v.basis
    out = []
    for j in range(v.dim):
        a_j = 0
        for i in range(1, m + 1):
            trunc = basis.submatrix(range(basis.rows), range(i))
            if rank_everywhere_at_most(trunc, j):
                a_j = i
            else:
                break
        out.append(a_j)
    return tuple(out)


class DualProbeReport(Record):
    __slots__ = ("p", "d", "r", "linked_over_dual", "a_y", "a_z",
                 "a_y_mod_eps", "a_z_mod_eps")

    def __init__(self, p: int, d: int, r: int, linked_over_dual: bool,
                 a_y: tuple, a_z: tuple, a_y_mod_eps: tuple,
                 a_z_mod_eps: tuple):
        self.p = p
        self.d = d
        self.r = r
        self.linked_over_dual = linked_over_dual
        self.a_y = a_y
        self.a_z = a_z
        self.a_y_mod_eps = a_y_mod_eps
        self.a_z_mod_eps = a_z_mod_eps

    @property
    def first_order_sum(self) -> int:
        return self.a_y[0] + self.a_z[0]

    def as_dict(self) -> dict:
        total = self.first_order_sum
        return dict(super().as_dict(), schema_version=1,
                    first_order_sum=total, d_inequality_holds=total >= self.d,
                    d_minus_1_inequality_holds=total >= self.d - 1)


def dual_probe(p: int) -> DualProbeReport:
    """The first-order probe point: degree 2, rank 0, sections
    (y^2 + eps*y, 0), (y + eps, eps), (eps, z + eps) over GF(p)[eps].

    Its node orders drop below the crude threshold scheme-theoretically
    (sum d-1) while the reductions mod eps are refined; this is the standard
    counterexample shape for the degree inequality at first order.  Its
    linkage is ``chains._linkage_fault`` over GF(p)[eps].
    """
    model = NodalModel(2, p)
    ring = DualNumbers(p)
    eps = ring.eps()
    one = ring.one()
    v0 = Subspace.from_rows(ring, 3, [model.section(0, [0, eps, one], [0], ring)])
    v1 = Subspace.from_rows(ring, 3, [model.section(1, [eps, one], [eps], ring)])
    v2 = Subspace.from_rows(ring, 3, [model.section(2, [eps], [eps, one], ring)])
    linked = not _linkage_fault(model.chain(1), ChainPoint([v0, v1, v2]))
    a_y = vanishing_sequence_dual(v0)        # level-0 coords = y-coefficients
    a_z = vanishing_sequence_dual(v2)        # level-d coords = z-coefficients
    a_y_mod = node_orders(v0.mod_eps())
    a_z_mod = node_orders(v2.mod_eps())
    return DualProbeReport(p, 2, 0, linked, a_y, a_z, a_y_mod, a_z_mod)
