import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgseries.fields import Dual, DualNumbers, Fp, PrimeField
from lgseries.linalg import (Matrix, Subspace, apply_map, contains,
                             coords_in_rows, enumerate_between,
                             enumerate_subspaces, gaussian_binomial, image,
                             intersect, kernel, preimage,
                             rank_everywhere_at_most, rref, sum_spaces)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)
GF7 = PrimeField(7)


def mat(field, rows):
    return Matrix.from_rows(field, rows)


def all_subspaces(d, q):
    for r in range(d + 1):
        yield from enumerate_subspaces(d, r, q)


def test_rref_identity():
    m = Matrix.identity(GF2, 3)
    ech = rref(m)
    assert ech.matrix == m
    assert ech.rank == 3
    assert ech.unit_pivots


def test_rref_rank_one():
    ech = rref(mat(GF5, [[1, 2], [2, 4]]))
    assert ech.rank == 1
    assert ech.matrix.row_list() == [[Fp(1, 5), Fp(2, 5)]]


def test_rref_dual_flagged_row():
    D = DualNumbers(3)
    m = mat(D, [[D(0, 1), D(1, 0)], [D(0, 0), D(0, 0)]])
    ech = rref(m)
    assert ech.rank == 1
    assert not ech.unit_pivots
    assert ech.matrix.row_list() == [[D(0, 1), D(1, 0)]]


def test_rref_dual_torsion_row():
    D = DualNumbers(3)
    ech = rref(mat(D, [[D(0, 2), D(0, 1)]]))
    assert ech.rank == 0
    assert not ech.unit_pivots
    # torsion rows are normalised via their eps parts
    assert ech.matrix.row_list() == [[D(0, 1), D(0, 2)]]


def test_kernel_zero_map():
    k = kernel(Matrix.zero(GF2, 2, 2))
    assert k.dim == 2


def test_kernel_projection():
    k = kernel(mat(GF3, [[1, 0], [0, 0]]))
    assert k.dim == 1
    assert k.basis.row_list() == [[Fp(0, 3), Fp(1, 3)]]


def test_kernel_nodal_pair_coordinates():
    # degree-2 model in redundant pair coordinates (a0, a1, a2, b0): the
    # forward map keeps only b0, shifted into the z-side; its kernel is the
    # 3-dimensional space of pairs (a, 0).  Oracle: solve the 4x4 system by
    # independent elimination over the integers mod 2 (done by hand).
    f = mat(GF2, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    k = kernel(f)
    assert k.dim == 3
    expected = Subspace.from_rows(GF2, 4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0]])
    assert k == expected


def test_intersect_idempotent_random():
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randrange(1, 6)
        r = rng.randrange(0, d + 1)
        rows = [[rng.randrange(2) for _ in range(d)] for _ in range(r)]
        u = Subspace.from_rows(GF2, d, rows) if rows \
            else Subspace.zero_space(GF2, d)
        assert intersect(u, u) == u
        assert sum_spaces(u, u) == u


def test_modular_law_exhaustive_gf2_d_le_4():
    for d in range(1, 5):
        spaces = list(all_subspaces(d, 2))
        for u, w in itertools.product(spaces, repeat=2):
            s = sum_spaces(u, w)
            meet = intersect(u, w)
            assert s.dim + meet.dim == u.dim + w.dim
            assert contains(s, u) and contains(s, w)
            assert contains(u, meet) and contains(w, meet)


def test_preimage_projection_example():
    m = mat(GF3, [[1, 0], [0, 0]])
    w = Subspace.from_rows(GF3, 2, [[1, 0]])
    assert preimage(m, w).dim == 2  # every v maps to (v0, 0)


def test_preimage_soundness_random():
    rng = random.Random(4242)
    for _ in range(60):
        d = rng.randrange(1, 5)
        m = mat(GF2, [[rng.randrange(2) for _ in range(d)] for _ in range(d)])
        w_rows = [[rng.randrange(2) for _ in range(d)]
                  for _ in range(rng.randrange(0, d + 1))]
        w = Subspace.from_rows(GF2, d, w_rows) if w_rows \
            else Subspace.zero_space(GF2, d)
        pre = preimage(m, w)
        # every vector of the preimage maps into w, and none outside does
        for vec in itertools.product(range(2), repeat=d):
            v = tuple(Fp(x, 2) for x in vec)
            img = m.apply(v)
            if pre.contains_vector(v):
                assert w.contains_vector(img)
            else:
                assert not w.contains_vector(img)


def test_image_vs_preimage_duality_random():
    # w lies in the image of m exactly when the preimage of span{w} is
    # strictly larger than the kernel (for w != 0)
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randrange(1, 5)
        m = mat(GF2, [[rng.randrange(2) for _ in range(d)] for _ in range(d)])
        w = tuple(Fp(rng.randrange(2), 2) for _ in range(d))
        if not any(x.v for x in w):
            continue
        in_image = image(m).contains_vector(w)
        pre = preimage(m, Subspace.from_rows(GF2, d, [w]))
        hits = any(m.apply(tuple(Fp(x, 2) for x in vec)) == w
                   for vec in itertools.product(range(2), repeat=d))
        assert in_image == hits
        assert in_image == (pre.dim > kernel(m).dim)


def test_determinant_against_integer_oracle():
    # Matrix.det runs Bareiss; the oracle is cofactor expansion mod p
    def cofactor_det(m, p):
        if not m:
            return 1
        return sum((-1) ** j * m[0][j]
                   * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]], p)
                   for j in range(len(m))) % p

    rng = random.Random(31)
    for _ in range(80):
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        F7 = PrimeField(7)
        m = mat(F7, rows)
        assert m.det().v == cofactor_det(rows, 7)


def test_enumerate_counts_match_gaussian_binomial():
    for d in range(6):
        for r in range(d + 1):
            for q in (2, 3):
                n = sum(1 for _ in enumerate_subspaces(d, r, q))
                assert n == gaussian_binomial(d, r, q)


def test_enumerate_examples():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert sum(1 for _ in enumerate_subspaces(2, 1, 2)) == 3
    assert sum(1 for _ in enumerate_subspaces(4, 2, 2)) == 35
    zero = list(enumerate_subspaces(3, 0, 5))
    assert len(zero) == 1 and zero[0].dim == 0


@pytest.mark.parametrize("q", [1, 0, -1, True, 2.0, "2"])
def test_gaussian_binomial_rejects_a_bad_q(q):
    with pytest.raises(ValueError):
        gaussian_binomial(2, 1, q)


@pytest.mark.parametrize("bad", [1.5, "2", True, False, None], ids=repr)
def test_dimensions_must_be_ints(bad):
    # a float or a str failed deep inside with TypeError, and a bool was
    # taken as 0 or 1: each is refused up front, naming the argument
    zero, full = Subspace.zero_space(GF2, 3), Subspace.full_space(GF2, 3)
    for call, name in ((lambda: list(enumerate_subspaces(bad, 1, 2)), "d"),
                       (lambda: list(enumerate_subspaces(3, bad, 2)), "r"),
                       (lambda: list(enumerate_between(zero, full, bad)), "r"),
                       (lambda: gaussian_binomial(bad, 1, 2), "d"),
                       (lambda: gaussian_binomial(3, bad, 2), "r")):
        with pytest.raises(ValueError, match="^%s must be an integer" % name):
            call()


def test_subspace_stream_lists_no_field_up_front():
    # the free entries are counted out, so taking the first spaces at a
    # large prime allocates nothing of size q
    import tracemalloc

    tracemalloc.start()
    try:
        first = list(itertools.islice(enumerate_subspaces(2, 1, 1000003), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [sp.basis_rows() for sp in first] == [[(1, 0)], [(1, 1)],
                                                 [(1, 2)]]
    assert peak < 1 << 20


def test_enumerate_distinct_and_deterministic():
    pts = list(enumerate_subspaces(4, 2, 2))
    assert len(set(pts)) == len(pts)
    again = list(enumerate_subspaces(4, 2, 2))
    assert pts == again


def test_enumerate_partition_by_pivots():
    from lgseries.linalg import pivot_patterns

    whole = list(enumerate_subspaces(4, 2, 2))
    parts = []
    for pat in pivot_patterns(4, 2):
        parts.extend(enumerate_subspaces(4, 2, 2, pivots=pat))
    assert whole == parts


@pytest.mark.parametrize("d, r, pivots", [
    (3, 1, (5,)),      # out of range
    (3, 1, (0, 1)),    # more pivots than r
    (3, 2, (2, 0)),    # not increasing
    (3, 2, (1, 1)),    # repeated
    (3, 1, (True,)),   # a bool is not a column
    (3, 1, (-1,)),
], ids=repr)
def test_enumerate_rejects_bad_pivot_patterns(d, r, pivots):
    with pytest.raises(ValueError, match="pivots"):
        list(enumerate_subspaces(d, r, 2, pivots=pivots))


def test_rref_canonicity_under_row_operations():
    rng = random.Random(11)
    for d in range(1, 5):
        for u in all_subspaces(d, 2):
            if u.dim == 0:
                continue
            rows = [list(r) for r in u.basis_rows()]
            # random invertible row operations
            for _ in range(6):
                i, j = rng.randrange(u.dim), rng.randrange(u.dim)
                if i != j:
                    rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
            again = Subspace.from_rows(GF2, d, rows)
            assert again == u


def test_subspace_between_enumerator():
    lower = Subspace.from_rows(GF2, 4, [[1, 0, 0, 0]])
    upper = Subspace.from_rows(GF2, 4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                        [0, 0, 1, 0]])
    mids = list(enumerate_between(lower, upper, 2))
    # 2-spaces between a line and a 3-space = lines of the 2-dim quotient
    assert len(mids) == gaussian_binomial(2, 1, 2)
    assert len(set(mids)) == len(mids)
    for v in mids:
        assert contains(v, lower) and contains(upper, v) and v.dim == 2


@pytest.mark.parametrize("d, q", [(4, 2), (3, 3)])
def test_enumerate_between_equals_filtered_stream(d, q):
    # every pair lower <= upper and every r: the filtered subspace stream,
    # without repeats, and a Gaussian binomial of the quotient many
    by_dim = [list(enumerate_subspaces(d, r, q)) for r in range(d + 1)]
    spaces = [v for layer in by_dim for v in layer]
    pairs = 0
    for upper in spaces:
        for lower in spaces:
            if not upper.contains(lower):
                continue
            pairs += 1
            for r in range(d + 1):
                got = list(enumerate_between(lower, upper, r))
                assert len(set(got)) == len(got)
                assert set(got) == {v for v in by_dim[r] if v.contains(lower)
                                    and upper.contains(v)}
                assert len(got) == gaussian_binomial(upper.dim - lower.dim,
                                                     r - lower.dim, q)
    assert pairs == sum(len(list(all_subspaces(v.dim, q))) for v in spaces)


def test_enumerate_between_rejects_uncontained_and_dual():
    lower = Subspace.from_rows(GF2, 3, [[0, 0, 1]])
    upper = Subspace.from_rows(GF2, 3, [[1, 0, 0], [0, 1, 0]])
    for r in range(4):
        with pytest.raises(ValueError):
            list(enumerate_between(lower, upper, r))
    D = DualNumbers(3)
    zero, full = Subspace.zero_space(D, 2), Subspace.full_space(D, 2)
    for r in range(3):
        with pytest.raises(ValueError):
            list(enumerate_between(zero, full, r))


def _between_by_span(lower, upper, r):
    """The interval stream as it was first built: lift each quotient
    subspace through upper's rows at the pivots lower lacks, then reduce
    lower's rows and the lifted ones with ``Subspace._span``."""
    q, a, b = lower.ring.p, lower.dim, upper.dim
    if r < a or r > b:
        return
    lpiv = set(lower.pivots)
    quotient = [row for row, pc in zip(upper.basis_rows(), upper.pivots)
                if pc not in lpiv]
    for w in enumerate_subspaces(b - a, r - a, q):
        rows = [list(row) for row in lower.basis_rows()]
        for wrow in w.basis_rows():
            rows.append([sum(c * u[k] for c, u in zip(wrow, quotient)) % q
                         for k in range(lower.ambient_dim)])
        yield Subspace._span(lower.ring, lower.ambient_dim, rows)


@pytest.mark.parametrize("d, q", [(4, 2), (3, 3), (3, 5)])
def test_enumerate_between_builds_canonical_bases_in_oracle_order(d, q):
    # every pair lower <= upper and every r: each candidate is already in
    # canonical form, and the stream is the lift-and-reduce stream
    spaces = list(all_subspaces(d, q))
    seen = set()
    for upper in spaces:
        for lower in spaces:
            if not upper.contains(lower):
                continue
            for r in range(lower.dim, upper.dim + 1):
                got = list(enumerate_between(lower, upper, r))
                assert got == list(_between_by_span(lower, upper, r))
                for v in got:
                    again = Subspace.from_matrix(v.basis)
                    assert again == v and again.pivots == v.pivots
                    assert v.unit_pivots and v.dim == r
                    assert all(type(x) is int and 0 <= x < q
                               for x in v.basis.entries)
                seen.update(name for name, hit in (
                    ("a == r", r == lower.dim), ("b == r", r == upper.dim),
                    ("a == 0", lower.dim == 0), ("b == d", upper.dim == d),
                    ("a < r < b", lower.dim < r < upper.dim)) if hit)
    assert seen == {"a == r", "b == r", "a == 0", "b == d", "a < r < b"}


def _echelon_rows(draw, rows, cols, q):
    """Rows of a random rows x cols echelon matrix of full rank over GF(q):
    1 at drawn pivots, 0 left of them, random entries right of them."""
    pivots = sorted(draw(st.permutations(range(cols)))[:rows])
    return [[0] * pc + [1] + draw(st.lists(st.integers(0, q - 1),
                                           min_size=cols - pc - 1,
                                           max_size=cols - pc - 1))
            for pc in pivots]


# (q, d, a, b, k) with at most 1000 spaces of dimension a + k between an
# a- and a b-dimensional space of GF(q)^d, d <= 7, drawn uniformly so that
# cells with many free entries are common
INTERVAL_SHAPES = [(q, d, a, b, k) for q in (2, 3, 5, 7) for d in range(1, 8)
                   for b in range(d + 1) for a in range(b + 1)
                   for k in range(b - a + 1)
                   if gaussian_binomial(b - a, k, q) <= 1000]


@st.composite
def intervals(draw):
    """(lower, upper, r) of a drawn shape: upper spanned by echelon rows,
    lower by combinations of upper's rows."""
    q, d, a, b, k = draw(st.sampled_from(INTERVAL_SHAPES))
    urows = _echelon_rows(draw, b, d, q)
    lrows = [[sum(c * x for c, x in zip(cs, col)) % q for col in zip(*urows)]
             for cs in _echelon_rows(draw, a, b, q)]
    field = PrimeField(q)
    return (Subspace.from_rows(field, d, lrows),
            Subspace.from_rows(field, d, urows), a + k)


# a quotient of dimension 4 and lines in it: the first cell has 3 free
# entries, 343 spaces at q = 7, so the odometer carries out of both its
# last and its middle digit
@example((Subspace.from_rows(GF7, 7, [[1, 2, 0, 3, 0, 4, 5]]),
          Subspace.from_rows(GF7, 7, [[1, 2, 0, 3, 0, 4, 5],
                                      [0, 1, 6, 0, 2, 0, 1],
                                      [0, 0, 0, 1, 3, 0, 0],
                                      [0, 0, 0, 0, 1, 5, 2],
                                      [0, 0, 0, 0, 0, 1, 6]]), 2))
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(intervals())
def test_enumerate_between_equals_lift_and_reduce(case):
    # the affine families over each quotient cell give the oracle's spaces
    # in its order, past the exhaustive d <= 4 of the test above
    lower, upper, r = case
    assert list(enumerate_between(lower, upper, r)) == \
        list(_between_by_span(lower, upper, r))


@pytest.mark.parametrize("d, q", [(4, 2), (3, 3)])
def test_constraints_are_the_annihilator(d, q):
    dims = set()
    for v in all_subspaces(d, q):
        cons = v.constraints()
        assert (cons.rows, cons.cols) == (d - v.dim, d)
        assert kernel(cons) == v
        dims.add(v.dim)
    assert dims == set(range(d + 1))  # zero and full included


def test_constraints_are_field_only():
    D = DualNumbers(3)
    for v in (Subspace.zero_space(D, 2), Subspace.from_rows(D, 2, [[1, 2]]),
              Subspace.full_space(D, 2)):
        with pytest.raises(ValueError):
            v.constraints()


def _vectors(d, q):
    return list(itertools.product(range(q), repeat=d))


@pytest.mark.parametrize("d, q", [(3, 2), (2, 3)])
def test_intersect_and_preimage_match_brute_force(d, q):
    field = PrimeField(q)
    vectors = _vectors(d, q)
    spaces = list(all_subspaces(d, q))

    def members(v):
        return {x for x in vectors if v.contains_vector(x)}

    for u in spaces:
        for w in spaces:
            assert members(intersect(u, w)) == members(u) & members(w)
    for ents in itertools.product(range(q), repeat=d * d):
        m = Matrix(field, d, d, ents)
        for w in spaces:
            assert members(preimage(m, w)) == \
                {x for x in vectors if w.contains_vector(m.apply(x))}


def _rectangular_maps(field, rows, cols):
    """Every rows x cols matrix when there are at most 64, otherwise the
    zero matrix, a full-rank one and 60 seeded random ones."""
    q, size = field.p, rows * cols
    if q ** size <= 64:
        return [Matrix(field, rows, cols, ents)
                for ents in itertools.product(range(q), repeat=size)]
    rng = random.Random(q * 100 + rows * 10 + cols)
    ents = [tuple(rng.randrange(q) for _ in range(size)) for _ in range(60)]
    ents += [(0,) * size,
             tuple(int(i == j) for i in range(rows) for j in range(cols))]
    return [Matrix(field, rows, cols, e) for e in ents]


def _canonical(field, d, vectors):
    """The subspace spanned by ``vectors`` through the public RREF."""
    return Subspace.from_rows(field, d, sorted(vectors))


@pytest.mark.parametrize("q", [2, 3])
def test_kernel_apply_map_preimage_match_brute_force_on_rectangular_maps(q):
    # 0-row and 0-column maps included; the zero and the full space are
    # among the subspaces of each side
    field = PrimeField(q)
    for rows, cols in ((0, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3),
                       (3, 2)):
        domain, codomain = _vectors(cols, q), _vectors(rows, q)
        sources = list(all_subspaces(cols, q))
        targets = list(all_subspaces(rows, q))
        assert {u.dim for u in sources} == set(range(cols + 1))
        for m in _rectangular_maps(field, rows, cols):
            zero = (0,) * rows
            ker = {x for x in domain if m.apply(x) == zero}
            got = kernel(m)
            assert got == _canonical(field, cols, ker)
            assert {x for x in domain if got.contains_vector(x)} == ker
            for u in sources:
                img = {m.apply(x) for x in domain if u.contains_vector(x)}
                got = apply_map(m, u)
                assert got == _canonical(field, rows, img)
                assert got.pivots == _canonical(field, rows, img).pivots
            for w in targets:
                pre = {x for x in domain if w.contains_vector(m.apply(x))}
                got = preimage(m, w)
                assert got == _canonical(field, cols, pre)
                assert got.pivots == _canonical(field, cols, pre).pivots
                assert all(type(x) is int and 0 <= x < q
                           for x in got.basis.entries)


def test_preimage_rejects_a_ring_mismatch():
    m = mat(GF3, [[1, 0], [0, 1]])
    for w in (Subspace.full_space(GF2, 2), Subspace.zero_space(GF2, 2),
              Subspace.from_rows(GF2, 2, [[1, 1]])):
        with pytest.raises(ValueError,
                           match=r"PrimeField\(3\).*PrimeField\(2\)"):
            preimage(m, w)
    with pytest.raises(ValueError, match="codomain 2"):
        preimage(m, Subspace.full_space(GF3, 3))


def test_subspace_hash_is_cached_and_generating_set_free():
    u = Subspace.from_rows(GF5, 3, [[1, 2, 0], [0, 1, 4]])
    h = hash(u)
    assert u._hash == h == hash(u)
    again = Subspace.from_rows(GF5, 3, [[1, 3, 4], [2, 4, 0]])
    assert again == u and hash(again) == h and {u: 1}[again] == 1
    D = DualNumbers(3)
    m = Subspace.from_rows(D, 2, [[D(1, 0), D(0, 1)]])
    h = hash(m)
    # a unit multiple of the generator, and its eps multiple
    again = Subspace.from_rows(D, 2, [[D(2, 0), D(0, 2)], [D(0, 1), D(0, 0)]])
    assert m._hash == h
    assert again == m and hash(again) == h and {m: 1}[again] == 1


def test_matrix_rows_are_sliced_once_and_handed_out_in_new_lists():
    m = mat(GF5, [[1, 2, 0], [3, 4, 1]])
    rows = m._rows()
    assert rows == [(1, 2, 0), (3, 4, 1)]
    assert all(a is b for a, b in zip(rows, m._rows()))
    rows[0] = (0, 0, 0)
    assert rref(m).rank == 2 and m._rows() == [(1, 2, 0), (3, 4, 1)]
    assert kernel(m) == kernel(mat(GF5, [[1, 2, 0], [3, 4, 1]]))
    assert m._rows() == [(1, 2, 0), (3, 4, 1)]


def test_equal_entries_over_different_fields_compare_unequal():
    a = Subspace.from_rows(GF2, 2, [[1, 1]])
    b = Subspace.from_rows(GF3, 2, [[1, 1]])
    assert a.basis.entries == b.basis.entries
    assert a != b and len({a, b}) == 2
    assert Subspace.zero_space(GF2, 2) != Subspace.zero_space(GF2, 3)


def test_apply_of_an_fp_vector():
    m = mat(GF5, [[1, 2], [3, 4]])
    assert m.apply([Fp(0, 5), Fp(3, 5)]) == (Fp(1, 5), Fp(2, 5))


def test_coords_in_rows():
    rows = [[1, 2, 3], [0, 1, 4], [1, 3, 2]]   # the third is the sum
    for v in ([2, 2, 3], [Fp(1, 5), Fp(3, 5), Fp(2, 5)], [0, 0, 0]):
        c = coords_in_rows(rows, v, GF5)
        assert len(c) == len(rows)
        assert [sum(ci * row[j] for ci, row in zip(c, rows)) % 5
                for j in range(3)] == list(v)
    assert coords_in_rows(rows, [0, 0, 1], GF5) is None
    assert coords_in_rows([], [0, 0], GF5) == ()
    assert coords_in_rows([], [0, 1], GF5) is None
    with pytest.raises(ValueError, match="vector length"):
        coords_in_rows(rows, [1, 2], GF5)
    D = DualNumbers(3)
    with pytest.raises(ValueError, match="requires field coefficients"):
        coords_in_rows([[D(1, 0), D(0, 0)]], [D(1, 0), D(0, 0)], D)


def test_rank_everywhere_examples():
    D = DualNumbers(3)
    assert rank_everywhere_at_most(Matrix.zero(D, 2, 2), 0)
    m = mat(D, [[D(0, 1)]])
    assert not rank_everywhere_at_most(m, 0)  # eps is not 0 in the ring
    assert rank_everywhere_at_most(m, 1)
    # the second-order node evaluation of the probe section y^2 + eps*y:
    # coefficients (0, eps); not rank <= 0 everywhere, but rank <= 1
    beta2 = mat(D, [[D(0, 0), D(0, 1)]])
    assert not rank_everywhere_at_most(beta2, 0)
    assert rank_everywhere_at_most(beta2, 1)


def test_dual_rank_implies_closed_point_rank():
    rng = random.Random(5)
    D = DualNumbers(2)
    for _ in range(60):
        rows = [[D(rng.randrange(2), rng.randrange(2)) for _ in range(3)]
                for _ in range(2)]
        m = mat(D, rows)
        for j in range(3):
            if rank_everywhere_at_most(m, j):
                assert rref(m.mod_eps()).rank <= j


def test_dual_subspace_membership():
    D = DualNumbers(2)
    v = Subspace.from_rows(D, 2, [[D(0, 1), D(1, 0)]])  # span{(eps, 1)}
    assert v.contains_vector([D(0, 0), D(0, 1)])        # eps * generator
    assert not v.contains_vector([D(1, 0), D(0, 0)])
    assert v.is_free_cofree
    torsion = Subspace.from_rows(D, 2, [[D(0, 1), D(0, 0)]])
    assert not torsion.is_free_cofree


def test_dual_subspace_canonical_equality():
    D = DualNumbers(3)
    a = Subspace.from_rows(D, 2, [[D(0, 1), D(1, 0)]])
    b = Subspace.from_rows(D, 2, [[D(0, 2), D(2, 0)]])  # unit multiple
    assert a == b


def test_dual_reduction_runs_no_primality_test(monkeypatch):
    """A dual ring keeps its residue field, so a dual ``rref``,
    ``contains`` or ``mod_eps`` builds no GF(p) and reruns no trial division
    (2.2 ms a call at p = 2^31 - 1)."""
    from lgseries import fields

    F, D = PrimeField(2**31 - 1), DualNumbers(2**31 - 1)
    u = Subspace.from_rows(D, 3, [[D(0, 1), D(1, 0), D(2, 3)]])
    m = mat(D, [[D(0, 1), D(1, 0)], [D(1, 0), D(0, 0)]])
    calls = []
    real = fields.is_prime
    monkeypatch.setattr(fields, "is_prime",
                        lambda n: calls.append(n) or real(n))
    assert u.contains(u)
    assert u.contains_vector([D(0, 2), D(2, 0), D(4, 6)])
    assert rref(m).rank == 2
    assert m.mod_eps().ring == u.mod_eps().ring == F
    assert calls == []


def test_to_dual_runs_no_primality_test(monkeypatch):
    """A prime field keeps its dual ring, built once, so ``to_dual`` builds
    no GF(p)[eps] and reruns no trial division (4.3 ms a call at
    p = 2^31 - 1)."""
    from lgseries import fields

    P = 2**31 - 1
    F, D = PrimeField(P), DualNumbers(P)
    m = mat(F, [[1, 2], [3, 4]])
    u = Subspace.from_rows(F, 2, [[1, 2]])
    calls = []
    real = fields.is_prime
    monkeypatch.setattr(fields, "is_prime",
                        lambda n: calls.append(n) or real(n))
    dm, du = m.to_dual(), u.to_dual()
    assert dm.ring is du.ring is F.dual_ring and dm.ring.field is F
    assert dm.ring == D and dm.mod_eps() == m and du.mod_eps() == u
    assert m.to_dual() == dm and u.to_dual() == du
    assert calls == []


def test_apply_map_and_image():
    m = mat(GF3, [[1, 0], [0, 0]])
    u = Subspace.from_rows(GF3, 2, [[1, 1]])
    assert apply_map(m, u) == Subspace.from_rows(GF3, 2, [[1, 0]])
    assert image(m) == Subspace.from_rows(GF3, 2, [[1, 0]])


def test_serialization_roundtrip():
    m = mat(GF5, [[1, 2], [3, 4]])
    assert Matrix.from_dict(m.as_dict()) == m
    u = Subspace.from_rows(GF5, 2, [[1, 2]])
    assert Subspace.from_dict(u.as_dict()) == u
    D = DualNumbers(3)
    md = mat(D, [[D(1, 2), D(0, 1)]])
    assert Matrix.from_dict(md.as_dict()) == md


def test_subspace_from_dict_checks_rank():
    u = Subspace.from_rows(GF5, 3, [[1, 2, 0], [2, 4, 0]])  # rank 1
    good = u.as_dict()
    assert good["rank"] == 1 and Subspace.from_dict(good) == u
    zero = {"ring": {"p": 5, "dual": False}, "ambient_dim": 2, "rank": 0,
            "basis": [[0, 0]]}
    assert Subspace.from_dict(zero) == Subspace.zero_space(GF5, 2)
    for bad in (2, 0, 7, -1, "1", 1.0, True, None, [1]):
        with pytest.raises(ValueError):
            Subspace.from_dict(dict(good, rank=bad))


# --- property tests of the integer GF(p) core -------------------------------

PRIMES = (2, 3, 5, 7)
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)


def oracle_rref(rows, p, ncols):
    """Textbook Gauss-Jordan over the integers mod p; rows and pivots."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        sel = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if sel is None:
            continue
        a[rank], a[sel] = a[sel], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        pivots.append(c)
        rank += 1
    return [tuple(row) for row in a[:rank]], tuple(pivots)


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    """(p, number of columns, rows) with entries in [0, p)."""
    p = draw(st.sampled_from(PRIMES))
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=0, max_size=max_rows))
    return p, ncols, rows


@st.composite
def subspaces(draw, count, max_dim=5):
    """``count`` subspaces of one GF(p)^d, each spanned by random rows."""
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(1, max_dim))
    row = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    field = PrimeField(p)
    return [Subspace.from_rows(field, d, draw(st.lists(row, max_size=d + 1)))
            for _ in range(count)]


@PROPERTY
@given(matrices())
def test_rref_matches_plain_int_oracle(case):
    p, ncols, rows = case
    m = Matrix(PrimeField(p), len(rows), ncols,
               tuple(x for row in rows for x in row))
    ech = rref(m)
    want_rows, want_pivots = oracle_rref(rows, p, ncols)
    assert ech.matrix.row_list() == [list(r) for r in want_rows]
    assert ech.pivots == want_pivots
    assert ech.rank == len(want_pivots)
    assert all(type(x) is int and 0 <= x < p for x in ech.matrix.entries)


@PROPERTY
@given(subspaces(2))
def test_dimension_formula_for_sum_and_intersection(pair):
    u, w = pair
    assert sum_spaces(u, w).dim + intersect(u, w).dim == u.dim + w.dim


@PROPERTY
@given(subspaces(3))
def test_modular_law(triple):
    u, y, x = triple
    w = intersect(u, y)  # any subspace of u
    assert contains(u, w)
    assert intersect(u, sum_spaces(w, x)) == sum_spaces(w, intersect(u, x))


@PROPERTY
@given(subspaces(2))
def test_membership_agrees_with_dimension(pair):
    u, w = pair
    for v in w.basis_rows():
        grown = sum_spaces(u, Subspace.from_rows(u.ring, u.ambient_dim, [v]))
        assert u.contains_vector(v) == (grown.dim == u.dim)
    assert contains(u, w) == (sum_spaces(u, w) == u)


@PROPERTY
@given(matrices())
def test_rank_nullity(case):
    p, ncols, rows = case
    if not rows:
        return
    m = mat(PrimeField(p), rows)
    ker = kernel(m)
    assert ker.dim + image(m).dim == ncols
    for v in ker.basis_rows():
        assert not any(m.apply(v))


@PROPERTY
@given(matrices(), st.integers(-3, 3))
def test_fp_rows_and_int_rows_give_one_subspace(case, shift):
    p, ncols, rows = case
    field = PrimeField(p)
    from_ints = Subspace.from_rows(field, ncols,
                                   [[x + shift * p for x in row] for row in rows])
    from_fp = Subspace.from_rows(field, ncols,
                                 [[Fp(x, p) for x in row] for row in rows])
    assert from_ints == from_fp
    assert hash(from_ints) == hash(from_fp)
    assert from_ints.key() == from_fp.key()


def test_entries_are_ints_and_boundary_rejects_non_integers():
    m = mat(GF5, [[Fp(3, 5), 7], [-1, 0]])
    assert m.entries == (3, 2, 4, 0)
    assert all(type(x) is int for x in m.entries)
    for bad in (1.5, "1", True, None, Fp(1, 3)):
        with pytest.raises(ValueError):
            mat(GF5, [[bad, 0]])
        with pytest.raises(ValueError):
            Subspace.from_rows(GF5, 2, [[0, bad]])
    with pytest.raises(ValueError):
        Matrix.from_dict({"ring": {"p": 5, "dual": False}, "rows": 1,
                          "cols": 2, "entries": [1, 0.5]})
    assert m.det() == Fp(3 * 0 - 2 * 4, 5)
    assert isinstance(m.det(), Fp)


def test_rows_must_be_a_list_of_lists():
    # checked before the empty-rows shortcut: "" and 0 are falsy as well
    for bad in ("", 0, None, "ab", [1], [[1, 0], 2], [{0: 1, 1: 0}]):
        with pytest.raises(ValueError, match="list of lists"):
            Matrix.from_rows(GF2, bad)
        with pytest.raises(ValueError, match="list of lists"):
            Subspace.from_rows(GF2, 2, bad)
    assert Subspace.from_rows(GF2, 2, ()) == Subspace.zero_space(GF2, 2)
    assert Subspace.from_rows(GF2, 2, ((1, 1),)) == \
        Subspace.from_rows(GF2, 2, [[1, 1]])


# --- dual-number modules as eps-stable GF(p)-subspaces -----------------------

def test_dual_canonical_form_depends_only_on_module():
    # span{(1, 0), (0, eps)} from two generating sets
    D = DualNumbers(3)
    eps = D.eps()
    a = Subspace.from_rows(D, 2, [[1, eps], [0, eps]])
    b = Subspace.from_rows(D, 2, [[1, 0], [0, eps]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.basis.row_list() == [[D(1), D(0)], [D(0), eps]]
    assert (a.pivots, a.unit_pivots, a.is_free_cofree) == ((0,), False, False)


def module_elements(ring, d, rows):
    """Every R-combination of the rows, R = GF(p)[eps]/(eps^2), listed."""
    scalars = [ring(a0, a1) for a0 in range(ring.p) for a1 in range(ring.p)]
    return {tuple(sum((c * r[j] for c, r in zip(cs, rows)), ring.zero())
                  for j in range(d))
            for cs in itertools.product(scalars, repeat=len(rows))}


@st.composite
def dual_module_pairs(draw):
    """(ring, d, rows_a, rows_b, v) over GF(p)[eps]/(eps^2), p in {2, 3}.

    Half the time rows_b are R-combinations of rows_a, so that different
    generating sets of one module come up often.
    """
    ring = DualNumbers(draw(st.sampled_from((2, 3))))
    d = draw(st.integers(1, 4))
    elt = st.builds(ring, st.integers(0, ring.p - 1),
                    st.integers(0, ring.p - 1))
    vec = st.lists(elt, min_size=d, max_size=d)
    rows_a = draw(st.lists(vec, max_size=3))
    if rows_a and draw(st.booleans()):
        coeffs = draw(st.lists(st.lists(elt, min_size=len(rows_a),
                                        max_size=len(rows_a)),
                               min_size=1, max_size=3))
        rows_b = [[sum((c * r[j] for c, r in zip(cs, rows_a)), ring.zero())
                   for j in range(d)] for cs in coeffs]
    else:
        rows_b = draw(st.lists(vec, max_size=3))
    return ring, d, rows_a, rows_b, draw(vec)


@PROPERTY
@given(dual_module_pairs())
def test_dual_subspaces_compare_as_modules(case):
    ring, d, rows_a, rows_b, v = case
    a = Subspace.from_rows(ring, d, rows_a)
    b = Subspace.from_rows(ring, d, rows_b)
    elements_a = module_elements(ring, d, rows_a)
    same = elements_a == module_elements(ring, d, rows_b)
    assert (a == b) == same == (a.contains(b) and b.contains(a))
    if same:
        assert hash(a) == hash(b)
    inside = tuple(v) in elements_a
    assert a.contains_vector(v) == inside
    assert (Subspace.from_rows(ring, d, rows_a + [v]) == a) == inside
    again = rref(a.basis)
    assert (again.matrix, again.pivots, again.unit_pivots) == \
        (a.basis, a.pivots, a.unit_pivots)


@st.composite
def field_maps_on_dual_modules(draw):
    """(m, ring, d, rows): a map m over GF(p) from GF(p)^d and rows of
    GF(p)[eps]^d spanning the module it is applied to, p in {2, 3} and at
    most 3 dimensions on each side."""
    p = draw(st.sampled_from((2, 3)))
    ring = DualNumbers(p)
    d, e = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.integers(0, p - 1)
    m = mat(PrimeField(p), draw(st.lists(
        st.lists(entry, min_size=d, max_size=d), min_size=e, max_size=e)))
    vec = st.lists(st.builds(ring, entry, entry), min_size=d, max_size=d)
    return m, ring, d, draw(st.lists(vec, max_size=3))


def _on_both_parts(m, v):
    """m(v0 + eps v1) = m v0 + eps m v1 for a map m over GF(p)."""
    lo, hi = m.apply([x.a0 for x in v]), m.apply([x.a1 for x in v])
    return tuple(Dual(a, b, m.ring.p) for a, b in zip(lo, hi))


@PROPERTY
@given(field_maps_on_dual_modules())
def test_apply_map_of_a_field_map_acts_on_both_eps_parts(case):
    m, ring, d, rows = case
    u = Subspace.from_rows(ring, d, rows)
    got = apply_map(m, u)
    assert (got.ring, got.ambient_dim) == (ring, m.rows)
    assert got == Subspace.from_rows(
        ring, m.rows, [list(_on_both_parts(m, b)) for b in u.basis_rows()])
    # the module it spans is the image of every element of u
    assert module_elements(ring, m.rows, got.basis_rows()) == \
        {_on_both_parts(m, v) for v in module_elements(ring, d, rows)}


def test_apply_map_on_a_dual_module_needs_a_field_map_of_its_p():
    D = DualNumbers(3)
    u = Subspace.from_rows(D, 2, [[D(1, 1), D(0, 2)]])
    for other_p in (GF2, GF5):
        with pytest.raises(ValueError, match="does not match"):
            apply_map(mat(other_p, [[1, 0], [0, 1]]), u)
    dual_map = mat(D, [[D(1, 1), 0], [0, 1]])
    for module in (u, Subspace.zero_space(D, 2)):
        with pytest.raises(ValueError, match="field coefficients"):
            apply_map(dual_map, module)
    with pytest.raises(ValueError, match="does not match"):
        apply_map(dual_map, Subspace.from_rows(GF3, 2, [[1, 1]]))


def test_dual_matrix_arithmetic_is_field_only():
    D = DualNumbers(3)
    m = mat(D, [[D(1, 2), D(0, 1)], [D(2, 0), D(1, 1)]])
    for op in (lambda: m * m, lambda: m + m, lambda: m - m,
               lambda: m.scale(2), lambda: m.apply([1, 0])):
        with pytest.raises(ValueError, match="field coefficients"):
            op()


# --- scheme-wide rank bounds over GF(p)[eps] ---------------------------------

def dual_det(rows, p):
    """Cofactor determinant of a square matrix of (a0, a1) pairs, as a pair."""
    if not rows:
        return (1, 0)
    c0 = c1 = 0
    for j, (a0, a1) in enumerate(rows[0]):
        b0, b1 = dual_det([r[:j] + r[j + 1:] for r in rows[1:]], p)
        sign = -1 if j % 2 else 1
        c0 += sign * a0 * b0
        c1 += sign * (a0 * b1 + a1 * b0)
    return (c0 % p, c1 % p)


def minors_vanish(rows, j, p):
    """Oracle: every (j+1)-minor is 0 in GF(p)[eps], listed one by one."""
    k = j + 1
    return all(dual_det([[rows[i][c] for c in cs] for i in rs], p) == (0, 0)
               for rs in itertools.combinations(range(len(rows)), k)
               for cs in itertools.combinations(range(len(rows[0])), k))


@st.composite
def dual_matrices(draw):
    """(p, rows of (a0, a1) pairs) with A0 of a drawn rank bound, up to 3x4."""
    p = draw(st.sampled_from((2, 3)))
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k = draw(st.integers(0, min(nrows, ncols)))
    digit = st.integers(0, p - 1)
    # A0 = B C with B nrows x k and C k x ncols, so low ranks come up often
    b = draw(st.lists(st.lists(digit, min_size=k, max_size=k),
                      min_size=nrows, max_size=nrows))
    c = draw(st.lists(st.lists(digit, min_size=ncols, max_size=ncols),
                      min_size=k, max_size=k))
    a1 = draw(st.lists(st.lists(digit, min_size=ncols, max_size=ncols),
                       min_size=nrows, max_size=nrows))
    return p, [[(sum(b[i][t] * c[t][j] for t in range(k)) % p, a1[i][j])
                for j in range(ncols)] for i in range(nrows)]


@PROPERTY
@given(dual_matrices())
def test_rank_everywhere_matches_dual_minors(case):
    p, rows = case
    D = DualNumbers(p)
    m = mat(D, [[D(a0, a1) for a0, a1 in r] for r in rows])
    for j in range(min(len(rows), len(rows[0])) + 1):
        assert rank_everywhere_at_most(m, j) == minors_vanish(rows, j, p)


def test_det_is_field_only():
    D = DualNumbers(3)
    with pytest.raises(ValueError, match="field coefficients"):
        mat(D, [[D(1, 2), D(0, 1)], [D(2, 0), D(1, 1)]]).det()


def test_ring_mismatch_raises():
    a, b = mat(GF3, [[1, 2]]), mat(GF5, [[4, 4]])
    with pytest.raises(ValueError, match="ring"):
        a + b
    with pytest.raises(ValueError, match="ring"):
        a - b
    with pytest.raises(ValueError, match="does not match"):
        apply_map(mat(GF5, [[1, 0], [0, 1]]),
                  Subspace.from_rows(GF3, 2, [[1, 1]]))


def test_reprs_print_entries_bare():
    f3, r3 = PrimeField(3), DualNumbers(3)
    assert repr(Matrix.from_rows(f3, [[1, 2], [0, 1]])) == \
        "Matrix(PrimeField(3), [[1, 2], [0, 1]])"
    assert repr(Subspace.from_rows(f3, 2, [[2, 0]])) == \
        "Subspace(dim=1, ambient=2, basis=[[1, 0]])"
    assert repr(Subspace.zero_space(f3, 2)) == \
        "Subspace(dim=0, ambient=2, basis=[])"
    assert repr(Matrix.from_rows(r3, [[Dual(1, 0, 3), Dual(2, 1, 3)]])) == \
        "Matrix(DualNumbers(3), [[1+0e, 2+1e]])"
    assert repr(Subspace.from_rows(r3, 2, [[Dual(1, 0, 3), Dual(0, 1, 3)]])) \
        == "Subspace(dim=1, ambient=2, basis=[[1+0e, 0+1e]])"
