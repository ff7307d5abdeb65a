import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgseries import chains as chains_module
from lgseries import linalg as linalg_module
from lgseries.chains import (CensusReport, ChainPoint, LinkedChain,
                             admissible_signatures_n2, boundary_counts,
                             census, decompose, enumerate_points, exactify,
                             expected_component_count_n2, extend_truncation,
                             is_exact, is_linked_point, make_standard_chain,
                             signature, tangent_dimension, validate_chain)
from lgseries.fields import Dual, DualNumbers, PrimeField
from lgseries.linalg import (BudgetError, Matrix, Subspace, apply_map,
                             contains, enumerate_between, enumerate_subspaces,
                             gaussian_binomial, image, intersect, kernel,
                             preimage, rref)
from lgseries.series import (build_section_chain, enumerate_limit_series,
                             fr_image_report)

GF2 = PrimeField(2)


def cross_chain():
    """n=d=2, r=1, f=diag(1,0), g=diag(0,1), s=0."""
    f = Matrix.from_rows(GF2, [[1, 0], [0, 0]])
    g = Matrix.from_rows(GF2, [[0, 0], [0, 1]])
    return LinkedChain(GF2, 2, 2, 1, [f], [g], GF2(0))


def span2(rows):
    return Subspace.from_rows(GF2, 2, rows)


def cross_node():
    return ChainPoint([span2([[0, 1]]), span2([[1, 0]])])


def small_standard_chains(max_d=3, max_n=3, qs=(2,)):
    for q in qs:
        for d in range(2, max_d + 1):
            for n in range(2, max_n + 1):
                for d1 in range(1, d):
                    for r in range(1, d):
                        yield make_standard_chain(n, d, d1, 0, q, r=r)


def test_validate_cross_chain():
    assert validate_chain(cross_chain()).ok


def test_validate_identity_chain_s1():
    f = Matrix.identity(GF2, 2)
    c = LinkedChain(GF2, 3, 2, 1, [f, f], [f, f], GF2(1))
    assert validate_chain(c).ok


def test_validate_catches_condition_one():
    f = Matrix.from_rows(GF2, [[1, 0], [0, 0]])
    c = LinkedChain(GF2, 2, 2, 1, [f], [f], GF2(0))
    rep = validate_chain(c)
    assert not rep.ok
    assert any(v["condition"] == "I" for v in rep.violations)


def test_validate_catches_condition_two():
    # f nilpotent with g = 0 satisfies I but not II
    f = Matrix.from_rows(GF2, [[0, 1], [0, 0]])
    g = Matrix.zero(GF2, 2, 2)
    rep = validate_chain(LinkedChain(GF2, 2, 2, 1, [f], [g], GF2(0)))
    assert any(v["condition"] == "II" for v in rep.violations)


def test_validate_catches_condition_three():
    F3 = PrimeField(3)
    # n=3 with maps whose consecutive images/kernels collide
    f1 = Matrix.from_rows(F3, [[1, 0], [0, 0]])
    g1 = Matrix.from_rows(F3, [[0, 0], [0, 1]])
    f2 = Matrix.from_rows(F3, [[0, 0], [0, 1]])
    g2 = Matrix.from_rows(F3, [[1, 0], [0, 0]])
    rep = validate_chain(LinkedChain(F3, 3, 2, 1, [f1, f2], [g1, g2], F3(0)))
    assert any(v["condition"] == "III" for v in rep.violations)


def test_make_standard_chain_matches_cross():
    c = make_standard_chain(2, 2, 1, 0, 2, r=1)
    w = cross_chain()
    assert c.fs == w.fs and c.gs == w.gs and c.s == w.s


def test_make_standard_chain_examples():
    assert validate_chain(make_standard_chain(3, 3, 2, 0, 3, r=1)).ok
    assert validate_chain(make_standard_chain(2, 4, 2, 1, 5, r=2)).ok
    with pytest.raises(ValueError):
        make_standard_chain(2, 3, 0, 0, 2, r=1)
    with pytest.raises(ValueError):
        make_standard_chain(2, 3, 3, 0, 2, r=1)


def test_is_linked_point_cross_chain():
    c = cross_chain()
    assert is_linked_point(c, cross_node())
    bad = ChainPoint([span2([[1, 0]]), span2([[0, 1]])])
    assert not is_linked_point(c, bad)
    inv = ChainPoint([span2([[1, 0]]), span2([[1, 0]])])
    assert is_linked_point(c, inv)  # f,g invariant subspace


def test_is_linked_point_shape_errors():
    c = cross_chain()
    with pytest.raises(ValueError):
        is_linked_point(c, ChainPoint([span2([[1, 0]])]))
    with pytest.raises(ValueError):
        is_linked_point(c, ChainPoint([span2([[1, 0], [0, 1]]),
                                       span2([[1, 0]])]))


def test_enumerate_points_cross_chain():
    pts = list(enumerate_points(cross_chain()))
    assert len(pts) == 5
    assert len(set(pts)) == 5
    # oracle: brute-force filter of the full product
    lines = [span2([[1, 0]]), span2([[0, 1]]), span2([[1, 1]])]
    brute = [ChainPoint([a, b]) for a in lines for b in lines
             if is_linked_point(cross_chain(), ChainPoint([a, b]))]
    assert set(pts) == set(brute)


def test_enumerate_points_s1_diagonal():
    c = make_standard_chain(2, 2, 1, 1, 2, r=1)
    pts = list(enumerate_points(c))
    assert len(pts) == 3  # V_2 forced equal to V_1
    assert all(pt[0] == pt[1] for pt in pts)


def test_enumerate_points_rank_zero():
    c = make_standard_chain(3, 2, 1, 0, 2, r=0)
    pts = list(enumerate_points(c))
    assert len(pts) == 1
    assert all(sp.dim == 0 for sp in pts[0])


def test_enumerate_points_deeper_than_recursion_limit():
    # s = 1: every level repeats the first, so the 3 lines of GF(2)^2
    c = make_standard_chain(1500, 2, 1, 1, 2, r=1)
    assert len(list(enumerate_points(c))) == 3


def test_enumerate_points_budget():
    with pytest.raises(BudgetError):
        list(enumerate_points(make_standard_chain(2, 4, 2, 0, 2, r=2),
                              budget=3))


@pytest.mark.parametrize("budget", [-1, 1.5, "5", True], ids=repr)
def test_every_budgeted_function_rejects_a_budget_that_is_no_count(budget):
    # a budget is None or an int >= 0, checked where it is first read,
    # before any candidate is spent; 0 and None keep their meaning
    c = make_standard_chain(2, 3, 1, 0, 2, r=1)
    for run in (lambda b: list(enumerate_points(c, b)),
                lambda b: census(c, b), lambda b: boundary_counts(c, b),
                lambda b: fr_image_report(2, 1, 2, b),
                lambda b: list(enumerate_limit_series(2, 1, 2, budget=b))):
        with pytest.raises(ValueError, match="budget"):
            run(budget)
        with pytest.raises(BudgetError):
            run(0)
        assert run(None) == run(10 ** 6)


def _points_walking_every_interval(chain):
    """The point stream by plain recursion, drawing each interval afresh
    from a new ``_Intervals`` table at every tree node (the oracle for the
    table's memos in ``enumerate_points``)."""
    out = []

    def walk(prefix):
        if len(prefix) == chain.n:
            out.append(ChainPoint(prefix))
            return
        table = chains_module._Intervals(chain)
        for w in table.draw(len(prefix) - 1, prefix[-1]):
            walk(prefix + [w])

    for v in enumerate_subspaces(chain.d, chain.r, chain.p):
        walk([v])
    return out


def test_enumerate_points_matches_fresh_interval_walk():
    chains = [build_section_chain(2, 2, 1), build_section_chain(3, 2, 2),
              build_section_chain(3, 3, 2)]
    chains += list(small_standard_chains())
    chains += [make_standard_chain(3, 3, 1, 2, 3, r=2),
               conjugated_standard_chain(3, 3, 1, 3, 1, seed=5)]
    for c in chains:
        assert list(enumerate_points(c)) == _points_walking_every_interval(c)


def _interval_by_filter(chain, i, v, stream):
    """The interval of v at step i by its definition: the W of the subspace
    stream, given as (W, g_i(W)) pairs, with f_i(v) <= W and g_i(W) <= v."""
    lower = apply_map(chain.fs[i], v)
    return [w for w, gw in stream if w.contains(lower) and v.contains(gw)]


def test_interval_matches_brute_force_filter():
    # every V at every step, on both branches (f(V) already of rank r, or
    # not): the interval is the filtered subspace stream, each W once, with
    # the echelon cells in stream order, and it equals the interval walked
    # from both ends by enumerate_between, whose quotient order inside a
    # cell the point stream has always had; one table per chain, so later
    # nodes replay stored nodes and pairs
    chains = [build_section_chain(2, 2, 1), build_section_chain(3, 2, 2),
              build_section_chain(3, 3, 2)]
    chains += list(small_standard_chains())
    chains += [make_standard_chain(3, 3, 1, 1, 2, r=1),
               make_standard_chain(2, 3, 2, 1, 2, r=2),
               make_standard_chain(3, 3, 1, 2, 3, r=2),
               conjugated_standard_chain(3, 3, 1, 3, 1, seed=5)]
    branches = set()
    for c in chains:
        spaces = list(enumerate_subspaces(c.d, c.r, c.p))
        table = chains_module._Intervals(c)
        for i in range(c.n - 1):
            stream = [(w, apply_map(c.gs[i], w)) for w in spaces]
            for v in spaces:
                got = list(table.of(i, v))
                want = _interval_by_filter(c, i, v, stream)
                assert len(set(got)) == len(got)
                assert set(got) == set(want)
                assert [w.pivots for w in got] == [w.pivots for w in want]
                lower = apply_map(c.fs[i], v)
                assert got == list(enumerate_between(
                    lower, preimage(c.gs[i], v), c.r))
                branches.add(lower.dim == c.r)
    assert branches == {True, False}


def _count_draws(monkeypatch):
    """Patch ``chains._Intervals.draw`` to count its calls (node draws) and
    yields."""
    counts = {"calls": 0, "yields": 0}
    real = chains_module._Intervals.draw

    def counting(*args):
        counts["calls"] += 1
        for item in real(*args):
            counts["yields"] += 1
            yield item

    monkeypatch.setattr(chains_module._Intervals, "draw", counting)
    return counts


def test_enumerate_points_draws_no_candidate_ahead_of_budget(monkeypatch):
    counts = _count_draws(monkeypatch)
    c = make_standard_chain(2, 6, 3, 0, 2, r=3)
    with pytest.raises(BudgetError) as info:
        list(enumerate_points(c, budget=100))
    assert info.value.count == 101
    assert counts["yields"] <= 100


def _projection_chain(d, r, p):
    """An s = 0 chain with n = 2: f projects onto the last d - r coordinates
    and g onto the first r, so the interval of the first level-0 space,
    span(e_0, ..., e_{r-1}), is all of G(d, r, p)."""
    field_ = PrimeField(p)
    f = Matrix.from_rows(field_, [[int(i == j >= r) for j in range(d)]
                                  for i in range(d)])
    g = Matrix.from_rows(field_, [[int(i == j < r) for j in range(d)]
                                  for i in range(d)])
    return LinkedChain(field_, 2, d, r, [f], [g], field_(0))


def _count_cell_draws(monkeypatch):
    """Patch the quotient stream ``linalg._cells`` where the interval table
    reads it (``chains._cells``) to count its yields.  The quotient spaces
    of every interval are drawn through it; the level-0 stream, which runs
    through ``enumerate_subspaces``, is not counted."""
    counts = {"yields": 0}
    real = chains_module._cells

    def counting(*args, **kwargs):
        for item in real(*args, **kwargs):
            counts["yields"] += 1
            yield item

    monkeypatch.setattr(chains_module, "_cells", counting)
    return counts


def test_a_huge_interval_is_drawn_no_further_than_needed(monkeypatch):
    # G(10, 5, 2) has about 10^8 spaces: listing it before the budget is
    # checked, or caching its quotient cells, would not finish
    c = _projection_chain(10, 5, 2)
    first = next(enumerate_subspaces(10, 5, 2))
    assert gaussian_binomial(10, 5, 2) > 10 ** 8
    assert validate_chain(c).ok
    counts, drawn = _count_cell_draws(monkeypatch), []
    for run in (lambda: list(enumerate_points(c, budget=100)),
                lambda: boundary_counts(c, budget=100)):
        counts["yields"] = 0
        with pytest.raises(BudgetError) as info:
            run()
        assert info.value.count == 101
        assert counts["yields"] <= 100
        drawn.append(counts["yields"])
    # the walk reaches the huge interval at once; the path count spends the
    # whole budget on the level-0 stream before it draws any interval
    assert drawn == [100, 0]
    counts["yields"] = 0
    assert extend_truncation(c, ChainPoint([first])).spaces[1] == first
    assert counts["yields"] == 1


def test_counting_passes_draw_an_interval_only_as_far_as_the_budget(
        monkeypatch):
    # the level-0 stream is all of G(6, 3, 2), and so is the interval of
    # its first space: after the stream, 10 units are left, so the census
    # and the path count draw 11 spaces of that interval and then raise
    c = _projection_chain(6, 3, 2)
    total = gaussian_binomial(6, 3, 2)
    assert total == 1395 and validate_chain(c).ok
    counts = _count_cell_draws(monkeypatch)
    for run in (census, boundary_counts):
        counts["yields"] = 0
        with pytest.raises(BudgetError) as info:
            run(c, budget=total + 10)
        assert info.value.count == total + 11
        assert 1 <= counts["yields"] <= 11, run


def test_no_cache_outlives_a_pass(monkeypatch):
    # every cache of a pass lives in its own interval table, so a second
    # identical call in one process draws as many quotient spaces as the
    # first, whatever ran before it
    counts = _count_cell_draws(monkeypatch)
    section = build_section_chain(3, 3, 2)
    for run, drawn in ((lambda: fr_image_report(3, 1, 2), 52),
                       (lambda: list(enumerate_points(section)), 160)):
        for _ in range(2):
            counts["yields"] = 0
            run()
            assert counts["yields"] == drawn


def test_enumerate_points_walks_each_interval_once(monkeypatch):
    # section (3, 3, 2): 1,119 prefixes below the last level, but only 390
    # distinct (level, subspace) pairs among them.  Every step of a standard
    # chain has the same (f, g), so a node (k, V) shares its interval with
    # (j, V) at every other step: keyed by (level, V), the walks of the two
    # standard chains drew 390 and 70 intervals
    cases = ((build_section_chain(3, 3, 2), 1147, 390),
             (make_standard_chain(4, 4, 2, 0, 3, 2), 1381, 166),
             (make_standard_chain(3, 4, 2, 0, 2, 2), 211, 46))
    counts = _count_draws(monkeypatch)
    for c, points, draws in cases:
        want = _points_walking_every_interval(c)
        counts["calls"] = 0
        assert list(enumerate_points(c)) == want and len(want) == points
        assert counts["calls"] == draws, c


def test_interval_passes_list_each_pair_once(monkeypatch):
    # section (3, 3, 2): of the 390 interval nodes, 192 have f_k(V) of rank
    # below r, and those share only 56 pairs (f_k(V), g_k^{-1}(V))
    c = build_section_chain(3, 3, 2)
    pts = list(enumerate_points(c))
    nodes = {(k, pt[k]) for pt in pts for k in range(c.n - 1)}
    lowers = {(k, v): apply_map(c.fs[k], v) for k, v in nodes}
    between = [(lowers[k, v], preimage(c.gs[k], v)) for k, v in nodes
               if lowers[k, v].dim < c.r]
    assert (len(nodes), len(between), len(set(between))) == (390, 192, 56)
    calls = []
    real = chains_module._between

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(chains_module, "_between", counting)
    for run in (lambda: list(enumerate_points(c)),
                lambda: boundary_counts(c)):
        calls.clear()
        run()
        assert len(calls) == 56


def test_enumerate_points_lists_each_space_as_one_object():
    pts = list(enumerate_points(build_section_chain(3, 3, 2)))
    spaces = [w for pt in pts for w in pt]
    assert len(spaces) == 1147 * 4
    assert len({id(w) for w in spaces}) == len(set(spaces)) == 130


def test_interning_compares_no_subspaces(monkeypatch):
    # the enum-lls walk of d=3 r=1 p=3: interning by echelon entries, with
    # the pair memo holding interned objects, calls Subspace.__eq__ never
    # (895 times when the memo held the objects enumerate_between made)
    calls = []
    real = Subspace.__eq__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Subspace, "__eq__", counting)
    assert sum(1 for _ in enumerate_limit_series(3, 1, 3)) == 1147
    assert calls == []


def test_a_pair_met_again_while_its_stream_is_open(monkeypatch):
    # V = span(e_0, e_2) lies in its own interval [span(e_0),
    # span(e_0, e_1, e_2)], so the walk meets that pair one level down while
    # V's stream is still being drawn; it must be drawn afresh there, and
    # the points are those of walking every interval afresh
    c = make_standard_chain(3, 4, 2, 0, 2, r=2)
    want = _points_walking_every_interval(c)
    live, reopened = [], []
    real = chains_module._between

    def tracking(lower, upper, r, q, cells):
        key = (lower, upper)
        if key in live:
            reopened.append(key)
        live.append(key)
        yield from real(lower, upper, r, q, cells)
        live.remove(key)

    monkeypatch.setattr(chains_module, "_between", tracking)
    assert list(enumerate_points(c)) == want
    assert reopened and not live


def test_exactness_cross_chain_examples():
    c = cross_chain()
    node = cross_node()
    assert not is_exact(c, node)
    sig = signature(c, node)
    assert sig.f_ranks == (0,) and sig.g_ranks == (0,) and not sig.exact
    pt = ChainPoint([span2([[1, 0]]), span2([[1, 0]])])
    assert is_exact(c, pt)
    assert signature(c, pt).key() == ((1,), (0,))


def test_exactness_s_unit_always():
    c = make_standard_chain(2, 3, 1, 1, 2, r=1)
    for pt in enumerate_points(c):
        assert is_exact(c, pt)


def test_exactness_rank_law_exhaustive():
    # s=0: exact <=> per-step ranks sum to r; and sums never exceed r
    for c in small_standard_chains():
        for pt in enumerate_points(c):
            sig = signature(c, pt)
            for rf, rg in zip(sig.f_ranks, sig.g_ranks):
                assert rf + rg <= c.r
            law = all(rf + rg == c.r
                      for rf, rg in zip(sig.f_ranks, sig.g_ranks))
            assert law == sig.exact == is_exact(c, pt)


def _exact_by_containment(chain, pt):
    """Exactness by its definition in the ambient space: at every step,
    V_{i+1} meet ker g_i lies in f_i(V_i), and V_i meet ker f_i in
    g_i(V_{i+1})."""
    for i, (f, g) in enumerate(zip(chain.fs, chain.gs)):
        if not apply_map(f, pt[i]).contains(intersect(pt[i + 1], kernel(g))):
            return False
        if not apply_map(g, pt[i + 1]).contains(intersect(pt[i], kernel(f))):
            return False
    return True


def conjugated_standard_chain(n, d, d1, p, r, seed):
    """The s = 0 standard chain with every map replaced by P m P^-1 for a
    random invertible P: an isomorphic chain with dense maps."""
    import random

    F = PrimeField(p)
    rng = random.Random(seed)
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    while True:
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        ech = rref(Matrix.from_rows(F, [a + b for a, b in zip(rows, unit)]))
        if ech.pivots == tuple(range(d)):
            break
    P = Matrix.from_rows(F, rows)
    P_inv = ech.matrix.submatrix(range(d), range(d, 2 * d))
    base = make_standard_chain(n, d, d1, 0, p, r=r)
    return LinkedChain(F, n, d, r, [P * f * P_inv for f in base.fs],
                       [P * g * P_inv for g in base.gs], F(0))


@pytest.mark.parametrize("c", [
    build_section_chain(3, 3, 2), build_section_chain(3, 2, 3),
    make_standard_chain(3, 3, 1, 2, 3, 2),
    conjugated_standard_chain(3, 4, 2, 2, 2, seed=1)], ids=repr)
def test_draw_equals_the_checked_interval_stream(c):
    # the node kernel on int rows against the public routines it bypasses,
    # in order, at every node the walk reaches; one table per chain, so
    # later nodes replay stored pairs, and what it yields is interned
    nodes = {(k, pt[k]) for pt in enumerate_points(c) for k in range(c.n - 1)}
    table = chains_module._Intervals(c)
    assert all(lawful for *_, lawful in table.maps)
    branches = set()
    for k, v in nodes:
        lower = apply_map(c.fs[k], v)
        got = tuple(table.draw(k, v))
        assert got == tuple(enumerate_between(lower, preimage(c.gs[k], v),
                                              c.r))
        assert all(table.space(w) is w for w in got)
        branches.add(lower.dim == c.r)
    assert branches == ({True} if c.s.v else {True, False})


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(2, 3), st.integers(2, 4), st.data())
def test_memoised_draw_equals_the_checked_stream_on_dense_chains(n, d, data):
    # one table serves every node of every step, so later nodes read f_k(V),
    # g_k^{-1}(V) and their pair from the memos of earlier ones; each
    # interval still equals the checked public stream, in order
    c = conjugated_standard_chain(
        n, d, data.draw(st.integers(1, d - 1), label="d1"),
        data.draw(st.sampled_from([2, 3]), label="p"),
        data.draw(st.integers(0, d - 1), label="r"),
        seed=data.draw(st.integers(0, 2**16), label="seed"))
    table = chains_module._Intervals(c)
    for k in range(c.n - 1):
        for v in map(table.space, enumerate_subspaces(c.d, c.r, c.p)):
            want = tuple(enumerate_between(apply_map(c.fs[k], v),
                                           preimage(c.gs[k], v), c.r))
            assert tuple(table.draw(k, v)) == want, (k, v)
            assert tuple(table.of(k, v)) == want, (k, v)


def test_exactness_matches_containment_oracle():
    chains = list(small_standard_chains())
    chains += [build_section_chain(2, 2, 1), build_section_chain(3, 2, 2),
               build_section_chain(3, 2, 3),
               make_standard_chain(3, 3, 1, 2, 3, r=2),
               conjugated_standard_chain(3, 3, 1, 3, 1, seed=5)]
    assert validate_chain(chains[-1]).ok
    non_exact = 0
    for c in chains:
        for pt in enumerate_points(c):
            want = _exact_by_containment(c, pt)
            assert signature(c, pt).exact == is_exact(c, pt) == want
            non_exact += not want
    assert non_exact > 0
    # On a valid chain either containment implies the other, so take a datum
    # violating f g = 0 (f: e2 -> e3, g: e4 -> e2) on which exactly one
    # fails; reversed, the other one fails.  The ranks there still sum to r,
    # so signature's rank-law cross-check raises.
    f = Matrix.from_rows(GF2, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0],
                               [0, 0, 0, 0]])
    g = Matrix.from_rows(GF2, [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0],
                               [0, 0, 0, 0]])
    bad = LinkedChain(GF2, 2, 4, 2, [f], [g], GF2(0))
    pt = ChainPoint([Subspace.from_rows(GF2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]]),
                     Subspace.from_rows(GF2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])])
    for c, p in ((bad, pt), (bad.reverse(), ChainPoint(pt.spaces[::-1]))):
        assert is_linked_point(c, p) and not _exact_by_containment(c, p)
        assert not is_exact(c, p)
        with pytest.raises(RuntimeError, match="rank law"):
            signature(c, p)


def _gf2_matrix_3x3(entries):
    return Matrix.from_rows(GF2, [list(entries[i:i + 3]) for i in (0, 3, 6)])


@pytest.mark.parametrize("f, g, v, w, fails", [
    # ker g|W = span{(1,0,0)} is not in f(V) = span{(1,1,1)}
    ((0, 1, 0, 0, 0, 1, 0, 0, 1), (0, 0, 1, 0, 0, 0, 0, 0, 0),
     [[1, 0, 0], [0, 1, 1]], [[1, 0, 0], [0, 1, 1]], "ker g"),
    # ker f|V = span{(1,0,0)} is not in g(W) = span{(0,0,1)}
    ((0, 0, 1, 0, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0, 0, 0, 1),
     [[1, 0, 0], [0, 0, 1]], [[1, 0, 1], [0, 1, 1]], "ker f"),
], ids=["ker-g", "ker-f"])
def test_exactness_fails_on_one_containment_alone(f, g, v, w, fails):
    # two GF(2) chains (n = 2, d = 3, r = 2) violating the axioms, on each
    # of which exactly one of the two containments of _step fails, so
    # dropping either check makes a point exact that is not
    f, g = _gf2_matrix_3x3(f), _gf2_matrix_3x3(g)
    c = LinkedChain(GF2, 2, 3, 2, [f], [g], GF2(0))
    pt = ChainPoint([Subspace.from_rows(GF2, 3, v),
                     Subspace.from_rows(GF2, 3, w)])
    assert not validate_chain(c).ok and is_linked_point(c, pt)
    holds = {"ker g": apply_map(f, pt[0]).contains(
                 intersect(pt[1], kernel(g))),
             "ker f": apply_map(g, pt[1]).contains(
                 intersect(pt[0], kernel(f)))}
    assert [k for k, ok in holds.items() if not ok] == [fails]
    assert is_exact(c, pt) is False
    with pytest.raises(RuntimeError, match="rank law"):
        signature(c, pt)


def test_rank_law_is_checked_at_each_step():
    # a GF(2) chain violating the axioms whose point has steps
    # (f, g, exact) = (0, 0, False) and (1, 1, True): on the whole point
    # "every step exact" and "every step's ranks sum to r" are both false,
    # so only a check per step sees the second step's exact ranks sum to 2
    c = LinkedChain(GF2, 3, 3, 1,
                    [_gf2_matrix_3x3((0, 1, 1, 0, 1, 0, 0, 1, 0)),
                     _gf2_matrix_3x3((0, 0, 0, 0, 1, 0, 1, 0, 0))],
                    [_gf2_matrix_3x3((0, 0, 0, 0, 1, 1, 0, 1, 1)),
                     _gf2_matrix_3x3((0, 0, 1, 0, 1, 0, 0, 1, 0))], GF2(0))
    pt = ChainPoint([Subspace.from_rows(GF2, 3, [row])
                     for row in ([1, 0, 0], [1, 0, 0], [0, 0, 1])])
    assert not validate_chain(c).ok and is_linked_point(c, pt)
    assert is_exact(c, pt) is False
    steps = chains_module._path_steps(c, pt)
    assert [st[:3] for st in steps] == [(0, 0, False), (1, 1, True)]
    for analysis in (signature, tangent_dimension):
        with pytest.raises(RuntimeError, match="rank law"):
            analysis(c, pt)
    # the census checks the law once every candidate is drawn, so a budget
    # one short of what the stream spends raises BudgetError first; the
    # chain extended by a lawful step (f = id, g = 0) puts a level of draws
    # after the step off the law, so a check made as each edge is read
    # would raise RuntimeError there
    longer = LinkedChain(GF2, 4, 3, 1, c.fs + (Matrix.identity(GF2, 3),),
                         c.gs + (Matrix.zero(GF2, 3, 3),), GF2(0))
    for chain, spent in ((c, 25), (longer, 34)):
        assert stream_candidates(chain) == spent
        with pytest.raises(RuntimeError, match="rank law"):
            census(chain)
        with pytest.raises(BudgetError) as info:
            census(chain, budget=spent - 1)
        assert info.value.count == spent


@pytest.mark.parametrize("c", [
    cross_chain(), make_standard_chain(2, 3, 1, 0, 3, 1),
    conjugated_standard_chain(2, 3, 1, 3, 1, seed=5)], ids=repr)
def test_linkage_matches_vector_oracle(c):
    # every pair of rank-r spaces, against membership of the maps' images
    # of basis rows; the analyses reject exactly the non-linked pairs and
    # name f_0 first
    f, g = c.fs[0], c.gs[0]
    spaces = list(enumerate_subspaces(c.d, c.r, c.p))
    linked = 0
    for v, w in itertools.product(spaces, repeat=2):
        f_ok = all(w.contains_vector(f.apply(b)) for b in v.basis_rows())
        g_ok = all(v.contains_vector(g.apply(b)) for b in w.basis_rows())
        pt = ChainPoint([v, w])
        assert is_linked_point(c, pt) == (f_ok and g_ok)
        if f_ok and g_ok:
            tangent_dimension(c, pt)
            linked += 1
            continue
        with pytest.raises(ValueError,
                           match="non-linked point: %s_0" % "fg"[f_ok]):
            tangent_dimension(c, pt)
    assert 0 < linked < len(spaces) ** 2
    assert linked == len(list(enumerate_points(c)))


def test_tangent_cross_chain_values():
    c = cross_chain()
    assert tangent_dimension(c, cross_node()) == 2
    exact_pt = ChainPoint([span2([[1, 0]]), span2([[1, 0]])])
    assert tangent_dimension(c, exact_pt) == 1  # r(d-r) = 1


def test_tangent_s1_grassmannian():
    F3 = PrimeField(3)
    c = make_standard_chain(2, 3, 1, 1, 3, r=1)
    for pt in enumerate_points(c):
        assert tangent_dimension(c, pt) == 2  # r(d-r) = 1*2


def test_tangent_complement_independence():
    # the whole-point system in other complements gives the same dimension:
    # span{(0,1)} and span{(1,0)} complemented by (1,1), and so on
    c = cross_chain()
    exact_pt = ChainPoint([span2([[1, 0]]), span2([[1, 0]])])
    for pt, comps, want in ((cross_node(), [[[1, 1]], [[1, 1]]], 2),
                            (exact_pt, [[[1, 1]], [[0, 1]]], 1)):
        assert _whole_point_tangent(c, pt, comps) == \
            tangent_dimension(c, pt) == want


def test_tangent_complement_independence_random():
    import random

    rng = random.Random(2026)
    chain = make_standard_chain(2, 3, 1, 0, 3, r=1)
    pts = list(enumerate_points(chain))
    for _ in range(12):
        pt = pts[rng.randrange(len(pts))]
        comps = []
        for sp in pt:
            while True:
                rows = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
                stacked = Matrix.from_rows(
                    chain.field, [list(r) for r in sp.basis_rows()] + rows)
                if rref(stacked).rank == 3:
                    comps.append(rows)
                    break
        assert _whole_point_tangent(chain, pt, comps) == \
            tangent_dimension(chain, pt)


def _first_order_lifts(sp, p):
    """Every free lift span{b_a + eps x_a} of sp over GF(p)[eps], listed
    once: dual Subspaces are canonical, so the set removes duplicates."""
    D = DualNumbers(p)
    basis = sp.basis_rows()
    d = sp.ambient_dim
    lifts = set()
    for xs in itertools.product(range(p), repeat=len(basis) * d):
        rows = [[D(b[j], xs[a * d + j]) for j in range(d)]
                for a, b in enumerate(basis)]
        lifts.add(Subspace.from_rows(D, d, rows))
    return lifts


def _ring_maps_into(mat, src, dst, p):
    """mat(src) <= dst over GF(p)[eps], mat applied to both eps-parts."""
    for row in src.basis_rows():
        lo = mat.apply([x.a0 for x in row])
        hi = mat.apply([x.a1 for x in row])
        if not dst.contains_vector([Dual(a, b, p) for a, b in zip(lo, hi)]):
            return False
    return True


def _count_linked_lifts(chain, pt):
    """The GF(p)[eps]-points of the linked chain lying over pt, by listing
    the lifts level by level and keeping the tuples linked over the ring."""
    p = chain.p
    lifts = [_first_order_lifts(sp, p) for sp in pt]

    def extend(level, prev):
        if level == chain.n:
            return 1
        total = 0
        for w in lifts[level]:
            if prev is None or (
                    _ring_maps_into(chain.fs[level - 1], prev, w, p)
                    and _ring_maps_into(chain.gs[level - 1], w, prev, p)):
                total += extend(level + 1, w)
        return total

    return extend(0, None)


@pytest.mark.parametrize("case", [
    (2, 3, 1, 0, 2, 1), (3, 3, 1, 0, 2, 1), (2, 4, 2, 0, 2, 2),
    (2, 3, 1, 0, 3, 1), (2, 3, 1, 1, 2, 1), "section(2, 2, 2)"])
def test_tangent_dimension_counts_first_order_points(case):
    if case == "section(2, 2, 2)":
        chain = build_section_chain(2, 2, 2)
    else:
        chain = make_standard_chain(*case)
    pts = list(enumerate_points(chain))
    if case == (2, 4, 2, 0, 2, 2):
        pts = pts[::7]  # 15 of 105 points keeps the listing fast
    for pt in pts:
        assert _count_linked_lifts(chain, pt) == \
            chain.p ** tangent_dimension(chain, pt)


def test_linkage_fault_over_the_dual_numbers_matches_the_oracle():
    # every tuple of first-order lifts of every point of the smallest case
    # above: the chain's own linkage test, its GF(p) maps acting on both
    # eps-parts, names the map that _ring_maps_into finds at fault
    chain = make_standard_chain(2, 3, 1, 0, 2, 1)
    p, seen = chain.p, set()
    for pt in enumerate_points(chain):
        for v, w in itertools.product(*[_first_order_lifts(sp, p)
                                        for sp in pt]):
            if not _ring_maps_into(chain.fs[0], v, w, p):
                want = "f_0(V_0) is not in V_1"
            elif not _ring_maps_into(chain.gs[0], w, v, p):
                want = "g_0(V_1) is not in V_0"
            else:
                want = ""
            assert chains_module._linkage_fault(
                chain, ChainPoint([v, w])) == want
            seen.add(want)
    assert len(seen) == 3


def test_tangent_rejects_point_unlinked_in_one_direction():
    # f and g project onto complementary planes, each the other's kernel:
    # two lines in the image of f are linked by g (it kills both) but not by
    # f, and two lines in the image of g the other way round
    for c in (make_standard_chain(2, 4, 2, 0, 2, r=1),
              conjugated_standard_chain(2, 4, 2, 2, 1, seed=3)):
        for name, mat, src, dst in (("f", c.fs[0], 0, 1),
                                    ("g", c.gs[0], 1, 0)):
            x, y = image(mat).basis_rows()
            pt = ChainPoint([Subspace.from_rows(c.field, 4, [x]),
                             Subspace.from_rows(c.field, 4, [y])])
            assert not is_linked_point(c, pt)
            message = r"non-linked point: %s_0\(V_%d\) is not in V_%d" % (
                name, src, dst)
            for analysis in (tangent_dimension, signature, is_exact):
                with pytest.raises(ValueError, match=message):
                    analysis(c, pt)


def test_step_runs_without_matrix_products_or_rref(monkeypatch):
    # the census and the per-point analyses read every step off the
    # echelon bases: no frame product, transpose or RREF is left
    cases = [build_section_chain(3, 2, 2),
             make_standard_chain(3, 3, 1, 2, 3, 2),
             conjugated_standard_chain(3, 4, 2, 2, 2, seed=1)]
    points = [list(enumerate_points(c))[::5] for c in cases]

    def forbidden(*args):
        raise AssertionError("a Matrix product, transpose or rref was called")

    monkeypatch.setattr(linalg_module, "rref", forbidden)
    monkeypatch.setattr(Matrix, "__mul__", forbidden)
    monkeypatch.setattr(Matrix, "transpose", forbidden)
    with pytest.raises(AssertionError):
        Matrix.identity(GF2, 2) * Matrix.identity(GF2, 2)
    for c, pts in zip(cases, points):
        assert census(c, experiments=c.s.is_zero()).points
        for pt in pts:
            tangent_dimension(c, pt)
            signature(c, pt)


@pytest.mark.parametrize("c", [
    build_section_chain(3, 2, 3), build_section_chain(3, 3, 2),
    make_standard_chain(3, 4, 2, 0, 3, 2),
    make_standard_chain(3, 3, 1, 2, 3, 2),
    conjugated_standard_chain(2, 4, 2, 2, 2, seed=1),
    conjugated_standard_chain(3, 4, 2, 2, 2, seed=1)], ids=repr)
def test_census_steps_from_shared_halves_equal_fresh_steps(c, monkeypatch):
    # the census joins every edge from node halves kept in one table for
    # the whole pass; each of its steps equals the step built from nothing,
    # and its edges are those of the point stream
    real, seen, memos = chains_module._step, {}, set()

    def recording(table, k, v, w):
        memos.add(id(table))
        st = real(table, k, v, w)
        seen[table.kinds[k], v, w] = (k, st)
        return st

    monkeypatch.setattr(chains_module, "_step", recording)
    census(c)
    assert len(memos) == 1 and set(seen) == _point_edges(c, by_kind=True)
    for (_kind, v, w), (k, st) in seen.items():
        assert st == real(chains_module._Intervals(c), k, v, w)


def _point_edges(chain, by_kind=False):
    """The distinct edges (k, V_k, V_{k+1}) of the listed points, with k
    replaced by the step kind of ``_Intervals`` when ``by_kind``."""
    kinds = (chains_module._Intervals(chain).kinds if by_kind
             else range(chain.n - 1))
    return {(kinds[k], pt[k], pt[k + 1]) for pt in enumerate_points(chain)
            for k in range(chain.n - 1)}


def test_shared_halves_keep_one_containment_failures():
    # the chains of test_exactness_fails_on_one_containment_alone, every
    # linked pair read through one memo: the point's step is still not exact
    [mark] = test_exactness_fails_on_one_containment_alone.pytestmark
    for f, g, v, w, _fails in mark.args[1]:
        c = LinkedChain(GF2, 2, 3, 2, [_gf2_matrix_3x3(f)],
                        [_gf2_matrix_3x3(g)], GF2(0))
        table, steps = chains_module._Intervals(c), {}
        spaces = list(enumerate_subspaces(3, 2, 2))
        for a, b in itertools.product(spaces, repeat=2):
            if is_linked_point(c, ChainPoint([a, b])):
                steps[a, b] = chains_module._step(table, 0, a, b)
                assert steps[a, b] == chains_module._step(
                    chains_module._Intervals(c), 0, a, b)
        step = steps[Subspace.from_rows(GF2, 3, v),
                      Subspace.from_rows(GF2, 3, w)]
        assert len(steps) > 1 and not step.exact
        assert step.f_rank + step.g_rank == c.r


def test_census_reads_each_edge_once(monkeypatch):
    # an edge's step is read once, before the loop over the states at its
    # source, not once per (edge, state)
    c = build_section_chain(3, 3, 2)
    real, calls = chains_module._step, [0]

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(chains_module, "_step", counting)
    census(c)
    assert calls[0] == len(_point_edges(c)) == 975


def test_walk_reduces_each_distinct_generator_once(monkeypatch):
    # the walk of section (3, 3, 2) draws 390 nodes, which share 113
    # distinct tuples of image rows f_k b and 40 distinct tuples of rows
    # a g_k: one _reduce per f_k(V) key and one _null_basis per g_k^{-1}(V)
    # key (it ran 390 and 192 when every node reduced its own)
    calls = {"_reduce": 0, "_null_basis": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(chains_module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(chains_module, name, counting)
    assert sum(1 for _ in enumerate_points(build_section_chain(3, 3, 2))) \
        == 1147
    assert calls == {"_reduce": 113, "_null_basis": 40}


@pytest.mark.parametrize("c", [
    build_section_chain(3, 3, 2), make_standard_chain(4, 3, 1, 0, 2, 1),
    conjugated_standard_chain(3, 4, 2, 2, 2, seed=1)], ids=repr)
def test_fold_clears_each_kind_memos_together(c, monkeypatch):
    # every per-kind memo of the table (node intervals, row images, the
    # f_k(V) and g_k^{-1}(V) memos and the node halves) is emptied at once,
    # after the last step of its kind, and none before
    tables, seen = [], []
    real_init = chains_module._Intervals.__init__
    real_step = chains_module._step

    def init(self, chain):
        real_init(self, chain)
        tables.append(self)

    def step(table, k, v, w):
        result = real_step(table, k, v, w)
        for kind in set(table.kinds[:k + 1]):
            filled = [bool(memos[kind]) for memos in table.kindwise]
            if kind in table.kinds[k:]:   # in use: all but g_k^-1(V) filled
                assert filled[:3] + filled[4:] == [True] * 4, (k, kind)
            else:
                assert not any(filled), (k, kind)
        seen.append(k)
        return result

    monkeypatch.setattr(chains_module._Intervals, "__init__", init)
    monkeypatch.setattr(chains_module, "_step", step)
    census(c)
    [table] = tables
    assert len(table.kindwise) == 5
    assert table.kindwise[0] is table.nodes
    assert table.kindwise[-1] is table.halves
    assert not any(memos[kind] for memos in table.kindwise
                   for kind in set(table.kinds))
    assert set(seen) == set(range(c.n - 1))


@pytest.mark.parametrize("c, calls", [
    (conjugated_standard_chain(2, 4, 2, 2, 2, seed=1), 70),
    (build_section_chain(3, 2, 3), 90)], ids=repr)
def test_census_annihilates_once_per_node_half(c, calls, monkeypatch):
    # Subspace._annihilate runs once per node half, not once per end of
    # every edge; an interval draw that builds g_k^{-1}(V) stores its rows
    # a g_k as V's forward half, so the census does not rebuild it (89 and
    # 127 calls before)
    real, count = Subspace._annihilate, [0]

    def counting(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(Subspace, "_annihilate", counting)
    census(c)
    assert count[0] == calls


def _unlawful_chains():
    """The chains of test_exactness_fails_on_one_containment_alone."""
    [mark] = test_exactness_fails_on_one_containment_alone.pytestmark
    return [LinkedChain(GF2, 2, 3, 2, [_gf2_matrix_3x3(f)],
                        [_gf2_matrix_3x3(g)], GF2(0))
            for f, g, *_ in mark.args[1]]


@pytest.mark.parametrize("c", list(small_standard_chains()) + [
    make_standard_chain(n, d, 1, 1, 2, r)
    for n in (2, 3) for d in (2, 3) for r in range(1, d)] + [
    build_section_chain(2, 2, 1), build_section_chain(2, 3, 2),
    build_section_chain(3, 2, 2), build_section_chain(3, 2, 3),
    build_section_chain(3, 3, 2), build_section_chain(3, 3, 3),
    conjugated_standard_chain(3, 4, 2, 2, 2, seed=1),
    conjugated_standard_chain(3, 3, 1, 3, 1, seed=5)] + _unlawful_chains(),
    ids=repr)
def test_step_ranks_and_exactness_match_the_ambient_definitions(c):
    # on every linked edge V -> W of every step, the ranks and exactness
    # that _step reads off the r x r blocks equal dim f(V), dim g(W) and
    # the two kernel containments, all through the public routines; the
    # linked W of V are the spaces between f(V) and g^-1(V)
    table, seen, maps = chains_module._Intervals(c), [], set()
    for k, (f, g) in enumerate(zip(c.fs, c.gs)):
        if (f, g) in maps:
            continue
        maps.add((f, g))
        ker_f, ker_g = kernel(f), kernel(g)
        for v in map(table.space, enumerate_subspaces(c.d, c.r, c.p)):
            lower, upper = apply_map(f, v), preimage(g, v)
            if not contains(upper, lower):
                continue
            for w in map(table.space, enumerate_between(lower, upper, c.r)):
                st = chains_module._step(table, k, v, w)
                image_g = apply_map(g, w)
                exact = (contains(lower, intersect(w, ker_g))
                         and contains(image_g, intersect(v, ker_f)))
                assert (st.f_rank, st.g_rank, st.exact) == \
                    (lower.dim, image_g.dim, exact), (k, v, w)
                seen.append(exact)
    assert seen
    if not validate_chain(c).ok:
        assert not all(seen)


@pytest.mark.parametrize("c, counts", [
    (build_section_chain(3, 2, 3), (91, 41, 127, 60)),
    (build_section_chain(3, 3, 3), (246, 98, 317, 126)),
    (make_standard_chain(8, 4, 2, 0, 3, 2), (2821, 180, 3499, 262))],
    ids=repr)
def test_census_builds_step_data_per_block_and_eliminates_per_state(
        c, counts, monkeypatch):
    # edges (one _step each) -> distinct local blocks (one _block_step
    # each), and state moves (one look-up in the table's moves each) ->
    # distinct (shared step, state) pairs (one _advance each); a second
    # census in the same process counts the same, since no cache outlives
    # its pass
    names, calls = ("_step", "_block_step", "moves", "_advance"), {}

    class Moves(dict):
        def get(self, key):
            calls["moves"] = calls.get("moves", 0) + 1
            return super().get(key)

    real_init = chains_module._Intervals.__init__

    def init(table, chain):
        real_init(table, chain)
        table.moves = Moves()

    monkeypatch.setattr(chains_module._Intervals, "__init__", init)
    for name in ("_step", "_block_step", "_advance"):
        real = getattr(chains_module, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(chains_module, name, counting)
    reads = []
    for _ in range(2):
        calls.clear()
        census(c)
        reads.append(tuple(calls[name] for name in names))
    assert reads == [counts, counts]


@pytest.mark.parametrize("c", [
    build_section_chain(3, 2, 3), make_standard_chain(3, 4, 2, 0, 3, 2),
    conjugated_standard_chain(3, 4, 2, 2, 2, seed=1)], ids=repr)
def test_advance_matches_kernel_and_projection(c, monkeypatch):
    # every distinct (step, state) a census moves, against the public
    # kernel of [C 0 ; E_V E_W] and its projection to the X_{k+1} block
    real, moves = chains_module._advance, {}

    def recording(chain, st, cons):
        out = real(chain, st, cons)
        moves[st, cons] = out
        return out

    monkeypatch.setattr(chains_module, "_advance", recording)
    census(c)
    ring, re_ = c.field, c.r * (c.d - c.r)
    assert moves and any(cons for _, cons in moves)
    for (st, cons), (c_next, grow) in moves.items():
        rows = [list(row) + [0] * re_ for row in cons] + list(st.eqs)
        k = kernel(Matrix.from_rows(ring, rows))
        a_next = Subspace.from_rows(ring, re_,
                                    [row[re_:] for row in k.basis_rows()])
        want = rref(a_next.constraints()).matrix
        assert c_next == tuple(want.row(i) for i in range(want.rows))
        assert grow == k.dim - a_next.dim


@pytest.mark.parametrize("c", [make_standard_chain(1, 3, 1, 0, 2, 1),
                               make_standard_chain(1, 4, 2, 0, 3, 2)],
                         ids=repr)
def test_one_level_chain_points_have_the_grassmannian_tangent(c):
    re_, count = c.r * (c.d - c.r), gaussian_binomial(c.d, c.r, c.p)
    pts = list(enumerate_points(c))
    assert len(pts) == count
    for pt in pts:
        assert tangent_dimension(c, pt) == re_
        assert signature(c, pt) == chains_module.SignatureReport((), (), True)
    rep = census(c)
    assert (rep.points, rep.exact) == (count, count)
    assert rep.signatures == {((), ()): count}
    assert rep.tangent_histogram == {re_: count}


def test_decompose_cross_node():
    c = cross_chain()
    rep = decompose(c, cross_node(), 1)
    assert rep.block_dims == (0, 0, 1)  # no incoming image, no outgoing map
    rep0 = decompose(c, cross_node(), 0)
    # level 0: no incoming block; kernel block is V_1 (inside ker f)
    assert rep0.block_dims == (0, 1, 0)


def test_decompose_blocks_span_and_are_independent():
    for c in small_standard_chains(max_d=3, max_n=3):
        for pt in enumerate_points(c):
            for lvl in range(c.n):
                rep = decompose(c, pt, lvl)
                assert sum(rep.block_dims) == c.r
                rows = rep.image_block + rep.kernel_block + rep.complement_block
                if rows:
                    m = Matrix.from_rows(c.field, rows)
                    assert rref(m).rank == c.r


def test_decompose_complement_dims_sum_to_r_at_exact_points():
    for c in small_standard_chains(max_d=3, max_n=3):
        for pt in enumerate_points(c):
            if not is_exact(c, pt):
                continue
            total = sum(decompose(c, pt, lvl).block_dims[2]
                        for lvl in range(c.n))
            assert total == c.r


def test_decompose_with_seed():
    c = cross_chain()
    pt = ChainPoint([span2([[0, 1]]), span2([[0, 1]])])
    seed = span2([[0, 1]])  # inside ker g_0 restricted to V_1? g(0,1)=(0,1)!=0
    with pytest.raises(ValueError):
        decompose(c, pt, 1, c_prime=seed)
    node = cross_node()
    seed = span2([[1, 0]])  # V_2 = span{(1,0)} is killed by g
    rep = decompose(c, node, 1, c_prime=seed)
    assert rep.complement_block == [[GF2(1), GF2(0)]]


def test_extend_truncation_examples():
    c = cross_chain()
    part = ChainPoint([span2([[0, 1]])])
    full = extend_truncation(c, part)
    assert is_linked_point(c, full)
    assert full[0] == span2([[0, 1]])
    # s=1: completion is forced to the image chain
    c1 = make_standard_chain(3, 2, 1, 1, 2, r=1)
    part = ChainPoint([span2([[1, 1]])])
    full = extend_truncation(c1, part)
    assert all(sp == span2([[1, 1]]) for sp in full)
    # r=0 completes with zero spaces
    c0 = make_standard_chain(2, 2, 1, 0, 2, r=0)
    full = extend_truncation(c0, ChainPoint([Subspace.zero_space(GF2, 2)]))
    assert all(sp.dim == 0 for sp in full)


def test_extend_truncation_rejects_non_linked():
    c = make_standard_chain(3, 2, 1, 0, 2, r=1)
    bad = ChainPoint([span2([[1, 0]]), span2([[0, 1]])])
    with pytest.raises(ValueError):
        extend_truncation(c, bad)


def test_extend_truncation_surjective_and_deterministic():
    for c in small_standard_chains(max_d=3, max_n=3):
        for n_prime in range(1, c.n):
            trunc = c.truncate(n_prime)
            for part in enumerate_points(trunc):
                full = extend_truncation(c, ChainPoint(part.spaces))
                again = extend_truncation(c, ChainPoint(part.spaces))
                assert full == again
                assert is_linked_point(c, full)
                assert full.spaces[:n_prime] == part.spaces


def _walk_oracle_chains():
    return list(small_standard_chains(max_d=3, max_n=3)) + [
        build_section_chain(2, 2, 1), build_section_chain(3, 2, 2)]


def test_extend_truncation_is_first_completion_in_stream():
    # the oracle reads the point stream only: the first point whose first
    # n' levels are the partial point
    truncations = 0
    for c in _walk_oracle_chains():
        stream = list(enumerate_points(c))
        for n_prime in range(1, c.n):
            for part in enumerate_points(c.truncate(n_prime)):
                want = next(pt for pt in stream
                            if pt.spaces[:n_prime] == part.spaces)
                assert extend_truncation(c, part) == want
                truncations += 1
    assert truncations == 434


def _first_exact_keeping(chain, stream, sigs, pt, sig):
    """The first stream point that keeps the levels of ``pt`` up to its
    first step off the rank law, is exact and has the forward ranks of
    ``pt``."""
    first_bad = next(i for i, (rf, rg) in enumerate(zip(sig.f_ranks,
                                                        sig.g_ranks))
                     if rf + rg != chain.r)
    keep = pt.spaces[:first_bad + 1]
    return next(q for q, qs in zip(stream, sigs)
                if q.spaces[:first_bad + 1] == keep and qs.exact
                and qs.f_ranks == sig.f_ranks)


def test_exactify_is_first_exact_point_in_stream():
    non_exact = 0
    for c in _walk_oracle_chains():
        rev = c.reverse()
        stream, rev_stream = list(enumerate_points(c)), list(enumerate_points(rev))
        sigs = [signature(c, q) for q in stream]
        rev_sigs = [signature(rev, q) for q in rev_stream]
        for pt, sig in zip(stream, sigs):
            if sig.exact:
                continue
            fpt, gpt = exactify(c, pt)
            assert fpt == _first_exact_keeping(c, stream, sigs, pt, sig)
            rev_pt = ChainPoint(pt.spaces[::-1])
            back = _first_exact_keeping(rev, rev_stream, rev_sigs, rev_pt,
                                        signature(rev, rev_pt))
            assert gpt == ChainPoint(back.spaces[::-1])
            non_exact += 1
    assert non_exact == 205


def test_exactify_cross_node():
    c = cross_chain()
    fpt, gpt = exactify(c, cross_node())
    assert signature(c, fpt).key() == ((0,), (1,))
    assert signature(c, gpt).key() == ((1,), (0,))
    assert is_exact(c, fpt) and is_exact(c, gpt)
    assert is_linked_point(c, fpt) and is_linked_point(c, gpt)


def test_exactify_deeper_than_recursion_limit():
    # the cross node at the start of a 1500-level chain: the forward
    # completion searches through every later level
    c = make_standard_chain(1500, 2, 1, 0, 2, r=1)
    e1, e2, diag = span2([[1, 0]]), span2([[0, 1]]), span2([[1, 1]])
    fpt, gpt = exactify(c, ChainPoint([e2] + [e1] * 1499))
    assert fpt == ChainPoint([e2, diag] + [e1] * 1498)
    assert gpt == ChainPoint([e1] * 1500)


def test_exactify_rejects_exact_input():
    c = cross_chain()
    with pytest.raises(ValueError):
        exactify(c, ChainPoint([span2([[1, 0]]), span2([[1, 0]])]))


def test_exactify_d4_signature_zero():
    c = make_standard_chain(2, 4, 2, 0, 2, r=2)
    pt = next(p for p in enumerate_points(c)
              if signature(c, p).key() == ((0,), (0,)))
    fpt, gpt = exactify(c, pt)
    assert signature(c, fpt).key() == ((0,), (2,))
    assert signature(c, gpt).key() == ((2,), (0,))


def test_exactify_properties_exhaustive():
    for c in small_standard_chains(max_d=3, max_n=3):
        for pt in enumerate_points(c):
            sig = signature(c, pt)
            if sig.exact:
                continue
            fpt, gpt = exactify(c, pt)
            fs = signature(c, fpt)
            gs = signature(c, gpt)
            assert fs.exact and gs.exact
            assert fs.f_ranks == sig.f_ranks
            assert gs.g_ranks == sig.g_ranks
            assert fs.key() != gs.key()
            # rank vectors dominate the input componentwise
            for a, b in zip(fs.g_ranks, sig.g_ranks):
                assert a >= b
            for a, b in zip(gs.f_ranks, sig.f_ranks):
                assert a >= b


def test_component_formulas():
    assert expected_component_count_n2(2, 1, 1, 1) == 2
    assert list(admissible_signatures_n2(2, 1, 1, 1)) == [0, 1]
    assert expected_component_count_n2(4, 2, 2, 2) == 3
    assert expected_component_count_n2(3, 1, 1, 2) == 2
    assert list(admissible_signatures_n2(3, 1, 1, 2)) == [0, 1]
    with pytest.raises(ValueError):
        admissible_signatures_n2(3, 1, 1, 1)
    # the closed form equals the range's length on every valid argument
    for d in range(2, 9):
        for r in range(1, d):
            for d1 in range(1, d):
                d2 = d - d1
                count = expected_component_count_n2(d, r, d1, d2)
                assert count == min(r + 1, d - r + 1, d1 + 1, d2 + 1)
                assert count == len(admissible_signatures_n2(d, r, d1, d2))


def test_component_formulas_reject_d1_out_of_range():
    # d1 + d2 = d holds, but one side is empty or negative
    for d, r, d1 in ((3, 1, 5), (2, 1, -2), (3, 1, 0), (3, 1, 3)):
        with pytest.raises(ValueError, match="0 < d1 < d"):
            admissible_signatures_n2(d, r, d1, d - d1)
        with pytest.raises(ValueError, match="0 < d1 < d"):
            expected_component_count_n2(d, r, d1, d - d1)


def test_census_cross_chain():
    rep = census(cross_chain())
    assert rep.points == 5
    assert rep.exact == 4
    assert rep.signatures == {((0,), (1,)): 2, ((1,), (0,)): 2}
    assert rep.tangent_histogram == {1: 4, 2: 1}


def test_census_s1_gaussian():
    F3 = PrimeField(3)
    c = make_standard_chain(2, 2, 1, 1, 3, r=1)
    rep = census(c)
    assert rep.points == gaussian_binomial(2, 1, 3) == 4
    assert rep.exact == 4


def test_census_rank_zero():
    rep = census(make_standard_chain(2, 2, 1, 0, 2, r=0))
    assert rep.points == 1


def test_census_of_a_conjugated_chain_is_the_standard_census():
    # P f P^-1 and P g P^-1 make an isomorphic chain with dense maps, so
    # every step is read off echelon bases that are not coordinate planes
    standard = make_standard_chain(3, 4, 2, 0, 2, 2)
    for seed in (1, 2):
        c = conjugated_standard_chain(3, 4, 2, 2, 2, seed=seed)
        assert c != standard
        for experiments in (False, True):
            want = census(standard, experiments=experiments).as_dict()
            got = census(c, experiments=experiments).as_dict()
            want.pop("chain")
            got.pop("chain")
            assert got == want, (seed, experiments)


def test_census_experiments_graph():
    rep = census(cross_chain(), experiments=True)
    g = rep.signature_graph
    assert g is not None
    assert g["connected_components"] == 1  # the node bridges both signatures
    assert len(g["nodes"]) == 2


def _graph_from_exactify_outputs(c):
    """census's signature graph, built from ``signature`` of both exactify
    outputs of every non-exact point."""
    nodes, edges = set(), set()
    for pt in enumerate_points(c):
        sig = signature(c, pt)
        if sig.exact:
            nodes.add(sig.key())
            continue
        fpt, gpt = exactify(c, pt)
        edges.add(tuple(sorted((signature(c, fpt).key(),
                                signature(c, gpt).key()))))
    root = {node: node for node in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for a, b in edges:
        if a in root and b in root:
            root[find(a)] = find(b)
    return {"nodes": [[list(a), list(b)] for a, b in sorted(nodes)],
            "edges": [[[list(x[0]), list(x[1])] for x in e]
                      for e in sorted(edges)],
            "connected_components": len({find(x) for x in nodes})}


def _off_law_steps(c):
    """(i, j) for every non-exact point: its first and last steps whose two
    ranks do not sum to r."""
    found = set()
    for pt in enumerate_points(c):
        sig = signature(c, pt)
        off = [k for k, (rf, rg) in enumerate(zip(sig.f_ranks, sig.g_ranks))
               if rf + rg != c.r]
        if off:
            found.add((off[0], off[-1]))
    return found


def test_census_graph_matches_exactify_outputs():
    deeper = [conjugated_standard_chain(3, 4, 2, 2, 2, seed=1),
              conjugated_standard_chain(3, 4, 2, 2, 2, seed=2),
              build_section_chain(3, 2, 2),
              make_standard_chain(4, 4, 2, 0, 2, 2)]
    for c in list(small_standard_chains()) + [cross_chain()] + deeper:
        graph = census(c, experiments=True).signature_graph
        assert graph == _graph_from_exactify_outputs(c)
    # witness searches that start past level 0, and whose forward and
    # backward starts differ
    off = set().union(*map(_off_law_steps, deeper))
    assert any(i > 0 for i, _ in off)
    assert any(i != j for i, j in off)


def test_census_experiments_adds_no_interval_or_point_work(monkeypatch):
    # the signature graph is read off the intervals and step data that the
    # counting pass built; no point is listed
    cases = (build_section_chain(3, 3, 2), make_standard_chain(4, 4, 2, 0, 3, 2))
    want = [census(c, experiments=True).as_dict() for c in cases]
    calls = {}
    for owner, name in ((chains_module._Intervals, "draw"),
                        (chains_module, "_step"), (chains_module, "apply_map")):
        real = getattr(owner, name)

        def counting(*args, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    for c in cases:
        reads = []
        for experiments in (False, True):
            calls.clear()
            census(c, experiments=experiments)
            reads.append(dict(calls))
        assert reads[0] == reads[1] and reads[0]["draw"] > 0, c

    def no_walk(*args, **kwargs):
        raise AssertionError("the census walked the point stream")

    monkeypatch.setattr(chains_module, "_walk", no_walk)
    assert [census(c, experiments=True).as_dict() for c in cases] == want


def test_census_experiments_raises_when_a_witness_is_missing():
    # an axiom-violating chain (g f != 0) whose non-exact point has no
    # exact completion keeping its forward ranks
    f = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
    g = Matrix.from_rows(GF2, [[1, 1], [0, 0]])
    c = LinkedChain(GF2, 2, 2, 1, [f], [g], GF2(0))
    assert not validate_chain(c).ok
    assert census(c).points == 3
    with pytest.raises(RuntimeError, match="no exact completion"):
        census(c, experiments=True)
    [pt] = [pt for pt in enumerate_points(c) if not signature(c, pt).exact]
    with pytest.raises(RuntimeError, match="no exact completion"):
        exactify(c, pt)


# --- the census against the whole-point tangent system ------------------

def _whole_point_tangent(chain, pt, complements=None):
    """Tangent dimension as the nullity of one system in all n r (d-r)
    unknowns: maps phi_i : V_i -> E/V_i in a complement of each level (the
    rows complements[i], or the unit rows at V_i's non-pivot columns), with
    the linearised linkage equations of every step.  Each frame is inverted
    by one RREF of [M | I]."""
    F, p, d, r = chain.field, chain.p, chain.d, chain.r
    e = d - r
    unit = [[int(i == j) for j in range(d)] for i in range(d)]
    frames, inverses = [], []
    for i, sp in enumerate(pt):
        pset = set(sp.pivots)
        comp = ([unit[c] for c in range(d) if c not in pset]
                if complements is None else complements[i])
        frame = [list(row) for row in sp.basis_rows()] + comp
        ech = rref(Matrix.from_rows(F, [a + b for a, b in zip(frame, unit)]))
        assert ech.pivots == tuple(range(d)), "not a complement of V_%d" % i
        frames.append(Matrix.from_rows(F, frame))
        inverses.append(ech.matrix.submatrix(range(d), range(d, 2 * d)))
    nunk = chain.n * r * e
    eqs = []
    for i in range(chain.n - 1):
        for mat, src, dst in ((chain.fs[i], i, i + 1), (chain.gs[i], i + 1, i)):
            # row k: the map applied to frame row k of the source, in the
            # target frame; unknown (level, a, c) at (level * r + a) * e + c
            coords = frames[src] * mat.transpose() * inverses[dst]
            for a in range(r):
                for out_c in range(e):
                    row = [0] * nunk
                    for c in range(e):
                        row[(src * r + a) * e + c] += coords.entry(r + c, r + out_c)
                    for k in range(r):
                        row[(dst * r + k) * e + out_c] -= coords.entry(a, k)
                    eqs.append([x % p for x in row])
    if not eqs:
        return nunk
    return nunk - rref(Matrix.from_rows(F, eqs)).rank


def _census_point_by_point(chain):
    """The census report and per-point (exact, tangent dimension) records,
    from the point stream: ranks as dimensions of images, exactness by
    containment, the tangent dimension from the whole-point system."""
    rep = CensusReport(chain.as_dict(), chain.p)
    records = []
    for pt in enumerate_points(chain):
        exact = _exact_by_containment(chain, pt)
        tdim = _whole_point_tangent(chain, pt)
        records.append((exact, tdim))
        rep.points += 1
        rep.tangent_histogram[tdim] = rep.tangent_histogram.get(tdim, 0) + 1
        if exact:
            key = (tuple(apply_map(f, pt[i]).dim
                         for i, f in enumerate(chain.fs)),
                   tuple(apply_map(g, pt[i + 1]).dim
                         for i, g in enumerate(chain.gs)))
            rep.exact += 1
            rep.signatures[key] = rep.signatures.get(key, 0) + 1
    return rep.as_dict(), records


def _census_oracle_chains():
    return ([build_section_chain(2, 2, 1), build_section_chain(3, 2, 2),
             build_section_chain(3, 2, 3), build_section_chain(3, 3, 2),
             make_standard_chain(2, 4, 2, 0, 2, 2),
             make_standard_chain(3, 4, 2, 0, 2, 2),
             make_standard_chain(3, 3, 1, 0, 2, 1),
             make_standard_chain(2, 4, 2, 0, 3, 2),
             make_standard_chain(3, 3, 1, 2, 3, 2),
             conjugated_standard_chain(3, 3, 1, 3, 1, seed=5),
             make_standard_chain(1, 3, 1, 0, 3, 1),
             make_standard_chain(3, 3, 1, 0, 2, 0)]
            + list(small_standard_chains()))


@pytest.fixture(scope="module")
def census_oracle():
    return [(c,) + _census_point_by_point(c) for c in _census_oracle_chains()]


def _stream_candidates(chain):
    """Candidates the point stream spends: one per linked prefix of every
    length, i.e. the points of every truncation."""
    return sum(sum(1 for _ in enumerate_points(chain.truncate(k)))
               for k in range(1, chain.n + 1))


def test_census_matches_whole_point_systems(census_oracle):
    for c, want, records in census_oracle:
        assert census(c).as_dict() == want, c
    # the per-point functions run the census's step along one path
    per_point = (make_standard_chain(3, 3, 1, 2, 3, 2),
                 conjugated_standard_chain(3, 3, 1, 3, 1, seed=5))
    for c, _, records in (entry for entry in census_oracle
                          if entry[0] in per_point):
        for pt, (exact, tdim) in zip(enumerate_points(c), records):
            assert tangent_dimension(c, pt) == tdim
            assert is_exact(c, pt) == signature(c, pt).exact == exact


def test_census_budget_is_the_stream_candidate_count(census_oracle):
    for c, want, _ in census_oracle:
        total = _stream_candidates(c)
        with pytest.raises(BudgetError) as err:
            list(enumerate_points(c, budget=total - 1))
        assert err.value.count == total
        assert len(list(enumerate_points(c, budget=total))) == want["points"]
        for experiments in ([False, True] if c.s.is_zero() else [False]):
            with pytest.raises(BudgetError) as err:
                census(c, budget=total - 1, experiments=experiments)
            assert err.value.count == total, c
            rep = census(c, budget=total, experiments=experiments).as_dict()
            rep.pop("signature_graph", None)
            assert rep == want, c


def test_tangent_dimension_meets_the_linked_grassmannian_bound(census_oracle):
    # every component has dimension at least r(d-r), so every tangent space
    # does; exact points have exactly that
    checked = 0
    for c, want, records in census_oracle:
        if not c.s.is_zero():
            continue
        floor = c.r * (c.d - c.r)
        assert min(dim for dim, _ in want["tangent_histogram"]) >= floor
        for exact, tdim in records:
            assert tdim >= floor
            assert not exact or tdim == floor
            checked += 1
    assert checked > 2000


@pytest.mark.parametrize("c", [
    make_standard_chain(*args) for args in (
        (2, 4, 2, 0, 3, 2), (3, 4, 2, 0, 2, 2), (3, 4, 1, 0, 3, 2),
        (4, 4, 2, 0, 2, 2), (3, 5, 2, 0, 2, 2), (3, 5, 2, 0, 2, 3),
        (2, 5, 3, 0, 3, 2), (3, 3, 1, 1, 3, 1))] + [
    build_section_chain(*args) for args in (
        (3, 3, 2), (3, 2, 2), (4, 2, 2), (3, 2, 3), (4, 2, 3), (2, 3, 2),
        (5, 2, 2))] + [
    conjugated_standard_chain(*args, seed=seed) for args, seed in (
        ((3, 4, 2, 3, 2), 1), ((2, 4, 2, 3, 2), 2), ((4, 3, 1, 2, 1), 3),
        ((3, 5, 2, 2, 2), 4))], ids=repr)
def test_census_exact_points_are_the_smooth_points(c):
    # both directions, by census counts: on a valid s = 0 chain every
    # tangent space has dimension at least r(d-r), and exactly the exact
    # points reach it; with s a unit every point does
    rep, floor = census(c), c.r * (c.d - c.r)
    if c.s.is_zero():
        assert validate_chain(c).ok
        assert min(rep.tangent_histogram) >= floor
        assert rep.exact == rep.tangent_histogram[floor]
    else:
        assert rep.tangent_histogram == {floor: rep.points}


def _coordinate_components(chain):
    """The components of the graph on (level, coordinate) that joins
    (k, j) to (k + 1, i) where f_k(e_j) has a nonzero entry i, and (k + 1,
    j) to (k, i) where g_k(e_j) has: the diagonal torus acting on the chain
    is one scalar per component."""
    root = {(k, j): (k, j) for k in range(chain.n) for j in range(chain.d)}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for k, (f, g) in enumerate(zip(chain.fs, chain.gs)):
        for j in range(chain.d):
            unit = [int(i == j) for i in range(chain.d)]
            for src, m, dst in ((k, f, k + 1), (k + 1, g, k)):
                for i, x in enumerate(m.apply(unit)):
                    if x:
                        root[find((src, j))] = find((dst, i))
    comps = {}
    for x in root:
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


def _coordinate_chains(chain):
    """(signature, tangent dimension) of each coordinate chain: each
    linked point whose every level is spanned by unit vectors."""
    units = [Subspace.from_rows(chain.field, chain.d,
                                [[int(i == j) for i in range(chain.d)]
                                 for j in cols])
             for cols in itertools.combinations(range(chain.d), chain.r)]
    return [(signature(chain, pt), tangent_dimension(chain, pt))
            for pt in map(ChainPoint,
                          itertools.product(units, repeat=chain.n))
            if is_linked_point(chain, pt)]


def _strata(points, exact, signatures, tangent_histogram):
    """Census counts keyed by stratum: all points, exact points, each exact
    signature and each tangent dimension."""
    counts = {("sig", key): cnt for key, cnt in signatures.items()}
    counts.update((("tdim", dim), cnt)
                  for dim, cnt in tangent_histogram.items())
    return dict(counts, points=points, exact=exact)


@pytest.mark.parametrize("make, fixed, qs", [
    (lambda q: make_standard_chain(2, 4, 2, 0, q, 2), 15, (3, 5, 7)),
    (lambda q: make_standard_chain(2, 3, 1, 0, q, 1), 5, (3, 5, 7)),
    (lambda q: make_standard_chain(3, 3, 1, 0, q, 1), 7, (3, 5)),
    (lambda q: make_standard_chain(3, 3, 1, 1, q, 1), 3, (3, 5)),
    (lambda q: build_section_chain(3, q, 1), 14, (3, 5, 7)),
    (lambda q: build_section_chain(3, q, 2), 39, (3, 5)),
    (lambda q: build_section_chain(4, q, 1), 25, (3, 5))],
    ids=["standard(2,4,2,0,q,2)", "standard(2,3,1,0,q,1)",
         "standard(3,3,1,0,q,1)", "standard(3,3,1,1,q,1)",
         "section(3,q,1)", "section(3,q,2)", "section(4,q,1)"])
def test_census_counts_are_congruent_to_torus_fixed_points(make, fixed, qs):
    # no torus component holds two coordinates of one level, so the
    # fixed points are the coordinate chains; every other orbit has
    # (q-1)^k points with k >= 1, so each count the census reports is its
    # fixed count mod q - 1, stratum by stratum
    for q in qs:
        c = make(q)
        assert all(len({k for k, _ in comp}) == len(comp)
                   for comp in _coordinate_components(c))
        points = _coordinate_chains(c)
        exact = [sig for sig, _ in points if sig.exact]
        want = _strata(len(points), len(exact),
                       collections.Counter(sig.key() for sig in exact),
                       collections.Counter(tdim for _, tdim in points))
        rep = census(c)
        got = _strata(rep.points, rep.exact, rep.signatures,
                      rep.tangent_histogram)
        assert len(points) == fixed and set(want) <= set(got)
        for key, cnt in got.items():
            assert (cnt - want.get(key, 0)) % (q - 1) == 0, (q, key)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_census_counts_match_closed_forms_in_q(q):
    rep = census(make_standard_chain(2, 4, 2, 0, q, 2))
    assert rep.points == 3 * q**4 + 4 * q**3 + 5 * q**2 + 2 * q + 1
    assert rep.signatures == {((2,), (0,)): q**4,
                              ((1,), (1,)): q**2 * (q + 1)**2,
                              ((0,), (2,)): q**4}
    assert rep.tangent_histogram == {4: 2 * q**4 + q**2 * (q + 1)**2,
                                     5: 2 * q * (q + 1)**2, 8: 1}
    assert census(make_standard_chain(2, 3, 1, 0, q, 1)).points == \
        2 * q**2 + 2 * q + 1
    assert census(make_standard_chain(3, 3, 1, 0, q, 1)).points == \
        3 * q**2 + 3 * q + 1
    assert census(build_section_chain(3, q, 1)).points == \
        4 * q**3 + 5 * q**2 + 4 * q + 1


@pytest.mark.parametrize("n", [4, 8, 16])
def test_census_counts_match_closed_forms_in_n(n):
    rep = census(make_standard_chain(n, 4, 2, 0, 2, 2))
    assert rep.points == 18 * n**2 + 16 * n + 1
    assert rep.tangent_histogram[8] == n - 1


@pytest.mark.parametrize("n, d, d1, r, p", [
    (3, 4, 2, 2, 2), (4, 4, 2, 2, 2), (5, 4, 2, 2, 3), (4, 4, 1, 2, 2),
    (4, 4, 3, 2, 2), (4, 5, 2, 2, 2), (4, 5, 1, 2, 2), (3, 5, 2, 3, 2),
    (5, 3, 1, 1, 3), (4, 5, 3, 2, 2)])
def test_exact_signatures_are_the_non_decreasing_admissible_ranks(n, d, d1,
                                                                   r, p):
    # each step of an exact point has a forward rank f admissible for two
    # levels, and the ranks never fall along the chain
    ranks = admissible_signatures_n2(d, r, d1, d - d1)
    want = {(f, tuple(r - x for x in f))
            for f in itertools.combinations_with_replacement(ranks, n - 1)}
    assert set(census(make_standard_chain(n, d, d1, 0, p, r)).signatures) \
        == want


def _axiom_violating_chain():
    """n=3, d=2, r=1 over GF(2), f = id and g = the coordinate swap: g f is
    no multiple of the identity, and f(<e1>) = <e1> is not inside
    g^-1(<e1>) = <e2>."""
    swap = Matrix.from_rows(GF2, [[0, 1], [1, 0]])
    ident = Matrix.identity(GF2, 2)
    return LinkedChain(GF2, 3, 2, 1, [ident] * 2, [swap] * 2, GF2(0))


def test_axiom_violating_chain_names_the_step():
    c = _axiom_violating_chain()
    assert not validate_chain(c).ok
    for run in (lambda: list(enumerate_points(c)), lambda: census(c),
                lambda: census(c, experiments=True),
                lambda: extend_truncation(c, ChainPoint([span2([[1, 0]])]))):
        with pytest.raises(ValueError, match="step 0.*linked-chain axioms"):
            run()
    # the diagonal line has a nonempty interval at every step
    full = extend_truncation(c, ChainPoint([span2([[1, 1]])]))
    assert list(full) == [span2([[1, 1]])] * 3


def _axiom_violating_chain_off_the_kernel():
    """n=3, d=3, r=2 over GF(2), s=0.  Step 0 (f_0 v = v1 e3, g_0 v = v1 e1)
    has g_0 f_0 = 0, and every level-1 space it reaches contains e3 =
    ker f_1, where f_1 = diag(1, 1, 0).  Step 1 has g_1 e1 = e2, so
    g_1 f_1(<e1, e3>) = <e2> is not inside <e1, e3>: the fault lies only at
    spaces on which f_1 is not injective."""
    f0 = Matrix.from_rows(GF2, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    g0 = Matrix.from_rows(GF2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    f1 = Matrix.from_rows(GF2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    g1 = Matrix.from_rows(GF2, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    return LinkedChain(GF2, 3, 3, 2, [f0, f1], [g0, g1], GF2(0))


def test_axiom_violation_at_a_space_where_f_is_not_injective():
    c = _axiom_violating_chain_off_the_kernel()
    assert not validate_chain(c).ok
    reached = {w for v in enumerate_subspaces(3, 2, 2)
               for w in chains_module._Intervals(c).draw(0, v)}
    faulty = [v for v in reached
              if not v.contains(apply_map(c.gs[1], apply_map(c.fs[1], v)))]
    assert faulty
    assert all(apply_map(c.fs[1], v).dim < c.r for v in reached)
    for run in (lambda: list(enumerate_points(c)), lambda: census(c),
                lambda: census(c, experiments=True)):
        with pytest.raises(ValueError, match="step 1.*linked-chain axioms"):
            run()
    # the first step has no fault, and the axiom-violating chain above
    # faults where f is injective
    assert all(list(chains_module._Intervals(c).draw(0, v))
               for v in enumerate_subspaces(3, 2, 2))
    c0 = _axiom_violating_chain()
    assert apply_map(c0.fs[0], span2([[1, 0]])).dim == c0.r
    with pytest.raises(ValueError, match="step 0.*linked-chain axioms"):
        list(chains_module._Intervals(c0).draw(0, span2([[1, 0]])))


def test_draw_raises_exactly_where_the_checked_stream_does():
    # axiom (I) is decided once per step kind, and a node is checked only
    # at a kind that fails it: at every space of every step the draw equals
    # the checked stream, or raises naming the step where f_k(V) is not
    # inside g_k^{-1}(V); the walks still stop at steps 0 and 1.  One table
    # draws every space in stream order, so at step 1 of the second chain
    # the sound <e1, e2> comes before the faulty <e1, e2 + e3>, whose basis
    # rows have the same images under f_1: a check made only when f_k(V) is
    # not yet in the memo would miss the fault
    for c, lawful, faulty, first in (
            (_axiom_violating_chain(), [False], {0, 1}, 0),
            (_axiom_violating_chain_off_the_kernel(), [True, False], {1}, 1)):
        table = chains_module._Intervals(c)
        assert [m[-1] for m in table.maps] == lawful
        steps, sound, shared = set(), set(), set()
        for k in range(c.n - 1):
            for v in enumerate_subspaces(c.d, c.r, c.p):
                lower, upper = apply_map(c.fs[k], v), preimage(c.gs[k], v)
                key = (k, tuple(c.fs[k].apply(b) for b in v.basis_rows()))
                if upper.contains(lower):
                    assert tuple(table.draw(k, v)) == tuple(
                        enumerate_between(lower, upper, c.r))
                    sound.add(key)
                    continue
                with pytest.raises(ValueError,
                                   match="step %d.*linked-chain axioms" % k):
                    next(iter(table.draw(k, v)))
                steps.add(k)
                if key in sound:
                    shared.add((k, v))
        assert steps == faulty
        if first == 1:
            assert (1, Subspace.from_rows(GF2, 3, [[1, 0, 0], [0, 1, 1]])) \
                in shared
        with pytest.raises(ValueError,
                           match="step %d.*linked-chain axioms" % first):
            list(enumerate_points(c))


def test_the_walk_and_the_census_hash_no_subspace(monkeypatch):
    # every space of a pass is one object, so the node memo, the interval
    # graph and the census memos key spaces by id.  The walk of section
    # (3, 3, 2) made 1,509 Subspace.__hash__ calls and 254 Subspace._holds
    # calls (an axiom check at each of its 198 full-rank nodes and a
    # containment check at each of its 56 pairs); the census of the
    # conjugated chain with its witness pass made 2,043 __hash__ calls
    calls = {"__hash__": 0, "_holds": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(Subspace, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(Subspace, name, counting)
    assert sum(1 for _ in enumerate_points(build_section_chain(3, 3, 2))) \
        == 1147
    assert calls["__hash__"] == 0 and calls["_holds"] <= 56
    report = census(conjugated_standard_chain(2, 4, 2, 2, 2, seed=1),
                    experiments=True)
    assert report.signature_graph is not None
    assert calls["__hash__"] == 0


def _chain_faulty_at_step_0(seed):
    """n=4, d=3, r=1 over GF(2), s=0: steps 1 and 2 are a standard chain's
    coordinate projections, step 0 a random pair of matrices."""
    import random

    rng = random.Random(seed)
    std = make_standard_chain(4, 3, rng.choice((1, 2)), 0, 2, r=1)

    def rand():
        return Matrix.from_rows(GF2, [[rng.randrange(2) for _ in range(3)]
                                      for _ in range(3)])
    return LinkedChain(GF2, 4, 3, 1, (rand(),) + std.fs[1:],
                       (rand(),) + std.gs[1:], GF2(0))


def test_exactify_names_the_chain_step_on_the_backward_run():
    # the backward completion walks the reversed chain, whose step 2 is the
    # chain's step 0: its axiom error must name step 0, with f and g swapped
    c = _chain_faulty_at_step_0(889)
    report = validate_chain(c)
    assert report.violations
    assert {v["index"] for v in report.violations} == {0}
    errors = []
    for pt in enumerate_points(c):
        if signature(c, pt).exact:
            continue
        try:
            exactify(c, pt)
        except ValueError as exc:
            errors.append(str(exc))
        except RuntimeError:
            pass   # no exact completion: the other outcome on a faulty chain
    assert len(errors) == 2
    for message in errors:
        assert message.startswith(
            "step 0: g_0(V) is not inside f_0^-1(V) for some V; ")
        assert message.endswith("linked-chain axioms")


def listed_boundary_counts(chain):
    """Points per (V_0, V_{n-1}), by listing the point stream."""
    counts = {}
    for pt in enumerate_points(chain):
        counts[pt[0], pt[-1]] = counts.get((pt[0], pt[-1]), 0) + 1
    return counts


def stream_candidates(chain):
    """What the point stream spends: every linked prefix is a candidate."""
    return sum(sum(1 for _ in enumerate_points(chain.truncate(m)))
               for m in range(1, chain.n + 1))


BOUNDARY_CHAINS = ([build_section_chain(d, p, r + 1) for d, r, p in
                    ((2, 1, 3), (3, 0, 3), (3, 1, 2), (3, 2, 2), (4, 1, 2))]
                   + [make_standard_chain(3, 4, 2, 0, 2, r=2),
                      make_standard_chain(1, 3, 1, 0, 2, r=1),
                      conjugated_standard_chain(3, 4, 2, 2, 2, seed=1)])


@pytest.mark.parametrize("chain", BOUNDARY_CHAINS, ids=repr)
def test_boundary_counts_match_the_listing(chain):
    assert boundary_counts(chain) == listed_boundary_counts(chain)


def test_boundary_counts_spend_the_stream_budget():
    # one ledger: the census and the path count raise at the same budget
    sized = [(build_section_chain(3, 2, 2), 592),
             (build_section_chain(2, 3, 2), 84),
             (conjugated_standard_chain(3, 4, 2, 2, 2, seed=1), None)]
    for chain, want in sized:
        total = stream_candidates(chain)
        assert want is None or total == want
        for run in (boundary_counts, census):
            with pytest.raises(BudgetError) as err:
                run(chain, budget=total - 1)
            assert err.value.count == total
            assert run(chain, budget=total) == run(chain)


def test_closure_multiplicity_n2():
    # a linked point of a two-level chain is non-exact exactly when at least
    # two admissible forward ranks dominate its signature
    for d in (2, 3):
        for d1 in range(1, d):
            for r in range(1, d):
                c = make_standard_chain(2, d, d1, 0, 2, r=r)
                adm = list(admissible_signatures_n2(d, r, d1, d - d1))
                for pt in enumerate_points(c):
                    sig = signature(c, pt)
                    count = sum(1 for r1 in adm
                                if r1 >= sig.f_ranks[0]
                                and r - r1 >= sig.g_ranks[0])
                    assert (count >= 2) == (not sig.exact)


def test_truncate_and_reverse():
    c = make_standard_chain(3, 3, 1, 0, 2, r=1)
    t = c.truncate(2)
    assert t.n == 2 and t.fs == c.fs[:1]
    rev = c.reverse()
    assert rev.fs == tuple(reversed(c.gs))
    assert validate_chain(rev).ok


def test_kernel_cache_leaves_chain_identity():
    c = make_standard_chain(3, 3, 1, 0, 2, r=1)
    fresh = make_standard_chain(3, 3, 1, 0, 2, r=1)
    census(c)  # a census leaves the chain as it was built
    assert c == fresh and hash(c) == hash(fresh)
    assert c.truncate(2) == fresh.truncate(2)
    assert c.reverse() == fresh.reverse()


def test_chain_serialization_roundtrip():
    c = make_standard_chain(3, 3, 2, 0, 5, r=2)
    assert LinkedChain.from_dict(c.as_dict()) == c
    pt = next(iter(enumerate_points(c)))
    assert ChainPoint.from_dict(pt.as_dict()) == pt


def test_a_chain_or_point_file_tests_its_modulus_once(monkeypatch):
    # a 6-level chain at p = 2^31 - 1 read its ring 11 times (the chain and
    # each of its 10 maps), 2.2 ms of trial division each; a point read
    # it once per level.  A map over another ring still raises
    from lgseries import fields

    P = 2**31 - 1
    c = make_standard_chain(6, 3, 1, 0, P, r=1)
    pt = ChainPoint([Subspace.from_rows(c.field, 3, [[0, 1, 0]])] * 6)
    chain_spec, point_spec = c.as_dict(), pt.as_dict()
    calls = []
    real = fields.is_prime
    monkeypatch.setattr(fields, "is_prime",
                        lambda n: calls.append(n) or real(n))
    assert LinkedChain.from_dict(chain_spec) == c
    assert calls == [P]
    back = ChainPoint.from_dict(point_spec)
    assert back == pt and calls == [P, P]
    assert all(sp.ring is back[0].ring for sp in back)
    f0 = c.fs[0].as_dict()
    for m, match in ((Matrix.identity(PrimeField(3), 3).as_dict(),
                      "must live over"),
                     (c.fs[0].to_dual().as_dict(), "must live over"),
                     (dict(f0, ring={"p": float(P)}), "prime integer")):
        spec = dict(chain_spec, fs=[m] + chain_spec["fs"][1:])
        with pytest.raises(ValueError, match=match):
            LinkedChain.from_dict(spec)


def test_a_chain_ring_must_be_a_prime_field():
    spec = cross_chain().as_dict()
    for ring in ({"p": 2, "dual": True}, {"p": 2, "dual": "no"}):
        with pytest.raises(ValueError):
            LinkedChain.from_dict(dict(spec, ring=ring))


def test_every_analysis_rejects_a_point_over_another_ring():
    # the node of the cross chain over GF(2), written over GF(3) and over
    # GF(2)[eps]
    c = cross_chain()
    for ring in (PrimeField(3), DualNumbers(2)):
        pt = ChainPoint([Subspace.from_rows(ring, 2, [[0, 1]]),
                         Subspace.from_rows(ring, 2, [[1, 0]])])
        for analysis in (signature, is_exact, tangent_dimension,
                         is_linked_point, extend_truncation, exactify,
                         lambda chain, point: decompose(chain, point, 0)):
            with pytest.raises(ValueError, match="level 0 is over"):
                analysis(c, pt)


def test_census_report_roundtrip_jsonable():
    import json

    rep = census(cross_chain())
    blob = json.dumps(rep.as_dict(), sort_keys=True)
    assert json.loads(blob) == json.loads(blob)
    assert json.loads(blob)["points"] == 5
