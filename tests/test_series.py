import pytest
from hypothesis import given
from test_cli import FUZZ, JSON_VALUES

from lgseries.chains import (census, enumerate_points, is_exact,
                             is_linked_point, validate_chain)
from lgseries import ramification
from lgseries.fields import DualNumbers, PrimeField
from lgseries.linalg import Subspace, enumerate_subspaces, kernel
from lgseries.series import (EHPair, NodalModel, build_section_chain,
                             dual_probe, enumerate_limit_series, forgetful_map,
                             fr_image_report, is_crude, is_refined, lift_crude,
                             missing_crude_pairs, reconstruct_refined,
                             vanishing_sequence_dual)

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def pair_from_rows(field, d, vy_rows, vz_rows):
    vy = Subspace.from_rows(field, d + 1, vy_rows)
    vz = Subspace.from_rows(field, d + 1, vz_rows)
    return EHPair.from_subspaces(vy, vz)


def test_section_chain_validates():
    for p in (2, 3, 5):
        for d in range(1, 7):
            chain = build_section_chain(d, p, 1)
            assert validate_chain(chain).ok
            assert chain.n == d + 1 and chain.d == d + 1


def test_section_chain_kernel_dimension():
    # ker f_0 = {(a, 0) : a(0) = 0} has dimension d
    for d in (2, 3):
        model = NodalModel(d, 2)
        k = kernel(model.forward_matrix(0))
        assert k.dim == d
        assert k == model.z_vanishing_space(0)


def test_section_chain_fg_zero():
    model = NodalModel(3, 5)
    for i in range(3):
        prod = model.forward_matrix(i) * model.backward_matrix(i)
        assert prod.is_zero()
        prod = model.backward_matrix(i) * model.forward_matrix(i)
        assert prod.is_zero()


def test_section_roundtrip():
    model = NodalModel(2, 3)
    vec = model.section(1, [2, 1], [2, 0])
    assert tuple(x.v for x in vec) == (2, 1, 0)
    with pytest.raises(ValueError):
        model.section(1, [1, 1], [0, 1])  # node mismatch


def test_forgetful_map_remark_point():
    # the exact, non-refined point (y^2, 0), (y, z), (0, z^2) over GF(2)
    model = NodalModel(2, 2)
    v0 = Subspace.from_rows(GF2, 3, [model.section(0, [0, 0, 1], [0])])
    v1 = Subspace.from_rows(GF2, 3, [model.section(1, [0, 1], [0, 1])])
    v2 = Subspace.from_rows(GF2, 3, [model.section(2, [0], [0, 0, 1])])
    from lgseries.chains import ChainPoint

    pt = ChainPoint([v0, v1, v2])
    chain = model.chain(1)
    assert is_linked_point(chain, pt)
    pair = forgetful_map(model, pt)
    assert pair.a_y == (2,) and pair.a_z == (2,)
    assert is_crude(pair) and not is_refined(pair)
    # it is exact in the chain sense even though not refined
    assert is_exact(chain, pt)


def test_forgetful_map_needs_d_plus_one_levels():
    # a point of any other length has no level d to read, or reads the
    # wrong one: too few levels used to raise IndexError, too many to
    # return the aspect of level d as if it were the last
    from lgseries.chains import ChainPoint

    model = NodalModel(2, 2)
    pt = next(enumerate_points(model.chain(1)))
    assert forgetful_map(model, pt).vz == pt[2]
    for spaces in (pt.spaces[:1], pt.spaces[:2], pt.spaces + pt.spaces[:1]):
        with pytest.raises(ValueError, match="point has %d levels"
                           % len(spaces)):
            forgetful_map(model, ChainPoint(spaces))


def test_forgetful_map_rejects_a_point_over_another_ring():
    # a GF(2) point read by a GF(3) model used to come back as a GF(2) pair
    pt = next(enumerate_points(build_section_chain(2, 2, 1)))
    with pytest.raises(ValueError, match="level 0 is over"):
        forgetful_map(NodalModel(2, 3), pt)
    assert forgetful_map(NodalModel(2, 2), pt).vy == pt[0]


def test_middle_filling_y_not_exact():
    # (y^2, 0), (y, 0), (0, z^2 + z): linked but not exact
    model = NodalModel(2, 2)
    v0 = Subspace.from_rows(GF2, 3, [model.section(0, [0, 0, 1], [0])])
    v1 = Subspace.from_rows(GF2, 3, [model.section(1, [0, 1], [0])])
    v2 = Subspace.from_rows(GF2, 3, [model.section(2, [0], [0, 1, 1])])
    from lgseries.chains import ChainPoint

    pt = ChainPoint([v0, v1, v2])
    chain = model.chain(1)
    assert is_linked_point(chain, pt)
    assert not is_exact(chain, pt)


def test_crude_refined_examples():
    p = pair_from_rows(GF2, 2, [[0, 0, 1]], [[0, 0, 1]])
    assert p.a_y == (2,) and p.a_z == (2,)
    assert is_crude(p) and not is_refined(p)
    p = pair_from_rows(GF2, 2, [[0, 1, 0]], [[0, 1, 0]])
    assert is_refined(p)
    p = pair_from_rows(GF2, 2, [[1, 0, 0]], [[1, 0, 0]])
    assert not is_crude(p)


def test_reconstruct_refined_worked_example():
    # d=2, r=0, VY = span{y}, VZ = span{z}
    pair = pair_from_rows(GF2, 2, [[0, 1, 0]], [[0, 1, 0]])
    lsp = reconstruct_refined(pair)
    model = lsp.model
    expected = [
        Subspace.from_rows(GF2, 3, [model.section(0, [0, 1, 0], [0])]),
        Subspace.from_rows(GF2, 3, [model.section(1, [1, 0], [1, 0])]),
        Subspace.from_rows(GF2, 3, [model.section(2, [0], [0, 1, 0])]),
    ]
    assert list(lsp.point.spaces) == expected
    assert forgetful_map(model, lsp.point) == pair


def test_reconstruct_refined_degree_one():
    # d=1, r=0, VY = span{1}, VZ = span{z}
    pair = pair_from_rows(GF2, 1, [[1, 0]], [[0, 1]])
    assert pair.a_y == (0,) and pair.a_z == (1,)
    assert is_refined(pair)
    lsp = reconstruct_refined(pair)
    model = lsp.model
    # node values must agree: the constant pair (1, 1), then (0, z)
    assert lsp.point[0] == Subspace.from_rows(
        GF2, 2, [model.section(0, [1, 0], [1])])
    assert lsp.point[1] == Subspace.from_rows(
        GF2, 2, [model.section(1, [0], [0, 1])])


def test_reconstruct_rejects_non_refined():
    pair = pair_from_rows(GF2, 2, [[0, 0, 1]], [[0, 0, 1]])
    with pytest.raises(ValueError):
        reconstruct_refined(pair)


def test_reconstruct_uniqueness_by_enumeration():
    # every refined pair of each (d, r, q) case has exactly one linked point
    # above it, and reconstruction produces that point
    cases = [(1, 0, 2), (2, 0, 2), (1, 0, 3), (2, 0, 3),
             (2, 1, 3), (3, 2, 2), (3, 1, 3)]
    for d, r, q in cases:
        model = NodalModel(d, q)
        preimages = {}
        for pt in enumerate_points(model.chain(r + 1)):
            key = forgetful_map(model, pt).key()
            preimages.setdefault(key, []).append(pt)
        aspects = list(enumerate_subspaces(d + 1, r + 1, q))
        refined = 0
        for vy in aspects:
            for vz in aspects:
                pair = EHPair.from_subspaces(vy, vz)
                if not is_refined(pair):
                    continue
                refined += 1
                pts = preimages.get(pair.key(), [])
                assert len(pts) == 1
                assert reconstruct_refined(pair).point == pts[0]
        assert refined > 0


def test_lift_crude_forced_middle():
    # VY = span{y^2}, VZ = span{z^2 + z}: middle must be (y, 0)
    pair = pair_from_rows(GF2, 2, [[0, 0, 1]], [[0, 1, 1]])
    lsp = lift_crude(pair)
    model = lsp.model
    assert lsp.point[1] == Subspace.from_rows(
        GF2, 3, [model.section(1, [0, 1], [0])])
    assert forgetful_map(model, lsp.point) == pair
    assert not is_exact(model.chain(1), lsp.point)


def test_lift_crude_equals_reconstruct_on_refined():
    for q in (2, 3):
        for vy in enumerate_subspaces(3, 1, q):
            for vz in enumerate_subspaces(3, 1, q):
                pair = EHPair.from_subspaces(vy, vz)
                if is_refined(pair):
                    assert lift_crude(pair).point == \
                        reconstruct_refined(pair).point


def test_lift_crude_both_fillings_case():
    # VY = span{y^2}, VZ = span{z^2}: two fillings exist; the lift picks the
    # z-vanishing-maximal one, (y, 0), and round-trips
    pair = pair_from_rows(GF2, 2, [[0, 0, 1]], [[0, 0, 1]])
    lsp = lift_crude(pair)
    model = lsp.model
    assert lsp.point[1] == Subspace.from_rows(
        GF2, 3, [model.section(1, [0, 1], [0])])
    assert forgetful_map(model, lsp.point) == pair
    # oracle: enumerate all linked fillings of this pair
    fillings = [pt for pt in enumerate_points(model.chain(1))
                if forgetful_map(model, pt).key() == pair.key()]
    assert len(fillings) >= 2
    assert lsp.point in fillings


def test_lift_crude_is_not_the_first_filling():
    # VY = VZ = span{y, y^2} at d = 2, r = 1: seven linked fillings; the lift
    # keeps f(V_0) + (z-vanishing part of g^-1(V_0)) = span{y, y^2} as its
    # middle level, which is the last filling in stream order, not the first
    rows = [[0, 1, 0], [0, 0, 1]]
    pair = pair_from_rows(GF2, 2, rows, rows)
    lsp = lift_crude(pair)
    model = lsp.model
    assert lsp.point[1] == Subspace.from_rows(GF2, 3, rows)
    fillings = [pt for pt in enumerate_points(model.chain(2))
                if forgetful_map(model, pt).key() == pair.key()]
    assert len(fillings) == 7
    assert fillings[0][1] == Subspace.from_rows(GF2, 3, [[1, 0, 0], [0, 1, 0]])
    assert lsp.point in fillings and lsp.point != fillings[0]


def test_lift_crude_rejects_non_crude():
    pair = pair_from_rows(GF2, 2, [[1, 0, 0]], [[1, 0, 0]])
    with pytest.raises(ValueError):
        lift_crude(pair)


def test_lift_crude_glued_generator_case():
    # d=2, r=1, VY = span{y, y^2}, VZ = span{1, z}: a_y = (1, 2), a_z = (0, 1)
    # is refined; the middle level is short by one and the patch must glue an
    # order-one y-section to the node-order-one z-section: (1, 1) up to basis
    pair = pair_from_rows(GF2, 2, [[0, 1, 0], [0, 0, 1]],
                          [[1, 0, 0], [0, 1, 0]])
    assert is_crude(pair)
    lsp = lift_crude(pair)
    model = lsp.model
    assert lsp.point[1].contains_vector(model.section(1, [1, 0], [1, 0]))
    assert forgetful_map(lsp.model, lsp.point) == pair


def test_lift_crude_exhaustive_round_trip():
    # every crude pair lifts to a linked preimage: d<=2, r=0, q in {2, 3}
    for q in (2, 3):
        for d in (1, 2):
            for vy in enumerate_subspaces(d + 1, 1, q):
                for vz in enumerate_subspaces(d + 1, 1, q):
                    pair = EHPair.from_subspaces(vy, vz)
                    if not is_crude(pair):
                        continue
                    lsp = lift_crude(pair)
                    assert forgetful_map(lsp.model, lsp.point) == pair


def test_enumerate_limit_series_counts():
    # d=1, r=0: count matches the census of the underlying chain
    chain = build_section_chain(1, 2, 1)
    assert census(chain).points == \
        sum(1 for _ in enumerate_limit_series(1, 0, 2))
    # d=2, r=0, q=2 includes the three worked points
    model = NodalModel(2, 2)
    pts = {lsp.point for lsp in enumerate_limit_series(2, 0, 2)}
    from lgseries.chains import ChainPoint

    exact_nonrefined = ChainPoint([
        Subspace.from_rows(GF2, 3, [model.section(0, [0, 0, 1], [0])]),
        Subspace.from_rows(GF2, 3, [model.section(1, [0, 1], [0, 1])]),
        Subspace.from_rows(GF2, 3, [model.section(2, [0], [0, 0, 1])])])
    assert exact_nonrefined in pts


def test_enumerate_limit_series_rejects_negative_rank():
    with pytest.raises(ValueError, match="nonnegative"):
        next(enumerate_limit_series(2, -1, 2))


def test_enumerate_limit_series_with_constraints():
    # maximal vanishing at the y-point 0 forces VY = span{y^d}
    out = list(enumerate_limit_series(
        2, 0, 2, constraints=[{"side": "Y", "point": 0, "min": [2]}]))
    assert out
    for lsp in out:
        pair = forgetful_map(lsp.model, lsp.point)
        assert pair.a_y == (2,)
    # at infinity on the z side
    out_inf = list(enumerate_limit_series(
        1, 0, 2, constraints=[{"side": "Z", "point": "inf", "min": [1]}]))
    for lsp in out_inf:
        pair = forgetful_map(lsp.model, lsp.point)
        vz = pair.vz
        from lgseries.ramification import INFINITY, vanishing_sequence

        assert vanishing_sequence(vz, INFINITY).vanishing[0] >= 1


def test_enumerate_limit_series_checks_constraints_first():
    # each of these spends no budget: a budget of 0 would raise BudgetError
    good = {"side": "Y", "point": 0, "min": [1]}
    for bad in ({"a": 1}, "Y", [1], [good, 1], [{"side": "Y", "point": 1}],
                [dict(good, side="Q")], [dict(good, point=1.5)],
                [dict(good, point=True)], [dict(good, point=None)],
                [dict(good, min=[True])], [dict(good, min=[1, 2])],
                [dict(good, min=1)], [dict(good, x=0)]):
        with pytest.raises(ValueError, match="constraint"):
            next(enumerate_limit_series(2, 0, 2, constraints=bad, budget=0))
    assert list(enumerate_limit_series(2, 0, 2, constraints=(good,))) == \
        list(enumerate_limit_series(2, 0, 2, constraints=[good]))


def test_series_orders_compute_no_tameness(monkeypatch):
    # node orders and imposed bounds are orders of vanishing only; the
    # tameness of ``vanishing_sequence`` is never asked for
    constraints = [{"side": "Y", "point": 1, "min": [0, 2]},
                   {"side": "Z", "point": "inf", "min": [1, 2]},
                   {"side": "Z", "point": 0, "min": [1, 2]}]
    want = list(enumerate_limit_series(3, 1, 3, constraints=constraints))
    assert want

    def refuse(*args):
        raise AssertionError("is_tame called")

    monkeypatch.setattr(ramification, "is_tame", refuse)
    with pytest.raises(AssertionError, match="is_tame"):
        ramification.vanishing_sequence(want[0].point[0], 1)
    assert list(enumerate_limit_series(3, 1, 3,
                                       constraints=constraints)) == want
    pair = EHPair.from_subspaces(want[0].point[0], want[0].point[3])
    assert pair == forgetful_map(want[0].model, want[0].point)
    assert dual_probe(5).a_y_mod_eps == (2,)


@FUZZ
@given(JSON_VALUES)
def test_fuzz_constraints_raise_only_value_errors(value):
    try:
        list(enumerate_limit_series(2, 0, 2, constraints=value))
    except ValueError:
        pass


def test_fr_image_small_cases():
    for d, r, q in [(1, 0, 2), (1, 0, 3), (2, 0, 2), (2, 0, 3)]:
        rep = fr_image_report(d, r, q)
        assert rep.equal, (d, r, q)
        assert rep.image_size == rep.crude_pairs
        assert rep.refined_preimages_all_unique
        assert not rep.fr_not_crude and not rep.crude_not_fr


def test_fr_soundness_every_point_maps_to_crude():
    for d, r, q in [(1, 0, 2), (2, 0, 2), (2, 0, 3)]:
        model = NodalModel(d, q)
        for pt in enumerate_points(model.chain(r + 1)):
            assert is_crude(forgetful_map(model, pt))


def test_refined_image_points_are_exact():
    # any linked point over a refined pair is exact in the chain sense
    for q in (2, 3):
        model = NodalModel(2, q)
        chain = model.chain(1)
        for pt in enumerate_points(chain):
            if is_refined(forgetful_map(model, pt)):
                assert is_exact(chain, pt)


def test_vanishing_sequence_dual_probe_values():
    for p in (2, 3, 5):
        rep = dual_probe(p)
        assert rep.linked_over_dual
        assert rep.a_y == (1,)
        assert rep.a_z == (0,)
        assert rep.a_y_mod_eps == (2,)
        assert rep.a_z_mod_eps == (1,)
        assert rep.first_order_sum == rep.d - 1


def test_vanishing_sequence_dual_constant_section():
    for p in (2, 3):
        D = DualNumbers(p)
        v = Subspace.from_rows(D, 3, [[D(1, 0), D(0, 0), D(0, 0)]])
        assert vanishing_sequence_dual(v) == (0,)


def test_vanishing_sequence_dual_rejects_torsion():
    D = DualNumbers(3)
    v = Subspace.from_rows(D, 2, [[D(0, 1), D(0, 0)]])
    with pytest.raises(ValueError):
        vanishing_sequence_dual(v)


def test_vanishing_sequence_dual_matches_field_on_constants():
    # dual subspaces with zero eps parts reproduce the field sequences
    from lgseries.ramification import vanishing_sequence

    for rows in ([[0, 1, 0]], [[0, 0, 1]], [[1, 0, 0], [0, 0, 1]]):
        v = Subspace.from_rows(GF3, 3, rows)
        vd = v.to_dual()
        assert vanishing_sequence_dual(vd) == \
            vanishing_sequence(v, 0).vanishing


# --- echelon-cell counting against the listing of all aspect pairs ----------

def test_node_orders_are_pivots():
    # at y = 0 the ascending coefficients are the order filtration, so the
    # vanishing sequence is the pivot pattern
    from lgseries.ramification import vanishing_sequence

    for p in (2, 3):
        for d in range(1, 5):
            for k in range(1, d + 2):
                for v in enumerate_subspaces(d + 1, k, p):
                    pair = EHPair.from_subspaces(v, v)
                    orders = vanishing_sequence(v, 0).vanishing
                    assert pair.a_y == pair.a_z == orders


def test_node_orders_reject_zero_and_dual_aspects():
    zero = Subspace.zero_space(GF2, 3)
    with pytest.raises(ValueError):
        EHPair.from_subspaces(zero, zero)
    vd = Subspace.from_rows(GF3, 3, [[0, 1, 0]]).to_dual()
    with pytest.raises(ValueError):
        EHPair.from_subspaces(vd, vd)


def test_aspects_must_share_the_ring():
    # the lifts build their model over the field of the y-aspect
    vy = Subspace.from_rows(GF3, 3, [[1, 0, 0], [0, 0, 1]])
    vz = Subspace.from_rows(PrimeField(5), 3, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="ring"):
        EHPair.from_subspaces(vy, vz)


def listed_pairs(d, r, q):
    """Keys of all crude and all refined aspect pairs, by listing every pair
    of G(d+1, r+1, q) and reading the orders off vanishing_sequence."""
    from lgseries.ramification import vanishing_sequence

    aspects = [(v.key(), vanishing_sequence(v, 0).vanishing)
               for v in enumerate_subspaces(d + 1, r + 1, q)]
    crude, refined = set(), set()
    for ky, a_y in aspects:
        for kz, a_z in aspects:
            sums = {a_y[i] + a_z[r - i] for i in range(r + 1)}
            if min(sums) >= d:
                crude.add((ky, kz))
                if sums == {d}:
                    refined.add((ky, kz))
    return crude, refined


def image_preimages(d, r, q):
    """Preimage counts of the boundary aspect pairs of all linked points."""
    preimages = {}
    for pt in enumerate_points(NodalModel(d, q).chain(r + 1)):
        key = (pt[0].key(), pt[d].key())
        preimages[key] = preimages.get(key, 0) + 1
    return preimages


def listing_report(d, r, q):
    """The fr-image report computed from the listing, as a dict."""
    preimages = image_preimages(d, r, q)
    crude, refined = listed_pairs(d, r, q)
    image = set(preimages)

    def as_list(keys):
        return [list(map(list, k)) for k in sorted(keys)]

    return {"schema_version": 1, "d": d, "r": r, "q": q,
            "points": sum(preimages.values()), "image_size": len(image),
            "crude_pairs": len(crude), "refined_pairs": len(refined),
            "refined_points": sum(preimages.get(k, 0) for k in refined),
            "equal": image == crude,
            "fr_not_crude": as_list(image - crude),
            "crude_not_fr": as_list(crude - image),
            "preimage_counts": [[list(map(list, k)), cnt]
                                for k, cnt in sorted(preimages.items())],
            "refined_preimages_all_unique":
                all(preimages.get(k, 0) == 1 for k in refined)}


@pytest.mark.parametrize("d,r,q", [(2, 0, 3), (2, 1, 2), (3, 0, 2),
                                   (3, 2, 2), (2, 1, 5)])
def test_fr_image_report_matches_listing(d, r, q):
    assert fr_image_report(d, r, q).as_dict() == listing_report(d, r, q)


@pytest.mark.parametrize("d,r,q", [(2, 0, 3), (2, 1, 2), (3, 0, 2),
                                   (3, 2, 2), (2, 1, 5)])
def test_fr_image_report_walks_no_point(monkeypatch, d, r, q):
    # the counts come from the interval graph: no point walk, no forgetful
    # pair per point
    from lgseries import chains, series

    want = listing_report(d, r, q)

    def forbidden(*args, **kwargs):
        raise AssertionError("fr_image_report walked a point")
    monkeypatch.setattr(chains, "_walk", forbidden)
    monkeypatch.setattr(series, "forgetful_map", forbidden)
    assert fr_image_report(d, r, q).as_dict() == want


@pytest.mark.parametrize("d,r,q,drop", [(3, 1, 2, False), (4, 1, 3, False),
                                        (2, 0, 2, True)])
def test_fr_image_report_decides_orders_once_per_pattern_pair(
        monkeypatch, d, r, q, drop):
    # both order conditions depend on the pivot patterns alone, so each is
    # evaluated at most once per pattern pair, also when a crude pair is
    # missing from the image and named; each image space is keyed once
    from math import comb

    from lgseries import series

    calls = {"crude": 0, "refined": 0, "key": 0}
    crude, real_counts = series.crude_orders, series.boundary_counts
    spaces = set()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def boundary_counts(*args):
        counts = real_counts(*args)
        if drop:
            del counts[next(pair for pair in counts
                            if crude(pair[0].pivots, pair[1].pivots, d))]
        spaces.update(v for pair in counts for v in pair)
        return counts

    monkeypatch.setattr(series, "boundary_counts", boundary_counts)
    monkeypatch.setattr(series, "crude_orders", counting("crude", crude))
    monkeypatch.setattr(series, "refined_orders",
                        counting("refined", series.refined_orders))
    monkeypatch.setattr(Subspace, "key", counting("key", Subspace.key))
    rep = fr_image_report(d, r, q)
    assert rep.equal is not drop and len(rep.crude_not_fr) == drop
    cells = comb(d + 1, r + 1) ** 2
    assert 0 < calls["crude"] <= cells and 0 < calls["refined"] <= cells
    if not drop:  # naming the missing pair keys the spaces it lists
        assert calls["key"] == len(spaces)


@pytest.mark.parametrize("d,r,q", [(2, 0, 3), (2, 1, 2)])
def test_missing_crude_pairs_matches_listing(d, r, q):
    image = set(image_preimages(d, r, q))
    crude, _ = listed_pairs(d, r, q)
    assert missing_crude_pairs(d, r, q, image) == []
    dropped = sorted(crude)[len(crude) // 2]
    partial = image - {dropped}
    assert missing_crude_pairs(d, r, q, partial) == \
        sorted(crude - partial) == [dropped]
