"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every assertion is exact (zero tolerance): all quantities are
integers computed in exact arithmetic.
"""

from lgseries.chains import (ChainPoint, LinkedChain, admissible_signatures_n2,
                             census, enumerate_points, exactify,
                             expected_component_count_n2, extend_truncation,
                             is_exact, is_linked_point, make_standard_chain,
                             signature, tangent_dimension)
from lgseries.fields import PrimeField
from lgseries.linalg import Matrix, Subspace, enumerate_subspaces, \
    gaussian_binomial
from lgseries.ramification import plucker_check
from lgseries.series import (EHPair, NodalModel, build_section_chain,
                             dual_probe, forgetful_map, fr_image_report,
                             is_crude, is_refined, lift_crude,
                             reconstruct_refined)


def _report(criterion: str, detail: str) -> None:
    print("PASS %s: %s" % (criterion, detail))


def _dichotomy_chains():
    """The exhaustive chain pool shared by criteria 4, 8 and 9: standard
    chains with d <= 3 and n <= 3, and section chains with ambient <= 3."""
    for d in (2, 3):
        for n in (2, 3):
            for d1 in range(1, d):
                for r in range(1, d):
                    yield make_standard_chain(n, d, d1, 0, 2, r=r)
    for degree in (1, 2):
        for rank in range(1, degree + 1):
            yield build_section_chain(degree, 2, rank)


def test_criterion_1_cross_chain_census():
    f = Matrix.from_rows(PrimeField(2), [[1, 0], [0, 0]])
    g = Matrix.from_rows(PrimeField(2), [[0, 0], [0, 1]])
    chain = LinkedChain(PrimeField(2), 2, 2, 1, [f], [g], PrimeField(2)(0))
    rep = census(chain)
    assert rep.points == 5
    assert rep.points - rep.exact == 1
    assert rep.tangent_histogram == {1: 4, 2: 1}
    # the unique non-exact point is the node
    node = ChainPoint([Subspace.from_rows(PrimeField(2), 2, [[0, 1]]),
                       Subspace.from_rows(PrimeField(2), 2, [[1, 0]])])
    assert is_linked_point(chain, node) and not is_exact(chain, node)
    assert tangent_dimension(chain, node) == 2
    for pt in enumerate_points(chain):
        want = 1 if is_exact(chain, pt) else 2
        assert tangent_dimension(chain, pt) == want
    _report("criterion 1",
            "two-level cross chain over GF(2): 5 points, 1 non-exact node, "
            "tangent dims {1: 4, 2: 1}")


def test_criterion_2_gaussian_collapse():
    checked = 0
    for q in (2, 3):
        for n in (2, 3):
            for d in (2, 3, 4):
                for r in range(0, d):
                    chain = make_standard_chain(n, d, 1, 1, q, r=r)
                    pts = list(enumerate_points(chain))
                    assert len(pts) == gaussian_binomial(d, r, q), (n, d, r, q)
                    assert all(is_exact(chain, pt) for pt in pts)
                    checked += 1
    _report("criterion 2",
            "%d unit-scalar chains: point counts equal Gaussian binomials, "
            "all points exact" % checked)


def test_criterion_3_two_level_component_law():
    cases = 0
    for d in (2, 3, 4):
        for d1 in range(1, d):
            for r in range(1, d):
                d2 = d - d1
                chain = make_standard_chain(2, d, d1, 0, 2, r=r)
                rep = census(chain)
                observed = sorted(sig[0][0] for sig in rep.signatures)
                admissible = list(admissible_signatures_n2(d, r, d1, d2))
                assert observed == admissible, (d, d1, r)
                assert len(observed) == \
                    expected_component_count_n2(d, r, d1, d2)
                cases += 1
    _report("criterion 3",
            "%d two-level chains over GF(2): exact signature sets equal the "
            "admissible ranges with the predicted sizes" % cases)


def test_criterion_4_tangent_dichotomy():
    chains = points = 0
    for chain in _dichotomy_chains():
        chains += 1
        floor = chain.r * (chain.d - chain.r)
        for pt in enumerate_points(chain):
            points += 1
            tdim = tangent_dimension(chain, pt)
            if is_exact(chain, pt):
                assert tdim == floor, (chain, pt)
            else:
                assert tdim > floor, (chain, pt)
    _report("criterion 4",
            "%d chains, %d linked points: tangent dimension equals r(d-r) "
            "exactly at exact points and exceeds it at every other point"
            % (chains, points))


def test_criterion_5_forgetful_image():
    cases = [(1, 0, 2), (1, 0, 3), (2, 0, 2), (2, 0, 3), (3, 1, 2)]
    for d, r, q in cases:
        rep = fr_image_report(d, r, q, budget=2_000_000)
        assert rep.equal, (d, r, q)
        model = NodalModel(d, q)
        # preimage structure: refined pairs have exactly one preimage and
        # reconstruction produces it; every crude pair lifts
        preimages = {}
        for pt in enumerate_points(model.chain(r + 1)):
            key = forgetful_map(model, pt).key()
            preimages.setdefault(key, []).append(pt)
        for vy in enumerate_subspaces(d + 1, r + 1, q):
            for vz in enumerate_subspaces(d + 1, r + 1, q):
                pair = EHPair.from_subspaces(vy, vz)
                if not is_crude(pair):
                    assert pair.key() not in preimages
                    continue
                lifted = lift_crude(pair)
                assert forgetful_map(model, lifted.point) == pair
                assert lifted.point in preimages[pair.key()]
                if is_refined(pair):
                    assert len(preimages[pair.key()]) == 1
                    assert reconstruct_refined(pair).point == \
                        preimages[pair.key()][0]
    _report("criterion 5",
            "forgetful image equals the crude locus at %s; refined pairs "
            "reconstruct uniquely and every crude pair lifts" %
            (", ".join("(d=%d,r=%d,q=%d)" % c for c in cases)))


def test_criterion_6_dual_number_probe():
    for p in (2, 3, 5):
        rep = dual_probe(p)
        assert rep.linked_over_dual
        assert rep.a_y == (1,)
        assert rep.a_z == (0,)
        assert rep.a_y_mod_eps == (2,)
        assert rep.a_z_mod_eps == (1,)
        assert rep.first_order_sum == rep.d - 1      # d-1 inequality is sharp
        assert not rep.first_order_sum >= rep.d      # d inequality fails
    _report("criterion 6",
            "first-order probe over GF(p)[eps], p in {2,3,5}: node orders "
            "(1, 0), reductions (2, 1); sum d-1 exactly")


def test_criterion_7_plucker_suite():
    checked = 0
    for p in (2, 3, 5):
        field = PrimeField(p)
        for d in (1, 2, 3):
            for r in (0, 1):
                if r > d:
                    continue
                for v in enumerate_subspaces(d + 1, r + 1, p):
                    cert = plucker_check(v)
                    if cert.separable:
                        bound = (r + 1) * d - 2 * (r * (r + 1) // 2)
                        assert cert.bound == bound
                        assert cert.found_weight <= bound
                        checked += 1
    # curated instance span{1, y^2}
    for p in (3, 5):
        v = Subspace.from_rows(PrimeField(p), 3, [[1, 0, 0], [0, 0, 1]])
        cert = plucker_check(v)
        assert cert.separable
        assert cert.found_weight == cert.bound == 2
        assert cert.all_inspected_tame
    v2 = Subspace.from_rows(PrimeField(2), 3, [[1, 0, 0], [0, 0, 1]])
    assert not plucker_check(v2).separable
    _report("criterion 7",
            "%d separable series within the weight bound; the curated "
            "square series meets the bound with equality and all points "
            "tame for p >= 3, and is inseparable at p = 2" % checked)


def test_criterion_8_truncation_lifting():
    chains = lifted = 0
    for chain in _dichotomy_chains():
        chains += 1
        for n_prime in range(1, chain.n):
            trunc = chain.truncate(n_prime)
            for part in enumerate_points(trunc):
                partial = ChainPoint(part.spaces)
                full = extend_truncation(chain, partial)
                assert is_linked_point(chain, full)
                assert full.spaces[:n_prime] == part.spaces
                assert extend_truncation(chain, partial) == full
                lifted += 1
    _report("criterion 8",
            "%d chains: all %d truncated points extend deterministically to "
            "full linked points" % (chains, lifted))


def test_criterion_9_exactify():
    fixed = 0
    for chain in _dichotomy_chains():
        for pt in enumerate_points(chain):
            sig = signature(chain, pt)
            if sig.exact:
                continue
            fpt, gpt = exactify(chain, pt)
            fsig = signature(chain, fpt)
            gsig = signature(chain, gpt)
            assert is_linked_point(chain, fpt) and fsig.exact
            assert is_linked_point(chain, gpt) and gsig.exact
            assert fsig.f_ranks == sig.f_ranks
            assert fsig.g_ranks == tuple(chain.r - x for x in sig.f_ranks)
            assert gsig.g_ranks == sig.g_ranks
            assert gsig.f_ranks == tuple(chain.r - x for x in sig.g_ranks)
            assert fsig.key() != gsig.key()
            fixed += 1
    _report("criterion 9",
            "%d non-exact points: both deformation outputs are exact and "
            "linked with the forward/backward rank vectors preserved as "
            "predicted" % fixed)
