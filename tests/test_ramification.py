import itertools
import random

import pytest
from hypothesis import given
from test_cli import FUZZ, JSON_VALUES

from lgseries.fields import Fp, PrimeField
from lgseries.linalg import Subspace, enumerate_subspaces
from lgseries.ramification import (INFINITY, hasse_derivative, is_separable,
                                   plucker_check, poly_order_at, rho,
                                   vanishing_sequence, wronskian)

GF2 = PrimeField(2)
GF3 = PrimeField(3)
GF5 = PrimeField(5)


def poly_space(field, m, rows):
    return Subspace.from_rows(field, m + 1, rows)


def brute_orders(v, point, m):
    """Oracle: orders of vanishing of every nonzero vector of the subspace."""
    q = v.ring.p
    seen = set()
    basis = v.basis_rows()
    for coeffs in itertools.product(range(q), repeat=v.dim):
        if not any(coeffs):
            continue
        vec = [v.ring.zero()] * (m + 1)
        for c, row in zip(coeffs, basis):
            vec = [a + v.ring(c) * b for a, b in zip(vec, row)]
        o = poly_order_at(tuple(vec), point, v.ring, degree_bound=m)
        if o is not None:
            seen.add(o)
    return tuple(sorted(seen))


def test_hasse_derivative_char_p():
    # D^(1) of y^2 in char 2 is 2y = 0
    f = (GF2(0), GF2(0), GF2(1))
    assert hasse_derivative(f, 1, GF2) == (GF2(0), GF2(0))
    # but D^(2) of y^2 is 1 even in char 2
    assert hasse_derivative(f, 2, GF2) == (GF2(1),)


def test_vanishing_monomials():
    for r in range(3):
        rows = [[1 if j == k else 0 for j in range(4)] for k in range(r + 1)]
        v = poly_space(GF5, 3, rows)
        data = vanishing_sequence(v, 0)
        assert data.vanishing == tuple(range(r + 1))
        assert data.ramification == (0,) * (r + 1)
        assert data.tame


def test_vanishing_shifted_example():
    # span{y^2, y + y^3} at 0 -> orders (1, 2)
    v = poly_space(GF5, 3, [[0, 0, 1, 0], [0, 1, 0, 1]])
    data = vanishing_sequence(v, 0)
    assert data.vanishing == (1, 2)
    assert data.ramification == (1, 1)


def test_vanishing_at_infinity():
    # span{1, y^2} with m=2 at infinity -> orders (0, 2)
    v = poly_space(GF5, 2, [[1, 0, 0], [0, 0, 1]])
    data = vanishing_sequence(v, INFINITY)
    assert data.vanishing == (0, 2)
    assert data.ramification == (0, 1)


def test_vanishing_matches_bruteforce():
    rng = random.Random(123)
    for _ in range(30):
        m = rng.randrange(1, 4)
        r = rng.randrange(0, min(2, m) + 1)
        v = None
        while v is None or v.dim != r + 1:
            rows = [[rng.randrange(3) for _ in range(m + 1)]
                    for _ in range(r + 1)]
            v = poly_space(GF3, m, rows)
        for point in [0, 1, 2, INFINITY]:
            data = vanishing_sequence(v, point)
            assert data.vanishing == brute_orders(v, point, m)


@pytest.mark.parametrize("p", [5, 7])
def test_vanishing_at_zero_matches_bruteforce(p):
    # the point 0 given as p and as Fp(0, p) too, which take the
    # unrewritten pivots of v
    field, rng = PrimeField(p), random.Random(p)
    for _ in range(12):
        m = rng.randrange(1, 5)
        r = rng.randrange(0, min(2, m) + 1)
        v = None
        while v is None or v.dim != r + 1:
            # leading zeros, so that orders above 0 occur
            rows = [[0] * rng.randrange(m + 1)
                    + [rng.randrange(p) for _ in range(m + 1)]
                    for _ in range(r + 1)]
            v = poly_space(field, m, [row[:m + 1] for row in rows])
        want = brute_orders(v, 0, m)
        for point in [0, p, Fp(0, p)]:
            data = vanishing_sequence(v, point)
            assert (data.point, data.vanishing) == (0, want), point


def test_wronskian_pencil():
    v = poly_space(GF5, 1, [[1, 0], [0, 1]])
    w = wronskian(v)
    assert len(w) == 1 and w[0] == GF5(1)
    assert is_separable(v)


def test_wronskian_frobenius_pullback():
    v2 = poly_space(GF2, 2, [[1, 0, 0], [0, 0, 1]])  # span{1, y^2}, p=2
    assert wronskian(v2) == ()
    assert not is_separable(v2)
    v3 = poly_space(GF3, 2, [[1, 0, 0], [0, 0, 1]])  # p=3: W = 2y
    w = wronskian(v3)
    assert w == (GF3(0), GF3(2))
    assert is_separable(v3)
    assert poly_order_at(w, 0, GF3) == 1


def test_wronskian_basis_invariance():
    rng = random.Random(77)
    for _ in range(20):
        m = 3
        v = None
        while v is None or v.dim != 2:
            rows = [[rng.randrange(5) for _ in range(m + 1)] for _ in range(2)]
            v = poly_space(GF5, m, rows)
        w = wronskian(v)
        # random invertible change of basis
        rows = [list(r) for r in v.basis_rows()]
        a = rng.randrange(1, 5)
        c = rng.randrange(5)
        rows[0] = [GF5(a) * x for x in rows[0]]
        rows[1] = [x + GF5(c) * y for x, y in zip(rows[1], rows[0])]
        v2 = Subspace.from_rows(GF5, m + 1, rows)
        assert v2 == v  # canonicalisation undoes the change
        w2 = wronskian(v2)
        assert (len(w) == 0) == (len(w2) == 0)
        if w:
            for t in list(range(5)) + [INFINITY]:
                assert poly_order_at(w, t, GF5, degree_bound=6) == \
                    poly_order_at(w2, t, GF5, degree_bound=6)


def test_plucker_curated_instance():
    # span{1, y^2}: bound (r+1)d - 2 binom(r+1,2) = 4 - 2 = 2; weight 1 at 0
    # and 1 at infinity; equality with all points tame for p = 5
    v = poly_space(GF5, 2, [[1, 0, 0], [0, 0, 1]])
    cert = plucker_check(v)
    assert cert.bound == 2
    assert cert.found_weight == 2
    assert cert.separable
    assert cert.all_inspected_tame
    assert {d.point for d in cert.ramified} == {0, INFINITY}


def test_plucker_inseparable_at_two():
    v = poly_space(GF2, 2, [[1, 0, 0], [0, 0, 1]])
    cert = plucker_check(v)
    assert not cert.separable


def test_plucker_unramified_pencil():
    for p in (2, 3, 5):
        F = PrimeField(p)
        v = Subspace.from_rows(F, 2, [[1, 0], [0, 1]])
        cert = plucker_check(v)
        assert cert.found_weight == 0
        assert cert.bound >= 0
        assert cert.separable


def test_plucker_bound_over_enumeration():
    for p in (2, 3):
        F = PrimeField(p)
        for d in (1, 2, 3):
            for r in (0, 1):
                if r + 1 > d + 1:
                    continue
                for v in enumerate_subspaces(d + 1, r + 1, p):
                    cert = plucker_check(
                        Subspace.from_rows(F, d + 1,
                                           [list(x) for x in v.basis_rows()]))
                    if cert.separable:
                        assert cert.found_weight <= cert.bound


def test_rho_examples():
    assert rho(0, 1, 2) == 2
    assert rho(0, 0, 2, [[2]]) == 0
    assert rho(1, 1, 3, [[0, 1]]) == 2


def test_rho_validation():
    with pytest.raises(ValueError):
        rho(0, 1, 2, [[0]])          # wrong length
    with pytest.raises(ValueError):
        rho(0, 1, 2, [[-1, 0]])      # negative
    with pytest.raises(ValueError):
        rho(0, 1, 2, [[1, 0]])       # decreasing
    with pytest.raises(ValueError):
        rho(-1, 1, 2)                # negative genus
    with pytest.raises(ValueError):
        rho(0, -1, 2)                # negative rank
    with pytest.raises(ValueError):
        rho(0, 1, -3)                # negative degree
    for args in ((0.5, 1, 2), (True, 1, 2), (0, 1.0, 2), (0, 1, "2")):
        with pytest.raises(ValueError, match="integers"):
            rho(*args)               # not an int, or a bool
    for alphas in ([[0.5, 1.5]], [[True, 1]], [1], "ab", [[0, 1], None],
                   {"a": [0, 1]}, [(0, 1), "01"]):
        with pytest.raises(ValueError, match="alphas"):
            rho(0, 1, 2, alphas)     # not a list of integer lists
    assert rho(0, 1, 3, ((0, 1),)) == rho(0, 1, 3, [[0, 1]]) == 3


@FUZZ
@given(JSON_VALUES)
def test_fuzz_rho_alphas_raise_only_value_errors(value):
    try:
        rho(0, 1, 2, value)
    except ValueError:
        pass


def test_vanishing_rejects_dual():
    from lgseries.fields import DualNumbers

    D = DualNumbers(3)
    v = Subspace.from_rows(D, 2, [[D(1, 0), D(0, 1)]])
    with pytest.raises(ValueError):
        vanishing_sequence(v, 0)


def test_wronskian_and_orders_reject_dual():
    from lgseries.fields import DualNumbers

    D = DualNumbers(3)
    v = Subspace.from_rows(D, 3, [[D(1, 0), D(0, 1), D(0, 0)],
                                  [D(0, 0), D(0, 0), D(1, 0)]])
    for op in (lambda: wronskian(v), lambda: is_separable(v),
               lambda: poly_order_at((D(0, 1), D(1, 0)), 0, D)):
        with pytest.raises(ValueError, match="field coefficients"):
            op()


def test_plucker_rejects_negative_genus_and_repeated_points():
    v = poly_space(GF5, 2, [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ValueError, match="genus"):
        plucker_check(v, genus=-3)
    for points in ([0, 0], [0, 5], [INFINITY, 1, INFINITY], [-1, 4]):
        with pytest.raises(ValueError, match="twice"):
            plucker_check(v, points=points)
    assert plucker_check(v, points=[0, 6, INFINITY]).inspected == [0, 1, INFINITY]


def test_points_and_genus_must_be_integers():
    # a point is read by the ring call, a genus as rho reads it
    v = poly_space(GF5, 2, [[1, 0, 0], [0, 0, 1]])
    for bad in (lambda: vanishing_sequence(v, 1.5),
                lambda: vanishing_sequence(v, None),
                lambda: plucker_check(v, points=[0.5]),
                lambda: plucker_check(v, genus=0.5),
                lambda: plucker_check(v, genus=True)):
        with pytest.raises(ValueError):
            bad()
    assert plucker_check(v, genus=1).bound == 4


def test_polynomial_helpers_return_ints_mod_p():
    for p in (2, 3):
        field = PrimeField(p)
        for k in (1, 2, 3):
            for v in enumerate_subspaces(4, k, p):
                assert all(type(x) is int and 0 <= x < p for x in wronskian(v))
                for j in range(4):
                    h = hasse_derivative(v.basis_rows()[0], j, field)
                    assert all(type(x) is int and 0 <= x < p for x in h)
    # unreduced ints and Fp coefficients are reduced once, at the boundary
    h = hasse_derivative((-1, 7, -3, GF5(4)), 1, GF5)
    assert h == (2, 4, 2) and all(type(x) is int for x in h)


def test_hasse_derivative_rejects_dual():
    from lgseries.fields import DualNumbers

    D = DualNumbers(3)
    with pytest.raises(ValueError, match="field coefficients"):
        hasse_derivative((D(0, 1), D(1, 0)), 1, D)
