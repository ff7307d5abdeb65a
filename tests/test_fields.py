import random
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_cli import FUZZ, JSON_VALUES

from lgseries.chains import (CensusReport, DecompositionReport,
                             SignatureReport, ValidationReport,
                             make_standard_chain)
from lgseries.fields import (Dual, DualNumbers, Fp, PrimeField,
                             binomial_matrix, integer_determinant, is_prime,
                             is_tame, ring_from_dict, tameness_determinant)
from lgseries.linalg import Matrix
from lgseries.ramification import PluckerCertificate, RamificationData
from lgseries.series import DualProbeReport, ImageReport

PRIMES_SMALL = [2, 3, 5, 7, 11, 13]


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(2**31 + 11)
    with pytest.raises(ValueError):
        PrimeField(2**61 - 1)  # prime; trial division of it would not end


def test_ring_dual_flag_must_be_a_bool():
    assert ring_from_dict({"p": 3}) == PrimeField(3)
    assert ring_from_dict({"p": 3, "dual": False}) == PrimeField(3)
    assert ring_from_dict({"p": 3, "dual": True}) == DualNumbers(3)
    # read by truthiness, "no" and [0] would both be the dual numbers
    for bad in ("no", [0], 1, 0, None, "false"):
        with pytest.raises(ValueError, match="dual"):
            ring_from_dict({"p": 2, "dual": bad})


def test_field_inverse_examples():
    assert Fp(1, 5).inverse() == Fp(1, 5)
    # exhaustive oracle over GF(5): the inverse of 2 is whatever multiplies to 1
    expected = next(c for c in range(1, 5) if (2 * c) % 5 == 1)
    assert expected == 3
    assert Fp(2, 5).inverse() == Fp(3, 5)
    assert Fp(1, 2).inverse() == Fp(1, 2)


def test_field_inverse_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fp(0, 7).inverse()


def test_field_inverse_involution_exhaustive():
    for p in [2, 3, 5, 7, 11, 97]:
        for v in range(1, p):
            x = Fp(v, p)
            assert x.inverse().inverse() == x
            assert x * x.inverse() == Fp(1, p)


def test_field_arithmetic_basics():
    a, b = Fp(3, 7), Fp(6, 7)
    assert a + b == Fp(2, 7)
    assert a - b == Fp(4, 7)
    assert a * b == Fp(4, 7)
    assert -a == Fp(4, 7)
    assert a + 4 == Fp(0, 7)
    with pytest.raises(ValueError):
        _ = Fp(1, 5) + Fp(1, 7)


def test_element_operators_reject_bools():
    # a bool is no scalar here, as for the ring calls and matrix entries
    for x in (Fp(1, 5), Dual(1, 1, 3)):
        ops = [lambda: x + True, lambda: True + x, lambda: x * True,
               lambda: True * x, lambda: x - True, lambda: True - x]
        for op in ops:
            with pytest.raises(TypeError):
                op()
        assert (x == True) is False and (True == x) is False  # noqa: E712
        assert x != True  # noqa: E712
    assert Fp(1, 5) + 1 == Fp(2, 5) and Dual(1, 1, 3) + 1 == Dual(2, 1, 3)
    assert Fp(1, 5) == 6 and Dual(1, 0, 3) == 4


def test_dual_inverse_examples():
    D = DualNumbers(3)
    assert D(1, 0).inverse() == D(1, 0)
    x = D(1, 1)
    inv = x.inverse()
    assert inv == D(1, 2)
    assert x * inv == D(1, 0)  # (1+e)(1+2e) = 1+3e = 1
    with pytest.raises(ZeroDivisionError):
        D(0, 1).inverse()


def test_dual_inverse_all_units():
    for p in (2, 3, 5):
        D = DualNumbers(p)
        for a0 in range(1, p):
            for a1 in range(p):
                x = D(a0, a1)
                assert x * x.inverse() == D(1, 0)


def test_dual_nilpotent():
    D = DualNumbers(5)
    assert D.eps() * D.eps() == D.zero()
    assert (D(2, 3) * D.eps()) == D(0, 2)


def test_tameness_identity_sequence():
    for p in PRIMES_SMALL:
        for r in range(4):
            assert tameness_determinant(range(r + 1), p) == Fp(1, p)


def test_tameness_examples():
    # det [[1,0],[1,2]] = 2
    assert integer_determinant(binomial_matrix([0, 2])) == 2
    assert tameness_determinant([0, 2], 2) == Fp(0, 2)   # wild
    assert tameness_determinant([0, 2], 3) == Fp(2, 3)   # tame
    assert not is_tame([0, 2], 2)
    assert is_tame([0, 2], 3)


def test_tameness_rejects_bad_sequences():
    with pytest.raises(ValueError):
        tameness_determinant([2, 2], 5)
    with pytest.raises(ValueError):
        tameness_determinant([3, 1], 5)
    with pytest.raises(ValueError):
        tameness_determinant([-1, 0], 5)


def test_no_wild_ramification_below_p():
    # all strictly increasing sequences with a_r <= 6 are tame mod 7 and 11
    import itertools

    for p in (7, 11):
        for r in range(4):
            for a in itertools.combinations(range(7), r + 1):
                assert is_tame(a, p)


def test_integer_determinant_vs_product_formula():
    # det(binom(a_i, j)) * prod j! = prod_{i<j} (a_j - a_i)
    rng = random.Random(20240817)
    for _ in range(200):
        r = rng.randrange(0, 5)
        a = sorted(rng.sample(range(21), r + 1))
        det = integer_determinant(binomial_matrix(a))
        lhs = det * 1
        for j in range(r + 1):
            lhs *= factorial(j)
        rhs = 1
        for i in range(r + 1):
            for j in range(i + 1, r + 1):
                rhs *= a[j] - a[i]
        assert lhs == rhs


def test_integer_determinant_small_oracle():
    # cross-check Bareiss against cofactor expansion on random small matrices
    def cofactor_det(m):
        n = len(m)
        if n == 0:
            return 1
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert integer_determinant(m) == cofactor_det(m)


def test_dual_ring_descriptor():
    D = DualNumbers(3)
    assert D.as_dict() == {"p": 3, "dual": True}
    assert PrimeField(3).as_dict() == {"p": 3, "dual": False}
    assert D(Fp(2, 3), 1) == Dual(2, 1, 3)


def test_ring_calls_reject_what_a_matrix_entry_rejects():
    # a float, a bool or None is no scalar, and an element over another p
    # belongs to another ring; an element of the ring's own p passes as is
    for bad in (lambda: PrimeField(5)(1.5), lambda: PrimeField(5)(True),
                lambda: PrimeField(5)(None), lambda: PrimeField(5)(Fp(1, 7)),
                lambda: DualNumbers(3)(1, 1.5), lambda: DualNumbers(3)(True),
                lambda: DualNumbers(3)(Dual(1, 1, 5)),
                lambda: DualNumbers(3)(Fp(1, 5)),
                lambda: make_standard_chain(2, 2, 1, True, 2, 1)):
        with pytest.raises(ValueError):
            bad()
    x, y = Fp(2, 5), Dual(1, 2, 3)
    assert PrimeField(5)(x) is x and DualNumbers(3)(y) is y
    assert PrimeField(5)(-3) == Fp(2, 5)
    assert DualNumbers(3)(4, -1) == Dual(1, 2, 3)


@FUZZ
@given(st.sampled_from([2, 3, 5]), JSON_VALUES)
def test_fuzz_ring_calls_return_or_raise_value_error(p, value):
    # and a ring call takes exactly what a matrix entry takes
    for ring in (PrimeField(p), DualNumbers(p)):
        try:
            element = ring(value)
        except ValueError:
            with pytest.raises(ValueError):
                Matrix.from_rows(ring, [[value]])
        else:
            entry = Matrix.from_rows(ring, [[value]]).entry(0, 0)
            assert element == entry


# every arithmetic method and inverse of the element types
ELEMENT_ARITHMETIC = {
    Fp: ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__neg__", "inverse"),
    Dual: ("__add__", "__radd__", "__mul__", "__rmul__", "inverse"),
}


def test_no_library_routine_does_element_arithmetic(monkeypatch):
    from lgseries.chains import census, make_standard_chain
    from lgseries.linalg import Matrix, Subspace
    from lgseries.ramification import (INFINITY, hasse_derivative,
                                       plucker_check, poly_order_at,
                                       vanishing_sequence, wronskian)
    from lgseries.series import dual_probe, fr_image_report

    def forbidden(*args):
        raise AssertionError("Fp/Dual element arithmetic was called")

    for cls, names in ELEMENT_ARITHMETIC.items():
        for name in names:
            monkeypatch.setattr(cls, name, forbidden)
    with pytest.raises(AssertionError):
        Fp(1, 5) * Fp(2, 5)

    F5 = PrimeField(5)
    v = Subspace.from_rows(F5, 4, [[1, 2, 0, 3], [0, 1, 4, 1]])
    for point in list(range(5)) + [INFINITY]:
        vanishing_sequence(v, point)
    plucker_check(v)
    w = wronskian(v)
    assert w
    assert poly_order_at(w, 2, F5, degree_bound=6) is not None
    assert hasse_derivative(w, 1, F5)
    assert Matrix.from_rows(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]]).det() == 0
    assert is_tame([0, 2, 5], 3) == (integer_determinant(
        binomial_matrix([0, 2, 5])) % 3 != 0)
    rep = census(make_standard_chain(2, 2, 1, 0, 2, 1), budget=1000,
                 experiments=True)
    assert rep.signature_graph["edges"]  # the exactify completions ran
    assert fr_image_report(2, 1, 2).equal
    dual_probe(3)


# (record, its required fields, its defaulted fields with their defaults),
# each in constructor order
RECORDS = [
    (ValidationReport, {}, {"violations": []}),
    (SignatureReport, {"f_ranks": (1, 0), "g_ranks": (0, 1), "exact": True},
     {}),
    (DecompositionReport,
     {"level": 1, "image_block": [[1, 0]], "kernel_block": [],
      "complement_block": [[0, 1]], "block_dims": (1, 0, 1)}, {}),
    (CensusReport, {"chain": {"n": 2}, "q": 2},
     {"points": 0, "exact": 0, "signatures": {}, "tangent_histogram": {},
      "signature_graph": None}),
    (RamificationData, {"point": "inf", "vanishing": (0, 2),
                        "ramification": (0, 1), "tame": True}, {}),
    (PluckerCertificate,
     {"genus": 0, "degree": 3, "r": 1, "bound": 4, "found_weight": 4,
      "separable": True, "all_inspected_tame": False, "inspected": [0, "inf"],
      "ramified": []}, {}),
    (ImageReport, {"d": 3, "r": 1, "q": 2},
     {"points": 0, "image_size": 0, "crude_pairs": 0, "refined_pairs": 0,
      "refined_points": 0, "equal": False, "fr_not_crude": [],
      "crude_not_fr": [], "preimage_counts": {},
      "refined_preimages_all_unique": False}),
    (DualProbeReport,
     {"p": 3, "d": 2, "r": 1, "linked_over_dual": True, "a_y": (0, 1),
      "a_z": (1, 2), "a_y_mod_eps": (0, 1), "a_z_mod_eps": (1, 2)}, {}),
]


@pytest.mark.parametrize("cls, required, defaults", RECORDS,
                         ids=[rec[0].__name__ for rec in RECORDS])
def test_report_records_behave_as_declared(cls, required, defaults):
    fields = dict(required, **defaults)
    rec = cls(*required.values())
    assert {name: getattr(rec, name) for name in fields} == fields
    assert cls(**required) == rec
    assert cls(*fields.values()) == cls(**fields) == rec
    assert not cls(**fields) != rec
    for name in fields:
        assert cls(**dict(fields, **{name: object()})) != rec, name
    assert rec != tuple(fields.values()) and rec != object()
    other = next(c for c, r, _ in RECORDS if c is not cls)
    assert rec.__eq__(other.__new__(other)) is NotImplemented
    assert repr(rec) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % item for item in fields.items()))
    with pytest.raises(TypeError):
        hash(rec)
    for name, default in defaults.items():
        if isinstance(default, (list, dict)):
            assert getattr(cls(**required), name) is not \
                getattr(cls(**required), name), name


# (record, its as_dict) for each record of RECORDS: every field by name,
# tuples written as lists, nested records by their own dicts, and each
# report's extra or reshaped keys
AS_DICTS = [
    (ValidationReport(), {"ok": True, "violations": []}),
    (ValidationReport([{"condition": "f*g", "index": 0, "detail": "x",
                        "witness": [1, 0]}]),
     {"ok": False, "violations": [{"condition": "f*g", "index": 0,
                                   "detail": "x", "witness": [1, 0]}]}),
    (SignatureReport((1, 0), (0, 1), True),
     {"f_ranks": [1, 0], "g_ranks": [0, 1], "exact": True}),
    (DecompositionReport(1, [(1, 0)], [], [(0, 1), (1, 1)], (1, 0, 2)),
     {"level": 1, "image_block": [[1, 0]], "kernel_block": [],
      "complement_block": [[0, 1], [1, 1]], "block_dims": [1, 0, 2]}),
    (CensusReport({"n": 2}, 2),
     {"schema_version": 1, "chain": {"n": 2}, "q": 2, "points": 0,
      "exact": 0, "signatures": [], "tangent_histogram": []}),
    (CensusReport({"n": 2}, 3, 9, 7,
                  {((1, 2), (0, 1)): 3, ((0, 1), (1, 0)): 4}, {4: 1, 2: 8},
                  {"nodes": [[[0, 1], [1, 0]]], "edges": []}),
     {"schema_version": 1, "chain": {"n": 2}, "q": 3, "points": 9,
      "exact": 7, "signatures": [[[[0, 1], [1, 0]], 4], [[[1, 2], [0, 1]], 3]],
      "tangent_histogram": [[2, 8], [4, 1]],
      "signature_graph": {"nodes": [[[0, 1], [1, 0]]], "edges": []}}),
    (RamificationData("inf", (0, 2), (0, 1), True),
     {"point": "inf", "vanishing": [0, 2], "ramification": [0, 1],
      "tame": True}),
    (PluckerCertificate(0, 3, 1, 4, 4, True, False, [0, "inf"],
                        [RamificationData(0, (1, 3), (1, 2), False)]),
     {"schema_version": 1, "genus": 0, "degree": 3, "r": 1, "bound": 4,
      "found_weight": 4, "separable": True, "all_inspected_tame": False,
      "inspected": [0, "inf"],
      "ramified": [{"point": 0, "vanishing": [1, 3], "ramification": [1, 2],
                    "tame": False}]}),
    (ImageReport(3, 1, 2),
     {"schema_version": 1, "d": 3, "r": 1, "q": 2, "points": 0,
      "image_size": 0, "crude_pairs": 0, "refined_pairs": 0,
      "refined_points": 0, "equal": False, "fr_not_crude": [],
      "crude_not_fr": [], "preimage_counts": [],
      "refined_preimages_all_unique": False}),
    (ImageReport(1, 0, 2, 3, 2, 2, 1, 1, True, [], [[[2, 0, 1], [2, 1, 0]]],
                 {((2, 1, 0), (2, 0, 1)): 2, ((2, 0, 1), (2, 1, 0)): 1},
                 True),
     {"schema_version": 1, "d": 1, "r": 0, "q": 2, "points": 3,
      "image_size": 2, "crude_pairs": 2, "refined_pairs": 1,
      "refined_points": 1, "equal": True, "fr_not_crude": [],
      "crude_not_fr": [[[2, 0, 1], [2, 1, 0]]],
      "preimage_counts": [[[[2, 0, 1], [2, 1, 0]], 1],
                          [[[2, 1, 0], [2, 0, 1]], 2]],
      "refined_preimages_all_unique": True}),
    (DualProbeReport(3, 2, 0, True, (1,), (0,), (2,), (0,)),
     {"schema_version": 1, "p": 3, "d": 2, "r": 0, "linked_over_dual": True,
      "a_y": [1], "a_z": [0], "a_y_mod_eps": [2], "a_z_mod_eps": [0],
      "first_order_sum": 1, "d_inequality_holds": False,
      "d_minus_1_inequality_holds": True}),
]


@pytest.mark.parametrize("rec, expected", AS_DICTS,
                         ids=[type(rec).__name__ for rec, _ in AS_DICTS])
def test_report_records_write_their_dicts(rec, expected):
    # == tells a list from a tuple, at every depth
    assert rec.as_dict() == expected
    assert {cls for cls, _, _ in RECORDS} == {type(r) for r, _ in AS_DICTS}
