"""Field arithmetic: frozen examples, axioms, Lagrange weights, counting."""

import random
import re

import pytest

from gaskit.field import (
    FieldElement,
    MulCounter,
    Prime,
    batch_inverse,
    is_probable_prime,
    json_int,
    json_object,
    json_str,
    lagrange_coeff,
    lagrange_coeff_at_zero,
    lagrange_weight,
    lagrange_weights,
)

F17 = Prime(17)
F2027 = Prime(2027)


def el(v, q=F17):
    return FieldElement(v, q)


# --- primality ------------------------------------------------------------

def test_prime_accepts_primes():
    for p in (3, 17, 257, 2017, 2027, 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF):
        assert is_probable_prime(p)


def test_prime_rejects_composites():
    for n in (1, 4, 561, 2035, 2047, 10**10):  # 561 is a Carmichael number
        assert not is_probable_prime(n)
    with pytest.raises(ValueError):
        Prime(15)
    with pytest.raises(ValueError):
        Prime(2)  # < 3


# --- frozen operation examples ---------------------------------------------

def test_add_examples():
    assert (el(5) + el(13)).residue == 1
    assert (el(0) + el(9)).residue == 9
    assert (el(16) + el(1)).residue == 0


def test_mul_examples():
    assert (el(5) * el(7)).residue == 1  # 35 mod 17
    assert (el(1) * el(12)).residue == 12
    assert (el(0) * el(12)).residue == 0


def test_inv_examples():
    assert el(5).inv().residue == 7  # 5*7 = 35 = 1 mod 17
    assert el(1).inv().residue == 1
    with pytest.raises(ZeroDivisionError):
        el(0).inv()


def test_lagrange_examples():
    xs = [el(1), el(2)]
    assert lagrange_coeff_at_zero(0, xs).residue == 2   # -2/(1-2)
    assert lagrange_coeff_at_zero(1, xs).residue == 16  # -1/(2-1) = -1
    assert lagrange_coeff_at_zero(0, [el(5)]).residue == 1  # empty product


def test_lagrange_duplicate_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        lagrange_coeff_at_zero(0, [el(3), el(3)])
    with pytest.raises(IndexError):
        lagrange_coeff_at_zero(2, [el(1), el(2)])
    with pytest.raises(ValueError):
        lagrange_coeff_at_zero(0, [])


def test_lagrange_weight_matches_field_element_reference():
    # each plain-int weight is the residue of lagrange_coeff, at 0, at any
    # point and at a node; the points share one denominator, so k points
    # tally (k+1)(m-1) + k, and one point the 2m-1 of lagrange_coeff
    rng = random.Random(31)
    secp160_n = Prime(0x0100000000000000000001F4C8F927AED3CA752257)
    for _ in range(300):
        q = rng.choice([F17, Prime(37), F2027, secp160_n])
        m = rng.randrange(1, 10)
        xs = [FieldElement(v, q) for v in rng.sample(range(1, min(q.value, 10**6)), m)]
        ats = [FieldElement(rng.choice([0, rng.randrange(q.value), rng.choice(xs).residue]), q)
               for _ in range(rng.randrange(1, 4))]
        k = len(ats)
        for i in range(m):
            with MulCounter() as ref_ops:
                want = [lagrange_coeff(i, xs, at).residue for at in ats]
            with MulCounter() as ops:
                got = lagrange_weight(i, [x.residue for x in xs], [at.residue for at in ats],
                                      q.value)
            assert got == want
            assert ref_ops.field_muls == k * (2 * m - 1)
            assert ops.field_muls == (k + 1) * (m - 1) + k
            if k == 1:
                assert ops.field_muls == ref_ops.field_muls


def test_lagrange_weight_rejects_duplicates_and_bad_idx():
    with pytest.raises(ValueError, match="duplicate x-coordinate 3"):
        lagrange_weight(0, [3, 5, 20], [0, 4], 17)  # 20 = 3 mod 17
    with pytest.raises(IndexError):
        lagrange_weight(2, [1, 2], [0], 17)
    with pytest.raises(IndexError):
        lagrange_weight(-1, [1, 2], [0], 17)
    with pytest.raises(IndexError):
        lagrange_weight(0, [], [0], 17)


def test_lagrange_weights_match_lagrange_weight():
    # one batch inversion gives every weight of the set, each equal to
    # lagrange_weight's, at 0, at any point and at a node; m^2 + 6m muls
    rng = random.Random(37)
    secp160_n = Prime(0x0100000000000000000001F4C8F927AED3CA752257)
    for _ in range(300):
        q = rng.choice([F17, Prime(37), F2027, secp160_n]).value
        m = rng.randrange(1, 13)
        xs = rng.sample(range(1, min(q, 10**6)), m)
        at = rng.choice([0, rng.randrange(q), rng.choice(xs)])
        want = [lagrange_weight(i, xs, [at], q)[0] for i in range(m)]
        with MulCounter() as ops:
            assert lagrange_weights(xs, at, q) == want
        assert ops.field_muls == m * m + 6 * m
    assert lagrange_weights([], 0, 17) == []


def test_lagrange_weights_reject_duplicates():
    with pytest.raises(ValueError, match="duplicate x-coordinate 3"):
        lagrange_weights([3, 5, 20], 0, 17)  # 20 = 3 mod 17
    with pytest.raises(ValueError, match="duplicate x-coordinate 5"):
        lagrange_weights([1, 5, 2, 5], 0, 17)


def test_batch_inverse_inverts_each_nonzero_and_keeps_zero():
    rng = random.Random(3)
    for p in (17, 2027, 0x0100000000000000000001F4C8F927AED3CA752257):
        zs = [rng.randrange(p) for _ in range(20)] + [0, 1, p - 1]
        rng.shuffle(zs)
        assert batch_inverse(zs, p) == [pow(z, -1, p) if z else 0 for z in zs]
    assert batch_inverse([], 17) == []


# --- modulus discipline ----------------------------------------------------

def test_cross_modulus_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        el(1) + FieldElement(1, F2027)
    with pytest.raises(ValueError, match="mismatch"):
        el(1) * FieldElement(1, F2027)
    with pytest.raises(TypeError):
        el(1) + 3


def test_residue_reduced_and_immutable():
    assert el(40).residue == 6
    assert el(-1).residue == 16
    with pytest.raises(AttributeError):
        el(1).residue = 5


def test_field_element_pickles_and_copies_as_an_immutable_equal():
    import copy
    import pickle

    for x in (el(0), el(16), FieldElement(2026, F2027)):
        for again in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert again == x and hash(again) == hash(x)
            assert again.modulus.byte_length == x.modulus.byte_length
            with pytest.raises(AttributeError, match="immutable"):
                again.residue = 5
            for name in ("residue", "modulus"):
                with pytest.raises(AttributeError, match="immutable"):
                    delattr(again, name)
            assert (again * x).residue == x.residue**2 % x.modulus.value


# --- axioms (randomized) ----------------------------------------------------

@pytest.mark.parametrize("qv", [17, 2027, 37])
def test_field_axioms(qv):
    q = Prime(qv)
    rng = random.Random(qv)
    for _ in range(1000):
        a, b, c = (q.random_element(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_inverse_exhaustive_small_fields():
    for qv in (37, 257):
        q = Prime(qv)
        one = FieldElement(1, q)
        for a in range(1, qv):
            assert FieldElement(a, q).inv() * FieldElement(a, q) == one


def test_lagrange_partition_of_unity():
    rng = random.Random(99)
    for _ in range(500):
        q = Prime(rng.choice([37, 257, 2027]))
        k = rng.randrange(1, 8)
        xs_vals = rng.sample(range(1, q.value), k)
        xs = [FieldElement(v, q) for v in xs_vals]
        total = FieldElement(0, q)
        for i in range(k):
            total = total + lagrange_coeff_at_zero(i, xs)
        assert total.residue == 1


def test_lagrange_coeff_general_point():
    # interpolating f(x) = x at "at" must reproduce "at"
    q = Prime(37)
    xs = [FieldElement(v, q) for v in (1, 5, 9)]
    at = FieldElement(20, q)
    acc = FieldElement(0, q)
    for i, x in enumerate(xs):
        acc = acc + x * lagrange_coeff(i, xs, at)
    assert acc == at


# --- counting ---------------------------------------------------------------

def test_counter_counts_muls():
    with MulCounter() as ops:
        el(5) * el(7)
        el(2) * el(3)
    assert ops.field_muls == 2
    assert ops.ec_scalar_muls == 0


def test_counter_ignores_inversions():
    with MulCounter() as ops:
        el(5).inv()
    assert ops.field_muls == 0


def test_counter_scoped():
    el(5) * el(7)  # no active counter: must not raise
    with MulCounter() as outer:
        el(5) * el(7)
        with MulCounter() as inner:
            el(5) * el(7)
        el(5) * el(7)
    assert inner.field_muls == 1
    assert outer.field_muls == 2


# --- checked decoders --------------------------------------------------------

def test_element_accepts_exactly_the_residues():
    assert [F17.element(v) for v in range(17)] == [el(v) for v in range(17)]
    for v in (-17, -1, 17, 18, 34):
        with pytest.raises(ValueError, match="out of field range"):
            F17.element(v)


def test_from_bytes_is_the_checked_inverse_of_to_bytes():
    for v in range(2027):
        assert F2027.from_bytes(el(v, F2027).to_bytes()) == el(v, F2027)
    # too short, too long (padded), p itself, above p
    for data in (b"", b"\x07", b"\x00\x00\x07", (2027).to_bytes(2, "big"), b"\xff\xff"):
        with pytest.raises(ValueError):
            F2027.from_bytes(data)


def test_byte_length_at_width_boundaries():
    secp160r1_p = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF7FFFFFFF
    secp160r1_n = 0x0100000000000000000001F4C8F927AED3CA752257
    widths = {251: 1, 257: 2, 65521: 2, 65537: 3, secp160r1_p: 20, secp160r1_n: 21}
    for p, width in widths.items():
        q = Prime(p)
        assert q.byte_length == width
        assert len(FieldElement(p - 1, q).to_bytes()) == width


def test_json_int_takes_ints_and_decimal_strings_only():
    assert [json_int(v, "p") for v in (0, 7, -3, "0", "2017", "-37", "007")] == [
        0, 7, -3, 0, 2017, -37, 7,
    ]
    for bad in (1.9, 2.0, True, False, None, "1.9", "0x10", " 7", "+7", "1_000", "", "-",
                "\u0663", [1], {"v": 1}):
        with pytest.raises(ValueError, match="p must be an integer or a decimal string"):
            json_int(bad, "p")


def test_json_shapes_raise_value_error():
    record = {"p": "23", "q": "11"}
    assert json_object(record, "modulus", ("p", "q")) is record
    assert json_str("U1", "member id") == "U1"
    for bad, problem in [
        (lambda: json_object([1, 2], "modulus", ("p",)), "modulus must be a JSON object, got list"),
        (lambda: json_object({"q": "11"}, "modulus", ("p", "q")),
         "modulus missing fields: ['p']"),
        (lambda: json_str(5, "member id"), "member id must be a string, got 5"),
        (lambda: json_str(None, "member id"), "member id must be a string, got None"),
    ]:
        with pytest.raises(ValueError, match=re.escape(problem)):
            bad()
