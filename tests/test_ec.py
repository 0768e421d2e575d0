"""Curve group law against hand oracles, exhaustive small-curve checks, the
affine reference implementation and `cryptography`'s native P-256 ECDH."""

import dataclasses
import random

import pytest
from cryptography.hazmat.primitives.asymmetric import ec as crypto_ec

from gaskit import field
from gaskit.ec import (
    _GM_WINDOW,
    _NAF_MIN_BITS,
    _WINDOW,
    BUILTIN_CURVES,
    CurveParams,
    CurvePoint,
    _affine_result,
    _double,
    _double_a3,
    _fixed_base,
    _interleaved,
    _jacobian_at,
    _lockstep,
    _mul_many,
    _multi_scalar_jacobian,
    _naf4,
    _odd_multiples,
    brute_force_order,
    builtin_curve,
    check_affine_point,
    curve_from_dict,
    curve_to_dict,
    is_on_curve,
    scalar_mul,
)
from gaskit.field import FieldElement, MulCounter, Prime, is_probable_prime
from oracle import add, curve_point, mul, negate

TEST2017 = builtin_curve("test2017")
TOY5 = builtin_curve("toy5")

# group order of y^2 = x^3 + 6x + 36 mod 2017, pinned from exhaustive
# enumeration (5 * 11 * 37); the published generator spans the 37-subgroup
TEST2017_ORDER = 2035


def test_is_on_curve_examples():
    assert is_on_curve(curve_point(TEST2017, 0, 6), TEST2017)
    assert not is_on_curve(curve_point(TEST2017, 0, 7), TEST2017)
    assert is_on_curve(CurvePoint(None, None), TEST2017)


def test_identity_and_inverse():
    p = curve_point(TEST2017, 0, 6)
    inf = CurvePoint(None, None)
    assert add(p, inf, TEST2017) == p
    assert add(inf, p, TEST2017) == p
    assert add(p, negate(p), TEST2017) == inf


def test_doubling_matches_hand_oracle():
    # lambda = (3x^2 + A) / (2y) evaluated with plain integers
    p_mod = 2017
    lam = (3 * 0 * 0 + 6) * pow(2 * 6, -1, p_mod) % p_mod
    x3 = (lam * lam - 0 - 0) % p_mod
    y3 = (lam * (0 - x3) - 6) % p_mod
    doubled = add(curve_point(TEST2017, 0, 6), curve_point(TEST2017, 0, 6), TEST2017)
    assert (doubled.x.residue, doubled.y.residue) == (x3, y3) == (1513, 246)


def test_scalar_mul_edges():
    g = TEST2017.generator
    assert scalar_mul(1, g, TEST2017) == g
    assert scalar_mul(0, g, TEST2017).is_infinity
    assert scalar_mul(TEST2017.subgroup_order, g, TEST2017).is_infinity
    # the brute-forced full group order annihilates every point
    assert scalar_mul(TEST2017_ORDER, g, TEST2017).is_infinity
    assert scalar_mul(TEST2017_ORDER, curve_point(TEST2017, 0, 6), TEST2017).is_infinity
    with pytest.raises(ValueError):
        scalar_mul(-1, g, TEST2017)


def test_brute_force_order_regression():
    assert brute_force_order(TEST2017) == TEST2017_ORDER
    assert TEST2017_ORDER == 5 * 11 * 37
    assert TEST2017_ORDER % TEST2017.subgroup_order == 0


def test_toy5_order_by_hand_enumeration():
    # independent oracle: walk all 25 candidate pairs
    count = 1
    for x in range(5):
        for y in range(5):
            if (y * y - (x**3 + 1)) % 5 == 0:
                count += 1
    assert count == 6
    assert brute_force_order(TOY5) == count


def test_brute_force_rejects_large_modulus():
    with pytest.raises(ValueError, match="too large"):
        brute_force_order(builtin_curve("secp160r1"))


def test_singular_curve_rejected():
    p = Prime(5)
    with pytest.raises(ValueError, match="singular"):
        CurveParams(
            a=FieldElement(0, p),
            b=FieldElement(0, p),
            modulus=p,
            generator=CurvePoint(FieldElement(0, p), FieldElement(0, p)),
        )


def test_generator_must_lie_on_curve():
    p = Prime(2017)
    with pytest.raises(ValueError, match="not on the curve"):
        CurveParams(
            a=FieldElement(6, p),
            b=FieldElement(36, p),
            modulus=p,
            generator=CurvePoint(FieldElement(0, p), FieldElement(7, p)),
        )


def test_off_curve_inputs_rejected():
    bad = curve_point(TEST2017, 0, 6)
    wrong = CurvePoint(FieldElement(0, Prime(2017)), FieldElement(7, Prime(2017)))
    with pytest.raises(ValueError, match="not on curve"):
        add(bad, wrong, TEST2017)
    with pytest.raises(ValueError, match="not on curve"):
        scalar_mul(3, wrong, TEST2017)


def _toy5_points():
    pts = [CurvePoint(None, None)]
    for x in range(5):
        for y in range(5):
            if (y * y - (x**3 + 1)) % 5 == 0:
                pts.append(curve_point(TOY5, x, y))
    return pts


def test_toy5_group_exhaustive():
    pts = _toy5_points()
    for a in pts:
        for b in pts:
            s = add(a, b, TOY5)
            assert is_on_curve(s, TOY5)
            assert s in pts
            assert s == add(b, a, TOY5)
    for a in pts:
        for b in pts:
            for c in pts:
                assert add(add(a, b, TOY5), c, TOY5) == add(a, add(b, c, TOY5), TOY5)


def _random_point(rng, curve):
    return scalar_mul(rng.randrange(1, curve.order), curve_point(curve, 0, 6), curve)


def test_closure_and_associativity_random():
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (_random_point(rng, TEST2017) for _ in range(3))
        assert is_on_curve(add(a, b, TEST2017), TEST2017)
        assert add(a, b, TEST2017) == add(b, a, TEST2017)
        assert add(add(a, b, TEST2017), c, TEST2017) == add(a, add(b, c, TEST2017), TEST2017)


def test_scalar_additivity():
    rng = random.Random(6)
    g = TEST2017.generator
    for _ in range(500):
        a = rng.randrange(0, 200)
        b = rng.randrange(0, 200)
        lhs = scalar_mul(a + b, g, TEST2017)
        rhs = add(scalar_mul(a, g, TEST2017), scalar_mul(b, g, TEST2017), TEST2017)
        assert lhs == rhs


def test_scalar_mul_matches_repeated_addition():
    acc = CurvePoint(None, None)
    g = TEST2017.generator
    for k in range(51):
        assert scalar_mul(k, g, TEST2017) == acc
        acc = add(acc, g, TEST2017)


def test_scalar_mul_counts_one_tem():
    # loading a curve checks n * G = O on the variable-base path, untallied
    with MulCounter() as ops:
        curve_from_dict(curve_to_dict(TEST2017))
    assert (ops.ec_scalar_muls, ops.field_muls) == (0, 0)
    g = TEST2017.generator
    # fixed base: 23 = 0o27, two digits, so one mixed addition, then affine
    with MulCounter() as ops:
        scalar_mul(23, g, TEST2017)
    assert (ops.ec_scalar_muls, ops.field_muls) == (1, 11 + 4)
    # variable base: 23 = 0b10111, 4 doublings and 3 mixed additions, then affine
    pt = scalar_mul(5, g, TEST2017)
    with MulCounter() as ops:
        scalar_mul(23, pt, TEST2017)
    assert (ops.ec_scalar_muls, ops.field_muls) == (1, 4 * 10 + 3 * 11 + 4)
    # variable base, long scalar on secp160r1 (a = -3): the width-4 NAF
    curve = builtin_curve("secp160r1")
    pt = scalar_mul(5, curve.generator, curve)
    k = random.Random(23).randrange(2**159, curve.subgroup_order)
    with MulCounter() as ops:
        scalar_mul(k, pt, curve)
    assert (ops.ec_scalar_muls, ops.field_muls) == (1, _naf_a3_muls(k))


def test_scalar_mul_of_zero_or_infinity_counts_one_tem_and_no_field_mul():
    # k = 0 of the generator on the fixed base, and of another point or of a
    # generator without subgroup_order on the variable base; infinity on a
    # curve with subgroup_order and on one without: one TEM, no loop
    bare = dataclasses.replace(TEST2017, order=None, subgroup_order=None)
    inf = CurvePoint(None, None)
    pt = scalar_mul(5, TEST2017.generator, TEST2017)
    cases = [(0, TEST2017.generator, TEST2017), (0, pt, TEST2017), (0, bare.generator, bare),
             (0, inf, TEST2017), (7, inf, TEST2017), (7, inf, bare)]
    for k, point, curve in cases:
        with MulCounter() as ops:
            assert scalar_mul(k, point, curve).is_infinity
        assert (ops.ec_scalar_muls, ops.field_muls) == (1, 0), (k, point)


def _ref_naf4(k):
    """Width-4 NAF digits of k, least significant first, one per position."""
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k % 16 - 16 if k % 16 > 8 else k % 16
            k -= d
        digits.append(d)
        k //= 2
    return digits


def _interleaved_muls(terms, curve):
    """Tally of `_multi_scalar_mul(terms, curve)`, rebuilt on the affine
    reference from the digits of each k: `_ref_naf4` from 32 bits on when
    one term is left after dropping k = 0 and infinity, from 8 bits on when
    more are, binary below, and binary for every term when such a k has a
    point of order 2, 3, 5 or 7, which has no table.  Otherwise each such point's
    table of P, 3P, 5P, 7P costs one affine doubling and three affine
    additions, 7 + 3 * 6.  One shared doubling per position under the
    highest top digit: 8 when the curve has a = -3, 10 otherwise.  Per
    nonzero digit, in term order at each position: nothing into infinity,
    4 and a doubling for P + P, 4 for P + (-P), 11 otherwise.  Then 4 to return a
    finite sum to affine."""
    p = curve.modulus.value
    terms = [(k, pt) for k, pt in terms if k and not pt.is_infinity]
    if not terms:
        return 0
    min_bits = 32 if len(terms) == 1 else 8
    long = [pt for k, pt in terms if k.bit_length() >= min_bits]
    naf = not any(_ref_scalar_mul(d, pt, curve).is_infinity for pt in long for d in (2, 3, 5, 7))
    muls = (7 + 3 * 6) * len(long) if naf else 0
    def recode(k):
        if naf and k.bit_length() >= min_bits:
            return _ref_naf4(k)
        return [int(b) for b in bin(k)[:1:-1]]

    rows = [(recode(k), pt) for k, pt in terms]
    dbl = 8 if (curve.a.residue + 3) % p == 0 else 10
    top = max(len(digits) for digits, _ in rows) - 1
    muls += dbl * top
    acc = CurvePoint(None, None)
    for pos in range(top, -1, -1):
        if pos < top:
            acc = _ref_add(acc, acc, curve)
        for digits, pt in rows:
            d = digits[pos] if pos < len(digits) else 0
            if not d:
                continue
            addend = _ref_scalar_mul(abs(d), pt, curve)
            addend = addend if d > 0 else negate(addend)
            if acc.is_infinity:
                pass
            elif acc == addend:
                muls += 4 + dbl
            elif acc == negate(addend):
                muls += 4
            else:
                muls += 11
            acc = _ref_add(acc, addend, curve)
    return muls + (0 if acc.is_infinity else 4)


def _naf_a3_muls(k):
    """Tally of k * P on the NAF path of an a = -3 curve, when P has a table
    and no P + P or P + (-P) occurs: the table (one affine doubling, 7, and
    three affine additions, 6 each), 8 per doubling, 11 per mixed addition,
    4 to return to affine."""
    digits = _ref_naf4(k)
    nonzero = sum(1 for d in digits if d)
    return 7 + 3 * 6 + 8 * (len(digits) - 1) + 11 * (nonzero - 1) + 4


def test_secp160r1_parameters_validate():
    curve = builtin_curve("secp160r1")
    assert curve.order == curve.subgroup_order  # prime order, cofactor 1
    assert curve.modulus.value.bit_length() == 160
    assert curve.modulus.byte_length == 20
    # n * G = infinity is checked at construction; spot-check a multiple
    assert not scalar_mul(12345, curve.generator, curve).is_infinity


def test_curve_dict_roundtrip(tmp_path):
    data = curve_to_dict(TEST2017)
    again = curve_from_dict(data, name="test2017")
    assert again.generator == TEST2017.generator
    assert again.subgroup_order == TEST2017.subgroup_order
    with pytest.raises(ValueError, match="missing field"):
        curve_from_dict({"p": "2017"})
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_curve("nope")


@pytest.mark.parametrize("key", ["A", "B", "Gx", "Gy"])
def test_curve_from_dict_rejects_values_outside_field(key):
    # v + p would reduce to the same curve and generator
    for shift in (2017, -2017):
        data = curve_to_dict(TEST2017)
        data[key] = str(int(data[key]) + shift)
        with pytest.raises(ValueError, match="out of field range"):
            curve_from_dict(data)


@pytest.mark.parametrize(("key", "bad"), [("p", 2017.2), ("Gx", 1368.7), ("A", True),
                                          ("subgroup_order", True)])
def test_curve_from_dict_rejects_non_integer_numbers(key, bad):
    # int() would truncate 2017.2 to p = 2017 and coerce true to 1
    data = curve_to_dict(TEST2017)
    data[key] = bad
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        curve_from_dict(data)


def test_load_curve_from_file(tmp_path):
    import json

    from gaskit.ec import load_curve

    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve_to_dict(TEST2017)))
    loaded = load_curve(path)
    assert loaded.generator == TEST2017.generator
    assert loaded.modulus.value == 2017
    assert loaded.subgroup_order == 37


def test_subgroup_order_validated():
    for sub, keep_order in [
        ("41", True),  # prime, but does not annihilate G
        # prime and divides the group order 2035, but 11 * G != O: a check
        # that reduced the scalar mod subgroup_order first would pass it
        ("11", True),
        ("11", False),
        ("0", True),
        ("-37", True),
    ]:
        data = curve_to_dict(TEST2017)
        data["subgroup_order"] = sub
        if not keep_order:
            del data["order"]
        with pytest.raises(ValueError, match="annihilate"):
            curve_from_dict(data)


def test_subgroup_order_must_be_prime():
    # 2035 = 5 * 11 * 37 is the group order itself: it annihilates G and
    # divides the order, so only the primality test refuses it at load
    data = dict(curve_to_dict(TEST2017), subgroup_order="2035")
    with pytest.raises(ValueError, match="subgroup_order 2035 is not a prime"):
        curve_from_dict(data)
    # (4, 0) of toy5 has order 2: prime, but below a field modulus's 3
    data = dict(curve_to_dict(TOY5), Gx="4", Gy="0", subgroup_order="2")
    with pytest.raises(ValueError, match="subgroup_order 2 is not a prime >= 3"):
        curve_from_dict(data)


def test_curve_from_dict_refuses_a_non_object():
    with pytest.raises(ValueError, match="curve file must be a JSON object, got list"):
        curve_from_dict([curve_to_dict(TEST2017)])


@pytest.mark.parametrize(("key", "value", "problem"), [
    # optional keys are absent only when missing or null: 0 and "0" are values
    ("subgroup_order", 0, "annihilate"),
    ("order", 0, "group order must be >= 1, got 0"),
    ("order", "0", "group order must be >= 1, got 0"),
    ("order", "-2035", "group order must be >= 1, got -2035"),
])
def test_curve_from_dict_refuses_zero_and_negative_orders(key, value, problem):
    data = curve_to_dict(TEST2017)
    data[key] = value
    with pytest.raises(ValueError, match=problem):
        curve_from_dict(data)


@pytest.mark.parametrize("order", [37, 4070, 1924, 2109])
def test_curve_from_dict_refuses_an_order_outside_the_hasse_interval(order):
    # multiples of n = 37 all: 37 (cofactor 1) would switch off the subgroup
    # test, and 1924 and 2109 are the nearest multiples outside p + 1 +- 2 sqrt(p)
    data = dict(curve_to_dict(TEST2017), order=str(order))
    with pytest.raises(ValueError, match=f"order {order} is outside the Hasse interval"):
        curve_from_dict(data)
    with pytest.raises(ValueError, match="Hasse"):
        dataclasses.replace(TEST2017, order=order)


def test_curve_from_dict_refuses_an_order_other_than_the_point_count():
    # n^2 <= 16p on test2017, so four multiples of 37 fit the Hasse
    # interval; the points are counted, and only the true order 2035 loads
    p = TEST2017.modulus.value
    inside = [k * 37 for k in range(1, 100) if (k * 37 - p - 1) ** 2 <= 4 * p]
    assert inside == [1961, 1998, TEST2017_ORDER, 2072]
    assert curve_from_dict(curve_to_dict(TEST2017)).order == TEST2017_ORDER
    for order in (1961, 1998, 2072):
        with pytest.raises(ValueError, match=f"^order {order} is not the point count 2035$"):
            curve_from_dict(dict(curve_to_dict(TEST2017), order=str(order)))
        with pytest.raises(ValueError, match=f"^order {order} is not"):
            dataclasses.replace(TEST2017, order=order)


def test_curve_params_refuses_an_order_it_cannot_count():
    # y^2 = x^3 + x over p = 1000003 = 3 mod 4 is supersingular, of order
    # p + 1 = 4 * 53^2 * 89: n = 53 leaves 75 multiples in the Hasse
    # interval, and p is above the point count's 10^6 limit
    fp = Prime(1000003)
    p, order = fp.value, fp.value + 1
    x = next(x for x in range(1, p) if pow(x**3 + x, (p - 1) // 2, p) == 1)
    y = pow(x**3 + x, (p + 1) // 4, p)
    curve = CurveParams(a=fp.element(1), b=fp.element(0), modulus=fp,
                        generator=CurvePoint(fp.element(x), fp.element(y)))
    gen = scalar_mul(order // 53, curve.generator, curve)
    assert not gen.is_infinity
    with pytest.raises(ValueError, match=f"^order {order} cannot be checked: n = 53 "):
        dataclasses.replace(curve, generator=gen, order=order, subgroup_order=53)
    # without a stated order the n (x, y) subgroup test stands alone
    assert dataclasses.replace(curve, generator=gen, subgroup_order=53).order is None


@pytest.mark.parametrize(("key", "value", "bits"), [
    ("p", 2**521 + 1, 522),
    ("p", 2**9689 - 1, 9689),  # a Mersenne prime
    ("subgroup_order", 2**600 + 1, 601),
], ids=["p-522", "p-9689", "subgroup_order-601"])
def test_curve_from_dict_caps_bits_before_any_primality_test(monkeypatch, key, value, bits):
    def refuse(n):
        raise AssertionError(f"primality test of a {n.bit_length()}-bit number")

    monkeypatch.setattr(field, "is_probable_prime", refuse)
    data = dict(curve_to_dict(TEST2017), **{key: str(value)})
    with pytest.raises(ValueError, match=f"^{key} has {bits} bits, above 521$"):
        curve_from_dict(data)


def test_curve_from_dict_lets_a_521_bit_p_through_the_cap():
    # the Mersenne prime 2^521 - 1 is P-521's p; the file fails later, on G
    data = dict(curve_to_dict(TEST2017), p=str(2**521 - 1), order=None, subgroup_order=None)
    with pytest.raises(ValueError, match="generator is not on the curve"):
        curve_from_dict(data)


def test_curve_from_dict_reads_name_as_a_string():
    data = dict(curve_to_dict(TEST2017), name=[1])
    with pytest.raises(ValueError, match=r"name must be a string, got \[1\]"):
        curve_from_dict(data)
    assert curve_from_dict(dict(data, name=None)).name == ""
    assert curve_from_dict(dict(data, name="mine")).name == "mine"


def test_curve_from_dict_reads_null_orders_as_absent():
    data = dict(curve_to_dict(TEST2017), order=None, subgroup_order=None)
    curve = curve_from_dict(data)
    assert curve.order is None and curve.subgroup_order is None
    with pytest.raises(ValueError, match="group order must be >= 1"):
        dataclasses.replace(curve, order=-TEST2017_ORDER)


# --- differential checks against the affine reference --------------------------------
#
# The chord-tangent group law over FieldElement objects and right-to-left
# double-and-add, an oracle independent of the integer Jacobian core.  Its
# FieldElement arithmetic tallies each multiplication itself.

def _ref_add(p1, p2, curve):
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    if p1.x == p2.x:
        if (p1.y + p2.y).residue == 0:
            return CurvePoint(None, None)
        two = FieldElement(2, curve.modulus)
        three = FieldElement(3, curve.modulus)
        lam = (three * p1.x * p1.x + curve.a) * (two * p1.y).inv()
    else:
        lam = (p2.y - p1.y) * (p2.x - p1.x).inv()
    x3 = lam * lam - p1.x - p2.x
    y3 = lam * (p1.x - x3) - p1.y
    return CurvePoint(x3, y3)


def _ref_scalar_mul(k, pt, curve):
    acc = CurvePoint(None, None)
    addend = pt
    while k:
        if k & 1:
            acc = _ref_add(acc, addend, curve)
        k >>= 1
        if k:
            addend = _ref_add(addend, addend, curve)
    return acc


def _edge_scalars(curve):
    n = curve.subgroup_order
    return [0, 1, 2, n - 1, n, n + 1, 2 * n - 1] + ([curve.order] if curve.order else [])


def _long_scalars(rng, order=None):
    """Scalars on the NAF path: random 64- and 200-bit ones and, for a
    point of small order, a run through every residue mod that order."""
    scalars = [rng.getrandbits(64) | 1 << 63, rng.getrandbits(200) | 1 << 199]
    if order is not None:
        base = (rng.getrandbits(64) | 1 << 63) // order * order
        scalars += [base + j for j in range(-1, order + 1)]
    assert min(scalars).bit_length() >= _NAF_MIN_BITS
    return scalars


def _assert_scalar_muls_match(pt, scalars, curve):
    for k in scalars:
        assert scalar_mul(k, pt, curve) == _ref_scalar_mul(k, pt, curve), (k, pt)


def _test2017_points():
    roots = {}
    for y in range(2017):
        roots.setdefault(y * y % 2017, []).append(y)
    return [curve_point(TEST2017, x, y) for x in range(2017)
            for y in roots.get((x**3 + 6 * x + 36) % 2017, [])]


def _test2017_torsion():
    """The 55-torsion of test2017, 37 times every point, by point order."""
    by_order = {}
    for pt in {scalar_mul(37, pt, TEST2017) for pt in _test2017_points()}:
        by_order.setdefault(_order(pt, TEST2017), []).append(pt)
    return by_order


def _subgroup_of(points, curve):
    """The affine (x, y) among `points` whose order divides the curve's
    subgroup order, by repeated addition; all of them when it has none."""
    n = curve.subgroup_order
    return {(x, y) for x, y in points if n is None or n % _order(curve_point(curve, x, y), curve) == 0}


def _order(pt, curve):
    k = 1
    acc = pt
    while not acc.is_infinity:
        acc = add(acc, pt, curve)
        k += 1
    return k


@pytest.mark.parametrize("name", ["test2017", "secp160r1", "toy5", "p256"])
def test_scalar_mul_matches_reference_on_builtin_curves(name):
    curve = _p256_curve() if name == "p256" else builtin_curve(name)
    rng = random.Random(name)
    bound = curve.order or curve.subgroup_order
    points = [curve.generator] + [
        scalar_mul(rng.randrange(1, bound), curve.generator, curve) for _ in range(3)
    ]
    for pt in points:
        randoms = [rng.randrange(1, 2**curve.modulus.value.bit_length()) for _ in range(4)]
        _assert_scalar_muls_match(pt, _edge_scalars(curve) + randoms + _long_scalars(rng), curve)


def test_scalar_mul_matches_reference_on_every_toy5_point():
    # order 6 with a Y = 0 point, so doubling to infinity, P + P and
    # P + (-P) all occur inside the double-and-add loop; on the NAF path the
    # Y = 0 point's 2P, from which the table is built, is infinity
    rng = random.Random(6)
    pts = _toy5_points()
    assert any(not pt.is_infinity and pt.y.residue == 0 for pt in pts)
    for pt in pts:
        _assert_scalar_muls_match(pt, list(range(40)) + _long_scalars(rng, 6), TOY5)


def test_scalar_mul_matches_reference_on_small_order_test2017_points():
    # cofactor 55: multiplying by 37 lands in the 55-torsion, whose points
    # have order 1, 5, 11 or 55; on the NAF path, 5T = O, 7T = -4T, ... put
    # infinity into the table and P + P or P + (-P) into the loop
    rng = random.Random(55)
    pts = _test2017_points()
    by_order = _test2017_torsion()
    assert sorted(by_order) == [1, 5, 11, 55]
    for order in (5, 11, 55):
        for pt in by_order[order][:4]:
            _assert_scalar_muls_match(
                pt, list(range(3 * order)) + _long_scalars(rng, order), TEST2017
            )
    for pt in rng.sample(pts, 100):
        _assert_scalar_muls_match(pt, _edge_scalars(TEST2017) + [rng.randrange(2**11)], TEST2017)


@pytest.mark.parametrize("name", ["test2017", "secp160r1", "toy5"])
def test_add_matches_reference_and_its_tally(name):
    curve = builtin_curve(name)
    rng = random.Random(name)
    if name == "toy5":
        pts = _toy5_points()
    else:
        bound = curve.order or curve.subgroup_order
        pts = [scalar_mul(rng.randrange(1, bound), curve.generator, curve) for _ in range(6)]
        pts += [CurvePoint(None, None)] + [negate(pt) for pt in pts[:2]]
    for p1 in pts:
        for p2 in pts:
            with MulCounter() as ops:
                got = add(p1, p2, curve)
            with MulCounter() as ref_ops:
                want = _ref_add(p1, p2, curve)
            assert got == want
            assert ops.field_muls == ref_ops.field_muls


# --- P-256 against cryptography's native ECDH ------------------------------------------
#
# A test-only curve: p and n from SEC 2 / FIPS 186-4, G from the library
# itself, b derived from G and y^2 = x^3 - 3x + b.  CurveParams checks
# n * G = O on construction, so a wrong n fails here.

P256_P = 2**256 - 2**224 + 2**192 + 2**96 - 1
P256_N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551


def _p256_curve():
    g = crypto_ec.derive_private_key(1, crypto_ec.SECP256R1()).public_key().public_numbers()
    b = (g.y * g.y - g.x**3 + 3 * g.x) % P256_P
    assert b == 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
    return curve_from_dict(
        {"p": str(P256_P), "A": str(P256_P - 3), "B": str(b), "Gx": str(g.x),
         "Gy": str(g.y), "order": str(P256_N), "subgroup_order": str(P256_N)},
        name="p256-test",
    )


def test_p256_ecdh_matches_cryptography():
    curve = _p256_curve()
    rng = random.Random(256)
    for _ in range(8):
        d_a, d_b = (rng.randrange(1, P256_N) for _ in range(2))
        priv_a = crypto_ec.derive_private_key(d_a, crypto_ec.SECP256R1())
        pub_b = crypto_ec.derive_private_key(d_b, crypto_ec.SECP256R1()).public_key()
        nums = pub_b.public_numbers()
        q_b = curve_point(curve, nums.x, nums.y)
        assert scalar_mul(d_b, curve.generator, curve) == q_b
        shared = scalar_mul(d_a, q_b, curve)
        assert shared.x.to_bytes() == priv_a.exchange(crypto_ec.ECDH(), pub_b)


# --- the fixed-base path for the generator ----------------------------------------------

def _fresh_curve(name):
    """A new `CurveParams`, so that no other test has built its table yet."""
    if name == "p256":
        return _p256_curve()
    return curve_from_dict(curve_to_dict(builtin_curve(name)), name=name)


def _fixed_base_muls(k, curve, window=3):
    """Tally of k * G on the fixed-base path of that window when no P + P or
    P + (-P) occurs."""
    k %= curve.subgroup_order
    digits = 0
    while k:
        digits += bool(k % (1 << window))
        k >>= window
    return 11 * (digits - 1) + 4 if digits else 0


@pytest.mark.parametrize("name", ["test2017", "secp160r1", "toy5", "p256"])
def test_fixed_base_matches_reference(name):
    curve = _fresh_curve(name)
    assert "_generator_table" not in vars(curve)  # built on first use, not on load
    g = _fresh_curve(name).generator
    assert g == curve.generator and g is not curve.generator
    rng = random.Random(name)
    randoms = [rng.randrange(2**curve.modulus.value.bit_length()) for _ in range(8)]
    for k in _edge_scalars(curve) + randoms:
        assert scalar_mul(k, g, curve) == _ref_scalar_mul(k, curve.generator, curve), k
    assert "_generator_table" in vars(curve)


def test_fixed_base_tally_and_config_roundtrip():
    # the first call builds the table inside the counter: the build tallies
    # nothing, the call only its mixed additions and the return to affine
    curve = _fresh_curve("secp160r1")
    n = curve.subgroup_order
    rng = random.Random(160)
    k = rng.randrange(1, n)
    with MulCounter() as ops:
        scalar_mul(k, curve.generator, curve)
    assert (ops.ec_scalar_muls, ops.field_muls) == (1, _fixed_base_muls(k, curve))
    # a generator that arrives as an equal but distinct point, built from
    # its residues, takes the same path
    g = curve_point(curve, curve.generator.x.residue, curve.generator.y.residue)
    assert g is not curve.generator
    for k in [rng.randrange(1, n) for _ in range(20)] + [n + 1, 2 * n - 1, 2**200 + 3]:
        with MulCounter() as ops:
            got = scalar_mul(k, g, curve)
        assert got == _ref_scalar_mul(k % n, curve.generator, curve)
        assert (ops.ec_scalar_muls, ops.field_muls) == (1, _fixed_base_muls(k, curve))


@pytest.mark.parametrize("name", BUILTIN_CURVES)
def test_gm_table_rows_match_oracle(name):
    # T[j][d] = d * B_j with B_0 = G and B_j = 2^w B_(j-1): the batched
    # build checked entry by entry, None where a multiple wraps to infinity
    curve = _fresh_curve(name)
    table = curve._gm_table
    n = curve.subgroup_order
    rows = -(-n.bit_length() // _GM_WINDOW)
    assert len(table) == rows
    # the top row stops at the top digit of n - 1, the largest that a
    # scalar reduced mod n has: on the small curves n < 2^w, so one row of
    # n entries; on secp160r1 (161 bits) a 21st row of 2
    top = (n - 1) >> _GM_WINDOW * (rows - 1)
    assert len(table[-1]) == top + 1 == {"secp160r1": 2}.get(name, n)
    base = curve.generator
    for j, row in enumerate(table):
        if j:
            for _ in range(_GM_WINDOW):
                base = add(base, base, curve)
        assert len(row) == (top + 1 if j == rows - 1 else 1 << _GM_WINDOW)
        assert row[0] is None
        want = CurvePoint(None, None)
        for d, entry in enumerate(row[1:], start=1):
            want = add(want, base, curve)
            got = CurvePoint(None, None) if entry is None else curve_point(curve, *entry)
            assert got == want, (j, d)


@pytest.mark.parametrize("name", BUILTIN_CURVES)
def test_fixed_base_reads_the_last_entry_of_each_table(name):
    # n - 1 has the top digit the short top row ends at, on the members'
    # table and on the GM's
    curve = _fresh_curve(name)
    n = curve.subgroup_order
    want = _ref_scalar_mul(n - 1, curve.generator, curve)
    for table, window in ((curve._generator_table, _WINDOW), (curve._gm_table, _GM_WINDOW)):
        assert _affine_result(*_fixed_base(n - 1, curve, table, window), curve) == want


def test_madd_doubles_p_plus_p_with_the_curves_formula():
    # two equal terms meet P + P in `_madd`: on secp160r1 (a = -3) it
    # doubles with dbl-2001-b, 4 + 8 multiplications, not the general 4 + 10
    curve = builtin_curve("secp160r1")
    p, a = curve.modulus.value, curve.a.residue
    g = curve.generator
    gx, gy = g.x.residue, g.y.residue
    # k = 1: G + G; k = 3: G + G, one doubling, then two general additions
    for k, muls in [(1, 4 + 8), (3, 4 + 8 + 8 + 2 * 11)]:
        X, Y, Z, got = _interleaved([(k, gx, gy), (k, gx, gy)], a, p)
        assert got == muls
        assert _affine_result(X, Y, Z, 0, curve) == mul(2 * k, g, curve)


# --- the width-4 NAF variable-base path -------------------------------------------------

def test_naf4_recoding():
    rng = random.Random(4)
    scalars = list(range(1, 600)) + [2**k + e for k in (31, 64, 160) for e in (-1, 0, 1)]
    scalars += [rng.getrandbits(bits) | 1 for bits in (32, 64, 161, 256) for _ in range(50)]
    for k in scalars:
        digits = _naf4(k)
        assert sum(d << pos for pos, d in digits) == k
        assert all(d % 2 == 1 and abs(d) < 8 for _, d in digits)
        positions = [pos for pos, _ in digits]
        assert all(hi - lo >= 4 for lo, hi in zip(positions, positions[1:]))
        assert digits[-1][1] > 0
        dense = _ref_naf4(k)
        assert [(pos, d) for pos, d in enumerate(dense) if d] == digits


@pytest.mark.parametrize("name", ["secp160r1", "p256"])
def test_a3_doubling_matches_general_doubling(name):
    curve = _p256_curve() if name == "p256" else builtin_curve(name)
    p, a = curve.modulus.value, curve.a.residue
    assert a == p - 3
    rng = random.Random("dbl" + name)
    inputs = []
    for _ in range(20):
        pt = scalar_mul(rng.randrange(1, curve.subgroup_order), curve.generator, curve)
        z = rng.randrange(1, p)
        inputs.append((pt.x.residue * z * z % p, pt.y.residue * z**3 % p, z))
    inputs += [(rng.randrange(p), rng.randrange(p), 0) for _ in range(5)]  # infinity
    inputs += [(rng.randrange(p), 0, rng.randrange(1, p)) for _ in range(5)]  # Y = 0
    for X, Y, Z in inputs:
        got = _double_a3(X, Y, Z, a, p)
        assert got == _double(X, Y, Z, a, p)
        if not Y or not Z:
            assert got[2] == 0


def test_naf_path_on_every_point_of_a_small_a3_curve():
    # y^2 = x^3 - 3x + 4 mod 23 has order 30 = 2 * 3 * 5, so points of order
    # 2, 3, 5, 6, 10, 15 and 30.  Those of order 2, 3 and 5 have no table of
    # P, 3P, 5P, 7P and run binary digits; the rest run the NAF
    curve = curve_from_dict({"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"})
    assert brute_force_order(curve) == 30
    rng = random.Random(23)
    pts = [curve_point(curve, x, y) for x in range(23) for y in range(23)
           if is_on_curve(curve_point(curve, x, y), curve)]
    assert sorted({_order(pt, curve) for pt in pts}) == [2, 3, 5, 6, 10, 15, 30]
    for pt in pts:
        _assert_scalar_muls_match(pt, _long_scalars(rng, 30), curve)


# --- multi-scalar multiplication ---------------------------------------------------------

A3_MOD_23 = {"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"}


def _ref_multi(terms, curve):
    total = CurvePoint(None, None)
    for k, pt in terms:
        total = _ref_add(total, _ref_scalar_mul(k, pt, curve), curve)
    return total


def _multi_scalar_mul(terms, curve):
    """sum k_i P_i over terms (k_i >= 0, P_i on the curve) through
    `ec._multi_scalar_jacobian`, the loop `gas_core.decentralized_verify`
    runs, returned to affine as `scalar_mul` returns: one TEM per term.
    A term with k = 0 or infinity is dropped before the loop, which takes
    k >= 1 and finite points, and counts its one TEM as `scalar_mul` does."""
    ints = [(k, pt.x.residue, pt.y.residue) for k, pt in terms if k and not pt.is_infinity]
    field.tally_tems(len(terms) - len(ints))
    X, Y, Z, muls = _multi_scalar_jacobian(ints, curve)
    return _affine_result(X, Y, Z, muls, curve)


def test_odd_multiples_match_reference_and_refuse_orders_2_3_5_7():
    # alone and in batches: the table is +-d P for d = 1, 3, 5, 7, each point
    # in its own column, and None exactly when the batch has a point of
    # order 2, 3, 5 or 7
    a3 = curve_from_dict(A3_MOD_23)
    secp = builtin_curve("secp160r1")
    rng = random.Random("odd")
    torsion = [pt for order, pts in _test2017_torsion().items() if order > 1 for pt in pts]
    cases = [
        (TOY5, _toy5_points()[1:]),
        (a3, [curve_point(a3, x, y) for x in range(23) for y in range(23)
              if is_on_curve(curve_point(a3, x, y), a3)]),
        (TEST2017, torsion),
        (secp, [scalar_mul(rng.randrange(1, secp.subgroup_order), secp.generator, secp)
                for _ in range(4)]),
    ]
    for curve, pts in cases:
        p, a = curve.modulus.value, curve.a.residue
        small = [curve is not secp and _order(pt, curve) in (2, 3, 5, 7) for pt in pts]
        assert any(small) == (curve is not secp)
        batches = [[i] for i in range(len(pts))]
        batches += [list(range(len(pts))), [i for i in range(len(pts)) if not small[i]]]
        for batch in batches:
            table = _odd_multiples([(pts[i].x.residue, pts[i].y.residue) for i in batch], a, p)
            if any(small[i] for i in batch):
                assert table is None, batch
                continue
            assert sorted(table) == [-7, -5, -3, -1, 1, 3, 5, 7]
            for d, column in table.items():
                want = [_ref_scalar_mul(abs(d), pts[i], curve) for i in batch]
                want = [pt if d > 0 else negate(pt) for pt in want]
                assert column == [(pt.x.residue, pt.y.residue) for pt in want], (d, batch)


@pytest.mark.parametrize("name", ["test2017", "secp160r1", "toy5", "p256", "a3-mod-23"])
def test_multi_scalar_mul_matches_reference(name):
    # on test2017, every point of order 5, 11 and 55 is a term: one of order
    # 5 has no table, so a call that gives it a long k runs every term on
    # binary digits, and the loop meets P + P and P + (-P)
    if name == "a3-mod-23":
        curve = curve_from_dict(A3_MOD_23)
        pts = [curve_point(curve, x, y) for x in range(23) for y in range(23)
               if is_on_curve(curve_point(curve, x, y), curve)]
    elif name == "toy5":
        curve, pts = TOY5, _toy5_points()
    else:
        curve = _p256_curve() if name == "p256" else builtin_curve(name)
        rng = random.Random(name)
        pts = [scalar_mul(rng.randrange(1, curve.subgroup_order), curve.generator, curve)
               for _ in range(5)] + [curve.generator]
        if name == "test2017":
            by_order = _test2017_torsion()
            pts += by_order[5] + by_order[11] + by_order[55]
            assert len(pts) == 6 + 4 + 10 + 40
    rng = random.Random("msm" + name)
    for _ in range(2):
        short = [(rng.randrange(2**12), pt) for pt in pts]
        long = [(rng.getrandbits(rng.choice((64, 200))) | 1 << 63, pt) for pt in pts]
        mixed = [rng.choice((a, b)) for a, b in zip(short, long)]
        for terms in (short, long, mixed):
            with MulCounter() as ops:
                got = _multi_scalar_mul(terms, curve)
            assert got == _ref_multi(terms, curve)
            assert ops.field_muls == _interleaved_muls(terms, curve)


@pytest.mark.parametrize("name", ["test2017", "secp160r1"])
def test_multi_scalar_mul_edge_terms(name):
    curve = builtin_curve(name)
    n = curve.subgroup_order
    rng = random.Random("edge" + name)
    pt, other = (scalar_mul(rng.randrange(1, n), curve.generator, curve) for _ in range(2))
    short, long = rng.randrange(2, 2**12), rng.getrandbits(160) | 1 << 159
    inf = CurvePoint(None, None)
    cancelling = [[(k, pt), (k, negate(pt))] for k in (short, long)]
    cases = cancelling + [
        [],
        [(0, pt)],
        [(0, pt), (short, other)],
        [(n, pt)],
        [(n + 1, pt), (2 * n - 1, other), (curve.order, pt)],
        [(short, inf)],
        [(long, inf), (short, pt)],
        [(short, pt), (short, pt)],  # P + P in `_madd`
        [(long, pt), (long, pt)],
        [(short, pt), (long, other), (1, pt), (long, curve.generator), (2**31, other)],
        [(2**7 - 1, pt), (2**7, other), (2**8 - 1, pt)],  # binary, then NAF from 8 bits
    ]
    for terms in cases:
        with MulCounter() as ops:
            got = _multi_scalar_mul(terms, curve)
        assert got == _ref_multi(terms, curve), terms
        assert ops.ec_scalar_muls == len(terms)
        assert ops.field_muls == _interleaved_muls(terms, curve)
    for terms in cancelling + [[]]:
        assert _multi_scalar_mul(terms, curve).is_infinity


@pytest.mark.parametrize("name", ["test2017", "secp160r1", "toy5", "a3-mod-23"])
def test_one_term_multi_scalar_mul_is_scalar_mul(name):
    # every scalar_mul but the generator's is this one-term call
    rng = random.Random("one" + name)
    if name == "a3-mod-23":
        curve = curve_from_dict(A3_MOD_23)
        pts = [curve_point(curve, x, y) for x in range(23) for y in range(23)
               if is_on_curve(curve_point(curve, x, y), curve)]
        scalars = []
    else:
        curve = builtin_curve(name)
        pts = [scalar_mul(rng.randrange(2, curve.order), curve.generator, curve)
               for _ in range(4)]
        scalars = _edge_scalars(curve)
    if name == "test2017":
        pts += _test2017_torsion()[55][:4]
    scalars += [0, 1, 2, 3, 2**31 - 1, 2**31, 2**32 + 1, rng.getrandbits(160)]
    scalars += _long_scalars(rng)
    for pt in pts:
        if pt == curve.generator:  # the fixed-base path
            continue
        for k in scalars:
            with MulCounter() as want_ops:
                want = scalar_mul(k, pt, curve)
            with MulCounter() as ops:
                got = _multi_scalar_mul([(k, pt)], curve)
            assert got == want == _ref_scalar_mul(k, pt, curve), (k, pt)
            assert (ops.ec_scalar_muls, ops.field_muls) == (1, want_ops.field_muls)
            assert want_ops.ec_scalar_muls == 1


@pytest.mark.parametrize("name", ["test2017", "secp160r1", "p256"])
def test_multi_scalar_mul_tally_matches_recount(name):
    # m terms share one run of doublings: well under m single TEMs
    curve = _p256_curve() if name == "p256" else builtin_curve(name)
    rng = random.Random("tally" + name)
    n = curve.subgroup_order
    for m in (1, 2, 9, 30):
        terms = [(rng.randrange(n), scalar_mul(rng.randrange(1, n), curve.generator, curve))
                 for _ in range(m)]
        with MulCounter() as ops:
            _multi_scalar_mul(terms, curve)
        with MulCounter() as single_ops:
            for k, pt in terms:
                scalar_mul(k, pt, curve)
        assert ops.ec_scalar_muls == single_ops.ec_scalar_muls == m
        assert ops.field_muls == _interleaved_muls(terms, curve)
        if m > 2 and name != "test2017":
            assert ops.field_muls < single_ops.field_muls / 2


def _prime_above(p):
    """The least prime above p, as a `Prime`: a field other than p's."""
    return Prime(next(v for v in range(p + 1, 2 * p) if is_probable_prime(v)))


@pytest.mark.parametrize("name", ["test2017", "secp160r1"])
def test_jacobian_at_matches_affine_equality(name):
    # (X : Y : Z) against an affine point's ints, without inverting Z:
    # every Jacobian form of P equals P and nothing else, infinity equals
    # no affine point, and the 4 multiplications of the return to affine
    # are tallied whatever the verdict
    curve = builtin_curve(name)
    p, n = curve.modulus.value, curve.subgroup_order
    rng = random.Random("jacobian" + name)
    pt, other = (scalar_mul(rng.randrange(2, n), curve.generator, curve) for _ in range(2))
    candidates = [(c.x.residue, c.y.residue) for c in (pt, negate(pt), other)]
    x, y = candidates[0]
    for z in (1, 2, p - 1, rng.randrange(2, p)):
        jacobian = (x * z * z % p, y * z**3 % p, z)
        for cand in candidates:
            with MulCounter() as ops:
                got = _jacobian_at(*jacobian, 7, *cand, p)
            assert got == (cand == (x, y)), (z, cand)
            assert ops.field_muls == 7 + 4
    for cand in candidates:
        with MulCounter() as ops:
            assert _jacobian_at(1, 1, 0, 7, *cand, p) is False
        assert ops.field_muls == 7


def _lockstep_digits(k):
    """The digits `_lockstep` runs, one per position, least significant
    first: `_ref_naf4` from 32 bits on, binary below."""
    return _ref_naf4(k) if k.bit_length() >= 32 else [int(b) for b in bin(k)[:1:-1]]


def _lockstep_runs(k, order):
    """Whether the affine lockstep of k >= 1 runs through for a point of this
    order.  On the NAF, building 2P, 3P, 5P and 7P meets infinity, P + P or
    P - P just for orders 2, 3, 5 and 7.  Then the running multiple j never
    has 2j = 0 (doubling a point with y = 0), and no addition of d has
    j = +-d (P + P or P - P) or d = 0 (adding infinity), all mod the order."""
    digits = _lockstep_digits(k)
    if k.bit_length() >= 32 and order in (2, 3, 5, 7):
        return False
    j = digits[-1]
    if j % order == 0:
        return False
    for d in reversed(digits[:-1]):
        if 2 * j % order == 0:
            return False
        j *= 2
        if d and (d % order == 0 or (j - d) % order == 0 or (j + d) % order == 0):
            return False
        j += d
    return True


def _lockstep_muls(k, count):
    """Tally of a `_lockstep` of `count` points that runs
    through: per point 7 per affine doubling and 6 per affine addition, on
    a width-4 NAF first one doubling and three additions for the table
    of P, 3P, 5P, 7P, then one of each per position and nonzero digit after
    the top one.  The same on every curve: the affine doubling does not
    depend on a."""
    digits = _lockstep_digits(k)
    nonzero = sum(1 for d in digits if d)
    table = 7 + 3 * 6 if k.bit_length() >= 32 else 0
    return count * (table + 7 * (len(digits) - 1) + 6 * (nonzero - 1))


def _assert_many_is_per_point(k, pts, orders, curve):
    """`_lockstep` of k >= 1 and finite points: when every point's pass runs
    through, per-point `scalar_mul` in values, one TEM per point and the
    lockstep recount as its tally; otherwise None, with nothing recorded.
    Returns whether it ran through."""
    with MulCounter() as ops:
        got = _lockstep(k, [(pt.x.residue, pt.y.residue) for pt in pts], curve)
    runs = all(_lockstep_runs(k, order) for order in orders)
    if runs:
        assert [curve_point(curve, x, y) for x, y in got] == [
            scalar_mul(k, pt, curve) for pt in pts], (k, pts)
        assert ops.ec_scalar_muls == len(pts)
        assert ops.field_muls == _lockstep_muls(k, len(pts)), (k, pts)
    else:
        assert got is None, (k, pts)
        assert (ops.ec_scalar_muls, ops.field_muls) == (0, 0)
    return runs


@pytest.mark.parametrize("name", ["toy5", "test2017", "secp160r1"])
def test_scalar_mul_many_matches_scalar_mul(name):
    curve = builtin_curve(name)
    n = curve.subgroup_order
    rng = random.Random("many" + name)
    if name == "toy5":  # orders 2, 3 and 6: most k return None
        pts = _toy5_points()[1:]  # without infinity
        orders = [_order(pt, curve) for pt in pts]
    else:
        pts = [scalar_mul(rng.randrange(1, n), curve.generator, curve) for _ in range(6)]
        orders = [n] * len(pts)
    scalars = [1, 2, n - 1, n, n + 1, rng.randrange(3, 2**12), rng.getrandbits(160) | 1 << 159]
    for k in scalars:
        assert _assert_many_is_per_point(k, [], [], curve)
        for count in (1, 2, len(pts)):
            runs = _assert_many_is_per_point(k, pts[:count], orders[:count], curve)
            if name != "toy5" and k < n:  # prime order: these k run through
                assert runs
    # the generator among the points
    if name != "toy5":
        k = rng.getrandbits(160) | 1 << 159
        _assert_many_is_per_point(k, [pts[0], curve.generator, pts[1]], [n, n, n], curve)


def test_mul_many_meets_a_zero_denominator_at_a_prime_order_point():
    # secp160r1's n = 7 mod 16: the NAF of n - 14 drives the running
    # multiple of a point of prime order onto +-d, a zero denominator, with
    # no small order involved; of k = n - 1 ... n - 39 only n - 14 does
    curve = builtin_curve("secp160r1")
    n = curve.subgroup_order
    rng = random.Random("n-14")
    pts = [scalar_mul(rng.randrange(1, n), curve.generator, curve) for _ in range(3)]
    xys = [(pt.x.residue, pt.y.residue) for pt in pts]
    with MulCounter() as ops:
        assert _lockstep(n - 14, xys, curve) is None
    assert (ops.ec_scalar_muls, ops.field_muls) == (0, 0)
    # in the code and in the recount's model alike
    assert [j for j in range(1, 40) if _lockstep(n - j, xys, curve) is None] == [14]
    assert [j for j in range(1, 40) if not _lockstep_runs(n - j, n)] == [14]


def test_scalar_mul_many_falls_back_on_torsion_points():
    # test2017's 5-, 11- and 55-torsion among honest points of order 37:
    # the lockstep meets infinity, P + P or P - P and returns None; short,
    # NAF and order-spanning scalars
    rng = random.Random("many-torsion")
    by_order = _test2017_torsion()
    honest = [scalar_mul(rng.randrange(1, 37), TEST2017.generator, TEST2017) for _ in range(3)]
    fell_back = ran = 0
    for order in (5, 11, 55):
        for torsion in by_order[order][:3]:
            pts = [honest[0], torsion, honest[1], honest[2]]
            orders = [37, order, 37, 37]
            for k in list(range(1, 3 * order)) + _long_scalars(rng, order):
                if _assert_many_is_per_point(k, pts, orders, TEST2017):
                    ran += 1
                else:
                    fell_back += 1
    assert fell_back > 200 and ran > 200


def test_mul_many_runs_one_point_and_a_failed_lockstep_as_scalar_mul():
    # one point, and every point of a lockstep pass that meets a zero
    # denominator, give what `scalar_mul` gives each point, None for
    # infinity, with its TEMs and tally; two or more points whose pass runs
    # through give the lockstep's values and tally, one TEM per point
    secp = builtin_curve("secp160r1")
    n = secp.subgroup_order
    rng = random.Random("mul-many")
    pts = [scalar_mul(rng.randrange(1, n), secp.generator, secp) for _ in range(3)]
    torsion = _test2017_torsion()[5][0]  # order 5: 5T and 10T are infinity
    honest = scalar_mul(3, TEST2017.generator, TEST2017)
    cases = [(secp, k, pts[:1]) for k in (1, 2**31, rng.randrange(2**159, n), n - 14)]
    cases += [(secp, n - 14, pts), (TEST2017, 5, [honest, torsion]),
              (TEST2017, 10, [torsion]), (TEST2017, 3, [torsion])]
    for curve, k, group in cases:
        xys = [(pt.x.residue, pt.y.residue) for pt in group]
        assert len(group) == 1 or _lockstep(k, xys, curve) is None
        with MulCounter() as ops:
            got = _mul_many(k, xys, curve)
        with MulCounter() as want_ops:
            want = [scalar_mul(k, pt, curve) for pt in group]
        assert got == [None if w.is_infinity else (w.x.residue, w.y.residue) for w in want]
        assert (ops.ec_scalar_muls, ops.field_muls) == (
            want_ops.ec_scalar_muls, want_ops.field_muls), (k, group)
        assert ops.ec_scalar_muls == len(group)
    k = rng.randrange(2**159, n)
    with MulCounter() as ops:
        got = _mul_many(k, [(pt.x.residue, pt.y.residue) for pt in pts], secp)
    with MulCounter() as want_ops:
        assert got == _lockstep(k, [(pt.x.residue, pt.y.residue) for pt in pts], secp)
    assert (ops.ec_scalar_muls, ops.field_muls) == (
        want_ops.ec_scalar_muls, want_ops.field_muls) == (3, _lockstep_muls(k, 3))
    assert _mul_many(k, [], secp) == []


def test_curve_point_equality_contract():
    g = TEST2017.generator
    gx, gy = g.x.residue, g.y.residue
    fresh = Prime(2017)  # equal to the curve's modulus, not the same instance
    same = CurvePoint(FieldElement(gx, fresh), FieldElement(gy, fresh))
    assert same == g and not same != g and hash(same) == hash(g)
    assert len({g, same, curve_point(TEST2017, gx, gy)}) == 1
    # the same residues over another field are another point
    other = Prime(2027)
    for x, y in ((other, other), (other, fresh), (fresh, other)):
        pt = CurvePoint(FieldElement(gx, x), FieldElement(gy, y))
        assert pt != g and g != pt and not pt == g
    assert g != curve_point(TEST2017, gx, 2017 - gy) and g != curve_point(TEST2017, gy, gx)
    # infinity equals only infinity
    inf = CurvePoint(None, None)
    assert inf == CurvePoint(None, None) and hash(inf) == hash(CurvePoint(None, None))
    assert inf != g and g != inf and not inf == g
    # anything that is not a point compares unequal, with no error
    for alien in ((gx, gy), (g.x, g.y), None, 0, "G"):
        assert g != alien and alien != g and not g == alien
    assert inf != None and inf != (None, None)  # noqa: E711


def test_field_element_equality_contract():
    cached = field.cached_prime(37)
    fresh = Prime(37)  # equal to the cached modulus, not the same instance
    assert fresh is not cached
    a, same = FieldElement(5, cached), FieldElement(5, fresh)
    assert a == same and not a != same and hash(a) == hash(same)
    assert len({a, same, cached.element(5), FieldElement(42, fresh)}) == 1
    # the same residue over another prime is another element
    other = FieldElement(5, Prime(41))
    assert a != other and other != a and not a == other
    assert a != FieldElement(6, fresh) and FieldElement(6, fresh) != a
    # anything that is not an element compares unequal, with no error
    for alien in (5, (5, 37), (5, fresh), None, TEST2017.generator):
        assert a != alien and alien != a and not a == alien


def test_curve_point_pickles_and_copies_as_an_immutable_equal():
    import copy
    import pickle

    pts = [TEST2017.generator, curve_point(TEST2017, 0, 6), CurvePoint(None, None)]
    for pt in pts:
        for again in (pickle.loads(pickle.dumps(pt)), copy.copy(pt), copy.deepcopy(pt)):
            assert again == pt and hash(again) == hash(pt)
            assert again.is_infinity == pt.is_infinity
            with pytest.raises(AttributeError, match="immutable"):
                again.x = None
            for name in ("x", "y"):
                with pytest.raises(AttributeError, match="immutable"):
                    delattr(again, name)
            assert again == pt
    assert scalar_mul(5, copy.deepcopy(TEST2017.generator), TEST2017) == scalar_mul(
        5, TEST2017.generator, TEST2017)


# --- boundary decoder ----------------------------------------------------------------

@pytest.mark.parametrize("curve", [
    TOY5,
    curve_from_dict({"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"}),
], ids=["toy5", "a3-mod-23"])
def test_affine_point_accepts_exactly_the_affine_points(curve):
    # toy5 (order 6) publishes a generator of order n = 3: its points of
    # order 2 and 6 are on the curve but refused; a3-mod-23 publishes no n
    p, a, b = curve.modulus.value, curve.a.residue, curve.b.residue
    affine = {(x, y) for x in range(p) for y in range(p)
              if (y * y - x**3 - a * x - b) % p == 0}
    assert len(affine) + 1 == brute_force_order(curve)  # plus infinity
    subgroup = _subgroup_of(affine, curve)
    assert len(subgroup) + 1 == (curve.subgroup_order or brute_force_order(curve))
    for x in range(p):
        for y in range(p):
            if (x, y) in subgroup:
                check_affine_point(x, y, curve)
            elif (x, y) in affine:
                with pytest.raises(ValueError, match="outside the subgroup"):
                    check_affine_point(x, y, curve)
            else:
                with pytest.raises(ValueError, match="off-curve"):
                    check_affine_point(x, y, curve)
    # -1 and p would reduce to valid coordinates; decoding refuses them first
    for x, y in affine:
        for bad in ((-1, y), (p, y), (x, -1), (x, p)):
            with pytest.raises(ValueError, match="out of field range"):
                check_affine_point(*bad, curve)


@pytest.mark.parametrize("curve", [
    TOY5,
    curve_from_dict({"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"}),
], ids=["toy5", "a3-mod-23"])
def test_is_on_curve_is_affine_points_predicate_on_both_fields(curve):
    # a subgroup point is on the curve iff `check_affine_point` accepts its
    # residues and both coordinates are elements of the curve's own prime,
    # y as well as x; `check_affine_point` accepts no point outside the
    # subgroup
    fp = curve.modulus
    other = _prime_above(fp.value)
    for x in range(fp.value):
        for y in range(fp.value):
            try:
                check_affine_point(x, y, curve)
                accepted = True
            except ValueError:
                accepted = False
            on_curve = is_on_curve(curve_point(curve, x, y), curve)
            assert (on_curve and bool(_subgroup_of({(x, y)}, curve))) is accepted
            if accepted:
                for pt in (CurvePoint(fp.element(x), other.element(y)),
                           CurvePoint(other.element(x), fp.element(y))):
                    assert not is_on_curve(pt, curve)


@pytest.mark.parametrize("check", ["listed", "no-order", "n-above-list"])
def test_affine_point_subgroup_check_on_each_path(check, monkeypatch):
    # test2017's subgroup (n = 37) is listed; with no group order, or with n
    # above the listing's limit, check_affine_point multiplies by n instead,
    # and refuses and accepts the same points.  No path tallies.
    from gaskit import ec

    curve = dataclasses.replace(TEST2017, order=None if check == "no-order" else 2035)
    if check == "n-above-list":
        monkeypatch.setattr(ec, "_SUBGROUP_LIST_MAX", 36)
    subgroup = {scalar_mul(k, curve.generator, curve) for k in range(1, 37)}
    torsion = [pt for order, pts in _test2017_torsion().items() if order > 1 for pt in pts]
    mixed = [add(pt, curve.generator, curve) for pt in torsion]
    with MulCounter() as ops:
        for pt in subgroup:
            check_affine_point(pt.x.residue, pt.y.residue, curve)
        for pt in torsion + mixed:
            with pytest.raises(ValueError, match="outside the subgroup of order 37"):
                check_affine_point(pt.x.residue, pt.y.residue, curve)
    assert (ops.field_muls, ops.ec_scalar_muls) == (0, 0)
    assert (curve._subgroup_points is None) == (check != "listed")
    if check == "listed":
        assert curve._subgroup_points == {(pt.x.residue, pt.y.residue) for pt in subgroup}
        assert len(curve._subgroup_points) == 36


def test_listed_affine_point_check_matches_the_multiply_by_n_check(monkeypatch):
    # every affine point of test2017, the torsion included, and pairs off
    # the curve or out of range: the listing accepts the same pairs as the
    # n * (x, y) path and refuses the others with the same message
    from gaskit import ec

    p = TEST2017.modulus.value
    pairs = [(pt.x.residue, pt.y.residue) for pt in _test2017_points()]
    pairs += [bad for x, y in pairs[::7] for bad in ((p, y), (x, -1), (x, y + 1), (x + 1, y))]

    def outcomes(curve):
        def outcome(x, y):
            try:
                check_affine_point(x, y, curve)
            except ValueError as e:
                return str(e)
            return None
        return [outcome(x, y) for x, y in pairs]

    listed = dataclasses.replace(TEST2017)
    listed_outcomes = outcomes(listed)
    assert listed._subgroup_points is not None
    monkeypatch.setattr(ec, "_SUBGROUP_LIST_MAX", 0)
    multiplied = dataclasses.replace(TEST2017)
    assert outcomes(multiplied) == listed_outcomes
    assert multiplied._subgroup_points is None
    assert listed_outcomes.count(None) == 36
    assert {msg.split(")")[-1] for msg in listed_outcomes if msg and msg.startswith("point")} == {
        " is off-curve", " is outside the subgroup of order 37"}
    assert any(msg and "out of field range" in msg for msg in listed_outcomes)


def test_affine_point_with_cofactor_1_runs_no_subgroup_check(monkeypatch):
    from gaskit import ec

    curve = dataclasses.replace(builtin_curve("secp160r1"))
    monkeypatch.setattr(ec, "_interleaved", None)  # the n * C path would fail
    g = curve.generator
    check_affine_point(g.x.residue, g.y.residue, curve)
    assert curve._subgroup_points is None
