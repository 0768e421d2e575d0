"""Curve group law against hand oracles, exhaustive small-curve checks, the
affine reference implementation and `cryptography`'s native P-256 ECDH."""

import dataclasses
import random

import pytest
from cryptography.hazmat.primitives.asymmetric import ec as crypto_ec

from gaskit.ec import (
    _NAF_MIN_BITS,
    CurveParams,
    CurvePoint,
    _affine_result,
    _double,
    _double_a3,
    _jacobian_is,
    _multi_scalar_jacobian,
    _naf4,
    _odd_multiples,
    affine_point,
    brute_force_order,
    builtin_curve,
    curve_from_dict,
    curve_to_dict,
    is_on_curve,
    scalar_mul,
    scalar_mul_many,
)
from gaskit.field import FieldElement, MulCounter, Prime, active_counter, is_probable_prime
from oracle import add, curve_point

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
    assert add(p, _negate(p), TEST2017) == inf


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
    4 + 10 for P + P, 4 for P + (-P), 11 otherwise.  Then 4 to return a
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
            addend = addend if d > 0 else _negate(addend)
            if acc.is_infinity:
                pass
            elif acc == addend:
                muls += 4 + 10
            elif acc == _negate(addend):
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


def _negate(pt):
    if pt.is_infinity:
        return pt
    return CurvePoint(pt.x, -pt.y)


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
        pts += [CurvePoint(None, None)] + [_negate(pt) for pt in pts[:2]]
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


def _fixed_base_muls(k, curve):
    """Tally of k * G on the fixed-base path when no P + P or P + (-P) occurs."""
    k %= curve.subgroup_order
    digits = 0
    while k:
        digits += bool(k & 7)
        k >>= 3
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
    runs, returned to affine as `scalar_mul` returns: one TEM per term."""
    ints = [(k, pt.x.residue, pt.y.residue) for k, pt in terms if k and not pt.is_infinity]
    X, Y, Z, muls = _multi_scalar_jacobian(ints, len(terms), curve)
    return _affine_result(X, Y, Z, muls, curve, active_counter())


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
                want = [pt if d > 0 else _negate(pt) for pt in want]
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
    cancelling = [[(k, pt), (k, _negate(pt))] for k in (short, long)]
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
def test_jacobian_is_matches_affine_equality(name):
    # (X : Y : Z) against an affine point without inverting Z: every
    # Jacobian form of P equals P and nothing else, and the 4 multiplications
    # of the return to affine are tallied whatever the verdict
    curve = builtin_curve(name)
    p, n = curve.modulus.value, curve.subgroup_order
    rng = random.Random("jacobian" + name)
    pt, other = (scalar_mul(rng.randrange(2, n), curve.generator, curve) for _ in range(2))
    foreign = _prime_above(p)
    candidates = [
        pt, _negate(pt), other, CurvePoint(None, None),
        CurvePoint(*(foreign.element(c.residue) for c in (pt.x, pt.y))),
        CurvePoint(pt.x, foreign.element(pt.y.residue)),
    ]
    x, y = pt.x.residue, pt.y.residue
    for z in (1, 2, p - 1, rng.randrange(2, p)):
        jacobian = (x * z * z % p, y * z**3 % p, z)
        for cand in candidates:
            with MulCounter() as ops:
                got = _jacobian_is(*jacobian, 7, cand, curve)
            assert got == (cand == pt), (z, cand)
            assert ops.field_muls == 7 + 4
    for cand in candidates:
        with MulCounter() as ops:
            assert _jacobian_is(1, 1, 0, 7, cand, curve) == cand.is_infinity
        assert ops.field_muls == 7


def _lockstep_digits(k):
    """The digits `scalar_mul_many` runs, one per position, least significant
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
    """Tally of a `scalar_mul_many` of `count` finite points whose lockstep
    runs through: per point 7 per affine doubling and 6 per affine addition,
    on a width-4 NAF first one doubling and three additions for the table
    of P, 3P, 5P, 7P, then one of each per position and nonzero digit after
    the top one.  The same on every curve: the affine doubling does not
    depend on a."""
    if not k or not count:
        return 0
    digits = _lockstep_digits(k)
    nonzero = sum(1 for d in digits if d)
    table = 7 + 3 * 6 if k.bit_length() >= 32 else 0
    return count * (table + 7 * (len(digits) - 1) + 6 * (nonzero - 1))


def _assert_many_is_per_point(k, pts, orders, curve):
    """`scalar_mul_many` equals per-point `scalar_mul` in values and TEMs;
    its tally is the lockstep recount when every point's pass runs through
    and the per-point tallies otherwise.  Returns whether it ran through."""
    with MulCounter() as want_ops:
        want = [scalar_mul(k, pt, curve) for pt in pts]
    with MulCounter() as ops:
        got = scalar_mul_many(k, pts, curve)
    assert got == want, (k, pts)
    assert ops.ec_scalar_muls == want_ops.ec_scalar_muls == len(pts)
    finite = [order for pt, order in zip(pts, orders) if not pt.is_infinity]
    runs = len(pts) < 2 or not k or all(_lockstep_runs(k, order) for order in finite)
    if len(pts) >= 2 and runs:
        assert ops.field_muls == _lockstep_muls(k, len(finite)), (k, pts)
    else:
        assert ops.field_muls == want_ops.field_muls, (k, pts)
    return runs


@pytest.mark.parametrize("name", ["toy5", "test2017", "secp160r1"])
def test_scalar_mul_many_matches_scalar_mul(name):
    curve = builtin_curve(name)
    n = curve.subgroup_order
    rng = random.Random("many" + name)
    if name == "toy5":  # infinity and orders 2, 3 and 6: most k fall back
        pts = _toy5_points()
        orders = [_order(pt, curve) if not pt.is_infinity else 1 for pt in pts]
    else:
        pts = [scalar_mul(rng.randrange(1, n), curve.generator, curve) for _ in range(6)]
        orders = [n] * len(pts)
    scalars = [0, 1, 2, n - 1, n, n + 1, rng.randrange(3, 2**12), rng.getrandbits(160) | 1 << 159]
    for k in scalars:
        assert _assert_many_is_per_point(k, [], [], curve)
        for count in (1, 2, len(pts)):
            runs = _assert_many_is_per_point(k, pts[:count], orders[:count], curve)
            if name != "toy5" and 1 <= k < n:  # prime order: never degenerates
                assert runs
    # the generator and infinity among the points
    if name != "toy5":
        k = rng.getrandbits(160) | 1 << 159
        mixed = [pts[0], curve.generator, CurvePoint(None, None), pts[1]]
        _assert_many_is_per_point(k, mixed, [n, n, 1, n], curve)


def test_scalar_mul_many_falls_back_on_torsion_points():
    # test2017's 5-, 11- and 55-torsion among honest points of order 37:
    # the lockstep meets infinity, P + P or P - P and every point goes
    # through scalar_mul; short, NAF and order-spanning scalars
    rng = random.Random("many-torsion")
    by_order = _test2017_torsion()
    honest = [scalar_mul(rng.randrange(1, 37), TEST2017.generator, TEST2017) for _ in range(3)]
    fell_back = ran = 0
    for order in (5, 11, 55):
        for torsion in by_order[order][:3]:
            pts = [honest[0], torsion, honest[1], honest[2]]
            orders = [37, order, 37, 37]
            for k in list(range(3 * order)) + _long_scalars(rng, order):
                if _assert_many_is_per_point(k, pts, orders, TEST2017):
                    ran += 1
                else:
                    fell_back += 1
    assert fell_back > 200 and ran > 200


def test_scalar_mul_many_refuses_bad_input_before_counting():
    g = TEST2017.generator
    off = curve_point(TEST2017, 0, 7)
    for k, pts in ((3, [g, off]), (3, [off, g]), (3, [off]), (-1, [g, g]), (-1, [g]), (-1, [])):
        with MulCounter() as ops, pytest.raises(ValueError):
            scalar_mul_many(k, pts, TEST2017)
        assert (ops.ec_scalar_muls, ops.field_muls) == (0, 0)


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
    fp = curve.modulus
    p, a, b = fp.value, curve.a.residue, curve.b.residue
    affine = {(x, y) for x in range(p) for y in range(p)
              if (y * y - x**3 - a * x - b) % p == 0}
    assert len(affine) + 1 == brute_force_order(curve)  # plus infinity
    subgroup = _subgroup_of(affine, curve)
    assert len(subgroup) + 1 == (curve.subgroup_order or brute_force_order(curve))
    for x in range(p):
        for y in range(p):
            if (x, y) in subgroup:
                pt = affine_point(x, y, curve)
                assert pt == curve_point(curve, x, y)
                assert pt.x.modulus is fp and pt.y.modulus is fp
            elif (x, y) in affine:
                with pytest.raises(ValueError, match="outside the subgroup"):
                    affine_point(x, y, curve)
            else:
                with pytest.raises(ValueError, match="off-curve"):
                    affine_point(x, y, curve)
    # -1 and p would reduce to valid coordinates; decoding refuses them first
    for x, y in affine:
        for bad in ((-1, y), (p, y), (x, -1), (x, p)):
            with pytest.raises(ValueError, match="out of field range"):
                affine_point(*bad, curve)


@pytest.mark.parametrize("curve", [
    TOY5,
    curve_from_dict({"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"}),
], ids=["toy5", "a3-mod-23"])
def test_is_on_curve_is_affine_points_predicate_on_both_fields(curve):
    # a subgroup point is on the curve iff `affine_point` accepts its
    # residues and both coordinates are elements of the curve's own prime,
    # y as well as x; `affine_point` accepts no point outside the subgroup
    fp = curve.modulus
    other = _prime_above(fp.value)
    for x in range(fp.value):
        for y in range(fp.value):
            try:
                accepted = affine_point(x, y, curve) == curve_point(curve, x, y)
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
    # above the listing's limit, affine_point multiplies by n instead, and
    # refuses and accepts the same points.  No path tallies.
    from gaskit import ec

    curve = dataclasses.replace(TEST2017, order=None if check == "no-order" else 2035)
    if check == "n-above-list":
        monkeypatch.setattr(ec, "_SUBGROUP_LIST_MAX", 36)
    subgroup = {scalar_mul(k, curve.generator, curve) for k in range(1, 37)}
    torsion = [pt for order, pts in _test2017_torsion().items() if order > 1 for pt in pts]
    mixed = [add(pt, curve.generator, curve) for pt in torsion]
    with MulCounter() as ops:
        for pt in subgroup:
            assert affine_point(pt.x.residue, pt.y.residue, curve) == pt
        for pt in torsion + mixed:
            with pytest.raises(ValueError, match="outside the subgroup of order 37"):
                affine_point(pt.x.residue, pt.y.residue, curve)
    assert (ops.field_muls, ops.ec_scalar_muls) == (0, 0)
    assert (curve._subgroup_xs is None) == (check != "listed")
    if check == "listed":
        assert curve._subgroup_xs == {pt.x.residue for pt in subgroup}
        assert len(curve._subgroup_xs) == 18


def test_affine_point_with_cofactor_1_runs_no_subgroup_check(monkeypatch):
    from gaskit import ec

    curve = dataclasses.replace(builtin_curve("secp160r1"))
    monkeypatch.setattr(ec, "_interleaved", None)  # the n * C path would fail
    g = curve.generator
    assert affine_point(g.x.residue, g.y.residue, curve) == g
    assert curve._subgroup_xs is None
