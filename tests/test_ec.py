"""Curve group law against hand oracles, exhaustive small-curve checks, the
affine reference implementation and `cryptography`'s native P-256 ECDH."""

import random

import pytest
from cryptography.hazmat.primitives.asymmetric import ec as crypto_ec

from gaskit.ec import (
    _NAF_MIN_BITS,
    CurveParams,
    CurvePoint,
    _double,
    _double_a3,
    _naf4,
    add,
    brute_force_order,
    builtin_curve,
    curve_from_dict,
    curve_to_dict,
    is_on_curve,
    negate,
    scalar_mul,
    validate_point,
)
from gaskit import gas_core
from gaskit.field import FieldElement, MulCounter, Prime

TEST2017 = builtin_curve("test2017")
TOY5 = builtin_curve("toy5")

# group order of y^2 = x^3 + 6x + 36 mod 2017, pinned from exhaustive
# enumeration (5 * 11 * 37); the published generator spans the 37-subgroup
TEST2017_ORDER = 2035


def test_is_on_curve_examples():
    assert is_on_curve(TEST2017.point(0, 6), TEST2017)
    assert not is_on_curve(TEST2017.point(0, 7), TEST2017)
    assert is_on_curve(CurvePoint.infinity(), TEST2017)


def test_identity_and_inverse():
    p = TEST2017.point(0, 6)
    inf = CurvePoint.infinity()
    assert add(p, inf, TEST2017) == p
    assert add(inf, p, TEST2017) == p
    assert add(p, negate(p), TEST2017) == inf


def test_doubling_matches_hand_oracle():
    # lambda = (3x^2 + A) / (2y) evaluated with plain integers
    p_mod = 2017
    lam = (3 * 0 * 0 + 6) * pow(2 * 6, -1, p_mod) % p_mod
    x3 = (lam * lam - 0 - 0) % p_mod
    y3 = (lam * (0 - x3) - 6) % p_mod
    doubled = add(TEST2017.point(0, 6), TEST2017.point(0, 6), TEST2017)
    assert (doubled.x.residue, doubled.y.residue) == (x3, y3) == (1513, 246)


def test_scalar_mul_edges():
    g = TEST2017.generator
    assert scalar_mul(1, g, TEST2017) == g
    assert scalar_mul(0, g, TEST2017).is_infinity
    assert scalar_mul(TEST2017.subgroup_order, g, TEST2017).is_infinity
    # the brute-forced full group order annihilates every point
    assert scalar_mul(TEST2017_ORDER, g, TEST2017).is_infinity
    assert scalar_mul(TEST2017_ORDER, TEST2017.point(0, 6), TEST2017).is_infinity
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
    bad = TEST2017.point(0, 6)
    wrong = CurvePoint(FieldElement(0, Prime(2017)), FieldElement(7, Prime(2017)))
    with pytest.raises(ValueError, match="not on curve"):
        add(bad, wrong, TEST2017)
    with pytest.raises(ValueError, match="not on curve"):
        scalar_mul(3, wrong, TEST2017)


def _toy5_points():
    pts = [CurvePoint.infinity()]
    for x in range(5):
        for y in range(5):
            if (y * y - (x**3 + 1)) % 5 == 0:
                pts.append(TOY5.point(x, y))
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
    return scalar_mul(rng.randrange(1, curve.order), curve.point(0, 6), curve)


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
    acc = CurvePoint.infinity()
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


def _naf_a3_muls(k):
    """Tally of k * P on the NAF path of an a = -3 curve, when no table entry
    is infinity and no P + P or P + (-P) occurs: the precompute (one 8-mul
    doubling, 9 for the isomorphism, 3 mixed additions, 3 + 4 per entry to
    batch-invert and return to affine), 8 per doubling, 11 per mixed
    addition, 4 to return to affine."""
    digits = _ref_naf4(k)
    nonzero = sum(1 for d in digits if d)
    return 8 + 9 + 3 * 11 + 3 * 7 + 8 * (len(digits) - 1) + 11 * (nonzero - 1) + 4


def test_secp160r1_parameters_validate():
    curve = builtin_curve("secp160r1")
    assert curve.order == curve.subgroup_order  # prime order, cofactor 1
    assert curve.modulus.value.bit_length() == 160
    assert curve.coord_byte_length == 20
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
            return CurvePoint.infinity()
        two = FieldElement(2, curve.modulus)
        three = FieldElement(3, curve.modulus)
        lam = (three * p1.x * p1.x + curve.a) / (two * p1.y)
    else:
        lam = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = lam * lam - p1.x - p2.x
    y3 = lam * (p1.x - x3) - p1.y
    return CurvePoint(x3, y3)


def _ref_scalar_mul(k, pt, curve):
    acc = CurvePoint.infinity()
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
    return [TEST2017.point(x, y) for x in range(2017)
            for y in roots.get((x**3 + 6 * x + 36) % 2017, [])]


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
    torsion = {scalar_mul(37, pt, TEST2017) for pt in pts}
    by_order = {}
    for pt in torsion:
        by_order.setdefault(_order(pt, TEST2017), []).append(pt)
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
        pts += [CurvePoint.infinity()] + [negate(pt) for pt in pts[:2]]
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
        q_b = curve.point(nums.x, nums.y)
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
    # a generator that arrives as an equal but distinct point (here the P a
    # config file carries) takes the same path
    config, _ = gas_core.gm_init(3, 5, curve, rng)
    g = CurvePoint(*map(curve.modulus.element, map(int, gas_core.config_to_dict(config)["P"])))
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
    # 2, 3, 5, 6, 10, 15 and 30.  For one of order 3, 7P = 5P + 2P is a
    # doubling on the curve where the table is built, whose a is Z^4 a
    curve = curve_from_dict({"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"})
    assert brute_force_order(curve) == 30
    rng = random.Random(23)
    pts = [curve.point(x, y) for x in range(23) for y in range(23)
           if is_on_curve(curve.point(x, y), curve)]
    assert sorted({_order(pt, curve) for pt in pts}) == [2, 3, 5, 6, 10, 15, 30]
    for pt in pts:
        _assert_scalar_muls_match(pt, _long_scalars(rng, 30), curve)


# --- boundary decoder ----------------------------------------------------------------

@pytest.mark.parametrize("curve", [
    TOY5,
    curve_from_dict({"p": "23", "A": "20", "B": "4", "Gx": "0", "Gy": "2"}),
], ids=["toy5", "a3-mod-23"])
def test_validate_point_accepts_exactly_the_affine_points(curve):
    fp = curve.modulus
    p, a, b = fp.value, curve.a.residue, curve.b.residue
    affine = {(x, y) for x in range(p) for y in range(p)
              if (y * y - x**3 - a * x - b) % p == 0}
    assert len(affine) + 1 == brute_force_order(curve)  # plus infinity
    for x in range(p):
        for y in range(p):
            if (x, y) in affine:
                assert validate_point(fp.element(x), fp.element(y), curve) == curve.point(x, y)
            else:
                with pytest.raises(ValueError, match="off-curve"):
                    validate_point(fp.element(x), fp.element(y), curve)
    # -1 and p would reduce to valid coordinates; decoding refuses them first
    for x, y in affine:
        for bad in ((-1, y), (p, y), (x, -1), (x, p)):
            with pytest.raises(ValueError, match="out of field range"):
                validate_point(*map(fp.element, bad), curve)
