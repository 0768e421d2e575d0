"""Harn baseline: telescoping product identity against interpolation oracles."""

import json
import random
import re

import pytest

from gaskit import field
from gaskit.field import FieldElement, MulCounter, Prime, lagrange_coeff
from gaskit.gas_harn import (
    HarnModulus,
    HarnParams,
    HarnRelease,
    HarnToken,
    MAX_P_BITS,
    _group_secret,
    builtin_harn_modulus,
    derive_generator,
    harn_init,
    harn_release,
    harn_verify,
    load_harn_modulus,
)
from gaskit.sss import SecretPolynomial, ThresholdError

TINY = builtin_harn_modulus("harn-tiny")       # p=23, q=11, g=3
FIXTURE = builtin_harn_modulus("harn-1024-160")


def _is_safe_pair(modulus):
    return modulus.p.value - 1 == 2 * modulus.q.value


def _g_to(modulus, e):
    """g^e mod p by the builtin `pow`, not from the table of `g_pow`."""
    return FieldElement(pow(modulus.g.residue, e, modulus.p.value), modulus.p)


def _nonzero_digits(e):
    """Nonzero 4-bit digits of e: what `g_pow` tallies."""
    count = 0
    while e:
        count += (e & 15) != 0
        e >>= 4
    return count


def test_builtin_moduli():
    assert TINY.p.value == 23 and TINY.q.value == 11
    assert _is_safe_pair(TINY)
    assert FIXTURE.p.value.bit_length() == 1024
    assert FIXTURE.q.value.bit_length() == 160
    assert not _is_safe_pair(FIXTURE)  # Schnorr pair: q | p-1 with large cofactor
    assert (FIXTURE.p.value - 1) % FIXTURE.q.value == 0


def test_generator_derivation_from_base_7():
    # raw 7 has order 22 mod 23, so cofactor exponentiation must square it
    assert pow(7, TINY.q.value, TINY.p.value) != 1
    g = derive_generator(TINY.p, TINY.q)
    assert g.residue == pow(7, 2, 23) == 3
    assert pow(g.residue, TINY.q.value, TINY.p.value) == 1
    g_big = derive_generator(FIXTURE.p, FIXTURE.q)
    assert g_big == FIXTURE.g


def test_modulus_validation():
    with pytest.raises(ValueError, match="divide"):
        HarnModulus(p=Prime(23), q=Prime(7), g=FieldElement(3, Prime(23)))
    with pytest.raises(ValueError, match="trivial"):
        HarnModulus(p=Prime(23), q=Prime(11), g=FieldElement(1, Prime(23)))
    with pytest.raises(ValueError, match="order"):
        HarnModulus(p=Prime(23), q=Prime(11), g=FieldElement(7, Prime(23)))


@pytest.mark.parametrize("name", ["harn-tiny", "harn-1024-160"])
def test_g_table_built_on_first_use_untallied(name):
    modulus = builtin_harn_modulus(name)  # a fresh instance, no table yet
    assert "_g_table" not in vars(modulus)
    with MulCounter() as ops:
        table = modulus._g_table
    assert ops.field_muls == 0
    rows = -(-modulus.q.value.bit_length() // 4)
    assert [len(row) for row in table] == [15] * rows  # 40 rows at 160 bits
    p, g = modulus.p.value, modulus.g.residue
    assert all(row[d - 1] == pow(g, d << (4 * j), p)
               for j, row in enumerate(table) for d in range(1, 16))


@pytest.mark.parametrize("modulus", [TINY, FIXTURE], ids=["tiny", "1024/160"])
def test_g_pow_matches_pow(modulus):
    p, q, g = modulus.p.value, modulus.q.value, modulus.g.residue
    rng = random.Random(12)
    exps = [0, 1, q - 1, q, q + 1, 2 * q + 5] + [rng.randrange(q) for _ in range(50)]
    for e in exps:
        with MulCounter() as ops:
            got = modulus.g_pow(e)
        assert got == FieldElement(pow(g, e, p), modulus.p)
        assert ops.field_muls == _nonzero_digits(e % q)


def test_params_derive_g_s_from_the_table():
    """Building the params computes g^s with `g_pow`, so the table exists
    after it; the tally is f_1(w_1) and f_2(w_2) (t each), the two
    products d_j * f_j(w_j) and the one nonzero digit of s = 3."""
    modulus = builtin_harn_modulus("harn-tiny")
    q = modulus.q
    f1 = SecretPolynomial((FieldElement(4, q), FieldElement(7, q)))
    f2 = SecretPolynomial((FieldElement(9, q), FieldElement(2, q)))
    with MulCounter() as ops:
        params = HarnParams(
            modulus=modulus, threshold=2, f1=f1, f2=f2,
            w1=FieldElement(5, q), w2=FieldElement(8, q),
            d1=FieldElement(3, q), d2=FieldElement(6, q),
        )
    assert "_g_table" in vars(modulus)
    assert ops.field_muls == 2 * 2 + 2 + 1
    assert params.verification_target == _g_to(modulus, 3)


def _random_roster(params, n, rng):
    """n tokens at distinct random x's, none of them w_1 or w_2, in random order."""
    q = params.modulus.q
    taken, xs = {params.w1.residue, params.w2.residue}, []
    while len(xs) < n:
        x = rng.randrange(q.value)
        if x not in taken:
            taken.add(x)
            xs.append(FieldElement(x, q))
    return [HarnToken(f"U{i + 1}", x, params.f1.evaluate(x), params.f2.evaluate(x))
            for i, x in enumerate(xs)]


@pytest.mark.parametrize("modulus", [TINY, FIXTURE], ids=["tiny", "1024/160"])
def test_release_matches_field_element_reference(modulus):
    """e_i against c_i formed with `lagrange_coeff` on FieldElements, on the
    dealt roster x = 1..n and on a random one, and the tally: the shared
    denominator's n-1, the two numerators' 2(n-1), the two divisions, the 4
    products, c_i's nonzero digits."""
    rng = random.Random(13)
    for _ in range(5):
        n = rng.randrange(2, min(9, modulus.q.value - 2) + 1)
        params, dealt = harn_init(rng.randrange(1, n + 1), n, modulus, rng)
        for tokens in (dealt, _random_roster(params, n, rng)):
            roster = [tok.x for tok in tokens]
            releases = []
            for idx, tok in enumerate(tokens):
                c = (
                    params.d1 * tok.y1 * lagrange_coeff(idx, roster, params.w1)
                    + params.d2 * tok.y2 * lagrange_coeff(idx, roster, params.w2)
                ).residue
                with MulCounter() as ops:
                    releases.append(harn_release(tok, roster, params))
                assert releases[-1].e == _g_to(modulus, c)
                assert ops.field_muls == 3 * (n - 1) + 6 + _nonzero_digits(c)
            assert harn_verify(releases, params)


def test_release_refuses_a_roster_that_repeats_its_x():
    rng = random.Random(15)
    params, tokens = harn_init(2, 4, FIXTURE, rng)
    roster = [tok.x for tok in tokens]
    for idx in range(4):
        repeated = roster[:idx] + [roster[idx]] + roster[idx:]
        with pytest.raises(ValueError, match=f"duplicate x-coordinate {idx + 1}"):
            harn_release(tokens[idx], repeated, params)


def test_release_refuses_a_roster_that_repeats_another_x():
    # [x1, x2, x2, x3]: x2 would enter x1's weights twice, a wrong c_1
    rng = random.Random(15)
    params, tokens = harn_init(2, 3, TINY, rng)
    x1, x2, x3 = (tok.x for tok in tokens)
    for idx in (0, 2):
        with pytest.raises(ValueError, match="duplicate x-coordinate 2 in the roster"):
            harn_release(tokens[idx], [x1, x2, x2, x3], params)


@pytest.mark.parametrize("modulus", [TINY, FIXTURE], ids=["tiny", "1024/160"])
def test_verify_matches_field_element_product(modulus):
    """The verdict is prod(e_i) == g^s taken over FieldElements, with its m
    multiplications tallied; one release times g turns it."""
    rng = random.Random(16)
    for _ in range(5):
        n = rng.randrange(2, min(9, modulus.q.value - 2) + 1)
        t = rng.randrange(1, n + 1)
        params, tokens = harn_init(t, n, modulus, rng)
        roster = [tok.x for tok in tokens]
        releases = [harn_release(tok, roster, params) for tok in tokens]
        bad = releases[:]
        k = rng.randrange(n)
        bad[k] = HarnRelease(bad[k].member_id, bad[k].x, bad[k].e * modulus.g)
        # t of the n releases: the verdict of whatever their product is
        for rels, want in ((releases, True), (bad, False), (releases[:t], None)):
            product = FieldElement(1, modulus.p)
            with MulCounter() as ref_ops:
                for rel in rels:
                    product = product * rel.e
            with MulCounter() as ops:
                verdict = harn_verify(rels, params)
            assert verdict == (product == params.verification_target)
            assert want is None or verdict == want
            assert ops.field_muls == ref_ops.field_muls == len(rels)


def _interp_at(points, at, q):
    """Independent Lagrange interpolation oracle with plain integers."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for r, (xr, _) in enumerate(points):
            if r == i:
                continue
            num = num * (at - xr) % q
            den = den * (xi - xr) % q
        total = (total + yi * num * pow(den, -1, q)) % q
    return total


def test_tiny_frozen_example():
    """Hand-pinned parameters over p=23, q=11: f1 = 4+7x, f2 = 9+2x,
    w=(5,8), d=(3,6) give s=3 and releases e=(1, 4) for roster {1, 2}."""
    q = TINY.q
    f1 = SecretPolynomial((FieldElement(4, q), FieldElement(7, q)))
    f2 = SecretPolynomial((FieldElement(9, q), FieldElement(2, q)))
    w1, w2 = FieldElement(5, q), FieldElement(8, q)
    d1, d2 = FieldElement(3, q), FieldElement(6, q)
    s = d1 * f1.evaluate(w1) + d2 * f2.evaluate(w2)
    assert s.residue == 3
    params = HarnParams(
        modulus=TINY, threshold=2, f1=f1, f2=f2, w1=w1, w2=w2, d1=d1, d2=d2
    )
    assert params.s == s and params.verification_target == _g_to(TINY, 3)
    xs = [FieldElement(1, q), FieldElement(2, q)]
    tokens = [
        HarnToken("U1", xs[0], f1.evaluate(xs[0]), f2.evaluate(xs[0])),
        HarnToken("U2", xs[1], f1.evaluate(xs[1]), f2.evaluate(xs[1])),
    ]
    releases = [harn_release(tok, xs, params) for tok in tokens]
    assert [rel.e.residue for rel in releases] == [1, 4]  # g^0, g^3
    assert harn_verify(releases, params)


def test_params_validation():
    q = TINY.q
    f1 = SecretPolynomial((FieldElement(4, q), FieldElement(7, q)))
    f2 = SecretPolynomial((FieldElement(9, q), FieldElement(2, q)))
    zero = FieldElement(0, q)
    with pytest.raises(ValueError, match="degenerate"):
        HarnParams(
            modulus=TINY, threshold=2, f1=f1, f2=f2,
            w1=FieldElement(5, q), w2=FieldElement(8, q), d1=zero, d2=zero,
        )
    # every w_j and d_j must be a value of F_q
    good = dict(modulus=TINY, threshold=2, f1=f1, f2=f2,
                w1=FieldElement(5, q), w2=FieldElement(8, q),
                d1=FieldElement(3, q), d2=FieldElement(6, q))
    for name in ("w1", "w2", "d1", "d2"):
        moved = FieldElement(good[name].residue, Prime(29))
        with pytest.raises(ValueError, match="must live mod q"):
            HarnParams(**{**good, name: moved})
    # s and g^s are derived, never passed in
    params = HarnParams(**good)
    s = _group_secret(f1, f2, good["w1"], good["w2"], good["d1"], good["d2"])
    assert params.s == FieldElement(s, q)
    assert params.verification_target == FieldElement(pow(3, s, 23), TINY.p)
    for name, value in (("s", params.s), ("verification_target", params.verification_target)):
        with pytest.raises(TypeError, match=name):
            HarnParams(**good, **{name: value})


@pytest.mark.parametrize(("modulus", "t", "n"), [(TINY, 2, 4), (FIXTURE, 3, 6)],
                         ids=["tiny", "1024/160"])
def test_init_tally(modulus, t, n):
    """2nt for the n tokens' two Horner evaluations, 2t for f_j(w_j), the
    2 products d_j * f_j(w_j) and the nonzero digits of s in `g_pow`."""
    for seed in range(5):
        with MulCounter() as ops:
            params, _ = harn_init(t, n, modulus, random.Random(seed))
        assert ops.field_muls == 2 * n * t + 2 * t + 2 + _nonzero_digits(params.s.residue)


@pytest.mark.parametrize("modulus", [TINY, FIXTURE], ids=["tiny", "1024/160"])
def test_release_product_matches_interpolation_oracle(modulus):
    """prod(e_i) == g^(d1*f1(w1) + d2*f2(w2)) where the f_j(w_j) come from an
    independent interpolation over the member tokens."""
    rng = random.Random(1 if modulus is TINY else 2)
    for trial in range(10):
        n_max = min(9, modulus.q.value - 2)
        t = rng.randrange(1, min(5, n_max) + 1)
        n = rng.randrange(t, n_max + 1)
        params, tokens = harn_init(t, n, modulus, rng)
        roster = [tok.x for tok in tokens]
        releases = [harn_release(tok, roster, params) for tok in tokens]
        qv = modulus.q.value
        pts1 = [(tok.x.residue, tok.y1.residue) for tok in tokens[: max(t, 1)]]
        pts2 = [(tok.x.residue, tok.y2.residue) for tok in tokens[: max(t, 1)]]
        s_oracle = (
            params.d1.residue * _interp_at(pts1, params.w1.residue, qv)
            + params.d2.residue * _interp_at(pts2, params.w2.residue, qv)
        ) % qv
        assert params.s.residue == s_oracle
        product = 1
        for rel in releases:
            product = product * rel.e.residue % modulus.p.value
        assert product == pow(modulus.g.residue, s_oracle, modulus.p.value)
        assert harn_verify(releases, params)


def test_single_corruption_breaks_product():
    rng = random.Random(3)
    params, tokens = harn_init(2, 4, TINY, rng)
    roster = [tok.x for tok in tokens]
    releases = [harn_release(tok, roster, params) for tok in tokens]
    bad = releases[:]
    bad[1] = HarnRelease(bad[1].member_id, bad[1].x, bad[1].e * params.modulus.g)
    assert harn_verify(releases, params)
    assert not harn_verify(bad, params)


def test_release_preconditions():
    rng = random.Random(4)
    params, tokens = harn_init(2, 4, TINY, rng)
    roster = [tok.x for tok in tokens]
    outsider = tokens[3]
    with pytest.raises(ValueError, match="not in the participating roster"):
        harn_release(outsider, roster[:3], params)
    with pytest.raises(ThresholdError):
        harn_release(tokens[0], roster[:1], params)


def test_verify_preconditions():
    rng = random.Random(5)
    params, tokens = harn_init(2, 4, TINY, rng)
    roster = [tok.x for tok in tokens]
    releases = [harn_release(tok, roster, params) for tok in tokens]
    with pytest.raises(ThresholdError):
        harn_verify(releases[:1], params)
    with pytest.raises(ValueError, match="duplicate"):
        harn_verify([releases[0], releases[0]], params)


def test_t1_empty_products():
    rng = random.Random(6)
    params, tokens = harn_init(1, 3, TINY, rng)
    roster = [tokens[0].x]
    rel = harn_release(tokens[0], roster, params)
    # t=1: constant polynomials, so c = d1*f1(x) + d2*f2(x) with empty products
    c = (params.d1 * tokens[0].y1 + params.d2 * tokens[0].y2).residue
    assert rel.e.residue == pow(3, c, 23)
    assert harn_verify([rel], params)


def test_w_points_avoid_member_xs():
    for seed in range(30):
        rng = random.Random(seed)
        params, tokens = harn_init(2, 8, TINY, rng)
        xs = {tok.x.residue for tok in tokens}
        assert params.w1.residue not in xs
        assert params.w2.residue not in xs
        assert params.w1.residue != params.w2.residue


def test_init_validation():
    rng = random.Random(7)
    with pytest.raises(ValueError):
        harn_init(5, 3, TINY, rng)
    with pytest.raises(ValueError, match="does not fit"):
        harn_init(2, 11, TINY, rng)
    # 10 member x's leave one residue of F_11 for the two points w_1, w_2
    with pytest.raises(ValueError, match="group size 10 does not fit in F_11 beside"):
        harn_init(2, 10, TINY, rng)
    params, _ = harn_init(2, 9, TINY, rng)
    assert {params.w1.residue, params.w2.residue} == {0, 10}


def test_member_cost_grows_linearly_with_roster():
    rng = random.Random(8)
    params, tokens = harn_init(3, 200, FIXTURE, rng)
    roster = [tok.x for tok in tokens]
    counts = []
    for m in (10, 50, 200):
        with MulCounter() as ops:
            harn_release(tokens[0], roster[:m], params)
        counts.append(ops.field_muls)
    assert counts[0] < counts[1] < counts[2]
    # the Lagrange products contribute ~3 multiplications per roster member
    assert counts[2] - counts[1] > 2 * (200 - 50)


def test_modulus_file_rejects_g_outside_field(tmp_path):
    path = tmp_path / "harn.json"
    path.write_text(json.dumps({"p": "23", "q": "11", "g": "3"}))
    assert load_harn_modulus(path) == TINY
    # g + p would load as g
    for g in (3 + 23, -20):
        path.write_text(json.dumps({"p": "23", "q": "11", "g": str(g)}))
        with pytest.raises(ValueError, match="out of field range"):
            load_harn_modulus(path)


@pytest.mark.parametrize("key", ["p", "q"])
def test_modulus_file_caps_bits_before_any_primality_test(tmp_path, monkeypatch, key):
    def refuse(n):
        raise AssertionError(f"primality test of a {n.bit_length()}-bit number")

    monkeypatch.setattr(field, "is_probable_prime", refuse)
    path = tmp_path / "harn.json"
    path.write_text(json.dumps({"p": "23", "q": "11", key: str(2**4096 + 1)}))
    with pytest.raises(ValueError, match=f"^{key} has 4097 bits, above {MAX_P_BITS}$"):
        load_harn_modulus(path)
    # at the cap the primality test runs: 2^2047 + 1 is a multiple of 3
    monkeypatch.undo()
    path.write_text(json.dumps({"p": "23", "q": "11", key: str(2**2047 + 1)}))
    with pytest.raises(ValueError, match="is not prime"):
        load_harn_modulus(path)


@pytest.mark.parametrize(("key", "bad"), [("p", 23.9), ("q", 11.0), ("g", True)])
def test_modulus_file_rejects_non_integer_numbers(tmp_path, key, bad):
    # int() would load p = 23.9 as 23 and g = true as 1
    data = {"p": "23", "q": "11", "g": "3", key: bad}
    path = tmp_path / "harn.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        load_harn_modulus(path)


@pytest.mark.parametrize(("data", "problem"), [
    (["23", "11"], "Harn modulus must be a JSON object, got list"),
    ({"q": "11"}, "Harn modulus missing fields: ['p']"),
    # g is optional only when missing or null; 0 and "" used to derive g = 3
    ({"p": "23", "q": "11", "g": 0}, "generator must not be trivial"),
    ({"p": "23", "q": "11", "g": ""}, "g must be an integer"),
])
def test_modulus_file_refuses_malformed_records(tmp_path, data, problem):
    path = tmp_path / "harn.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=re.escape(problem)):
        load_harn_modulus(path)


def test_modulus_file_derives_g_when_missing_or_null(tmp_path):
    path = tmp_path / "harn.json"
    for data in ({"p": "23", "q": "11"}, {"p": "23", "q": "11", "g": None}):
        path.write_text(json.dumps(data))
        assert load_harn_modulus(path) == TINY


def test_harn_modulus_refuses_a_generator_mod_another_prime():
    tiny = builtin_harn_modulus("harn-tiny")
    with pytest.raises(ValueError, match="^generator must live mod p$"):
        HarnModulus(p=tiny.p, q=tiny.q, g=FieldElement(3, Prime(47)))


def test_builtin_harn_modulus_refuses_an_unknown_name():
    with pytest.raises(ValueError, match=re.escape(
            "unknown builtin 'nope'; valid: ('harn-tiny', 'harn-1024-160')")):
        builtin_harn_modulus("nope")


def test_harn_verify_refuses_a_release_mod_another_p():
    tiny = builtin_harn_modulus("harn-tiny")
    params, tokens = harn_init(2, 3, tiny, random.Random(1))
    xs = [tok.x for tok in tokens]
    releases = [harn_release(tok, xs, params) for tok in tokens]
    good = releases[1]
    releases[1] = HarnRelease(good.member_id, good.x, FieldElement(good.e.residue, Prime(47)))
    with pytest.raises(ValueError, match="^release of U2 does not live mod p = 23$"):
        harn_verify(releases, params)


def test_derive_generator_refuses_a_base_that_collapses_to_1():
    # 7^((19 - 1) / 3) = 7^6 = 1 mod 19, so 7 yields no generator of order 3
    with pytest.raises(ValueError, match="^base 7 collapses to 1 for p=19, q=3$"):
        derive_generator(Prime(19), Prime(3))
