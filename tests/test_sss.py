"""Secret sharing: frozen examples, round trips, exhaustive threshold secrecy."""

import random

import pytest

from gaskit.ec import builtin_curve
from gaskit.field import FieldElement, MulCounter, Prime
from gaskit.gas_core import gm_init, rotate_credentials
from gaskit.sss import (
    SecretCommitment,
    SecretPolynomial,
    Share,
    ThresholdError,
    commit,
    guessed_share,
    reconstruct,
    roster_ids,
    sample_polynomial,
    verify_commitment,
)

F17 = Prime(17)
F37 = Prime(37)


def el(v, q=F17):
    return FieldElement(v, q)


def poly_5_3():
    return SecretPolynomial((el(5), el(3)))  # f(x) = 5 + 3x mod 17


def shares_at(poly, xs):
    """The shares f(x) at `xs`, with the ids `roster_ids` gives len(xs) members."""
    return [Share(x, poly.evaluate(x), mid) for x, mid in zip(xs, roster_ids(len(xs)))]


# --- sampling ----------------------------------------------------------------

def test_sample_t1_constant():
    rng = random.Random(0)
    poly = sample_polynomial(1, el(9), rng)
    shares = shares_at(poly, [el(1), el(4), el(11)])
    assert all(s.y.residue == 9 for s in shares)


def test_sample_constant_term_and_degree():
    rng = random.Random(1)
    for t in range(1, 9):
        poly = sample_polynomial(t, el(5, F37), rng)
        assert poly.secret.residue == 5
        assert len(poly.coefficients) == t
        if t >= 2:
            assert poly.coefficients[-1].residue != 0


def test_sample_rejects_bad_threshold():
    rng = random.Random(2)
    with pytest.raises(ValueError):
        sample_polynomial(0, el(5), rng)
    with pytest.raises(ValueError, match="capacity"):
        sample_polynomial(17, el(5), rng)  # t > q - 1


def test_polynomial_invariants():
    with pytest.raises(ValueError, match="leading"):
        SecretPolynomial((el(5), el(0)))
    with pytest.raises(ValueError):
        SecretPolynomial(())


def _horner_reference(poly, x):
    """f(x) by Horner over FieldElements, one tallied multiplication a step."""
    acc = FieldElement(0, poly.field)
    for coeff in reversed(poly.coefficients):
        acc = acc * x + coeff
    return acc


@pytest.mark.parametrize("curve", ["test2017", "secp160r1"])
def test_evaluate_matches_field_element_horner(curve):
    q = builtin_curve(curve).scalar_field()
    rng = random.Random(17)
    polys = [sample_polynomial(1, q.random_element(rng), rng)]
    polys += [sample_polynomial(rng.randrange(2, 30), q.random_element(rng), rng)
              for _ in range(20)]
    for poly in polys:
        for x in [q.element(0), q.element(1), q.element(q.value - 1)] + [
            q.random_element(rng) for _ in range(5)
        ]:
            with MulCounter() as ref_ops:
                want = _horner_reference(poly, x)
            with MulCounter() as ops:
                got = poly.evaluate(x)
            assert got == want
            assert ops.field_muls == ref_ops.field_muls == len(poly.coefficients)
    with pytest.raises(ValueError, match="modulus mismatch"):
        polys[-1].evaluate(FieldElement(1, F17))


# --- evaluating ----------------------------------------------------------------

def test_evaluate_frozen_example():
    assert [poly_5_3().evaluate(el(x)).residue for x in (1, 2)] == [8, 11]


def test_share_type_rejects_zero_x():
    with pytest.raises(ValueError):
        Share(x=el(0), y=el(5), member_id="U1")


# --- reconstruction ----------------------------------------------------------

def test_reconstruct_frozen_example():
    shares = shares_at(poly_5_3(), [el(1), el(2)])
    assert reconstruct(shares, 2).residue == 5  # 8*2 + 11*16 mod 17


def test_reconstruct_t1_single_share():
    share = Share(x=el(3), y=el(9), member_id="U1")
    assert reconstruct([share], 1).residue == 9


def test_reconstruct_below_threshold():
    shares = shares_at(poly_5_3(), [el(1)])
    with pytest.raises(ThresholdError):
        reconstruct(shares, 2)


def test_reconstruct_duplicate_x():
    s = Share(x=el(1), y=el(8), member_id="U1")
    with pytest.raises(ValueError, match="duplicate"):
        reconstruct([s, s], 2)
    # `lagrange_coeff` refuses the repeat where its loop meets it: the first
    # weight tallies its two products for x = 2, then meets x = 1 again
    s2 = Share(x=el(2), y=el(3), member_id="U2")
    with MulCounter() as ops:
        with pytest.raises(ValueError, match="^duplicate x-coordinate 1$"):
            reconstruct([s, s2, s], 2)
    assert ops.field_muls == 2


def test_round_trip_many_cases():
    rng = random.Random(42)
    q = Prime(2027)
    for _ in range(500):
        t = rng.randrange(1, 9)
        m = t + rng.randrange(0, 6)
        secret = q.random_element(rng)
        poly = sample_polynomial(t, secret, rng)
        xs_vals = rng.sample(range(1, q.value), m)
        shares = shares_at(poly, [FieldElement(v, q) for v in xs_vals])
        assert reconstruct(shares, t) == secret


def test_reconstruct_order_and_subset_independent():
    rng = random.Random(3)
    q = F37
    poly = sample_polynomial(3, el(21, q), rng)
    shares = shares_at(poly, [FieldElement(v, q) for v in (1, 2, 3, 4, 5)])
    secret = reconstruct(shares, 3)
    shuffled = shares[:]
    rng.shuffle(shuffled)
    assert reconstruct(shuffled, 3) == secret
    assert reconstruct(shares[2:], 3) == secret
    assert reconstruct([shares[4], shares[0], shares[2]], 3) == secret


def test_single_corruption_changes_result():
    rng = random.Random(4)
    q = F37
    poly = sample_polynomial(3, el(21, q), rng)
    shares = shares_at(poly, [FieldElement(v, q) for v in (2, 9, 30)])
    true = reconstruct(shares, 3)
    for i in range(3):
        bad = shares[:]
        bad[i] = Share(bad[i].x, bad[i].y + el(1, q), bad[i].member_id)
        assert reconstruct(bad, 3) != true


# --- commitment ----------------------------------------------------------------

def test_commitment_roundtrip():
    s = el(11)
    c = commit(s)
    assert verify_commitment(s, c)
    assert not verify_commitment(s + el(1), c)
    assert commit(s).digest == c.digest
    assert len(c.digest) == 32


# --- threshold secrecy (exhaustive, desk scale) --------------------------------

def test_threshold_secrecy_exhaustive_f37():
    """With t-1 = 2 shares over F_37, enumerate every degree <= 2 polynomial:
    each candidate secret is attained by a consistent polynomial."""
    q = F37
    rng = random.Random(5)
    poly = sample_polynomial(3, q.random_element(rng), rng)
    observed = shares_at(poly, [FieldElement(1, q), FieldElement(2, q)])
    attained = set()
    attained_exact_degree = set()
    for d in range(37):
        for a1 in range(37):
            for a2 in range(37):
                f = lambda x: (d + a1 * x + a2 * x * x) % 37
                if all(f(s.x.residue) == s.y.residue for s in observed):
                    attained.add(d)
                    if a2 != 0:
                        attained_exact_degree.add(d)
    assert attained == set(range(37))
    # the dealer's exact-degree policy gives up at most one candidate
    assert len(attained_exact_degree) >= 36


def test_threshold_secrecy_constructive_f257():
    """Same statement over F_257 via direct interpolation through
    (0, candidate) plus the observed t-1 shares."""
    from gaskit.field import lagrange_coeff

    q = Prime(257)
    rng = random.Random(6)
    poly = sample_polynomial(3, q.random_element(rng), rng)
    observed = shares_at(poly, [FieldElement(3, q), FieldElement(7, q)])
    nodes = [FieldElement(0, q)] + [s.x for s in observed]
    for candidate in range(257):
        ys = [FieldElement(candidate, q)] + [s.y for s in observed]
        def value_at(x):
            acc = FieldElement(0, q)
            for i in range(3):
                acc = acc + ys[i] * lagrange_coeff(i, nodes, x)
            return acc
        assert all(value_at(s.x) == s.y for s in observed)
        assert value_at(FieldElement(0, q)).residue == candidate


# --- the dealer (gas_core._deal_group, through gm_init and rotate_credentials) ---

TEST2017 = builtin_curve("test2017")


def _check_dealt(config, shares):
    """Ids and x's from the roster, nonzero shares and secret, and H(s) matches."""
    assert [(s.member_id, s.x.residue) for s in shares] == list(config.roster)
    assert all(s.y.residue != 0 for s in shares)
    secret = reconstruct(shares[:3], 3)
    assert secret.residue != 0
    assert verify_commitment(secret, config.commitment)
    return secret


def test_dealer_avoids_zero_shares():
    for seed in range(50):
        rng = random.Random(seed)
        config, shares = gm_init(3, 12, TEST2017, rng)
        assert config.roster == tuple(zip(roster_ids(12), range(1, 13)))
        key = _check_dealt(config, shares)
        rotation = rotate_credentials(config, key, rng)
        assert rotation.config.roster == config.roster
        _check_dealt(rotation.config, rotation.shares)


def test_dealer_redraws_the_whole_polynomial_after_a_zero_share():
    # seed 1's first polynomial has f(11) = 0, so the dealer draws again
    rng = random.Random(1)
    q = TEST2017.scalar_field()
    first = sample_polynomial(3, q.random_element(rng), rng)
    assert [first.evaluate(q.element(x)).residue for x in range(1, 13)].count(0) == 1
    _, shares = gm_init(3, 12, TEST2017, random.Random(1))
    assert [s.y.residue for s in shares] == [8, 36, 1, 14, 1, 36, 8, 28, 22, 27, 6, 33]


def test_dealer_gives_up_after_1000_draws():
    class ZeroRng(random.Random):
        calls = 0

        def randrange(self, *args, **kwargs):
            self.calls += 1
            return 0

    rng = ZeroRng()
    with pytest.raises(ValueError, match=r"^could not find a polynomial with nonzero shares "
                                         r"for 3 members over F_37$"):
        gm_init(2, 3, TEST2017, rng)
    assert rng.calls == 1000


def test_rotation_roster_rejects_bad_x():
    # a caller's roster is the one way outside input reaches the dealer;
    # x = 0, a repeated x and x >= q (which would wrap onto 0 or 1) are refused
    rng = random.Random(8)
    config, shares = gm_init(2, 3, TEST2017, rng)
    key = reconstruct(shares, 2)
    for xs in [(0, 2, 3), (1, 2, 2), (1, 2, 37), (2, 3, 38)]:
        roster = tuple(zip(roster_ids(3), xs))
        with pytest.raises(ValueError, match=r"roster x values must be distinct and in \[1, 37\)"):
            rotate_credentials(config, key, rng, roster=roster)
    with pytest.raises(ValueError, match="threshold 2 out of range for 0 members"):
        rotate_credentials(config, key, rng, roster=())


# --- an attacker's guessed share --------------------------------------------------

def test_guessed_share_on_toy5_is_the_other_nonzero_y():
    q = builtin_curve("toy5").scalar_field()
    assert q.value == 3
    for y in (1, 2):
        share = Share(FieldElement(1, q), FieldElement(y, q), "U1")
        for seed in range(20):
            assert guessed_share(share, random.Random(seed)).y.residue == 3 - y


def test_guessed_share_keeps_the_seat_and_misses_y():
    _, shares = gm_init(3, 5, builtin_curve("test2017"), random.Random(0))
    q = shares[0].y.modulus.value
    for seed in range(200):
        rng = random.Random(seed)
        for share in shares:
            guess = guessed_share(share, rng)
            assert (guess.x, guess.member_id) == (share.x, share.member_id)
            assert 1 <= guess.y.residue < q and guess.y != share.y
            assert guess.y.modulus == share.y.modulus


def test_sample_polynomial_threshold_reaches_q_minus_1():
    q = Prime(37)
    rng = random.Random(3)
    poly = sample_polynomial(36, q.element(5), rng)
    assert len(poly.coefficients) == 36 and poly.secret == q.element(5)
    assert poly.coefficients[-1].residue != 0
    with pytest.raises(ValueError, match=r"^threshold 37 exceeds field capacity \(q=37\)$"):
        sample_polynomial(37, q.element(5), rng)


def test_commitment_digest_must_be_32_bytes():
    assert SecretCommitment(bytes(32)).hex() == "00" * 32
    with pytest.raises(ValueError, match="^commitment digest must be 32 bytes$"):
        SecretCommitment(bytes(31))
