"""Protocol state machine: confirmation, pairwise keys, key agreement, rotation."""

import collections
import copy
import dataclasses
import itertools
import pickle
import random
import re
import sys

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from gaskit import gas_core, wire
from gaskit.attacks import _recorder
from gaskit.ec import _GM_WINDOW, BUILTIN_CURVES, CurvePoint, builtin_curve, scalar_mul
from gaskit.field import FieldElement, MulCounter, Prime, lagrange_weights
from gaskit.gas_core import (
    CommitmentMismatchError,
    MemberState,
    PeerAuthenticationError,
    PublicShare,
    RotationError,
    UnknownMemberError,
    decentralized_verify,
    pairwise_key,
    encrypt_share_for_peer,
    exchange_group_key,
    gm_init,
    gm_verify,
    key_agreement_round,
    make_public_share,
    open_rotated_share,
    public_share_frame,
    public_share_from_frame,
    rotate_credentials,
    run_confirmation,
)
from gaskit.sss import (
    Share, ThresholdError, commit, reconstruct, roster_ids, verify_commitment,
)
from oracle import add, curve_point, mul, negate
from test_ec import (
    _fixed_base_muls, _interleaved_muls, _multi_scalar_mul, _prime_above,
    _test2017_torsion,
)

CURVE = builtin_curve("test2017")


def setup_group(t=3, n=5, seed=7):
    rng = random.Random(seed)
    config, shares = gm_init(t, n, CURVE, rng)
    return rng, config, shares


def random_roster_group(t, n, curve, rng):
    """`gm_init`'s group, dealt on n distinct random nonzero x's, not 1..n;
    drawn one at a time, as rng.sample cannot take the range on secp160r1."""
    xs: dict[int, None] = {}
    while len(xs) < n:
        xs[rng.randrange(1, curve.subgroup_order)] = None
    return gas_core._deal_group(curve, t, tuple(zip(roster_ids(n), xs)), rng, epoch=1)


# --- initialization -----------------------------------------------------------

def test_gm_init_composes_with_sss_and_ec_oracles():
    _, config, shares = setup_group(t=3, n=5)
    assert len(shares) == 5
    # any 3 shares reconstruct the secret whose point is Q and whose hash is H(s)
    for chosen in ([0, 1, 2], [2, 3, 4], [0, 2, 4]):
        s = reconstruct([shares[i] for i in chosen], 3)
        assert scalar_mul(s.residue, config.curve.generator, CURVE) == config.group_public_key
        assert verify_commitment(s, config.commitment)


def test_gm_init_t1_degenerate():
    _, config, shares = setup_group(t=1, n=4, seed=9)
    ys = {s.y.residue for s in shares}
    assert len(ys) == 1  # constant polynomial: every y is the secret
    s = reconstruct(shares[:1], 1)
    assert scalar_mul(s.residue, config.curve.generator, CURVE) == config.group_public_key


def test_gm_init_validation():
    rng = random.Random(1)
    with pytest.raises(ValueError):
        gm_init(6, 5, CURVE, rng)
    with pytest.raises(ValueError):
        gm_init(0, 5, CURVE, rng)
    with pytest.raises(ValueError, match="distinct nonzero"):
        gm_init(2, 37, CURVE, rng)  # only 36 nonzero x values mod 37


def test_config_invariants():
    _, config, _ = setup_group()
    roster = (("U1", 1), ("U2", 1))
    with pytest.raises(ValueError, match="distinct"):
        dataclasses.replace(config, roster=roster)
    with pytest.raises(ValueError, match="threshold"):
        dataclasses.replace(config, threshold=9)
    assert config.epoch == 1
    assert config.member_ids == [f"U{i}" for i in range(1, 6)]


def test_roster_index_answers_for_its_own_roster():
    config, _ = random_roster_group(18, 36, CURVE, random.Random(3))
    assert [config.roster_x(mid).residue for mid, _ in config.roster] == [
        x for _, x in config.roster
    ]
    assert config.member_ids == [mid for mid, _ in config.roster]
    with pytest.raises(UnknownMemberError, match="'U99'"):
        config.roster_x("U99")
    # a replaced roster is indexed anew, not read from the old index
    roster = tuple(zip(config.member_ids[:-1], [x for _, x in config.roster][::-1]))
    smaller = dataclasses.replace(config, roster=roster)
    assert [smaller.roster_x(mid).residue for mid, _ in roster] == [x for _, x in roster]
    assert smaller.member_ids == config.member_ids[:-1]
    with pytest.raises(UnknownMemberError, match="'U36'"):
        smaller.roster_x("U36")


# --- public shares --------------------------------------------------------------

def test_make_public_share_is_one_scalar_mul():
    _, config, shares = setup_group()
    state = MemberState(share=shares[0], config=config)
    with MulCounter() as ops:
        ps = make_public_share(state)
    assert ops.ec_scalar_muls == 1
    assert ps.member_id == "U1"


def test_make_public_share_matches_repeated_addition():
    _, config, shares = setup_group()
    state = MemberState(share=shares[2], config=config)
    ps = make_public_share(state)
    acc = CurvePoint(None, None)
    for _ in range(shares[2].y.residue):
        acc = add(acc, config.curve.generator, CURVE)
    assert ps.point == acc


def test_zero_share_rejected_by_public_share_invariant():
    _, config, _ = setup_group()
    q = config.scalar_field
    zero_share = Share(x=FieldElement(1, q), y=FieldElement(0, q), member_id="U1")
    state = MemberState(share=zero_share, config=config)
    with pytest.raises(ValueError, match="infinity"):
        make_public_share(state)


def test_equal_private_shares_give_equal_points():
    _, config, shares = setup_group()
    q = config.scalar_field
    a = MemberState(share=shares[0], config=config)
    clone = Share(x=FieldElement(9, q), y=shares[0].y, member_id="U9")
    b = MemberState(share=clone, config=config)
    assert make_public_share(a).point == make_public_share(b).point


# --- centralized confirmation ----------------------------------------------------

def test_gm_verify_honest():
    _, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    verdicts = gm_verify(config, shares, public_shares)
    assert all(verdicts.values()) and len(verdicts) == 5


def test_gm_verify_flags_random_point():
    rng, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    expected = public_shares[1].point
    point = expected
    while point == expected:
        point = scalar_mul(rng.randrange(1, 37), config.curve.generator, CURVE)
    forged = [ps if ps.member_id != "U2" else PublicShare("U2", point, CURVE)
              for ps in public_shares]
    verdicts = gm_verify(config, shares, forged)
    assert verdicts == {"U1": True, "U2": False, "U3": True, "U4": True, "U5": True}


def test_gm_verify_unknown_and_duplicate():
    _, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    ghost = PublicShare("U99", public_shares[0].point, CURVE)
    with pytest.raises(UnknownMemberError):
        gm_verify(config, shares, [ghost])
    with pytest.raises(ValueError, match="duplicate"):
        gm_verify(config, shares, [public_shares[0], public_shares[0]])


# --- decentralized confirmation ---------------------------------------------------

def test_decentralized_verify_at_threshold_and_above():
    _, config, shares = setup_group(t=3, n=6, seed=13)
    _, public_shares = run_confirmation(config, shares)
    assert decentralized_verify(config, public_shares[:3])
    assert decentralized_verify(config, public_shares[:5])
    assert decentralized_verify(config, public_shares)


def test_decentralized_verify_agrees_with_sss_reconstruction():
    _, config, shares = setup_group(t=2, n=5, seed=17)
    subset = [shares[1], shares[3], shares[4]]
    s = reconstruct(subset, 2)
    states, _ = run_confirmation(config, shares)
    pss = [make_public_share(states[sh.member_id]) for sh in subset]
    assert decentralized_verify(config, pss)
    assert scalar_mul(s.residue, config.curve.generator, CURVE) == config.group_public_key


def test_decentralized_verify_rejects_corruption():
    rng, config, shares = setup_group(t=3, n=5, seed=19)
    _, public_shares = run_confirmation(config, shares)
    honest_point = public_shares[0].point
    bad_point = honest_point
    while bad_point == honest_point:
        bad_point = scalar_mul(rng.randrange(1, 37), config.curve.generator, CURVE)
    tampered = [PublicShare("U1", bad_point, CURVE)] + public_shares[1:]
    assert not decentralized_verify(config, tampered)
    # on secp160r1 the weights take the width-4 NAF: a tampered share, two
    # members' points swapped, a negated share
    rng = random.Random(19)
    config, shares = gm_init(3, 5, builtin_curve("secp160r1"), rng)
    _, public_shares = run_confirmation(config, shares)
    assert decentralized_verify(config, public_shares)
    first, second = public_shares[:2]
    curve = config.curve
    bad_point = scalar_mul(rng.randrange(1, curve.subgroup_order), curve.generator, curve)
    negated = negate(first.point)
    for corrupt in (
        [PublicShare(first.member_id, bad_point, curve), second],
        [PublicShare(first.member_id, second.point, curve),
         PublicShare(second.member_id, first.point, curve)],
        [PublicShare(first.member_id, negated, curve), second],
    ):
        assert not decentralized_verify(config, corrupt + public_shares[2:])


@pytest.mark.parametrize(("name", "t", "n", "flipped"), [
    # x = 1..m, so L_i(0) = +-C(m, i): on secp160r1 every even x is q - C(m, i)
    ("secp160r1", 15, 30, list(range(1, 30, 2))),
    ("test2017", 3, 7, [2, 4, 5]),  # 35, 21 and 37 - 7 = 30, above 37/2
])
def test_decentralized_verify_tampered_share_in_a_flipped_term(name, t, n, flipped):
    # a weight above q/2 enters as (q - w, -C_i); a share tampered in such a
    # term, or replaced by its own negation, is still refused
    rng = random.Random(59)
    config, shares = gm_init(t, n, builtin_curve(name), rng)
    _, public_shares = run_confirmation(config, shares)
    assert decentralized_verify(config, public_shares)
    curve, q = config.curve, config.curve.subgroup_order
    xs = [config.roster_x(ps.member_id).residue for ps in public_shares]
    assert [i for i, w in enumerate(lagrange_weights(xs, 0, q)) if 2 * w > q] == flipped
    for i in flipped:
        honest = public_shares[i]
        shifted = add(honest.point, curve.generator, curve)
        negated = negate(honest.point)
        for bad in (shifted, negated):
            tampered = list(public_shares)
            tampered[i] = PublicShare(honest.member_id, bad, curve)
            assert not decentralized_verify(config, tampered)
    # a t-subset holding flipped shares has other weights, and is accepted
    chosen = [public_shares[i] for i in flipped[:t]]
    chosen += [ps for j, ps in enumerate(public_shares) if j not in flipped][: t - len(chosen)]
    assert decentralized_verify(config, chosen)


def test_decentralized_verify_threshold_and_membership():
    _, config, shares = setup_group(t=3, n=5)
    _, public_shares = run_confirmation(config, shares)
    with pytest.raises(ThresholdError, match="equal or larger"):
        decentralized_verify(config, public_shares[:2])
    with pytest.raises(UnknownMemberError):
        decentralized_verify(
            config, public_shares[:2] + [PublicShare("U99", public_shares[0].point, CURVE)]
        )
    with pytest.raises(ValueError, match="duplicate"):
        decentralized_verify(config, [public_shares[0]] * 3)


@pytest.mark.parametrize("name", ["test2017", "secp160r1"])
def test_verifiers_compare_in_jacobian_coordinates_as_affine_points(name):
    # gm_verify and decentralized_verify compare a Jacobian result with the
    # point they check: each verdict is the affine `==`'s, and gm_verify
    # tallies per member the GM table's mixed additions, one per nonzero
    # 8-bit digit of the share but the first, and the 4 of the comparison
    config, shares = gm_init(3, 6, builtin_curve(name), random.Random(61))
    _, honest = run_confirmation(config, shares)
    curve = config.curve
    p, q = curve.modulus.value, config.scalar_field.value
    by_id = {s.member_id: s for s in shares}
    first, second = honest[:2]
    x, y = first.point.x, first.point.y
    other = _prime_above(p)
    negated = PublicShare(first.member_id, negate(first.point), curve)
    wrong_id = PublicShare(first.member_id, second.point, curve)
    # a coordinate of another prime, though its residue satisfies the
    # equation, is refused where the share is made, not by a verifier
    for foreign in (CurvePoint(other.element(x.residue), other.element(y.residue)),
                    CurvePoint(x, other.element(y.residue))):
        with pytest.raises(ValueError, match=f"^public share of {first.member_id}: "
                                             f"coordinates must be elements of F_{p}$"):
            PublicShare(first.member_id, foreign, curve)
    for ps, accepted in [*((ps, True) for ps in honest), (negated, False), (wrong_id, False)]:
        y = by_id[ps.member_id].y.residue
        want = scalar_mul(y, curve.generator, curve) == ps.point
        with MulCounter() as ops:
            got = gm_verify(config, shares, [ps])
        assert got == {ps.member_id: want} == {ps.member_id: accepted}
        assert (ops.ec_scalar_muls, ops.field_muls) == (1, _fixed_base_muls(y, curve, _GM_WINDOW))
    # every share negated: the weighted sum is -Q, of Q's x
    all_negated = [PublicShare(ps.member_id, negate(ps.point), curve) for ps in honest]
    weights = lagrange_weights([config.roster_x(ps.member_id).residue for ps in honest], 0, q)
    minus_q = _multi_scalar_mul([(w, ps.point) for w, ps in zip(weights, all_negated)], curve)
    assert minus_q == negate(config.group_public_key)
    m = len(honest)
    for received, accepted in [
        (honest, True),
        ([negated, *honest[1:]], False),
        ([wrong_id, *honest[1:]], False),
        ([wrong_id, PublicShare(second.member_id, first.point, curve), *honest[2:]], False),
        (all_negated, False),
    ]:
        with MulCounter() as ops:
            assert decentralized_verify(config, received) is accepted
        interleaved = _interleaved_muls(_lagrange_terms(config, received), curve)
        assert (ops.ec_scalar_muls, ops.field_muls) == (m, m * m + 6 * m + interleaved)


@pytest.mark.parametrize("name", BUILTIN_CURVES)
def test_gm_verify_expected_point_matches_oracle_at_boundary_scalars(name):
    # a share of y = 1, 2^w - 1, 2^w or n - 1 (w the GM table's window, the
    # scalars reduced mod n): gm_verify accepts the oracle's y * P and
    # refuses (y + 1) * P.  On test2017 and toy5, n < 2^w, so the GM
    # table's one row stops at (n - 1) P and no entry wraps to infinity.
    curve = builtin_curve(name)
    config, shares = gm_init(1, 2, curve, random.Random(31))
    q, n, g = config.scalar_field, curve.subgroup_order, curve.generator
    for y in (1, 2**_GM_WINDOW - 1, 2**_GM_WINDOW, n - 1):
        share = dataclasses.replace(shares[0], y=FieldElement(y % n, q))
        for k, accepted in ((y, True), (y + 1, False)):
            point = mul(k, g, curve)
            if point.is_infinity:  # k = 0 mod n: no public share encodes it
                continue
            ps = PublicShare(share.member_id, point, curve)
            with MulCounter() as ops:
                assert gm_verify(config, [share], [ps]) == {share.member_id: accepted}
            assert (ops.ec_scalar_muls, ops.field_muls) == (1, _fixed_base_muls(y, curve, _GM_WINDOW))
    assert all(entry is not None for row in curve._gm_table for entry in row[1:])


def test_gm_table_is_built_on_the_first_check_only():
    # loading, the scalar field, dealing and a member's public share leave
    # the GM's table unbuilt; the first gm_verify builds it on the curve
    for name in BUILTIN_CURVES:
        curve = builtin_curve.__wrapped__(name)  # a fresh load, past the cache
        assert curve is not builtin_curve(name)
        assert "_gm_table" not in vars(curve)
        curve.scalar_field()
        config, shares = gm_init(1, 2, curve, random.Random(3))
        state = MemberState(share=shares[0], config=config)
        ps = make_public_share(state)
        assert "_gm_table" not in vars(curve)
        assert gm_verify(config, shares, [ps]) == {ps.member_id: True}
        assert "_gm_table" in vars(curve)


def _lagrange_terms(config, received):
    """The signed term of each received share, the weights by hand: (L_i(0),
    C_i), or (q - L_i(0), -C_i) when L_i(0) > q/2."""
    q = config.curve.subgroup_order
    xs = [config.roster_x(ps.member_id).residue for ps in received]
    terms = []
    for i, ps in enumerate(received):
        lam = 1
        for j, x_j in enumerate(xs):
            if j != i:
                lam = lam * x_j * pow(x_j - xs[i], -1, q) % q
        terms.append((q - lam, negate(ps.point)) if 2 * lam > q else (lam, ps.point))
    return terms


@pytest.mark.parametrize(("curve", "t", "n", "counts"), [
    # m = n weights from one batch inversion, m^2 + 6m multiplications, and m TEMs
    ("test2017", 3, 7, (7 * 7 + 6 * 7, 7)),
    ("secp160r1", 4, 9, (9 * 9 + 6 * 9, 9)),
])
def test_decentralized_verify_tally_pinned(curve, t, n, counts):
    # the weights, then one interleaved multi-scalar multiplication of the
    # signed terms, whose tally is rebuilt from their digits
    config, shares = gm_init(t, n, builtin_curve(curve), random.Random(41))
    _, public_shares = run_confirmation(config, shares)
    with MulCounter() as ops:
        assert decentralized_verify(config, public_shares)
    weight_muls, tems = counts
    interleaved = _interleaved_muls(_lagrange_terms(config, public_shares), config.curve)
    assert (ops.field_muls, ops.ec_scalar_muls) == (weight_muls + interleaved, tems)


def test_each_public_share_is_checked_once_where_it_is_made(monkeypatch):
    # an honest session per curve: one `check_affine_point` per decoded
    # frame, and none in the verifiers or the pairwise ECDH, which read the
    # checked ints.  test2017's honest points are one set lookup each, with
    # no test of the curve equation; secp160r1's are one test each.
    import gaskit.ec

    for name in ("_on_curve", "_satisfies", "is_on_curve"):
        assert not hasattr(gas_core, name)
    counts = collections.Counter()

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, wrapper)
        return wrapper

    counted(gas_core, "public_share_from_frame", "frames")
    check = counted(gaskit.ec, "check_affine_point", "checks")
    monkeypatch.setattr(gas_core, "check_affine_point", check)
    counted(gaskit.ec, "_satisfies", "equations")
    for name, t, m in (("test2017", 4, 9), ("secp160r1", 3, 6)):
        config, shares = gm_init(t, m, builtin_curve(name), random.Random(41))
        counts.clear()
        states, received = run_confirmation(config, shares)
        assert counts["frames"] == m * m  # each of m frames, by m - 1 peers and the GM
        assert counts["checks"] == counts["frames"]
        assert counts["equations"] == (0 if name == "test2017" else m * m)
        counts.clear()
        assert all(gm_verify(config, shares, received).values())
        assert decentralized_verify(config, received)
        exchange_group_key(states, random.Random(5))
        assert not counts


def test_decentralized_accepts_when_gm_accepts():
    for seed in range(5):
        _, config, shares = setup_group(t=2, n=6, seed=seed)
        _, public_shares = run_confirmation(config, shares)
        verdicts = gm_verify(config, shares, public_shares)
        assert all(verdicts.values())
        assert decentralized_verify(config, public_shares)


def test_receive_public_share_same_point_again_is_a_no_op():
    _, config, shares = setup_group(t=2, n=4, seed=43)
    states, public_shares = run_confirmation(config, shares)
    u1 = states["U1"]
    held = dict(u1.received_public_shares)
    for ps in public_shares:
        u1.receive_public_share(PublicShare(ps.member_id, ps.point, config.curve))
    assert u1.received_public_shares == held


@pytest.mark.parametrize("peer", ["U2", "U1"])  # a peer's entry and the member's own
def test_receive_public_share_refuses_a_conflicting_point(peer):
    rng, config, shares = setup_group(t=2, n=4, seed=43)
    states, public_shares = run_confirmation(config, shares)
    u1 = states["U1"]
    encrypt_share_for_peer(u1, "U2", rng)  # keys the U1-U2 channel
    key_before = u1.pairwise_keys["U2"]
    held = u1.received_public_shares[peer]
    other = add(held.point, config.curve.generator, CURVE)
    with pytest.raises(PeerAuthenticationError) as exc:
        u1.receive_public_share(PublicShare(peer, other, CURVE))
    assert exc.value.peer_id == peer
    assert u1.received_public_shares[peer] is held
    assert u1.pairwise_keys["U2"] == key_before


# --- pairwise keys ------------------------------------------------------------------

def _reference_key(own, peer, config):
    """ECDH one peer at a time: K from y_i * (y_j P), as `ensure_pairwise_keys`
    batches it; ValueError for a degenerate shared point."""
    shared = scalar_mul(own.y.residue, peer.point, config.curve)
    if shared.is_infinity:
        raise ValueError("degenerate shared point")
    return pairwise_key(shared.x.to_bytes(), own.member_id, peer.member_id)


def test_pairwise_key_symmetry():
    _, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    for state in states.values():
        gas_core.ensure_pairwise_keys(state)
    for a in states:
        for b in states:
            if a != b:
                assert states[a].pairwise_keys[b] == states[b].pairwise_keys[a]
    k_ij = _reference_key(shares[0], public_shares[1], config)
    k_ji = _reference_key(shares[1], public_shares[0], config)
    assert k_ij == k_ji == states["U1"].pairwise_keys["U2"]


def test_pairwise_key_matches_bruteforce_ecdh_oracle():
    import hashlib

    _, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    # discrete-log both public points by exhaustive search on the 37-subgroup
    def dlog(point):
        acc = CurvePoint(None, None)
        for k in range(37):
            if acc == point:
                return k
            acc = add(acc, config.curve.generator, CURVE)
        raise AssertionError("dlog not found")

    y_i = dlog(public_shares[0].point)
    y_j = dlog(public_shares[1].point)
    assert y_i == shares[0].y.residue and y_j == shares[1].y.residue
    shared = scalar_mul(y_i * y_j % 37, config.curve.generator, CURVE)
    ida, idb = sorted(("U1", "U2"))
    expected = hashlib.sha256(
        b"gaskit/pairwise/v1"
        + len(shared.x.to_bytes()).to_bytes(2, "big") + shared.x.to_bytes()
        + len(ida.encode()).to_bytes(2, "big") + ida.encode()
        + len(idb.encode()).to_bytes(2, "big") + idb.encode()
    ).digest()
    gas_core.ensure_pairwise_keys(states["U1"])
    assert states["U1"].pairwise_keys["U2"] == expected
    assert _reference_key(shares[0], public_shares[1], config) == expected
    assert pairwise_key(shared.x.to_bytes(), "U2", "U1") == expected


def test_pairwise_key_not_attacker_computable_combination():
    _, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    gas_core.ensure_pairwise_keys(states["U1"])
    real = states["U1"].pairwise_keys["U2"]
    joint = add(public_shares[0].point, public_shares[1].point, CURVE)
    bogus = _reference_key(
        Share(x=shares[0].x, y=FieldElement(1, config.scalar_field), member_id="U1"),
        PublicShare("U2", joint, CURVE),
        config,
    )
    assert real != bogus


# --- key agreement -------------------------------------------------------------------

def test_key_agreement_end_to_end():
    rng, config, shares = setup_group(t=3, n=5, seed=21)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng)
    assert verify_commitment(key, config.commitment)
    assert all(st.group_key == key for st in states.values())
    # both ends of every channel of an honest session hold the same 32 bytes
    for curve_name, m in (("test2017", 8), ("secp160r1", 5)):
        config, shares = gm_init(3, m, builtin_curve(curve_name), rng)
        states, _ = run_confirmation(config, shares)
        exchange_group_key(states, rng)
        for a, state in states.items():
            assert len(state.pairwise_keys) == m - 1
            for b, k_ab in state.pairwise_keys.items():
                assert type(k_ab) is bytes and len(k_ab) == 32
                assert k_ab == states[b].pairwise_keys[a]


def test_encrypt_for_peer_derives_every_missing_key_in_one_batch():
    rng, config, shares = setup_group(t=3, n=5, seed=21)
    states, _ = run_confirmation(config, shares)
    u1 = states["U1"]
    with MulCounter() as ops:
        encrypt_share_for_peer(u1, "U3", rng)
    assert ops.ec_scalar_muls == 4
    assert list(u1.pairwise_keys) == ["U2", "U3", "U4", "U5"]
    assert u1.pairwise_keys == _per_peer_keys(u1)[0]
    with MulCounter() as ops:
        encrypt_share_for_peer(u1, "U3", rng)
        encrypt_share_for_peer(u1, "U5", rng)
    assert ops.ec_scalar_muls == 0
    # the member itself and an unknown peer are refused before any derivation
    u2 = states["U2"]
    with MulCounter() as ops:
        for peer in ("U2", "U9"):
            with pytest.raises(UnknownMemberError):
                encrypt_share_for_peer(u2, peer, rng)
    assert ops.ec_scalar_muls == 0 and u2.pairwise_keys == {}
    # the whole stage still derives each of the m(m-1) keys exactly once
    with MulCounter() as ops:
        exchange_group_key(states, rng)
    assert ops.ec_scalar_muls == 5 * 4 - 4


def test_key_agreement_garbage_ciphertext_names_peer():
    rng, config, shares = setup_group(t=2, n=4, seed=25)
    states, _ = run_confirmation(config, shares)
    good = encrypt_share_for_peer(states["U2"], "U1", rng)
    garbage = wire.encode_encrypted_payload(b"\x00" * 12, b"\xff" * len(good[14:]))
    with pytest.raises(PeerAuthenticationError) as exc:
        key_agreement_round(states["U1"], {"U2": good, "U3": garbage})
    assert exc.value.peer_id == "U3"
    assert states["U1"].group_key is None  # no partial key accepted


def _per_peer_keys(state):
    """One `_reference_key` per peer, in `received_public_shares` order:
    the keys derived and the peer whose shared point was degenerate, if any."""
    keys = {}
    for mid, ps in state.received_public_shares.items():
        if mid != state.member_id:
            try:
                keys[mid] = _reference_key(state.share, ps, state.config)
            except ValueError:
                return keys, mid
    return keys, None


@pytest.mark.parametrize("curve_name", ["test2017", "secp160r1"])
def test_ensure_pairwise_keys_matches_per_peer_derivation(curve_name):
    rng = random.Random(31)
    config, shares = gm_init(4, 7, builtin_curve(curve_name), rng)
    states, _ = run_confirmation(config, shares)
    for mid, state in states.items():
        with MulCounter() as ops:
            gas_core.ensure_pairwise_keys(state)
        assert ops.ec_scalar_muls == 6
        assert state.pairwise_keys == _per_peer_keys(state)[0]
        assert len(state.pairwise_keys) == 6 and mid not in state.pairwise_keys
    # only missing keys are derived; one already held is kept as it is
    state = MemberState(share=shares[0], config=config)
    for ps in states["U1"].received_public_shares.values():
        state.receive_public_share(ps)
    held = _reference_key(shares[0], state.received_public_shares["U4"], config)
    state.pairwise_keys["U4"] = held
    with MulCounter() as ops:
        gas_core.ensure_pairwise_keys(state)
    assert ops.ec_scalar_muls == 5
    assert state.pairwise_keys["U4"] is held
    assert state.pairwise_keys == states["U1"].pairwise_keys


def test_ensure_pairwise_keys_raises_at_the_same_peer_as_per_peer_derivation():
    # T = (1981, 1664) has order 5.  U1's y = 35 makes y T and y 2T
    # infinity, stored under U3 and U6; U5's y = 3 does not, but T still
    # sends its batch through the per-point fallback.  No checked share
    # holds T, so the two are built unchecked, to reach the degenerate
    # shared point's PeerAuthenticationError.
    rng = random.Random(5)
    config, shares = gm_init(4, 8, CURVE, rng)
    assert [s.y.residue for s in shares][0:5:4] == [35, 3]
    states, _ = run_confirmation(config, shares)
    torsion = CurvePoint(*map(CURVE.modulus.element, (1981, 1664)))
    double = add(torsion, torsion, CURVE)
    for mid in ("U1", "U5"):
        received = states[mid].received_public_shares
        for peer, pt in (("U3", torsion), ("U6", double)):
            received[peer] = gas_core._new_share(
                PublicShare, (peer, pt.x.residue, pt.y.residue, CURVE.modulus))
    want, culprit = _per_peer_keys(states["U1"])
    assert culprit == "U3" and list(want) == ["U2"]
    with pytest.raises(PeerAuthenticationError, match="degenerate shared point") as exc:
        gas_core.ensure_pairwise_keys(states["U1"])
    assert exc.value.peer_id == "U3"
    assert states["U1"].pairwise_keys == want
    want, culprit = _per_peer_keys(states["U5"])
    assert culprit is None and len(want) == 7
    gas_core.ensure_pairwise_keys(states["U5"])
    assert states["U5"].pairwise_keys == want


@pytest.mark.parametrize("curve_name", ["test2017", "secp160r1"])
def test_ensure_pairwise_keys_refuses_a_zero_own_share_first(curve_name):
    # y_i = 0 makes every shared point infinity; the fault is the member's
    # own share, so it is named before any TEM is counted, not a peer
    config, shares = gm_init(3, 5, builtin_curve(curve_name), random.Random(3))
    states, _ = run_confirmation(config, shares)
    u1 = states["U1"]
    u1.share = Share(shares[0].x, FieldElement(0, config.scalar_field), "U1")
    with MulCounter() as ops, pytest.raises(ValueError, match="U1"):
        gas_core.ensure_pairwise_keys(u1)
    assert ops.ec_scalar_muls == 0 and u1.pairwise_keys == {}


def test_ensure_pairwise_keys_falls_back_at_a_prime_order_zero_denominator():
    # on secp160r1 the lockstep of y_i = n - 14 meets a zero denominator
    # with honest points of prime order; the per-peer fallback then derives
    # every key, one TEM per peer
    curve = builtin_curve("secp160r1")
    config, shares = gm_init(3, 5, curve, random.Random(31))
    states, _ = run_confirmation(config, shares)
    u1 = states["U1"]
    y = FieldElement(curve.subgroup_order - 14, config.scalar_field)
    u1.share = Share(shares[0].x, y, "U1")
    with MulCounter() as ops:
        gas_core.ensure_pairwise_keys(u1)
    assert ops.ec_scalar_muls == 4
    want, culprit = _per_peer_keys(u1)
    assert culprit is None and len(want) == 4
    assert u1.pairwise_keys == want


@pytest.mark.parametrize("forge", ["y_plus_q", "y_padded", "empty"])
def test_key_agreement_names_peer_whose_plaintext_is_not_a_scalar(forge):
    rng, config, shares = setup_group(t=2, n=3, seed=25)
    states, _ = run_confirmation(config, shares)
    gas_core.ensure_pairwise_keys(states["U1"])
    q = config.scalar_field
    y = states["U3"].share.y.residue
    plaintext = {
        "y_plus_q": (y + q.value).to_bytes(q.byte_length, "big"),
        "y_padded": b"\x00" + y.to_bytes(q.byte_length, "big"),
        "empty": b"",
    }[forge]
    # authentic under the U3-U1 key, so only the plaintext is at fault
    forged = gas_core._seal(
        states["U1"].pairwise_keys["U3"],
        gas_core._share_aad(config.epoch, "U3", "U1"),
        plaintext,
        rng,
    )
    good = encrypt_share_for_peer(states["U2"], "U1", rng)
    with pytest.raises(PeerAuthenticationError) as exc:
        key_agreement_round(states["U1"], {"U2": good, "U3": forged})
    assert exc.value.peer_id == "U3"
    assert states["U1"].group_key is None


def test_key_agreement_below_threshold():
    rng, config, shares = setup_group(t=3, n=5, seed=27)
    states, _ = run_confirmation(config, shares, ["U1", "U2"])
    payload = encrypt_share_for_peer(states["U2"], "U1", rng)
    with pytest.raises(ThresholdError):
        key_agreement_round(states["U1"], {"U2": payload})


def test_key_agreement_commitment_mismatch():
    rng, config, shares = setup_group(t=2, n=3, seed=29)
    wrong = dataclasses.replace(
        config, commitment=commit(FieldElement(0, config.scalar_field))
    )
    states = {s.member_id: MemberState(share=s, config=wrong) for s in shares}
    pss = [make_public_share(st) for st in states.values()]
    for st in states.values():
        for ps in pss:
            st.receive_public_share(ps)
    inbox = {
        "U2": encrypt_share_for_peer(states["U2"], "U1", rng),
        "U3": encrypt_share_for_peer(states["U3"], "U1", rng),
    }
    with pytest.raises(CommitmentMismatchError):
        key_agreement_round(states["U1"], inbox)


def test_key_agreement_rejects_replayed_ciphertext_for_other_recipient():
    # AD binds sender and recipient: U2's message to U3 fails at U1
    rng, config, shares = setup_group(t=2, n=3, seed=31)
    states, _ = run_confirmation(config, shares)
    to_u3 = encrypt_share_for_peer(states["U2"], "U3", rng)
    with pytest.raises(PeerAuthenticationError):
        key_agreement_round(states["U1"], {"U2": to_u3, "U3": encrypt_share_for_peer(states["U3"], "U1", rng)})


# --- session drivers: every message as a frame ---------------------------------------

def _driver_group(m=6):
    """An honest test2017 group of m members, t = 3, and the rng of its seals."""
    config, shares = gm_init(3, m, CURVE, random.Random(31))
    return config, shares, random.Random(32)


def test_drivers_deliver_every_message_as_one_frame():
    # m public-share broadcasts, then m(m-1) sealed shares sender-major, each
    # seen once by the tap; every member holds its peers' shares as decoded
    m = 6
    config, shares, rng = _driver_group(m)
    frames = []
    states, public_shares = run_confirmation(config, shares, tap=_recorder(frames))
    key = exchange_group_key(states, rng, tap=_recorder(frames))
    assert verify_commitment(key, config.commitment)
    headers = [wire.decode_frame(f)[:3] for f in frames]
    ids = config.member_ids
    assert headers == (
        [(wire.PUBLIC_SHARE, config.epoch, mid) for mid in ids]
        + [(wire.ENCRYPTED_SHARE, config.epoch, mid) for mid in ids for _ in range(m - 1)]
    )
    assert frames[:m] == [public_share_frame(ps, config.epoch) for ps in public_shares]
    for mid, state in states.items():
        assert list(state.received_public_shares) == ids
        for peer in ids:
            held = state.received_public_shares[peer]
            assert held == public_shares[ids.index(peer)]
            assert (held is states[peer].received_public_shares[peer]) == (peer == mid)
    # recording changes nothing: untapped, the session gives the same shares and key
    untapped_states, untapped_shares = run_confirmation(config, shares)
    assert untapped_shares == public_shares
    assert exchange_group_key(untapped_states, _driver_group(m)[2]) == key


def test_every_seal_and_open_reads_the_module_binding(monkeypatch):
    # The benchmark's tracer replaces gas_core.ChaCha20Poly1305 by name and
    # counts a span per seal and open; a class bound that way must see all
    # m(m - 1) of each in one group-key exchange
    real = gas_core.ChaCha20Poly1305
    calls = []

    class Recording:
        def __init__(self, key):
            self._inner = real(key)

        def encrypt(self, *args):
            calls.append("seal")
            return self._inner.encrypt(*args)

        def decrypt(self, *args):
            calls.append("open")
            return self._inner.decrypt(*args)

    monkeypatch.setattr(gas_core, "ChaCha20Poly1305", Recording)
    m = 4
    config, shares, rng = _driver_group(m)
    states, _ = run_confirmation(config, shares)
    assert verify_commitment(exchange_group_key(states, rng), config.commitment)
    assert calls == ["seal"] * (m * (m - 1)) + ["open"] * (m * (m - 1))


def test_exchange_group_key_names_the_sender_of_a_corrupted_frame():
    config, shares, rng = _driver_group()
    states, _ = run_confirmation(config, shares)
    frames = []

    def corrupt(frame):  # flips one tag bit of the 8th seal, U2's to U4
        frames.append(frame)
        return frame[:-1] + bytes([frame[-1] ^ 1]) if len(frames) == 8 else frame

    with pytest.raises(PeerAuthenticationError) as err:
        exchange_group_key(states, rng, tap=corrupt)
    assert err.value.peer_id == wire.decode_frame(frames[7]).member_id == "U2"


def test_run_confirmation_refuses_a_frame_restamped_with_another_epoch():
    config, shares, _ = _driver_group()

    def restamp(frame):
        f = wire.decode_frame(frame)
        epoch = f.epoch + 1 if f.member_id == "U3" else f.epoch
        return wire.encode_frame(f.msg_type, epoch, f.member_id, f.payload)

    with pytest.raises(ValueError, match="frame of epoch 2, config is epoch 1"):
        run_confirmation(config, shares, tap=restamp)


@pytest.mark.parametrize("field", ["msg_type", "epoch", "member_id"])
def test_exchange_group_key_checks_each_sealed_frame_header(field):
    config, shares, rng = _driver_group()
    states, _ = run_confirmation(config, shares)
    changed = {"msg_type": wire.VERDICT, "epoch": config.epoch + 1, "member_id": "U5"}

    def rewrite(frame):
        f = wire.decode_frame(frame)
        if f.member_id != "U2":
            return frame
        return wire.encode_frame(*f._replace(**{field: changed[field]}))

    with pytest.raises(ValueError, match="is not U2's encrypted share"):
        exchange_group_key(states, rng, tap=rewrite)


def test_drivers_run_on_with_dropped_frames():
    # a dropped broadcast reaches no one; each member missing one peer's seal
    # still holds t shares
    config, shares, rng = _driver_group()

    def drop_u6(frame):
        return None if wire.decode_frame(frame).member_id == "U6" else frame

    states, public_shares = run_confirmation(config, shares, tap=drop_u6)
    ids = ["U1", "U2", "U3", "U4", "U5"]
    assert [ps.member_id for ps in public_shares] == ids
    for mid, state in states.items():
        assert list(state.received_public_shares) == (ids + ["U6"] if mid == "U6" else ids)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng, tap=drop_u6)
    assert verify_commitment(key, config.commitment)


# --- rotation -------------------------------------------------------------------------

def test_rotation_invalidates_old_public_shares():
    rng, config, shares = setup_group(t=3, n=5, seed=33)
    states, old_public = run_confirmation(config, shares)
    key = exchange_group_key(states, rng)
    rotation = rotate_credentials(config, key, rng)
    assert rotation.config.epoch == 2
    verdicts = gm_verify(rotation.config, rotation.shares, old_public)
    assert not any(verdicts.values())


def test_rotation_deterministic_under_seed():
    rng1, config, shares = setup_group(t=2, n=3, seed=35)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng1)
    rot_a = rotate_credentials(config, key, random.Random(111))
    rot_b = rotate_credentials(config, key, random.Random(111))
    assert rot_a.config == rot_b.config
    assert rot_a.shares == rot_b.shares
    assert rot_a.encrypted_bundle == rot_b.encrypted_bundle


def test_rotation_bundle_round_trip_and_access_control():
    rng, config, shares = setup_group(t=2, n=3, seed=37)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng)
    rotation = rotate_credentials(config, key, rng)
    for share in rotation.shares:
        opened = open_rotated_share(
            share.member_id, key, rotation.encrypted_bundle[share.member_id],
            rotation.config,
        )
        assert opened == share
    wrong_key = key + FieldElement(1, config.scalar_field)
    with pytest.raises(RotationError):
        open_rotated_share("U1", wrong_key, rotation.encrypted_bundle["U1"], rotation.config)


def test_rotation_to_a_reduced_roster_deals_only_its_members():
    rng, config, shares = setup_group(t=3, n=5, seed=39)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng)
    reduced = tuple(entry for entry in config.roster if entry[0] != "U2")
    rotation = rotate_credentials(config, key, rng, roster=reduced)
    assert rotation.config.member_ids == ["U1", "U3", "U4", "U5"]
    assert [(s.member_id, s.x.residue) for s in rotation.shares] == [
        ("U1", 1), ("U3", 3), ("U4", 4), ("U5", 5)
    ]
    assert "U2" not in rotation.encrypted_bundle
    opened = [
        open_rotated_share(mid, key, rotation.encrypted_bundle[mid], rotation.config)
        for mid in rotation.config.member_ids
    ]
    assert opened == rotation.shares
    for chosen in itertools.combinations(opened, 3):
        secret = reconstruct(list(chosen), 3)
        assert verify_commitment(secret, rotation.config.commitment)


def _seal_rotated_share(key, config, member_id, plaintext):
    """Any plaintext sealed under the member's rotation key, as the GM would."""
    cipher = ChaCha20Poly1305(gas_core._rotation_key(key, config.epoch, member_id))
    nonce = bytes(wire.NONCE_LEN)
    ct = cipher.encrypt(nonce, plaintext, gas_core._share_aad(config.epoch, "GM", member_id))
    return wire.encode_encrypted_payload(nonce, ct)


@pytest.mark.parametrize("curve_name", ["test2017", "secp160r1"])
def test_rotation_bundle_seals_y_alone(curve_name):
    """Every entry opened under its rotation key is the new y, byte_length bytes."""
    rng = random.Random(41)
    config, _ = gm_init(3, 5, builtin_curve(curve_name), rng)
    key = FieldElement(7, config.scalar_field)
    rotation = rotate_credentials(config, key, rng)
    epoch = rotation.config.epoch
    for share in rotation.shares:
        plaintext = gas_core._open(
            gas_core._rotation_key(key, epoch, share.member_id),
            gas_core._share_aad(epoch, "GM", share.member_id),
            rotation.encrypted_bundle[share.member_id],
        )
        assert len(plaintext) == config.scalar_field.byte_length
        assert plaintext == share.y.to_bytes()


@pytest.mark.parametrize(
    "forge", ["y_plus_q", "y_equals_q", "y_padded", "y_truncated", "malformed"]
)
def test_open_rotated_share_rejects_forged_payload(forge):
    rng, config, shares = setup_group(t=2, n=3, seed=39)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng)
    rotation = rotate_credentials(config, key, rng)
    share = rotation.shares[0]
    q = rotation.config.scalar_field
    y, width = share.y.residue, q.byte_length
    # the honest y sealed the same way opens, so only the forgery differs
    honest = _seal_rotated_share(key, rotation.config, share.member_id, share.y.to_bytes())
    assert open_rotated_share(share.member_id, key, honest, rotation.config) == share
    if forge == "malformed":  # no encrypted-share payload at all
        payload = b"\x00"
    else:
        payload = _seal_rotated_share(key, rotation.config, share.member_id, {
            "y_plus_q": (y + q.value).to_bytes(width, "big"),  # would reduce to the dealt y
            "y_equals_q": q.value.to_bytes(width, "big"),
            "y_padded": y.to_bytes(width + 1, "big"),  # non-canonical width
            "y_truncated": y.to_bytes(width, "big")[1:],
        }[forge])
    with pytest.raises(RotationError):
        open_rotated_share(share.member_id, key, payload, rotation.config)


# --- wire + config export ----------------------------------------------------------------

def test_public_share_frame_roundtrip():
    _, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    frame = public_share_frame(public_shares[0], config.epoch)
    epoch, ps = public_share_from_frame(frame, config)
    assert epoch == 1 and ps == public_shares[0]


def test_public_share_frame_rejects_bad_points():
    _, config, _ = setup_group()
    off = wire.encode_frame(
        wire.PUBLIC_SHARE, 1, "U1",
        wire.encode_point_payload((0).to_bytes(2, "big"), (7).to_bytes(2, "big")),
    )
    with pytest.raises(ValueError, match="off-curve"):
        public_share_from_frame(off, config)
    out_of_range = wire.encode_frame(
        wire.PUBLIC_SHARE, 1, "U1",
        wire.encode_point_payload((5000).to_bytes(2, "big"), (6).to_bytes(2, "big")),
    )
    with pytest.raises(ValueError, match="out of field range"):
        public_share_from_frame(out_of_range, config)
    pt = config.curve.generator
    p = (2017).to_bytes(2, "big")  # fits the coordinate width; only the range refuses it
    for x, y in ((p, pt.y.to_bytes()), (pt.x.to_bytes(), p)):
        at_p = wire.encode_frame(wire.PUBLIC_SHARE, 1, "U1", wire.encode_point_payload(x, y))
        with pytest.raises(ValueError, match="out of field range"):
            public_share_from_frame(at_p, config)
    wrong_type = wire.encode_frame(wire.VERDICT, 1, "U1", b"\x01")
    with pytest.raises(ValueError, match="expected public-share"):
        public_share_from_frame(wrong_type, config)
    padded = wire.encode_frame(  # an on-curve x with one extra leading zero byte
        wire.PUBLIC_SHARE, 1, "U1",
        wire.encode_point_payload(b"\x00" + pt.x.to_bytes(), pt.y.to_bytes()),
    )
    with pytest.raises(ValueError, match="bytes"):
        public_share_from_frame(padded, config)


def test_public_share_frame_refuses_the_small_subgroup():
    # test2017 has cofactor 55: T = (1981, 1664) has order 5, and a peer
    # who sent it would learn each ECDH partner's y mod 5 in 5 guesses
    _, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    torsion = _test2017_torsion()
    assert sorted(torsion) == [1, 5, 11, 55]
    T = curve_point(CURVE, 1981, 1664)
    assert T in torsion[5]
    small = [pt for order in (5, 11, 55) for pt in torsion[order]]
    shifted = [add(ps.point, pt, CURVE) for ps in public_shares for pt in small]
    for pt in [T, *small, *shifted]:
        frame = wire.encode_public_share(config.epoch, "U1", pt.x.to_bytes(), pt.y.to_bytes())
        with pytest.raises(ValueError, match="outside the subgroup of order 37"):
            public_share_from_frame(frame, config)
        with pytest.raises(ValueError, match="^public share of U1: .* outside the subgroup"):
            PublicShare("U1", pt, CURVE)
    # every honest share still decodes, and the listing is built untallied
    with MulCounter() as ops:
        for ps in public_shares:
            assert public_share_from_frame(public_share_frame(ps, 1), config)[1] == ps
    assert (ops.field_muls, ops.ec_scalar_muls) == (0, 0)


def test_public_share_frame_names_its_member_when_the_point_is_refused():
    _, config, _ = setup_group()
    g = config.curve.generator
    for (x, y), fault in (((0, 7), "point (0, 7) is off-curve"),
                          ((5000, 6), "5000 out of field range [0, 2017)"),
                          ((1981, 1664), "point (1981, 1664) is outside the subgroup of order 37"),
                          ((g.x.residue, g.y.residue), None)):
        frame = wire.encode_public_share(1, "U3", x.to_bytes(2, "big"), y.to_bytes(2, "big"))
        if fault is None:
            assert public_share_from_frame(frame, config)[1].member_id == "U3"
            continue
        with pytest.raises(ValueError) as decoded:
            public_share_from_frame(frame, config)
        assert str(decoded.value) == f"public share of U3: {fault}"
        if x < 2017:  # the constructor takes elements of F_2017 only
            with pytest.raises(ValueError) as built:
                PublicShare("U3", curve_point(CURVE, x, y), CURVE)
            assert str(built.value) == str(decoded.value)


def test_public_share_constructor_refuses_a_point_outside_the_subgroup():
    # a share built by hand passes the decoder's check: a torsion point,
    # which used to key a channel on one of 4 values computable from T
    # (SEC 1 v2, 3.2.2), an off-curve point and a point over another prime
    # are refused before any member can store them
    _, config, shares = setup_group()
    u1 = MemberState(share=shares[0], config=config)
    T = curve_point(CURVE, 1981, 1664)
    C2 = make_public_share(MemberState(share=shares[1], config=config))
    other = Prime(2027)
    for pt, fault in (
        (T, "point (1981, 1664) is outside the subgroup of order 37"),
        (add(C2.point, T, CURVE), "outside the subgroup of order 37"),
        (curve_point(CURVE, 1, 1), "point (1, 1) is off-curve"),
        (CurvePoint(other.element(C2.x), other.element(C2.y)),
         "coordinates must be elements of F_2017"),
        (CurvePoint(None, None), "point must not be infinity"),
    ):
        with pytest.raises(ValueError, match=f"^public share of U2: .*{re.escape(fault)}$"):
            u1.receive_public_share(PublicShare("U2", pt, CURVE))
    assert u1.received_public_shares == {}
    u1.receive_public_share(C2)
    gas_core.ensure_pairwise_keys(u1)
    assert u1.pairwise_keys == {"U2": _reference_key(shares[0], C2, config)}


def test_config_refuses_a_group_public_key_outside_the_subgroup():
    _, config, _ = setup_group()
    for Q, fault in ((curve_point(CURVE, 1981, 1664),
                      "point (1981, 1664) is outside the subgroup of order 37"),
                     (CurvePoint(None, None), "point must not be infinity"),
                     (curve_point(CURVE, 1, 1), "point (1, 1) is off-curve")):
        with pytest.raises(ValueError, match=f"^Q: {re.escape(fault)}$"):
            dataclasses.replace(config, group_public_key=Q)
    negated = negate(config.group_public_key)
    assert dataclasses.replace(config, group_public_key=negated).group_public_key == negated


def test_public_share_is_immutable_hashable_and_never_infinity():
    _, config, _ = setup_group()
    point = scalar_mul(5, config.curve.generator, CURVE)
    ps = PublicShare("U1", point, CURVE)
    assert ps == PublicShare(member_id="U1", point=scalar_mul(5, config.curve.generator, CURVE),
                             curve=CURVE)
    assert ps != PublicShare("U2", point, CURVE) and ps != ("U1", point)
    assert hash(ps) == hash(PublicShare("U1", point, CURVE))
    assert len({ps, PublicShare("U1", point, CURVE)}) == 1
    assert repr(ps) == f"PublicShare(member_id='U1', point={point!r})"
    with pytest.raises(AttributeError):
        ps.member_id = "U2"
    with pytest.raises(AttributeError):
        ps.extra = 1
    with pytest.raises(ValueError, match="^public share of U1: point must not be infinity$"):
        PublicShare("U1", CurvePoint(None, None), CURVE)


def test_public_share_equality_contract():
    _, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    ps = public_shares[0]
    x, y = ps.point.x.residue, ps.point.y.residue
    # a decoded copy is another object, equal and of the same hash
    _, copy = public_share_from_frame(public_share_frame(ps, config.epoch), config)
    assert copy is not ps and copy.point is not ps.point
    assert copy == ps and ps == copy and not copy != ps and hash(copy) == hash(ps)
    assert len({ps, copy}) == 1
    # equal only with the same id and the same residues over the same field
    assert ps != PublicShare("U2", ps.point, CURVE)
    assert ps != PublicShare(ps.member_id, curve_point(CURVE, x, -y), CURVE)
    # the same residues over another prime make no share of this curve
    other = Prime(2027)
    for fx, fy in ((other, other), (other, CURVE.modulus), (CURVE.modulus, other)):
        with pytest.raises(ValueError, match=f"^public share of {ps.member_id}: coordinates"):
            PublicShare(ps.member_id, CurvePoint(FieldElement(x, fx), FieldElement(y, fy)), CURVE)
    # anything that is not a share compares unequal, with no error; the
    # plain tuple of a share's fields too
    fields = (ps.member_id, ps.x, ps.y, ps.field)
    for alien in ((ps.member_id, ps.point), None, ps.point, ps.member_id, fields):
        assert ps != alien and alien != ps and not ps == alien and not alien == ps


def test_public_share_pickles_and_copies_as_the_same_value():
    # a slotted share whose __setattr__ raises needs its own __reduce__
    _, config, shares = setup_group()
    computed = make_public_share(MemberState(share=shares[0], config=config))
    _, decoded = public_share_from_frame(public_share_frame(computed, config.epoch), config)
    for ps in (computed, decoded):
        copies = [pickle.loads(pickle.dumps(ps, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(ps), copy.deepcopy(ps)]
        for other in copies:
            assert other == ps and not other != ps
            assert hash(other) == hash(ps) and repr(other) == repr(ps)


def test_torsion_public_share_is_refused_at_decode_and_in_run_confirmation():
    # test2017's T = (1981, 1664) has order 5; T + C_i has order 185.  As a
    # member's public share on the wire, each is refused by the decoder,
    # and so by every receiver inside run_confirmation
    _, config, shares = setup_group()
    _, honest = run_confirmation(config, shares)
    T = curve_point(CURVE, 1981, 1664)
    for ps in honest:
        for pt in (T, add(ps.point, T, CURVE)):
            frame = wire.encode_public_share(
                config.epoch, ps.member_id, pt.x.to_bytes(), pt.y.to_bytes())
            with pytest.raises(ValueError, match="outside the subgroup of order 37"):
                public_share_from_frame(frame, config)

            def swap(sent, sender=ps.member_id, frame=frame):
                return frame if wire.decode_frame(sent).member_id == sender else sent

            with pytest.raises(ValueError, match="outside the subgroup of order 37"):
                run_confirmation(config, shares, tap=swap)


def test_public_share_frame_of_another_epoch_is_refused():
    rng, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    ps = public_shares[0]
    with pytest.raises(ValueError, match="epoch 7"):
        public_share_from_frame(public_share_frame(ps, 7), config)
    # after a rotation the frames of epoch 1 no longer decode
    rotation = rotate_credentials(config, exchange_group_key(states, rng), rng)
    with pytest.raises(ValueError, match="epoch 1"):
        public_share_from_frame(public_share_frame(ps, config.epoch), rotation.config)


def test_wired_session_counts_pinned():
    # An honest test2017 session, m = 8, t = 4, whose every public share
    # crosses the wire: the scalar mults are deal 1 + confirm m + gm_verify
    # m + decentralized m + ECDH m(m-1) + rotation deal 1 = m^2 + 2m + 2.
    m, t = 8, 4
    rng = random.Random(5)
    with MulCounter() as ops:
        config, shares = gm_init(t, m, CURVE, rng)
        states = {s.member_id: MemberState(share=s, config=config) for s in shares}
        frames = [
            public_share_frame(make_public_share(st), config.epoch) for st in states.values()
        ]
        for frame in frames:
            for state in states.values():
                _, ps = public_share_from_frame(frame, config)
                state.receive_public_share(ps)
        received = list(states["U1"].received_public_shares.values())
        assert len(received) == m and all(gm_verify(config, shares, received).values())
        assert decentralized_verify(config, received)
        key = exchange_group_key(states, rng)
        rotation = rotate_credentials(config, key, rng)
        opened = [
            open_rotated_share(mid, key, rotation.encrypted_bundle[mid], rotation.config)
            for mid in config.member_ids
        ]
    assert opened == rotation.shares
    assert ops.ec_scalar_muls == m * m + 2 * m + 2 == 82
    # every step but gm_verify, the ECDH and decentralized_verify tallies
    # 1194.  gm_verify takes each y < 37 from one entry of the GM's 8-bit
    # table, 4 per member, where `make_public_share`'s 3-bit table adds 11
    # for each of the 6 y's with two nonzero 3-bit digits.
    ys = [s.y.residue for s in shares]
    assert sum(1 for y in ys if y & 7 and y >> 3) == 6
    gm = sum(_fixed_base_muls(y, CURVE, _GM_WINDOW) for y in ys)
    assert gm == 4 * m
    # Each member's m - 1 shared points run the binary digits of its y
    # (under 6 bits) in lockstep: 7 per point and doubling, 6 per point and
    # addition.  decentralized_verify: its m weights from one batch
    # inversion (m^2 + 6m) and its interleaved sum of signed terms, recounted
    ecdh = sum(
        (m - 1) * (7 * (y.bit_length() - 1) + 6 * (bin(y).count("1") - 1)) for y in ys
    )
    assert ecdh == 2009
    interleaved = _interleaved_muls(_lagrange_terms(config, received), CURVE)
    assert ops.field_muls == 1194 + gm + ecdh + m * m + 6 * m + interleaved


def test_config_epoch_fits_the_frame_header():
    _, config, _ = setup_group()
    for epoch in (-1, 2**32):
        with pytest.raises(ValueError, match="out of u32 range"):
            dataclasses.replace(config, epoch=epoch)
    last = dataclasses.replace(config, epoch=2**32 - 1)
    with pytest.raises(ValueError, match="out of u32 range"):
        rotate_credentials(last, FieldElement(1, last.scalar_field), random.Random(1))


def test_config_rejects_roster_x_outside_scalar_field():
    # x = q would become 0 in roster_x, and x = q + 1 the same element as 1
    _, config, _ = setup_group(n=3)
    q = config.scalar_field.value
    for xs in ([1, 2, q], [1, 2, q + 1], [0, 1, 2], [-1, 1, 2]):
        roster = tuple(zip(config.member_ids, xs))
        with pytest.raises(ValueError, match="roster x"):
            dataclasses.replace(config, roster=roster)
    assert dataclasses.replace(config, roster=tuple(zip(config.member_ids, [1, 2, q - 1])))


def test_random_roster_session_on_secp160r1():
    # q - 1 > sys.maxsize, a range rng.sample cannot take; the session then
    # runs through confirmation, both verifies and the batched key agreement
    rng = random.Random(16)
    curve = builtin_curve("secp160r1")
    config, shares = random_roster_group(3, 5, curve, rng)
    xs = [x for _, x in config.roster]
    assert len(set(xs)) == 5 and all(0 < x < curve.subgroup_order for x in xs)
    assert max(xs) > sys.maxsize
    states, public_shares = run_confirmation(config, shares)
    assert all(gm_verify(config, shares, public_shares).values())
    assert decentralized_verify(config, public_shares)
    with MulCounter() as ops:
        key = exchange_group_key(states, rng)
    assert ops.ec_scalar_muls == 5 * 4
    assert verify_commitment(key, config.commitment)
    assert all(state.group_key == key for state in states.values())
    assert states["U1"].pairwise_keys == _per_peer_keys(states["U1"])[0]


def test_decentralized_soundness_by_enumeration():
    """Exactly one candidate point can stand in for a member's public share,
    and it is the honest f(x_i)P: the sum check is sound at desk scale."""
    _, config, shares = setup_group(t=3, n=4, seed=43)
    states, public_shares = run_confirmation(config, shares)
    honest_rest = public_shares[1:]
    accepted_points = []
    point = config.curve.generator
    for k in range(1, 37):  # every non-infinity point of the 37-subgroup
        candidate = PublicShare("U1", point, CURVE)
        if decentralized_verify(config, [candidate] + honest_rest):
            accepted_points.append(point)
        point = add(point, config.curve.generator, CURVE)
    assert accepted_points == [public_shares[0].point]


# --- completeness smoke (the full sweep lives in the acceptance suite) ---------------------

def test_small_completeness_sweep():
    for n in range(1, 6):
        for t in range(1, n + 1):
            rng = random.Random(1000 + 10 * n + t)
            config, shares = gm_init(t, n, CURVE, rng)
            for m in range(t, n + 1):
                ids = [s.member_id for s in shares[:m]]
                states, pss = run_confirmation(config, shares, ids)
                assert all(gm_verify(config, shares, pss).values())
                assert decentralized_verify(config, pss)
                key = exchange_group_key(states, rng)
                assert verify_commitment(key, config.commitment)
