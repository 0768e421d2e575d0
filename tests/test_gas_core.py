"""Protocol state machine: confirmation, pairwise keys, key agreement, rotation."""

import dataclasses
import random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from gaskit import gas_core, wire
from gaskit.ec import CurvePoint, add, builtin_curve, scalar_mul
from gaskit.field import FieldElement, MulCounter
from gaskit.gas_core import (
    CommitmentMismatchError,
    MemberState,
    PeerAuthenticationError,
    PublicShare,
    RotationError,
    UnknownMemberError,
    config_from_dict,
    config_to_dict,
    decentralized_verify,
    derive_pairwise_key,
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
from gaskit.sss import Share, ThresholdError, commit, reconstruct, verify_commitment

CURVE = builtin_curve("test2017")


def setup_group(t=3, n=5, seed=7):
    rng = random.Random(seed)
    config, shares = gm_init(t, n, CURVE, rng)
    return rng, config, shares


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
    acc = CurvePoint.infinity()
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
    forged = [ps if ps.member_id != "U2" else PublicShare("U2", point)
              for ps in public_shares]
    verdicts = gm_verify(config, shares, forged)
    assert verdicts == {"U1": True, "U2": False, "U3": True, "U4": True, "U5": True}


def test_gm_verify_unknown_and_duplicate():
    _, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    ghost = PublicShare("U99", public_shares[0].point)
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
    tampered = [PublicShare("U1", bad_point)] + public_shares[1:]
    assert not decentralized_verify(config, tampered)


def test_decentralized_verify_threshold_and_membership():
    _, config, shares = setup_group(t=3, n=5)
    _, public_shares = run_confirmation(config, shares)
    with pytest.raises(ThresholdError, match="equal or larger"):
        decentralized_verify(config, public_shares[:2])
    with pytest.raises(UnknownMemberError):
        decentralized_verify(
            config, public_shares[:2] + [PublicShare("U99", public_shares[0].point)]
        )
    with pytest.raises(ValueError, match="duplicate"):
        decentralized_verify(config, [public_shares[0]] * 3)


def test_decentralized_accepts_when_gm_accepts():
    for seed in range(5):
        _, config, shares = setup_group(t=2, n=6, seed=seed)
        _, public_shares = run_confirmation(config, shares)
        verdicts = gm_verify(config, shares, public_shares)
        assert all(verdicts.values())
        assert decentralized_verify(config, public_shares)


# --- pairwise keys ------------------------------------------------------------------

def test_pairwise_key_symmetry():
    _, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    k_ij = derive_pairwise_key(shares[0], public_shares[1], config)
    k_ji = derive_pairwise_key(shares[1], public_shares[0], config)
    assert k_ij == k_ji


def test_pairwise_key_matches_bruteforce_ecdh_oracle():
    import hashlib

    _, config, shares = setup_group()
    states, public_shares = run_confirmation(config, shares)
    # discrete-log both public points by exhaustive search on the 37-subgroup
    def dlog(point):
        acc = CurvePoint.infinity()
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
    assert derive_pairwise_key(shares[0], public_shares[1], config).key_bytes == expected
    assert pairwise_key(shared, "U2", "U1").key_bytes == expected


def test_pairwise_key_not_attacker_computable_combination():
    _, config, shares = setup_group()
    _, public_shares = run_confirmation(config, shares)
    real = derive_pairwise_key(shares[0], public_shares[1], config)
    joint = add(public_shares[0].point, public_shares[1].point, CURVE)
    bogus = derive_pairwise_key(
        Share(x=shares[0].x, y=FieldElement(1, config.scalar_field), member_id="U1"),
        PublicShare("U2", joint),
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


def test_encrypt_for_peer_derives_only_that_peers_key():
    rng, config, shares = setup_group(t=3, n=5, seed=21)
    states, _ = run_confirmation(config, shares)
    u1 = states["U1"]
    with MulCounter() as ops:
        encrypt_share_for_peer(u1, "U3", rng)
        encrypt_share_for_peer(u1, "U3", rng)
    assert ops.ec_scalar_muls == 1
    assert list(u1.pairwise_keys) == ["U3"]
    with pytest.raises(UnknownMemberError):
        encrypt_share_for_peer(u1, "U1", rng)
    with pytest.raises(UnknownMemberError):
        encrypt_share_for_peer(u1, "U9", rng)
    # the whole stage still derives each of the m(m-1) keys exactly once
    with MulCounter() as ops:
        exchange_group_key(states, rng)
    assert ops.ec_scalar_muls == 5 * 4 - 1


def test_key_agreement_garbage_ciphertext_names_peer():
    rng, config, shares = setup_group(t=2, n=4, seed=25)
    states, _ = run_confirmation(config, shares)
    good = encrypt_share_for_peer(states["U2"], "U1", rng)
    garbage = wire.encode_encrypted_payload(b"\x00" * 12, b"\xff" * len(good[14:]))
    with pytest.raises(PeerAuthenticationError) as exc:
        key_agreement_round(states["U1"], {"U2": good, "U3": garbage})
    assert exc.value.peer_id == "U3"
    assert states["U1"].group_key is None  # no partial key accepted


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
        states["U1"].pairwise_keys["U3"].key_bytes,
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


def _seal_rotated_share(key, config, member_id, plaintext):
    """Any plaintext sealed under the member's rotation key, as the GM would."""
    cipher = ChaCha20Poly1305(gas_core._rotation_key(key, config.epoch, member_id))
    nonce = bytes(wire.NONCE_LEN)
    ct = cipher.encrypt(nonce, plaintext, gas_core._share_aad(config.epoch, "GM", member_id))
    return wire.encode_encrypted_payload(nonce, ct)


@pytest.mark.parametrize(
    "forge",
    ["x_plus_q", "y_plus_q", "x_equals_q", "x_padded", "other_members_x", "malformed"],
)
def test_open_rotated_share_rejects_forged_payload(forge):
    rng, config, shares = setup_group(t=2, n=3, seed=39)
    states, _ = run_confirmation(config, shares)
    key = exchange_group_key(states, rng)
    rotation = rotate_credentials(config, key, rng)
    share = rotation.shares[0]
    q = rotation.config.scalar_field

    def point(x, y):
        return wire.encode_point_payload(
            x.to_bytes(q.byte_length, "big"), y.to_bytes(q.byte_length, "big")
        )

    x, y = share.x.residue, share.y.residue
    forged = {
        "x_plus_q": point(x + q.value, y),  # would reduce to the roster x
        "y_plus_q": point(x, y + q.value),  # would reduce to the dealt y
        "x_equals_q": point(q.value, y),
        "x_padded": wire.encode_point_payload(  # non-canonical width
            b"\x00" + x.to_bytes(q.byte_length, "big"), y.to_bytes(q.byte_length, "big")
        ),
        "other_members_x": point(rotation.shares[1].x.residue, y),
        "malformed": b"\x00",
    }[forge]
    # the honest values sealed the same way open, so only the forgery differs
    honest = _seal_rotated_share(key, rotation.config, share.member_id, point(x, y))
    assert open_rotated_share(share.member_id, key, honest, rotation.config) == share
    payload = _seal_rotated_share(key, rotation.config, share.member_id, forged)
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
    wrong_type = wire.encode_frame(wire.VERDICT, 1, "U1", b"\x01")
    with pytest.raises(ValueError, match="expected public-share"):
        public_share_from_frame(wrong_type, config)
    pt = config.curve.generator
    padded = wire.encode_frame(  # an on-curve x with one extra leading zero byte
        wire.PUBLIC_SHARE, 1, "U1",
        wire.encode_point_payload(b"\x00" + pt.x.to_bytes(), pt.y.to_bytes()),
    )
    with pytest.raises(ValueError, match="bytes"):
        public_share_from_frame(padded, config)


def test_config_dict_roundtrip():
    _, config, _ = setup_group()
    data = config_to_dict(config)
    assert data["curve_ref"] == "test2017"
    assert set(data) == {
        "curve_ref", "P", "Q", "H_s", "t", "roster", "cipher_suite_id", "epoch",
    }
    again = config_from_dict(data)
    assert again == config


def test_config_from_dict_refuses_a_p_other_than_the_generator():
    # (1981, 1664) is on test2017 but has order 5: five members' f(x_i)P
    # would fall into a 5-point subgroup
    _, config, _ = setup_group()
    point = CurvePoint(*map(CURVE.modulus.element, (1981, 1664)))
    assert scalar_mul(5, point, CURVE).is_infinity
    data = config_to_dict(config)
    data["P"] = ["1981", "1664"]
    with pytest.raises(ValueError, match="P is not the generator"):
        config_from_dict(data)


def test_config_from_dict_refuses_other_cipher_suites():
    _, config, _ = setup_group()
    data = config_to_dict(config)
    data["cipher_suite_id"] = "rot13"
    with pytest.raises(ValueError, match="cipher suite"):
        config_from_dict(data)


def test_config_epoch_fits_the_frame_header():
    _, config, _ = setup_group()
    data = config_to_dict(config)
    for epoch in (-1, 2**32):
        data["epoch"] = epoch
        with pytest.raises(ValueError, match="out of u32 range"):
            config_from_dict(data)
    data["epoch"] = 2**32 - 1
    last = config_from_dict(data)
    with pytest.raises(ValueError, match="out of u32 range"):
        rotate_credentials(last, FieldElement(1, last.scalar_field), random.Random(1))


def test_config_from_dict_needs_curve():
    _, config, _ = setup_group()
    data = config_to_dict(config)
    data["curve_ref"] = None
    with pytest.raises(ValueError, match="curve"):
        config_from_dict(data)
    assert config_from_dict(data, curve=CURVE) == config


def test_config_rejects_roster_x_outside_scalar_field():
    # x = q would become 0 in roster_x, and x = q + 1 the same element as 1
    _, config, _ = setup_group(n=3)
    q = config.scalar_field.value
    for xs in ([1, 2, q], [1, 2, q + 1], [0, 1, 2], [-1, 1, 2]):
        roster = tuple(zip(config.member_ids, xs))
        with pytest.raises(ValueError, match="roster x"):
            dataclasses.replace(config, roster=roster)
    assert dataclasses.replace(config, roster=tuple(zip(config.member_ids, [1, 2, q - 1])))


def test_config_from_dict_rejects_coordinates_outside_field():
    _, config, _ = setup_group()
    p = CURVE.modulus.value
    for key in ("P", "Q"):
        for i in (0, 1):
            for shift in (p, -p):
                data = config_to_dict(config)
                data[key][i] = str(int(data[key][i]) + shift)
                with pytest.raises(ValueError, match="out of field range"):
                    config_from_dict(data)


@pytest.mark.parametrize(("key", "bad"), [("t", 3.0), ("t", 2.7), ("epoch", True),
                                          ("P", 1368.0), ("roster", 1.5)])
def test_config_from_dict_rejects_non_integer_numbers(key, bad):
    # int() would load t = 2.7 as 2 and epoch = true as 1
    _, config, _ = setup_group()
    data = config_to_dict(config)
    if key == "P":
        data["P"][0] = bad
    elif key == "roster":
        data["roster"][0][1] = bad
    else:
        data[key] = bad
    with pytest.raises(ValueError, match="must be an integer"):
        config_from_dict(data)


def test_gm_init_random_xs():
    rng = random.Random(41)
    config, shares = gm_init(3, 8, CURVE, rng, random_xs=True)
    xs = [x for _, x in config.roster]
    assert len(set(xs)) == 8 and all(0 < x < 37 for x in xs)
    assert xs != list(range(1, 9))  # actually randomized under this seed
    s = reconstruct(shares[:3], 3)
    assert scalar_mul(s.residue, config.curve.generator, CURVE) == config.group_public_key


def test_decentralized_soundness_by_enumeration():
    """Exactly one candidate point can stand in for a member's public share,
    and it is the honest f(x_i)P: the sum check is sound at desk scale."""
    _, config, shares = setup_group(t=3, n=4, seed=43)
    states, public_shares = run_confirmation(config, shares)
    honest_rest = public_shares[1:]
    accepted_points = []
    point = config.curve.generator
    for k in range(1, 37):  # every non-infinity point of the 37-subgroup
        candidate = PublicShare("U1", point)
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
