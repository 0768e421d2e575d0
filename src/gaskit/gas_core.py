"""The proposed group authentication protocol.

Flow: a group manager (GM) deals Shamir shares over the curve's prime
scalar field and publishes the curve, generator P, Q = s*P and H(s).  Each
member proves itself by broadcasting f(x_i)*P alongside its id; the GM
checks the points member-by-member (centralized) or any node checks
sum(L_i(0) * f(x_i)P) == Q (decentralized).  After confirmation, members
derive pairwise ECDH keys y_i*y_j*P, exchange their shares under
authenticated encryption, reconstruct s and check it against H(s).

The secret sharing field is the curve's subgroup order, so shares act
directly as scalars and the decentralized sum identity is exact.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field as dc_field
from typing import Mapping

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import wire
from .ec import (
    CurveParams, CurvePoint, add, builtin_curve, is_on_curve, scalar_mul, validate_point,
)
from .field import FieldElement, Prime, json_int, lagrange_coeff_at_zero
from .sss import (
    SecretCommitment,
    Share,
    ThresholdError,
    commit,
    dealer_polynomial_with_nonzero_shares,
    reconstruct,
    verify_commitment,
)

__all__ = [
    "CIPHER_SUITE_ID",
    "ProtocolError",
    "UnknownMemberError",
    "PeerAuthenticationError",
    "CommitmentMismatchError",
    "RotationError",
    "GroupConfig",
    "PublicShare",
    "MemberState",
    "SymmetricKey",
    "RotationResult",
    "gm_init",
    "make_public_share",
    "public_share_frame",
    "public_share_from_frame",
    "gm_verify",
    "decentralized_verify",
    "pairwise_key",
    "derive_pairwise_key",
    "ensure_pairwise_keys",
    "encrypt_share_for_peer",
    "key_agreement_round",
    "rotate_credentials",
    "open_rotated_share",
    "config_to_dict",
    "config_from_dict",
    "run_confirmation",
    "seal_shares",
    "open_shares",
    "exchange_group_key",
]

CIPHER_SUITE_ID = "sss-ecdh-chacha20poly1305-sha256"

_PAIRWISE_LABEL = b"gaskit/pairwise/v1"
_ROTATE_LABEL = b"gaskit/rotate/v1"


class ProtocolError(Exception):
    """Base class for protocol-level failures."""


class UnknownMemberError(ProtocolError):
    pass


class PeerAuthenticationError(ProtocolError):
    """An AEAD tag check failed; names the offending peer."""

    def __init__(self, peer_id: str, message: str | None = None):
        super().__init__(message or f"authentication failed for peer {peer_id}")
        self.peer_id = peer_id


class CommitmentMismatchError(ProtocolError):
    """Recovered group key does not hash to the published commitment."""


class RotationError(ProtocolError):
    pass


def _pack_fields(*fields: bytes) -> bytes:
    out = bytearray()
    for f in fields:
        out += len(f).to_bytes(2, "big")
        out += f
    return bytes(out)


def _kdf(label: bytes, *fields: bytes) -> bytes:
    return hashlib.sha256(label + _pack_fields(*fields)).digest()


@dataclass(frozen=True)
class SymmetricKey:
    """Pairwise cipher key; derived, never transmitted."""

    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) != 32:
            raise ValueError("key must be 32 bytes")


@dataclass(frozen=True)
class PublicShare:
    """Broadcast confirmation value f(x_i)*P together with the sender id."""

    member_id: str
    point: CurvePoint

    def __post_init__(self) -> None:
        if self.point.is_infinity:
            raise ValueError("public share point must not be infinity")


@dataclass(frozen=True)
class GroupConfig:
    """The GM's published bundle; holds no secret material.

    P is the curve's generator and the cipher suite is `CIPHER_SUITE_ID`;
    `config_to_dict` writes both, `config_from_dict` refuses any other.
    """

    curve: CurveParams
    group_public_key: CurvePoint  # Q = s * P
    commitment: SecretCommitment  # H(s)
    threshold: int
    roster: tuple[tuple[str, int], ...]  # (member_id, x residue)
    epoch: int = 1

    def __post_init__(self) -> None:
        if not is_on_curve(self.group_public_key, self.curve):
            raise ValueError("Q is not on the curve")
        if not 0 <= self.epoch < 2**32:  # the frame header's u32
            raise ValueError(f"epoch {self.epoch} out of u32 range")
        ids = [mid for mid, _ in self.roster]
        xs = [x for _, x in self.roster]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate member ids in roster")
        q = self.scalar_field.value
        if len(set(xs)) != len(xs) or not all(1 <= x < q for x in xs):
            raise ValueError(f"roster x values must be distinct and in [1, {q})")
        if not 1 <= self.threshold <= len(self.roster):
            raise ValueError(
                f"threshold {self.threshold} out of range for {len(self.roster)} members"
            )

    @property
    def scalar_field(self) -> Prime:
        return self.curve.scalar_field()

    def roster_x(self, member_id: str) -> FieldElement:
        for mid, x in self.roster:
            if mid == member_id:
                return FieldElement(x, self.scalar_field)
        raise UnknownMemberError(f"member {member_id!r} not in roster")

    @property
    def member_ids(self) -> list[str]:
        return [mid for mid, _ in self.roster]


@dataclass
class MemberState:
    """One member's view of a protocol run."""

    share: Share
    config: GroupConfig
    received_public_shares: dict[str, PublicShare] = dc_field(default_factory=dict)
    pairwise_keys: dict[str, SymmetricKey] = dc_field(default_factory=dict)
    group_key: FieldElement | None = None

    @property
    def member_id(self) -> str:
        return self.share.member_id

    def receive_public_share(self, ps: PublicShare) -> None:
        if not is_on_curve(ps.point, self.config.curve):
            raise ValueError(f"public share from {ps.member_id} is off-curve")
        self.config.roster_x(ps.member_id)  # raises UnknownMemberError
        self.received_public_shares[ps.member_id] = ps


@dataclass(frozen=True)
class RotationResult:
    config: GroupConfig
    shares: list[Share]
    encrypted_bundle: dict[str, bytes]  # member_id -> encrypted-share payload


def _deal_group(
    curve: CurveParams,
    t: int,
    roster: tuple[tuple[str, int], ...],
    rng: random.Random,
    epoch: int,
) -> tuple[GroupConfig, list[Share]]:
    q = curve.scalar_field()
    xs = [FieldElement(x, q) for _, x in roster]
    ids = [mid for mid, _ in roster]
    poly, shares = dealer_polynomial_with_nonzero_shares(t, q, xs, rng)
    shares = [Share(s.x, s.y, mid) for s, mid in zip(shares, ids)]
    secret = poly.secret
    q_point = scalar_mul(secret.residue, curve.generator, curve)
    config = GroupConfig(
        curve=curve,
        group_public_key=q_point,
        commitment=commit(secret),
        threshold=t,
        roster=roster,
        epoch=epoch,
    )
    return config, shares


def gm_init(
    t: int,
    n: int,
    curve: CurveParams,
    rng: random.Random,
    random_xs: bool = False,
) -> tuple[GroupConfig, list[Share]]:
    """Initialization phase: deal shares, publish Q = s*P and H(s).

    Shares are returned for out-of-band delivery; the secret itself is not
    retained anywhere in the config.  Member x's default to the member
    index + 1; `random_xs` draws distinct random nonzero values instead.
    """
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t} n={n}")
    q = curve.scalar_field()
    if n >= q.value:
        raise ValueError(
            f"group size {n} needs {n} distinct nonzero x values, "
            f"but the scalar field has only {q.value - 1}"
        )
    if random_xs:
        xs = rng.sample(range(1, q.value), n)
    else:
        xs = [i + 1 for i in range(n)]
    roster = tuple((f"U{i + 1}", x) for i, x in enumerate(xs))
    return _deal_group(curve, t, roster, rng, epoch=1)


def make_public_share(state: MemberState) -> PublicShare:
    """Compute f(x_i)*P - the member's entire confirmation-stage compute."""
    curve = state.config.curve
    point = scalar_mul(state.share.y.residue, curve.generator, curve)
    return PublicShare(member_id=state.member_id, point=point)


def public_share_frame(ps: PublicShare, epoch: int) -> bytes:
    payload = wire.encode_point_payload(ps.point.x.to_bytes(), ps.point.y.to_bytes())
    return wire.encode_frame(wire.PUBLIC_SHARE, epoch, ps.member_id, payload)


def public_share_from_frame(buf: bytes, config: GroupConfig) -> tuple[int, PublicShare]:
    frame = wire.decode_frame(buf)
    if frame.msg_type != wire.PUBLIC_SHARE:
        raise ValueError(f"expected public-share frame, got type {frame.msg_type}")
    fp = config.curve.modulus
    x, y = map(fp.from_bytes, wire.decode_point_payload(frame.payload))
    point = validate_point(x, y, config.curve)
    return frame.epoch, PublicShare(member_id=frame.member_id, point=point)


def gm_verify(
    config: GroupConfig,
    gm_shares: list[Share],
    received: list[PublicShare],
) -> dict[str, bool]:
    """Centralized confirmation: recompute f(x_i)*P per member and compare.

    Returns a verdict per received member id; the round is accepted iff all
    verdicts are true.
    """
    by_id = {s.member_id: s for s in gm_shares}
    seen: set[str] = set()
    verdicts: dict[str, bool] = {}
    for ps in received:
        if ps.member_id not in by_id:
            raise UnknownMemberError(f"no issued share for {ps.member_id!r}")
        if ps.member_id in seen:
            raise ValueError(f"duplicate public share from {ps.member_id!r}")
        seen.add(ps.member_id)
        expected = scalar_mul(
            by_id[ps.member_id].y.residue, config.curve.generator, config.curve
        )
        # equal to the on-curve `expected`, so on the curve too
        verdicts[ps.member_id] = ps.point == expected
    return verdicts


def decentralized_verify(config: GroupConfig, received: list[PublicShare]) -> bool:
    """GM-less confirmation: sum(L_i(0) * f(x_i)P) must equal Q.

    The Lagrange coefficients are computed in the curve's scalar field, so
    they are already reduced for scalar multiplication.
    """
    m = len(received)
    if m < config.threshold:
        raise ThresholdError(
            f"m must be equal or larger than t (m={m}, t={config.threshold})"
        )
    ids = [ps.member_id for ps in received]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate member in received shares")
    xs = [config.roster_x(mid) for mid in ids]
    for ps in received:
        if not is_on_curve(ps.point, config.curve):
            raise ValueError(f"public share from {ps.member_id} is off-curve")
    total = CurvePoint.infinity()
    for i, ps in enumerate(received):
        lam = lagrange_coeff_at_zero(i, xs)
        total = add(total, scalar_mul(lam.residue, ps.point, config.curve), config.curve)
    return total == config.group_public_key


# ---------------------------------------------------------------------------
# Key agreement stage

def derive_pairwise_key(
    own: Share, peer: PublicShare, config: GroupConfig
) -> SymmetricKey:
    """ECDH: K from the shared point y_i * (y_j P), plus the sorted id pair."""
    if not is_on_curve(peer.point, config.curve):
        raise ValueError(f"peer point from {peer.member_id} is off-curve")
    shared = scalar_mul(own.y.residue, peer.point, config.curve)
    return pairwise_key(shared, own.member_id, peer.member_id)


def pairwise_key(shared: CurvePoint, member_a: str, member_b: str) -> SymmetricKey:
    """K = SHA-256 over the label, x(shared) and the two ids in sorted order."""
    if shared.is_infinity:
        raise ValueError("degenerate shared point; re-keying required")
    id_a, id_b = sorted((member_a, member_b))
    key = _kdf(
        _PAIRWISE_LABEL,
        shared.x.to_bytes(),
        id_a.encode("utf-8"),
        id_b.encode("utf-8"),
    )
    return SymmetricKey(key)


def ensure_pairwise_keys(state: MemberState) -> None:
    for mid in state.received_public_shares:
        if mid != state.member_id:
            _pairwise_key_for(state, mid)


def _pairwise_key_for(state: MemberState, peer_id: str) -> SymmetricKey:
    """The key shared with one peer, derived on first use from its public share."""
    key = state.pairwise_keys.get(peer_id)
    if key is None:
        ps = state.received_public_shares.get(peer_id)
        if ps is None or peer_id == state.member_id:
            raise UnknownMemberError(f"no pairwise key for {peer_id!r}")
        key = state.pairwise_keys[peer_id] = derive_pairwise_key(state.share, ps, state.config)
    return key


def _share_aad(epoch: int, sender: str, recipient: str) -> bytes:
    return _pack_fields(
        epoch.to_bytes(4, "big"), sender.encode("utf-8"), recipient.encode("utf-8")
    )


def _seal(key: bytes, aad: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """AEAD-encrypt under a fresh nonce; returns the encrypted-share payload."""
    nonce = rng.randbytes(wire.NONCE_LEN)
    ct = ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
    return wire.encode_encrypted_payload(nonce, ct)


def _open(key: bytes, aad: bytes, payload: bytes) -> bytes:
    """Inverse of `_seal`; ValueError if the payload is malformed or forged."""
    nonce, ct = wire.decode_encrypted_payload(payload)
    try:
        return ChaCha20Poly1305(key).decrypt(nonce, ct, aad)
    except InvalidTag as exc:
        raise ValueError("AEAD tag check failed") from exc


def encrypt_share_for_peer(
    state: MemberState, peer_id: str, rng: random.Random
) -> bytes:
    """Encrypt the member's own y for one peer; returns the wire payload."""
    return _seal(
        _pairwise_key_for(state, peer_id).key_bytes,
        _share_aad(state.config.epoch, state.member_id, peer_id),
        state.share.y.to_bytes(),
        rng,
    )


def key_agreement_round(
    state: MemberState, incoming: Mapping[str, bytes]
) -> FieldElement:
    """Decrypt peers' shares, reconstruct s' and check it against H(s).

    `incoming` maps sender id to an encrypted-share wire payload.  Raises
    `PeerAuthenticationError` naming the first peer whose ciphertext fails
    authentication, `ThresholdError` when fewer than t shares are in hand,
    and `CommitmentMismatchError` when H(s') != H(s).
    """
    config = state.config
    q = config.scalar_field
    ensure_pairwise_keys(state)
    shares = [state.share]
    for sender in sorted(incoming):
        if sender not in state.pairwise_keys:
            raise UnknownMemberError(f"ciphertext from unknown peer {sender!r}")
        key = state.pairwise_keys[sender].key_bytes
        aad = _share_aad(config.epoch, sender, state.member_id)
        try:
            y = q.from_bytes(_open(key, aad, incoming[sender]))
        except ValueError as exc:
            raise PeerAuthenticationError(sender) from exc
        shares.append(Share(config.roster_x(sender), y, sender))
    recovered = reconstruct(shares, config.threshold)
    if not verify_commitment(recovered, config.commitment):
        raise CommitmentMismatchError("H(s') does not match the published H(s)")
    state.group_key = recovered
    return recovered


# ---------------------------------------------------------------------------
# Credential rotation (replay defence)

def _rotation_key(group_key: FieldElement, new_epoch: int, member_id: str) -> bytes:
    return _kdf(
        _ROTATE_LABEL,
        group_key.to_bytes(),
        new_epoch.to_bytes(4, "big"),
        member_id.encode("utf-8"),
    )


def rotate_credentials(
    config: GroupConfig,
    group_key: FieldElement,
    rng: random.Random,
    roster: tuple[tuple[str, int], ...] | None = None,
) -> RotationResult:
    """Deal a fresh polynomial and wrap each new share under the group key.

    Old public shares become invalid because every f(x_i) changes.  Pass a
    reduced `roster` to exclude compromised members from the new epoch.
    """
    new_epoch = config.epoch + 1
    new_roster = roster if roster is not None else config.roster
    new_config, new_shares = _deal_group(
        config.curve, config.threshold, new_roster, rng, epoch=new_epoch
    )
    bundle: dict[str, bytes] = {}
    for share in new_shares:
        bundle[share.member_id] = _seal(
            _rotation_key(group_key, new_epoch, share.member_id),
            _share_aad(new_epoch, "GM", share.member_id),
            wire.encode_point_payload(share.x.to_bytes(), share.y.to_bytes()),
            rng,
        )
    return RotationResult(config=new_config, shares=new_shares, encrypted_bundle=bundle)


def open_rotated_share(
    member_id: str,
    group_key: FieldElement,
    payload: bytes,
    new_config: GroupConfig,
) -> Share:
    """Decrypt a member's new share and check it against the new roster.

    Raises `RotationError` when the payload does not authenticate or is
    malformed, when x or y is not a canonical element of the scalar field,
    or when x is not the member's roster x.
    """
    epoch, q = new_config.epoch, new_config.scalar_field
    try:
        plaintext = _open(
            _rotation_key(group_key, epoch, member_id),
            _share_aad(epoch, "GM", member_id),
            payload,
        )
        x, y = map(q.from_bytes, wire.decode_point_payload(plaintext))
    except ValueError as exc:
        raise RotationError(f"cannot open rotated share for {member_id}") from exc
    roster_x = new_config.roster_x(member_id)
    if x != roster_x:
        raise RotationError(
            f"rotated share for {member_id} has x={x.residue}, roster has {roster_x.residue}"
        )
    return Share(x=roster_x, y=y, member_id=member_id)


# ---------------------------------------------------------------------------
# Config export

def config_to_dict(config: GroupConfig) -> dict:
    generator = config.curve.generator
    return {
        "curve_ref": config.curve.name or None,
        "P": [str(generator.x.residue), str(generator.y.residue)],
        "Q": [
            str(config.group_public_key.x.residue),
            str(config.group_public_key.y.residue),
        ],
        "H_s": config.commitment.hex(),
        "t": config.threshold,
        "roster": [[mid, str(x)] for mid, x in config.roster],
        "cipher_suite_id": CIPHER_SUITE_ID,
        "epoch": config.epoch,
    }


def config_from_dict(data: dict, curve: CurveParams | None = None) -> GroupConfig:
    if curve is None:
        ref = data.get("curve_ref")
        if not ref:
            raise ValueError("config has no curve_ref; pass curve= explicitly")
        curve = builtin_curve(ref)
    fp = curve.modulus
    px, py = (fp.element(json_int(v, "P")) for v in data["P"])
    qx, qy = (fp.element(json_int(v, "Q")) for v in data["Q"])
    if CurvePoint(px, py) != curve.generator:
        raise ValueError(f"P is not the generator of curve {curve.name!r}")
    suite = data.get("cipher_suite_id", CIPHER_SUITE_ID)
    if suite != CIPHER_SUITE_ID:
        raise ValueError(f"unsupported cipher suite {suite!r}; expected {CIPHER_SUITE_ID!r}")
    return GroupConfig(
        curve=curve,
        group_public_key=validate_point(qx, qy, curve),
        commitment=SecretCommitment(bytes.fromhex(data["H_s"])),
        threshold=json_int(data["t"], "t"),
        roster=tuple((mid, json_int(x, f"roster x of {mid}")) for mid, x in data["roster"]),
        epoch=json_int(data.get("epoch", 1), "epoch"),
    )


# ---------------------------------------------------------------------------
# Honest-run drivers (used by tests, the demo and the attack scenarios)

def run_confirmation(
    config: GroupConfig,
    shares: list[Share],
    participant_ids: list[str] | None = None,
) -> tuple[dict[str, MemberState], list[PublicShare]]:
    """Build member states for the participants and broadcast their shares."""
    by_id = {s.member_id: s for s in shares}
    ids = participant_ids if participant_ids is not None else list(by_id)
    states = {mid: MemberState(share=by_id[mid], config=config) for mid in ids}
    public_shares = [make_public_share(states[mid]) for mid in ids]
    for state in states.values():
        for ps in public_shares:
            state.receive_public_share(ps)
    return states, public_shares


def seal_shares(
    states: dict[str, MemberState], rng: random.Random
) -> dict[str, dict[str, bytes]]:
    """Every member encrypts its share for every peer.

    Returns recipient id -> sender id -> encrypted-share payload.  Seals run
    sender-major in `states` order, which fixes the rng draws.
    """
    inboxes: dict[str, dict[str, bytes]] = {mid: {} for mid in states}
    for sender_id, state in states.items():
        for peer_id in states:
            if peer_id == sender_id:
                continue
            inboxes[peer_id][sender_id] = encrypt_share_for_peer(state, peer_id, rng)
    return inboxes


def open_shares(
    states: dict[str, MemberState], inboxes: Mapping[str, Mapping[str, bytes]]
) -> FieldElement:
    """Every member opens its inbox and reconstructs; returns the group key."""
    keys = [key_agreement_round(states[mid], inboxes[mid]) for mid in states]
    first = keys[0]
    if any(k != first for k in keys):  # pragma: no cover - agreement invariant
        raise ProtocolError("members recovered different group keys")
    return first


def exchange_group_key(
    states: dict[str, MemberState], rng: random.Random
) -> FieldElement:
    """Run the key agreement stage among all states; returns the group key."""
    return open_shares(states, seal_shares(states, rng))
