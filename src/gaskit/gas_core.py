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

The AEAD library (`cryptography`, with its bundled OpenSSL) is imported at
the first seal or open, not with this module: commands that never encrypt
(`simulate`, `sweep`, `cost`, `gen-params`) never load it.  Its two names,
`ChaCha20Poly1305` and `InvalidTag`, resolve through the module's
`__getattr__` on first access (PEP 562) and are then plain module globals.
`_seal` and `_open` read the cipher as the module attribute on every call,
so a replacement bound by name (a tracer, a test) sees every seal and open.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass, field as dc_field
from typing import Mapping

from . import wire
from .ec import (
    CurveParams, CurvePoint, _generator_jacobian, _jacobian_is, _multi_scalar_jacobian,
    affine_point, is_on_curve, scalar_mul, scalar_mul_many,
)
from .field import FieldElement, Prime, lagrange_weights
# Not called here; the benchmark's tracer binds it by name in this module.
from .field import lagrange_coeff_at_zero  # noqa: F401
from .sss import (
    SecretCommitment,
    Share,
    ThresholdError,
    commit,
    dealer_polynomial_with_nonzero_shares,
    reconstruct,
    roster_ids,
    verify_commitment,
)

__all__ = [
    "ProtocolError",
    "UnknownMemberError",
    "PeerAuthenticationError",
    "CommitmentMismatchError",
    "RotationError",
    "GroupConfig",
    "PublicShare",
    "MemberState",
    "RotationResult",
    "gm_init",
    "make_public_share",
    "public_share_frame",
    "public_share_from_frame",
    "gm_verify",
    "decentralized_verify",
    "pairwise_key",
    "ensure_pairwise_keys",
    "encrypt_share_for_peer",
    "key_agreement_round",
    "rotate_credentials",
    "open_rotated_share",
    "run_confirmation",
    "exchange_group_key",
]

_PAIRWISE_LABEL = b"gaskit/pairwise/v1"
_ROTATE_LABEL = b"gaskit/rotate/v1"

# This module as an object: `_seal` and `_open` read the AEAD names from it,
# so the first read goes through `__getattr__` and a rebinding is seen.
_module = sys.modules[__name__]


def __getattr__(name: str):
    """Import `ChaCha20Poly1305` or `InvalidTag` on first access and keep it
    as a module global; AttributeError for any other missing name."""
    if name == "ChaCha20Poly1305":
        from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305 as value
    elif name == "InvalidTag":
        from cryptography.exceptions import InvalidTag as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class ProtocolError(Exception):
    """Base class for protocol-level failures."""


class UnknownMemberError(ProtocolError):
    pass


class PeerAuthenticationError(ProtocolError):
    """A peer failed authentication; names it.

    Raised when its ciphertext fails the AEAD tag check, when it sends a
    public share that conflicts with the one already held for it, and when
    its point gives a degenerate pairwise ECDH point.
    """

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


@dataclass(frozen=True, init=False)
class PublicShare:
    """Broadcast confirmation value f(x_i)*P together with the sender id.

    Frozen, with the generated hash and repr.  `__init__` is written out:
    it fills the instance dict directly, where the generated one calls
    `object.__setattr__` once per field.  So is `__eq__`, which compares
    the fields without building the generated one's two tuples.
    """

    member_id: str
    point: CurvePoint

    def __init__(self, member_id: str, point: CurvePoint) -> None:
        if point.x is None:
            raise ValueError("public share point must not be infinity")
        fields = self.__dict__
        fields["member_id"] = member_id
        fields["point"] = point

    def __eq__(self, other) -> bool:
        # `CurvePoint.__eq__` inline, where neither point is infinity
        if other.__class__ is not self.__class__:
            return NotImplemented
        pt, opt = self.point, other.point
        x, y, ox, oy = pt.x, pt.y, opt.x, opt.y
        return (
            self.member_id == other.member_id
            and x.residue == ox.residue and y.residue == oy.residue
            and x.modulus.value == ox.modulus.value and y.modulus.value == oy.modulus.value
        )


@dataclass(frozen=True)
class GroupConfig:
    """The GM's published bundle; holds no secret material.

    P is the curve's generator.  `__post_init__` holds every check: Q on
    the curve, the epoch in the frame header's u32 range, distinct member
    ids, distinct roster x's in [1, q) and 1 <= t <= n.
    """

    curve: CurveParams
    group_public_key: CurvePoint  # Q = s * P
    commitment: SecretCommitment  # H(s)
    threshold: int
    roster: tuple[tuple[str, int], ...]  # (member_id, x residue)
    epoch: int = 1
    # member_id -> x, built from `roster` at construction, in roster order
    _x_by_id: dict[str, FieldElement] = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_on_curve(self.group_public_key, self.curve):
            raise ValueError("Q is not on the curve")
        if not 0 <= self.epoch < 2**32:  # the frame header's u32
            raise ValueError(f"epoch {self.epoch} out of u32 range")
        ids = [mid for mid, _ in self.roster]
        xs = [x for _, x in self.roster]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate member ids in roster")
        fq = self.scalar_field
        q = fq.value
        if len(set(xs)) != len(xs) or not all(1 <= x < q for x in xs):
            raise ValueError(f"roster x values must be distinct and in [1, {q})")
        if not 1 <= self.threshold <= len(self.roster):
            raise ValueError(
                f"threshold {self.threshold} out of range for {len(self.roster)} members"
            )
        x_by_id = {mid: FieldElement(x, fq) for mid, x in self.roster}
        object.__setattr__(self, "_x_by_id", x_by_id)

    @property
    def scalar_field(self) -> Prime:
        return self.curve.scalar_field()

    def roster_x(self, member_id: str) -> FieldElement:
        try:
            return self._x_by_id[member_id]
        except KeyError:
            raise UnknownMemberError(f"member {member_id!r} not in roster") from None

    @property
    def member_ids(self) -> list[str]:
        return list(self._x_by_id)


@dataclass
class MemberState:
    """One member's view of a protocol run."""

    share: Share
    config: GroupConfig
    received_public_shares: dict[str, PublicShare] = dc_field(default_factory=dict)
    pairwise_keys: dict[str, bytes] = dc_field(default_factory=dict)  # peer id -> K
    group_key: FieldElement | None = None

    @property
    def member_id(self) -> str:
        return self.share.member_id

    def receive_public_share(self, ps: PublicShare) -> None:
        """Store a member's public share; the same one again is a no-op.

        A different point under an id already held raises
        `PeerAuthenticationError` naming that id: the stored point may
        already have keyed a pairwise channel.  The point is not checked
        again: a decoded share passed `affine_point`, and one built in
        process comes from `scalar_mul`.
        """
        if ps.member_id not in self.config._x_by_id:
            raise UnknownMemberError(f"member {ps.member_id!r} not in roster")
        held = self.received_public_shares.setdefault(ps.member_id, ps)
        if held is not ps and held.point != ps.point:
            raise PeerAuthenticationError(
                ps.member_id, f"conflicting public share from {ps.member_id}"
            )


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
    if random_xs:  # rng.sample needs len(range(1, q)), above sys.maxsize on secp160r1
        drawn: dict[int, None] = {}
        while len(drawn) < n:
            drawn[rng.randrange(1, q.value)] = None
        xs = list(drawn)
    else:
        xs = [i + 1 for i in range(n)]
    roster = tuple(zip(roster_ids(n), xs))
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
    """The (epoch, share) of a public-share frame of the config's epoch.

    ValueError for any other message type, a frame of another epoch, or a
    point that does not decode to one on the curve.  One pass: the frame
    through `wire.decode_public_share`, its coordinates through
    `affine_point`.
    """
    curve = config.curve
    epoch, member_id, x, y = wire.decode_public_share(buf, curve.modulus.byte_length)
    if epoch != config.epoch:
        raise ValueError(f"public-share frame of epoch {epoch}, config is epoch {config.epoch}")
    return epoch, PublicShare(member_id, affine_point(x, y, curve))


def gm_verify(
    config: GroupConfig,
    gm_shares: list[Share],
    received: list[PublicShare],
) -> dict[str, bool]:
    """Centralized confirmation: recompute f(x_i)*P per member and compare.

    Returns a verdict per received member id; the round is accepted iff all
    verdicts are true.  Each f(x_i)*P stays in Jacobian coordinates and is
    compared with the received point by `ec._jacobian_is`, which saves the
    inversion of a return to affine and tallies the same 4 multiplications.
    """
    curve = config.curve
    by_id = {s.member_id: s for s in gm_shares}
    seen: set[str] = set()
    verdicts: dict[str, bool] = {}
    for ps in received:
        if ps.member_id not in by_id:
            raise UnknownMemberError(f"no issued share for {ps.member_id!r}")
        if ps.member_id in seen:
            raise ValueError(f"duplicate public share from {ps.member_id!r}")
        seen.add(ps.member_id)
        expected = _generator_jacobian(by_id[ps.member_id].y.residue, curve)
        # equal to the on-curve `expected`, so on the curve too
        verdicts[ps.member_id] = _jacobian_is(*expected, ps.point, curve)
    return verdicts


def decentralized_verify(config: GroupConfig, received: list[PublicShare]) -> bool:
    """GM-less confirmation: sum(L_i(0) * f(x_i)P) must equal Q.

    The m weights L_i(0) come from one `lagrange_weights` call in the
    curve's scalar field q.  A weight w above q/2 enters as the term
    (q - w, -f(x_i)P), the same product for a point of order q.  With the
    default roster x = 1..m, L_i(0) = +-C(m, i), so on secp160r1 every
    term's scalar is then C(m, i), at most 2^(m-1), where about half of them
    would be as long as q.  The m terms and their sum are one run of
    `ec._multi_scalar_jacobian`, on integers: m TEMs under shared doublings,
    and each point checked once, here.  The sum stays in Jacobian
    coordinates and is compared with Q by `ec._jacobian_is`, as in
    `gm_verify`.
    """
    m = len(received)
    if m < config.threshold:
        raise ThresholdError(
            f"m must be equal or larger than t (m={m}, t={config.threshold})"
        )
    ids = [ps.member_id for ps in received]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate member in received shares")
    xs = [config.roster_x(mid).residue for mid in ids]
    for ps in received:
        if not is_on_curve(ps.point, config.curve):
            raise ValueError(f"public share from {ps.member_id} is off-curve")
    q, p = config.scalar_field.value, config.curve.modulus.value
    terms = []  # every weight is nonzero: the roster's xs are distinct and nonzero
    for w, ps in zip(lagrange_weights(xs, 0, q), received):
        x, y = ps.point.x.residue, ps.point.y.residue
        terms.append((q - w, x, -y % p) if w > q >> 1 else (w, x, y))
    return _jacobian_is(
        *_multi_scalar_jacobian(terms, m, config.curve), config.group_public_key, config.curve
    )


# ---------------------------------------------------------------------------
# Key agreement stage

def pairwise_key(shared: CurvePoint, member_a: str, member_b: str) -> bytes:
    """The 32-byte cipher key K = SHA-256 over the label, x(shared) and the
    two ids in sorted order; derived, never transmitted."""
    if shared.is_infinity:
        raise ValueError("degenerate shared point; re-keying required")
    id_a, id_b = sorted((member_a, member_b))
    return _kdf(
        _PAIRWISE_LABEL,
        shared.x.to_bytes(),
        id_a.encode("utf-8"),
        id_b.encode("utf-8"),
    )


def ensure_pairwise_keys(state: MemberState) -> None:
    """Derive every missing pairwise key, in `received_public_shares` order.

    ECDH: the key with peer j is `pairwise_key` of y_i * (y_j P).  The
    member's one scalar y_i multiplies all peers' points in one
    `scalar_mul_many` call.  A degenerate shared point (infinity) raises
    `PeerAuthenticationError` naming the peer whose point made it, after
    the keys of the peers before it are stored.  An off-curve peer point
    raises ValueError before any key is stored (decoded public shares are
    already on the curve).
    """
    peers = [
        ps for mid, ps in state.received_public_shares.items()
        if mid != state.member_id and mid not in state.pairwise_keys
    ]
    shared = scalar_mul_many(state.share.y.residue, [ps.point for ps in peers], state.config.curve)
    for ps, point in zip(peers, shared):
        if point.is_infinity:
            raise PeerAuthenticationError(
                ps.member_id,
                f"degenerate shared point with {ps.member_id}; re-keying required",
            )
        state.pairwise_keys[ps.member_id] = pairwise_key(point, state.member_id, ps.member_id)


def _share_aad(epoch: int, sender: str, recipient: str) -> bytes:
    return _pack_fields(
        epoch.to_bytes(4, "big"), sender.encode("utf-8"), recipient.encode("utf-8")
    )


def _seal(key: bytes, aad: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """AEAD-encrypt under a fresh nonce; returns the encrypted-share payload."""
    nonce = rng.randbytes(wire.NONCE_LEN)
    ct = _module.ChaCha20Poly1305(key).encrypt(nonce, plaintext, aad)
    return wire.encode_encrypted_payload(nonce, ct)


def _open(key: bytes, aad: bytes, payload: bytes) -> bytes:
    """Inverse of `_seal`; ValueError if the payload is malformed or forged."""
    nonce, ct = wire.decode_encrypted_payload(payload)
    try:
        return _module.ChaCha20Poly1305(key).decrypt(nonce, ct, aad)
    except _module.InvalidTag as exc:
        raise ValueError("AEAD tag check failed") from exc


def encrypt_share_for_peer(
    state: MemberState, peer_id: str, rng: random.Random
) -> bytes:
    """Encrypt the member's own y for one peer; returns the wire payload.

    A missing key is derived by `ensure_pairwise_keys`, with all the
    member's other missing keys.  UnknownMemberError for the member itself
    and for a peer whose public share is not held.
    """
    key = state.pairwise_keys.get(peer_id)
    if key is None:
        if peer_id == state.member_id or peer_id not in state.received_public_shares:
            raise UnknownMemberError(f"no pairwise key for {peer_id!r}")
        ensure_pairwise_keys(state)
        key = state.pairwise_keys[peer_id]
    return _seal(
        key,
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
        key = state.pairwise_keys.get(sender)
        if key is None:
            raise UnknownMemberError(f"ciphertext from unknown peer {sender!r}")
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
# Session drivers (used by tests, the demo and the attack scenarios).  Every
# message crosses `wire` as a frame.  An optional `tap(frame)` sees each
# frame once, as it leaves its sender, and returns the bytes to deliver:
# the frame itself to record it, other bytes to replace it, None to drop it.

def run_confirmation(
    config: GroupConfig, shares: list[Share], participant_ids: list[str] | None = None, tap=None
) -> tuple[dict[str, MemberState], list[PublicShare]]:
    """Build member states for the participants and broadcast their shares.

    Each participant's public share leaves once, in participant order, as a
    `public_share_frame` broadcast; every other participant takes it in
    through `public_share_from_frame` and `receive_public_share`, which
    raise as they say.  Returns the states and each delivered frame's share
    as an observer (the GM) decodes it, in the same order.
    """
    by_id = {s.member_id: s for s in shares}
    ids = participant_ids if participant_ids is not None else list(by_id)
    states = {mid: MemberState(share=by_id[mid], config=config) for mid in ids}
    delivered = []
    for sender, state in states.items():
        own = make_public_share(state)
        state.receive_public_share(own)
        frame = public_share_frame(own, config.epoch)
        if tap is not None and (frame := tap(frame)) is None:
            continue
        for mid, peer in states.items():
            if mid != sender:
                peer.receive_public_share(public_share_from_frame(frame, config)[1])
        delivered.append(public_share_from_frame(frame, config)[1])
    return states, delivered


def exchange_group_key(
    states: dict[str, MemberState], rng: random.Random, tap=None
) -> FieldElement:
    """Run the key agreement stage among all states; returns the group key.

    Every member seals its share for every peer with
    `encrypt_share_for_peer`, sender-major in `states` order, which fixes
    the rng draws; a sender's first seal derives all its pairwise keys in
    one batch.  Each seal leaves as an `ENCRYPTED_SHARE` frame.  ValueError
    for a delivered frame of another type, of another epoch than its
    recipient's config, or naming another sender.  Then every member opens
    what reached it with `key_agreement_round`, which raises as it says.
    """
    inboxes: dict[str, dict[str, bytes]] = {mid: {} for mid in states}
    for sender, state in states.items():
        for mid, peer in states.items():
            if mid == sender:
                continue
            payload = encrypt_share_for_peer(state, mid, rng)
            frame = wire.encode_frame(wire.ENCRYPTED_SHARE, state.config.epoch, sender, payload)
            if tap is not None and (frame := tap(frame)) is None:
                continue
            msg_type, epoch, claimed, payload = wire.decode_frame(frame)
            if (msg_type, epoch, claimed) != (wire.ENCRYPTED_SHARE, peer.config.epoch, sender):
                raise ValueError(f"{sender} -> {mid}: a type {msg_type} frame of epoch "
                                 f"{epoch} from {claimed} is not {sender}'s encrypted share")
            inboxes[mid][sender] = payload
    keys = {key_agreement_round(states[mid], inboxes[mid]) for mid in states}
    if len(keys) != 1:  # pragma: no cover - agreement invariant
        raise ProtocolError("members recovered different group keys")
    return keys.pop()
