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

A public share is plain ints from the wire to ECDH: one pack out
(`wire.encode_public_share`); one unpack, one check of the two integers
(`ec.check_affine_point`: range, curve equation, subgroup) and one
`tuple.__new__` in.  The verifiers and `ensure_pairwise_keys` read the
ints and check nothing again (see `PublicShare`); `PublicShare.point`
builds a `CurvePoint` only for callers at the API (the demo's print, the
attack scenarios, tests).

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
from operator import itemgetter
from typing import Mapping

from . import wire
from .ec import (
    CurveParams, CurvePoint, _affine_xy, _generator_jacobian, _jacobian_at,
    _mul_many, _multi_scalar_jacobian, check_affine_point, scalar_mul,
)
from .field import FieldElement, Prime, lagrange_weights
# Not called here; the benchmark's tracer binds it by name in this module.
from .field import lagrange_coeff_at_zero  # noqa: F401
from .sss import (
    SecretCommitment,
    Share,
    ThresholdError,
    commit,
    reconstruct,
    roster_ids,
    sample_polynomial,
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


class PublicShare(tuple):
    """Broadcast confirmation value f(x_i)*P together with the sender id.

    An immutable value of plain ints: `member_id`, the affine coordinates
    `x` and `y`, and `field`, the curve's `curve.modulus`.  Each share is
    checked once, where it is made: `PublicShare(member_id, point, curve)`
    refuses infinity, a coordinate that is not of `curve.modulus` and what
    `ec.check_affine_point` refuses, `public_share_from_frame` the last,
    each with ValueError naming the member; `make_public_share` computes a
    multiple of the generator.  The hot consumers read the ints; `point`
    builds a `CurvePoint` on each access, for callers at the API.

    Two shares are equal when their ids, residues and primes' values are,
    and a share equals nothing else, a bare tuple included.  Hash, pickle
    and copy are those of the checked items; the curve is not pickled.  The
    tuple base is an implementation detail, so that a share is built with
    one `tuple.__new__` and compares with tuple equality: no package code
    indexes or unpacks a share, and assigning to it raises AttributeError.
    """

    __slots__ = ()

    member_id = property(itemgetter(0))
    x = property(itemgetter(1))
    y = property(itemgetter(2))
    field = property(itemgetter(3))

    def __new__(cls, member_id: str, point: CurvePoint, curve: CurveParams) -> PublicShare:
        x, y = _point_xy(f"public share of {member_id}", point, curve)
        return _new_share(PublicShare, (member_id, x, y, curve.modulus))

    def __reduce__(self):
        # pickle and copy rebuild from the items, not through the checking __new__
        return _new_share, (PublicShare, tuple(self))

    @property
    def point(self) -> CurvePoint:
        return CurvePoint(FieldElement(self.x, self.field), FieldElement(self.y, self.field))

    # A `Prime` compares by value, so tuple equality is the share's.  A bare
    # tuple's own comparison would read the share's items, so it gets False.
    def __eq__(self, other) -> bool:
        if other.__class__ is PublicShare:
            return _tuple_eq(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other) -> bool:
        if other.__class__ is PublicShare:
            return _tuple_ne(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return f"PublicShare(member_id={self.member_id!r}, point=CurvePoint({self.x}, {self.y}))"


# The share of its four items (member_id, x, y, field), unchecked.
_new_share = tuple.__new__
_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


def _point_xy(owner: str, point: CurvePoint, curve: CurveParams) -> tuple[int, int]:
    """The ints of a finite point of `curve.modulus` that
    `ec.check_affine_point` accepts; ValueError naming `owner` otherwise."""
    x, y, p = point.x, point.y, curve.modulus.value
    try:
        if x is None:
            raise ValueError("point must not be infinity")
        if not x.modulus.value == p == y.modulus.value:
            raise ValueError(f"coordinates must be elements of F_{p}")
        check_affine_point(x.residue, y.residue, curve)
    except ValueError as exc:
        raise ValueError(f"{owner}: {exc}") from None
    return x.residue, y.residue


@dataclass(frozen=True)
class GroupConfig:
    """The GM's published bundle; holds no secret material.

    P is the curve's generator.  `__post_init__` holds every check: Q a
    point of the generator's subgroup, as `PublicShare` checks its point,
    the epoch in the frame header's u32 range, distinct member ids,
    distinct roster x's in [1, q) and 1 <= t <= n.
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
        _point_xy("Q", self.group_public_key, self.curve)
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
        already have keyed a pairwise channel.  The shares are compared on
        their ints.  The point is not checked again: every `PublicShare`
        was checked when it was made.
        """
        if ps.member_id not in self.config._x_by_id:
            raise UnknownMemberError(f"member {ps.member_id!r} not in roster")
        held = self.received_public_shares.setdefault(ps.member_id, ps)
        if held is not ps and held != ps:
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
    """The dealer: a degree-(t-1) polynomial over the scalar field, one share per roster seat.

    Redraws the secret while it is 0, and the whole polynomial while any
    share is 0 (that share's public point would be infinity); gives up
    after 1000 draws.  `GroupConfig` checks the roster's x's.
    """
    q = curve.scalar_field()
    xs = [FieldElement(x, q) for _, x in roster]
    for _ in range(1000):
        secret = q.random_element(rng)
        if secret.residue == 0:
            continue
        poly = sample_polynomial(t, secret, rng)
        ys = [poly.evaluate(x) for x in xs]
        if all(y.residue for y in ys):
            break
    else:
        raise ValueError(
            f"could not find a polynomial with nonzero shares for {len(xs)} members"
            f" over F_{q.value}"
        )
    q_point = scalar_mul(secret.residue, curve.generator, curve)
    config = GroupConfig(curve, q_point, commit(secret), t, roster, epoch)
    return config, [Share(x, y, mid) for (mid, _), x, y in zip(roster, xs, ys)]


def gm_init(
    t: int, n: int, curve: CurveParams, rng: random.Random
) -> tuple[GroupConfig, list[Share]]:
    """Initialization phase: deal shares, publish Q = s*P and H(s).

    `_deal_group` deals them: a nonzero secret and nonzero shares, the
    polynomial redrawn whole until they are.  Member ids are `roster_ids(n)`
    and x's the member index + 1.  Shares are returned for out-of-band
    delivery; the secret itself is not retained anywhere in the config.
    """
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t} n={n}")
    q = curve.scalar_field()
    if n >= q.value:
        raise ValueError(
            f"group size {n} needs {n} distinct nonzero x values, "
            f"but the scalar field has only {q.value - 1}"
        )
    roster = tuple(zip(roster_ids(n), range(1, n + 1)))
    return _deal_group(curve, t, roster, rng, epoch=1)


def make_public_share(state: MemberState) -> PublicShare:
    """Compute f(x_i)*P - the member's entire confirmation-stage compute.

    The fixed-base multiple of the generator and its return to affine, as
    `scalar_mul` runs them and with its tally (1 TEM, the fixed-base muls
    and 4), kept as ints.  ValueError naming the member if f(x_i) is 0 mod
    the subgroup order: a share is never infinity.
    """
    curve = state.config.curve
    fp = curve.modulus
    xy = _affine_xy(*_generator_jacobian(state.share.y.residue, curve), fp.value)
    if xy is None:
        raise ValueError(f"public share of {state.member_id}: point must not be infinity")
    return _new_share(PublicShare, (state.member_id, *xy, fp))


def public_share_frame(ps: PublicShare, epoch: int) -> bytes:
    """The share's frame, packed in one step by `wire.encode_public_share`."""
    return wire.encode_public_share(
        epoch, ps.member_id,
        ps.x.to_bytes(ps.field.byte_length, "big"), ps.y.to_bytes(ps.field.byte_length, "big"),
    )


def public_share_from_frame(buf: bytes, config: GroupConfig) -> tuple[int, PublicShare]:
    """The (epoch, share) of a public-share frame of the config's epoch.

    ValueError for any other message type, a frame of another epoch, or a
    point that does not decode to one of the generator's subgroup, named
    as the constructor names it (`public share of U3: ...`).  One pass: the
    frame through `wire.decode_public_share`, its coordinates through
    `ec.check_affine_point`; the share keeps them as ints over
    `curve.modulus`, with no `CurvePoint` built.
    """
    curve = config.curve
    fp = curve.modulus
    epoch, member_id, x, y = wire.decode_public_share(buf, fp.byte_length)
    if epoch != config.epoch:
        raise ValueError(f"public-share frame of epoch {epoch}, config is epoch {config.epoch}")
    try:  # the message is built only for a refused point: this runs per frame
        check_affine_point(x, y, curve)
    except ValueError as exc:
        raise ValueError(f"public share of {member_id}: {exc}") from None
    return epoch, _new_share(PublicShare, (member_id, x, y, fp))


def gm_verify(
    config: GroupConfig,
    gm_shares: list[Share],
    received: list[PublicShare],
) -> dict[str, bool]:
    """Centralized confirmation: recompute f(x_i)*P per member and compare.

    Returns a verdict per received member id; the round is accepted iff all
    verdicts are true.  Each f(x_i)*P is one TEM on the GM's own fixed-base
    table, 8-bit digits where a member's `make_public_share` runs 3-bit ones
    (`ec._GM_WINDOW`, built on the first check and kept on the curve): about
    213 multiplications per member on secp160r1, against about 509.  It
    stays in Jacobian coordinates and is compared with the received share's
    ints by `ec._jacobian_at`, which saves the inversion of a return to
    affine and tallies the same 4 multiplications; nothing is checked again.
    """
    curve = config.curve
    p = curve.modulus.value
    by_id = {s.member_id: s for s in gm_shares}
    seen: set[str] = set()
    verdicts: dict[str, bool] = {}
    for ps in received:
        if ps.member_id not in by_id:
            raise UnknownMemberError(f"no issued share for {ps.member_id!r}")
        if ps.member_id in seen:
            raise ValueError(f"duplicate public share from {ps.member_id!r}")
        seen.add(ps.member_id)
        expected = _generator_jacobian(by_id[ps.member_id].y.residue, curve, gm=True)
        verdicts[ps.member_id] = _jacobian_at(*expected, ps.x, ps.y, p)
    return verdicts


def decentralized_verify(config: GroupConfig, received: list[PublicShare]) -> bool:
    """GM-less confirmation: sum(L_i(0) * f(x_i)P) must equal Q.

    The m weights L_i(0) come from one `lagrange_weights` call in the
    curve's scalar field q.  A weight w above q/2 enters as the term
    (q - w, -f(x_i)P), the same product for a point of order q.  With the
    default roster x = 1..m, L_i(0) = +-C(m, i), so on secp160r1 every
    term's scalar is then C(m, i), at most 2^(m-1), where about half of them
    would be as long as q.  The m terms and their sum are one run of
    `ec._multi_scalar_jacobian`, on integers: m TEMs under shared
    doublings.  The sum stays in Jacobian coordinates and is compared with
    Q's ints by `ec._jacobian_at`, as in `gm_verify`; nothing is checked
    again, and `GroupConfig` refused an infinite Q.  A repeated member
    repeats its roster x, which `lagrange_weights` refuses with ValueError
    before any TEM.
    """
    m = len(received)
    if m < config.threshold:
        raise ThresholdError(
            f"m must be equal or larger than t (m={m}, t={config.threshold})"
        )
    xs = [config.roster_x(ps.member_id).residue for ps in received]
    curve = config.curve
    q, p = config.scalar_field.value, curve.modulus.value
    terms = []  # every weight is nonzero: the roster's xs are distinct and nonzero
    for w, ps in zip(lagrange_weights(xs, 0, q), received):
        x, y = ps.x, ps.y
        terms.append((q - w, x, -y % p) if w > q >> 1 else (w, x, y))
    Q = config.group_public_key
    return _jacobian_at(*_multi_scalar_jacobian(terms, curve), Q.x.residue, Q.y.residue, p)


# ---------------------------------------------------------------------------
# Key agreement stage

def pairwise_key(x: bytes, member_a: str, member_b: str) -> bytes:
    """The 32-byte cipher key K = SHA-256 over the label, x (the shared
    ECDH point's x, `byte_length` bytes big-endian, as
    `FieldElement.to_bytes` encodes it) and the two ids in sorted order;
    derived, never transmitted."""
    id_a, id_b = sorted((member_a, member_b))
    return _kdf(_PAIRWISE_LABEL, x, id_a.encode("utf-8"), id_b.encode("utf-8"))


def ensure_pairwise_keys(state: MemberState) -> None:
    """Derive every missing pairwise key, in `received_public_shares` order.

    ECDH on the shares' ints: the key with peer j is `pairwise_key` of the
    x of y_i * (y_j P).  A member whose own y_i is 0 is refused first, with
    ValueError naming it, before any TEM is counted.  No peer's point is
    checked again (see `PublicShare`).  The member's one scalar y_i
    multiplies all peers' points in one call of `ec._mul_many`, one TEM per
    peer: a lockstep pass over two or more, which `ec` itself replaces by
    per-point multiplications for one peer or at a zero denominator (on
    secp160r1 an honest point meets one at the scalar n - 14, n the
    subgroup order).  A degenerate shared point (infinity) raises
    `PeerAuthenticationError` naming the peer whose point made it, after
    the keys of the peers before it are stored.
    """
    k = state.share.y.residue
    if not k:
        raise ValueError(f"own share of {state.member_id} is 0; it keys no channel")
    peers = [
        ps for mid, ps in state.received_public_shares.items()
        if mid != state.member_id and mid not in state.pairwise_keys
    ]
    curve = state.config.curve
    width = curve.modulus.byte_length
    for ps, xy in zip(peers, _mul_many(k, [(ps.x, ps.y) for ps in peers], curve)):
        if xy is None:
            raise PeerAuthenticationError(
                ps.member_id,
                f"degenerate shared point with {ps.member_id}; re-keying required",
            )
        state.pairwise_keys[ps.member_id] = pairwise_key(
            xy[0].to_bytes(width, "big"), state.member_id, ps.member_id
        )


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
    """Deal a fresh polynomial and wrap each new share's y under the group key.

    `_deal_group` deals as `gm_init` does, under the same rules, with ids
    and x's from `roster` (default: the config's).  Each bundle entry seals
    y alone, as `encrypt_share_for_peer` does: the member's x is public, on
    the new config's roster.  Old public shares become invalid because
    every f(x_i) changes.  Pass a reduced `roster` to exclude compromised
    members from the new epoch; its x's must be distinct and in [1, q), as
    `GroupConfig` checks.
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
            share.y.to_bytes(),
            rng,
        )
    return RotationResult(config=new_config, shares=new_shares, encrypted_bundle=bundle)


def open_rotated_share(
    member_id: str,
    group_key: FieldElement,
    payload: bytes,
    new_config: GroupConfig,
) -> Share:
    """Decrypt a member's new y; its x is the member's x on the new roster.

    Raises `RotationError` when the payload does not authenticate or is
    malformed, or when y is not a canonical element of the scalar field
    (not exactly `byte_length` bytes, or not below q).
    """
    epoch, q = new_config.epoch, new_config.scalar_field
    try:
        plaintext = _open(
            _rotation_key(group_key, epoch, member_id),
            _share_aad(epoch, "GM", member_id),
            payload,
        )
        y = q.from_bytes(plaintext)
    except ValueError as exc:
        raise RotationError(f"cannot open rotated share for {member_id}") from exc
    return Share(new_config.roster_x(member_id), y, member_id)


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
    ValueError for an empty `states`.
    """
    if not states:
        raise ValueError("the group is empty: no member to agree on a key")
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
    if len(keys) != 1:  # agreement invariant: each key matched its group's H(s)
        raise ProtocolError("members recovered different group keys")
    return keys.pop()
