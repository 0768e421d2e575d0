"""Binary message framing shared by the protocol demo and the simulator.

Frame layout (all integers big-endian)::

    msg := type:u8 | epoch:u32 | member_id_len:u8 | member_id | payload

Payloads::

    public share    := x_len:u16 | x | y_len:u16 | y        (type PUBLIC_SHARE)
    encrypted share := nonce(12) | ct_len:u16 | ciphertext+tag  (type ENCRYPTED_SHARE)
    harn release    := x_len:u16 | x | e_len:u16 | e        (type HARN_RELEASE)
    verdict         := accepted:u8                          (type VERDICT)

`decode_frame` returns a `Frame`, an immutable `NamedTuple` of the four
header and payload fields.  The decoders take `bytes` and return slices of
it, so each field is copied once.  A public-share frame is packed whole by
`encode_public_share` and read whole by `decode_public_share`, through one
`struct.Struct` per (member id length, coordinate width); the decoder
refuses what `decode_frame` and `decode_point_payload` refuse, and a
coordinate of any other width.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

__all__ = [
    "PUBLIC_SHARE",
    "ENCRYPTED_SHARE",
    "HARN_RELEASE",
    "VERDICT",
    "NONCE_LEN",
    "Frame",
    "encode_frame",
    "decode_frame",
    "encode_public_share",
    "decode_public_share",
    "encode_point_payload",
    "decode_point_payload",
    "encode_encrypted_payload",
    "decode_encrypted_payload",
]

PUBLIC_SHARE = 1
ENCRYPTED_SHARE = 2
HARN_RELEASE = 3
VERDICT = 4

NONCE_LEN = 12

_MSG_TYPES = (PUBLIC_SHARE, ENCRYPTED_SHARE, HARN_RELEASE, VERDICT)

_HEADER = struct.Struct(">BIB")  # type, epoch, member id length
_U16 = struct.Struct(">H")  # a length prefix
# coordinate width -> member id length -> public-share frame struct, built on first use
_PUBLIC_SHARES: dict[int, list[struct.Struct | None]] = {}


class Frame(NamedTuple):
    msg_type: int
    epoch: int
    member_id: str
    payload: bytes


# Builds a Frame from its four fields without the generated `__new__`.
_new_frame = tuple.__new__


def encode_frame(msg_type: int, epoch: int, member_id: str, payload: bytes) -> bytes:
    if msg_type not in _MSG_TYPES:
        raise ValueError(f"unknown message type {msg_type}")
    if not 0 <= epoch < 2**32:
        raise ValueError(f"epoch {epoch} out of u32 range")
    mid = member_id.encode("utf-8")
    if len(mid) > 255:
        raise ValueError("member id longer than 255 bytes")
    return _HEADER.pack(msg_type, epoch, len(mid)) + mid + payload


def decode_frame(buf: bytes) -> Frame:
    if len(buf) < 6:
        raise ValueError("truncated frame header")
    msg_type, epoch, mid_len = _HEADER.unpack_from(buf)
    if msg_type not in _MSG_TYPES:
        raise ValueError(f"unknown message type {msg_type}")
    end = 6 + mid_len
    if len(buf) < end:
        raise ValueError("truncated member id")
    return _new_frame(Frame, (msg_type, epoch, buf[6:end].decode(), buf[end:]))


def _public_share_struct(mid_len: int, width: int) -> struct.Struct:
    """The struct of a public-share frame: `mid_len` id bytes, `width` per coordinate."""
    structs = _PUBLIC_SHARES.get(width) or _PUBLIC_SHARES.setdefault(width, [None] * 256)
    frame = structs[mid_len]
    if frame is None:
        frame = structs[mid_len] = struct.Struct(f">BIB{mid_len}sH{width}sH{width}s")
    return frame


def encode_public_share(epoch: int, member_id: str, x: bytes, y: bytes) -> bytes:
    """`encode_frame(PUBLIC_SHARE, epoch, member_id, encode_point_payload(x, y))`,
    packed with one struct; unequal widths and fields out of range go those
    two steps, which raise ValueError as they say."""
    mid = member_id.encode("utf-8")
    width = len(x)
    if len(y) != width or len(mid) > 255 or width > 0xFFFF or not 0 <= epoch < 2**32:
        return encode_frame(PUBLIC_SHARE, epoch, member_id, encode_point_payload(x, y))
    frame = _public_share_struct(len(mid), width)
    return frame.pack(PUBLIC_SHARE, epoch, len(mid), mid, width, x, width, y)


def decode_public_share(buf: bytes, width: int) -> tuple[int, str, int, int]:
    """(epoch, member id, x, y) of a public-share frame whose coordinates are
    `width` bytes each, in one unpack; ValueError for any other, named step by step."""
    if len(buf) < 6:
        raise ValueError("truncated frame header")
    frame = _public_share_struct(buf[5], width)
    if len(buf) == frame.size:
        msg_type, epoch, _, mid, x_len, x, y_len, y = frame.unpack(buf)
        if msg_type == PUBLIC_SHARE and x_len == width == y_len:
            return epoch, mid.decode(), int.from_bytes(x, "big"), int.from_bytes(y, "big")
    msg_type, epoch, mid_len = _HEADER.unpack_from(buf)
    if msg_type != PUBLIC_SHARE:
        raise ValueError(f"expected public-share frame, got type {msg_type}")
    end = 6 + mid_len
    if len(buf) < end:
        raise ValueError("truncated member id")
    x, y = decode_point_payload(buf[end:])  # names a malformed payload
    raise ValueError(f"expected {width} bytes per coordinate, got {len(x)} and {len(y)}")


def encode_point_payload(x: bytes, y: bytes) -> bytes:
    """Used for both curve points (x, y) and Harn releases (x_i, e_i)."""
    if len(x) > 0xFFFF or len(y) > 0xFFFF:
        raise ValueError("field longer than u16 length prefix allows")
    return _U16.pack(len(x)) + x + _U16.pack(len(y)) + y


def decode_point_payload(payload: bytes) -> tuple[bytes, bytes]:
    size = len(payload)
    if size < 2:
        raise ValueError("truncated payload")
    (x_len,) = _U16.unpack_from(payload)
    off = 2 + x_len
    if size < off + 2:
        raise ValueError("truncated payload")
    (y_len,) = _U16.unpack_from(payload, off)
    if size != off + 2 + y_len:
        raise ValueError("payload length mismatch")
    return payload[2:off], payload[off + 2:]


def encode_encrypted_payload(nonce: bytes, ciphertext: bytes) -> bytes:
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes")
    if len(ciphertext) > 0xFFFF:
        raise ValueError("ciphertext longer than u16 length prefix allows")
    return nonce + _U16.pack(len(ciphertext)) + ciphertext


def decode_encrypted_payload(payload: bytes) -> tuple[bytes, bytes]:
    if len(payload) < NONCE_LEN + 2:
        raise ValueError("truncated encrypted payload")
    (ct_len,) = _U16.unpack_from(payload, NONCE_LEN)
    if len(payload) != NONCE_LEN + 2 + ct_len:
        raise ValueError("ciphertext length mismatch")
    return payload[:NONCE_LEN], payload[NONCE_LEN + 2:]
