"""Wire framing: round trips, a pinned golden frame, malformed input."""

import pytest

from gaskit import wire


def test_frame_roundtrip():
    buf = wire.encode_frame(wire.PUBLIC_SHARE, 7, "U12", b"\x01\x02")
    frame = wire.decode_frame(buf)
    assert frame.msg_type == wire.PUBLIC_SHARE
    assert frame.epoch == 7
    assert frame.member_id == "U12"
    assert frame.payload == b"\x01\x02"
    assert frame == wire.Frame(wire.PUBLIC_SHARE, 7, "U12", b"\x01\x02")
    assert wire.encode_frame(*frame) == buf
    with pytest.raises(AttributeError):  # immutable
        frame.epoch = 8


def test_frame_golden_bytes():
    # type=1, epoch=0x00000002, id len=2, "U1", payload "hi"
    buf = wire.encode_frame(wire.PUBLIC_SHARE, 2, "U1", b"hi")
    assert buf.hex() == "010000000202" + "5531".lower() + b"hi".hex()
    assert len(buf) == 6 + 2 + 2
    # type=4, epoch=1, id len=2, "GM", accepted=1
    assert wire.encode_frame(wire.VERDICT, 1, "GM", b"\x01") == b"\x04\x00\x00\x00\x01\x02GM\x01"


def test_frame_header_validation():
    with pytest.raises(ValueError, match="unknown message type"):
        wire.encode_frame(99, 1, "U1", b"")
    with pytest.raises(ValueError, match="u32"):
        wire.encode_frame(wire.VERDICT, 2**32, "U1", b"")
    with pytest.raises(ValueError, match="255"):
        wire.encode_frame(wire.VERDICT, 1, "x" * 300, b"")


def test_frame_truncation_errors():
    good = wire.encode_frame(wire.VERDICT, 1, "U1", b"\x01")
    with pytest.raises(ValueError, match="truncated"):
        wire.decode_frame(good[:4])
    with pytest.raises(ValueError, match="truncated member id"):
        wire.decode_frame(good[:7])
    with pytest.raises(ValueError, match="unknown message type"):
        wire.decode_frame(b"\x63" + good[1:])


def test_point_payload_roundtrip():
    payload = wire.encode_point_payload(b"\x07\xe1", b"\x01\x76")
    assert wire.decode_point_payload(payload) == (b"\x07\xe1", b"\x01\x76")
    assert payload == b"\x00\x02\x07\xe1\x00\x02\x01\x76"


def test_point_payload_length_mismatch():
    payload = wire.encode_point_payload(b"ab", b"cd")
    with pytest.raises(ValueError):
        wire.decode_point_payload(payload + b"x")
    with pytest.raises(ValueError):
        wire.decode_point_payload(payload[:-1])
    with pytest.raises(ValueError):
        wire.decode_point_payload(b"\x00")


def test_encrypted_payload_roundtrip():
    nonce = bytes(range(12))
    ct = b"\xaa" * 37
    payload = wire.encode_encrypted_payload(nonce, ct)
    assert wire.decode_encrypted_payload(payload) == (nonce, ct)


def test_encrypted_payload_validation():
    with pytest.raises(ValueError, match="nonce"):
        wire.encode_encrypted_payload(b"\x00" * 11, b"ct")
    good = wire.encode_encrypted_payload(b"\x00" * 12, b"ct")
    with pytest.raises(ValueError):
        wire.decode_encrypted_payload(good[:-1])
    with pytest.raises(ValueError, match="truncated"):
        wire.decode_encrypted_payload(b"\x00" * 5)
    # a ciphertext one byte over the length prefix is refused by name, never
    # left to struct's own error
    ct = b"\xaa" * 0xFFFF
    assert wire.decode_encrypted_payload(wire.encode_encrypted_payload(bytes(12), ct)) == (
        bytes(12), ct)
    with pytest.raises(ValueError, match="^ciphertext longer than u16 length prefix allows$"):
        wire.encode_encrypted_payload(bytes(12), bytes(0x10000))


def test_point_payload_u16_bound():
    x, y = b"\x01" * 0xFFFF, b"\x02" * 0xFFFF
    payload = wire.encode_point_payload(x, y)
    assert len(payload) == 2 * (2 + 0xFFFF)
    assert wire.decode_point_payload(payload) == (x, y)
    for x, y in ((bytes(0x10000), b""), (b"", bytes(0x10000))):
        with pytest.raises(ValueError, match="^field longer than u16 length prefix allows$"):
            wire.encode_point_payload(x, y)


def test_header_only_frame_has_an_empty_id_and_payload():
    buf = bytes([wire.VERDICT, 0, 0, 0, 1, 0])
    assert wire.decode_frame(buf) == wire.Frame(wire.VERDICT, 1, "", b"")


def test_public_share_frame_cut_inside_its_id_is_refused():
    # the id runs past the end, so no payload is left for the point
    frame = wire.encode_public_share(1, "U12", b"\x07", b"\x08")
    for cut in (7, 8):  # six header bytes, then one or two of "U12"
        with pytest.raises(ValueError, match="^truncated payload$"):
            wire.decode_public_share(frame[:cut], 1)
