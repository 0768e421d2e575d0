"""Wire decoders on arbitrary and near-valid bytes: decode or raise ValueError.

Property tests; they need the optional `hypothesis` package (the `test`
extra) and are skipped where it is not installed.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaskit import gas_core, wire  # noqa: E402
from gaskit.ec import builtin_curve, check_affine_point  # noqa: E402
from oracle import curve_point  # noqa: E402

_DEALT = {
    name: gas_core.gm_init(3, 5, builtin_curve(name), random.Random(name))
    for name in ("secp160r1", "test2017")
}
_CONFIGS = {name: config for name, (config, _) in _DEALT.items()}

# seeded from the test, so that a run is reproducible; no example database
_fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_any_bytes = st.binary(max_size=300)

# valid public-share frames of both curves with up to two bytes overwritten:
# these get past the header to the payload, range and on-curve checks
_VALID_FRAMES = [
    gas_core.public_share_frame(
        gas_core.PublicShare("U1", config.group_public_key, config.curve), config.epoch
    )
    for config in _CONFIGS.values()
]


def _overwrite(frame, edits):
    buf = bytearray(frame)
    for pos, byte in edits:
        buf[pos % len(buf)] = byte
    return bytes(buf)


_near_valid_frames = st.builds(
    _overwrite,
    st.sampled_from(_VALID_FRAMES),
    st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)), max_size=2),
)


def _decodes_or_value_error(decode, *args):
    try:
        decode(*args)
    except ValueError:
        pass


@_fuzz
@given(_any_bytes)
def test_fuzz_decode_frame(buf):
    _decodes_or_value_error(wire.decode_frame, buf)


@_fuzz
@given(_any_bytes)
def test_fuzz_decode_point_payload(buf):
    _decodes_or_value_error(wire.decode_point_payload, buf)


@_fuzz
@given(_any_bytes)
def test_fuzz_decode_encrypted_payload(buf):
    _decodes_or_value_error(wire.decode_encrypted_payload, buf)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
@_fuzz
@given(st.one_of(_any_bytes, _near_valid_frames))
def test_fuzz_public_share_from_frame(name, buf):
    _decodes_or_value_error(gas_core.public_share_from_frame, buf, _CONFIGS[name])


# --- the one-pass public-share decoder against the chain it replaced ----------

def _reference_decode(buf, config):
    """frame, then payload, then each coordinate, then the point: one step each."""
    frame = wire.decode_frame(buf)
    if frame.msg_type != wire.PUBLIC_SHARE:
        raise ValueError("not a public-share frame")
    if frame.epoch != config.epoch:
        raise ValueError("another epoch")
    x, y = wire.decode_point_payload(frame.payload)
    curve = config.curve
    x, y = curve.modulus.from_bytes(x).residue, curve.modulus.from_bytes(y).residue
    check_affine_point(x, y, curve)
    return frame.epoch, gas_core.PublicShare(frame.member_id, curve_point(curve, x, y), curve)


def _outcome(decode, buf, config):
    try:
        return decode(buf, config)
    except ValueError:
        return ValueError


def _assert_same_outcome(buf, config):
    got = _outcome(gas_core.public_share_from_frame, buf, config)
    want = _outcome(_reference_decode, buf, config)
    assert got == want
    if got is not ValueError:
        # the decoded share's ints are the reference chain's residues, and
        # the point built from them has the curve's own modulus in both
        ps, ref = got[1], want[1].point
        assert (ps.x, ps.y) == (ref.x.residue, ref.y.residue)
        assert ps.field is config.curve.modulus
        point = ps.point
        assert point.x.modulus is config.curve.modulus
        assert point.y.modulus is config.curve.modulus


def _frame(msg_type, epoch, member_id, coords):
    """A frame built by hand; `coords` are (value, length) pairs, and a value
    too long for its length keeps its low-order bytes."""
    payload = b"".join(
        length.to_bytes(2, "big") + (value % 256**length).to_bytes(length, "big")
        for value, length in coords
    )
    header = bytes([msg_type]) + epoch.to_bytes(4, "big") + bytes([len(member_id)])
    return header + member_id + payload


# every member's public share, per curve
_PUBLIC_SHARES = {name: gas_core.run_confirmation(*dealt)[1] for name, dealt in _DEALT.items()}


def _coordinate_cases(name):
    """Each public share's (x, y); then, of the first, x or y at p - 1 or p,
    x or y plus p (on the curve mod p, where it fits the width), and y + 1;
    on a small field, also (p, y) for the points (0, y) of the curve."""
    curve = _CONFIGS[name].curve
    p, b = curve.modulus.value, curve.b.residue
    points = [(ps.point.x.residue, ps.point.y.residue) for ps in _PUBLIC_SHARES[name]]
    x, y = points[0]
    edges = [(p - 1, y), (p, y), (x, p - 1), (x, p), (x + p, y), (x, y + p), (x, (y + 1) % p)]
    if p < 2**16:
        edges += [(p, y0) for y0 in range(p) if (y0 * y0 - b) % p == 0]
    return points + edges


_CASES = {name: _coordinate_cases(name) for name in _CONFIGS}


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_public_share_decode_matches_reference_on_every_truncation(name):
    config = _CONFIGS[name]
    for ps in _PUBLIC_SHARES[name]:
        frame = gas_core.public_share_frame(ps, config.epoch)
        assert _outcome(gas_core.public_share_from_frame, frame, config) != ValueError
        for buf in [frame[:cut] for cut in range(len(frame))] + [frame + b"\x00"]:
            _assert_same_outcome(buf, config)


# member ids of 0, 2, 3, 127 and 255 bytes (the longest the header's length
# byte allows), valid UTF-8 or not
_MEMBER_IDS = (
    "U1".encode(), "Ü9".encode(), "Ü".encode(), b"\xff\xfe", b"",
    b"U" * 127, ("é" * 127 + "U").encode(), b"\xff" * 255,
)


@st.composite
def _built_frames(draw, name):
    config = _CONFIGS[name]
    width = config.curve.modulus.byte_length
    x, y = draw(st.sampled_from(_CASES[name]))
    lengths = st.sampled_from((width, width, width - 1, width + 1))
    buf = _frame(
        draw(st.sampled_from((wire.PUBLIC_SHARE,) * 4 + (0, 2, 3, 4, 5, 255))),
        draw(st.sampled_from((config.epoch,) * 3 + (0, 2, 2**32 - 1))),
        draw(st.sampled_from(_MEMBER_IDS)),
        [(x, draw(lengths)), (y, draw(lengths))],
    )
    edit = draw(st.sampled_from(("none", "none", "truncate", "extend", "id_past_end")))
    if edit == "truncate":
        return buf[:draw(st.integers(0, len(buf) - 1))]
    if edit == "extend":
        return buf + bytes([draw(st.integers(0, 255))])
    if edit == "id_past_end":  # the id-length byte counts more bytes than follow it
        mid_len = draw(st.integers(1, 255))
        return buf[:5] + bytes([mid_len]) + buf[6:5 + mid_len]
    return buf


@pytest.mark.parametrize("name", sorted(_CONFIGS))
@_fuzz
@given(st.data())
def test_public_share_decode_matches_reference(name, data):
    config = _CONFIGS[name]
    buf = data.draw(st.one_of(_built_frames(name), _near_valid_frames, _any_bytes))
    _assert_same_outcome(buf, config)


@pytest.mark.parametrize("name", sorted(_CONFIGS))
def test_public_share_decode_reads_every_member_id_length(name):
    # one struct per (member id length, width): valid frames with ids of 0
    # to 255 bytes decode, and the same frames one byte short or long do not
    config = _CONFIGS[name]
    point = _PUBLIC_SHARES[name][0].point
    for member_id in ("", "U", "Ü", "U" * 127, "é" * 127 + "U"):
        ps = gas_core.PublicShare(member_id, point, config.curve)
        frame = gas_core.public_share_frame(ps, config.epoch)
        assert gas_core.public_share_from_frame(frame, config) == (config.epoch, ps)
        for buf in (frame[:-1], frame + b"\x00", frame[:6 + len(member_id.encode()) - 1]):
            _assert_same_outcome(buf, config)


# --- the one-pack public-share encoder against the two steps it replaced -----

def _encoded(encode, *args):
    try:
        return encode(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def _two_step_encode(epoch, member_id, x, y):
    return wire.encode_frame(wire.PUBLIC_SHARE, epoch, member_id, wire.encode_point_payload(x, y))


# member ids of 0 to 255 UTF-8 bytes, multi-byte characters included: a
# character cut by the 255-byte limit is dropped whole
_encodable_ids = st.one_of(
    st.text(max_size=255).map(lambda s: s.encode()[:255].decode("utf-8", "ignore")),
    st.sampled_from(("", "U" * 255, "é" * 127 + "U", "€" * 85)),
)


@st.composite
def _coordinates(draw):
    x = draw(st.binary(max_size=40))
    if draw(st.booleans()):
        return x, draw(st.binary(min_size=len(x), max_size=len(x)))
    return x, draw(st.binary(max_size=40))


@_fuzz
@given(st.one_of(st.sampled_from((0, 2**32 - 1)), st.integers(0, 2**32 - 1)),
       _encodable_ids, _coordinates())
def test_encode_public_share_matches_the_two_step_frame(epoch, member_id, xy):
    x, y = xy
    frame = wire.encode_public_share(epoch, member_id, x, y)
    assert frame == _two_step_encode(epoch, member_id, x, y)
    if len(x) == len(y):
        assert wire.decode_public_share(frame, len(x)) == (
            epoch, member_id, int.from_bytes(x, "big"), int.from_bytes(y, "big"))


@pytest.mark.parametrize("epoch, member_id, x, y", [
    (-1, "U1", b"\x01\x02", b"\x03\x04"),
    (2**32, "U1", b"\x01\x02", b"\x03\x04"),
    (1, "U" * 256, b"\x01\x02", b"\x03\x04"),
    (1, "é" * 128, b"\x01", b"\x02\x03"),
    (1, "U1", bytes(0x10000), bytes(0x10000)),
])
def test_encode_public_share_raises_as_the_two_step_frame(epoch, member_id, x, y):
    got = _encoded(wire.encode_public_share, epoch, member_id, x, y)
    assert got.startswith("ValueError: ")
    assert got == _encoded(_two_step_encode, epoch, member_id, x, y)
