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
from gaskit.ec import builtin_curve  # noqa: E402

_CONFIGS = {
    name: gas_core.gm_init(3, 5, builtin_curve(name), random.Random(name))[0]
    for name in ("secp160r1", "test2017")
}

# seeded from the test, so that a run is reproducible; no example database
_fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=300)

_any_bytes = st.binary(max_size=300)

# valid public-share frames of both curves with up to two bytes overwritten:
# these get past the header to the payload, range and on-curve checks
_VALID_FRAMES = [
    gas_core.public_share_frame(
        gas_core.PublicShare("U1", config.group_public_key), config.epoch
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
