"""File readers on arbitrary and near-valid JSON: exit 0 or 2, never a traceback.

Scenario, curve and Harn modulus files, the files a command reads, go
through ``gaskit simulate``.
Property tests; they need the optional `hypothesis` package (the `test`
extra) and are skipped where it is not installed.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gaskit import cli, sim  # noqa: E402
from gaskit.ec import builtin_curve, curve_to_dict  # noqa: E402

# seeded from the test, so that a run is reproducible; no example database
_fuzz = settings(derandomize=True, database=None, deadline=None, max_examples=150)

# every integer below 2^64 in magnitude, so no example waits on a huge prime
_ints = st.integers(-(2**64) + 1, 2**64 - 1)
_json = st.recursive(
    st.none() | st.booleans() | _ints | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# values a file field could plausibly hold: small numbers (small primes
# included), as JSON numbers and as the decimal strings the writers emit
_small = st.integers(-3, 64)
_DELETE = object()
_values = st.one_of(
    st.just(_DELETE), _small, _small.map(str), _ints.map(str), st.floats(0, 2), _json,
)

_SCENARIOS = [
    asdict(sim.Scenario(scheme=scheme, m=4, t=2, curve_ref="builtin:test2017",
                        harn_ref="builtin:harn-tiny"))
    for scheme in sim.SCHEME_CHOICES
]
_SCENARIO_VALUES = st.one_of(
    _values,
    st.sampled_from([*sim.SCHEME_CHOICES, *sim.SCHEDULE_CHOICES, "builtin:secp160r1",
                     "builtin:toy5", "builtin:harn-tiny", "builtin:nope"]),
    st.builds(dict, kind=st.just("invalid-share"), member_id=st.sampled_from(["U1", "U4", "U9"])),
)
_CURVE = curve_to_dict(builtin_curve("test2017"))
_HARN = {"name": "harn-tiny", "p": "23", "q": "11", "g": "3"}
# p = 2kq + 1 over small q, prime or not: groups that nearly fill F_q
_SMALL_HARN = st.builds(lambda q, k: {"p": str(2 * k * q + 1), "q": str(q)},
                        st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 12))


def _mutations(base, values):
    """`base` with up to three keys, its own or new ones, set or deleted."""
    keys = st.sampled_from(sorted(base)) | st.text(max_size=8)

    def apply(edits):
        data = dict(base)
        for key, value in edits:
            if value is _DELETE:
                data.pop(key, None)
            else:
                data[key] = value
        return data

    return st.lists(st.tuples(keys, values), max_size=3).map(apply)


def _small_group(data):
    m = data.get("m") if isinstance(data, dict) else None
    return not (type(m) is int and m > 6)


def _simulate(tmp_path_factory, data, *argv):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["simulate", *(str(path) if a is None else a for a in argv)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().splitlines()[-1].startswith("gaskit: ")


@_fuzz
@given(st.one_of(_json, *(_mutations(s, _SCENARIO_VALUES) for s in _SCENARIOS))
       .filter(_small_group))
def test_fuzz_scenario_file(tmp_path_factory, data):
    _simulate(tmp_path_factory, data, "--scenario", None)


@_fuzz
@given(st.one_of(_json, _mutations(_CURVE, _values)),
       st.sampled_from(["proposed-centralized", "proposed-decentralized"]),
       st.integers(1, 6))
def test_fuzz_curve_file(tmp_path_factory, data, scheme, m):
    _simulate(tmp_path_factory, data, "--scheme", scheme, "--m", str(m), "--curve", None)


@_fuzz
@given(st.one_of(_json, _mutations(_HARN, _values), _SMALL_HARN), st.integers(1, 6))
def test_fuzz_harn_modulus_file(tmp_path_factory, data, m):
    _simulate(tmp_path_factory, data, "--scheme", "harn", "--m", str(m), "--harn", None)
