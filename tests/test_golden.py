"""Pinned outputs: CLI stdout and event logs, byte for byte.

Each case runs one CLI command in process and compares the sha256 of its
stdout (and of its ``--events`` file, where it writes one) with a digest
recorded before the simulator and attack code were last restructured.  A
refactor of `sim`, `attacks` or `cli` must leave every digest unchanged;
a change that is meant to alter output must re-record the digest and say
why.
"""

import hashlib

import pytest

from gaskit.cli import main

TOY = ("--curve", "builtin:test2017", "--m", "12")
SWEEP = ("sweep", "--schemes", "harn,chien,proposed-centralized,proposed-decentralized",
         "--m-list", "10,50", "--seed", "1")
SWEEP_CSV = "f410e680ee055b5341b17ea161ad106fd68b8fa38fa43e50a30a3cc8d709daaf"
SWEEP_EVENTS = "dc66c3e2b54dad02b9f52011366c9352bf96d1773b16297d597514464178db11"

# name -> (argv, exit code, stdout sha256, events sha256 or None)
CASES = {
    "slotted-loss": (
        ["simulate", "--scheme", "proposed-centralized", *TOY, "--loss", "0.3",
         "--seed", "3"],
        0,
        "e45ac6b7bec59367cfa835711f851d2f9560650040544d0973e231ba6f09bca6",
        "f1972e8b510b3253d028dcaafac47557f6571e3622c85cca4debcbc478769a0e",
    ),
    "staggered": (
        ["simulate", "--scheme", "proposed-centralized", *TOY,
         "--schedule", "staggered", "--seed", "4"],
        0,
        "38d86b052cc604c65ffd307cd7a7d902a1162632f5a1c9cbbf21943aa36d68af",
        "9dca1c81b65e905f1b7c54209bff4c502bd9c9e119f209c1a9c20f7650623f3a",
    ),
    "flood": (
        ["simulate", "--scheme", "proposed-decentralized", *TOY,
         "--schedule", "flood", "--seed", "5"],
        0,
        "969425b17a3f5c0d47c09f6ccf9af940c8ce76105ae49c18eb169db803c697bd",
        "f7f697e5369789d5eba1bb6bae9ba7df476f0444b85821faa92619bcbbbb9c46",
    ),
    "flood-loss": (
        ["simulate", "--scheme", "proposed-decentralized", *TOY,
         "--schedule", "flood", "--loss", "0.3", "--seed", "6"],
        0,
        "cc187c67448055d3f08b3ef5437117009f0a2b674ad9b1f9b94bbad4c8027e27",
        "aa5c568fbc400201969bf417ca76b7d5462dc720f97edf592773ba6e81ee8056",
    ),
    "harn-loss": (
        ["simulate", "--scheme", "harn", "--m", "8", "--harn", "builtin:harn-tiny",
         "--loss", "0.1", "--seed", "7"],
        0,
        "6e59df7619d5b327a98d6ed1a904f4fcc34a3b87d34d487eeb5c920f233b9632",
        "847858c95b28877d07bcd883e5ceea371bd36eab7e5a63ba4c18b718a2aad266",
    ),
    "paper-fig3": (
        ["simulate", "--scenario", "builtin:paper-fig3"],
        0,
        "a573a22014aaf2897db636f40693c71760dde3a6807f594b021f40f1baa3e7a3",
        "f5a8574c0c4566bc5be01378fe2958d5fd7b1d1e341c8a8b418ac9160c59ea1b",
    ),
    "cost": (
        ["cost", "--m-range", "10:50:10"],
        0,
        "ca02d50f0df4465b2b8fb44dd055bcb1a1ebec6ae7db92cb038809be35a72510",
        None,
    ),
    "cost-table-slope": (
        ["cost", "--m-range", "10:50:10", "--harn-slope", "table"],
        0,
        "d14e26a38256d82a8851f35db32f59c95cf53342961289c19e899b6486ff54e6",
        None,
    ),
    # the worker count must not change a byte
    "sweep-jobs1": ([*SWEEP, "--jobs", "1"], 0, SWEEP_CSV, SWEEP_EVENTS),
    "sweep-jobs2": ([*SWEEP, "--jobs", "2"], 0, SWEEP_CSV, SWEEP_EVENTS),
    "attack-replay": (
        ["attack", "--name", "replay"],
        0,
        "4a7e50b8050b1b95de764619b4aaf89eac8ddf0fb3246f2a410bfcc65867da48",
        None,
    ),
    "attack-replay-rotate": (
        ["attack", "--name", "replay", "--rotate"],
        0,
        "cabf7be752627f1c43d38bc939fcb81031a7ff5df3c7405c5e68ca3a62d9ec00",
        None,
    ),
    "attack-dos": (
        ["attack", "--name", "dos-invalid-share"],
        0,
        "43f9ef7ced531104f5f886de0f59b8c95d98e3e4acf26c2a7fe94042710ccd9d",
        None,
    ),
    "attack-dos-centralized": (
        ["attack", "--name", "dos-invalid-share", "--mode", "centralized"],
        0,
        "1596723f986568824fc5a90bd946ccbfa294b9b1f7c278d81b2224987bd073a6",
        None,
    ),
    "attack-node-compromise": (
        ["attack", "--name", "node-compromise"],
        0,
        "bee2408800d6c212e4938671080cd7617d9ed3ea49dfd4ce12fbcfe159b17226",
        None,
    ),
    "attack-node-compromise-rotate": (
        ["attack", "--name", "node-compromise", "--rotate"],
        0,
        "470872d4b58e491fd6821de7bf7419c258381905cda33d674151413069036be0",
        None,
    ),
    "attack-eavesdrop": (
        ["attack", "--name", "eavesdrop"],
        0,
        "ac35bbe20cdf4e77102575ab108eb785a25a7b8c586ca1c0e80df6f1fef736d1",
        None,
    ),
    "attack-eavesdrop-leaky": (
        ["attack", "--name", "eavesdrop", "--leaky"],
        0,
        "38fcef629e8eb5ea9c53c0d16d494076f59451d0d04c53955b23fdb82a4d219c",
        None,
    ),
    "gen-params-curve": (
        ["gen-params", "--kind", "curve"],
        0,
        "4f2bba6b4e2424468663642461e1eee8f943f4e35b7f8c2916d4dbab71a03f96",
        None,
    ),
    "gen-params-curve-23": (
        ["gen-params", "--kind", "curve", "--modulus", "23", "--a", "1", "--b", "4",
         "--gx", "0", "--gy", "2"],
        0,
        "9445b8ab05e58fadedc3713a94da9aa19a101341e32917a68e1967b4392236d3",
        None,
    ),
    "attack-flood": (
        ["attack", "--name", "flood"],
        0,
        "430016704bddbce6e2721dd8ce1a671d7da3dbb0f02547cd6bf53732a2ee6e03",
        None,
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, tmp_path, capsys):
    """(exit code, stdout digest, events digest or None) of one case."""
    argv, _, _, events_digest = CASES[name]
    argv = list(argv)
    events = tmp_path / "events.json"
    if events_digest is not None:
        argv += ["--events", str(events)]
    code = main(argv)
    out = capsys.readouterr().out
    return (
        code,
        _sha256(out.encode("utf-8")),
        None if events_digest is None else _sha256(events.read_bytes()),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_pinned(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GAS_SEED", raising=False)
    assert run_case(name, tmp_path, capsys) == CASES[name][1:]
