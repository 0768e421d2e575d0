"""Pinned outputs: CLI stdout and event logs, byte for byte.

Each case runs one CLI command in process and compares the sha256 of its
stdout (and of its ``--events`` file, where it writes one) with a digest
recorded before the simulator and attack code were last restructured.  A
refactor of `sim`, `attacks` or `cli` must leave every digest unchanged;
a change that is meant to alter output must re-record the digest and say
why.

Every attack case is also run with ``--seed`` 2 and 3.  Its JSON holds
verdicts, member ids and counts, none of which moves with the seed, so each
seed must print the default seed's bytes.  No CLI output shows a nonce: the
frames of `attacks.build_honest_transcript` are pinned on their own, which
is what catches a change in the order the seal nonces are drawn.

The simulator's invalid-share adversary shows in no CLI output either: its
`sim.run` reports are pinned on their own, under frame loss, so that a
change in the rng draws of the rogue's point moves every later loss draw.

The acceptance criteria's [PASS] lines are pinned here too, in
`ACCEPTANCE_LINES`, but checked where they are printed.
"""

import hashlib
import itertools
import json

import pytest

from gaskit import attacks, sim
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
    "paper-fig4": (
        ["simulate", "--scenario", "builtin:paper-fig4"],
        0,
        "ed05149465eea39783c4357f9aa28730a12caca13aee28369727ac50f27e3d00",
        "e792475e57595a98bc49b8bc4fce31702bf6c1b71e2208baa13a83591a01c2c6",
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
    "sweep-default": (
        ["sweep"],
        0,
        "15198af89a40ef691958595b045876b423ee5ea866c98f41bd26711d20c60f3e",
        "c320293c81a1a9c5d20927c90d57ce3e28089fc5c559f20fcc5498b510fa2631",
    ),
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
    # the scan of Harn's releases, through the attack flag --scheme
    "attack-eavesdrop-harn": (
        ["attack", "--name", "eavesdrop", "--scheme", "harn"],
        0,
        "1da078c262b08b97afa39835f5644ae9f2283bc12fd896047c121263d79dca7f",
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
    "demo": (
        ["demo"],
        0,
        "57a1d3a44ad3cc69c0260244634195fa44c6d1f72c2569cfa06b48cb87ecfb21",
        None,
    ),
    # m < n: only the first m members take part
    "demo-subset": (
        ["demo", "--t", "3", "--m", "4", "--n", "6"],
        0,
        "677c6ecba668ceb0f9182cd9535a556a6e73841dbb3f4295f79afbde2dcb18c0",
        None,
    ),
    "demo-secp160r1": (
        ["demo", "--curve", "builtin:secp160r1", "--t", "8", "--n", "16"],
        0,
        "9fdf24e1cf57cee5a8a542189966b8003f824e168453fd75f32521a1660075b1",
        None,
    ),
    "demo-test2017-36": (
        ["demo", "--curve", "builtin:test2017", "--t", "18", "--n", "36"],
        0,
        "aa84257c37baeed31b042068bc745dbc38b986604cce4006cb58c554ef73698e",
        None,
    ),
    "demo-harn": (
        ["demo", "--scheme", "harn"],
        0,
        "d47fddc57768c6117d3e8dd511843c742eaf5da7918d3c4dc3d7f7acc970a996",
        None,
    ),
}

ATTACK_CASES = sorted(name for name in CASES if name.startswith("attack-"))

# scheme -> (frame count, sha256 of the length-prefixed frames)
TRANSCRIPTS = {
    "proposed": (16, "fcbd81ab6e8fda38721dc14cacad067eb92ce9c6d5f9e20f75b2b87c1535db71"),
    "harn": (4, "9665332929aae9e728d7e38e1358efdbf520cd148da880bdf9f86d09d69226d8"),
}


# sha256 of the newline-joined `to_dict()` JSON of every adversary run below
ADVERSARY_REPORTS = "422b4f56040eab738ef7f15ae08961d814f45418c61e5ed6db4fcea0f36cc059"

# acceptance criterion -> sha256 of its [PASS] line with the wall time, the
# line's last field, cut out.  tests/test_acceptance.py checks each line as
# it prints it, so that no criterion runs twice.
ACCEPTANCE_LINES = {
    1: "544ad1e25e267f03c341bd98efbb7d159cdd0c969164ab97b18343bf5f127daf",
    2: "032a85ab8180aa4ec4ee7b282f1e48dc7fd3a80a0d8c4acaec7a7f73b7231505",
    3: "91495daf8c1c604036481a45609750654efc2d06d9a0c7db66e80f9067a38ad4",
    4: "45068822ff56bf001bbb3233fe61cd9d411a555d2c5272d4f33e225c4f4d542b",
    5: "f7424d9f02d43a3ee4a5aa1399c34acbcad055b7339219b7a55052b6176dd869",
    6: "978bc1f7b2f5ff542772cea8cdbdaaadecc6f42fe58784274bb6384d422e8c47",  # harn muls [69, 191, 640]
    7: "b45632acf5b7f7bb9c860acdb8fcf5ceffe630802ace3d75fd19f92282ae9f28",
    8: "1a3fe1bc5710aece89a29add358b9ebd8fdd1440aa960e4434d1670645cf8f41",
    9: "1832c5f27ab0900b948a667a3a2014cd7d96489f1ad049837b4196f9b939f662",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, tmp_path, capsys, *extra):
    """(exit code, stdout digest, events digest or None) of one case, `extra` appended."""
    argv, _, _, events_digest = CASES[name]
    argv = [*argv, *extra]
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
def test_output_pinned(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == CASES[name][1:]


@pytest.mark.parametrize("seed", ["2", "3"])
@pytest.mark.parametrize("name", ATTACK_CASES)
def test_attack_pinned_under_gas_seed(name, seed, tmp_path, capsys):
    """The GAS group dealt from another ``--seed`` gives the same attack JSON."""
    assert run_case(name, tmp_path, capsys, "--seed", seed) == CASES[name][1:]


@pytest.mark.parametrize("scheme", sorted(TRANSCRIPTS))
def test_honest_transcript_pinned(scheme):
    frames, _, _ = attacks.build_honest_transcript(scheme)
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(len(frame).to_bytes(4, "big") + frame)
    assert (len(frames), digest.hexdigest()) == TRANSCRIPTS[scheme]


def test_invalid_share_adversary_pinned():
    digest = hashlib.sha256()
    for seed, scheme, schedule, curve in itertools.product(
        (1, 2, 3),
        ("proposed-centralized", "proposed-decentralized"),
        sim.SCHEDULE_CHOICES,
        ("builtin:test2017", "builtin:secp160r1"),
    ):
        report = sim.run(sim.Scenario(
            scheme=scheme, m=7, t=3, schedule=schedule, loss=0.2, seed=seed, curve_ref=curve,
            adversary="U4",
        ))
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == ADVERSARY_REPORTS
