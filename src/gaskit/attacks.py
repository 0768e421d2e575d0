"""Executable adversary scenarios against the group authentication scheme.

Each scenario states its expected outcome up front (attack defeated or
attack succeeds - the scheme has acknowledged weaknesses) and reports what
actually happened, so the suite doubles as a regression harness for the
threat model:

* replay of a recorded public share - defeated by key agreement; defeated
  at confirmation too once credentials rotate;
* invalid-share denial of service - succeeds against decentralized
  confirmation, is isolated by the centralized GM;
* node compromise - succeeds (full impersonation) until a rotation
  excludes the victim;
* verifier flooding - congestion at the confirmation point, measured as
  queue depth and authentication-time inflation;
* eavesdropping - a transcript byte-scan showing no secret material in
  the clear (a structural smoke test, not a proof).

An attacker inside the group plays a member's seat on the code honest
members run (`gas_core.run_confirmation` and `exchange_group_key`, or
`sim.run`): the seat holds a stolen share, or the `sss.guessed_share` of
an attacker who lacks one, and a tap may swap the seat's frames for
recorded ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from . import gas_core, gas_harn, sim, wire
from .ec import builtin_curve
from .gas_core import MemberState, PeerAuthenticationError, UnknownMemberError
from .sss import guessed_share, roster_ids, verify_commitment

__all__ = [
    "ATTACK_NAMES",
    "AdversaryScript",
    "Finding",
    "replay_attack",
    "dos_invalid_share",
    "node_compromise",
    "flood_congestion",
    "eavesdrop_secrecy_check",
    "build_honest_transcript",
    "run_attack",
]

ATTACK_NAMES = ("replay", "dos-invalid-share", "node-compromise", "eavesdrop", "flood")

_CAPABILITIES = ("eavesdrop", "inject", "replay", "compromise")


@dataclass(frozen=True)
class AdversaryScript:
    """What the adversary can do and the steps it takes, for the record."""

    capability: str
    actions: tuple[str, ...]
    target: str | None = None

    def __post_init__(self) -> None:
        if self.capability not in _CAPABILITIES:
            raise ValueError(f"unknown capability {self.capability!r}")


@dataclass
class Finding:
    """One scenario's expected-vs-observed verdict."""

    name: str
    script: AdversaryScript
    expected: dict
    observed: dict
    notes: list[str] = dc_field(default_factory=list)

    @property
    def matched(self) -> bool:
        return all(self.observed.get(k) == v for k, v in self.expected.items())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "capability": self.script.capability,
            "target": self.script.target,
            "actions": list(self.script.actions),
            "expected": self.expected,
            "observed": self.observed,
            "matched": self.matched,
            "notes": self.notes,
        }


def _recorder(frames: list[bytes]):
    """A session driver's tap that appends each frame to `frames` and delivers it."""
    return lambda frame: frames.append(frame) or frame


def _setup_group(seed: int):
    rng = random.Random(seed)
    config, shares = gas_core.gm_init(3, 5, builtin_curve("test2017"), rng)
    return rng, config, shares


# ---------------------------------------------------------------------------
# Replay

def replay_attack(rotate: bool, seed: int = 11) -> Finding:
    """Replay a recorded public-share frame in a later authentication round.

    The attacker records the victim's frame in epoch 1, then takes the
    victim's seat in the target round with a guessed share, behind a tap
    that swaps the seat's public-share frame for the recorded one.  Without
    rotation the stale frame still passes confirmation (the point is
    unchanged), but the seat's pairwise keys are not its peers', so the
    first peer to open its seal names it.  With rotation each seat opens
    its new share from the GM's sealed bundle under the group key it
    recovered, and even confirmation rejects the frame: it is of the old
    epoch, and the recipients' decode refuses it.
    """
    rng, config, shares = _setup_group(seed)
    victim = shares[1].member_id
    recorded: list[bytes] = []
    states, _ = gas_core.run_confirmation(config, shares, tap=_recorder(recorded))
    recorded_frame = recorded[1]  # broadcast in roster order: the victim's

    notes: list[str] = []
    seats = list(shares)
    if rotate:
        group_key = gas_core.exchange_group_key(states, rng)
        rotation = gas_core.rotate_credentials(config, group_key, rng)
        # the GM keeps its plaintext shares for gm_verify; each seat opens its own
        config, shares = rotation.config, rotation.shares
        seats = [
            gas_core.open_rotated_share(
                mid, states[mid].group_key, rotation.encrypted_bundle[mid], config
            )
            for mid in config.member_ids
        ]
        notes.append(f"credentials rotated to epoch {config.epoch}")

    # target round: the attacker sits in the victim's seat without f(x_i)
    seats[1] = guessed_share(seats[1], rng)

    def swap(frame: bytes) -> bytes:
        msg_type, _, sender, _ = wire.decode_frame(frame)
        return recorded_frame if (msg_type, sender) == (wire.PUBLIC_SHARE, victim) else frame

    peers_flag_attacker = attacker_key_ok = False
    try:
        states2, delivered = gas_core.run_confirmation(config, seats, tap=swap)
    except ValueError:
        confirmation_accepted = False
    else:
        confirmation_accepted = all(gas_core.gm_verify(config, shares, delivered).values())
    if confirmation_accepted:
        try:
            gas_core.exchange_group_key(states2, rng)
        except PeerAuthenticationError as exc:
            peers_flag_attacker = exc.peer_id == victim
        peer = shares[0].member_id
        attacker_key_ok = (
            states2[victim].pairwise_keys[peer] == states2[peer].pairwise_keys[victim]
        )
        notes.append("attacker cannot authenticate any AEAD exchange")

    # the point of the seat's own guess never verifies
    forged = gas_core.make_public_share(MemberState(share=seats[1], config=config))
    rogue_accepted = gas_core.gm_verify(config, shares, [forged])[victim]

    expected = {
        "confirmation_accepted": not rotate,
        "attacker_completes_key_agreement": False,
        "rogue_point_accepted": False,
    }
    if not rotate:
        expected["peers_flag_attacker"] = True
    observed = {
        "confirmation_accepted": confirmation_accepted,
        "attacker_completes_key_agreement": attacker_key_ok,
        "peers_flag_attacker": peers_flag_attacker,
        "rogue_point_accepted": rogue_accepted,
    }
    return Finding(
        name="replay",
        script=AdversaryScript(
            capability="replay",
            target=victim,
            actions=(
                "record public-share frame in epoch 1",
                "re-inject it in the target round",
                "attempt key agreement without f(x_i)",
            ),
        ),
        expected=expected,
        observed=observed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Denial of service with an invalid share (Vulnerability 1)

def dos_invalid_share(
    m: int = 6,
    t: int = 3,
    mode: str = "decentralized",
    seed: int = 5,
) -> Finding:
    """One participant broadcasts a random point every round.

    The simulator seats U3 with a guessed share, whose point it broadcasts
    in place of f(x_i)P.
    """
    if mode not in ("centralized", "decentralized"):
        raise ValueError("mode must be centralized or decentralized")
    attacker = "U3"
    scheme = "proposed-centralized" if mode == "centralized" else "proposed-decentralized"
    scenario = sim.Scenario(
        scheme=scheme,
        m=m,
        t=t,
        seed=seed,
        curve_ref="builtin:test2017",
        adversary={"kind": "invalid-share", "member_id": attacker},
    )
    with sim.event_log(False):
        report = sim.run(scenario)
    if mode == "centralized":
        expected = {"authenticated": True, "culprits": [attacker]}
    else:
        expected = {"authenticated": False, "failure_reason": "denial-of-authentication"}
    observed = {
        "authenticated": report.authenticated,
        "failure_reason": report.failure_reason,
        "culprits": report.culprits,
        "rounds_used": report.rounds_used,
    }
    notes = [
        f"retry bound {sim.MAX_RETRIES}; verdict false every round"
        if mode == "decentralized"
        else "per-member verdicts isolate the culprit; honest subset re-runs",
    ]
    return Finding(
        name="dos-invalid-share",
        script=AdversaryScript(
            capability="inject",
            target=attacker,
            actions=("broadcast a random on-curve point in every confirmation round",),
        ),
        expected=expected,
        observed=observed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Node compromise (Vulnerability 2)

def node_compromise(rotate_excluding_victim: bool = False, seed: int = 23) -> Finding:
    """Attacker holding a member's share impersonates it end to end.

    The victim's seat on the session drivers holds the stolen share, so the
    point it delivers is the forged one and the group key it recovers is the
    attacker's.
    """
    rng, config, shares = _setup_group(seed)
    victim = shares[1].member_id

    states, delivered = gas_core.run_confirmation(config, shares)
    forged = delivered[1]  # f(x_i)P from the stolen share
    confirmation_accepted = all(gas_core.gm_verify(config, shares, delivered).values())
    gas_core.exchange_group_key(states, rng)
    recovered = states[victim].group_key
    key_recovered = verify_commitment(recovered, config.commitment)

    post_rotation_rejected = None
    notes = ["compromise of the private share defeats the scheme (known limitation)"]
    if rotate_excluding_victim:
        reduced = tuple(entry for entry in config.roster if entry[0] != victim)
        rotation = gas_core.rotate_credentials(config, recovered, rng, roster=reduced)
        try:
            gas_core.gm_verify(rotation.config, rotation.shares, [forged])
            post_rotation_rejected = False
        except UnknownMemberError:
            post_rotation_rejected = True
        notes.append("rotation excluding the victim invalidates the stolen share")

    expected = {"confirmation_accepted": True, "key_recovered": True}
    if rotate_excluding_victim:
        expected["post_rotation_rejected"] = True
    observed = {
        "confirmation_accepted": confirmation_accepted,
        "key_recovered": key_recovered,
        "post_rotation_rejected": post_rotation_rejected,
    }
    return Finding(
        name="node-compromise",
        script=AdversaryScript(
            capability="compromise",
            target=victim,
            actions=("obtain the victim's share", "run confirmation and key agreement"),
        ),
        expected=expected,
        observed=observed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Verifier flooding (Vulnerability 3)

def flood_congestion(m: int = 30, seed: int = 9) -> Finding:
    """All members transmit in the same window; the confirmation point clogs."""
    base = dict(
        scheme="proposed-decentralized",
        m=m,
        seed=seed,
        curve_ref="builtin:test2017",
    )
    with sim.event_log(False):
        staggered = sim.run(sim.Scenario(schedule="staggered", **base))
        flooded = sim.run(sim.Scenario(schedule="flood", **base))
    inflation = flooded.auth_time_s / staggered.auth_time_s
    expected = {"queue_grows": True, "auth_time_inflates": True}
    observed = {
        "queue_grows": flooded.max_verifier_queue > staggered.max_verifier_queue,
        "auth_time_inflates": inflation > 1.0,
        "staggered_auth_time_s": staggered.auth_time_s,
        "flood_auth_time_s": flooded.auth_time_s,
        "inflation": inflation,
        "staggered_max_queue": staggered.max_verifier_queue,
        "flood_max_queue": flooded.max_verifier_queue,
    }
    return Finding(
        name="flood",
        script=AdversaryScript(
            capability="inject",
            actions=("all members transmit in the same slot window",),
        ),
        expected=expected,
        observed=observed,
        notes=["no quantitative mitigation exists; metrics only"],
    )


# ---------------------------------------------------------------------------
# Eavesdropping: transcript secrecy scan

def build_honest_transcript(
    scheme: str = "proposed",
    m: int = 4,
    t: int = 3,
    seed: int = 17,
    leaky: bool = False,
) -> tuple[list[bytes], dict[str, bytes], dict[str, bytes]]:
    """Run an honest session and record every frame an eavesdropper sees.

    Returns (frames, secret_material, public_material); the proposed
    scheme's frames are those a recording tap sees on the session drivers.
    Runs on the 160-bit parameter sets so secret byte patterns are long
    enough to scan for without false positives.  `leaky` appends a
    deliberately broken broadcast of a raw private share (negative control
    for the scanner).
    """
    rng = random.Random(seed)
    frames: list[bytes] = []
    secrets: dict[str, bytes] = {}
    public: dict[str, bytes] = {}
    if scheme == "proposed":
        curve = builtin_curve("secp160r1")
        config, shares = gas_core.gm_init(t, m, curve, rng)
        tap = _recorder(frames)
        states, public_shares = gas_core.run_confirmation(config, shares, tap=tap)
        for ps in public_shares:
            public[f"point({ps.member_id})"] = ps.point.x.to_bytes()
        group_key = gas_core.exchange_group_key(states, rng, tap=tap)
        for share in shares:
            secrets[f"f(x) of {share.member_id}"] = share.y.to_bytes()
        secrets["group key"] = group_key.to_bytes()
        for state in states.values():
            for peer, key in state.pairwise_keys.items():
                secrets[f"pairwise {min(state.member_id, peer)}-{max(state.member_id, peer)}"] = key
    elif scheme == "harn":
        modulus = gas_harn.builtin_harn_modulus("harn-1024-160")
        params, tokens = gas_harn.harn_init(t, m, modulus, rng)
        roster_xs = [tok.x for tok in tokens]
        for tok in tokens:
            rel = gas_harn.harn_release(tok, roster_xs, params)
            frames.append(gas_harn.release_frame(rel))
            public[f"e({tok.member_id})"] = rel.e.to_bytes()
            secrets[f"f1(x) of {tok.member_id}"] = tok.y1.to_bytes()
            secrets[f"f2(x) of {tok.member_id}"] = tok.y2.to_bytes()
        secrets["harn secret"] = params.s.to_bytes()
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if leaky:
        first = roster_ids(m)[0]  # both schemes' first secret is U1's share
        frames.append(wire.encode_frame(wire.PUBLIC_SHARE, 1, first, next(iter(secrets.values()))))
    return frames, secrets, public


def eavesdrop_secrecy_check(
    transcript: list[bytes], secrets: dict[str, bytes]
) -> Finding:
    """Byte-scan the transcript for raw secret material.

    Known-plaintext search only: it cannot detect re-encodings, so a clean
    result is a structural smoke test, not a proof.
    """
    leaks: list[dict] = []
    skipped: list[str] = []
    for name, needle in secrets.items():
        if len(needle) < 4:
            skipped.append(name)
            continue
        for idx, frame in enumerate(transcript):
            offset = frame.find(needle)
            if offset != -1:
                leaks.append({"secret": name, "frame": idx, "offset": offset})
    observed = {
        "leaks": leaks,
        "leak_count": len(leaks),
        "frames_scanned": len(transcript),
        "bytes_scanned": sum(len(f) for f in transcript),
    }
    notes = []
    if skipped:
        notes.append(f"needles too short to scan reliably: {skipped}")
    return Finding(
        name="eavesdrop",
        script=AdversaryScript(
            capability="eavesdrop", actions=("record all frames", "scan for secrets")
        ),
        expected={"leak_count": 0},
        observed=observed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# CLI entry

def run_attack(name: str, **kwargs) -> list[Finding]:
    """Run one named scenario; options it does not take are ignored.

    Each option left out (seed included) keeps the scenario's own default.
    """
    def given(*keys: str) -> dict:
        return {k: kwargs[k] for k in keys if k in kwargs}

    rotate = kwargs.get("rotate", False)
    if name == "replay":
        return [replay_attack(rotate, **given("seed"))]
    if name == "dos-invalid-share":
        return [dos_invalid_share(**given("m", "t", "mode", "seed"))]
    if name == "node-compromise":
        return [node_compromise(rotate, **given("seed"))]
    if name == "eavesdrop":
        leaky = kwargs.get("leaky", False)
        frames, secrets, _ = build_honest_transcript(
            leaky=leaky, **given("scheme", "m", "t", "seed")
        )
        finding = eavesdrop_secrecy_check(frames, secrets)
        if leaky:
            finding.expected = {"leak_count": 1}
            finding.notes.append("negative control: one raw share deliberately leaked")
        return [finding]
    if name == "flood":
        return [flood_congestion(**given("m", "seed"))]
    raise ValueError(f"unknown attack {name!r}; valid names: {', '.join(ATTACK_NAMES)}")
