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
  the clear (a structural smoke test, not a proof), plus a brute-force
  discrete-log oracle whose cost grows with the subgroup order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from . import gas_core, gas_harn, sim, wire
from .ec import CurvePoint, add, builtin_curve, scalar_mul
from .field import FieldElement, Prime, lagrange_coeff
from .gas_core import (
    MemberState,
    PeerAuthenticationError,
    PublicShare,
    UnknownMemberError,
)
from .sss import issue_shares, sample_polynomial, verify_commitment

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
    "discrete_log_steps",
    "dlog_hardness_growth",
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
        base = self.capability.split("(", 1)[0]
        if base not in _CAPABILITIES:
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


def _setup_group(seed: int, t: int = 3, n: int = 5):
    rng = random.Random(seed)
    config, shares = gas_core.gm_init(t, n, builtin_curve("test2017"), rng)
    return rng, config, shares


# ---------------------------------------------------------------------------
# Replay

def replay_attack(rotate: bool, seed: int = 11, t: int = 3, n: int = 5) -> Finding:
    """Replay a recorded public-share frame in a later authentication round.

    Without rotation the stale frame still passes confirmation (the point is
    unchanged) but the attacker owns no f(x_i), so every key-agreement AEAD
    exchange fails.  After rotation even confirmation rejects the frame.
    """
    rng, config, shares = _setup_group(seed, t, n)
    victim = shares[1].member_id
    states, public_shares = gas_core.run_confirmation(config, shares)
    recorded_frame = gas_core.public_share_frame(
        gas_core.make_public_share(states[victim]), config.epoch
    )

    notes: list[str] = []
    if rotate:
        group_key = gas_core.exchange_group_key(states, rng)
        rotation = gas_core.rotate_credentials(config, group_key, rng)
        config, shares = rotation.config, rotation.shares
        notes.append(f"credentials rotated to epoch {config.epoch}")

    # target round: honest members present their (possibly fresh) shares,
    # the attacker injects the recorded frame in the victim's place
    honest_ids = [s.member_id for s in shares if s.member_id != victim]
    states2, _ = gas_core.run_confirmation(config, shares, honest_ids)
    _, replayed = gas_core.public_share_from_frame(recorded_frame, config)
    received = [gas_core.make_public_share(states2[mid]) for mid in honest_ids]
    received.append(replayed)
    verdicts = gas_core.gm_verify(config, shares, received)
    confirmation_accepted = all(verdicts.values())

    attacker_key_ok = False
    peers_flag_attacker = False
    if confirmation_accepted:
        for state in states2.values():
            state.receive_public_share(replayed)
        # honest peers address ciphertexts to the "victim"; the attacker
        # cannot decrypt them and answers with garbage of the right shape
        any_peer = states2[honest_ids[0]]
        gas_core.encrypt_share_for_peer(any_peer, victim, rng)
        garbage = wire.encode_encrypted_payload(
            rng.randbytes(wire.NONCE_LEN),
            rng.randbytes(config.scalar_field.byte_length + 16),
        )
        try:
            gas_core.key_agreement_round(any_peer, {victim: garbage})
        except PeerAuthenticationError as exc:
            peers_flag_attacker = exc.peer_id == victim
        # the attacker's only computable combination of the public points
        # (their sum) does not yield the pairwise key either
        joint = add(replayed.point, gas_core.make_public_share(any_peer).point, config.curve)
        fake_key = gas_core.pairwise_key(joint, victim, any_peer.member_id)
        real = gas_core.derive_pairwise_key(any_peer.share, replayed, config)
        attacker_key_ok = fake_key == real
        notes.append("attacker cannot authenticate any AEAD exchange")

    # an attacker-minted point (anything but the true image) never verifies
    true_point = gas_core.make_public_share(states2[honest_ids[0]]).point
    rogue_point = true_point
    while rogue_point == true_point:
        rogue_point = scalar_mul(rng.randrange(1, config.curve.subgroup_order),
                                 config.curve.generator, config.curve)
    rogue = PublicShare(member_id=honest_ids[0], point=rogue_point)
    rogue_accepted = gas_core.gm_verify(config, shares, [rogue])[honest_ids[0]]

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
    attacker: str = "U3",
    seed: int = 5,
) -> Finding:
    """One participant broadcasts a random point every round."""
    if mode not in ("centralized", "decentralized"):
        raise ValueError("mode must be centralized or decentralized")
    scheme = "proposed-centralized" if mode == "centralized" else "proposed-decentralized"
    scenario = sim.Scenario(
        scheme=scheme,
        m=m,
        t=t,
        seed=seed,
        curve_ref="builtin:test2017",
        adversary={"kind": "invalid-share", "member_id": attacker},
    )
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

def node_compromise(
    rotate_excluding_victim: bool = False, seed: int = 23, t: int = 3, n: int = 5
) -> Finding:
    """Attacker holding a member's share impersonates it end to end."""
    rng, config, shares = _setup_group(seed, t, n)
    victim = shares[1].member_id
    stolen = shares[1]

    # attacker runs the protocol as the victim alongside honest members
    states, public_shares = gas_core.run_confirmation(config, shares)
    attacker_state = MemberState(share=stolen, config=config)
    for ps in public_shares:
        attacker_state.receive_public_share(ps)
    verdicts = gas_core.gm_verify(
        config, shares, [gas_core.make_public_share(attacker_state)]
    )
    confirmation_accepted = verdicts[victim]

    inbox = {}
    for mid, state in states.items():
        if mid != victim:
            inbox[mid] = gas_core.encrypt_share_for_peer(state, victim, rng)
    recovered = gas_core.key_agreement_round(attacker_state, inbox)
    key_recovered = verify_commitment(recovered, config.commitment)

    post_rotation_rejected = None
    notes = ["compromise of the private share defeats the scheme (known limitation)"]
    if rotate_excluding_victim:
        reduced = tuple(entry for entry in config.roster if entry[0] != victim)
        rotation = gas_core.rotate_credentials(config, recovered, rng, roster=reduced)
        try:
            gas_core.gm_verify(
                rotation.config,
                rotation.shares,
                [gas_core.make_public_share(attacker_state)],
            )
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


def threshold_boundary_consistent(
    q_value: int = 37, t: int = 3, seed: int = 3
) -> bool:
    """Theorem-1 boundary: with t-1 shares every candidate secret has a
    consistent polynomial of degree <= t-1 (checked constructively)."""
    q = Prime(q_value)
    rng = random.Random(seed)
    poly = sample_polynomial(t, q.random_element(rng), rng)
    xs = [FieldElement(i + 1, q) for i in range(t - 1)]
    observed_shares = issue_shares(poly, xs)
    nodes = [FieldElement(0, q)] + xs
    for candidate in range(q_value):
        # interpolate through (0, candidate) and the observed shares; the
        # result is a degree <= t-1 polynomial hitting every observed point
        ys = [FieldElement(candidate, q)] + [s.y for s in observed_shares]
        value_at = lambda x: sum(
            (ys[i] * lagrange_coeff(i, nodes, x) for i in range(len(nodes))),
            FieldElement(0, q),
        )
        if any(value_at(s.x) != s.y for s in observed_shares):
            return False
        if value_at(FieldElement(0, q)).residue != candidate:
            return False
    return True


# ---------------------------------------------------------------------------
# Verifier flooding (Vulnerability 3)

def flood_congestion(m: int = 30, seed: int = 9) -> Finding:
    """All members transmit in the same window; the confirmation point clogs."""
    base = dict(
        scheme="proposed-decentralized",
        m=m,
        seed=seed,
        curve_ref="builtin:test2017",
        verifier_policy="fixed:U1",
    )
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
# Eavesdropping: transcript secrecy scan + discrete-log oracle

def build_honest_transcript(
    scheme: str = "proposed",
    m: int = 4,
    t: int = 3,
    seed: int = 17,
    leaky: bool = False,
) -> tuple[list[bytes], dict[str, bytes], dict[str, bytes]]:
    """Run an honest session and capture every frame an eavesdropper sees.

    Returns (frames, secret_material, public_material).  Runs on the
    160-bit parameter sets so secret byte patterns are long enough to scan
    for without false positives.  `leaky` appends a deliberately broken
    broadcast of a raw private share (negative control for the scanner).
    """
    rng = random.Random(seed)
    frames: list[bytes] = []
    secrets: dict[str, bytes] = {}
    public: dict[str, bytes] = {}
    if scheme == "proposed":
        curve = builtin_curve("secp160r1")
        config, shares = gas_core.gm_init(t, m, curve, rng)
        states, public_shares = gas_core.run_confirmation(config, shares)
        for ps in public_shares:
            frames.append(gas_core.public_share_frame(ps, config.epoch))
            public[f"point({ps.member_id})"] = ps.point.x.to_bytes()
        inboxes = gas_core.seal_shares(states, rng)
        for sender in states:
            for peer in states:
                if peer != sender:
                    frames.append(wire.encode_frame(
                        wire.ENCRYPTED_SHARE, config.epoch, sender, inboxes[peer][sender]
                    ))
        group_key = gas_core.open_shares(states, inboxes)
        for share in shares:
            secrets[f"f(x) of {share.member_id}"] = share.y.to_bytes()
        secrets["group key"] = group_key.to_bytes()
        for state in states.values():
            for peer, key in state.pairwise_keys.items():
                secrets[f"pairwise {min(state.member_id, peer)}-{max(state.member_id, peer)}"] = (
                    key.key_bytes
                )
        if leaky:
            worst = shares[0]
            frames.append(
                wire.encode_frame(
                    wire.PUBLIC_SHARE, config.epoch, worst.member_id, worst.y.to_bytes()
                )
            )
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


def discrete_log_steps(target: CurvePoint, curve) -> tuple[int, int]:
    """Brute-force k with k*P = target; returns (k, multiples tried)."""
    acc = CurvePoint.infinity()
    steps = 0
    k = 0
    while True:
        if acc == target:
            return k, steps
        acc = add(acc, curve.generator, curve)
        k += 1
        steps += 1
        if k > (curve.subgroup_order or curve.order or 10**6):
            raise ValueError("target not in the generator's subgroup")


def dlog_hardness_growth(seed: int = 31, samples: int = 8) -> dict:
    """Mean brute-force cost on two subgroup sizes; grows with the order."""
    rng = random.Random(seed)
    out = {}
    for name in ("toy5", "test2017"):
        curve = builtin_curve(name)
        order = curve.subgroup_order
        total = 0
        for _ in range(samples):
            k = rng.randrange(1, order)
            _, steps = discrete_log_steps(
                scalar_mul(k, curve.generator, curve), curve
            )
            total += steps
        out[name] = {"subgroup_order": order, "mean_steps": total / samples}
    return out


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
    raise ValueError(f"unknown attack {name!r}; valid names: {ATTACK_NAMES}")
