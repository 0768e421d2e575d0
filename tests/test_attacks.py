"""Adversary scenarios: every expected verdict from the threat model."""

import pytest

from gaskit import sim
from gaskit.attacks import (
    build_honest_transcript,
    dos_invalid_share,
    eavesdrop_secrecy_check,
    flood_congestion,
    node_compromise,
    replay_attack,
    run_attack,
)


def test_replay_without_rotation():
    finding = replay_attack(rotate=False)
    assert finding.matched
    assert finding.observed["confirmation_accepted"] is True
    assert finding.observed["attacker_completes_key_agreement"] is False
    assert finding.observed["peers_flag_attacker"] is True
    assert finding.observed["rogue_point_accepted"] is False


def test_replay_with_rotation():
    finding = replay_attack(rotate=True)
    assert finding.matched
    assert finding.observed["confirmation_accepted"] is False


def test_dos_decentralized_denies():
    finding = dos_invalid_share(mode="decentralized")
    assert finding.matched
    assert finding.observed["failure_reason"] == "denial-of-authentication"
    assert finding.observed["rounds_used"] == 4


def test_dos_centralized_isolates():
    finding = dos_invalid_share(mode="centralized")
    assert finding.matched
    assert finding.observed["culprits"] == ["U3"]
    assert finding.observed["authenticated"] is True


@pytest.mark.parametrize(("m", "t", "authenticated"), [(3, 3, False), (4, 4, False), (4, 3, True)])
def test_dos_centralized_expects_threshold_after_isolation(m, t, authenticated):
    """Isolating U3 leaves m - 1 members, who authenticate only if m - 1 >= t."""
    finding = dos_invalid_share(m=m, t=t, mode="centralized")
    assert finding.matched
    assert finding.observed["culprits"] == ["U3"]
    assert finding.observed["authenticated"] is authenticated
    expected_reason = None if authenticated else "below-threshold-after-isolation"
    assert finding.observed["failure_reason"] == expected_reason


def test_dos_zero_attackers_baseline():
    from gaskit import sim

    rep = sim.run(sim.Scenario(scheme="proposed-decentralized", m=6, t=3,
                               curve_ref="builtin:test2017", seed=5))
    assert rep.authenticated


def test_node_compromise_succeeds():
    finding = node_compromise()
    assert finding.matched
    assert finding.observed["confirmation_accepted"] is True
    assert finding.observed["key_recovered"] is True


def test_node_compromise_defeated_by_exclusion_rotation():
    finding = node_compromise(rotate=True)
    assert finding.matched
    assert finding.observed["post_rotation_rejected"] is True


def test_eavesdrop_clean_run_has_no_leaks():
    frames, secrets, _ = build_honest_transcript("proposed", m=4, t=3)
    finding = eavesdrop_secrecy_check(frames, secrets)
    assert finding.matched
    assert finding.observed["leak_count"] == 0
    assert finding.observed["frames_scanned"] > 4
    # secrets are 160-bit-scale needles, long enough to scan for
    assert all(len(v) >= 20 for v in secrets.values() if b"" != v)


def test_eavesdrop_negative_control_detects_leak():
    frames, secrets, _ = build_honest_transcript("proposed", m=4, t=3, leaky=True)
    finding = eavesdrop_secrecy_check(frames, secrets)
    assert finding.observed["leak_count"] == 1
    leak = finding.observed["leaks"][0]
    assert leak["secret"].startswith("f(x)")


def test_harn_negative_control_detects_leak():
    finding = run_attack("eavesdrop", scheme="harn", leaky=True)[0]
    assert finding.matched
    assert finding.observed["frames_scanned"] == 5
    assert [leak["secret"] for leak in finding.observed["leaks"]] == ["f1(x) of U1"]


def test_harn_transcript_exposes_e_but_not_c():
    frames, secrets, public = build_honest_transcript("harn", m=4, t=2)
    finding = eavesdrop_secrecy_check(frames, secrets)
    assert finding.observed["leak_count"] == 0
    blob = b"".join(frames)
    assert all(e_bytes in blob for e_bytes in public.values())


def test_flood_congestion_metrics():
    finding = flood_congestion(m=30)
    assert finding.matched
    obs = finding.observed
    assert obs["flood_max_queue"] > obs["staggered_max_queue"]
    assert obs["inflation"] > 1.1
    assert obs["flood_auth_time_s"] > obs["staggered_auth_time_s"]


def test_simulated_attacks_build_no_event_log(monkeypatch):
    reports, run = [], sim.run
    monkeypatch.setattr(sim, "run", lambda scn: reports.append(run(scn)) or reports[-1])
    assert flood_congestion(m=6).matched
    assert dos_invalid_share(mode="centralized").matched
    assert dos_invalid_share(mode="decentralized").matched
    assert len(reports) == 4 and all(rep.events == [] for rep in reports)


def test_run_attack_dispatch():
    assert run_attack("replay")[0].name == "replay"
    assert run_attack("flood", m=10)[0].name == "flood"
    leaky = run_attack("eavesdrop", leaky=True)[0]
    assert leaky.expected == {"leak_count": 1} and leaky.matched
    with pytest.raises(ValueError, match="unknown attack"):
        run_attack("bogus", m=3)
    # an option the scenario does not take is named, not ignored
    with pytest.raises(ValueError, match="attack replay does not take --m, --leaky$"):
        run_attack("replay", m=3, leaky=True)
    with pytest.raises(ValueError, match="attack flood does not take --scheme$"):
        run_attack("flood", scheme="harn")


def test_finding_serialization():
    finding = replay_attack(rotate=True)
    data = finding.to_dict()
    assert data["name"] == "replay"
    assert data["matched"] is True
    assert data["capability"] == "replay"
    assert isinstance(data["actions"], list)


def test_attack_parameters_outside_the_choices_are_refused():
    with pytest.raises(ValueError, match="^mode must be centralized or decentralized$"):
        dos_invalid_share(mode="x")
    with pytest.raises(ValueError, match="^unknown scheme 'x'$"):
        build_honest_transcript(scheme="x")


def test_eavesdrop_skips_needles_too_short_to_scan():
    finding = eavesdrop_secrecy_check([b"\x00ab\x00abcd"], {"short": b"ab", "long": b"abcd"})
    assert finding.observed["leaks"] == [{"secret": "long", "frame": 0, "offset": 4}]
    assert finding.notes == ["needles too short to scan reliably: ['short']"]
