"""Simulator: determinism, conservation, calibration, schedule behavior."""

import json
from dataclasses import asdict

import pytest

from gaskit import sim
from gaskit.cost_model import csv_header
from gaskit.sim import Scenario, ScenarioError
from calibration import calibrate_compute_rate, calibrate_joules_per_tmulq


def tiny(scheme="proposed-centralized", **kw):
    kw.setdefault("m", 6)
    kw.setdefault("curve_ref", "builtin:test2017")
    kw.setdefault("harn_ref", "builtin:harn-tiny")
    return Scenario(scheme=scheme, **kw)


# --- scenario validation -----------------------------------------------------

def test_scenario_defaults():
    scn = Scenario(scheme="proposed-centralized", m=10)
    scn.validate()
    assert scn.resolved_threshold() == 5


def test_scenario_validation_lists_all_problems():
    scn = Scenario(scheme="rsa", m=0, loss=2.0)
    with pytest.raises(ScenarioError) as exc:
        scn.validate()
    msg = str(exc.value)
    assert "scheme" in msg and "m must" in msg and "loss" in msg


@pytest.mark.parametrize(("changes", "problem"), [
    ({"m": 4, "t": 5}, "t must satisfy 1 <= t <= m, got t=5 m=4"),
    ({"schedule": "x"}, "schedule must be one of ('slotted', 'staggered', 'flood')"),
])
def test_scenario_names_a_bad_threshold_or_schedule(changes, problem):
    scn = Scenario(scheme="proposed-centralized", **{"m": 10, **changes})
    with pytest.raises(ScenarioError) as exc:
        scn.validate()
    assert str(exc.value) == problem


def test_scenario_numbers_must_be_finite():
    for loss in (float("nan"), float("-inf")):
        with pytest.raises(ScenarioError) as exc:
            tiny("proposed-decentralized", loss=loss).validate()
        assert str(exc.value) == "loss must be finite"


def test_scenario_rejects_harn_flood_and_decentralized_gm():
    with pytest.raises(ScenarioError, match="slotted"):
        tiny("harn", schedule="flood").validate()


def test_scenario_dict_roundtrip(tmp_path):
    scn = tiny(seed=9, loss=0.1, adversary="U2")
    again = Scenario.from_dict(asdict(scn))
    assert again == scn
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(asdict(scn)))
    assert Scenario.from_json_file(path) == scn
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        Scenario.from_dict({"scheme": "harn", "m": 3, "warp": 9})
    with pytest.raises(ScenarioError, match="mac"):
        Scenario.from_dict({"scheme": "harn", "m": 3, "mac": "serialized-broadcast"})


# --- who verifies -----------------------------------------------------------------

def test_the_scheme_fixes_the_verifier():
    # the GM checks a centralized round, the first member a decentralized one
    decentral = sim.run(tiny("proposed-decentralized", m=4))
    assert decentral.verifier == "U1"
    assert [(n.member_id, n.role) for n in decentral.per_node] == [
        ("U1", "verifier"), ("U2", "member"), ("U3", "member"), ("U4", "member"),
    ]
    central = sim.run(tiny("proposed-centralized", m=4))
    assert central.verifier == "GM"
    assert [(n.member_id, n.role) for n in central.per_node] == [
        ("GM", "gm"), ("U1", "member"), ("U2", "member"), ("U3", "member"), ("U4", "member"),
    ]


# --- determinism and conservation ------------------------------------------------

@pytest.mark.parametrize("scheme", ["proposed-centralized", "proposed-decentralized", "harn"])
def test_byte_identical_reports(scheme):
    a = sim.run(tiny(scheme, seed=42))
    b = sim.run(tiny(scheme, seed=42))
    assert a.to_dict() == b.to_dict()
    c = sim.run(tiny(scheme, seed=43))
    assert c.to_dict() != a.to_dict()


@pytest.mark.parametrize("scheme", ["proposed-centralized", "proposed-decentralized", "harn"])
def test_byte_conservation_lossless(scheme):
    rep = sim.run(tiny(scheme))
    assert rep.authenticated
    assert rep.channel_bytes_delivered == rep.channel_bytes_transmitted


def test_loss_one_fails_no_progress():
    rep = sim.run(tiny(loss=1.0))
    assert rep.outcome == "failed"
    assert rep.failure_reason == "no-progress"
    assert rep.rounds_used == 4  # initial round + 3 retries
    assert rep.channel_bytes_delivered < rep.channel_bytes_transmitted


def test_moderate_loss_recovers_within_retries():
    recovered = False
    for seed in range(30):
        rep = sim.run(tiny(m=4, loss=0.2, seed=seed))
        if rep.authenticated and rep.rounds_used > 1:
            recovered = True
            break
    assert recovered, "no seed recovered after a lossy round"


def test_outcome_follows_protocol_verdict():
    # no check here names a culprit: the one sum, or Harn's one product, fails
    for scheme in ("proposed-decentralized", "harn"):
        ok = sim.run(tiny(scheme, m=5, t=3))
        assert ok.authenticated
        bad = sim.run(tiny(scheme, m=5, t=3, adversary="U2"))
        assert (bad.outcome, bad.failure_reason) == ("failed", "denial-of-authentication")
        assert bad.rounds_used == sim.MAX_RETRIES + 1 and bad.culprits == []


def test_centralized_isolates_culprit_and_recovers():
    rep = sim.run(tiny("proposed-centralized", m=6, t=3, adversary="U4"))
    assert rep.authenticated
    assert rep.culprits == ["U4"]
    assert rep.rounds_used == 2


def test_isolation_below_threshold_fails():
    rep = sim.run(tiny("proposed-centralized", m=3, t=3, adversary="U1"))
    assert not rep.authenticated
    assert rep.failure_reason == "below-threshold-after-isolation"


# --- cost/energy accounting --------------------------------------------------------

def test_member_compute_constant_in_m_for_proposed():
    counts = []
    for m in (4, 8, 12):
        rep = sim.run(tiny("proposed-decentralized", m=m, t=2))
        member = next(r for r in rep.per_node if r.role == "member")
        counts.append(member.tmulq_count)
        assert member.compute_j == pytest.approx(
            sim.JOULES_PER_TMULQ * member.tmulq_count
        )
    assert counts[0] == counts[1] == counts[2] == 1189


def test_harn_member_energy_monotone_in_m():
    totals = []
    for m in (4, 10, 20):
        rep = sim.run(
            Scenario(scheme="harn", m=m, seed=2, harn_ref="builtin:harn-1024-160")
        )
        totals.append(rep.representative_member().total_j)
    assert totals[0] < totals[1] < totals[2]


def test_per_node_report_consistency():
    rep = sim.run(tiny(m=5))
    for node in rep.per_node:
        assert node.total_j == pytest.approx(node.compute_j + node.radio_j)
        assert node.tmulq_count >= 0
    (gm,) = [node for node in rep.per_node if node.member_id == "GM"]
    assert gm.role == "gm"
    # GM verifies every share: m TEM events worth of work
    assert gm.tmulq_count == 5 * 1189


def test_events_are_consistent_with_counts():
    rep = sim.run(tiny(m=4))
    for node in rep.per_node:
        from_events = sum(
            e["tmulq"] for e in rep.events
            if e["kind"].endswith("compute") or e["kind"] in ("verify-step", "accumulate")
            if e["node"] == node.member_id
        )
        assert from_events == node.tmulq_count


# --- calibration and the published datapoints ---------------------------------------

def test_default_rate_reproduces_calibration():
    rate = calibrate_compute_rate(1.3, 10)
    assert rate == pytest.approx(sim.COMPUTE_RATE, rel=1e-9)
    rep = sim.run(Scenario(scheme="proposed-centralized", m=10))
    assert rep.auth_time_s == pytest.approx(1.3, rel=1e-9)


def test_default_jpt_reproduces_calibration():
    jpt = calibrate_joules_per_tmulq(0.014, 10)
    assert jpt == pytest.approx(sim.JOULES_PER_TMULQ, rel=1e-12)
    rep = sim.run(Scenario(scheme="proposed-centralized", m=10))
    assert rep.representative_member().total_j == pytest.approx(0.014, rel=1e-9)


def test_time_predictions_against_published_table():
    p50 = sim.run(Scenario(scheme="proposed-centralized", m=50))
    assert 6.9 * 0.75 <= p50.auth_time_s <= 6.9 * 1.25
    h10 = sim.run(Scenario(scheme="harn", m=10))
    h50 = sim.run(Scenario(scheme="harn", m=50))
    ratio = h50.auth_time_s / h10.auth_time_s
    assert 5.0 * 0.8 <= ratio <= 5.0 * 1.2


# --- sweep and presets -----------------------------------------------------------------

def test_sweep_rows():
    rows, reports = sim.sweep(
        ["proposed-centralized"], [4, 6], tiny(seed=5)
    )
    assert len(rows) == 2 and len(reports) == 2
    assert rows[0].startswith("proposed-centralized,4,")
    empty_rows, empty_reports = sim.sweep(["harn"], [], tiny())
    assert empty_rows == [] and empty_reports == []
    dup_rows, _ = sim.sweep(["proposed-centralized"], [4, 4], tiny(seed=5))
    assert dup_rows[0] == dup_rows[1]


def test_sweep_interleaves_modeled_chien_rows():
    base = tiny(seed=5)
    rows, reports = sim.sweep(["harn", "chien", "proposed-centralized"], [3, 5], base)
    assert [row.split(",")[:2] for row in rows] == [
        ["harn", "3"], ["harn", "5"], ["chien", "3"], ["chien", "5"],
        ["proposed-centralized", "3"], ["proposed-centralized", "5"],
    ]
    assert rows[2:4] == [sim.chien_model_row(m, base.curve_ref) for m in (3, 5)]
    # reports are for the simulator runs only, in row order
    assert [(rep.scheme, rep.m) for rep in reports] == [
        ("harn", 3), ("harn", 5), ("proposed-centralized", 3), ("proposed-centralized", 5),
    ]
    assert [rep.csv_row() for rep in reports] == rows[:2] + rows[4:]


def test_sweep_refuses_unknown_schemes_before_any_run(monkeypatch):
    def no_run(scenario):
        raise AssertionError("ran a scenario")

    monkeypatch.setattr(sim, "run", no_run)
    with pytest.raises(ScenarioError, match=r"unknown schemes \['rsa'\]"):
        sim.sweep(["harn", "rsa", "chien"], [3], tiny())


def test_preset_fig3_shape():
    rows, reports = sim.preset("paper-fig3")
    assert len(rows) == 3
    schemes = [row.split(",")[0] for row in rows]
    assert schemes == ["harn", "chien", "proposed-centralized"]
    assert all(row.split(",")[1] == "10" for row in rows)
    assert all(len(row.split(",")) == len(csv_header().split(",")) for row in rows)
    with pytest.raises(ValueError, match="unknown preset"):
        sim.preset("paper-fig9")


def test_chien_model_row_values():
    row = sim.chien_model_row(50, "builtin:secp160r1")
    parts = row.split(",")
    assert parts[0] == "chien" and parts[1] == "50"
    assert int(parts[2]) == 7 * 50 + 6785


# --- flood vs staggered -------------------------------------------------------------------

def test_flood_inflates_queue_and_time():
    base = dict(m=20, seed=3, curve_ref="builtin:test2017")
    stag = sim.run(Scenario(scheme="proposed-decentralized", schedule="staggered", **base))
    flood = sim.run(Scenario(scheme="proposed-decentralized", schedule="flood", **base))
    assert flood.max_verifier_queue > stag.max_verifier_queue
    assert flood.auth_time_s > stag.auth_time_s
    assert stag.authenticated and flood.authenticated


@pytest.mark.parametrize("scheme", sim.SCHEME_CHOICES)
def test_event_log_off_leaves_every_other_field(scheme):
    scn = tiny(scheme, loss=0.3, seed=4)  # frames lost and rounds retried
    recorded = sim.run(scn)
    with sim.event_log(False):
        bare = sim.run(scn)
        with sim.event_log(True):
            assert sim.run(scn) == recorded
        assert sim.run(scn) == bare
    assert sim.run(scn) == recorded  # the default records
    assert recorded.events and bare.events == []
    assert {**recorded.to_dict(), "events": []} == bare.to_dict()


@pytest.mark.parametrize("scheme", sim.SCHEME_CHOICES)
def test_event_log_off_does_no_log_work(scheme, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("logged with the event log off")

    monkeypatch.setattr(sim._Run, "log", refuse)
    with sim.event_log(False):  # lost frames and retried rounds too
        assert sim.run(tiny(scheme, loss=0.3, seed=4)).events == []


def test_calibrations_build_no_event_log(monkeypatch):
    reports, run = [], sim.run
    monkeypatch.setattr(sim, "run", lambda scn: reports.append(run(scn)) or reports[-1])
    calibrate_joules_per_tmulq()
    calibrate_compute_rate()
    assert len(reports) == 4 and all(rep.events == [] for rep in reports)


def test_sweep_passes_the_recording_choice_to_its_workers(monkeypatch):
    """Workers get the choice as an argument; a spawned one inherits no context."""
    import concurrent.futures
    import contextvars

    class FreshContextPool:  # each run starts from an empty context, as in spawn
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return [contextvars.Context().run(fn, item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FreshContextPool)
    base = tiny(seed=5)
    for record in (False, True):
        with sim.event_log(record):
            rows_par, reports_par = sim.sweep(["proposed-centralized", "harn"], [3, 5], base,
                                              jobs=2)
            rows_seq, reports_seq = sim.sweep(["proposed-centralized", "harn"], [3, 5], base)
        assert rows_par == rows_seq and reports_par == reports_seq
        assert all(bool(rep.events) == record for rep in reports_par)


def test_scenario_refuses_a_group_above_the_bound(monkeypatch):
    def roster(m):
        raise AssertionError(f"built a roster of {m}")

    monkeypatch.setattr(sim, "roster_ids", roster)
    scn = tiny("harn", m=10**9, adversary="U1")
    with pytest.raises(ScenarioError, match=f"m must be <= {sim.MAX_GROUP_SIZE}, got 10+$"):
        scn.validate()
    monkeypatch.undo()
    tiny("harn", m=sim.MAX_GROUP_SIZE, adversary="U1").validate()


def test_sweep_parallel_matches_sequential():
    base = tiny(seed=5)
    rows_seq, _ = sim.sweep(["proposed-centralized", "harn"], [3, 5], base, jobs=1)
    rows_par, _ = sim.sweep(["proposed-centralized", "harn"], [3, 5], base, jobs=2)
    assert rows_par == rows_seq


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each process pool `sweep` opens; runs map in-process."""
    import concurrent.futures

    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, items):
            return list(map(fn, items))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_sweep_starts_at_most_one_worker_per_run(pool_sizes):
    base = tiny(seed=5)
    schemes = ["proposed-centralized", "chien", "harn"]
    rows_seq, reports_seq = sim.sweep(schemes, [3, 5], base, jobs=1)
    assert pool_sizes == []
    # four simulator runs: chien's rows come from the cost model
    rows_par, reports_par = sim.sweep(schemes, [3, 5], base, jobs=5000)
    assert pool_sizes == [4]
    assert rows_par == rows_seq and reports_par == reports_seq
    sim.sweep(["harn"], [3, 4, 5], base, jobs=2)
    assert pool_sizes == [4, 2]


@pytest.mark.parametrize("jobs", [0, -1])
def test_sweep_refuses_jobs_below_one(pool_sizes, jobs):
    with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
        sim.sweep(["proposed-centralized"], [3, 5], tiny(), jobs=jobs)
    assert pool_sizes == []


def test_single_member_group():
    rep = sim.run(tiny("proposed-decentralized", m=1, t=1))
    assert rep.authenticated
    assert rep.verifier == "U1"
    # no member besides the verifier: the CSV row reports the first node
    assert rep.representative_member() is rep.per_node[0]
    assert rep.per_node[0].role == "verifier"


def test_derive_seed_stable():
    assert sim.derive_seed(1, "harn", 10) == sim.derive_seed(1, "harn", 10)
    assert sim.derive_seed(1, "harn", 10) != sim.derive_seed(1, "harn", 50)
    assert sim.derive_seed(1, "harn", 10) != sim.derive_seed(2, "harn", 10)
