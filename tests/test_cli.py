"""CLI: transcript shapes, CSV goldens, exit codes, seeding."""

import argparse
import inspect
import json
import tracemalloc

import pytest

from gaskit import attacks, cli, cost_model, ec, field, gas_core, gas_harn, sim
from gaskit.cli import main

CSV_HEADER = "scheme,m,tmulq,compute_J,radio_J,total_J,auth_time_s"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- demo -----------------------------------------------------------------

def test_demo_proposed_transcript(capsys):
    code, out, err = run_cli(
        capsys, "demo", "--scheme", "proposed", "--t", "3", "--n", "5",
        "--m", "4", "--seed", "1",
    )
    assert code == 0
    assert "Authentication is complete." in out
    assert "Group Key is recovered." in out
    assert "== Initialization Phase ==" in out
    assert "== Confirmation Phase ==" in out
    assert out.count("broadcasts f(x)P") == 4


def test_demo_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "demo", "--seed", "5")
    _, out2, _ = run_cli(capsys, "demo", "--seed", "5")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "demo", "--seed", "6")
    assert out1 != out3


def test_demo_threshold_error(capsys):
    code, out, err = run_cli(capsys, "demo", "--m", "2", "--t", "3", "--n", "5")
    assert code == 2
    assert "t <= m <= n" in err
    assert out == ""


def test_demo_harn(capsys):
    code, out, _ = run_cli(capsys, "demo", "--scheme", "harn", "--t", "2", "--n", "4")
    assert code == 0
    assert "Authentication is complete." in out
    assert "prod(e_i) == g^s -> ok" in out


def test_demo_exits_1_when_the_gm_refuses_a_share(capsys, monkeypatch):
    monkeypatch.setattr(gas_core, "gm_verify", lambda config, shares, received: {
        ps.member_id: ps.member_id != "U2" for ps in received})
    code, out, err = run_cli(capsys, "demo")
    assert (code, err) == (1, "")
    assert "U2:FAIL" in out and out.endswith("Authentication failed.\n")


def test_demo_harn_exits_1_when_the_product_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(gas_harn, "harn_verify", lambda releases, params: False)
    code, out, err = run_cli(capsys, "demo", "--scheme", "harn")
    assert (code, err) == (1, "")
    assert out.endswith("prod(e_i) == g^s -> FAIL\nAuthentication failed.\n")


def test_demo_exits_1_naming_a_peer_that_fails_key_agreement(capsys, monkeypatch):
    def exchange(states, rng):
        raise gas_core.PeerAuthenticationError("U2")

    monkeypatch.setattr(gas_core, "exchange_group_key", exchange)
    code, out, err = run_cli(capsys, "demo")
    assert (code, err) == (1, "gaskit: authentication failed for peer U2\n")
    assert "Authentication is complete." in out and "Group Key is recovered." not in out


def test_demo_unknown_curve(capsys):
    code, _, err = run_cli(capsys, "demo", "--curve", "builtin:nope")
    assert code == 2 and "unknown builtin curve" in err


def test_demo_refuses_a_composite_subgroup_order(capsys, tmp_path):
    # it used to load and fail at first use as "modulus 2035 is not prime"
    data = dict(ec.curve_to_dict(ec.builtin_curve("test2017")), subgroup_order="2035")
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "demo", "--curve", str(path))
    assert (code, out) == (2, "")
    assert err == "gaskit: subgroup_order 2035 is not a prime >= 3\n"


def test_demo_refuses_an_order_outside_the_hasse_interval(capsys, tmp_path):
    # cofactor 1, a lie: it used to switch off the subgroup test, so the
    # order-5 point (1981, 1664) passed and the demo exited 0
    data = dict(ec.curve_to_dict(ec.builtin_curve("test2017")), order="37")
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "demo", "--curve", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("gaskit: order 37 is outside the Hasse interval")


def test_demo_refuses_an_order_other_than_the_point_count(capsys, tmp_path):
    # a multiple of n = 37 inside the Hasse interval: it used to load, and
    # the demo exited 0
    data = dict(ec.curve_to_dict(ec.builtin_curve("test2017")), order="1961")
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "demo", "--curve", str(path))
    assert (code, out, err) == (2, "", "gaskit: order 1961 is not the point count 2035\n")


def test_demo_refuses_a_curve_file_above_the_bit_cap(capsys, tmp_path, monkeypatch):
    # 64 Miller-Rabin rounds on this Mersenne prime ran for minutes
    def refuse(n):
        raise AssertionError("primality test before the bit cap")

    monkeypatch.setattr(field, "is_probable_prime", refuse)
    data = dict(ec.curve_to_dict(ec.builtin_curve("test2017")), p=str(2**9689 - 1))
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "demo", "--curve", str(path))
    assert (code, out, err) == (2, "", "gaskit: p has 9689 bits, above 521\n")


@pytest.mark.parametrize("modulus", [1000003, 2**1279 - 1, 2**4423 - 1],
                         ids=["1000003", "M1279", "M4423"])
def test_gen_params_refuses_a_modulus_above_enumeration_before_any_primality_test(
        capsys, monkeypatch, modulus):
    # the point count enumerates the field; a Mersenne prime's primality
    # test used to run first, 2.4 s at 2^2203 - 1, before the same exit 2
    def refuse(n):
        raise AssertionError("primality test before the enumeration limit")

    monkeypatch.setattr(field, "is_probable_prime", refuse)
    code, out, err = run_cli(capsys, "gen-params", "--kind", "curve", "--modulus", str(modulus))
    assert (code, out, err) == (2, "", f"gaskit: modulus {modulus} too large to enumerate\n")


# --- cost -----------------------------------------------------------------

def test_cost_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "cost", "--m-range", "10:50:40")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    proposed = [l for l in lines if l.startswith("proposed,")]
    assert len(proposed) == 2
    assert all(l.split(",")[2] == "1189" for l in proposed)
    assert any(l.startswith("harn,10,1868,") for l in lines)
    assert any(l.startswith("chien,10,6855,") for l in lines)


def test_cost_table_slope(capsys):
    code, out, _ = run_cli(capsys, "cost", "--m-range", "10:10:1",
                           "--harn-slope", "table")
    assert code == 0
    assert any(l.startswith("harn,10,1558,") for l in out.splitlines())


@pytest.mark.parametrize(("argv", "problem"), [
    pytest.param(("cost", "--m-range", "50:10:10"), "--m-range 50:10:10 holds no value",
                 id="cost-m-range"),
    pytest.param(("sweep", "--m-list", ""), "--m-list holds no value", id="sweep-m-list"),
    pytest.param(("sweep", "--schemes", ""), "--schemes names no scheme", id="sweep-schemes"),
])
def test_empty_grid_exits_2(capsys, argv, problem):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"gaskit: {problem}\n"


def test_cost_malformed_range(capsys):
    code, out, err = run_cli(capsys, "cost", "--m-range", "banana")
    assert code == 2
    assert "a:b:step" in err


# --- simulate ---------------------------------------------------------------

def test_simulate_preset_fig3(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--scenario", "builtin:paper-fig3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert [l.split(",")[0] for l in lines[1:]] == ["harn", "chien", "proposed-centralized"]


def test_simulate_inline_flags(capsys, tmp_path):
    events = tmp_path / "events.json"
    code, out, _ = run_cli(
        capsys, "simulate", "--scheme", "proposed-decentralized", "--m", "5",
        "--t", "2", "--curve", "builtin:test2017", "--events", str(events),
    )
    assert code == 0
    assert out.startswith(CSV_HEADER)
    log = json.loads(events.read_text())
    assert len(log) == 1 and log[0]["outcome"] == "authenticated"
    assert log[0]["events"], "event log must be populated"


def test_simulate_builds_no_event_log_without_events(capsys):
    # recording, this run builds m^2 + 2m + 2 = 90,602 event dicts, a peak of about 21 MB
    tracemalloc.start()
    try:
        code = main(["simulate", "--scheme", "harn", "--m", "300", "--t", "10"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out.startswith(CSV_HEADER)
    assert peak < 4 * 2**20


@pytest.mark.parametrize(("scheme", "events_per_run"), [
    ("harn", lambda m: m * m + 2 * m + 2),
    ("proposed-centralized", lambda m: 3 * m + 3),
    ("proposed-decentralized", lambda m: 3 * m + 3),
])
def test_simulate_csv_is_the_same_with_and_without_events(capsys, tmp_path, scheme,
                                                         events_per_run):
    argv = ["simulate", "--scheme", scheme, "--m", "7", "--t", "3",
            "--curve", "builtin:test2017", "--harn", "builtin:harn-tiny"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    events = tmp_path / "events.json"
    code, logged, _ = run_cli(capsys, *argv, "--events", str(events))
    assert code == 0 and logged == plain
    (report,) = json.loads(events.read_text())
    assert len(report["events"]) == events_per_run(7)


def test_simulate_missing_file(capsys):
    code, out, err = run_cli(capsys, "simulate", "--scenario", "/nope/missing.json")
    assert code == 2
    assert out == ""
    assert "not found" in err


def test_simulate_scenario_file(capsys, tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({
        "scheme": "proposed-centralized", "m": 4, "t": 2,
        "curve_ref": "builtin:test2017", "seed": 3,
    }))
    code, out, _ = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 0
    assert out.strip().splitlines()[1].startswith("proposed-centralized,4,")


def test_simulate_validation_errors_listed(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scheme": "rsa", "m": 0, "loss": 9}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert "scheme" in err and "loss" in err and "m must" in err


@pytest.mark.parametrize(("fields", "problem"), [
    ({"m": "10"}, "m must be int, got '10'"),
    ({"adversary": {"member_id": "U3"}}, "adversary must be str | None, got {'member_id': 'U3'}"),
    ({"adversary": 3}, "adversary must be str | None, got 3"),
    ({"m": 4.0, "loss": True}, "m must be int, got 4.0; loss must be float, got True"),
])
def test_simulate_mistyped_scenario_fields_exit_2(capsys, tmp_path, fields, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scheme": "proposed-centralized", "m": 4,
                                "curve_ref": "builtin:test2017", **fields}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert problem in err


@pytest.mark.parametrize(("text", "problem"), [
    ('["harn", 4]', "must be a JSON object"),
    ('{"scheme": "harn"}', "missing scenario fields: ['m']"),
])
def test_simulate_malformed_scenario_file_exit_2(capsys, tmp_path, text, problem):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert problem in err


@pytest.mark.parametrize(("number", "problem"), [
    ('"loss": NaN', "loss must be finite"),
    ('"loss": -Infinity', "loss must be finite"),
])
def test_simulate_non_finite_scenario_numbers_exit_2(capsys, tmp_path, number, problem):
    # json reads NaN and Infinity; each is refused as not finite, not as outside [0, 1]
    path = tmp_path / "bad.json"
    path.write_text('{"scheme": "proposed-centralized", "m": 4, '
                    f'"curve_ref": "builtin:test2017", {number}}}')
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err == f"gaskit: {problem}\n"


@pytest.mark.parametrize("name", ["bitrate", "gm_speedup", "radio_tmulq_per_byte",
                                  "tx_j_per_byte", "rx_j_per_byte", "max_retries",
                                  "backoff_slot_s", "verifier_policy", "battery",
                                  "compute_rate", "joules_per_tmulq"])
def test_simulate_refuses_fixed_model_constants_as_fields(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scheme": "proposed-centralized", "m": 4,
                                "curve_ref": "builtin:test2017", name: 1}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert f"unknown scenario fields: ['{name}']" in err


@pytest.mark.parametrize("scheme", ["proposed-centralized", "harn"])
def test_simulate_refuses_an_adversary_outside_the_group(capsys, tmp_path, scheme):
    # U99 is dealt no share at m = 4; the run would be an honest one
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "scheme": scheme, "m": 4, "curve_ref": "builtin:test2017", "harn_ref": "builtin:harn-tiny",
        "adversary": "U99",
    }))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert err == "gaskit: adversary must be one of U1..U4, got 'U99'\n"


def test_simulate_flags_are_scenario_fields():
    # every default lives in `sim.Scenario`: no simulate flag declares one,
    # every flag but --scenario and --events names a field, and every field
    # but the adversary, which only a scenario file sets, has a flag
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subparsers.choices["simulate"]._actions if a.option_strings]
    assert all(a.default is argparse.SUPPRESS for a in actions)
    flags = {a.dest for a in actions} - {"help", "scenario", "events"}
    assert flags == set(sim.Scenario.__dataclass_fields__) - {"adversary"}


def test_simulate_requires_scheme_or_scenario(capsys):
    code, _, err = run_cli(capsys, "simulate")
    assert code == 2
    assert "--scenario" in err


# --- sweep -------------------------------------------------------------------

def test_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--schemes", "chien,proposed-centralized",
        "--m-list", "4,6", "--seed", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("chien,4,")
    assert lines[3].startswith("proposed-centralized,4,")


def test_sweep_unknown_scheme(capsys):
    code, _, err = run_cli(capsys, "sweep", "--schemes", "quantum", "--m-list", "4")
    assert code == 2
    assert "unknown schemes" in err


def test_sweep_invalid_run_prints_no_rows(capsys):
    # the whole grid runs before the first row is printed
    code, out, err = run_cli(capsys, "sweep", "--schemes", "chien,harn", "--m-list", "4,0")
    assert code == 2
    assert out == ""
    assert "m must be >= 1" in err


def test_sweep_events_do_not_depend_on_jobs(capsys, tmp_path):
    argv = ["sweep", "--schemes", "harn,proposed-centralized", "--m-list", "10,20"]
    outputs = []
    for jobs in ("2", "1"):
        path = tmp_path / f"jobs{jobs}.json"
        code, out, _ = run_cli(capsys, *argv, "--jobs", jobs, "--events", str(path))
        assert code == 0
        outputs.append((out, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert all(rep["events"] for rep in json.loads(outputs[0][1]))


# --- work bounds ------------------------------------------------------------------

def _unreachable(*args, **kwargs):
    raise AssertionError("the work ran; the bound must refuse it at validation")


@pytest.mark.parametrize(("argv", "owner", "work", "problem"), [
    pytest.param(("demo", "--t", "2", "--m", "3", "--n", "30000000"), gas_core, "gm_init",
                 "n must be <= 1000, got 30000000", id="demo-n"),
    pytest.param(("sweep", "--m-list", "100000"), sim, "run",
                 "m must be <= 1000, got 100000", id="sweep-m"),
    pytest.param(("sweep", "--schemes", "proposed-centralized,harn", "--m-list", "10,1001"),
                 sim, "run", "m must be <= 1000, got 1001", id="sweep-m-after-a-valid-one"),
    pytest.param(("sweep", "--m-list", ",".join(["10"] * 101)), sim, "run",
                 "--m-list holds at most 100 values, got 101", id="sweep-m-list-length"),
    pytest.param(("sweep", "--schemes", "chien", "--m-list", "100000"), sim, "roster_ids",
                 "m must be <= 1000, got 100000", id="sweep-chien-m"),
    pytest.param(("cost", "--m-range", "1:200:1"), cost_model, "per_user_cost",
                 "--m-range holds at most 100 values, got 200", id="cost-m-range-length"),
    pytest.param(("gen-params", "--kind", "harn", "--p-bits", "4096"), cli, "_gen_prime",
                 "--p-bits must be at most 2048, got 4096", id="gen-params-p-bits"),
    pytest.param(("simulate", "--scheme", "harn", "--m", "1001"), sim, "_run_harn",
                 "m must be <= 1000, got 1001", id="simulate-harn-m"),
    pytest.param(("simulate", "--scheme", "proposed-centralized", "--m", "100000"), sim,
                 "_run_proposed", "m must be <= 1000, got 100000", id="simulate-proposed-m"),
    # a real session: refused before the dealing
    pytest.param(("attack", "--name", "eavesdrop", "--m", "100000", "--t", "3"), gas_core,
                 "gm_init", "m must be <= 1000, got 100000", id="attack-eavesdrop-m"),
    pytest.param(("attack", "--name", "eavesdrop", "--scheme", "harn", "--m", "100000",
                  "--t", "3"), gas_harn, "harn_init", "m must be <= 1000, got 100000",
                 id="attack-eavesdrop-harn-m"),
])
def test_work_above_the_bounds_exits_2_before_any_work(capsys, monkeypatch, argv, owner,
                                                      work, problem):
    monkeypatch.setattr(owner, work, _unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"gaskit: {problem}\n"


# --- attack ---------------------------------------------------------------------

def test_attack_replay_rotate(capsys):
    code, out, _ = run_cli(capsys, "attack", "--name", "replay", "--rotate")
    assert code == 0
    findings = json.loads(out)
    assert findings[0]["observed"]["confirmation_accepted"] is False
    assert findings[0]["matched"] is True


def test_attack_dos_centralized(capsys):
    code, out, _ = run_cli(capsys, "attack", "--name", "dos-invalid-share",
                           "--mode", "centralized")
    assert code == 0
    findings = json.loads(out)
    assert findings[0]["observed"]["culprits"] == ["U3"]


def test_attack_unknown_name(capsys):
    code, out, err = run_cli(capsys, "attack", "--name", "bogus")
    assert code == 2
    assert "replay" in err and "eavesdrop" in err  # lists valid names


@pytest.mark.parametrize("argv", [
    ("replay", "--m", "3"), ("replay", "--t", "2"), ("replay", "--mode", "centralized"),
    ("node-compromise", "--m", "3"), ("node-compromise", "--t", "2"),
    ("node-compromise", "--mode", "decentralized"),
    ("flood", "--t", "2"), ("flood", "--mode", "centralized"),
    ("dos-invalid-share", "--rotate"), ("eavesdrop", "--rotate"), ("flood", "--rotate"),
    ("replay", "--leaky"), ("node-compromise", "--leaky"), ("dos-invalid-share", "--leaky"),
    ("flood", "--leaky"),
    ("replay", "--scheme", "harn"), ("node-compromise", "--scheme", "harn"),
    ("dos-invalid-share", "--scheme", "proposed"), ("flood", "--scheme", "harn"),
])
def test_attack_refuses_an_option_its_scenario_does_not_take(capsys, argv):
    # each used to run the scenario's defaults and exit 0; --scheme was
    # refused by the parser for every scenario, eavesdrop included
    name, option = argv[0], argv[1]
    code, out, err = run_cli(capsys, "attack", "--name", *argv)
    assert (code, out) == (2, "")
    assert err == f"gaskit: attack {name} does not take {option}\n"


def test_attack_flags_are_the_scenarios_parameters():
    # a scenario's options live in its function's signature alone: every
    # parameter has an attack flag, and every flag but --name is a parameter
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in subparsers.choices["attack"]._actions if a.option_strings}
    params = {name for fn in attacks._SCENARIOS.values()
              for name in inspect.signature(fn).parameters}
    assert flags - {"help", "name"} == params


def test_attack_eavesdrop_leaky_negative_control(capsys):
    code, out, _ = run_cli(capsys, "attack", "--name", "eavesdrop", "--leaky")
    assert code == 0
    findings = json.loads(out)
    assert findings[0]["observed"]["leak_count"] == 1


# --- gen-params -------------------------------------------------------------------

def test_gen_params_curve_rederives_builtin(capsys):
    code, out, _ = run_cli(
        capsys, "gen-params", "--kind", "curve", "--modulus", "2017",
        "--a", "6", "--b", "36", "--gx", "0", "--gy", "6",
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == "2035"
    assert data["subgroup_order"] == "37"
    assert (data["Gx"], data["Gy"]) == ("1368", "374")


def test_gen_params_curve_counts_the_points_once(capsys):
    # the command counts the curve's points to find n, and the parameters it
    # builds with that order, where n^2 <= 16p, check it against the count:
    # one enumeration serves both
    ec._point_count.cache_clear()
    code, _, _ = run_cli(capsys, "gen-params", "--kind", "curve")
    assert code == 0
    info = ec._point_count.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_gen_params_curve_rejects_values_outside_field(capsys):
    # --a 2023 = 6 mod 2017 would pass and be written out as "2023";
    # a negative value is refused too, so a = -3 is given as p - 3
    for flag in ("--a", "--b", "--gx", "--gy"):
        for value in ("2023", "-3"):
            code, out, err = run_cli(capsys, "gen-params", "--kind", "curve", flag, value)
            assert code == 2 and out == ""
            assert "out of field range" in err


@pytest.mark.parametrize("bits", ["1", "0", "-5"])
def test_gen_params_harn_refuses_q_bits_below_2(capsys, bits):
    # a 1-bit candidate is always 1, so the prime search would never end
    code, out, err = run_cli(capsys, "gen-params", "--kind", "harn", "--q-bits", bits)
    assert code == 2 and out == ""
    assert f"--q-bits must be at least 2, got {bits}" in err


def test_gen_params_harn_refuses_q_bits_too_close_to_p_bits(capsys):
    # --q-bits 8 leaves k = 1, and p = 2q + 1 has 9 bits, never 10
    code, out, err = run_cli(capsys, "gen-params", "--kind", "harn",
                             "--p-bits", "10", "--q-bits", "8")
    assert code == 2 and out == ""
    assert "--q-bits must be below --p-bits - 2, got 8 and 10" in err


@pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5"])
def test_gen_params_harn_redraws_q_when_no_k_fits(capsys, seed):
    # only k = 3 can give a 16-bit p = 2kq + 1 from a 13-bit q, and for most
    # q it does not give a prime
    code, out, _ = run_cli(capsys, "gen-params", "--kind", "harn",
                           "--p-bits", "16", "--q-bits", "13", "--seed", seed)
    assert code == 0
    data = json.loads(out)
    p, q = int(data["p"]), int(data["q"])
    assert p.bit_length() == 16 and q.bit_length() == 13 and (p - 1) % q == 0


def test_gen_params_harn_small(capsys):
    code, out, _ = run_cli(capsys, "gen-params", "--kind", "harn",
                           "--p-bits", "64", "--q-bits", "32", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    p, q, g = int(data["p"]), int(data["q"]), int(data["g"])
    assert p.bit_length() == 64 and q.bit_length() == 32
    assert (p - 1) % q == 0 and pow(g, q, p) == 1 and g != 1
    # the draws of a seed stay the same: q once, then k until p fits
    assert (p, q) == (10649301062938260071, 3097603021)


def test_generated_harn_file_runs_demo_and_simulate(capsys, tmp_path):
    # --harn FILE: the modulus gen-params writes is loaded from the file
    code, out, _ = run_cli(capsys, "gen-params", "--kind", "harn",
                           "--p-bits", "64", "--q-bits", "32", "--seed", "4")
    assert code == 0
    path = tmp_path / "harn.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "demo", "--scheme", "harn", "--harn", str(path),
                           "--t", "3", "--n", "5")
    assert code == 0
    code, out, _ = run_cli(capsys, "simulate", "--scheme", "harn", "--m", "5",
                           "--harn", str(path))
    assert code == 0
    assert out.startswith(CSV_HEADER + "\nharn,5,")


# --- exit codes -----------------------------------------------------------------------

SMALL_SIM = ("simulate", "--scheme", "proposed-centralized", "--m", "4",
             "--curve", "builtin:test2017")


@pytest.mark.parametrize(("argv", "problem"), [
    pytest.param(("demo", "--n", "40"),
                 "group size 40 needs 40 distinct nonzero x values", id="demo-n-over-field"),
    pytest.param(("demo", "--scheme", "harn", "--n", "20"),
                 "group size 20 does not fit in F_11", id="demo-harn-n-over-field"),
    pytest.param(("demo", "--curve", "{dir}"), "Is a directory: {dir}",
                 id="demo-curve-directory"),
    pytest.param(("simulate", "--scenario", "{dir}"), "Is a directory: {dir}",
                 id="simulate-scenario-directory"),
    # the file sets every field, so a scenario flag beside it is refused
    pytest.param(("simulate", "--scenario", "{dir}/scn.json", "--m", "5"),
                 "--scenario takes no other scenario flag, got --m",
                 id="simulate-scenario-with-m"),
    pytest.param(("gen-params", "--kind", "curve", "--modulus", "1000003", "--a", "1",
                  "--b", "1", "--gx", "0", "--gy", "1"),
                 "modulus 1000003 too large to enumerate", id="gen-params-modulus-too-large"),
    pytest.param((*SMALL_SIM, "--events", "{dir}/missing/x.json"),
                 "file not found: {dir}/missing/x.json", id="simulate-events-unwritable"),
    pytest.param(("simulate", "--scheme", "harn", "--m", "4", "--harn", "{dir}/nope.json"),
                 "gaskit: file not found: {dir}/nope.json", id="simulate-harn-missing"),
    pytest.param(("sweep", "--jobs", "0"), "jobs must be >= 1, got 0", id="sweep-jobs-0"),
    pytest.param(("attack", "--name", "dos-invalid-share", "--m", "2"),
                 "seats its attacker as U3, so m must be >= 3, got 2", id="attack-dos-m-2"),
    pytest.param(("attack", "--name", "flood", "--m", "1"),
                 "flood needs at least two senders, so m must be >= 2, got 1",
                 id="attack-flood-m-1"),
])
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv, problem):
    (tmp_path / "scn.json").write_text(json.dumps(
        {"scheme": "proposed-centralized", "m": 4, "curve_ref": "builtin:test2017"}
    ))
    code, out, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    if "--events" in argv:  # the CSV is printed before the event log is written
        assert out.startswith(CSV_HEADER + "\nproposed-centralized,4,")
    else:
        assert out == ""
    assert err.count("gaskit:") == 1 and err.startswith("gaskit: ")
    assert err.endswith("\n") and err.count("\n") == 1
    assert problem.format(dir=tmp_path) in err
