"""CLI: transcript shapes, CSV goldens, exit codes, seeding."""

import json

import pytest

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


def test_demo_unknown_curve(capsys):
    code, _, err = run_cli(capsys, "demo", "--curve", "builtin:nope")
    assert code != 0 or "unknown" in err


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


def test_cost_empty_range_header_only(capsys):
    code, out, _ = run_cli(capsys, "cost", "--m-range", "50:10:10")
    assert code == 0
    assert out.strip() == CSV_HEADER


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
    ({"adversary": "x"}, "adversary must be dict | None, got 'x'"),
    ({"scheme": "proposed-decentralized", "verifier_policy": "max-battery",
      "battery": {"U2": "high"}}, "battery must be dict[str, float] | None"),
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
    ('"compute_rate": Infinity', "compute_rate must be finite"),
    ('"joules_per_tmulq": NaN', "joules_per_tmulq must be finite"),
])
def test_simulate_non_finite_scenario_numbers_exit_2(capsys, tmp_path, number, problem):
    # json reads NaN and Infinity; a run would price them as nan J or zero time
    path = tmp_path / "bad.json"
    path.write_text('{"scheme": "proposed-centralized", "m": 4, '
                    f'"curve_ref": "builtin:test2017", {number}}}')
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert problem in err


@pytest.mark.parametrize("name", ["bitrate", "gm_speedup", "radio_tmulq_per_byte",
                                  "tx_j_per_byte", "rx_j_per_byte", "max_retries",
                                  "backoff_slot_s"])
def test_simulate_refuses_fixed_model_constants_as_fields(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scheme": "proposed-centralized", "m": 4,
                                "curve_ref": "builtin:test2017", name: 1}))
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(path))
    assert code == 2
    assert out == ""
    assert f"unknown scenario fields: ['{name}']" in err


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


def test_gen_params_curve_rejects_values_outside_field(capsys):
    # --a 2023 = 6 mod 2017 would pass and be written out as "2023";
    # a negative value is refused too, so a = -3 is given as p - 3
    for flag in ("--a", "--b", "--gx", "--gy"):
        for value in ("2023", "-3"):
            code, out, err = run_cli(capsys, "gen-params", "--kind", "curve", flag, value)
            assert code == 2 and out == ""
            assert "out of field range" in err


def test_gen_params_harn_small(capsys):
    code, out, _ = run_cli(capsys, "gen-params", "--kind", "harn",
                           "--p-bits", "64", "--q-bits", "32", "--seed", "4")
    assert code == 0
    data = json.loads(out)
    p, q, g = int(data["p"]), int(data["q"]), int(data["g"])
    assert p.bit_length() == 64 and q.bit_length() == 32
    assert (p - 1) % q == 0 and pow(g, q, p) == 1 and g != 1


# --- seeding ------------------------------------------------------------------------

def test_gas_seed_env_override(capsys, monkeypatch):
    _, out_default, _ = run_cli(capsys, "demo", "--seed", "1")
    monkeypatch.setenv("GAS_SEED", "999")
    _, out_env, _ = run_cli(capsys, "demo", "--seed", "1")
    assert out_default != out_env
    monkeypatch.setenv("GAS_SEED", "1")
    _, out_env1, _ = run_cli(capsys, "demo", "--seed", "7")
    assert out_env1 == out_default
