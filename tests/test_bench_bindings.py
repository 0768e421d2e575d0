"""The names the benchmark harness binds to by string must keep existing.

`gasbench/` measures gaskit from outside by replacing module attributes
(``sim.scalar_mul``, ``sim.builtin_harn_modulus``, ``sim.run``, the
``gas_core``/``wire``/``sss``/``gas_harn`` functions in its tracer).  A
rename inside gaskit would break it only when the benchmark runs; this
test installs and removes both of its instruments so the break shows here.
It also checks every module's ``__all__`` against what the module defines.
"""

import importlib
from pathlib import Path

import pytest

from gaskit import gas_core, sim

GASBENCH = Path(__file__).resolve().parents[1] / "gasbench"
MODULES = ("attacks", "cli", "cost_model", "ec", "field", "gas_core", "gas_harn",
           "sim", "sss", "wire")
SMALL = sim.Scenario(scheme="proposed-centralized", m=4, curve_ref="builtin:test2017")


@pytest.fixture
def gasbench(monkeypatch):
    monkeypatch.syspath_prepend(str(GASBENCH))
    import hostspeed
    import tracer
    import workloads

    return hostspeed, tracer, workloads


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"gaskit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_tracer_installs_and_uninstalls(gasbench):
    _, tracer_mod, _ = gasbench
    before = (sim.run, sim.scalar_mul, sim.builtin_harn_modulus, gas_core.make_public_share)
    tracer = tracer_mod.Tracer()
    tracer_mod.install(tracer)
    try:
        assert sim.run is not before[0]
        sim.run(SMALL)
    finally:
        tracer.uninstall()
    assert (sim.run, sim.scalar_mul, sim.builtin_harn_modulus,
            gas_core.make_public_share) == before
    names = [span[tracer_mod.NAME] for span in tracer.spans]
    # one f(x_i)P per member per run
    assert names.count("gas_core.make_public_share") == SMALL.m
    assert names.count("sim.run") == 1


def test_sim_tap_installs_and_uninstalls(gasbench):
    hostspeed, _, workloads = gasbench
    before = (sim.run, sim.builtin_harn_modulus, gas_core.make_public_share)
    tap = workloads.SimTap(hostspeed.HostSpeed())
    tap.install()
    try:
        report = sim.run(SMALL)
    finally:
        tap.uninstall()
    assert (sim.run, sim.builtin_harn_modulus, gas_core.make_public_share) == before
    reports, _, auth, confirm_s = tap.take()
    assert reports == [report] and report.authenticated
    assert len(confirm_s) == SMALL.m
    assert auth
