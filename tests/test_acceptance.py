"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s` or
in the captured output) and enforces its stated tolerance.  A [PASS] line
must then match its digest in `test_golden.ACCEPTANCE_LINES` with the wall
time cut out, which catches a change in a printed figure that stays within
its tolerance.
"""

import hashlib
import random
import re
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from gaskit import attacks, cost_model, gas_core, gas_harn, sim
from gaskit.ec import CurvePoint, builtin_curve, scalar_mul
from gaskit.field import FieldElement, MulCounter, Prime, lagrange_coeff_at_zero
from gaskit.sss import ThresholdError, issue_shares, reconstruct, sample_polynomial, verify_commitment
from oracle import add
from test_golden import ACCEPTANCE_LINES

TEST2017 = builtin_curve("test2017")
SECP160R1 = builtin_curve("secp160r1")


# the wall time, where a line shows one: the last field of its detail
_WALL_TIME = re.compile(r"\d+\.\d+s\)$")


def _report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{tag}] criterion {num}: {description}{suffix}"
    print(line)
    assert ok, f"criterion {num} failed: {description}{suffix}"
    pinned = _WALL_TIME.sub(")", line)
    assert hashlib.sha256(pinned.encode()).hexdigest() == ACCEPTANCE_LINES[num], pinned


def test_criterion_1_cost_model_reproduction():
    start = time.monotonic()
    ok = True
    for m in range(1, 501):
        ok &= cost_model.per_user_cost("proposed", m) == 1189
        ok &= cost_model.per_user_cost("harn", m) == 45 * m + 1418
        ok &= cost_model.per_user_cost("harn", m, harn_slope="table") == 14 * m + 1418
        ok &= cost_model.per_user_cost("chien", m) == 7 * m + 6785
    elapsed = time.monotonic() - start
    _report(1, "per-user cost formulas exact", ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


def test_criterion_2_savings_claim():
    start = time.monotonic()
    ok = all(
        cost_model.savings_ratio(m) >= Fraction(80, 100) for m in range(1, 1001)
    )
    elapsed = time.monotonic() - start
    _report(2, "savings ratio >= 0.80 for all m in [1, 1000]", ok and elapsed < 1.0,
            f"min at m=1: {float(cost_model.savings_ratio(1)):.4f}")


def test_criterion_3_simulation_ratios():
    start = time.monotonic()
    # one-point time calibration on (proposed, m=10, 1.3 s)
    rate = sim.calibrate_compute_rate(1.3, 10)
    base = sim.Scenario(scheme="proposed-centralized", m=10, compute_rate=rate)
    assert sim.run(base).auth_time_s == pytest.approx(1.3, rel=1e-6)

    p50 = sim.run(replace(base, m=50, t=None)).auth_time_s
    ok_p50 = 6.9 * 0.75 <= p50 <= 6.9 * 1.25

    h10 = sim.run(replace(base, scheme="harn", m=10, t=None)).auth_time_s
    h50 = sim.run(replace(base, scheme="harn", m=50, t=None)).auth_time_s
    ratio = h50 / h10
    ok_ratio = 5.0 * 0.8 <= ratio <= 5.0 * 1.2

    # one-point energy calibration on (proposed, m=10, 0.014 J)
    jpt = sim.calibrate_joules_per_tmulq(0.014, 10, base=base)
    ebase = replace(base, joules_per_tmulq=jpt)
    e_prop = sim.run(replace(ebase, m=50, t=None)).representative_member().total_j
    e_harn = sim.run(replace(ebase, scheme="harn", m=50, t=None)).representative_member().total_j
    chien_row = sim.chien_model_row(50, replace(ebase, m=50))
    e_chien = float(chien_row.split(",")[5])
    ok_order = e_prop < e_chien < e_harn
    ok_energy_ratio = e_prop / e_harn <= 0.2
    elapsed = time.monotonic() - start
    _report(
        3,
        "simulated time and energy track the published table",
        ok_p50 and ok_ratio and ok_order and ok_energy_ratio and elapsed < 30,
        f"p50={p50:.2f}s harn50/10={ratio:.2f} "
        f"E=(p {e_prop:.3g} < c {e_chien:.3g} < h {e_harn:.3g}) "
        f"p/h={e_prop / e_harn:.3f} in {elapsed:.1f}s",
    )


def test_criterion_4_protocol_completeness_sweep():
    start = time.monotonic()
    failures = []
    runs = 0
    for n in range(1, 13):
        for t in range(1, n + 1):
            rng = random.Random(40_000 + 100 * n + t)
            config, shares = gas_core.gm_init(t, n, TEST2017, rng)
            for m in range(t, n + 1):
                runs += 1
                ids = [s.member_id for s in shares[:m]]
                states, pss = gas_core.run_confirmation(config, shares, ids)
                if not all(gas_core.gm_verify(config, shares, pss).values()):
                    failures.append((t, m, n, "centralized"))
                    continue
                if not gas_core.decentralized_verify(config, pss):
                    failures.append((t, m, n, "decentralized"))
                    continue
                key = gas_core.exchange_group_key(states, rng)
                if not verify_commitment(key, config.commitment):
                    failures.append((t, m, n, "commitment"))
                if any(st.group_key != key for st in states.values()):
                    failures.append((t, m, n, "agreement"))
    elapsed = time.monotonic() - start
    _report(4, "completeness sweep 1<=t<=m<=n<=12 on the test curve",
            not failures and elapsed < 60,
            f"{runs} honest runs, {len(failures)} failures, {elapsed:.1f}s")


def test_criterion_5_threshold_soundness():
    start = time.monotonic()
    # full enumeration over F_37 (t=3, t-1=2 observed shares)
    q = Prime(37)
    rng = random.Random(50)
    poly = sample_polynomial(3, q.random_element(rng), rng)
    observed = issue_shares(poly, [FieldElement(5, q), FieldElement(11, q)])
    attained = set()
    for d in range(37):
        for a1 in range(37):
            for a2 in range(37):
                f = lambda x: (d + a1 * x + a2 * x * x) % 37
                if all(f(s.x.residue) == s.y.residue for s in observed):
                    attained.add(d)
    ok_37 = attained == set(range(37))

    # constructive enumeration over F_257 for t in {2, 3}
    ok_257 = True
    q257 = Prime(257)
    for t in (2, 3):
        rngt = random.Random(51 + t)
        polyt = sample_polynomial(t, q257.random_element(rngt), rngt)
        xs = [FieldElement(v, q257) for v in range(2, 2 + t - 1)]
        obs = issue_shares(polyt, xs)
        nodes = [FieldElement(0, q257)] + [s.x for s in obs]
        from gaskit.field import lagrange_coeff

        for candidate in range(257):
            ys = [FieldElement(candidate, q257)] + [s.y for s in obs]
            total = FieldElement(0, q257)
            for i in range(len(nodes)):
                total = total + ys[i] * lagrange_coeff(i, nodes, FieldElement(0, q257))
            ok_257 &= total.residue == candidate

    # below-threshold reconstruction is rejected outright
    try:
        reconstruct(observed, 3)
        rejected = False
    except ThresholdError:
        rejected = True
    elapsed = time.monotonic() - start
    _report(5, "t-1 shares leave every secret candidate open; reconstruction refuses",
            ok_37 and ok_257 and rejected and elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_6_constant_member_cost():
    start = time.monotonic()
    ok_proposed = True
    for m in (10, 50, 200):
        rng = random.Random(60 + m)
        config, shares = gas_core.gm_init(3, m, SECP160R1, rng)
        for share in shares:
            state = gas_core.MemberState(share=share, config=config)
            with MulCounter() as ops:
                gas_core.make_public_share(state)
            ok_proposed &= ops.ec_scalar_muls == 1

    rng = random.Random(61)
    params, tokens = gas_harn.harn_init(3, 200, gas_harn.builtin_harn_modulus("harn-1024-160"), rng)
    roster = [tok.x for tok in tokens]
    counts = []
    for m in (10, 50, 200):
        with MulCounter() as ops:
            gas_harn.harn_release(tokens[0], roster[:m], params)
        counts.append(ops.field_muls)
    ok_harn = counts[0] < counts[1] < counts[2]
    elapsed = time.monotonic() - start
    _report(6, "one scalar multiplication per member; Harn grows with m",
            ok_proposed and ok_harn and elapsed < 10,
            f"harn muls {counts}, {elapsed:.1f}s")


def test_criterion_7_harn_identity():
    start = time.monotonic()
    ok = True
    for modulus_name, seed0 in (("harn-tiny", 700), ("harn-1024-160", 800)):
        modulus = gas_harn.builtin_harn_modulus(modulus_name)
        n_cap = min(9, modulus.q.value - 2)
        for trial in range(100):
            rng = random.Random(seed0 + trial)
            t = rng.randrange(1, min(6, n_cap) + 1)
            n = rng.randrange(t, n_cap + 1)
            params, tokens = gas_harn.harn_init(t, n, modulus, rng)
            roster = [tok.x for tok in tokens]
            releases = [gas_harn.harn_release(tok, roster, params) for tok in tokens]
            ok &= gas_harn.harn_verify(releases, params)
            corrupt_at = rng.randrange(len(releases))
            bad = releases[:]
            bad[corrupt_at] = gas_harn.HarnRelease(
                bad[corrupt_at].member_id,
                bad[corrupt_at].x,
                bad[corrupt_at].e * params.modulus.g,
            )
            ok &= not gas_harn.harn_verify(bad, params)
    elapsed = time.monotonic() - start
    _report(7, "prod(e_i) = g^s on tiny and 1024/160 parameters, 200 trials",
            ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_8_attack_suite_verdicts():
    start = time.monotonic()
    findings = [
        attacks.replay_attack(rotate=True),
        attacks.replay_attack(rotate=False),
        attacks.dos_invalid_share(mode="decentralized"),
        attacks.dos_invalid_share(mode="centralized"),
        attacks.node_compromise(),
        attacks.node_compromise(rotate_excluding_victim=True),
    ]
    frames, secrets, _ = attacks.build_honest_transcript("proposed", m=4, t=3)
    findings.append(attacks.eavesdrop_secrecy_check(frames, secrets))
    leaky_frames, leaky_secrets, _ = attacks.build_honest_transcript(
        "proposed", m=4, t=3, leaky=True
    )
    control = attacks.eavesdrop_secrecy_check(leaky_frames, leaky_secrets)
    control_ok = control.observed["leak_count"] == 1
    all_matched = all(f.matched for f in findings)
    elapsed = time.monotonic() - start
    _report(8, "every attack scenario matches its expected outcome",
            all_matched and control_ok and elapsed < 60,
            f"{len(findings)} findings + negative control, {elapsed:.1f}s")


def test_criterion_9_property_suites():
    start = time.monotonic()
    rng = random.Random(90)
    ok = True

    # field axioms (500+ random triples)
    q = Prime(2027)
    for _ in range(500):
        a, b, c = (q.random_element(rng) for _ in range(3))
        ok &= (a + b) + c == a + (b + c)
        ok &= a * (b + c) == a * b + a * c
        ok &= a * b == b * a

    # EC group law vs repeated addition (500 scalars)
    g = TEST2017.generator
    acc = CurvePoint(None, None)
    table = []
    for k in range(100):
        table.append(acc)
        acc = add(acc, g, TEST2017)
    for _ in range(500):
        k = rng.randrange(0, 100)
        ok &= scalar_mul(k, g, TEST2017) == table[k]

    # scalar-mul additivity (500 pairs)
    for _ in range(500):
        a, b = rng.randrange(0, 300), rng.randrange(0, 300)
        ok &= scalar_mul(a + b, g, TEST2017) == add(
            scalar_mul(a, g, TEST2017), scalar_mul(b, g, TEST2017), TEST2017
        )

    # Lagrange partition of unity (500 node sets)
    q37 = Prime(37)
    for _ in range(500):
        k = rng.randrange(1, 9)
        xs = [FieldElement(v, q37) for v in rng.sample(range(1, 37), k)]
        total = FieldElement(0, q37)
        for i in range(k):
            total = total + lagrange_coeff_at_zero(i, xs)
        ok &= total.residue == 1

    # ECDH symmetry (500 exchanges)
    sub = TEST2017.subgroup_order
    for _ in range(500):
        a, b = rng.randrange(1, sub), rng.randrange(1, sub)
        pa = scalar_mul(a, g, TEST2017)
        pb = scalar_mul(b, g, TEST2017)
        ok &= scalar_mul(a, pb, TEST2017) == scalar_mul(b, pa, TEST2017)

    elapsed = time.monotonic() - start
    _report(9, "algebraic property suites (>=500 cases each)",
            ok and elapsed < 60, f"{elapsed:.1f}s")
