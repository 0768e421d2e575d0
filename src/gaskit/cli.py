"""Command-line front door.

Commands: ``demo`` (end-to-end protocol transcript), ``cost`` (analytical
cost table), ``simulate`` (one scenario or a builtin preset), ``sweep``
(scheme x group-size grid), ``attack`` (adversary scenarios as JSON
findings) and ``gen-params`` (parameter-set generation).

Data goes to stdout, diagnostics to stderr.  ``GAS_SEED`` overrides the
default seed of any command that takes one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys

from . import attacks, cost_model, gas_core, gas_harn, sim
from .ec import CurveParams, CurvePoint, brute_force_order, curve_to_dict, scalar_mul
from .field import Prime, is_probable_prime

__all__ = ["main"]


def _default_seed(fallback: int | None) -> int | None:
    env = os.environ.get("GAS_SEED")
    if env is None:
        return fallback
    try:
        return int(env)
    except ValueError:
        raise SystemExit(f"GAS_SEED must be an integer, got {env!r}")


def _err(msg: str) -> None:
    print(f"gaskit: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# demo

def _point_str(pt) -> str:
    return f"({pt.x.residue}, {pt.y.residue})"


def _cmd_demo(args) -> int:
    seed = _default_seed(args.seed)
    rng = random.Random(seed)
    if not 1 <= args.t <= args.m <= args.n:
        _err(f"need 1 <= t <= m <= n, got t={args.t} m={args.m} n={args.n}")
        return 2
    if args.scheme == "proposed":
        try:
            curve = sim.resolve_curve(args.curve)
        except (ValueError, FileNotFoundError) as exc:
            _err(str(exc))
            return 2
        config, shares = gas_core.gm_init(args.t, args.n, curve, rng)
        print("== Initialization Phase ==")
        print(f"curve: {curve.name or args.curve} "
              f"(p={curve.modulus.value}, subgroup order {curve.subgroup_order})")
        print(f"group: n={args.n}, threshold t={args.t}, epoch {config.epoch}")
        print(f"published: P={_point_str(curve.generator)} "
              f"Q={_point_str(config.group_public_key)} H(s)={config.commitment.hex()[:16]}...")
        participants = [s.member_id for s in shares[: args.m]]
        states, public_shares = gas_core.run_confirmation(config, shares, participants)
        print("== Confirmation Phase ==")
        for ps in public_shares:
            print(f"{ps.member_id} broadcasts f(x)P = {_point_str(ps.point)}")
        verdicts = gas_core.gm_verify(config, shares, public_shares)
        print("centralized verdicts:",
              " ".join(f"{mid}:{'ok' if ok else 'FAIL'}" for mid, ok in verdicts.items()))
        ok_central = all(verdicts.values())
        ok_decentral = gas_core.decentralized_verify(config, public_shares)
        print(f"decentralized check: sum(C_i) == Q -> {'ok' if ok_decentral else 'FAIL'}")
        if not (ok_central and ok_decentral):
            print("Authentication failed.")
            return 1
        print("Authentication is complete.")
        print("== Group Key Agreement Stage ==")
        print(f"members exchange encrypted shares (m={args.m})")
        try:
            key = gas_core.exchange_group_key(states, rng)
        except gas_core.ProtocolError as exc:
            _err(str(exc))
            return 1
        print("H(s') == H(s) -> ok")
        print("Group Key is recovered.")
        del key
        return 0
    # harn
    try:
        modulus = sim.resolve_harn(args.harn)
    except (ValueError, FileNotFoundError) as exc:
        _err(str(exc))
        return 2
    params, tokens = gas_harn.harn_init(args.t, args.n, modulus, rng)
    print("== Initialization Phase ==")
    print(f"harn parameters: p={modulus.p.value} q={modulus.q.value} g={modulus.g.residue}")
    print(f"group: n={args.n}, threshold t={args.t}")
    participants = tokens[: args.m]
    roster_xs = [tok.x for tok in participants]
    print("== Release Phase ==")
    releases = []
    for tok in participants:
        rel = gas_harn.harn_release(tok, roster_xs, params)
        releases.append(rel)
        print(f"{tok.member_id} releases e = g^c mod p")
    ok = gas_harn.harn_verify(releases, params)
    print(f"verification: prod(e_i) == g^s -> {'ok' if ok else 'FAIL'}")
    if not ok:
        print("Authentication failed.")
        return 1
    print("Authentication is complete.")
    return 0


# ---------------------------------------------------------------------------
# cost

def _parse_m_range(spec: str) -> list[int]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"m-range must be a:b:step, got {spec!r}")
    a, b, step = (int(p) for p in parts)
    if step <= 0 or a < 1:
        raise ValueError("m-range needs a >= 1 and step >= 1")
    return list(range(a, b + 1, step))


def _cmd_cost(args) -> int:
    try:
        ms = _parse_m_range(args.m_range)
    except ValueError as exc:
        _err(str(exc))
        return 2
    print(cost_model.csv_header())
    for m in ms:
        for scheme in cost_model.SCHEMES:
            tmulq = cost_model.per_user_cost(scheme, m, harn_slope=args.harn_slope)
            spent = cost_model.energy(tmulq, sim.DEFAULT_JOULES_PER_TMULQ, 0, 0)
            print(cost_model.csv_row(
                scheme, m, tmulq, spent, tmulq / sim.DEFAULT_COMPUTE_RATE
            ))
    return 0


# ---------------------------------------------------------------------------
# simulate / sweep

def _scenario_from_args(args) -> sim.Scenario:
    fields = dict(
        scheme=args.scheme,
        m=args.m,
        t=args.t,
        seed=_default_seed(args.seed),
        loss=args.loss,
        schedule=args.schedule,
    )
    if args.curve is not None:
        fields["curve_ref"] = args.curve
    if args.harn is not None:
        fields["harn_ref"] = args.harn
    return sim.Scenario(**fields)


def _write_events(path: str, reports: list[sim.SimReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([rep.to_dict(include_events=True) for rep in reports], fh, indent=1)


def _cmd_simulate(args) -> int:
    try:
        if args.scenario is not None:
            if args.scenario.startswith("builtin:"):
                name = args.scenario.split(":", 1)[1]
                rows, reports = sim.preset(name)
            else:
                scenario = sim.Scenario.from_json_file(args.scenario)
                report = sim.run(scenario)
                rows, reports = [report.csv_row()], [report]
        else:
            if args.scheme is None or args.m is None:
                _err("either --scenario or both --scheme and --m are required")
                return 2
            scenario = _scenario_from_args(args)
            report = sim.run(scenario)
            rows, reports = [report.csv_row()], [report]
    except FileNotFoundError as exc:
        _err(f"scenario file not found: {exc.filename}")
        return 2
    except (sim.ScenarioError, ValueError) as exc:
        _err(str(exc))
        return 2
    print(cost_model.csv_header())
    for row in rows:
        print(row)
    for rep in reports:
        if not rep.authenticated:
            _err(f"{rep.scheme}@{rep.m}: failed ({rep.failure_reason})")
    if args.events:
        _write_events(args.events, reports)
    return 0


def _cmd_sweep(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    try:
        ms = [int(m) for m in args.m_list.split(",") if m.strip()]
    except ValueError as exc:
        _err(str(exc))
        return 2
    base = sim.Scenario(
        scheme="proposed-centralized", m=1, seed=_default_seed(args.seed)
    )
    try:
        rows, reports = sim.sweep(schemes, ms, base, jobs=args.jobs)
    except (sim.ScenarioError, ValueError) as exc:
        _err(str(exc))
        return 2
    print(cost_model.csv_header())
    for row in rows:
        print(row)
    if args.events:
        _write_events(args.events, reports)
    return 0


# ---------------------------------------------------------------------------
# attack

def _cmd_attack(args) -> int:
    if args.name not in attacks.ATTACK_NAMES:
        _err(f"unknown attack {args.name!r}; valid names: {', '.join(attacks.ATTACK_NAMES)}")
        return 2
    kwargs = {"rotate": args.rotate}
    seed = _default_seed(args.seed)
    if seed is not None:
        kwargs["seed"] = seed
    if args.mode is not None:
        kwargs["mode"] = args.mode
    if args.m is not None:
        kwargs["m"] = args.m
    if args.t is not None:
        kwargs["t"] = args.t
    if args.leaky:
        kwargs["leaky"] = True
    try:
        findings = attacks.run_attack(args.name, **kwargs)
    except (ValueError, sim.ScenarioError) as exc:
        _err(str(exc))
        return 2
    print(json.dumps([f.to_dict() for f in findings], indent=1))
    return 0 if all(f.matched for f in findings) else 1


# ---------------------------------------------------------------------------
# gen-params

def _gen_prime(bits: int, rng: random.Random) -> int:
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand


def _cmd_gen_params(args) -> int:
    rng = random.Random(_default_seed(args.seed))
    if args.kind == "harn":
        if args.q_bits >= args.p_bits - 1:
            _err("q-bits must be well below p-bits")
            return 2
        q = _gen_prime(args.q_bits, rng)
        while True:
            k = rng.getrandbits(args.p_bits - args.q_bits - 1) | (
                1 << (args.p_bits - args.q_bits - 2)
            )
            p = 2 * k * q + 1
            if p.bit_length() == args.p_bits and is_probable_prime(p):
                break
        g = gas_harn.derive_generator(Prime(p), Prime(q))
        out = {"name": f"harn-{args.p_bits}-{args.q_bits}", "p": str(p), "q": str(q),
               "g": str(g.residue)}
    elif args.kind == "curve":
        try:
            p = Prime(args.modulus)
            a, b, gx, gy = map(p.element, (args.a, args.b, args.gx, args.gy))
            curve = CurveParams(a=a, b=b, modulus=p, generator=CurvePoint(gx, gy),
                                name="generated")
        except ValueError as exc:
            _err(str(exc))
            return 2
        order = brute_force_order(curve)
        sub, cofactor = _largest_prime_factor(order)
        gen = scalar_mul(cofactor, curve.generator, curve)
        if gen.is_infinity:
            _err("base point collapses under cofactor clearing; pick another")
            return 2
        out = curve_to_dict(
            dataclasses.replace(curve, generator=gen, order=order, subgroup_order=sub)
        )
    else:
        _err(f"unknown kind {args.kind!r}")
        return 2
    print(json.dumps(out, indent=1))
    return 0


def _largest_prime_factor(n: int) -> tuple[int, int]:
    rest, largest = n, 1
    f = 2
    while f * f <= rest:
        while rest % f == 0:
            largest = max(largest, f)
            rest //= f
        f += 1
    if rest > 1:
        largest = max(largest, rest)
    return largest, n // largest


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaskit",
        description="Group authentication toolkit: protocol demo, cost model, simulator, attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="run the protocol end to end and print a transcript")
    p.add_argument("--scheme", choices=("proposed", "harn"), default="proposed")
    p.add_argument("--t", type=int, default=3, help="threshold")
    p.add_argument("--n", type=int, default=5, help="group size")
    p.add_argument("--m", type=int, default=None, help="participants (default n)")
    p.add_argument("--curve", default="builtin:test2017",
                   help="curve file or builtin:{test2017,secp160r1,toy5}")
    p.add_argument("--harn", default="builtin:harn-tiny",
                   help="harn modulus file or builtin:{harn-tiny,harn-1024-160}")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("cost", help="analytical per-user cost table (CSV)")
    p.add_argument("--m-range", default="10:50:10", help="a:b:step (inclusive)")
    p.add_argument("--harn-slope", choices=cost_model.HARN_SLOPES, default="text")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("simulate", help="run one scenario (CSV report)")
    p.add_argument("--scenario", default=None,
                   help="scenario JSON file or builtin:{paper-fig3,paper-fig4}")
    p.add_argument("--scheme", choices=sim.SCHEME_CHOICES, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--schedule", choices=sim.SCHEDULE_CHOICES, default="slotted")
    p.add_argument("--curve", default=None)
    p.add_argument("--harn", default=None)
    p.add_argument("--events", default=None, help="write a JSON event log to this path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="grid of (scheme, m) runs (CSV)")
    p.add_argument("--schemes", default="harn,chien,proposed-centralized",
                   help="comma-separated; 'chien' emits cost-model rows")
    p.add_argument("--m-list", default="10,50")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (output order is deterministic)")
    p.add_argument("--events", default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("attack", help="run an adversary scenario (JSON findings)")
    p.add_argument("--name", required=True,
                   help=f"one of: {', '.join(attacks.ATTACK_NAMES)}")
    p.add_argument("--rotate", action="store_true",
                   help="rotate credentials before/after the attack where applicable")
    p.add_argument("--mode", choices=("centralized", "decentralized"), default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--leaky", action="store_true",
                   help="eavesdrop negative control: leak one raw share")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("gen-params", help="generate parameter files (JSON to stdout)")
    p.add_argument("--kind", choices=("harn", "curve"), required=True)
    p.add_argument("--p-bits", type=int, default=256)
    p.add_argument("--q-bits", type=int, default=96)
    p.add_argument("--modulus", type=int, default=2017)
    p.add_argument("--a", type=int, default=6)
    p.add_argument("--b", type=int, default=36)
    p.add_argument("--gx", type=int, default=0)
    p.add_argument("--gy", type=int, default=6)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_gen_params)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo" and args.m is None:
        args.m = args.n
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
