"""Command-line front door.

Commands: ``demo`` (end-to-end protocol transcript), ``cost`` (analytical
cost table), ``simulate`` (one scenario or a builtin preset), ``sweep``
(scheme x group-size grid), ``attack`` (adversary scenarios as JSON
findings) and ``gen-params`` (parameter-set generation).

Data goes to stdout, diagnostics to stderr.

Exit codes: 0 for success; 1 when ``demo`` fails to authenticate or an
``attack`` verdict does not match; 2 for any bad argument, file or
parameter set, reported as one ``gaskit: <message>`` line on stderr.
``main`` turns every `ValueError` and `OSError` a command raises into exit 2.
Output already printed stays: with ``--events`` on an unwritable path the
CSV is on stdout when the command exits 2.

``simulate``'s flags are `sim.Scenario` fields (``--curve`` and ``--harn``
set ``curve_ref`` and ``harn_ref``); a flag left out keeps the field's
default.  ``--scenario`` names a whole scenario, so it takes no other
scenario flag, only ``--events``.

``simulate`` and ``sweep`` build the simulator's event log only under
``--events`` (`sim.event_log`): m^2 + 2m + 2 events per Harn run, 3m + 3
per proposed run; without it the CSV is the same and no log is built.

Work is bounded at validation, before any is done: a group (``demo
--n``, ``simulate --m``, ``attack --m``, every ``sweep`` m) of at most
`sim.MAX_GROUP_SIZE` members, one to `MAX_M_VALUES` values in
``--m-list`` or ``--m-range``, one ``--schemes`` name or more, a Harn
``--p-bits`` of at most `gas_harn.MAX_P_BITS` (2048), and before any
primality test a curve ``--modulus`` of at most 10^6 and, in a parameter
file, a curve's ``p`` and ``subgroup_order`` of at most
`ec.MAX_CURVE_BITS` (521) bits and a Harn modulus's ``p`` and ``q`` of at
most `gas_harn.MAX_P_BITS`; an input file of at most `jsonfile.MAX_FILE_BYTES`
(64 KiB, checked before parsing) and nested no deeper than the parser
takes.  Anything outside exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys

from . import attacks, cost_model, ec, gas_core, gas_harn, sim
from .ec import CurveParams, CurvePoint, brute_force_order, curve_to_dict, scalar_mul
from .field import Prime, is_probable_prime
from .gas_harn import MAX_P_BITS

__all__ = ["main"]

MAX_M_VALUES = 100  # in --m-list or --m-range; the paper's figures use 5


def _err(msg: str) -> None:
    print(f"gaskit: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# demo

def _point_str(pt) -> str:
    return f"({pt.x.residue}, {pt.y.residue})"


def _cmd_demo(args) -> int:
    rng = random.Random(args.seed)
    m = args.n if args.m is None else args.m
    if not 1 <= args.t <= m <= args.n:
        raise ValueError(f"need 1 <= t <= m <= n, got t={args.t} m={m} n={args.n}")
    if args.n > sim.MAX_GROUP_SIZE:
        raise ValueError(f"n must be <= {sim.MAX_GROUP_SIZE}, got {args.n}")
    if args.scheme == "proposed":
        curve = sim.resolve_curve(args.curve)
        config, shares = gas_core.gm_init(args.t, args.n, curve, rng)
        print("== Initialization Phase ==")
        print(f"curve: {curve.name or args.curve} "
              f"(p={curve.modulus.value}, subgroup order {curve.subgroup_order})")
        print(f"group: n={args.n}, threshold t={args.t}, epoch {config.epoch}")
        print(f"published: P={_point_str(curve.generator)} "
              f"Q={_point_str(config.group_public_key)} H(s)={config.commitment.hex()[:16]}...")
        participants = [s.member_id for s in shares[:m]]
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
        print(f"members exchange encrypted shares (m={m})")
        try:
            gas_core.exchange_group_key(states, rng)
        except gas_core.ProtocolError as exc:
            _err(str(exc))
            return 1
        print("H(s') == H(s) -> ok")
        print("Group Key is recovered.")
        return 0
    # harn
    modulus = sim.resolve_harn(args.harn)
    params, tokens = gas_harn.harn_init(args.t, args.n, modulus, rng)
    print("== Initialization Phase ==")
    print(f"harn parameters: p={modulus.p.value} q={modulus.q.value} g={modulus.g.residue}")
    print(f"group: n={args.n}, threshold t={args.t}")
    participants = tokens[:m]
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
    ms = range(a, b + 1, step)
    if not ms:
        raise ValueError(f"--m-range {spec} holds no value")
    if len(ms) > MAX_M_VALUES:
        raise ValueError(f"--m-range holds at most {MAX_M_VALUES} values, got {len(ms)}")
    return list(ms)


def _cmd_cost(args) -> int:
    ms = _parse_m_range(args.m_range)
    print(cost_model.csv_header())
    for m in ms:
        for scheme in cost_model.SCHEMES:
            tmulq = cost_model.per_user_cost(scheme, m, harn_slope=args.harn_slope)
            spent = cost_model.energy(tmulq, sim.JOULES_PER_TMULQ, 0, 0)
            print(cost_model.csv_row(
                scheme, m, tmulq, spent, tmulq / sim.COMPUTE_RATE
            ))
    return 0


# ---------------------------------------------------------------------------
# simulate / sweep

def _write_events(path: str, reports: list[sim.SimReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([rep.to_dict() for rep in reports], fh, indent=1)


def _cmd_simulate(args) -> int:
    # every flag the user set (the others are absent from `args`); all but
    # --scenario and --events are `sim.Scenario` fields, with their defaults
    fields = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    ref, events = fields.pop("scenario", None), fields.pop("events", None)
    if ref is not None and fields:
        flags = ", ".join("--" + k.removesuffix("_ref") for k in fields)
        raise ValueError(f"--scenario takes no other scenario flag, got {flags}")
    if ref is None and not {"scheme", "m"} <= fields.keys():
        raise ValueError("either --scenario or both --scheme and --m are required")
    with sim.event_log(events is not None):
        if ref is not None and ref.startswith("builtin:"):
            rows, reports = sim.preset(ref.split(":", 1)[1])
        else:
            scenario = sim.Scenario(**fields) if ref is None else sim.Scenario.from_json_file(ref)
            report = sim.run(scenario)
            rows, reports = [report.csv_row()], [report]
    print(cost_model.csv_header())
    for row in rows:
        print(row)
    for rep in reports:
        if not rep.authenticated:
            _err(f"{rep.scheme}@{rep.m}: failed ({rep.failure_reason})")
    if events:
        _write_events(events, reports)
    return 0


def _cmd_sweep(args) -> int:
    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    ms = [int(m) for m in args.m_list.split(",") if m.strip()]
    if not schemes:
        raise ValueError("--schemes names no scheme")
    if not ms:
        raise ValueError("--m-list holds no value")
    if len(ms) > MAX_M_VALUES:
        raise ValueError(f"--m-list holds at most {MAX_M_VALUES} values, got {len(ms)}")
    base = sim.Scenario(scheme="proposed-centralized", m=1, seed=args.seed)
    with sim.event_log(args.events is not None):
        rows, reports = sim.sweep(schemes, ms, base, jobs=args.jobs)
    print(cost_model.csv_header())
    for row in rows:
        print(row)
    if args.events:
        _write_events(args.events, reports)
    return 0


# ---------------------------------------------------------------------------
# attack

def _cmd_attack(args) -> int:
    # every flag the user set (the others are absent from `args`):
    # `run_attack` refuses one its scenario does not take
    kwargs = {k: v for k, v in vars(args).items() if k not in ("command", "func", "name")}
    findings = attacks.run_attack(args.name, **kwargs)
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
    rng = random.Random(args.seed)
    if args.kind == "harn":
        if args.p_bits > MAX_P_BITS:
            raise ValueError(f"--p-bits must be at most {MAX_P_BITS}, got {args.p_bits}")
        if args.q_bits < 2:  # a 1-bit candidate is always 1, never prime
            raise ValueError(f"--q-bits must be at least 2, got {args.q_bits}")
        # p = 2kq + 1 with k of k_bits bits; at k_bits = 1 (k = 1), p is
        # always one bit short of --p-bits
        k_bits = args.p_bits - args.q_bits - 1
        if k_bits < 2:
            raise ValueError(
                f"--q-bits must be below --p-bits - 2, got {args.q_bits} and {args.p_bits}"
            )
        q, tried = _gen_prime(args.q_bits, rng), set()
        while True:
            k = rng.getrandbits(k_bits) | (1 << (k_bits - 1))
            p = 2 * k * q + 1
            if p.bit_length() == args.p_bits and is_probable_prime(p):
                break
            tried.add(k)
            if len(tried) == 1 << (k_bits - 1):  # no k works for this q
                q, tried = _gen_prime(args.q_bits, rng), set()
        g = gas_harn.derive_generator(Prime(p), Prime(q))
        out = {"name": f"harn-{args.p_bits}-{args.q_bits}", "p": str(p), "q": str(q),
               "g": str(g.residue)}
    else:  # curve
        if args.modulus > ec._BRUTE_FORCE_LIMIT:  # before Prime's primality test
            raise ValueError(f"modulus {args.modulus} too large to enumerate")
        p = Prime(args.modulus)
        a, b, gx, gy = map(p.element, (args.a, args.b, args.gx, args.gy))
        curve = CurveParams(a=a, b=b, modulus=p, generator=CurvePoint(gx, gy),
                            name="generated")
        order = brute_force_order(curve)
        sub, cofactor = _largest_prime_factor(order)
        gen = scalar_mul(cofactor, curve.generator, curve)
        if gen.is_infinity:
            raise ValueError("base point collapses under cofactor clearing; pick another")
        out = curve_to_dict(
            dataclasses.replace(curve, generator=gen, order=order, subgroup_order=sub)
        )
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

    # a flag left out is absent from args, so the scenario keeps its default
    p = sub.add_parser("simulate", help="run one scenario (CSV report)",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--scenario", help="scenario JSON file or builtin:{paper-fig3,paper-fig4}; "
                   "takes no other scenario flag")
    p.add_argument("--scheme", choices=sim.SCHEME_CHOICES)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", type=float)
    p.add_argument("--schedule", choices=sim.SCHEDULE_CHOICES)
    p.add_argument("--curve", dest="curve_ref")
    p.add_argument("--harn", dest="harn_ref")
    p.add_argument("--events",
                   help="write the reports with their event logs as JSON to this path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="grid of (scheme, m) runs (CSV)")
    p.add_argument("--schemes", default="harn,chien,proposed-centralized",
                   help="comma-separated; 'chien' emits cost-model rows")
    p.add_argument("--m-list", default="10,50")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per simulated run; output order is fixed")
    p.add_argument("--events", default=None,
                   help="write the reports with their event logs as JSON to this path")
    p.set_defaults(func=_cmd_sweep)

    # a flag left out is absent from args, so the scenario keeps its default
    p = sub.add_parser("attack", help="run an adversary scenario (JSON findings)",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--name", required=True,
                   help=f"one of: {', '.join(attacks.ATTACK_NAMES)}")
    p.add_argument("--rotate", action="store_true",
                   help="rotate credentials before/after the attack (replay, node-compromise)")
    p.add_argument("--mode", choices=("centralized", "decentralized"))
    p.add_argument("--scheme", choices=("proposed", "harn"),
                   help="the scheme whose frames eavesdrop scans")
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--leaky", action="store_true",
                   help="eavesdrop negative control: leak one raw share")
    p.add_argument("--seed", type=int)
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
    try:
        return args.func(args)
    except OSError as exc:  # an unreadable or unwritable file
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        _err(f"{reason}: {exc.filename}" if exc.filename is not None else str(exc))
    except ValueError as exc:  # bad input; ScenarioError and JSON errors included
        _err(str(exc))
    return 2


if __name__ == "__main__":
    sys.exit(main())
