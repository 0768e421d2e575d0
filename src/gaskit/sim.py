"""Deterministic simulator of a one-hop wireless group authentication run.

One GM (centralized variants) plus m member nodes share a serialized
broadcast channel: one frame in flight at a time at 1 Mbit/s (`BITRATE`),
optional uniform frame loss.  The default ``slotted`` schedule grants each
member one slot per round in which it performs its confirmation compute and
then transmits - duty-cycled sensors driven by the channel schedule.  That
makes authentication time scale linearly with the group size, which is the
shape of the published measurements for both schemes.

Two ledgers run side by side:

* protocol verdicts and frame bytes come from executing the real protocol
  (`gas_core` / `gas_harn`) on the scenario's parameter set;
* compute durations and energies use the analytical per-operation constants
  from `cost_model` (T_mul,q units), so a node's simulated work matches the
  published per-user totals exactly.

Energy per node = `JOULES_PER_TMULQ` * (tmulq + bytes sent + bytes received):
a radio byte costs one T_mul,q, so one calibration point fixes both scales.
`COMPUTE_RATE` and `JOULES_PER_TMULQ` are module constants, as the
channel's are; no scenario sets them.

Each run records an event log (`SimReport.events`: every compute step,
frame and decision) unless it runs inside ``event_log(False)``; then it
builds none, not even an event's arguments, and its `events` is empty,
every other field the same.  The
log is a run's only O(m^2) memory: m^2 + 2m + 2 events per authenticated
Harn run, 3m + 3 per authenticated proposed run.  The CLI records only
under ``--events``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import json
import math
import random
import types
import typing
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Mapping

from . import cost_model, gas_core, gas_harn, wire
from .ec import CurveParams, builtin_curve, load_curve
# Not called here; the benchmark's tracer binds it by name in this module.
from .ec import scalar_mul  # noqa: F401
from .gas_harn import HarnModulus, builtin_harn_modulus, load_harn_modulus
from .sss import guessed_share, roster_ids

__all__ = [
    "SCHEME_CHOICES",
    "SCHEDULE_CHOICES",
    "COMPUTE_RATE",
    "JOULES_PER_TMULQ",
    "BITRATE",
    "GM_SPEEDUP",
    "MAX_RETRIES",
    "BACKOFF_SLOT_S",
    "MAX_GROUP_SIZE",
    "ScenarioError",
    "Scenario",
    "NodeReport",
    "SimReport",
    "run",
    "event_log",
    "sweep",
    "derive_seed",
    "chien_model_row",
    "preset",
    "PRESETS",
    "resolve_curve",
    "resolve_harn",
]

SCHEME_CHOICES = ("harn", "proposed-centralized", "proposed-decentralized")
SCHEDULE_CHOICES = ("slotted", "staggered", "flood")
PRESETS = ("paper-fig3", "paper-fig4")

# One-point calibrations, frozen (the test suite derives both again):
# compute rate makes proposed-centralized at m=10 authenticate in 1.3 s;
# the joules per T_mul,q then put that run's member node at 0.014 J.
COMPUTE_RATE = 9267.3278634885  # T_mul,q per second per member node
JOULES_PER_TMULQ = 1.12e-05  # joules (0.014 J / (1189 + 61 byte-equivalents))

# The node model the published figures assume, the same in every run.
BITRATE = 1_000_000.0  # channel bits per second
GM_SPEEDUP = 10.0  # the GM computes this many times faster than a member
MAX_RETRIES = 3  # confirmation rounds after the first
BACKOFF_SLOT_S = 0.01  # flood schedule backoff slot

# The largest group a scenario may ask for, 20 times the paper's largest
# (m = 50); a Harn run's work grows as m^2.
MAX_GROUP_SIZE = 1000

_VERDICT_PAYLOAD = b"\x01"


class ScenarioError(ValueError):
    """Raised with every validation problem listed at once."""


@dataclass
class Scenario:
    scheme: str
    m: int
    t: int | None = None
    schedule: str = "slotted"
    loss: float = 0.0
    seed: int = 1
    curve_ref: str = "builtin:secp160r1"
    harn_ref: str = "builtin:harn-1024-160"
    adversary: str | None = None  # the member whose seat holds an invalid share

    def resolved_threshold(self) -> int:
        return self.t if self.t is not None else max(1, math.ceil(self.m / 2))

    def validate(self) -> None:
        problems = [
            f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}"
            for f in fields(self)
            if not _admits(_FIELD_HINTS[f.name], getattr(self, f.name))
        ]
        if problems:  # the checks below compare values of the declared types
            raise ScenarioError("; ".join(problems))
        if self.scheme not in SCHEME_CHOICES:
            problems.append(f"scheme must be one of {SCHEME_CHOICES}, got {self.scheme!r}")
        if self.m < 1:
            problems.append(f"m must be >= 1, got {self.m}")
        if self.m > MAX_GROUP_SIZE:
            problems.append(f"m must be <= {MAX_GROUP_SIZE}, got {self.m}")
        if self.t is not None and not 1 <= self.t <= self.m:
            problems.append(f"t must satisfy 1 <= t <= m, got t={self.t} m={self.m}")
        if not math.isfinite(self.loss):
            problems.append("loss must be finite")
        elif not 0.0 <= self.loss <= 1.0:
            problems.append(f"loss must be in [0, 1], got {self.loss}")
        if self.schedule not in SCHEDULE_CHOICES:
            problems.append(f"schedule must be one of {SCHEDULE_CHOICES}")
        if self.scheme == "harn" and self.schedule != "slotted":
            problems.append("harn supports only the slotted schedule")
        # gm_init, harn_init ids; an m over the bound is reported above
        if (self.adversary is not None and self.m <= MAX_GROUP_SIZE
                and self.adversary not in roster_ids(self.m)):
            problems.append(f"adversary must be one of U1..U{self.m}, got {self.adversary!r}")
        if problems:
            raise ScenarioError("; ".join(problems))

    @classmethod
    def from_dict(cls, data: Mapping) -> "Scenario":
        if not isinstance(data, Mapping):
            raise ScenarioError(f"a scenario must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ScenarioError(f"missing scenario fields: {missing}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_FIELD_HINTS = typing.get_type_hints(Scenario)


def _admits(hint, value) -> bool:
    """Whether a value read from JSON has the type a Scenario field declares.

    A float field takes ints too; a bool is never a number.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_admits(arg, value) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


@dataclass
class NodeReport:
    member_id: str
    role: str  # member | verifier | gm
    tmulq_count: int = 0
    compute_j: float = 0.0
    radio_j: float = 0.0
    total_j: float = 0.0
    bytes_tx: int = 0
    bytes_rx: int = 0
    messages: int = 0


@dataclass
class SimReport:
    scheme: str
    m: int
    t: int
    seed: int
    outcome: str  # authenticated | failed
    failure_reason: str | None
    auth_time_s: float
    rounds_used: int
    verifier: str
    culprits: list[str]
    channel_bytes_transmitted: int
    channel_bytes_delivered: int
    max_verifier_queue: int
    per_node: list[NodeReport]
    events: list[dict]  # empty unless the run recorded; see `event_log`

    @property
    def authenticated(self) -> bool:
        return self.outcome == "authenticated"

    def representative_member(self) -> NodeReport:
        for rep in self.per_node:
            if rep.role == "member":
                return rep
        return self.per_node[0]

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_row(self) -> str:
        rep = self.representative_member()
        return cost_model.csv_row(
            self.scheme,
            self.m,
            rep.tmulq_count,
            cost_model.EnergyBreakdown(rep.compute_j, rep.radio_j),
            self.auth_time_s,
        )


def derive_seed(base_seed: int, scheme: str, m: int) -> int:
    digest = hashlib.sha256(f"{base_seed}/{scheme}/{m}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# Engine internals

# Whether runs in this execution context record their event log; see
# `event_log`.  `contextvars` keeps the choice isolated across threads/tasks.
_RECORD: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "gaskit_sim_event_log", default=True
)


@contextlib.contextmanager
def event_log(enabled: bool):
    """Record (or not) the event log of every `run` inside the block.

    Outside any block runs record.  A worker process of `sweep` gets the
    choice of the caller's context as an argument, not by inheritance.
    """
    token = _RECORD.set(enabled)
    try:
        yield
    finally:
        _RECORD.reset(token)


class _Run:
    """Mutable state of one simulation: clocks, ledgers, event log."""

    def __init__(self, scenario: Scenario):
        self.scn = scenario
        self.rng = random.Random(scenario.seed)
        self.now = 0.0
        self.recording = _RECORD.get()  # read once per run
        self.events: list[dict] = []
        self.nodes: dict[str, NodeReport] = {}
        self.node_busy: dict[str, float] = {}
        self.channel_tx = 0
        self.channel_rx = 0
        self.max_queue = 0

    def add_node(self, member_id: str, role: str) -> None:
        self.nodes[member_id] = NodeReport(member_id=member_id, role=role)
        self.node_busy[member_id] = 0.0

    def log(self, t: float, kind: str, node: str, **info) -> None:
        """Append one event; callers test `recording` first, so a run that
        records nothing does not even build the arguments."""
        self.events.append({"t": round(t, 9), "kind": kind, "node": node, **info})

    def node_speed(self, member_id: str) -> float:
        factor = GM_SPEEDUP if member_id == "GM" else 1.0
        return COMPUTE_RATE * factor

    def compute(self, member_id: str, tmulq: int, start: float, kind: str) -> float:
        """Run `tmulq` of work on the node's CPU from `start`; returns end time."""
        begin = max(start, self.node_busy[member_id])
        end = begin + tmulq / self.node_speed(member_id)
        self.node_busy[member_id] = end
        self.nodes[member_id].tmulq_count += tmulq
        if self.recording:
            self.log(begin, kind, member_id, tmulq=tmulq, end=round(end, 9))
        return end

    def airtime(self, nbytes: int) -> float:
        return nbytes * 8.0 / BITRATE

    def transmit(
        self, sender: str, nbytes: int, start: float, receivers: list[str]
    ) -> tuple[float, bool]:
        """Send one frame; returns (delivery_time, delivered)."""
        end = start + self.airtime(nbytes)
        self.nodes[sender].bytes_tx += nbytes
        self.nodes[sender].messages += 1
        self.channel_tx += nbytes
        lost = self.rng.random() < self.scn.loss
        if lost:
            if self.recording:
                self.log(start, "frame-lost", sender, bytes=nbytes)
            return end, False
        self.channel_rx += nbytes
        for rx in receivers:
            self.nodes[rx].bytes_rx += nbytes
            self.nodes[rx].messages += 1
        if self.recording:
            self.log(start, "tx", sender, bytes=nbytes, delivered_at=round(end, 9))
        return end, True

    def finish(
        self,
        outcome: str,
        reason: str | None,
        auth_time: float,
        rounds: int,
        verifier: str,
        culprits: list[str],
    ) -> SimReport:
        scn = self.scn
        for rep in self.nodes.values():
            spent = cost_model.energy(
                rep.tmulq_count, JOULES_PER_TMULQ, rep.bytes_tx, rep.bytes_rx
            )
            rep.compute_j, rep.radio_j, rep.total_j = spent.compute_j, spent.radio_j, spent.total_j
        return SimReport(
            scheme=scn.scheme,
            m=scn.m,
            t=scn.resolved_threshold(),
            seed=scn.seed,
            outcome=outcome,
            failure_reason=reason,
            auth_time_s=auth_time,
            rounds_used=rounds,
            verifier=verifier,
            culprits=culprits,
            per_node=list(self.nodes.values()),
            channel_bytes_transmitted=self.channel_tx,
            channel_bytes_delivered=self.channel_rx,
            max_verifier_queue=self.max_queue,
            events=self.events,
        )


def resolve_curve(ref: str) -> CurveParams:
    """A curve from ``builtin:<name>`` or a parameter file path."""
    if ref.startswith("builtin:"):
        return builtin_curve(ref.split(":", 1)[1])
    return load_curve(ref)


def resolve_harn(ref: str) -> HarnModulus:
    """A Harn modulus from ``builtin:<name>`` or a parameter file path."""
    if ref.startswith("builtin:"):
        return builtin_harn_modulus(ref.split(":", 1)[1])
    return load_harn_modulus(ref)


def _run_proposed(scn: Scenario) -> SimReport:
    centralized = scn.scheme == "proposed-centralized"
    t = scn.resolved_threshold()
    curve = resolve_curve(scn.curve_ref)
    run = _Run(scn)
    rng = run.rng

    config, shares = gas_core.gm_init(t, scn.m, curve, rng)
    member_ids = config.member_ids
    # the GM checks a centralized round; any member could check a decentralized one
    verifier = "GM" if centralized else member_ids[0]
    if centralized:
        run.add_node("GM", "gm")
    for mid in member_ids:
        run.add_node(mid, "verifier" if mid == verifier else "member")

    # each member's whole confirmation compute: f(x_i)P, once; the attacker
    # lacks f(x_i) and broadcasts the point of a guessed share in its place
    seats = [guessed_share(s, rng) if s.member_id == scn.adversary else s for s in shares]
    frames = {
        s.member_id: gas_core.public_share_frame(
            gas_core.make_public_share(gas_core.MemberState(share=s, config=config)), config.epoch
        )
        for s in seats
    }

    verify_cost = (
        cost_model.TEM_TMULQ
        if centralized
        else cost_model.DECENTRAL_VERIFY_PER_SHARE
    )
    member_cost = cost_model.TEM_TMULQ
    participants = list(member_ids)
    culprits: list[str] = []

    for round_no in range(MAX_RETRIES + 1):
        rounds = round_no + 1
        if run.recording:
            run.log(run.now, "round-start", verifier, round=rounds,
                    participants=len(participants))
        delivered: dict[str, bytes] = {}
        arrivals: list[tuple[float, str]] = []

        if scn.schedule == "slotted":
            cursor = run.now
        else:
            # staggered / flood: everyone precomputes in parallel
            ready = 0.0
            for mid in participants:
                ready = max(ready, run.compute(mid, member_cost, run.now, "confirm-compute"))
            cursor = ready
            service = verify_cost / run.node_speed(verifier)
            spacing = max(run.airtime(len(frames[participants[0]])), service)
        # one frame in flight at a time; the schedule sets each start
        for i, mid in enumerate(participants):
            if scn.schedule == "slotted":
                start = run.compute(mid, member_cost, cursor, "confirm-compute")
            elif scn.schedule == "staggered":
                start = ready + i * spacing
            else:  # flood: backoff shrinks as fewer senders contend
                start = cursor + BACKOFF_SLOT_S * (len(participants) - i)
            frame = frames[mid]
            # the verifier consumes its own share locally but still
            # broadcasts it for the rest of the group
            deliver_to = [] if mid == verifier else [verifier]
            done, ok = run.transmit(mid, len(frame), start, deliver_to)
            if ok or mid == verifier:
                delivered[mid] = frame
                arrivals.append((done, mid))
            cursor = done

        # verifier pipeline: one verification step per delivered share
        queue_finish: list[float] = []
        decision_at = cursor  # even an empty round lasts its channel slots
        for arrival, mid in arrivals:
            depth = sum(1 for f in queue_finish if f > arrival) + 1
            run.max_queue = max(run.max_queue, depth)
            end = run.compute(verifier, verify_cost, arrival, "verify-step")
            queue_finish.append(end)
            decision_at = max(decision_at, end)
        run.now = decision_at

        # every frame is `make_public_share`'s, of a dealt or guessed share,
        # so the decode never refuses one
        received = [
            gas_core.public_share_from_frame(delivered[mid], config)[1]
            for mid in participants
            if mid in delivered
        ]
        missing = [mid for mid in participants if mid not in delivered]

        accepted = False
        round_culprits: list[str] = []
        if not missing:
            if centralized:
                verdicts = gas_core.gm_verify(config, shares, received)
                round_culprits = sorted(mid for mid, ok in verdicts.items() if not ok)
                accepted = not round_culprits
            else:
                accepted = gas_core.decentralized_verify(config, received)
        if run.recording:
            run.log(run.now, "decision", verifier, round=rounds, accepted=accepted,
                    missing=missing, culprits=round_culprits)

        # verdict broadcast (everyone but the verifier listens)
        verdict_frame = wire.encode_frame(
            wire.VERDICT, config.epoch, verifier, _VERDICT_PAYLOAD
        )
        listeners = [mid for mid in participants if mid != verifier]
        done, _ = run.transmit(verifier, len(verdict_frame), run.now, listeners)
        run.now = done

        if accepted:
            return run.finish("authenticated", None, decision_at, rounds, verifier, culprits)

        if round_culprits and centralized:
            # isolate the culprits and retry with the honest subset
            culprits = sorted(set(culprits) | set(round_culprits))
            participants = [mid for mid in participants if mid not in round_culprits]
            if len(participants) < t:
                return run.finish(
                    "failed", "below-threshold-after-isolation", decision_at,
                    rounds, verifier, culprits,
                )

        if round_no == MAX_RETRIES:
            reason = "no-progress" if missing else "denial-of-authentication"
            return run.finish("failed", reason, decision_at, rounds, verifier, culprits)

    raise AssertionError("unreachable")


def _run_harn(scn: Scenario) -> SimReport:
    t = scn.resolved_threshold()
    modulus = resolve_harn(scn.harn_ref)
    run = _Run(scn)
    rng = run.rng

    params, tokens = gas_harn.harn_init(t, scn.m, modulus, rng)
    member_ids = [tok.member_id for tok in tokens]
    for mid in member_ids:
        run.add_node(mid, "member")
    roster_xs = [tok.x for tok in tokens]
    releases = {
        tok.member_id: gas_harn.harn_release(tok, roster_xs, params) for tok in tokens
    }
    if scn.adversary is not None:  # its release carries one extra factor g
        bad = releases[scn.adversary]
        releases[scn.adversary] = gas_harn.HarnRelease(
            member_id=bad.member_id, x=bad.x, e=bad.e * params.modulus.g
        )
    frames = {mid: gas_harn.release_frame(rel) for mid, rel in releases.items()}

    release_cost = (
        cost_model.HARN_RELEASE_BASE + cost_model.HARN_LAGRANGE_PER_X * scn.m
    )
    accum_cost = cost_model.HARN_ACCUM_PER_MSG

    for round_no in range(MAX_RETRIES + 1):
        rounds = round_no + 1
        if run.recording:
            run.log(run.now, "round-start", member_ids[0], round=rounds,
                    participants=len(member_ids))
        cursor = run.now
        delivered: set[str] = set()
        for mid in member_ids:
            end = run.compute(mid, release_cost, cursor, "release-compute")
            others = [other for other in member_ids if other != mid]
            done, ok = run.transmit(mid, len(frames[mid]), end, others)
            # every node folds the release into its running product; the
            # sender multiplies its own in locally even if the frame is lost
            run.compute(mid, accum_cost, done, "accumulate")
            if ok:
                delivered.add(mid)
                for other in others:
                    run.compute(other, accum_cost, done, "accumulate")
            cursor = done

        decision_at = max(run.node_busy[mid] for mid in member_ids)
        run.now = decision_at
        missing = [mid for mid in member_ids if mid not in delivered]
        accepted = False
        if not missing:
            accepted = gas_harn.harn_verify(
                [releases[mid] for mid in member_ids], params
            )
        if run.recording:
            run.log(run.now, "decision", member_ids[0], round=rounds, accepted=accepted,
                    missing=missing)
        if accepted:
            return run.finish("authenticated", None, decision_at, rounds, "all", [])
        if round_no == MAX_RETRIES:
            reason = "no-progress" if missing else "denial-of-authentication"
            return run.finish("failed", reason, decision_at, rounds, "all", [])

    raise AssertionError("unreachable")


def run(scenario: Scenario) -> SimReport:
    scenario.validate()
    if scenario.scheme == "harn":
        return _run_harn(scenario)
    return _run_proposed(scenario)


def _run_with_log(record: bool, scenario: Scenario) -> SimReport:
    """`run` under ``event_log(record)``: what a `sweep` worker process runs."""
    with event_log(record):
        return run(scenario)


def sweep(
    schemes: list[str],
    ms: list[int],
    base: Scenario | None = None,
    jobs: int = 1,
) -> tuple[list[str], list[SimReport]]:
    """One CSV row per (scheme, m), scheme-major; seeds derived from the base seed.

    A scheme is one of `SCHEME_CHOICES`, run in the simulator, or "chien",
    whose rows come from the cost model (`chien_model_row`).  Unknown names
    raise ScenarioError before any run.  The reports are those of the
    simulator runs only, in row order.  `jobs` > 1 runs them in parallel
    worker processes, at most one per run; `jobs` < 1 raises ValueError.
    Each run has an isolated rng, so the output does not depend on `jobs`.
    Every scenario is validated before the first run.  A run records its
    event log as the caller's `event_log` context says, in a worker too.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    bad = [s for s in schemes if s != "chien" and s not in SCHEME_CHOICES]
    if bad:
        raise ScenarioError(f"unknown schemes {bad}; valid: {list(SCHEME_CHOICES)} plus chien")
    if base is None:
        base = Scenario(scheme="proposed-centralized", m=1)
    scenarios = [
        replace(base, scheme=scheme, m=m, t=None, seed=derive_seed(base.seed, scheme, m))
        for scheme in schemes
        if scheme != "chien"
        for m in ms
    ]
    for scn in scenarios:
        scn.validate()
    if jobs > 1 and len(scenarios) > 1:
        import concurrent.futures

        work = functools.partial(_run_with_log, _RECORD.get())
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(scenarios))) as pool:
            reports = list(pool.map(work, scenarios))
    else:
        reports = [run(scn) for scn in scenarios]
    simulated = iter(reports)
    rows = [
        chien_model_row(m, base.curve_ref) if scheme == "chien" else next(simulated).csv_row()
        for scheme in schemes
        for m in ms
    ]
    return rows, reports


# ---------------------------------------------------------------------------
# Chien baseline: cost-model-only row (the pairing step is not implemented)

def chien_model_row(m: int, curve_ref: str) -> str:
    """Synthesize the Chien datapoint on `curve_ref` under the same timeline assumptions."""
    if m > MAX_GROUP_SIZE:  # sized by roster_ids(m); runs are bounded by validate
        raise ScenarioError(f"m must be <= {MAX_GROUP_SIZE}, got {m}")
    g = resolve_curve(curve_ref).generator
    point = wire.encode_point_payload(g.x.to_bytes(), g.y.to_bytes())  # a public share's size
    frame_len = lambda mid: len(wire.encode_frame(wire.PUBLIC_SHARE, 1, mid, point))
    ids = roster_ids(m)
    release = lambda mm: cost_model.TEM_TMULQ + cost_model.CHIEN_LAGRANGE_PER_X * (mm - 1)
    auth_time = (
        sum(release(m) / COMPUTE_RATE + frame_len(mid) * 8.0 / BITRATE for mid in ids)
        + cost_model.CHIEN_VERIFY_TAIL / COMPUTE_RATE
    )
    tmulq = cost_model.per_user_cost("chien", m)
    spent = cost_model.energy(
        tmulq, JOULES_PER_TMULQ, frame_len(ids[0]), sum(frame_len(mid) for mid in ids[1:])
    )
    return cost_model.csv_row("chien", m, tmulq, spent, auth_time)


def preset(name: str) -> tuple[list[str], list[SimReport]]:
    """The two published comparison settings: m=10 (fig3) and m=50 (fig4)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid: {PRESETS}")
    return sweep(["harn", "chien", "proposed-centralized"], [10 if name == "paper-fig3" else 50])
