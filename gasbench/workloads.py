"""The three benchmark workloads, driven only through public gaskit calls.

``session-p160`` and ``session-toy`` run back-to-back honest protocol
sessions in which every message crosses the wire format; ``figures``
regenerates the paper's comparison CSVs through ``gaskit.cli.main``.  A
workload runs in units (one session, or one figures pass); each unit is
checked, and returns its timings, its operation counts and a digest of its
outputs, so a traced replay of the same unit can be compared exactly.

Timings are laps, (end, duration) pairs, so that run.py can give each at the
reference host speed; the host-speed kernel runs between laps, never inside
one (see hostspeed.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from gaskit import cli, gas_core, gas_harn, sim, sss, wire
from gaskit.ec import builtin_curve
from gaskit.field import MulCounter

from hostspeed import HostSpeed
from tracer import Tracer

REFERENCE_CSV = Path(__file__).with_name("figures_reference.csv")
FIGURE_SCHEMES = "harn,chien,proposed-centralized,proposed-decentralized"
FIGURE_M_LIST = "10,20,30,40,50"
_NO_SPAN = contextlib.nullcontext()
# Session steps from the first confirmation to both verdicts, and from
# authenticated to every member holding the verified group key.
AUTH_STEPS = ("confirm", "deliver", "gm_verify", "dverify")
GROUP_KEY_STEPS = ("pairwise", "seal", "open_reconstruct")

Lap = tuple[float, float]  # (end, duration), perf_counter seconds


@dataclass
class Unit:
    """What one checked unit of work produced."""

    wall_s: float
    digest: str
    field_muls: int
    ec_scalar_muls: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    # step kind -> its laps; the laps partition wall_s
    laps: dict[str, list[Lap]] = field(default_factory=dict)
    # the laps that fall in an authentication, a subset of `laps`
    auth: dict[str, list[Lap]] = field(default_factory=dict)
    # one member's confirmation compute, one lap per member
    confirm_s: list[Lap] = field(default_factory=list)


class _LapClock:
    """Consecutive laps from start(), grouped by step kind.

    The host-speed kernel may run after a lap; the next lap starts after it.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.laps: dict[str, list[Lap]] = {}
        self.last = 0.0

    def start(self) -> None:
        self.last = self.speed.tick(perf_counter())

    def lap(self, kind: str) -> None:
        now = perf_counter()
        self.laps.setdefault(kind, []).append((now, now - self.last))
        self.last = self.speed.tick(now)

    def total(self) -> float:
        return sum(dur for laps in self.laps.values() for _, dur in laps)


def unit_seed(workload: str, seed: int, index: int) -> int:
    """Seed of the index-th unit, derived from the workload seed alone."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Honest protocol sessions

class SessionWorkload:
    """Back-to-back honest sessions with m = n members and threshold t."""

    per_unit = "session"
    per_unit_plural = "sessions"
    attempted_per_unit = 1

    def __init__(self, name: str, curve_name: str, m: int, t: int):
        self.name = name
        self.curve_name = curve_name
        self.m = m
        self.t = t
        self.curve = None
        self.speed = HostSpeed()

    def load_params(self) -> None:
        self.curve = builtin_curve(self.curve_name)
        self.curve.scalar_field()

    def self_check(self) -> list[str]:
        return []

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def expected_scalar_muls(self) -> int:
        # deal 1 + confirm m + gm_verify m + decentralized m + ECDH m(m-1)
        # + rotation deal 1
        return self.m * self.m + 2 * self.m + 2

    def run_unit(self, seed: int, index: int, tracer: Tracer | None = None) -> Unit:
        phase = (
            (lambda name: tracer.span(f"gas_core.phase.{name}"))
            if tracer is not None else (lambda name: _NO_SPAN)
        )
        m, t, curve = self.m, self.t, self.curve
        rng = random.Random(unit_seed(self.name, seed, index))
        problems: list[str] = []
        clock = _LapClock(self.speed)
        with MulCounter() as ops:
            clock.start()
            with phase("deal"):
                config, shares = gas_core.gm_init(t, m, curve, rng)
                ids = config.member_ids
                states = {
                    s.member_id: gas_core.MemberState(share=s, config=config)
                    for s in shares
                }
                clock.lap("deal")
            own: dict[str, gas_core.PublicShare] = {}
            frames: dict[str, bytes] = {}

            with phase("confirm"):
                for mid, state in states.items():
                    tems_before = ops.ec_scalar_muls
                    ps = gas_core.make_public_share(state)
                    frames[mid] = gas_core.public_share_frame(ps, config.epoch)
                    clock.lap("confirm")
                    own[mid] = ps
                    if ops.ec_scalar_muls - tems_before != 1:
                        problems.append(f"{mid}: confirmation took "
                                        f"{ops.ec_scalar_muls - tems_before} scalar mults")
                for sender, frame in frames.items():
                    for mid, state in states.items():
                        if mid != sender:
                            epoch, ps = gas_core.public_share_from_frame(frame, config)
                            if epoch != config.epoch or ps != own[sender]:
                                problems.append(f"{mid}: bad public share from {sender}")
                            state.receive_public_share(ps)
                    clock.lap("deliver")
            with phase("gm_verify"):
                # The GM checks each member's share as its frame arrives.
                verdicts: dict[str, bool] = {}
                for frame in frames.values():
                    ps = gas_core.public_share_from_frame(frame, config)[1]
                    verdicts.update(gas_core.gm_verify(config, shares, [ps]))
                    clock.lap("gm_verify")
            with phase("dverify"):
                verifier = states[ids[0]]
                view = [own[ids[0]]] + [
                    verifier.received_public_shares[mid] for mid in ids[1:]
                ]
                dverified = gas_core.decentralized_verify(config, view)
                clock.lap("dverify")

            with phase("pairwise"):
                for state in states.values():
                    gas_core.ensure_pairwise_keys(state)
                    clock.lap("pairwise")
            with phase("seal"):
                inboxes: dict[str, dict[str, bytes]] = {mid: {} for mid in ids}
                for sender, state in states.items():
                    for peer in ids:
                        if peer == sender:
                            continue
                        payload = gas_core.encrypt_share_for_peer(state, peer, rng)
                        frame = wire.decode_frame(wire.encode_frame(
                            wire.ENCRYPTED_SHARE, config.epoch, sender, payload
                        ))
                        if frame.msg_type != wire.ENCRYPTED_SHARE or frame.epoch != config.epoch:
                            problems.append(f"{sender}->{peer}: bad frame header")
                        inboxes[peer][frame.member_id] = frame.payload
                    clock.lap("seal")
            with phase("open_reconstruct"):
                keys = {}
                for mid, state in states.items():
                    keys[mid] = gas_core.key_agreement_round(state, inboxes[mid])
                    clock.lap("open_reconstruct")

            with phase("rotate"):
                rotation = gas_core.rotate_credentials(config, keys[ids[0]], rng)
                clock.lap("rotate")
                opened = {}
                for mid in ids:
                    opened[mid] = gas_core.open_rotated_share(
                        mid, keys[mid], rotation.encrypted_bundle[mid], rotation.config
                    )
                    clock.lap("rotate_open")

        # Checks, outside the timed region and the operation count.
        if len(verdicts) != m or not all(verdicts.values()):
            problems.append(f"gm_verify rejected {[k for k, v in verdicts.items() if not v]}")
        if not dverified:
            problems.append("decentralized_verify rejected the honest group")
        key = keys[ids[0]]
        if any(k != key for k in keys.values()) or any(
            s.group_key != key for s in states.values()
        ):
            problems.append("members disagree on the group key")
        if not sss.verify_commitment(key, config.commitment):
            problems.append("group key does not match H(s)")
        dealt = {s.member_id: s for s in rotation.shares}
        if opened != dealt:
            problems.append("rotated shares do not open to what the GM dealt")
        new_secret = sss.reconstruct(list(opened.values()), t)
        if not sss.verify_commitment(new_secret, rotation.config.commitment):
            problems.append("rotated shares do not reconstruct to the new H(s)")
        if ops.ec_scalar_muls != self.expected_scalar_muls():
            problems.append(f"{ops.ec_scalar_muls} scalar mults, expected "
                            f"{self.expected_scalar_muls()}")

        h = hashlib.sha256()
        h.update(config.commitment.digest)
        for mid in ids:
            h.update(frames[mid])
            h.update(opened[mid].y.to_bytes())
        h.update(key.to_bytes())
        h.update(rotation.config.commitment.digest)
        return Unit(
            wall_s=clock.total(),
            digest=h.hexdigest(),
            field_muls=ops.field_muls,
            ec_scalar_muls=ops.ec_scalar_muls,
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            laps=clock.laps,
            auth={kind: clock.laps[kind] for kind in AUTH_STEPS},
            confirm_s=clock.laps["confirm"],
        )


# ---------------------------------------------------------------------------
# Figure regeneration

class SimTap:
    """Times the simulator's protocol calls from outside, as laps.

    Inside each `sim.run`, every call to a tapped function is a lap of its
    own kind: f(x_i)*P, or a Harn release, verify call or modulus load,
    keyed by m where the work depends on it.  The time between two tapped
    calls is a lap of kind "<scheme>@<m>:<i>", the i-th lap of that run,
    which is the same work in every pass.  A run's laps from its first
    confirmation compute to its last verdict are its authentication.  Also
    kept: each run's report, for its verdict, and the time of every
    f(x_i)*P, the paper's per-device cost.  About 1,500 tapped calls per
    figures pass, against seconds of work.  The host-speed kernel may run
    after a tapped call, outside every lap.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self._undo: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.reports: list[sim.SimReport] = []
        self.laps: dict[str, list[Lap]] = {}
        self.auth: dict[str, list[Lap]] = {}
        self.confirm_s: list[Lap] = []
        self._run: list[tuple[str, Lap, str | None]] | None = None
        self._name = ""
        self._m = 0
        self._mark = 0.0

    def _gap(self, now: float) -> None:
        self._run.append((f"{self._name}:{len(self._run)}", (now, now - self._mark), None))

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        def run(orig):
            def wrapper(scenario):
                self._run = []
                self._name = f"{scenario.scheme}@{scenario.m}"
                self._m = scenario.m
                self._mark = self.speed.tick(perf_counter())
                try:
                    report = orig(scenario)
                finally:
                    self._gap(perf_counter())
                    laps, self._run = self._run, None
                self.reports.append(report)
                roles = [role for _, _, role in laps]
                auth = range(0)
                if report.authenticated and "confirm" in roles and "verdict" in roles:
                    last = len(roles) - 1 - roles[::-1].index("verdict")
                    auth = range(roles.index("confirm"), last + 1)
                for i, (kind, lap, _) in enumerate(laps):
                    self.laps.setdefault(kind, []).append(lap)
                    if i in auth:
                        self.auth.setdefault(kind, []).append(lap)
                return report
            return wrapper

        def tapped(name, per_m, role):
            def make(orig):
                def wrapper(*args, **kwargs):
                    if self._run is None:
                        return orig(*args, **kwargs)
                    t0 = perf_counter()
                    self._gap(t0)
                    result = orig(*args, **kwargs)
                    end = perf_counter()
                    kind = f"{name}@{self._m}" if per_m else name
                    self._run.append((kind, (end, end - t0), role))
                    if name == "make_public_share":
                        self.confirm_s.append((end, end - t0))
                    self._mark = self.speed.tick(end)
                    return result
                return wrapper
            return make

        self._patch(sim, "run", run)
        for owner, name, per_m, role in (
            (gas_core, "make_public_share", False, "confirm"),
            (gas_harn, "harn_release", True, "confirm"),
            (gas_core, "gm_verify", True, "verdict"),
            (gas_core, "decentralized_verify", True, "verdict"),
            (gas_harn, "harn_verify", True, "verdict"),
            (sim, "builtin_harn_modulus", False, None),
        ):
            self._patch(owner, name, tapped(name, per_m, role))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def take(self) -> tuple[list, dict, dict, list[float]]:
        """What was recorded since the last take(), and start afresh."""
        out = (self.reports, self.laps, self.auth, self.confirm_s)
        self._reset()
        return out


def figure_commands(seed: int) -> list[list[str]]:
    return [
        ["simulate", "--scenario", "builtin:paper-fig3"],
        ["simulate", "--scenario", "builtin:paper-fig4"],
        ["sweep", "--schemes", FIGURE_SCHEMES, "--m-list", FIGURE_M_LIST,
         "--jobs", "1", "--seed", str(seed)],
    ]


def failed_rows(text: str, reference: str, reports: list) -> tuple[int, int]:
    """(data rows, failed rows) of a figures CSV against the reference.

    A row fails when it differs from the reference, or when the simulator
    run behind it did not authenticate.  Rows come in the order of their
    runs; Chien rows are cost-model output and have no run.
    """
    lines, ref = text.splitlines(), reference.splitlines()
    header = ref[0]
    rows = [i for i, line in enumerate(ref) if line != header]
    if len(lines) != len(ref):
        return len(rows), len(rows)
    runs = iter(reports)
    failed = 0
    for i in rows:
        ok = lines[i] == ref[i]
        if not ref[i].startswith("chien,"):
            report = next(runs, None)
            ok = ok and report is not None and report.authenticated
        failed += not ok
    return len(rows), failed


class FiguresWorkload:
    """fig3, fig4 and the four-scheme sweep, in-process through the CLI."""

    name = "figures"
    per_unit = "figures pass"
    per_unit_plural = "figures passes"

    def __init__(self) -> None:
        self.reference = REFERENCE_CSV.read_text(encoding="utf-8")
        self.attempted_per_unit, _ = failed_rows(self.reference, self.reference, [])
        self.speed = HostSpeed()
        self.tap = SimTap(self.speed)

    def load_params(self) -> None:
        builtin_curve("secp160r1").scalar_field()
        gas_harn.builtin_harn_modulus("harn-1024-160")

    def start(self) -> None:
        self.tap.install()

    def stop(self) -> None:
        self.tap.uninstall()

    def self_check(self) -> list[str]:
        """Negative control: one corrupted row is caught, and only that row."""
        lines = self.reference.splitlines(keepends=True)
        i = len(lines) // 2
        lines[i] = lines[i].rstrip("\n") + "1\n"
        honest = [SimpleNamespace(authenticated=True)] * len(lines)
        attempted, failed = failed_rows("".join(lines), self.reference, honest)
        if failed != 1:
            return [f"negative control: a corrupted row gave {failed} of "
                    f"{attempted} rows failed, expected 1"]
        return []

    def run_unit(self, seed: int, index: int, tracer: Tracer | None = None) -> Unit:
        problems: list[str] = []
        out = io.StringIO()
        err = io.StringIO()
        kernel_runs = len(self.speed.took)
        t_start = perf_counter()
        with MulCounter() as ops, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            for argv in figure_commands(seed):
                span = tracer.span("cli.main") if tracer is not None else _NO_SPAN
                with span:
                    code = cli.main(argv)
                if code != 0:
                    problems.append(f"gaskit {' '.join(argv)} exited {code}")
        text = out.getvalue()
        reports, laps, auth, confirm_s = self.tap.take()
        attempted, failed = failed_rows(text, self.reference, reports)
        t_end = perf_counter()
        wall_s = t_end - t_start - sum(self.speed.took[kernel_runs:])
        # The simulator runs' laps, plus one for everything else in the pass.
        laps["cli+check"] = [
            (t_end, wall_s - sum(dur for kind in laps.values() for _, dur in kind))
        ]
        if err.getvalue():
            problems.append(f"gaskit wrote to stderr: {err.getvalue().strip()}")
        if problems:  # a command failed as a whole: count all its rows
            failed = attempted
        elif failed:
            problems.append(f"{failed} of {attempted} figure rows wrong or unauthenticated")
        return Unit(
            wall_s=wall_s,
            digest=hashlib.sha256(text.encode()).hexdigest(),
            field_muls=ops.field_muls,
            ec_scalar_muls=ops.ec_scalar_muls,
            attempted=attempted,
            failed=failed,
            problems=problems,
            laps=laps,
            auth=auth,
            confirm_s=confirm_s,
        )


def make(name: str):
    if name == "session-p160":
        return SessionWorkload(name, "secp160r1", m=30, t=15)
    if name == "session-toy":
        return SessionWorkload(name, "test2017", m=36, t=18)
    if name == "figures":
        return FiguresWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("session-p160", "session-toy", "figures")
