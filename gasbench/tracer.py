"""Spans recorded from outside gaskit, by wrapping public functions.

A wrapper replaces a function at the module binding its callers use (for
example ``gaskit.gas_core.scalar_mul``, which every protocol step calls).
Each call becomes one span: name, start, end, parent span and the id of the
unit (session or figures pass) it ran in.  Spans stay in memory, as tuples the
garbage collector soon stops scanning, until the run ends; per-layer metrics
are computed from them afterwards.

Self time of a span is its duration minus the durations of its direct
children.  Everything runs in one thread, so children nest strictly and do
not overlap.
"""

from __future__ import annotations

import statistics
from time import perf_counter

NAME, START, END, PARENT, UNIT, ERROR, NOTE = range(7)

# gaskit.gas_core functions the simulator calls, by protocol phase.  The
# session workloads open their own phase spans instead (see workloads.py).
PHASE_OF_FN = {
    "gm_init": "deal",
    "run_confirmation": "confirm",
    "make_public_share": "confirm",
    "public_share_frame": "confirm",
    "public_share_from_frame": "confirm",
    "gm_verify": "gm_verify",
    "decentralized_verify": "dverify",
}
PHASES = (
    "deal", "confirm", "gm_verify", "dverify",
    "pairwise", "seal", "open_reconstruct", "rotate",
)
WIRE_FNS = (
    "encode_frame", "decode_frame",
    "encode_point_payload", "decode_point_payload",
    "encode_encrypted_payload", "decode_encrypted_payload",
)


class Tracer:
    """Span recorder plus the set of wrappers it installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.unit = -1

    def call(self, name, fn, args, kwargs, note=None):
        """Run fn(*args, **kwargs) inside a span; `note(args, result)` tags it."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            spans[idx] = (name, start, perf_counter(), parent, self.unit, True, None)
            stack.pop()
            raise
        end = perf_counter()
        stack.pop()
        spans[idx] = (name, start, end, parent, self.unit, False,
                      None if note is None else note(args, result))
        return result

    def span(self, name):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, name)

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr by a spanning wrapper; `name` may be callable."""
        orig = getattr(owner, attr)
        call = self.call
        if callable(name):
            def wrapper(*args, **kwargs):
                return call(name(args), orig, args, kwargs, note)
        else:
            def wrapper(*args, **kwargs):
                return call(name, orig, args, kwargs, note)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def wrap_aead(self, owner, attr):
        """Replace an AEAD class binding so every seal and open is a span."""
        cls = getattr(owner, attr)
        call = self.call

        class TracedAead:
            __slots__ = ("_inner",)

            def __init__(self, key):
                self._inner = cls(key)

            def encrypt(self, *args):
                return call("gas_core.aead_seal", self._inner.encrypt, args, {})

            def decrypt(self, *args):
                return call("gas_core.aead_open", self._inner.decrypt, args, {})

        setattr(owner, attr, TracedAead)
        self._undo.append((owner, attr, cls))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class _Span:
    __slots__ = ("_tracer", "_name", "_idx", "_parent", "_start")

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        t = self._tracer
        self._idx = len(t.spans)
        self._parent = t._stack[-1] if t._stack else -1
        t.spans.append(None)
        t._stack.append(self._idx)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        t = self._tracer
        t._stack.pop()
        t.spans[self._idx] = (self._name, self._start, end, self._parent, t.unit,
                              exc_type is not None, None)
        return False


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the three workloads cross."""
    import gaskit.gas_core
    import gaskit.gas_harn
    import gaskit.sim
    import gaskit.sss
    import gaskit.wire

    gas_core, gas_harn, sim, wire = (
        gaskit.gas_core, gaskit.gas_harn, gaskit.sim, gaskit.wire
    )

    def ec_kind(args):
        pt, curve = args[1], args[2]
        fixed = pt is curve.generator or pt == curve.generator
        return "ec.fixed_base" if fixed else "ec.var_base"

    for owner in (gas_core, sim):
        tracer.wrap(owner, "scalar_mul", ec_kind)
    tracer.wrap(gas_core, "lagrange_coeff_at_zero", "field.lagrange")
    tracer.wrap(gaskit.sss, "lagrange_coeff_at_zero", "field.lagrange")
    tracer.wrap(gas_harn, "lagrange_coeff", "field.lagrange")
    tracer.wrap(gas_core, "reconstruct", "sss.reconstruct",
                note=lambda args, result: len(args[0]) / args[1])
    tracer.wrap_aead(gas_core, "ChaCha20Poly1305")
    for fn in PHASE_OF_FN:
        tracer.wrap(gas_core, fn, f"gas_core.{fn}")
    for fn in WIRE_FNS:
        note = (lambda args, result: len(result)) if fn == "encode_frame" else None
        tracer.wrap(wire, fn, f"wire.{fn}", note=note)
    tracer.wrap(sim, "builtin_harn_modulus", "gas_harn.modulus_load")
    tracer.wrap(gas_harn, "harn_init", "gas_harn.init")
    tracer.wrap(gas_harn, "harn_release", "gas_harn.release")
    tracer.wrap(gas_harn, "harn_verify", "gas_harn.verify")
    tracer.wrap(sim, "run", "sim.run",
                note=lambda args, result: len(result.events))


def _dur(rec) -> float:
    return rec[END] - rec[START]


def layer_metrics(spans: list[tuple], units: int) -> dict[str, float]:
    """Per-layer metrics from a finished trace, per unit of the workload.

    Counts and times are totals divided by `units`, so runs of different
    lengths compare.  `ec.scalar_mul_ms.p50` and `sss.shares_per_reconstruct`
    are not per unit: they describe single calls.
    """
    by_name: dict[str, list[tuple]] = {}
    child_time = [0.0] * len(spans)
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += _dur(rec)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names) / units

    def total(*names):
        return sum(_dur(r) for n in names for r in by_name.get(n, ())) / units

    def self_time(name):
        return sum(
            _dur(spans[i]) - child_time[i]
            for i, rec in enumerate(spans) if rec[NAME] == name
        ) / units

    def in_gas_core_fn(rec):
        parent = rec[PARENT]
        while parent >= 0:
            name = spans[parent][NAME]
            if name.startswith("gas_core.") and name[9:] in PHASE_OF_FN:
                return True
            parent = spans[parent][PARENT]
        return False

    out: dict[str, float] = {}
    out["field.lagrange_calls"] = calls("field.lagrange")
    out["field.lagrange_s"] = total("field.lagrange")

    ec_all = by_name.get("ec.fixed_base", []) + by_name.get("ec.var_base", [])
    out["ec.fixed_base_calls"] = calls("ec.fixed_base")
    out["ec.var_base_calls"] = calls("ec.var_base")
    out["ec.fixed_base_s"] = total("ec.fixed_base")
    out["ec.var_base_s"] = total("ec.var_base")
    out["ec.scalar_mul_ms.p50"] = (
        statistics.median(_dur(r) for r in ec_all) * 1e3 if ec_all else 0.0
    )

    recon = by_name.get("sss.reconstruct", [])
    out["sss.reconstruct_calls"] = calls("sss.reconstruct")
    out["sss.reconstruct_s"] = total("sss.reconstruct")
    out["sss.shares_per_reconstruct"] = (
        statistics.fmean(r[NOTE] for r in recon) if recon else 0.0
    )

    # Phase spans from a session workload; otherwise the simulator ran the
    # protocol, and its outermost gas_core calls count toward their phase.
    session_phases = any(n.startswith("gas_core.phase.") for n in by_name)
    for phase in PHASES:
        if session_phases:
            out[f"gas_core.{phase}_s"] = total(f"gas_core.phase.{phase}")
        else:
            out[f"gas_core.{phase}_s"] = sum(
                _dur(r)
                for fn, fn_phase in PHASE_OF_FN.items() if fn_phase == phase
                for r in by_name.get(f"gas_core.{fn}", ()) if not in_gas_core_fn(r)
            ) / units
    out["gas_core.aead_seals"] = calls("gas_core.aead_seal")
    out["gas_core.aead_opens"] = calls("gas_core.aead_open")
    out["gas_core.aead_s"] = total("gas_core.aead_seal", "gas_core.aead_open")
    out["gas_core.errors"] = sum(
        1 for rec in spans
        if rec[ERROR] and rec[NAME].startswith("gas_core.")
        and not (rec[PARENT] >= 0 and spans[rec[PARENT]][NAME].startswith("gas_core."))
    ) / units

    wire_names = [f"wire.{fn}" for fn in WIRE_FNS]
    out["wire.frames"] = calls("wire.encode_frame")
    out["wire.frame_bytes"] = sum(
        r[NOTE] for r in by_name.get("wire.encode_frame", ()) if r[NOTE] is not None
    ) / units
    out["wire.s"] = total(*wire_names)
    out["wire.decode_errors"] = sum(
        1 for n in wire_names if "decode" in n for r in by_name.get(n, ()) if r[ERROR]
    ) / units

    out["gas_harn.modulus_loads"] = calls("gas_harn.modulus_load")
    out["gas_harn.modulus_load_s"] = total("gas_harn.modulus_load")
    out["gas_harn.init_s"] = total("gas_harn.init")
    out["gas_harn.release_s"] = total("gas_harn.release")
    out["gas_harn.verify_s"] = total("gas_harn.verify")

    sim_runs = by_name.get("sim.run", [])
    out["sim.runs"] = calls("sim.run")
    out["sim.events"] = sum(r[NOTE] or 0 for r in sim_runs) / units
    out["sim.run_s"] = total("sim.run")
    out["sim.self_s"] = self_time("sim.run")
    out["cli.self_s"] = self_time("cli.main")
    return out


def write_spans(path, spans: list[tuple]) -> None:
    """One span per line: name, start, end, parent index, unit id, error."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,unit,error\n")
        for rec in spans:
            fh.write(
                f"{rec[NAME]},{rec[START]:.9f},{rec[END]:.9f},{rec[PARENT]},"
                f"{rec[UNIT]},{int(rec[ERROR])}\n"
            )
