"""gaskit benchmark: one workload, one seed, one run.

    python3 gasbench/run.py --workload session-p160 --seed 1 --seconds 30 --trace 0

Run from anywhere; the gaskit under test is the one in ``src/`` next to this
directory.  The run sets up several times in fresh processes (``setup_s``),
loads the workload in this process, then runs checked units back to back
(closed loop, one process) for ``--seconds``: a unit starts only if, at the
median unit time so far, it ends within them.

Every time reported end to end is at the reference host speed of
hostspeed.py: the host's speed is sampled while the run goes on, and each
step is scaled by it.  The human-readable lines also give raw medians.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each unit twice, untraced and then with every layer
boundary wrapped, checks that outputs and operation counts agree exactly,
and reports the per-layer metrics; its own wall times are never reported
as end-to-end figures.

Human-readable lines come first on stdout, the JSON result last.  A full
record (environment, every metric, spans of a traced run) is written under
``.gasbench_out/`` in the checkout.  The exit code is 0 when every check
passed, 1 when a check failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".gasbench_out"
SETUP_PROBES = 7


def measure_setup(workload: str, speed) -> tuple[list, list[float], list[float]]:
    """Fresh set-ups, from process start to parameters loaded.

    Returns their laps, (end, wall time), with the host-speed kernel run
    between them, and the import and parameter-loading times they report.
    """
    laps, imports, params = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = speed.sample()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            stdout=subprocess.PIPE, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            end = perf_counter()
            laps.append((end, end - t0))
            proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        rec = json.loads(line)
        imports.append(rec["import_s"])
        params.append(rec["params_s"])
    speed.sample()
    return laps, imports, params


def pin_to_current_cpu() -> int | None:
    """Keep this process, and the set-up probes it starts, on the CPU it is
    on now, so the host-speed kernel and the work it scales share a core.
    Returns that CPU, or None where it cannot be read."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        return None
    return cpu


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment(seed: int, cpu_pinned: int | None) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": cpu_pinned,
        "cryptography": metadata.version("cryptography"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_one(wl, seed, index, tracer=None):
    """One checked unit; an exception fails the unit, not the run."""
    from workloads import Unit

    try:
        return wl.run_unit(seed, index, tracer)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return Unit(wall_s=math.nan, digest="", field_muls=-1, ec_scalar_muls=-1,
                    attempted=wl.attempted_per_unit, failed=wl.attempted_per_unit,
                    problems=[f"{type(exc).__name__}: {exc}"])


def closed_loop(seconds, run):
    """Call run(index) back to back while, at the median time so far, the
    next call ends within `seconds`; at least once."""
    results, took = [], []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        results.append(run(len(results)))
        took.append(perf_counter() - start)
        if perf_counter() - t0 + statistics.median(took) > seconds:
            return results


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and which
    percentile that is (nearest rank); the median when there are fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(wl, units, setup_laps, names) -> tuple[dict, list[str]]:
    """End-to-end values, and the human-readable lines that print them."""
    good = [u for u in units if not u.failed]
    if not good:
        return dict.fromkeys(names, 0.0), ["no unit passed its checks"]
    import workloads
    from hostspeed import REF_SLICE_S

    at_ref = wl.speed.at_ref

    def total(steps_of):
        """Median per unit of the summed laps, at reference speed and raw."""
        laps = [[lap for kind in steps_of(u).values() for lap in kind] for u in good]
        return (statistics.median(sum(at_ref(u)) for u in laps),
                statistics.median(sum(d for _, d in u) for u in laps))

    pass_s, pass_raw = total(lambda u: u.laps)
    auth_s, auth_raw = total(lambda u: u.auth)
    confirm = [lap for u in good for lap in u.confirm_s]
    confirm_ms = [x * 1e3 for x in at_ref(confirm)]
    p50_ms = statistics.median(confirm_ms)
    tail_ms, tail_p = tail(confirm_ms)
    setup_s = statistics.median(at_ref(setup_laps))
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    values = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "auth_s": auth_s,
        "confirm_ms.p50": p50_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "raw.setup_s": statistics.median(d for _, d in setup_laps),
        "raw.pass_s": pass_raw,
        "raw.auth_s": auth_raw,
        "raw.confirm_ms.p50": statistics.median(d for _, d in confirm) * 1e3,
        "host.kernel_ms.p50": statistics.median(wl.speed.took) * 1e3,
        "host.kernel_runs": len(wl.speed.took),
    }
    n = f"over {len(good)} {wl.per_unit_plural}"
    pass_name = "session_s" if wl.per_unit == "session" else "figures_s"
    lines = [
        f"(times at reference host speed; raw = as measured on this host, whose "
        f"speed kernel took {values['host.kernel_ms.p50']:.3f} ms, reference "
        f"{REF_SLICE_S * 1e3:g} ms)",
        f"setup_s          {setup_s:.4f} s   median of {len(setup_laps)} fresh set-ups; "
        f"raw {values['raw.setup_s']:.4f} s",
        f"{pass_name:<16} {pass_s:.4f} s   (pass_s) median {n}; raw {pass_raw:.4f} s",
        f"auth_s           {auth_s:.4f} s   median {n}; raw {auth_raw:.4f} s",
    ]
    if wl.per_unit == "session":
        key_s, key_raw = total(
            lambda u: {k: u.laps[k] for k in workloads.GROUP_KEY_STEPS}
        )
        lines.append(f"group_key_s      {key_s:.4f} s   median {n}; raw {key_raw:.4f} s")
    lines += [
        f"confirm_ms.p50   {p50_ms:.4f} ms  of {len(confirm_ms)} samples; "
        f"raw {values['raw.confirm_ms.p50']:.4f} ms",
        f"confirm_ms.tail  {tail_ms:.4f} ms  p{tail_p:.4g}, the highest percentile "
        f"with 10 samples beyond it",
        f"peak_rss_mb      {values['peak_rss_mb']:.1f} MB",
        f"fail_frac        {failed / attempted:.4g}   {failed} of {attempted} "
        f"{'sessions' if wl.per_unit == 'session' else 'rows'} failed",
    ]
    return values, lines


def traced_run(wl, seed, seconds, setup_imports, setup_params) -> tuple[dict, list, list[str]]:
    """Each unit untraced, then again traced; per-layer values."""
    import tracer as tracing

    tr = tracing.Tracer()
    untraced, traced = [], []

    def run_pair(index):
        untraced.append(run_one(wl, seed, index))
        tracing.install(tr)
        tr.unit = index
        try:
            traced.append(run_one(wl, seed, index, tr))
        finally:
            tr.uninstall()

    # Per-layer times are as measured: no host-speed kernel inside spans.
    wl.speed.enabled = False
    closed_loop(seconds, run_pair)
    problems = []
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if (a.digest, a.field_muls, a.ec_scalar_muls) != (b.digest, b.field_muls, b.ec_scalar_muls):
            problems.append(
                f"unit {i}: traced run differs from untraced "
                f"(field muls {b.field_muls} vs {a.field_muls}, "
                f"scalar muls {b.ec_scalar_muls} vs {a.ec_scalar_muls})"
            )
    pairs = [(a, b) for a, b in zip(untraced, traced) if not (a.failed or b.failed)]
    values = tracing.layer_metrics(tr.spans, len(traced))
    values["setup.import_s"] = statistics.median(setup_imports)
    values["setup.params_s"] = statistics.median(setup_params)
    values["field.muls"] = statistics.fmean([b.field_muls for _, b in pairs] or [0])
    values["ec.scalar_muls"] = statistics.fmean([b.ec_scalar_muls for _, b in pairs] or [0])
    values["trace.overhead_frac"] = (
        sum(b.wall_s for _, b in pairs) / sum(a.wall_s for a, _ in pairs) - 1.0
        if pairs else 0.0
    )
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(OUT_DIR / f"spans-{wl.name}.csv", tr.spans)
    return values, untraced + traced, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaskit" / "__init__.py").is_file():
        print(f"gasbench: no gaskit package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import gaskit
    import workloads

    if Path(gaskit.__file__).resolve().parent != SRC / "gaskit":
        print(f"gasbench: imported gaskit from {gaskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"gasbench: unknown workload {args.workload!r}; "
              f"valid: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cpu_pinned = pin_to_current_cpu()
    wl = workloads.make(args.workload)
    setup_laps, setup_imports, setup_params = measure_setup(args.workload, wl.speed)
    wl.load_params()
    problems = wl.self_check()
    wl.start()
    t0 = perf_counter()
    try:
        if args.trace:
            values, units, trace_problems = traced_run(
                wl, args.seed, args.seconds, setup_imports, setup_params
            )
            problems += trace_problems
            lines = []
        else:
            units = closed_loop(args.seconds, lambda i: run_one(wl, args.seed, i))
            values, lines = end_to_end(
                wl, units, setup_laps, [m["name"] for m in spec["end_to_end"]]
            )
    finally:
        wl.stop()
    elapsed = perf_counter() - t0
    for i, unit in enumerate(units):
        problems += [f"{wl.per_unit} {i}: {p}" for p in unit.problems]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    correct = not problems

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    env = environment(args.seed, cpu_pinned)
    print(f"gasbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(units)} {wl.per_unit_plural} in {elapsed:.1f} s")
    print("environment " + json.dumps(env))
    for line in lines:
        print("  " + line)
    if args.trace:
        for name, rec in metrics.items():
            print(f"  {name:<30} {rec['value']:.6g} {rec['unit']}")
    for p in problems[:20]:
        print(f"FAILED: {p}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed, "units": len(units),
              "values": values, "problems": problems}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
