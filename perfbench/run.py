"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {verify_proper,verify_improper,solve,bands} \
        --seed N --seconds S --trace {0,1}

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``--trace 0`` times whole passes over
the seeded inputs until ``--seconds`` have passed, at least three, scales
each time by the machine's speed around it (see ``Speed``), takes each
input at its median scaled time over the passes, and prints the end-to-end
metrics; a pass holds at least 100 inputs, so the 90th percentile has ten
beyond it.  ``--trace 1`` times untraced passes for half of ``--seconds``,
one traced pass of the same operations, then the layer tour, and prints the
per-layer metrics.  The last line of standard output is one
JSON object; a results file with provenance goes to ``perfbench/out/``.

Set-up (imports, input generation and one warm-up operation) is timed in
this process and, with ``--trace 0``, in ``SETUP_REPEATS - 1`` fresh child
processes run one at a time between passes, spread over the run; each is
started with ``--setup-only``, which prints its own set-up time and the
reference-loop time around it, and exits.  ``setup_s`` is the median of all
``SETUP_REPEATS``, each scaled like the operations.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("verify_proper", "verify_improper", "solve", "bands")
SETUP_REPEATS = 9
MIN_PASSES = 3
HARD_CAP_S = 120.0  # stop mid-pass past this, whatever the floors say
REFERENCE_EVERY_S = 0.2
# What the reference loop takes in a quiet stretch of a 2-core x86-64 VM
# (Python 3.11); timings are scaled to a machine on which it takes this.
REFERENCE_NOMINAL_S = 0.5e-3


def _reference_work() -> float:
    s, d = 0.0, {}
    for i in range(3000):
        d[i & 63] = s
        s += math.sqrt(i) * (i % 7)
    return s


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python loop: how fast the machine runs Python right now."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Reference-loop timings taken between operations, to scale each operation's time by.

    The machine's speed swings by up to 1.8x in stretches of seconds and
    drifts as much over minutes, as other tenants come and go, and the
    package's pure-Python code slows with it.  An operation's time divided
    by the reference loop's time around it is what stays put from run to
    run; times are reported multiplied by ``REFERENCE_NOMINAL_S``.
    """

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        seconds = reference_s()
        self.at.append(time.perf_counter())
        self.seconds.append(seconds)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= REFERENCE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_NOMINAL_S over the mean of the samples just before ``start`` and just after ``end``."""
        i = max(bisect.bisect_left(self.at, start) - 1, 0)
        j = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        return 2.0 * REFERENCE_NOMINAL_S / (self.seconds[i] + self.seconds[j])


def _import_package():
    """Import the checkout's own sources; refuse an installed copy from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import annulus_chroma
        from perfbench import tracing, workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import annulus_chroma from {ROOT / 'src'}: {exc}")
    if not Path(annulus_chroma.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"error: annulus_chroma was imported from {annulus_chroma.__file__}, not {ROOT / 'src'}")
    return tracing, workloads


class Loop:
    """Runs operations one after another, times ``run``, then checks the result untimed."""

    def __init__(self, tracer=None, speed: Speed | None = None):
        self.tracer = tracer
        self.speed = speed
        self.raw_records: list[tuple[int, float]] = []  # unscaled, kept beside the scaled ones
        self.attempted = 0
        self.failures: list[dict] = []

    def one(self, op, index: int) -> float | None:
        self.attempted += 1
        tracer = self.tracer
        try:
            if tracer:
                tracer.op = index
                with tracer.span("bench.op", kind=op.kind):
                    t0 = time.perf_counter()
                    out = op.run()
                    seconds = time.perf_counter() - t0
                tracer.enabled = False
            else:
                t0 = time.perf_counter()
                out = op.run()
                seconds = time.perf_counter() - t0
            op.check(out)
            return seconds
        except Exception as exc:  # a failed operation is counted, reported and the run goes on
            self.failures.append({"kind": op.kind, "error": f"{type(exc).__name__}: {exc}",
                                  "traceback": traceback.format_exc(limit=3), "inputs": op.inputs})
            return None
        finally:
            if tracer:
                tracer.enabled = True

    def passes(self, ops, seconds: float, min_passes: int = 1, between=None) -> list[tuple[int, float]]:
        """Whole passes until the time and pass floors are met; (op index, seconds) records.

        ``between``, if given, is called after each pass with the share of
        ``seconds`` used so far.  With a ``Speed``, each record's seconds are
        scaled by the reference-loop samples around the operation.
        """
        records = []
        start = time.perf_counter()
        for n_pass in range(1, sys.maxsize):
            for k, op in enumerate(ops):
                if self.speed and self.speed.due():
                    self.speed.sample()
                t0 = time.perf_counter()
                dt = self.one(op, k)
                if dt is not None:
                    records.append((k, dt, t0, time.perf_counter()))
                if time.perf_counter() - start > HARD_CAP_S:
                    break
            else:
                if between:
                    between((time.perf_counter() - start) / seconds)
                if time.perf_counter() - start < seconds or n_pass < min_passes:
                    continue
            break
        self.raw_records = [(k, dt) for k, dt, _, _ in records]
        if not self.speed:
            return self.raw_records
        self.speed.sample()
        return [(k, dt * self.speed.scale(t0, t1)) for k, dt, t0, t1 in records]


def per_input(records) -> dict[int, float]:
    """Each input's median time over the run's passes, by op index."""
    times: dict[int, list[float]] = {}
    for k, dt in records:
        times.setdefault(k, []).append(dt)
    return {k: statistics.median(times[k]) for k in sorted(times)}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _provenance(args, samples: dict) -> dict:
    def git(*cmd):
        try:
            p = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }


def main(argv=None) -> int:
    reference_before = reference_s()
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print it and exit")
    args = parser.parse_args(argv)

    tracing, workloads = _import_package()
    inputs = workloads.SETUPS[args.workload](random.Random(args.seed))
    warm = inputs.ops[0]
    warm.check(warm.run())
    setup_s = time.perf_counter() - t0
    setup = (setup_s, 0.5 * (reference_before + reference_s()))
    if args.setup_only:
        print(*map(repr, setup))
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return _run(args, tracing, workloads, inputs, setup, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _child_setup(args) -> tuple[float, float]:
    """The set-up time of a fresh process, imports included, and its reference-loop time."""
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", "0", "--setup-only"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        sys.exit(f"error: set-up in a child process failed: {proc.stderr.strip()[-500:]}")
    setup_s, ref_s = map(float, proc.stdout.split()[-2:])
    return setup_s, ref_s


def _run(args, tracing, workloads, inputs, own_setup: tuple[float, float], tmp: Path) -> int:
    runner = workloads.CliRunner(ROOT, tmp)
    setups = [own_setup]
    loop = Loop(speed=None if args.trace else Speed())
    samples: dict[str, int] = {}
    # A seeded order spreads the costly inputs over each pass, so a slow
    # stretch of the machine does not fall on all of them at once.
    ops = list(inputs.ops)
    random.Random(args.seed).shuffle(ops)
    if args.trace:
        records = loop.passes(ops, args.seconds / 2)
        tracer = tracing.Tracer()
        traced = Loop(tracer)
        with tracing.instrument(tracer):
            traced_records = traced.passes(ops, 0.0)
            tour = workloads.tour_ops(random.Random(args.seed + 1), runner)
            for k, op in enumerate(tour, start=len(ops)):
                traced.one(op, k)
        loop.attempted += traced.attempted
        loop.failures += traced.failures
        ratio = sum(dt for _, dt in traced_records) / sum(per_input(records).values())
        metrics = _layer_metrics(tracer, ratio, workloads)
        samples.update(untraced_ops=len(records), traced_ops=len(traced_records), tour_ops=len(tour))
        (OUT / f"TRACE_{args.workload}_seed{args.seed}.json").write_text(json.dumps(tracer.to_json()))
    else:
        def setups_due(share_done: float) -> None:
            while len(setups) < min(SETUP_REPEATS, 1 + int(share_done * (SETUP_REPEATS - 1))):
                setups.append(_child_setup(args))

        records = loop.passes(ops, args.seconds, MIN_PASSES, setups_due)
        setups_due(1.0)
        typical = list(per_input(records).values())
        unscaled = list(per_input(loop.raw_records).values())
        unscaled_metrics = {
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "p50_ms": (statistics.median(unscaled) * 1e3, "ms"),
            "p90_ms": (_p90(unscaled) * 1e3, "ms"),
            "ops_per_s": (len(unscaled) / sum(unscaled), "1/s"),
            "reference_ms": (statistics.median(loop.speed.seconds) * 1e3, "ms"),
        }
        metrics = {
            "setup_s": (statistics.median(s * REFERENCE_NOMINAL_S / ref for s, ref in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "p50_ms": (statistics.median(typical) * 1e3, "ms"),
            "p90_ms": (_p90(typical) * 1e3, "ms"),
            "ops_per_s": (len(typical) / sum(typical), "1/s"),
        }
        samples.update(timed_ops=len(records), inputs=len(typical), passes=len(records) // len(ops),
                       reference_samples=len(loop.speed.seconds))
    # Printed and kept in the results file, not bounded: fail_ratio must read 0, and
    # a bounded metric must never be 0.
    named = {"fail_ratio": (len(loop.failures) / loop.attempted, "ratio")}
    if args.workload == "solve" and not args.trace:
        named["solve_suite_s"] = (sum(typical), "s")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if listed != {k: u for k, (_, u) in metrics.items()}:
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(listed)}")

    result = {
        "provenance": _provenance(args, samples),
        "input_properties": inputs.properties(),
        "setup_repeats_s": [{"seconds": s, "reference_s": ref} for s, ref in setups],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "attempted": loop.attempted,
        "failures": loop.failures,
        "median_ms_by_input": [[ops[k].kind, dt * 1e3] for k, dt in per_input(records).items()],
    }
    if args.trace:
        result["provenance"]["trace.overhead_ratio"] = metrics["trace.overhead_ratio"][0]
    else:
        result["unscaled_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in unscaled_metrics.items()}
    out_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=2, default=str))

    for name, (value, unit) in {**metrics, **named}.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"samples: {samples}; failures: {len(loop.failures)} of {loop.attempted}; results: {out_file}")
    for failure in loop.failures[:5]:
        print(f"FAILED {failure['kind']}: {failure['error']}")
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": result["metrics"],
    }))
    return 0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _layer_metrics(tracer, overhead_ratio: float, workloads) -> dict:
    from perfbench import gen

    def durations(name, **match):
        """Durations of the calls that returned, among spans whose attributes match."""
        return [s.duration for s in tracer.by_name(name)
                if "raised" not in s.attrs and all(s.attrs.get(k) == v for k, v in match.items())]

    ops = {}
    for s in tracer.by_name("bench.op"):
        ops.setdefault(s.attrs["kind"], []).append(s.duration)
    interp = _median(ops.get("cli.interp", []))
    m = {
        "cli.interp_ms": (interp * 1e3, "ms"),
        "cli.import_ms": ((_median(ops.get("cli.import", [])) - interp) * 1e3, "ms"),
    }
    for sub in workloads.SUBCOMMANDS:
        m[f"cli.main_ms.{sub}"] = (_median(durations("cli.main", sub=sub)) * 1e3, "ms")
    m["svg.render_radial_us"] = (_median(durations("svg.render_radial")) * 1e6, "us")
    m["svg.render_embedding_us"] = (_median(durations("svg.render_embedding")) * 1e6, "us")

    cup = tracer.cup
    m["geometry.cup_calls"] = (sum(len(v) for v in cup.values()), "count")
    for c in ("miss", "interior", "extreme"):
        m[f"geometry.cup_{c}_calls"] = (len(cup[c]), "count")
    m["geometry.cup_s"] = (sum(sum(v) for v in cup.values()), "s")
    m["geometry.cup_miss_us"] = (_median(cup["miss"]) * 1e6, "us")
    m["geometry.cup_interior_us"] = (_median(cup["interior"]) * 1e6, "us")

    verifies = tracer.by_name("radial.verify")
    verify_s = sum(s.duration for s in verifies)
    m["radial.verify_s"] = (verify_s, "s")
    m["radial.self_s"] = (verify_s - tracer.cup_in_verify, "s")
    m["radial.pieces"] = (sum(s.attrs["pieces"] for s in verifies), "count")
    m["radial.construct_us"] = (_median(durations("radial.construct")) * 1e6, "us")
    m["radial.chromatic_number_us"] = (_median(durations("radial.chromatic_number")) * 1e6, "us")

    bounds = tracer.by_name("gadgets.lower_bound")
    m["gadgets.lower_bound_spindle_ms"] = (
        _median([s.duration for s in bounds if s.attrs["r"] > gen.SPINDLE_T]) * 1e3, "ms")
    m["gadgets.lower_bound_other_ms"] = (
        _median([s.duration for s in bounds if s.attrs["r"] <= gen.SPINDLE_T]) * 1e3, "ms")
    m["gadgets.spindle_ms"] = (_median(durations("gadgets.spindle")) * 1e3, "ms")
    m["gadgets.trirod_path_us"] = (_median(durations("gadgets.trirod_path")) * 1e6, "us")
    m["gadgets.odd_cycle_us"] = (_median(durations("gadgets.odd_cycle")) * 1e6, "us")

    solves = tracer.by_name("udg.solve")
    m["udg.solve_s"] = (sum(s.duration for s in solves), "s")
    m["udg.solve_calls"] = (len(solves), "count")
    m["udg.m6_s"] = (_median([s.duration for s in solves if s.attrs["n"] == 47]), "s")
    m["udg.build_udg_ms"] = (_median(durations("udg.build_udg")) * 1e3, "ms")
    m["udg.k_levels"] = (sum(s.attrs["k_levels"] for s in solves), "count")
    m["udg.bound_gap"] = (sum(s.attrs["bound_gap"] for s in solves), "count")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
