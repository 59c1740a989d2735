"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload twip_rpc --seed 1 --seconds 10 --trace 0

A run sends a fixed number of operations from the seeded stream,
``ops_per_second`` of the workload times ``--seconds``, so a faster
program does the same work rather than more.  With ``--trace 0`` the
run deploys, drives and checks the workload :data:`REPEATS` times, each
time in a fresh process on another part of the seeded stream, and
reports each end-to-end metric from all of them, at the nominal speed
of a host probe run between windows of operations (see
:func:`end_to_end` and :mod:`perfbench.probe`).  With ``--trace 1`` it
drives two deployments of the same inputs in alternating windows, one
plain and one traced, and prints the per-layer metrics instead.  Each
deployment's cache is read back at the end and compared with a naive
recomputation from the base rows; a mismatch fails the run.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only for a correct run.  Span dumps and a detailed
per-run record go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Repetitions per untraced run, each in its own process and on its
#: own part of the stream.
REPEATS = 3
#: Longest a repetition may take before the run fails, in seconds.
REPETITION_TIMEOUT_S = 150

#: End-to-end metrics: name -> (unit, sample series or None, percentile).
E2E: Dict[str, Tuple[str, object, float]] = {
    "setup_s": ("s", None, 0),
    "ops_per_s": ("1/s", None, 0),
    "check_p50_us": ("us", "check", 50),
    "check_p99_us": ("us", "check", 99),
    "login_p50_us": ("us", "login", 50),
    "login_p99_us": ("us", "login", 99),
    "write_p50_us": ("us", "write", 50),
    "write_p99_us": ("us", "write", 99),
    "batch_p50_us": ("us", "batch", 50),
    "batch_p99_us": ("us", "batch", 99),
    "visible_p50_us": ("us", "visible", 50),
    "visible_p99_us": ("us", "visible", 99),
    "bytes_per_user_byte": ("ratio", None, 0),
}
#: End-to-end metrics printed with every run but left out of its JSON
#: result.  These tails are decided by which of the rarer operations the
#: collector's pauses and the celebrity fan-outs happen to land in, so
#: they spread 0.09-0.29 between seeds, more than a bound can hold.
PRINTED_ONLY = ("login_p99_us", "write_p99_us", "batch_p99_us", "visible_p99_us")


def _parse(argv: List[str]) -> argparse.Namespace:
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one repetition and print it as JSON.
    ap.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _percentile(name: str, samples: List[float], pct: float):
    from perfbench.stats import percentile

    got = percentile(samples, pct)
    if got is None:
        raise SystemExit(f"{name}: only {len(samples)} samples; "
                         "too few for any percentile with ten beyond it")
    return got


def scaled_samples(phase):
    """``phase``'s latency samples in microseconds and its elapsed time
    in nanoseconds, each at the host probe's nominal speed.  A window is
    scaled by the mean of the probe readings before and after it."""
    from perfbench.loadgen import SERIES
    from perfbench.probe import scale

    samples = {series: [] for series in SERIES}
    elapsed = 0.0
    for i, window_ns in enumerate(phase.windows):
        probe_ns = (phase.probes[i] + phase.probes[i + 1]) / 2
        elapsed += scale(window_ns, probe_ns)
        for series in SERIES:
            samples[series] += [scale(ns, probe_ns) / 1e3
                                for ns in phase.window_samples(series, i)]
    return samples, elapsed


def end_to_end(reps):
    """(name -> value, name -> description) for every end-to-end metric
    from the repetitions, each a dict as :func:`run_repetition` returns
    it, with its phase as a :class:`Phase`.

    Every timing is at the host probe's nominal speed
    (:mod:`perfbench.probe`).  A latency percentile is taken over the
    pooled samples of all repetitions, and ``ops_per_s`` over their
    pooled operations and time; ``setup_s`` and ``bytes_per_user_byte``
    are medians.  The notes give the unscaled figures too.
    """
    from perfbench.loadgen import SERIES
    from perfbench.stats import percentile

    values: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    pooled = {series: [] for series in SERIES}
    elapsed = []
    for rep in reps:
        samples, rep_elapsed = scaled_samples(rep["phase"])
        elapsed.append(rep_elapsed)
        for series in SERIES:
            pooled[series] += samples[series]

    def each(got) -> str:
        return "per repetition " + ", ".join(f"{v:.4g}" for v in got)

    for name, (_, series, pct) in E2E.items():
        if series is None:
            continue
        values[name], effective, count = _percentile(name, pooled[series], pct)
        raw = [percentile([ns / 1e3 for ns in rep["phase"].samples[series]], pct)
               for rep in reps]
        raw = [math.nan if got is None else got[0] for got in raw]
        notes[name] = f"pooled n={count} p{effective:.4g}; unscaled " + each(raw)
    ops = sum(rep["phase"].ops for rep in reps)
    values["ops_per_s"] = ops / (sum(elapsed) / 1e9)
    notes["ops_per_s"] = (
        f"{ops} ops, {sum(rep['phase'].barriers for rep in reps)} barriers; "
        + each(rep["phase"].ops / (ns / 1e9) for rep, ns in zip(reps, elapsed))
        + "; unscaled " + each(rep["phase"].ops_per_s for rep in reps))
    setups = [rep["setup"] for rep in reps]
    values["setup_s"] = statistics.median(setups)
    notes["setup_s"] = "median; " + each(setups) + "; unscaled " + each(
        rep["setup_raw"] for rep in reps)
    ratios = [rep["memory"] / rep["user_bytes"] for rep in reps]
    values["bytes_per_user_byte"] = statistics.median(ratios)
    notes["bytes_per_user_byte"] = "median; " + each(ratios)
    return values, notes


def pin_to_one_cpu() -> None:
    """Run on one fixed CPU.  The load is a single thread, and letting
    the scheduler move it (and the loopback TCP work it causes) between
    CPUs roughly doubled the run-to-run spread of throughput on a 2-core
    host."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class GcPauses:
    """Counts and times the cyclic collector's pauses in a block."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.total_ns = 0
        self.max_ns = 0
        self._started = 0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter_ns()
            return
        took = time.perf_counter_ns() - self._started
        self.count[info["generation"]] += 1
        self.total_ns += took
        self.max_ns = max(self.max_ns, took)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def __str__(self) -> str:
        return (f"collections by generation {self.count}, "
                f"{self.total_ns / 1e6:.1f} ms in total, longest "
                f"{self.max_ns / 1e6:.1f} ms")


async def run_repetition(inputs, part: int, count: int, workdir: str) -> dict:
    """One repetition: deploy, drive the ``part``-th stream, check.  The
    host probe runs between the steps of set-up and between windows."""
    from perfbench.loadgen import deploy, timed_phase, verify
    from perfbench.probe import HostProbe

    probe = await HostProbe.open()
    try:
        dep, setup, model = await deploy(inputs, workdir, probe)
        try:
            with GcPauses() as pauses:
                phase = await timed_phase(dep, inputs.stream(part), model, count,
                                          inputs.workload.settle_every, probe)
            problems = await verify(dep.client, model, inputs.graph.users)
            memory = dep.server.memory_bytes()
        finally:
            await dep.close()
    finally:
        await probe.close()
    return {"phase": dataclasses.asdict(phase), "setup": setup.scaled_ns / 1e9,
            "setup_raw": setup.raw_ns / 1e9, "memory": memory, "user_bytes": model.user_bytes,
            "problems": problems, "gc": str(pauses)}


def run_untraced(args):
    """:data:`REPEATS` repetitions, each in a fresh process, so none
    runs on a heap an earlier one left behind.  The hash seed is fixed
    by ``--seed``, so the same seed gives the same work."""
    from perfbench.loadgen import Phase

    reps = []
    total = Phase()
    problems: List[str] = []
    pauses = []
    env = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
    for part in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--part", str(part)],
            capture_output=True, text=True, timeout=REPETITION_TIMEOUT_S, env=env,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"repetition {part} failed with exit code {proc.returncode}")
        rec = json.loads(proc.stdout.splitlines()[-1])
        phase = rec["phase"] = Phase(**rec["phase"])
        reps.append(rec)
        problems += rec["problems"]
        pauses.append(rec["gc"])
        total.ops += phase.ops
        total.barriers += phase.barriers
        total.failed += phase.failed
    values, notes = end_to_end(reps)
    notes["gc"] = "; ".join(pauses)
    notes["probe"] = "median reading per repetition " + ", ".join(
        f"{statistics.median(rec['phase'].probes) / 1e6:.3f} ms" for rec in reps)
    return total, problems, values, notes


async def run_traced(inputs, count: int, workdir: str, calib: int, spans_path: str):
    """Two deployments of the same inputs, driven in alternating
    windows: one plain, one with every layer traced.  Alternating keeps
    slow drifts of the host out of ``trace.overhead_frac``."""
    from perfbench import trace
    from perfbench.loadgen import WINDOW_OPS, Runner, deploy, verify

    w = inputs.workload
    rec = trace.SpanRecorder()
    patches = trace.Patches(rec)
    plain_dep, _, plain_model = await deploy(inputs, workdir)
    try:
        patches.install()
        try:
            dep, _, model = await deploy(inputs, workdir)
        finally:
            patches.remove()
        try:
            plain = Runner(plain_dep, inputs.stream(), plain_model, w.settle_every)
            traced = Runner(dep, inputs.stream(), model, w.settle_every)
            before = await dep.client.stats()

            async def traced_window(run):
                patches.install()
                rec.active = True
                try:
                    return await run
                finally:
                    rec.active = False
                    patches.remove()

            with GcPauses() as pauses:
                for start in range(0, count, WINDOW_OPS):
                    window = min(WINDOW_OPS, count - start)
                    await plain.run(window)
                    await traced_window(traced.run(window, rec))
                await plain.finish()
                phase = await traced_window(traced.finish(rec))
            after = await dep.client.stats()
            problems = await verify(plain_dep.client, plain_model, inputs.graph.users)
            problems += await verify(dep.client, model, inputs.graph.users)
        finally:
            await dep.close()
    finally:
        await plain_dep.close()
    rec.write(spans_path)
    layers = trace.aggregate(rec)
    delta = trace.counter_delta(before, after)
    problems += trace.cross_check(layers, delta, w.mode == "write-through")
    values = trace.layer_metrics(
        rec, layers, delta, phase, plain.phase.ops_per_s, calib)
    notes = {
        name: f"{layers[name].count} spans, self {layers[name].self_ns / 1e6:.1f} ms"
        for name in sorted(layers)
    }
    notes["gc"] = str(pauses)
    return phase, problems, values, notes


def main(argv: List[str]) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    args = _parse(argv)
    pin_to_one_cpu()
    from perfbench.stats import calibration_ns
    from perfbench.trace import LAYER_METRICS
    from perfbench.workloads import WORKLOADS, make_inputs

    w = WORKLOADS[args.workload]
    inputs = make_inputs(w, args.seed)
    # The budget is split over the run's deployments: REPEATS untraced,
    # or the plain and the traced one.
    count = int(w.ops_per_second * args.seconds / (2 if args.trace else REPEATS))
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.part is not None:
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            print(json.dumps(asyncio.run(run_repetition(inputs, args.part, count, workdir))))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    calib = calibration_ns()
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
        try:
            phase, problems, values, notes = asyncio.run(run_traced(
                inputs, count, workdir, calib,
                os.path.join(OUT_DIR, f"spans-{tag}.tsv.gz")))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        units = {name: LAYER_METRICS[name][0] for name in LAYER_METRICS}
    else:
        phase, problems, values, notes = run_untraced(args)
        units = {name: E2E[name][0] for name in E2E}

    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} ops {count}: {w.why}")
    print(f"  backend={w.backend} mode={w.mode} durable={w.durable} "
          f"memory_limit={w.memory_limit} settle_every={w.settle_every} "
          f"users={w.users} edges={len(inputs.graph.edges)} calib_ns={calib}")
    print(f"  attempted={phase.attempted} failed={phase.failed} "
          f"failed_frac={phase.failed / phase.attempted:.6f}")
    print(f"  gc while timed: {notes['gc']}")
    if "probe" in notes:
        print(f"  host probe: {notes['probe']}")
    for name in units:
        note = notes.get(name, "")
        if name in PRINTED_ONLY:
            note = "(not in the JSON result) " + note
        print(f"  {name:44s} {values[name]:14.4f} {units[name]:6s} {note}")
    if args.trace:
        for name, note in notes.items():
            if name != "gc":
                print(f"  span {name:39s} {note}")
    for line in problems:
        print(f"  MISMATCH {line}", file=sys.stderr)
    correct = not problems
    print(f"  correct={correct}")
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "calib_ns": calib, "notes": notes,
        "problems": problems,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name not in PRINTED_ONLY
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
