"""Check that the benchmark is steady: run each workload over several
seeds and report, per end-to-end metric, the median and the spread
(inter-quartile distance over the median) against the metric's bound.

    python3 perfbench/steady.py --workloads twip_rpc,fanout_write --seeds 1-10

Runs are sequential subprocesses of ``perfbench/run.py`` with the
``run_seconds`` of ``BENCHMARK.json`` (or ``--seconds``).  Every
metric, ``setup_s`` included, is flagged HIGH when its spread is above
a third of its bound and OVER when it is above the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.stats import spread  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    flagged = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in _seeds(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            took = time.perf_counter() - started
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {took:.1f}s wall", flush=True)
        summary[workload] = values
        for name, vals in values.items():
            med = statistics.median(vals)
            sp = spread(vals)
            bound = bounds[name]
            mark = "" if sp < bound / 3 else ("  HIGH" if sp < bound else "  OVER")
            flagged += bool(mark)
            print(f"  {workload:13s} {name:20s} median {med:14.4f} spread {sp:6.3f} "
                  f"bound {bound:5.2f}{mark}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{int(time.time())}.json"), "w") as fh:
        json.dump(summary, fh)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
