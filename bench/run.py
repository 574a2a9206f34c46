"""treebound benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload verify|search|oracle \
        [--seed N] [--seconds S] [--trace 0|1]

Untraced (--trace 0) the last line of standard output is a JSON object with
the end-to-end metrics wall_s, setup_s and peak_rss_mb; traced (--trace 1)
it carries the per-layer metrics of tracing.LAYERS instead.  wall_s is the
median round's wall time at a reference host speed, which speed probes taken
during the jobs give (speed.py); the line above it gives the time as
measured.  The lines above
it give the same figures by name and unit, the arithmetic backend, and the
operations attempted and failed.  See bench/README.md for what each workload
runs and why.

The jobs run in a fresh, single-threaded child process (worker.py), one
after another.  Set-up is timed in SETUPS further children that stop after
set-up, and in the worker itself; setup_s is their median.  The inputs are
fixed fixtures, so --seed only labels the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference_speed
from tracing import LAYERS, metric_names, metric_unit
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUPS = 6             # set-up-only children per run, besides the worker
DEADLINE_S = 170.0     # the whole command must end within 180 s


class RunFailed(Exception):
    pass


def spawn(run_dir: Path, tag: str, args: list, timeout: float) -> dict:
    """Start worker.py, wait for it, and return the JSON it wrote."""
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), *args,
           "--work-dir", str(run_dir / tag), "--result", str(result),
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:     # run() has killed and reaped it
        raise RunFailed(f"{tag} did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not result.is_file():
        raise RunFailed(f"{tag} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def per_layer(rounds: list) -> dict:
    """Lower median over rounds of every per-layer metric the tracer
    installed; a count stays a whole number."""
    out = {}
    for layer in LAYERS:
        for name in metric_names(layer):
            values = [r[name] for r in rounds if name in r]
            if len(values) == len(rounds) and values:
                out[name] = {"value": statistics.median_low(values),
                             "unit": metric_unit(name)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t0 = time.monotonic()
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seconds", str(args.seconds),
              "--trace", str(args.trace)]

    def setup_only(i: int) -> float:
        return spawn(run_dir, f"setup{i}", common + ["--setup-only"],
                     DEADLINE_S - (time.monotonic() - t0))["setup_s"]

    try:
        # half the set-up children before the worker and half after, so
        # that setup_s samples the host over the whole run
        setups = [setup_only(i) for i in range(SETUPS // 2)]
        worker = spawn(run_dir, "worker", common,
                       DEADLINE_S - (time.monotonic() - t0))
        setups += [setup_only(i) for i in range(SETUPS // 2, SETUPS)]
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(worker["setup_s"])

    rounds = worker["round_job_s"]
    raw_s = statistics.median(sum(r) for r in rounds)
    samples = [p for r in worker["round_probe_s"] for p in r]
    if samples:     # untraced: each round at the reference host speed
        wall_s = statistics.median(
            at_reference_speed(sum(r), p)
            for r, p in zip(rounds, worker["round_probe_s"]))
    else:
        wall_s = raw_s
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}: seed {args.seed}, {mode}, "
          f"{len(rounds)} round(s) of {len(worker['jobs'])} jobs in "
          f"{args.seconds:g} s; one client, jobs one after another")
    print("round wall times (s): "
          + " ".join(f"{sum(r):.3f}" for r in rounds))
    if samples:
        print(f"speed probes: {len(samples)}, fastest "
              f"{min(samples) * 1e3:.4f} ms, median "
              f"{statistics.median(samples) * 1e3:.4f} ms; median round "
              f"{raw_s:.4f} s as measured, {wall_s:.4f} s at reference speed")
    print(f"backend {worker['backend']}")
    for why in worker["errors"]:
        print(f"FAILED {why}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(worker["round_layers"])
        print(f"median round (traced) {wall_s:.4f} s as measured")
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(
            {"seed": args.seed, "jobs": worker["jobs"],
             "round_job_s": rounds, "round_layers": worker["round_layers"]},
            indent=1))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {worker['attempted']}, failed {worker['failed']}")
    print(json.dumps({"correct": worker["failed"] == 0,
                      "attempted": worker["attempted"],
                      "failed": worker["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
