"""One benchmark process: set up, then run whole rounds of one workload.

Started by run.py as a fresh, single-threaded interpreter.  A round runs
every job of the workload once, one after another (a closed loop with one
client); rounds repeat while one more still fits in --seconds, at least
one.  Each job parses its inputs anew and starts from cold state (see
`cold_start`).  Untraced, a `speed.SpeedProbe` samples the host's speed
while each job is timed.  The result goes to --result as JSON.

    python3 bench/worker.py --workload verify --seconds 10 --trace 0 \
        --spawned-at <time.monotonic() of the parent> --work-dir DIR --result FILE
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Optional, Tuple

from speed import SpeedProbe
from workloads import WORKLOADS, CheckFailed, Job, build

SRC = Path(__file__).resolve().parent.parent / "src"


def cold_start() -> None:
    """Forget the number fields earlier jobs built.  `field_make` interns
    fields process-wide, and a field narrows its isolating interval in place,
    so without this a job would inherit another job's refinements.  The
    oracle's shape list stays shared, as within one command."""
    from treebound import numeric
    getattr(numeric, "_FIELD_CACHE", {}).clear()


def run_job(main, job: Job, ctx: dict, probe: Optional[SpeedProbe] = None
            ) -> Tuple[float, Optional[str]]:
    """Time one command; return (seconds, None) or (seconds, why it failed).
    With a probe, the seconds exclude the probes that ran inside the job."""
    cold_start()
    if job.before is not None:
        job.before()
    out, err = io.StringIO(), io.StringIO()

    def elapsed() -> float:
        if probe is None:
            return time.perf_counter() - t0
        probe.stop()
        return time.perf_counter() - t0 - probe.spent

    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(job.argv))
    except (Exception, SystemExit) as exc:   # a crash fails this job only
        seconds = elapsed()
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return seconds, \
            f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
    seconds = elapsed()
    try:
        job.check(rc, out.getvalue(), ctx)
    except (CheckFailed, ValueError) as exc:
        detail = err.getvalue().strip()
        return seconds, str(exc) + (f" [{detail}]" if detail else "")
    return seconds, None


def run_rounds(main, jobs, seconds: float, tracer=None,
               probe: Optional[SpeedProbe] = None) -> dict:
    rounds, probes, layers, errors = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        ctx: dict = {}
        before = tracer.snapshot() if tracer else None
        first_probe = len(probe.samples) if probe else 0
        times = []
        for job in jobs:
            dt, why = run_job(main, job, ctx, probe)
            times.append(dt)
            attempted += 1
            if why is not None:
                failed += 1
                errors.append(f"{job.label}: {why}")
        rounds.append(times)
        probes.append(probe.samples[first_probe:] if probe else [])
        wall = sum(times)
        if tracer:
            after = tracer.snapshot()
            layers.append({k: after[k] - before[k] for k in after})
        # whole rounds only: stop unless one more round of the same length
        # still ends within the run
        if time.perf_counter() - start + wall > seconds:
            break
    return {"round_job_s": rounds, "round_probe_s": probes,
            "round_layers": layers,
            "attempted": attempted, "failed": failed, "errors": errors[:20]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report its time only")
    args = ap.parse_args()

    if not (SRC / "treebound").is_dir():
        sys.exit(f"no treebound source under {SRC}")
    sys.path.insert(0, str(SRC))
    import treebound.cli
    from treebound import fixtures
    from treebound.numeric import Q

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    jobs = build(args.workload, lambda name: str(fixtures.data_path(name)),
                 work)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = probe = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        else:
            probe = SpeedProbe()
        result.update(run_rounds(treebound.cli.main, jobs, args.seconds,
                                 tracer, probe))
        result["jobs"] = [job.label for job in jobs]
        result["backend"] = f"{Q.__module__}.{Q.__qualname__}"
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
