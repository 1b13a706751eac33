"""One benchmark worker: import fgrow, build a workload, run its jobs.

Started by ``run.py`` in a fresh interpreter, so set-up time covers the
import of fgrow.  Modes:

  setup  build the inputs, report set-up time, exit
  run    closed loop, one job after another with no threads, over the
         job list and around again, until at least ``--seconds`` of job
         time at nominal machine speed (``speed.py``) and the workload's
         minimum number of passes are done; it stops at the end of a
         round, every answer is checked, and job times are reported at
         that nominal speed
  trace  run each job of the first rounds untraced (checked) and under
         the tracer, and report per-layer metrics

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from speed import NOMINAL_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLING_S = 0.1
MODULES = (
    "words", "automorphisms", "growth", "folding", "mapping_torus",
    "splittings", "geometry", "cli",
)


def load_fgrow():
    src = ROOT / "src"
    if not (src / "fgrow" / "__init__.py").is_file():
        raise SystemExit(f"no fgrow package under {src}")
    sys.path.insert(0, str(src))
    fg = SimpleNamespace(package=importlib.import_module("fgrow"))
    for name in MODULES:
        setattr(fg, name, importlib.import_module(f"fgrow.{name}"))
    if not Path(fg.package.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"fgrow imported from {fg.package.__file__}, not {src}")
    return fg


def execute(wl, job):
    """(answer, outcome, detail, start, end) of one job."""
    start = time.perf_counter()
    try:
        answer, outcome, detail = wl.run(job)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        answer, outcome, detail = ("raised", type(exc).__name__, str(exc)), "error", None
    return answer, outcome, detail, start, time.perf_counter()


def check(wl, job, answer, outcome, detail) -> list[str]:
    if outcome == "error":
        return [f"raised {answer[1]}: {answer[2]}"]
    try:
        return wl.check(job, answer, detail)
    except Exception as exc:  # an answer the oracle cannot read is wrong
        return [f"oracle could not read the answer: {type(exc).__name__}: {exc}"]


def digest(answers) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def percentiles_ms(latencies) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4] * 1e3, deciles[8] * 1e3


def timed_run(wl, seconds: float, speed: Speed) -> dict:
    jobs = wl.jobs
    n = len(jobs)
    round_ends = {end % n for end in wl.round_ends}
    latencies: list[float] = []
    spans: list[tuple[float, float]] = []
    first: list = []
    outcomes: list[str] = []
    failures: list[str] = []
    failed = 0
    timed = 0.0
    nominal = 0.0  # job time at nominal speed, which decides when to stop
    i = 0
    speed.sample()
    while True:
        idx = i % n
        job = jobs[idx]
        answer, outcome, detail, start, end = execute(wl, job)
        dt = end - start
        speed.after_job(dt)
        latencies.append(dt)
        spans.append((start, end))
        timed += dt
        nominal += dt * speed.factor(start, end)
        if i < n:
            first.append(answer)
            outcomes.append(outcome)
            errs = check(wl, job, answer, outcome, detail)
        else:
            errs = [] if answer == first[idx] else ["answer differs from the first pass"]
        del detail
        if errs:
            failed += 1
            failures.append(f"job {idx} ({job.kind}): " + "; ".join(errs))
        i += 1
        if i % n in round_ends and i >= n * wl.min_passes and nominal >= seconds:
            break
    for err in wl.finish():
        failed += 1
        failures.append("run: " + err)
    speed.sample()
    # each job's time at nominal machine speed (speed.py)
    normalized = [dt * speed.factor(*span) for dt, span in zip(latencies, spans)]
    p50, p90 = percentiles_ms(normalized)
    raw_p50, raw_p90 = percentiles_ms(latencies)
    return {
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures[:20],
        "passes": len(latencies) / n,
        "timed_s": timed,
        "jobs_per_s": len(latencies) / sum(normalized),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "raw": {"jobs_per_s": len(latencies) / timed, "job_p50_ms": raw_p50, "job_p90_ms": raw_p90},
        "sample_ms": speed.mean_s() * 1e3,
        "answered_frac": sum(o in ("exact", "answered") for o in outcomes) / n,
        "exact_frac": sum(o == "exact" for o in outcomes) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answers_sha256": digest(first),
    }


def traced_run(wl) -> dict:
    """Run each job untraced and traced back to back, alternating which
    goes first, so both see the same machine state; only the untraced
    answers are checked, with the tracer out of the way."""
    from tracer import Tracer, unit

    jobs = wl.trace_jobs()
    failures: list[str] = []
    tracer = Tracer()
    tracer.install()
    plain, traced_answers = [], []
    untraced = traced = 0.0
    for idx, job in enumerate(jobs):
        for with_trace in ((False, True) if idx % 2 == 0 else (True, False)):
            if with_trace:
                tracer.job_id = idx
                tracer.enable()
                try:
                    answer, _, _, start, end = execute(wl, job)
                finally:
                    tracer.disable()
                traced += end - start
                traced_answers.append(answer)
            else:
                answer, outcome, detail, start, end = execute(wl, job)
                untraced += end - start
                plain.append(answer)
                found = (answer, outcome, detail)
        errs = check(wl, job, *found)
        del found
        if errs:
            failures.append(f"job {idx} ({job.kind}): " + "; ".join(errs))
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced / untraced - 1
    if digest(traced_answers) != digest(plain):
        failures.append("trace: traced answers differ from untraced answers")
    for name in wl.uses:
        if values[name + ".calls"] == 0:
            failures.append(f"trace: {name} recorded no calls on {wl.name}")
    return {
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in values.items()},
        "spans": len(tracer.start),
        "untraced_s": untraced,
        "traced_s": traced,
        "answers_sha256": digest(plain),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    args = ap.parse_args()

    # machine speed just before and just after set-up, which is scaled
    # by it like the jobs are; the sampling is not counted as set-up
    sampling = time.monotonic()
    speed = Speed()
    speed.sample_for(SETUP_SAMPLING_S)
    sampling = time.monotonic() - sampling
    fg = load_fgrow()
    from workloads import WORKLOADS

    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](fg, args.seed, str(scratch))
        raw_setup_s = time.monotonic() - args.spawned - sampling
        speed.sample_for(SETUP_SAMPLING_S)
        out = {
            "setup_s": raw_setup_s * NOMINAL_S / speed.mean_s(),
            "raw_setup_s": raw_setup_s,
        }
        if args.mode == "run":
            out.update(timed_run(wl, args.seconds, speed))
        elif args.mode == "trace":
            out.update(traced_run(wl))
        import numpy

        out.update(
            jobs=len(wl.jobs),
            inputs_sha256=hashlib.sha256(wl.inputs_text().encode()).hexdigest(),
            numpy=numpy.__version__,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another worker's directory is still there
    print(json.dumps(out))


if __name__ == "__main__":
    main()
