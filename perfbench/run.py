"""fgrow benchmark: seeded workloads, every answer checked against oracles.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; fgrow is imported from ``src/`` of
that checkout.  With ``--trace 0`` it starts one worker process that
runs the workload's jobs back to back (a closed loop with one client)
and four more that only set up, and prints the end-to-end metrics.
With ``--trace 1`` it runs each job of the workload's first rounds
untraced and traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; each workload also prints a
run record (machine, commit, inputs hash).  ``--workload all`` runs
the four in turn and prefixes each metric with its workload's name.
The exit code is 0 only when every answer passed its oracle.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("growth", "fiber", "geometry", "cli")
SETUP_PROBES = 4
# at their limits, the timed worker and the probes still end a run within 180 s
WORKER_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 6

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("answered_frac", "1"),
    ("exact_frac", "1"),
)


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, args, mode: str, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)], cwd=ROOT, capture_output=True,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker ran past {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )


def measure(workload: str, args) -> dict:
    """Run one workload, print its summary and run record, and return
    its result object."""
    if args.trace:
        res = spawn(workload, args, "trace", WORKER_TIMEOUT_S)
        metrics = res["metrics"]
    else:
        res = spawn(workload, args, "run", WORKER_TIMEOUT_S)
        probes = [res] + [
            spawn(workload, args, "setup", PROBE_TIMEOUT_S) for _ in range(SETUP_PROBES)
        ]
        setups = [p["setup_s"] for p in probes]
        res["setup_s"] = statistics.median(setups)
        res["raw"]["setup_s"] = statistics.median(p["raw_setup_s"] for p in probes)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}

    attempted, failed = res["attempted"], res["failed"]
    for line in res["failures"]:
        print(f"FAIL {line}")
    if args.trace:
        print(f"{workload}: traced {attempted} jobs, {res['spans']} spans, "
              f"untraced {res['untraced_s']:.3f} s, traced {res['traced_s']:.3f} s")
    else:
        print(f"{workload}: {attempted} jobs in {res['timed_s']:.3f} s "
              f"({res['passes']:.2f} passes over {res['jobs']} jobs)")
        for name, m in metrics.items():
            n = len(setups) if name == "setup_s" else (
                res["jobs"] if name.endswith("_frac") else attempted)
            raw = f"; wall clock {res['raw'][name]:.6g}" if name in res["raw"] else ""
            print(f"  {name:14s} {m['value']:.6g} {m['unit']} (n={n}{raw})")
        print(f"  {'error_frac':14s} {failed / attempted:.6g} 1 (n={attempted})")
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": res["inputs_sha256"],
        "answers_sha256": res["answers_sha256"], "jobs": res["jobs"],
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": res["numpy"], "nproc": os.cpu_count(), "src_lines": src_lines(),
    }
    if not args.trace:
        record["speed_sample_ms"] = res["sample_ms"]
    print("record: " + json.dumps(record, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description="fgrow benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fgrow" / "__init__.py").is_file():
        print(f"error: no fgrow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args) for name in names}
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
