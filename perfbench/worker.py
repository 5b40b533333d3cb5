"""One workload process: timed passes over the workload's jobs, then an optional traced pass.

Started by `run.py` with BLAS pinned to one thread and `src` on the path.
Prints one JSON document as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
from tracer import Tracer  # noqa: E402

JOB_CAP_S = 45.0  # a job past this wall time is stopped and counted failed


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI's `except Exception` cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_job(job: jobs_mod.Job) -> tuple[float, str | None]:
    """(wall seconds, failure message or None)."""
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    t0 = time.perf_counter()
    try:
        got = job.run()
        failure = None if got == job.expected else f"verdicts {json.dumps(got, sort_keys=True)}"
    except JobTimeout:
        failure = f"stopped at the {JOB_CAP_S:g} s cap"
    except Exception as exc:  # a raising job is a failed job; keep running the rest
        failure = f"raised {type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, failure


def run_pass(job_list, tracer: Tracer | None, pass_index: int) -> dict:
    times, failures = {}, {}
    t0 = time.perf_counter()
    for i, job in enumerate(job_list):
        if tracer is None:
            elapsed, failure = run_job(job)
        else:
            elapsed, failure = tracer.job(f"p{pass_index}.j{i}", lambda job=job: run_job(job))
        times[job.name] = elapsed
        if failure is not None:
            failures[job.name] = failure
    return {"wall_s": time.perf_counter() - t0, "times": times, "failures": failures}


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(HERE.parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "seed": seed,
        "job_cap_s": JOB_CAP_S,
    }


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = parser.parse_args()

    import cesarolab.cli  # noqa: F401  (the import the tracer patches)

    signal.signal(signal.SIGALRM, _alarm)
    job_list = jobs_mod.WORKLOADS[args.workload](args.seed)
    deadline = time.perf_counter() + args.seconds

    def another(done: list[dict], minimum: int) -> bool:
        """Another pass if fewer than `minimum` ran or if it should end before the deadline."""
        return len(done) < minimum or time.perf_counter() + done[-1]["wall_s"] <= deadline

    # Untraced passes give the end-to-end numbers; at least two, so that a
    # run's median is not one pass.  A traced run makes one untraced pass as
    # the reference for the tracing overhead.
    passes = [run_pass(job_list, None, 0)]
    while not args.trace and another(passes, 2):
        passes.append(run_pass(job_list, None, len(passes)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced, tracer = [], None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            while another(traced, 1):
                traced.append(run_pass(job_list, tracer, len(passes) + len(traced)))
        finally:
            tracer.uninstall()

    defects = []
    for job in jobs_mod.KNOWN_DEFECTS.get(args.workload, []):
        _, failure = run_job(job)
        defects.append({"job": job.name, "open": failure is not None, "detail": failure, "reason": job.reason})

    result = {
        "provenance": provenance(args.seed),
        "jobs": [{"name": j.name, "reason": j.reason, "expected": j.expected} for j in job_list],
        "passes": passes,
        "traced_passes": traced,
        "peak_rss_mb": peak_rss_mb,
        "known_defects": defects,
    }
    if tracer is not None:
        # Counts and times per traced pass; ratios as they are.
        per_pass = {name: value if unit == "ratio" else value / len(traced)
                    for name, (value, unit) in tracer.metrics().items()}
        per_pass["defects.open"] = sum(d["open"] for d in defects)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        per_pass["trace.overhead_frac"] = traced_wall / passes[0]["wall_s"] - 1.0
        result["layers"] = per_pass
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    job_id, span_id, parent, name, t0, t1 = span
                    fh.write(json.dumps({"job": job_id, "id": span_id, "parent": parent, "name": name, "start": t0, "end": t1}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
