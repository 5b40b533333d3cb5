"""cesarolab benchmark: one workload per run, end-to-end or per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload zoo-tables --seed 1 --seconds 26 --trace 0

The package is imported from `src/` of the checkout; nothing is installed.
With `--trace 0` the run reports the end-to-end metrics (set-up time, wall
time of one pass over the workload's jobs, peak resident memory).  With
`--trace 1` it reports per-layer counters and self times from a traced pass
and writes the spans to `perfbench/out/`.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
SETUP_CODE = "import cesarolab.cli, cesarolab.zoo as zoo; zoo.all_entries()"
DEADLINE_S = 170.0  # the worker is stopped past this, and the run fails


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and build the zoo."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def pass_wall(passes: list[dict]) -> float:
    """Wall time of one pass: the sum over jobs of each job's median time across passes."""
    return sum(statistics.median(p["times"][name] for p in passes) for name in passes[0]["times"])


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cesarolab" / "__init__.py").is_file():
        print(f"error: no cesarolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = child_env()
    setup = [] if args.trace else measure_setup(env)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans", str(OUT / f"spans-{stem}.jsonl")]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
    except subprocess.TimeoutExpired:
        print(f"error: workload process passed the {DEADLINE_S:g} s deadline and was stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = setup
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    all_passes = result["passes"] + result["traced_passes"]
    attempted = sum(len(p["times"]) for p in all_passes)
    failures = [(name, why) for p in all_passes for name, why in p["failures"].items()]
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    walls = [p["wall_s"] for p in result["passes"]]
    print(f"{args.workload}: {len(result['jobs'])} jobs, {len(walls)} untraced passes "
          f"({', '.join(f'{w:.3f}' for w in walls)} s), {len(result['traced_passes'])} traced")
    for name, why in failures:
        print(f"  FAILED {name}: {why}")
    for defect in result["known_defects"]:
        state = "still open" if defect["open"] else "fixed"
        print(f"  known defect {state}: {defect['job']} ({defect['reason']}) {defect['detail'] or ''}")

    if args.trace:
        metrics = {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]} for m in declared["per_layer"]}
    else:
        metrics = {
            "wall_s": {"value": pass_wall(result["passes"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
