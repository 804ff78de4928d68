"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload ed_scan --seed 1 --seconds 35 --trace 0

Run from the root of a source tree that holds `src/twistbethe`.  The
workload runs in a fresh `worker.py` process whose BLAS and OpenMP
thread counts are pinned below.  `setup_s` is the median over
`SETUP_SAMPLES` process starts (the workload process and extra ones that
stop after warm-up).  `wall_s`, `largest_point_s` and the per-layer
metrics are medians over the rounds of the run.  `attempted` and `failed`
are the counts of one round, so that they do not grow with the number of
rounds the host's speed allows; should the rounds disagree, the round
with the most failures is reported.  The full record, with
every round, the thread settings and the library versions, is written
to `.perfbench_out/results/`.

Exit codes: 0 when the workload ran (its checks may still have failed;
see "correct"), 2 on bad arguments or a tree without the program, 3 when
a worker process failed or overran (`2 * --seconds + 60` s).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# One thread each: steadier than two on a 2-core machine, and faster for
# every layer except the dense eigh (see README.md).
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
WORKLOADS = ("ed_scan", "inhom_tq", "large_n_extrap")


def _worker(args, workdir, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, env={**os.environ, **THREADS}, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "twistbethe" / "__init__.py").is_file():
        print(f"no program at {ROOT / 'src' / 'twistbethe'}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [_worker(args, workdir, "--setup-only", timeout=60.0)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        run = _worker(args, workdir, "--seconds", str(args.seconds),
                      *(["--trace"] if args.trace else []), timeout=2 * args.seconds + 60)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(run["setup_s"])

    rounds = run["rounds"]
    median = lambda key: statistics.median(r[key] for r in rounds)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "wall_s": {"value": median("wall_s"), "unit": "s"},
                   "largest_point_s": {"value": median("largest_point_s"), "unit": "s"},
                   "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"}}
    problems = [p for r in rounds for p in r["problems"]]
    counts = {(a, f) for r in rounds for a, f in zip(r["attempted"], r["failed"])}
    if len(counts) > 1:
        print(f"rounds disagree on (attempted, failed): {sorted(counts)}", file=sys.stderr)
    attempted, failed = max(counts, key=lambda c: (c[1], c[0]))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setups, "result": result,
              **{k: run[k] for k in ("environment", "measured_s", "warm_up_rss_mb",
                                     "rounds")}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": run["environment"], "rounds": len(rounds),
                      "failures": sorted({f for r in rounds for f in r["failures"]})}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
