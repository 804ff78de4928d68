"""One benchmark process: import the program, warm up, run rounds.

Started by `run.py` with the thread settings already in its environment.
The reported `setup_s` is the process's CPU time at the end of the
warm-up, so it covers process start, imports and warm-up up to the first
timed call.  With `--setup-only` the process stops there.

Rounds run while the next one is expected to end within `--seconds` (at
least one), whole rounds only, and each is checked after it ends.  With
`--trace` each round is run twice with the same inputs, first plain and
then with every public function of the program wrapped (`spans.Tracer`);
the per-layer totals of the traced copy are kept, and the difference of
the two is the tracing overhead.  Prints one JSON object, with the
operation counts of every copy of every round and the peak RSS both at
the end of the warm-up and at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _environment() -> dict:
    import numpy
    import scipy

    blas = {name: module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for name, module in (("numpy", numpy), ("scipy", scipy))}
    return {
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {name: f"{b.get('name')} {b.get('version')}" for name, b in blas.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import twistbethe
    if Path(twistbethe.__file__).resolve().parent != ROOT / "src" / "twistbethe":
        raise SystemExit(f"twistbethe imported from {twistbethe.__file__}, "
                         f"not from {ROOT / 'src'}")
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.warm_up()
    setup_s = time.process_time()
    warm_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    index = 0
    # whole rounds only: start another while it is expected to end in time
    while not rounds or ((time.perf_counter() - start) * (len(rounds) + 1) / len(rounds)
                         <= args.seconds):
        t0 = time.perf_counter()
        plain = workload.round(index)
        elapsed = time.perf_counter() - t0
        workload.check(plain)
        done = [plain]
        # elapsed_s is wall-clock time, kept in the record to show the host's steal
        entry = {"wall_s": plain.wall_s, "largest_point_s": plain.largest_point_s,
                 "failing_s": plain.failing_s, "elapsed_s": elapsed}
        if args.trace:
            tracer.reset()
            tracer.install()
            try:
                traced = workload.round(index)
            finally:
                tracer.uninstall()
            workload.check(traced)
            done.append(traced)
            entry["layers"] = {**tracer.layer_metrics(),
                               "workbench.warm_rerun_s": traced.warm_rerun_s,
                               "trace.overhead_s": traced.wall_s - plain.wall_s}
        entry.update(attempted=[r.attempted for r in done],
                     failed=[r.failed for r in done],
                     problems=[p for r in done for p in r.problems],
                     failures=[f for r in done for f in r.failures])
        rounds.append(entry)
        index += 1

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kib / 1024.0,
                      "warm_up_rss_mb": warm_kib / 1024.0,
                      "measured_s": time.perf_counter() - start,
                      "environment": _environment(), "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
