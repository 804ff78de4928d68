"""Reference figures: the layer baselines of ROADMAP item 1 and the
repository's own suites, timed once each with the benchmark's thread
settings.

    python3 perfbench/baselines.py            # about six minutes

Prints one line per figure.  Not part of the benchmark command; the
README records its output.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import OUT, THREADS

os.environ.update(THREADS)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src")]

from twistbethe import baes, model, scaling  # noqa: E402  (after the thread settings)


def timed(label, fn, *args, **kwargs):
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    print(f"{label:<44s} {time.perf_counter() - t0:8.3f} s", flush=True)


def command(label, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    print(f"{label:<44s} {time.perf_counter() - t0:8.3f} s  (exit {proc.returncode})",
          flush=True)


def main() -> int:
    anti = lambda N: model.ModelParams(N, 2.0, "anti")
    for N in (10, 12):
        timed(f"dense transfer_matrix build, N={N}", model.transfer_matrix, 0.3j, anti(N))
    timed("solve_inhom_baes, eta=2, N=10", baes.solve_inhom_baes, anti(10))
    H12 = model.build_hamiltonian(anti(12))
    timed("dense eigh (ed_spectrum), N=12", model.ed_spectrum, H12, 2, method="dense")
    timed("ARPACK (ed_spectrum), N=12", model.ed_spectrum, H12, 2, method="iterative")
    for N in (16, 18):
        H = model.build_hamiltonian(anti(N))
        timed(f"ARPACK ground doublet, N={N}", model.ed_spectrum, H, 2)
    qn = baes.ground_quantum_numbers(1600, "anti")
    timed("log-BAE Newton, eta=2, N=1600", baes.solve_log_baes, 2.0, 1600, qn)
    samples = [(N, 1.3 + 39.1 * N ** -2.0 + 0.7 * N ** -3.0)
               for N in (100, 150, 200, 300, 400, 600, 800, 1200)]
    timed('fit("power-offset") on 8 points', scaling.fit, "power-offset", samples)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out:
        command("CLI EinhScan --eta 2 --n 8..18:2", "-m", "twistbethe.workbench.cli",
                "EinhScan", "--eta", "2", "--n", "8..18:2", "--out", out)
    command("verify --level fast", "-m", "twistbethe.workbench.cli", "verify",
            "--level", "fast")
    command("verify --level full", "-m", "twistbethe.workbench.cli", "verify",
            "--level", "full")
    command("tier-1 suite (pytest -q)", "-m", "pytest", "-q",
            "--continue-on-collection-errors", "-p", "no:cacheprovider")
    return 0


if __name__ == "__main__":
    sys.exit(main())
