"""Show that each workload's checks catch a wrong program.

    python3 perfbench/selftest.py

Runs every workload once on small grids and requires its checks to pass,
then perturbs the program at run time by replacing one function at its
module attribute (no source file changes) and requires the same checks
to fail.  Takes about half a minute.  Exits 0 when every perturbation is
caught.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
from pathlib import Path

from run import OUT, THREADS

os.environ.update(THREADS)
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402  (after the thread settings)

from twistbethe import baes, model, scaling, thermo  # noqa: E402
from workloads import EdScan, InhomTQ, LargeNExtrap  # noqa: E402


@contextlib.contextmanager
def patched(owner, name, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _shift_spectrum(original):
    def ed_spectrum(*args, **kwargs):
        out = original(*args, **kwargs)
        res = out[0] if isinstance(out, tuple) else out
        res.eigenvalues = res.eigenvalues + 1e-7
        return out
    return ed_spectrum


def _offset(delta):
    return lambda original: (lambda *a, **k: original(*a, **k) + delta)


def _scale(factor):
    return lambda original: (lambda *a, **k: original(*a, **k) * factor)


def _cases(workdir):
    ed = EdScan(7, workdir, einh_n=(4, 5, 6, 7), einh_top=8, boundary_n=(4, 5, 6),
                spectrum_n=(4, 5, 6))
    inhom = InhomTQ(7, workdir, points=((1.0, 4), (1.0, 5), (2.0, 5)),
                    failing=())
    large = LargeNExtrap(7, workdir, even_n={2.0: (100, 150, 200, 300)},
                         odd_range={2.0: (101, 201)}, failing=())
    return [
        (ed, "ed_spectrum eigenvalues + 1e-7", model, "ed_spectrum", _shift_spectrum),
        (ed, "inhom_contribution + 1e-7", baes, "inhom_contribution", _offset(1e-7)),
        (inhom, "energy_inhom + 1e-7", baes, "energy_inhom", _offset(1e-7)),
        (inhom, "tq_eigenvalue * (1 + 1e-7)", baes, "tq_eigenvalue", _scale(1 + 1e-7)),
        (large, "e0_density + 1e-6", thermo, "e0_density", _offset(1e-6)),
        (large, "energy_hom + 1e-7", baes, "energy_hom", _offset(1e-7)),
        (large, "extrapolate + 2e-5", scaling, "extrapolate", _offset(2e-5)),
    ]


def _problems(workload):
    rnd = workload.round(0)
    workload.check(rnd)
    return rnd.problems, rnd.failures


def main() -> int:
    missed = 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        cases = _cases(Path(tmp))
        for workload in {id(c[0]): c[0] for c in cases}.values():
            problems, failures = _problems(workload)
            ok = not problems and not failures
            missed += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload.name}: unperturbed run passes"
                  + ("" if ok else f" ({(problems + failures)[0]})"))
        for workload, label, owner, name, make in cases:
            with patched(owner, name, make):
                problems, failures = _problems(workload)
            caught = bool(problems)
            missed += not caught
            print(f"{'ok  ' if caught else 'FAIL'} {workload.name}: {label} -> "
                  + (problems[0] if caught else "not caught"))
    return 1 if missed else 0


if __name__ == "__main__":
    np.seterr(all="ignore")
    sys.exit(main())
