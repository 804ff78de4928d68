"""Start-up cost: scipy.optimize loads only where a root or a fit is solved."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from twistbethe import scaling

ROOT = Path(__file__).resolve().parents[1]

# A fit, a hole-quantization term and a hole rapidity, frozen as float.hex:
# loading scipy.optimize on first use must not move them by a bit.
_SCRIPT = textwrap.dedent("""
    import sys
    import twistbethe, twistbethe.workbench, twistbethe.workbench.cli
    from twistbethe import baes, model, scaling, thermo
    from twistbethe.common import Boundary
    from twistbethe.workbench.config import ExperimentConfig
    from twistbethe.workbench.runner import run

    [record] = run(ExperimentConfig("EinhScan", N_list=(4,), output_dir=sys.argv[1]))
    assert record.status == "ok", record
    baes.solve_inhom_baes(model.ModelParams(4, 2.0, "anti"))
    assert "scipy.optimize" not in sys.modules

    fit = scaling.fit("power-offset",
                      [(N, 1.3 * N ** -1.5 + 0.25) for N in (8, 10, 12, 16, 20, 24)])
    assert [v.hex() for v in (fit.a, fit.b, fit.c)] == [
        "0x1.4cccccccccc83p+0", "-0x1.7ffffffffffe2p+0", "0x1.ffffffffffffcp-3"]
    assert thermo.hole_quantization_energy(60, 2.0, "anti").hex() == "0x1.4e284db22fa00p-7"
    qn = baes.ground_quantum_numbers(60, Boundary.ANTIPERIODIC)
    roots = baes.solve_log_baes(2.0, 60, qn)
    assert baes.hole_rapidity(roots, min(qn.twice_I) - 2).hex() == "-0x1.85f0678464a6ap+0"
    assert "scipy.optimize" in sys.modules
""")


def test_ed_and_tq_runs_leave_scipy_optimize_unloaded(tmp_path):
    # a fresh interpreter, since this one has loaded scipy.optimize already
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path / "results")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_patched_least_squares_sees_every_lm_call(monkeypatch):
    # perfbench counts LM evaluations by patching scaling.least_squares, so
    # the offset fit must look the name up at call time
    calls = []
    original = scaling.least_squares

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result.nfev)
        return result

    monkeypatch.setattr(scaling, "least_squares", counting)
    samples = [(N, 1.3 * N ** -1.5 + 0.25) for N in (8, 10, 12, 16, 20, 24)]
    scaling.fit("power-offset", samples)
    assert len(calls) == 1 and calls[0] > 0
    scaling.fit_with_window("power-offset", samples)   # at least two more fits
    assert len(calls) >= 3
