"""Start-up cost: the large-N path (reduced log-BAEs, hole term, fits), ED
below the dense cap and the inhomogeneous T-Q solve load no scipy at all;
only the iterative ED solvers load it, on first use."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from twistbethe import scaling

ROOT = Path(__file__).resolve().parents[1]

# The large-N path, with a fit, a hole-quantization term and a hole
# rapidity frozen as float.hex: it must load no scipy module.
_LARGE_N = textwrap.dedent("""
    import sys
    import twistbethe.workbench.cli
    from twistbethe import baes, scaling, thermo
    from twistbethe.common import Boundary

    qn = baes.ground_quantum_numbers(60, Boundary.ANTIPERIODIC)
    roots = baes.solve_log_baes(2.0, 60, qn)
    assert baes.hole_rapidity(roots, min(qn.twice_I) - 2).hex() == "-0x1.85f0678464a6cp+0"
    assert thermo.hole_quantization_energy(60, 2.0, "anti").hex() == "0x1.4e284db22fa00p-7"
    samples = [(N, 1.3 * N ** -1.5 + 0.25) for N in (8, 10, 12, 16, 20, 24)]
    fit = scaling.fit("power-offset", samples)
    assert [v.hex() for v in (fit.a, fit.b, fit.c)] == [
        "0x1.4ccccccccccb6p+0", "-0x1.7fffffffffff8p+0", "0x1.fffffffffffffp-3"]
    scaling.fit_with_window("power-offset", samples)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded
""")

# ED whose solved blocks have at most DENSE_SECTOR_MAX states runs on
# numpy alone: the twisted and periodic ground levels to N = 12 (the
# periodic chain at odd N solves a parity block, 256 states at N = 9), the
# inhomogeneous T-Q solve, ground_space and a dense H.  It must load no
# scipy module.
_DENSE_ED = textwrap.dedent("""
    import sys
    import twistbethe.workbench.cli
    from twistbethe import baes, model
    from twistbethe.workbench.config import ExperimentConfig
    from twistbethe.workbench.runner import run

    for experiment, ns in (("EinhScan", (4, 5, 8, 11, 12)),
                           ("BoundaryEnergyScan", (4, 9, 10, 12))):
        config = ExperimentConfig(experiment, eta=2.0, N_list=ns, output_dir=sys.argv[1])
        for record in run(config):
            assert record.status == "ok", record
    baes.solve_inhom_baes(model.ModelParams(8, 2.0, "anti"))
    assert model.ground_space(model.ModelParams(12, 2.0, "anti")).vectors.shape == (4096, 2)
    assert model.build_hamiltonian(model.ModelParams(10, 2.0, "anti")).dense.shape == (1024, 1024)
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded
""")

# The first iterative ground sector (N = 13, 316 states) runs Lanczos on
# scipy's BLAS and CSR kernel, and loads scipy.sparse for it, never
# scipy.optimize.
_ITERATIVE_ED = textwrap.dedent("""
    import sys
    from twistbethe import model

    H = model.build_hamiltonian(model.ModelParams(13, 2.0, "anti"))
    spec = model.ed_spectrum(H, 2)
    assert (spec.method, spec.block_dim) == ("iterative", 316), spec
    assert "scipy.sparse" in sys.modules
    assert "scipy.optimize" not in sys.modules
""")


def _run_fresh(script, tmp_path):
    # a fresh interpreter, since this one has loaded scipy already
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "results")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_large_n_path_loads_no_scipy(tmp_path):
    _run_fresh(_LARGE_N, tmp_path)


def test_ed_below_the_dense_cap_loads_no_scipy(tmp_path):
    _run_fresh(_DENSE_ED, tmp_path)


def test_first_iterative_sector_loads_scipy_sparse_not_optimize(tmp_path):
    _run_fresh(_ITERATIVE_ED, tmp_path)


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
