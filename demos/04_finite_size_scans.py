"""
Finite-size sweeps, emitted tables, and scaling fits
====================================================

Drives the sweep runner programmatically (the `twistbethe` CLI wraps the
same calls), writes CSV/JSON/SVG into demos/out/, and extrapolates the
boundary energy to the thermodynamic limit with an offset-exponential
law, reproducing the series value from finite chains alone.
"""

import math

from twistbethe.scaling import Sample, extrapolate, fit, fit_with_window
from twistbethe.thermo import twisted_boundary_energy
from twistbethe.workbench.config import ExperimentConfig
from twistbethe.workbench.emit import emit
from twistbethe.workbench.runner import run

out = "demos/out"

# ---------------------------------------------------------------
# 1. Sweep the boundary-energy difference over even chains.  Results
#    are cached per point under demos/out/cache, so reruns are free.

cfg = ExperimentConfig(experiment="BoundaryEnergyScan", eta=2.0,
                       N_list=[4, 6, 8, 10, 12], output_dir=out)
records = run(cfg)
for fmt in ("csv", "json"):
    for path in emit(records, fmt, out):
        print("wrote", path)

# ---------------------------------------------------------------
# 2. Fit a3*exp(b3*N) + c3 through the points; the offset c3 is the
#    infinite-chain boundary energy.  The windowed variant drops the
#    smallest chains when they sit off the asymptotic law.

samples = [Sample(r.params["N"], r.outputs["e_b_over_cosh"]) for r in records]
plain = fit("exp-offset", samples)
windowed, used = fit_with_window("exp-offset", samples)
target = twisted_boundary_energy(2.0, "even") / math.cosh(2.0)

print(f"\nseries value      : {target:.8f}")
print(f"plain fit offset  : {extrapolate(plain):.8f}")
print(f"windowed ({len(used)} pts) : {extrapolate(windowed):.8f}")

# ---------------------------------------------------------------
# 3. A picture of the decay towards the asymptote, drawn by the native
#    SVG emitter (no plotting stack needed).

paths = emit(records, "svg", out, x_field="N", y_field="e_b_over_cosh",
             fit_result=windowed)
print("wrote", paths[0])

# ---------------------------------------------------------------
# 4. Same machinery for the extra-term energy: a power law with an
#    exponent near -1.4 on desk-scale chains.

cfg = ExperimentConfig(experiment="EinhScan", eta=2.0,
                       N_list=[8, 10, 12, 14], output_dir=out)
records = run(cfg)
samples = [Sample(r.params["N"], r.outputs["e_inh"]) for r in records]
law = fit("power", samples)
print(f"\nE_inh ~ {law.a:.4f} * N^{law.b:.4f}")
for path in emit(records, "svg", out, x_field="N", y_field="e_inh",
                 fit_result=law):
    print("wrote", path)
