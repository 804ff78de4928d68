"""
Inhomogeneous T-Q roots from an ED seed
=======================================

The twisted chain's exact eigenvalue identity carries an extra term with
no analogue in the periodic chain, and its Bethe roots solve equations
that do not decouple into logarithmic branches.  This walkthrough fits
the Q polynomial to the ED transfer-matrix eigenvalue, polishes the
roots on the exact equations, and reconstructs everything back.
"""

from twistbethe.baes import (
    bae_relative_residual,
    energy_inhom,
    inhom_contribution,
    solve_inhom_baes,
    tq_eigenvalue,
)
from twistbethe.model import (
    ModelParams,
    build_hamiltonian,
    ed_spectrum,
    ground_space,
    transfer_expectations,
)

eta = 2.0
N = 8
params = ModelParams(N, eta, "anti")

# ---------------------------------------------------------------
# 1. Solve.  Internally: sample the ED eigenvalue of t(u) on a circle,
#    fit Q linearly in z = exp(2u), take its roots, then Newton-polish
#    on the exact root conditions.

roots = solve_inhom_baes(params)
print("roots lambda_j:")
for lam in roots.lam:
    print(f"  {lam.real:+.10f} {lam.imag:+.10f}i")
print(f"relative residual: {bae_relative_residual(roots.lam, N, eta):.2e}")

# ---------------------------------------------------------------
# 2. Energy against ED, and the eigenvalue identity at arbitrary u.

E = energy_inhom(roots, params)
E_ed = ed_spectrum(build_hamiltonian(params), 1).eigenvalues[0]
print(f"\nE(roots) = {E:+.14f}")
print(f"E_ED     = {E_ed:+.14f}   (diff {abs(E - E_ed):.1e})")

v = ground_space(params).branch
us = (0.3 + 0.2j, -0.6 - 0.1j)
for u, lam_ed in zip(us, transfer_expectations(us, params, v)):
    lam_tq = tq_eigenvalue(u, roots)
    print(f"Lambda({u}): ED {lam_ed:.10f}  reconstruction "
          f"{lam_tq:.10f}")

# ---------------------------------------------------------------
# 3. The extra term's energy contribution: positive for even N,
#    negative for odd, shrinking with N.  Odd chains admit a symmetric
#    root set for which the momentum and the next charge lose the extra
#    term exactly.

print("\nE_inh(N):")
for n in (7, 8, 9, 10, 11, 12):
    print(f"  N={n:2d}: {inhom_contribution(n, eta, 'Energy'):+.8f}")
print("odd-N momentum contribution:",
      inhom_contribution(9, eta, "Momentum"))
