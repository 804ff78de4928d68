"""Acceptance suite: one check per headline capability, one line each.

Each criterion calls a check function of ``twistbethe.workbench.verify``
with its own sizes; the bounds live beside those functions.  Each test
prints a single PASS/FAIL line (bypassing capture) and then asserts the
check's bounds and the criterion's runtime budget, so the printed
transcript mirrors the pytest outcome.
"""

import math
import time

import pytest

from twistbethe.workbench.verify import (
    check_charges,
    check_einh_signs,
    check_exact_vs_band_edge,
    check_inhom_vs_ed,
    check_large_n_consistency,
    check_operator_identities,
    check_parity_reversal,
    check_scaling_recovery,
    check_thermo_series,
)


@pytest.fixture
def report(capsys):
    def _report(name, budget, check, *args, **kwargs):
        t0 = time.perf_counter()
        measured = check(*args, **kwargs)
        dt = time.perf_counter() - t0
        ok = measured.ok and dt < budget
        line = f"{'PASS' if ok else 'FAIL'}  {name}: {measured.summary()} ({dt:.1f}s)"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def test_criterion_01_twisted_boundary_energy(report):
    report("criterion-01 twisted boundary energy", 1.0,
           check_thermo_series, boundary_etas=(2.0, 3.0))


def test_criterion_02_excitation_gap(report):
    report("criterion-02 excitation gap", 1.0,
           check_thermo_series, gap_etas=(2.0, 3.0))


def test_criterion_03_isotropic_limit(report):
    report("criterion-03 isotropic limit", math.inf,
           check_thermo_series, isotropic_etas=(0.6, 0.45, 0.3, 0.2, 0.05))


def test_criterion_04_inhom_tq_vs_ed(report):
    report("criterion-04 inhomogeneous T-Q vs ED", 120.0, check_inhom_vs_ed, (4, 6, 8))


def test_criterion_05_inhom_term_sign_and_decay(report):
    report("criterion-05 inhomogeneous term sign and decay", 1800.0,
           check_einh_signs, (8, 10, 12, 14, 16, 18), (7, 9, 11, 13, 15, 17))


def test_criterion_06_large_n_homogeneous(report):
    report("criterion-06 large-N homogeneous convergence", 10.0,
           check_large_n_consistency, (200, 201))


def test_criterion_07_parity_reversal(report):
    report("criterion-07 parity reversal", math.inf,
           check_parity_reversal, (2.0,), (100, 101))


def test_criterion_08_operator_identities(report):
    report("criterion-08 operator identities", 60.0, check_operator_identities, 6, 20)


def test_criterion_09_conserved_charges(report):
    report("criterion-09 conserved charges", math.inf,
           check_charges, range(4, 13, 2), range(5, 13, 2))


def test_criterion_10_fit_engine(report):
    report("criterion-10 fit engine", math.inf,
           check_scaling_recovery, (range(4, 20, 2),),
           ed_etas=(2.0, 3.0), ed_sizes=(4, 6, 8, 10, 12))


def test_exact_ground_energy_at_band_edge_up_to_exponential(report):
    # ROADMAP item 1: twisted even N = 8..20, sector ED at every size
    report("exact ground energy vs band-edge table", math.inf,
           check_exact_vs_band_edge, (2.0, 3.0), range(8, 21, 2))
