"""Acceptance suite: one run of ``twistbethe verify --level full``.

The sizes of each check are its ``full`` arguments in
``twistbethe.workbench.verify.CHECKS`` and its bounds sit beside its
function, so this file holds neither.  Each test prints its check's
PASS/FAIL line (bypassing capture) and then asserts that the check passed
within its runtime budget, so the printed transcript mirrors the pytest
outcome.  The tests carry the numbers of the paper's criteria 1-10
(README, Checks); criteria 1-3 are one check.
"""

import math

import pytest

from twistbethe.workbench import verify as checks
from twistbethe.workbench.verify import CHECKS, verify

# runtime budget of a check, in seconds; a check not named has none
BUDGETS = {"thermo-series-identities": 1.0, "large-n-bae-consistency": 10.0,
           "operator-identities": 60.0, "inhom-roots-vs-ed": 120.0,
           "inhom-energy-signs": 1800.0}


@pytest.fixture(scope="module")
def full():
    return verify("full")


@pytest.fixture
def holds(full, capsys):
    def _holds(name):
        result = next(c for c in full.checks if c.name == name)
        with capsys.disabled():
            print(result.line(), flush=True)
        assert result.ok and result.elapsed < BUDGETS.get(name, math.inf), result.line()
    return _holds


def test_every_check_function_runs_at_full():
    # so that no check can be left out of this suite
    functions = {f for name, f in vars(checks).items() if name.startswith("check_")}
    assert functions == {check for check, _fast, full_args in CHECKS.values()
                         if full_args is not None}


def test_full_level_passes_every_check(full):
    assert "OK: 11/11 checks passed" in full.summary()


def test_criterion_01_twisted_boundary_energy(holds):
    holds("thermo-series-identities")


def test_criterion_02_excitation_gap(holds):
    holds("thermo-series-identities")


def test_criterion_03_isotropic_limit(holds):
    holds("thermo-series-identities")


def test_criterion_04_inhom_tq_vs_ed(holds):
    holds("inhom-roots-vs-ed")


def test_criterion_05_inhom_term_sign_and_decay(holds):
    holds("inhom-energy-signs")


def test_criterion_06_large_n_homogeneous(holds):
    holds("large-n-bae-consistency")


def test_criterion_07_parity_reversal(holds):
    holds("parity-reversal")


def test_criterion_08_operator_identities(holds):
    holds("operator-identities")


def test_criterion_09_conserved_charges(holds):
    holds("conserved-charges")


def test_criterion_10_fit_engine(holds):
    holds("scaling-fit-recovery")


def test_exact_ground_energy_at_band_edge_up_to_exponential(holds):
    holds("exact-vs-band-edge")


def test_homogeneous_roots_vs_ed(holds):
    holds("hom-roots-vs-ed")


def test_workbench_roundtrip(holds):
    holds("workbench-roundtrip")
