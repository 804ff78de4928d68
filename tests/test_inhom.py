"""Inhomogeneous T-Q pipeline: root finding, reconstruction, charges."""

import math

import numpy as np
import pytest

from twistbethe import baes, model
from twistbethe.baes import (
    bae_relative_residual,
    charge_from_roots,
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
    transfer_matrix,
)

ETA = 2.0


def _solve(N, eta=ETA):
    params = ModelParams(N, eta, "anti")
    return params, solve_inhom_baes(params)


def test_two_site_closed_form():
    # the two-site twisted chain is 2 sx.sx with ground energy -2
    params, roots = _solve(2)
    assert energy_inhom(roots, params) == pytest.approx(-2.0, abs=1e-10)


def test_eigenvalue_reconstruction():
    rng = np.random.default_rng(12)
    for N in (3, 4, 6):
        params, roots = _solve(N)
        v = ground_space(params).branch
        for u in rng.uniform(-0.8, 0.8, 4) + 1j * rng.uniform(-0.6, 0.6, 4):
            t_u = transfer_matrix(complex(u), params)
            lam_ed = np.vdot(v, t_u.matvec(v))
            lam_tq = tq_eigenvalue(complex(u), roots)
            assert abs(lam_ed - lam_tq) <= 1e-10 * max(abs(lam_ed), 1.0)


def test_solve_samples_lambda_in_one_batched_contraction(monkeypatch):
    # all 2N+5 points go through one transfer_expectations call; a
    # per-point transfer_matrix loop would raise here
    calls = []
    batched = model.transfer_expectations

    def counting(us, *args):
        calls.append(len(us))
        return batched(us, *args)

    def refused(*args):
        raise AssertionError("solve_inhom_baes built a one-point transfer matrix")

    monkeypatch.setattr(model, "transfer_expectations", counting)
    monkeypatch.setattr(model, "transfer_matrix", refused)
    _solve(6)
    assert calls == [2 * 6 + 5]


def _in_root_strip(lam):
    lo = -math.pi / 2 + baes.ROOT_STRIP_MARGIN
    return np.all((lam.imag > lo) & (lam.imag <= lo + math.pi))


def test_root_fold_puts_the_line_at_plus_half_pi():
    # roots within rounding of Im = +-pi/2, on either side, all land at
    # +pi/2, so the root sum does not depend on which side rounding chose
    for im in (-math.pi / 2 - 1e-13, -math.pi / 2, -math.pi / 2 + 1e-13,
               math.pi / 2 - 1e-13, math.pi / 2, math.pi / 2 + 1e-13):
        lam = baes._fold_root_strip(np.array([0.3 + 1j * im]))
        assert lam[0].real == 0.3
        assert abs(lam[0].imag - math.pi / 2) <= 1e-12
        assert _in_root_strip(lam)
    inside = np.array([0.1 - 1.2j, -0.4 + 0.0j, 0.2 + 1.5j])
    assert np.array_equal(baes._fold_root_strip(inside), inside)
    shifted = baes._fold_root_strip(inside + 1j * math.pi)
    assert np.max(np.abs(shifted - inside)) < 1e-15


def test_root_count_and_residual_definition():
    params, roots = _solve(5)
    assert roots.lam.shape == (5,)
    # abs=0: the residuals are 1e-15 to 1e-13, below approx's default abs
    assert bae_relative_residual(roots.lam, 5, ETA) == pytest.approx(
        roots.residual, rel=1e-6, abs=0)
    # imaginary parts live on the principal strip
    assert np.all(np.abs(roots.lam.imag) <= math.pi / 2 + 1e-12)


def test_contribution_signs():
    assert inhom_contribution(8, ETA, "Energy") > 0
    assert inhom_contribution(7, ETA, "Energy") < 0


def test_contribution_momentum_even():
    # reduced momentum deviates from the exact doublet branch by a pure
    # imaginary defect with a fixed sign that decays with N
    vals = [complex(inhom_contribution(N, ETA, "Momentum")) for N in (4, 6, 8)]
    for v in vals:
        assert abs(v.real) < 1e-12
        assert v.imag < 0
    mags = [abs(v.imag) for v in vals]
    assert mags == sorted(mags, reverse=True)


def test_contribution_exact_zeros_odd():
    for N in (5, 7, 9):
        assert inhom_contribution(N, ETA, "Momentum") == 0
        assert inhom_contribution(N, ETA, "ChargeH2") == 0


def test_charge_contributions_need_no_ed(monkeypatch):
    # the exact charges are the ground doublet's analytic values: t(0)
    # phases for the momentum, 0 for H2, so neither touches ED, at any N
    expected = {N: (inhom_contribution(N, ETA, "Momentum"),
                    inhom_contribution(N, ETA, "ChargeH2")) for N in (4, 5)}

    def unreachable(*args, **kwargs):
        raise AssertionError("ED called for a charge")

    for name in ("ground_space", "build_h2_charge", "build_hamiltonian", "ed_spectrum"):
        monkeypatch.setattr(model, name, unreachable)
    for N, values in expected.items():
        assert (inhom_contribution(N, ETA, "Momentum"),
                inhom_contribution(N, ETA, "ChargeH2")) == values
    roots = baes.solve_log_baes(ETA, 22, baes.ground_quantum_numbers(22, "anti"))
    assert inhom_contribution(22, ETA, "ChargeH2") == charge_from_roots("ChargeH2", roots).real


def test_h2_expectation_on_branch_vector_is_exactly_zero():
    # why ChargeH2's exact value is 0 with no ED: H2's elements are
    # imaginary; the branch vector is (mu v + t(0) v)/sqrt 2 with v real,
    # and H2 keeps parity, while v and t(0) v lie in different parity blocks
    for N in (4, 6, 8, 10):
        params = ModelParams(N, ETA, "anti")
        v = model.ground_space(params).branch
        assert np.vdot(v, model.build_h2_charge(params).matvec(v)).real == 0.0


def test_contribution_h2_even():
    vals = [inhom_contribution(N, ETA, "ChargeH2") for N in (4, 6, 8)]
    assert all(v < 0 for v in vals)
    mags = [abs(v) for v in vals]
    assert mags == sorted(mags, reverse=True)


def test_momentum_from_inhom_roots_on_doublet_branch():
    for N, expected in ((4, math.pi / 2), (5, (0.0, math.pi))):
        params, roots = _solve(N)
        p = charge_from_roots("Momentum", roots)
        assert abs(p.real) < 1e-9
        if N % 2 == 0:
            assert abs(abs(p.imag) - math.pi / 2) < 1e-9
        else:
            assert min(abs(p.imag), abs(abs(p.imag) - math.pi)) < 1e-9
        # <branch|H2|branch> is 0 in ED; the roots give it to rounding
        assert abs(charge_from_roots("ChargeH2", roots)) < 1e-11


def test_rejects_unsupported_inputs(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("roots solved before the input was refused")

    # inhom_contribution must refuse before it solves the log-BAEs
    monkeypatch.setattr(baes, "solve_log_baes", unreachable)
    with pytest.raises(ValueError):
        solve_inhom_baes(ModelParams(4, ETA, "per"))
    with pytest.raises(ValueError):
        solve_inhom_baes(ModelParams(14, ETA, "anti"))
    with pytest.raises(ValueError):
        inhom_contribution(22, ETA, "Energy")
    for observable in ("Spin", "p", "h2"):
        with pytest.raises(ValueError):
            inhom_contribution(8, ETA, observable)


def test_other_anisotropy():
    params = ModelParams(4, 1.2, "anti")
    roots = solve_inhom_baes(params)
    e = energy_inhom(roots, params)
    ed = ed_spectrum(build_hamiltonian(params), 1).eigenvalues[0]
    assert e == pytest.approx(ed, abs=1e-9)


# solve_inhom_baes accepts any N <= 12.  These five points inside that range
# fail the Q-fit gate today (residuals 8.8e-5, 1.2e-6, 3.5e-3, 1.6e-3, 8.6e-4 against
# 1e-6); strict, so a fix that makes one pass has to remove its mark here.
_INHOM_FAILING = {(2.0, 12), (3.0, 9), (3.0, 10), (3.0, 11), (3.0, 12)}


@pytest.mark.parametrize("eta, N", [
    pytest.param(eta, N, marks=pytest.mark.xfail(strict=True, raises=baes.ConvergenceError))
    if (eta, N) in _INHOM_FAILING else (eta, N)
    for eta in (1.0, 2.0, 3.0) for N in range(3, 13)])
def test_inhom_energy_matches_sector_ed_over_promised_range(eta, N):
    params, roots = _solve(N, eta)
    ed = ed_spectrum(build_hamiltonian(params), 1).eigenvalues[0]
    assert abs(energy_inhom(roots, params) - ed) <= 1e-12 * abs(ed)
    assert roots.residual < 1e-9
    assert _in_root_strip(roots.lam)
