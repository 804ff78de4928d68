"""Thermodynamic-limit series: oracles, identities, guards."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from twistbethe import thermo
from twistbethe.common import Boundary, Parity
from twistbethe.thermo import (
    XXX_LIMIT,
    bulk_counting,
    density_fourier,
    e0_density,
    excitation_gap_tl,
    ground_energy_tl,
    hole_energy,
    hole_quantization_energy,
    kernel_a,
    twisted_boundary_energy,
)
from twistbethe.workbench.verify import check_thermo_series

# frozen from an independent 40-digit evaluation of the defining series
E0_ETA2 = -4.023304650511254
EB_OVER_COSH_ETA2 = 1.0274615190603027
EB_OVER_COSH_ETA3 = 1.6135586287295256
GAP_OVER_COSH_ETA2 = 2.054923038120605
GAP_OVER_COSH_ETA3 = 3.227117257459051


def test_e0_density_frozen_value():
    assert e0_density(2.0) == pytest.approx(E0_ETA2, abs=1e-14)


def test_twisted_boundary_energy_values():
    assert twisted_boundary_energy(2.0, Parity.EVEN) / math.cosh(2.0) == pytest.approx(
        EB_OVER_COSH_ETA2, abs=1e-13)
    assert twisted_boundary_energy(3.0, Parity.EVEN) / math.cosh(3.0) == pytest.approx(
        EB_OVER_COSH_ETA3, abs=1e-13)
    assert twisted_boundary_energy(2.0, Parity.ODD) == pytest.approx(
        -twisted_boundary_energy(2.0, Parity.EVEN), abs=1e-15)
    assert twisted_boundary_energy(2.0, "Even") == twisted_boundary_energy(2.0, Parity.EVEN)
    for alias in ("e", "o"):   # one spelling per parity
        with pytest.raises(ValueError):
            twisted_boundary_energy(2.0, alias)


def test_gap_values():
    assert excitation_gap_tl(2.0, Parity.ODD) / math.cosh(2.0) == pytest.approx(
        GAP_OVER_COSH_ETA2, abs=1e-13)
    assert excitation_gap_tl(3.0, Parity.ODD) / math.cosh(3.0) == pytest.approx(
        GAP_OVER_COSH_ETA3, abs=1e-13)
    assert excitation_gap_tl(2.0, Parity.EVEN) == 0.0


def test_kernel_quadrature_normalization():
    # each kernel integrates to 1 over one Brillouin zone
    for eta in (0.7, 2.0):
        for m in (1, 2):
            val, err = quad(lambda x: kernel_a(m, x, eta),
                            -math.pi / eta, math.pi / eta, limit=200)
            assert val == pytest.approx(1.0, abs=1e-10)


def test_kernel_fourier_modes():
    # Fourier coefficients of a_m over the zone are e^{-m eta |k|}/(2 pi / ...)
    eta, m = 1.3, 1
    L = 2 * math.pi / eta
    for k in (0, 1, 3):
        re, _ = quad(lambda x: kernel_a(m, x, eta) * math.cos(k * eta * x),
                     -math.pi / eta, math.pi / eta, limit=200)
        assert re * L / (2 * math.pi / eta) == pytest.approx(
            math.exp(-m * eta * abs(k)), abs=1e-10)


def test_hole_energy_band_edge_equals_boundary_energy():
    for eta in (0.5, 1.0, 2.0, 3.0):
        assert hole_energy(math.pi / eta, eta) == pytest.approx(
            twisted_boundary_energy(eta, Parity.EVEN), abs=1e-13)


def test_hole_energy_window_and_shape():
    eta = 2.0
    with pytest.raises(ValueError):
        hole_energy(1.2 * math.pi / eta, eta)
    xs = np.linspace(-math.pi / eta, math.pi / eta, 41)
    vals = np.array([hole_energy(float(x), eta) for x in xs])
    assert np.all(vals > 0)
    assert vals.argmax() == 20            # maximum at x0 = 0
    assert np.all(np.diff(vals[:21]) > 0)  # rising toward the center
    assert np.all(np.diff(vals[20:]) < 0)  # falling toward the edge
    assert vals == pytest.approx(vals[::-1], abs=1e-13)  # even in x0


def test_hole_energy_minimal_at_band_edge():
    eta = 2.0
    edge = hole_energy(math.pi / eta, eta)
    interior = [hole_energy(x, eta) for x in np.linspace(0, math.pi / eta, 30)[:-1]]
    assert all(v > edge for v in interior)


def test_series_stop_rule_matches_long_sums():
    # the series stop at the first term whose envelope is below TERM_TOL;
    # the same closed forms summed over 2 ceil(40/eta) terms, far past that
    # stop, agree with them
    for eta in (0.3, 1.0, 2.5):
        k = range(1, 2 * math.ceil(40.0 / eta) + 1)
        sh, ch = math.sinh(eta), math.cosh(eta)
        e0 = -8.0 * sh * math.fsum(1.0 / (1.0 + math.exp(2.0 * eta * n)) for n in k) \
            - 2.0 * sh + ch
        eb = 4.0 * sh * math.fsum((-1.0) ** n / math.cosh(eta * n) for n in k) + 2.0 * sh
        assert e0_density(eta) == pytest.approx(e0, abs=1e-13)
        assert twisted_boundary_energy(eta, Parity.EVEN) == pytest.approx(eb, abs=1e-13)


def test_xxx_limit():
    eta = 1e-3
    assert e0_density(eta) / math.cosh(eta) == pytest.approx(
        XXX_LIMIT, abs=2e-3)
    assert XXX_LIMIT == pytest.approx(1.0 - 4.0 * math.log(2.0), abs=0)


def test_band_edge_hole_vanishes_at_small_eta():
    # exponentially small: compare on a grid above float noise (~1e-16)
    vals = [hole_energy(math.pi / eta, eta) for eta in (0.6, 0.45, 0.3, 0.2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(hole_energy(math.pi / 0.05, 0.05)) < 1e-3


def test_eta_guard():
    with pytest.raises(ValueError):
        e0_density(1e-6)
    with pytest.raises(ValueError):
        e0_density(-1.0)


def test_ground_energy_tl_tabulates_hole():
    eta, N = 2.0, 100
    e0 = e0_density(eta)
    eh = hole_energy(math.pi / eta, eta)
    assert ground_energy_tl(N, eta, Boundary.ANTIPERIODIC) == pytest.approx(
        N * e0 + eh, abs=1e-14)
    assert ground_energy_tl(N, eta, Boundary.PERIODIC) == pytest.approx(
        N * e0, abs=1e-14)
    assert ground_energy_tl(N + 1, eta, Boundary.ANTIPERIODIC) == pytest.approx(
        (N + 1) * e0, abs=1e-14)
    assert ground_energy_tl(N + 1, eta, Boundary.PERIODIC) == pytest.approx(
        (N + 1) * e0 + eh, abs=1e-14)


def test_parity_reversal_of_boundary_energy():
    for eta in (1.0, 2.0):
        e_b = twisted_boundary_energy(eta, Parity.EVEN)
        for N, sign in ((60, 1.0), (61, -1.0)):
            diff = (ground_energy_tl(N, eta, Boundary.ANTIPERIODIC)
                    - ground_energy_tl(N, eta, Boundary.PERIODIC))
            assert diff == pytest.approx(sign * e_b, abs=1e-13)


def test_density_fourier_case_guards():
    eta, N = 2.0, 10
    with pytest.raises(ValueError):
        density_fourier(0, N, eta, Boundary.ANTIPERIODIC)  # hole case needs x0
    with pytest.raises(ValueError):
        density_fourier(0, N + 1, eta, Boundary.ANTIPERIODIC, x0=0.1)


def test_density_fourier_energy_reconstruction():
    # summing the mode expansion against e^{-eta|k|} reproduces the
    # thermodynamic-limit table entries, hole and boundary terms included
    m = check_thermo_series(etas=(1.0, 2.0, 3.0))
    assert "density contraction vs table" in m.worst
    assert m.ok, m.summary()


def test_bulk_counting_integrates_its_density():
    # Z(x) = int_0^x rho_inf, 1/4 at the band edge; a number and an array
    # (two routes to the harmonics) give the same values
    for eta in (0.5, 1.0, 2.0):
        xs = np.array([0.3, 1.1, math.pi / eta])
        z, rho = bulk_counting(xs, eta)
        for x, zx, rx in zip(xs, z, rho):
            integral, _ = quad(lambda y: bulk_counting(y, eta)[1], 0.0, x, epsabs=1e-14)
            assert zx == pytest.approx(integral, abs=1e-13)
            assert bulk_counting(x, eta) == pytest.approx((zx, rx), abs=1e-15)
        assert z[-1] == pytest.approx(0.25, abs=1e-15)


def test_hole_quantization_energy_zero_without_hole():
    assert hole_quantization_energy(200, 2.0, Boundary.PERIODIC) == 0.0
    assert hole_quantization_energy(201, 2.0, Boundary.ANTIPERIODIC) == 0.0


def test_hole_quantization_energy_positive_with_hole():
    for N, boundary in ((200, Boundary.ANTIPERIODIC), (201, Boundary.PERIODIC)):
        assert hole_quantization_energy(N, 2.0, boundary) > 0.0


def test_hole_quantization_energy_leading_order():
    # the hole sits 1/(4 N rho(pi/eta)) inside the edge, where e_h has zero
    # slope, so N^2 times the term tends to e_h''(pi/eta) / (32 rho^2)
    eta = 2.0
    k = np.arange(1, 60)
    alt_sech = (-1.0) ** k / np.cosh(eta * k)
    rho_edge = eta / (2 * math.pi) * (0.5 + alt_sech.sum())
    eh2 = -4.0 * math.sinh(eta) * eta ** 2 * (k ** 2 * alt_sech).sum()
    coeff = eh2 / (32.0 * rho_edge ** 2)
    assert coeff == pytest.approx(39.10, abs=0.01)
    for N, boundary in ((20000, Boundary.ANTIPERIODIC), (20001, Boundary.PERIODIC)):
        got = N ** 2 * hole_quantization_energy(N, eta, boundary)
        assert got == pytest.approx(coeff, rel=1e-3)


@pytest.mark.parametrize("eta", [0.8, 1.0, 2.0, 3.0, 20.0])
def test_hole_offset_matches_brentq(eta):
    # the bracketed Newton's delta against brentq on the same condition, at
    # the smallest admitted N and ten times it, on both chains: they
    # differed by at most 4.9e-15 (eta 0.8, N = 1896, periodic), the
    # rounding of the condition, N eps, over its slope N rho
    edge = math.pi / eta
    n0 = thermo._hole_term_min_n(eta)
    for N in (n0, 10 * n0):
        for drift in (0.0, eta / (4.0 * math.pi)):
            def condition(delta):
                return N * (0.25 - bulk_counting(edge - delta, eta)[0]) + drift * delta - 0.25

            want = brentq(condition, 0.0, edge, xtol=1e-15)
            assert abs(thermo._hole_offset(N, eta, drift) - want) <= 1e-14


def test_hole_quantization_energy_refuses_outside_range():
    with pytest.raises(ValueError):
        hole_quantization_energy(50, 2.0, Boundary.ANTIPERIODIC)
    with pytest.raises(ValueError):
        hole_quantization_energy(200, 1.0, Boundary.ANTIPERIODIC)
    with pytest.raises(ValueError):
        hole_quantization_energy(201, 1.0, Boundary.ANTIPERIODIC)  # hole-free too
    with pytest.raises(ValueError):
        hole_quantization_energy(200, 25.0, Boundary.PERIODIC)
    assert hole_quantization_energy(51, 2.0, Boundary.PERIODIC) > 0.0
