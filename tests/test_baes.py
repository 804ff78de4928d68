"""Reduced (homogeneous) Bethe equations: kernels, quantum numbers, roots."""

import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from twistbethe import baes, thermo
from twistbethe.baes import (
    ConvergenceError,
    QuantumNumbers,
    charge_from_roots,
    counting_function,
    energy_hom,
    excited_quantum_numbers,
    ground_quantum_numbers,
    hole_rapidity,
    solve_log_baes,
    theta_m,
)
from twistbethe.common import Boundary
from twistbethe.model import ModelParams, build_hamiltonian, ed_spectrum
from twistbethe.thermo import kernel_a

ETA = 2.0

# inhomogeneous-term contributions at eta = 2, frozen from dense/iterative
# diagonalization minus the converged reduced-root energies
EINH_ORACLE = {
    7: -7.2300207980e-2,
    8: +3.0592675732e-1,
    9: -3.1862081744e-2,
    10: +2.3500629818e-1,
}


def test_theta_quadrature_oracle():
    # theta_m is the odd antiderivative of 2 pi a_m
    for m in (1, 2):
        for x_end in (0.7, 1.4):
            val, err = quad(lambda x: kernel_a(m, x, ETA), 0.0, x_end,
                            limit=200)
            assert theta_m(m, x_end, ETA) == pytest.approx(
                2 * math.pi * val, abs=1e-10)


def test_theta_oddness_and_quasi_periodicity():
    xs = np.linspace(-2.5, 2.5, 11)
    for m in (1, 2):
        assert theta_m(m, -xs, ETA) == pytest.approx(-theta_m(m, xs, ETA),
                                                     abs=1e-12)
        shifted = theta_m(m, xs + 2 * math.pi / ETA, ETA)
        assert shifted == pytest.approx(theta_m(m, xs, ETA) + 2 * math.pi,
                                        abs=1e-11)


def test_theta_monotone():
    xs = np.linspace(-4, 4, 400)
    for m in (1, 2):
        assert np.all(np.diff(theta_m(m, xs, ETA)) > 0)


@pytest.mark.parametrize("fn", [kernel_a, theta_m])
@pytest.mark.parametrize("eta", [math.inf, math.nan, 0.0, -1.0])
def test_kernel_and_phase_refuse_eta_outside_the_massive_regime(fn, eta):
    # refused before any arithmetic, as ModelParams refuses it: an infinite
    # eta used to return nan with a RuntimeWarning
    with pytest.raises(ValueError, match="positive and finite"):
        fn(1, 0.5, eta)


def _literal_ground_twice_I(N, boundary):
    # the four cases written out: the hole-carrying ones (twisted even,
    # periodic odd) leave the -M edge slot empty
    if boundary == "anti":
        M = (N + 1) // 2
        return range(-M + 2, M + 1, 2) if N % 2 == 0 else range(-M + 1, M, 2)
    M = N // 2
    return range(-M + 1, M, 2) if N % 2 == 0 else range(-M + 2, M + 1, 2)


def test_ground_quantum_numbers_four_cases():
    assert ground_quantum_numbers(8, "anti").twice_I == (-2, 0, 2, 4)
    assert ground_quantum_numbers(7, "anti").twice_I == (-3, -1, 1, 3)
    assert ground_quantum_numbers(8, "per").twice_I == (-3, -1, 1, 3)
    assert ground_quantum_numbers(9, "per").twice_I == (-2, 0, 2, 4)
    for N in range(2, 42):
        for boundary in ("anti", "per"):
            want = tuple(_literal_ground_twice_I(N, boundary))
            assert ground_quantum_numbers(N, boundary).twice_I == want, (N, boundary)


def test_quantum_number_parity_rules():
    for N in range(4, 13):
        for boundary in (Boundary.ANTIPERIODIC, Boundary.PERIODIC):
            qn = ground_quantum_numbers(N, boundary)
            want_even = ((N - qn.M) % 2 == 0) if boundary is Boundary.ANTIPERIODIC \
                else ((N - qn.M) % 2 == 1)
            for t in qn.twice_I:
                assert (t % 2 == 0) == want_even, (N, boundary)


def test_quantum_numbers_reject_bad_sets():
    with pytest.raises(ValueError):
        QuantumNumbers((0, 0, 2), 8, Boundary.ANTIPERIODIC)   # not increasing
    with pytest.raises(ValueError):
        QuantumNumbers((-1, 0, 2), 8, Boundary.ANTIPERIODIC)  # mixed parity
    with pytest.raises(ValueError):
        QuantumNumbers((0, 2, 4), 8, Boundary.ANTIPERIODIC)   # wrong parity


def test_counting_function_hits_quantum_numbers():
    # N = 400 runs on the Fourier-mode path, the others pairwise
    for N, boundary in ((8, "anti"), (9, "per"), (10, "per"), (11, "anti"), (400, "anti")):
        qn = ground_quantum_numbers(N, boundary)
        roots = solve_log_baes(ETA, N, qn)
        assert (roots.modes > 0) == (N == 400)
        z = counting_function(roots.x, roots)
        assert z == pytest.approx(np.array(qn.twice_I) / (2.0 * N), abs=1e-12)


def _pairwise_residual(x, eta, N, twice_I, anti):
    """Log-BAE residual with theta_2(x_j - x_k) summed pairwise in closed form."""
    F = N * theta_m(1, x, eta) - math.pi * np.asarray(twice_I, dtype=float)
    if anti:
        F = F + eta * x
    return F - theta_m(2, x[:, None] - x[None, :], eta).sum(axis=1)


def _dense_jacobian(x, eta, N, anti):
    """Dense log-BAE Jacobian from kernel_a, pair by pair."""
    J = 2.0 * math.pi * kernel_a(2, x[:, None] - x[None, :], eta)
    np.fill_diagonal(J, 0.0)
    diag = 2.0 * math.pi * N * kernel_a(1, x, eta) - J.sum(axis=1)
    if anti:
        diag = diag + eta
    np.fill_diagonal(J, diag)
    return J


# per eta, one N on each side of the 2K+1 < M rule: (pairwise, Fourier modes)
ORACLE_SIZES = {0.3: (40, 400), 0.8: (30, 200), 1.0: (30, 200), 2.0: (12, 100),
                3.0: (12, 100), 20.0: (6, 40)}


@pytest.mark.parametrize("boundary", ["anti", "per"])
@pytest.mark.parametrize("eta", sorted(ORACLE_SIZES))
def test_interaction_sums_match_pairwise_oracle(eta, boundary):
    rng = np.random.default_rng(7)
    anti = Boundary.coerce(boundary) is Boundary.ANTIPERIODIC
    for N, on_modes in zip(ORACLE_SIZES[eta], (False, True)):
        qn = ground_quantum_numbers(N, boundary)
        roots = solve_log_baes(eta, N, qn)
        K = baes._mode_count(eta, qn.M, N)
        assert roots.modes == K and (K > 0) == on_modes, (N, K)
        tol = 4 * np.finfo(float).eps * 2.0 * math.pi * (N + qn.M)
        for x in (roots.x, roots.x + 1e-3 * rng.uniform(-1.0, 1.0, qn.M)):
            F = _pairwise_residual(x, eta, N, qn.twice_I, anti)
            got, h = baes._log_bae_residual(x, eta, N, qn.twice_I, anti, K)
            assert np.max(np.abs(got - F)) <= tol
            step = baes._newton_step(x, F, h, eta, N, anti, K)
            want = np.linalg.solve(_dense_jacobian(x, eta, N, anti), -F)
            assert np.linalg.norm(step - want) <= 1e-10 * np.linalg.norm(want)


def test_periodic_roots_match_ed():
    for N in range(4, 11):
        qn = ground_quantum_numbers(N, Boundary.PERIODIC)
        roots = solve_log_baes(ETA, N, qn)
        e_hom = energy_hom(roots)
        params = ModelParams(N, ETA, "per")
        ed = ed_spectrum(build_hamiltonian(params), 1).eigenvalues[0]
        assert e_hom == pytest.approx(ed, abs=1e-9)
        assert roots.residual < 1e-12


def test_twisted_energy_defect_matches_frozen_oracle():
    for N, want in EINH_ORACLE.items():
        qn = ground_quantum_numbers(N, Boundary.ANTIPERIODIC)
        roots = solve_log_baes(ETA, N, qn)
        e_hom = energy_hom(roots)
        ed = ed_spectrum(build_hamiltonian(ModelParams(N, ETA, "anti")),
                         1).eigenvalues[0]
        assert e_hom - ed == pytest.approx(want, abs=1e-10)


def test_solver_stops_at_float_resolution():
    # the equations' terms reach 2 pi (N + M), so an absolute 1e-12 lies
    # below their float64 resolution here
    N, eta = 1896, 0.8
    qn = ground_quantum_numbers(N, Boundary.ANTIPERIODIC)
    roots = solve_log_baes(eta, N, qn)
    expected = (thermo.ground_energy_tl(N, eta, Boundary.ANTIPERIODIC)
                + thermo.hole_quantization_energy(N, eta, Boundary.ANTIPERIODIC))
    assert abs(energy_hom(roots) - expected) < 1e-5
    assert roots.residual < 1e-9


@pytest.mark.parametrize("eta", [0.05, 0.3, 1.0, 2.0, 20.0])
def test_decoupled_guess_matches_bisection(eta):
    # the safeguarded Newton of the initial guess, each root decoupled from
    # the others on the bulk counting function Z (plus the twisted chain's
    # drift), lands where bisection of Z = I/(N+1) does: to 4 ulp of the
    # window edge, or, where Z is flat, to 4 ulp of Z's range over its slope
    edge = math.pi / eta
    for N in (3, 60, 1600):
        for boundary in (Boundary.ANTIPERIODIC, Boundary.PERIODIC):
            anti = boundary is Boundary.ANTIPERIODIC
            twice_I = np.asarray(ground_quantum_numbers(N, boundary).twice_I, dtype=float)
            drift = eta / (2.0 * math.pi * N) if anti else 0.0
            lo, hi = np.full(len(twice_I), -edge), np.full(len(twice_I), edge)
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                below = thermo.bulk_counting(mid, eta)[0] + drift * mid < twice_I / (2.0 * (N + 1))
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            x = baes._bulk_seed(eta, N, twice_I, anti)
            slope = thermo.bulk_counting(x, eta)[1] + drift
            tol = 4 * np.finfo(float).eps * (edge + 0.25 / slope)
            assert np.all(np.abs(x - 0.5 * (lo + hi)) <= tol)


def _seed_robustness_cases():
    # the ground states, and periodic even-N two-hole states with both edge
    # slots filled: mapped naively, their extreme slots would seed roots on
    # the window's edge
    for eta in (0.05, 0.3, 1.0, 2.0, 20.0):
        for N in list(range(2, 41)) + [300, 301, 1600, 1601]:
            for boundary in (Boundary.ANTIPERIODIC, Boundary.PERIODIC):
                yield eta, ground_quantum_numbers(N, boundary)
    for eta in (0.3, 0.5):
        for N in (8, 20, 300, 600):
            slots = baes._slot_window(N, N // 2 - 1, Boundary.PERIODIC)
            L = len(slots)
            for holes in ((1, 2), (1, L - 2), (L // 2 - 1, L // 2)):
                yield eta, QuantumNumbers(np.delete(slots, holes), N, Boundary.PERIODIC)


def test_seed_converges_on_ground_and_edge_filled_states():
    for eta, qn in _seed_robustness_cases():
        anti = qn.boundary is Boundary.ANTIPERIODIC
        where = (eta, qn.N, qn.boundary.value, qn.twice_I[:2], qn.twice_I[-2:])
        roots = solve_log_baes(eta, qn.N, qn)
        F = _pairwise_residual(roots.x, eta, qn.N, qn.twice_I, anti)
        tol = max(baes.NEWTON_TOL, 4 * np.finfo(float).eps * 2.0 * math.pi * (qn.N + qn.M))
        assert np.max(np.abs(F)) <= tol, where
        assert np.all(np.diff(np.sort(roots.x)) > 0), where


def test_ground_states_at_ten_thousand_sites():
    # all four ground states, on the Fourier-mode path, against the
    # thermodynamic table plus the hole term at criterion 6's 1e-5
    for eta in (2.0, 1.0):
        for N in (10000, 10001):
            for boundary in (Boundary.ANTIPERIODIC, Boundary.PERIODIC):
                roots = solve_log_baes(eta, N, ground_quantum_numbers(N, boundary))
                expected = (thermo.ground_energy_tl(N, eta, boundary)
                            + thermo.hole_quantization_energy(N, eta, boundary))
                assert roots.modes > 0
                assert abs(energy_hom(roots) - expected) < 1e-5, (eta, N, boundary)
                assert roots.residual < 1e-9


def test_solver_convergence_error_carries_iterate(monkeypatch):
    qn = ground_quantum_numbers(8, Boundary.ANTIPERIODIC)
    monkeypatch.setattr(baes, "NEWTON_TOL", 1e-15)
    monkeypatch.setattr(baes, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        solve_log_baes(ETA, 8, qn)
    assert err.value.iterate is not None
    assert len(err.value.iterate) == qn.M


def _spy_residual(monkeypatch):
    """Record the x of every `_log_bae_residual` call."""
    seen = []
    residual = baes._log_bae_residual
    monkeypatch.setattr(baes, "_log_bae_residual",
                        lambda x, *args: seen.append(np.array(x)) or residual(x, *args))
    return seen


# (eta, N, boundary) -> sha256 of the roots' bytes (16 hex digits) and the
# residual's float.hex: pairwise sums, and K Fourier modes on both boundaries
_SOLVE_PINS = {
    (3.0, 9, "anti"): ("9a09fd41876a1a59", "0x1.8000000000000p-49"),
    (2.0, 60, "per"): ("4b8b1a21ed113a66", "0x1.e000000000000p-43"),
    (1.0, 700, "anti"): ("2ee954cfa2b13d30", "0x1.4000000000000p-41"),
    (2.0, 1201, "per"): ("18f277234502014b", "0x1.8000000000000p-41"),
}


@pytest.mark.parametrize("eta, N, boundary", list(_SOLVE_PINS), ids=str)
def test_fold_that_moves_no_root_keeps_the_residual(monkeypatch, eta, N, boundary):
    # the converged roots already sit in the window: the fold moves none,
    # and the residual in hand is the one returned, bit for bit
    seen = _spy_residual(monkeypatch)
    roots = solve_log_baes(eta, N, ground_quantum_numbers(N, boundary))
    assert not any(np.array_equal(a, b) for a, b in zip(seen, seen[1:]))
    assert np.array_equal(roots.x, seen[-1])
    digest = hashlib.sha256(roots.x.tobytes()).hexdigest()[:16]
    assert (digest, roots.residual.hex()) == _SOLVE_PINS[(eta, N, boundary)]


def test_fold_that_moves_a_root_reevaluates_the_residual(monkeypatch):
    # a fold that shifts one root by a full period puts it on another
    # branch of the equations: the residual is evaluated again at the
    # folded roots, and the solve refuses them
    period = 2.0 * math.pi / ETA
    fold = baes._fold_window

    def shifted(x, eta):
        out = fold(x, eta)
        out[0] += period
        return out

    monkeypatch.setattr(baes, "_fold_window", shifted)
    seen = _spy_residual(monkeypatch)
    with pytest.raises(ConvergenceError, match="off-branch") as err:
        solve_log_baes(ETA, 60, ground_quantum_numbers(60, Boundary.PERIODIC))
    folded = err.value.iterate
    assert np.array_equal(seen[-1], folded)
    assert folded[0] == seen[-2][0] + period
    np.testing.assert_array_equal(folded[1:], seen[-2][1:])
    assert err.value.residual > 1.0


def test_roots_symmetric_for_symmetric_quantum_numbers():
    qn = ground_quantum_numbers(7, Boundary.ANTIPERIODIC)  # symmetric set
    roots = solve_log_baes(ETA, 7, qn)
    assert np.sort(roots.x) == pytest.approx(np.sort(-roots.x), abs=1e-12)


def test_hole_decomposition_with_actual_hole_position():
    # with the hole at its quantized finite-N position, the root energy
    # decomposes exactly into bulk plus one-hole contributions
    for N, boundary in ((60, Boundary.ANTIPERIODIC), (61, Boundary.PERIODIC)):
        qn = ground_quantum_numbers(N, boundary)
        roots = solve_log_baes(ETA, N, qn)
        x0 = hole_rapidity(roots, min(qn.twice_I) - 2)
        e0 = thermo.e0_density(ETA)
        eh = thermo.hole_energy(x0, ETA)
        assert energy_hom(roots) - N * e0 - eh == pytest.approx(0.0, abs=1e-10)
        assert abs(x0) < math.pi / ETA  # strictly inside the band


def test_hole_rapidity_matches_brentq():
    # the bracketed Newton against brentq on the same counting function:
    # they differed by at most 6.2e-15 (eta 1, N 600), the rounding of the
    # counting function over its slope near the band edge
    for eta, N, boundary in ((ETA, 60, Boundary.ANTIPERIODIC), (ETA, 61, Boundary.PERIODIC),
                             (1.0, 600, Boundary.ANTIPERIODIC)):
        qn = ground_quantum_numbers(N, boundary)
        roots = solve_log_baes(eta, N, qn)
        twice_I = min(qn.twice_I) - 2
        want = brentq(lambda x: counting_function(x, roots) - twice_I / (2.0 * N),
                      -math.pi / eta, math.pi / eta, xtol=1e-15)
        assert abs(hole_rapidity(roots, twice_I) - want) <= 2e-14


def test_excited_sets_one_hole():
    qns = excited_quantum_numbers(8, Boundary.ANTIPERIODIC, holes=1, eta=ETA)
    assert len(qns) == 3  # ground and its mirror excluded
    ground = ground_quantum_numbers(8, Boundary.ANTIPERIODIC)
    e_ground = energy_hom(solve_log_baes(ETA, 8, ground))
    energies = [energy_hom(solve_log_baes(ETA, 8, qn)) for qn in qns]
    assert energies == sorted(energies)  # returned in energy order
    assert all(e > e_ground for e in energies)


def test_excited_sets_two_holes():
    qns = excited_quantum_numbers(9, Boundary.ANTIPERIODIC, holes=2, eta=ETA)
    M_red = 4  # one fewer root than the 9-site ground state
    assert len(qns) == math.comb(M_red + 2, 2)
    for qn in qns:
        assert qn.M == M_red
    energies = [energy_hom(solve_log_baes(ETA, 9, qn)) for qn in qns]
    assert energies == sorted(energies)


def test_excited_sets_ranked_at_their_own_eta():
    # the ranking must solve each configuration at the eta asked for: the
    # eta = 2 order of this list is off by up to 0.58 at eta = 0.3
    for eta in (0.3, 0.7):
        qns = excited_quantum_numbers(11, Boundary.ANTIPERIODIC, holes=2, eta=eta)
        energies = [energy_hom(solve_log_baes(eta, 11, qn)) for qn in qns]
        assert energies == sorted(energies), eta


def test_excited_sets_invalid_combinations():
    with pytest.raises(ValueError):
        excited_quantum_numbers(8, Boundary.ANTIPERIODIC, holes=2, eta=ETA)
    with pytest.raises(ValueError):
        excited_quantum_numbers(8, Boundary.PERIODIC, holes=1, eta=ETA)
    with pytest.raises(ValueError):
        excited_quantum_numbers(8, Boundary.ANTIPERIODIC, holes=3, eta=ETA)


def test_one_hole_excitation_cost_shrinks_with_size():
    # the lowest one-hole excitation moves the hole one slot inward; its
    # cost is positive, below the full hole bandwidth, and shrinks as the
    # slots tighten with N
    costs = {}
    for N in (41, 81):
        qn0 = ground_quantum_numbers(N, Boundary.PERIODIC)
        e0 = energy_hom(solve_log_baes(ETA, N, qn0))
        qns = excited_quantum_numbers(N, Boundary.PERIODIC, holes=1, eta=ETA)
        e1 = energy_hom(solve_log_baes(ETA, N, qns[0]))
        costs[N] = e1 - e0
    bandwidth = thermo.hole_energy(0.0, ETA) - thermo.hole_energy(
        math.pi / ETA, ETA)
    assert 0 < costs[81] < costs[41] < bandwidth


def test_momentum_of_symmetric_set_is_exact():
    qn = ground_quantum_numbers(7, Boundary.ANTIPERIODIC)
    roots = solve_log_baes(ETA, 7, qn)
    p = charge_from_roots("Momentum", roots)
    assert p in (complex(0.0), complex(0.0, math.pi))  # exact, not approximate
    with pytest.raises(ValueError):
        charge_from_roots("e0", roots)  # e0 names the ground energy, not a charge
    for alias in ("p", "h2"):           # one name per charge
        with pytest.raises(ValueError):
            charge_from_roots(alias, roots)
