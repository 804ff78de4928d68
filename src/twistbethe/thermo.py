"""Thermodynamic-limit series for the massive XXZ chain.

Everything here is a closed-form k-series obtained from the Fourier-space
solution of the Bethe root density in the gapped regime eta > 0: the
ground-state energy density e0, the bulk counting function Z(x) and root
density rho_inf(x), the energy e_h(x0) carried by a hole at rapidity x0,
the boundary energy of the twisted chain, and the lowest excitation gap.
Finite-size (boundary, parity) combinations select which of these enter
the large-N ground energy; the finite-N position of the one ground-state
hole follows from an analytic quantization condition.

All sums are written in overflow-safe form (only exp of negative
arguments appears) and stop at the first term whose envelope drops below
``TERM_TOL``, so they are usable down to the small-eta guard ``ETA_MIN``
without float64 overflow at large k.  That stop is the only one: the
envelopes are e^{-2 eta k} or sech(eta k), so a series ends after about
17.3/eta or 35.2/eta terms.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .common import Boundary, Parity, has_hole

# Ground-energy density per cosh(eta) of the isotropic chain, the eta -> 0
# limit of e0(eta)/cosh(eta).  Served as a constant: below the eta guard the
# k-sums converge too slowly to be worth brute-forcing.
XXX_LIMIT = 1.0 - 4.0 * math.log(2.0)

# A k-series stops after the first term whose envelope is below TERM_TOL:
# the remaining tail is then below float64 resolution of the O(1) sums.
TERM_TOL = 1e-15
# The slowest series (envelope sech(eta k)) stops near 35.2/eta terms,
# 352000 at ETA_MIN; below it the eta -> 0 energy density is served as
# XXX_LIMIT instead.
ETA_MIN = 1e-4


def _check_eta(eta: float) -> None:
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite (massive regime): {eta}")
    if eta < ETA_MIN:
        raise ValueError(
            f"eta={eta} below series guard {ETA_MIN}; "
            f"use the XXX_LIMIT constant for the eta -> 0 energy density"
        )


def _k_series(term) -> float:
    """fsum over k = 1, 2, ... of the values of term(k) -> (value, envelope),
    up to and including the first term whose envelope is below TERM_TOL.
    The envelope falls as e^{-c eta k}, so `_check_eta` (eta >= ETA_MIN)
    bounds the count."""
    values = []
    for k in itertools.count(1):
        value, envelope = term(k)
        values.append(value)
        if envelope < TERM_TOL:
            break
    return math.fsum(values)


def _sech(a: float) -> float:
    # 1/cosh(a) for a >= 0 without overflow
    e = math.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def kernel_a(m: int, x, eta: float):
    """Bethe kernel a_m(x) = (eta/2pi) sinh(m eta) / (cosh(m eta) - cos(eta x)).

    Positive, even in x, unit integral over one period; Fourier
    coefficients e^{-m eta |k|}.  Accepts scalar or array x.
    """
    if m < 1:
        raise ValueError("kernel order m must be a positive integer")
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite: {eta}")
    x = np.asarray(x, dtype=float)
    # sinh(A)/(cosh(A)-c) = (1 - e^{-2A}) / (1 + e^{-2A} - 2 c e^{-A}), A = m*eta
    e = math.exp(-m * eta)
    num = 1.0 - e * e
    den = 1.0 + e * e - 2.0 * np.cos(eta * x) * e
    out = (eta / (2.0 * math.pi)) * num / den
    return out if out.ndim else float(out)


def e0_density(eta: float) -> float:
    """Ground-state energy density e0(eta) of the periodic chain.

    e0 = -8 sinh(eta) sum_{k>=1} 1/(1+e^{2 eta k}) - 2 sinh(eta) + cosh(eta).
    """
    _check_eta(eta)

    def term(k):
        e = math.exp(-2.0 * eta * k)
        t = e / (1.0 + e)  # = 1/(1+e^{2 eta k})
        return t, t

    s = _k_series(term)
    return -8.0 * math.sinh(eta) * s - 2.0 * math.sinh(eta) + math.cosh(eta)


def hole_energy(x0: float, eta: float) -> float:
    """Energy e_h(x0) of one hole at rapidity x0 in the ground-state root sea.

    Real cosine form of the two-sided sum:
    e_h = 4 sinh(eta) [1/2 + sum_{k>=1} cos(k eta x0)/cosh(eta k)].
    The hole position must lie in the fundamental window [-pi/eta, pi/eta].
    """
    _check_eta(eta)
    if abs(x0) > math.pi / eta * (1.0 + 1e-12):
        raise ValueError(f"hole position {x0} outside [-pi/eta, pi/eta]")

    def term(k):
        env = _sech(eta * k)
        return math.cos(k * eta * x0) * env, env

    return 4.0 * math.sinh(eta) * (0.5 + _k_series(term))


def twisted_boundary_energy(eta: float, parity) -> float:
    """Ground-energy difference (twisted minus periodic) at matched parity.

    Even N: E_b = 4 sinh(eta) sum_{k>=1} (-1)^k / cosh(eta k) + 2 sinh(eta),
    which is positive; odd N carries the opposite sign.  Coincides with
    e_h(pi/eta) term by term.
    """
    _check_eta(eta)
    parity = Parity.coerce(parity)

    def term(k):
        env = _sech(eta * k)
        return (-1.0) ** k * env, env

    eb = 4.0 * math.sinh(eta) * _k_series(term) + 2.0 * math.sinh(eta)
    return eb if parity is Parity.EVEN else -eb


def excitation_gap_tl(eta: float, parity) -> float:
    """Thermodynamic-limit gap of the twisted chain: 0 for even N (the hole
    can move to the band edge at no cost), 2 e_h(pi/eta) for odd N (the
    lowest excitation creates two holes, each at a band edge)."""
    _check_eta(eta)
    parity = Parity.coerce(parity)
    if parity is Parity.EVEN:
        return 0.0
    return 2.0 * hole_energy(math.pi / eta, eta)


def ground_energy_tl(N: int, eta: float, boundary) -> float:
    """N -> infinity band-edge table: e0*N, plus e_h(pi/eta) for the
    (boundary, parity) combinations whose ground state carries one hole
    (twisted even N and periodic odd N), placed at the band edge.

    At finite N that hole is quantized inside the band, so the
    hole-carrying ground energies lie above this table by
    ``hole_quantization_energy`` (about 39.1/N^2 at eta = 2); the
    hole-free ones match it up to exponentially small corrections.  The
    table itself is exactly linear in N with the band-edge hole, which is
    what makes (anti - per) = +-E_b hold identically."""
    boundary = Boundary.coerce(boundary)
    e = e0_density(eta) * N
    if has_hole(N, boundary):
        e += hole_energy(math.pi / eta, eta)
    return e


def _harmonics(x, eta: float, K: int) -> np.ndarray:
    """e^(i n eta x) for n = 1..K as one contiguous (K,) + shape(x) table,
    row n - 1 holding mode n.

    Built by the row recurrence h_n = h_(n-1) e^(i eta x), K - 1 products
    of one row each: as accurate as exp of the rounded n eta x, and several
    times cheaper than that or a cumprod along a last axis.  A number x
    gives the (K,) vector as exp of n eta x in one call, where the
    recurrence would cost K calls for one element each."""
    x = np.asarray(x, dtype=float)
    if not x.ndim:
        return np.exp(1j * eta * x * np.arange(1, K + 1))
    z = np.exp(1j * eta * x)
    h = np.empty((K,) + z.shape, dtype=complex)
    h[0] = z
    for n in range(1, K):
        np.multiply(h[n - 1], z, out=h[n])
    return h


def bulk_counting(x, eta: float):
    """The bulk counting function Z(x) = int_0^x rho_inf of the ground-state
    root sea and its density rho_inf(x) (des Cloizeaux & Gaudin, J. Math.
    Phys. 7 (1966) 1384), at a number or an array x:

        Z(x) = eta x/(4 pi) + sum_k sin(k eta x) / (2 pi k cosh(eta k)),
        rho_inf(x) = eta/(4 pi) + sum_k eta cos(k eta x) / (2 pi cosh(eta k)).

    Z is odd, rises by 1/2 per period and reads 1/4 at the band edge
    pi/eta.  The k-sum stops as the series of this module do, with the
    first term whose envelope sech(eta k) is below TERM_TOL."""
    _check_eta(eta)
    x = np.asarray(x, dtype=float)
    K = math.ceil(math.acosh(1.0 / TERM_TOL) / eta)
    k = np.arange(1.0, K + 1)
    coef = np.empty((2, K))
    e = np.exp(-eta * k)
    np.divide(2.0 * e, 1.0 + e * e, out=coef[1])   # sech(eta k)
    np.divide(coef[1], k, out=coef[0])
    # one real product over the table's (Re, Im) pairs
    sums = coef @ _harmonics(x, eta, K).reshape(K, -1).view(float)
    z = eta * x / (4.0 * math.pi) + sums[0, 1::2].reshape(x.shape) / (2.0 * math.pi)
    rho = eta / (4.0 * math.pi) * (1.0 + 2.0 * sums[1, ::2].reshape(x.shape))
    return (z, rho) if x.ndim else (float(z), float(rho))


def bracketed_newton(fun, lo, hi, x, xtol: float):
    """Newton on an increasing function g, for a number or an array of
    independent equations: ``fun(x)`` returns ``(g, dg/dx)``, and each x
    starts inside its bracket [lo, hi], in which g changes sign.  Every
    evaluation narrows the bracket, and a step that leaves it (a zero or
    vanishing slope included) is replaced by the bracket's midpoint.  Stops
    after a step in which no x moved by more than ``xtol``, or after 100
    steps; Newton's quadratic convergence then leaves the iterate at float
    resolution once xtol is well above it."""
    lo, hi = np.broadcast_to(lo, np.shape(x)), np.broadcast_to(hi, np.shape(x))
    for _ in range(100):
        g, dg = fun(x)
        lo = np.where(g < 0, x, lo)
        hi = np.where(g < 0, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = x - g / dg
        xn = np.where((lo <= xn) & (xn <= hi), xn, 0.5 * (lo + hi))
        moved = np.max(np.abs(xn - x))
        x = xn
        if moved <= xtol:
            break
    return x


def _slot_sum_decay_rate(eta: float) -> float:
    """Rate c(eta) at which replacing root sums by integrals over the
    ground-state density stops being exact: corrections ~ e^{-c N}.

    c = 2 pi Im Z(pi/eta + i), the bulk counting function at the zero of
    rho_inf nearest the band edge:
    c = eta/2 - ln 2 + 2 sum_{k>=1} (-1)^{k+1} / (k (1 + e^{2 eta k})).
    It tends to 4 e^{-pi^2/(2 eta)} as eta -> 0 and to eta/2 - ln 2 at large
    eta (0.0288 at eta = 1, 0.342 at eta = 2)."""

    def term(k):
        e = math.exp(-2.0 * eta * k)
        return (-1.0) ** (k + 1) * e / (k * (1.0 + e)), e

    return 0.5 * eta - math.log(2.0) + 2.0 * _k_series(term)


# e-folds by which the finite-size corrections sinh(eta) e^{-c N} must lie
# below the energy scale before table + hole term is trusted to 1e-5
_RANGE_EFOLDS = 16.0


def _hole_term_min_n(eta: float) -> int:
    """Smallest N that `hole_quantization_energy` admits at eta: the first
    with c(eta) N >= ln sinh(eta) + _RANGE_EFOLDS."""
    return math.ceil((math.log(math.sinh(eta)) + _RANGE_EFOLDS) / _slot_sum_decay_rate(eta))


@functools.lru_cache(maxsize=256)
def _band_edge(eta: float) -> tuple[int, float, float]:
    """What the hole term needs of eta alone, computed once per eta (for
    the last 256 eta): the smallest admitted N, e_h(pi/eta) and
    rho_inf(pi/eta)."""
    edge = math.pi / eta
    return _hole_term_min_n(eta), hole_energy(edge, eta), bulk_counting(edge, eta)[1]


def _hole_offset(N: int, eta: float, drift: float) -> float:
    """delta of the hole-quantization condition of `hole_quantization_energy`,
    N [1/4 - Z(pi/eta - delta)] + drift delta = 1/4, by `bracketed_newton`
    on [0, pi/eta] from the leading order 1/(4 N rho_inf(pi/eta)).  The
    condition rises with slope N rho_inf(pi/eta - delta) + drift."""
    edge = math.pi / eta

    def condition(delta):
        z, rho = bulk_counting(edge - delta, eta)
        return N * (0.25 - z) + drift * delta - 0.25, N * rho + drift

    start = 0.25 / (N * _band_edge(eta)[2])
    return float(bracketed_newton(condition, 0.0, edge, start, 1e-9 * edge))


def hole_quantization_energy(N: int, eta: float, boundary) -> float:
    """Finite-N energy of the ground-state hole above its band-edge value,
    e_h(x_h) - e_h(pi/eta); exactly 0.0 for the hole-free ground states
    (twisted odd N, periodic even N).

    ``ground_energy_tl`` puts the hole of the twisted even-N and periodic
    odd-N ground states at the band edge.  At finite N it sits at
    |x_h| = pi/eta - delta, where delta solves the quantization condition

        N [Z(pi/eta) - Z(pi/eta - delta)] + a eta delta / (4 pi) = 1/4,

    Z(x) = int_0^x rho_inf the bulk counting function, a = 1 on the twisted
    chain (its eta*x drift, dressed to a uniform eta/(4 pi N) slot density)
    and a = 0 on the periodic one.  The condition follows from the counting
    function of the reduced equations once sums over the slots of one
    period are replaced by integrals, which is exact up to O(e^{-c N})
    (``_slot_sum_decay_rate``); the hole's own back-flow cancels out of it.
    To leading order delta = 1/(4 N rho_inf(pi/eta)) and the term is
    e_h''(pi/eta) / (32 rho_inf(pi/eta)^2 N^2), about 39.10/N^2 at eta = 2;
    the drift moves the twisted hole by a further O(1/N^2), which the
    condition keeps.  delta is solved by the bracketed Newton of
    `bracketed_newton` from that leading order (`_hole_offset`).  Nothing
    here is fitted and no roots are solved.

    Range, where the term is good to 1e-5: ``ground_energy_tl +
    hole_quantization_energy`` matches the reduced-root energies of all four
    ground states up to corrections of order sinh(eta) e^{-c N}.  The
    function raises ValueError unless c(eta) N >= ln sinh(eta) + 16
    (N >= 51 at eta = 2, N >= 23 at eta = 3, N >= 562 at
    eta = 1; below eta ~ 0.8 the range starts in the thousands of sites, as
    c ~ 4 e^{-pi^2/(2 eta)}) and eta <= 20 (beyond, the difference of two
    hole energies of size ~2 sinh(eta) cannot resolve 1e-5 in float64).
    Against the log-BAE solver at the four smallest admitted N, and twice
    that N, the worst deviation was 3e-8 for 0.8 <= eta <= 16 and 5e-7 (float
    rounding) at eta = 20.
    """
    _check_eta(eta)
    boundary = Boundary.coerce(boundary)
    if eta > 20.0 or N < _band_edge(eta)[0]:
        raise ValueError(
            f"N={N}, eta={eta} outside the range of the hole-quantization "
            f"term (c(eta) N = {_slot_sum_decay_rate(eta) * N:.3g}, need eta <= 20 and "
            f"c N >= ln sinh(eta) + {_RANGE_EFOLDS:g})")
    if not has_hole(N, boundary):
        return 0.0
    drift = eta / (4.0 * math.pi) if boundary is Boundary.ANTIPERIODIC else 0.0
    delta = _hole_offset(N, eta, drift)
    return hole_energy(math.pi / eta - delta, eta) - _band_edge(eta)[1]


def density_fourier(k: int, N: int, eta: float, boundary,
                    x0: float | None = None) -> complex:
    """Fourier mode rho~(k) of the finite-N ground-state root density.

    Four cases.  Twisted even and periodic odd carry one hole at x0 (must
    be supplied); twisted odd and periodic even carry none (x0 must be
    omitted).  The twisted chain additionally carries a 1/N zero-mode from
    the eta*x term of its counting function.
    """
    _check_eta(eta)
    boundary = Boundary.coerce(boundary)
    hole = has_hole(N, boundary)
    if hole and x0 is None:
        raise ValueError("this (boundary, parity) ground state has a hole; supply x0")
    if not hole and x0 is not None:
        raise ValueError("no hole in this (boundary, parity) ground state; drop x0")

    ak = abs(k) * eta
    e2 = math.exp(-2.0 * ak)
    val = complex(0.5 * _sech(ak))  # 1/(2 cosh(eta k))
    if boundary is Boundary.ANTIPERIODIC and k == 0:
        val += 1.0 / (N * (1.0 + e2))
    if hole:
        # the hole is a delta in x, so its mode (1/N) e^{-ik eta x0} does not
        # decay in k; only the 1/(1+e^{-2 eta |k|}) dressing applies
        phase = complex(math.cos(k * eta * x0), -math.sin(k * eta * x0))
        val -= phase / (N * (1.0 + e2))
    return val


def energy_via_density(N: int, eta: float, boundary,
                       x0: float | None = None) -> float:
    """Parseval cross-check: contract the density modes with the kernel image.

    E = -4 N sinh(eta) sum_k e^{-eta|k|} rho~(-k) + N cosh(eta)
        (+ 2 sinh(eta) for the twisted chain).

    Reproduces the e0*N (+ e_h) decompositions from the closed forms; an
    independent code path, held to ``ground_energy_tl`` by the verify check
    ``thermo-series-identities``.  The modes with e^{-eta|k|} below
    TERM_TOL are skipped, and kmax lies past the last one admitted.
    """
    _check_eta(eta)
    boundary = Boundary.coerce(boundary)
    kmax = math.ceil(math.log(1.0 / TERM_TOL) / eta) + 1
    total = 0.0 + 0.0j
    for k in range(-kmax, kmax + 1):
        env = math.exp(-eta * abs(k))
        if env < TERM_TOL and k != 0:
            continue
        total += env * density_fourier(-k, N, eta, boundary, x0)
    e = -4.0 * N * math.sinh(eta) * total + N * math.cosh(eta)
    if boundary is Boundary.ANTIPERIODIC:
        e += 2.0 * math.sinh(eta)
    if abs(e.imag) > 1e-10 * max(1.0, abs(e.real)):
        raise ValueError(f"density contraction left an imaginary residue {e.imag}")
    return float(e.real)
