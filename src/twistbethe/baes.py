"""Bethe-ansatz root finding for the massive XXZ chain.

Two layers:

* the reduced homogeneous logarithmic equations for M real rapidities
  x_j in (-pi/eta, pi/eta], driven by quantum numbers I_j (solved for any
  N by damped Newton; this is the production path for large chains).
  Their interaction sum_k theta_2(x_j - x_k) is summed by K Fourier modes
  of theta_2 in O(M K), and the Newton step is solved through a
  (2K+1)-square capacitance system in O(M K^2).  K is the fewest modes
  whose tail lies three orders below the equations' float64 resolution,
  about 19/eta; where 2K+1 >= M (small M, or small eta) the closed form
  is summed pairwise in O(M^2) and the step is a dense O(M^3) solve.
  Newton starts where the thermodynamic limit puts each root: at the
  preimage of its quantum number under the bulk counting function
  (`thermo.bulk_counting`), and

* the inhomogeneous equations for the N complex roots lambda_j of the
  twisted chain's Q-polynomial (solved by fitting Q to the
  exact-diagonalization eigenvalue of the transfer matrix, then polishing
  with Newton; exact at any N it can reach, but bound to N <= 12 by the
  ED seed, and short of that where the Q fit on the unit circle misses
  its 1e-6 gate: at eta = 2, N = 12 and at eta = 3, N >= 9).

Both layers describe the uniform chain: the inhomogeneities of the
T-Q derivation are zero, and no function takes them.

Both Newton iterations stop on fixed module constants (NEWTON_TOL,
NEWTON_MAX_ITER); no caller tunes them.

Charges (momentum and the three-site charge) are evaluated directly from
either root set; symmetric root configurations cancel in exact arithmetic
and are reported as exact zeros.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import model as _model
from . import thermo as _thermo
from .common import Boundary, has_hole
from .model import ModelParams


# Newton stop of both solvers: an absolute residual bound for the log-BAEs,
# which solve_log_baes raises to the float64 resolution of its equations
# where that is larger, and a relative one for the inhomogeneous polish.
NEWTON_TOL = 1e-12
# Newton iterations of solve_log_baes before it gives up.
NEWTON_MAX_ITER = 200


class ConvergenceError(RuntimeError):
    """Raised when a root search stalls; carries the last iterate."""

    def __init__(self, message, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


# ---------------------------------------------------------------------------
# quantum numbers


@dataclass(frozen=True)
class QuantumNumbers:
    """Exact quantum numbers 2*I_j of a real-root configuration.

    The integer/half-odd-integer alternation is a hard invariant:
    antiperiodic chains carry even 2I exactly when N-M is even, periodic
    chains exactly when N-M is odd."""

    twice_I: tuple[int, ...]
    N: int
    boundary: Boundary

    def __post_init__(self):
        object.__setattr__(self, "boundary", Boundary.coerce(self.boundary))
        ti = np.asarray(self.twice_I, dtype=np.int64)
        object.__setattr__(self, "twice_I", tuple(ti.tolist()))
        if np.any(ti[1:] <= ti[:-1]):
            raise ValueError("quantum numbers must be strictly increasing")
        want_even = (self.N - self.M) % 2 == 0
        if self.boundary is Boundary.PERIODIC:
            want_even = not want_even
        wrong = (ti % 2 == 0) != want_even
        if np.any(wrong):
            raise ValueError(
                f"2I parity violates the N-M rule: {ti[np.argmax(wrong)]} in N={self.N}, "
                f"M={self.M}, {self.boundary.value}")

    @property
    def M(self) -> int:
        return len(self.twice_I)


def _slot_window(N: int, M: int, boundary: Boundary) -> np.ndarray:
    """The symmetric step-2 window of admissible 2I values: N-M+1 slots for
    the twisted chain, N-M for the periodic one (one fewer; its counting
    function has no eta*x drift term)."""
    n_slots = N - M + 1 if boundary is Boundary.ANTIPERIODIC else N - M
    # symmetric when the slot count is odd; for even counts the window is
    # taken as the one containing the ground configuration
    lo = -(n_slots - 1)
    return np.arange(lo, lo + 2 * n_slots, 2)


def _ground_root_count(N: int, boundary: Boundary) -> int:
    """M of the ground state: (N + 1)//2 on the twisted chain, N//2 on the
    periodic one."""
    return (N + 1) // 2 if boundary is Boundary.ANTIPERIODIC else N // 2


def ground_quantum_numbers(N: int, boundary) -> QuantumNumbers:
    """Ground-state quantum numbers of all four (boundary, parity) cases.

    The hole-free cases fill every slot of the window; in the
    hole-carrying cases (twisted even, periodic odd; `has_hole`) the
    window has M + 1 slots and its lowest stays empty, which together with
    its mirror image spans the degenerate ground doublet."""
    boundary = Boundary.coerce(boundary)
    if N < 2:
        raise ValueError("need N >= 2")
    M = _ground_root_count(N, boundary)
    slots = _slot_window(N, M, boundary)
    return QuantumNumbers(slots[len(slots) - M:], N, boundary)


def excited_quantum_numbers(N: int, boundary, holes: int,
                            eta: float) -> list[QuantumNumbers]:
    """Hole-excitation configurations, ordered by their homogeneous energy at eta.

    One-hole moves exist where the ground state already carries a hole
    (twisted even, periodic odd); the ground configuration and its mirror
    are excluded.  Two-hole configurations lower M by one and exist in the
    complementary cases (twisted odd, periodic even)."""
    boundary = Boundary.coerce(boundary)
    one_hole_case = has_hole(N, boundary)
    M = _ground_root_count(N, boundary)
    if holes == 1:
        if not one_hole_case:
            raise ValueError("one-hole excitations need the hole-carrying ground state "
                             "(twisted even N or periodic odd N)")
        slots = _slot_window(N, M, boundary)
        assert len(slots) == M + 1
        configs = []
        for h in range(1, M):   # exclude edge holes: ground state and its mirror
            ti = tuple(np.delete(slots, h))
            configs.append(QuantumNumbers(ti, N, boundary))
    elif holes == 2:
        if one_hole_case:
            raise ValueError("two-hole excitations change M; they are the lowest "
                             "excitations only for twisted odd N or periodic even N")
        M -= 1
        slots = _slot_window(N, M, boundary)
        assert len(slots) == M + 2
        configs = []
        for h1 in range(len(slots)):
            for h2 in range(h1 + 1, len(slots)):
                ti = tuple(np.delete(slots, [h1, h2]))
                configs.append(QuantumNumbers(ti, N, boundary))
    else:
        raise ValueError("hole count must be 1 or 2")
    solved = [(energy_hom(solve_log_baes(eta, N, qn)), qn) for qn in configs]
    solved.sort(key=lambda pair: pair[0])
    return [qn for _, qn in solved]


# ---------------------------------------------------------------------------
# reduced homogeneous equations


def theta_m(m: int, x, eta: float):
    """Continuous strictly increasing branch of the scattering phase
    theta_m(x) = 2 arctan(tan(eta x/2)/tanh(m eta/2)) + 2 pi floor((eta x + pi)/2 pi).

    Evaluated in the equivalent globally smooth form
    eta x + 2 arctan[(1-t) sin(eta x) / ((1+t) - (1-t) cos(eta x))],
    t = tanh(m eta/2), which has no removable singularities to unwrap.
    Odd, quasi-periodic (adds 2 pi per period), derivative 2 pi a_m(x)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    if not eta > 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    t = math.tanh(0.5 * m * eta)
    w = eta * x
    out = w + 2.0 * np.arctan2((1.0 - t) * np.sin(w),
                               (1.0 + t) - (1.0 - t) * np.cos(w))
    return out if out.ndim else float(out)


@dataclass
class BetheRootsX:
    """Converged real roots of the reduced logarithmic equations."""

    x: np.ndarray
    qn: QuantumNumbers
    eta: float
    residual: float
    iterations: int
    modes: int        # Fourier modes K of the interaction sums; 0 when pairwise

    @property
    def M(self) -> int:
        return len(self.x)


def _mode_count(eta: float, M: int, N: int) -> int:
    """Fourier modes K for the interaction sums of M roots in an N-site
    chain, or 0 when the pairwise closed form is cheaper (2K+1 >= M).

    K is the smallest count whose tail bound 2M q^(K+1) / ((K+1)(1-q)),
    q = e^(-2 eta), is at most eps 2 pi (N+M) / 1000: three orders below
    the solver's stop tolerance, so the cut is invisible at float64."""
    q = math.exp(-2.0 * eta)
    bound = np.finfo(float).eps * 2.0 * math.pi * (N + M) / 1000.0
    K = 1
    while 2 * K + 1 < M:
        if 2.0 * M * q ** (K + 1) / ((K + 1) * (1.0 - q)) <= bound:
            return K
        K += 1
    return 0


class _Theta2Sum:
    """y -> sum_k theta_2(y - x_k) over fixed sources x_k.

    With K = 0 the closed form theta_m is summed pairwise, O(M) per point.
    With K > 0 the series theta_2(x) = eta x + 2 sum_n q^n sin(n eta x)/n,
    q = e^(-2 eta), is cut after K modes (see `_mode_count`): the sum
    becomes eta (M y - sum x) + 2 sum_n (q^n/n) Im(e^(i n eta y) conj(S_n))
    with S_n = sum_k e^(i n eta x_k), which costs O(M K) once and O(K) per
    point.  `harmonics` keeps the (K, M) table e^(i n eta x_k) of
    `thermo._harmonics` (None when K = 0), which the Newton step at x
    reuses."""

    def __init__(self, x: np.ndarray, eta: float, K: int):
        self.x, self.eta, self.K = x, eta, K
        self.harmonics = None
        if K:
            self.harmonics = _thermo._harmonics(x, eta, K)
            n = np.arange(1, K + 1)
            self.coef = (2.0 * np.exp(-2.0 * eta * n) / n) * np.conj(self.harmonics.sum(axis=1))
            self.x_sum = x.sum()

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        if not self.K:
            return theta_m(2, y[..., None] - self.x, self.eta).sum(axis=-1)
        h = self.harmonics if y is self.x else _thermo._harmonics(y, self.eta, self.K)
        modes = (self.coef @ h.reshape(self.K, -1)).imag.reshape(y.shape)
        return self.eta * (len(self.x) * y - self.x_sum) + modes


def _log_bae_residual(x, eta, N, twice_I, anti, K):
    """The log-BAE residual F at x, and the harmonic table of x that its
    interaction sum built (None when K = 0), for the Newton step at x."""
    theta2_sum = _Theta2Sum(x, eta, K)
    F = N * theta_m(1, x, eta) - math.pi * np.asarray(twice_I, dtype=float)
    if anti:
        F = F + eta * x
    return F - theta2_sum(x), theta2_sum.harmonics


def _newton_step(x, F, h, eta, N, anti, K):
    """Solve J step = -F for the Jacobian J = D + A of the log-BAEs, with
    A_jk = 2 pi a_2(x_j - x_k) and D_j = 2 pi N Z'(x_j).

    With K = 0, J is built densely and LU-solved, O(M^3).  With K > 0,
    A = V^T V by the Fourier series of a_2: V has the rows sqrt(eta)
    and sqrt(2 eta q^n) cos(n eta x), sqrt(2 eta q^n) sin(n eta x), read
    from h, the (K, M) harmonic table of x that `_log_bae_residual` built,
    and the Woodbury identity solves the step through the (2K+1)-square
    capacitance system I + V D^-1 V^T, O(M K^2).  A singular system
    raises LinAlgError."""
    a1 = 2.0 * math.pi * N * _thermo.kernel_a(1, x, eta)
    if not K:
        J = 2.0 * math.pi * _thermo.kernel_a(2, x[:, None] - x[None, :], eta)
        np.fill_diagonal(J, 0.0)
        diag = a1 - J.sum(axis=1)
        if anti:
            diag = diag + eta
        np.fill_diagonal(J, diag)
        return np.linalg.solve(J, -F)
    w = np.sqrt(2.0 * eta * np.exp(-2.0 * eta * np.arange(1, K + 1)))[:, None]
    V = np.empty((2 * K + 1, len(x)))
    V[0] = math.sqrt(eta)
    np.multiply(w, h.real, out=V[1:K + 1])
    np.multiply(w, h.imag, out=V[K + 1:])
    diag = a1 - V.sum(axis=1) @ V
    if anti:
        diag = diag + eta
    DV = V / diag
    g = -F / diag
    cap = np.eye(2 * K + 1) + V @ DV.T
    return g - np.linalg.solve(cap, V @ g) @ DV


def _counting(x, roots: "BetheRootsX", theta2_sum: _Theta2Sum):
    qn, eta, N = roots.qn, roots.eta, roots.qn.N
    val = N * theta_m(1, x, eta)
    if qn.boundary is Boundary.ANTIPERIODIC:
        val = val + eta * x
    val = val - theta2_sum(x)
    return val / (2.0 * math.pi * N)


def counting_function(x, roots: "BetheRootsX"):
    """Z(x) with the solved roots as sources; Z(x_j) = I_j/N exactly at the
    roots, and holes sit at Z(x0) = I_hole/N."""
    x = np.asarray(x, dtype=float)
    out = _counting(x, roots, _Theta2Sum(roots.x, roots.eta, roots.modes))
    return out if out.ndim else float(out)


def hole_rapidity(roots: BetheRootsX, twice_I_hole: int) -> float:
    """Position x0 of the hole with quantum number 2I: the counting-function
    preimage of I/N inside the fundamental window, by
    `thermo.bracketed_newton` from the chord through the window's ends.
    The slope is the counting-function density
    a_1(x) [+ eta/(2 pi N)] - sum_k a_2(x - x_k)/N, the solved roots as
    sources."""
    eta, N = roots.eta, roots.qn.N
    target = twice_I_hole / (2.0 * N)
    edge = math.pi / eta
    theta2_sum = _Theta2Sum(roots.x, eta, roots.modes)   # the sources stay fixed
    drift = eta / (2.0 * math.pi * N) if roots.qn.boundary is Boundary.ANTIPERIODIC else 0.0

    def g(x):
        density = (_thermo.kernel_a(1, x, eta) + drift
                   - _thermo.kernel_a(2, x - roots.x, eta).sum() / N)
        return _counting(x, roots, theta2_sum) - target, density

    z_lo, z_hi = _counting(np.array([-edge, edge]), roots, theta2_sum)
    start = -edge + 2.0 * edge * (target - z_lo) / (z_hi - z_lo)
    return float(_thermo.bracketed_newton(g, -edge, edge, start, 1e-9 * edge))


def _bulk_seed(eta: float, N: int, twice_I: np.ndarray, anti: bool) -> np.ndarray:
    """The start of `solve_log_baes`: each root at the preimage of
    I_j/(N+1) under the bulk counting function Z of `thermo.bulk_counting`,
    plus the twisted chain's drift eta x/(2 pi N).

    The seed function rises from -(1/4 [+ 1/(2N)]) to 1/4 [+ 1/(2N)] over
    the window |x| <= pi/eta.  The slot window's extreme slots reach
    |I|/N = 1/4 on the periodic chain's two-hole states; over N + 1 they
    stay strictly inside, where the preimage of I/N would sit on the
    window's edge.

    `thermo.bracketed_newton` from the linear interpolation of the seed
    function on 65 points across the window (at eta <= 1 that start halves
    the evaluations a chord through the window's ends needs), until a step
    in which no root moved by more than 1e-9 of the window's half-width:
    Newton's quadratic convergence leaves that iterate at float resolution,
    which where Z is flat (rho_inf small, near the edges at small eta) is
    itself wider than an ulp of the window edge.  rho_inf underflows to 0
    near the edges at small eta; the bracket then replaces the infinite
    step."""
    target = twice_I / (2.0 * (N + 1))
    drift = eta / (2.0 * math.pi * N) if anti else 0.0
    edge = math.pi / eta
    grid = np.linspace(-edge, edge, 65)
    x = np.interp(target, _thermo.bulk_counting(grid, eta)[0] + drift * grid, grid)

    def g(x):
        z, rho = _thermo.bulk_counting(x, eta)
        return z + drift * x - target, rho + drift

    return _thermo.bracketed_newton(g, -edge, edge, x, 1e-9 * edge)


def solve_log_baes(eta: float, N: int, qn: QuantumNumbers) -> BetheRootsX:
    """Damped Newton on the reduced logarithmic equations

        [eta x_j] + N theta_1(x_j) = 2 pi I_j + sum_k theta_2(x_j - x_k)

    (the eta x_j drift only on the twisted chain).  Initial guess: each
    root where the bulk counting function of the thermodynamic limit
    places it (`_bulk_seed`), so the root interaction enters the start
    through the bulk root density.  Each Newton step reuses the harmonic
    table of its iterate's residual, is tried in full first, and the line
    search halves it from there.  Newton stops at NEWTON_TOL or at 4 ulp
    of the equations' terms, about 2 pi (N + M), whichever is larger: past
    N ~ 1000 an absolute 1e-12 is below float64 resolution; it gives up
    after NEWTON_MAX_ITER steps.  Errors carry the last iterate.  The
    converged roots are folded into the window |x| <= pi/eta, and the
    residual is evaluated again only when the fold moved a root.

    The interaction sums run over K Fourier modes of theta_2, K from
    `_mode_count(eta, M, N)`, when 2K+1 < M: a residual then costs
    O(M K) and a Newton step O(M K^2), through a low-rank solve.
    Otherwise (small M, or small eta: K is about 19/eta, so at eta = 0.05
    the modes start near M = 750) they are summed pairwise, O(M^2) per
    residual and O(M^3) per step.  The result records K in `modes` (0
    when pairwise)."""
    if qn.N != N:
        raise ValueError("quantum numbers built for a different N")
    anti = qn.boundary is Boundary.ANTIPERIODIC
    twice_I = np.asarray(qn.twice_I, dtype=float)
    M = len(twice_I)
    if M == 0:
        return BetheRootsX(np.zeros(0), qn, eta, 0.0, 0, 0)
    K = _mode_count(eta, M, N)

    x = _bulk_seed(eta, N, twice_I, anti)
    tol = max(NEWTON_TOL, 4 * np.finfo(float).eps * 2.0 * math.pi * (N + M))
    F, h = _log_bae_residual(x, eta, N, twice_I, anti, K)
    best = np.max(np.abs(F))
    for it in range(1, NEWTON_MAX_ITER + 1):
        if best < tol:
            folded = _fold_window(x, eta)
            if not np.array_equal(folded, x):
                F, _ = _log_bae_residual(folded, eta, N, twice_I, anti, K)
            x = folded
            res = float(np.max(np.abs(F)))
            if res > 10 * tol:
                raise ConvergenceError("window folding moved roots off-branch",
                                       iterate=x, residual=res)
            return BetheRootsX(x, qn, eta, res, it - 1, K)
        try:
            step = _newton_step(x, F, h, eta, N, anti, K)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Jacobian: {exc}", iterate=x,
                                   residual=best) from exc
        lam = 1.0
        while lam > 1e-8:
            xn = x + lam * step
            Fn, hn = _log_bae_residual(xn, eta, N, twice_I, anti, K)
            if np.max(np.abs(Fn)) < best * (1.0 - 1e-4 * lam) + 1e-300:
                break
            lam *= 0.5
        else:
            raise ConvergenceError("line search stalled", iterate=x, residual=best)
        x, F, h = xn, Fn, hn
        best = float(np.max(np.abs(F)))
    raise ConvergenceError(f"no convergence in {NEWTON_MAX_ITER} iterations",
                           iterate=x, residual=best)


def _fold_window(x, eta):
    period = 2.0 * math.pi / eta
    return x - period * np.ceil((x - math.pi / eta) / period - 1e-15)


def energy_hom(roots: BetheRootsX) -> float:
    """E = -4 sinh(eta) sum_j sinh(eta)/(cosh(eta) - cos(eta x_j)) + N cosh(eta),
    plus the 2 sinh(eta) shift carried by the twisted chain."""
    eta, sh = roots.eta, math.sinh(roots.eta)
    s = float(np.sum(sh / (math.cosh(eta) - np.cos(eta * roots.x))))
    e = -4.0 * sh * s + roots.qn.N * math.cosh(eta)
    if roots.qn.boundary is Boundary.ANTIPERIODIC:
        e += 2.0 * sh
    return e


# ---------------------------------------------------------------------------
# inhomogeneous equations (twisted chain, ED-seeded)


@dataclass
class InhomBetheRoots:
    """The N complex roots of the twisted chain's Q-polynomial; their sum
    enters the inhomogeneous term."""

    lam: np.ndarray
    residual: float
    N: int
    eta: float

    @property
    def root_sum(self) -> complex:
        return complex(np.sum(self.lam))


def _tq_terms(u: complex | np.ndarray, lam: np.ndarray, N: int, eta: float):
    """The three terms of Lambda(u) Q(u) = t1 - t2 - t3 at u, a number or
    an array of points, for the root set lam.

    t1 = e^{u} a(u) Q(u - eta), t2 = e^{-u-eta} d(u) Q(u + eta),
    t3 = c(u) a(u) d(u), with Q(v) = prod_k sinh(v - lam_k)/sinh(eta),
    a(u) = sinh^N(u + eta)/sinh^N(eta), d(u) = sinh^N(u)/sinh^N(eta) and
    c(u) = e^{u - N eta - S} - e^{-u - eta + S}, S the root sum.

    At u = lam (each equation at its own root) a root set solves the
    inhomogeneous equations when t1 - t2 - t3 = 0 for every j.
    Q(lam_j -+ eta) keeps all N factors (the k = j one is
    sinh(-+eta)/sinh(eta) = -+1); only Q(lam_j) itself vanishes."""
    sh = math.sinh(eta)
    S = np.sum(lam)

    def sf(v):
        return np.sinh(v) / sh

    a = sf(u + eta) ** N
    d = sf(u) ** N
    Qm = np.prod(sf(np.subtract.outer(u - eta, lam)), axis=-1)
    Qp = np.prod(sf(np.subtract.outer(u + eta, lam)), axis=-1)
    c = np.exp(u - N * eta - S) - np.exp(-u - eta + S)
    return np.exp(u) * a * Qm, np.exp(-u - eta) * d * Qp, c * a * d


def _bae_residual_vec(lam: np.ndarray, N: int, eta: float):
    t1, t2, t3 = _tq_terms(lam, lam, N, eta)
    return t1 - t2 - t3


def bae_relative_residual(lam: np.ndarray, N: int, eta: float) -> float:
    t1, t2, t3 = _tq_terms(lam, lam, N, eta)
    scale = max(np.abs(t1).max(), np.abs(t2).max(), np.abs(t3).max(), 1e-300)
    return float(np.abs(t1 - t2 - t3).max() / scale)


def _fit_q_linear(P_vals: np.ndarray, zs: np.ndarray, N: int, eta: float):
    """Solve the T-Q functional relation for q's coefficients.

    With z = e^{2u}, eps = e^{-2 eta}, monic q of degree N and
    P(z) = e^{(N-1)u} Lambda(u), the relation is linear in q's
    coefficients once e^{2 sum(lam)} is eliminated via (-1)^N q(0):

      z e^{2 N eta} (z-eps)^N q(z e^{-2 eta})
        - e^{-(N+1) eta} (z-1)^N q(z e^{2 eta})
        - [z - e^{(N-1) eta} (-1)^N q(0)] (z-eps)^N (z-1)^N
        - z (2 sinh eta)^N P(z) q(z) = 0.

    Sampled on the unit circle; columns equilibrated before lstsq."""
    eps = math.exp(-2.0 * eta)
    e2 = math.exp(2.0 * eta)
    K = len(zs)
    ze = (zs - eps) ** N
    z1 = (zs - 1.0) ** N
    pref = (2.0 * math.sinh(eta)) ** N
    A = np.zeros((K, N), dtype=complex)
    for m_ in range(N):
        # coefficient of c_m across the four linear pieces; the q(0) piece
        # feeds only the m = 0 column
        col = (zs ** (m_ + 1) * math.exp(2.0 * N * eta) * ze * eps ** m_
               - math.exp(-(N + 1) * eta) * z1 * zs ** m_ * e2 ** m_
               - zs * pref * P_vals * zs ** m_)
        if m_ == 0:
            col = col + math.exp((N - 1) * eta) * ((-1.0) ** N) * ze * z1
        A[:, m_] = col
    # monic m = N contributions move to the right-hand side
    b = -(zs ** (N + 1) * math.exp(2.0 * N * eta) * ze * eps ** N
          - math.exp(-(N + 1) * eta) * z1 * zs ** N * e2 ** N
          - zs * pref * P_vals * zs ** N)
    b = b + zs * ze * z1
    colscale = np.abs(A).max(axis=0)
    colscale[colscale == 0] = 1.0
    sol, *_ = np.linalg.lstsq(A / colscale, b, rcond=None)
    c = sol / colscale
    fit_res = float(np.abs(A @ c - b).max() / max(1e-300, np.abs(b).max()))
    return c, fit_res


def solve_inhom_baes(params: ModelParams) -> InhomBetheRoots:
    """ED-seeded solution of the inhomogeneous equations for the twisted
    chain's ground state.

    (1) take the ground doublet's t(0) branch (`GroundSpace.branch`) and
    sample Lambda(u) = <v|t(u)|v> at 2N+5 points on the unit circle in
    z = e^{2u}, all in one batched contraction
    (`model.transfer_expectations`); (2) fit the Q-polynomial through the
    linearized functional relation; (3) take lambda_j from q's roots,
    imaginary parts folded to (-pi/2, pi/2]; (4) polish with damped
    Newton on the equations themselves; (5) fold the polished roots into
    the strip of `_fold_root_strip`, so that roots on the line
    Im = +-pi/2 all read +pi/2 and the root sum is reproducible.
    `residual` is `bae_relative_residual` of the returned roots."""
    if params.boundary is not Boundary.ANTIPERIODIC:
        raise ValueError("the inhomogeneous equations describe the twisted chain")
    N, eta = params.N, params.eta
    if N > 12:
        raise ValueError("the ED seed caps the inhomogeneous solver at N = 12")

    v = _model.ground_space(params).branch

    K = 2 * N + 5
    phis = 2.0 * math.pi * (np.arange(K) + 0.37) / K
    us = 0.5j * phis
    zs = np.exp(2.0 * us)
    lams = _model.transfer_expectations(us, params, v)
    P_vals = np.array([cmath.exp((N - 1) * u) * lam for u, lam in zip(us, lams)])

    c, fit_res = _fit_q_linear(P_vals, zs, N, eta)
    if fit_res > 1e-6:
        raise ConvergenceError(f"Q-polynomial fit residual {fit_res:.2e} too large",
                               residual=fit_res)
    w = np.roots(np.concatenate(([1.0], c[::-1])))
    if len(w) != N or np.any(np.abs(w) < 1e-14):
        raise ConvergenceError(f"Q-polynomial produced {len(w)} usable roots, need {N}")
    lam = 0.5 * np.log(w.astype(complex))
    im = lam.imag
    lam = lam.real + 1j * (im - math.pi * np.ceil((im - math.pi / 2) / math.pi - 1e-15))

    lam = _fold_root_strip(_polish_inhom(lam, N, eta))
    return InhomBetheRoots(lam, bae_relative_residual(lam, N, eta), N, eta)


def _polish_inhom(lam: np.ndarray, N: int, eta: float):
    """Damped Newton in C^N on the equation vector, numeric Jacobian.
    Stops at a relative residual below NEWTON_TOL; a polish that stalls
    above 1e-10 raises."""
    h = 1e-7
    best = bae_relative_residual(lam, N, eta)
    for _ in range(60):
        if best < NEWTON_TOL:
            break
        F = _bae_residual_vec(lam, N, eta)
        J = np.empty((N, N), dtype=complex)
        for j in range(N):
            dp = lam.copy(); dp[j] += h
            dm = lam.copy(); dm[j] -= h
            J[:, j] = (_bae_residual_vec(dp, N, eta)
                       - _bae_residual_vec(dm, N, eta)) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular polish Jacobian: {exc}",
                                   iterate=lam, residual=best) from exc
        t = 1.0
        while t > 1e-6:
            cand = lam + t * step
            r = bae_relative_residual(cand, N, eta)
            if r < best:
                lam, best = cand, r
                break
            t *= 0.5
        else:
            break
    if best > 1e-10:
        raise ConvergenceError(f"polish stalled at relative residual {best:.2e}",
                               iterate=lam, residual=best)
    return lam


def tq_eigenvalue(u: complex, roots: InhomBetheRoots) -> complex:
    """Lambda(u) reconstructed from the inhomogeneous roots."""
    lam = roots.lam
    t1, t2, t3 = _tq_terms(u, lam, roots.N, roots.eta)
    return (t1 - t2 - t3) / np.prod(np.sinh(u - lam) / math.sinh(roots.eta))


def energy_inhom(roots: InhomBetheRoots, params: ModelParams) -> float:
    """E = -2 sinh(eta) sum_j [coth(lam_j + eta) - coth(lam_j)]
    + N cosh(eta) + 2 sinh(eta); the imaginary residue must cancel."""
    lam, eta, N = roots.lam, params.eta, params.N
    if np.any(np.abs(np.sinh(lam)) < 1e-12) or np.any(np.abs(np.sinh(lam + eta)) < 1e-12):
        raise ValueError("root at a coth pole")
    sh = math.sinh(eta)
    e = -2.0 * sh * np.sum(1.0 / np.tanh(lam + eta) - 1.0 / np.tanh(lam))
    e = e + N * math.cosh(eta) + 2.0 * sh
    if abs(e.imag) > 1e-8:
        raise ValueError(f"imaginary energy residue {e.imag:.2e}: bad root set")
    return float(e.real)


# ---------------------------------------------------------------------------
# charges from roots


def _fold_imag(value: complex) -> complex:
    """Fold Im to (-pi, pi], with -pi mapping to +pi."""
    im = value.imag
    im = im - 2.0 * math.pi * math.ceil((im - math.pi) / (2.0 * math.pi) - 1e-15)
    return complex(value.real, im)


# distance of the edge of _fold_root_strip's strip above Im = -pi/2, well
# clear of the rounding of roots that sit on the line
ROOT_STRIP_MARGIN = 1e-9


def _fold_root_strip(lam: np.ndarray) -> np.ndarray:
    """Fold Im of inhomogeneous roots modulo pi into the half-open strip
    (-pi/2 + ROOT_STRIP_MARGIN, pi/2 + ROOT_STRIP_MARGIN].  Ground roots
    sit on Im = +-pi/2, the same line modulo pi; every root within
    rounding of it lands at +pi/2, so the root sum does not depend on
    which side rounding put it."""
    im = lam.imag
    return lam.real + 1j * (im - math.pi * np.ceil((im - math.pi / 2 - ROOT_STRIP_MARGIN)
                                                   / math.pi))


def _is_symmetric(x: np.ndarray) -> bool:
    xs = np.sort(x)
    return bool(len(xs) == 0 or np.all(np.abs(xs + xs[::-1]) < 1e-11))


def charge_from_roots(order: str, roots) -> complex:
    """Momentum or three-site charge evaluated on a root set.

    order "Momentum": sum_j [Log sin((eta/2)(x_j - i)) - Log sin((eta/2)(x_j + i))]
    for real reduced roots, or the sinh form for complex inhomogeneous
    roots; principal branches, folded mod 2 pi i.  order "ChargeH2": the
    corresponding cot^2/coth^2 sums.  Either name in any letter case.

    A symmetric reduced set cancels in exact arithmetic and is returned as
    an exact 0 (or exact i pi for momentum when x = 0 is occupied)."""
    key = str(order).strip().lower()
    if key not in ("momentum", "chargeh2"):
        raise ValueError(f"unknown charge order: {order!r}")
    is_momentum = key == "momentum"

    if isinstance(roots, BetheRootsX):
        x, eta = roots.x, roots.eta
        if _is_symmetric(x):
            if is_momentum:
                has_zero = bool(np.any(np.abs(x) < 1e-11))
                return complex(0.0, math.pi) if has_zero else complex(0.0)
            return complex(0.0)
        zm = 0.5 * eta * (x - 1j)
        zp = 0.5 * eta * (x + 1j)
        if is_momentum:
            val = np.sum(np.log(np.sin(zm)) - np.log(np.sin(zp)))
            return _fold_imag(complex(val))
        sh = math.sinh(eta)
        val = 2j * sh * sh * np.sum(1.0 / np.tan(zm) ** 2 - 1.0 / np.tan(zp) ** 2)
        return complex(val)

    if isinstance(roots, InhomBetheRoots):
        lam, eta = roots.lam, roots.eta
        if np.any(np.abs(np.sinh(lam)) < 1e-12) or np.any(np.abs(np.sinh(lam + eta)) < 1e-12):
            raise ValueError("root at a log/cot singularity")
        if is_momentum:
            val = np.sum(np.log(np.sinh(lam + eta)) - np.log(np.sinh(lam)))
            return _fold_imag(complex(val))
        sh = math.sinh(eta)
        val = 2j * sh * sh * np.sum(1.0 / np.tanh(lam) ** 2 - 1.0 / np.tanh(lam + eta) ** 2)
        return complex(val)

    raise TypeError("roots must be BetheRootsX or InhomBetheRoots")


# ---------------------------------------------------------------------------
# inhomogeneous contribution (reduced minus exact)


def inhom_contribution(N: int, eta: float, observable: str):
    """Contribution of the inhomogeneous term to a ground-state observable:
    the reduced (homogeneous) value from the ground quantum numbers minus
    the exact value.

    `observable` is "Energy", "Momentum" or "ChargeH2", in any letter case.
    Energy: exact value from the lowest ED level (ED in the ground
    level's translation sector, about 2^(N-1)/N states: dense eigh to
    N = 12, Lanczos to N = 20); positive for even N, negative for odd.
    The charges need no ED.  Momentum: the exact values are the doublet's
    t(0) phases, +-i pi/2 at even N and {0, i pi} at odd N; the reduced
    value is compared against the member it approximates (nearest
    branch), which makes the even-N defect single-signed in N.  ChargeH2:
    the exact doublet value is 0 (H2's elements are imaginary, and it
    keeps parity).  At odd N the roots are symmetric and both are 0."""
    key = str(observable).strip().lower()
    if key not in ("energy", "momentum", "chargeh2"):
        raise ValueError(f"unknown observable: {observable!r}")
    if key == "energy" and N > _model.ITERATIVE_MAX:
        raise ValueError("exact value needs ED; N <= 20")
    boundary = Boundary.ANTIPERIODIC
    qn = ground_quantum_numbers(N, boundary)
    roots = solve_log_baes(eta, N, qn)

    if key == "energy":
        e_hom = energy_hom(roots)
        params = ModelParams(N, eta, boundary)
        H = _model.build_hamiltonian(params)
        spec = _model.ed_spectrum(H, 1)
        return float(e_hom - spec.eigenvalues[0])

    if key == "momentum":
        p = charge_from_roots("momentum", roots)
        if N % 2 == 0:
            exact = complex(0.0, math.copysign(math.pi / 2.0, p.imag))
        else:
            exact = complex(0.0, math.pi * round(p.imag / math.pi))
        return complex(p - exact)

    return float(charge_from_roots("ChargeH2", roots).real)
