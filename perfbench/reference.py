"""Reference computations made apart from the program.

Nothing here imports `twistbethe`.  Each function rebuilds a quantity
from its textbook definition so that the benchmark's checks compare the
program against a second, independent construction:

* the XXZ Hamiltonian from Pauli Kronecker products (dense, small N);
* the transfer matrix t(u) applied to a vector by contracting six-vertex
  R-matrices one site at a time;
* the inhomogeneous T-Q equations and the reduced logarithmic Bethe
  equations evaluated on a returned root set.
"""

from __future__ import annotations

import math

import numpy as np

_I2 = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _pauli_string(n_sites: int, ops: dict) -> np.ndarray:
    """Kronecker product over sites 1..N (site 1 most significant)."""
    out = np.ones((1, 1), dtype=complex)
    for site in range(1, n_sites + 1):
        out = np.kron(out, ops.get(site, _I2))
    return out


def hamiltonian(n_sites: int, eta: float, antiperiodic: bool) -> np.ndarray:
    """H = sum_j X_j X_{j+1} + Y_j Y_{j+1} + cosh(eta) Z_j Z_{j+1}; on the
    twisted chain the closing bond (N, 1) is X X - Y Y - cosh(eta) Z Z."""
    delta = math.cosh(eta)
    dim = 1 << n_sites
    H = np.zeros((dim, dim), dtype=complex)
    for j in range(1, n_sites + 1):
        k = j % n_sites + 1
        sign = -1.0 if (antiperiodic and j == n_sites) else 1.0
        H += _pauli_string(n_sites, {j: _X, k: _X})
        H += sign * _pauli_string(n_sites, {j: _Y, k: _Y})
        H += sign * delta * _pauli_string(n_sites, {j: _Z, k: _Z})
    return H.real


def lowest_levels(n_sites: int, eta: float, antiperiodic: bool, count: int = 3):
    """Lowest `count` eigenvalues and eigenvectors by numpy.linalg.eigh."""
    vals, vecs = np.linalg.eigh(hamiltonian(n_sites, eta, antiperiodic))
    return vals[:count], vecs[:, :count]


def _r_matrix(u: complex, eta: float) -> np.ndarray:
    """Six-vertex R(u) on (auxiliary, site), basis index 2*aux + site,
    spin up = 0: diag a, b, b, a with a = sinh(u+eta)/sinh(eta),
    b = sinh(u)/sinh(eta), and unit off-diagonal weights."""
    sh = math.sinh(eta)
    a = np.sinh(u + eta) / sh
    b = np.sinh(u) / sh
    return np.array([[a, 0, 0, 0],
                     [0, b, 1, 0],
                     [0, 1, b, 0],
                     [0, 0, 0, a]], dtype=complex).reshape(2, 2, 2, 2)


def apply_transfer(u: complex, eta: float, v: np.ndarray,
                   antiperiodic: bool = True) -> np.ndarray:
    """t(u) v with t(u) = tr_0[sigma^x_0 R_0N(u) ... R_01(u)] (no sigma^x
    on the periodic chain), contracted gate by gate in O(N 2^N)."""
    n_sites = int(round(math.log2(v.size)))
    R = _r_matrix(u, eta)
    out = np.zeros(v.size, dtype=complex)
    for a in (0, 1):
        psi = np.zeros((2, v.size), dtype=complex)
        psi[a] = v
        for j in range(1, n_sites + 1):
            view = psi.reshape(2, 1 << (j - 1), 2, 1 << (n_sites - j))
            psi = np.einsum("xyab,aLbR->xLyR", R, view).reshape(2, v.size)
        # <a| sigma^x T |a> picks the flipped auxiliary row
        out += psi[1 - a] if antiperiodic else psi[a]
    return out


def ground_branch_vector(n_sites: int, eta: float) -> tuple[float, np.ndarray]:
    """Ground energy of the twisted chain and the member of its doublet
    whose t(0) eigenvalue is i (even N) or 1 (odd N)."""
    vals, vecs = lowest_levels(n_sites, eta, True, 2)
    V = vecs.astype(complex)
    T0 = np.column_stack([apply_transfer(0.0, eta, V[:, i]) for i in range(2)])
    w, s = np.linalg.eig(V.conj().T @ T0)
    target = 1.0j if n_sites % 2 == 0 else 1.0
    i = int(np.argmin(np.abs(w - target)))
    v = V @ s[:, i]
    return float(vals[0]), v / np.linalg.norm(v)


def tq_relative_residual(lam: np.ndarray, n_sites: int, eta: float) -> float:
    """Relative residual of the inhomogeneous equations at u = lambda_j:

        e^u a(u) Q(u - eta) - e^{-u-eta} d(u) Q(u + eta) - c(u) a(u) d(u) = 0,

    a(u) = (sinh(u+eta)/sinh eta)^N, d(u) = (sinh u/sinh eta)^N,
    Q(u) = prod_k sinh(u - lambda_k)/sinh eta and
    c(u) = e^{u - N eta - S} - e^{-u - eta + S}, S = sum_k lambda_k."""
    sh = math.sinh(eta)
    S = lam.sum()
    res, scale = 0.0, 0.0
    for u in lam:
        a = (np.sinh(u + eta) / sh) ** n_sites
        d = (np.sinh(u) / sh) ** n_sites
        q_minus = np.prod(np.sinh(u - eta - lam) / sh)
        q_plus = np.prod(np.sinh(u + eta - lam) / sh)
        c = np.exp(u - n_sites * eta - S) - np.exp(-u - eta + S)
        terms = (np.exp(u) * a * q_minus, np.exp(-u - eta) * d * q_plus, c * a * d)
        res = max(res, abs(terms[0] - terms[1] - terms[2]))
        scale = max(scale, *(abs(t) for t in terms))
    return res / scale


def _theta(m: int, x: np.ndarray, eta: float) -> np.ndarray:
    """theta_m(x) = 2 arctan(tan(eta x / 2) / tanh(m eta / 2))
    + 2 pi floor((eta x + pi) / (2 pi)), the continuous branch."""
    w = eta * np.asarray(x, dtype=float)
    return (2.0 * np.arctan(np.tan(0.5 * w) / math.tanh(0.5 * m * eta))
            + 2.0 * math.pi * np.floor((w + math.pi) / (2.0 * math.pi)))


def log_bae_residual(x: np.ndarray, twice_I, n_sites: int, eta: float,
                     antiperiodic: bool) -> float:
    """max_j |[eta x_j] + N theta_1(x_j) - 2 pi I_j - sum_k theta_2(x_j - x_k)|."""
    F = n_sites * _theta(1, x, eta) - math.pi * np.asarray(twice_I, dtype=float)
    if antiperiodic:
        F = F + eta * x
    F = F - _theta(2, x[:, None] - x[None, :], eta).sum(axis=1)
    return float(np.abs(F).max())


def log_bae_energy(x: np.ndarray, n_sites: int, eta: float, antiperiodic: bool) -> float:
    """E = N cosh(eta) - 4 sinh(eta)^2 sum_j 1/(cosh(eta) - cos(eta x_j)),
    plus 2 sinh(eta) on the twisted chain."""
    sh, ch = math.sinh(eta), math.cosh(eta)
    e = n_sites * ch - 4.0 * sh * sh * float(np.sum(1.0 / (ch - np.cos(eta * x))))
    return e + 2.0 * sh if antiperiodic else e
