"""Kronecker-product constructions of the chain operators, kept apart from
`twistbethe.model` as an independent oracle for its bit-rule CSR matrices
and its matrix-free transfer matrix.

Every operator here is assembled from 2x2 site matrices placed with
sparse Kronecker products (site 1 most significant), with no bit
arithmetic; the tests compare the two constructions.
"""

import cmath
import math

import numpy as np
import scipy.sparse as sp

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SP = np.array([[0.0, 1.0], [0.0, 0.0]])   # sigma^+ = |up><down|
SM = np.array([[0.0, 0.0], [1.0, 0.0]])


def site(N, j, m):
    """Single-site operator m at 1-based site j as a sparse 2^N matrix."""
    left = sp.identity(1 << (j - 1), format="csr", dtype=m.dtype)
    right = sp.identity(1 << (N - j), format="csr", dtype=m.dtype)
    return sp.kron(sp.kron(left, sp.csr_matrix(m)), right, format="csr")


def hamiltonian(N, eta, twisted):
    """Dense real H: bonds (j, j+1) and the closing bond (N, 1), which is
    sx.sx - sy.sy - cosh(eta) sz.sz on the twisted chain."""
    ch = math.cosh(eta)
    H = sp.csr_matrix((1 << N, 1 << N))
    for j in range(1, N + 1):
        k = j % N + 1
        sx = site(N, j, SX) @ site(N, k, SX)
        sy = (site(N, j, SY) @ site(N, k, SY)).real
        sz = site(N, j, SZ) @ site(N, k, SZ)
        if twisted and j == N:
            H = H + sx - sy - ch * sz
        else:
            H = H + sx + sy + ch * sz
    return H.real.toarray()


def h2_charge(N, eta):
    """Dense three-site charge of the twisted chain; a site past the seam
    carries sx m sx in place of m."""
    ch = math.cosh(eta)

    def wrapped(j, m):
        return site(N, j, m) if j <= N else site(N, j - N, SX @ m @ SX)

    terms = [(-ch, SX, SY, SZ), (ch, SY, SX, SZ), (-1.0, SY, SZ, SX),
             (ch, SZ, SY, SX), (-ch, SZ, SX, SY), (1.0, SX, SZ, SY)]
    H2 = sp.csr_matrix((1 << N, 1 << N), dtype=complex)
    for j in range(1, N + 1):
        for coeff, m1, m2, m3 in terms:
            H2 = H2 + coeff * (wrapped(j, m1) @ wrapped(j + 1, m2) @ wrapped(j + 2, m3))
    return H2.toarray()


def transfer_matrix(u, eta, theta, twisted):
    """Dense t(u) from the monodromy blocks [[A, B], [C, D]] of
    R_{0N}(u-th_N)...R_{01}(u-th_1); B + C with the twist, A + D without.
    R's blocks in the auxiliary basis are [[a P+ + b P-, s^-], [s^+, b P+ + a P-]]."""
    N = len(theta)
    sh = cmath.sinh(eta)
    pz = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    mz = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    A = B = C = D = None
    for j in range(1, N + 1):
        a = cmath.sinh(u - theta[j - 1] + eta) / sh
        b = cmath.sinh(u - theta[j - 1]) / sh
        r11 = a * site(N, j, pz) + b * site(N, j, mz)
        r12 = site(N, j, SM.astype(complex))
        r21 = site(N, j, SP.astype(complex))
        r22 = b * site(N, j, pz) + a * site(N, j, mz)
        if A is None:
            A, B, C, D = (m.toarray() for m in (r11, r12, r21, r22))
        else:
            A, B, C, D = (r11 @ A + r12 @ C, r11 @ B + r12 @ D,
                          r21 @ A + r22 @ C, r21 @ B + r22 @ D)
    return np.asarray((B + C) if twisted else (A + D))
