"""Spin-chain operators on the 2^N space and the exact-diagonalization oracle.

Site 1 is the most significant bit of the basis index, so basis state
|s_1 ... s_N> has index sum_j s_j 2^{N-j} with s=0 for spin up.  The
twisted chain closes through a spin-x rotation, so its boundary bond is
sx.sx - sy.sy - cosh(eta) sz.sz while every bulk bond (and every periodic
bond) is sx.sx + sy.sy + cosh(eta) sz.sz.  The chain is uniform:
`ModelParams` is (N, eta, boundary), and the transfer matrix has no
inhomogeneities (the T-Q derivation's theta_j are zero).

Every operator comes from one of two constructions.  H and the
three-site charge H2 are CSR matrices (`_Csr`, on numpy arrays), sums
of Pauli strings whose bit rules (X and Y flip a bit, Y and Z contribute
a sign or phase) give each matrix element directly.  The transfer
matrix t(u) is applied matrix-free by contracting the six-vertex
R-matrix one site at a time, O(N 2^N) per point u; K points run through
the sites in one pass (`_TransferContraction`), which is how
`transfer_expectations` gives <v|t(u_k)|v> at all of them, and a single
t(u) is its K = 1 case.
t(0) is a bit map; its CSR permutation (`build_momentum_charge`) is an
independent oracle that no program path builds.
Hamiltonians are real symmetric; H2 and t(u) are complex.

Every basis symmetry is a bit map on state indices, applied to the
states it touches (`_rotate`, `s ^ mask`), and `_symmetries` lists the
ones each chain uses.  H and H2 commute with the parity P = prod sigma^z
on both boundaries, and are held as their two P blocks, each on 2^(N-1)
basis states and built on first use; no 2^N CSR matrix is built for
them.  Where a basis permutation commutes with the operator and flips P
(t(0) on the twisted chain; the global spin flip for H on the periodic
chain at odd N) the odd block is the even one on the mirrored states:
only the even block is built and solved, and its levels count twice.
ED solves the blocks one at a time (`_block_eigs`): numpy's dense
eigvalsh or eigh up to DENSE_SECTOR_MAX states per block; above it,
plain Lanczos for one level without its vector, and ARPACK otherwise.
No symmetry is held as an array over the 2^N states: beyond the two
parity state lists, a solve allocates only the block it solves (with a
translation sector's orbit tables, 2^(N-1) int32 each) and, in
`ground_space`, the two full-space vectors.

H also declares the translation sector that holds its ground level: the
even block's t(0)^2 = -1 (even N) or +1 (odd N) sector on the twisted
chain, and the block (N/2) mod 2's shift T = (-1)^(N/2) sector on the
periodic chain at even N.  Its basis is the orbit representatives of
that symmetry (Sandvik, arXiv:1101.3281, section 4), about 2^(N-1)/N
states, and its matrix comes from the same bit rules.  `ed_spectrum`
returns levels only; a request for one level per solved block (the
ground energies of the finite-N scans) solves that sector alone and
builds no parity block, and so does `ground_space`, the one source of
eigenvectors, which spreads the sector's lowest vector onto the even
block and splits the doublet in closed form on the t(0)^2 eigenvalue it
measures.  The periodic chain at odd N, whose ground momenta make a complex
sector, stays on its parity blocks.  The iterative solvers carry ED to N =
ITERATIVE_MAX = 20; H and H2 are refused above it.  A dense 2^N matrix
is derived on demand only for N <= 12, a size chosen for 5 GB class
hardware.

scipy is loaded by the iterative solvers, on first use: Lanczos runs on
its BLAS and LAPACK, ARPACK is its `eigsh`, and both apply a block
through its CSR kernel; a forced dense solve of a block above the cap,
the iterative solvers' reference, is its subset eigh.  Building
operators, the dense route below the cap, the transfer matrix and
`ground_space` up to DENSE_SECTOR_MAX sector states (N = 12) run on
numpy only, so a process whose ED stays below the dense cap, such as
every inhomogeneous T-Q solve, never loads scipy.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass

import numpy as np

from .common import Boundary

DENSE_MAX = 12
ITERATIVE_MAX = 20
# largest block given to dense eigh; above it the iterative solvers are
# faster, by the crossovers measured on a 2-core box with one BLAS thread:
# ARPACK on parity blocks past N = 9, and Lanczos on translation sectors,
# which ties with eigh at 172-180 states (N = 12) and is 3x faster at 316
DENSE_SECTOR_MAX = 256
DEGENERACY_TOL = 1e-8
# stop rule and step cap of the single-level Lanczos run (_lanczos_lowest).
# Before a spurious copy forms, the residual estimate of the converged
# lowest pair bottoms out at 1-3 eps ||T|| on the H and H2 blocks at
# N = 10..16; a ground level of H at N = 16 takes at most 150 steps per
# block.
LANCZOS_TOL = 8 * np.finfo(np.float64).eps
LANCZOS_MAX_STEPS = 1000


@dataclass(frozen=True)
class ModelParams:
    """Chain length, anisotropy eta > 0 (Delta = cosh eta) and boundary kind
    of the uniform chain."""

    N: int
    eta: float
    boundary: Boundary = Boundary.ANTIPERIODIC

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("need at least two sites")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite (massive regime): {self.eta}")
        object.__setattr__(self, "boundary", Boundary.coerce(self.boundary))

    @property
    def dim(self) -> int:
        return 1 << self.N


class ChainOperator:
    """Linear operator on the 2^N space (or on one parity block of it), held
    as a CSR matrix, as parity blocks or as a matrix-free contraction; all
    are applied with `@`.  `matvec` is the one way to apply it, and `dense`
    is derived from it on first use, for N <= DENSE_MAX only."""

    def __init__(self, n_sites, op):
        self.n_sites = n_sites
        self.dim = op.shape[0]
        self._op = op
        self._dense = None
        self.dtype = np.dtype(op.dtype)

    def matvec(self, v):
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise ValueError(f"vector length must be {self.dim}")
        return self._op @ v

    @property
    def dense(self):
        """Dense matrix, or None above DENSE_MAX sites."""
        if self._dense is None and self.n_sites <= DENSE_MAX:
            if hasattr(self._op, "toarray"):
                self._dense = self._op.toarray()
            else:
                self._dense = self._op @ np.eye(self.dim, dtype=self.dtype)
        return self._dense

    def as_scipy(self):
        import scipy.sparse.linalg as spla
        return spla.LinearOperator((self.dim, self.dim), matvec=self.matvec,
                                   dtype=self.dtype)


class _Csr:
    """Square sparse matrix in CSR form on numpy arrays: row i holds the
    values data[indptr[i]:indptr[i+1]] in the columns indices[indptr[i]:
    indptr[i+1]], both index arrays int32, and a column repeated within a
    row adds up.  Densified on numpy (`toarray`).  Applied with `@` by
    scipy's CSR kernel, which loads scipy: the first product puts the
    arrays in scipy's canonical form (columns ascending within each row,
    repeats summed, by `sum_duplicates`, which rewrites them in place), and
    the matrix keeps scipy's arrays from then on, so that the dense and the
    iterative route read one set of arrays and neither copies it."""

    def __init__(self, data, indices, indptr):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = (len(indptr) - 1,) * 2
        self.dtype = data.dtype
        self._scipy = None

    def rows(self):
        """The row of every entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr))

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(out, (self.rows(), self.indices), self.data)
        return out

    def __matmul__(self, v):
        if self._scipy is None:
            import scipy.sparse
            matrix = scipy.sparse.csr_matrix((self.data, self.indices, self.indptr),
                                             shape=self.shape)
            matrix.sum_duplicates()
            self.data, self.indices, self.indptr = matrix.data, matrix.indices, matrix.indptr
            self._scipy = matrix
        return self._scipy @ v


class _ParityBlocks:
    """Operator commuting with P = prod sigma^z, held as its two blocks:
    `block(p)` is a `_Csr` matrix on the basis states `states[p]` (ascending),
    those with an even (p = 0, P = +1) or odd (p = 1) number of down spins,
    built by `build(p)` on first use.  Applied and densified by scattering
    through `states`.

    `mirror`, when given, is the bit map of a basis permutation, |s> to
    |mirror(s)>, that commutes with the operator and maps each sector onto
    the other, so the odd block is the even block on the states
    mirror(states[0]) and ED solves the even one alone.  `ground_sector`,
    when given, builds the `_Csr` matrix of the operator on the one
    translation sector that holds its lowest level, with the map that
    spreads sector vectors onto the states of its parity block
    (`_pauli_csr`); it allocates no parity block."""

    def __init__(self, build, states, dtype, mirror, ground_sector):
        self._build, self.states, self.dtype = build, states, dtype
        self.mirror, self.ground_sector = mirror, ground_sector
        self._blocks = [None, None]
        dim = 2 * len(states[0])
        self.shape = (dim, dim)

    def block(self, p):
        if self._blocks[p] is None:
            self._blocks[p] = self._build(p)
        return self._blocks[p]

    @property
    def blocks(self):
        return self.block(0), self.block(1)

    def __matmul__(self, v):
        out = np.empty(v.shape, dtype=np.result_type(self.dtype, v.dtype))
        for block, states in zip(self.blocks, self.states):
            out[states] = block @ v[states]
        return out

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.dtype)
        for block, states in zip(self.blocks, self.states):
            np.add.at(out, (states[block.rows()], states[block.indices]), block.data)
        return out


def _pauli_csr(N: int, terms, mirror, sector) -> _ParityBlocks:
    """Sum of Pauli strings as its two parity blocks, each a `_Csr`.

    Each term is (coeff, ((site, "X"|"Y"|"Z"), ...)) with 1-based, distinct
    sites, and flips an even number of sites, so that the sum commutes with
    P.  A string maps basis state s to s ^ flip, X and Y setting the flip
    bits, with amplitude coeff * i^(number of Y) * (-1)^(number of set bits
    of s under Y and Z).  Strings sharing a flip pattern are summed in the
    order given and zero amplitudes dropped.  The blocks are real when
    every coeff * i^(number of Y) is.  `mirror` is passed on to
    `_ParityBlocks`.

    `sector`, when given, is (p, g, lam): a permutation g of the basis
    states of parity p, applied to their indices and with g^N = 1, that
    commutes with the sum, and a real eigenvalue lam = +-1 of it.  The
    sector's basis states are the orbit representatives r (the least
    index of each orbit of g) whose period R_r admits lam, lam^R_r = 1,
    each the state R_r^(-1/2) sum_{k < R_r} lam^k g^k |r>; its matrix is
    built by the same bit rules, from the rows r only.  A string takes r
    to a state s = g^d r' on the orbit of r', which adds amplitude * lam^d *
    sqrt(R_r / R_r') to the entry (r, r') (Sandvik, arXiv:1101.3281,
    section 4); an orbit that does not admit lam takes none.  Applying g
    N times to the block's states records each state's representative,
    shift d and period R, as int32.  The sector builder returns the matrix
    with `spread`, which takes a sector vector x to the vector on the
    block's states whose entry at g^d r is lam^d R_r^(-1/2) x_r, and 0
    on the orbits outside the sector.

    Refuses N > ITERATIVE_MAX before anything of size 2^N is allocated:
    every operator built here feeds ED, which stops there."""
    if N > ITERATIVE_MAX:
        raise ValueError(f"N={N} exceeds the ED limit N <= {ITERATIVE_MAX}")
    half = 1 << (N - 1)
    by_flip = {}
    for coeff, ops in terms:
        flip = signs = 0
        factor = complex(coeff)
        for site, pauli in ops:
            bit = 1 << (N - site)
            if pauli in "XY":
                flip |= bit
            if pauli in "YZ":
                signs |= bit
            if pauli == "Y":
                factor *= 1j
        if flip.bit_count() % 2:
            raise ValueError("a Pauli string flipping an odd number of sites breaks parity")
        by_flip.setdefault(flip, []).append((factor, signs))
    real = all(f.imag == 0 for strings in by_flip.values() for f, _ in strings)
    dtype = np.float64 if real else np.complex128
    # of the states 2m and 2m+1 exactly one lies in each sector, so a
    # sector's m-th state is 2m plus a parity bit, and m = state >> 1 is its
    # rank within the sector, which is its column index in the block
    m = np.arange(half, dtype=np.int32)
    states = tuple((m << 1) | ((np.bitwise_count(m) & 1) ^ p) for p in (0, 1))

    def csr(rows, columns):
        # one row per state in `rows`; columns(cols, amp) maps the states a
        # flip reaches, and their amplitudes, to column indices and final
        # amplitudes, an amplitude of 0 dropping the entry

        def amplitudes(flip, strings):
            cols = rows ^ np.int32(flip)
            amp = np.zeros(len(rows), dtype=dtype)
            for factor, signs in strings:
                sign = 1.0 - 2.0 * (np.bitwise_count(cols & signs) & 1)
                amp += (factor.real if real else factor) * sign
            return columns(cols, amp)

        # two passes, count then fill, so that only the final arrays are
        # allocated
        indptr = np.zeros(len(rows) + 1, dtype=np.int32)
        for flip, strings in by_flip.items():
            indptr[1:] += amplitudes(flip, strings)[1] != 0
        np.cumsum(indptr, out=indptr)
        fill = indptr[:-1].copy()
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1], dtype=dtype)
        for flip, strings in by_flip.items():
            cols, amp = amplitudes(flip, strings)
            nz = np.flatnonzero(amp)
            at = fill[nz]
            indices[at] = cols[nz]
            data[at] = amp[nz]
            fill[nz] += 1
        # a sector's entry (r, r') comes once for each state of the orbit
        # of r' that a string reaches from r: repeats that `_Csr` sums
        return _Csr(data, indices, indptr)

    def block(p):
        return csr(states[p], lambda cols, amp: (cols >> 1, amp))

    def sector_block():
        p, g, lam = sector
        s = states[p]
        rep, shift, period = s.copy(), np.zeros_like(s), np.zeros_like(s)
        image = s
        for k in range(1, N + 1):
            image = g(image)
            np.copyto(shift, k, where=image < rep)
            np.minimum(rep, image, out=rep)
            if N % k == 0:   # the period divides N
                np.copyto(period, k, where=(image == s) & (period == 0))
        # rep = g^k s, so s = g^(R - k) rep
        shift = (period - shift) % period
        keep = (rep == s) & (np.where(period & 1, lam, 1.0) == 1.0)
        rank = np.where(keep, np.cumsum(keep, dtype=np.int32) - 1, -1)
        target = rank[rep >> 1]
        row_period = period[keep]

        def columns(cols, amp):
            j = cols >> 1
            # lam^d, lam being +-1
            amp *= np.where(shift[j] & 1, lam, 1.0) * np.sqrt(row_period / period[j])
            col = target[j]
            amp[col < 0] = 0.0
            return col, amp

        def spread(x):
            out = x[target] * (np.where(shift & 1, lam, 1.0) / np.sqrt(period))
            out[target < 0] = 0.0
            return out

        return csr(s[keep], columns), spread

    return _ParityBlocks(block, states, dtype, mirror,
                         None if sector is None else sector_block)


def _bonds(params: ModelParams):
    """(j, k, twisted) for all N bonds; the last bond closes the ring and is
    the twisted one on the antiperiodic chain."""
    out = [(j, j + 1, False) for j in range(1, params.N)]
    out.append((params.N, 1, params.boundary is Boundary.ANTIPERIODIC))
    return out


def build_hamiltonian(params: ModelParams) -> ChainOperator:
    """H = sum_bonds sx.sx + sy.sy + cosh(eta) sz.sz with the closing bond
    sign-twisted on the antiperiodic chain.  Real symmetric, held as its
    two parity blocks, built on first use, with its mirror and the
    translation sector of its ground level declared (`_symmetries`); the
    dense matrix is derived on demand for N <= 12."""
    N, ch = params.N, math.cosh(params.eta)
    terms = []
    for j, k, twisted in _bonds(params):
        sign = -1.0 if twisted else 1.0
        terms += [(1.0, ((j, "X"), (k, "X"))), (sign, ((j, "Y"), (k, "Y"))),
                  (sign * ch, ((j, "Z"), (k, "Z")))]
    return ChainOperator(N, _pauli_csr(N, terms, *_symmetries(params)))


def _rotate(s, N: int, by: int, flip: bool):
    """Basis state indices s with every spin moved `by` sites to the right,
    the spins wrapped round from the end of the chain flipped if `flip`."""
    wrapped = (1 << by) - 1
    return (s >> by) | (((s & wrapped) ^ (wrapped if flip else 0)) << (N - by))


def _symmetries(params: ModelParams):
    """(mirror, ground sector) of the chain, each a bit map on basis state
    indices in the form `_pauli_csr` takes, or None.

    The mirror commutes with H and flips P: on the twisted chain t(0),
    |s_1 .. s_N> to |sbar_N, s_1, .., s_{N-1}>, which also commutes with
    H2; on the periodic chain at odd N the global spin flip; none on the
    periodic chain at even N, whose blocks hold different levels.

    The ground sector is (parity p, symmetry g, eigenvalue) of a sector
    of H that holds its ground level.  Twisted chain: the even block and
    g = t(0)^2, with eigenvalue -1 at even N and +1 at odd N, the square
    of the ground doublet's t(0) eigenvalues +-i and +-1 (`ground_space`).
    Periodic chain at even N: the block (N/2) mod 2 of the S^z = 0 ground
    state, and the shift T, with eigenvalue (-1)^(N/2)
    (Marshall-Lieb-Mattis).  Periodic chain at odd N: None; its ground
    momenta k = (N+1)//4 and N - k, in units of 2 pi/N, give a complex
    sector."""
    N = params.N
    if params.boundary is Boundary.ANTIPERIODIC:
        return (lambda s: _rotate(s, N, 1, True),
                (0, lambda s: _rotate(s, N, 2, True), -1.0 if N % 2 == 0 else 1.0))
    if N % 2 == 0:
        return None, ((N // 2) % 2, lambda s: _rotate(s, N, 1, False), (-1.0) ** (N // 2))
    return lambda s: s ^ ((1 << N) - 1), None


def build_momentum_charge(params: ModelParams) -> ChainOperator:
    """The translation-like unitary t(0) of the twisted chain: cyclic right
    shift followed by a spin flip on the first site (the mirror of
    `_symmetries`).  Its eigenvalue logs are the momentum charge;
    t(0)^{2N} = 1 exactly."""
    if params.boundary is not Boundary.ANTIPERIODIC:
        raise ValueError("momentum charge is defined for the antiperiodic chain")
    t0, _ = _symmetries(params)
    dim = 1 << params.N
    # row t0(s) holds one 1, in column s
    s = np.arange(dim, dtype=np.int32)
    indices = np.empty(dim, dtype=np.int32)
    indices[t0(s)] = s
    return ChainOperator(params.N, _Csr(np.ones(dim), indices,
                                        np.arange(dim + 1, dtype=np.int32)))


def build_h2_charge(params: ModelParams) -> ChainOperator:
    """Three-site conserved charge from the second logarithmic derivative of
    the transfer matrix:

    H2 = sum_j [ -ch sx sy sz + ch sy sx sz - sy sz sx
                 + ch sz sy sx - ch sz sx sy + sx sz sy ]_{j,j+1,j+2}

    with ch = cosh(eta) and the twisted wrap s_{N+k} = sx_k s_k sx_k, that
    is sx, -sy, -sz on a site past the seam.  Hermitian, held as its two
    parity blocks; commutes with H and t(u)."""
    if params.boundary is not Boundary.ANTIPERIODIC:
        raise ValueError("H2 charge is defined for the antiperiodic chain")
    if params.N < 3:
        raise ValueError("three-site charge needs N >= 3")
    N, ch = params.N, math.cosh(params.eta)
    shape = [(-ch, "XYZ"), (ch, "YXZ"), (-1.0, "YZX"),
             (ch, "ZYX"), (-ch, "ZXY"), (1.0, "XZY")]
    terms = []
    for j in range(1, N + 1):
        for coeff, paulis in shape:
            ops = []
            for site, pauli in enumerate(paulis, start=j):
                if site > N:
                    site -= N
                    coeff = coeff if pauli == "X" else -coeff
                ops.append((site, pauli))
            terms.append((coeff, tuple(ops)))
    t0, _ = _symmetries(params)
    return ChainOperator(N, _pauli_csr(N, terms, t0, None))


class _TransferContraction:
    """t(u_1), ..., t(u_K) applied at once to the leading axis of an array
    by running the auxiliary space through R_{01}, ..., R_{0N} once per
    auxiliary state, on a state of shape (2, K) + v.shape.

    R(u) on (auxiliary, site) keeps the states |00> and |11> with weight
    a = sinh(u+eta)/sinh(eta), keeps |01> and |10> with weight
    b = sinh(u)/sinh(eta) and swaps them with weight 1, so R(0) is the
    permutation.  Every site of the uniform chain has the same (a, b),
    held as (K,) arrays, each entry computed with `cmath` as for one
    point.  `apply` returns the K images, shape (K,) + v.shape; `@` is
    the one-point case."""

    dtype = np.dtype(np.complex128)

    def __init__(self, us, params: ModelParams):
        self.shape = (params.dim, params.dim)
        self.n_sites = params.N
        sh = cmath.sinh(params.eta)
        self.a = np.array([cmath.sinh(u + params.eta) / sh for u in us])
        self.b = np.array([cmath.sinh(u) / sh for u in us])
        self.twisted = params.boundary is Boundary.ANTIPERIODIC

    def apply(self, v):
        K = len(self.a)
        # a point's weights broadcast over its (left, rest) block
        a, b = self.a[:, None, None], self.b[:, None, None]
        out = np.zeros((K,) + v.shape, dtype=self.dtype)
        for aux in (0, 1):
            psi = np.zeros((2, K) + v.shape, dtype=self.dtype)
            psi[aux] = v
            for j in range(1, self.n_sites + 1):
                q = psi.reshape(2, K, 1 << (j - 1), 2, -1)   # (aux, point, left, site, rest)
                q[0, :, :, 0] *= a
                q[1, :, :, 1] *= a
                up_down = q[0, :, :, 1].copy()
                q[0, :, :, 1] *= b
                q[0, :, :, 1] += q[1, :, :, 0]
                q[1, :, :, 0] *= b
                q[1, :, :, 0] += up_down
            # tr_0[sx_0 T] picks the flipped auxiliary state; tr_0[T] the same one
            out += psi[1 - aux] if self.twisted else psi[aux]
        return out

    def __matmul__(self, v):
        out, = self.apply(v)
        return out


def transfer_matrix(u: complex, params: ModelParams) -> ChainOperator:
    """Twisted transfer matrix t(u) = tr_0 [ sx_0 R_{0N}(u)...R_{01}(u) ]
    (trace without the twist for the periodic chain), applied matrix-free
    in O(N 2^N) at any N; no 2^N x 2^N matrix is formed unless `.dense` is
    asked for."""
    return ChainOperator(params.N, _TransferContraction((u,), params))


def transfer_expectations(us, params: ModelParams, v: np.ndarray) -> np.ndarray:
    """<v|t(u_k)|v> for every point of the 1-D array `us`, from one
    contraction of all K points (`_TransferContraction`): O(N 2^N) per
    point on a state of 2 K 2^N entries, with each point's result equal
    bit for bit to `np.vdot(v, transfer_matrix(u_k, params).matvec(v))`."""
    v = np.asarray(v)
    if v.shape != (params.dim,):
        raise ValueError(f"vector length must be {params.dim}")
    images = _TransferContraction(us, params).apply(v)
    return np.array([np.vdot(v, w) for w in images])


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    degeneracies: list[int]
    method: str
    block_dim: int   # dimension of the largest block solved


def _cluster(vals: np.ndarray) -> list[int]:
    degs = []
    for i, v in enumerate(vals):
        if i > 0 and abs(v - vals[i - 1]) < DEGENERACY_TOL:
            degs[-1] += 1
        else:
            degs.append(1)
    return degs


class LanczosNoConvergence(RuntimeError):
    """The single-level Lanczos run took LANCZOS_MAX_STEPS steps without
    meeting its stop rule; carries the step count, the last lowest Ritz
    value and its residual estimate."""

    def __init__(self, steps, value, estimate):
        super().__init__(f"Lanczos did not converge in {steps} steps: lowest Ritz "
                         f"value {value!r}, residual estimate {estimate:.3e}")
        self.steps, self.value, self.estimate = steps, value, estimate


def _lanczos_lowest(op: ChainOperator, v0: np.ndarray) -> float:
    """Lowest eigenvalue of a Hermitian operator by the three-term Lanczos
    recurrence from v0 (Sandvik, arXiv:1101.3281, section 4), holding three
    vectors and no basis.

    After step j the lowest Ritz value theta of the j x j tridiagonal T_j
    has residual norm |beta_j s_j|, s_j the last component of its unit
    eigenvector.  The run stops once |beta_j s_j| <= LANCZOS_TOL ||T_j||,
    with ||T_j|| bounded by its largest Gershgorin row sum.  That is
    ARPACK's tol = 0 rule, |beta_j s_j| <= eps |theta|, with |theta| <=
    ||T_j|| and widened to what plain Lanczos can reach: without
    reorthogonalisation a converged pair loses orthogonality at a residual
    of a few eps ||A|| (Paige), a spurious copy of it forms, and the
    estimate rises again, at times before it has reached eps |theta|.  The
    rule also stops on breakdown, beta_j at rounding level, where the
    Krylov space is invariant.  Spurious copies leave the lowest value
    alone but hide multiplicities: this path serves one level without
    vectors only.

    The vector updates, inner products and norms all come from scipy's
    BLAS (zdotc and dznrm2 on complex blocks): mixing in numpy's, which
    may be a different library with its own thread pool, wakes two
    pools on every step."""
    import scipy.linalg
    dtype = np.result_type(op.dtype, np.float64)
    axpy, dot, nrm2 = scipy.linalg.get_blas_funcs(("axpy", "dot", "nrm2"), dtype=dtype)
    alphas, betas = np.empty(LANCZOS_MAX_STEPS), np.empty(LANCZOS_MAX_STEPS)
    q = (v0 / nrm2(v0)).astype(dtype)
    q_prev = np.zeros_like(q)
    beta = norm_t = 0.0
    for j in range(LANCZOS_MAX_STEPS):
        w = op.matvec(q)
        alphas[j] = alpha = dot(q, w).real
        w = axpy(q_prev, axpy(q, w, a=-alpha), a=-beta)
        betas[j] = beta = nrm2(w)
        norm_t = max(norm_t, abs(alpha) + beta + (betas[j - 1] if j else 0.0))
        # the lowest pair of T_{j+1} by the LAPACK routines behind
        # eigh_tridiagonal(select="i"), called directly: at these sizes its
        # argument checks cost as much as the solve.  The wrappers want an
        # off-diagonal of at least one entry, unread when T is 1 x 1.
        d, e = alphas[:j + 1], betas[:max(j, 1)]
        _, theta, block, split, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, 1, 1,
                                                                  0.0, "B")
        s, info_s = scipy.linalg.lapack.dstein(d, e, theta[:1], block, split)
        if info or info_s:
            raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed at step {j + 1}")
        theta, estimate = float(theta[0]), beta * abs(s[-1, 0])
        if estimate <= LANCZOS_TOL * norm_t:
            return theta
        w /= beta
        q_prev, q = q, w
    raise LanczosNoConvergence(LANCZOS_MAX_STEPS, theta, estimate)


def _block_eigs(n_sites: int, block, k: int, *, method: str | None, vectors: bool):
    """Lowest k eigenvalues of a Hermitian `_Csr` block, ascending, their
    vectors (None where `vectors` is False) and the solver that ran.
    "dense" when forced, for at most DENSE_SECTOR_MAX states with no
    method forced, and, even when
    "iterative" is forced, wherever ARPACK's default Krylov space of
    max(2k + 1, 20) vectors would span the whole block: there its levels
    and vectors changed from call to call, from the same start vector.
    Up to DENSE_SECTOR_MAX states the dense route is numpy's eigvalsh, or
    eigh for vectors, and loads no scipy.  Only a forced "dense" runs above
    the cap, as the reference of the iterative solvers, and there it is
    scipy's eigh on the lowest k levels: numpy's eigvalsh drifts from the
    lowest level by up to 1.4e-12 (H2 at N = 11, eta = 3, 1024 states),
    and numpy's eigh, which stays within 5e-14, takes 15 s for all 2048
    vectors of H2 at N = 12, against 2.6 s.  "iterative" otherwise:
    Lanczos (`_lanczos_lowest`) for one level without `vectors`, ARPACK
    for the rest, both on scipy.  The
    iterative solvers apply the block through `matvec`, from one fixed
    start vector per block dimension (a standard normal draw of
    `default_rng(0)`; any vector not orthogonal to the ground state
    serves), so every call repeats bit for bit."""
    dim = block.shape[0]
    if (method == "dense" or dim <= max(2 * k + 1, 20)
            or (method is None and dim <= DENSE_SECTOR_MAX)):
        if dim > DENSE_SECTOR_MAX:
            import scipy.linalg
            subset = (0, k - 1) if k < dim else None
            vals, vecs = scipy.linalg.eigh(block.toarray(), subset_by_index=subset,
                                           overwrite_a=True)
            return vals, vecs if vectors else None, "dense"
        if not vectors:
            return np.linalg.eigvalsh(block.toarray())[:k], None, "dense"
        vals, vecs = np.linalg.eigh(block.toarray())
        return vals[:k], vecs[:, :k], "dense"
    v0 = np.random.default_rng(0).standard_normal(dim)
    block_op = ChainOperator(n_sites, block)
    if k == 1 and not vectors:
        return np.array([_lanczos_lowest(block_op, v0)]), None, "iterative"
    import scipy.sparse.linalg
    vals, vecs = scipy.sparse.linalg.eigsh(block_op.as_scipy(), k=k, which="SA", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], "iterative"


def _sector_eigs(op: ChainOperator, count: int, *, method: str | None):
    """Lowest eigenvalues of a Hermitian operator by symmetry sector, one
    ascending array per sector, the solver that ran, and the dimension of
    the largest block solved; `_block_eigs` picks the solver for every
    block.

    A request for one level per solved block (see below) with no forced
    `method`, on an operator that declares its ground sector (H;
    `_symmetries`), solves that translation sector alone, for its lowest
    level.  Otherwise the parity blocks are solved: without a mirror each
    for its lowest min(count, block dim) levels, with one only the even
    block, for min(ceil(count / 2), block dim).  Where a mirror exists the
    solved values are listed twice, once for each parity."""
    if method not in (None, "dense", "iterative"):
        raise ValueError(f"unknown ED method: {method!r}")
    if method == "dense" and op.n_sites > DENSE_MAX:
        raise ValueError("no dense realization available")
    blocks, mirror = op._op, op._op.mirror
    k = min(count if mirror is None else -(-count // 2), len(blocks.states[0]))
    if k == 1 and method is None and blocks.ground_sector is not None:
        solved = [blocks.ground_sector()[0]]
    else:
        solved = [blocks.block(p) for p in ((0,) if mirror is not None else (0, 1))]
    values = []
    for block in solved:
        vals, _, kind = _block_eigs(op.n_sites, block, k, method=method, vectors=False)
        values.append(vals)
    return values * (1 if mirror is None else 2), kind, solved[0].shape[0]


def ed_spectrum(op: ChainOperator, count: int, *,
                method: str | None = None) -> SpectrumResult:
    """Lowest `count` eigenvalues of a Hermitian chain operator held as its
    parity blocks (H or H2), merged and sorted, with degeneracy
    multiplicities clustered at 1e-8.  Levels only: eigenvectors come from
    `ground_space`.

    `_sector_eigs` picks the blocks: H's ground translation sector, about
    2^(N-1)/N states (2048 at N = 16), for one level per solved block
    (count 1, or 2 on a mirrored operator) with no `method` forced, and
    the parity blocks otherwise, the even one alone where a mirror
    exists.  `_block_eigs` picks the solver: numpy's dense eigvalsh up to
    DENSE_SECTOR_MAX states, which loads no scipy, and above it scipy's
    Lanczos for one level and ARPACK for several, all reported "dense" or
    "iterative".  `method` forces "dense" or "iterative" on the parity
    blocks; a forced "dense" above the cap runs scipy's eigh on the lowest
    levels, and a forced "iterative" still runs eigvalsh on blocks of at most
    max(2k + 1, 20) states for k levels, where ARPACK's Krylov space would
    be the whole block.
    `block_dim` is the dimension of the largest block solved.  The
    iterative solvers start from a fixed vector, so repeated runs are
    identical.
    """
    if not isinstance(op._op, _ParityBlocks):
        raise ValueError("ed_spectrum needs a Hermitian operator")
    if count < 1 or count > op.dim:
        raise ValueError("count out of range")
    values, kind, block_dim = _sector_eigs(op, count, method=method)
    vals = np.sort(np.concatenate(values))[:count]
    return SpectrumResult(vals, _cluster(vals), kind, block_dim)


@dataclass
class GroundSpace:
    """Ground doublet of the twisted chain: energy, an orthonormal basis of
    the eigenspace, its two t(0) eigenvalues, and `branch`, the first's
    eigenvector."""

    energy: float
    vectors: np.ndarray          # (dim, 2): v, t(0) v
    t0_eigenvalues: np.ndarray   # [mu, -mu], mu^2 measured on the pair
    branch: np.ndarray           # (mu v + t(0) v)/sqrt 2


def ground_space(params: ModelParams) -> GroundSpace:
    """Ground doublet with the t(0) branch resolved in closed form.

    The twisted-chain ground level is exactly doubly degenerate: t(0)
    commutes with H and flips P, so it maps the even block's lowest state
    v to the odd block's, t(0) v, and the basis is [v, t(0) v].  v is the
    lowest state of H's ground sector (`_symmetries`), solved for one
    level with its vector by `_block_eigs` (numpy's dense eigh up to
    DENSE_SECTOR_MAX states, to N = 12, with no scipy loaded; scipy's
    ARPACK above) and spread onto the even block's states; no parity
    block is built.  On [v, t(0) v], t(0) is [[0, lam^2], [1, 0]],
    lam^2 = <v|t(0) (t(0) v)> measured through the bit map; its
    eigenvalues +-mu = +-sqrt(lam^2) (+-i at even N, +-1 at odd N) have
    the members (+-mu v + t(0) v)/sqrt 2.
    """
    if params.boundary is not Boundary.ANTIPERIODIC:
        raise ValueError("ground_space resolves the twisted-chain doublet")
    blocks = build_hamiltonian(params)._op
    sector, spread = blocks.ground_sector()
    vals, vecs, _ = _block_eigs(params.N, sector, 1, method=None, vectors=True)
    even, odd = blocks.states
    V = np.zeros((params.dim, 2), dtype=vecs.dtype)
    V[even, 0] = V[blocks.mirror(even), 1] = spread(vecs[:, 0])
    mu = cmath.sqrt(complex(np.vdot(V[blocks.mirror(odd), 0], V[odd, 1])))
    # 0j - mu, not -mu: at mu = 1 the latter is -1-0j, whose log reads -pi
    return GroundSpace(energy=float(vals[0]), vectors=V,
                       t0_eigenvalues=np.array([mu, 0j - mu]),
                       branch=(mu * V[:, 0] + V[:, 1]) / math.sqrt(2.0))


def doublet_block(op: ChainOperator, vectors: np.ndarray) -> np.ndarray:
    """2x2 projection <v_i| op |v_j> of an operator onto a doublet basis."""
    cols = [op.matvec(vectors[:, j].astype(complex)) for j in range(vectors.shape[1])]
    return vectors.conj().T @ np.column_stack(cols)
