"""Operators and exact diagonalization: spectra, identities, contracts."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg as spla

import kron_oracle
from twistbethe import model
from twistbethe.common import Boundary
from twistbethe.model import (
    DEGENERACY_TOL,
    DENSE_MAX,
    DENSE_SECTOR_MAX,
    ChainOperator,
    ModelParams,
    build_h2_charge,
    build_hamiltonian,
    build_momentum_charge,
    ed_spectrum,
    ground_space,
    transfer_matrix,
)

ETA = 2.0

# closed forms for two sites: the twisted chain reduces to 2 sx.sx, the
# periodic one to 2(sx.sx + sy.sy + cosh(eta) sz.sz)
N2_ANTI_SPECTRUM = (-2.0, -2.0, 2.0, 2.0)


def n2_per_spectrum(eta):
    ch = math.cosh(eta)
    return sorted((-4.0 - 2.0 * ch, 2.0 * ch, 2.0 * ch, 4.0 - 2.0 * ch))


# ground energy at four twisted sites, frozen from an independent dense
# diagonalization cross-checked against the root-based energy
E0_N4_ANTI = -11.732113398471167


def test_two_site_spectra():
    spec = ed_spectrum(build_hamiltonian(ModelParams(2, ETA, "anti")), 4)
    assert spec.eigenvalues == pytest.approx(N2_ANTI_SPECTRUM, abs=1e-12)
    spec = ed_spectrum(build_hamiltonian(ModelParams(2, ETA, "per")), 4)
    assert spec.eigenvalues == pytest.approx(n2_per_spectrum(ETA), abs=1e-12)


def test_four_site_ground_energy():
    spec = ed_spectrum(build_hamiltonian(ModelParams(4, ETA, "anti")), 2)
    assert spec.eigenvalues[0] == pytest.approx(E0_N4_ANTI, abs=1e-12)
    assert spec.degeneracies[0] == 2  # twisted ground state is a doublet


def test_hamiltonian_is_real_symmetric():
    for boundary in ("anti", "per"):
        H = build_hamiltonian(ModelParams(5, 1.3, boundary)).dense
        assert np.max(np.abs(H - H.T)) == 0.0
        assert np.isrealobj(H)


def test_bitwise_matvec_matches_dense():
    # against the Kronecker oracle: H.dense and H.matvec share one CSR matrix
    params = ModelParams(7, ETA, "anti")
    H = build_hamiltonian(params)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(params.dim)
    dense_result = kron_oracle.hamiltonian(7, ETA, True) @ v
    assert H.matvec(v) == pytest.approx(dense_result, abs=1e-12)


def test_hamiltonian_matches_kron_oracle():
    for eta in (ETA, 0.7):
        for N in range(2, DENSE_MAX + 1):
            for boundary in ("anti", "per"):
                H = build_hamiltonian(ModelParams(N, eta, boundary)).dense
                oracle = kron_oracle.hamiltonian(N, eta, boundary == "anti")
                assert np.array_equal(H, oracle), (eta, N, boundary)


def test_h2_charge_matches_kron_oracle():
    for N in (3, 4, 5, 8):
        H2 = build_h2_charge(ModelParams(N, 1.3, "anti")).dense
        assert np.max(np.abs(H2 - kron_oracle.h2_charge(N, 1.3))) < 1e-12


def test_transfer_matrix_matches_kron_oracle():
    # the oracle keeps general inhomogeneities; the chain's are all zero
    rng = np.random.default_rng(5)
    for N in (2, 3, 6):
        theta = (0.0,) * N
        for boundary in ("anti", "per"):
            params = ModelParams(N, 1.1, boundary)
            for u in (0.0, 0.3 + 0.2j, -0.7 + 1.1j):
                oracle = kron_oracle.transfer_matrix(u, 1.1, theta, boundary == "anti")
                t = transfer_matrix(u, params)
                assert np.max(np.abs(t.dense - oracle)) < 1e-12
                v = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
                assert np.max(np.abs(t.matvec(v) - oracle @ v)) < 1e-12


def test_batched_transfer_contraction_matches_one_point_calls():
    # K points in one contraction give, bit for bit, the K one-point
    # transfer_matrix images and <v|t(u)|v>; the last point's image matches
    # the Kronecker oracle (one oracle build per batch keeps the test short)
    rng = np.random.default_rng(18)
    for N in range(2, 9):
        for boundary in ("anti", "per"):
            params = ModelParams(N, 1.1, boundary)
            v = rng.standard_normal(params.dim) + 1j * rng.standard_normal(params.dim)
            for K in (1, 5, 21):
                us = rng.uniform(-0.8, 0.8, K) + 1j * rng.uniform(-1.2, 1.2, K)
                images = model._TransferContraction(us, params).apply(v)
                lams = model.transfer_expectations(us, params, v)
                assert images.shape == (K, params.dim) and lams.shape == (K,)
                for u, image, lam in zip(us, images, lams):
                    one = transfer_matrix(u, params).matvec(v)
                    assert np.array_equal(image, one)
                    assert lam == np.vdot(v, one)
                oracle = kron_oracle.transfer_matrix(us[-1], 1.1, (0.0,) * N, boundary == "anti")
                assert np.max(np.abs(images[-1] - oracle @ v)) < 1e-12


def test_transfer_dense_is_the_one_point_contraction():
    # .dense at N = 6 is column by column the one-point matvec, bit for bit
    for boundary in ("anti", "per"):
        params = ModelParams(6, 1.1, boundary)
        t = transfer_matrix(0.3 - 0.4j, params)
        columns = [t.matvec(e) for e in np.eye(params.dim, dtype=complex)]
        assert np.array_equal(t.dense, np.column_stack(columns))
    with pytest.raises(ValueError):
        model.transfer_expectations([0.1j], params, np.ones(params.dim + 1))


def test_operators_are_int32_csr():
    # t(0) is one CSR matrix; H and H2 are two parity blocks, each CSR (the
    # odd block of these mirrored operators is built here, on demand)
    params = ModelParams(6, ETA, "anti")
    matrices = [build_momentum_charge(params)._op]
    for op in (build_hamiltonian(params), build_h2_charge(params)):
        assert len(op._op.blocks) == 2
        matrices += op._op.blocks
    for m in matrices:
        assert isinstance(m, model._Csr)
        assert m.indices.dtype == np.int32 and m.indptr.dtype == np.int32
    assert build_hamiltonian(params).dtype == np.float64


def _solved_blocks(N):
    # every block ED may solve at N: the parity blocks of H on both
    # boundaries and of the twisted H2, and H's ground sector where declared
    params = [ModelParams(N, ETA, "anti"), ModelParams(N, ETA, "per")]
    ops = [build_hamiltonian(p) for p in params]
    if N >= 3:
        ops.append(build_h2_charge(params[0]))
    for op in ops:
        yield from op._op.blocks
        if op._op.ground_sector is not None:
            yield op._op.ground_sector()[0]


@pytest.mark.parametrize("N", range(2, 17))
def test_iterative_solvers_apply_scipys_canonical_form(N):
    # A block is built with its entries in fill order, a sector block's
    # repeated.  The iterative solvers apply it through matvec, and the
    # first product puts it in the canonical form of
    # csr_matrix(entries).sum_duplicates(), byte for byte, scipy being the
    # oracle; the levels pinned below depend on that form.  The dense
    # route reads the same operator before and after.
    rng = np.random.default_rng(N)
    for block in _solved_blocks(N):
        raw = tuple(a.copy() for a in (block.data, block.indices, block.indptr))
        want = scipy.sparse.csr_matrix(raw, shape=block.shape)
        want.sum_duplicates()
        dense = block.toarray() if block.shape[0] <= DENSE_SECTOR_MAX else None
        v = rng.standard_normal(block.shape[0])
        product = ChainOperator(N, block).matvec(v)
        for name in ("data", "indices", "indptr"):
            got, expected = getattr(block, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert product.tobytes() == (want @ v).tobytes()
        if dense is not None:
            assert np.max(np.abs(block.toarray() - dense), initial=0.0) <= 1e-14


def test_ed_spectrum_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ed_spectrum(build_momentum_charge(ModelParams(4, ETA, "anti")), 2)


def test_dense_vs_iterative_ground():
    params = ModelParams(10, ETA, "anti")
    H = build_hamiltonian(params)
    dense = ed_spectrum(H, 3, method="dense")
    iterative = ed_spectrum(H, 3, method="iterative")
    assert dense.method == "dense"
    assert iterative.method == "iterative"
    assert iterative.eigenvalues == pytest.approx(dense.eigenvalues, abs=1e-8)


def _parity_signs(N):
    # P = prod sigma^z on each basis state: -1 per down spin (set bit)
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << N)) & 1)


@functools.cache
def _oracle_levels(N, twisted):
    # the oracle matrix is block diagonal in P, so its spectrum is the union
    # of its two blocks' spectra, at a quarter of the cost of the full eigvalsh
    H = kron_oracle.hamiltonian(N, ETA, twisted)
    even = _parity_signs(N) > 0
    assert not H[np.ix_(even, ~even)].any()
    return np.sort(np.concatenate([np.linalg.eigvalsh(H[np.ix_(m, m)])
                                   for m in (even, ~even)]))


@pytest.mark.parametrize("method", [None, "dense", "iterative"])
@pytest.mark.parametrize("count", [1, 2, 5, 6])
@pytest.mark.parametrize("boundary", ["anti", "per"])
@pytest.mark.parametrize("N", range(2, DENSE_MAX + 1))
def test_sector_ed_matches_kron_oracle(N, boundary, count, method):
    # N = 2..12 spans both sides of the dense/ARPACK crossover at
    # DENSE_SECTOR_MAX states per parity block (N = 9 | 10)
    count = min(count, 1 << N)
    H = build_hamiltonian(ModelParams(N, ETA, boundary))
    spec = ed_spectrum(H, count, method=method)
    oracle = _oracle_levels(N, boundary == "anti")[:count]
    assert np.max(np.abs(spec.eigenvalues - oracle)) < 1e-10
    assert spec.degeneracies == model._cluster(oracle)
    if method is None:
        assert spec.method == ("dense" if spec.block_dim <= DENSE_SECTOR_MAX else "iterative")


def _mirrored_even_minus_odd(blocks):
    # the even block carried onto the odd states by the mirror's bit map,
    # minus the odd block, entry by entry: the even state of rank e goes to
    # the odd state mirror(states[0][e]), whose rank is its index >> 1, so
    # row and column e move to that rank
    rank = blocks.mirror(blocks.states[0]) >> 1
    even, odd = blocks.blocks
    rows = np.concatenate([rank[even.rows()], odd.rows()]).astype(np.int64)
    cols = np.concatenate([rank[even.indices], odd.indices])
    keys, at = np.unique(rows * odd.shape[0] + cols, return_inverse=True)
    diff = np.zeros(len(keys), dtype=odd.dtype)
    np.add.at(diff, at, np.concatenate([even.data, -odd.data]))
    return diff


@pytest.mark.parametrize("N", range(2, DENSE_MAX + 1))
def test_parity_mirror_maps_even_block_onto_odd(N):
    # ED solves only the even block where a mirror exists; the directly
    # built odd block must be that block re-indexed
    ops = [build_hamiltonian(ModelParams(N, ETA, "anti"))]
    if N >= 3:
        ops.append(build_h2_charge(ModelParams(N, 1.3, "anti")))
    periodic = build_hamiltonian(ModelParams(N, ETA, "per"))
    if N % 2:
        ops.append(periodic)
    else:
        assert periodic._op.mirror is None
    for op in ops:
        blocks = op._op
        assert np.abs(_mirrored_even_minus_odd(blocks)).max() <= 1e-14


@pytest.mark.parametrize("N", range(2, 15))
def test_mirror_carries_the_even_member_onto_the_odd(N):
    # the odd member of the twisted ground doublet is the even one carried
    # through the mirror in its direction, bit for bit: t(0) v
    params = ModelParams(N, ETA, "anti")
    vectors = ground_space(params).vectors
    assert np.array_equal(vectors[:, 1], build_momentum_charge(params).matvec(vectors[:, 0]))


@pytest.mark.parametrize("N, boundary", [(16, "anti"), (16, "per"), (15, "per")])
def test_hamiltonian_holds_no_full_space_table(N, boundary):
    # a built H keeps its two parity state lists, 2^(N-1) int32 each, and
    # no other array that grows with 2^N: its symmetries are bit maps.
    # Counted are the array buffers numpy reports to tracemalloc; the
    # operator's Python objects (its Pauli strings, about 16 kB at N = 16,
    # more on a process's first build) are left out
    tracemalloc.start()
    try:
        H = build_hamiltonian(ModelParams(N, ETA, boundary))
        arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        retained = sum(trace.size for trace in
                       tracemalloc.take_snapshot().filter_traces([arrays]).traces)
    finally:
        tracemalloc.stop()
    assert H._op._blocks == [None, None]
    assert retained <= (1 << N) * 4 + 16 * 1024


def test_spectrum_contract():
    spec = ed_spectrum(build_hamiltonian(ModelParams(6, ETA, "anti")), 8)
    evs = np.array(spec.eigenvalues)
    assert len(evs) == 8
    assert np.all(np.diff(evs) >= -1e-12)           # ascending
    assert sum(spec.degeneracies) == 8              # clusters cover the list
    assert all(d >= 1 for d in spec.degeneracies)
    # clusters split exactly where gaps exceed the tolerance
    starts = np.cumsum(spec.degeneracies)[:-1]
    for i in starts:
        assert evs[i] - evs[i - 1] > DEGENERACY_TOL


def test_transfer_matrix_commuting_family():
    params = ModelParams(6, ETA, "anti")
    rng = np.random.default_rng(7)
    for _ in range(5):
        u, v = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        tu = transfer_matrix(complex(u), params).dense
        tv = transfer_matrix(complex(v), params).dense
        assert np.linalg.norm(tu @ tv - tv @ tu) < 1e-10


def test_transfer_matrix_derivative_gives_hamiltonian():
    for boundary in ("anti", "per"):
        params = ModelParams(5, ETA, boundary)
        h = 1e-6
        t0 = transfer_matrix(0.0, params).dense
        tp = transfer_matrix(h, params).dense
        tm = transfer_matrix(-h, params).dense
        H_fd = (2 * math.sinh(ETA) * np.linalg.solve(t0, (tp - tm) / (2 * h))
                - params.N * math.cosh(ETA) * np.eye(params.dim))
        H = build_hamiltonian(params).dense
        assert np.max(np.abs(H_fd - H)) < 1e-6


def test_shift_operator_structure():
    # t(0) for the twisted chain is a signed permutation squaring to a
    # cyclic shift; its 2N-th power is the identity
    params = ModelParams(6, ETA, "anti")
    t0 = transfer_matrix(0.0, params).dense
    assert np.max(np.abs(np.abs(t0) - (np.abs(t0) > 0.5))) < 1e-14
    assert (np.abs(t0) > 0.5).sum() == params.dim  # permutation structure
    power = np.linalg.matrix_power(t0, 2 * params.N)
    assert np.max(np.abs(power - np.eye(params.dim))) < 1e-10


def test_momentum_charge_matches_transfer_at_zero():
    params = ModelParams(6, ETA, "anti")
    t0 = transfer_matrix(0.0, params).dense
    charge = build_momentum_charge(params).dense
    assert np.max(np.abs(t0 - charge)) < 1e-12
    # past DENSE_MAX the matrix-free t(0) still applies
    params = ModelParams(DENSE_MAX + 2, ETA, "anti")
    v = np.random.default_rng(2).standard_normal(params.dim)
    assert np.max(np.abs(transfer_matrix(0.0, params).matvec(v)
                         - build_momentum_charge(params).matvec(v))) < 1e-12


def test_momentum_charge_commutes_with_hamiltonian():
    params = ModelParams(6, ETA, "anti")
    H = build_hamiltonian(params).dense
    T = build_momentum_charge(params).dense
    assert np.linalg.norm(H @ T - T @ H) < 1e-10


def test_momentum_charge_periodic_rejected():
    with pytest.raises(ValueError):
        build_momentum_charge(ModelParams(6, ETA, "per"))


def test_h2_charge_contract():
    params = ModelParams(6, ETA, "anti")
    H = build_hamiltonian(params).dense
    H2 = build_h2_charge(params).dense
    assert np.max(np.abs(H2 - H2.conj().T)) < 1e-12     # Hermitian
    assert np.linalg.norm(H @ H2 - H2 @ H) < 1e-9       # conserved
    T = build_momentum_charge(params).dense
    assert np.linalg.norm(T @ H2 - H2 @ T) < 1e-9
    with pytest.raises(ValueError):
        build_h2_charge(ModelParams(2, ETA, "anti"))
    with pytest.raises(ValueError, match="ED limit"):
        build_h2_charge(ModelParams(model.ITERATIVE_MAX + 1, ETA, "anti"))
    # past DENSE_MAX, by matvec on a unit vector
    params = ModelParams(DENSE_MAX + 2, ETA, "anti")
    H, H2 = build_hamiltonian(params), build_h2_charge(params)
    v = np.random.default_rng(4).standard_normal(params.dim)
    v /= np.linalg.norm(v)
    assert np.linalg.norm(H.matvec(H2.matvec(v)) - H2.matvec(H.matvec(v))) < 1e-10


def _assert_ground_doublet(params, gs):
    # both members are eigenvectors of H at gs.energy, one in each parity
    # sector
    H = build_hamiltonian(params)
    for v in gs.vectors.T:
        assert np.linalg.norm(H.matvec(v) - gs.energy * v) < 1e-9
    signs = _parity_signs(params.N)
    parities = sorted(np.vdot(v, signs * v).real for v in gs.vectors.T)
    assert parities == pytest.approx([-1.0, 1.0], abs=1e-12)


def _assert_branch_is_t0_eigenvector(params, gs):
    # the closed-form member against the CSR t(0) oracle
    assert abs(np.linalg.norm(gs.branch) - 1.0) <= 1e-12
    image = build_momentum_charge(params).matvec(gs.branch)
    assert np.max(np.abs(image - gs.t0_eigenvalues[0] * gs.branch)) <= 1e-12


def test_ground_space_doublet():
    # dense eigh on the ground sector, against the Kronecker oracle
    for N in range(2, DENSE_MAX + 1):
        params = ModelParams(N, ETA, "anti")
        gs = ground_space(params)
        assert abs(gs.energy - _oracle_levels(N, True)[0]) < 1e-10
        assert gs.vectors.shape == (params.dim, 2)
        overlap = gs.vectors.conj().T @ gs.vectors
        assert np.max(np.abs(overlap - np.eye(2))) < 1e-10
        _assert_ground_doublet(params, gs)
        _assert_branch_is_t0_eigenvector(params, gs)
        eigs = sorted(gs.t0_eigenvalues, key=lambda z: z.imag)
        if N % 2 == 0:
            assert eigs[0] == pytest.approx(-1j, abs=1e-9)
            assert eigs[1] == pytest.approx(+1j, abs=1e-9)
        else:
            assert sorted(abs(e.imag) for e in eigs)[0] < 1e-9
            assert {round(abs(e.real)) for e in eigs} == {1}


@pytest.mark.parametrize("N", range(13, 17))
def test_ground_space_from_sector_by_arpack(N, monkeypatch):
    # above DENSE_SECTOR_MAX sector states ARPACK gives the ground vector
    calls, eigsh = [], spla.eigsh

    def counted_eigsh(A, **kwargs):
        calls.append(A.shape[0])
        return eigsh(A, **kwargs)

    monkeypatch.setattr(spla, "eigsh", counted_eigsh)
    params = ModelParams(N, ETA, "anti")
    gs = ground_space(params)
    assert calls == [_sector_dim(N, "anti")]
    _assert_ground_doublet(params, gs)
    _assert_branch_is_t0_eigenvector(params, gs)


def test_ground_space_builds_no_parity_block(monkeypatch):
    # nor the CSR t(0), its 2x2 block or a general eigensolver: the doublet
    # is split in closed form
    def refused(what):
        def call(*args, **kwargs):
            raise AssertionError(f"{what} called")
        return call

    monkeypatch.setattr(model._ParityBlocks, "block", refused("parity block"))
    monkeypatch.setattr(model, "build_momentum_charge", refused("build_momentum_charge"))
    monkeypatch.setattr(model, "doublet_block", refused("doublet_block"))
    monkeypatch.setattr(np.linalg, "eig", refused("np.linalg.eig"))
    for N in (3, 8, 11, 14):
        gs = ground_space(ModelParams(N, ETA, "anti"))
        assert gs.vectors.shape == (1 << N, 2)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, ETA, "anti")
    with pytest.raises(ValueError):
        ModelParams(4, -1.0, "anti")
    with pytest.raises(ValueError):
        ModelParams(4, ETA, "moebius")
    with pytest.raises(ValueError):
        ModelParams(4, ETA, "twisted")   # one spelling per boundary, any case
    for eta in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ModelParams(4, eta, "anti")
    assert ModelParams(4, ETA, "Anti").boundary is Boundary.ANTIPERIODIC
    # the uniform chain: no inhomogeneities to set
    assert [f.name for f in dataclasses.fields(ModelParams)] == ["N", "eta", "boundary"]


def test_dense_threshold_respected():
    params = ModelParams(DENSE_MAX + 1, ETA, "anti")
    H = build_hamiltonian(params)
    assert H._dense is None
    spec = ed_spectrum(H, 1)
    assert spec.method == "iterative"
    with pytest.raises(ValueError):
        ed_spectrum(H, 1, method="dense")
    assert transfer_matrix(0.0, params).dense is None
    assert build_h2_charge(params).dense is None


def test_mirrored_ed_leaves_odd_block_unbuilt():
    # the twisted chain's odd block is the even one mirrored by t(0), so
    # solving H on its parity blocks builds the even block alone
    H = build_hamiltonian(ModelParams(14, ETA, "anti"))
    assert H._op._blocks == [None, None]
    spec = ed_spectrum(H, 1, method="iterative")
    assert spec.method == "iterative"
    assert H._op._blocks[0] is not None and H._op._blocks[1] is None


SECTOR_ETAS = (0.05, 0.2, 0.5, 1.0, 2.0, 3.0, 6.0)


def _ground_sector_rule(N, boundary):
    # the sector declared to hold the ground level: (parity block, symmetry
    # eigenvalue), the symmetry being t(0)^2 on the twisted chain and the
    # shift T on the periodic chain at even N
    if boundary == "anti":
        return 0, -1.0 if N % 2 == 0 else 1.0
    return (N // 2) % 2, (-1.0) ** (N // 2)


def _sector_chains(sizes):
    # the chains that declare a ground sector: twisted, and periodic at even N
    return [(N, b) for N in sizes for b in ("anti", "per") if b == "anti" or N % 2 == 0]


@functools.cache
def _sector_dim(N, boundary):
    # dimension of the sector by its character, (1/N) sum_k lam^-k times the
    # number of states of block p that g^k fixes, with g as an index map
    # built from the bits apart from the model: t(0)^-2, a left rotation by
    # two sites with the two spins wrapped round flipped, or a left rotation
    # by one site (T^-1)
    p, lam = _ground_sector_rule(N, boundary)
    i = np.arange(1 << N)
    mask = (1 << N) - 1
    if boundary == "anti":
        g = ((i << 2) & mask) | ((i >> (N - 2)) ^ 3)
    else:
        g = ((i << 1) | (i >> (N - 1))) & mask
    in_block = (np.bitwise_count(i) & 1) == p
    image, total = i, 0.0
    for k in range(N):
        total += lam ** k * np.count_nonzero(in_block & (image == i))
        image = g[image]
    return round(total / N)


@pytest.mark.parametrize("N, boundary", _sector_chains(range(2, 17)))
def test_ground_sector_matches_parity_ed(N, boundary):
    # one level without vectors goes to the ground level's translation
    # sector; the parity blocks, dense while they have at most
    # DENSE_SECTOR_MAX states and Lanczos above, give the reference
    want_dim = _sector_dim(N, boundary)
    assert want_dim < 1 << (N - 1)
    if (N, boundary) == (16, "anti"):
        assert want_dim == 2048
    parity_method = "dense" if 1 << (N - 1) <= DENSE_SECTOR_MAX else "iterative"
    for eta in SECTOR_ETAS:
        H = build_hamiltonian(ModelParams(N, eta, boundary))
        for count in (1, 2) if boundary == "anti" else (1,):
            spec = ed_spectrum(H, count)
            assert spec.block_dim == want_dim
            assert spec.method == ("dense" if want_dim <= DENSE_SECTOR_MAX else "iterative")
            assert H._op._blocks == [None, None]     # no parity block was built
            assert spec.degeneracies == [count]      # count 2: the doublet's level twice
        ref = ed_spectrum(H, 1, method=parity_method)
        assert ref.block_dim == 1 << (N - 1)
        assert abs(spec.eigenvalues[0] - ref.eigenvalues[0]) <= 1e-12 * abs(ref.eigenvalues[0])


def test_parity_route_where_no_sector_applies():
    # H2 and the periodic chain at odd N declare no sector; more levels or
    # a forced method keep H on its parity blocks
    half = 1 << 10
    for op in (build_h2_charge(ModelParams(11, ETA, "anti")),
               build_hamiltonian(ModelParams(11, ETA, "per"))):
        assert op._op.ground_sector is None
        assert ed_spectrum(op, 1).block_dim == half
    H = build_hamiltonian(ModelParams(11, ETA, "anti"))
    assert ed_spectrum(H, 3).block_dim == half
    assert ed_spectrum(H, 1, method="iterative").block_dim == half
    assert ed_spectrum(H, 1).block_dim == _sector_dim(11, "anti")


@pytest.mark.parametrize("N, boundary", _sector_chains(range(2, 9)))
def test_ground_sector_spectrum_matches_projection(N, boundary):
    # the whole sector spectrum against the Kronecker H on the range of
    # the projector onto parity block p and g = lam, g built as the
    # oracle's t(0) (twisted: squared; periodic: the shift)
    p, lam = _ground_sector_rule(N, boundary)
    twisted = boundary == "anti"
    t0 = kron_oracle.transfer_matrix(0.0, 0.7, (0.0,) * N, twisted).real
    g = t0 @ t0 if twisted else t0
    parity = np.diag((_parity_signs(N) == (-1) ** p).astype(float))
    projector, power = np.zeros_like(g), np.eye(1 << N)
    for k in range(N):
        projector += lam ** k * power / N
        power = g @ power
    projector = parity @ projector @ parity
    weights, basis = np.linalg.eigh(projector)
    basis = basis[:, weights > 0.5]
    assert np.allclose(weights, weights > 0.5, atol=1e-12)
    assert basis.shape[1] == _sector_dim(N, boundary)
    for eta in (0.7, ETA):
        H = kron_oracle.hamiltonian(N, eta, twisted)
        blocks = build_hamiltonian(ModelParams(N, eta, boundary))._op
        sector, spread = blocks.ground_sector()
        assert isinstance(sector, model._Csr) and sector.indices.dtype == np.int32
        got, vecs = np.linalg.eigh(sector.toarray())
        want = np.linalg.eigvalsh(basis.T @ H @ basis)
        assert np.max(np.abs(got - want)) < 1e-12
        # spread sector vectors are orthonormal eigenvectors of H in the
        # projector's range, on the states of block p
        full = np.zeros((1 << N, len(got)))
        full[blocks.states[p]] = np.column_stack([spread(x) for x in vecs.T])
        assert np.max(np.abs(full.T @ full - np.eye(len(got)))) < 1e-12
        assert np.max(np.abs(projector @ full - full)) < 1e-12
        assert np.max(np.abs(H @ full - full * got)) < 1e-11


def _single_level_operators(N, eta):
    # H on both boundaries (real blocks) and the twisted H2 (complex blocks)
    return [build_hamiltonian(ModelParams(N, eta, "anti")),
            build_hamiltonian(ModelParams(N, eta, "per")),
            build_h2_charge(ModelParams(N, eta, "anti"))]


@pytest.mark.parametrize("N, eta", [(N, eta) for N in (10, 11) for eta in (0.5, 2.0, 3.0)]
                         + [(12, 3.0)])
def test_single_level_lanczos_matches_dense(N, eta):
    # one level without vectors takes the Lanczos branch above
    # DENSE_SECTOR_MAX states per parity block; method="iterative" keeps H
    # off its translation sector.  At N = 12 a dense H2 block takes 3 s, so
    # N = 12 checks H at eta = 3, where near-degenerate pairs make Lanczos
    # work hardest.
    ops = _single_level_operators(N, eta)
    for op in ops[:2] if N == 12 else ops:
        spec = ed_spectrum(op, 1, method="iterative")
        assert spec.method == "iterative"
        dense = ed_spectrum(op, 1, method="dense").eigenvalues[0]
        assert abs(spec.eigenvalues[0] - dense) < 1e-12


def _arpack_ground(op, seed):
    # the lowest level by a direct eigsh(k=1) on each block ED solves, from
    # a start vector of its own, not the one ed_spectrum fixes
    blocks = op._op
    lows = []
    for p in (0,) if blocks.mirror is not None else (0, 1):
        block = ChainOperator(op.n_sites, blocks.block(p))
        v0 = np.random.default_rng(seed).standard_normal(block.dim)
        lows.append(spla.eigsh(block.as_scipy(), k=1, which="SA", v0=v0)[0][0])
    return min(lows)


@pytest.mark.parametrize("eta", [0.5, 2.0, 3.0])
@pytest.mark.parametrize("N", [13, 14, 15, 16])
def test_single_level_lanczos_matches_arpack(N, eta):
    ops = _single_level_operators(N, eta)
    if N > 14:
        ops = ops[:2]   # H2 at N = 13, 14 covers the complex blocks
    for op in ops:
        got = ed_spectrum(op, 1).eigenvalues[0]
        assert abs(got - _arpack_ground(op, N)) < 1e-12


class _ArpackCalled(Exception):
    pass


def test_arpack_kept_for_several_levels_or_vectors(monkeypatch):
    def no_arpack(*args, **kwargs):
        raise _ArpackCalled

    monkeypatch.setattr(spla, "eigsh", no_arpack)
    for boundary in ("anti", "per"):
        H = build_hamiltonian(ModelParams(12, ETA, boundary))
        assert ed_spectrum(H, 1, method="iterative").method == "iterative"
        with pytest.raises(_ArpackCalled):
            ed_spectrum(H, 3)


def test_lanczos_step_cap_raises_with_payload(monkeypatch):
    monkeypatch.setattr(model, "LANCZOS_MAX_STEPS", 2)
    H = build_hamiltonian(ModelParams(12, ETA, "anti"))
    with pytest.raises(model.LanczosNoConvergence, match="in 2 steps") as err:
        ed_spectrum(H, 1, method="iterative")
    assert err.value.steps == 2
    assert math.isfinite(err.value.value)
    assert err.value.estimate > model.LANCZOS_TOL * abs(err.value.value)


@pytest.mark.parametrize("op, count", [
    (build_hamiltonian(ModelParams(4, 2.0, "per")), 5),
    (build_hamiltonian(ModelParams(4, 2.0, "per")), 6),
    (build_h2_charge(ModelParams(4, 1.3, "anti")), 5),
])
def test_forced_iterative_on_tiny_blocks_is_reproducible(op, count):
    # ARPACK's Krylov space would be the whole 8-state block, and it
    # restarts from its own persistent generator: such blocks go to eigh,
    # so the zero levels repeat bit for bit
    first = ed_spectrum(op, count, method="iterative")
    assert first.method == "dense"
    for _ in range(10):
        spec = ed_spectrum(op, count, method="iterative")
        assert np.array_equal(spec.eigenvalues, first.eigenvalues)


# the lowest levels of both iterative routes at eta = 2, as float.hex:
# ARPACK (6 levels, the 512-state even block) and Lanczos (one level, the
# 586-state N = 14 ground sector)
_PINNED_ITERATIVE = [
    ((10, 6, 512), ["-0x1.22b10f163c783p+5", "-0x1.22b10f163c783p+5", "-0x1.18d097cdfe84ap+5",
               "-0x1.18d097cdfe84ap+5", "-0x1.18d097cdfe839p+5", "-0x1.18d097cdfe839p+5"]),
    ((14, 1, 586), ["-0x1.a3a28324b7bc5p+5"]),
]


@pytest.mark.parametrize("N, count, block_dim, want",
                         [(*case, want) for case, want in _PINNED_ITERATIVE])
def test_iterative_ed_repeats_pinned_levels(N, count, block_dim, want):
    # no seed reaches ED: iterative levels repeat bit for bit, call to call
    H = build_hamiltonian(ModelParams(N, ETA, "anti"))
    first, again = ed_spectrum(H, count), ed_spectrum(H, count)
    assert (first.method, first.block_dim) == ("iterative", block_dim)
    assert [float(v).hex() for v in first.eigenvalues] == want
    assert np.array_equal(again.eigenvalues, first.eigenvalues)


def test_ground_space_repeats_bit_for_bit():
    params = ModelParams(14, ETA, "anti")
    first, again = ground_space(params), ground_space(params)
    assert first.energy == again.energy
    assert np.array_equal(first.branch, again.branch)
