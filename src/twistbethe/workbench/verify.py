"""Self checks: one function per checked claim, run by ``verify`` at two
levels; the acceptance suite (``tests/test_acceptance.py``) is one run of
the ``full`` level.

Each ``check_*`` function takes the sizes it samples (N lists, eta lists)
and returns a `Measured`: the worst deviation under each label, judged
against that label's bound, a constant beside the check.  `CHECKS` is the
one table of the sizes each check runs at: ``verify`` runs its ``fast``
(N <= 8 for most checks, N <= 12 for the band-edge and ED-asymptote ones)
or ``full`` (larger N, to 20 for the band-edge check; reduced roots at
N ~ 200, and at eta = 0.5 at N = 74185) arguments and reports one line
per check.  Ground energies come from ED in the ground
level's translation sector (dense eigh to N = 12, Lanczos above), ground
doublets from the same sector (dense eigh to N = 12, ARPACK above).  The
CLI maps any failure to a nonzero exit code.  Checks reach the program
through its module attributes at call time, so a perturbed function is
picked up rather than a stale reference.
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import baes, model, scaling, thermo
from ..common import Boundary, Parity, has_hole
from .config import ExperimentConfig
from .emit import emit, parse_csv
from .runner import flatten_record, run

__all__ = ["CheckResult", "Measured", "VerifyReport", "coerce_level", "verify"]

_ETA = 2.0
_ANTI, _PER = Boundary.ANTIPERIODIC, Boundary.PERIODIC


def _ed_ground(params) -> float:
    return model.ed_spectrum(model.build_hamiltonian(params), 1).eigenvalues[0]


def _within(dev: float, bound: float) -> bool:
    return dev < bound if bound else dev == 0


class Measured:
    """Worst deviation per label, and where it was seen, each judged against
    the label's bound.

    A bound of 0 asks for exactly zero (an exact value, a count of broken
    conditions, a distance outside a band); any other bound is strict.
    NaN never passes.  ``notes`` carry measured values that have no bound.
    """

    def __init__(self, bounds: dict):
        self.bounds = bounds
        self.worst: dict = {}   # label -> (deviation, where)
        self.notes: list = []

    def add(self, label: str, value, at: str = "") -> None:
        old = self.worst.get(label, (-math.inf,))[0]
        if value > old or value != value:   # a NaN, once seen, stays
            self.worst[label] = (float(value), at)

    @property
    def ok(self) -> bool:
        return all(_within(dev, self.bounds[label]) for label, (dev, _) in self.worst.items())

    def summary(self) -> str:
        parts = []
        for label, (dev, at) in self.worst.items():
            bound = self.bounds[label]
            text = f"{label} {dev:.1e}" if bound else f"{label} {dev:g}"
            if not _within(dev, bound):
                text += f"{' at ' + at if at else ''} over bound {bound:g}"
            parts.append(text)
        return ", ".join(parts + self.notes)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{mark}  {self.name} ({self.elapsed:.2f}s): {self.detail}"


@dataclass
class VerifyReport:
    level: str
    checks: list
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = [c.line() for c in self.checks]
        n_fail = sum(not c.ok for c in self.checks)
        lines.append(
            f"{'OK' if n_fail == 0 else 'FAILED'}: "
            f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed "
            f"({self.elapsed:.1f}s, level={self.level})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# checks


# E_b/cosh(eta) and gap/cosh(eta) as tabulated in the paper
PAPER_TABLE = {2.0: (1.02746, 2.05492), 3.0: (1.61356, 3.22712)}
ISOTROPIC_ETA = 1e-3
THERMO_BOUNDS = {
    "band-edge identities": 1e-13,
    "even-parity gap": 0,
    "boundary energy vs table": 1e-5,
    "gap vs table": 1e-5,
    "isotropic e0": 2e-3,
    "hole energy not falling": 0,
    "band-edge hole at last eta": 1e-3,
    "density contraction vs table": 1e-10,
}


def check_thermo_series(etas=(), boundary_etas=(), gap_etas=(),
                        isotropic_etas=()) -> Measured:
    """The thermodynamic series' identities and the paper's numbers.

    etas: the band-edge hole energy equals the twisted boundary energy and
    half the odd-parity gap, the even-parity gap is exactly 0, and the
    density modes contracted with the kernel (`energy_via_density`, the
    hole at the band edge) give the band-edge table at N = 40 and 41 on
    both boundaries.
    boundary_etas, gap_etas: E_b/cosh(eta) and gap/cosh(eta) against
    PAPER_TABLE.  isotropic_etas, a run of eta falling toward the isotropic
    point: the band-edge hole energy falls along it and vanishes at its
    last entry, and e0/cosh(eta) at ISOTROPIC_ETA meets 1 - 4 ln 2."""
    m = Measured(THERMO_BOUNDS)
    for eta in etas:
        e_edge = thermo.hole_energy(math.pi / eta, eta)
        e_b = thermo.twisted_boundary_energy(eta, Parity.EVEN)
        gap = thermo.excitation_gap_tl(eta, Parity.ODD)
        m.add("band-edge identities", abs(e_b - e_edge), f"eta={eta}")
        m.add("band-edge identities", abs(gap - 2 * e_edge), f"eta={eta}")
        m.add("even-parity gap", abs(thermo.excitation_gap_tl(eta, Parity.EVEN)),
              f"eta={eta}")
        for N in (40, 41):
            for boundary in (_ANTI, _PER):
                x0 = math.pi / eta if has_hole(N, boundary) else None
                dev = abs(thermo.energy_via_density(N, eta, boundary, x0=x0)
                          - thermo.ground_energy_tl(N, eta, boundary))
                m.add("density contraction vs table", dev,
                      f"N={N} {boundary.value} eta={eta}")
    for eta in boundary_etas:
        r = thermo.twisted_boundary_energy(eta, Parity.EVEN) / math.cosh(eta)
        m.add("boundary energy vs table", abs(r - PAPER_TABLE[eta][0]), f"eta={eta}")
        m.notes.append(f"E_b/cosh = {r:.6f} at eta={eta}")
    for eta in gap_etas:
        r = thermo.excitation_gap_tl(eta, Parity.ODD) / math.cosh(eta)
        m.add("gap vs table", abs(r - PAPER_TABLE[eta][1]), f"eta={eta}")
        m.notes.append(f"gap/cosh = {r:.6f} at eta={eta}")
    if isotropic_etas:
        e0 = thermo.e0_density(ISOTROPIC_ETA) / math.cosh(ISOTROPIC_ETA)
        m.add("isotropic e0", abs(e0 - (1.0 - 4.0 * math.log(2.0))), f"eta={ISOTROPIC_ETA}")
        edge = [thermo.hole_energy(math.pi / eta, eta) for eta in isotropic_etas]
        for eta, a, b in zip(isotropic_etas[1:], edge, edge[1:]):
            m.add("hole energy not falling", not a > b, f"eta={eta}")
        m.add("band-edge hole at last eta", abs(edge[-1]), f"eta={isotropic_etas[-1]}")
    return m


PARITY_REVERSAL_BOUNDS = {"(anti - per) vs +-E_b": 1e-13}


def check_parity_reversal(etas, sizes) -> Measured:
    """The series' (anti - per) ground-energy difference is +E_b at even N
    and -E_b at odd N."""
    m = Measured(PARITY_REVERSAL_BOUNDS)
    for eta in etas:
        e_b = thermo.twisted_boundary_energy(eta, Parity.EVEN)
        for N in sizes:
            diff = (thermo.ground_energy_tl(N, eta, _ANTI)
                    - thermo.ground_energy_tl(N, eta, _PER))
            expected = e_b if N % 2 == 0 else -e_b
            m.add("(anti - per) vs +-E_b", abs(diff - expected), f"N={N}, eta={eta}")
    return m


OPERATOR_BOUNDS = {"commutator": 1e-10, "derivative identity": 1e-6, "shift power": 1e-10}


def check_operator_identities(N: int, n_pairs: int) -> Measured:
    """On both boundaries at eta = 2: [t(u), t(v)] = 0 for n_pairs random
    complex pairs (real and imaginary parts in (-1, 1)), H = 2 sinh(eta)
    d/du log t(u) at u = 0 minus N cosh(eta) (central difference), and
    t(0)^(2N) = 1."""
    rng = np.random.default_rng(3)
    m = Measured(OPERATOR_BOUNDS)
    h = 1e-6
    for boundary in (_ANTI, _PER):
        params = model.ModelParams(N, _ETA, boundary)
        pairs = rng.uniform(-1, 1, (n_pairs, 2)) + 1j * rng.uniform(-1, 1, (n_pairs, 2))
        for u, v in pairs:
            tu = model.transfer_matrix(complex(u), params).dense
            tv = model.transfer_matrix(complex(v), params).dense
            m.add("commutator", np.linalg.norm(tu @ tv - tv @ tu), boundary.value)

        t0 = model.transfer_matrix(0.0, params).dense
        tp = model.transfer_matrix(h, params).dense
        tm = model.transfer_matrix(-h, params).dense
        dlog = np.linalg.solve(t0, (tp - tm) / (2 * h))
        H_fd = 2 * math.sinh(_ETA) * dlog - N * math.cosh(_ETA) * np.eye(params.dim)
        H = model.build_hamiltonian(params).dense
        m.add("derivative identity", np.max(np.abs(H_fd - H)), boundary.value)

        power = np.linalg.matrix_power(t0, 2 * N)
        m.add("shift power", np.max(np.abs(power - np.eye(params.dim))), boundary.value)
    return m


HOM_VS_ED_BOUNDS = {"energy": 1e-9}


def check_hom_vs_ed(sizes) -> Measured:
    """Periodic-chain reduced-root ground energies against ED at eta = 2."""
    m = Measured(HOM_VS_ED_BOUNDS)
    for N in sizes:
        roots = baes.solve_log_baes(_ETA, N, baes.ground_quantum_numbers(N, _PER))
        ed = _ed_ground(model.ModelParams(N, _ETA, _PER))
        m.add("energy", abs(baes.energy_hom(roots) - ed), f"N={N}")
    return m


INHOM_VS_ED_BOUNDS = {"energy": 1e-8, "eigenvalue": 1e-8}
INHOM_POINTS = 5   # spectral points u per N for the eigenvalue reconstruction


def check_inhom_vs_ed(sizes) -> Measured:
    """Twisted chain at eta = 2: the inhomogeneous T-Q roots' energy against
    ED, and their eigenvalue Lambda(u) against <v|t(u)|v> on the ground
    doublet's branch vector (relative) at INHOM_POINTS random complex u."""
    rng = np.random.default_rng(7)
    m = Measured(INHOM_VS_ED_BOUNDS)
    for N in sizes:
        params = model.ModelParams(N, _ETA, _ANTI)
        roots = baes.solve_inhom_baes(params)
        m.add("energy", abs(baes.energy_inhom(roots, params) - _ed_ground(params)), f"N={N}")
        v = model.ground_space(params).branch
        us = (rng.uniform(-0.7, 0.7, INHOM_POINTS)
              + 1j * rng.uniform(-0.5, 0.5, INHOM_POINTS))
        for u, lam_ed in zip(us, model.transfer_expectations(us, params, v)):
            lam_tq = baes.tq_eigenvalue(complex(u), roots)
            m.add("eigenvalue", abs(lam_ed - lam_tq) / max(abs(lam_ed), 1e-30), f"N={N}")
    return m


EINH_EXPONENT_BAND = (-2.4, -1.2)
EINH_BOUNDS = {"wrong sign": 0, "not decaying": 0, "even exponent outside band": 0}


def check_einh_signs(evens, odds) -> Measured:
    """E_inh = E_reduced - E_ED on the twisted chain at eta = 2: positive at
    even N, negative at odd N, |E_inh| strictly falling along each list.
    With at least 3 even sizes, the power-law exponent fitted to the even
    values lies in EINH_EXPONENT_BAND."""
    m = Measured(EINH_BOUNDS)
    values = {}
    for sizes, sign in ((evens, 1.0), (odds, -1.0)):
        prev = math.inf
        for N in sizes:
            e = values[N] = baes.inhom_contribution(N, _ETA, "Energy")
            m.add("wrong sign", not sign * e > 0, f"N={N}")
            m.add("not decaying", not abs(e) < prev, f"N={N}")
            prev = abs(e)
    if len(evens) >= 3:
        fit = scaling.fit("power", [scaling.Sample(N, values[N]) for N in evens])
        lo, hi = EINH_EXPONENT_BAND
        m.add("even exponent outside band", np.max([0.0, lo - fit.b, fit.b - hi]))
        m.notes.append(f"even exponent {fit.b:.3f} (band [{lo}, {hi}])")
    return m


CHARGE_BOUNDS = {"momentum": 1e-9, "H2 expectation": 1e-8, "odd-N reduced charges": 0}


def check_charges(evens, odds) -> Measured:
    """Twisted-chain ground doublet at eta = 2: its t(0) phases are exactly
    +-pi/2 at even N and {0, pi} at odd N, and <H2> vanishes on both
    members; the reduced momentum and H2 corrections, computed from the
    symmetric reduced roots of each odd N, are exactly 0."""
    m = Measured(CHARGE_BOUNDS)
    for N in sorted([*evens, *odds]):
        params = model.ModelParams(N, _ETA, _ANTI)
        gs = model.ground_space(params)
        lo, hi = sorted(np.log(np.asarray(gs.t0_eigenvalues, dtype=complex)).imag)
        want_lo, want_hi = (-math.pi / 2, math.pi / 2) if N % 2 == 0 else (0.0, math.pi)
        m.add("momentum", max(abs(lo - want_lo), abs(hi - want_hi)), f"N={N}")
        H2 = model.build_h2_charge(params)
        for v in gs.vectors.T:
            m.add("H2 expectation", abs(np.vdot(v, H2.matvec(v))), f"N={N}")
    for N in odds:
        for observable in ("Momentum", "ChargeH2"):
            m.add("odd-N reduced charges",
                  abs(baes.inhom_contribution(N, _ETA, observable)), f"N={N} {observable}")
    return m


# (kind, a, b, c): y = a N^b + c or a exp(b N) + c, c None without offset
SYNTHETIC_LAWS = (("power", 3.7, -1.8, None), ("exp", 4.2, -0.33, None),
                  ("power-offset", 1.028, -0.3787, 1.027),
                  ("exp-offset", -0.7, -0.52, 2.05492),
                  ("exp-offset", 1.028, -0.3787, 1.027))
# series E_b/cosh(eta), the N -> infinity limit of ED's (anti - per)/cosh(eta)
BOUNDARY_ENERGY_SERIES = {2.0: 1.0274615190603028, 3.0: 1.6135586287295252}
SCALING_BOUNDS = {"power": 1e-8, "exp": 1e-6, "power-offset": 1e-6,
                  "exp-offset": 1e-6, "ED asymptote": 2e-2}


def check_scaling_recovery(size_lists, ed_etas=(), ed_sizes=()) -> Measured:
    """Each synthetic law, fitted on each list of sizes, returns its
    parameters and, with an offset, its asymptote.  For each eta in
    ed_etas, the windowed exp-offset fit of ED's (E_anti - E_per)/cosh(eta)
    over ed_sizes extrapolates to BOUNDARY_ENERGY_SERIES."""
    m = Measured(SCALING_BOUNDS)
    for sizes in size_lists:
        for kind, a, b, c in SYNTHETIC_LAWS:
            ys = [a * (N ** b if kind.startswith("power") else math.exp(b * N)) + (c or 0.0)
                  for N in sizes]
            f = scaling.fit(kind, [scaling.Sample(N, y) for N, y in zip(sizes, ys)])
            devs = [abs(f.a - a), abs(f.b - b)]
            if c is not None:
                devs += [abs(f.c - c), abs(scaling.extrapolate(f) - c)]
            m.add(kind, np.max(devs), f"N={sizes[0]}..{sizes[-1]}")
    for eta in ed_etas:
        samples = []
        for N in ed_sizes:
            e_anti, e_per = (_ed_ground(model.ModelParams(N, eta, b)) for b in (_ANTI, _PER))
            samples.append(scaling.Sample(N, (e_anti - e_per) / math.cosh(eta)))
        f, _used = scaling.fit_with_window("exp-offset", samples)
        m.add("ED asymptote", abs(scaling.extrapolate(f) - BOUNDARY_ENERGY_SERIES[eta]),
              f"eta={eta}")
    return m


ROUNDTRIP_BOUNDS = {"failed points": 0, "rerun differs": 0, "CSV mismatches": 0,
                    "JSON differs": 0}


def check_workbench_roundtrip(etas) -> Measured:
    """A Thermo sweep reruns byte-identically from its cache, and its CSV and
    JSON files parse back to the records."""
    m = Measured(ROUNDTRIP_BOUNDS)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(experiment="Thermo", eta=list(etas), output_dir=tmp)
        records = run(cfg)
        m.add("failed points", sum(r.status != "ok" for r in records))
        first = emit(records, "CSV", tmp)[0].read_bytes()
        m.add("rerun differs", first != emit(run(cfg), "CSV", tmp)[0].read_bytes())
        rows = parse_csv(Path(tmp) / "thermo.csv")
        m.add("CSV mismatches", sum(row[key] != val
                                    for row, rec in zip(rows, records)
                                    for key, val in flatten_record(rec).items()))
        parsed = json.loads(emit(records, "JSON", tmp)[0].read_text(encoding="utf-8"))
        m.add("JSON differs", [r.to_dict() for r in records] != parsed)
    return m


# C(eta) in |E_ED - E_tl| <= C sinh(eta) e^{-c N}; the largest measured
# |E_ED - E_tl| / (sinh(eta) e^{-c N}) is 0.306 at eta = 2 and 0.311 at
# eta = 3, both at N = 8, and falls with N
BAND_EDGE_C = {2.0: 0.35, 3.0: 0.35}
EXACT_VS_BAND_EDGE_BOUNDS = {"|E_ED - E_tl| / (C sinh e^-cN)": 1.0,
                             "ratio not rising": 0, "ratio not below e^-2c": 0}


def check_exact_vs_band_edge(etas, sizes) -> Measured:
    """Twisted chain at even N (in `sizes`, ascending, step 2): the exact
    ground energy E_ED sits at the band-edge table E_tl =
    `ground_energy_tl` up to C sinh(eta) e^{-c N}, with c =
    `thermo._slot_sum_decay_rate(eta)` and C = BAND_EDGE_C[eta], and the
    ratios of successive differences rise monotonically toward e^{-2c}
    (0.433 -> 0.475 against 0.504 at eta = 2, N = 8..20; 0.172 -> 0.186
    against 0.197 at eta = 3)."""
    m = Measured(EXACT_VS_BAND_EDGE_BOUNDS)
    for eta in etas:
        c = thermo._slot_sum_decay_rate(eta)
        envelope = BAND_EDGE_C[eta] * math.sinh(eta)
        diffs = []
        for N in sizes:
            e_ed = _ed_ground(model.ModelParams(N, eta, _ANTI))
            diffs.append(e_ed - thermo.ground_energy_tl(N, eta, _ANTI))
            m.add("|E_ED - E_tl| / (C sinh e^-cN)",
                  abs(diffs[-1]) / (envelope * math.exp(-c * N)), f"N={N} eta={eta}")
        ratios = [b / a for a, b in zip(diffs, diffs[1:])]
        for N, a, b in zip(sizes[2:], ratios, ratios[1:]):
            m.add("ratio not rising", not b > a, f"N={N} eta={eta}")
        for N, r in zip(sizes[1:], ratios):
            m.add("ratio not below e^-2c", not r < math.exp(-2 * c), f"N={N} eta={eta}")
        if ratios:
            m.notes.append(f"ratio {ratios[0]:.3f} -> {ratios[-1]:.3f}, "
                           f"e^-2c {math.exp(-2 * c):.3f} at eta={eta}")
    return m


LARGE_N_BOUNDS = {"table + hole term": 1e-5,
                  "table + hole term / sinh(eta), smallest admitted N": 1e-8}


def check_large_n_consistency(sizes, etas=()) -> Measured:
    """Reduced-root ground energies of all four ground states against the
    band-edge table plus the analytic hole-quantization term, which is
    zero for the hole-free ground states: those test N*e0 alone.

    At eta = 2 the sizes are `sizes`, held to criterion 6's 1e-5.  At each
    eta of `etas` they are the smallest N that the hole term admits
    (`thermo._hole_term_min_n`) and N + 1, where the term's own remainder,
    of order sinh(eta) e^{-cN}, is below e^-16 by its range rule; the
    deviation is taken per sinh(eta), the energy scale, so that float
    rounding of energies of size N cosh(eta) stays below the bound up to
    eta = 20."""
    m = Measured(LARGE_N_BOUNDS)
    points = [(_ETA, N, "table + hole term", 1.0) for N in sizes]
    for eta in etas:
        N0 = thermo._hole_term_min_n(eta)
        points += [(eta, N, "table + hole term / sinh(eta), smallest admitted N",
                    math.sinh(eta)) for N in (N0, N0 + 1)]
    for eta, N, label, scale in points:
        for boundary in (_ANTI, _PER):
            roots = baes.solve_log_baes(eta, N, baes.ground_quantum_numbers(N, boundary))
            expected = (thermo.ground_energy_tl(N, eta, boundary)
                        + thermo.hole_quantization_energy(N, eta, boundary))
            m.add(label, abs(baes.energy_hom(roots) - expected) / scale,
                  f"N={N} eta={eta} {boundary.value}")
    return m


# the identities, and criteria 1-3: the paper's table, the isotropic limit
_THERMO_ARGS = ((1.0, 2.0, 3.0), (2.0, 3.0), (2.0, 3.0), (0.6, 0.45, 0.3, 0.2, 0.05))
# the synthetic laws, and criterion 10's ED asymptote at eta = 2 and 3
_SCALING_ARGS = ((range(4, 20, 2), range(8, 41, 2), range(4, 41, 2)), (2.0, 3.0),
                 (4, 6, 8, 10, 12))
# name: (check, its arguments at level fast, at level full; None: not run)
CHECKS = {
    "thermo-series-identities": (check_thermo_series, _THERMO_ARGS, _THERMO_ARGS),
    "parity-reversal": (check_parity_reversal, ((1.5, 2.0), (100, 101)),
                        ((1.5, 2.0), (100, 101))),
    "operator-identities": (check_operator_identities, (6, 3), (6, 20)),
    "hom-roots-vs-ed": (check_hom_vs_ed, (range(4, 9),), (range(4, 13),)),
    "inhom-roots-vs-ed": (check_inhom_vs_ed, ((4, 6),), ((4, 6, 8, 10),)),
    "inhom-energy-signs": (check_einh_signs, ((8,), (7,)),
                           ((8, 10, 12, 14, 16, 18), (7, 9, 11, 13, 15, 17))),
    "conserved-charges": (check_charges, (range(4, 9, 2), range(5, 8, 2)),
                          (range(4, 17, 2), range(5, 16, 2))),
    "scaling-fit-recovery": (check_scaling_recovery, _SCALING_ARGS, _SCALING_ARGS),
    "workbench-roundtrip": (check_workbench_roundtrip, ((2.0, 3.0),), ((2.0, 3.0),)),
    "large-n-bae-consistency": (check_large_n_consistency, None,
                                ((200, 201), (0.5, 0.8, 1.0, 3.0, 6.0, 20.0))),
    "exact-vs-band-edge": (check_exact_vs_band_edge, ((2.0, 3.0), range(8, 13, 2)),
                           ((2.0, 3.0), range(8, 21, 2))),
}
LEVELS = ("fast", "full")


def coerce_level(level) -> str:
    """A verify level, fast or full, in any letter case."""
    key = str(level).strip().lower()
    if key not in LEVELS:
        raise ValueError(f"unknown verify level: {level!r}; use fast or full")
    return key


def verify(level: str = "fast") -> VerifyReport:
    """Run the named level's checks, each timed and reported on one line."""
    key = coerce_level(level)
    results = []
    t_start = time.perf_counter()
    for name, (check, *level_args) in CHECKS.items():
        args = level_args[LEVELS.index(key)]
        if args is None:
            continue
        t0 = time.perf_counter()
        try:
            measured = check(*args)
            ok, detail = measured.ok, measured.summary()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - t0))
    return VerifyReport(key, results, time.perf_counter() - t_start)
