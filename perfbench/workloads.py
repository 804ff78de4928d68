"""The benchmark's three workloads.

Each workload is a class whose `round()` makes one whole round of the
same operations and returns a `Round`: the time of the calls into the
program, the operations attempted and failed, and their outputs.  Only
calls into `twistbethe` are timed.  `check()` then compares the outputs
against `reference` (no `twistbethe` import) or against a property the
method must have, outside the timed calls and outside any trace.  Grids
are constructor arguments so that `selftest` can run the same code on
smaller ones.

The program's functions are always looked up through their modules at
call time, so that the tracer can wrap them there.  Import this module
only once `twistbethe` is importable from the tree under test.
"""

from __future__ import annotations

import csv
import importlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from twistbethe import baes, model, scaling, thermo
from twistbethe.workbench import config, runner

import reference

# the workbench package re-exports the function `emit` under the module's name
emit = importlib.import_module("twistbethe.workbench.emit")

ETA_ED = 2.0
WINDOWED_ETA = 1.0   # large_n_extrap fits this eta with fit_with_window


@dataclass
class Round:
    """Timed calls and operation counts of one round."""

    wall_s: float = 0.0
    largest_point_s: float = 0.0
    failing_s: float = 0.0
    warm_rerun_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def timed(self, fn, *args, **kwargs):
        """Call into the program; its time counts towards wall_s.  Returns
        (result, seconds).  Times are the process's CPU time: the program
        runs on one thread, and the hypervisor of a shared host steals a
        varying share of the wall-clock time that this leaves out."""
        t0 = time.process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.process_time() - t0
            self.wall_s += dt
        return result, dt

    def attempt(self, label, fn, *args, expected_to_fail=False, **kwargs):
        """One operation; returns (result or None if it raised, seconds).
        An operation kept because it is expected to fail makes no output:
        its time goes to failing_s instead of wall_s, so that mending it
        moves no metric."""
        self.attempted += 1
        before = self.wall_s
        try:
            return self.timed(fn, *args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, self.wall_s - before
        finally:
            if expected_to_fail:
                self.failing_s += self.wall_s - before
                self.wall_s = before

    def check(self, ok, message) -> None:
        if not ok:
            self.problems.append(message)


class EdScan:
    """`EinhScan`, `BoundaryEnergyScan` and `EdSpectrum` sweeps at eta = 2
    through `workbench.runner.run` and `emit`, then a rerun from the warm
    cache.  Each round uses its own ARPACK seed, drawn from the run seed,
    and a fresh cache directory."""

    name = "ed_scan"

    def __init__(self, seed: int, workdir: Path, *,
                 einh_n=(8, 9, 10, 11, 13, 14, 15), einh_top=16,
                 boundary_n=(8, 9, 10, 11, 13, 14), spectrum_n=tuple(range(4, 11))):
        self.seed = seed
        self.workdir = Path(workdir)
        self.einh_n, self.einh_top = tuple(einh_n), einh_top
        self.boundary_n, self.spectrum_n = tuple(boundary_n), tuple(spectrum_n)
        self._levels = {}

    def warm_up(self) -> None:
        tiny = EdScan(self.seed, self.workdir, einh_n=(4,), einh_top=5,
                      boundary_n=(4,), spectrum_n=(4,))
        tiny.check(tiny.round(-1))

    def _sweeps(self, out, arpack_seed):
        def cfg(experiment, n_list, boundary="antiperiodic"):
            return config.ExperimentConfig(experiment, eta=ETA_ED, N_list=n_list,
                                           boundary=boundary, output_dir=str(out),
                                           seed=arpack_seed)
        return {"einh": cfg("EinhScan", self.einh_n),
                "einh_top": cfg("EinhScan", (self.einh_top,)),
                "boundary": cfg("BoundaryEnergyScan", self.boundary_n),
                "spectrum": cfg("EdSpectrum", self.spectrum_n)}

    def round(self, index: int) -> Round:
        rnd = Round()
        arpack_seed = self.seed * 1000 + index + 1   # the warm-up is round -1
        out = self.workdir / f"ed_scan-round{index}"
        shutil.rmtree(out, ignore_errors=True)
        sweeps = self._sweeps(out, arpack_seed)
        records = {}
        for key, cfg in sweeps.items():
            records[key], dt = rnd.timed(runner.run, cfg)
            if key == "einh_top":
                rnd.largest_point_s = dt
        tables = {"einhscan": (records["einh"] + records["einh_top"], "e_inh"),
                  "boundaryenergyscan": (records["boundary"], "e_b_over_cosh"),
                  "edspectrum": (records["spectrum"], "e0")}
        for base, (recs, y_field) in tables.items():
            for fmt in ("csv", "json", "svg"):
                rnd.timed(emit.emit, recs, fmt, out, base, y_field=y_field)
        warm = {}
        for key, cfg in sweeps.items():
            warm[key], dt = rnd.timed(runner.run, cfg)
            rnd.warm_rerun_s += dt
        for recs in list(records.values()) + list(warm.values()):
            rnd.attempted += len(recs)
            bad = [r for r in recs if r.status != "ok"]
            rnd.failed += len(bad)
            rnd.failures += [f"{r.experiment} {r.params}: {r.error}" for r in bad]
        rnd.outputs = [records, warm, out]
        return rnd

    def check(self, rnd: Round) -> None:
        """Check a round's outputs, then remove its cache and emitted files."""
        records, warm, out = rnd.outputs
        try:
            self._check(rnd, records, warm, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _level(self, N, antiperiodic):
        key = (N, antiperiodic)
        if key not in self._levels:
            self._levels[key] = reference.lowest_levels(N, ETA_ED, antiperiodic, 2)[0]
        return self._levels[key]

    def _reduced_energy(self, N, boundary, rnd):
        """Energy of the ground reduced roots by the reference formula, after
        the reference residual of those roots is checked."""
        qn = baes.ground_quantum_numbers(N, boundary)
        roots = baes.solve_log_baes(ETA_ED, N, qn)
        anti = boundary == "anti"
        res = reference.log_bae_residual(roots.x, qn.twice_I, N, ETA_ED, anti)
        rnd.check(res < 1e-9, f"log-BAE residual {res:.2e} at N={N} {boundary}")
        return reference.log_bae_energy(roots.x, N, ETA_ED, anti)

    def _check(self, rnd, records, warm, out):
        ok = lambda recs: {r.params["N"]: r.outputs for r in recs if r.status == "ok"}
        einh = ok(records["einh"] + records["einh_top"])
        for N, o in einh.items():
            e = o["e_inh"]
            rnd.check((e > 0) == (N % 2 == 0), f"E_inh sign at N={N}: {e:.3e}")
            if N <= 10:
                e_ed = self._level(N, True)[0]
                e_red = self._reduced_energy(N, "anti", rnd)
                rnd.check(abs(e + e_ed - e_red) < 1e-9,
                          f"E_inh + E_ED - E_reduced = {e + e_ed - e_red:.2e} at N={N}")
        for parity in (0, 1):
            mags = [abs(einh[N]["e_inh"]) for N in sorted(einh) if N % 2 == parity]
            rnd.check(all(b < a for a, b in zip(mags, mags[1:])),
                      f"|E_inh| not falling within parity {parity}: {mags}")
        for N, o in ok(records["boundary"]).items():
            e_red = self._reduced_energy(N, "per", rnd)
            rnd.check(abs(o["e_per"] - e_red) < 1e-9,
                      f"periodic ED vs log-BAE {o['e_per'] - e_red:.2e} at N={N}")
            if N <= 10:
                for tag, anti in (("anti", True), ("per", False)):
                    d = o[f"e_{tag}"] - self._level(N, anti)[0]
                    rnd.check(abs(d) < 1e-9, f"e_{tag} vs eigvalsh {d:.2e} at N={N}")
        for N, o in ok(records["spectrum"]).items():
            lv = self._level(N, True)
            rnd.check(o["g0_degeneracy"] == 2 and lv[1] - lv[0] < 1e-9,
                      f"twisted ground level not a doublet at N={N}")
            rnd.check(abs(o["e0"] - lv[0]) < 1e-9,
                      f"EdSpectrum e0 vs eigvalsh {o['e0'] - lv[0]:.2e} at N={N}")
        for key in records:
            rnd.check([r.to_dict() for r in records[key]] == [r.to_dict() for r in warm[key]],
                      f"warm rerun of {key} returned different records")
        with open(out / "einhscan.csv", newline="", encoding="utf-8") as fh:
            table = {int(row["N"]): float(row["e_inh"]) for row in csv.DictReader(fh)}
        rnd.check(table == {N: o["e_inh"] for N, o in einh.items()},
                  "einhscan.csv does not round-trip E_inh")


class InhomTQ:
    """`baes.solve_inhom_baes` on the twisted chain, with `energy_inhom` and
    `tq_eigenvalue` at points u drawn from the run seed off the circle
    Re u = 0 on which the solver samples t(u).  The last point is expected
    to fail: its Q-polynomial fit misses the 1e-6 residual gate.
    largest_point_s is the time of the largest N among `points`."""

    name = "inhom_tq"

    def __init__(self, seed: int, workdir: Path, *,
                 points=tuple((eta, N) for eta in (1.0, 2.0) for N in range(6, 9)),
                 failing=((3.0, 9),)):
        self.points, self.failing = tuple(points), tuple(failing)
        self.largest = max(N for _, N in self.points)
        self.largest_any = max(N for _, N in self.points + self.failing)
        rng = np.random.default_rng(seed)
        self.us = {p: rng.uniform(0.1, 0.5, 3) + 1j * rng.uniform(0.0, math.pi, 3)
                   for p in self.points + self.failing}
        self._refs = {}

    def warm_up(self) -> None:
        self._solve(model.ModelParams(3, 1.0, "anti"), [0.2 + 0.3j])
        # one build at the largest N leaves the heap as every later round
        # finds it: without it the first round made 885k minor page faults,
        # every later one 569k, and the first round ran 15-40% slower
        model.transfer_matrix(0.1j, model.ModelParams(self.largest_any, 1.0, "anti"))

    @staticmethod
    def _solve(params, us):
        roots = baes.solve_inhom_baes(params)
        return roots, baes.energy_inhom(roots, params), [baes.tq_eigenvalue(u, roots) for u in us]

    def round(self, index: int) -> Round:
        rnd = Round()
        for eta, N in self.points + self.failing:
            params = model.ModelParams(N, eta, "anti")
            us = self.us[(eta, N)]
            result, dt = rnd.attempt(f"eta={eta} N={N}", self._solve, params, us,
                                     expected_to_fail=(eta, N) in self.failing)
            if (eta, N) in self.points and N == self.largest:
                rnd.largest_point_s += dt
            if result is not None:
                rnd.outputs.append((eta, N, us, *result))
        return rnd

    def check(self, rnd: Round) -> None:
        for output in rnd.outputs:
            self._check(rnd, *output)

    def _check(self, rnd, eta, N, us, roots, energy, lams):
        if (eta, N) not in self._refs:
            self._refs[(eta, N)] = reference.ground_branch_vector(N, eta)
        e_ed, v = self._refs[(eta, N)]
        rnd.check(len(roots.lam) == N, f"{len(roots.lam)} roots at eta={eta} N={N}")
        rnd.check(abs(energy - e_ed) < 1e-8,
                  f"energy_inhom - ED = {energy - e_ed:.2e} at eta={eta} N={N}")
        for u, lam in zip(us, lams):
            ref = np.vdot(v, reference.apply_transfer(u, eta, v))
            rnd.check(abs(lam - ref) <= 1e-8 * max(1.0, abs(ref)),
                      f"tq_eigenvalue({u:.3f}) off by {abs(lam - ref):.2e} at eta={eta} N={N}")
        res = reference.tq_relative_residual(roots.lam, N, eta)
        rnd.check(res < 1e-10, f"T-Q residual {res:.2e} at eta={eta} N={N}")


class LargeNExtrap:
    """`baes.solve_log_baes` for the four ground states (both boundaries,
    both parities) at eta = 2 and eta = 1, each compared with the
    thermodynamic table plus the hole-quantization term, then a
    power-offset fit of E_anti - E_per at even N, extrapolated to the
    twisted boundary energy: plain `scaling.fit` at eta = 2 and
    `scaling.fit_with_window` at eta = 1.  The odd sizes are drawn from the
    run seed.  One antiperiodic solve at eta = 0.8 is expected to fail: its
    absolute residual tolerance sits at the float64 resolution."""

    name = "large_n_extrap"

    def __init__(self, seed: int, workdir: Path, *,
                 even_n={2.0: (100, 150, 200, 300, 400, 600, 800, 1200, 1600),
                         1.0: (700, 1000, 1300, 1600)},
                 odd_range={2.0: (101, 801), 1.0: (601, 1001)},
                 failing=((0.8, 1896, "anti"),)):
        rng = np.random.default_rng(seed)
        self.even_n = {eta: tuple(ns) for eta, ns in even_n.items()}
        self.odd_n = {eta: tuple(sorted(rng.choice(np.arange(lo, hi + 1, 2), 2,
                                                   replace=False).tolist()))
                      for eta, (lo, hi) in odd_range.items()}
        self.failing = tuple(failing)
        # the failing solve is larger still, but it is timed apart
        self.largest = max(max(ns) for ns in self.even_n.values())

    def warm_up(self) -> None:
        self._point(2.0, 60, "anti")
        scaling.fit("power", [(n, n ** -2.0) for n in (10, 20, 40)])

    @staticmethod
    def _point(eta, N, boundary):
        qn = baes.ground_quantum_numbers(N, boundary)
        roots = baes.solve_log_baes(eta, N, qn)
        ref = (thermo.ground_energy_tl(N, eta, boundary)
               + thermo.hole_quantization_energy(N, eta, boundary))
        return roots, baes.energy_hom(roots), ref

    @staticmethod
    def _fit(kind_fn, samples, eta):
        result = kind_fn("power-offset", samples)
        fit = result[0] if isinstance(result, tuple) else result
        return fit, scaling.extrapolate(fit), thermo.twisted_boundary_energy(eta, "even")

    def round(self, index: int) -> Round:
        rnd = Round()
        for eta in self.even_n:
            energies = {}
            for N in sorted(self.even_n[eta] + self.odd_n[eta]):
                for boundary in ("anti", "per"):
                    result, dt = rnd.attempt(f"eta={eta} N={N} {boundary}", self._point,
                                             eta, N, boundary)
                    if N == self.largest:
                        rnd.largest_point_s += dt
                    if result is not None:
                        energies[(N, boundary)] = result[1]
                        rnd.outputs.append((self._check_point, eta, N, boundary, *result))
            samples = [(N, energies[(N, "anti")] - energies[(N, "per")])
                       for N in self.even_n[eta]
                       if (N, "anti") in energies and (N, "per") in energies]
            kind_fn = scaling.fit_with_window if eta == WINDOWED_ETA else scaling.fit
            result, _ = rnd.attempt(f"{kind_fn.__name__} eta={eta}", self._fit,
                                    kind_fn, samples, eta)
            if result is not None:
                rnd.outputs.append((self._check_fit, eta, kind_fn.__name__, *result))
        for eta, N, boundary in self.failing:
            result, _ = rnd.attempt(f"eta={eta} N={N} {boundary}", self._point,
                                    eta, N, boundary, expected_to_fail=True)
            if result is not None:
                rnd.outputs.append((self._check_point, eta, N, boundary, *result))
        return rnd

    def check(self, rnd: Round) -> None:
        for check, *output in rnd.outputs:
            check(rnd, *output)

    @staticmethod
    def _check_point(rnd, eta, N, boundary, roots, energy, ref):
        where = f"eta={eta} N={N} {boundary}"
        anti = boundary == "anti"
        rnd.check(abs(energy - ref) < 1e-5, f"energy - table - hole term = {energy - ref:.2e} at {where}")
        res = reference.log_bae_residual(roots.x, roots.qn.twice_I, N, eta, anti)
        rnd.check(res < 1e-9, f"log-BAE residual {res:.2e} at {where}")
        e_ref = reference.log_bae_energy(roots.x, N, eta, anti)
        rnd.check(abs(energy - e_ref) < 1e-8, f"energy_hom vs root formula {energy - e_ref:.2e} at {where}")

    @staticmethod
    def _check_fit(rnd, eta, kind, fit, asymptote, e_b):
        rnd.check(abs(asymptote - e_b) < 1e-5,
                  f"{kind} offset - E_b = {asymptote - e_b:.2e} at eta={eta}")
        rnd.check(abs(fit.b + 2.0) < 0.1, f"{kind} exponent {fit.b:.3f} at eta={eta}")


WORKLOADS = {cls.name: cls for cls in (EdScan, InhomTQ, LargeNExtrap)}
