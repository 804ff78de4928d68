"""Experiment orchestration: sweep grids, per-point JSON cache, records.

An experiment body's parameters are the inputs it reads (`inputs`): the
sweep's axes, a record's params and the CLI's flags.  Each sweep point
is computed once and cached as a JSON file keyed by a hash of the
experiment name, its params and a digest of the package sources, so
interrupted sweeps resume, repeated runs are byte-identical, and a point
computed by different code is never served.  Point failures are recorded
with an error status and never abort the sweep.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from .. import __version__
from .. import baes, model, thermo
from ..common import Boundary, Parity

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = ["EXPERIMENT_TABLE", "ResultRecord", "inputs", "run", "flatten_record"]


@dataclasses.dataclass
class ResultRecord:
    """One sweep point: parameter echo, named scalar outputs, provenance."""

    experiment: str
    params: dict
    outputs: dict
    status: str
    error: str | None
    timestamp: str
    version: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ResultRecord":
        """The record `to_dict` wrote; TypeError when a field is missing,
        unknown or of the wrong type."""
        record = cls(**data)
        if not (isinstance(record.params, dict) and isinstance(record.outputs, dict)
                and record.status in ("ok", "error")
                and isinstance(record.error, (str, type(None)))
                and all(isinstance(v, str) for v in
                        (record.experiment, record.timestamp, record.version))):
            raise TypeError(f"record fields of the wrong type: {data!r}")
        return record


def flatten_record(record: ResultRecord) -> dict:
    """Single flat mapping for tabular output: params, outputs, provenance."""
    return {"experiment": record.experiment, **record.params, **record.outputs,
            "status": record.status, "error": record.error or "",
            "timestamp": record.timestamp, "version": record.version}


# ---------------------------------------------------------------------------
# cache


@functools.cache
def _source_digest() -> str:
    """SHA-256 over the package's .py sources (relative path and bytes),
    read once per process."""
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _point_key(experiment: str, params: dict) -> str:
    payload = {
        "experiment": experiment,
        "params": params,
        "version": __version__,
        "sources": _source_digest(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# experiment bodies; each returns a dict of named scalars, and its
# parameters, the inputs it reads, are the one declaration of them


def _low_spectrum(eta: float, N: int, boundary: str):
    """The lowest min(6, 2^N) levels of H, and the gap from the ground level
    to the first level more than 1e-8 above it (0.0 if none is).

    That gap is the first distinct level above the ground level, not the
    paper's gap: on the periodic chain at even N it is the tunnelling
    splitting of the ground pair, which closes with N (0.286, 0.0563 and
    0.0121 at eta = 2, N = 8, 12 and 16, against the thermodynamic gap
    `thermo.excitation_gap_tl` = 2.0549 cosh(eta))."""
    params = model.ModelParams(N=N, eta=eta, boundary=boundary)
    spec = model.ed_spectrum(model.build_hamiltonian(params), min(6, params.dim))
    e0 = spec.eigenvalues[0]
    gap = next((float(e - e0) for e in spec.eigenvalues[1:] if e - e0 > 1e-8), 0.0)
    return spec, gap


def _exp_ed_spectrum(eta: float, N: int, boundary: str) -> dict:
    spec, gap = _low_spectrum(eta, N, boundary)
    e0 = spec.eigenvalues[0]
    return {
        "e0": float(e0),
        "e0_per_site": float(e0 / N),
        "gap": gap,
        "g0_degeneracy": int(spec.degeneracies[0]),
        "method": spec.method,
    }


def _exp_solve_hom(eta: float, N: int, boundary: str) -> dict:
    qn = baes.ground_quantum_numbers(N, boundary)
    roots = baes.solve_log_baes(eta, N, qn)
    energy = baes.energy_hom(roots)
    return {
        "M": int(roots.M),
        "energy": float(energy),
        "energy_over_cosh": float(energy / math.cosh(eta)),
        "energy_per_site": float(energy / N),
        "residual": float(roots.residual),
        "iterations": int(roots.iterations),
        "modes": int(roots.modes),
    }


def _exp_solve_inhom(eta: float, N: int) -> dict:
    params = model.ModelParams(N=N, eta=eta, boundary=Boundary.ANTIPERIODIC)
    roots = baes.solve_inhom_baes(params)
    energy = baes.energy_inhom(roots, params)
    ed = model.ed_spectrum(model.build_hamiltonian(params), 1).eigenvalues[0]
    return {
        "energy": float(energy),
        "ed_energy": float(ed),
        "abs_defect": float(abs(energy - ed)),
        "residual": float(roots.residual),
        "root_sum_re": roots.root_sum.real,
        "root_sum_im": roots.root_sum.imag,
    }


def _exp_einh_scan(eta: float, N: int) -> dict:
    e_inh = baes.inhom_contribution(N, eta, "Energy")
    return {
        "e_inh": float(e_inh),
        "e_inh_over_cosh": float(e_inh / math.cosh(eta)),
    }


def _exp_boundary_energy_scan(eta: float, N: int) -> dict:
    out = {}
    for tag, boundary in (("anti", Boundary.ANTIPERIODIC), ("per", Boundary.PERIODIC)):
        params = model.ModelParams(N=N, eta=eta, boundary=boundary)
        H = model.build_hamiltonian(params)
        out[f"e_{tag}"] = float(model.ed_spectrum(H, 1).eigenvalues[0])
    e_b = out["e_anti"] - out["e_per"]
    out["e_b"] = float(e_b)
    out["e_b_over_cosh"] = float(e_b / math.cosh(eta))
    return out


def _exp_gap_scan(eta: float, N: int, boundary: str) -> dict:
    spec, gap = _low_spectrum(eta, N, boundary)
    return {
        "e0": float(spec.eigenvalues[0]),
        "gap": gap,
        "gap_over_cosh": float(gap / math.cosh(eta)),
        "g0_degeneracy": int(spec.degeneracies[0]),
    }


def _exp_charge_scan(eta: float, N: int) -> dict:
    params = model.ModelParams(N=N, eta=eta, boundary=Boundary.ANTIPERIODIC)
    gs = model.ground_space(params)
    momenta = sorted((cmath.log(complex(ev)).imag for ev in gs.t0_eigenvalues))
    p_inh = baes.inhom_contribution(N, eta, "Momentum")
    h2_inh = baes.inhom_contribution(N, eta, "ChargeH2")
    return {
        "p_im_low": float(momenta[0]),
        "p_im_high": float(momenta[1]),
        "p_inh_im": float(complex(p_inh).imag),
        "h2_inh": float(h2_inh),
    }


def _exp_thermo(eta: float) -> dict:
    e0 = thermo.e0_density(eta)
    e_b = thermo.twisted_boundary_energy(eta, Parity.EVEN)
    gap = thermo.excitation_gap_tl(eta, Parity.ODD)
    ch = math.cosh(eta)
    return {
        "e0": float(e0),
        "e0_over_cosh": float(e0 / ch),
        "e_b": float(e_b),
        "e_b_over_cosh": float(e_b / ch),
        "gap": float(gap),
        "gap_over_cosh": float(gap / ch),
        "e_h_band_edge": float(thermo.hole_energy(math.pi / eta, eta)),
    }


# name -> (body, the (x, y) columns its SVG plots); the names in this order
# are config.EXPERIMENTS and the CLI's subcommands
EXPERIMENT_TABLE = {
    "EdSpectrum": (_exp_ed_spectrum, ("N", "e0")),
    "SolveHom": (_exp_solve_hom, ("N", "energy")),
    "SolveInhom": (_exp_solve_inhom, ("N", "abs_defect")),
    "EinhScan": (_exp_einh_scan, ("N", "e_inh_over_cosh")),
    "BoundaryEnergyScan": (_exp_boundary_energy_scan, ("N", "e_b_over_cosh")),
    "GapScan": (_exp_gap_scan, ("N", "gap_over_cosh")),
    "ChargeScan": (_exp_charge_scan, ("N", "h2_inh")),
    "Thermo": (_exp_thermo, ("eta", "e_b_over_cosh")),
}


# ---------------------------------------------------------------------------
# sweep driver


def inputs(experiment: str) -> tuple:
    """The inputs an experiment reads: its body's parameters, in order."""
    return tuple(inspect.signature(EXPERIMENT_TABLE[experiment][0]).parameters)


def _grid(config: ExperimentConfig) -> list[dict]:
    """Sweep points, each the params of one body call: the product over the
    experiment's inputs in signature order, eta outermost."""
    names = inputs(config.experiment)
    boundary = None if config.boundary is None else (config.boundary.value,)
    axes = {"eta": config.eta, "N": config.N_list, "boundary": boundary}
    return [dict(zip(names, values)) for values in itertools.product(*map(axes.get, names))]


def _compute_point(experiment: str, params: dict) -> ResultRecord:
    stamp = datetime.now(timezone.utc).isoformat()
    try:
        outputs = EXPERIMENT_TABLE[experiment][0](**params)
        return ResultRecord(experiment, params, outputs, "ok", None, stamp, __version__)
    except Exception as exc:  # per-point failures must not abort the sweep
        return ResultRecord(experiment, params, {}, "error",
                            f"{type(exc).__name__}: {exc}", stamp, __version__)


def run(config: ExperimentConfig, *, force: bool = False) -> list[ResultRecord]:
    """Execute a sweep, reusing cached points unless ``force``.

    Points run one after another; results return in grid order.  A failed
    point yields a record with status ``error``.
    """
    records = []
    for params in _grid(config):
        key = _point_key(config.experiment, params)
        path = Path(config.output_dir) / "cache" / f"{config.experiment}-{key}.json"
        if not force and path.exists():
            try:
                records.append(ResultRecord.from_dict(
                    json.loads(path.read_text(encoding="utf-8"))))
                continue
            except (json.JSONDecodeError, TypeError):
                pass  # corrupt or mistyped cache entry: recompute below
        record = _compute_point(config.experiment, params)
        _write_atomic(path, json.dumps(record.to_dict(), indent=2) + "\n")
        records.append(record)
    return records
