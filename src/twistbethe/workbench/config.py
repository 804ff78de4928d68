"""Experiment configuration: validation, JSON config files, CLI merging."""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass
from pathlib import Path

from ..common import Boundary
from .runner import EXPERIMENT_TABLE, inputs

__all__ = ["EXPERIMENTS", "INPUT_FIELDS", "ConfigError", "ExperimentConfig",
           "load_config_file"]

EXPERIMENTS = tuple(EXPERIMENT_TABLE)

# the field that each experiment input, a parameter of its body, is read from
INPUT_FIELDS = {"eta": "eta", "N": "N_list", "boundary": "boundary"}

_CANONICAL = {name.lower(): name for name in EXPERIMENTS}


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


def coerce_experiment(name) -> str:
    """An experiment's name, in any letter case."""
    key = str(name).strip().lower()
    try:
        return _CANONICAL[key]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENTS}") from None


@dataclass
class ExperimentConfig:
    """One experiment sweep: grid, physical parameters, output directory.

    Every field of the experiment's inputs (`runner.inputs`, by
    INPUT_FIELDS) must be given; there are no default grids.  ``eta`` is
    held as the tuple of swept values and may be given as a single value or
    a list; ``N_list`` must be nonempty and ascending.  A field the
    experiment does not read may be given, and is checked the same way, or
    left None; a sweep reads only the fields of its inputs, and `from_dict`
    refuses the others.
    """

    experiment: str
    eta: tuple | None = None
    N_list: tuple | None = None
    boundary: str | None = None
    output_dir: str = "results"
    # accepted and discarded, never stored: perfbench/workloads.py still
    # passes a per-round `seed=`, which ROADMAP item 4 is to drop
    seed: InitVar[int] = None

    def __post_init__(self, seed):
        self.experiment = coerce_experiment(self.experiment)
        if self.boundary is not None:
            try:
                self.boundary = Boundary.coerce(self.boundary)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

        if self.eta is not None:
            etas = self.eta if isinstance(self.eta, (list, tuple)) else [self.eta]
            try:
                self.eta = tuple(float(e) for e in etas)
            except (TypeError, ValueError):
                raise ConfigError(f"eta must be a number or list: {self.eta!r}") from None
            if not self.eta or not all(0 < e < math.inf for e in self.eta):
                raise ConfigError(f"eta values must be positive and finite: {self.eta}")

        if self.N_list is not None:
            try:
                ns = tuple(int(n) for n in self.N_list)
            except (TypeError, ValueError):
                raise ConfigError(f"N_list must be a list of integers: {self.N_list!r}") from None
            if not ns:
                raise ConfigError("N_list must be nonempty")
            if any(n < 2 for n in ns):
                raise ConfigError("N_list entries must be >= 2")
            if list(ns) != sorted(ns):
                raise ConfigError("N_list must be ascending")
            self.N_list = ns

        missing = [INPUT_FIELDS[name] for name in inputs(self.experiment)
                   if getattr(self, INPUT_FIELDS[name]) is None]
        if missing:
            raise ConfigError(f"{self.experiment} needs {' and '.join(missing)}")
        self.output_dir = str(self.output_dir)

    @classmethod
    def from_dict(cls, data: dict, overrides: dict | None = None) -> "ExperimentConfig":
        """Build a config from a JSON-style dict, with CLI overrides on top.

        Override values that are None are ignored, so absent CLI flags do
        not clobber config-file values.  Besides ``experiment`` and
        ``output_dir``, only the fields of the experiment's inputs are
        accepted.
        """
        merged = dict(data)
        for key, val in (overrides or {}).items():
            if val is not None:
                merged[key] = val
        if "experiment" not in merged:
            raise ConfigError("config needs an 'experiment' entry")
        experiment = coerce_experiment(merged["experiment"])
        unread = set(merged) - {"experiment", "output_dir",
                                *(INPUT_FIELDS[name] for name in inputs(experiment))}
        if unread:
            raise ConfigError(f"{experiment} reads no config keys {sorted(unread)}")
        return cls(**merged)


def load_config_file(path) -> dict:
    """Read a JSON config file mirroring ExperimentConfig fields."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data
