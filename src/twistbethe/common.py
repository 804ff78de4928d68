"""Shared enumerations for boundary kind and chain-length parity."""

from __future__ import annotations

import enum


class Boundary(enum.Enum):
    ANTIPERIODIC = "antiperiodic"
    PERIODIC = "periodic"

    @classmethod
    def coerce(cls, value) -> "Boundary":
        """A Boundary, or "antiperiodic", "anti", "periodic" or "per" in any
        letter case."""
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        if key in ("anti", "antiperiodic"):
            return cls.ANTIPERIODIC
        if key in ("per", "periodic"):
            return cls.PERIODIC
        raise ValueError(f"unknown boundary kind: {value!r}")


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"

    @classmethod
    def coerce(cls, value) -> "Parity":
        """A Parity, or "even" or "odd" in any letter case."""
        if isinstance(value, cls):
            return value
        key = str(value).strip().lower()
        if key == "even":
            return cls.EVEN
        if key == "odd":
            return cls.ODD
        raise ValueError(f"unknown parity: {value!r}")

    @classmethod
    def of(cls, n: int) -> "Parity":
        return cls.EVEN if n % 2 == 0 else cls.ODD
