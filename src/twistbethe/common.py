"""Shared enumerations for boundary kind and chain-length parity, and the
one rule for which ground states carry a hole."""

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


def has_hole(N: int, boundary: Boundary) -> bool:
    """Whether the ground state of N sites carries one hole: on the twisted
    chain at even N and on the periodic chain at odd N."""
    return (boundary is Boundary.ANTIPERIODIC) == (Parity.of(N) is Parity.EVEN)
