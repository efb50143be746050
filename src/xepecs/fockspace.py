"""Occupation-number states of the two-shell model.

The electron system has 8 spin-orbitals in the fixed canonical order

    (1s up, 1s down, 2p[m=-1] up, 2p[m=-1] down,
     2p[m=0] up, 2p[m=0] down, 2p[m=1] up, 2p[m=1] down)

and a basis state is the bitmask of its occupied spin-orbitals. A fermionic
sign is (-1)^(number of occupied modes below the mode created or removed).
The model's operators are written in its coupled (J, S) basis by Racah
algebra (see ``model`` and ``amplitudes``), so no operator is applied to a
mask here; those signs enter only as the ladder sign of a photoemission or a
decay in ``amplitudes``. Only electrons are second-quantized: the photons and
the photoelectron change no sign and no norm in any matrix element of the
model, so they are labels of the channels (see ``amplitudes``), not modes."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Spin",
    "Shell",
    "SpinOrbital",
    "ORBITALS",
    "FockState",
]


class Spin(Enum):
    UP = "up"
    DOWN = "down"

    @property
    def twice_sz(self) -> int:
        return 1 if self is Spin.UP else -1

    def __str__(self) -> str:
        return self.value


class Shell(Enum):
    S1S = "1s"
    P2P = "2p"


@dataclass(frozen=True)
class SpinOrbital:
    shell: Shell
    m: int
    spin: Spin

    def __post_init__(self):
        if self.shell is Shell.S1S and self.m != 0:
            raise ValueError("1s orbital has m = 0")
        if self.shell is Shell.P2P and self.m not in (-1, 0, 1):
            raise ValueError("2p orbital needs m in {-1, 0, 1}")

    @property
    def index(self) -> int:
        return _ORBITAL_INDEX[self]

    def __str__(self) -> str:
        tag = "" if self.shell is Shell.S1S else f"[{self.m:+d}]"
        return f"{self.shell.value}{tag}{'+' if self.spin is Spin.UP else '-'}"


ORBITALS: tuple[SpinOrbital, ...] = tuple(
    SpinOrbital(shell, m, spin)
    for shell, ms in ((Shell.S1S, (0,)), (Shell.P2P, (-1, 0, 1)))
    for m in ms
    for spin in (Spin.UP, Spin.DOWN)
)
_ORBITAL_INDEX = {orb: i for i, orb in enumerate(ORBITALS)}


@dataclass(frozen=True)
class FockState:
    """One occupation-number basis state: ``orbitals`` is a bitmask over the 8
    canonical spin-orbitals, bit i set when ORBITALS[i] is occupied."""

    orbitals: int = 0

    def __post_init__(self):
        if not 0 <= self.orbitals < 256:
            raise ValueError("orbital mask out of range")

