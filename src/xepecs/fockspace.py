"""Occupation-number states and second-quantized operators for the two-shell model.

The electron system has 8 spin-orbitals in the fixed canonical order

    (1s up, 1s down, 2p[m=-1] up, 2p[m=-1] down,
     2p[m=0] up, 2p[m=0] down, 2p[m=1] up, 2p[m=1] down)

and a basis state is the bitmask of its occupied spin-orbitals. Creation and
annihilation go through one ladder helper over these 8 modes, which applies
the sign (-1)^(number of occupied modes before the target). Only electrons
are second-quantized: the photons and the photoelectron change no sign and
no norm in any matrix element of the model, so they are labels of the
channels (see ``amplitudes``), not modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Spin",
    "Shell",
    "SpinOrbital",
    "ORBITALS",
    "FockState",
    "ManyBodyVector",
    "vacuum",
    "basis_vector",
    "combine",
    "create",
    "annihilate",
    "inner",
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


@dataclass
class ManyBodyVector:
    """A finite linear combination of FockStates with complex amplitudes."""

    _terms: dict[FockState, complex] = field(default_factory=dict)

    def amplitude(self, state: FockState) -> complex:
        return self._terms.get(state, 0j)

    def terms(self):
        return self._terms.items()

    def states(self):
        return self._terms.keys()

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "ManyBodyVector") -> "ManyBodyVector":
        out = dict(self._terms)
        for s, a in other._terms.items():
            _accumulate(out, s, a)
        return ManyBodyVector(out)

    def __sub__(self, other: "ManyBodyVector") -> "ManyBodyVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "ManyBodyVector":
        if scalar == 0:
            return ManyBodyVector()
        return ManyBodyVector({s: a * scalar for s, a in self._terms.items()})

    __rmul__ = __mul__


def _accumulate(terms: dict[FockState, complex], state: FockState, amp: complex):
    new = terms.get(state, 0j) + amp
    if new == 0:
        terms.pop(state, None)
    else:
        terms[state] = new


def vacuum() -> ManyBodyVector:
    return ManyBodyVector({FockState(): 1.0 + 0j})


def basis_vector(state: FockState) -> ManyBodyVector:
    return ManyBodyVector({state: 1.0 + 0j})


def combine(terms) -> ManyBodyVector:
    """sum_k c_k v_k over (c_k, v_k) pairs, accumulated into one dict."""
    out: dict[FockState, complex] = {}
    for coeff, v in terms:
        for s, a in v.terms():
            _accumulate(out, s, a * coeff)
    return ManyBodyVector(out)


def _fermion(v: ManyBodyVector, mode: int, raise_op: bool) -> ManyBodyVector:
    """c^dag (raise_op) or c of spin-orbital ``mode`` in canonical order."""
    bit = 1 << mode
    out: dict[FockState, complex] = {}
    for s, a in v.terms():
        if bool(s.orbitals & bit) is raise_op:
            continue  # Pauli exclusion, or nothing to remove
        if (s.orbitals & (bit - 1)).bit_count() % 2:
            a = -a
        _accumulate(out, FockState(s.orbitals ^ bit), a)
    return ManyBodyVector(out)


def create(v: ManyBodyVector, orb: SpinOrbital) -> ManyBodyVector:
    """Apply the fermionic creation operator for ``orb``."""
    return _fermion(v, orb.index, True)


def annihilate(v: ManyBodyVector, orb: SpinOrbital) -> ManyBodyVector:
    """Apply the fermionic annihilation operator for ``orb`` (adjoint of create)."""
    return _fermion(v, orb.index, False)


def inner(a: ManyBodyVector, b: ManyBodyVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if len(a) > len(b):
        return complex(sum(a.amplitude(s).conjugate() * amp for s, amp in b.terms()))
    return complex(sum(amp.conjugate() * b.amplitude(s) for s, amp in a.terms()))
