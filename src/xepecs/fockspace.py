"""The electron spin of the two-shell model: of a 1s or 2p electron, and of the
photoelectron that labels a channel (see ``amplitudes``)."""

from __future__ import annotations

from enum import Enum

__all__ = ["Spin"]


class Spin(Enum):
    UP = "up"
    DOWN = "down"

    __hash__ = object.__hash__   # members are singletons; Enum's hashes the name in Python

    @property
    def twice_sz(self) -> int:
        return 1 if self is Spin.UP else -1

    def __str__(self) -> str:
        return self.value
