"""Small result records returned by the verification-style operations."""

from __future__ import annotations

from operator import attrgetter
from typing import Any

__all__ = ["SimplicityReport", "Verdict"]

_set_field = object.__setattr__


class _Record:
    """Frozen record over its ``__slots__``, set in ``__init__`` with ``_set_field``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Verdict(_Record):
    """Outcome of a structural check; carries a witness when it fails."""

    __slots__ = ("ok", "detail", "witness")

    def __init__(self, ok: bool, detail: str = "", witness: Any = None):
        _set_field(self, "ok", ok)
        _set_field(self, "detail", detail)
        _set_field(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


class SimplicityReport(_Record):
    """Result of sweeping bimodule closures over a degree-k component."""

    __slots__ = ("n", "k", "expected_dimension", "seeds_checked", "failures")

    def __init__(self, n: int, k: int, expected_dimension: int, seeds_checked: int,
                 failures: tuple[tuple[str, int], ...] = ()):
        _set_field(self, "n", n)
        _set_field(self, "k", k)
        _set_field(self, "expected_dimension", expected_dimension)
        _set_field(self, "seeds_checked", seeds_checked)
        _set_field(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok
