"""Registry of method specifications.

A :class:`MethodRegistry` is the single place where the definition side
(compiler) and the execution side (resources, interpreter) agree on the
method vocabulary.  The default registry contains the paper's methods plus
the obvious symmetric extensions; projects can register additional methods
(e.g. ``put_lin``) without touching the library.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.errors import MethodError
from .base import MethodSpec
from .bus import BUS_METHODS
from .electrical import ELECTRICAL_METHODS
from .timing import TIMING_METHODS

__all__ = ["MethodRegistry", "default_registry"]


class MethodRegistry:
    """A case-insensitive, ordered collection of :class:`MethodSpec`."""

    def __init__(self, methods: Iterable[MethodSpec] = ()):
        self._methods: dict[str, MethodSpec] = {}
        #: Bumped on every mutation; lets content caches (execution plans)
        #: detect ``replace=True`` updates that change a spec without
        #: changing the registry's length.
        self._revision = 0
        for method in methods:
            self.register(method)

    def register(self, method: MethodSpec, *, replace: bool = False) -> None:
        """Add a method spec.

        Registering a name twice raises :class:`MethodError` unless *replace*
        is requested (useful for project-specific refinements).
        """
        if method.key in self._methods and not replace:
            raise MethodError(f"method {method.name!r} is already registered")
        self._methods[method.key] = method
        self._revision += 1

    def get(self, name: str) -> MethodSpec:
        """Look a method up by case-insensitive name."""
        try:
            return self._methods[str(name).lower()]
        except KeyError as exc:
            raise MethodError(f"unknown method: {name!r}") from exc

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._methods

    def __iter__(self) -> Iterator[MethodSpec]:
        return iter(self._methods.values())

    def __len__(self) -> int:
        return len(self._methods)

    @property
    def names(self) -> tuple[str, ...]:
        """All registered method names in registration order."""
        return tuple(method.name for method in self._methods.values())

    def stimuli(self) -> tuple[MethodSpec, ...]:
        """All stimulus methods."""
        return tuple(m for m in self if m.is_stimulus)

    def measurements(self) -> tuple[MethodSpec, ...]:
        """All measurement methods."""
        return tuple(m for m in self if m.is_measurement)

    def copy(self) -> "MethodRegistry":
        """Shallow copy, handy for per-project extension."""
        return MethodRegistry(self._methods.values())


def default_registry() -> MethodRegistry:
    """Build the standard registry with all built-in methods."""
    return MethodRegistry((*ELECTRICAL_METHODS, *BUS_METHODS, *TIMING_METHODS))
