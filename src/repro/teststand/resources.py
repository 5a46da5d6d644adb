"""Test stand resources: named instruments with their capability table.

A resource is the paper's unit of allocation: *"In our example there are
three resources, one DVM and two resistor decades, that can be connected to
the DUT."*  The resource table is the first of the two tables the test stand
needs about itself (the second being the connection matrix).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .._record import Record
from ..core.errors import AllocationError
from ..instruments.base import Capability, Instrument

__all__ = ["Resource", "ResourceTable"]


class Resource(Record):
    """One named resource of a test stand: an instrument behind a label."""

    name: str
    instrument: Instrument
    description: str = ""

    def __init__(self, name: str, instrument: Instrument,
                 description: str = "") -> None:
        if not str(name).strip():
            raise AllocationError("resource needs a name")
        self.__dict__.update(name=name, instrument=instrument,
                             description=description)

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def terminals(self) -> tuple[str, ...]:
        """Connection terminals of the underlying instrument."""
        return self.instrument.terminals

    @property
    def is_bus_interface(self) -> bool:
        return self.instrument.is_bus_interface

    def supports(self, method: str) -> bool:
        return self.instrument.supports(method)

    def capability_for(self, method: str) -> Capability:
        return self.instrument.capability_for(method)

    def capabilities(self) -> tuple[Capability, ...]:
        return self.instrument.capabilities()

    def rows(self) -> list[tuple[str, ...]]:
        """Rows of the paper's resource table contributed by this resource."""
        return [(self.name, *capability.as_row()) for capability in self.capabilities()]

    def __str__(self) -> str:
        return self.name


class ResourceTable:
    """Ordered, case-insensitive collection of a stand's resources."""

    #: Column titles matching the paper's resource table.
    COLUMNS = ("Ress.", "Method", "Attribut", "Min", "Max", "Unit")

    def __init__(self, resources: Iterable[Resource] = ()):
        self._resources: dict[str, Resource] = {}
        for resource in resources:
            self.add(resource)

    def add(self, resource: Resource) -> None:
        if resource.key in self._resources:
            raise AllocationError(f"duplicate resource name {resource.name!r}")
        self._resources[resource.key] = resource

    def get(self, name: str) -> Resource:
        try:
            return self._resources[str(name).lower()]
        except KeyError as exc:
            raise AllocationError(f"unknown resource {name!r}") from exc

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._resources

    def __iter__(self) -> Iterator[Resource]:
        return iter(self._resources.values())

    def __len__(self) -> int:
        return len(self._resources)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(resource.name for resource in self._resources.values())

    def supporting(self, method: str) -> tuple[Resource, ...]:
        """All resources supporting *method*, in table order."""
        return tuple(resource for resource in self if resource.supports(method))

    def methods_supported(self) -> tuple[str, ...]:
        """All method names supported by at least one resource."""
        seen: dict[str, None] = {}
        for resource in self:
            for capability in resource.capabilities():
                seen.setdefault(capability.method.lower(), None)
        return tuple(seen)

    def rows(self) -> list[tuple[str, ...]]:
        """The complete resource table in the paper's column layout."""
        rendered: list[tuple[str, ...]] = []
        for resource in self:
            rendered.extend(resource.rows())
        return rendered

    def __repr__(self) -> str:
        return f"ResourceTable(resources={list(self.names)!r})"
