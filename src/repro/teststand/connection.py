"""Connection matrix: how resources can be routed to DUT pins.

The second table the paper's test stand needs about itself describes *"in
which way these resources can be connected to the DUT"*: each entry names
the switching element (a simple switch ``Sw1.1`` or a multiplexer channel
``Mx1.2``) that, when closed, connects one resource terminal to one DUT pin.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .._record import Record
from ..core.errors import RoutingError

__all__ = ["Connector", "Switch", "MuxChannel", "DirectWire", "Route", "ConnectionMatrix"]


class Connector(Record):
    """A switching element that can connect a resource terminal to a pin."""

    label: str

    def __init__(self, label: str) -> None:
        if not str(label).strip():
            raise RoutingError("connector needs a label")
        self.__dict__["label"] = label

    def __str__(self) -> str:
        return self.label


class Switch(Connector):
    """An independently closable switch (the paper's ``Sw1.1`` / ``Sw1.2``)."""


class MuxChannel(Connector):
    """One channel of a multiplexer (the paper's ``Mx1.1`` ... ``Mx4.2``).

    Channels of the same multiplexer group are mutually exclusive: closing
    one opens the others.  The group is identified by :attr:`mux`.
    """

    mux: str = ""
    channel: int = 0

    def __init__(self, label: str, mux: str = "", channel: int = 0) -> None:
        super().__init__(label)
        if not str(mux).strip():
            raise RoutingError(f"mux channel {label!r} needs a mux group name")
        self.__dict__.update(mux=mux, channel=channel)


class DirectWire(Connector):
    """A permanent wire (no switching element) between resource and pin."""


class Route(Record):
    """One possible connection: resource terminal -> DUT pin via a connector."""

    resource: str
    terminal: str
    pin: str
    connector: Connector

    def __init__(self, resource: str, terminal: str, pin: str,
                 connector: Connector) -> None:
        for field_name, value in (("resource", resource),
                                  ("terminal", terminal), ("pin", pin)):
            if not str(value).strip():
                raise RoutingError(f"route needs a {field_name}")
        self.__dict__.update(resource=resource, terminal=terminal, pin=pin,
                             connector=connector)

    @property
    def resource_key(self) -> str:
        return self.resource.lower()

    @property
    def pin_key(self) -> str:
        return self.pin.lower()

    def __str__(self) -> str:
        return f"{self.resource}.{self.terminal} --{self.connector}--> {self.pin}"


class ConnectionMatrix:
    """All routes of a test stand, with the paper's tabular rendering."""

    def __init__(self, routes: Iterable[Route] = ()):
        self._routes: list[Route] = []
        for route in routes:
            self.add(route)

    def add(self, route: Route) -> None:
        for existing in self._routes:
            if (
                existing.resource_key == route.resource_key
                and existing.terminal == route.terminal
                and existing.pin_key == route.pin_key
            ):
                raise RoutingError(
                    f"duplicate route {route.resource}.{route.terminal} -> {route.pin}"
                )
        self._routes.append(route)

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes)

    def __len__(self) -> int:
        return len(self._routes)

    # -- queries --------------------------------------------------------------

    def routes_for_pin(self, pin: str) -> tuple[Route, ...]:
        """All routes that can reach *pin*."""
        wanted = str(pin).lower()
        return tuple(route for route in self._routes if route.pin_key == wanted)

    def routes_for_resource(self, resource: str) -> tuple[Route, ...]:
        """All routes available to *resource*."""
        wanted = str(resource).lower()
        return tuple(route for route in self._routes if route.resource_key == wanted)

    def route_between(self, resource: str, terminal: str, pin: str) -> Route | None:
        """The route connecting a specific terminal to a specific pin, if any."""
        for route in self._routes:
            if (
                route.resource_key == str(resource).lower()
                and route.terminal == terminal
                and route.pin_key == str(pin).lower()
            ):
                return route
        return None

    @property
    def pins(self) -> tuple[str, ...]:
        """All DUT pins reachable by any resource, in first-seen order."""
        seen: dict[str, None] = {}
        for route in self._routes:
            seen.setdefault(route.pin, None)
        return tuple(seen)

    @property
    def resources(self) -> tuple[str, ...]:
        """All resource names appearing in the matrix, in first-seen order."""
        seen: dict[str, None] = {}
        for route in self._routes:
            seen.setdefault(route.resource, None)
        return tuple(seen)

    # -- rendering --------------------------------------------------------------

    def matrix_rows(self, pins: Sequence[str] | None = None) -> list[tuple[str, ...]]:
        """The paper's connection-matrix table.

        One row per resource, one column per pin; each cell names the
        connector (or stays empty when the resource cannot reach the pin).
        """
        pin_order = list(pins) if pins is not None else list(self.pins)
        rows: list[tuple[str, ...]] = []
        for resource in self.resources:
            cells = [resource]
            for pin in pin_order:
                route = None
                for candidate in self.routes_for_resource(resource):
                    if candidate.pin_key == str(pin).lower():
                        route = candidate
                        break
                cells.append(route.connector.label if route else "")
            rows.append(tuple(cells))
        return rows

    def header(self, pins: Sequence[str] | None = None) -> tuple[str, ...]:
        """Column headers matching :meth:`matrix_rows`."""
        pin_order = list(pins) if pins is not None else list(self.pins)
        return ("", *pin_order)

    def __repr__(self) -> str:
        return f"ConnectionMatrix(routes={len(self._routes)})"
