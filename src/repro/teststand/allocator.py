"""Resource allocation: finding an instrument and a route for every method call.

This is the heart of the test-stand interpreter the paper describes: *"For
each method to be carried out, the test stand searches an appropriate
resource, that can be connected to the signal pin.  If this is not possible
an error message is generated."*

Allocation has to respect three constraints:

1. **Capability** - the resource must support the method and the requested
   value / acceptance window must fit its valid range (T3 in the paper).
2. **Routing** - every pin of the signal must be reachable from a distinct
   terminal of the *same* resource through the connection matrix (T4).
3. **Exclusivity** - stimuli persist between steps (a resistor decade keeps
   emulating the door contact until the status changes), so a terminal held
   for one signal cannot simultaneously serve another, and channels of the
   same multiplexer group are mutually exclusive.

Three allocation policies are provided; comparing them is the A1 ablation
benchmark:

``first_fit``
    take the first suitable resource in table order (what a simple
    interpreter would do),
``best_fit``
    prefer the suitable resource with the *smallest* capability span, keeping
    wide-range instruments free for demanding later requests,
``least_used``
    prefer the resource with the fewest allocations so far (load balancing,
    relevant for parallelised stands).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .._record import Record
from ..core.errors import AllocationError, CapabilityError, RoutingError
from ..core.script import MethodCall
from ..core.signals import Signal
from ..core.values import Interval
from ..methods import MethodRegistry, default_registry, evaluate_call_parameter, limits_for_call
from .connection import ConnectionMatrix, MuxChannel, Route
from .resources import Resource, ResourceTable

__all__ = ["Allocation", "Allocator", "ALLOCATION_POLICIES"]

#: Names of the supported allocation policies.
ALLOCATION_POLICIES = ("first_fit", "best_fit", "least_used")


class Allocation(Record):
    """Result of one successful allocation."""

    signal: str
    method: str
    resource: str
    routes: tuple[Route, ...] = ()
    persistent: bool = False

    def __init__(self, signal: str, method: str, resource: str,
                 routes: tuple[Route, ...] = (),
                 persistent: bool = False) -> None:
        self.__dict__.update(signal=signal, method=method, resource=resource,
                             routes=routes, persistent=persistent)

    @property
    def pins(self) -> tuple[str, ...]:
        """Pins the resource has been routed to, in terminal order."""
        return tuple(route.pin for route in self.routes)

    def __str__(self) -> str:
        where = ", ".join(str(route) for route in self.routes) or "<bus>"
        return f"{self.signal}/{self.method} -> {self.resource} ({where})"


class Allocator:
    """Searches (resource, route) pairs for method calls and tracks holds."""

    def __init__(
        self,
        resources: ResourceTable,
        connections: ConnectionMatrix,
        *,
        policy: str = "first_fit",
        registry: MethodRegistry | None = None,
    ):
        if policy not in ALLOCATION_POLICIES:
            raise AllocationError(
                f"unknown allocation policy {policy!r}; choose one of {ALLOCATION_POLICIES}"
            )
        self.resources = resources
        self.connections = connections
        self.policy = policy
        self.registry = registry or default_registry()
        # (resource key, terminal) -> signal key currently holding it.
        self._held_terminals: dict[tuple[str, str], str] = {}
        # mux group -> (channel label, signal key) currently selected.
        self._mux_selection: dict[str, tuple[str, str]] = {}
        # statistics: ``attempts`` / ``failures`` count searches; the VM's
        # compiled allocations skip the search and book through _register.
        self._allocation_counts: dict[str, int] = {}
        self.attempts = 0
        self.failures = 0

    # -- public API -----------------------------------------------------------------

    def allocate(
        self,
        signal: Signal,
        call: MethodCall,
        variables: Mapping[str, float] | None = None,
    ) -> Allocation:
        """Find a resource and routing for *call* on *signal* or raise.

        Raises :class:`CapabilityError` when no resource supports the request
        at all and :class:`RoutingError` when capable resources exist but
        none can be connected to the signal's pins right now.
        """
        self.attempts += 1
        variables = dict(variables or {})
        persistent = self._is_persistent(call.method)

        candidates = [
            resource
            for resource in self.resources.supporting(call.method)
            if self._capability_fits(resource, call, variables)
        ]
        if not candidates:
            self.failures += 1
            supported = self.resources.supporting(call.method)
            if supported:
                raise CapabilityError(
                    "no resource can serve the requested parameter range",
                    signal=signal.name,
                    method=call.method,
                )
            raise CapabilityError(
                "no resource of this test stand supports the method",
                signal=signal.name,
                method=call.method,
            )

        candidates = self._order_candidates(candidates, call)

        routing_failures: list[str] = []
        for resource in candidates:
            if signal.is_bus:
                if not resource.is_bus_interface:
                    routing_failures.append(f"{resource.name}: not a bus interface")
                    continue
                return self._commit(signal, call, resource, (), persistent)
            routes = self._find_routes(signal, resource)
            if routes is None:
                routing_failures.append(f"{resource.name}: no free route to {signal.pins}")
                continue
            return self._commit(signal, call, resource, routes, persistent)

        self.failures += 1
        raise RoutingError(
            "no suitable resource can be connected to the signal pins "
            f"({'; '.join(routing_failures)})",
            signal=signal.name,
            method=call.method,
        )

    def release(self, signal: str) -> None:
        """Release every terminal and mux selection held for *signal*."""
        key = str(signal).lower()
        self._held_terminals = {
            slot: holder for slot, holder in self._held_terminals.items() if holder != key
        }
        self._mux_selection = {
            mux: selection
            for mux, selection in self._mux_selection.items()
            if selection[1] != key
        }

    def release_all(self) -> None:
        """Release every hold (end of a test run)."""
        self._held_terminals.clear()
        self._mux_selection.clear()

    @property
    def held_terminals(self) -> dict[tuple[str, str], str]:
        """Snapshot of the currently held (resource, terminal) -> signal map."""
        return dict(self._held_terminals)

    @property
    def allocation_counts(self) -> dict[str, int]:
        """Number of successful allocations per resource."""
        return dict(self._allocation_counts)

    # -- internals ---------------------------------------------------------------------

    def _is_persistent(self, method: str) -> bool:
        if method in self.registry:
            return self.registry.get(method).is_stimulus
        return str(method).lower().startswith("put")

    def capability_window(
        self, resource: Resource, call: MethodCall, variables: Mapping[str, float]
    ) -> tuple | None:
        """The evaluated range-check inputs of *call* against *resource*.

        Returns ``(capability, nominal, acceptance)`` - the resource's
        capability row plus the call's evaluated nominal value and
        acceptance interval - or ``None`` when there is nothing to
        range-check (e.g. ``put_can`` payloads: supporting the method is
        enough).  This is the *variable-dependent* half of a capability
        check: the VM compiler stores it on each I/O item, evaluated for
        the program's variables, and a program's binding to a stand checks
        it against that stand's capability row.
        """
        capability = resource.capability_for(call.method)
        attribute = capability.attribute
        nominal = None
        try:
            nominal = evaluate_call_parameter(call, attribute, variables)
        except Exception:
            nominal = None
        acceptance: Interval | None
        try:
            acceptance = limits_for_call(call, attribute, variables)
            if math.isinf(acceptance.low) and math.isinf(acceptance.high):
                acceptance = None
        except Exception:
            acceptance = None
        if nominal is None and acceptance is None:
            return None
        return (capability, nominal, acceptance)

    def _capability_fits(
        self, resource: Resource, call: MethodCall, variables: Mapping[str, float]
    ) -> bool:
        window = self.capability_window(resource, call, variables)
        if window is None:
            return True
        capability, nominal, acceptance = window
        return capability.can_serve(nominal, acceptance)

    def _order_candidates(
        self, candidates: list[Resource], call: MethodCall
    ) -> list[Resource]:
        if self.policy == "best_fit":
            return sorted(
                candidates, key=lambda resource: resource.capability_for(call.method).span
            )
        if self.policy == "least_used":
            return sorted(
                candidates,
                key=lambda resource: self._allocation_counts.get(resource.key, 0),
            )
        return candidates

    def _find_routes(self, signal: Signal, resource: Resource) -> tuple[Route, ...] | None:
        """Map every pin of the signal to a distinct free terminal of *resource*."""
        chosen: list[Route] = []
        used_terminals: set[str] = set()
        signal_key = signal.key
        for pin in signal.pins:
            route = self._route_for_pin(resource, pin, signal_key, used_terminals)
            if route is None:
                return None
            chosen.append(route)
            used_terminals.add(route.terminal)
        return tuple(chosen)

    def _route_for_pin(
        self,
        resource: Resource,
        pin: str,
        signal_key: str,
        used_terminals: set[str],
    ) -> Route | None:
        for terminal in resource.terminals:
            if terminal in used_terminals:
                continue
            route = self.connections.route_between(resource.name, terminal, pin)
            if route is None:
                continue
            holder = self._held_terminals.get((resource.key, terminal))
            if holder is not None and holder != signal_key:
                continue
            if isinstance(route.connector, MuxChannel):
                selection = self._mux_selection.get(route.connector.mux)
                if selection is not None and selection != (route.connector.label, signal_key):
                    continue
            return route
        return None

    def _register(
        self,
        signal_key: str,
        resource_key: str,
        routes: tuple[Route, ...],
        persistent: bool,
    ) -> None:
        """Book the holds and statistics of one allocation, without a search.

        Called for every allocation the search commits and, by the bytecode
        VM (:mod:`repro.teststand.vm`), for every compiled allocation it
        executes: the run prologue validated those up front, and booking
        them here keeps the hold state in lock-step per instruction.
        """
        if persistent:
            for route in routes:
                self._held_terminals[(resource_key, route.terminal)] = signal_key
                if isinstance(route.connector, MuxChannel):
                    self._mux_selection[route.connector.mux] = (
                        route.connector.label,
                        signal_key,
                    )
        self._allocation_counts[resource_key] = (
            self._allocation_counts.get(resource_key, 0) + 1
        )

    def _commit(
        self,
        signal: Signal,
        call: MethodCall,
        resource: Resource,
        routes: tuple[Route, ...],
        persistent: bool,
    ) -> Allocation:
        self._register(signal.key, resource.key, routes, persistent)
        return Allocation(
            signal=signal.name,
            method=call.method,
            resource=resource.name,
            routes=routes,
            persistent=persistent,
        )
