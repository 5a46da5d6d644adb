"""Resistive electrical network solver (modified nodal analysis).

The harness computes what a DVM would actually read at the DUT connector by
building a small resistive network: the ECU's driver stages (Thevenin
sources), the external loads (lamps), the resistor decades applied by the
test stand and the meter's own input impedance.  The network is solved by
standard nodal analysis with ideal voltage sources handled through the MNA
border rows.

The solver is deliberately DC-only and linear - adequate for the voltage and
current checks of component tests at step boundaries, and fully
deterministic for the test suite.
"""

from __future__ import annotations

import math

from .._record import Record
from ..core.errors import HarnessError

__all__ = ["Network", "GROUND"]

#: Name of the reference node (0 V by definition).
GROUND = "gnd"


def _solve_dense(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting, in place.

    Deterministic (fixed pivot choice) and exact enough for the DC
    networks at hand; raises :class:`HarnessError` on a singular system.
    At component-test scale (a dozen-ish unknowns) the interpreter solves
    thousands of these per campaign, so plain lists beat any array
    library's per-call overhead.
    """
    size = len(rhs)
    for column in range(size):
        pivot_row = column
        pivot = abs(matrix[column][column])
        for row in range(column + 1, size):
            candidate = abs(matrix[row][column])
            if candidate > pivot:
                pivot, pivot_row = candidate, row
        if pivot == 0.0:
            raise HarnessError("electrical network is singular")
        if pivot_row != column:
            matrix[column], matrix[pivot_row] = matrix[pivot_row], matrix[column]
            rhs[column], rhs[pivot_row] = rhs[pivot_row], rhs[column]
        upper = matrix[column]
        diagonal = upper[column]
        for row in range(column + 1, size):
            lower = matrix[row]
            factor = lower[column]
            if factor == 0.0:
                continue
            factor /= diagonal
            for k in range(column, size):
                lower[k] -= factor * upper[k]
            rhs[row] -= factor * rhs[column]
    solution = [0.0] * size
    for row in range(size - 1, -1, -1):
        current = matrix[row]
        acc = rhs[row]
        for k in range(row + 1, size):
            acc -= current[k] * solution[k]
        solution[row] = acc / current[row]
    return solution


class _Resistor(Record):
    node_a: str
    node_b: str
    ohms: float

    def __init__(self, node_a: str, node_b: str, ohms: float) -> None:
        self.__dict__.update(node_a=node_a, node_b=node_b, ohms=ohms)


class _VoltageSource(Record):
    positive: str
    negative: str
    volts: float

    def __init__(self, positive: str, negative: str, volts: float) -> None:
        self.__dict__.update(positive=positive, negative=negative, volts=volts)


class Network:
    """A DC resistive network with ideal voltage sources."""

    def __init__(self, *, leakage: float = 1.0e9):
        """Create an empty network.

        *leakage* is a very large resistance automatically added from every
        node to ground so that floating sub-circuits stay solvable (a real
        meter sees leakage paths too); pass ``math.inf`` to disable.
        """
        self._nodes: dict[str, int] = {}
        self._resistors: list[_Resistor] = []
        self._sources: list[_VoltageSource] = []
        self._leakage = float(leakage)

    # -- construction ---------------------------------------------------------

    def node(self, name: str) -> str:
        """Register (or re-reference) a node by name; returns the name."""
        key = str(name).lower()
        if not key:
            raise HarnessError("node needs a name")
        if key != GROUND and key not in self._nodes:
            self._nodes[key] = len(self._nodes)
        return key

    def add_resistor(self, node_a: str, node_b: str, ohms: float) -> None:
        """Connect two nodes with a resistor.

        Infinite resistances are accepted and simply ignored (open circuit);
        non-positive resistances are clamped to one milliohm to keep the
        system well conditioned.
        """
        if math.isinf(ohms):
            self.node(node_a)
            self.node(node_b)
            return
        if ohms <= 0:
            ohms = 1.0e-3
        self._resistors.append(_Resistor(self.node(node_a), self.node(node_b), float(ohms)))

    def add_voltage_source(self, positive: str, negative: str, volts: float) -> None:
        """Connect an ideal voltage source between two nodes."""
        self._sources.append(
            _VoltageSource(self.node(positive), self.node(negative), float(volts))
        )

    def add_thevenin(self, node: str, volts: float, resistance: float) -> None:
        """Attach a Thevenin source (ideal source + series resistance) to *node*."""
        internal = self.node(f"__thevenin_{len(self._sources)}_{node}")
        self.add_voltage_source(internal, GROUND, volts)
        self.add_resistor(internal, node, resistance)

    # -- solving --------------------------------------------------------------

    def solve(self) -> dict[str, float]:
        """Solve the network; returns node name -> voltage (ground = 0)."""
        node_count = len(self._nodes)
        source_count = len(self._sources)
        size = node_count + source_count
        if size == 0:
            return {GROUND: 0.0}

        matrix = [[0.0] * size for _ in range(size)]
        rhs = [0.0] * size

        nodes = self._nodes

        def index(node: str) -> int | None:
            if node == GROUND:
                return None
            return nodes[node]

        # Conductance stamps.
        resistors = list(self._resistors)
        if not math.isinf(self._leakage):
            for node in list(self._nodes):
                resistors.append(_Resistor(node, GROUND, self._leakage))
        for resistor in resistors:
            conductance = 1.0 / resistor.ohms
            a = index(resistor.node_a)
            b = index(resistor.node_b)
            if a is not None:
                matrix[a][a] += conductance
            if b is not None:
                matrix[b][b] += conductance
            if a is not None and b is not None:
                matrix[a][b] -= conductance
                matrix[b][a] -= conductance

        # Voltage-source border rows/columns.
        for k, source in enumerate(self._sources):
            row = node_count + k
            p = index(source.positive)
            n = index(source.negative)
            if p is not None:
                matrix[p][row] += 1.0
                matrix[row][p] += 1.0
            if n is not None:
                matrix[n][row] -= 1.0
                matrix[row][n] -= 1.0
            rhs[row] = source.volts

        solution = _solve_dense(matrix, rhs)
        voltages = {GROUND: 0.0}
        for name, position in self._nodes.items():
            voltages[name] = solution[position]
        return voltages

    def voltage_between(self, node_a: str, node_b: str = GROUND) -> float:
        """Solve and return ``V(node_a) - V(node_b)``."""
        voltages = self.solve()
        key_a = str(node_a).lower()
        key_b = str(node_b).lower()
        for key in (key_a, key_b):
            if key != GROUND and key not in voltages:
                raise HarnessError(f"unknown network node {key!r}")
        return voltages.get(key_a, 0.0) - voltages.get(key_b, 0.0)

    # -- introspection --------------------------------------------------------

    @property
    def node_names(self) -> tuple[str, ...]:
        return (GROUND, *self._nodes)

    @property
    def source_count(self) -> int:
        return len(self._sources)
