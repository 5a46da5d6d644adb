"""Status model: the paper's *status table*.

Every symbolic status used in a signal or test definition sheet (``Off``,
``Open``, ``Closed``, ``0``, ``1``, ``Lo``, ``Ho`` in the paper) is defined
in the status table.  A definition binds the status to

* a **method** that realises it (``put_can``, ``put_r``, ``get_u``, ...),
* the method's principal **attribute** (``data``, ``r``, ``u``),
* an optional reference **variable** such as ``UBATT``; when present the
  numeric columns are understood as *factors* of that variable,
* numeric columns **nom / min / max** giving the nominal stimulus value and
  the acceptance limits,
* up to three free **auxiliary parameters** ``D1..D3`` for method-specific
  extras (settling time, minimum applicable resistance, ...).

The table is deliberately dumb: it records the sheet contents faithfully and
leaves interpretation to the method specification (see
:meth:`repro.methods.base.MethodSpec.params_from_status`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .._record import Record
from .errors import StatusError
from .values import format_number, parse_number

__all__ = ["StatusDefinition", "StatusTable"]


class StatusDefinition(Record):
    """One row of the status table.

    Numeric columns are stored both parsed (``nominal`` ...) and verbatim
    (``nominal_text`` ...).  The verbatim forms matter for payload statuses:
    the paper writes CAN payloads as ``0001B``, which is not a number but
    must survive the round trip into XML untouched.
    """

    name: str
    method: str
    attribute: str = ""
    variable: str | None = None
    nominal: float | None = None
    minimum: float | None = None
    maximum: float | None = None
    nominal_text: str = ""
    minimum_text: str = ""
    maximum_text: str = ""
    auxiliaries: tuple[float | None, ...] = (None, None, None)
    description: str = ""

    def __init__(self, name: str, method: str, attribute: str = "",
                 variable: str | None = None, nominal: float | None = None,
                 minimum: float | None = None, maximum: float | None = None,
                 nominal_text: str = "", minimum_text: str = "",
                 maximum_text: str = "",
                 auxiliaries: Iterable[float | None] = (None, None, None),
                 description: str = "") -> None:
        if not str(name).strip():
            raise StatusError("status name must not be empty")
        if not str(method).strip():
            raise StatusError(f"status {name!r} does not name a method")
        aux = tuple(auxiliaries)
        if len(aux) < 3:
            aux = aux + (None,) * (3 - len(aux))
        if not nominal_text and nominal is not None:
            nominal_text = format_number(nominal)
        if not minimum_text and minimum is not None:
            minimum_text = format_number(minimum)
        if not maximum_text and maximum is not None:
            maximum_text = format_number(maximum)
        self.__dict__.update(
            name=name, method=method, attribute=attribute, variable=variable,
            nominal=nominal, minimum=minimum, maximum=maximum,
            nominal_text=nominal_text, minimum_text=minimum_text,
            maximum_text=maximum_text, auxiliaries=aux[:3],
            description=description)

    @property
    def key(self) -> str:
        """Canonical lower-case lookup key."""
        return str(self.name).lower()

    @property
    def is_relative(self) -> bool:
        """True when the numeric columns are factors of a reference variable."""
        return bool(self.variable)

    def auxiliary_value(self, name: str) -> float | None:
        """Return an auxiliary parameter (``d1``/``d2``/``d3``) by name."""
        normalised = str(name).strip().lower().replace(" ", "")
        mapping = {"d1": 0, "d2": 1, "d3": 2}
        if normalised not in mapping:
            return None
        return self.auxiliaries[mapping[normalised]]

    @classmethod
    def from_cells(
        cls,
        name: str,
        method: str,
        attribute: str = "",
        variable: str = "",
        nominal: str | float | None = None,
        minimum: str | float | None = None,
        maximum: str | float | None = None,
        d1: str | float | None = None,
        d2: str | float | None = None,
        d3: str | float | None = None,
        description: str = "",
    ) -> "StatusDefinition":
        """Build a definition from raw sheet cells (strings, possibly empty).

        Numeric cells that do not parse as numbers (e.g. ``0001B``) are kept
        only in their textual form; that is exactly what payload statuses
        need.
        """

        def parse_cell(cell: str | float | None) -> tuple[float | None, str]:
            if cell is None:
                return None, ""
            text = str(cell).strip()
            if not text:
                return None, ""
            try:
                return parse_number(text), text
            except Exception:
                return None, text

        nom, nom_text = parse_cell(nominal)
        mn, mn_text = parse_cell(minimum)
        mx, mx_text = parse_cell(maximum)

        def parse_aux(cell: str | float | None) -> float | None:
            if cell is None or not str(cell).strip():
                return None
            return parse_number(cell)

        return cls(
            name=str(name).strip(),
            method=str(method).strip(),
            attribute=str(attribute).strip(),
            variable=str(variable).strip() or None,
            nominal=nom,
            minimum=mn,
            maximum=mx,
            nominal_text=nom_text,
            minimum_text=mn_text,
            maximum_text=mx_text,
            auxiliaries=(parse_aux(d1), parse_aux(d2), parse_aux(d3)),
            description=description,
        )

    def as_row(self) -> tuple[str, ...]:
        """Render the definition back into the paper's column layout."""
        return (
            self.name,
            self.method,
            self.attribute,
            self.variable or "",
            self.nominal_text,
            self.minimum_text,
            self.maximum_text,
            format_number(self.auxiliaries[0]) if self.auxiliaries[0] is not None else "",
            format_number(self.auxiliaries[1]) if self.auxiliaries[1] is not None else "",
            format_number(self.auxiliaries[2]) if self.auxiliaries[2] is not None else "",
        )

    def __str__(self) -> str:
        return f"{self.name} -> {self.method}"


class StatusTable:
    """An ordered, case-insensitive collection of :class:`StatusDefinition`.

    One status table typically serves a whole project (or even an OEM/supplier
    partnership): the same ``Lo`` / ``Ho`` / ``Open`` / ``Closed`` vocabulary
    is reused by many test definition sheets, which is the knowledge-reuse
    point the paper makes.
    """

    COLUMNS = ("status", "method", "attribut", "var (x)", "nom", "min", "max",
               "D 1", "D 2", "D 3")

    def __init__(self, definitions: Iterable[StatusDefinition] = (), *, name: str = "status"):
        self.name = name
        self._definitions: dict[str, StatusDefinition] = {}
        for definition in definitions:
            self.add(definition)

    def add(self, definition: StatusDefinition, *, replace: bool = False) -> None:
        """Add a status definition; duplicates raise unless *replace*."""
        if definition.key in self._definitions and not replace:
            raise StatusError(f"duplicate status definition: {definition.name!r}")
        self._definitions[definition.key] = definition

    def get(self, name: str) -> StatusDefinition:
        """Look a status up by case-insensitive name."""
        try:
            return self._definitions[str(name).lower()]
        except KeyError as exc:
            raise StatusError(f"status {name!r} is not defined in the status table") from exc

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._definitions

    def __iter__(self) -> Iterator[StatusDefinition]:
        return iter(self._definitions.values())

    def __len__(self) -> int:
        return len(self._definitions)

    @property
    def names(self) -> tuple[str, ...]:
        """All status names in table order."""
        return tuple(d.name for d in self._definitions.values())

    def methods_used(self) -> tuple[str, ...]:
        """All method names referenced by the table, in first-use order."""
        seen: dict[str, None] = {}
        for definition in self:
            seen.setdefault(definition.method.lower(), None)
        return tuple(seen)

    def variables_used(self) -> tuple[str, ...]:
        """All reference variables (e.g. ``UBATT``) used by the table."""
        seen: dict[str, None] = {}
        for definition in self:
            if definition.variable:
                seen.setdefault(definition.variable.upper(), None)
        return tuple(seen)

    def merged_with(self, other: "StatusTable", *, name: str | None = None) -> "StatusTable":
        """Combine two tables; conflicting redefinitions raise ``StatusError``.

        Identical redefinitions are tolerated so that a shared base library
        can be merged with project-specific additions.
        """
        merged = StatusTable(self, name=name or f"{self.name}+{other.name}")
        for definition in other:
            if definition.key in merged._definitions:
                if merged._definitions[definition.key] != definition:
                    raise StatusError(
                        f"conflicting definitions for status {definition.name!r}"
                    )
                continue
            merged.add(definition)
        return merged

    def rows(self) -> list[tuple[str, ...]]:
        """Table contents in the paper's column layout (without header)."""
        return [definition.as_row() for definition in self]

    def __repr__(self) -> str:
        return f"StatusTable(name={self.name!r}, statuses={list(self.names)!r})"
