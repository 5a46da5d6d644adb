"""XML test-script parsing (the interpreter's entry point).

The test stand side of the tool chain never sees the Excel sheets - it only
receives the generated XML file.  This module parses such a file back into
the in-memory :class:`~repro.core.script.TestScript` representation that the
interpreter (:mod:`repro.teststand.interpreter`) executes.

The parser is strict about structure (every ``<signal>`` must contain
exactly one method element, steps must be numbered increasingly) but liberal
about method names and their parameters: both are preserved verbatim so
that a stand with proprietary methods can still run scripts mentioning
them, and so that round-tripping a script through XML is loss-free.  The
parameters are checked where a script is run: :func:`repro.targets.run_single`
refuses a call that breaks its registered method's parameter schema.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import IO

from .errors import ScriptError
from .script import MethodCall, ScriptStep, SignalAction, TestScript
from .values import parse_number

__all__ = ["script_from_element", "script_from_string", "read_script"]


def _parse_signal(element: ET.Element, *, context: str) -> SignalAction:
    name = element.get("name")
    if not name:
        raise ScriptError(f"<signal> without a name attribute in {context}")
    children = list(element)
    if len(children) != 1:
        raise ScriptError(
            f"<signal name={name!r}> must contain exactly one method element "
            f"({len(children)} found) in {context}"
        )
    method_element = children[0]
    params = dict(method_element.attrib)
    return SignalAction(name, MethodCall(method_element.tag, params))


def _parse_step(element: ET.Element) -> ScriptStep:
    number_text = element.get("number")
    if number_text is None:
        raise ScriptError("<step> without a number attribute")
    try:
        number = int(number_text)
    except ValueError as exc:
        raise ScriptError(f"step number {number_text!r} is not an integer") from exc
    dt_text = element.get("dt", "0")
    try:
        duration = parse_number(dt_text)
    except Exception as exc:
        raise ScriptError(f"step {number}: cannot parse dt={dt_text!r}") from exc
    actions = [
        _parse_signal(signal, context=f"step {number}")
        for signal in element.findall("signal")
    ]
    return ScriptStep(
        number=number,
        duration=float(duration or 0.0),
        actions=tuple(actions),
        remark=element.get("remark", ""),
        requirement=element.get("requirement"),
    )


def script_from_element(root: ET.Element) -> TestScript:
    """Build a :class:`TestScript` from a parsed ``<testscript>`` element."""
    if root.tag != "testscript":
        raise ScriptError(f"expected <testscript> root element, got <{root.tag}>")
    name = root.get("name")
    dut = root.get("dut")
    if not name or not dut:
        raise ScriptError("<testscript> needs both name and dut attributes")

    description = ""
    metadata: dict[str, str] = {}
    variables: list[str] = []
    header = root.find("header")
    if header is not None:
        description_element = header.find("description")
        if description_element is not None and description_element.text:
            description = description_element.text.strip()
        for meta in header.findall("meta"):
            key = meta.get("name")
            if key:
                metadata[key] = meta.get("value", "")
        variables_element = header.find("variables")
        if variables_element is not None:
            for variable in variables_element.findall("variable"):
                var_name = variable.get("name")
                if var_name:
                    variables.append(var_name)

    setup: list[SignalAction] = []
    setup_element = root.find("setup")
    if setup_element is not None:
        setup = [
            _parse_signal(signal, context="setup")
            for signal in setup_element.findall("signal")
        ]

    steps: list[ScriptStep] = []
    steps_element = root.find("steps")
    if steps_element is not None:
        steps = [_parse_step(step) for step in steps_element.findall("step")]
    else:
        # Tolerate flat scripts with <step> children directly under the root.
        steps = [_parse_step(step) for step in root.findall("step")]

    return TestScript(
        name=name,
        dut=dut,
        steps=steps,
        setup=setup,
        variables=variables,
        metadata=metadata,
        description=description,
    )


def script_from_string(text: str) -> TestScript:
    """Parse a test script from its XML text."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ScriptError(f"malformed XML test script: {exc}") from exc
    return script_from_element(root)


def read_script(source: str | IO[str]) -> TestScript:
    """Read a test script from a file path or text stream."""
    if hasattr(source, "read"):
        return script_from_string(source.read())  # type: ignore[union-attr]
    with open(source, "r", encoding="utf-8") as handle:
        return script_from_string(handle.read())

