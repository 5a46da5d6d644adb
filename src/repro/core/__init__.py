"""Core test-definition model and tool chain (the paper's contribution).

Every name below is imported from its submodule on first use (see
:mod:`repro._lazy`), so reading a script does not load the compiler,
the XML generator or the validator.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "compiler": ("CompileOptions", "Compiler", "compile_suite", "compile_test"),
    "errors": (
        "AllocationError", "CapabilityError", "CompileError", "DefinitionError",
        "ExecutionError", "ExpressionError", "HarnessError", "InstrumentError",
        "MethodError", "ReproError", "RoutingError", "ScriptError",
        "SheetError", "SignalError", "StatusError",
    ),
    "script": ("MethodCall", "ScriptStep", "SignalAction", "TestScript"),
    "signals": ("Signal", "SignalDirection", "SignalKind", "SignalSet"),
    "status": ("StatusDefinition", "StatusTable"),
    "testdef": ("StatusAssignment", "TestDefinition", "TestStep", "TestSuite"),
    "validation": (
        "Issue", "Severity", "assert_valid", "validate_script", "validate_suite",
    ),
    "values": (
        "INFINITY", "Interval", "LimitExpression", "Quantity",
        "format_binary", "format_number", "parse_binary", "parse_number",
    ),
    "xmlgen": ("script_to_string", "signal_fragment", "write_script"),
    "xmlparse": ("parse_script", "read_script", "script_from_string"),
})
