"""The paper's worked example and table renderings.

Every name below is imported from its submodule on first use (see
:mod:`repro._lazy`), so a campaign does not load the table renderings.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "cluster": (
        "cluster_harness", "cluster_signal_set", "cluster_status_table",
        "cluster_suite", "cluster_test_definitions",
    ),
    "composed": (
        "COMPOSITION_NAME", "composed_signal_set", "composed_status_table",
        "composed_suite", "composed_test_definitions",
    ),
    "example": (
        "PAPER_TEST_NAME", "build_paper_harness", "interior_harness",
        "compile_paper_script", "paper_can_database", "paper_signal_set",
        "paper_status_table", "paper_suite", "paper_test_definition",
        "paper_workbook", "paper_xml_snippet_action", "run_paper_example",
    ),
    "extended": (
        "build_locking_harness", "extended_suite", "extended_test_definitions",
        "locking_harness", "locking_signal_set", "locking_status_table",
        "locking_suite", "locking_test_definitions",
    ),
    "family": (
        "exterior_light_harness", "exterior_light_signal_set",
        "exterior_light_suite", "exterior_light_test_definitions",
        "family_status_table", "window_lifter_harness",
        "window_lifter_signal_set", "window_lifter_suite",
        "window_lifter_test_definitions", "wiper_harness", "wiper_signal_set",
        "wiper_suite", "wiper_test_definitions",
    ),
    "tables": (
        "render_connection_matrix", "render_resource_table",
        "render_status_table", "render_test_circuit",
        "render_test_definition_table",
    ),
})
