"""Analysis extensions: coverage, traceability, reuse metrics, fault injection.

Every name below is imported from its submodule on first use (see
:mod:`repro._lazy`), so a fault campaign loads neither the coverage, the
reuse nor the traceability analysis.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "campaign": ("CampaignResult", "FaultCampaign", "FaultRunOutcome"),
    "coverage": ("CoverageReport", "compute_coverage"),
    "faults": (
        "FaultCatalogue", "FaultModel", "central_locking_faults",
        "exterior_light_faults", "interior_light_faults",
        "window_lifter_faults", "wiper_faults",
    ),
    "reuse": (
        "ReuseReport", "compare_suites", "script_portability",
        "vocabulary_reuse",
    ),
    "traceability": (
        "Requirement", "RequirementCatalogue", "TraceabilityReport",
        "trace_requirements",
    ),
})
