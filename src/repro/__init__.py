"""repro - test-stand-independent component testing.

A from-scratch reproduction of the tool chain described in

    Horst Brinkmeyer, "A New Approach to Component Testing",
    Proceedings of DATE 2005.

The package is organised along the paper's own split between test
*definition* and test *execution*, plus a registry layer that binds the two
together per device under test.  ``import repro`` imports none of the
subpackages below: each re-exported name (``repro.run_campaign``,
``repro.store``, ...) is imported on first use, so a run loads only the
modules it executes.

``repro.core``
    signal / status / test-definition model, compiler, XML generation and
    parsing, validation - the paper's contribution.
``repro.sheets``
    the worksheet front-end (three sheet types, CSV persistence).
``repro.methods``
    the shared method vocabulary (``put_r``, ``get_u``, ``put_can``, ...).
``repro.teststand``
    resources, connection matrix, allocation, interpreter, reports, and the
    job-based campaign executor: because compiled scripts are
    stand-independent and every run uses a fresh DUT/harness/stand, the
    (scripts x stands x fault models) cross product expands into independent
    ``Job`` specs that run on interchangeable serial / thread / process /
    async backends with a deterministic, insertion-ordered verdict
    aggregate (the async backend multiplexes many latency-simulated stands
    on one worker by awaiting instrument I/O).
``repro.instruments``
    virtual instruments (DVM, resistor decade, power supply, CAN ...),
    each with capability ranges and a per-call ``io_delay`` latency model.
``repro.dut``
    behavioural ECU models, electrical network, harness, CAN bus wiring.
``repro.can``
    frames, signal coding, message database, virtual bus.
``repro.analysis``
    coverage, traceability, reuse metrics, fault injection campaigns.
``repro.paper``
    the paper's worked example, the extended / second-project suites, the
    body-electronics family suites and the table/figure renderings.
``repro.targets``
    the public target registry and declarative campaign API: a
    :class:`~repro.targets.DutTarget` bundles everything execution needs to
    know about one DUT (ECU / harness / signal-set / fault-catalogue
    factories plus stand adapter pins), ``register_dut`` / ``register_stand``
    extend the registry, and :func:`~repro.targets.run_single` /
    :func:`~repro.targets.run_campaign` expand declarative
    :class:`~repro.targets.RunSpec` / :class:`~repro.targets.CampaignSpec`
    objects through the executor engine.  All six bundled body-electronics
    ECUs (interior light, central locking, window lifter, wiper, exterior
    light, instrument cluster) are registered with fault catalogues, so
    ``repro-campaign --dut <name>`` covers the whole family.
``repro.store``
    the persistent result store: execution reports and campaign results
    recorded into a normalized stdlib-``sqlite3`` database
    (``repro-campaign --store``, ``CampaignSpec(store=...)``), queryable
    and diffable, re-rendering verdict tables byte-identically.
``repro.service``
    campaign-as-a-service: a worker-thread job queue over the registry
    (``CampaignService``), a WSGI JSON API (``repro-serve``) and a static
    HTML report generator - not imported here so the base import stays
    light; ``import repro.service`` explicitly.
``repro.chaos``
    deterministic, seeded infrastructure fault injection (flaky
    instruments, hangs, glitched readings, dying pool workers, locked
    stores, crashing service workers) used to exercise the execution
    stack's resilience machinery - classified retries with backoff,
    per-job deadlines, stand quarantine and campaign checkpoint/resume
    (``repro-campaign --chaos-seed/--chaos-profile/--deadline/--resume``,
    see ``docs/robustness.md``).
"""

from ._lazy import lazy_exports

__version__ = "1.8.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".": ("core", "sheets", "methods", "teststand", "instruments", "dut",
          "can", "analysis", "paper", "targets", "store", "chaos"),
    "core": (
        "Signal", "SignalDirection", "SignalKind", "SignalSet",
        "StatusDefinition", "StatusTable", "TestDefinition", "TestSuite",
        "TestScript", "Compiler", "CompileOptions", "compile_test",
        "compile_suite", "script_to_string", "write_script", "parse_script",
        "read_script",
    ),
    "teststand": (
        "TestStand", "TestStandInterpreter", "run_script",
        "build_paper_stand", "build_big_rack", "build_minimal_bench",
        "ResiliencePolicy",
    ),
    "targets": (
        "DutTarget", "StandTarget", "TargetError", "CapabilityGapError",
        "SignalDerivationWarning", "method_coverage",
        "register_dut", "register_stand",
        "RunSpec", "CampaignSpec", "run_single", "run_campaign",
    ),
    "chaos": ("ChaosPolicy", "ChaosProfile"),
})
__all__.insert(0, "__version__")
