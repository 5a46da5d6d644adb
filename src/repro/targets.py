"""First-class target registry and declarative campaign API.

The paper's claim is that test definitions are reusable across DUTs and
stands; this module makes the *wiring knowledge* that execution needs - how
to build a DUT's harness, which signal set and fault catalogue belong to
it, which adapter pins a configurable stand must be wired to - a public,
extensible registry instead of private CLI tables:

:class:`DutTarget` / :func:`register_dut`
    everything needed to execute tests against one DUT type (all factories
    are module-level callables, so campaign jobs stay picklable for the
    process backend),
:class:`StandTarget` / :func:`register_stand`
    a test-stand builder plus whether it accepts a DUT adapter pin list,
:class:`CompositionTarget` / :func:`register_composition`
    several registered DUTs on one shared CAN bus, served by the same run
    and campaign paths as a DUT (:func:`get_target` finds either by name),
:class:`RunSpec` / :func:`run_single`
    declarative single-script execution,
:class:`CampaignSpec` / :func:`run_campaign`
    declarative fault-injection campaigns, expanded through the job engine
    in :mod:`repro.teststand.executor` (verdict tables stay byte-identical
    across backends and worker counts),
:func:`derive_signal_set`
    fallback signal-sheet derivation for scripts whose DUT has no (or an
    incomplete) registered signal set.

Both target kinds also record the two halves of the *stand capability
negotiation*: a :class:`StandTarget` probes its builder once, at
registration, for the methods its resources support; a :class:`DutTarget`
or :class:`CompositionTarget` derives the methods its compiled bundled
suite uses on first read of ``required_methods``.  :func:`run_single`
and :func:`build_campaign` match the two and reject impossible requests
(e.g. a ``get_i`` sheet on a stand without an ammeter) with a structured
:class:`CapabilityGapError` *before* any job is built;
:func:`method_coverage` exposes the same matrix to ``repro-campaign
--list-targets``.

All six bundled ECUs (the instrument cluster among them) and all three
bundled stands are registered at import time, so ``repro-campaign`` covers
the whole body-electronics family.  Both registration helpers are
decorator-friendly::

    @register_stand("lab_bench", adaptable=True)
    def build_lab_bench(pins=PAPER_PINS): ...

    @register_dut(name="blink_ecu", harness_factory=blink_harness,
                  signals_factory=blink_signal_set)
    class BlinkEcu(EcuModel): ...
"""

from __future__ import annotations

import functools
import time
import warnings
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from . import chaos as _chaos
from . import dut as _dut
from ._record import Record

from .analysis.campaign import CampaignResult, FaultCampaign
from .analysis.faults import (
    FaultCatalogue,
    FaultModel,
    central_locking_faults,
    exterior_light_faults,
    instrument_cluster_faults,
    interaction_faults,
    interior_light_faults,
    window_lifter_faults,
    wiper_faults,
)
from .core.errors import ConfigurationError, ReproError
from .core.compiler import Compiler
from .core.script import TestScript
from .core.signals import Signal, SignalDirection, SignalKind, SignalSet
from .core.testdef import TestSuite
from .dut.central_locking import CentralLockingEcu
from .dut.exterior_light import ExteriorLightEcu
from .dut.harness import TestHarness
from .dut.instrument_cluster import InstrumentClusterEcu
from .dut.interior_light import InteriorLightEcu
from .dut.window_lifter import WindowLifterEcu
from .dut.wiper import WiperEcu
from .methods import default_registry
from .paper.cluster import cluster_harness, cluster_signal_set, cluster_suite
from .paper.example import interior_harness, paper_signal_set
from .paper.extended import (
    extended_suite,
    locking_harness,
    locking_signal_set,
    locking_suite,
)
from .paper.family import (
    exterior_light_harness,
    exterior_light_signal_set,
    exterior_light_suite,
    window_lifter_harness,
    window_lifter_signal_set,
    window_lifter_suite,
    wiper_harness,
    wiper_signal_set,
    wiper_suite,
)
from .teststand.executor import (
    Executor,
    ResiliencePolicy,
    make_executor,
    registry_changed,
)
from .teststand.interpreter import TestStandInterpreter
from .teststand.plan import action_is_measurement
from .teststand.profiling import PROFILER
from .teststand.stands import (
    TestStand,
    build_big_rack,
    build_minimal_bench,
    build_paper_stand,
)
from .teststand.verdict import TestResult

if TYPE_CHECKING:
    from .dut.composition import CompositionHarness, EcuAssembly

__all__ = [
    "TargetError",
    "CapabilityGapError",
    "SignalDerivationWarning",
    "DutTarget",
    "StandTarget",
    "CompositionMember",
    "CompositionTarget",
    "register_dut",
    "register_stand",
    "register_composition",
    "unregister_dut",
    "unregister_stand",
    "unregister_composition",
    "get_dut",
    "get_stand",
    "get_composition",
    "get_target",
    "dut_names",
    "stand_names",
    "composition_names",
    "iter_compositions",
    "adaptable_stand_names",
    "campaignable_dut_names",
    "iter_duts",
    "iter_stands",
    "stand_factory_for",
    "stand_factories_for",
    "default_stand_for",
    "method_coverage",
    "unresolved_signal_message",
    "derive_signal_set",
    "signal_set_for_script",
    "PREFLIGHT_MODES",
    "RunSpec",
    "run_single",
    "CampaignSpec",
    "select_faults",
    "build_campaign",
    "run_campaign",
]


class TargetError(ReproError):
    """A registry lookup or spec expansion failed.

    Permanent by definition (``transient = False``): an unknown DUT or a
    capability gap looks exactly the same on every attempt, so the
    executor's retry machinery (:func:`repro.core.errors.is_transient`)
    fails such jobs fast instead of burning attempts.
    """

    transient = False


class CapabilityGapError(TargetError):
    """A stand has no resource for a method the requested scripts need.

    Raised by :func:`run_single` / :func:`build_campaign` *before* any job
    is built or executed: what used to surface mid-campaign as per-action
    ERROR verdicts (an allocation failure deep inside the interpreter) is
    now a structured pre-flight error.  The CLI maps it - like every other
    :class:`TargetError` - to exit code 2 (infrastructure, not a verdict).

    Attributes
    ----------
    stand:
        Name of the stand that cannot serve the request.
    missing:
        The required method names the stand has no resource for.
    dut:
        DUT whose scripts raised the requirement (``None`` for anonymous
        scripts).
    supported:
        The methods the stand *does* support (from its registration-time
        coverage record).
    """

    def __init__(self, stand: str, missing: Sequence[str], *,
                 dut: str | None = None, supported: Sequence[str] = ()):
        self.stand = str(stand)
        self.missing = tuple(missing)
        self.dut = dut
        self.supported = tuple(supported)
        what = f"the {dut} scripts" if dut else "the requested scripts"
        super().__init__(
            f"test stand {self.stand!r} has no resource for method(s) "
            f"{', '.join(repr(m) for m in self.missing)} required by {what}; "
            f"stand methods: {', '.join(self.supported) or '(none)'}"
        )


# ---------------------------------------------------------------------------
# Registry model
# ---------------------------------------------------------------------------

#: A suite as campaigns read it: its DUT name, signal sheet and scripts.
_CompiledSuite = tuple[str, SignalSet, tuple[TestScript, ...]]


def _compile(suite: TestSuite) -> _CompiledSuite:
    return suite.dut, suite.signals, tuple(Compiler().compile_suite(suite))


def _bundled_suite(target: "Target") -> _CompiledSuite:
    """The target's bundled suite, built and compiled on first read.

    Scripts are values, so every campaign of the target runs the same
    ones, and the capability negotiation and the target listings read
    them too; the :class:`~repro.core.testdef.TestSuite` itself is not
    kept.  A failed build or compile is not kept: the next read tries
    again.  Two threads reading it first may both compile it
    (``functools.cached_property`` takes no lock from Python 3.12 on);
    the results are equal, and the last is kept.
    """
    if target.suite_factory is None:
        raise TargetError(
            f"DUT {target.name!r} has no bundled test suite; pass a workbook"
        )
    return _compile(target.suite_factory())


def _suite_methods(target: "Target") -> tuple[str, ...] | None:
    """Methods the target's bundled suite needs a stand resource for.

    The union of the compiled scripts' ``methods_used()``, lower-cased and
    sorted: one half of the stand capability negotiation,
    :attr:`StandTarget.methods` being the other.  Derived on first read,
    so registering a target builds no suite.  ``None`` when no suite is
    bundled or it fails to build or compile.
    """
    try:
        _, _, scripts = target._bundled
    except Exception:
        return None
    return tuple(sorted({
        method for script in scripts for method in script.methods_used()
    }))


class DutTarget(Record):
    """Everything execution needs to know about one DUT type.

    Attributes
    ----------
    name:
        DUT name as it appears in scripts and workbooks (``script.dut``).
    ecu_factory:
        Builds a fresh healthy ECU model.
    harness_factory:
        Wires a (possibly faulty) ECU instance into its test harness.
    signals_factory:
        Builds the DUT's bundled signal definition sheet.
    faults_factory:
        Builds the DUT's fault catalogue; ``None`` when no seeded defects
        are bundled (the DUT is then not campaignable).
    suite_factory:
        Builds the DUT's bundled test suite, which campaigns run when no
        suite or workbook is given; the target builds and compiles it
        once, on first use.
    pins:
        DUT adapter: the pin list configurable stands must be wired to.
        ``None`` means the paper's default pinning, which every bundled
        stand carries.
    description:
        Free text for listings.
    required_methods:
        Methods the DUT's bundled suite needs a stand resource for (see
        :func:`_suite_methods`), derived from the compiled suite on first
        read.

    All factories should be module-level callables so campaign jobs remain
    picklable for the process backend.
    """

    name: str
    ecu_factory: Callable[[], object]
    harness_factory: Callable[[object], TestHarness]
    signals_factory: Callable[[], SignalSet]
    faults_factory: Callable[[], FaultCatalogue] | None = None
    suite_factory: Callable[[], TestSuite] | None = None
    pins: tuple[str, ...] | None = None
    description: str = ""

    _bundled = functools.cached_property(_bundled_suite)
    required_methods = functools.cached_property(_suite_methods)

    def __init__(self, name: str, ecu_factory: Callable[[], object],
                 harness_factory: Callable[[object], TestHarness],
                 signals_factory: Callable[[], SignalSet],
                 faults_factory: Callable[[], FaultCatalogue] | None = None,
                 suite_factory: Callable[[], TestSuite] | None = None,
                 pins: Iterable[str] | None = None,
                 description: str = "") -> None:
        if not str(name).strip():
            raise TargetError("DUT target needs a name")
        if pins is not None:
            pins = tuple(pins)
        self.__dict__.update(
            name=name, ecu_factory=ecu_factory,
            harness_factory=harness_factory, signals_factory=signals_factory,
            faults_factory=faults_factory, suite_factory=suite_factory,
            pins=pins, description=description)

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def campaignable(self) -> bool:
        """Whether the target bundles a fault catalogue."""
        return self.faults_factory is not None

    def build_harness(self) -> TestHarness:
        """A fresh healthy ECU wired into its harness."""
        return self.harness_factory(self.ecu_factory())


class StandTarget(Record):
    """One registered test stand builder.

    ``adaptable`` stands accept a DUT adapter pin list as their first
    positional argument; non-adaptable stands (the paper stand with its
    fixed switching matrix) only carry the paper's default pinning.

    ``methods`` is the stand's method coverage, computed at registration
    time by building the stand once (with its default pinning) and reading
    its resource table.  A stand's resources do not depend on the adapter
    pins, so one probe build is representative; ``None`` records that the
    builder could not be probed (coverage unknown - the pre-flight check
    then degrades to the old allocation-time behaviour).
    """

    name: str
    builder: Callable[..., TestStand]
    adaptable: bool = False
    description: str = ""
    methods: tuple[str, ...] | None = None

    def __init__(self, name: str, builder: Callable[..., TestStand],
                 adaptable: bool = False, description: str = "",
                 methods: Iterable[str] | None = None) -> None:
        if not str(name).strip():
            raise TargetError("stand target needs a name")
        if methods is None:
            try:
                probed = sorted(
                    m.lower() for m in builder().methods_supported()
                )
            except Exception:
                probed = None
            methods = tuple(probed) if probed is not None else None
        else:
            methods = tuple(str(m).lower() for m in methods)
        self.__dict__.update(name=name, builder=builder, adaptable=adaptable,
                             description=description, methods=methods)

    @property
    def key(self) -> str:
        return self.name.lower()

    def missing_methods(self, required: Iterable[str]) -> tuple[str, ...]:
        """The *required* methods this stand has no resource for.

        ``wait`` is never missing (the interpreter serves it without a
        resource).  With unknown coverage (``methods is None``) nothing can
        be reported missing.
        """
        if self.methods is None:
            return ()
        return tuple(
            m for m in dict.fromkeys(str(r).lower() for r in required)
            if m != "wait" and m not in self.methods
        )

    def factory_for(self, pins: Sequence[str] | None = None) -> Callable[[], TestStand]:
        """A picklable zero-argument stand factory wired to *pins*.

        ``None`` keeps the builder's default (paper) pinning.  Requesting
        pins from a non-adaptable stand raises :class:`TargetError`.
        """
        if pins is None:
            return self.builder
        if not self.adaptable:
            raise TargetError(
                f"stand {self.name!r} has no DUT adapter; "
                f"use one of {sorted(adaptable_stand_names())}"
            )
        return AdaptedStandFactory(self.builder, tuple(pins))


class AdaptedStandFactory(Record):
    """Zero-argument stand factory: a module-level *builder* wired to *pins*.

    Unlike a ``functools.partial`` (which hashes by identity) it is a value:
    equal and hash-equal whenever builder and pins are, also after a pickle
    round trip.  The executor's per-worker stand pools are keyed by stand
    factory, so every campaign and every process-pool chunk asking for the
    same adapted stand leases the one already built.
    """

    builder: Callable[..., TestStand]
    pins: tuple[str, ...]

    def __init__(self, builder: Callable[..., TestStand],
                 pins: tuple[str, ...]) -> None:
        self.__dict__.update(builder=builder, pins=pins)

    def __call__(self) -> TestStand:
        return self.builder(self.pins)


# Every registration change below calls ``registry_changed()``: process-pool
# workers keep the registry copy they forked with, so the next process batch
# must run on workers forked after the change.
_DUTS: dict[str, DutTarget] = {}
_STANDS: dict[str, StandTarget] = {}


def register_dut(target: DutTarget | None = None, *, replace_existing: bool = False,
                 **fields):
    """Register a :class:`DutTarget` (directly or as a class decorator).

    Called with a ready-made target it registers and returns it.  Called
    with keyword fields only, it returns a decorator that uses the
    decorated callable (typically the ECU class) as the ``ecu_factory``
    and its ``NAME`` attribute as the default name::

        @register_dut(harness_factory=my_harness, signals_factory=my_signals)
        class MyEcu(EcuModel): ...
    """
    if target is not None:
        if not isinstance(target, DutTarget):
            raise TargetError(f"expected a DutTarget, got {type(target).__name__}")
        if target.key in _DUTS and not replace_existing:
            raise TargetError(f"DUT target {target.name!r} is already registered")
        if target.key in _COMPOSITIONS:
            raise TargetError(
                f"DUT target {target.name!r} clashes with a composition")
        _DUTS[target.key] = target
        registry_changed()
        return target

    def _decorate(ecu_factory):
        name = fields.pop("name", None) or getattr(ecu_factory, "NAME", None)
        if not name:
            raise TargetError(
                "register_dut needs a name= field or an ecu factory with a NAME"
            )
        register_dut(DutTarget(name=name, ecu_factory=ecu_factory, **fields),
                     replace_existing=replace_existing)
        return ecu_factory

    return _decorate


def register_stand(name: str, builder: Callable[..., TestStand] | None = None, *,
                   adaptable: bool = False, description: str = "",
                   replace_existing: bool = False):
    """Register a stand builder (directly or as a decorator).

    ``register_stand("big_rack", build_big_rack, adaptable=True)`` registers
    immediately; omitting *builder* returns a decorator for the builder
    function.  Both forms return the builder unchanged, so the name being
    assigned or decorated stays a callable; use :func:`get_stand` for the
    registered :class:`StandTarget`.
    """
    def _register(fn: Callable[..., TestStand]):
        target = StandTarget(name, fn, adaptable=adaptable, description=description)
        if target.key in _STANDS and not replace_existing:
            raise TargetError(f"stand target {name!r} is already registered")
        _STANDS[target.key] = target
        registry_changed()
        return fn

    if builder is None:
        return _register
    return _register(builder)


def unregister_dut(name: str) -> DutTarget:
    """Remove a DUT target from the registry (mainly for tests/plugins)."""
    try:
        target = _DUTS.pop(str(name).lower())
    except KeyError as exc:
        raise TargetError(f"no registered DUT target {name!r}") from exc
    registry_changed()
    return target


def unregister_stand(name: str) -> StandTarget:
    """Remove a stand target from the registry (mainly for tests/plugins)."""
    try:
        target = _STANDS.pop(str(name).lower())
    except KeyError as exc:
        raise TargetError(f"no registered stand target {name!r}") from exc
    registry_changed()
    return target


def get_dut(name: str) -> DutTarget:
    """Look a DUT target up by (case-insensitive) name."""
    try:
        return _DUTS[str(name).lower()]
    except KeyError as exc:
        raise TargetError(
            f"unknown DUT {name!r}; registered DUTs: {sorted(_DUTS)}"
        ) from exc


def get_stand(name: str) -> StandTarget:
    """Look a stand target up by (case-insensitive) name."""
    try:
        return _STANDS[str(name).lower()]
    except KeyError as exc:
        raise TargetError(
            f"unknown stand {name!r}; registered stands: {sorted(_STANDS)}"
        ) from exc


def dut_names() -> tuple[str, ...]:
    """Registered DUT names, sorted."""
    return tuple(sorted(target.name for target in _DUTS.values()))


def stand_names() -> tuple[str, ...]:
    """Registered stand names, sorted."""
    return tuple(sorted(target.name for target in _STANDS.values()))


def adaptable_stand_names() -> tuple[str, ...]:
    """Names of the stands that accept a DUT adapter pin list, sorted."""
    return tuple(sorted(t.name for t in _STANDS.values() if t.adaptable))


def campaignable_dut_names() -> tuple[str, ...]:
    """Names of the DUTs that bundle a fault catalogue, sorted."""
    return tuple(sorted(t.name for t in _DUTS.values() if t.campaignable))


def iter_duts() -> tuple[DutTarget, ...]:
    """All registered DUT targets in registration order."""
    return tuple(_DUTS.values())


def iter_stands() -> tuple[StandTarget, ...]:
    """All registered stand targets in registration order."""
    return tuple(_STANDS.values())


def stand_factory_for(stand: str | StandTarget,
                      dut: str | Target) -> Callable[[], TestStand]:
    """A picklable stand factory wired to the target's adapter pins."""
    stand_target = get_stand(stand) if isinstance(stand, str) else stand
    dut_target = get_target(dut) if isinstance(dut, str) else dut
    try:
        return stand_target.factory_for(dut_target.pins)
    except TargetError as exc:
        raise TargetError(f"{exc} (DUT {dut_target.name!r})") from None


def default_stand_for(dut: str | Target) -> str:
    """The default stand name for a target: paper pinning gets the paper
    stand, adapter-bearing DUTs and every composition (whose adapter is the
    union of its members') get the first *registered* adaptable stand.

    Registration order (not alphabetical order) decides, so registering an
    additional adaptable stand later does not silently shift the default
    for existing DUTs.
    """
    dut_target = get_target(dut) if isinstance(dut, str) else dut
    if dut_target.pins is None and "paper" in _STANDS:
        return _STANDS["paper"].name
    for stand in _STANDS.values():
        if stand.adaptable:
            return stand.name
    raise TargetError(
        f"no registered stand carries an adapter for DUT {dut_target.name!r}"
    )


def stand_factories_for(dut: str | Target,
                        stands: Sequence[str] | None = None
                        ) -> dict[str, Callable[[], TestStand]]:
    """Label -> picklable stand factory for every stand usable with *dut*.

    By default every registered stand that can carry the target's adapter
    is included - the input for a portability batch
    (:func:`repro.teststand.run_across_stands`).
    """
    dut_target = get_target(dut) if isinstance(dut, str) else dut
    wanted = (get_stand(name) for name in stands) if stands is not None \
        else iter_stands()
    factories: dict[str, Callable[[], TestStand]] = {}
    for stand_target in wanted:
        if dut_target.pins is not None and not stand_target.adaptable:
            if stands is not None:
                raise TargetError(
                    f"stand {stand_target.name!r} has no DUT adapter "
                    f"(DUT {dut_target.name!r})"
                )
            continue
        factories[stand_target.name] = stand_target.factory_for(dut_target.pins)
    return factories


# ---------------------------------------------------------------------------
# Multi-ECU compositions
# ---------------------------------------------------------------------------

class CompositionMember(Record):
    """One member slot of a composition: a short alias bound to a DUT.

    The alias is the member's address inside the composition - in fault
    names (``cluster.speed_tx_truncated``), on the shared CAN bus (the
    member's node name) and in diagnostics.
    """

    alias: str
    dut: str

    def __init__(self, alias: str, dut: str) -> None:
        if not str(alias).strip():
            raise TargetError("composition member needs an alias")
        if not str(dut).strip():
            raise TargetError("composition member needs a DUT name")
        self.__dict__.update(alias=str(alias).strip().lower(),
                             dut=str(dut).strip())


class CompositionTarget(Record):
    """Several registered DUTs campaigned together on one shared CAN bus.

    A composition is one more target: it carries the factories, adapter
    pins, suite and catalogue a :class:`DutTarget` does, so
    :func:`run_single` and :func:`build_campaign` serve both kinds with one
    body.  It references its members by *registered DUT name*, so the
    member wiring knowledge (harness factory, adapter pins, fault
    catalogue) stays in one place - the :class:`DutTarget` registry.  What
    the composition adds:

    ``suite_factory``
        the interaction suite, whose signal sheet names the composition in
        ``SignalSet.composition``,
    ``faults_factory``
        the composed catalogue: every member fault - bundled and
        *interaction* faults (:func:`repro.analysis.faults.interaction_faults`)
        alike - addressed per member as ``alias.fault_name``,
    ``pins``
        the union of the member adapters, which is what an adaptable stand
        must be wired to,
    ``expected_overrides``
        per-composed-fault detection expectations where the composed suite's
        coverage differs from the member suite's (``(("cluster.gauge_stuck_zero",
        False),)`` - the interaction sheets never probe the gauge).

    All factories stay module-level/partial-of-module-level over the
    registry name, so composed campaign jobs remain picklable for the
    process backend.
    """

    name: str
    members: tuple[CompositionMember, ...]
    suite_factory: Callable[[], TestSuite]
    description: str = ""
    expected_overrides: tuple[tuple[str, bool], ...] = ()

    _bundled = functools.cached_property(_bundled_suite)
    required_methods = functools.cached_property(_suite_methods)

    def __init__(self, name: str, members: Iterable[CompositionMember],
                 suite_factory: Callable[[], TestSuite],
                 description: str = "",
                 expected_overrides: Iterable[tuple[str, bool]] = ()) -> None:
        if not str(name).strip():
            raise TargetError("composition target needs a name")
        members = tuple(
            member if isinstance(member, CompositionMember)
            else CompositionMember(*member)
            for member in members
        )
        if len(members) < 2:
            raise TargetError(
                f"composition {name!r} needs at least two members"
            )
        aliases = [member.alias for member in members]
        if len(set(aliases)) != len(aliases):
            raise TargetError(
                f"composition {name!r} has duplicate member aliases"
            )
        self.__dict__.update(
            name=name, members=members, suite_factory=suite_factory,
            description=description,
            expected_overrides=tuple((str(key).lower(), bool(value))
                                     for key, value in expected_overrides))

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def campaignable(self) -> bool:
        """Compositions always campaign: members bring their catalogues."""
        return True

    @property
    def ecu_factory(self) -> Callable[[], EcuAssembly]:
        """Builds a healthy member assembly."""
        return functools.partial(_build_assembly, self.name)

    @property
    def harness_factory(self) -> Callable[[EcuAssembly], CompositionHarness]:
        """Wires an assembly's members onto one shared bus."""
        return functools.partial(_build_composition_harness, self.name)

    def signals_factory(self) -> SignalSet:
        """The interaction sheet of the bundled suite."""
        return self._bundled[1]

    def member_for(self, alias: str) -> CompositionMember:
        wanted = str(alias).lower()
        for member in self.members:
            if member.alias == wanted:
                return member
        raise TargetError(
            f"composition {self.name!r} has no member {alias!r} "
            f"(members: {', '.join(m.alias for m in self.members)})"
        )

    def dut_targets(self) -> tuple[tuple[CompositionMember, DutTarget], ...]:
        """(member, registered DUT target) pairs in member order."""
        return tuple(
            (member, get_dut(member.dut)) for member in self.members
        )

    @property
    def pins(self) -> tuple[str, ...]:
        """Union of the member adapter pin lists, in member order.

        Cross-member pin collisions are a definition error here (and an
        ``M-PIN-COLLISION`` lint finding); every member must declare an
        explicit adapter so the union is well defined.
        """
        owners: dict[str, str] = {}
        pins: list[str] = []
        for member, target in self.dut_targets():
            if target.pins is None:
                raise TargetError(
                    f"composition {self.name!r}: member {member.alias!r} "
                    f"(DUT {target.name!r}) declares no adapter pin list"
                )
            for pin in target.pins:
                owner = owners.get(pin.lower())
                if owner is not None:
                    raise TargetError(
                        f"composition {self.name!r}: adapter pin {pin!r} of "
                        f"member {member.alias!r} collides with member "
                        f"{owner!r}"
                    )
                owners[pin.lower()] = member.alias
                pins.append(pin)
        return tuple(pins)

    def member_fault(self, alias: str, fault: str) -> FaultModel:
        """Resolve ``alias``'s fault *fault* - bundled catalogue first, then
        the member's interaction faults."""
        member = self.member_for(alias)
        source = _member_faults(get_dut(member.dut))
        for model in source:
            if model.name.lower() == str(fault).lower():
                return model
        known = [f"{member.alias}.{model.name}" for model in source]
        raise TargetError(
            f"composition {self.name!r}: member {alias!r} has no fault "
            f"{fault!r}; known member faults: {', '.join(known) or '(none)'}"
        )

    def build_assembly(self, faulty: Mapping[str, str] | None = None
                       ) -> EcuAssembly:
        """A fresh member assembly, optionally with some members faulted.

        *faulty* maps member alias -> member fault name; members not named
        are built healthy.
        """
        faulted = {
            str(alias).lower(): str(name)
            for alias, name in (faulty or {}).items()
        }
        unknown = set(faulted) - {member.alias for member in self.members}
        if unknown:
            raise TargetError(
                f"composition {self.name!r} has no member(s) "
                f"{', '.join(sorted(unknown))}"
            )
        built = []
        for member, target in self.dut_targets():
            fault_name = faulted.get(member.alias)
            if fault_name is None:
                ecu = target.ecu_factory()
            else:
                ecu = self.member_fault(member.alias, fault_name).build()
            built.append((member.alias, ecu))
        return _dut.EcuAssembly(built, name=self.name)

    def faults_factory(self) -> FaultCatalogue:
        """The composed fault catalogue, addressed per member.

        Every bundled member fault and every member interaction fault
        appears as ``alias.fault_name``; the fault factory rebuilds the
        whole assembly with exactly that member faulted (picklable via
        :func:`functools.partial` over registry names).
        """
        overrides = dict(self.expected_overrides)
        entries = []
        for member, target in self.dut_targets():
            for fault in _member_faults(target):
                key = f"{member.alias}.{fault.name}"
                entries.append(FaultModel(
                    key,
                    f"[{member.alias}] {fault.description}",
                    functools.partial(_build_member_faulted_assembly,
                                      self.name, member.alias, fault.name),
                    expected_detected=overrides.get(
                        key.lower(), fault.expected_detected),
                ))
        return FaultCatalogue(self.name, entries)


#: Either kind of target: both carry the factories, adapter pins, suite and
#: catalogue that runs and campaigns read.
Target = DutTarget | CompositionTarget

_COMPOSITIONS: dict[str, CompositionTarget] = {}


def register_composition(target: CompositionTarget, *,
                         replace_existing: bool = False) -> CompositionTarget:
    """Register a :class:`CompositionTarget`."""
    if not isinstance(target, CompositionTarget):
        raise TargetError(
            f"expected a CompositionTarget, got {type(target).__name__}"
        )
    if target.key in _COMPOSITIONS and not replace_existing:
        raise TargetError(
            f"composition target {target.name!r} is already registered"
        )
    if target.key in _DUTS:
        raise TargetError(
            f"composition target {target.name!r} clashes with a DUT")
    _COMPOSITIONS[target.key] = target
    registry_changed()
    return target


def unregister_composition(name: str) -> CompositionTarget:
    """Remove a composition target (mainly for tests/plugins)."""
    try:
        target = _COMPOSITIONS.pop(str(name).lower())
    except KeyError as exc:
        raise TargetError(f"no registered composition target {name!r}") from exc
    registry_changed()
    return target


def get_composition(name: str) -> CompositionTarget:
    """Look a composition target up by (case-insensitive) name."""
    try:
        return _COMPOSITIONS[str(name).lower()]
    except KeyError as exc:
        raise TargetError(
            f"unknown composition {name!r}; registered compositions: "
            f"{sorted(_COMPOSITIONS)}"
        ) from exc


def get_target(name: str) -> Target:
    """The composition or DUT registered under *name* (case-insensitive).

    A script or suite names its target in one ``dut`` field; registration
    keeps the two namespaces disjoint, so the lookup is never ambiguous.
    """
    composition = _COMPOSITIONS.get(str(name).lower())
    return composition if composition is not None else get_dut(name)


def composition_names() -> tuple[str, ...]:
    """Registered composition names, sorted."""
    return tuple(sorted(target.name for target in _COMPOSITIONS.values()))


def iter_compositions() -> tuple[CompositionTarget, ...]:
    """All registered composition targets in registration order."""
    return tuple(_COMPOSITIONS.values())


def _member_faults(target: DutTarget) -> list[FaultModel]:
    """A member's bundled faults, then its interaction faults."""
    bundled = target.faults_factory() if target.faults_factory else ()
    return [*bundled, *interaction_faults(target.name)]


# Module-level assembly/harness builders: ``functools.partial`` over these
# (with registry *names*, never live objects) is what keeps composed
# campaign jobs picklable for the process backend.

def _build_assembly(composition: str) -> EcuAssembly:
    """A healthy member assembly of the named composition."""
    return get_composition(composition).build_assembly()


def _build_member_faulted_assembly(composition: str, alias: str,
                                   fault: str) -> EcuAssembly:
    """The named composition's assembly with one member faulted."""
    return get_composition(composition).build_assembly({alias: fault})


def _build_composition_harness(composition: str,
                               assembly: EcuAssembly) -> CompositionHarness:
    """Member harnesses (from their registered factories) on one shared bus."""
    comp = get_composition(composition)
    harnesses = {
        member.alias: target.harness_factory(assembly.member(member.alias))
        for member, target in comp.dut_targets()
    }
    return _dut.CompositionHarness(assembly, harnesses)


# ---------------------------------------------------------------------------
# Stand capability negotiation
# ---------------------------------------------------------------------------

def _require_method_coverage(stand_target: StandTarget,
                             required: Iterable[str], *,
                             dut: str | None = None) -> None:
    """Raise :class:`CapabilityGapError` when *stand_target* cannot serve
    *required* methods; a no-op when the stand's coverage is unknown."""
    missing = stand_target.missing_methods(required)
    if missing:
        raise CapabilityGapError(
            stand_target.name, missing, dut=dut,
            supported=stand_target.methods or (),
        )


def method_coverage(dut: str | Target) -> dict[str, tuple[str, ...] | None]:
    """Per-stand method coverage for *dut*'s bundled suite.

    For every registered stand that can carry the DUT's adapter, the value
    is the tuple of bundled-suite methods the stand has **no** resource for
    (empty tuple = full coverage), or ``None`` when coverage cannot be
    judged (the DUT bundles no suite, its suite factory failed, or the
    stand's builder could not be probed).  Stands without an adapter for
    the DUT do not appear at all.  This is what ``repro-campaign
    --list-targets`` prints per DUT.
    """
    dut_target = get_target(dut) if isinstance(dut, str) else dut
    coverage: dict[str, tuple[str, ...] | None] = {}
    for stand in iter_stands():
        if dut_target.pins is not None and not stand.adaptable:
            continue
        if dut_target.required_methods is None or stand.methods is None:
            coverage[stand.name] = None
        else:
            coverage[stand.name] = stand.missing_methods(
                dut_target.required_methods
            )
    return coverage


# ---------------------------------------------------------------------------
# Signal-set derivation
# ---------------------------------------------------------------------------

class SignalDerivationWarning(UserWarning):
    """A script signal resolved to neither a DUT pin nor a CAN message.

    Issued (once per distinct message) by :func:`derive_signal_set`, so
    callers can filter or assert on derivation problems with the standard
    :mod:`warnings` machinery instead of scraping stderr.
    """


def unresolved_signal_message(signal: str, owner: str, dut: str) -> str:
    """The canonical "signal does not resolve" diagnostic text.

    Single source of truth for the condition that a signal name maps to
    neither a DUT pin nor a CAN message: :func:`derive_signal_set` reports
    it as a run-time :class:`SignalDerivationWarning`, and the static
    analyzer's ``E-UNRESOLVED-SIGNAL`` rule (:mod:`repro.lint`) reports the
    same condition at lint time.  *owner* names the artefact the signal
    belongs to (e.g. ``"script 'lights_on'"`` or ``"the registered signal
    set"``); callers append their own consequence clause.
    """
    return (
        f"signal {signal!r} of {owner} resolves to "
        f"neither a pin of DUT {dut!r} nor a CAN message"
    )


def _warn_default(message: str) -> None:
    # Frames above warnings.warn: _warn_default (1), derive_signal_set's
    # _report closure (2), derive_signal_set (3), its caller (4) - attribute
    # the warning to the caller, not to this module's internals.
    warnings.warn(message, SignalDerivationWarning, stacklevel=4)


def _directions_from_usage(script: TestScript) -> dict[str, SignalDirection]:
    """Per-signal direction as implied by the script's method calls.

    A signal only ever measured (``get_*``) is a DUT output, one only ever
    stimulated is an input, and one used both ways is bidirectional.
    """
    registry = default_registry()
    measured: set[str] = set()
    stimulated: set[str] = set()
    actions = list(script.setup)
    for step in script.steps:
        actions.extend(step.actions)
    for action in actions:
        key = str(action.signal).lower()
        is_measurement = action_is_measurement(registry, action.method)
        (measured if is_measurement else stimulated).add(key)
    directions = {}
    for key in measured | stimulated:
        if key in measured and key in stimulated:
            directions[key] = SignalDirection.BIDIRECTIONAL
        elif key in measured:
            directions[key] = SignalDirection.OUTPUT
        else:
            directions[key] = SignalDirection.INPUT
    return directions


def derive_signal_set(
    script: TestScript,
    harness: TestHarness,
    *,
    warn: Callable[[str], None] | None = _warn_default,
) -> SignalSet:
    """Derive a minimal signal definition sheet from a script and a harness.

    Every signal name the script uses is resolved against the harness: a
    DUT pin of the same name becomes a one-pin electrical signal, otherwise
    a CAN signal of the harness database binds it to its carrying message.
    Directions come from the DUT pin where one exists, else from how the
    script uses the signal (measured = output, stimulated = input).  Names
    that resolve to neither a pin nor a message are reported through *warn*
    (by default a :class:`SignalDerivationWarning` via :func:`warnings.warn`,
    so callers can filter or assert on them; pass ``None`` to silence) and
    dropped - executing such a script then yields an ERROR verdict for the
    affected actions instead of a silent false PASS.  Repeated problems
    within one derivation are reported only once.
    """
    ecu = harness.ecu
    usage = _directions_from_usage(script)
    derived: list[Signal] = []
    warned: set[str] = set()

    def _report(message: str) -> None:
        if warn is None or message in warned:
            return
        warned.add(message)
        warn(message)

    for name in script.signals_used():
        if ecu.has_pin(name):
            pin = ecu.pin(name)
            direction = SignalDirection.OUTPUT if pin.is_output else SignalDirection.INPUT
            kind = SignalKind.ANALOG if pin.is_output else SignalKind.RESISTIVE
            derived.append(Signal(name, direction, kind, pins=(name,)))
            continue
        message = None
        if harness.can_db is not None:
            try:
                message = harness.can_db.message_for_signal(name).name
            except Exception:
                message = None
        if message is None:
            _report(
                unresolved_signal_message(name, f"script {script.name!r}",
                                          ecu.name)
                + "; dropped from the derived signal set"
            )
            continue
        direction = usage.get(str(name).lower(), SignalDirection.INPUT)
        derived.append(Signal(name, direction, SignalKind.BUS, message=message))
    return SignalSet(derived, dut=script.dut)


def signal_set_for_script(script: TestScript, target: Target,
                          harness: TestHarness | CompositionHarness, *,
                          warn: Callable[[str], None] | None = _warn_default
                          ) -> SignalSet:
    """The registered signal set when it covers the script, else a derived one.

    A composition always gets its interaction sheet: a derived set would
    bind a member-sent signal (``SPEED``) through the merged CAN database,
    and the stand would transmit it beside the member.
    """
    signals = target.signals_factory()
    if isinstance(target, CompositionTarget) or all(
            name in signals for name in script.signals_used()):
        return signals
    return derive_signal_set(script, harness, warn=warn)


# ---------------------------------------------------------------------------
# Declarative single runs
# ---------------------------------------------------------------------------

#: Pre-flight checks a spec may request before anything is built:
#: ``"coverage"`` (default) is the stand capability negotiation alone,
#: ``"lint"`` additionally runs the whole static analyzer (:mod:`repro.lint`)
#: over the target and refuses to execute when any error-severity finding
#: exists.
PREFLIGHT_MODES = ("coverage", "lint")


def _check_preflight(mode: str) -> None:
    if mode not in PREFLIGHT_MODES:
        raise ConfigurationError(
            f"preflight must be one of {', '.join(PREFLIGHT_MODES)}, "
            f"got {mode!r}"
        )


def _run_lint_preflight(target: Target) -> None:
    # Imported lazily: repro.lint imports this module for the registry.
    from .lint import preflight_lint
    preflight_lint(target)


def _spec_target(spec: RunSpec | CampaignSpec, name: str | None) -> Target:
    """The target a spec names, else the one registered under *name*."""
    if spec.composition is not None:
        return get_composition(spec.composition)
    return get_dut(spec.dut) if spec.dut is not None else get_target(name)


class RunSpec(Record):
    """Declarative description of one script execution.

    ``script`` may be a parsed :class:`~repro.core.script.TestScript` or the
    path of an XML script file.  ``dut`` names a registered DUT and
    ``composition`` a registered :class:`CompositionTarget` (mutually
    exclusive); with neither, the script's own DUT name picks the target
    of either kind (:func:`get_target`).  A composed script runs against
    the member assembly on a shared-bus
    :class:`~repro.dut.CompositionHarness`.  ``signals`` overrides the
    registered signal set; ``stand=None`` picks a stand carrying the
    target's adapter (:func:`default_stand_for`).
    ``preflight`` selects the pre-flight depth (:data:`PREFLIGHT_MODES`):
    ``"lint"`` runs the static analyzer over the target first and raises
    :class:`~repro.lint.LintError` on error-severity findings.
    """

    script: TestScript | str
    stand: str | None = None
    policy: str = "first_fit"
    dut: str | None = None
    composition: str | None = None
    signals: SignalSet | None = None
    stop_on_error: bool = False
    preflight: str = "coverage"

    def __init__(self, script: TestScript | str, stand: str | None = None,
                 policy: str = "first_fit", dut: str | None = None,
                 composition: str | None = None,
                 signals: SignalSet | None = None,
                 stop_on_error: bool = False,
                 preflight: str = "coverage") -> None:
        _check_preflight(preflight)
        if dut is not None and composition is not None:
            raise ConfigurationError(
                "a run spec targets either a dut or a composition, not both"
            )
        self.__dict__.update(script=script, stand=stand, policy=policy,
                             dut=dut, composition=composition,
                             signals=signals, stop_on_error=stop_on_error,
                             preflight=preflight)


def run_single(spec: RunSpec) -> TestResult:
    """Expand a :class:`RunSpec` through the registry and execute it."""
    if isinstance(spec.script, TestScript):
        script = spec.script
    else:
        from .core.xmlparse import read_script

        script = read_script(spec.script)
    target = _spec_target(spec, script.dut)
    if script.dut and script.dut.lower() != target.key:
        raise TargetError(
            f"script {script.name!r} is for DUT {script.dut!r} but the run "
            f"spec targets {target.name!r}"
        )
    stand_target = get_stand(spec.stand or default_stand_for(target))
    stand_factory = stand_factory_for(stand_target, target)
    # Pre-flight capability negotiation: reject the run before anything is
    # built when the stand cannot serve a method the script needs.
    _require_method_coverage(stand_target, script.methods_used(),
                             dut=target.name)
    if spec.preflight == "lint":
        _run_lint_preflight(target)
    stand = stand_factory()
    harness = target.harness_factory(target.ecu_factory())
    signals = spec.signals if spec.signals is not None \
        else signal_set_for_script(script, target, harness)
    interpreter = TestStandInterpreter(
        stand, harness, signals, policy=spec.policy,
        stop_on_error=spec.stop_on_error,
    )
    return interpreter.run(script)


# ---------------------------------------------------------------------------
# Declarative campaigns
# ---------------------------------------------------------------------------

class CampaignSpec(Record):
    """Declarative description of one fault-injection campaign.

    Exactly one suite source applies, in precedence order: an in-memory
    ``suite``, a ``workbook`` directory, or the registered target's bundled
    ``suite_factory``.  ``faults`` selects catalogue entries by name (order
    preserved, duplicates removed); empty means the whole catalogue.
    ``stand=None`` picks a stand that carries the DUT's adapter
    (:func:`default_stand_for`), so every registered DUT campaigns without
    the caller knowing its pinning.

    ``composition`` (mutually exclusive with ``dut``) campaigns a
    registered :class:`CompositionTarget` instead; with neither, the
    suite's own DUT name picks the target of either kind
    (:func:`get_target`).  A composed suite runs against the member
    assembly on a shared CAN bus, and ``faults`` selects per-member entries
    (``alias.fault_name``) from the composed catalogue.  The executor
    machinery is untouched - a composed job's ECU factory simply builds an
    assembly and its harness factory a :class:`~repro.dut.CompositionHarness`.

    ``backend`` / ``jobs`` / ``concurrency`` describe execution:
    ``backend`` is one of
    :data:`~repro.teststand.executor.EXECUTION_BACKENDS` (or ``"auto"``),
    ``jobs`` is the worker count for the thread / process pools, and
    ``concurrency`` is the multiplex width of the single-worker ``async``
    backend — ``CampaignSpec(dut="wiper_ecu", backend="async",
    concurrency=8)`` drives up to eight stands from one worker.  The choice
    never changes the verdict table, only the wall clock.  Invalid values
    (``jobs < 1``, negative ``concurrency`` or ``retries``) raise
    :class:`~repro.core.errors.ConfigurationError` (a ``ValueError``) at
    construction instead of being silently clamped later.

    ``use_plans`` / ``reuse_stands`` / ``use_vm`` are the
    compile-once-run-many fast paths (cached execution plans, per-worker
    stand pools, the bytecode VM compiled from the plans).  All default on
    and never change the verdict table.  The VM needs its plans, so
    turning either ``use_plans`` or ``use_vm`` off runs every job on the
    classic reference walk; that exists for A/B wall-clock comparisons
    like ``tools/bench_trajectory.py`` and the ``--no-vm`` CLI switch.

    ``preflight`` selects the pre-flight depth (:data:`PREFLIGHT_MODES`):
    ``"lint"`` runs the static analyzer over the target before any job is
    built and raises :class:`~repro.lint.LintError` on error-severity
    findings.

    ``store`` is the path of a persistent result store
    (:class:`repro.store.ResultStore`): when set, :func:`run_campaign`
    records the finished campaign - execution report, fault-catalogue
    metadata, git SHA and ``repro.__version__`` - and publishes the
    assigned run id as
    :attr:`~repro.analysis.campaign.CampaignResult.store_run_id`.
    Recording never changes the verdict table; the stored run re-renders
    it byte-identically (``repro-report --store PATH --run ID``).

    ``resume`` (requires ``store``) makes the campaign *checkpointed*:
    every finished job is committed as it completes, into the stored run
    its first checkpoint starts; jobs a previous (killed) run of the same
    campaign committed are skipped, and the final record finishes that
    run, byte-identical to an uninterrupted one.  ``deadline`` is a
    per-job wall-clock budget in seconds (blown jobs report a structured
    ``JobTimeoutError`` without retrying).
    ``chaos_seed`` / ``chaos_profile`` install a deterministic
    :class:`repro.chaos.ChaosPolicy` for the campaign - seeded fault
    injection for resilience testing; a seed without a profile defaults
    to the recoverable ``"flaky-instruments"`` personality.
    """

    dut: str | None = None
    composition: str | None = None
    suite: TestSuite | None = None
    workbook: str | None = None
    stand: str | None = None
    faults: tuple[str, ...] = ()
    policy: str = "first_fit"
    backend: str = "auto"
    jobs: int = 1
    concurrency: int = 0
    retries: int = 1
    use_plans: bool = True
    reuse_stands: bool = True
    use_vm: bool = True
    preflight: str = "coverage"
    store: str | None = None
    resume: bool = False
    deadline: float | None = None
    chaos_seed: int | None = None
    chaos_profile: str = ""

    def __init__(self, dut: str | None = None,
                 composition: str | None = None,
                 suite: TestSuite | None = None, workbook: str | None = None,
                 stand: str | None = None,
                 faults: Iterable[str] | str | None = (),
                 policy: str = "first_fit", backend: str = "auto",
                 jobs: int = 1, concurrency: int = 0, retries: int = 1,
                 use_plans: bool = True, reuse_stands: bool = True,
                 use_vm: bool = True, preflight: str = "coverage",
                 store: str | None = None, resume: bool = False,
                 deadline: float | None = None,
                 chaos_seed: int | None = None,
                 chaos_profile: str = "") -> None:
        _check_preflight(preflight)
        if dut is not None and composition is not None:
            raise ConfigurationError(
                "a campaign spec targets either a dut or a composition, "
                "not both"
            )
        if faults is None:
            faults = ()
        elif isinstance(faults, str):
            # Accept the CLI's comma-separated spelling too; tuple("a,b")
            # would otherwise silently explode the string into characters.
            faults = faults.split(",")
        faults = tuple(faults)
        if int(jobs) < 1:
            raise ConfigurationError(
                f"campaign jobs must be >= 1, got {jobs}"
            )
        if int(concurrency) < 0:
            raise ConfigurationError(
                "campaign concurrency must be non-negative "
                f"(0 = automatic), got {concurrency}"
            )
        if int(retries) < 0:
            raise ConfigurationError(
                f"campaign retries must be non-negative, got {retries}"
            )
        if deadline is not None and not float(deadline) > 0.0:
            raise ConfigurationError(
                f"campaign deadline must be positive, got {deadline}"
            )
        if chaos_profile and chaos_profile not in _chaos.PROFILES:
            raise ConfigurationError(
                f"unknown chaos profile {chaos_profile!r} "
                f"(known: {', '.join(sorted(_chaos.PROFILES))})"
            )
        self.__dict__.update(
            dut=dut, composition=composition, suite=suite, workbook=workbook,
            stand=stand, faults=faults, policy=policy,
            backend=backend, jobs=jobs, concurrency=concurrency,
            retries=retries, use_plans=use_plans, reuse_stands=reuse_stands,
            use_vm=use_vm, preflight=preflight, store=store, resume=resume,
            deadline=deadline, chaos_seed=chaos_seed,
            chaos_profile=chaos_profile)


def _resolve_suite(spec: CampaignSpec) -> _CompiledSuite:
    """The compiled suite a campaign runs: the spec's suite or workbook,
    compiled afresh, else its target's bundled suite, compiled once."""
    if spec.suite is not None:
        return _compile(spec.suite)
    if spec.workbook is not None:
        from .sheets.workbook import load_suite

        try:
            suite = load_suite(spec.workbook)
        except Exception as exc:
            raise TargetError(
                f"cannot load workbook {spec.workbook!r}: {exc}"
            ) from exc
        return _compile(suite)
    if spec.dut is None and spec.composition is None:
        raise TargetError("campaign spec needs a dut, a suite or a workbook")
    return _spec_target(spec, None)._bundled


def select_faults(catalogue: FaultCatalogue,
                  names: Sequence[str] = ()) -> list[FaultModel]:
    """Pick catalogue entries by name (deduped, order kept); all when empty."""
    cleaned = [str(name).strip() for name in names if str(name).strip()]
    if not cleaned:
        return list(catalogue)
    try:
        return [catalogue.get(name) for name in dict.fromkeys(cleaned)]
    except ReproError as exc:
        raise TargetError(
            f"{exc}; known faults: {', '.join(catalogue.names)}"
        ) from exc


def _resilience_for(spec: CampaignSpec) -> ResiliencePolicy:
    """The executor resilience policy a campaign spec describes."""
    chaos_policy = None
    if spec.chaos_profile:
        chaos_policy = _chaos.ChaosPolicy.from_profile(
            spec.chaos_profile, seed=spec.chaos_seed or 0)
    elif spec.chaos_seed is not None:
        chaos_policy = _chaos.ChaosPolicy.from_profile(
            "flaky-instruments", seed=spec.chaos_seed)
    return ResiliencePolicy(
        max_attempts=1 + max(0, spec.retries),
        seed=spec.chaos_seed or 0,
        deadline=spec.deadline,
        chaos=chaos_policy,
    )


def build_campaign(spec: CampaignSpec, *,
                   executor: Executor | None = None
                   ) -> tuple[FaultCampaign, list[FaultModel]]:
    """Expand a :class:`CampaignSpec` into a ready-to-run campaign.

    Returns the configured :class:`~repro.analysis.campaign.FaultCampaign`
    and the selected fault models; :func:`run_campaign` is the one-call
    wrapper.  Exposed separately so callers can reuse the expansion with a
    custom executor or fault subset.  An explicit *executor* takes
    precedence over the spec's ``backend`` / ``jobs`` / ``concurrency``
    fields, which are then not consulted at all.  While the profiler is on,
    the expansion's wall time is its ``job_expansion`` phase.
    """
    started = time.perf_counter()
    dut, signals, scripts = _resolve_suite(spec)
    target = _spec_target(spec, dut)
    if target.faults_factory is None:
        raise TargetError(
            f"DUT {target.name!r} has no fault catalogue; campaignable DUTs: "
            f"{list(campaignable_dut_names())}"
        )
    if dut.lower() != target.key:
        raise TargetError(
            f"suite is for DUT {dut!r} but the campaign targets "
            f"{target.name!r}"
        )
    faults = select_faults(target.faults_factory(), spec.faults)
    stand_target = get_stand(spec.stand or default_stand_for(target))
    stand_factory = stand_factory_for(stand_target, target)
    # Pre-flight capability negotiation: a stand that lacks a resource for
    # any method the compiled scripts use (e.g. a get_i sheet on a stand
    # without an ammeter) is rejected here, before a single job is built -
    # not discovered as ERROR verdicts halfway through the campaign.
    _require_method_coverage(
        stand_target,
        sorted({method for script in scripts for method in script.methods_used()}),
        dut=target.name,
    )
    if spec.preflight == "lint":
        _run_lint_preflight(target)
    if executor is None:
        executor = make_executor(spec.backend, spec.jobs,
                                 concurrency=spec.concurrency)
    campaign = FaultCampaign(
        scripts,
        # The scripts were compiled against the suite's own signal sheet, so
        # execution must use that sheet too - a workbook may rename or remap
        # signals relative to the registered bundled set.
        signals,
        stand_factory,
        target.harness_factory,
        target.ecu_factory,
        policy=spec.policy,
        executor=executor,
        resilience=_resilience_for(spec),
        use_plans=spec.use_plans,
        reuse_stands=spec.reuse_stands,
        use_vm=spec.use_vm,
    )
    if PROFILER.enabled:
        PROFILER.add("job_expansion", time.perf_counter() - started)
    return campaign, faults


def _campaign_resume_key(spec: CampaignSpec, campaign: FaultCampaign,
                         faults: Sequence[FaultModel]) -> str:
    """Content fingerprint naming a resumable campaign's unfinished run.

    Built from everything that determines job identities and verdicts -
    compiled script content (each script's
    :func:`~repro.teststand.serialize.script_key`), fault selection,
    stand, allocation policy, fast-path switches - and nothing
    that does not (backend, worker count): a campaign killed on the
    process backend may resume on the serial one and still merge
    byte-identically.  A stand named explicitly that is the target's
    default stand keys as no stand at all, so naming it or not resumes
    the same run.
    """
    import hashlib

    from .teststand.serialize import script_key

    stand = spec.stand
    # The scripts name the target of a spec that names none; a campaign
    # without scripts has no job to resume.
    if stand is not None and campaign.scripts:
        target = _spec_target(spec, campaign.scripts[0].dut)
        if get_stand(stand).name == default_stand_for(target):
            stand = None
    document = {
        "scripts": [script_key(script) for script in campaign.scripts],
        "faults": [fault.name for fault in faults],
        "dut": spec.dut,
        "composition": spec.composition,
        "stand": stand,
        "policy": spec.policy,
        "use_plans": bool(spec.use_plans),
        "use_vm": bool(spec.use_vm),
    }
    import json

    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_campaign(spec: CampaignSpec, *,
                 executor: Executor | None = None) -> CampaignResult:
    """Expand a :class:`CampaignSpec` through the registry and execute it.

    An explicit *executor* overrides the spec's ``backend`` / ``jobs`` /
    ``concurrency``.  With ``spec.store`` set, the finished campaign is
    recorded into that result store and the returned result carries the
    assigned :attr:`~repro.analysis.campaign.CampaignResult.store_run_id`.

    With ``spec.resume`` additionally set, the run is checkpointed: each
    finished job is committed as it completes into the unfinished run
    stored under the campaign fingerprint, jobs that run already holds are
    restored instead of re-executed, and the final record writes only the
    rest and finishes the run.  Killing a resumable campaign therefore
    loses at most the jobs in flight; re-running the same spec produces a
    final report byte-identical to an uninterrupted run.
    """
    campaign, faults = build_campaign(spec, executor=executor)
    if spec.resume and not spec.store:
        raise ConfigurationError(
            "campaign resume requires a result store "
            "(CampaignSpec(store=..., resume=True))"
        )
    if not spec.store:
        return campaign.run(faults)
    # Imported lazily: the registry must not pay the store's sqlite
    # setup cost (nor create files) unless a spec actually records.
    from .store import ResultStore
    store = ResultStore(spec.store)
    completed = on_result = resume_key = None
    if spec.resume:
        resume_key = _campaign_resume_key(spec, campaign, faults)
        completed = store.load_checkpoints(resume_key)
        on_result = functools.partial(store.save_checkpoint, resume_key)
    result = campaign.run(faults, completed=completed, on_result=on_result)
    result.store_run_id = store.record_campaign(result, spec,
                                                resume_key=resume_key)
    return result


# ---------------------------------------------------------------------------
# Bundled registrations: the six body-electronics ECUs (interior light,
# central locking, wiper, window lifter, exterior light, instrument
# cluster), the three stands and the lock+cluster composition
# ---------------------------------------------------------------------------

register_stand("paper", build_paper_stand,
               description="the paper's Section 4 stand (fixed paper pinning)")
register_stand("big_rack", build_big_rack, adaptable=True,
               description="fully equipped HIL rack with crossbar switching")
register_stand("minimal", build_minimal_bench, adaptable=True,
               description="minimal hand-wired laboratory bench")

register_dut(DutTarget(
    name=InteriorLightEcu.NAME,
    ecu_factory=InteriorLightEcu,
    harness_factory=interior_harness,
    signals_factory=paper_signal_set,
    faults_factory=interior_light_faults,
    suite_factory=extended_suite,
    description="interior illumination (the paper's worked example)",
))
register_dut(DutTarget(
    name=CentralLockingEcu.NAME,
    ecu_factory=CentralLockingEcu,
    harness_factory=locking_harness,
    signals_factory=locking_signal_set,
    faults_factory=central_locking_faults,
    suite_factory=locking_suite,
    pins=("KEY_SW", "UNLOCK_SW", "LOCK_LED", "LOCK_ACT"),
    description="central locking (the reuse experiment's second project)",
))
register_dut(DutTarget(
    name=WiperEcu.NAME,
    ecu_factory=WiperEcu,
    harness_factory=wiper_harness,
    signals_factory=wiper_signal_set,
    faults_factory=wiper_faults,
    suite_factory=wiper_suite,
    pins=("WASH_SW", "WIPER_MOTOR", "WIPER_FAST", "WASH_PUMP"),
    description="front wiper control",
))
register_dut(DutTarget(
    name=WindowLifterEcu.NAME,
    ecu_factory=WindowLifterEcu,
    harness_factory=window_lifter_harness,
    signals_factory=window_lifter_signal_set,
    faults_factory=window_lifter_faults,
    suite_factory=window_lifter_suite,
    pins=("WIN_SW_UP", "WIN_SW_DOWN", "WIN_MOTOR_UP", "WIN_MOTOR_DOWN"),
    description="door window lifter",
))
register_dut(DutTarget(
    name=ExteriorLightEcu.NAME,
    ecu_factory=ExteriorLightEcu,
    harness_factory=exterior_light_harness,
    signals_factory=exterior_light_signal_set,
    faults_factory=exterior_light_faults,
    suite_factory=exterior_light_suite,
    pins=("PARK_SW", "LOW_BEAM", "DRL", "POSITION_LIGHT"),
    description="exterior lighting",
))
register_dut(DutTarget(
    name=InstrumentClusterEcu.NAME,
    ecu_factory=InstrumentClusterEcu,
    harness_factory=cluster_harness,
    signals_factory=cluster_signal_set,
    faults_factory=instrument_cluster_faults,
    suite_factory=cluster_suite,
    pins=("SPEED_SENSOR", "SPEED_DISP", "LOCK_TELLTALE"),
    description="instrument cluster (produces the speed broadcast)",
))


def _composed_suite() -> TestSuite:
    """The lock+cluster interaction suite; its module is imported on the
    first call, which a single-DUT process never makes."""
    from .paper.composed import composed_suite

    return composed_suite()


register_composition(CompositionTarget(
    name="lock+cluster",  # repro.paper.composed.COMPOSITION_NAME
    members=(
        CompositionMember("lock", CentralLockingEcu.NAME),
        CompositionMember("cluster", InstrumentClusterEcu.NAME),
    ),
    suite_factory=_composed_suite,
    description="central locking fed by the real instrument cluster's "
                "speed broadcast on one shared CAN bus",
    # The interaction sheets never probe the speedometer gauge, so a
    # gauge defect that the cluster's own suite catches is - expectedly -
    # invisible when composed.
    expected_overrides=(("cluster.gauge_stuck_zero", False),),
))
