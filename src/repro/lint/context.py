"""Shared, memoised view of the registry for the lint rules.

Every rule needs some subset of the same expensive artefacts: the bundled
suite of a DUT, its compiled scripts, a built instance of every stand, the
variable environment a stand provides.  :class:`LintContext` builds each of
those at most once per lint run and hands the rules a consistent snapshot -
nothing here executes a script or touches an instrument beyond building the
stand object itself (the same probe :class:`~repro.targets.StandTarget`
performs at registration time).

Factory failures are recorded as ``None`` instead of raising: a broken
factory must surface as lint findings from the rules that need the
artefact, not abort the whole analysis.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..core.compiler import Compiler
from ..core.script import TestScript
from ..core.signals import SignalSet
from ..core.testdef import TestSuite
from ..methods import MethodRegistry, default_registry
from ..targets import (
    CompositionMember,
    CompositionTarget,
    DutTarget,
    StandTarget,
    get_composition,
    get_dut,
    iter_compositions,
    iter_duts,
    iter_stands,
)
from ..teststand import vm
from ..teststand.stands import TestStand

__all__ = ["LintContext"]

_UNSET = object()


class LintContext:
    """One lint run's memoised view of the registered targets."""

    def __init__(
        self,
        duts: Iterable[DutTarget | str] | None = None,
        stands: Iterable[StandTarget] | None = None,
        *,
        registry: MethodRegistry | None = None,
        compositions: Iterable[CompositionTarget | str] | None = None,
    ):
        if duts is None:
            self.duts: tuple[DutTarget, ...] = iter_duts()
        else:
            self.duts = tuple(
                get_dut(d) if isinstance(d, str) else d for d in duts
            )
        # A whole-registry run (duts=None) lints every registered
        # composition too; an explicit DUT selection lints only those DUTs
        # unless compositions are selected explicitly as well.
        if compositions is None:
            self.compositions: tuple[CompositionTarget, ...] = (
                iter_compositions() if duts is None else ()
            )
        else:
            self.compositions = tuple(
                get_composition(c) if isinstance(c, str) else c
                for c in compositions
            )
        self.stands: tuple[StandTarget, ...] = (
            iter_stands() if stands is None else tuple(stands)
        )
        self.registry = registry if registry is not None else default_registry()
        self._memo: dict[tuple, object] = {}

    # -- generic memoisation -------------------------------------------------

    def memo(self, key: tuple, compute: Callable[[], object]) -> object:
        """Compute-once storage rules share (e.g. the reachability walk)."""
        value = self._memo.get(key, _UNSET)
        if value is _UNSET:
            value = compute()
            self._memo[key] = value
        return value

    # -- per-DUT artefacts ---------------------------------------------------

    def suite(self, dut: DutTarget) -> TestSuite | None:
        """The DUT's bundled suite, or ``None`` (not bundled / factory failed)."""
        def build():
            if dut.suite_factory is None:
                return None
            try:
                return dut.suite_factory()
            except Exception:
                return None
        return self.memo(("suite", dut.key), build)

    def scripts(self, dut: DutTarget) -> tuple[TestScript, ...]:
        """The compiled scripts of the DUT's bundled suite (empty on failure)."""
        def build():
            suite = self.suite(dut)
            if suite is None:
                return ()
            try:
                return tuple(
                    Compiler(registry=self.registry).compile_suite(suite)
                )
            except Exception:
                return ()
        return self.memo(("scripts", dut.key), build)

    def signals(self, dut: DutTarget) -> SignalSet | None:
        """The DUT's registered signal set, or ``None`` on failure."""
        def build():
            try:
                return dut.signals_factory()
            except Exception:
                return None
        return self.memo(("signals", dut.key), build)

    def harness(self, dut: DutTarget):
        """A built healthy harness (ECU + wiring), or ``None`` on failure."""
        def build():
            try:
                return dut.build_harness()
            except Exception:
                return None
        return self.memo(("harness", dut.key), build)

    def catalogue(self, dut: DutTarget):
        """The DUT's fault catalogue, or ``None`` (not bundled / failed)."""
        def build():
            if dut.faults_factory is None:
                return None
            try:
                return dut.faults_factory()
            except Exception:
                return None
        return self.memo(("catalogue", dut.key), build)

    # -- per-composition artefacts -------------------------------------------

    def composition_suite(self, comp: CompositionTarget) -> TestSuite | None:
        """The composition's interaction suite, or ``None`` on failure."""
        def build():
            try:
                return comp.suite_factory()
            except Exception:
                return None
        return self.memo(("comp_suite", comp.key), build)

    def composition_members(
        self, comp: CompositionTarget
    ) -> tuple[tuple[CompositionMember, DutTarget | None], ...]:
        """(member, registered DUT target) pairs; ``None`` for unknown DUTs."""
        def build():
            pairs = []
            for member in comp.members:
                try:
                    pairs.append((member, get_dut(member.dut)))
                except Exception:
                    pairs.append((member, None))
            return tuple(pairs)
        return self.memo(("comp_members", comp.key), build)

    # -- stands --------------------------------------------------------------

    def eligible_stands(self, dut: DutTarget) -> tuple[StandTarget, ...]:
        """Stands that can physically carry the DUT (adapter pinning)."""
        return tuple(
            stand for stand in self.stands
            if dut.pins is None or stand.adaptable
        )

    def stand_instance(self, stand: StandTarget,
                       dut: DutTarget) -> TestStand | None:
        """A built stand wired to the DUT's pins, or ``None`` on failure."""
        def build():
            try:
                return stand.factory_for(dut.pins)()
            except Exception:
                return None
        return self.memo(("stand", stand.key, dut.pins), build)

    def walk(self, dut: DutTarget, script: TestScript,
             stand: StandTarget) -> tuple[tuple, ...] | None:
        """The errors of the VM compiler's walk of *script* on *stand*.

        :func:`~repro.teststand.vm.walk_program` on the stand built for the
        DUT, with the variables it provides, walked once per (sheet x
        stand): its ``(step, action, VmCompileError)`` triples in run
        order, then any exception that ended it as ``(None, None, exc)``.
        ``None`` when the signal set or the stand cannot be built.
        """
        def build():
            signals = self.signals(dut)
            instance = self.stand_instance(stand, dut)
            if signals is None or instance is None:
                return None
            errors = []
            try:
                for step, action, op in vm.walk_program(
                    script, signals, instance,
                    policy="first_fit", registry=self.registry,
                    variables=self.stand_variables(instance),
                ):
                    if isinstance(op, vm.VmCompileError):
                        errors.append((step, action, op))
            except Exception as exc:
                errors.append((None, None, exc))
            return tuple(errors)
        return self.memo(("walk", dut.key, stand.key, script.name), build)

    def stand_variables(self, stand: TestStand) -> dict[str, float]:
        """The variable environment the interpreter would hand the scripts.

        Mirrors ``TestStandInterpreter._variables``: the harness always
        provides ``ubatt`` and the clock ``t``, the stand adds its own
        variables and pins ``ubatt`` to its supply voltage.  ``t`` starts
        at 0 - fine for satisfiability checks, which only need *a* value.
        """
        variables: dict[str, float] = {"ubatt": 12.0, "t": 0.0}
        variables.update({
            str(k).lower(): float(v) for k, v in stand.variables.items()
        })
        variables["ubatt"] = float(stand.supply_voltage)
        return variables
