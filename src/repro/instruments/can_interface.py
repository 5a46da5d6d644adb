"""CAN interface card: transmits and receives the DUT's bus messages."""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.errors import InstrumentError
from ..core.signals import Signal
from ..core.script import MethodCall
from ..core.values import parse_binary
from ..dut.harness import TestHarness
from ..methods import MethodOutcome, limits_for_call
from .base import Capability, Instrument

__all__ = ["CanInterface"]


class CanInterface(Instrument):
    """A CAN bus interface supporting ``put_can`` and ``get_can``.

    ``put_can`` transmits the message that carries the addressed signal with
    the raw payload literal from the status table (e.g. ``0001B``).
    ``get_can`` reads back the most recent frame of the signal's message from
    the DUT and compares either the raw payload (``data``) or the decoded
    signal value (``data_min`` / ``data_max``).
    """

    TERMINALS = ("can",)
    IS_BUS_INTERFACE = True

    def __init__(self, name: str, *, bitrate: int = 500_000,
                 io_delay: float = 0.0):
        super().__init__(name, io_delay=io_delay)
        if bitrate <= 0:
            raise InstrumentError("CAN bitrate must be positive")
        self.bitrate = int(bitrate)

    def capabilities(self) -> tuple[Capability, ...]:
        return (
            Capability("put_can", "data", 0.0, float(2**64 - 1), ""),
            Capability("get_can", "data", 0.0, float(2**64 - 1), ""),
        )

    def _message_for(self, signal: Signal) -> str:
        if not signal.message:
            raise InstrumentError(
                f"signal {signal.name!r} has no carrying CAN message configured"
            )
        return signal.message

    def _perform(
        self,
        call: MethodCall,
        signal: Signal,
        pins: Sequence[str],
        harness: TestHarness,
        variables: Mapping[str, float],
        *,
        prepared: tuple | None = None,
    ) -> MethodOutcome:
        method = call.key
        if method == "put_can":
            raw = call.param("data")
            if raw is None:
                raise InstrumentError("put_can without a data parameter")
            payload = parse_binary(raw)
            message = self._message_for(signal)
            harness.send_can_payload(message, payload)
            return MethodOutcome(
                method=call.method,
                passed=True,
                observed=float(payload),
                detail=f"{self.name} sent {message} data={raw}",
            )
        if method == "get_can":
            message = self._message_for(signal)
            expected_raw = call.param("data")
            if expected_raw is not None:
                observed_payload = harness.last_can_payload(message)
                expected = parse_binary(expected_raw)
                passed = observed_payload == expected
                return MethodOutcome(
                    method=call.method,
                    passed=passed,
                    observed=float(observed_payload) if observed_payload is not None else None,
                    detail=(
                        f"{self.name} expected {message} payload {expected}, "
                        f"got {observed_payload}"
                    ),
                )
            observed_value = harness.last_can_signal(message, signal.name)
            if prepared is not None and prepared[1] is not None:
                limits = prepared[1]
            else:
                limits = limits_for_call(call, "data", variables)
            passed = observed_value is not None and limits.contains(observed_value)
            return MethodOutcome(
                method=call.method,
                passed=passed,
                observed=observed_value,
                limits=limits,
                detail=f"{self.name} decoded {signal.name} from {message}",
            )
        raise InstrumentError(f"CAN interface {self.name!r} cannot perform {call.method!r}")
