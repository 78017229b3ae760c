"""In-memory span tracer and the layer instrumentation the traced run uses.

Spans are recorded from the benchmark's side of each layer boundary: while
:func:`instrument` is active, the public entry points named in
``NOTES.md`` are wrapped at class level, and every call through them
records ``(name, start_ns, end_ns, parent, call)``.  Nothing in the
program under test changes; leaving the context restores every attribute.

A serving call additionally keeps a *cycle ledger*: the simulated cycles
each layer charged, in the order the serving layer adds them up
(deserialize stage, handler, serialize stage, per attempt).  Re-adding the
ledger in that order must reproduce the call's ``accel_cycles`` exactly,
which is the per-call simulated-cycle self-check.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.accel.deserializer import DeserializerUnit
from repro.accel.driver import ProtoAccelerator
from repro.accel.serializer import SerializerUnit
from repro.bench.harness import WorkloadSpec
from repro.cpu.model import SoftwareCpu
from repro.proto.errors import AccelFault
from repro.serve.fabric import ServingFabric
from repro.serve.server import ResilientServer

_now = time.perf_counter_ns


@dataclass
class CallLedger:
    """Simulated cycles one serving call charged, layer by layer.

    ``attempts`` holds one list per accelerator attempt of
    ``(layer, unit_cycles, transport_cycles)`` stages, in charging order;
    ``host`` flips once the call reaches the software fallback, after
    which a handler run is charged to the CPU, not the accelerator.
    """

    attempts: list = field(default_factory=list)
    host: bool = False

    def stage(self, layer: str, unit: float, transport: float = 0.0):
        if not self.attempts:
            self.attempts.append([])
        self.attempts[-1].append((layer, unit, transport))

    def total(self) -> float:
        """``accel_cycles`` re-added in the serving layer's own order."""
        total = 0.0
        for stages in self.attempts:
            charged = 0.0
            for _, unit, transport in stages:
                charged += unit + transport
            total += charged
        return total


class Tracer:
    """Spans and ledgers of one traced phase, kept in memory."""

    def __init__(self, handler_cycles: float = 0.0):
        self.handler_cycles = handler_cycles
        self.spans: list = []
        self._stack: list[int] = []
        self.call_id = -1
        self.ledger: CallLedger | None = None
        #: (call id, outcome, ledger) of every traced serving call.
        self.calls: list = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.call_id])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack.pop()

    def run(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def root(self, name: str, call_id: int, fn, *args, **kwargs):
        """A top-level span: one serving call or one figure."""
        self.call_id = call_id
        try:
            return self.run(name, fn, *args, **kwargs)
        finally:
            self.call_id = -1

    def clear(self) -> None:
        self.spans = []
        self.calls = []

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, list[int]]:
        """Per span name: ``[self_ns, count]`` over every span kept.

        A span's self time is its duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0])
            entry[0] += end - start - child_ns[i]
            entry[1] += 1
        return totals

    def check_nesting(self) -> list[str]:
        """Layer-sum self-check over every root span kept.

        Each child must lie inside its parent and belong to the same
        call, so the self times of one call's spans add up to its root
        span's duration exactly (integer nanoseconds)."""
        errors = []
        root_ns: dict[int, int] = {}
        self_sum: dict[int, int] = {}
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, call in self.spans:
            if end < start:
                errors.append(f"{name}: span ends before it starts")
            if parent < 0:
                root_ns[call] = root_ns.get(call, 0) + end - start
                continue
            p_name, p_start, p_end, _, p_call = self.spans[parent]
            if p_call != call:
                errors.append(f"{name} in call {call} has parent "
                              f"{p_name} in call {p_call}")
            if start < p_start or end > p_end:
                errors.append(f"{name} in call {call} is not nested "
                              f"inside {p_name}")
            child_ns[parent] += end - start
        for i, (name, start, end, _, call) in enumerate(self.spans):
            self_sum[call] = (self_sum.get(call, 0)
                              + end - start - child_ns[i])
        for call, total in root_ns.items():
            if self_sum.get(call) != total:
                errors.append(f"call {call}: layer self times sum to "
                              f"{self_sum.get(call)} ns, root span "
                              f"{total} ns")
        return errors

    # -- export ------------------------------------------------------------

    def write(self, jsonl_path, chrome_path) -> None:
        """Write the kept spans as JSONL and Chrome trace-event JSON."""
        with open(jsonl_path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, call) in \
                    enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "call": call}))
                out.write("\n")
        base = self.spans[0][1] if self.spans else 0
        events = [{
            "name": name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - base) / 1e3, "dur": (end - start) / 1e3,
            "args": {"id": i, "parent": parent, "call": call},
        } for i, (name, start, end, parent, call) in enumerate(self.spans)]
        with open(chrome_path, "w", encoding="utf-8") as out:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ns"}, out)


# -- instrumentation ---------------------------------------------------------


def _wrap(tracer: Tracer, name: str, original):
    def traced(*args, **kwargs):
        return tracer.run(name, original, *args, **kwargs)
    return traced


def _wrap_fabric_call(tracer: Tracer, original):
    counter = itertools.count()

    def call(self, tenant, method_name, request_bytes, at=0.0):
        call_id = next(counter)
        tracer.ledger = ledger = CallLedger()
        outcome = tracer.root("serve.fabric", call_id, original, self,
                              tenant, method_name, request_bytes, at=at)
        tracer.ledger = None
        tracer.calls.append((call_id, outcome, ledger))
        return outcome
    return call


def _wrap_deserialize(tracer: Tracer, original):
    def deserialize(self, descriptor, wire_bytes, *args, **kwargs):
        index = tracer.open("accel.deser")
        try:
            result = original(self, descriptor, wire_bytes, *args, **kwargs)
        except AccelFault as fault:
            if tracer.ledger is not None:
                tracer.ledger.stage("accel.deser", getattr(
                    fault, "charged_cycles", fault.cycle))
            raise
        finally:
            tracer.close(index)
        if tracer.ledger is not None:
            tracer.ledger.stage("accel.deser", result.stats.cycles,
                                result.stats.transport_cycles)
        return result
    return deserialize


def _wrap_serialize(tracer: Tracer, original):
    def serialize(self, descriptor, obj_addr):
        index = tracer.open("accel.ser")
        try:
            result = original(self, descriptor, obj_addr)
        except AccelFault as fault:
            if tracer.ledger is not None:
                tracer.ledger.stage("accel.ser", getattr(
                    fault, "charged_cycles", fault.cycle))
            raise
        finally:
            tracer.close(index)
        if tracer.ledger is not None:
            tracer.ledger.stage("accel.ser", result.stats.cycles,
                                result.stats.transport_cycles)
        return result
    return serialize


def _wrap_begin_pure_call(tracer: Tracer, original):
    # Serving replays run with stateless tiles, so every accelerator
    # attempt opens exactly one pure-charging window: a ledger attempt.
    def begin_pure_call(self):
        if tracer.ledger is not None:
            tracer.ledger.attempts.append([])
        return original(self)
    return begin_pure_call


def _wrap_cpu(tracer: Tracer, original):
    def cpu_op(*args, **kwargs):
        if tracer.ledger is not None:
            tracer.ledger.host = True
            return tracer.run("cpu.fallback", original, *args, **kwargs)
        return tracer.run("cpu.model", original, *args, **kwargs)
    return cpu_op


def wrap_handler(tracer: Tracer, handler):
    """A registered handler, traced and charged to the call's ledger."""
    def traced(request):
        response = tracer.run("serve.handler", handler, request)
        ledger = tracer.ledger
        if ledger is not None and not ledger.host:
            ledger.stage("serve.handler", tracer.handler_cycles)
        return response
    return traced


#: (class, attribute, wrapper factory) for every traced entry point.
_TARGETS = (
    (ServingFabric, "call", _wrap_fabric_call),
    (ResilientServer, "call",
     lambda t, o: _wrap(t, "serve.server", o)),
    (ProtoAccelerator, "deserialize", _wrap_deserialize),
    (ProtoAccelerator, "serialize", _wrap_serialize),
    (ProtoAccelerator, "read_message",
     lambda t, o: _wrap(t, "memory.image_read", o)),
    (ProtoAccelerator, "load_object",
     lambda t, o: _wrap(t, "memory.image_write", o)),
    (ProtoAccelerator, "deserialize_batch",
     lambda t, o: _wrap(t, "accel.batch.deser", o)),
    (ProtoAccelerator, "serialize_batch",
     lambda t, o: _wrap(t, "accel.batch.ser", o)),
    (ProtoAccelerator, "begin_pure_call", _wrap_begin_pure_call),
    (DeserializerUnit, "deserialize",
     lambda t, o: _wrap(t, "accel.deser.unit", o)),
    (SerializerUnit, "serialize",
     lambda t, o: _wrap(t, "accel.ser.unit", o)),
    (SoftwareCpu, "deserialize", _wrap_cpu),
    (SoftwareCpu, "serialize", _wrap_cpu),
    (SoftwareCpu, "deserialize_batch_cycles", _wrap_cpu),
    (SoftwareCpu, "serialize_batch_cycles", _wrap_cpu),
    (WorkloadSpec, "build",
     lambda t, o: _wrap(t, "bench.workload_build", o)),
)


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    saved = []
    try:
        for cls, attr, factory in _TARGETS:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, factory(tracer, original))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


@contextmanager
def capture_handlers(wrap=None):
    """Record every handler registered on a :class:`ServingFabric` while
    the block runs, as ``{(tenant, method): handler}``; ``wrap``, when
    given, replaces each handler the fabric receives with ``wrap(h)``."""
    original = ServingFabric.__dict__["register"]
    captured: dict[tuple[str, str], object] = {}

    def register(self, tenant, method_name, handler):
        captured[(tenant, method_name)] = handler
        return original(self, tenant, method_name,
                        wrap(handler) if wrap else handler)

    ServingFabric.register = register
    try:
        yield captured
    finally:
        ServingFabric.register = original
