"""Accelerator performance-counter aggregation.

Real deployments watch hardware counters; our units each keep their own
(varint decodes, ADT cache hits, UTF-8 validations, TLB hit rates,
memory traffic).  :class:`PerfReport` gathers them from a
:class:`~repro.accel.driver.ProtoAccelerator` into one snapshot with a
printable rendering -- the observability surface an SRE would consult
when a service adopts the offload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PerfReport:
    """A point-in-time snapshot of the device's counters."""

    rocc_instructions: int
    varint_decodes: int
    varint_encodes: int
    zigzag_ops: int
    utf8_strings_validated: int
    utf8_faults: int
    deser_tlb_hit_rate: float
    ser_tlb_hit_rate: float
    adt_cache_hits: int
    adt_cache_misses: int
    deser_arena_bytes_used: int
    ser_outputs: int
    memory_read_bytes: int
    memory_written_bytes: int
    # Fault/recovery counters (zero on a fault-free device).
    faults_injected: int = 0
    fault_interrupts: int = 0
    transient_retries: int = 0
    cpu_fallbacks: int = 0
    wasted_accel_cycles: float = 0.0
    fallback_cpu_cycles: float = 0.0
    bus_stalls: int = 0
    watchdog_aborts: int = 0

    @property
    def adt_cache_hit_rate(self) -> float:
        total = self.adt_cache_hits + self.adt_cache_misses
        return self.adt_cache_hits / total if total else 1.0

    def render(self) -> str:
        """Human-readable counter dump."""
        rows = (
            ("RoCC instructions issued", f"{self.rocc_instructions:,}"),
            ("varint decodes / encodes",
             f"{self.varint_decodes:,} / {self.varint_encodes:,}"),
            ("zig-zag operations", f"{self.zigzag_ops:,}"),
            ("UTF-8 strings validated / faults",
             f"{self.utf8_strings_validated:,} / {self.utf8_faults:,}"),
            ("ADT entry cache hit rate",
             f"{self.adt_cache_hit_rate:.1%}"),
            ("deser / ser TLB hit rate",
             f"{self.deser_tlb_hit_rate:.1%} / "
             f"{self.ser_tlb_hit_rate:.1%}"),
            ("deser arena bytes in use",
             f"{self.deser_arena_bytes_used:,}"),
            ("serialized outputs in arena", f"{self.ser_outputs:,}"),
            ("simulated memory read / written",
             f"{self.memory_read_bytes:,} / "
             f"{self.memory_written_bytes:,} B"),
            ("faults injected / interrupts raised",
             f"{self.faults_injected:,} / {self.fault_interrupts:,}"),
            ("transient retries / CPU fallbacks",
             f"{self.transient_retries:,} / {self.cpu_fallbacks:,}"),
            ("wasted accel / fallback CPU cycles",
             f"{self.wasted_accel_cycles:,.0f} / "
             f"{self.fallback_cpu_cycles:,.0f}"),
            ("bus stalls observed", f"{self.bus_stalls:,}"),
            ("watchdog aborts (hung FSMs)", f"{self.watchdog_aborts:,}"),
        )
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value}"
                         for label, value in rows)


def memoization_counters() -> dict[str, tuple[int, int]]:
    """Hit/miss pairs for every host-side memoisation cache.

    Covers the software-CPU per-operation cycle caches, the accelerator
    whole-batch caches, and the specialized-kernel code cache.  (ADT
    template hits are per-builder; see
    :attr:`repro.accel.adt.AdtBuilder.template_hits`.)
    """
    from repro.accel import codegen, driver
    from repro.cpu import model
    code_hits, code_misses, _, _ = codegen.cache_counters()
    return {
        "cpu-deser": (model.DESER_CYCLE_CACHE.hits,
                      model.DESER_CYCLE_CACHE.misses),
        "cpu-ser": (model.SER_CYCLE_CACHE.hits,
                    model.SER_CYCLE_CACHE.misses),
        "accel-deser": (driver.DESER_BATCH_CACHE.hits,
                        driver.DESER_BATCH_CACHE.misses),
        "accel-ser": (driver.SER_BATCH_CACHE.hits,
                      driver.SER_BATCH_CACHE.misses),
        "codegen": (code_hits, code_misses),
    }


def tier_counters() -> dict[str, dict[str, int]]:
    """Per-op execution-tier run counts (see :mod:`repro.accel.tiers`).

    ``batch-vector`` counts messages replayed by the vectorized batch
    engine; ``batch-scalar`` counts the engine's per-message fallbacks
    (each of which *also* lands on interp or codegen)."""
    from repro.accel import tiers
    return tiers.counters()


def render_codegen_line() -> str:
    """The execution-tier observability surface: code-cache hit rate
    plus a per-tier run table (one line per op)."""
    from repro.accel import codegen
    hits, misses, entries, capacity = codegen.cache_counters()
    total = hits + misses
    rate = f"{hits / total:.1%}" if total else "n/a"
    state = "on" if codegen.codegen_enabled() else "off"
    lines = [f"codegen cache: {rate} ({hits:,}/{total:,})  "
             f"entries {entries}/{capacity}  [{state}]"]
    for op, runs in tier_counters().items():
        scalar = runs["interp"] + runs["codegen"]
        direct = scalar - runs["batch-scalar"]
        processed = direct + runs["batch-vector"] + runs["batch-scalar"]
        vector_rate = (f"{runs['batch-vector'] / processed:.1%}"
                       if processed else "n/a")
        lines.append(
            f"{op} tiers: interp {runs['interp']:,}  "
            f"codegen {runs['codegen']:,}  "
            f"batch-vector {runs['batch-vector']:,}  "
            f"batch-scalar-fallback {runs['batch-scalar']:,}  "
            f"(vectorized {vector_rate})")
    return "\n".join(lines)


def collect(accel) -> PerfReport:
    """Snapshot every counter on ``accel`` (a ProtoAccelerator)."""
    deser = accel.deserializer
    ser = accel.serializer
    return PerfReport(
        rocc_instructions=accel.rocc.instructions_issued,
        varint_decodes=(deser.varint_unit.decodes
                        + ser.varint_unit.decodes),
        varint_encodes=(deser.varint_unit.encodes
                        + ser.varint_unit.encodes),
        zigzag_ops=(deser.varint_unit.zigzag_ops
                    + ser.varint_unit.zigzag_ops),
        utf8_strings_validated=deser.utf8_unit.strings_validated,
        utf8_faults=deser.utf8_unit.faults,
        deser_tlb_hit_rate=deser._tlb.stats.hit_rate,
        ser_tlb_hit_rate=ser._tlb.stats.hit_rate,
        adt_cache_hits=deser._adt_cache.hits,
        adt_cache_misses=deser._adt_cache.misses,
        deser_arena_bytes_used=accel._deser_arena.bytes_used,
        ser_outputs=accel._ser_arena.output_count,
        memory_read_bytes=accel.memory.stats.read_bytes,
        memory_written_bytes=accel.memory.stats.written_bytes,
        faults_injected=(accel.faults.injected
                         if accel.faults is not None else 0),
        fault_interrupts=accel.rocc.faults_raised,
        transient_retries=accel.fault_stats.transient_retries,
        cpu_fallbacks=accel.fault_stats.cpu_fallbacks,
        wasted_accel_cycles=accel.fault_stats.wasted_accel_cycles,
        fallback_cpu_cycles=accel.fault_stats.fallback_cpu_cycles,
        bus_stalls=accel.bus.stalls,
        watchdog_aborts=(accel.watchdog.aborts
                         if accel.watchdog is not None else 0),
    )
