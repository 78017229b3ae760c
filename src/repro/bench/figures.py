"""One entry point per paper figure/table, independent of pytest.

Each function regenerates one evaluation artifact and returns its rows
as formatted text; the ``benchmarks/`` files and the
``python -m repro.bench`` CLI are thin wrappers over these.
"""

from __future__ import annotations

from repro.accel.asic_model import AsicModel
from repro.bench.harness import WorkloadSpec, run_many
from repro.bench.microbench import alloc_bench_names, nonalloc_bench_names
from repro.bench.report import (
    ascii_bar_chart,
    fault_degradation_table,
    fleet_table,
    format_results_table,
    geomean,
    serving_table,
    speedup_summary,
    transport_crossover_table,
    transport_table,
)
from repro.faults import FaultPlan
from repro.fleet.cycle_model import CycleAttributionModel
from repro.fleet.distributions import (
    BYTES_FIELD_SIZE_BUCKETS,
    DENSITY_HISTOGRAM,
    FIELD_BYTES_SHARES,
    FIELD_COUNT_SHARES,
    MESSAGE_SIZE_BUCKETS,
    PROTO2_BYTES_SHARE,
    RPC_SHARE_OF_DESER,
    RPC_SHARE_OF_SER,
    cumulative_message_size_share,
    density_share_above,
)
from repro.fleet.profiler import GwpProfile, fleet_opportunity, realized_savings
from repro.fleet.sampler import FleetSampler, SampleAnalysis
from repro.hyperprotobench import bench_names

#: Default batch size for the timed microbenchmark batches.
MICRO_BATCH = 32
#: Default batch size for HyperProtoBench runs.
HYPER_BATCH = 10


def figure2() -> str:
    """Fleet C++ protobuf cycles by operation + Section 3.2-3.4 scalars."""
    profile = GwpProfile()
    lines = ["operation       % of C++ protobuf cycles   % of fleet cycles"]
    for op, share in profile.figure2_rows():
        lines.append(f"{op:<15} {share * 100:>24.1f} "
                     f"{profile.op_fleet_share(op) * 100:>19.2f}")
    numbers = fleet_opportunity()
    lines.append("")
    lines.append(f"protobuf share of fleet cycles: "
                 f"{numbers['protobuf_share'] * 100:.1f}%  (paper: 9.6%)")
    lines.append(f"C++ share of protobuf cycles:   "
                 f"{numbers['cpp_share_of_protobuf'] * 100:.0f}%  "
                 "(paper: 88%)")
    lines.append(f"deser fleet share:              "
                 f"{numbers['deser_fleet_share'] * 100:.2f}%  (paper: 2.2%)")
    lines.append(f"ser (+ByteSize) fleet share:    "
                 f"{numbers['ser_fleet_share'] * 100:.2f}%  (paper: 1.25%)")
    lines.append(f"acceleration opportunity:       "
                 f"{numbers['accelerated_opportunity'] * 100:.2f}%  "
                 "(paper: 3.45%)")
    lines.append(f"proto2 share of bytes:          "
                 f"{PROTO2_BYTES_SHARE * 100:.0f}%  (paper: 96%)")
    lines.append(f"RPC share of deser cycles:      "
                 f"{RPC_SHARE_OF_DESER * 100:.1f}%  (paper: 16.3%)")
    lines.append(f"RPC share of ser cycles:        "
                 f"{RPC_SHARE_OF_SER * 100:.1f}%  (paper: 35.2%)")
    return "\n".join(lines)


def figure3(samples: int = 8000) -> str:
    """Top-level message size distribution (published + re-sampled)."""
    analysis = SampleAnalysis(FleetSampler(seed=17).sample_many(samples))
    sampled = analysis.message_size_histogram()
    lines = [f"{'bucket (bytes)':<18} {'published %':>12} {'sampled %':>12}"]
    for bucket in MESSAGE_SIZE_BUCKETS:
        lines.append(f"{bucket.label:<18} {bucket.share * 100:>12.2f} "
                     f"{sampled[bucket.label] * 100:>12.2f}")
    lines.append("")
    for limit, paper in ((8, "24%"), (32, "56%"), (512, "93%")):
        lines.append(f"cumulative <={limit} B: "
                     f"{cumulative_message_size_share(limit) * 100:.0f}%  "
                     f"(paper: {paper})")
    return "\n".join(lines)


def figure4(samples: int = 8000) -> str:
    """Field-type count/byte shares and bytes-field sizes."""
    analysis = SampleAnalysis(FleetSampler(seed=23).sample_many(samples))
    lines = ["Figure 4a: % of fields observed by type"]
    for name, share in sorted(FIELD_COUNT_SHARES.items(),
                              key=lambda kv: -kv[1]):
        lines.append(f"  {name:<15} {share * 100:>6.1f}")
    lines.append(f"  varint-like total: "
                 f"{analysis.varint_like_count_share() * 100:.0f}% sampled "
                 "(paper: >56%)")
    lines.append("")
    lines.append("Figure 4b: % of message bytes observed by type")
    for name, share in sorted(FIELD_BYTES_SHARES.items(),
                              key=lambda kv: -kv[1]):
        lines.append(f"  {name:<15} {share * 100:>6.1f}")
    lines.append(f"  bytes-like total: "
                 f"{analysis.bytes_like_byte_share() * 100:.0f}% sampled "
                 "(paper: >92%)")
    lines.append("")
    lines.append("Figure 4c: % of bytes fields by field size")
    sampled = analysis.bytes_field_size_histogram()
    for bucket in BYTES_FIELD_SIZE_BUCKETS:
        lines.append(f"  {bucket.label:<15} published "
                     f"{bucket.share * 100:>6.2f}   sampled "
                     f"{sampled[bucket.label] * 100:>6.2f}")
    return "\n".join(lines)


def figure5_6(operation: str,
              model: CycleAttributionModel | None = None) -> str:
    """The 24-slice time attribution (Figure 5 deser, Figure 6 ser)."""
    model = model or CycleAttributionModel()
    figure = "Figure 5" if operation == "deserialize" else "Figure 6"
    shares = model.time_shares(operation)
    lines = [f"{figure}: estimated fleet {operation} time by slice",
             f"{'slice':<22} {'bytes %':>8} {'time %':>8} "
             f"{'Gbit/s on host':>15}"]
    for slice_ in model.slices:
        lines.append(
            f"{slice_.name:<22} {slice_.byte_share * 100:>8.2f} "
            f"{shares[slice_.name] * 100:>8.2f} "
            f"{model.throughput_gbps(slice_, operation):>15.2f}")
    lines.append("")
    above = model.share_of_time_above(8.0, operation)
    lines.append(f"time spent above 1 GB/s: {above * 100:.0f}%  "
                 "(paper, deser: 14%)")
    ratio = model.per_byte_speed_ratio(operation)
    lines.append(f"fastest/slowest per-byte ratio: {ratio:.0f}x  "
                 "(paper: 100-500x)")
    return "\n".join(lines)


def figure7(samples: int = 8000) -> str:
    """Field-number usage density and the ADT break-even argument."""
    analysis = SampleAnalysis(FleetSampler(seed=31).sample_many(samples))
    lines = [f"{'density bucket':<16} {'share %':>8}"]
    for edge, share in DENSITY_HISTOGRAM.items():
        label = ("< 1/64" if edge == 0.0
                 else f"{edge:.2f} - {min(edge + 0.05, 1.0):.2f}")
        lines.append(f"{label:<16} {share * 100:>8.2f}")
    lines.append("")
    lines.append(f"messages with density > 1/64 (published): "
                 f"{density_share_above(1 / 64) * 100:.0f}%  (paper: >=92%)")
    lines.append(f"messages with density > 1/64 (sampled):   "
                 f"{analysis.density_share_above(1 / 64) * 100:.0f}%")
    lines.append("")
    lines.append("break-even: prior work writes 64 bits per present field;")
    lines.append("our design reads 1 bit per defined field number, so any")
    lines.append("density above 1/64 favours per-type ADTs (Section 3.7).")
    return "\n".join(lines)


_FIG11 = {
    "11a": ("Figure 11a: deserialization, non-alloc types (Gbit/s)",
            "deserialize", nonalloc_bench_names, (7.0, 2.6)),
    "11b": ("Figure 11b: serialization, inline types (Gbit/s)",
            "serialize", nonalloc_bench_names, (15.5, 4.5)),
    "11c": ("Figure 11c: deserialization, alloc types (Gbit/s)",
            "deserialize", alloc_bench_names, (14.2, 6.9)),
    "11d": ("Figure 11d: serialization, non-inline types (Gbit/s)",
            "serialize", alloc_bench_names, (10.1, 2.8)),
}


def _fig11_specs(which: str, batch: int) -> list[WorkloadSpec]:
    _, operation, names, _ = _FIG11[which]
    return [WorkloadSpec("micro", name, operation, batch)
            for name in names()]


def figure11(which: str, batch: int = MICRO_BATCH) -> str:
    """One of the four microbenchmark classes: '11a'..'11d'."""
    title, _, _, paper = _FIG11[which]
    results = run_many(_fig11_specs(which, batch))
    speedups = speedup_summary(results)
    table = format_results_table(results, title)
    table += (f"\naccel speedup: {speedups['vs riscv-boom']:.1f}x vs BOOM "
              f"(paper: {paper[0]}x), {speedups['vs Xeon']:.1f}x vs Xeon "
              f"(paper: {paper[1]}x)")
    table += "\n\n" + ascii_bar_chart(results)
    return table


def section513(batch: int = MICRO_BATCH) -> str:
    """Overall microbenchmark geomeans (paper: 11.2x / 3.8x)."""
    lines = [f"{'class':<22} {'vs BOOM':>9} {'paper':>7} "
             f"{'vs Xeon':>9} {'paper':>7}"]
    boom_ratios, xeon_ratios = [], []
    for which, (label, _, _, paper) in _FIG11.items():
        results = run_many(_fig11_specs(which, batch))
        speedups = speedup_summary(results)
        boom_ratios.append(speedups["vs riscv-boom"])
        xeon_ratios.append(speedups["vs Xeon"])
        lines.append(f"{which + ' ' + label[7:25]:<22} "
                     f"{speedups['vs riscv-boom']:>8.1f}x "
                     f"{paper[0]:>6.1f}x {speedups['vs Xeon']:>8.1f}x "
                     f"{paper[1]:>6.1f}x")
    lines.append("-" * 58)
    lines.append(f"{'overall geomean':<22} {geomean(boom_ratios):>8.1f}x "
                 f"{'11.2x':>7} {geomean(xeon_ratios):>8.1f}x "
                 f"{'3.8x':>7}")
    return "\n".join(lines)


def figure12(batch: int = HYPER_BATCH) -> str:
    """HyperProtoBench deserialization + fleet-savings extrapolation."""
    results = run_many([WorkloadSpec("hyper", name, "deserialize", batch)
                        for name in bench_names()])
    speedups = speedup_summary(results)
    table = format_results_table(
        results, "Figure 12: HyperProtoBench deserialization (Gbit/s)")
    table += (f"\naccel speedup: {speedups['vs riscv-boom']:.1f}x vs BOOM, "
              f"{speedups['vs Xeon']:.1f}x vs Xeon "
              "(paper combined: 6.2x / 3.8x)")
    savings = realized_savings(speedups["vs riscv-boom"],
                               speedups["vs riscv-boom"])
    table += (f"\nextrapolated fleet savings: {savings * 100:.1f}% of "
              "cycles (paper: over 2.5%)")
    table += "\n\n" + ascii_bar_chart(results)
    return table


def figure13(batch: int = HYPER_BATCH) -> str:
    """HyperProtoBench serialization."""
    results = run_many([WorkloadSpec("hyper", name, "serialize", batch)
                        for name in bench_names()])
    speedups = speedup_summary(results)
    table = format_results_table(
        results, "Figure 13: HyperProtoBench serialization (Gbit/s)")
    table += (f"\naccel speedup: {speedups['vs riscv-boom']:.1f}x vs BOOM, "
              f"{speedups['vs Xeon']:.1f}x vs Xeon "
              "(paper combined: 6.2x / 3.8x)")
    table += "\n\n" + ascii_bar_chart(results)
    return table


#: Default per-message fault rates for the degradation sweep.
FAULT_RATES = (0.0, 0.005, 0.01, 0.02, 0.05)


def fault_degradation(rates: tuple[float, ...] = FAULT_RATES,
                      batch: int = MICRO_BATCH,
                      hyper_batch: int = HYPER_BATCH,
                      seed: int = 0) -> str:
    """Accelerator throughput vs per-message fault rate.

    Sweeps the Figure 11 microbenchmarks plus HyperProtoBench bench0
    (both operations) through the hardened recovery path at each rate.
    Every run still verifies results, so the curve doubles as an
    end-to-end proof that recovery is value-preserving.
    """
    specs = []
    for which in _FIG11:
        specs.extend(_fig11_specs(which, batch))
    specs.append(WorkloadSpec("hyper", "bench0", "deserialize", hyper_batch))
    specs.append(WorkloadSpec("hyper", "bench0", "serialize", hyper_batch))
    curve = []
    for rate in rates:
        plan = FaultPlan(seed=seed, rate=rate) if rate > 0 else None
        curve.append((rate, run_many(specs, faults=plan)))
    return fault_degradation_table(curve)


#: Offered-load points for the serving sweep (mean cycles between
#: arrivals, hottest last).
SERVING_INTERARRIVALS = (4_000.0, 2_000.0, 1_000.0, 500.0, 250.0)


def serving(interarrivals: tuple[float, ...] = SERVING_INTERARRIVALS,
            calls: int = 300, fault_rate: float = 0.01,
            seed: int = 0) -> str:
    """Resilient-serving degradation: shed rate vs offered load.

    Drives the 2-tile deadline-gated Echo server (docs/SERVING.md)
    through an offered-load sweep at ``fault_rate`` injected faults per
    accelerator operation.  The graceful-degradation claim the figure
    demonstrates: shed rate rises with load while the p99 latency of
    admitted calls stays bounded by ``deadline + watchdog_budget``.
    """
    from repro.serve import (
        AdmissionPolicy,
        ServePolicy,
        ServingWorkloadSpec,
        sweep_offered_load,
    )
    plan = (FaultPlan(seed=seed, rate=fault_rate)
            if fault_rate > 0 else None)
    policy = ServePolicy(
        tiles=2,
        fault_plan=plan,
        watchdog_budget_cycles=10_000.0,
        admission=AdmissionPolicy(max_depth=16,
                                  deadline_cycles=50_000.0))
    spec = ServingWorkloadSpec(calls=calls)
    rows = sweep_offered_load(interarrivals, spec, policy)
    table = serving_table(rows)
    table += (f"\n\nfault rate {fault_rate * 100:.1f}% per accelerator "
              "operation; every call bounded by deadline 50,000 + "
              "watchdog budget 10,000 cycles")
    return table


#: Offered-load points for the fleet sweep (mean cycles between
#: arrivals, hottest last) and the shard counts swept at each point.
FLEET_INTERARRIVALS = (2_000.0, 1_000.0, 500.0, 300.0)
FLEET_SHARDS = (1, 2, 4)


def fleet(shard_counts: tuple[int, ...] = FLEET_SHARDS,
          interarrivals: tuple[float, ...] = FLEET_INTERARRIVALS,
          messages: int = 500, workload: str = "echo",
          seed: int = 424242) -> str:
    """Fabric scaling: p99 and shed rate vs offered load, per shard count.

    Replays the same seeded open-loop arrival sequence through 1, 2,
    and 4 fabric shards (docs/SERVING.md, fabric section).  Per-call
    cycle charging is bit-identical across shard counts under the
    pure-charging serving discipline, so everything the figure shows --
    falling p99, collapsing shed rate -- is pure queueing relief, not
    accounting drift.
    """
    from repro.serve import FleetReplaySpec, sweep_fleet
    spec = FleetReplaySpec(messages=messages, workload=workload,
                           seed=seed)
    rows = sweep_fleet(shard_counts, interarrivals, spec)
    table = fleet_table(rows)
    table += ("\n\nsame seeded call sequence at every load point; "
              "per-call charging bit-identical across shard counts "
              "(tests/serve/test_fleet_replay.py)")
    return table


def transport() -> str:
    """RoCC-vs-PCIe attach points: per-op transport cycles over message
    size x batch size, and the batch at which PCIe overtakes RoCC for
    each message size (docs/MODEL.md, "Attach points")."""
    from repro.bench.transport import crossover_batches, sweep_transports
    sections = []
    for operation in ("deserialize", "serialize"):
        rows = sweep_transports(operation=operation)
        sections.append(transport_table(rows))
        sections.append(transport_crossover_table(crossover_batches(rows)))
    return "\n\n".join(sections)


def section53() -> str:
    """ASIC frequency/area with per-component breakdowns."""
    model = AsicModel()
    lines = [model.report(), "",
             "paper: deserializer 1.95 GHz / 0.133 mm^2; "
             "serializer 1.84 GHz / 0.278 mm^2", "",
             "deserializer area breakdown (mm^2):"]
    for name, area in model.deserializer.breakdown():
        lines.append(f"  {name:<38} {area:.4f}")
    lines.append("serializer area breakdown (mm^2):")
    for name, area in model.serializer.breakdown():
        lines.append(f"  {name:<38} {area:.4f}")
    return "\n".join(lines)


#: Figure name -> generator, for the CLI.
ALL_FIGURES = {
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": lambda: figure5_6("deserialize"),
    "fig6": lambda: figure5_6("serialize"),
    "fig7": figure7,
    "fig11a": lambda: figure11("11a"),
    "fig11b": lambda: figure11("11b"),
    "fig11c": lambda: figure11("11c"),
    "fig11d": lambda: figure11("11d"),
    "sec5.1.3": section513,
    "fig12": figure12,
    "fig13": figure13,
    "sec5.3": section53,
    "faults": fault_degradation,
    "serving": serving,
    "fleet": fleet,
    "transport": transport,
}
