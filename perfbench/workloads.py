"""The benchmark's workloads and how each one is run and checked.

Two serving workloads replay seeded open-loop call sequences through a
2-shard :class:`~repro.serve.fabric.ServingFabric`; ``paper-figures``
regenerates the paper's figures from scratch.  ``NOTES.md`` records why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import gc
import hashlib
import math
import re
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.accel import adt, codegen, tiers
from repro.accel.driver import DESER_BATCH_CACHE, SER_BATCH_CACHE
from repro.bench import figures, harness
from repro.bench.fleet import charging_digest
from repro.bench.harness import WorkloadSpec, run_many, set_options
from repro.bench.microbench import alloc_bench_names, nonalloc_bench_names
from repro.cpu.boom import boom_cpu
from repro.cpu.model import DESER_CYCLE_CACHE, SER_CYCLE_CACHE
from repro.cpu.xeon import xeon_cpu
from repro.faults import FaultPlan
from repro.hyperprotobench import bench_names
from repro.serve.fabric import FabricPolicy
from repro.serve.queue import AdmissionPolicy
from repro.serve.replay import (
    REPLAY_SERVE_POLICY,
    FleetReplaySpec,
    build_fleet_fabric,
    generate_calls,
)
from repro.serve.server import ServePolicy

from tracer import Tracer, capture_handlers, instrument, wrap_handler

_ns = time.perf_counter_ns

#: Fabric width and tenant count of every serving workload.
SHARDS = 2
TENANTS = 8


@dataclass(frozen=True)
class ServingWorkload:
    """Seeded replays of the Section 3 fleet mix: everything but the seed.

    A run replays ``sequences`` independent call sequences, each seeded
    from the run's seed, so one run averages over that many tenant plans
    and arrival draws.  More sequences steady the figures that depend on
    the input (a few large messages dominate the host time of a pass);
    fewer leave more repeats of every call within a run, which the host
    timing needs (see :class:`Replays`)."""

    messages: int
    interarrival_cycles: float
    sequences: int
    fault_rate: float = 0.0
    serve: ServePolicy = REPLAY_SERVE_POLICY

    def seeds(self, seed: int) -> list[int]:
        """The run's per-sequence seeds (stable and non-overlapping)."""
        return [int.from_bytes(hashlib.blake2b(
            f"{seed}/{i}".encode(), digest_size=6).digest(), "big")
            for i in range(self.sequences)]

    def spec(self, seed: int) -> FleetReplaySpec:
        return FleetReplaySpec(
            messages=self.messages,
            interarrival_cycles=self.interarrival_cycles,
            seed=seed, tenants=TENANTS, workload="fleet")

    def policy(self, seed: int) -> FabricPolicy:
        serve = self.serve
        if self.fault_rate:
            serve = replace(serve, fault_plan=FaultPlan(
                seed=seed, rate=self.fault_rate))
        return FabricPolicy(shards=SHARDS, serve=serve)


SERVING = {
    "fleet-ingest": ServingWorkload(
        messages=2_000, interarrival_cycles=2_000.0, sequences=4),
    # The serving figure's resilience policy (10k-cycle watchdog, queue
    # depth 16, 50k-cycle deadline): under the default 100k watchdog,
    # about ten hung operations per 3,000 calls each stall a tile for
    # 100k cycles and alone decide the latency tail, so simulated p50 and
    # p99 moved 20-44% from seed to seed.  450 cycles between arrivals
    # keeps the shards near saturation, so the admission queue still sheds.
    "fleet-faults": ServingWorkload(
        messages=3_000, interarrival_cycles=450.0, sequences=2,
        fault_rate=0.02,
        serve=replace(REPLAY_SERVE_POLICY, watchdog_budget_cycles=10_000.0,
                      admission=AdmissionPolicy(max_depth=16,
                                                deadline_cycles=50_000.0))),
}

#: Figures ``paper-figures`` regenerates, in order, with the file under
#: ``results/`` each one's text must equal.
FIGURES = {
    "fig3": "figure_3:_message_size_distribution.txt",
    "fig4": "figure_4:_field_type_breakdowns.txt",
    "fig5": "figure_5:_deserialization_cycle_attribution.txt",
    "fig6": "figure_6:_serialization_cycle_attribution.txt",
    "fig7": "figure_7:_field-number_usage_density.txt",
    "fig11a": "figure_11a.txt",
    "fig11b": "figure_11b.txt",
    "fig11c": "figure_11c.txt",
    "fig11d": "figure_11d.txt",
    "sec5.1.3": "section_5.1.3:_overall_microbenchmark_geomeans.txt",
    "fig12": "figure_12.txt",
    "fig13": "figure_13.txt",
    "sec5.3": "section_5.3:_asic_area_and_frequency.txt",
}

WORKLOADS = tuple(SERVING) + ("paper-figures",)


@dataclass
class RunResult:
    """What one run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Deterministic outcomes: identical for identical seeds.
    deterministic: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    tracer: Tracer | None = None

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


# -- shared helpers ----------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (the serving layer's own definition)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _refuse_disk_cache(*_args, **_kwargs):
    raise RuntimeError("the benchmark never touches results/.cache/")


def isolate_harness() -> None:
    """Serial figure runs with no persistent result cache: the disk-cache
    functions raise if anything calls them."""
    set_options(jobs=1, disk_cache=False)
    harness.load_cached = harness.store_cached = _refuse_disk_cache


def drop_compiled() -> None:
    """Forget every compiled kernel and ADT template (a cold process)."""
    codegen.invalidate_kernel_caches()
    adt.clear_template_cache()


def drop_results() -> None:
    """Forget every memoised result, so figures regenerate from scratch."""
    harness.set_workload_cache_enabled(False)
    harness.set_workload_cache_enabled(True)
    for cache in (DESER_CYCLE_CACHE, SER_CYCLE_CACHE,
                  DESER_BATCH_CACHE, SER_BATCH_CACHE):
        cache.clear()


class Counters:
    """Process-global counters read as a delta across one phase."""

    def __init__(self):
        self.tiers = tiers.counters()
        self.kernels = codegen.cache_counters()[:2]

    def delta(self) -> dict:
        now = tiers.counters()
        runs = {tier: sum(now[op][tier] - self.tiers[op][tier]
                          for op in now) for tier in now["deser"]}
        hits, misses = codegen.cache_counters()[:2]
        hits -= self.kernels[0]
        misses -= self.kernels[1]
        return {
            "codegen_frac": ratio(runs["codegen"], sum(runs.values())),
            "kernel_hit_ratio": ratio(hits, hits + misses),
        }


_PAPER_PAIR = re.compile(r"([\d.]+)x\s+([\d.]+)x")


def paper_error_pct(section513_text: str) -> float:
    """Mean |simulated - paper| / paper over every ratio in the
    Section 5.1.3 table that is printed beside a paper value."""
    errors = []
    for line in section513_text.splitlines():
        for simulated, paper in _PAPER_PAIR.findall(line):
            errors.append(abs(float(simulated) - float(paper))
                          / float(paper))
    if not errors:
        raise ValueError("no simulated/paper pairs in the 5.1.3 table")
    return 100.0 * sum(errors) / len(errors)


# -- serving workloads -------------------------------------------------------


def _replay(fabric, calls, times: list | None = None) -> list:
    """Serve every call in order; append each call's host ns to
    ``times`` when given."""
    call = fabric.call
    if times is None:
        return [call(c.tenant, c.method, c.request, at=c.at) for c in calls]
    outcomes = []
    append = outcomes.append
    record = times.append
    for c in calls:
        start = _ns()
        append(call(c.tenant, c.method, c.request, at=c.at))
        record(_ns() - start)
    return outcomes


def _warm_calls(calls) -> list:
    """The first call of every tenant: the calls that compile kernels."""
    seen, first = set(), []
    for c in calls:
        if c.tenant not in seen:
            seen.add(c.tenant)
            first.append(c)
    return first


def check_serving(fabric, calls, outcomes, handlers) -> tuple[int, list]:
    """Output and accounting checks on one replay.

    Every ``ok`` response is decoded with :mod:`repro.proto` and compared
    with the registered handler's answer to the software-decoded request;
    every tenant's books must close.  Returns ``(wrong, errors)``."""
    wrong, errors = 0, []
    for c, outcome in zip(calls, outcomes):
        if outcome.status != "ok":
            continue
        method = fabric.registry.account(c.tenant).service.method(c.method)
        expected = handlers[(c.tenant, c.method)](
            method.input_descriptor.parse(c.request))
        if method.output_descriptor.parse(outcome.response) != expected:
            wrong += 1
    if wrong:
        errors.append(f"{wrong} ok responses differ from the handler's "
                      "answer to the software-decoded request")
    offered = 0
    for account in fabric.registry:
        s = account.stats
        offered += s.offered
        closed = s.shed + s.expired + s.faulted + s.succeeded + s.migrated
        if closed != s.offered:
            errors.append(f"tenant {account.tenant}: shed+expired+faulted"
                          f"+succeeded+migrated = {closed} != offered "
                          f"{s.offered}")
    if offered != len(calls):
        errors.append(f"fabric offered {offered} calls, replay sent "
                      f"{len(calls)}")
    return wrong, errors


def summarize(fabric, outcomes, wrong: int) -> dict:
    """The deterministic figures of one replayed sequence."""
    stats = fabric.stats
    admitted = [o for o in outcomes if o.status != "shed"]
    servers = [s.server.stats for s in fabric.shards]
    return {
        "digest": charging_digest(outcomes),
        "latencies": [o.latency_cycles for o in admitted],
        "waits": [o.latency_cycles - o.accel_cycles - o.cpu_cycles
                  for o in admitted],
        "accel_cycles": sum(o.accel_cycles for o in outcomes),
        "offered": stats.offered,
        "delivered": stats.delivered,
        "shed": stats.shed,
        "failed": stats.failed,
        "wrong": wrong,
        "failovers": sum(s.failovers for s in servers),
        "host_fallbacks": sum(s.host_fallbacks for s in servers),
        "watchdog_aborts": fabric.watchdog_aborts,
    }


def aggregate(summaries: list[dict]) -> dict:
    """One run's deterministic outcomes, over all of its sequences."""
    total = {key: sum(s[key] for s in summaries)
             for key in ("offered", "delivered", "shed", "failed", "wrong",
                         "failovers", "host_fallbacks", "watchdog_aborts",
                         "accel_cycles")}
    latencies = [x for s in summaries for x in s["latencies"]]
    digest = hashlib.sha256()
    for s in summaries:
        digest.update(s["digest"].encode())
    return {
        "charging_digest": digest.hexdigest(),
        "fail_frac": (total["shed"] + total["failed"] + total["wrong"])
        / total["offered"],
        "sim_p50_cycles": percentile(latencies, 50.0),
        "sim_p99_cycles": percentile(latencies, 99.0),
        "sim_cycles_per_call": (total["accel_cycles"] / total["delivered"]
                                if total["delivered"] else 0.0),
        "sim_wait_cycles_p99": percentile(
            [x for s in summaries for x in s["waits"]], 99.0),
        **{key: total[key] for key in ("offered", "delivered", "shed",
                                       "failed", "failovers",
                                       "host_fallbacks",
                                       "watchdog_aborts")},
    }


class ServingRun:
    """One run of a serving workload: its sequences, and the replays."""

    def __init__(self, name: str, seed: int):
        self.workload = SERVING[name]
        self.seeds = self.workload.seeds(seed)
        self.sequences = [generate_calls(self.workload.spec(s))
                          for s in self.seeds]
        self.result = RunResult(sizes={
            "sequences": self.workload.sequences,
            "messages": self.workload.messages,
            "tenants": TENANTS, "shards": SHARDS,
            "interarrival_cycles": self.workload.interarrival_cycles,
            "fault_rate": self.workload.fault_rate})
        self.summaries: list[dict | None] = [None] * len(self.seeds)

    def build(self, k: int, wrap=None):
        with capture_handlers(wrap) as handlers:
            fabric = build_fleet_fabric(self.workload.policy(self.seeds[k]),
                                        self.workload.spec(self.seeds[k]))
        return fabric, handlers

    def setup(self, k: int) -> float:
        """One cold set-up, in seconds: compiled kernels and ADT templates
        dropped, then fabric construction plus each tenant's first call,
        which compiles its kernels again."""
        drop_compiled()
        start = _ns()
        fabric = build_fleet_fabric(self.workload.policy(self.seeds[k]),
                                    self.workload.spec(self.seeds[k]))
        _replay(fabric, _warm_calls(self.sequences[k]))
        return (_ns() - start) / 1e9

    def check(self, k: int, fabric, outcomes, handlers) -> None:
        """Full checks on a sequence's first replay; every later replay
        of it must charge identically."""
        result = self.result
        result.attempted += len(outcomes)
        if self.summaries[k] is None:
            wrong, errors = check_serving(fabric, self.sequences[k],
                                          outcomes, handlers)
            result.failed += wrong
            result.errors.extend(errors)
            self.summaries[k] = summarize(fabric, outcomes, wrong)
        elif charging_digest(outcomes) != self.summaries[k]["digest"]:
            result.failed += len(outcomes)
            result.errors.append(f"sequence {k}: a repeat replay of the "
                                 "same calls charged differently")

    def replays(self, seconds: float, wrap=None, after=None,
                setups: list | None = None) -> Replays:
        """Replay the sequences in turn on fresh fabrics until
        ``seconds`` pass and each has run once.  With ``setups``, a timed
        cold set-up of the same sequence precedes every replay, so the
        set-ups sample the whole run, as the replays do."""
        replays = Replays(len(self.sequences))
        stop = _ns() + int(seconds * 1e9)
        j = 0
        while True:
            k = j % len(self.sequences)
            gc.collect()
            if setups is not None:
                setups.append(self.setup(k))
            fabric, handlers = self.build(k, wrap)
            times = []
            start = _ns()
            outcomes = _replay(fabric, self.sequences[k], times)
            replays.add(k, _ns() - start, times)
            self.check(k, fabric, outcomes, handlers)
            if after is not None:
                after(outcomes)
            j += 1
            if j >= len(self.sequences) and _ns() >= stop:
                return replays


class Replays:
    """Host times of repeated replays (or regenerations), per sequence.

    The shared host's speed drifts by up to 2x over tens of seconds, so a
    median over one run mostly measures the neighbours.  Every call (and
    every sequence) is repeated, so its fastest repeat is kept: the best
    of N is the least disturbed measurement of the program's own cost."""

    def __init__(self, sequences: int):
        self.walls: list[list[int]] = [[] for _ in range(sequences)]
        self.best: list[list[int] | None] = [None] * sequences

    def add(self, k: int, wall_ns: int, call_ns: list[int]) -> None:
        self.walls[k].append(wall_ns)
        best = self.best[k]
        self.best[k] = (call_ns if best is None
                        else [min(a, b) for a, b in zip(best, call_ns)])

    @property
    def count(self) -> int:
        return sum(len(w) for w in self.walls)

    def pass_seconds(self) -> float:
        """One pass over every sequence, each call at its fastest."""
        return sum(self.calls()) / 1e9

    def calls(self) -> list[int]:
        """Each call's fastest time, in ns, over every sequence replayed."""
        return [ns for best in self.best if best for ns in best]

    def describe(self) -> str:
        return "; ".join(" ".join(f"{ns / 1e6:.0f}" for ns in w)
                         for w in self.walls)


def run_serving(name: str, seed: int, seconds: float,
                trace: bool) -> RunResult:
    isolate_harness()
    run = ServingRun(name, seed)
    result = run.result
    setups: list[float] = []
    phase = seconds / 2 if trace else seconds
    replays = run.replays(phase, setups=setups)
    rss = peak_rss_mb()
    det = result.deterministic
    det.update(aggregate(run.summaries))
    calls = replays.calls()
    result.notes.append(
        f"{replays.count} replays of {len(run.sequences)} sequences of "
        f"{run.workload.messages} calls; call percentiles over the "
        f"fastest of each call's repeats, {len(calls)} calls")
    result.notes.append("replay ms by sequence: " + replays.describe())
    if trace:
        _traced_serving(run, phase, replays)
    else:
        wall = replays.pass_seconds()
        result.put("setup_s", statistics.median(setups), "s")
        result.put("wall_s", wall, "s")
        result.put("calls_per_s", len(calls) / wall, "1/s")
        result.put("call_us_p50", percentile(calls, 50.0) / 1e3, "us")
        result.put("call_us_p99", percentile(calls, 99.0) / 1e3, "us")
        result.put("peak_rss_mb", rss, "MB")
        result.put("ok_frac", 1.0 - det["fail_frac"], "ratio")
        for key in ("sim_p50_cycles", "sim_p99_cycles",
                    "sim_cycles_per_call"):
            result.put(key, det[key], "cycles")
    det["paper_err_pct"] = paper_error_pct(figures.section513())
    if not trace:
        result.put("paper_err_pct", det["paper_err_pct"], "%")
    return result


#: Serving layers whose self time is reported per call (``_us``).
SERVING_LAYERS = {
    "serve.fabric": "serve.fabric.self_us",
    "serve.server": "serve.server.self_us",
    "serve.handler": "serve.handler_us",
    "accel.deser": "accel.deser.driver_us",
    "accel.deser.unit": "accel.deser.unit_us",
    "accel.ser": "accel.ser.driver_us",
    "accel.ser.unit": "accel.ser.unit_us",
    "memory.image_read": "memory.image_read_us",
    "memory.image_write": "memory.image_write_us",
    "cpu.fallback": "cpu.fallback_us",
}


def _traced_serving(run: ServingRun, seconds: float,
                    untraced: Replays) -> None:
    result = run.result
    tracer = Tracer(handler_cycles=run.workload.serve.handler_cycles)
    layers: dict[str, list[int]] = {}
    cycles = {"accel.deser": 0.0, "accel.ser": 0.0, "soc.transport": 0.0}
    seen = {"calls": 0, "delivered": 0}
    kept = []

    def after(outcomes):
        errors = tracer.check_nesting()
        for call_id, outcome, ledger in tracer.calls:
            if ledger.total() != outcome.accel_cycles:
                errors.append(f"call {call_id}: layer cycles re-add to "
                              f"{ledger.total()!r}, the outcome charged "
                              f"{outcome.accel_cycles!r}")
            for stages in ledger.attempts:
                for layer, unit, transport in stages:
                    if layer in cycles:
                        cycles[layer] += unit
                    cycles["soc.transport"] += transport
        if errors:
            result.failed += 1
            result.errors.append(f"trace self-check: {errors[0]} "
                                 f"({len(errors)} problems)")
        for name, (ns, count) in tracer.self_times().items():
            entry = layers.setdefault(name, [0, 0])
            entry[0] += ns
            entry[1] += count
        seen["calls"] += len(outcomes)
        seen["delivered"] += sum(1 for o in outcomes if o.ok)
        if not kept:
            kept.extend(tracer.spans)
        tracer.clear()

    counters = Counters()
    with instrument(tracer):
        traced = run.replays(
            seconds, wrap=lambda h: wrap_handler(tracer, h), after=after)
    delta = counters.delta()
    tracer.spans = kept
    result.tracer = tracer
    overhead = traced.pass_seconds() / untraced.pass_seconds()
    calls = seen["calls"]
    per_pass = len(run.sequences) * run.workload.messages / calls
    delivered = seen["delivered"] or 1
    det = result.deterministic
    put = result.put
    for layer, metric in SERVING_LAYERS.items():
        ns, count = layers.get(layer, (0, 0))
        put(metric, ns / calls / 1e3, "us")
        put(f"{layer}.n", count * per_pass, "count")
    put("serve.shed", det["shed"], "count")
    put("serve.failovers", det["failovers"], "count")
    put("serve.host_fallbacks", det["host_fallbacks"], "count")
    put("serve.watchdog_aborts", det["watchdog_aborts"], "count")
    put("serve.sim_wait_cycles_p99", det["sim_wait_cycles_p99"], "cycles")
    put("accel.deser.sim_cycles", cycles["accel.deser"] / delivered,
        "cycles")
    put("accel.ser.sim_cycles", cycles["accel.ser"] / delivered, "cycles")
    put("soc.transport.sim_cycles", cycles["soc.transport"] / delivered,
        "cycles")
    put("accel.tier.codegen_frac", delta["codegen_frac"], "ratio")
    put("accel.kernel_cache.hit_ratio", delta["kernel_hit_ratio"], "ratio")
    put("trace.overhead_pct", 100.0 * (overhead - 1.0), "%")
    result.notes.append(f"traced {calls} calls in {traced.count} replays")


# -- paper figures -----------------------------------------------------------


def _accel_specs(batch_micro: int, batch_hyper: int) -> list[WorkloadSpec]:
    """Every accelerated run behind Figures 11-13."""
    specs = []
    for names in (nonalloc_bench_names(), alloc_bench_names()):
        for operation in ("deserialize", "serialize"):
            specs.extend(WorkloadSpec("micro", n, operation, batch_micro)
                         for n in names)
    for operation in ("deserialize", "serialize"):
        specs.extend(WorkloadSpec("hyper", n, operation, batch_hyper)
                     for n in bench_names())
    return specs


def run_figures(seed: int, seconds: float, trace: bool,
                results_dir: Path) -> RunResult:
    expected = {name: (results_dir / path).read_text(encoding="utf-8")
                for name, path in FIGURES.items()}
    result = RunResult(sizes={
        "figures": list(FIGURES), "micro_batch": figures.MICRO_BATCH,
        "hyper_batch": figures.HYPER_BATCH})
    result.notes.append("figure inputs use the paper's fixed seeds; "
                        "--seed does not change them")
    isolate_harness()

    def setup():
        """One cold set-up, in seconds: compiled kernels, ADT templates
        and memoised results dropped, then the CPU models plus a batch-1
        run of every Fig 11-13 workload (each schema's first call)."""
        drop_compiled()
        drop_results()
        start = _ns()
        boom_cpu()
        xeon_cpu()
        run_many(_accel_specs(1, 1))
        return (_ns() - start) / 1e9

    def regenerate(replays, tracer=None):
        drop_results()
        times = []
        start = _ns()
        for i, (name, _) in enumerate(FIGURES.items()):
            generator = figures.ALL_FIGURES[name]
            began = _ns()
            if tracer is None:
                text = generator()
            else:
                text = tracer.root(f"bench.figure.{name}", i, generator)
            times.append(_ns() - began)
            result.attempted += 1
            if text + "\n" != expected[name]:
                result.failed += 1
                result.errors.append(f"{name}: regenerated text differs "
                                     f"from results/{FIGURES[name]}")
        replays.add(0, _ns() - start, times)

    def loop(seconds, tracer=None, after=None, setups=None) -> Replays:
        replays = Replays(1)
        stop = _ns() + int(seconds * 1e9)
        while True:
            gc.collect()
            if setups is not None:
                setups.append(setup())
            regenerate(replays, tracer)
            if after is not None:
                after()
            if _ns() >= stop:
                return replays

    setups: list[float] = []
    replays = loop(seconds / 2 if trace else seconds, setups=setups)
    rss = peak_rss_mb()
    section = figures.section513()
    det = result.deterministic
    det["paper_err_pct"] = paper_error_pct(section)
    det["fail_frac"] = result.failed / result.attempted
    per_message = []
    messages = cycles = 0
    for run in run_many(_accel_specs(figures.MICRO_BATCH,
                                     figures.HYPER_BATCH)):
        accel = run.results["riscv-boom-accel"]
        batch = (figures.MICRO_BATCH if run.workload in
                 nonalloc_bench_names() + alloc_bench_names()
                 else figures.HYPER_BATCH)
        total = accel.cycles + accel.transport_cycles
        per_message.append(total / batch)
        messages += batch
        cycles += total
    det["sim_p50_cycles"] = percentile(per_message, 50.0)
    det["sim_p99_cycles"] = percentile(per_message, 99.0)
    det["sim_cycles_per_call"] = cycles / messages
    calls = replays.calls()
    result.notes.append(f"{replays.count} regenerations of {len(FIGURES)} "
                        "figures; call percentiles over the fastest of "
                        f"each figure's repeats, {len(calls)} figures")
    result.notes.append("regeneration ms: " + replays.describe()
                        + "; set-ups (s): "
                        + " ".join(f"{s:.2f}" for s in setups))
    if trace:
        _traced_figures(result, replays, loop, seconds / 2)
        return result
    wall = replays.pass_seconds()
    result.put("setup_s", statistics.median(setups), "s")
    result.put("wall_s", wall, "s")
    result.put("calls_per_s", len(calls) / wall, "1/s")
    result.put("call_us_p50", percentile(calls, 50.0) / 1e3, "us")
    result.put("call_us_p99", percentile(calls, 99.0) / 1e3, "us")
    result.put("peak_rss_mb", rss, "MB")
    result.put("ok_frac", 1.0 - det["fail_frac"], "ratio")
    for key in ("sim_p50_cycles", "sim_p99_cycles", "sim_cycles_per_call"):
        result.put(key, det[key], "cycles")
    result.put("paper_err_pct", det["paper_err_pct"], "%")
    return result


def _outermost_ns(spans) -> dict[str, int]:
    """Inclusive ns per span name, counting only spans with no ancestor
    of the same name (nested calls into one layer count once)."""
    totals: dict[str, int] = {}
    for name, start, end, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] = totals.get(name, 0) + end - start
    return totals


def _traced_figures(result, untraced: Replays, loop,
                    seconds) -> None:
    tracer = Tracer()
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    hits = {"cpu": [0, 0], "batch": [0, 0]}
    kept = []

    def after():
        # drop_results() zeroes the memo caches' counters at the start of
        # every regeneration, so they hold exactly this one's lookups.
        errors = tracer.check_nesting()
        if errors:
            result.failed += 1
            result.errors.append(f"trace self-check: {errors[0]} "
                                 f"({len(errors)} problems)")
        for name, ns in _outermost_ns(tracer.spans).items():
            totals[name] = totals.get(name, 0) + ns
        for span in tracer.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        for key, caches in (("cpu", (DESER_CYCLE_CACHE, SER_CYCLE_CACHE)),
                            ("batch", (DESER_BATCH_CACHE,
                                       SER_BATCH_CACHE))):
            hits[key][0] += sum(c.hits for c in caches)
            hits[key][1] += sum(c.hits + c.misses for c in caches)
        if not kept:
            kept.extend(tracer.spans)
        tracer.clear()

    counters = Counters()
    with instrument(tracer):
        traced = loop(seconds, tracer, after)
    delta = counters.delta()
    tracer.spans = kept
    result.tracer = tracer
    regens = traced.count

    def sec(name):
        return totals.get(name, 0) / regens / 1e9

    put = result.put
    put("accel.batch.deser_s", sec("accel.batch.deser"), "s")
    put("accel.batch.ser_s", sec("accel.batch.ser"), "s")
    put("accel.batch_cycle_cache.hit_ratio", ratio(*hits["batch"]),
        "ratio")
    put("memory.image_read_s", sec("memory.image_read"), "s")
    put("memory.image_write_s", sec("memory.image_write"), "s")
    put("cpu.model_s", sec("cpu.model"), "s")
    put("cpu.cycle_cache.hit_ratio", ratio(*hits["cpu"]), "ratio")
    put("bench.workload_build_s", sec("bench.workload_build"), "s")
    for name in FIGURES:
        put(f"bench.figure.{name}_s", sec(f"bench.figure.{name}"), "s")
    for layer in (*SERVING_LAYERS, "accel.batch.deser", "accel.batch.ser",
                  "cpu.model", "bench.workload_build"):
        if layer in counts:
            put(f"{layer}.n", counts[layer] / regens, "count")
    put("bench.figure.n", sum(counts.get(f"bench.figure.{name}", 0)
                              for name in FIGURES) / regens, "count")
    put("accel.tier.codegen_frac", delta["codegen_frac"], "ratio")
    put("accel.kernel_cache.hit_ratio", delta["kernel_hit_ratio"], "ratio")
    put("trace.overhead_pct",
        100.0 * (traced.pass_seconds() / untraced.pass_seconds() - 1.0),
        "%")
    result.notes.append(f"traced {regens} regenerations")
