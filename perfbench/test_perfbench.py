"""The benchmark's own tests: determinism, held-out seeds, the trace
self-checks and the environment comparison rule.

Run from the repository root with ``python3 -m pytest perfbench -q``.
The end-to-end tests run ``run.py`` at full workload size with a tiny
``--seconds``, so each sequence is replayed once.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import record
import workloads
from tracer import CallLedger, Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seeds used while the benchmark was tuned; HELD_OUT was never used.
TUNED_SEED = 11
HELD_OUT_SEED = 907_331


def run_bench(workload: str, seed: int, trace: int = 0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    deterministic = {}
    notes = []
    for line in lines:
        if line.startswith("deterministic: "):
            key, value = line[len("deterministic: "):].split(" = ", 1)
            deterministic[key] = value
        elif line.startswith("note: "):
            notes.append(line[len("note: "):])
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, deterministic, notes


@pytest.mark.parametrize("workload", ["fleet-ingest", "fleet-faults"])
def test_same_seed_is_bit_identical(workload):
    first = run_bench(workload, TUNED_SEED)
    second = run_bench(workload, TUNED_SEED)
    for rc, result, _, _ in (first, second):
        assert rc == 0 and result["correct"] and result["failed"] == 0
    assert first[2] == second[2]
    for key in ("charging_digest", "fail_frac", "sim_p50_cycles",
                "sim_p99_cycles", "sim_cycles_per_call", "paper_err_pct"):
        assert key in first[2]
    for key in ("ok_frac", "sim_p50_cycles", "sim_p99_cycles",
                "sim_cycles_per_call", "paper_err_pct"):
        assert (first[1]["metrics"][key]["value"]
                == second[1]["metrics"][key]["value"])


def test_held_out_seed_is_valid():
    rc, result, det, _ = run_bench("fleet-faults", HELD_OUT_SEED)
    workload = workloads.SERVING["fleet-faults"]
    assert rc == 0 and result["correct"]
    assert result["attempted"] >= workload.sequences * workload.messages
    assert 0.0 <= float(det["fail_frac"]) < 0.05
    assert result["metrics"]["ok_frac"]["value"] \
        == 1.0 - float(det["fail_frac"])


def test_traced_runs_cover_every_layer_metric():
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    missing = []
    for workload in ("fleet-ingest", "paper-figures"):
        rc, result, det, notes = run_bench(workload, HELD_OUT_SEED, trace=1)
        assert rc == 0 and result["correct"], notes
        assert set(result["metrics"]) == declared
        skipped = [n for n in notes if n.startswith("layers not entered")]
        missing.append(set(skipped[0].split(": ", 1)[1].split())
                       if skipped else set())
    assert not missing[0] & missing[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, result, _, _ = run_bench("fleet-ingest", 1, cwd=tmp_path)
    assert rc != 0 and result is None


def test_comparable_names_the_differing_field():
    env = {"cores": 2, "python": "3.11.7", "numpy": "2.4.6",
           "git_sha": "a", "src_digest": "x", "workload": "w", "seed": 1,
           "seconds": 20, "trace": False, "sizes": {"messages": 2000}}
    assert record.comparable(env, dict(env, git_sha="b",
                                       src_digest="y")) is None
    assert record.comparable(env, dict(env, cores=4)) == "cores"
    assert record.comparable(env, dict(env, sizes={"messages": 100})) \
        == "sizes"
    assert record.comparable(env, dict(env, seed=2)) == "seed"


def test_nesting_check_flags_a_span_outside_its_parent():
    tracer = Tracer()
    tracer.spans = [["serve.fabric", 0, 100, -1, 0],
                    ["accel.deser", 10, 40, 0, 0],
                    ["accel.deser.unit", 20, 30, 1, 0]]
    assert tracer.check_nesting() == []
    self_ns = tracer.self_times()
    assert sum(ns for ns, _ in self_ns.values()) == 100
    tracer.spans[2][2] = 50
    assert any("not nested" in e for e in tracer.check_nesting())


def test_ledger_re_adds_in_charging_order():
    ledger = CallLedger()
    ledger.attempts.append([])
    ledger.stage("accel.deser", 0.1, 0.2)
    ledger.stage("serve.handler", 500.0)
    ledger.stage("accel.ser", 0.3, 8.0)
    charged = 0.0
    charged += 0.1 + 0.2
    charged += 500.0
    charged += 0.3 + 8.0
    assert ledger.total() == 0.0 + charged


def test_instrument_restores_every_entry_point():
    from repro.accel.driver import ProtoAccelerator
    from repro.serve.fabric import ServingFabric
    before = (ServingFabric.__dict__["call"],
              ProtoAccelerator.__dict__["deserialize"])
    with instrument(Tracer()):
        assert ServingFabric.__dict__["call"] is not before[0]
    assert (ServingFabric.__dict__["call"],
            ProtoAccelerator.__dict__["deserialize"]) == before
