"""Golden pins on absolute cycle values.

Every other identity test compares two execution modes against each
other (shard counts, jobs levels, tiers, transports), so a change that
shifts all of them the same way passes those.  These pins hold the
absolute numbers: the charging digest of a fixed fleet replay and the
RoCC/PCIe totals of fixed transport-sweep cells.  The cycle model is
deterministic, so each pin is exact; a deliberate cost-model change
re-pins them in the same commit.
"""

import pytest

from repro.bench.fleet import charging_digest
from repro.bench.transport import crossover_batches, sweep_transports
from repro.serve import (
    REPLAY_SERVE_POLICY,
    FabricPolicy,
    FleetReplaySpec,
    build_fleet_fabric,
    generate_calls,
    replay_through_fabric,
)

#: Serial 4-shard, 48-tenant, 1,000-message fleet replay.
FLEET_DIGEST = ("0586bef129050777bad49a34ba7afa08"
                "78b61991712370406013f7ce6edb286d")

#: (operation, size, batch) -> (rocc_total_cycles, pcie_total_cycles).
TRANSPORT_TOTALS = {
    ("deserialize", 16, 1): (176.8, 943.83125),
    ("deserialize", 16, 128): (7038.59999999999, 6920.59999999999),
    ("deserialize", 512, 1): (207.8, 982.596875),
    ("deserialize", 512, 128): (12286.599999999973, 13162.599999999973),
    ("serialize", 16, 1): (113.0, 880.03125),
    ("serialize", 16, 128): (2432.0, 2314.0),
    ("serialize", 512, 1): (144.0, 918.796875),
    ("serialize", 512, 128): (7600.0, 8476.0),
}


def test_fleet_replay_charging_digest():
    spec = FleetReplaySpec(messages=1_000, tenants=48, workload="fleet")
    fabric = build_fleet_fabric(
        FabricPolicy(shards=4, serve=REPLAY_SERVE_POLICY), spec)
    outcomes = replay_through_fabric(fabric, generate_calls(spec))
    assert charging_digest(outcomes) == FLEET_DIGEST


@pytest.mark.parametrize("operation", ["deserialize", "serialize"])
def test_transport_cell_totals(operation):
    rows = sweep_transports((16, 512), (1, 128), operation)
    got = {(operation, r["size"], r["batch"]):
           (r["rocc_total_cycles"], r["pcie_total_cycles"]) for r in rows}
    want = {key: value for key, value in TRANSPORT_TOTALS.items()
            if key[0] == operation}
    assert got == want


def test_pcie_amortisation_monotone_and_crossovers():
    """On the full batch axis, PCIe per-op transport cost never rises
    with batch size, and the crossover batch per message size is the
    one docs/MODEL.md states: <=64 B cross at 128, 128 B at 256, 256 B
    at 512, >=512 B never."""
    rows = sweep_transports(operation="deserialize")
    for size in {r["size"] for r in rows}:
        per_op = [r["pcie_transport_per_op"] for r in rows
                  if r["size"] == size]
        assert per_op == sorted(per_op, reverse=True), size
    crossovers = {c["size"]: c["crossover_batch"]
                  for c in crossover_batches(rows)}
    assert crossovers == {16: 128, 32: 128, 64: 128, 128: 256, 256: 512,
                          512: None, 1024: None}
