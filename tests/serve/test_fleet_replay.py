"""Deterministic fleet replay: shard count must not change semantics
or cycle charging.

A fixed-seed 1k-message replay of the fleet distributions runs through
1, 2, and 4 fabric shards and through a single multi-tenant
ResilientServer.  Under the pure-charging serving discipline
(``ServePolicy.stateless_tiles``) every per-message result -- status,
response bytes, accelerator cycles, host cycles -- and the total cycle
bill are bit-identical across all four runs.  Only queueing delay may
differ (more shards = shorter waits; that is the point of sharding).
"""

import pytest

from repro.bench.fleet import charging_signature
from repro.serve import (
    FabricPolicy,
    FleetReplaySpec,
    REPLAY_SERVE_POLICY,
    build_fleet_fabric,
    build_fleet_server,
    generate_calls,
    replay_through_fabric,
    replay_through_server,
    sweep_fleet,
)

_SPEC = FleetReplaySpec(messages=1_000, interarrival_cycles=2_500.0,
                        seed=424242, workload="fleet")


@pytest.fixture(scope="module")
def calls():
    return generate_calls(_SPEC)


@pytest.fixture(scope="module")
def reference(calls):
    server = build_fleet_server(REPLAY_SERVE_POLICY, _SPEC)
    outcomes = replay_through_server(server, calls)
    return server, outcomes


def test_generator_is_deterministic(calls):
    again = generate_calls(_SPEC)
    assert calls == again
    assert len(calls) == _SPEC.messages


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_fabric_bit_identical_to_single_node(shards, calls, reference):
    server, ref_outcomes = reference
    fabric = build_fleet_fabric(
        FabricPolicy(shards=shards, serve=REPLAY_SERVE_POLICY), _SPEC)
    outcomes = replay_through_fabric(fabric, calls)

    assert charging_signature(outcomes) == charging_signature(ref_outcomes)
    # Total cycle bill, summed in arrival order on both sides: exact.
    assert (sum(o.accel_cycles for o in outcomes)
            == sum(o.accel_cycles for o in ref_outcomes))
    assert (sum(o.cpu_cycles for o in outcomes)
            == sum(o.cpu_cycles for o in ref_outcomes))
    # Every admitted call really went somewhere real.
    for outcome in outcomes:
        assert outcome.tenant is not None
        if outcome.status != "shed":
            assert outcome.shard is not None
            assert 0 <= outcome.shard < shards


def test_replay_covers_the_template_mix(calls):
    """The seeded tenant plan should exercise more than one fleet
    schema template (the Figure 4 mix, not a single shape)."""
    from repro.serve.replay import tenant_plan
    templates = {template for _, template in tenant_plan(_SPEC)}
    assert len(templates) > 1
    tenants_seen = {call.tenant for call in calls}
    assert len(tenants_seen) == _SPEC.tenants


def test_echo_scales_monotonically_with_shard_count():
    """At every offered load, adding shards never raises the p99 of
    admitted calls and never lowers delivered throughput.  Arrivals are
    seeded on the simulated clock, so the comparison is exact."""
    rows = sweep_fleet((1, 2, 4), (1_000.0, 400.0),
                       FleetReplaySpec(messages=150, workload="echo"))
    for load in (1_000.0, 400.0):
        curve = sorted((r for r in rows if r["interarrival_cycles"] == load),
                       key=lambda r: r["shards"])
        assert [r["shards"] for r in curve] == [1, 2, 4]
        for thin, wide in zip(curve, curve[1:]):
            assert wide["p99_cycles"] <= thin["p99_cycles"], (load, wide)
            assert (wide["throughput_per_mcycle"]
                    >= thin["throughput_per_mcycle"]), (load, wide)
