"""The cluster's free-slot index against a brute-force scan.

``Cluster.nodes_with_free_map_slot`` and ``nodes_with_free_reduce_slot``
read an index that ``Node.acquire_*``/``release_*`` keep current; the
``offline``, ``accepting`` and ``excluded`` flags are checked at query
time.  The property test drives random slot transitions and flag flips
and compares every query with a scan over ``Cluster.nodes()``, order
included.  The pinned runs check that the two paths that flip the flags
during a simulation (heartbeat dispatch flips ``accepting``, the S3 slot
checker flips ``excluded``; outages flip ``offline``) still produce the
results recorded before the index existed.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.topology import Topology
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError
from repro.mapreduce.costmodel import CostModel
from repro.mapreduce.driver import SimulationDriver
from repro.mapreduce.faults import FaultModel, Outage, SpeculationConfig
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.s3 import S3Config, S3Scheduler

OPS = ("acquire_map", "release_map", "acquire_reduce", "release_reduce",
       "offline", "accepting", "excluded")


def brute_free_map(cluster: Cluster, include_excluded: bool) -> list[Node]:
    return [n for n in cluster.nodes()
            if n.free_map_slots > 0 and not n.offline and n.accepting
            and (include_excluded or not n.excluded)]


def brute_free_reduce(cluster: Cluster) -> list[Node]:
    return [n for n in cluster.nodes()
            if n.free_reduce_slots > 0 and not n.offline and n.accepting]


def same_nodes(got: list[Node], want: list[Node]) -> bool:
    return [id(n) for n in got] == [id(n) for n in want]


def assert_index_matches(cluster: Cluster) -> None:
    for include_excluded in (True, False):
        assert same_nodes(
            cluster.nodes_with_free_map_slot(include_excluded=include_excluded),
            brute_free_map(cluster, include_excluded))
    assert same_nodes(cluster.nodes_with_free_reduce_slot(),
                      brute_free_reduce(cluster))


def apply(node: Node, op: str, counter: int) -> None:
    """One transition; a refused acquire or release must change nothing."""
    if op in ("acquire_map", "acquire_reduce"):
        acquire = (node.acquire_map_slot if op == "acquire_map"
                   else node.acquire_reduce_slot)
        try:
            acquire(f"a{counter}")
        except ConfigError:
            pass
    elif op in ("release_map", "release_reduce"):
        running = node.running_maps if op == "release_map" else node.running_reduces
        release = (node.release_map_slot if op == "release_map"
                   else node.release_reduce_slot)
        if running:
            release(min(running))
        else:
            with pytest.raises(ConfigError):
                release("ghost")
    else:
        setattr(node, op, not getattr(node, op))


@given(
    slots=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                   min_size=1, max_size=6),
    steps=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(OPS)),
                   max_size=80),
)
@settings(max_examples=200, deadline=None)
def test_index_matches_brute_force_scan(slots, steps):
    nodes = [Node(f"n{i}", f"r{i % 2}", map_slots=m, reduce_slots=r)
             for i, (m, r) in enumerate(slots)]
    cluster = Cluster(nodes, Topology({n.node_id: n.rack for n in nodes}))
    assert_index_matches(cluster)
    for counter, (index, op) in enumerate(steps):
        apply(nodes[index % len(nodes)], op, counter)
        assert_index_matches(cluster)


def test_slots_taken_before_joining_a_cluster_are_indexed():
    busy = Node("n0", "r0", map_slots=1, reduce_slots=2)
    busy.acquire_map_slot("m")
    busy.acquire_reduce_slot("r")
    free = Node("n1", "r0")
    cluster = Cluster([busy, free], Topology({"n0": "r0", "n1": "r0"}))
    assert cluster.nodes_with_free_map_slot() == [free]
    assert cluster.nodes_with_free_reduce_slot() == [busy, free]
    busy.release_map_slot("m")
    assert cluster.nodes_with_free_map_slot() == [busy, free]


def test_node_joins_one_cluster_only():
    node = Node("n0", "r0")
    topology = Topology({"n0": "r0"})
    Cluster([node], topology)
    with pytest.raises(ConfigError, match="already belongs"):
        Cluster([node], topology)


# --------------------------------------------------------------- pinned runs
def run(scheduler, fast_profile, job_factory, *, speeds=None, blocks=16,
        arrivals=(0.0, 5.0), **driver_kwargs):
    driver = SimulationDriver(
        scheduler,
        cluster_config=ClusterConfig(num_nodes=8, rack_sizes=(4, 4),
                                     node_speeds=speeds),
        cost_model=CostModel(job_submit_overhead_s=0.0, subjob_overhead_s=0.0),
        **driver_kwargs)
    driver.register_file("f", 64.0 * blocks)
    driver.submit_all(job_factory(fast_profile, len(arrivals)), list(arrivals))
    return driver.run()


def fingerprint(result) -> tuple[float, int, str]:
    """End time, events processed and the sha256 of the whole trace."""
    return (result.end_time, result.events_processed,
            hashlib.sha256(result.trace.dump().encode()).hexdigest())


HEARTBEAT = dict(dispatch_mode="heartbeat", heartbeat_interval_s=1.0,
                 tasks_per_heartbeat=2)
SLOW_LAST_NODE = [1.0] * 7 + [0.25]


@pytest.mark.parametrize("factory, pinned", [
    (FifoScheduler, (12.75, 144, "461f1d7b5fead720c53659f9cfd0f04f"
                                 "a2936f071c4508c586b235ce19f8a7d3")),
    (S3Scheduler, (12.375, 153, "4a7eb1c8d4539867b807dcc3b9c34871"
                                "36ed7e71dfb57aae5543f7c146cc5b87")),
], ids=["fifo", "s3"])
def test_heartbeat_dispatch_is_pinned(factory, pinned, fast_profile,
                                      job_factory):
    result = run(factory(), fast_profile, job_factory, **HEARTBEAT)
    assert fingerprint(result) == pinned


def test_s3_slot_checker_is_pinned(fast_profile, job_factory):
    config = S3Config(slot_check_enabled=True, adaptive_segments=True,
                      slot_check_interval_s=2.0)
    result = run(S3Scheduler(config), fast_profile, job_factory,
                 speeds=SLOW_LAST_NODE, blocks=64, arrivals=(0.0, 1.0))
    checks = result.trace.filter(kind="s3.slotcheck")
    assert sum(1 for r in checks if r.detail["excluded"]) == 11
    assert fingerprint(result) == (
        36.0, 179,
        "ea49ef3a8e3a2d080fe3ae57d16ee205c54163ee334837ada863dfe5f7ba23b1")


def test_outage_and_speculation_are_pinned(fast_profile, job_factory):
    result = run(FifoScheduler(), fast_profile, job_factory,
                 speeds=SLOW_LAST_NODE, blocks=64,
                 fault_model=FaultModel(outages=(Outage("node_002", 3.0, 6.0),)),
                 speculation=SpeculationConfig(enabled=True,
                                               check_interval_s=1.0))
    assert len(result.trace.filter(kind="node.offline")) == 1
    assert result.speculative_launched == 1
    assert fingerprint(result) == (
        35.0, 225,
        "ef841f87532a9abdd90ca20813becab42d0f6e7a9dc9963483f873e28b5f8ffa")
