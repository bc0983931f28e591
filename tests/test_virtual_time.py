"""The shipping node stack under deterministic virtual time.

``repro.sim.vtime`` swaps the event loop's clock for a counter that
jumps to the next timer whenever the loop would block.  Unmodified
``create_node()`` groups on the in-process bus then run in the time
their callbacks take, and — the point — run *the same way every time*:
two same-seed runs, and a third in another process under another
``PYTHONHASHSEED``, agree on delivery order, bus datagram count, wire
counters, the census of every table and the journal's bytes on disk.
Anything that breaks this (a set iterated over addresses, a wall-clock
read) is a bug at its source, and a failing seed replays its failure.

The groups are :class:`repro.sim.group.Group`.  The chaos scenario —
journals, two crash/restarts and a split under 25 % loss — runs here
over 20 seeds and is part of the fingerprint.
"""

import asyncio
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest

from repro.api import LivenessPolicy, MembershipConfig, NodeConfig, RetransmitPolicy
from repro.obs import Histogram, last_snapshot, merge_snapshots
from repro.sim.group import Group, disjoint_keys, wait_for
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import VirtualDeadlockError, VirtualTimeLoop, run_virtual

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------


def test_sleeping_costs_no_wall_time_and_timers_fire_in_order():
    fired = []

    async def scenario():
        loop = asyncio.get_running_loop()
        assert isinstance(loop, VirtualTimeLoop)
        loop.call_later(30.0, fired.append, "late")
        loop.call_later(10.0, fired.append, "early")
        await asyncio.sleep(3600.0)
        return loop.time()

    began = time.monotonic()
    assert run_virtual(scenario()) == pytest.approx(3600.0)
    assert time.monotonic() - began < 5.0
    assert fired == ["early", "late"]


def test_wait_for_times_out_in_virtual_seconds():
    async def scenario():
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.Event().wait(), timeout=120.0)
        return asyncio.get_running_loop().time()

    assert run_virtual(scenario()) == pytest.approx(120.0)


def test_a_deadlock_raises_and_names_the_pending_tasks():
    async def stuck():
        await asyncio.Event().wait()

    async def scenario():
        asyncio.get_running_loop().create_task(stuck(), name="the-waiter")
        await asyncio.Event().wait()

    with pytest.raises(VirtualDeadlockError) as raised:
        run_virtual(scenario())
    assert "the-waiter" in str(raised.value)
    assert "stuck" in str(raised.value)


def test_leftover_tasks_are_cancelled_and_exceptions_propagate():
    cancelled = []

    async def background():
        try:
            await asyncio.sleep(1e9)
        except asyncio.CancelledError:
            cancelled.append(True)
            raise

    async def scenario():
        asyncio.get_running_loop().create_task(background())
        await asyncio.sleep(1.0)
        raise ValueError("from the scenario")

    with pytest.raises(ValueError, match="from the scenario"):
        run_virtual(scenario())
    assert cancelled == [True]


def journals(root: pathlib.Path, names) -> dict:
    """Each node's journal as it lies on disk."""
    result = {}
    for name in names:
        digest = hashlib.sha256()
        for file in ("snapshot.json", "wal.log"):
            digest.update((root / name / file).read_bytes())
        result[name] = digest.hexdigest()
    return result


async def lossy_mesh(seed: int) -> dict:
    """4-node full mesh formed by joining through ``n0``, 5 % loss, the
    paper's N(100, 20) ms delays (so the 50 ms first retransmit timeout
    fires on every link too), liveness and the journal on, a closed-loop
    burst then a paced tail.  The fingerprint includes every node's
    journal as it lies on disk after close."""
    with tempfile.TemporaryDirectory() as directory:
        root = pathlib.Path(directory)

        def config(name):
            return NodeConfig(
                liveness=LivenessPolicy(heartbeat_interval=0.2, quarantine_after=5.0),
                membership=MembershipConfig(seed_peers=() if name == "n0" else ("n0",)),
                data_dir=str(root / name),
            )

        group = await Group.start(4, config, seed, 0.05, GaussianDelayModel())
        async with group:
            await group.burst(60)
            await group.paced(20, rate=10.0)
            await group.settle()
            result = group.fingerprint()
        result["journal"] = journals(root, group.order)
        return result


async def lossy_overlay(seed: int) -> dict:
    """16-node relay overlay (fanout 3, views of 12), 5 % loss."""
    config = NodeConfig(dissemination="overlay")
    group = await Group.start(16, config, seed, 0.05, GaussianDelayModel())
    async with group:
        await group.burst(4)
        await group.paced(8, rate=2.0)
        await group.settle()
        return group.fingerprint()


# ----------------------------------------------------------------------
# chaos: journals, two crash/restarts and a split under 25 % loss
# ----------------------------------------------------------------------


def chaos_config(root: pathlib.Path):
    keyed = disjoint_keys(NodeConfig(
        r=64, k=3,
        retransmit=RetransmitPolicy(initial_timeout=0.02),
        anti_entropy_interval=0.1,
        liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.6),
        journal_snapshot_interval=16,
        metrics_interval=0.2,
    ))
    return lambda name: keyed(name).replace(
        data_dir=str(root / name), metrics_path=str(root / f"{name}.metrics.jsonl")
    )


async def chaos(seed: int, root: pathlib.Path) -> dict:
    """Four journaled nodes on N(5, 2) ms links at 25 % loss and 10 %
    duplication, cut even | odd for [1.0, 1.6) s, with ``n1`` and then
    ``n2`` crashed and restarted mid-stream.  Every node must deliver
    every broadcast in causal order, and each restarted node must
    recover exactly its pre-crash clock.  Returns the fingerprint,
    journals included."""
    group = await Group.start(
        4, chaos_config(root), seed, 0.25, GaussianDelayModel(5.0, 2.0, 2.0),
        judged=True, split=(1.0, 1.6), duplicate_rate=0.10,
    )

    async def broadcast(names=None):
        for node in list(group.nodes):
            if names is None or node.node_id in names:
                await node.broadcast([node.node_id, "chaos", group.sent])

    async def crash_and_restart(name, meanwhile):
        clock = group.node(name).endpoint.clock
        vector, sends = clock.snapshot(), clock.send_count
        await group.crash(name)
        await meanwhile()
        node = await group.restart(name)
        # The journal reconstructed exactly the pre-crash clock (what the
        # constructor restored, not the live clock retransmits may move).
        assert node.recovered is not None, f"{name} recovered nothing"
        assert tuple(node.recovered.vector) == vector, name
        assert node.recovered.send_seq == sends, name
        await broadcast()

    async def while_n1_is_down():
        for _ in range(4):
            await broadcast(("n0", "n2", "n3"))
            await asyncio.sleep(0.25)  # > quarantine_after in total
        assert await wait_for(lambda: any(
            node.liveness.is_quarantined("n1") for node in group.nodes
        ), timeout=10.0), "nobody quarantined the crashed node"

    async def while_n2_is_down():
        await asyncio.sleep(0.8)
        await broadcast(("n0", "n1", "n3"))

    async with group:
        for _ in range(10):  # across the split
            await broadcast()
            await asyncio.sleep(0.18)
        await crash_and_restart("n1", while_n1_is_down)
        await crash_and_restart("n2", while_n2_is_down)
        await group.settle(timeout=60.0)

        # Every delivery classified, none out of causal order, none
        # ambiguous (nothing was ever merged by force).
        totals = group.oracle.totals
        assert totals.deliveries == group.sent * 3
        assert (totals.violations, totals.ambiguous) == (0, 0), totals
        # Per-sender FIFO at every node, across incarnations.
        for name, order in group.order.items():
            last = {}
            for sender, seq in order:
                assert seq == last.get(sender, 0) + 1, (name, sender, seq)
                last[sender] = seq
        # The chaos fired and the liveness layer reacted.
        counts = group.counts()
        assert group.bus.dropped > 0 and counts["cut"] > 0, counts
        assert sum(node.liveness.quarantines for node in group.nodes) >= 1
        assert sum(node.liveness.resumes for node in group.nodes) >= 1
        # The batched, delta-encoding wire stayed live throughout...
        wire = group.wire()
        assert wire.batches_sent > 0 and wire.delta_sent > 0, wire
        # ...and the restarts left no link in full-encoding fallback for
        # good: a fresh round still travels partly as deltas.
        await broadcast()
        await group.settle(timeout=30.0)
        assert group.wire().delta_sent > wire.delta_sent, "delta references never resynced"
        result = group.fingerprint()
    result["journal"] = journals(root, group.order)
    return result


@pytest.mark.parametrize("seed", range(20))
def test_chaos_crash_restart_and_split_under_loss(seed, tmp_path):
    run_virtual(chaos(seed, tmp_path))
    # Every node exported metrics, and the fleet-wide merge shows the
    # pipeline alive end to end.
    snapshots = [last_snapshot(tmp_path / f"n{index}.metrics.jsonl") for index in range(4)]
    assert None not in snapshots, "a node exported no metrics"
    fleet = merge_snapshots(snapshots)
    counters = fleet["counters"]
    for name in ("repro_detector_checks_total", "repro_endpoint_delivered_total",
                 "repro_wire_datagrams_sent_total", "repro_wire_retransmits_total"):
        assert counters[name] > 0, name
    assert "repro_pending_depth" in fleet["gauges"]
    waits = Histogram.from_dict(fleet["histograms"]["repro_delivery_wait_seconds"])
    assert waits.count > 0, "delivery-latency histogram is empty"


# ----------------------------------------------------------------------
# the same seed, the same run
# ----------------------------------------------------------------------


async def chaos_in_a_scratch_directory(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return await chaos(seed, pathlib.Path(directory))


SCENARIOS = {
    "mesh4": lossy_mesh, "overlay16": lossy_overlay, "chaos": chaos_in_a_scratch_directory,
}


def fingerprints(seed: int) -> dict:
    """Every scenario's fingerprint, JSON-normalised (what the
    subprocess prints and the parent compares against)."""
    return json.loads(json.dumps({
        name: run_virtual(scenario(seed)) for name, scenario in SCENARIOS.items()
    }))


def test_same_seed_same_run_across_processes_and_hash_seeds():
    seed = 11
    first = fingerprints(seed)
    for name, result in first.items():
        assert result["bus_dropped"] > 0, f"{name}: loss was never exercised"
        assert result["wire"]["digests_sent"] > 0
    assert first["mesh4"]["wire"]["retransmits"] > 0
    assert first["overlay16"]["wire"]["relay_sent"] > 0
    assert first == fingerprints(seed)
    # ...and the fingerprint can tell two runs apart.
    assert json.loads(json.dumps(run_virtual(lossy_mesh(seed + 1)))) != first["mesh4"]

    other_hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=other_hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, __file__, str(seed)],
        env=env, stdout=subprocess.PIPE, timeout=300, check=True,
    )
    assert json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1]) == first


if __name__ == "__main__":  # the other process of the test above
    print(json.dumps(fingerprints(int(sys.argv[1]))))
