"""The relay overlay's per-origin eager trees (PROTOCOL.md §10).

A node pushes each origin's messages on its eager links; a duplicate
copy sends its pusher a PRUNE for that origin alone, and a repair sends
the repairer a GRAFT.  Three properties, under virtual time:

* **no collapse** — after a concurrent burst, when every node has seen
  duplicates of every origin, each node still pushes its own broadcasts
  somewhere, and the paced phase after it is carried by the trees
  (relay first intakes ≥ 99 % of remote deliveries).  One prune set
  shared by all origins fails this: a duplicate of one origin cuts the
  link for all of them;
* **one copy per link** — once the trees have formed, a lossless paced
  phase sends about one relay copy per delivery;
* **bounded state** — the links never exceed ``view_size``, and a
  departed origin's tree and an evicted peer's links are purged.

Iteration over links and prune tables follows insertion order, never
the hash seed; CI re-runs this file under ``PYTHONHASHSEED=1``.
"""

from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.vtime import run_virtual

SWARM = 16
OVERLAY = NodeConfig(dissemination="overlay")


def relay_tallies(group) -> tuple:
    """Relay first intakes, relay copies sent, remote deliveries,
    duplicate copies and PRUNEs sent, summed over the group."""
    return (
        sum(node.overlay.stats.relay_first_intake for node in group.nodes),
        sum(node.transport_stats().relay_sent for node in group.nodes),
        sum(node.endpoint.stats.delivered for node in group.nodes),
        sum(node.overlay.stats.relay_duplicates for node in group.nodes),
        sum(node.overlay.stats.prunes_sent for node in group.nodes),
    )


async def burst_then_paced(delays, seed: int = 1) -> dict:
    """16 overlay nodes: a 10-broadcast concurrent closed-loop burst per
    node, then 20 per node at 2/s.  Returns each node's own-origin eager
    links after the burst and the paced phase's relay tallies."""
    group = await Group.start(SWARM, OVERLAY, seed, 0.0, delays, judged=True)
    async with group:
        await group.burst(10)
        await group.settle()
        own_links = {
            node.node_id: node.overlay.eager_targets(str(node.node_id))
            for node in group.nodes
        }
        before = relay_tallies(group)
        await group.paced(20, rate=2.0)
        await group.settle()
        after = relay_tallies(group)
        violations = group.counts()["violations"]
    intakes, copies, deliveries, duplicates, prunes = (
        new - old for new, old in zip(after, before)
    )
    return {
        "own_links": own_links, "intakes": intakes, "copies": copies,
        "deliveries": deliveries, "duplicates": duplicates, "prunes": prunes,
        "violations": violations,
    }


def test_a_concurrent_burst_prunes_no_node_out_of_its_own_tree():
    """The burst sends every origin's first messages over every link at
    once, so every node sees duplicates of every origin.  Prunes are per
    origin and never cut a node's last inbound link, so each node keeps
    links for its own broadcasts and the paced phase is pushed, not
    pulled: coverage 1.0 on this seed.  With one prune set shared by
    all origins it reads 0.84 (4,016 of 4,800), the rest waiting on
    anti-entropy; fanout-3 gossip read 0.96."""
    run = run_virtual(burst_then_paced(GaussianDelayModel(10.0, 2.0, 2.0)))
    empty = [name for name, links in run["own_links"].items() if not links]
    assert not empty, run["own_links"]
    assert run["deliveries"] == SWARM * (SWARM - 1) * 20
    assert run["violations"] == 0
    assert run["intakes"] >= 0.99 * run["deliveries"], run


def test_formed_trees_send_about_one_copy_per_delivery():
    """Lossless constant links: after the burst has pruned the trees,
    the paced phase crosses each tree edge once (fanout-3 gossip sent
    3.1 copies per delivery here).

    The copies beyond one per delivery are edges the 10-message burst
    left unpruned for some origin: each carries one duplicate early in
    the paced phase, whose PRUNE closes it.  That cost is paid once,
    not per message: the excess reads the same count at 10, 20 and 40
    paced broadcasts per node, so it moves with the burst's schedule,
    not with the traffic.  Over 8 delay models and up to 6 seeds each,
    before the dense delta layouts, it read 1.032–1.054 copies per
    delivery, mean 1.043, sd 0.005 (EXPERIMENTS.md, "Dense deltas");
    the bound is the mean plus three sd."""
    run = run_virtual(burst_then_paced(ConstantDelayModel(0.2)))
    assert run["intakes"] == run["deliveries"] == SWARM * (SWARM - 1) * 20
    assert run["duplicates"] == run["copies"] - run["deliveries"], run
    assert run["prunes"] == run["duplicates"], run
    assert run["copies"] <= 1.06 * run["deliveries"], run


def test_links_are_bounded_and_a_departed_origin_leaves_no_tree_state():
    """``view_size`` 4 in a group of 8: the links stay within it.  An
    evicted peer's address leaves the links and every prune table; its
    origin's tree goes with the sender purge.  A PRUNE or GRAFT naming
    an origin this node never relayed adds no tree."""

    async def scenario():
        config = NodeConfig(dissemination="overlay", fanout=2, view_size=4)
        group = await Group.start(8, config, 3, 0.0, GaussianDelayModel(5.0, 1.0, 1.0))
        async with group:
            await group.burst(10)
            await group.settle()
            for node in group.nodes:
                sizes = node.state_sizes()
                assert 0 < sizes["overlay_links"] <= 4, sizes
                assert sizes["overlay_trees"] <= 8, sizes
            node = group.nodes[0]
            before = node.state_sizes()
            gone = next(
                name for name in node.overlay.trees
                if name != node.node_id and name in node.overlay.links
            )
            node.evict_peer(gone, sender_id=gone)
            after = node.state_sizes()
            assert gone not in node.overlay.links
            assert gone not in node.overlay.trees
            for tree in node.overlay.trees.values():
                assert gone not in tree.pruned_by and gone not in tree.pruning
                assert tree.first != gone
            assert after["overlay_links"] == before["overlay_links"] - 1
            assert after["overlay_trees"] == before["overlay_trees"] - 1
            # A peer cannot grow the tables with origins nobody sent.
            link = next(iter(node.overlay.links))
            for name in ("ghost-1", "ghost-2"):
                node.overlay.edit_tree(name, link, graft=False)
                node.overlay.edit_tree(name, link, graft=True)
            assert node.state_sizes()["overlay_trees"] == after["overlay_trees"]

    run_virtual(scenario())


def test_prunes_and_grafts_are_counted_and_exported():
    """8 nodes, 5 % loss: the burst's duplicates send PRUNEs, and the
    repairs of what the pruned trees lose in the paced phase send
    GRAFTs; ``repro_relay_prunes_total`` and ``repro_relay_grafts_total``
    read the overlay's own tallies."""

    async def scenario():
        group = await Group.start(8, OVERLAY, 2, 0.05, GaussianDelayModel(5.0, 1.0, 1.0))
        async with group:
            await group.burst(10)
            await group.settle()
            await group.paced(10, rate=5.0)
            await group.settle()
            return [
                (node.overlay.stats, node.metrics.snapshot()["counters"]) for node in group.nodes
            ]

    nodes = run_virtual(scenario())
    for stats, counters in nodes:
        assert counters["repro_relay_prunes_total"] == stats.prunes_sent
        assert counters["repro_relay_grafts_total"] == stats.grafts_sent
    assert sum(stats.prunes_sent for stats, _ in nodes) > 0
    assert sum(stats.grafts_sent for stats, _ in nodes) > 0
