"""The series every metrics export carries, by name.

Series names are an interface: the JSONL files, ``repro stats``,
dashboards and ``benchmarks/check_alert_sanity.py`` all read them.  Each scenario below
runs under virtual time and lists, literally, the counters, gauges and
histograms every one of its nodes (or the simulation run) exports, so a
rename or a dropped series fails here first.
"""

import asyncio

from repro.api import (
    AdaptivePolicy,
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
)
from repro.obs import last_snapshot
from repro.sim import SimulationConfig, run_simulation
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.vtime import run_virtual

# What every live node exports, mesh or overlay, with or without layers.
NODE_COUNTERS = {
    "repro_antientropy_repair_duplicates_total",
    "repro_antientropy_repairs_sent_total",
    "repro_antientropy_resync_fallbacks_total",
    "repro_codec_deltas_decoded_total",
    "repro_codec_epoch_mismatches_total",
    "repro_codec_frames_decoded_total",
    "repro_codec_full_rebuilds_total",
    "repro_codec_messages_decoded_total",
    "repro_codec_payload_bytes_in_total",
    "repro_codec_retained_bytes_total",
    "repro_decode_errors_total",
    "repro_detector_alerts_total",
    "repro_detector_checks_total",
    "repro_endpoint_alerts_total",
    "repro_endpoint_delivered_total",
    "repro_endpoint_duplicates_total",
    "repro_endpoint_received_total",
    "repro_endpoint_sent_total",
    "repro_gap_pulls_armed_total",
    "repro_gap_pulls_total",
    "repro_gap_pulls_unneeded_total",
    "repro_heartbeats_suppressed_total",
    "repro_liveness_quarantines_total",
    "repro_liveness_resumes_total",
    "repro_pending_spurious_wakeups_total",
    "repro_pending_wakeups_total",
    "repro_stale_frames_total",
    "repro_store_evictions_total",
    "repro_store_unservable_total",
    "repro_wire_acks_piggybacked_total",
    "repro_wire_acks_received_total",
    "repro_wire_acks_sent_total",
    "repro_wire_batches_received_total",
    "repro_wire_batches_sent_total",
    "repro_wire_bytes_received_total",
    "repro_wire_bytes_sent_total",
    "repro_wire_control_received_total",
    "repro_wire_control_sent_total",
    "repro_wire_data_received_total",
    "repro_wire_data_sent_total",
    "repro_wire_datagrams_received_total",
    "repro_wire_datagrams_sent_total",
    "repro_wire_delta_received_total",
    "repro_wire_delta_ref_misses_total",
    "repro_wire_delta_sent_total",
    "repro_wire_digests_received_total",
    "repro_wire_digests_sent_total",
    "repro_wire_drops_total",
    "repro_wire_duplicates_total",
    "repro_wire_frames_received_total",
    "repro_wire_frames_sent_total",
    "repro_wire_full_received_total",
    "repro_wire_full_sent_total",
    "repro_wire_heartbeats_received_total",
    "repro_wire_heartbeats_sent_total",
    "repro_wire_nacks_received_total",
    "repro_wire_nacks_sent_total",
    "repro_wire_quarantine_drops_total",
    "repro_wire_relay_received_total",
    "repro_wire_relay_sent_total",
    "repro_wire_retransmits_total",
    "repro_wire_rtt_samples_total",
}
NODE_GAUGES = {
    "repro_antientropy_repair_duplicate_ratio",
    "repro_delta_ref_miss_ratio",
    "repro_detector_recent_size",
    "repro_pending_depth",
    "repro_pending_peak",
    "repro_state_entries_delta_miss_warned",
    "repro_state_entries_evicted_peers",
    "repro_state_entries_leave_noted",
    "repro_state_entries_parked_deltas",
    "repro_state_entries_partner_rotation",
    "repro_state_entries_pending",
    "repro_state_entries_reference_slots",
    "repro_state_entries_resync_marks",
    "repro_state_entries_seen_senders",
    "repro_state_entries_seen_tail",
    "repro_state_entries_session_nack_marks",
    "repro_state_entries_session_out_of_order",
    "repro_state_entries_session_outbox",
    "repro_state_entries_session_peers",
    "repro_state_entries_session_tasks",
    "repro_state_entries_session_unacked",
    "repro_state_entries_stale_senders_warned",
    "repro_state_entries_stale_warned",
    "repro_state_entries_store_messages",
    "repro_store_size",
    "repro_wire_peers",
    "repro_wire_rtt_mean_seconds",
}
NODE_HISTOGRAMS = {"repro_delivery_wait_seconds", "repro_wire_rtt_seconds"}

LOSSY = dict(drop_rate=0.05, reorder_rate=0.10, reorder_delay=(0.002, 0.02))


def names(snapshot: dict) -> tuple:
    return tuple(set(snapshot[kind]) for kind in ("counters", "gauges", "histograms"))


def assert_every_node_exports(snapshots: dict, counters, gauges, histograms) -> None:
    for name, snapshot in snapshots.items():
        assert names(snapshot) == (counters, gauges, histograms), name
        assert snapshot["labels"] == {"node": name}


def test_an_overlay_node_with_liveness_exports_the_relay_series():
    """8 relay-overlay nodes, liveness on, 2 % loss."""

    async def scenario():
        config = NodeConfig(
            dissemination="overlay",
            liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.5),
        )
        group = await Group.start(8, config, 3, 0.02, GaussianDelayModel())
        async with group:
            await group.burst(10)
            await group.settle()
            await asyncio.sleep(1.0)
            return {node.node_id: node.metrics.snapshot() for node in group.nodes}

    assert_every_node_exports(
        run_virtual(scenario()),
        NODE_COUNTERS | {
            "repro_overlay_evictions_total",
            "repro_overlay_merges_applied_total",
            "repro_overlay_view_changes_total",
            "repro_relay_duplicates_total",
            "repro_relay_first_intake_total",
            "repro_relay_forwarded_total",
            "repro_relay_grafts_total",
            "repro_relay_prunes_total",
            "repro_relay_pushes_total",
        },
        NODE_GAUGES | {
            "repro_overlay_push_coverage",
            "repro_overlay_sample_diversity",
            "repro_overlay_view_size",
            "repro_relay_duplicate_suppression_rate",
            "repro_state_entries_overlay_answered_digests",
            "repro_state_entries_overlay_links",
            "repro_state_entries_overlay_prunes",
            "repro_state_entries_overlay_recent_pushes",
            "repro_state_entries_overlay_trees",
        },
        NODE_HISTOGRAMS | {"repro_relay_hops"},
    )


def test_a_journalled_node_exports_the_journal_series(tmp_path):
    """4 mesh nodes with journals behind ``mesh4_lossy``'s faults."""

    async def scenario():
        group = await Group.start(
            4, lambda name: NodeConfig(data_dir=str(tmp_path / name)), 5, 0.0,
            ConstantDelayModel(1.0), faults=LOSSY,
        )
        async with group:
            await group.burst(20)
            await group.settle()
            return {node.node_id: node.metrics.snapshot() for node in group.nodes}

    snapshots = run_virtual(scenario())
    assert_every_node_exports(
        snapshots,
        NODE_COUNTERS | {
            "repro_journal_appends_total",
            "repro_journal_replayed_records_total",
            "repro_journal_snapshots_total",
        },
        NODE_GAUGES | {"repro_journal_replay_seconds"},
        NODE_HISTOGRAMS | {"repro_journal_append_seconds", "repro_journal_snapshot_seconds"},
    )
    # The repair-health gauge is its two counters' ratio.
    for snapshot in snapshots.values():
        counters = snapshot["counters"]
        sent = counters["repro_antientropy_repairs_sent_total"]
        duplicates = counters["repro_antientropy_repair_duplicates_total"]
        assert snapshot["gauges"]["repro_antientropy_repair_duplicate_ratio"] == (
            duplicates / sent if sent else 0.0
        )


def test_a_member_with_adaptive_sizing_exports_the_membership_series():
    """3 nodes that form a group by joining, each running the adaptive
    controller."""

    def config(name):
        return NodeConfig(
            r=32, k=2, retransmit=RetransmitPolicy(initial_timeout=0.02),
            anti_entropy_interval=0.1,
            liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.3),
            membership=MembershipConfig(
                seed_peers=() if name == "n0" else ("n0",),
                join_timeout=0.5, join_retries=4,
            ),
            adaptive=AdaptivePolicy(interval=0.5, min_window=5),
        )

    async def scenario():
        group = await Group.start(3, config, 7, 0.0, GaussianDelayModel())
        async with group:
            await group.burst(20)
            await group.settle()
            await asyncio.sleep(2.0)
            return {node.node_id: node.metrics.snapshot() for node in group.nodes}

    snapshots = run_virtual(scenario())
    assert_every_node_exports(
        snapshots,
        NODE_COUNTERS | {
            "repro_adaptive_bumps_total",
            "repro_adaptive_decisions_total",
            "repro_membership_epoch_bumps_total",
            "repro_membership_evictions_total",
            "repro_membership_join_attempts_total",
            "repro_membership_joins_admitted_total",
            "repro_membership_leaves_total",
            "repro_membership_view_changes_total",
        },
        NODE_GAUGES | {
            "repro_adaptive_alert_rate",
            "repro_adaptive_k_target",
            "repro_adaptive_x_estimate",
            "repro_membership_epoch",
            "repro_membership_view_id",
            "repro_membership_view_size",
        },
        NODE_HISTOGRAMS,
    )
    # The controller decided at least once, on the node that leads.
    assert sum(
        snapshot["counters"]["repro_adaptive_decisions_total"]
        for snapshot in snapshots.values()
    ) >= 1


def test_a_simulation_run_exports_the_sim_series(tmp_path):
    path = tmp_path / "sim.metrics.jsonl"
    run_simulation(SimulationConfig(
        n_nodes=10, r=20, k=2, duration_ms=3000.0, seed=3, metrics_path=str(path),
    ))
    snapshot = last_snapshot(path)
    assert snapshot["labels"] == {"mode": "sim"}
    assert names(snapshot) == (
        {
            "repro_sim_alert_false_positives_total",
            "repro_sim_alerts_late_missed_total",
            "repro_sim_alerts_total",
            "repro_sim_deliveries_total",
        },
        {"repro_sim_alert_rate"},
        {"repro_sim_delivery_latency_ms", "repro_sim_pending_depth"},
    )
