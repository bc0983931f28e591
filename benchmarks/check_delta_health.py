"""CI gate: delta timestamps must stay delta, on the mesh and the overlay.

Reads a result file of the end-to-end benchmark and fails when any
measured run in it is unhealthy.  Every broadcast is encoded once, as a
delta against its sender's previous broadcast when that is smaller, and
goes out on every mesh link and relay hop.  CI feeds it three runs:

* ``python benchmarks/e2e/run.py --workload mesh4_saturate --seconds 12
  --trace 0 --out FILE`` issues 1,536 messages per sender, past the
  1,056 at which the receiver's reference table used to roll over and
  every later delta bounced;
* ``--workload mesh4_lossy``: 5 % loss and 10 % reordering, so the
  deltas behind a retransmitted frame overtake it and must wait for it
  (parked) rather than miss;
* ``--workload overlay16_paced``: relayers forward the origin's body
  verbatim, so every relay copy counts as a delta or a full on its
  link.

A run fails when

* the run is invalid (a missing or duplicated operation, a decode
  error, a causal-violation ratio beyond the theory bound),
* more than ``MAX_MISS_RATIO`` of the deltas sent named a reference
  the receiver no longer held (``session.delta_ref_miss_ratio``), or
* fewer than ``MIN_DELTA_SHARE`` of the broadcasts travelled as
  deltas (``session.delta_share``) — only a sender's first broadcast
  (and its first after a re-key) must travel full; anything more means
  the path fell back to fulls, or
* on a mesh, more than ``MAX_MESH_DUPLICATE_RATIO`` of the messages
  the endpoints received were copies they already held
  (``protocol.duplicate_ratio``): a digest answer holds back what a
  link still owes the requester, and a repair racing its own data is
  such a copy (loopback, 20 s: about 0.007 saturated and 0.015 lossy
  before that rule, about 0.001 and 0.003 after it), or
* the run spent more than its workload's ``MAX_WIRE_BYTES`` per
  delivery (``wire_bytes_per_delivery``).  A delta's changed entries
  travel as the smaller of a list of one varint each and a bitmap of
  R bits; a silent fallback to fulls or to one varint pair per entry
  costs more bytes than the ceiling allows.  On loopback the pair
  layout read about 63 B (saturated mesh), 60 B (lossy mesh) and 166 B
  (overlay) per delivery; the two layouts read about 53, 57 and 112 B,
  frame v4 (one magic per datagram, a RELAY envelope of hops and
  sample count, binary IPv4 addresses) about 48, 51 and 73 B, and
  message v5 (a delta body without scheme, epoch or reference gap) 4 B
  less again, or
* on a closed-loop mesh (``mesh4_saturate``, ``mesh4_lossy``), more
  than ``MAX_CLOSED_LOOP_DATAGRAMS`` datagrams left per delivery
  (``datagrams_per_delivery``): a broadcast queues its frame on every
  link in the caller's turn, so the coalescing outbox carries about
  three frames per datagram there.  Loopback, 20 s, ten runs each: with
  a task per link, which the flush timer caught about one frame at a
  time, 0.45–1.00 saturated and 0.71–0.78 lossy; without, 0.334–0.358
  and 0.342–0.469.

Exit 0 when every measured run passes, 1 otherwise.
"""

import argparse
import json
import sys

MAX_MISS_RATIO = 0.01
MIN_DELTA_SHARE = 0.9
MAX_MESH_DUPLICATE_RATIO = 0.005
MAX_CLOSED_LOOP_DATAGRAMS = 0.6
CLOSED_LOOP = ("mesh4_saturate", "mesh4_lossy")
MAX_WIRE_BYTES = {  # per delivery, by workload
    "mesh4_saturate": 52.0, "mesh4_paced": 52.0, "mesh4_lossy": 52.0, "overlay16_paced": 91.0,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="result file written by benchmarks/e2e/run.py")
    args = parser.parse_args()

    with open(args.result, encoding="utf-8") as handle:
        result = json.load(handle)
    measured = [run for run in result["runs"] if "per_layer" in run]
    failures = []
    if not measured:
        failures.append("the result file holds no measured run")
    for run in measured:
        name = run["workload"]
        miss_ratio = run["per_layer"]["session.delta_ref_miss_ratio"]
        share = run["per_layer"]["session.delta_share"]
        duplicate_ratio = run["per_layer"]["protocol.duplicate_ratio"]
        wire_bytes = run["end_to_end"]["wire_bytes_per_delivery"]
        datagrams = run["end_to_end"]["datagrams_per_delivery"]
        ceiling = MAX_WIRE_BYTES[name]
        print(f"{name}: {run['messages_per_sender']} msgs/sender  "
              f"delta_share={share:.4f}  delta_ref_miss_ratio={miss_ratio:.4f}  "
              f"duplicate_ratio={duplicate_ratio:.4f}  "
              f"wire_bytes_per_delivery={wire_bytes:.1f}  "
              f"datagrams_per_delivery={datagrams:.3f}  valid={run['valid']}")
        if not run["valid"]:
            failures.append(f"{name}: invalid run: {'; '.join(run['problems'])}")
        if miss_ratio > MAX_MISS_RATIO:
            failures.append(
                f"{name}: {miss_ratio:.4f} of the deltas bounced off a missing "
                f"reference (limit {MAX_MISS_RATIO})"
            )
        if share < MIN_DELTA_SHARE:
            failures.append(
                f"{name}: only {share:.4f} of the broadcasts travelled as "
                f"deltas (floor {MIN_DELTA_SHARE})"
            )
        if name.startswith("mesh") and duplicate_ratio > MAX_MESH_DUPLICATE_RATIO:
            failures.append(
                f"{name}: {duplicate_ratio:.4f} of the messages received were "
                f"copies already held (limit {MAX_MESH_DUPLICATE_RATIO}): repairs "
                f"race the data their links still owe"
            )
        if wire_bytes > ceiling:
            failures.append(
                f"{name}: {wire_bytes:.1f} wire bytes per delivery (ceiling "
                f"{ceiling:.0f}): deltas no longer travel in their smaller layout"
            )
        if name in CLOSED_LOOP and datagrams > MAX_CLOSED_LOOP_DATAGRAMS:
            failures.append(
                f"{name}: {datagrams:.3f} datagrams per delivery (ceiling "
                f"{MAX_CLOSED_LOOP_DATAGRAMS}): the fan-out no longer fills the outbox"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("delta health gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
