#!/usr/bin/env python3
"""Sharded cluster quickstart: hash-slot routing, pipelining, GDPR fan-out.

Run with::

    python examples/sharded_cluster.py

Shows the three things the cluster layer adds: keys spread over shards by
CRC16 hash slot, pipelined batches that pay the simulated network once per
round trip instead of once per request, and subject rights (Art. 15/17)
fanned out across every shard while one crypto-erasure voids them all.
"""

import json

from repro.cluster import (
    GDPRClient,
    SlotMigrator,
    build_cluster,
    gdpr_shards,
    slot_for_key,
)
from repro.gdpr import (
    GDPRMetadata,
    right_of_access,
    right_to_erasure,
    right_to_portability,
)

RECORDS = 200


def main() -> None:
    # 1. A 4-shard cluster over simulated channels.  Every key hashes to
    #    one of 16384 slots; each shard owns a contiguous slot range.
    cluster = build_cluster(4)
    for number in range(RECORDS):
        cluster.call("SET", f"user:{number}", f"payload-{number}")
    print(f"{RECORDS} keys over 4 shards: "
          f"sizes={cluster.keyspace_sizes()}")
    print(f"  'user:0' -> slot {slot_for_key('user:0')} "
          f"-> shard {cluster.shard_for('user:0')}")

    # 2. Pipelining: the same workload in depth-8 batches finishes far
    #    sooner on the simulated clock, because each round trip carries
    #    eight requests instead of one.
    def write_all(depth):
        fresh = build_cluster(4)
        for start in range(0, RECORDS, depth):
            pipeline = fresh.pipeline()
            for number in range(start, min(start + depth, RECORDS)):
                pipeline.call("SET", f"user:{number}", "v")
            pipeline.execute()
        return fresh.clock.now()

    t1, t8 = write_all(1), write_all(8)
    print(f"\n{RECORDS} writes, depth 1: {t1 * 1e3:.3f} ms simulated")
    print(f"{RECORDS} writes, depth 8: {t8 * 1e3:.3f} ms simulated "
          f"({t1 / t8:.1f}x faster)")

    # 3. GDPR across shards: every shard is a GDPR store with its own
    #    audit chain and AOF, all sharing one keystore, served over the
    #    same cluster.  The subject-rights functions take the GDPR client
    #    as they take a single store: each right runs on every shard in
    #    one broadcast round trip, and the replies merge into one answer.
    gdpr_cluster = build_cluster(4, store_factory=gdpr_shards())
    store = GDPRClient(gdpr_cluster)
    for number in range(24):
        owner = "alice" if number % 2 == 0 else "bob"
        store.put(f"rec:{number}", f"value-{number}".encode(),
                  GDPRMetadata(owner=owner,
                               purposes=frozenset({"service"})))
    report = right_of_access(store, "alice")
    print(f"\nArt. 15 for alice: {len(report.records)} records from "
          f"shards {store.shards_of_subject('alice')}")
    document = json.loads(right_to_portability(store, "alice", "json"))
    print(f"Art. 20 export: {len(document['records'])} rows")

    receipt = right_to_erasure(store, "alice")
    print(f"Art. 17 erasure: {len(receipt.keys_erased)} keys over "
          f"{len(receipt.shards_touched)} shards, "
          f"crypto-erased={receipt.crypto_erased}, "
          f"residual in AOF: {receipt.residual_in_aof}")
    verified = gdpr_cluster.verify_audit_chains()
    print(f"audit chains verified per shard: {verified}")

    # 4. Live resharding: migrate one slot's data to another shard while
    #    the client keeps working.  The client discovers the topology
    #    change through MOVED/ASK redirects -- no restart, no data loss.
    slot = slot_for_key("user:0")
    source = cluster.slots.shard_of_slot(slot)
    target = (source + 1) % 4
    migrator = SlotMigrator(cluster, slot, target)
    migrator.step(1)                     # copy begins...
    cluster.call("GET", "user:0")        # ...traffic keeps flowing
    moved = migrator.run()               # drain + atomic ownership flip
    print(f"\nslot {slot}: shard {source} -> {target}, "
          f"{len(moved.keys_moved)} keys / {moved.bytes_moved} bytes "
          "moved live")
    assert cluster.call("GET", "user:0") == b"payload-0"  # MOVED followed
    print(f"client followed {cluster.moved_redirects} MOVED / "
          f"{cluster.ask_redirects} ASK redirects")


if __name__ == "__main__":
    main()
