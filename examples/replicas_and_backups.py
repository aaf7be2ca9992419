#!/usr/bin/env python3
"""Erasure depth: replicas and backups (paper section 2.1).

Art. 17 requires erasure "including all its replicas and backups".  This
example shows both halves:

* a DEL on the primary leaves the data readable on a lagging replica
  until replication catches up (the erasure horizon);
* a pre-erasure backup cannot resurrect a crypto-erased subject (and a
  restored store survives its own restart), and reconciliation reports
  which backup generations still carry ciphertext.

Run with::

    python examples/replicas_and_backups.py
"""

from repro import GDPRConfig, GDPRMetadata, GDPRStore, SimClock
from repro.cluster import GDPRClient, build_cluster, gdpr_shards
from repro.gdpr import BackupManager, right_to_erasure
from repro.kvstore import KeyValueStore, ReplicationManager, StoreConfig


def main() -> None:
    clock = SimClock()

    # --- replicas -------------------------------------------------------------
    primary = KeyValueStore(StoreConfig(), clock=clock)
    replication = ReplicationManager(primary)
    replication.add_replica("eu-replica", delay=0.002)
    replication.add_replica("dr-site", delay=0.250)  # cross-region DR

    primary.execute("SET", "pii:alice", "sensitive")
    clock.advance(1.0)           # the SET lands on both replicas

    primary.execute("DEL", "pii:alice")
    print("after DEL on primary:")
    print(f"  visible anywhere?  "
          f"{replication.key_visible_anywhere(b'pii:alice')}")
    horizon = replication.erasure_horizon([b"pii:alice"], step=0.01)
    print(f"  erasure horizon:   {horizon * 1e3:.0f} ms "
          "(bounded by the DR site's 250 ms lag)")
    print(f"  visible anywhere?  "
          f"{replication.key_visible_anywhere(b'pii:alice')}")

    # --- backups --------------------------------------------------------------
    kv = KeyValueStore(StoreConfig(appendonly=True), clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig())
    store.put("alice:rec", b"personal",
              GDPRMetadata(owner="alice", purposes=frozenset({"svc"})))
    store.put("bob:rec", b"bob-stuff",
              GDPRMetadata(owner="bob", purposes=frozenset({"svc"})))

    backups = BackupManager(store, max_generations=5)
    backups.take_backup("nightly-1")

    receipt = right_to_erasure(store, "alice")
    print(f"\nerased {len(receipt.keys_erased)} keys for alice "
          f"(crypto_erased={receipt.crypto_erased})")

    report = backups.reconcile_erasure("alice", receipt.keys_erased,
                                       rewrite=False)
    print(f"backup generations still holding ciphertext: "
          f"{report.mentioning} (crypto-voided: {report.crypto_voided})")

    restored = backups.restore("nightly-1")
    print(f"restore of pre-erasure backup: alice keys = "
          f"{restored.keys_of_subject('alice')} (unrecoverable), "
          f"bob intact = {restored.get('bob:rec').value.decode()!r}")

    # A restore is a restart over a copy of the generation's device: the
    # restored store replaces the live one and logs to the copy, so it
    # survives its own restart too.
    restored.put("carol:rec", b"after-restore",
                 GDPRMetadata(owner="carol", purposes=frozenset({"svc"})))
    reopened = restored.reopen()
    print(f"restored store after reopen(): carol = "
          f"{reopened.get('carol:rec').value.decode()!r}, bob = "
          f"{reopened.get('bob:rec').value.decode()!r}")

    # Physical scrubbing, if policy demands it.  The manager follows its
    # store's restarts, so the scrub's audit record extends the live
    # chain.
    report = backups.reconcile_erasure("alice", receipt.keys_erased,
                                       rewrite=True)
    print(f"after rewrite: residual generations = "
          f"{report.residual_generations}, audit chain verifies "
          f"{reopened.audit.verify()} records")

    # --- cluster-wide: every shard gets replicas ------------------------------
    cluster = build_cluster(2, store_factory=gdpr_shards())
    cluster.attach_replication(delays=[0.002, 0.250])
    sharded = GDPRClient(cluster)
    for i in range(8):
        sharded.put(f"user:{i}", b"pii",
                    GDPRMetadata(owner="carol" if i % 2 == 0 else "dan",
                                 purposes=frozenset({"svc"})))
    cluster.clock.advance(0.5)   # delivery events converge replicas

    keys = sharded.keys_of_subject("carol")
    right_to_erasure(sharded, "carol")
    horizon = cluster.replication.erasure_horizon(keys, step=0.01)
    print(f"\ncluster erasure of carol ({len(keys)} keys, "
          f"{sharded.num_shards} shards x 2 replicas): last copy gone "
          f"after {horizon * 1e3:.0f} ms (the DR replicas' 250 ms lag)")


if __name__ == "__main__":
    main()
