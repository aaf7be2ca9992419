#!/usr/bin/env python3
"""Art. 17 (right to be forgotten), end to end.

Shows the paper's section 4.3 problem and both mitigations:

1. After DEL, the key's data still sits in the append-only file.
2. Crypto-erasure (destroying the subject's data key) voids the bytes
   even where they persist.
3. AOF compaction removes them outright.

Run with::

    python examples/right_to_be_forgotten.py
"""

from repro import GDPRConfig, GDPRMetadata, GDPRStore, SimClock
from repro.gdpr import right_to_erasure
from repro.kvstore import KeyValueStore, StoreConfig


def main() -> None:
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, aof_log_reads=True,
                    expiry_strategy="indexed"),
        clock=clock)
    store = GDPRStore(kv=kv, config=GDPRConfig(compact_on_erasure=True))

    # Alice accumulates personal data across several keys.
    for i, payload in enumerate((b"profile", b"orders", b"messages")):
        store.put(f"alice:{i}", payload,
                  GDPRMetadata(owner="alice",
                               purposes=frozenset({"service"})))
    store.put("bob:0", b"bob-data",
              GDPRMetadata(owner="bob", purposes=frozenset({"service"})))
    print(f"alice's keys: {store.keys_of_subject('alice')}")

    # The section 4.3 observation: even after a DEL, the AOF still
    # mentions the key until compaction.
    store.delete("alice:2")
    print(f"after DEL, 'alice:2' still in AOF: "
          f"{bool(kv.aof.mentioned_keys([b'alice:2']))}")

    # Alice invokes the right to be forgotten.
    receipt = right_to_erasure(store, "alice")
    print(f"erased keys:        {receipt.keys_erased}")
    print(f"crypto-erased:      {receipt.crypto_erased}")
    print(f"log compacted:      {receipt.log_compacted}")
    print(f"residual in AOF:    {receipt.residual_in_aof}")
    print(f"erasure duration:   {receipt.duration * 1e3:.3f} ms "
          "(simulated)")

    # Nothing of Alice remains reachable; Bob is untouched.
    print(f"alice's keys now:   {store.keys_of_subject('alice')}")
    print(f"bob's data intact:  {store.get('bob:0').value.decode()}")

    # Even a restored backup of the wrapped key material cannot bring
    # Alice's data back -- her key id is tombstoned.
    try:
        store.keystore.get_key("alice")
    except Exception as exc:
        print(f"key recovery blocked: {type(exc).__name__}")

    # And the erasure itself is on the audit record.
    erase_ops = [r for r in store.audit.records()
                 if r.operation == "erase-subject"]
    print(f"audited erasures:   {len(erase_ops)} "
          f"({erase_ops[0].detail})")


if __name__ == "__main__":
    main()
