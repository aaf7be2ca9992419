"""Property-based tests over cluster invariants: every key owns exactly
one slot/shard, routing moves only via explicit resharding, and pipelined
batches preserve request order."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    NUM_SLOTS,
    SlotMap,
    build_cluster,
    hash_tag,
    slot_for_key,
)

keys = st.binary(min_size=1, max_size=16)
tags = st.binary(min_size=1, max_size=8).filter(
    lambda tag: b"{" not in tag and b"}" not in tag)


@given(keys)
@settings(max_examples=100, deadline=None)
def test_every_key_maps_to_exactly_one_slot_and_shard(key):
    """Slot assignment is total, in range, and deterministic."""
    slot = slot_for_key(key)
    assert 0 <= slot < NUM_SLOTS
    assert slot == slot_for_key(key)
    slot_map = SlotMap.even(5)
    shard = slot_map.shard_for_key(key)
    assert 0 <= shard < 5
    assert shard == slot_map.shard_of_slot(slot)


@given(st.integers(1, 16))
@settings(max_examples=16, deadline=None)
def test_even_map_partitions_all_slots(num_shards):
    """The even layout is a partition: every slot owned, counts sum to
    NUM_SLOTS, and no shard is more than one slot off a perfect split."""
    slot_map = SlotMap.even(num_shards)
    counts = Counter(slot_map.shard_of_slot(slot)
                     for slot in range(NUM_SLOTS))
    assert sorted(counts) == list(range(num_shards))
    assert sum(counts.values()) == NUM_SLOTS
    assert max(counts.values()) - min(counts.values()) <= 1


@given(tags, st.binary(max_size=8), st.binary(max_size=8))
@settings(max_examples=60, deadline=None)
def test_hash_tags_colocate_keys(tag, suffix_a, suffix_b):
    """Keys sharing a {hash tag} always land in the same slot."""
    assert hash_tag(b"{" + tag + b"}" + suffix_a) == tag
    assert slot_for_key(b"{" + tag + b"}" + suffix_a) == \
        slot_for_key(b"{" + tag + b"}" + suffix_b)


@given(st.lists(keys, min_size=1, max_size=20, unique=True),
       st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_routing_stable_until_explicit_reshard(sample, num_shards):
    """Adding a shard never reroutes a key; only an explicit slot
    assignment does, and then exactly the moved slots reroute."""
    slot_map = SlotMap.even(num_shards)
    before = {key: slot_map.shard_for_key(key) for key in sample}
    new_shard = slot_map.add_shard()
    assert {key: slot_map.shard_for_key(key) for key in sample} == before
    # Explicitly reshard the slots of the first sampled key.
    moved_slot = slot_for_key(sample[0])
    slot_map.assign([moved_slot], new_shard)
    for key in sample:
        expected = (new_shard if slot_for_key(key) == moved_slot
                    else before[key])
        assert slot_map.shard_for_key(key) == expected


@given(st.lists(st.integers(0, 199), min_size=1, max_size=24),
       st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_pipeline_replies_arrive_in_request_order(key_ids, num_shards):
    """A pipelined batch's replies line up index-for-index with its
    requests, regardless of how the batch scatters over shards."""
    cluster = build_cluster(num_shards)
    seed = cluster.pipeline()
    for key_id in sorted(set(key_ids)):
        seed.call("SET", f"k{key_id}", f"v{key_id}")
    seed.execute()
    pipeline = cluster.pipeline()
    for key_id in key_ids:
        pipeline.call("GET", f"k{key_id}")
    replies = pipeline.execute()
    assert replies == [f"v{key_id}".encode() for key_id in key_ids]
