"""Integration: crashes across the tiered persistence stack.

The demotion protocol's crash contract: the seal ends with an fsync
*before* hot copies are removed, so whatever instant power is lost,

* every record survives in at least one tier (a torn seal leaves the
  hot copy; a completed seal is durable),
* nothing deleted or erased is resurrected by recovery (durable
  tombstones + subject markers + crypto-erasure).
"""

from repro.common.clock import SimClock
from repro.device.append_log import AppendLog
from repro.device.faults import FaultPlan
from repro.gdpr.metadata import GDPRMetadata
from repro.gdpr.rights import right_to_erasure
from repro.gdpr.store import GDPRConfig, GDPRStore
from repro.kvstore.store import KeyValueStore, StoreConfig
from repro.tiering import TieredEngine, TieringConfig
from repro.tiering.segment import ColdInput, ColdSegmentStore


def make_engine():
    clock = SimClock()
    inner = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always"),
        clock=clock, aof_log=AppendLog(clock=clock))
    return TieredEngine(inner, tiering=TieringConfig(auto_demote=False,
                                                     segment_max_records=4))


class TestTornSeal:
    def test_truncated_seal_loses_no_data(self):
        engine = make_engine()
        for i in range(4):
            engine.execute("SET", f"k{i}", f"v{i}")
        engine.demote_keys([b"k0", b"k1"])        # a completed seal
        # Power fails mid-way through sealing k2/k3: the segment frame
        # reaches the device truncated, and -- crucially -- the hot
        # copies were never removed (removal follows the fsync barrier).
        scratch = ColdSegmentStore(device=AppendLog(clock=engine.clock))
        scratch.seal([ColdInput(b"k2", b"v2", None, None),
                      ColdInput(b"k3", b"v3", None, None)], sealed_at=0.0)
        torn = scratch.device.read_all()[:-9]     # cut inside the frame
        engine.cold.device.append(torn)
        engine.cold.device.flush_and_fsync()
        recovered = engine.reopen()
        assert recovered.cold.torn_frames_dropped == 1
        assert recovered.cold.recovered_segments == 1
        for i in range(4):                        # nothing lost, either tier
            assert recovered.execute("GET", f"k{i}") == f"v{i}".encode()
        assert recovered.execute("DBSIZE") == 4

    def test_power_loss_at_every_byte_of_the_seal_frame(self):
        """Whichever prefix of the frame reached the device before power
        failed, the segment is absent and the hot copies intact (removal
        follows the fsync barrier); with the last byte it is wholly
        there.  Never a partial directory."""
        scratch = ColdSegmentStore(device=AppendLog(clock=SimClock()))
        scratch.seal([ColdInput(b"pad", b"", None, None)], sealed_at=0.0)
        first = scratch.device.total_length
        scratch.seal([ColdInput(b"k2", b"v2", None, None),
                      ColdInput(b"k3", b"v3", None, None)], sealed_at=0.0)
        frame = scratch.device.read_all()[first:]     # segment seq 1
        for cut in range(len(frame) + 1):
            engine = make_engine()
            for i in range(4):
                engine.execute("SET", f"k{i}", f"v{i}")
            engine.demote_keys([b"k0", b"k1"])        # segment seq 0
            engine.cold.device.append(frame[:cut])
            engine.cold.device.flush_and_fsync()
            recovered = engine.reopen()
            whole = cut == len(frame)
            assert recovered.cold.torn_frames_dropped == \
                (0 < cut < len(frame)), cut
            assert recovered.cold.segment_count == (2 if whole else 1), cut
            # k2/k3 stayed hot: a whole seal holds their shadows.
            assert sorted(recovered.cold.live_keys()) == [b"k0", b"k1"], cut
            assert recovered.cold.stats()["shadows"] == \
                (2 if whole else 0), cut
            archive = ColdSegmentStore(device=engine.cold.device)
            assert sorted(archive.live_keys()) == \
                [b"k0", b"k1"] + ([b"k2", b"k3"] if whole else []), cut
            if whole:       # relocated frame: offsets are frame-relative
                assert archive.lookup(b"k3").stored == b"v3"
            for i in range(4):
                assert recovered.execute("GET", f"k{i}") == \
                    f"v{i}".encode(), (cut, i)
            assert recovered.execute("DBSIZE") == 4

    def test_crash_between_seal_and_hot_removal(self):
        engine = make_engine()
        engine.execute("SET", "dup", "value")
        # The seal completed (fsynced) but the crash hit before
        # demote_remove: the record exists in both tiers.
        engine.cold.seal([ColdInput(b"dup", b"stale", None, None)],
                         sealed_at=0.0)
        FaultPlan(engine.aof_log, engine.cold.device).power_loss()
        recovered = engine.reopen()
        # Hot is authoritative over the crash-window shadow.
        assert recovered.execute("GET", "dup") == b"value"
        assert recovered.execute("DBSIZE") == 1
        assert recovered.execute("KEYS", "*") == [b"dup"]

    def test_deleted_cold_key_stays_dead_after_power_loss(self):
        engine = make_engine()
        engine.execute("SET", "gone", "v")
        engine.demote_keys([b"gone"])
        engine.execute("GET", "gone")             # promote ...
        assert engine.execute("DEL", "gone") == 1  # ... then delete
        FaultPlan(engine.aof_log, engine.cold.device).power_loss()
        recovered = engine.reopen()
        # The archived copy must not resurrect through the replay
        # (which skips evictions): the DEL laid a durable tombstone.
        assert recovered.execute("GET", "gone") is None
        assert recovered.execute("DBSIZE") == 0


class TestErasureSurvivesCrash:
    def _store(self):
        engine = make_engine()
        store = GDPRStore(kv=engine, config=GDPRConfig())
        meta = GDPRMetadata(owner="alice",
                            purposes=frozenset({"billing"}))
        bob = GDPRMetadata(owner="bob", purposes=frozenset({"billing"}))
        for i in range(4):
            store.put(f"alice:{i}", b"a" * 16, meta)
        store.put("bob:0", b"b" * 16, bob)
        engine.demote_keys([b"alice:0", b"alice:1", b"bob:0"])
        return store, engine

    def test_erased_subject_not_resurrected_by_recovery(self):
        store, engine = self._store()
        receipt = right_to_erasure(store, "alice")
        assert receipt.cold_segments_voided >= 1
        FaultPlan(engine.aof_log, engine.cold.device).power_loss()
        recovered = store.reopen()
        recovered_kv = recovered.kv
        assert recovered.index.keys() == ["bob:0"]   # only bob decrypts
        assert not recovered.keys_of_subject("alice")
        assert recovered.keys_of_subject("bob") == ["bob:0"]
        assert recovered.get("bob:0").value == b"b" * 16
        # The subject marker survived on the cold device itself.
        assert "alice" in recovered_kv.cold.erased_subjects
        assert recovered_kv.cold_keys_of_subject("alice") == []
        for i in range(4):
            assert recovered_kv.execute("GET", f"alice:{i}") is None

    def test_erasure_marker_beats_lost_keystore(self):
        # Even if the keystore state were restored from a backup (the
        # paper's resurrection-by-restore concern), the cold device's
        # own fsynced subject marker keeps the archive void.
        store, engine = self._store()
        right_to_erasure(store, "alice")
        fresh_keystore_view = type(store.keystore)()  # "restored" keystore
        FaultPlan(engine.aof_log, engine.cold.device).power_loss()
        engine.cold.device.reopen(engine.clock)
        recovered = ColdSegmentStore(device=engine.cold.device,
                                     keystore=fresh_keystore_view)
        assert "alice" in recovered.erased_subjects
        assert recovered.keys_of_subject("alice") == []
        assert recovered.lookup(b"alice:0") is None
