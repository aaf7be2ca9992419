"""Backups under the right to be forgotten.

Art. 17 erasure must reach *backups* (paper section 2.1), yet rewriting a
backup archive per erasure request is operationally absurd -- this is
exactly why Google Cloud's "up to 6 months to purge deleted data from all
internal systems" policy exists (paper sections 3.2 and 5.1).

A backup generation is a device of its own: an
:class:`~repro.kvstore.aof.AofWriter` over an
:class:`~repro.device.append_log.AppendLog` named by its label, holding
the keyspace as the compacted parts a rewrite of the live log would
write, placed by the live log's homes, so a data subject's records share
one part.  Each part file's CRC-32 is kept with the generation and
checked before the generation is restored or scrubbed.  A restore is a
restart over a copy of that device, and the restored store takes the
live one's place (:meth:`BackupManager.restore`).

:class:`BackupManager` models the two industrial answers:

* **crypto-erasure by construction** -- a generation holds the keyspace
  as the store sealed it and no key material: each subject's data key
  lives only in the live :class:`~repro.crypto.keystore.KeyStore`, so
  destroying it voids their data in every backup generation at once,
  with zero backup I/O.  (A generation that kept its subjects' wrapped
  keys would let the master key reopen an erased subject's records.)
  So a generation is restored by the process that holds the keystore,
  until the keystore has a durable journal of its own, and the
  restored store's index rebuild deletes every record whose sid (the
  subject id each sealed record starts with) the keystore has
  tombstoned: an erased subject's keys do not come back;
* **reconciliation** -- :meth:`reconcile_erasure` audits which backup
  generations still *mention* erased keys and (optionally) scrubs them
  of those keys alone: the parts that hold them are rewritten, as an
  erasure rewrites the live log's, at one barrier each.  That yields the
  erasure-completeness report a DPO would need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..common.errors import CorruptionError
from ..common.hashing import crc32_of
from ..device.append_log import AppendLog, FsyncPolicy
from ..device.latency import ZERO
from ..kvstore.aof import AofWriter
from .store import GDPRStore


@dataclass
class Backup:
    """One point-in-time backup generation: a log on its own device."""

    label: str
    taken_at: float
    writer: AofWriter
    #: part file -> the CRC-32 of its bytes.
    crcs: Dict[str, int] = field(default_factory=dict)

    def verified(self, files: List[str]) -> List[bytes]:
        """The bytes of part ``files``, each checked against its CRC-32:
        a damaged part raises CorruptionError."""
        datas = self.writer.log.read_files(files)
        for file, data in zip(files, datas):
            if crc32_of(data) != self.crcs.get(file):
                raise CorruptionError(
                    f"backup {self.label}: part {file} fails its CRC-32")
        return datas

    def seal(self, rewritten: Sequence[str] = ()) -> None:
        """Record the CRC-32 of each part without one (a fresh name) or
        ``rewritten`` (a part renamed over its old name holds new
        bytes; one a failed rewrite left holds its verified old ones),
        and forget the parts the log no longer lists."""
        files = self.writer.part_files()
        fresh = [file for file in files
                 if file not in self.crcs or file in rewritten]
        crcs = {file: self.crcs[file] for file in files if file in self.crcs}
        crcs.update(zip(fresh, map(crc32_of,
                                   self.writer.log.read_files(fresh))))
        self.crcs = crcs


@dataclass
class ReconciliationReport:
    subject: str
    checked: int
    mentioning: List[str] = field(default_factory=list)
    rewritten: List[str] = field(default_factory=list)
    crypto_voided: bool = False

    @property
    def residual_generations(self) -> int:
        """Backups still carrying (unreadable) ciphertext of the subject."""
        return len(self.mentioning) - len(self.rewritten)


class BackupManager:
    """Keeps bounded backup generations of a GDPR store."""

    def __init__(self, store: GDPRStore, max_generations: int = 7) -> None:
        if max_generations < 1:
            raise ValueError("need at least one backup generation")
        self._store = store
        self.max_generations = max_generations
        self.backups: List[Backup] = []

    @property
    def store(self) -> GDPRStore:
        """The live store: the latest restart of the one given, so that
        a backup call after a restart writes through the live audit
        chain, not a superseded store's copy of it."""
        while self._store.successor is not None:
            self._store = self._store.successor
        return self._store

    # -- lifecycle -------------------------------------------------------------------

    def take_backup(self, label: Optional[str] = None) -> Backup:
        """Lay the keyspace out on a device of its own, into parts placed
        by the live log's homes."""
        if label is None:
            label = f"backup-{len(self.backups):04d}"
        kv = self.store.kv
        # A generation commits only through its rewrites' barriers
        # (AofWriter._commit): its device runs no timer.
        clock = self.store.clock
        writer = AofWriter(AppendLog(clock=clock, name=label), clock,
                           FsyncPolicy.NO)
        writer.lay_out(kv, kv.aof.homes if kv.aof is not None else {})
        backup = Backup(label=label, taken_at=clock.now(),
                        writer=writer)
        backup.seal()
        self.backups.append(backup)
        if len(self.backups) > self.max_generations:
            self.backups.pop(0)
        self.store.audit.append(principal="system", operation="backup",
                                outcome="ok", detail=label)
        return backup

    def find(self, label: str) -> Backup:
        for backup in self.backups:
            if backup.label == label:
                return backup
        raise KeyError(label)

    def restore(self, label: str) -> GDPRStore:
        """The store restarted from generation ``label``, which becomes
        this manager's :attr:`store`, as any restart of it does.  Every part
        is verified (a damaged one raises CorruptionError before
        anything is built); then the live store restores itself over a
        copy of the generation's device (:meth:`~repro.gdpr.store.
        GDPRStore.restore`; :meth:`~repro.device.append_log.AppendLog.
        copy`, with the live log's latency: the generation's own is only
        read) and stops, and the restore is the first record the
        restored store's audit chain -- the live one, continued --
        holds.  The restored store logs to the copy, so its own
        :meth:`~repro.gdpr.store.GDPRStore.reopen` serves what it wrote.
        Drop the live store, as after a restart."""
        backup = self.find(label)
        backup.verified(backup.writer.part_files())
        live = self.store
        log = live.kv.aof_log
        latency = log.latency if log is not None else ZERO
        restored = live.restore(backup.writer.log.copy(live.clock, latency))
        restored.audit.append(principal="system", operation="restore",
                              outcome="ok", detail=label)
        return restored

    # -- erasure reconciliation ----------------------------------------------------------

    def reconcile_erasure(self, subject: str, erased_keys: List[str],
                          rewrite: bool = False) -> ReconciliationReport:
        """Audit (and optionally scrub) backups after an Art. 17 erasure.

        With ``rewrite=False`` the report simply documents which
        generations still hold ciphertext -- safe if (and only if) the
        subject was crypto-erased.  With ``rewrite=True`` each affected
        generation is scrubbed (:meth:`_scrub`), physically removing the
        bytes.  Everything else in the generation stays as it was at
        ``taken_at``.
        """
        report = ReconciliationReport(
            subject=subject, checked=len(self.backups),
            crypto_voided=self.store.keystore.is_erased(subject))
        erased = [key.encode("utf-8") for key in erased_keys]
        for backup in self.backups:
            if not backup.writer.mentioned_keys(erased):
                continue
            report.mentioning.append(backup.label)
            if rewrite:
                self._scrub(backup, erased)
                report.rewritten.append(backup.label)
        self.store.audit.append(
            principal="system", operation="backup-reconcile",
            subject=subject, outcome="ok",
            detail=f"{len(report.mentioning)} generations affected, "
                   f"{len(report.rewritten)} rewritten")
        return report

    def _scrub(self, backup: Backup, erased: List[bytes]) -> None:
        """Rewrite the parts of ``backup`` that hold ``erased``: each is
        verified and replayed into a zero-cost scratch store of the hot
        engine, the keys are deleted there, and the generation's log
        rewrites those parts from it -- new files, one barrier, one
        rename.  A failed rewrite leaves the old parts or, past its
        rename, the new ones, and the generation keeps the CRC-32s of
        the parts it lists: the writer adopts new parts only after the
        rename, and the next rewrite's sweep removes a failed one's
        leftover files."""
        writer = backup.writer
        targets = writer.part_files(erased)
        datas = backup.verified(targets)
        kv = self.store.kv
        scratch = (kv.inner if kv.supports_tiering else kv).spawn_replica()
        for data in datas:
            scratch.replay_aof(data)
        scratch.execute("DEL", *erased)
        try:
            writer.rewrite(scratch, erased)
        finally:
            backup.seal(targets)
