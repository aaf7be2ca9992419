"""Backups under the right to be forgotten.

Art. 17 erasure must reach *backups* (paper section 2.1), yet rewriting a
backup archive per erasure request is operationally absurd -- this is
exactly why Google Cloud's "up to 6 months to purge deleted data from all
internal systems" policy exists (paper sections 3.2 and 5.1).

:class:`BackupManager` models the two industrial answers:

* **crypto-erasure by construction** -- backups store the encrypted
  keyspace plus the *wrapped* per-subject keys; destroying a subject's
  key at the keystore voids their data in every backup generation at
  once, with zero backup I/O;
* **reconciliation** -- :meth:`reconcile_erasure` audits which backup
  generations still *mention* erased keys and (optionally) scrubs them
  of those keys alone, yielding the erasure-completeness report a DPO
  would need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..common.clock import Clock
from ..kvstore import snapshot
from .store import GDPRStore


@dataclass
class Backup:
    """One point-in-time backup generation."""

    label: str
    taken_at: float
    snapshot: bytes
    wrapped_keys: Dict[str, bytes]


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
        self.store = store
        self.clock: Clock = store.clock
        self.max_generations = max_generations
        self.backups: List[Backup] = []

    # -- lifecycle -------------------------------------------------------------------

    def take_backup(self, label: Optional[str] = None) -> Backup:
        """Snapshot the keyspace and the wrapped key material."""
        if label is None:
            label = f"backup-{len(self.backups):04d}"
        backup = Backup(
            label=label,
            taken_at=self.clock.now(),
            snapshot=self.store.kv.save_snapshot(),
            wrapped_keys=self.store.keystore.export_wrapped())
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
        """Materialize a backup into a fresh GDPRStore over a
        same-engine store (the live engine's replica spawn).

        The restored keystore re-imports the *wrapped* keys under the
        live master -- so subjects crypto-erased since the backup stay
        erased (their key ids are tombstoned at the keystore).  On an
        engine with metadata columns a restored row would still name
        such a subject in plaintext, so those rows are deleted again.
        """
        backup = self.find(label)
        kv = self.store.kv.spawn_replica()
        kv.load_snapshot(backup.snapshot)
        restored = GDPRStore(kv=kv, config=self.store.config,
                             keystore=self.store.keystore,
                             locations=self.store.locations)
        for subject in self.store.keystore.erased_ids():
            for key in kv.keys_of_owner(subject) or ():
                kv.execute("DEL", key)
        restored.rebuild_indexes()
        self.store.audit.append(principal="system", operation="restore",
                                outcome="ok", detail=label)
        return restored

    # -- erasure reconciliation ----------------------------------------------------------

    def reconcile_erasure(self, subject: str, erased_keys: List[str],
                          rewrite: bool = False) -> ReconciliationReport:
        """Audit (and optionally scrub) backups after an Art. 17 erasure.

        With ``rewrite=False`` the report simply documents which
        generations still hold ciphertext -- safe if (and only if) the
        subject was crypto-erased.  With ``rewrite=True`` each affected
        generation is scrubbed: its snapshot is loaded once and written
        back without the erased keys, and the subject's wrapped key is
        dropped, physically removing the bytes.  Everything else in the
        generation stays as it was at ``taken_at``.
        """
        report = ReconciliationReport(
            subject=subject, checked=len(self.backups),
            crypto_voided=subject in
            list(self.store.keystore.erased_ids()))
        erased = {key.encode("utf-8") for key in erased_keys}
        for backup in self.backups:
            databases = snapshot.load(backup.snapshot)
            if not any(record.key in erased for records in databases.values()
                       for record in records):
                continue
            report.mentioning.append(backup.label)
            if rewrite:
                backup.snapshot = snapshot.dump(
                    {index: [record for record in records
                             if record.key not in erased]
                     for index, records in databases.items()})
                backup.wrapped_keys.pop(subject, None)
                report.rewritten.append(backup.label)
        self.store.audit.append(
            principal="system", operation="backup-reconcile",
            subject=subject, outcome="ok",
            detail=f"{len(report.mentioning)} generations affected, "
                   f"{len(report.rewritten)} rewritten")
        return report
