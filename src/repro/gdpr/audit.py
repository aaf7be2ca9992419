"""Tamper-evident audit logging (GDPR Art. 30, 5.2, 33).

Every interaction with personal data -- data path and control path alike --
becomes an :class:`AuditRecord` appended to an :class:`AuditLog`.  Records
are hash-chained so truncation or editing is detectable: the accountability
requirement of Art. 5.2.  Two chain granularities exist:

* **record mode** (default) -- each record's digest commits to its
  predecessor and the record is written (and, under SYNC, fsync'd) on its
  own -- the records of one GDPR request share the request's one fsync:
  strict real-time compliance, the configuration that costs Redis 20x;
* **block mode** (the fast-GDPR path) -- records buffer in memory and are
  sealed into :class:`AuditBlock`\\ s of up to ``block_size`` members (or,
  at a firing of the device's timer, once ``batch_interval`` has passed
  since the last seal).  One chain update covers the whole
  block: the block header commits to the previous block's hash plus a
  running digest over the member payloads, and the sealed block is
  group-committed with a single flush+fsync.  Tamper evidence is
  preserved -- editing a member breaks the member digest, editing the
  header breaks the block hash, reordering breaks the prev linkage --
  and no request waits for the fsync: a seal by size or interval is
  queued on the audit device.  The price is a visibility window: a
  crash loses at most one unsealed block.

A record's body and its log line are each formatted once, by a template
that prints the layer's JSON dialect byte for byte; a record a template
cannot print (a non-``str`` field, a ``bool`` seq, an ``int`` or
non-finite timestamp) is formatted by the encoder itself.

The per-record durability spectrum is the paper's AOF measurement run
by the same code: the log is written through a
:class:`~repro.device.append_log.LogWriter`, and ``AuditDurability`` is
the AOF's :class:`~repro.device.append_log.FsyncPolicy` under the audit
layer's names:

* ``SYNC``    -- ``always``: flush + fsync per record, or -- inside a
  barrier scope (every :class:`~repro.gdpr.store.GDPRStore` request is
  one) -- flush per record and one fsync at the scope's exit, before
  the engine log's, so no durable write goes unaudited;
* ``BATCH``   -- ``everysec`` at ``batch_interval``: group-commit at each
  firing of the device's timer (the paper's "storing the monitoring logs
  in a batch (say, once every second)" that recovers 6x while risking
  one interval of records);
* ``ASYNC``   -- ``no``: write()s without fsync; the OS decides.

A sealed block is a barrier as written
(:meth:`~repro.device.append_log.LogWriter.sync`): durable before
:meth:`AuditLog.seal_block` returns, inside a barrier scope too.  The
seals that fill a block or fall due at a firing are queued on the
device -- no request waits for them, so none pays the fsync, and any
later barrier on the device waits behind them; :meth:`AuditLog.sync`
(``flush_compliance``) waits for its seal.

BATCH group commit and interval sealing run on the audit device's one
timer (:meth:`~repro.device.append_log.AppendLog.join_timer`), which
fires on its clock every ``batch_interval`` whether or not records
arrive -- a quiescent log never leaves at-risk records unsynced.
"""

from __future__ import annotations

import bisect
import enum
import json
from dataclasses import dataclass
from math import isfinite
from typing import Iterable, List, Optional

from ..common.clock import Clock, SimClock
from ..common.errors import AuditError
from ..common.hashing import GENESIS_HASH, chain_hash
from ..device.append_log import AppendLog, FsyncPolicy, LogWriter


#: The audit log's name for the one durability policy: SYNC, BATCH and
#: ASYNC are :class:`FsyncPolicy`'s ALWAYS, EVERYSEC and NO.
AuditDurability = FsyncPolicy


class AuditChainMode(enum.Enum):
    RECORD = "record"   # per-record chain, per-record durability
    BLOCK = "block"     # sealed blocks, one chain update + fsync per block


# The layer's one JSON dialect (audit log, envelope header): sorted keys,
# no whitespace.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# One template per representation, keys in the dialect's order; ``_quote``
# is what the encoder itself applies to a ``str``, ``repr`` of a finite
# ``float`` its float form.
_quote = json.encoder.encode_basestring_ascii
_PAYLOAD = ('{"detail":%s,"key":%s,"op":%s,"outcome":%s,"principal":%s,'
            '"purpose":%s,"seq":%d,"subject":%s,"ts":%s}')
_LINE = '{"body":%s,"hash":%s,"prev":%s}\n'


def _record_payload(seq: int, timestamp: float, principal: str,
                    operation: str, key: Optional[str],
                    subject: Optional[str], purpose: Optional[str],
                    outcome: str, detail: str) -> bytes:
    """A record's hashed/serialized body (everything except the chain)."""
    ts = round(timestamp, 9)
    try:
        if type(seq) is int and type(ts) is float and isfinite(ts):
            return (_PAYLOAD % (
                _quote(detail),
                "null" if key is None else _quote(key),
                _quote(operation), _quote(outcome), _quote(principal),
                "null" if purpose is None else _quote(purpose), seq,
                "null" if subject is None else _quote(subject),
                repr(ts))).encode("utf-8")
    except TypeError:
        pass
    return _dumps({
        "seq": seq,
        "ts": ts,
        "principal": principal,
        "op": operation,
        "key": key,
        "subject": subject,
        "purpose": purpose,
        "outcome": outcome,
        "detail": detail,
    }).encode("utf-8")


def _record_line(payload: bytes, prev_hash: str, record_hash: str) -> bytes:
    """The log line of the record whose body serialises to ``payload``."""
    body = payload.decode("utf-8")
    try:
        line = _LINE % (_quote(body), _quote(record_hash), _quote(prev_hash))
    except TypeError:
        line = _dumps({"body": body, "prev": prev_hash,
                       "hash": record_hash}) + "\n"
    return line.encode("utf-8")


@dataclass(frozen=True)
class AuditRecord:
    """One interaction with personal data."""

    seq: int
    timestamp: float
    principal: str
    operation: str          # get/put/delete/expire/export/erase/policy...
    key: Optional[str]
    subject: Optional[str]  # owning data subject, when known
    purpose: Optional[str]
    outcome: str            # "ok" | "denied" | "error"
    detail: str = ""
    prev_hash: str = ""     # empty in block mode (the block carries the chain)
    record_hash: str = ""

    def payload(self) -> bytes:
        """The hashed/serialized body (everything except the chain)."""
        return _record_payload(
            self.seq, self.timestamp, self.principal, self.operation,
            self.key, self.subject, self.purpose, self.outcome, self.detail)

    def to_line(self) -> bytes:
        return _record_line(self.payload(), self.prev_hash,
                            self.record_hash)

    @classmethod
    def from_body(cls, body: dict, prev_hash: str = "",
                  record_hash: str = "") -> "AuditRecord":
        try:
            return cls(
                seq=body["seq"], timestamp=body["ts"],
                principal=body["principal"], operation=body["op"],
                key=body["key"], subject=body["subject"],
                purpose=body["purpose"], outcome=body["outcome"],
                detail=body.get("detail", ""),
                prev_hash=prev_hash, record_hash=record_hash)
        except (KeyError, TypeError) as exc:
            raise AuditError(f"corrupt audit body: {exc}") from exc

    @classmethod
    def from_line(cls, line: bytes) -> "AuditRecord":
        try:
            envelope = json.loads(line.decode("utf-8"))
            body = json.loads(envelope["body"])
        except (json.JSONDecodeError, KeyError, UnicodeDecodeError) as exc:
            raise AuditError(f"corrupt audit line: {exc}") from exc
        return cls.from_body(body, prev_hash=envelope["prev"],
                             record_hash=envelope["hash"])


# Seed of the per-block running member digest (distinct from the block
# chain's genesis so a digest can never be confused for a block hash).
BLOCK_DIGEST_SEED = chain_hash(GENESIS_HASH, b"repro-audit-block-digest")


def _payloads_digest(payloads: Iterable[bytes]) -> str:
    digest = BLOCK_DIGEST_SEED
    for payload in payloads:
        digest = chain_hash(digest, payload)
    return digest


def _block_header(first_seq: int, count: int, sealed_at: float,
                  digest: str) -> bytes:
    return _dumps({"first": first_seq, "count": count,
                   "sealed_at": round(sealed_at, 9),
                   "digest": digest}).encode("utf-8")


@dataclass(frozen=True)
class AuditBlock:
    """A sealed run of audit records committed by one chain update.

    ``digest`` is the running hash over the member payloads (seeded from
    :data:`BLOCK_DIGEST_SEED`); ``block_hash`` chains ``prev_hash`` with
    the serialized header, so the chain commits to every member byte.
    """

    first_seq: int
    count: int
    sealed_at: float
    prev_hash: str
    digest: str
    block_hash: str
    member_bodies: List[str]    # member payload() strings, in seq order

    def header_payload(self) -> bytes:
        return _block_header(self.first_seq, self.count, self.sealed_at,
                             self.digest)

    def to_line(self) -> bytes:
        envelope = {
            "type": "blk",
            "first": self.first_seq,
            "count": self.count,
            "sealed_at": round(self.sealed_at, 9),
            "digest": self.digest,
            "prev": self.prev_hash,
            "hash": self.block_hash,
            "members": self.member_bodies,
        }
        return _dumps(envelope).encode("utf-8") + b"\n"

    @classmethod
    def from_line(cls, line: bytes) -> "AuditBlock":
        try:
            envelope = json.loads(line.decode("utf-8"))
            if envelope.get("type") != "blk":
                raise KeyError("type")
            return cls(
                first_seq=envelope["first"], count=envelope["count"],
                sealed_at=envelope["sealed_at"],
                prev_hash=envelope["prev"], digest=envelope["digest"],
                block_hash=envelope["hash"],
                member_bodies=list(envelope["members"]))
        except (json.JSONDecodeError, KeyError, TypeError,
                UnicodeDecodeError) as exc:
            raise AuditError(f"corrupt audit block line: {exc}") from exc

    def records(self) -> List[AuditRecord]:
        out = []
        for body_str in self.member_bodies:
            try:
                body = json.loads(body_str)
            except json.JSONDecodeError as exc:
                raise AuditError(
                    f"corrupt member body in block at seq "
                    f"{self.first_seq}: {exc}") from exc
            out.append(AuditRecord.from_body(body))
        return out

    @staticmethod
    def members_digest(member_bodies: Iterable[str]) -> str:
        return _payloads_digest(body.encode("utf-8")
                                for body in member_bodies)


def _looks_like_block(line: bytes) -> bool:
    return line.startswith(b'{"count"') or b'"type":"blk"' in line[:200]


class AuditLog:
    """Hash-chained audit trail over an append-only log device."""

    def __init__(self, log: Optional[AppendLog] = None,
                 clock: Optional[Clock] = None,
                 durability: AuditDurability = AuditDurability.SYNC,
                 batch_interval: float = 1.0,
                 record_cpu_cost: float = 0.0,
                 chain_mode: AuditChainMode = AuditChainMode.RECORD,
                 block_size: int = 64) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.log = log if log is not None else AppendLog(clock=self.clock)
        self.durability = durability
        self.batch_interval = batch_interval
        self.record_cpu_cost = record_cpu_cost
        if isinstance(chain_mode, str):
            chain_mode = AuditChainMode(chain_mode)
        self.chain_mode = chain_mode
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        self._seq = 0
        self._tip = GENESIS_HASH            # record-mode chain tip
        self._block_tip = GENESIS_HASH      # block-mode chain tip
        self._blocks_sealed = 0
        self._sealed_records = 0            # records inside sealed blocks
        self._durable_records = 0           # block mode: sealed and synced
        self._last_seal = self.clock.now()
        # The one policy decides when appended bytes get fsynced: the
        # durability in record mode (a BATCH writer joins the device's
        # timer); in block mode every seal is a barrier, and the log
        # itself joins the timer to seal on interval (a zero interval
        # seals by size and on demand only).
        self._writer = LogWriter(
            self.log, self.clock,
            FsyncPolicy.ALWAYS if chain_mode is AuditChainMode.BLOCK
            else durability, batch_interval)
        if chain_mode is AuditChainMode.BLOCK and batch_interval > 0:
            self.log.join_timer(self, batch_interval)
        # Every record appended in this process, in order, and in record
        # mode the device offset each one's line ends at.
        self._memory: List[AuditRecord] = []
        self._ends: List[int] = []
        self._pending_block: List[AuditRecord] = []

    # -- appending -----------------------------------------------------------------

    def append(self, principal: str, operation: str,
               key: Optional[str] = None, subject: Optional[str] = None,
               purpose: Optional[str] = None, outcome: str = "ok",
               detail: str = "") -> AuditRecord:
        body = (self._seq, self.clock.now(), principal, operation, key,
                subject, purpose, outcome, detail)
        if self.chain_mode is AuditChainMode.BLOCK:
            record = AuditRecord(*body)
            self._seq += 1
            self._memory.append(record)
            self._pending_block.append(record)
            if len(self._pending_block) >= self.block_size:
                self.seal_block(wait=False)
            return record
        # One serialisation per record: the body bytes feed both the
        # chain hash and the log line.
        payload = _record_payload(*body)
        digest = chain_hash(self._tip, payload)
        record = AuditRecord(*body, self._tip, digest)
        if self.record_cpu_cost:
            self.clock.advance(self.record_cpu_cost)
        self.log.append(_record_line(payload, self._tip, digest))
        self._ends.append(self.log.total_length)
        self._seq += 1
        self._tip = digest
        self._memory.append(record)
        self._writer.post_command()
        return record

    def commit(self) -> None:
        """Under SYNC, make every record appended so far durable now,
        inside a barrier scope too: for a record that must be durable
        before a barrier its caller pays as written.  BATCH, ASYNC and
        block mode keep their windows."""
        if self.chain_mode is AuditChainMode.RECORD \
                and self.durability is AuditDurability.SYNC:
            self.sync()

    def seal_block(self, wait: bool = True) -> Optional[AuditBlock]:
        """Seal the pending records into one block and group-commit it.

        One chain update and one flush+fsync cover every member -- the
        amortization the paper's batched-monitoring suggestion asks for.
        The fsync is waited for, or with ``wait=False`` (a seal by size
        or interval, which no caller waits for) queued on the device.
        Returns the sealed block, or None when nothing is pending.
        """
        if self.chain_mode is not AuditChainMode.BLOCK:
            raise AuditError("seal_block requires block chain mode")
        if not self._pending_block:
            return None
        members = self._pending_block
        self._pending_block = []
        payloads = [m.payload() for m in members]
        digest = _payloads_digest(payloads)
        first_seq, sealed_at = members[0].seq, self.clock.now()
        block_hash = chain_hash(
            self._block_tip,
            _block_header(first_seq, len(members), sealed_at, digest))
        block = AuditBlock(
            first_seq=first_seq, count=len(members), sealed_at=sealed_at,
            prev_hash=self._block_tip, digest=digest, block_hash=block_hash,
            member_bodies=[p.decode("utf-8") for p in payloads])
        # The chain advances at seal time; if the group commit below is
        # lost (crash between seal and fsync) the durable log is missing
        # a block the chain already committed to -- verify_durable flags
        # the shortfall.
        self._block_tip = block_hash
        self._blocks_sealed += 1
        self._sealed_records += block.count
        if self.record_cpu_cost:
            self.clock.advance(self.record_cpu_cost)
        self.log.append(block.to_line())
        self._writer.sync(wait)
        self._durable_records = self._sealed_records
        self._last_seal = self.clock.now()
        return block

    def tick(self) -> None:
        """Block mode's step at each firing of the device's timer: seal
        the pending records once ``batch_interval`` has passed since the
        last seal."""
        if self._pending_block \
                and self.clock.now() - self._last_seal >= self.batch_interval:
            self.seal_block(wait=False)

    def sync(self) -> None:
        """Force everything appended so far durable (end-of-run barrier):
        seals any pending block, then flushes+fsyncs the device."""
        if self.chain_mode is AuditChainMode.BLOCK:
            self.seal_block()      # seal is itself a group commit
        else:
            self._writer.sync()

    # -- reading -------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self._seq

    @property
    def blocks_sealed(self) -> int:
        return self._blocks_sealed

    @property
    def pending_records(self) -> int:
        """Records appended but not yet sealed (block mode only)."""
        return len(self._pending_block)

    def records(self) -> List[AuditRecord]:
        """Records appended in this process."""
        return list(self._memory)

    def records_between(self, start: float,
                        end: float) -> List[AuditRecord]:
        """O(log n + result): timestamps are appended monotonically, so
        the window is a bisected slice."""
        lo = bisect.bisect_left(self._memory, start,
                                key=lambda r: r.timestamp)
        hi = bisect.bisect_right(self._memory, end,
                                 key=lambda r: r.timestamp)
        return self._memory[lo:hi]

    def at_risk_records(self) -> int:
        """Records not yet durable -- what a power loss loses right now.

        This quantifies the paper's everysec trade-off: "exposing it to
        the risk of losing one second worth of logs", and counts the
        SYNC records of an open barrier scope, which its exit makes
        durable.  In record mode, the records whose lines end past the
        device's durable frontier, whoever's fsync moved it (a bisection
        of the line ends); in block mode, the records not in a sealed
        block.
        """
        if self.chain_mode is AuditChainMode.RECORD:
            return self._seq - bisect.bisect_right(
                self._ends, self.log.durable_length)
        return self._seq - self._durable_records

    # -- parsing & verification ----------------------------------------------------

    @staticmethod
    def parse(data: bytes) -> List[AuditRecord]:
        """Parse serialized records; block lines expand to their members."""
        records = []
        for line in data.splitlines():
            if not line:
                continue
            if _looks_like_block(line):
                records.extend(AuditBlock.from_line(line).records())
            else:
                records.append(AuditRecord.from_line(line))
        return records

    @staticmethod
    def parse_blocks(data: bytes) -> List[AuditBlock]:
        return [AuditBlock.from_line(line)
                for line in data.splitlines() if line]

    @classmethod
    def verify_chain(cls, records: Iterable[AuditRecord]) -> int:
        """Verify the per-record hash chain; returns records verified.

        Raises :class:`AuditError` on the first broken link -- a truncated,
        edited, or reordered log fails here.  A slice that starts past
        seq 0 (``records_between``, say) anchors at its first record's
        ``prev_hash`` and verifies internal consistency from there.
        """
        tip = GENESIS_HASH
        count = 0
        expected_seq = None
        for record in records:
            if expected_seq is None:
                expected_seq = record.seq
                if record.seq != 0:
                    tip = record.prev_hash
            if record.seq != expected_seq:
                raise AuditError(
                    f"sequence gap: expected {expected_seq}, "
                    f"found {record.seq}")
            if record.prev_hash != tip:
                raise AuditError(
                    f"chain break at seq {record.seq}: prev hash mismatch")
            digest = chain_hash(tip, record.payload())
            if digest != record.record_hash:
                raise AuditError(
                    f"record {record.seq} hash mismatch (tampered)")
            tip = digest
            expected_seq += 1
            count += 1
        return count

    @classmethod
    def verify_blocks(cls, blocks: Iterable[AuditBlock]) -> int:
        """Verify a sealed-block chain; returns member records verified.

        Each block must link to its predecessor, its member digest must
        recompute from the member payloads, its hash must recompute from
        the header, and member sequence numbers must run contiguously --
        a tampered member, edited header, or reordered/removed block all
        fail.
        """
        tip = GENESIS_HASH
        expected_seq = None
        count = 0
        for block in blocks:
            if expected_seq is None:
                expected_seq = block.first_seq
            if block.first_seq != expected_seq:
                raise AuditError(
                    f"block sequence gap: expected {expected_seq}, "
                    f"found {block.first_seq}")
            if block.prev_hash != tip:
                raise AuditError(
                    f"block chain break at seq {block.first_seq}: "
                    "prev hash mismatch")
            digest = AuditBlock.members_digest(block.member_bodies)
            if digest != block.digest:
                raise AuditError(
                    f"block at seq {block.first_seq}: member digest "
                    "mismatch (tampered member)")
            if len(block.member_bodies) != block.count:
                raise AuditError(
                    f"block at seq {block.first_seq}: member count "
                    "mismatch")
            recomputed = chain_hash(tip, block.header_payload())
            if recomputed != block.block_hash:
                raise AuditError(
                    f"block at seq {block.first_seq}: block hash "
                    "mismatch (tampered header)")
            for record in block.records():
                if record.seq != expected_seq:
                    raise AuditError(
                        f"member sequence gap inside block: expected "
                        f"{expected_seq}, found {record.seq}")
                expected_seq += 1
                count += 1
            tip = recomputed
        return count

    @classmethod
    def verify_block_bytes(cls, data: bytes) -> int:
        """Parse + verify serialized block lines (a torn final line --
        truncation mid-block -- fails the parse and raises)."""
        return cls.verify_blocks(cls.parse_blocks(data))

    def verify_durable(self) -> int:
        """Parse + verify what is durably on the device.

        In block mode this additionally requires every *sealed* block to
        be present: sealing advances the chain before the group commit,
        so a crash (or injected fault) between seal and fsync leaves the
        durable log short of the chain's commitments and fails here.
        """
        data = self.log.read_durable()
        if self.chain_mode is AuditChainMode.BLOCK:
            count = self.verify_block_bytes(data)
            if count < self._sealed_records:
                raise AuditError(
                    f"durable log holds {count} records but "
                    f"{self._sealed_records} were sealed: sealed "
                    "block(s) lost before fsync")
            return count
        return self.verify_chain(self.parse(data))

    def verify(self) -> int:
        """Verify this log's full chain in its own mode: the in-memory
        record chain (record mode) or every written block (block mode;
        pending unsealed records are not yet chain-committed)."""
        if self.chain_mode is AuditChainMode.BLOCK:
            return self.verify_blocks(self.parse_blocks(
                self.log.read_all()))
        return self.verify_chain(self.records())
