"""Tamper-evident audit logging (GDPR Art. 30, 5.2, 33).

Every interaction with personal data -- data path and control path alike --
is one record appended to an :class:`AuditLog`.  Records are sealed into
hash-chained blocks, so truncation or editing is detectable: the
accountability requirement of Art. 5.2.

The log is its device.  A record lives in the process only until its
block is sealed, and only as its serialized body.  Every read -- the
records, a time window of them, the verifiers -- folds over the
device's lines one block at a time, and an :class:`AuditRecord` is only
what a read returns.  An :class:`AuditLog` over a device that already
holds blocks continues the chain where it ends: one fold over the
durable lines sets the next sequence number and the tip.  A final line
that fails its hash is a torn write and is cut from the device, as
Redis' ``aof-load-truncated`` cuts a torn AOF tail; so are bytes past
it that were never made durable.  A bad line before the final one
raises :class:`~repro.common.errors.AuditError`: the log never starts a
new chain over a broken one.

A sealed block is one line on the log device, and the line holds only
what a verifier cannot recompute: the members' bodies, the instant the
block was sealed, and the block's hash, which chains the previous
block's hash with every byte of the line before it.  Editing a member or
the seal instant breaks the block's hash; reordering or dropping a block
breaks the chain at the next one; a torn final line fails to verify, and
a final block lost whole leaves the durable log short of what the log
made durable (:meth:`AuditLog.verify_durable`).  The verifier carries the
previous hash and counts the members itself, reading the device one
line at a time.

When a block is sealed is the durability policy, ``AuditDurability`` --
the AOF's :class:`~repro.device.append_log.FsyncPolicy` under the audit
layer's names.  Every seal is a barrier, so the log takes two of its
settings and refuses ``no``:

* ``SYNC`` -- a request's records are one block, sealed at the outermost
  exit of its barrier scope (every :class:`~repro.gdpr.store.GDPRStore`
  request is one), before the engine log's barrier, so no durable
  write's processing goes unaudited; a record appended outside any scope
  is sealed at once.  Strict real-time compliance: "logging every user
  request synchronously", the configuration that costs Redis 20x.
* ``BATCH`` -- records wait in memory for a block of ``block_size``
  (fast-GDPR's amortization), or for a firing of the device's timer once
  ``batch_interval`` has passed since the last seal (the paper's
  "storing the monitoring logs in a batch (say, once every second)"
  that recovers 6x while risking one interval of records).

Every seal is one write and one barrier
(:meth:`~repro.device.append_log.LogWriter.sync`), durable as the seal
returns -- inside a barrier scope too.  A seal by size or at a firing is
one nobody waits for, so its barrier is queued on the device and no
request pays the fsync; any later barrier on the device waits behind
it, and its block is durable -- out of :meth:`AuditLog.at_risk_records`
-- once the barrier lands, at the device's ``idle_at``.
:meth:`AuditLog.commit` seals now under SYNC (a record that must be
durable before a barrier its caller pays), and :meth:`AuditLog.sync`
(``flush_compliance``) seals whatever is pending under either policy.

A record's body and its block's line are each formatted by a template
that prints the layer's JSON dialect byte for byte; a record a template
cannot print (a non-``str`` field, a ``bool`` seq, an ``int`` or
non-finite timestamp) is formatted by the encoder itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import inf, isfinite
from typing import Iterator, List, Optional, Tuple

from ..common.clock import Clock, SimClock
from ..common.errors import AuditError
from ..common.hashing import GENESIS_HASH, chain_hash
from ..device.append_log import AppendLog, FsyncPolicy, LogWriter


#: The audit log's name for the one durability policy: SYNC and BATCH
#: are :class:`FsyncPolicy`'s ALWAYS and EVERYSEC.
AuditDurability = FsyncPolicy


# The layer's one JSON dialect (audit log, envelope header): sorted keys,
# no whitespace.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_loads = json.JSONDecoder().decode


# One template per representation, keys in the dialect's order; ``_quote``
# is what the encoder itself applies to a ``str``, ``repr`` of a finite
# ``float`` its float form.
_quote = json.encoder.encode_basestring_ascii
_PAYLOAD = ('{"detail":%s,"key":%s,"op":%s,"outcome":%s,"principal":%s,'
            '"purpose":%s,"seq":%d,"subject":%s,"ts":%s}')
# A block's line: the hashed head, then the tail naming its hash.
_HEAD = b'{"members":[%s],"sealed_at":%r'
_TAIL = b',"hash":"%s"}\n'
_TAIL_LENGTH = len(_TAIL % GENESIS_HASH.encode("ascii"))


def _record_payload(seq: int, timestamp: float, principal: str,
                    operation: str, key: Optional[str],
                    subject: Optional[str], purpose: Optional[str],
                    outcome: str, detail: str) -> bytes:
    """A record's serialized body, as its block's line holds it."""
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

    @classmethod
    def from_body(cls, body: dict) -> "AuditRecord":
        try:
            return cls(
                seq=body["seq"], timestamp=body["ts"],
                principal=body["principal"], operation=body["op"],
                key=body["key"], subject=body["subject"],
                purpose=body["purpose"], outcome=body["outcome"],
                detail=body.get("detail", ""))
        except (KeyError, TypeError) as exc:
            raise AuditError(f"corrupt audit body: {exc}") from exc


def _members(line: bytes) -> list:
    """The member bodies of a block's line."""
    try:
        members = _loads(line.decode("ascii"))["members"]
        if type(members) is list:
            return members
    except (json.JSONDecodeError, KeyError, TypeError,
            UnicodeDecodeError) as exc:
        raise AuditError(f"corrupt audit block line: {exc}") from exc
    raise AuditError("corrupt audit block line: members is not a list")


def _fold(lines: Iterator[bytes], committed: int = 0,
          torn_tail: bool = False) -> Tuple[int, int, str, int]:
    """Fold the chain over block ``lines``, holding one at a time;
    returns the member records and the blocks verified, the chain's tip
    and the end of the last good line.  Each line's tail must name the
    hash of the previous block's hash and the line's head, and member
    sequence numbers must run from 0 without a gap; at least
    ``committed`` records must be there.  With ``torn_tail`` a final
    line that fails its hash ends the fold (a torn write) instead of
    failing it."""
    tip, seq, blocks, end = GENESIS_HASH, 0, 0, 0
    for line in lines:
        block_hash = chain_hash(tip, line[:-_TAIL_LENGTH])
        if line[-_TAIL_LENGTH:] != _TAIL % block_hash.encode("ascii"):
            if torn_tail and next(lines, None) is None:
                break
            raise AuditError(
                f"block at seq {seq}: hash mismatch (edited, reordered, "
                "dropped or torn)")
        for body in _members(line):
            if type(body) is not dict or body.get("seq") != seq:
                raise AuditError(f"sequence gap at seq {seq}")
            seq += 1
        tip = block_hash
        blocks += 1
        end += len(line)
    if seq < committed:
        raise AuditError(
            f"the log holds {seq} records but {committed} were sealed "
            "durably: sealed block(s) lost")
    return seq, blocks, tip, end


class AuditLog:
    """Hash-chained audit trail over an append-only log device, which
    it continues where its chain ends."""

    def __init__(self, log: Optional[AppendLog] = None,
                 clock: Optional[Clock] = None,
                 durability: AuditDurability = AuditDurability.SYNC,
                 batch_interval: float = 1.0,
                 record_cpu_cost: float = 0.0,
                 chain_mode: str = "block",
                 block_size: int = 64) -> None:
        if chain_mode != "block":
            raise ValueError("the audit log has one format: a request "
                             "seals one block (chain_mode='block')")
        if durability is FsyncPolicy.NO:
            raise ValueError("every audit seal is a barrier: the policy "
                             "is SYNC or BATCH")
        self.clock = clock if clock is not None else SimClock()
        self.log = log if log is not None else AppendLog(clock=self.clock)
        self.durability = durability
        self.batch_interval = batch_interval
        self.record_cpu_cost = record_cpu_cost
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = block_size
        # The chain continues where the device's lines end; a torn
        # final line is cut.
        self._seq, self._blocks_sealed, self._tip, end = _fold(
            self.log.lines(), torn_tail=True)
        if end < self.log.total_length:
            self.log.truncate(end)
        # Records in blocks whose barrier returned, and when the last
        # seal's barrier lands (a queued one's is in flight until then)
        # with the records durable before it.
        self._durable_records = self._seq
        self._queued = (-inf, 0)
        self._last_seal = self.clock.now()
        # The serialized bodies of the records not yet in a block.
        self._pending: List[bytes] = []
        # Every seal is a barrier.  Under SYNC a request's records seal
        # at its scope's exit; otherwise the log joins the device's
        # timer to seal on interval (a zero interval seals by size and
        # on demand only).
        self._writer = LogWriter(self.log, self.clock, FsyncPolicy.ALWAYS)
        self._sync = durability is AuditDurability.SYNC
        if self._sync:
            self.log.before_barrier = self.seal_block
        elif batch_interval > 0:
            self.log.join_timer(self, batch_interval)

    # -- appending -----------------------------------------------------------------

    def append(self, principal: str, operation: str,
               key: Optional[str] = None, subject: Optional[str] = None,
               purpose: Optional[str] = None, outcome: str = "ok",
               detail: str = "") -> None:
        self._pending.append(_record_payload(
            self._seq, self.clock.now(), principal, operation, key,
            subject, purpose, outcome, detail))
        self._seq += 1
        if self._sync:
            if not self.log.in_scope:
                self.seal_block()
        elif len(self._pending) >= self.block_size:
            self.seal_block(wait=False)

    def commit(self) -> None:
        """Under SYNC, seal every record appended so far now, durable as
        this returns, inside a barrier scope too: for a record that must
        be durable before a barrier its caller pays.  BATCH keeps its
        window."""
        if self._sync:
            self.seal_block()

    def seal_block(self, wait: bool = True) -> None:
        """Seal the pending records into one block: one line, one chain
        hash and one barrier for every member.  The barrier is waited
        for, or with ``wait=False`` (a seal by size or interval, which
        no caller waits for) queued on the device."""
        members = self._pending
        if not members:
            return
        sealed_at = self.clock.now()
        head = _HEAD % (b",".join(members), round(sealed_at, 9))
        block_hash = chain_hash(self._tip, head)
        if self.record_cpu_cost:
            self.clock.advance(self.record_cpu_cost)
        self.log.append(head + _TAIL % block_hash.encode("ascii"))
        # The chain advances once the line is written; the records are
        # durable once its barrier lands.
        self._pending = []
        self._tip = block_hash
        self._blocks_sealed += 1
        self._last_seal = sealed_at
        self._writer.sync(wait)
        self._queued = (self.log.idle_at, self._durable_records)
        self._durable_records = self._seq - len(self._pending)

    def tick(self) -> None:
        """The step at each firing of the device's timer: seal the
        pending records once ``batch_interval`` has passed since the
        last seal."""
        if self._pending \
                and self.clock.now() - self._last_seal >= self.batch_interval:
            self.seal_block(wait=False)

    def sync(self) -> None:
        """Seal the pending records now, whatever the policy, durable as
        this returns (the end-of-run barrier)."""
        self.seal_block()

    # -- reading -------------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self._seq

    @property
    def blocks_sealed(self) -> int:
        return self._blocks_sealed

    @property
    def pending_records(self) -> int:
        """Records appended but not yet sealed."""
        return len(self._pending)

    def records(self) -> List[AuditRecord]:
        """Every record of the log, sealed or pending, in order."""
        return self.records_between(-inf, inf)

    def records_between(self, start: float,
                        end: float) -> List[AuditRecord]:
        """The records stamped within ``[start, end]``: one pass over
        the device's blocks, then the pending records as one block
        more, decoding one block at a time and keeping only those."""
        pending = b'{"members":[%s]}' % b",".join(self._pending)
        return [record for line in chain(self.log.lines(), [pending])
                for record in map(AuditRecord.from_body, _members(line))
                if start <= record.timestamp <= end]

    def at_risk_records(self) -> int:
        """Records not yet in a durable block -- what a power loss loses
        right now.

        This quantifies the paper's everysec trade-off: "exposing it to
        the risk of losing one second worth of logs", and counts the
        SYNC records of an open barrier scope, which its exit seals.
        """
        lands_at, before = self._queued
        if self.log.clock.now() < lands_at:
            return self._seq - before
        return self._seq - self._durable_records

    # -- parsing & verification ----------------------------------------------------

    @staticmethod
    def parse(data: bytes) -> List[AuditRecord]:
        """The records of serialized block lines, in order."""
        return [AuditRecord.from_body(body) for line in data.splitlines()
                if line for body in _members(line)]

    def verify_durable(self) -> int:
        """Verify what is durably on the device, and that it holds every
        block whose barrier returned: a block lost after its seal was
        made durable fails here.  A block whose barrier never landed (a
        crash inside its seal, or before a queued seal's barrier lands)
        was never durable: its records are at risk, not missing."""
        return _fold(self.log.lines(durable=True),
                     self._seq - self.at_risk_records())[0]

    def verify(self) -> int:
        """Verify every block written to the device (pending records are
        not yet chain-committed)."""
        return _fold(self.log.lines(), self._seq - len(self._pending))[0]
