"""WAL-style durability for the relational engine.

PostgreSQL's durability story is a write-ahead log: every committed
mutation is appended to the WAL before it is acknowledged, fsync policy
(``synchronous_commit``) decides when the log bytes become durable, and
checkpoints bound replay work by rewriting the log against current
state.  Structurally that is the same three-frontier append log the
Redis AOF uses, so the relational engine's WAL *is* an
:class:`~repro.kvstore.aof.AofWriter` over a device-layer
:class:`~repro.device.append_log.AppendLog` (the durability spectrum
under comparison is the same mechanism on both engines):

* records are logical statements in RESP frames -- one vocabulary for
  both engines' logs, so cross-engine tooling (the Art. 17 residual
  check ``contains_key``, crash replay) works on either;
* ``wal_fsync`` maps onto the same always/everysec/no spectrum the
  paper measures for the AOF (``synchronous_commit = on / off`` plus a
  group-commit window);
* ``log_reads=True`` is the paper's monitoring configuration for the
  relational system: statement logging of reads as well as writes.

:func:`checkpoint` is the WAL's compaction: rewrite the log to exactly
the live rows (payload, expiry column, GDPR metadata columns), dropping
every trace of deleted data -- the erasure-compaction requirement the
paper raises for logs in section 4.3.
"""

from __future__ import annotations

from typing import List

from ..common.resp import encode_command
from ..kvstore.aof import (GDPRMETA_STATEMENT, PEXPIREAT_STATEMENT,
                           SET_STATEMENT)

__all__ = ["checkpoint"]


def checkpoint(engine) -> int:
    """Rewrite the engine's WAL to current live state; returns the new
    log size in bytes.

    One statement per live row (plus its expiry deadline and GDPR
    metadata columns, when present), replacing the log atomically --
    deleted rows, and any erased subject's statements, do not survive.
    """
    log = engine.aof_log
    if log is None:
        raise ValueError("the engine has no WAL attached")
    chunks: List[bytes] = []
    for row in engine.table.rows():
        key, value = row.key, row.value
        if isinstance(value, bytes):
            chunks.append(SET_STATEMENT % (len(key), key, len(value), value))
        else:
            args: List[bytes] = [b"HSET", key]
            for name in sorted(value):
                args.append(name)
                args.append(value[name])
            chunks.append(encode_command(*args))
        if row.expire_at is not None:
            millis = b"%d" % int(row.expire_at * 1000)
            chunks.append(PEXPIREAT_STATEMENT
                          % (len(key), key, len(millis), millis))
        if row.owner is not None:
            owner = row.owner.encode("utf-8")
            purposes = row.purposes.encode("utf-8")
            chunks.append(GDPRMETA_STATEMENT % (
                len(key), key, len(owner), owner, len(purposes), purposes))
    data = b"".join(chunks)
    log.replace(data)
    return len(data)
