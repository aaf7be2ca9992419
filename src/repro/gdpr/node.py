"""The GDPR layer as a cluster node serves it: commands and migration taps.

A cluster shard whose store is a :class:`~repro.gdpr.store.GDPRStore`
serves the ``GDPR.*`` commands of the one command table
(:mod:`repro.kvstore.commands`) from :data:`HANDLERS`, each a thin
adapter over an existing store method or over a right's per-store body
in :mod:`repro.gdpr.rights`; every other command reaches the engine
underneath as it does on any node.  The wire forms:

* ``GDPR.PUT key envelope principal purpose`` -- the envelope is
  :func:`~repro.gdpr.metadata.pack_envelope`'s ``header NUL value``
  (the metadata travels as the record's own header); ``purpose`` is
  empty for none;
* ``GDPR.GET key principal purpose`` replies with the record's envelope;
* ``GDPR.DEL key principal`` replies 1 or 0;
* ``GDPR.SUBJECT subject`` replies with the shard's keys of the subject;
* ``GDPR.PURPOSE purpose principal`` replies ``[key, envelope, ...]``
  for every record processable under ``purpose``;
* ``GDPR.ACCESS|ERASE|EXPORT|OBJECT subject principal arg`` runs the
  right's per-store body and replies with its part as JSON (nil when
  the shard holds nothing of the subject); ``arg`` is the body's JSON
  argument (the export format, the objected purpose; null for access
  and erasure).

A principal travels as JSON.  A refused operation replies ``GDPRERR
<exception class> <message>``, and :func:`raise_reply` turns that back
into the exception the store raised, so a client sees what a caller of
the store in-process would.

:class:`GDPRMigrationTaps` is what a slot migration tells a GDPR node: the
record's metadata crosses the link with its payload, the receiving
store's index and location ledger register it, and both audit chains
record the handoff (``migrate-begin/in/out/evict/return/end``).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from ..common import errors
from ..common.resp import RespError, SimpleString
from .access_control import Principal
from .metadata import pack_envelope, unpack_envelope
from .rights import _access_part, _erasure_part, _export_part, _object_part
from .store import GDPRStore

MIGRATOR_PRINCIPAL = "cluster-migrator"


def encode_principal(principal: Principal) -> bytes:
    return json.dumps([principal.name, sorted(principal.roles),
                       principal.is_controller]).encode("utf-8")


def decode_principal(raw: bytes) -> Principal:
    name, roles, is_controller = json.loads(raw)
    return Principal(name=name, roles=frozenset(roles),
                     is_controller=is_controller)


def raise_reply(reply: Any) -> Any:
    """``reply``, or the exception a ``GDPRERR`` reply stands for (one
    of :mod:`repro.common.errors`, or ``KeyError``)."""
    if not isinstance(reply, RespError):
        return reply
    code, _, rest = str(reply).partition(" ")
    name, _, message = rest.partition(" ")
    error = KeyError if name == "KeyError" else getattr(errors, name, None)
    if code != "GDPRERR" or not isinstance(error, type):
        raise reply
    raise error(message)


def _text(raw: bytes) -> str:
    return raw.decode("utf-8")


def _put(store: GDPRStore, key: bytes, envelope: bytes, principal: bytes,
         purpose: bytes) -> SimpleString:
    metadata, value = unpack_envelope(envelope)
    store.put(_text(key), value, metadata,
              principal=decode_principal(principal),
              purpose=_text(purpose) or None)
    return SimpleString("OK")


def _get(store: GDPRStore, key: bytes, principal: bytes,
         purpose: bytes) -> bytes:
    record = store.get(_text(key), principal=decode_principal(principal),
                       purpose=_text(purpose) or None)
    return pack_envelope(record.metadata, record.value)


def _delete(store: GDPRStore, key: bytes, principal: bytes) -> int:
    return int(store.delete(_text(key),
                            principal=decode_principal(principal)))


def _subject(store: GDPRStore, subject: bytes) -> List[bytes]:
    return [key.encode("utf-8")
            for key in store.keys_of_subject(_text(subject))]


def _purpose(store: GDPRStore, purpose: bytes,
             principal: bytes) -> List[bytes]:
    reply: List[bytes] = []
    for record in store.process_for_purpose(
            _text(purpose), principal=decode_principal(principal)):
        reply += [record.key.encode("utf-8"),
                  pack_envelope(record.metadata, record.value)]
    return reply


def _right(body: Callable) -> Callable:
    """A right's handler: its per-store body, run as the store runs it
    (one request), its part as JSON."""

    def handler(store: GDPRStore, subject: bytes, principal: bytes,
                arg: bytes) -> Optional[bytes]:
        parts = store.subject_parts(body, _text(subject),
                                    decode_principal(principal),
                                    json.loads(arg))
        return json.dumps(parts[0][1]).encode("utf-8") if parts else None

    return handler


#: Right body -> the command that runs it on every shard.
RIGHT_COMMANDS = {
    _access_part: b"GDPR.ACCESS",
    _erasure_part: b"GDPR.ERASE",
    _export_part: b"GDPR.EXPORT",
    _object_part: b"GDPR.OBJECT",
}

HANDLERS: Dict[bytes, Callable] = {
    b"GDPR.PUT": _put,
    b"GDPR.GET": _get,
    b"GDPR.DEL": _delete,
    b"GDPR.SUBJECT": _subject,
    b"GDPR.PURPOSE": _purpose,
    **{name: _right(body) for body, name in RIGHT_COMMANDS.items()},
}


def execute(store: GDPRStore, argv: List[bytes]) -> Any:
    """Serve one ``GDPR.*`` command (arity already checked by the
    node's table lookup) against ``store``; a refusal is a reply."""
    handler = HANDLERS[argv[0].upper()]
    try:
        return handler(store, *argv[1:])
    except (errors.ReproError, KeyError) as exc:
        message = exc.args[0] if exc.args else ""
        return RespError(f"GDPRERR {type(exc).__name__} {message}")


class GDPRMigrationTaps:
    """Keep a GDPR node's compliance state current through a slot
    migration.  The migrator calls these on the nodes at both ends
    (``key`` is the engine's bytes key, ``peer`` the other end's shard
    index); a plain engine's node has taps that do nothing."""

    def __init__(self, store: GDPRStore) -> None:
        self.store = store

    def _audit(self, operation: str, detail: str, key: Optional[str] = None,
               subject: Optional[str] = None) -> None:
        self.store.audit.append(
            principal=MIGRATOR_PRINCIPAL, operation=operation, key=key,
            subject=subject, outcome="ok", detail=detail)

    def began(self, slot: int, source: int, target: int) -> None:
        self._audit("migrate-begin",
                    f"slot {slot}: shard-{source} -> shard-{target}")

    def metadata(self, key: bytes) -> bytes:
        """What crosses the link beside the payload: the record's
        metadata header."""
        metadata = self.store.index.get_metadata(_text(key))
        return b"" if metadata is None else metadata.envelope_header

    def copied(self, key: bytes, header: bytes, slot: int, peer: int,
               returned: bool) -> None:
        """A copy landed here: index it (so rights see it at once), file
        its location and annotate the engine's metadata columns."""
        if not header:
            return
        store, name = self.store, _text(key)
        metadata, _ = unpack_envelope(header)
        store.index.add(name, metadata)
        store.kv.annotate_metadata([(name, metadata.owner,
                                     metadata.purposes)])
        store.locations.record_stored(name, store.config.region)
        if returned:
            self._audit("migrate-return", f"slot {slot}: born on "
                        f"shard-{peer} during aborted migration",
                        name, metadata.owner)
        else:
            self._audit("migrate-in", f"slot {slot} from shard-{peer}",
                        name, metadata.owner)

    def evicted(self, key: bytes, slot: int) -> None:
        """The source copy died mid-migration and took this shadow with
        it; the deletion tap already did the erasure bookkeeping."""
        self._audit("migrate-evict",
                    f"slot {slot}: source copy deleted mid-migration",
                    _text(key))

    def releasing(self, key: bytes, slot: int, peer: int,
                  handoff: bool) -> None:
        """This copy is about to be deleted because it lives on at
        ``peer``: deregister it first, so the deletion records no
        erasure.  A handoff (the source after the flip) is audited."""
        store, name = self.store, _text(key)
        metadata = store.index.remove(name)
        store.locations.record_erased(name)
        if handoff:
            self._audit("migrate-out", f"slot {slot} to shard-{peer}", name,
                        metadata.owner if metadata is not None else None)

    def ended(self, slot: int, detail: str, aborted: bool) -> None:
        self._audit("migrate-abort" if aborted else "migrate-end", detail)
