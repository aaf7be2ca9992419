"""Exception hierarchy shared by every subsystem in :mod:`repro`.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems define narrower classes here
(rather than locally) so that cross-layer code -- e.g. the GDPR layer
wrapping the key-value store -- can handle substrate errors without
importing substrate internals.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


class SerializationError(ReproError):
    """Encoding or decoding a wire/disk format failed."""


class ProtocolError(SerializationError):
    """A peer sent bytes that violate the wire protocol (RESP framing)."""


# ---------------------------------------------------------------------------
# Device layer
# ---------------------------------------------------------------------------


class DeviceError(ReproError):
    """Base class for log-device failures."""


class DeviceIOError(DeviceError):
    """An injected or underlying I/O failure occurred."""


class CorruptionError(DeviceError):
    """Stored bytes fail checksum or structural validation."""


# ---------------------------------------------------------------------------
# Crypto layer
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class IntegrityError(CryptoError):
    """Authenticated data failed its integrity check (HMAC mismatch)."""


class KeyNotFoundError(CryptoError, KeyError):
    """A referenced key id is absent from the keystore (possibly erased)."""


class KeyErasedError(KeyNotFoundError):
    """The key existed but was destroyed by crypto-erasure."""


# ---------------------------------------------------------------------------
# Network layer
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class ChannelClosedError(NetworkError):
    """The channel was closed by either endpoint."""


class HandshakeError(NetworkError):
    """TLS-like handshake failed (bad credentials or tampering)."""


# ---------------------------------------------------------------------------
# Key-value store
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """Base class for key-value store errors."""


class WrongTypeError(StoreError):
    """Operation applied against a key holding the wrong data type.

    Mirrors Redis' ``WRONGTYPE`` error.
    """


class UnknownCommandError(StoreError):
    """The command name is not registered."""


class ArityError(StoreError):
    """A command received the wrong number of arguments."""


class PersistenceError(StoreError):
    """AOF machinery failed (write error, corrupt file)."""


# ---------------------------------------------------------------------------
# Cluster layer
# ---------------------------------------------------------------------------


class ClusterError(StoreError):
    """Base class for hash-slot cluster errors."""


class CrossSlotError(ClusterError):
    """A multi-key command referenced keys in different hash slots.

    Mirrors Redis Cluster's ``CROSSSLOT`` error; callers colocate related
    keys with ``{hash tag}`` notation.
    """


class MigrationError(ClusterError):
    """A slot-migration state transition was invalid (slot already
    migrating, migration finished twice, reassignment mid-flight)."""


class RedirectError(ClusterError):
    """Base class for cluster redirects: the contacted shard does not
    (exclusively) serve the key's slot and names the shard that does.

    Carries the wire-level fields of Redis Cluster's ``MOVED``/``ASK``
    replies: the hash slot and the shard to contact.
    """

    def __init__(self, slot: int, shard: int) -> None:
        super().__init__(f"{self.kind} {slot} {shard}")
        self.slot = slot
        self.shard = shard

    kind = "REDIRECT"


class MovedError(RedirectError):
    """``MOVED``: slot ownership changed durably; clients should update
    their routing table and retry at the named shard."""

    kind = "MOVED"


class AskError(RedirectError):
    """``ASK``: the key is mid-migration; retry *this one request* at the
    named importing shard, prefixed with ``ASKING``, without updating any
    routing tables."""

    kind = "ASK"


class RedirectLoopError(ClusterError):
    """A request was redirected more times than the client's cap --
    the cluster topology view never converged."""


# ---------------------------------------------------------------------------
# Tenancy layer
# ---------------------------------------------------------------------------


class TenancyError(ClusterError):
    """Base class for multi-tenant control-plane errors."""


class UnknownTenantError(TenancyError):
    """A request named a tenant the registry has never heard of.

    The message begins ``TENANTUNKNOWN`` so the RESP layer forwards it
    unprefixed (like redirects), letting clients match on the token.
    """


class TenantAccessError(TenancyError):
    """A request addressed a key outside the requesting tenant's
    namespace.  The message begins ``TENANTDENIED`` (see above)."""


class QuotaExceededError(TenancyError):
    """A tenant exhausted one of its quotas -- the ops/s token bucket,
    the key-count cap, or the byte budget.  The message begins
    ``QUOTAEXCEEDED`` so clients (and the open-loop driver) can tell a
    throttle from a genuine failure."""


# ---------------------------------------------------------------------------
# GDPR layer
# ---------------------------------------------------------------------------


class GDPRError(ReproError):
    """Base class for GDPR-layer errors."""


class AccessDeniedError(GDPRError):
    """The ACL engine denied the operation (GDPR Art. 25/32)."""


class PurposeViolationError(GDPRError):
    """The requested processing purpose is not whitelisted, or is
    blacklisted, for the record (GDPR Art. 5.1, Art. 21)."""


class LocationViolationError(GDPRError):
    """The record may not be placed in the requested region (Art. 46)."""


class UnknownSubjectError(GDPRError, KeyError):
    """No records exist for the referenced data subject."""


class AuditError(GDPRError):
    """The audit log rejected a record or failed verification."""
