"""A Redis-like key-value store: the substrate the paper retrofits.

Public surface::

    store = KeyValueStore(StoreConfig(appendonly=True, appendfsync="always"))
    store.execute("SET", "user:1", "...")
    store.execute("EXPIRE", "user:1", 300)
"""

from ..device.append_log import FsyncPolicy
from .aof import (
    AofWriter,
    contains_key,
    mentioned_keys,
    replay_commands,
)
from .commands import REGISTRY, Session
from .datatypes import ZSet, type_name
from .expiry import (
    FullScanExpiryCycle,
    IndexedExpiryCycle,
    LazyExpiryCycle,
    make_strategy,
)
from .keyspace import Database, RandomAccessSet
from .monitor import MonitorFeed
from .replication import ReplicationLink, ReplicationManager
from .server import (
    BufferedTransport,
    EventConnection,
    EventLoopMixin,
    EventStoreServer,
    RawTransport,
    StoreServer,
    TlsTransport,
)
from .slowlog import Slowlog
from .store import KeyValueStore, StoreConfig

__all__ = [
    "KeyValueStore",
    "StoreConfig",
    "Session",
    "Database",
    "RandomAccessSet",
    "ZSet",
    "type_name",
    "REGISTRY",
    "AofWriter",
    "FsyncPolicy",
    "replay_commands",
    "contains_key",
    "mentioned_keys",
    "LazyExpiryCycle",
    "FullScanExpiryCycle",
    "IndexedExpiryCycle",
    "make_strategy",
    "MonitorFeed",
    "ReplicationManager",
    "ReplicationLink",
    "Slowlog",
    "StoreServer",
    "EventStoreServer",
    "RawTransport",
    "TlsTransport",
    "BufferedTransport",
    "EventLoopMixin",
    "EventConnection",
]
