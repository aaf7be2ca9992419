"""The relational (PostgreSQL-style) storage engine.

The paper's second system under test, behind the same
:class:`~repro.engine.base.StorageEngine` interface as the Redis-like
store: ordered heap with B-tree access paths, prepared-statement plan
cache, WAL durability on the device layer, GDPR metadata as indexed
columns, and a vacuum-style retention sweep.  See
:mod:`repro.sqlstore.engine`.
"""

from .engine import RelationalStore, SqlConfig
from .table import Row, Table, btree_depth

__all__ = [
    "RelationalStore",
    "Row",
    "SqlConfig",
    "Table",
    "btree_depth",
]
