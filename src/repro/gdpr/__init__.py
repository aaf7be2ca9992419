"""The GDPR compliance layer: the paper's contribution as a library."""

from .access_control import AccessController, Grant, Operation, Principal
from .articles import (
    ALL_FEATURES,
    GDPR_STORAGE_RELATED_ARTICLES,
    GDPR_TOTAL_ARTICLES,
    TABLE1,
    Article,
    StorageFeature,
    articles_for_feature,
    feature_demand,
)
from .audit import AuditDurability, AuditLog, AuditRecord
from .breach import NOTIFICATION_DEADLINE_SECONDS, BreachNotifier, BreachReport
from .compliance import (
    ArticleVerdict,
    Capability,
    ComplianceAssessment,
    FeatureProfile,
    FeatureSupport,
    ResponseTime,
    assess,
    gdpr_store_profile,
    redis_baseline_profile,
    render_table1,
)
from .indexing import MetadataIndex
from .location import BUILTIN_REGIONS, LocationManager, Region
from .backup import Backup, BackupManager, ReconciliationReport
from .metadata import GDPRMetadata, Record, pack_envelope, unpack_envelope
from .rights import (
    AccessReport,
    ErasureReceipt,
    right_of_access,
    right_to_erasure,
    right_to_object,
    right_to_portability,
    transfer_subject,
)
from .store import CONTROLLER, GDPRConfig, GDPRStore

__all__ = [
    "GDPRStore",
    "GDPRConfig",
    "GDPRMetadata",
    "Record",
    "pack_envelope",
    "unpack_envelope",
    "CONTROLLER",
    "Principal",
    "Operation",
    "Grant",
    "AccessController",
    "AuditLog",
    "AuditRecord",
    "AuditDurability",
    "MetadataIndex",
    "Backup",
    "BackupManager",
    "ReconciliationReport",
    "LocationManager",
    "Region",
    "BUILTIN_REGIONS",
    "BreachNotifier",
    "BreachReport",
    "NOTIFICATION_DEADLINE_SECONDS",
    "right_of_access",
    "right_to_erasure",
    "right_to_portability",
    "right_to_object",
    "transfer_subject",
    "AccessReport",
    "ErasureReceipt",
    "StorageFeature",
    "Article",
    "TABLE1",
    "ALL_FEATURES",
    "GDPR_TOTAL_ARTICLES",
    "GDPR_STORAGE_RELATED_ARTICLES",
    "articles_for_feature",
    "feature_demand",
    "Capability",
    "ResponseTime",
    "FeatureSupport",
    "FeatureProfile",
    "ArticleVerdict",
    "ComplianceAssessment",
    "assess",
    "redis_baseline_profile",
    "gdpr_store_profile",
    "render_table1",
]
