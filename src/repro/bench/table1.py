"""Table 1 regeneration and compliance-assessment comparisons."""

from __future__ import annotations

from typing import Dict

from ..common.clock import SimClock
from ..gdpr.articles import (
    ALL_FEATURES,
    GDPR_STORAGE_RELATED_ARTICLES,
    GDPR_TOTAL_ARTICLES,
    TABLE1,
    feature_demand,
)
from ..gdpr.audit import AuditDurability
from ..gdpr.compliance import (
    ComplianceAssessment,
    assess,
    gdpr_store_profile,
    redis_baseline_profile,
    render_table1,
)
from ..gdpr.store import GDPRConfig, GDPRStore
from ..kvstore.store import KeyValueStore, StoreConfig
from .reporting import Text


def build_comparison_text() -> str:
    """Table 1 with verdicts for baseline Redis vs the GDPR store."""
    store = strict_gdpr_store()
    return render_table1([redis_baseline_profile(),
                          gdpr_store_profile(store)])


def strict_gdpr_store() -> GDPRStore:
    """A GDPR store configured for strict compliance (all features,
    real-time everywhere)."""
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="always",
                    aof_log_reads=True, expiry_strategy="indexed"),
        clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig(
        encrypt_at_rest=True, audit_durability=AuditDurability.SYNC))


def eventual_gdpr_store() -> GDPRStore:
    """A GDPR store at the eventual end of the spectrum."""
    clock = SimClock()
    kv = KeyValueStore(
        StoreConfig(appendonly=True, appendfsync="everysec",
                    aof_log_reads=True, expiry_strategy="lazy"),
        clock=clock)
    return GDPRStore(kv=kv, config=GDPRConfig(
        encrypt_at_rest=True, audit_durability=AuditDurability.BATCH))


def assessments() -> Dict[str, ComplianceAssessment]:
    return {
        "redis-baseline": assess(redis_baseline_profile()),
        "gdpr-strict": assess(gdpr_store_profile(strict_gdpr_store())),
        "gdpr-eventual": assess(gdpr_store_profile(eventual_gdpr_store())),
    }


def headline_statistics() -> Dict[str, object]:
    """The paper's motivating numbers, derived from the registry."""
    demand = feature_demand()
    return {
        "storage_related_articles": GDPR_STORAGE_RELATED_ARTICLES,
        "total_articles": GDPR_TOTAL_ARTICLES,
        "storage_share": GDPR_STORAGE_RELATED_ARTICLES
        / GDPR_TOTAL_ARTICLES,
        "table1_rows": len(TABLE1),
        "features": len(ALL_FEATURES),
        "most_demanded_feature": max(
            demand, key=lambda f: demand[f]).value,
        "feature_demand": {f.value: n for f, n in demand.items()},
    }


# The paper's motivating number rides under the verdict table.
TABLE1_COMPARISON = Text(
    title="Table 1 -- GDPR articles -> storage features "
          "(+ compliance verdicts)",
    text=build_comparison_text,
    footnote=f"storage-related articles: "
             f"{GDPR_STORAGE_RELATED_ARTICLES}/{GDPR_TOTAL_ARTICLES} "
             f"({GDPR_STORAGE_RELATED_ARTICLES / GDPR_TOTAL_ARTICLES:.1%})",
)

TABLE1_AS_PRINTED = Text(
    title="Table 1 exactly as the paper prints it (no verdict columns):",
    text=render_table1,
)
