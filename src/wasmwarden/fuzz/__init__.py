"""Coverage-guided fuzzing: bitmap, mutators, campaign engine."""

from .bitmap import NEW_BUCKET, NEW_EDGE, NO_NEW, VirginMap, classify_counts
from .engine import (
    AllSeedsInvalid,
    CampaignStats,
    CrashReport,
    FuzzConfig,
    Fuzzer,
    QueueEntry,
    SeedCrashes,
)

__all__ = [
    "NEW_BUCKET",
    "NEW_EDGE",
    "NO_NEW",
    "VirginMap",
    "classify_counts",
    "AllSeedsInvalid",
    "CampaignStats",
    "CrashReport",
    "FuzzConfig",
    "Fuzzer",
    "QueueEntry",
    "SeedCrashes",
]
