"""The campaign layer: generate→dedupe→permute→probe→retry→checkpoint.

A :class:`Campaign` owns one full scan campaign — per-prefix 6Gen
target generation streaming packed ``(hi, lo)`` columns, scan-side
dedupe and cyclic-permutation ordering, budgeted probing with retry
rounds, crash-safe checkpointing, and §6.2 dealiasing — as composable
stages over the packed column plane.  ``run_full_scan``
(:mod:`repro.analysis`) and the CLI are thin wrappers over this layer;
the multi-tenant scheduler (:mod:`repro.service`) drives the same
stages batch-by-batch.
"""

from .allocation import AllocationPolicy, PrefixProgress
from .generate import generate_per_prefix
from .pipeline import Campaign, CampaignResult, CampaignSpec

__all__ = [
    "AllocationPolicy",
    "Campaign",
    "CampaignResult",
    "CampaignSpec",
    "PrefixProgress",
    "generate_per_prefix",
]
