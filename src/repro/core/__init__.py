"""6Gen — the paper's target generation algorithm (§5).

Public entry point: :func:`run_6gen` (or the :class:`SixGen` class for
fine-grained control).  Clusters, growth records and budget ledgers are
exposed for analysis code and tests.
"""

from .budget import BudgetExceeded, ExactLedger, RangeSumLedger, make_ledger
from .candidates import SeedMatrix, find_candidates_python
from .cluster import Cluster, Growth
from .sixgen import SixGen, SixGenConfig, SixGenResult, run_6gen

__all__ = [
    "BudgetExceeded",
    "Cluster",
    "ExactLedger",
    "Growth",
    "RangeSumLedger",
    "SeedMatrix",
    "SixGen",
    "SixGenConfig",
    "SixGenResult",
    "find_candidates_python",
    "make_ledger",
    "run_6gen",
]
