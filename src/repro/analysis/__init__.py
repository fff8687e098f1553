"""Evaluation harness: metrics, per-prefix orchestration, experiments.

``experiments`` holds one driver per paper table/figure (see DESIGN.md
§4 for the index); ``metrics`` the shared aggregations; ``traintest``
the §7.1 methodology; ``grouping`` the per-routed-prefix 6Gen runs.
"""

from .grouping import (
    MultiPrefixRun,
    PrefixRun,
    seed_proportional_budget,
    static_budget,
)
from .metrics import (
    SEED_BUCKETS,
    AsShare,
    ClusterCensus,
    asn_cdf,
    bucket_prefixes_by_seed_count,
    cdf,
    cluster_census,
    dynamic_nybble_histogram,
    hits_per_prefix,
    quantiles,
    top_ases,
)
from .report import scan_report
from .svgplot import Plot, Series, render_svg, save_svg
from .traintest import (
    TrainTestPoint,
    entropyip_generator,
    inverse_kfold,
    sixgen_generator,
    split_folds,
    train_and_test,
)

__all__ = [
    "AsShare",
    "ClusterCensus",
    "MultiPrefixRun",
    "Plot",
    "Series",
    "PrefixRun",
    "SEED_BUCKETS",
    "TrainTestPoint",
    "asn_cdf",
    "bucket_prefixes_by_seed_count",
    "cdf",
    "cluster_census",
    "dynamic_nybble_histogram",
    "entropyip_generator",
    "hits_per_prefix",
    "inverse_kfold",
    "quantiles",
    "render_svg",
    "save_svg",
    "scan_report",
    "seed_proportional_budget",
    "sixgen_generator",
    "split_folds",
    "static_budget",
    "top_ases",
    "train_and_test",
]
