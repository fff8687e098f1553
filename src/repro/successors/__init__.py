"""Successor algorithms the paper inspired (§8 directions realised).

Currently: a 6Tree-style space-tree dynamic scanner
(:mod:`repro.successors.sixtree`), benchmarked against 6Gen and the §8
phased feedback campaign in ``benchmarks/bench_successors.py``.
"""

from .sixtree import (
    SixTree,
    SixTreeConfig,
    SixTreeResult,
    SpaceTreeNode,
    build_space_tree,
    leaves,
    run_sixtree,
)

__all__ = [
    "SixTree",
    "SixTreeConfig",
    "SixTreeResult",
    "SpaceTreeNode",
    "build_space_tree",
    "leaves",
    "run_sixtree",
]
