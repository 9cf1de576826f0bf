"""Exact enumeration and counting of sweep-covers on rooted directed trees."""

from .counting import (
    catalan,
    count_nonsingleton,
    growth_report,
    p_count,
    p_table,
    raney,
    raney_bound_report,
    series_coefficients,
)
from .cover import (
    CoverReport,
    canonical_blocks,
    canonical_rows,
    cover_from_json,
    embedding_tree,
    induced_subgraphs,
    make_cover,
    max_cover_size,
    swap_children,
    validate,
)
from .enumeration import (
    all_sweep_covers,
    brute_force_covers,
    compositions,
    find_sweep_covers,
    nonsingleton_partitions,
    set_partitions,
)
from .tree import (
    IldSpec,
    Tree,
    build_ild_truncated,
    canonical_code,
    parse_tree,
    serialize_tree,
)

__all__ = [
    "IldSpec",
    "Tree",
    "CoverReport",
    "all_sweep_covers",
    "brute_force_covers",
    "build_ild_truncated",
    "canonical_blocks",
    "canonical_rows",
    "canonical_code",
    "catalan",
    "compositions",
    "count_nonsingleton",
    "cover_from_json",
    "embedding_tree",
    "find_sweep_covers",
    "growth_report",
    "induced_subgraphs",
    "make_cover",
    "max_cover_size",
    "nonsingleton_partitions",
    "p_count",
    "p_table",
    "parse_tree",
    "raney",
    "raney_bound_report",
    "serialize_tree",
    "series_coefficients",
    "set_partitions",
    "swap_children",
    "validate",
]

__version__ = "0.1.0"
