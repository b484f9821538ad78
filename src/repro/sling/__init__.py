"""SLING: the paper's primary contribution — a near-optimal SimRank index."""

from .walks import SqrtCWalker
from .sampling import (
    BernoulliEstimate,
    estimate_bernoulli_mean_adaptive,
    estimate_bernoulli_mean_fixed,
)
from .correction import (
    CorrectionEstimate,
    estimate_all_correction_factors,
    estimate_correction_factor,
    exact_correction_factors,
)
from .hitting import (
    HittingRecords,
    build_hitting_sets,
    concatenated_ranges,
    exact_near_hops,
    neighborhood_weight,
    push_frontier,
    reverse_push,
)
from .packed import (
    PackedHittingStore,
    QueryView,
    intersect_views,
    pack_keys,
)
from .single_source import (
    BoundedTopK,
    bounded_top_k,
    single_source_cascade,
    single_source_local_push,
)
from .parameters import SlingParameters, theorem1_error_bound
from .optimizations import AccuracyEnhancer, SpaceReduction
from .index import BuildStatistics, SlingIndex
from .dynamic import DynamicSlingIndex, MutationReport
from .storage import (
    OutOfCoreBuildReport,
    has_saved_index,
    load_index,
    out_of_core_build,
    save_index,
)

__all__ = [
    "SqrtCWalker",
    "BernoulliEstimate",
    "estimate_bernoulli_mean_adaptive",
    "estimate_bernoulli_mean_fixed",
    "CorrectionEstimate",
    "estimate_all_correction_factors",
    "estimate_correction_factor",
    "exact_correction_factors",
    "HittingRecords",
    "build_hitting_sets",
    "concatenated_ranges",
    "exact_near_hops",
    "neighborhood_weight",
    "push_frontier",
    "reverse_push",
    "PackedHittingStore",
    "QueryView",
    "intersect_views",
    "pack_keys",
    "BoundedTopK",
    "bounded_top_k",
    "single_source_cascade",
    "single_source_local_push",
    "SlingParameters",
    "theorem1_error_bound",
    "AccuracyEnhancer",
    "SpaceReduction",
    "BuildStatistics",
    "SlingIndex",
    "DynamicSlingIndex",
    "MutationReport",
    "OutOfCoreBuildReport",
    "has_saved_index",
    "load_index",
    "out_of_core_build",
    "save_index",
]
