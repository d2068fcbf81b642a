"""Geometric KV-cache compression toolkit.

Scorers that rank cached tokens by key-vector geometry, an eviction engine
with deterministic top-k retention, intrinsic-dimension estimators, seeded
synthetic retrieval scenarios, and a sweep harness that ties them together.
"""

from .attention import (
    AttentionOutput,
    attention,
    attention_weights,
    pearson,
    selection_overlap,
    spearman,
)
from .errors import EstimationError, ValidationError
from .eviction import (
    CompressedCache,
    RetentionSet,
    allocate_head_budgets,
    budget,
    compress_cache,
    retention_from_scores,
    topk_select,
)
from .experiments import (
    DEFAULT_SEEDS,
    RetentionResult,
    TTestResult,
    compare_methods,
    dilution_sweep,
    paired_ttest,
    retention_rate,
    run_retention,
    separation_test,
    window_ablation,
)
from .manifold import (
    DimensionReport,
    estimate_dimensions,
    pca_effective_dim,
    twonn_dim,
)
from .report import TOOL_VERSION as __version__
from .report import Report, config_hash
from .scorers import (
    METHODS,
    ScorerSpec,
    centroid,
    compute_scores,
    hybrid_score,
    keydiff_score,
    knorm_score,
    l2_from_anchor,
    lp_score,
    manifold_score,
    normalized_manifold_score,
    obs_attention_score,
    windowed_manifold_score,
)
from .synth import (
    SCENARIO_KINDS,
    Scenario,
    gen_cluster_mixture,
    gen_collision_scenario,
    gen_queries,
    gen_radial_failure,
    gen_subspace_scenario,
    load_sidecar,
    regenerate,
    save_sidecar,
)
from .tensor import KeyTensor, ScoreTensor, load_kvt, save_kvt
