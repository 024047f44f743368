"""Streaming continual test-time adaptation with dual prompt pools.

A frozen linear source model is adapted online to a stream of unlabeled,
domain-shifting batches by learning additive input prompts. Per batch, prompts
are retrieved from (or fissioned into) a class pool keyed by pseudo-labels and
a domain pool keyed by batch feature statistics, optimized against an
alignment-plus-entropy objective, and fused back under capacity limits.
"""

from .fusion import (
    ClassUpdateRecord,
    DomainUpdateRecord,
    MstClustering,
    PoolVersionError,
    fuse_nearest_pair,
    mst_compact,
    update_class_pool,
    update_domain_pool,
)
from .harness import (
    ClusterLedger,
    Hyperparams,
    LemmaReport,
    RunMetrics,
    RunResult,
    World,
    build_world,
    compute_source_stats,
    gradient_check,
    run_ctta,
    verify_lemmas,
)
from .model import (
    ToyModel,
    fit_source_model,
    forward,
    key_stats,
    load_model,
    make_class_means,
    pseudo_labels,
    save_model,
)
from .numerics import BatchStats, SeededRng, batch_stats, cosine_sim, entropy, euclid, softmax
from .objective import (
    AdamWState,
    LossBreakdown,
    SourceStats,
    adamw_step,
    finite_diff_grad,
    grad,
    loss,
    optimize_prompts,
)
from .pools import (
    ClassPromptPool,
    DomainPromptPool,
    FissionOutcome,
    fission_class,
    fission_class_batch,
    fission_domain,
)
from .stream import (
    DomainSpec,
    LabeledBatch,
    SeparationCertificate,
    StreamConfig,
    StreamParseError,
    generate_stream,
    make_separated,
    read_stream,
    write_stream,
)

__version__ = "0.1.0"
