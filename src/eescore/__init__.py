"""Deterministic evaluation toolkit for event extraction.

Makes preprocessing variants explicit and auditable, standardizes
heterogeneous model outputs onto a single candidate-based output space,
and computes ED/EAE metrics under both gold-trigger and pipeline
protocols.
"""

from .core import (
    NIL_LABEL,
    Anchor,
    Argument,
    Corpus,
    Document,
    EntityMention,
    EventAnnotation,
    Span,
    TriggerContext,
    span_contains,
    validate_document,
)
from .errors import (
    ConfigError,
    ContextError,
    ParseError,
    StoreError,
    ToolkitError,
    ValidationError,
)
from .ingest import (
    PARADIGMS,
    ParadigmPredictions,
    load_corpus,
    load_predictions,
    parse_corpus,
    parse_predictions,
    serialize_corpus,
)
from .metrics import (
    ConfusionCounts,
    EvalReport,
    prf,
)
from .pipeline import (
    Protocol,
    TriggerStore,
    corpus_fingerprint,
    evaluate,
)
from .standardize import (
    CandidatePolicy,
    StandardizeOptions,
    decode_bio,
    native_predictions,
    position_cg,
    standardize_predictions,
)
from .variants import (
    DatasetStats,
    VariantConfig,
    apply_variant,
    compute_stats,
    load_variant_config,
)

__version__ = "0.1.0"
