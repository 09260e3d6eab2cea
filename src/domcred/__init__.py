"""Time-aware, domain-based credibility features and influencer prediction.

The pipeline: load a tweet archive into a canonical dataset, cleanse it,
annotate tweets with subject domains and replies with sentiment, distribute
each tweet's engagement across its domains in proportion to the annotation
scores, accumulate per-user per-period features, and train classifiers that
predict which users are domain influencers.

Names resolve on first use (PEP 562): ``import domcred`` loads no submodule,
and ``domcred.train`` imports the learners, with numpy, only when it is read.
"""

import importlib

__version__ = "1.0.0"

# re-exported name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "annotate": (
            "AnnotatedReply",
            "AnnotatedTweet",
            "Annotator",
            "AnnotatorError",
            "DomainAnnotation",
            "LexiconAnnotator",
            "RemoteAnnotator",
            "annotate_dataset",
            "merge_domains",
        ),
        "corpus.archive": (
            "ArchiveFormatError",
            "LoadReport",
            "load_dataset",
            "load_labels",
            "save_dataset",
            "save_labels",
        ),
        "corpus.cleanse": ("CleanseReport", "cleanse"),
        "corpus.periods": ("PeriodSpec", "partition_periods"),
        "corpus.synth": ("SynthConfig", "synthesize"),
        "corpus.types": (
            "Dataset",
            "GroundTruthLabels",
            "PeriodSlice",
            "ReplyRecord",
            "TweetRecord",
            "UserProfile",
        ),
        "evaluate": (
            "BenchmarkReport",
            "ConfusionTable",
            "MetricsReport",
            "RocCurve",
            "SplitSpec",
            "benchmark",
            "confusion",
            "metrics",
            "roc",
            "split",
        ),
        "features": (
            "FEATURE_COLUMNS",
            "FeatureMatrix",
            "UserDomainFeatures",
            "UserGlobalFeatures",
            "accumulate_domain_features",
            "assemble_matrix",
            "compute_ffr",
            "compute_global_features",
            "distribute",
            "load_matrix",
            "relativeness_weights",
            "save_matrix",
        ),
        "learn": (
            "ALGORITHMS",
            "ModelSpec",
            "TrainedModel",
            "TrainingSummary",
            "train",
        ),
        "lexicon": (
            "DomainLexicon",
            "SentimentLexicon",
            "builtin_domain_lexicon",
            "builtin_sentiment_lexicon",
        ),
    }.items()
    for name in names
}
# the submodules an eager `import domcred` used to leave reachable as attributes
_SUBMODULES = frozenset({"annotate", "corpus", "evaluate", "features", "learn", "lexicon"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
