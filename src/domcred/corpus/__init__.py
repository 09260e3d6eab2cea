"""Archive data model, IO, cleansing, timeline partitioning, and synthesis.

Names resolve on first use (PEP 562), so reading the archive never imports
the numpy-based generator.
"""

import importlib

# `cleanse` names both a submodule and its function, and importing the
# submodule binds the module to this package's attribute; binding the function
# here, after that import, keeps `domcred.corpus.cleanse` the function
from .cleanse import CleanseReport, cleanse

# re-exported name -> submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "archive": (
            "ArchiveFormatError",
            "LoadReport",
            "dataset_to_lines",
            "load_dataset",
            "load_labels",
            "save_dataset",
            "save_labels",
        ),
        "cleanse": ("CleanseReport", "cleanse"),
        "periods": ("GRANULARITIES", "PartitionReport", "PeriodSpec", "partition_periods"),
        "synth": (
            "INFLUENCER_LEVEL",
            "ORDINARY_LEVEL",
            "EngagementLevel",
            "SynthConfig",
            "synthesize",
        ),
        "types": (
            "INFLUENCER",
            "LABELS",
            "NON_INFLUENCER",
            "Dataset",
            "GroundTruthLabels",
            "PeriodSlice",
            "ReplyRecord",
            "TweetRecord",
            "UserProfile",
            "format_timestamp",
            "parse_timestamp",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({"archive", "cleanse", "periods", "synth", "types"})

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
