"""Run one domcred CLI call with timers and counters around each layer.

Usage: python3 bench/tracer.py SPANS_JSON CALL_ID <domcred arguments...>

The wrappers are installed from outside the program: every public function
listed in TIMED replaces the original under each name a loaded ``domcred``
module binds it to, so a call is seen whichever module makes it.  A span is
[name, start, end, parent index, call id]; spans and counters stay in
memory and are written to SPANS_JSON when the call ends.  The program itself
is not changed, and the CLI's exit code is passed through.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# (defining module, function, span name)
TIMED = (
    ("domcred.corpus.synth", "synthesize", "synth.synthesize"),
    ("domcred.corpus.archive", "save_dataset", "archive.save_dataset"),
    ("domcred.corpus.archive", "load_dataset", "archive.load_dataset"),
    ("domcred.corpus.cleanse", "cleanse", "cleanse.cleanse"),
    ("domcred.corpus.periods", "partition_periods", "periods.partition_periods"),
    ("domcred.annotate", "annotate_dataset", "annotate.annotate_dataset"),
    ("domcred.annotate", "save_annotations", "annotate.save_annotations"),
    ("domcred.features", "accumulate_domain_features", "features.accumulate_domain_features"),
    ("domcred.features", "compute_global_features", "features.compute_global_features"),
    ("domcred.features", "assemble_matrix", "features.assemble_matrix"),
    ("domcred.features", "save_matrix", "features.save_matrix"),
    ("domcred.features", "load_matrix", "features.load_matrix"),
    ("domcred.evaluate", "split", "evaluate.split"),
    ("domcred.evaluate", "benchmark", "evaluate.benchmark"),
)
# called too often for a span each: counted only
COUNTED = (("domcred.features", "relativeness_weights", "features.relativeness_weights"),)


class Trace:
    def __init__(self, call_id: str):
        self.call_id = call_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def span(self, name_of, fn):
        """Wrap fn; ``name_of(args)`` gives the span name of one call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.call_id])
            self.count(name + "_calls")
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name + "_calls")
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8")


def _rebind(original, wrapper) -> None:
    """Point every domcred module-level name bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name != "domcred" and not name.startswith("domcred."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(trace: Trace) -> None:
    import importlib

    import domcred  # noqa: F401  (loads every submodule the CLI uses)
    import domcred.cli
    from domcred.annotate import LexiconAnnotator
    from domcred.learn import TrainedModel

    for module, func, name in TIMED:
        original = getattr(importlib.import_module(module), func)
        _rebind(original, trace.span(lambda args, name=name: name, original))
    for module, func, name in COUNTED:
        original = getattr(importlib.import_module(module), func)
        _rebind(original, trace.counter(name, original))

    # evaluate calls train(spec, matrix); the span is named after the algorithm
    import domcred.learn

    original_train = domcred.learn.train
    _rebind(original_train, trace.span(lambda args: f"learn.{args[0].algorithm}.train", original_train))
    for method in ("predict_proba", "classify"):
        original = getattr(TrainedModel, method)
        setattr(
            TrainedModel,
            method,
            trace.span(lambda args: f"learn.{args[0].spec.algorithm}.predict", original),
        )

    class CountingAnnotator(LexiconAnnotator):
        """The lexicon annotator, counting the provider calls it answers."""

        def infer_taxonomy(self, text):
            trace.count("annotate.annotator_calls")
            return super().infer_taxonomy(text)

        def score_sentiment(self, text):
            trace.count("annotate.annotator_calls")
            return super().score_sentiment(text)

    _rebind(LexiconAnnotator, CountingAnnotator)


def main() -> int:
    spans_path, call_id, argv = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    trace = Trace(call_id)
    started = time.perf_counter()
    install(trace)
    trace.spans.append(["cli.import", started, time.perf_counter(), None, call_id])
    import domcred.cli

    try:
        return trace.span(lambda args: "cli.main", domcred.cli.main)(argv)
    finally:
        trace.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
