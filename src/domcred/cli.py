"""Command-line front end: ingest, annotate, features, benchmark, synth, verify.

Every command is deterministic given its inputs, config, and seed, and no
command mutates its input files; `features` reads the annotations that
`annotate` wrote beside the dataset.  Exit codes: 0 success, 1 validation
or verification failure, 2 usage error.
"""

from __future__ import annotations

import os

# The learners multiply matrices of at most a few thousand rows by 50
# columns, where waking a BLAS worker thread costs more than it saves; set
# before anything loads numpy, and a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .corpus.archive import (
    ArchiveFormatError,
    json_value,
    load_dataset,
    load_labels,
    read_json,
    save_dataset,
    save_labels,
    write_json,
)
from .corpus.periods import GRANULARITIES, PeriodSpec, partition_periods
from .corpus.types import format_timestamp, parse_timestamp

# synth, evaluate, learn and verify load numpy: each command that needs them
# imports them itself, so `ingest`, `annotate` and `features` never pay for
# it; annotate, lexicon and cleanse are imported by the commands that run them
if TYPE_CHECKING:
    from .learn.base import ModelSpec

_GLOBAL_DEFAULTS = {"seed": 0, "output_dir": "."}
# one config file serves every command, so each accepts every stage's keys
_CONFIG_KEYS = (
    "seed", "output_dir", "domain", "n_periods", "granularity", "top_k",
    "train_fraction", "stratified", "annotator", "models", "synth",
)
_ANNOTATOR_KEYS = (
    "kind", "url", "token_env", "timeout",
    "domain_lexicon", "sentiment_lexicon", "gain", "min_hits",
)
# the synth section's flag-backed keys; domains and the two levels are read apart
_SYNTH_SCALARS = (
    "n_users", "influencer_fraction", "target_domain", "off_domain_rate", "blend_rate",
    "non_english_rate", "retweet_rate", "n_periods", "period_days", "start",
)
_SYNTH_KEYS = _SYNTH_SCALARS + ("domains", "influencer", "ordinary")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    payload = read_json(path, "config")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    return _section(payload, None, _CONFIG_KEYS)


def _resolve(args, config: dict, key: str, default, kind: type | None = None):
    """Command line wins, then the config file, then the built-in default.

    With a kind, a config value must be a JSON value of that kind:
    ``true`` is not an integer and ``"false"`` is not a boolean.
    """
    value = getattr(args, key, None)
    if value is not None:
        return value
    if kind is not None and key in config:
        return json_value(config[key], kind, f"config {key}")
    return config.get(key, default)


def _section(value, name: str | None, valid=None) -> dict:
    """A config section (the whole file when name is None): a JSON object,
    holding only the keys in valid when given."""
    if not isinstance(value, dict):
        raise ValueError(f"config {name} must be a JSON object")
    unknown = sorted(set(value) - set(valid)) if valid is not None else []
    if unknown:
        where = f"config {name}" if name else "config"
        raise ValueError(
            f"unknown {where} key(s) {', '.join(unknown)}; valid keys: {', '.join(valid)}"
        )
    return value


def _add_global_options(parser: argparse.ArgumentParser, root: bool = False) -> None:
    # the same flags parse before or after the subcommand; SUPPRESS keeps a
    # subcommand-level default from shadowing a value given at the root
    d = None if root else argparse.SUPPRESS
    parser.add_argument("--seed", type=int, default=d, help="random seed (default 0)")
    parser.add_argument("--output-dir", default=d, help="directory for output files")
    parser.add_argument("--config", default=d, help="JSON config file; flags override it")


def _build_annotator(args, config: dict):
    from .annotate import LexiconAnnotator, RemoteAnnotator
    from .lexicon import load_domain_lexicon, load_sentiment_lexicon

    section = _section(config.get("annotator", {}), "annotator", _ANNOTATOR_KEYS)
    kind = _resolve(args, section, "kind", "lexicon", str)
    if kind == "remote":
        url = _resolve(args, section, "url", None, str)
        if not url:
            raise ValueError("remote annotator needs --annotator-url or config annotator.url")
        timeout = _resolve(args, section, "timeout", 10.0, float)
        if not timeout > 0:
            raise ValueError(
                f"config timeout must be a finite number greater than 0, got {timeout!r}"
            )
        token_env = _resolve(args, section, "token_env", "", str)
        return RemoteAnnotator(url, token_env=token_env, timeout=timeout)
    if kind != "lexicon":
        raise ValueError(f"unknown annotator kind {kind!r}")
    domain_path = _resolve(args, section, "domain_lexicon", None, str)
    sentiment_path = _resolve(args, section, "sentiment_lexicon", None, str)
    return LexiconAnnotator(
        domain_lexicon=load_domain_lexicon(domain_path) if domain_path else None,
        sentiment_lexicon=load_sentiment_lexicon(sentiment_path) if sentiment_path else None,
        gain=float(_resolve(args, section, "gain", 1.0, float)),
        min_hits=_resolve(args, section, "min_hits", 2, int),
    )


def cmd_ingest(args, config, out_dir: Path, seed: int) -> int:
    from .corpus.cleanse import cleanse

    if args.max_friends is not None and args.max_friends < 1:
        raise ValueError(f"--max-friends must be at least 1, got {args.max_friends}")
    capture = parse_timestamp(args.capture_at) if args.capture_at else None
    try:
        columns, load_report = load_dataset(
            args.archive,
            fail_fast=args.fail_fast,
            capture_at=capture,
            max_friends=args.max_friends,
        )
    except ValueError as exc:  # a malformed line, a repeated id, a capture past year 9999
        raise ValueError(f"{args.archive}: {exc}") from exc
    cleansed, cleanse_report = cleanse(
        columns, keep_missing_language=args.keep_missing_language
    )
    dataset_path = out_dir / "dataset.jsonl"
    save_dataset(cleansed, dataset_path)
    counts = {
        "users": len(cleansed.user_ids),
        "tweets": len(cleansed.tweet_ids),
        "replies": len(cleansed.reply_ids),
    }
    write_json(
        out_dir / "ingest_report.json",
        {
            "source": str(args.archive),
            "load": load_report.to_dict(),
            "cleanse": asdict(cleanse_report),
            "counts": counts,
        },
    )
    print(f"wrote {dataset_path}")
    print(", ".join(f"{n} {kind}" for kind, n in counts.items()) + " after cleansing")
    return 0


def _load_canonical(path: str):
    """The columns of the dataset `ingest` wrote, which loads whole."""
    rerun = "; write it again with `domcred ingest`"
    try:
        columns, report = load_dataset(path, fail_fast=True)
    except ArchiveFormatError as exc:
        raise ValueError(f"{path}: {exc}{rerun}") from exc
    except ValueError as exc:  # a repeated id
        raise ValueError(f"{path}: {exc}") from exc
    dropped = {k: v for k, v in asdict(report).items() if v}
    if dropped:
        counts = ", ".join(f"{k} {v}" for k, v in dropped.items())
        raise ValueError(f"{path}: not a canonical dataset ({counts}){rerun}")
    return columns


def cmd_annotate(args, config, out_dir: Path, seed: int) -> int:
    from .annotate import annotate_dataset, save_annotations

    columns = _load_canonical(args.dataset)
    annotator = _build_annotator(args, config)
    annotations, report = annotate_dataset(columns, annotator, fail_fast=args.fail_fast)
    annotations_path = out_dir / "annotations.jsonl"
    save_annotations(annotations, annotations_path)
    write_json(out_dir / "annotate_report.json", report.to_dict())
    print(f"wrote {annotations_path}")
    print(f"{report.n_annotatable}/{report.n_tweets} tweets annotatable")
    return 0


def _top_k_section(title: str, scaled: dict, top_k: int) -> list[str]:
    lines = [f"  {title}:"]
    ranked = sorted(scaled.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    for rank, (user, value) in enumerate(ranked, 1):
        lines.append(f"    {rank}. {user}  {value:.3f}")
    return lines


def _render_period_report(domain: str, slices, cells, top_k: int) -> str:
    from .features import RANKINGS

    # the domain's cells by period, users in cell order, grouped in one pass
    by_period: dict[int, dict] = {}
    for (user, d, period), f in cells.items():
        if d == domain:
            by_period.setdefault(period, {})[user] = f
    lines = [f"domain: {domain}", ""]
    for sl in slices:
        lines.append(
            f"period {sl.index} [{format_timestamp(sl.start)} .. {format_timestamp(sl.end)})"
        )
        in_domain = by_period.get(sl.index)
        if not in_domain:
            lines.append("  (no activity)")
            lines.append("")
            continue
        for title, measure, scale in RANKINGS:
            scaled = scale({u: getattr(f, measure) for u, f in in_domain.items()})
            lines.extend(_top_k_section(title, scaled, top_k))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _read_annotations(dataset_path: str, columns):
    """The annotations `annotate` wrote beside the dataset, checked id for id
    against its columns."""
    from .annotate import load_annotation_columns

    path = Path(dataset_path).parent / "annotations.jsonl"
    if not path.is_file():
        raise ValueError(
            f"no annotations at {path}; write them first with "
            f"`domcred annotate {dataset_path} --output-dir {path.parent}`"
        )
    annotations = load_annotation_columns(path)
    for kind, got, want in (
        ("tweet", annotations.tweet_ids, columns.tweet_ids),
        ("reply", annotations.reply_ids, columns.reply_ids),
    ):
        if got != want:
            raise ValueError(
                f"annotations do not match {dataset_path}: {path} has {len(got)} {kind} ids, "
                f"the dataset {len(want)} ({_parting(got, want)}); run `domcred annotate` again"
            )
    return annotations


def _parting(got: tuple, want: tuple) -> str:
    """Where two unequal id lists part: the ids that only one holds, else the
    first position whose ids differ or that only the longer list reaches."""
    only = sorted(set(got) ^ set(want))
    if only:
        return f"e.g. {only[:3]}"
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"they part at position {at + 1}, {(got if at < len(got) else want)[at]!r}"


def cmd_features(args, config, out_dir: Path, seed: int) -> int:
    from .features import (
        POOLED,
        accumulate_domain_features,
        assemble_matrix,
        compute_global_features,
        save_matrix,
    )

    columns = _load_canonical(args.dataset)
    annotations = _read_annotations(args.dataset, columns)
    known_domains = sorted({d.label for ds in set(annotations.merged_domains) for d in ds})
    if not known_domains:
        raise ValueError(
            f"no annotated tweet carries a domain ({args.dataset} holds"
            f" {len(columns.tweet_ids)} tweets); there is no domain to analyze"
        )
    domain = _resolve(args, config, "domain", None, str)
    if domain is None:
        domain = known_domains[0]
    labels = load_labels(args.labels) if args.labels else None
    if labels is not None:
        if labels.domain != domain:
            raise ValueError(f"labels file is for domain {labels.domain!r}, not {domain!r}")
        labels.validate_against(columns)
    if domain not in known_domains:
        raise ValueError(f"unknown domain {domain!r}; annotations carry {known_domains}")

    top_k = _resolve(args, config, "top_k", 5, int)
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    spec = PeriodSpec(
        n_periods=_resolve(args, config, "n_periods", None, int),
        start=parse_timestamp(args.start) if args.start else None,
        granularity=_resolve(args, config, "granularity", "month"),
    )
    slices, partition_report, placement = partition_periods(columns, spec)
    domain_features = accumulate_domain_features(columns, annotations, placement)
    global_features = compute_global_features(columns)
    matrix = assemble_matrix(domain, POOLED, domain_features, global_features, labels=labels)
    matrix_path = out_dir / "features.csv"
    save_matrix(matrix, matrix_path)

    report_text = _render_period_report(domain, slices, domain_features, top_k)
    report_path = out_dir / "features_report.txt"
    report_path.write_text(report_text, encoding="utf-8")
    write_json(
        out_dir / "features_report.json",
        {
            "domain": domain,
            "rows": matrix.n_rows,
            "periods": asdict(partition_report),
        },
    )
    print(f"wrote {matrix_path} ({matrix.n_rows} rows)")
    print(f"wrote {report_path}")
    return 0


def _model_specs(config: dict, seed: int) -> tuple[ModelSpec, ...]:
    from .evaluate import default_specs
    from .learn.base import ALGORITHMS, ModelSpec

    base = {s.algorithm: s for s in default_specs(seed)}
    for algorithm, overrides in _section(config.get("models", {}), "models").items():
        if algorithm not in base:
            raise ValueError(f"unknown algorithm {algorithm!r} in config")
        hyper = dict(_section(overrides, f"models.{algorithm}"))
        model_seed = json_value(
            hyper.pop("seed", base[algorithm].seed), int, f"config models.{algorithm}.seed"
        )
        try:
            base[algorithm] = ModelSpec(
                algorithm=algorithm, hyperparameters=hyper, seed=model_seed
            )
        except ValueError as exc:
            # ModelSpec names the key as algorithm.key
            raise ValueError(f"config models.{exc}") from exc
    return tuple(base[a] for a in ALGORITHMS)


def cmd_benchmark(args, config, out_dir: Path, seed: int) -> int:
    from .evaluate import SplitSpec, benchmark, render_table
    from .features import load_matrix

    matrix = load_matrix(args.matrix)
    if matrix.labels is not None and args.labels:
        raise ValueError(
            f"{args.matrix}: matrix already carries a label column; --labels is only"
            " for unlabeled matrices"
        )
    if matrix.labels is None:
        if not args.labels:
            raise ValueError(
                "matrix has no label column; pass --labels FILE with ground truth"
            )
        labels = load_labels(args.labels)
        if labels.domain != matrix.domain:
            raise ValueError(
                f"labels file is for domain {labels.domain!r}, not {matrix.domain!r}"
            )
        missing = [u for u in matrix.user_ids if u not in labels.labels]
        if missing:
            raise ValueError(
                f"labels file missing {len(missing)} matrix users (e.g. {missing[:3]})"
            )
        matrix = replace(matrix, labels=tuple(labels.labels[u] for u in matrix.user_ids))
    split_spec = SplitSpec(
        train_fraction=float(_resolve(args, config, "train_fraction", 0.6, float)),
        seed=seed,
        stratified=not args.no_stratify and _resolve(args, config, "stratified", True, bool),
    )
    report = benchmark(matrix, split_spec, specs=_model_specs(config, seed))

    report_path = out_dir / "benchmark_report.json"
    write_json(report_path, report.to_dict())
    table_path = out_dir / "benchmark_table.txt"
    table = render_table(report)
    table_path.write_text(table, encoding="utf-8")
    # timings are the one run-dependent output, kept out of the report files
    write_json(out_dir / "benchmark_timings.json", {"wall_time_seconds": report.timings()})
    sys.stdout.write(table)
    print(f"wrote {report_path}")
    return 0


def _overlay_level(base, name: str, section):
    """Lay a config section over a default EngagementLevel, field by field."""
    _section(section, f"synth.{name}", [f.name for f in fields(base)])
    overrides = {k: tuple(v) if isinstance(v, list) else v for k, v in section.items()}
    try:
        return replace(base, **overrides)
    except ValueError as exc:
        raise ValueError(f"synth.{name}: {exc}") from exc


def cmd_synth(args, config, out_dir: Path, seed: int) -> int:
    from .corpus.synth import INFLUENCER_LEVEL, ORDINARY_LEVEL, SynthConfig, synthesize

    section = _section(config.get("synth", {}), "synth", _SYNTH_KEYS)
    kwargs = {}
    for key in _SYNTH_SCALARS:
        value = _resolve(args, section, key, None)
        if value is not None:
            kwargs[key] = value
    if args.domains:
        kwargs["domains"] = tuple(args.domains)
    elif "domains" in section:
        domains = section["domains"]
        if not (isinstance(domains, list) and all(isinstance(d, str) for d in domains)):
            raise ValueError(
                f"config synth.domains must be a JSON list of domain names, got {domains!r}"
            )
        kwargs["domains"] = tuple(domains)
    for level, base in (("influencer", INFLUENCER_LEVEL), ("ordinary", ORDINARY_LEVEL)):
        if level in section:
            kwargs[level] = _overlay_level(base, level, section[level])
    synth_config = SynthConfig(**kwargs)

    columns, labels = synthesize(synth_config, seed)
    archive_path = out_dir / "synth_archive.jsonl"
    labels_path = out_dir / "synth_labels.json"
    save_dataset(columns, archive_path)
    save_labels(labels, labels_path)
    n_influencers = sum(1 for v in labels.labels.values() if v == "Influencer")
    print(f"wrote {archive_path}")
    print(f"wrote {labels_path}")
    print(
        f"{len(columns.user_ids)} users ({n_influencers} influencers), "
        f"{len(columns.tweet_ids)} tweets, {len(columns.reply_ids)} replies"
    )
    return 0


def cmd_verify(args, config, out_dir: Path, seed: int) -> int:
    from .verify import FIXTURES, report_fixtures

    if args.list:
        for name, (description, _) in FIXTURES.items():
            print(f"{name}: {description}")
        return 0
    ok = report_fixtures(sys.stdout, names=args.fixtures or None)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domcred",
        description="Domain-based credibility features and influencer classification.",
    )
    _add_global_options(parser, root=True)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="parse an archive, cleanse it, write a canonical dataset")
    _add_global_options(p)
    p.add_argument("archive", help="archive-lines input file")
    p.add_argument("--fail-fast", action="store_true", help="stop on the first malformed line")
    p.add_argument(
        "--keep-missing-language",
        action="store_true",
        help="treat tweets without a language tag as English",
    )
    p.add_argument(
        "--max-friends", type=int, default=None, help="drop users at or above this (at least 1)"
    )
    p.add_argument("--capture-at", default=None, help="capture timestamp override (RFC 3339)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="infer domains and reply sentiment for a dataset")
    _add_global_options(p)
    # the dests are the annotator config keys each flag overrides
    p.add_argument(
        "--annotator",
        choices=("lexicon", "remote"),
        default=None,
        dest="kind",
        help="provider kind",
    )
    p.add_argument("--annotator-url", default=None, dest="url", help="remote provider endpoint")
    p.add_argument(
        "--annotator-token-env",
        default=None,
        dest="token_env",
        help="environment variable holding the remote auth token",
    )
    p.add_argument("--domain-lexicon", default=None, help="domain lexicon file")
    p.add_argument("--sentiment-lexicon", default=None, help="sentiment lexicon file")
    p.add_argument("--gain", type=float, default=None, help="sentiment gain factor")
    p.add_argument("--min-hits", type=int, default=None, help="hits needed for a confident domain")
    p.add_argument("dataset", help="canonical dataset file")
    p.add_argument("--fail-fast", action="store_true", help="stop on the first provider failure")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("features", help="compute the feature matrix and per-period rankings")
    _add_global_options(p)
    p.add_argument("dataset", help="canonical dataset file, with annotations.jsonl beside it")
    p.add_argument("--domain", default=None, help="domain to analyze")
    p.add_argument(
        "--n-periods",
        type=int,
        default=None,
        help="number of periods (default: just enough to reach the last record)",
    )
    p.add_argument("--granularity", choices=GRANULARITIES, default=None)
    p.add_argument("--start", default=None, help="period range start (RFC 3339)")
    p.add_argument(
        "--top-k", type=int, default=None, help="rows per ranking, at least 1 (default 5)"
    )
    p.add_argument("--labels", default=None, help="labels file to attach to the matrix")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("benchmark", help="train and evaluate all seven classifiers")
    _add_global_options(p)
    p.add_argument("matrix", help="feature matrix CSV")
    p.add_argument("--labels", default=None, help="labels file when the matrix has none")
    p.add_argument("--train-fraction", type=float, default=None, dest="train_fraction")
    p.add_argument("--no-stratify", action="store_true", help="split without stratification")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("synth", help="generate a synthetic archive with planted influencers")
    _add_global_options(p)
    p.add_argument("--n-users", type=int, default=None, dest="n_users")
    p.add_argument(
        "--influencer-fraction", type=float, default=None, dest="influencer_fraction"
    )
    p.add_argument("--domains", nargs="+", default=None, help="domains to draw topics from")
    p.add_argument("--target-domain", default=None, dest="target_domain")
    p.add_argument("--n-periods", type=int, default=None, dest="n_periods")
    p.add_argument("--period-days", type=int, default=None, dest="period_days")
    p.add_argument("--start", default=None, help="first period start (RFC 3339)")
    p.add_argument("--off-domain-rate", type=float, default=None, dest="off_domain_rate")
    p.add_argument("--blend-rate", type=float, default=None, dest="blend_rate")
    p.add_argument("--non-english-rate", type=float, default=None, dest="non_english_rate")
    p.add_argument("--retweet-rate", type=float, default=None, dest="retweet_rate")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="run the built-in numeric fixtures")
    _add_global_options(p)
    p.add_argument("fixtures", nargs="*", help="fixture names (default: all)")
    p.add_argument("--list", action="store_true", help="list fixtures without running")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        config = _load_config(args.config)
        seed = _resolve(args, config, "seed", _GLOBAL_DEFAULTS["seed"], int)
        out_dir = Path(_resolve(args, config, "output_dir", _GLOBAL_DEFAULTS["output_dir"], str))
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, config, out_dir, seed=seed)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


__all__ = ["build_parser", "main", "entrypoint"]


if __name__ == "__main__":
    entrypoint()
