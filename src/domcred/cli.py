"""Command-line front end: ingest, annotate, features, benchmark, synth, verify.

Every command is deterministic given its inputs, config, and seed, and no
command mutates its input files.  Exit codes: 0 success, 1 validation or
verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .annotate import (
    AnnotatorError,
    LexiconAnnotator,
    RemoteAnnotator,
    annotate_dataset,
    save_annotations,
)
from .corpus.archive import load_dataset, load_labels, save_dataset, save_labels
from .corpus.cleanse import cleanse
from .corpus.periods import GRANULARITIES, PeriodSpec, partition_periods
from .corpus.synth import EngagementLevel, SynthConfig, synthesize
from .corpus.types import format_timestamp, parse_timestamp
from .evaluate import SplitSpec, benchmark, default_specs, render_table
from .features import (
    POOLED,
    accumulate_domain_features,
    assemble_matrix,
    compute_global_features,
    load_matrix,
    normalize_l,
    normalize_p,
    normalize_r,
    normalize_s,
    save_matrix,
)
from .features import FeatureMatrix
from .learn import ALGORITHMS, ModelSpec
from .lexicon import builtin_domain_lexicon, load_domain_lexicon, load_sentiment_lexicon
from .verify import fixture_descriptions, fixture_names, report_fixtures

_GLOBAL_DEFAULTS = {"seed": 0, "output_dir": "."}


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a JSON object")
    return payload


def _resolve(args, config: dict, key: str, default):
    """Command line wins, then the config file, then the built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _add_global_options(parser: argparse.ArgumentParser, root: bool = False) -> None:
    # the same flags parse before or after the subcommand; SUPPRESS keeps a
    # subcommand-level default from shadowing a value given at the root
    d = None if root else argparse.SUPPRESS
    parser.add_argument("--seed", type=int, default=d, help="random seed (default 0)")
    parser.add_argument("--output-dir", default=d, help="directory for output files")
    parser.add_argument("--config", default=d, help="JSON config file; flags override it")


def _add_annotator_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--annotator", choices=("lexicon", "remote"), default=None, help="provider kind"
    )
    parser.add_argument("--annotator-url", default=None, help="remote provider endpoint")
    parser.add_argument(
        "--annotator-token-env",
        default=None,
        help="environment variable holding the remote auth token",
    )
    parser.add_argument("--domain-lexicon", default=None, help="domain lexicon file")
    parser.add_argument("--sentiment-lexicon", default=None, help="sentiment lexicon file")
    parser.add_argument("--gain", type=float, default=None, help="sentiment gain factor")
    parser.add_argument(
        "--min-hits", type=int, default=None, help="hits needed for a confident domain"
    )


def _build_annotator(args, config: dict):
    section = config.get("annotator", {})
    kind = args.annotator or section.get("kind", "lexicon")
    if kind == "remote":
        url = args.annotator_url or section.get("url")
        if not url:
            raise ValueError("remote annotator needs --annotator-url or config annotator.url")
        token_env = args.annotator_token_env or section.get("token_env", "")
        return RemoteAnnotator(url, token_env=token_env, timeout=section.get("timeout", 10.0))
    if kind != "lexicon":
        raise ValueError(f"unknown annotator kind {kind!r}")
    domain_path = args.domain_lexicon or section.get("domain_lexicon")
    sentiment_path = args.sentiment_lexicon or section.get("sentiment_lexicon")
    return LexiconAnnotator(
        domain_lexicon=load_domain_lexicon(domain_path) if domain_path else None,
        sentiment_lexicon=load_sentiment_lexicon(sentiment_path) if sentiment_path else None,
        gain=float(_resolve(args, section, "gain", 1.0)),
        min_hits=int(_resolve(args, section, "min_hits", 2)),
    )


def cmd_ingest(args, config, out_dir: Path, seed: int) -> int:
    capture = parse_timestamp(args.capture_at) if args.capture_at else None
    dataset, load_report = load_dataset(
        args.archive,
        fail_fast=args.fail_fast,
        capture_at=capture,
        max_friends=args.max_friends,
    )
    cleansed, cleanse_report = cleanse(
        dataset, keep_missing_language=args.keep_missing_language
    )
    dataset_path = out_dir / "dataset.jsonl"
    save_dataset(cleansed, dataset_path)
    _write_json(
        out_dir / "ingest_report.json",
        {
            "source": str(args.archive),
            "load": load_report.to_dict(),
            "cleanse": cleanse_report.to_dict(),
            "counts": {
                "users": len(cleansed.users),
                "tweets": len(cleansed.tweets),
                "replies": len(cleansed.replies),
            },
        },
    )
    print(f"wrote {dataset_path}")
    print(
        f"{len(cleansed.users)} users, {len(cleansed.tweets)} tweets, "
        f"{len(cleansed.replies)} replies after cleansing"
    )
    return 0


def cmd_annotate(args, config, out_dir: Path, seed: int) -> int:
    dataset, _ = load_dataset(args.dataset)
    annotator = _build_annotator(args, config)
    tweets, replies, report = annotate_dataset(dataset, annotator, fail_fast=args.fail_fast)
    annotations_path = out_dir / "annotations.jsonl"
    save_annotations(tweets, replies, annotations_path)
    _write_json(out_dir / "annotate_report.json", report.to_dict())
    print(f"wrote {annotations_path}")
    print(f"{report.n_annotatable}/{report.n_tweets} tweets annotatable")
    return 0


def _top_k_section(title: str, scaled: dict, top_k: int) -> list[str]:
    lines = [f"  {title}:"]
    ranked = sorted(scaled.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    for rank, (user, value) in enumerate(ranked, 1):
        lines.append(f"    {rank}. {user}  {value:.3f}")
    return lines


def _render_period_report(
    domain: str, slices, dataset, tweets, replies, top_k: int
) -> str:
    lines = [f"domain: {domain}", ""]
    for sl in slices:
        lines.append(
            f"period {sl.index} [{format_timestamp(sl.start)} .. {format_timestamp(sl.end)})"
        )
        cells = accumulate_domain_features(dataset, tweets, replies, period=sl)
        in_domain = {user: f for (user, d), f in cells.items() if d == domain}
        if not in_domain:
            lines.append("  (no activity)")
            lines.append("")
            continue
        r = {u: f.r for u, f in in_domain.items()}
        likes = {u: f.l for u, f in in_domain.items()}
        p = {u: f.p for u, f in in_domain.items()}
        s = {u: f.s for u, f in in_domain.items()}
        lines.extend(_top_k_section("normalized retweets (R')", normalize_r(r), top_k))
        lines.extend(_top_k_section("normalized favorites (L')", normalize_l(likes), top_k))
        lines.extend(_top_k_section("normalized replies (P')", normalize_p(p), top_k))
        lines.extend(_top_k_section("normalized sentiment (S')", normalize_s(s), top_k))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def cmd_features(args, config, out_dir: Path, seed: int) -> int:
    dataset, _ = load_dataset(args.dataset)
    domain = args.domain or config.get("domain")
    known_domains = None
    if not (args.annotator == "remote" or config.get("annotator", {}).get("kind") == "remote"):
        lexicon_path = args.domain_lexicon or config.get("annotator", {}).get("domain_lexicon")
        lexicon = load_domain_lexicon(lexicon_path) if lexicon_path else builtin_domain_lexicon()
        known_domains = lexicon.domains
    if domain is None:
        if not known_domains:
            raise ValueError("pass --domain when using a remote annotator")
        domain = known_domains[0]
    if known_domains is not None and domain not in known_domains:
        raise ValueError(f"unknown domain {domain!r}; lexicon has {list(known_domains)}")

    annotator = _build_annotator(args, config)
    tweets, replies, ann_report = annotate_dataset(dataset, annotator)
    spec = PeriodSpec(
        n_periods=int(_resolve(args, config, "n_periods", 6)),
        start=parse_timestamp(args.start) if args.start else None,
        granularity=_resolve(args, config, "granularity", "month"),
    )
    slices, partition_report = partition_periods(dataset, spec)

    labels = load_labels(args.labels) if args.labels else None
    if labels is not None:
        if labels.domain != domain:
            raise ValueError(f"labels file is for domain {labels.domain!r}, not {domain!r}")
        labels.validate_against(dataset)
    domain_features = accumulate_domain_features(dataset, tweets, replies)
    global_features = compute_global_features(dataset)
    matrix = assemble_matrix(domain, POOLED, domain_features, global_features, labels=labels)
    matrix_path = out_dir / "features.csv"
    save_matrix(matrix, matrix_path)

    top_k = int(_resolve(args, config, "top_k", 5))
    report_text = _render_period_report(domain, slices, dataset, tweets, replies, top_k)
    report_path = out_dir / "features_report.txt"
    report_path.write_text(report_text, encoding="utf-8")
    _write_json(
        out_dir / "features_report.json",
        {
            "domain": domain,
            "rows": matrix.n_rows,
            "annotation": ann_report.to_dict(),
            "periods": partition_report.to_dict(),
        },
    )
    print(f"wrote {matrix_path} ({matrix.n_rows} rows)")
    print(f"wrote {report_path}")
    return 0


def _model_specs(config: dict, seed: int) -> tuple[ModelSpec, ...]:
    base = {s.algorithm: s for s in default_specs(seed)}
    for algorithm, overrides in config.get("models", {}).items():
        if algorithm not in base:
            raise ValueError(f"unknown algorithm {algorithm!r} in config")
        hyper = dict(overrides)
        model_seed = hyper.pop("seed", base[algorithm].seed)
        base[algorithm] = ModelSpec(
            algorithm=algorithm, hyperparameters=hyper, seed=model_seed
        )
    return tuple(base[a] for a in ALGORITHMS)


def cmd_benchmark(args, config, out_dir: Path, seed: int) -> int:
    matrix = load_matrix(args.matrix)
    if matrix.labels is None:
        if not args.labels:
            raise ValueError(
                "matrix has no label column; pass --labels FILE with ground truth"
            )
        labels = load_labels(args.labels)
        missing = [u for u in matrix.user_ids if u not in labels.labels]
        if missing:
            raise ValueError(
                f"labels file missing {len(missing)} matrix users (e.g. {missing[:3]})"
            )
        matrix = FeatureMatrix(
            domain=matrix.domain,
            period=matrix.period,
            user_ids=matrix.user_ids,
            x=matrix.x,
            labels=tuple(labels.labels[u] for u in matrix.user_ids),
        )
    split_spec = SplitSpec(
        train_fraction=float(_resolve(args, config, "train_fraction", 0.6)),
        seed=seed,
        stratified=not args.no_stratify and config.get("stratified", True),
    )
    report = benchmark(matrix, split_spec, specs=_model_specs(config, seed))

    report_path = out_dir / "benchmark_report.json"
    _write_json(report_path, report.to_dict())
    table_path = out_dir / "benchmark_table.txt"
    table = render_table(report)
    table_path.write_text(table, encoding="utf-8")
    # timings are the one run-dependent output, kept out of the report files
    _write_json(out_dir / "benchmark_timings.json", {"wall_time_seconds": report.timings()})
    sys.stdout.write(table)
    print(f"wrote {report_path}")
    return 0


def _engagement_level(payload: dict) -> EngagementLevel:
    return EngagementLevel(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
    )


def cmd_synth(args, config, out_dir: Path, seed: int) -> int:
    section = config.get("synth", {})
    kwargs = {}
    for key in (
        "n_users",
        "influencer_fraction",
        "target_domain",
        "off_domain_rate",
        "blend_rate",
        "non_english_rate",
        "retweet_rate",
        "n_periods",
        "period_days",
        "start",
    ):
        value = getattr(args, key, None)
        if value is None:
            value = section.get(key)
        if value is not None:
            kwargs[key] = value
    if args.domains:
        kwargs["domains"] = tuple(args.domains)
    elif "domains" in section:
        kwargs["domains"] = tuple(section["domains"])
    for level in ("influencer", "ordinary"):
        if level in section:
            kwargs[level] = _engagement_level(section[level])
    synth_config = SynthConfig(**kwargs)

    dataset, labels = synthesize(synth_config, seed)
    archive_path = out_dir / "synth_archive.jsonl"
    labels_path = out_dir / "synth_labels.json"
    save_dataset(dataset, archive_path)
    save_labels(labels, labels_path)
    n_influencers = sum(1 for v in labels.labels.values() if v == "Influencer")
    print(f"wrote {archive_path}")
    print(f"wrote {labels_path}")
    print(
        f"{len(dataset.users)} users ({n_influencers} influencers), "
        f"{len(dataset.tweets)} tweets, {len(dataset.replies)} replies"
    )
    return 0


def cmd_verify(args, config, out_dir: Path, seed: int) -> int:
    if args.list:
        descriptions = fixture_descriptions()
        for name in fixture_names():
            print(f"{name}: {descriptions[name]}")
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
    p.add_argument("--max-friends", type=int, default=None, help="drop users at or above this")
    p.add_argument("--capture-at", default=None, help="capture timestamp override (RFC 3339)")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("annotate", help="infer domains and reply sentiment for a dataset")
    _add_global_options(p)
    _add_annotator_options(p)
    p.add_argument("dataset", help="canonical dataset file")
    p.add_argument("--fail-fast", action="store_true", help="stop on the first provider failure")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("features", help="compute the feature matrix and per-period rankings")
    _add_global_options(p)
    _add_annotator_options(p)
    p.add_argument("dataset", help="canonical dataset file")
    p.add_argument("--domain", default=None, help="domain to analyze")
    p.add_argument("--n-periods", type=int, default=None, help="number of periods (default 6)")
    p.add_argument("--granularity", choices=GRANULARITIES, default=None)
    p.add_argument("--start", default=None, help="period range start (RFC 3339)")
    p.add_argument("--top-k", type=int, default=None, help="rows per ranking (default 5)")
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
        seed = int(_resolve(args, config, "seed", _GLOBAL_DEFAULTS["seed"]))
        out_dir = Path(_resolve(args, config, "output_dir", _GLOBAL_DEFAULTS["output_dir"]))
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(args, config, out_dir, seed=seed)
    except (ValueError, OSError, AnnotatorError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


__all__ = ["build_parser", "main", "entrypoint"]


if __name__ == "__main__":
    entrypoint()
