"""End-to-end tests for the command-line interface."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import domcred.annotate
import domcred.cli
import domcred.features
import domcred.verify
from domcred.annotate import annotate_dataset, load_annotation_columns, save_annotations
from domcred.cli import main
from domcred.corpus.archive import load_dataset, load_labels, save_dataset
from domcred.corpus.periods import PeriodSpec, partition_periods
from domcred.features import (
    POOLED,
    accumulate_domain_features,
    assemble_matrix,
    compute_global_features,
    load_matrix,
    save_matrix,
)
from domcred.learn.base import ALGORITHMS
from domcred.verify import FIXTURES
from helpers import dataset_of, make_dataset, make_tweet, make_user

TECH = "Technology and Computing"
ROOT = Path(__file__).resolve().parent.parent
# a remote annotator endpoint for configs that must fail before any request
UNUSED_URL = "http://127.0.0.1:1/"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> ingest -> annotate -> features run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_dir = root / "synth"
    data_dir = root / "data"
    feat_dir = root / "feat"
    bare_dir = root / "feat_unlabeled"

    assert main(
        [
            "synth",
            "--n-users", "60",
            "--influencer-fraction", "0.2",
            "--domains", TECH,
            "--seed", "42",
            "--output-dir", str(synth_dir),
        ]
    ) == 0
    archive = synth_dir / "synth_archive.jsonl"
    labels = synth_dir / "synth_labels.json"

    assert main(["ingest", str(archive), "--output-dir", str(data_dir)]) == 0
    dataset = data_dir / "dataset.jsonl"
    assert main(["annotate", str(dataset), "--output-dir", str(data_dir)]) == 0

    assert main(
        [
            "features", str(dataset),
            "--domain", TECH,
            "--labels", str(labels),
            "--output-dir", str(feat_dir),
        ]
    ) == 0
    assert main(
        ["features", str(dataset), "--domain", TECH, "--output-dir", str(bare_dir)]
    ) == 0

    return {
        "root": root,
        "archive": archive,
        "labels": labels,
        "dataset": dataset,
        "annotations": data_dir / "annotations.jsonl",
        "matrix": feat_dir / "features.csv",
        "report_txt": feat_dir / "features_report.txt",
        "report_json": feat_dir / "features_report.json",
        "ingest_report": data_dir / "ingest_report.json",
        "bare_matrix": bare_dir / "features.csv",
    }


@pytest.fixture(scope="module")
def all_domains(tmp_path_factory):
    """A dataset synthesized over every built-in domain, ingested and
    annotated: unlike the pipeline's, its tweets hold many distinct domain
    lists."""
    root = tmp_path_factory.mktemp("all_domains")
    assert main(["synth", "--n-users", "30", "--seed", "42", "--output-dir", str(root)]) == 0
    assert main(["ingest", str(root / "synth_archive.jsonl"), "--output-dir", str(root)]) == 0
    dataset = root / "dataset.jsonl"
    assert main(["annotate", str(dataset), "--output-dir", str(root)]) == 0
    return dataset


def _respelled(dataset: Path, path: Path) -> Path:
    """``dataset`` written to ``path`` with every line re-spelled as
    json.dumps writes it, which the reader takes as JSON, not by pattern."""
    with dataset.open(encoding="utf-8") as lines:
        path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines), "utf-8")
    assert path.read_bytes() != dataset.read_bytes()
    return path


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus"])
        assert exc.value.code == 2


class TestSynth:
    def test_writes_archive_and_labels(self, tmp_path, capsys):
        rc = main(
            [
                "synth",
                "--n-users", "30",
                "--influencer-fraction", "0.1",
                "--seed", "1",
                "--output-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "30 users (3 influencers)" in out

        payload = json.loads((tmp_path / "synth_labels.json").read_text())
        assert len(payload["labels"]) == 30
        planted = [u for u, lab in payload["labels"].items() if lab == "Influencer"]
        assert len(planted) == 3
        assert (tmp_path / "synth_archive.jsonl").stat().st_size > 0

    def test_capture_past_year_9999_fails(self, tmp_path, capsys):
        rc = main(
            ["synth", "--n-users", "5", "--n-periods", "40", "--period-days", "100000",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: start 2024-01-01T00:00:00Z plus n_periods * period_days" in err
        assert "falls after year 9999" in err
        assert not (tmp_path / "synth_archive.jsonl").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        for name in ("a", "b"):
            assert main(
                ["synth", "--n-users", "20", "--seed", "9",
                 "--output-dir", str(tmp_path / name)]
            ) == 0
        assert (tmp_path / "a/synth_archive.jsonl").read_bytes() == (
            tmp_path / "b/synth_archive.jsonl"
        ).read_bytes()
        assert main(
            ["synth", "--n-users", "20", "--seed", "10",
             "--output-dir", str(tmp_path / "c")]
        ) == 0
        assert (tmp_path / "a/synth_archive.jsonl").read_bytes() != (
            tmp_path / "c/synth_archive.jsonl"
        ).read_bytes()

    def test_seed_parses_before_or_after_subcommand(self, tmp_path):
        assert main(
            ["--seed", "5", "synth", "--n-users", "20",
             "--output-dir", str(tmp_path / "pre")]
        ) == 0
        assert main(
            ["synth", "--n-users", "20", "--seed", "5",
             "--output-dir", str(tmp_path / "post")]
        ) == 0
        assert (tmp_path / "pre/synth_archive.jsonl").read_bytes() == (
            tmp_path / "post/synth_archive.jsonl"
        ).read_bytes()

    def test_bad_fraction_fails(self, tmp_path, capsys):
        rc = main(
            ["synth", "--influencer-fraction", "1.5", "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "influencer_fraction" in capsys.readouterr().err

    def _synth_with(self, tmp_path, section: dict) -> int:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": section}))
        return main(
            ["synth", "--n-users", "20", "--seed", "4", "--config", str(config),
             "--output-dir", str(tmp_path / "out")]
        )

    def test_partial_level_override_keeps_other_defaults(self, tmp_path):
        assert self._synth_with(tmp_path, {"influencer": {"followers": [1, 2]}}) == 0
        dataset = dataset_of(load_dataset(tmp_path / "out/synth_archive.jsonl")[0])
        labels = json.loads((tmp_path / "out/synth_labels.json").read_text())["labels"]
        influencers = [u for u in dataset.users if labels[u.user_id] == "Influencer"]
        assert influencers
        assert all(1 <= u.followers_count <= 2 for u in influencers)
        # the rest of the level is the default: influencer friends stay in range
        assert all(100 <= u.friends_count <= 900 for u in influencers)

    def test_unknown_level_field_fails_naming_valid_fields(self, tmp_path, capsys):
        assert self._synth_with(tmp_path, {"ordinary": {"bogus": 1}}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus" in err and "positive_reply_rate" in err
        assert not (tmp_path / "out/synth_archive.jsonl").exists()

    @pytest.mark.parametrize(
        "section, field",
        [
            ({"n_periods": "3"}, "n_periods"),
            ({"period_days": True}, "period_days"),
            ({"retweet_rate": "0.1"}, "retweet_rate"),
            ({"influencer": {"replies_mean": "6"}}, "replies_mean"),
            ({"ordinary": [1, 2]}, "ordinary"),
            ({"influencer": {"retweets_mean": float("inf")}}, "retweets_mean"),
        ],
    )
    def test_wrong_config_types_fail_cleanly(self, tmp_path, capsys, section, field):
        assert self._synth_with(tmp_path, section) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_string_n_users_in_config_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n_users": "30"}}))
        assert main(["synth", "--config", str(config), "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: n_users must be an integer")

    def test_unknown_synth_key_fails_naming_valid_keys(self, tmp_path, capsys):
        assert self._synth_with(tmp_path, {"n_user": 30}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config synth key(s) n_user;")
        assert "valid keys: n_users, " in err and "ordinary" in err
        assert not (tmp_path / "out/synth_archive.jsonl").exists()

    def test_string_domains_fail_asking_for_a_list(self, tmp_path, capsys):
        assert self._synth_with(tmp_path, {"domains": TECH}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config synth.domains must be a JSON list of domain names")


class TestIngest:
    def test_report_counts(self, pipeline):
        report = json.loads(pipeline["ingest_report"].read_text())
        assert report["counts"]["users"] == 60
        assert report["counts"]["tweets"] > 0
        assert "load" in report and "cleanse" in report

    def test_ingest_again_writes_the_same_dataset(self, pipeline, tmp_path):
        assert main(["ingest", str(pipeline["archive"]), "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "dataset.jsonl").read_bytes() == pipeline["dataset"].read_bytes()

    def test_malformed_line_skipped_and_counted(self, pipeline, tmp_path, capsys):
        broken = tmp_path / "broken.jsonl"
        shutil.copy(pipeline["archive"], broken)
        lines = broken.read_bytes().splitlines(keepends=True)
        user = next(i for i, line in enumerate(lines) if line.startswith(b'{"body":{"created_at"'))
        # a user line holding the byte 0xff, which is not UTF-8, and a line of bad JSON
        lines[user] = lines[user].replace(b'"handle":"', b'"handle":"\xff', 1)
        broken.write_bytes(b"".join(lines) + b"{{{not json\n")
        not_utf8, not_json = user + 1, len(lines) + 1

        rc = main(["ingest", str(broken), "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out/ingest_report.json").read_text())
        assert report["load"]["malformed_lines"] == 2
        assert report["load"]["malformed_line_numbers"] == [not_utf8, not_json]

        capsys.readouterr()
        rc = main(
            ["ingest", str(broken), "--fail-fast", "--output-dir", str(tmp_path / "ff")]
        )
        assert rc == 1
        assert f"error: {broken}: line {not_utf8}: not UTF-8: byte 0xff" in capsys.readouterr().err

    @staticmethod
    def _archive(path, created_b):
        """Users a and b, b created at ``created_b``, and one tweet by b."""

        def user(uid, created):
            body = {"user_id": uid, "followers_count": 1, "friends_count": 1}
            return {"kind": "user", "body": {**body, "created_at": created}}

        tweet = {"tweet_id": "t1", "author_id": "b", "language": "en"}
        records = [user("a", "2020-01-01T00:00:00Z"), user("b", created_b)]
        records.append({"kind": "tweet", "body": {**tweet, "posted_at": "2024-02-01T00:00:00Z"}})
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    @pytest.mark.parametrize("max_friends", ["0", "-5"])
    def test_max_friends_below_one_fails(self, pipeline, tmp_path, capsys, max_friends):
        out = tmp_path / "out"
        rc = main(
            ["ingest", str(pipeline["archive"]), "--max-friends", max_friends,
             "--output-dir", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: --max-friends must be at least 1, got {max_friends}" in err
        assert not (out / "dataset.jsonl").exists()

    def test_year_below_1000_survives_the_next_stage(self, tmp_path):
        archive = self._archive(tmp_path / "archive.jsonl", "0999-06-01T00:00:00Z")
        assert main(["ingest", str(archive), "--output-dir", str(tmp_path)]) == 0
        columns, report = load_dataset(tmp_path / "dataset.jsonl")
        assert report.warning_count == 0
        assert columns.user_ids == ("a", "b")
        assert columns.tweet_ids == ("t1",)
        assert "0999-06-01T00:00:00Z" in (tmp_path / "dataset.jsonl").read_text()

    def test_out_of_range_timestamp_is_a_malformed_line(self, tmp_path, capsys):
        archive = self._archive(tmp_path / "archive.jsonl", "0001-01-01T00:00:00+01:00")
        assert main(["ingest", str(archive), "--output-dir", str(tmp_path / "out")]) == 0
        load = json.loads((tmp_path / "out/ingest_report.json").read_text())["load"]
        assert load["malformed_line_numbers"] == [2]
        assert load["quarantined_tweets"] == 1

        capsys.readouterr()
        rc = main(["ingest", str(archive), "--fail-fast", "--output-dir", str(tmp_path / "ff")])
        assert rc == 1
        assert f"error: {archive}: line 2: " in capsys.readouterr().err

    def test_default_capture_past_year_9999_fails(self, tmp_path, capsys):
        # no meta line: the capture would be a day after the newest record
        body = {"user_id": "a", "followers_count": 1, "friends_count": 1}
        user = {"kind": "user", "body": {**body, "created_at": "9999-12-31T12:00:00Z"}}
        archive = tmp_path / "archive.jsonl"
        archive.write_text(json.dumps(user) + "\n", encoding="utf-8")
        rc = main(["ingest", str(archive), "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {archive}: the default capture timestamp")
        assert "falls after year 9999; pass one with --capture-at" in err
        assert "Traceback" not in err

    def test_load_errors_name_the_archive(self, tmp_path, capsys):
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text('{"kind":"user","body":{}}\n', encoding="utf-8")
        body = {"user_id": "a", "followers_count": 1, "friends_count": 1}
        user = {"kind": "user", "body": {**body, "created_at": "2020-01-01T00:00:00Z"}}
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text((json.dumps(user) + "\n") * 2, encoding="utf-8")
        for archive, flags, message in (
            (malformed, ["--fail-fast"], "line 1: missing user_id"),
            (repeated, [], "duplicate user_id 'a'"),
        ):
            rc = main(["ingest", str(archive), *flags, "--output-dir", str(tmp_path / "out")])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {archive}: {message}\n"


class TestAnnotate:
    def test_writes_annotations_and_report(self, pipeline, tmp_path, capsys):
        rc = main(
            ["annotate", str(pipeline["dataset"]), "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "tweets annotatable" in capsys.readouterr().out
        lines = (tmp_path / "annotations.jsonl").read_text().strip().splitlines()
        assert lines
        report = json.loads((tmp_path / "annotate_report.json").read_text())
        assert report["n_tweets"] > 0
        assert report["n_annotatable"] > 0

    def test_annotate_again_writes_the_same_annotations(self, pipeline, tmp_path):
        argv = ["annotate", str(pipeline["dataset"]), "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "annotations.jsonl").read_bytes() == (
            pipeline["annotations"].read_bytes()
        )

    def test_builtin_lexicon_files_give_the_default_bytes(self, pipeline, tmp_path):
        data = ROOT / "src/domcred/data"
        argv = ["annotate", str(pipeline["dataset"]), "--output-dir", str(tmp_path)]
        argv += ["--domain-lexicon", str(data / "domains.lex")]
        argv += ["--sentiment-lexicon", str(data / "sentiment.lex")]
        assert main(argv) == 0
        for name in ("annotations.jsonl", "annotations.jsonl.cols"):
            got, want = tmp_path / name, pipeline["annotations"].parent / name
            assert got.read_bytes() == want.read_bytes(), name

    def test_respelled_dataset_gives_the_same_bytes(self, pipeline, tmp_path):
        respelled = _respelled(pipeline["dataset"], tmp_path / "dataset.jsonl")
        assert main(["annotate", str(respelled), "--output-dir", str(tmp_path / "out")]) == 0
        for name in ("annotations.jsonl", "annotate_report.json"):
            got, want = tmp_path / "out" / name, pipeline["annotations"].parent / name
            assert got.read_bytes() == want.read_bytes(), name

    def test_unknown_annotator_key_fails_naming_valid_keys(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"annotator": {"min_hit": 5}}))
        rc = main(
            ["annotate", str(pipeline["dataset"]), "--config", str(config),
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config annotator key(s) min_hit;")
        assert "min_hits" in err
        assert not (tmp_path / "annotations.jsonl").exists()

    def test_sentiment_outside_its_range_fails_and_writes_nothing(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        class OutOfRange(domcred.annotate.LexiconAnnotator):
            def score_sentiment(self, text):
                return 1.5

        monkeypatch.setattr(domcred.cli, "_build_annotator", lambda args, config: OutOfRange())
        rc = main(["annotate", str(pipeline["dataset"]), "--output-dir", str(tmp_path)])
        assert rc == 1
        first_reply = load_annotation_columns(pipeline["annotations"]).reply_ids[0]
        err = capsys.readouterr().err
        assert err == f"error: sentiment for {first_reply} outside [-1, 1]\n"
        assert not (tmp_path / "annotations.jsonl").exists()

    def test_score_outside_its_range_fails_and_writes_nothing(
        self, pipeline, tmp_path, capsys, monkeypatch
    ):
        class OutOfRange(domcred.annotate.LexiconAnnotator):
            def infer_taxonomy(self, text):
                return (domcred.annotate.DomainAnnotation("Sports", 1.5),)

        monkeypatch.setattr(domcred.cli, "_build_annotator", lambda args, config: OutOfRange())
        rc = main(["annotate", str(pipeline["dataset"]), "--output-dir", str(tmp_path)])
        assert rc == 1
        first_tweet = load_annotation_columns(pipeline["annotations"]).tweet_ids[0]
        err = capsys.readouterr().err
        assert err == f"error: tweet {first_tweet}: score for 'Sports' outside [0, 1]: 1.5\n"
        assert not (tmp_path / "annotations.jsonl").exists()

    def test_remote_without_url_fails(self, pipeline, tmp_path, capsys):
        rc = main(
            ["annotate", str(pipeline["dataset"]), "--annotator", "remote",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "annotator-url" in capsys.readouterr().err


class TestCanonicalDataset:
    """annotate and features read the dataset ingest wrote, or nothing."""

    @pytest.mark.parametrize("command", ["annotate", "features"])
    @pytest.mark.parametrize("damage", ["truncated user line", "dangling reply"])
    def test_damaged_dataset_fails(self, pipeline, tmp_path, capsys, command, damage):
        dataset = tmp_path / "dataset.jsonl"
        lines = pipeline["dataset"].read_text(encoding="utf-8").splitlines()
        if damage == "truncated user line":
            user = next(i for i, line in enumerate(lines) if line.endswith('"kind":"user"}'))
            lines[user] = lines[user][:60]
            want = f"error: {dataset}: line {user + 1}: "
        else:
            reply = json.loads(next(line for line in lines if line.endswith('"kind":"reply"}')))
            reply["body"].update(reply_id="r-dangling", parent_tweet_id="no-such-tweet")
            lines.append(json.dumps(reply))
            want = f"error: {dataset}: not a canonical dataset (quarantined_replies 1); "
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # annotations that match what a lenient load keeps, so only the load can fail
        kept, _ = load_dataset(dataset)
        annotations, _ = annotate_dataset(kept)
        save_annotations(annotations, tmp_path / "annotations.jsonl")
        argv = [command, str(dataset), "--output-dir", str(tmp_path / "out")]
        assert main(argv + (["--domain", TECH] if command == "features" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith(want)
        assert "`domcred ingest`" in err
        assert not any((tmp_path / "out").iterdir())

    # a repeated user fails as a repeated tweet does; ingest reads the archive
    @pytest.mark.parametrize(
        "command, kind",
        [
            pytest.param("annotate", "tweet", id="annotate"),
            pytest.param("features", "tweet", id="features"),
            pytest.param("ingest", "user", id="ingest-user"),
            pytest.param("annotate", "user", id="annotate-user"),
            pytest.param("features", "user", id="features-user"),
        ],
    )
    def test_duplicate_tweet_fails(self, pipeline, tmp_path, capsys, command, kind):
        dataset = tmp_path / "dataset.jsonl"
        source = pipeline["archive" if command == "ingest" else "dataset"]
        lines = source.read_text(encoding="utf-8").split("\n")
        record = next(line for line in lines if line.endswith(f'"kind":"{kind}"}}'))
        dataset.write_text("\n".join([*lines, record]) + "\n", encoding="utf-8")
        record_id = json.loads(record)["body"][f"{kind}_id"]
        argv = [command, str(dataset), "--output-dir", str(tmp_path / "out")]
        assert main(argv + (["--domain", TECH] if command == "features" else [])) == 1
        assert capsys.readouterr().err == f"error: {dataset}: duplicate {kind}_id {record_id!r}\n"
        assert not any((tmp_path / "out").iterdir())


class TestReportBytes:
    """The corpus-side reports of one small fixed pipeline, byte for byte."""

    INGEST = """{
  "cleanse": {
    "language_removed": 14,
    "orphan_replies_removed": 40,
    "owner_replies_removed": 0,
    "retweets_zeroed": 16
  },
  "counts": {
    "replies": 964,
    "tweets": 330,
    "users": 20
  },
  "load": {
    "filtered_users": 0,
    "malformed_line_numbers": [
      1370
    ],
    "malformed_lines": 1,
    "quarantined_replies": 0,
    "quarantined_tweets": 0,
    "quarantined_users": 0,
    "warning_count": 1
  },
  "source": SOURCE
}
"""
    ANNOTATE = """{
  "failures": [],
  "n_annotatable": 330,
  "n_neutral_replies": 0,
  "n_not_annotatable": 0,
  "n_replies": 964,
  "n_tweets": 330,
  "n_unconfident": 0
}
"""
    FEATURES = """{
  "domain": "Arts and Entertainment",
  "periods": {
    "empty_periods": 0,
    "n_periods": 4,
    "out_of_range_replies": 670,
    "out_of_range_tweets": 217,
    "replies_per_period": [
      57,
      108,
      43,
      86
    ],
    "tweets_per_period": [
      28,
      32,
      22,
      31
    ]
  },
  "rows": 20
}
"""

    def test_reports_are_pinned(self, tmp_path):
        synth = ["synth", "--n-users", "20", "--seed", "1", "--output-dir", str(tmp_path)]
        assert main(synth) == 0
        archive = tmp_path / "synth_archive.jsonl"
        with archive.open("a", encoding="utf-8") as fh:
            fh.write("{{{not json\n")
        dataset = tmp_path / "dataset.jsonl"
        assert main(["ingest", str(archive), "--output-dir", str(tmp_path)]) == 0
        assert main(["annotate", str(dataset), "--output-dir", str(tmp_path)]) == 0
        assert main(
            ["features", str(dataset), "--n-periods", "4", "--output-dir", str(tmp_path)]
        ) == 0
        source = json.dumps(str(archive), ensure_ascii=False)
        ingest = (tmp_path / "ingest_report.json").read_text(encoding="utf-8")
        assert ingest == self.INGEST.replace("SOURCE", source)
        assert (tmp_path / "annotate_report.json").read_text(encoding="utf-8") == self.ANNOTATE
        assert (tmp_path / "features_report.json").read_text(encoding="utf-8") == self.FEATURES


class TestCorpusDigests:
    """The corpus outputs of synth -> ingest -> annotate -> features, run as
    the bench's featurize workload runs them, pinned by sha256."""

    DIGESTS = {
        "synth_archive.jsonl": "8ee6134cf92fab0ff6b7ca5a226b2e1e9355f415295cb4ecc3fdcf99fccba41b",
        "dataset.jsonl": "e8225440b5c78b0ff9821575cb2f73ea23ed991650f13e5a9b059da2742fe1cb",
        "annotations.jsonl": "037ed741a65edc7ea225e527f2c375c0eba7e3eabce72c015ade598c8076c1f1",
        "features.csv": "723487f2519268f0ce0b961b4382fdf11efd6cb35ce7a311948fef08a8ee9c01",
        "features_report.txt": "7d9aacc30b9f1243bf46b59fbc7d477039e1fdd0ff3492897525bced25c7109c",
        "features_report.json": "e41fc454afcdf2865b990507c354f41a28df77d7fdf30c98381ab77698cd8dd5",
        # the matrix of a features call without labels, in its own directory
        "bare/features.csv": "13d20810e880ad3ab09ce071481e912ed948c550aa3fde9d0b5fae441221400d",
        # a sidecar's payload, the bytes after its header line, which names
        # the Python version
        "dataset.jsonl.cols": "41c9f231969045a76d53abdc91613722249a30eece8a3f3a348e6282fc496458",
        "annotations.jsonl.cols": "343e0b989238a9bc6b3e8910a8da7a92d0b36bb9c318fce7093c90364d27c671",
        # synth's own sidecar: a column of numpy scalars, which marshal refuses,
        # would leave none, and a list in the payload would give other bytes
        "synth_archive.jsonl.cols": "33acf80e4ce0ccc96be5946f73a7f0a322a8d99f8b93926ec86acbab60dc7c41",
    }

    def test_outputs_are_pinned(self, tmp_path):
        out = ["--output-dir", str(tmp_path)]
        assert main(["synth", "--n-users", "60", "--seed", "1", *out]) == 0
        assert main(["ingest", str(tmp_path / "synth_archive.jsonl"), *out]) == 0
        dataset = str(tmp_path / "dataset.jsonl")
        assert main(["annotate", dataset, *out]) == 0
        labels = tmp_path / "synth_labels.json"
        domain = json.loads(labels.read_text(encoding="utf-8"))["domain"]
        assert main(
            ["features", dataset, "--domain", domain, "--labels", str(labels),
             "--n-periods", "12", *out]
        ) == 0
        assert main(
            ["features", dataset, "--domain", domain, "--n-periods", "12",
             "--output-dir", str(tmp_path / "bare")]
        ) == 0
        got = {}
        for name in self.DIGESTS:
            data = (tmp_path / name).read_bytes()
            if name.endswith(".cols"):
                data = data.split(b"\n", 1)[1]
            got[name] = hashlib.sha256(data).hexdigest()
        assert got == self.DIGESTS


class TestFeatures:
    def test_labeled_matrix_written(self, pipeline):
        matrix = load_matrix(pipeline["matrix"])
        assert matrix.domain == TECH
        assert matrix.labels is not None
        assert matrix.n_rows >= 50
        assert set(matrix.labels) == {"Influencer", "NonInfluencer"}

    def test_unlabeled_matrix_written(self, pipeline):
        matrix = load_matrix(pipeline["bare_matrix"])
        assert matrix.labels is None
        assert matrix.n_rows >= 50

    def test_period_report_sections(self, pipeline):
        text = pipeline["report_txt"].read_text()
        assert f"domain: {TECH}" in text
        assert "period 1 [" in text
        assert "normalized retweets (R')" in text
        assert "normalized favorites (L')" in text
        assert "normalized replies (P')" in text
        assert "normalized sentiment (S')" in text
        payload = json.loads(pipeline["report_json"].read_text())
        assert payload["domain"] == TECH
        assert payload["rows"] >= 50

    def test_features_again_writes_the_same_matrix(self, pipeline, tmp_path):
        argv = ["features", str(pipeline["dataset"]), "--domain", TECH, "--labels"]
        argv += [str(pipeline["labels"]), "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert (tmp_path / "features.csv").read_bytes() == pipeline["matrix"].read_bytes()

    def test_respelled_dataset_gives_the_same_bytes(self, pipeline, tmp_path):
        respelled = _respelled(pipeline["dataset"], tmp_path / "dataset.jsonl")
        shutil.copy(pipeline["annotations"], tmp_path)
        argv = ["features", str(respelled), "--domain", TECH, "--labels"]
        argv += [str(pipeline["labels"]), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        for name in ("matrix", "report_txt", "report_json"):
            got = tmp_path / "out" / pipeline[name].name
            assert got.read_bytes() == pipeline[name].read_bytes(), name

    def test_unknown_domain_fails(self, pipeline, tmp_path, capsys):
        rc = main(
            ["features", str(pipeline["dataset"]), "--domain", "Basket Weaving",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "unknown domain" in capsys.readouterr().err

    def test_empty_domain_fails(self, pipeline, tmp_path, capsys):
        rc = main(
            ["features", str(pipeline["dataset"]), "--domain", "",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: unknown domain ''; annotations carry")
        assert not (tmp_path / "features.csv").exists()

    def test_config_domain_must_be_a_string(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"domain": 5}))
        rc = main(
            ["features", str(pipeline["dataset"]), "--config", str(config),
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: config domain must be a string, got 5\n"
        assert not any((tmp_path / "out").iterdir())

    def test_label_domain_mismatch_fails(self, pipeline, tmp_path, capsys):
        rc = main(
            ["features", str(pipeline["dataset"]), "--domain", "Sports",
             "--labels", str(pipeline["labels"]), "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "labels file is for domain" in capsys.readouterr().err

    def test_labels_for_unknown_users_fail(self, pipeline, tmp_path, capsys):
        payload = json.loads(pipeline["labels"].read_text())
        payload["labels"]["nobody"] = "Influencer"
        stray = tmp_path / "stray_labels.json"
        stray.write_text(json.dumps(payload))
        rc = main(
            ["features", str(pipeline["dataset"]), "--domain", TECH,
             "--labels", str(stray), "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "labels refer to unknown users: ['nobody']" in err
        assert "1 labeled user(s) missing from the dataset" in err
        assert "narrow the labels file to the dataset's users" in err
        assert not (tmp_path / "features.csv").exists()

    def test_domain_no_annotation_carries_fails(self, pipeline, tmp_path, capsys):
        # a lexicon domain, but the single-domain corpus gives it no tweet
        rc = main(
            ["features", str(pipeline["dataset"]), "--domain", "Sports",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown domain 'Sports'" in err
        assert f"annotations carry ['{TECH}']" in err

    def test_no_annotated_domain_fails(self, tmp_path, capsys):
        # no word of either tweet is in the domain lexicon
        dataset = make_dataset(
            [make_user("a")],
            [make_tweet("t1", "a", text="hello there"), make_tweet("t2", "a", text="hi")],
        )
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset.columns, path)
        assert main(["annotate", str(path), "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["features", str(path), "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "no annotated tweet carries a domain" in err
        assert f"{path} holds 2 tweets" in err

    @pytest.mark.parametrize(
        "options, period",
        [((), 1), (("--granularity", "year"), 1), (("--start", "9999-01-01T00:00:00Z"), 12)],
    )
    def test_period_ending_after_year_9999_fails(self, tmp_path, capsys, options, period):
        dataset = make_dataset(
            [make_user("a", created="9999-01-01T00:00:00Z")],
            [make_tweet("t1", "a", posted="9999-12-01T00:00:00Z")],
            capture="9999-12-31T00:00:00Z",
        )
        path = tmp_path / "dataset.jsonl"
        save_dataset(dataset.columns, path)
        assert main(["annotate", str(path), "--output-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["features", str(path), *options, "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: period {period} would end at 10000-01-01T00:00:00Z,"
            " after year 9999, the last year a timestamp can hold\n"
        )
        assert not (tmp_path / "out" / "features.csv").exists()

    def test_csv_equals_the_feature_matrix_path(self, pipeline, tmp_path):
        """The plain rows `features` writes match save_matrix(assemble_matrix(...))."""
        columns, _ = load_dataset(pipeline["dataset"])
        annotations = load_annotation_columns(pipeline["dataset"].parent / "annotations.jsonl")
        _, _, placement = partition_periods(columns, PeriodSpec())
        cells = accumulate_domain_features(columns, annotations, placement)
        active = compute_global_features(columns)
        for labels, written in (
            (load_labels(pipeline["labels"]), pipeline["matrix"]),
            (None, pipeline["bare_matrix"]),
        ):
            matrix = assemble_matrix(TECH, POOLED, cells, active, labels=labels)
            save_matrix(matrix, tmp_path / "features.csv")
            assert (tmp_path / "features.csv").read_bytes() == written.read_bytes()

    def test_missing_annotations_fail(self, pipeline, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        shutil.copy(pipeline["dataset"], dataset)
        rc = main(
            ["features", str(dataset), "--domain", TECH, "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(tmp_path / "annotations.jsonl") in err
        assert f"domcred annotate {dataset} --output-dir {tmp_path}" in err
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize(
        "damage",
        ["other dataset", "tweet line removed", "tweet repeated", "replies swapped"],
    )
    def test_mismatched_annotations_fail(self, pipeline, tmp_path, capsys, damage):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        dataset = data_dir / "dataset.jsonl"
        shutil.copy(pipeline["dataset"], dataset)
        annotations = data_dir / "annotations.jsonl"
        if damage == "other dataset":
            other = tmp_path / "other"
            assert main(["synth", "--n-users", "20", "--seed", "3",
                         "--output-dir", str(other)]) == 0
            assert main(["ingest", str(other / "synth_archive.jsonl"),
                         "--output-dir", str(other)]) == 0
            assert main(["annotate", str(other / "dataset.jsonl"),
                         "--output-dir", str(other)]) == 0
            shutil.copy(other / "annotations.jsonl", annotations)
        else:
            lines = pipeline["annotations"].read_text().splitlines()
            tweets = [i for i, line in enumerate(lines) if '"kind": "tweet"' in line]
            n = len(tweets)
            # the last two cases keep the id sets: no id is in one list only
            if damage == "tweet line removed":
                del lines[tweets[0]]
            elif damage == "tweet repeated":
                lines.insert(n, lines[n - 1])
            else:
                lines[n], lines[n + 1] = lines[n + 1], lines[n]
            annotations.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(
            ["features", str(dataset), "--domain", TECH, "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "annotations do not match" in err
        assert "(e.g. [])" not in err
        if damage == "tweet repeated":
            last = json.loads(lines[n])["tweet_id"]
            part = f"(they part at position {n + 1}, {last!r})"
            assert f"has {n + 1} tweet ids, the dataset {n} {part}" in err
        elif damage == "replies swapped":
            second = json.loads(lines[n])["reply_id"]
            part = f"(they part at position 1, {second!r})"
            assert f"reply ids, the dataset {len(lines) - n} {part}" in err
        else:
            assert "tweet ids" in err
        assert not (tmp_path / "features.csv").exists()

    def test_default_periods_cover_every_record(self, pipeline):
        periods = json.loads(pipeline["report_json"].read_text())["periods"]
        assert periods["out_of_range_tweets"] == 0
        assert periods["out_of_range_replies"] == 0
        text = pipeline["report_txt"].read_text()
        assert text.count("\nperiod ") == periods["n_periods"]

    # a re-spelled annotations file is read as JSON, line by line, and shares
    # no tuple between tweets; its lists are still weighed once per value.
    # The pipeline's tweets all hold one list, so only the all-domains corpus
    # tells "once per distinct list" from "once for the first list".
    @pytest.mark.parametrize(
        "spelling, corpus",
        [("canonical", "one"), ("respelled", "one"), ("canonical", "all"), ("respelled", "all")],
        ids=["canonical", "respelled", "canonical-all-domains", "respelled-all-domains"],
    )
    def test_one_accumulation_pass(
        self, pipeline, all_domains, tmp_path, monkeypatch, spelling, corpus
    ):
        """One accumulation, and the weights once per distinct domain list."""
        dataset = source = pipeline["dataset"] if corpus == "one" else all_domains
        if spelling == "respelled":
            dataset = Path(shutil.copy(source, tmp_path / "dataset.jsonl"))
            with (source.parent / "annotations.jsonl").open() as lines:
                compact = [json.dumps(json.loads(line), separators=(",", ":")) for line in lines]
            (tmp_path / "annotations.jsonl").write_text("\n".join(compact) + "\n")
        calls = {"annotate": 0, "accumulate": 0, "weights": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            domcred.features,
            "accumulate_domain_features",
            counted("accumulate", domcred.features.accumulate_domain_features),
        )
        monkeypatch.setattr(
            domcred.features,
            "relativeness_weights",
            counted("weights", domcred.features.relativeness_weights),
        )
        monkeypatch.setattr(
            domcred.annotate,
            "annotate_dataset",
            counted("annotate", domcred.annotate.annotate_dataset),
        )
        rc = main(
            ["features", str(dataset), "--domain", TECH,
             "--n-periods", "3", "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        annotations = load_annotation_columns(dataset.parent / "annotations.jsonl")
        distinct = len(set(annotations.merged_domains))
        assert distinct < len(annotations.tweet_ids)
        if corpus == "all":
            assert distinct > 1
        assert calls == {"annotate": 0, "accumulate": 1, "weights": distinct}


class TestBenchmark:
    def test_full_pipeline(self, pipeline, tmp_path, capsys):
        rc = main(
            ["benchmark", str(pipeline["matrix"]), "--seed", "42",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert "wrote" in out

        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert [m["algorithm"] for m in report["models"]] == list(ALGORITHMS)
        assert all(m["status"] == "trained" for m in report["models"])
        assert report["split"]["seed"] == 42
        assert report["n_train"] + report["n_test"] == len(
            load_matrix(pipeline["matrix"]).user_ids
        )

        table = (tmp_path / "benchmark_table.txt").read_text()
        assert len(table.splitlines()) == 1 + len(ALGORITHMS)
        timings = json.loads((tmp_path / "benchmark_timings.json").read_text())
        assert set(timings["wall_time_seconds"]) == set(ALGORITHMS)

    def test_unlabeled_matrix_needs_labels_flag(self, pipeline, tmp_path, capsys):
        rc = main(
            ["benchmark", str(pipeline["bare_matrix"]), "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "matrix has no label column; pass --labels FILE with ground truth" in err

    def test_labels_attached_at_benchmark_time(self, pipeline, tmp_path):
        rc = main(
            ["benchmark", str(pipeline["bare_matrix"]),
             "--labels", str(pipeline["labels"]),
             "--seed", "3", "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "benchmark_report.json").read_text())
        assert all(m["status"] == "trained" for m in report["models"])

    def test_labels_for_another_domain_fail(self, pipeline, tmp_path, capsys):
        payload = json.loads(pipeline["labels"].read_text())
        other = tmp_path / "sports_labels.json"
        other.write_text(json.dumps({**payload, "domain": "Sports"}))
        rc = main(
            ["benchmark", str(pipeline["bare_matrix"]), "--labels", str(other),
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: labels file is for domain 'Sports', not {TECH!r}\n"
        assert not (tmp_path / "out" / "benchmark_report.json").exists()

    @pytest.mark.parametrize(
        "column, value, problem",
        [
            (3, "nan", "domain_favorite_count is nan, not a finite number"),
            (14, "-inf", "sum_domain_neg is -inf, not a finite number"),
            (
                15,
                "Celebrity",
                "unknown label 'Celebrity'; labels are Influencer or NonInfluencer",
            ),
        ],
    )
    def test_bad_matrix_cell_fails_naming_its_row(
        self, pipeline, tmp_path, capsys, column, value, problem
    ):
        lines = pipeline["matrix"].read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = value
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
        out = tmp_path / "out"
        assert main(["benchmark", str(bad), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: data row 2: {problem}\n"
        assert not any(out.iterdir())

    def test_labels_rejected_for_labeled_matrix(self, pipeline, tmp_path, capsys):
        unread = tmp_path / "labels.json"
        unread.write_text("not json")
        rc = main(
            ["benchmark", str(pipeline["matrix"]), "--labels", str(unread),
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "matrix already carries a label column" in err
        assert "--labels is only for unlabeled matrices" in err
        assert not (tmp_path / "out" / "benchmark_report.json").exists()

    def test_labels_must_cover_matrix_users(self, pipeline, tmp_path, capsys):
        payload = json.loads(pipeline["labels"].read_text())
        kept = dict(list(payload["labels"].items())[:5])
        trimmed = tmp_path / "partial_labels.json"
        trimmed.write_text(json.dumps({"domain": payload["domain"], "labels": kept}))
        rc = main(
            ["benchmark", str(pipeline["bare_matrix"]), "--labels", str(trimmed),
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "labels file missing" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, pipeline, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "seed": 9,
                    "models": {
                        "random_forest": {"n_trees": 3, "max_depth": 4},
                        "neural_net": {"hidden": [6], "epochs": 5},
                    },
                }
            )
        )
        rc = main(
            ["benchmark", str(pipeline["matrix"]), "--config", str(config),
             "--output-dir", str(tmp_path / "from_config")]
        )
        assert rc == 0
        report = json.loads(
            (tmp_path / "from_config/benchmark_report.json").read_text()
        )
        assert report["split"]["seed"] == 9
        forest = [m for m in report["models"] if m["algorithm"] == "random_forest"][0]
        assert forest["summary"]["iterations"] == 3

        rc = main(
            ["benchmark", str(pipeline["matrix"]), "--config", str(config),
             "--seed", "7", "--output-dir", str(tmp_path / "overridden")]
        )
        assert rc == 0
        report = json.loads(
            (tmp_path / "overridden/benchmark_report.json").read_text()
        )
        assert report["split"]["seed"] == 7

    def test_unknown_model_in_config_fails(self, pipeline, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models": {"quantum_svm": {}}}))
        rc = main(
            ["benchmark", str(pipeline["matrix"]), "--config", str(config),
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "unknown algorithm" in capsys.readouterr().err


# the annotate flag that reads each lexicon file
LEXICON_FLAGS = {"domains.lex": "--domain-lexicon", "sentiment.lex": "--sentiment-lexicon"}


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "command, name, content",
        [
            ("benchmark", "features.csv", ""),
            ("benchmark", "features.csv", "HEADER\nu1,Tech\n"),
            ("features", "labels.json", '{"domain": "Tech"}'),
            ("features", "labels.json", "[1, 2]"),
            ("features", "labels.json", "not json"),
            ("features", "labels.json", "\xff{}"),
            ("features", "labels.json", '{"domain": "Tech", "labels": {"u1": "Superstar"}}'),
            ("benchmark", "labels.json", '{"domain": "Tech", "labels": {"u1": "Superstar"}}'),
            ("annotate", "domains.lex", "python\n"),
            ("annotate", "domains.lex", "[Tech]\n\xff\n"),
            ("annotate", "sentiment.lex", "good\t+2\n"),
            ("annotate", "sentiment.lex", "\xff\t+1\n"),
            ("config", "config.json", "not json"),
            ("config", "config.json", "\xff{}"),
            ("config", "config.json", "[1, 2]"),
            ("benchmark", "features.csv", "HEADER\nu1,Tech,zero,CELLS\n"),
            ("features", "annotations.jsonl", '{"kind": "tweet", "tweet_id": "t1"}'),
            (
                "features",
                "annotations.jsonl",
                '{"kind": "reply", "reply_id": "r1", "sentiment": "x"}',
            ),
            ("features", "annotations.jsonl", "[1, 2]"),
            (
                "features",
                "annotations.jsonl",
                '{"kind": "tweet", "tweet_id": "t1", "merged_domains": [["Tech", 1.0]]}',
            ),
            (
                "features",
                "annotations.jsonl",
                '{"kind": "tweet", "tweet_id": "t1", "merged_domains": [[5, 1.0, true]]}',
            ),
            (
                "features",
                "annotations.jsonl",
                '{"kind": "tweet", "tweet_id": "t1", "merged_domains": [["Tech", 1.0, "no"]]}',
            ),
            ("features", "annotations.jsonl", '{"tweet_id": "t1", "merged_domains": []}'),
            ("features", "annotations.jsonl", '{"kind": "report", "n_tweets": 0}'),
            ("features", "annotations.jsonl", "not json"),
            ("features", "annotations.jsonl", "\xff{}"),
            ("benchmark", "features.csv", "HEADER\n"),
        ],
    )
    def test_malformed_file_fails_naming_it(
        self, pipeline, tmp_path, capsys, command, name, content
    ):
        header = pipeline["matrix"].read_text().splitlines()[0]
        cells = ",".join(["0"] * (len(header.split(",")) - 3))
        bad = tmp_path / name
        # latin-1 writes "\xff" as the byte 0xff, which is not UTF-8
        bad.write_text(
            content.replace("HEADER", header).replace("CELLS", cells), encoding="latin-1"
        )
        # features reads the annotations.jsonl beside its dataset
        dataset = pipeline["dataset"]
        if name == "annotations.jsonl":
            dataset = shutil.copy(dataset, tmp_path / dataset.name)
        argv = {
            "benchmark": ["benchmark", str(bad)]
            if name == "features.csv"
            else ["benchmark", str(pipeline["bare_matrix"]), "--labels", str(bad)],
            "features": ["features", str(dataset), "--domain", TECH]
            + (["--labels", str(bad)] if name == "labels.json" else []),
            "config": ["benchmark", str(pipeline["matrix"]), "--config", str(bad)],
            "annotate": ["annotate", str(dataset), LEXICON_FLAGS.get(name), str(bad)],
        }[command]
        out = tmp_path / "out"
        assert main([*argv, "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert not out.exists() or not any(out.iterdir())

    def test_matrix_with_an_extra_column_fails_naming_it(self, pipeline, tmp_path, capsys):
        # a column docs/formats.md does not list is refused, not ignored
        rows = [line.split(",") for line in pipeline["matrix"].read_text().splitlines()]
        for i, fields in enumerate(rows):
            fields.insert(-1, "ffr" if i == 0 else "0.5")
        bad = tmp_path / "features.csv"
        bad.write_text("".join(",".join(fields) + "\n" for fields in rows), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["benchmark", str(bad), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: unexpected header (extra columns: ffr)")
        assert not out.exists() or not any(out.iterdir())


class TestConfigShapes:
    """A config value of the wrong JSON shape or type exits 1 naming its key."""

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("synth", {"synth": []}, "synth"),
            ("annotate", {"annotator": "lexicon"}, "annotator"),
            ("benchmark", {"models": []}, "models"),
            ("benchmark", {"models": {"random_forest": [["n_trees", 3]]}}, "models.random_forest"),
            ("benchmark", {"stratified": "false"}, "stratified"),
            ("synth", {"seed": True}, "seed"),
            ("features", {"n_periods": 2.7}, "n_periods"),
            ("features", {"top_k": "3"}, "top_k"),
            ("benchmark", {"models": {"logistic": {"max_iter": "5"}}}, "models.logistic.max_iter"),
            ("benchmark", {"models": {"logistic": {"max_iter": True}}}, "models.logistic.max_iter"),
            (
                "benchmark",
                {"models": {"random_forest": {"seed": True}}},
                "models.random_forest.seed",
            ),
            (
                "benchmark",
                {"models": {"random_forest": {"n_trees": 2.5}}},
                "models.random_forest.n_trees",
            ),
            ("benchmark", {"train_fraction": "0.5"}, "train_fraction"),
            ("annotate", {"annotator": {"gain": "2"}}, "gain"),
            ("benchmark", {"models": {"neural_net": {"hidden": 5}}}, "models.neural_net.hidden"),
            (
                "benchmark",
                {"models": {"decision_tree": {"confidence": "0.1"}}},
                "models.decision_tree.confidence",
            ),
            # json.dumps writes these as Infinity and NaN, which json.loads reads back
            (
                "benchmark",
                {"models": {"gradient_boosted_trees": {"learning_rate": float("inf")}}},
                "models.gradient_boosted_trees.learning_rate",
            ),
            ("benchmark", {"models": {"logistic": {"tol": float("inf")}}}, "models.logistic.tol"),
            ("annotate", {"annotator": {"gain": float("inf")}}, "gain"),
            ("annotate", {"annotator": {"gain": float("nan")}}, "gain"),
            ("benchmark", {"train_fraction": float("-inf")}, "train_fraction"),
            ("synth", {"output_dir": 5}, "output_dir"),
            ("annotate", {"annotator": {"kind": 5}}, "kind"),
            ("annotate", {"annotator": {"domain_lexicon": 5}}, "domain_lexicon"),
            ("annotate", {"annotator": {"domain_lexicon": True}}, "domain_lexicon"),
            ("annotate", {"annotator": {"sentiment_lexicon": 5}}, "sentiment_lexicon"),
            ("annotate", {"annotator": {"sentiment_lexicon": True}}, "sentiment_lexicon"),
            ("annotate", {"annotator": {"kind": "remote", "url": 5}}, "url"),
            (
                "annotate",
                {"annotator": {"kind": "remote", "url": UNUSED_URL, "token_env": 3}},
                "token_env",
            ),
            (
                "annotate",
                {"annotator": {"kind": "remote", "url": UNUSED_URL, "timeout": "soon"}},
                "timeout",
            ),
            (
                "annotate",
                {"annotator": {"kind": "remote", "url": UNUSED_URL, "timeout": -1}},
                "timeout",
            ),
            (
                "annotate",
                {"annotator": {"kind": "remote", "url": UNUSED_URL, "timeout": 0}},
                "timeout",
            ),
            ("benchmark", {"models": {"neural_net": {"rho": 1.5}}}, "models.neural_net.rho"),
        ],
    )
    def test_wrong_shape_fails_naming_the_key(
        self, pipeline, tmp_path, capsys, command, payload, key
    ):
        # the output directory then comes from the config under test
        err = self._fail(pipeline, tmp_path, capsys, command, payload, key != "output_dir")
        assert err.startswith(f"error: config {key} must be ")

    @pytest.mark.parametrize("command", ["synth", "annotate", "features", "benchmark", "verify"])
    def test_unknown_key_fails_naming_valid_keys(self, pipeline, tmp_path, capsys, command):
        err = self._fail(pipeline, tmp_path, capsys, command, {"topk": 3, "seeed": 4})
        assert err.startswith(
            "error: unknown config key(s) seeed, topk; valid keys: seed, output_dir, domain,"
        )

    # logistic regression is the binomial elastic net at lambda = 0, so the
    # intercept, column dropping and coefficient cap are not settings
    @pytest.mark.parametrize("key", ["remove_collinear", "intercept", "coefficient_cap"])
    def test_fixed_logistic_key_fails(self, pipeline, tmp_path, capsys, key):
        payload = {"models": {"logistic": {key: True}}}
        err = self._fail(pipeline, tmp_path, capsys, "benchmark", payload)
        assert err.startswith(f"error: config models.logistic: unknown hyperparameters ['{key}']")

    @pytest.mark.parametrize("payload, flags", [({}, ["--top-k", "-1"]), ({"top_k": 0}, [])])
    def test_top_k_below_one_fails(self, pipeline, tmp_path, capsys, payload, flags):
        err = self._fail(pipeline, tmp_path, capsys, "features", payload, flags=flags)
        assert err.startswith("error: top_k must be at least 1, got ")

    @staticmethod
    def _fail(pipeline, tmp_path, capsys, command, payload, output_dir=True, flags=()):
        """stderr of a command run with the config, after checking it exits 1 writing nothing."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        inputs = {
            "synth": ["--n-users", "20"],
            "annotate": [str(pipeline["dataset"])],
            "features": [str(pipeline["dataset"]), "--domain", TECH],
            "benchmark": [str(pipeline["matrix"])],
            "verify": [],
        }[command]
        out = tmp_path / "out"
        flag = ["--output-dir", str(out)] if output_dir else []
        rc = main([command, *inputs, *flags, "--config", str(config), *flag])
        assert rc == 1
        assert not out.exists() or not any(out.iterdir())
        return capsys.readouterr().err


class TestVerify:
    def test_all_fixtures_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == len(FIXTURES)
        assert "FAIL" not in out
        assert f"{len(FIXTURES)}/{len(FIXTURES)} fixtures passed" in out

    def test_list_names_and_descriptions(self, capsys):
        assert main(["verify", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(FIXTURES)
        for name, line in zip(FIXTURES, lines):
            assert line.startswith(f"{name}: ")
            assert len(line.split(": ", 1)[1]) > 0

    def test_distribution_fixture_runs_the_accumulator(self, capsys, monkeypatch):
        # a splitter that ignores the scores and weighs every domain alike
        def even_split(dataset, annotations, placement=None):
            flat = tuple(
                tuple(d._replace(score=1.0) for d in domains)
                for domains in annotations.merged_domains
            )
            return accumulate_domain_features(
                dataset, annotations._replace(merged_domains=flat), placement
            )

        monkeypatch.setattr(domcred.verify, "accumulate_domain_features", even_split)
        assert main(["verify", "engagement-distribution"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("FAIL engagement-distribution: pooled (r, l, sn) cells")
        assert "0/1 fixtures passed" in out

    def test_single_fixture_selection(self, capsys):
        assert main(["verify", "confusion-rates"]) == 0
        out = capsys.readouterr().out
        assert "PASS confusion-rates" in out
        assert "1/1 fixtures passed" in out

    def test_unknown_fixture_fails(self, capsys):
        assert main(["verify", "ninth-moon"]) == 1
        assert "unknown fixtures" in capsys.readouterr().err

    def test_python_dash_m_runs_the_cli(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "domcred", "verify"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "6/6 fixtures passed" in result.stdout

    def test_a_failing_fixture_fails_under_python_O(self):
        # -O strips assert statements, so the checks must raise on their own
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        code = (
            "import sys, domcred.verify\n"
            "from domcred.cli import main\n"
            "domcred.verify.scale_by_max = lambda values: {k: 0.5 for k in values}\n"
            "sys.exit(main(['verify', 'retweet-scaling']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert result.stdout.startswith("FAIL retweet-scaling: ")
        assert "0/1 fixtures passed" in result.stdout


def _readme_commands():
    """The `domcred ...` lines of the README's five-step sh block, split."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI in five steps", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("domcred ")
    ]


def _in_work(argv, work):
    """The README's `work` directory mapped to ``work``."""
    return [
        str(work / arg[len("work/"):]) if arg.startswith("work/")
        else str(work) if arg == "work" else arg
        for arg in argv
    ]


class TestReadme:
    def test_five_step_walk_through_runs(self, tmp_path):
        commands = _readme_commands()
        assert [argv[0] for argv in commands] == [
            "synth", "ingest", "annotate", "features", "benchmark",
        ]
        for argv in commands:
            argv = _in_work(argv, tmp_path)
            assert main(argv) == 0, argv
        assert (tmp_path / "benchmark_table.txt").is_file()

    def test_library_example_runs(self, tmp_path, capsys):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("## Library use", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0].replace('"work/', f'"{tmp_path}/')
        assert main(_in_work(_readme_commands()[0], tmp_path)) == 0
        exec(compile(block, "README.md", "exec"), {})
        assert "random_forest" in capsys.readouterr().out
