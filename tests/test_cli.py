"""End-to-end tests for the command-line interface."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from domcred.cli import main
from domcred.features import load_matrix
from domcred.learn import ALGORITHMS
from domcred.verify import fixture_names

TECH = "Technology and Computing"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> ingest -> features run shared by the read-only tests."""
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
        "matrix": feat_dir / "features.csv",
        "report_txt": feat_dir / "features_report.txt",
        "report_json": feat_dir / "features_report.json",
        "ingest_report": data_dir / "ingest_report.json",
        "bare_matrix": bare_dir / "features.csv",
    }


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


class TestIngest:
    def test_report_counts(self, pipeline):
        report = json.loads(pipeline["ingest_report"].read_text())
        assert report["counts"]["users"] == 60
        assert report["counts"]["tweets"] > 0
        assert "load" in report and "cleanse" in report

    def test_malformed_line_skipped_and_counted(self, pipeline, tmp_path, capsys):
        broken = tmp_path / "broken.jsonl"
        shutil.copy(pipeline["archive"], broken)
        with broken.open("a", encoding="utf-8") as fh:
            fh.write("{{{not json\n")
        bad_line = sum(1 for _ in broken.open())

        rc = main(["ingest", str(broken), "--output-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out/ingest_report.json").read_text())
        assert report["load"]["malformed_lines"] == 1
        assert report["load"]["malformed_line_numbers"] == [bad_line]

        capsys.readouterr()
        rc = main(
            ["ingest", str(broken), "--fail-fast", "--output-dir", str(tmp_path / "ff")]
        )
        assert rc == 1
        assert f"line {bad_line}" in capsys.readouterr().err


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

    def test_remote_without_url_fails(self, pipeline, tmp_path, capsys):
        rc = main(
            ["annotate", str(pipeline["dataset"]), "--annotator", "remote",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "annotator-url" in capsys.readouterr().err


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

    def test_unknown_domain_fails(self, pipeline, tmp_path, capsys):
        rc = main(
            ["features", str(pipeline["dataset"]), "--domain", "Basket Weaving",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "unknown domain" in capsys.readouterr().err

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
        assert "labels refer to unknown users: ['nobody']" in capsys.readouterr().err
        assert not (tmp_path / "features.csv").exists()


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


class TestVerify:
    def test_all_fixtures_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        names = fixture_names()
        assert out.count("PASS") == len(names)
        assert "FAIL" not in out
        assert f"{len(names)}/{len(names)} fixtures passed" in out

    def test_list_names_and_descriptions(self, capsys):
        assert main(["verify", "--list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(fixture_names())
        for name, line in zip(fixture_names(), lines):
            assert line.startswith(f"{name}: ")
            assert len(line.split(": ", 1)[1]) > 0

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


def _readme_commands():
    """The `domcred ...` lines of the README's five-step sh block, split."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI in five steps", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [
        shlex.split(line)[1:] for line in block.splitlines() if line.startswith("domcred ")
    ]


class TestReadme:
    def test_five_step_walk_through_runs(self, tmp_path):
        commands = _readme_commands()
        assert [argv[0] for argv in commands] == [
            "synth", "ingest", "annotate", "features", "benchmark",
        ]
        for argv in commands:
            argv = [
                str(tmp_path / arg[len("work/"):]) if arg.startswith("work/")
                else str(tmp_path) if arg == "work" else arg
                for arg in argv
            ]
            assert main(argv) == 0, argv
        assert (tmp_path / "benchmark_table.txt").is_file()
