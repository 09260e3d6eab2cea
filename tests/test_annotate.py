"""Annotation providers and persistence."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from domcred.annotate import (
    AnnotationColumns,
    AnnotatorError,
    DomainAnnotation,
    LexiconAnnotator,
    RemoteAnnotator,
    annotate_dataset,
    load_annotation_columns,
    save_annotations,
)
from domcred.lexicon import parse_domain_lexicon, parse_sentiment_lexicon

from helpers import annotation_columns, make_dataset, make_reply, make_tweet, make_user

TECH = "Technology and Computing"


def small_annotator(min_hits=2, gain=1.0):
    domains = parse_domain_lexicon(
        "[Tech]\npython\nserver\ncode\n[Food]\npizza\npasta\n[News]\nheadline\n"
    )
    sentiment = parse_sentiment_lexicon("great\t+1\nbad\t-1\n")
    return LexiconAnnotator(domains, sentiment, gain=gain, min_hits=min_hits)


class TestLexiconAnnotator:
    def test_top_domain_scores_one(self):
        ann = small_annotator()
        result = ann.infer_taxonomy("python server code pizza")
        assert result[0] == DomainAnnotation("Tech", 1.0, confident=True)
        assert result[1].label == "Food"
        assert result[1].score == pytest.approx(1 / 3)

    def test_confidence_needs_min_hits(self):
        ann = small_annotator(min_hits=2)
        (only,) = ann.infer_taxonomy("pizza tonight")
        assert only.label == "Food" and not only.confident
        (only,) = ann.infer_taxonomy("pizza pasta tonight")
        assert only.confident

    def test_truncates_to_three(self):
        domains = parse_domain_lexicon(
            "[A]\naa\n[B]\nbb\n[C]\ncc\n[D]\ndd\n"
        )
        sentiment = parse_sentiment_lexicon("great\t+1\n")
        ann = LexiconAnnotator(domains, sentiment)
        result = ann.infer_taxonomy("aa aa aa bb bb cc dd")
        assert [d.label for d in result] == ["A", "B", "C"]

    def test_no_hits_empty(self):
        assert small_annotator().infer_taxonomy("nothing to see") == ()

    def test_ties_break_by_label(self):
        ann = small_annotator()
        result = ann.infer_taxonomy("python pizza")
        assert [d.label for d in result] == ["Food", "Tech"]

    def test_sentiment_uses_gain(self):
        ann = small_annotator(gain=2.0)
        assert ann.score_sentiment("great day") == pytest.approx(1.0)

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError, match="gain"):
            small_annotator(gain=0.0)
        with pytest.raises(ValueError, match="min_hits"):
            small_annotator(min_hits=0)

    @pytest.mark.parametrize("gain", [float("inf"), float("nan")])
    def test_rejects_non_finite_gain(self, gain):
        with pytest.raises(ValueError, match="gain must be positive and finite"):
            small_annotator(gain=gain)


class FailingAnnotator:
    """Delegates to a lexicon annotator but fails on marked texts."""

    def __init__(self):
        self.inner = small_annotator(min_hits=1)

    def infer_taxonomy(self, text):
        if "poison" in text:
            raise AnnotatorError("marked text")
        return self.inner.infer_taxonomy(text)

    def score_sentiment(self, text):
        if "poison" in text:
            raise AnnotatorError("marked text")
        return self.inner.score_sentiment(text)


class OutOfRangeAnnotator:
    """Scores every reply with one sentiment and, given a score, gives every
    tweet one Tech domain with that score; either may lie outside its range."""

    def __init__(self, sentiment=0.0, score=None):
        self.sentiment = sentiment
        self.score = score

    def infer_taxonomy(self, text):
        return () if self.score is None else (DomainAnnotation("Tech", self.score),)

    def score_sentiment(self, text):
        return self.sentiment


class TestAnnotateDataset:
    def dataset(self):
        users = [make_user("u1"), make_user("u2")]
        tweets = [
            make_tweet("t1", "u1", text="python code all day"),
            make_tweet("t2", "u2", text="no domain words here"),
            make_tweet("t3", "u2", text="pizza pasta"),
        ]
        replies = [
            make_reply("r1", "t1", "u2", text="great work"),
            make_reply("r2", "t1", "u2", text="so so"),
        ]
        return make_dataset(users, tweets, replies).columns

    def test_annotates_in_dataset_order(self):
        annotations, report = annotate_dataset(self.dataset(), small_annotator())
        assert annotations.tweet_ids == ("t1", "t2", "t3")
        assert annotations.reply_ids == ("r1", "r2")
        assert [[d.label for d in ds] for ds in annotations.merged_domains] == [
            ["Tech"],
            [],
            ["Food"],
        ]
        assert annotations.sentiments == (0.5, 0.0)
        assert report.n_tweets == 3
        assert report.n_annotatable == 2
        assert report.n_not_annotatable == 1
        assert report.n_neutral_replies == 1

    def test_provider_reads_each_text_once_in_id_order(self):
        seen = []

        class Recording:
            def infer_taxonomy(self, text):
                seen.append(text)
                return ()

            def score_sentiment(self, text):
                seen.append(text)
                return 0.0

        users = [make_user("u1")]
        tweets = [make_tweet(f"t{i}", "u1", text=f"tweet {i}") for i in (3, 1, 2)]
        replies = [make_reply(f"r{i}", "t1", "u1", text=f"reply {i}") for i in (2, 1)]
        annotate_dataset(make_dataset(users, tweets, replies).columns, Recording())
        assert seen == ["tweet 1", "tweet 2", "tweet 3", "reply 1", "reply 2"]

    def test_failures_recorded_and_neutralized(self):
        users = [make_user("u1")]
        tweets = [make_tweet("t1", "u1", text="poison python")]
        replies = [make_reply("r1", "t1", "u1", text="poison reply")]
        annotations, report = annotate_dataset(
            make_dataset(users, tweets, replies).columns, FailingAnnotator()
        )
        assert annotations == annotation_columns([("t1", ())], [("r1", 0.0)])
        assert [f[0] for f in report.failures] == ["t1", "r1"]

    def test_fail_fast_raises(self):
        users = [make_user("u1")]
        tweets = [make_tweet("t1", "u1", text="poison")]
        with pytest.raises(AnnotatorError):
            annotate_dataset(
                make_dataset(users, tweets).columns, FailingAnnotator(), fail_fast=True
            )

    # NaN and the infinities too, which save_annotations could not write as JSON
    @pytest.mark.parametrize("sentiment", [1.5, float("nan"), -float("inf")])
    def test_sentiment_outside_its_range_fails_naming_the_reply(self, sentiment):
        with pytest.raises(ValueError, match=r"^sentiment for r1 outside \[-1, 1\]$"):
            annotate_dataset(self.dataset(), OutOfRangeAnnotator(sentiment))

    # a record does not check itself, so annotate_dataset checks what a provider gives
    @pytest.mark.parametrize("score", [1.5, -0.1, float("nan")])
    def test_score_outside_its_range_fails_naming_the_tweet(self, score):
        want = rf"^tweet t1: score for 'Tech' outside \[0, 1\]: {score}$"
        with pytest.raises(ValueError, match=want):
            annotate_dataset(self.dataset(), OutOfRangeAnnotator(score=score))

    def test_report_round_trips_to_dict(self):
        _, report = annotate_dataset(self.dataset(), small_annotator())
        payload = report.to_dict()
        assert payload["n_tweets"] == 3
        assert payload["n_annotatable"] + payload["n_not_annotatable"] == 3


class TestPersistence:
    def test_round_trip(self, tmp_path):
        annotations, _ = annotate_dataset(TestAnnotateDataset().dataset(), small_annotator())
        path = tmp_path / "annotations.jsonl"
        save_annotations(annotations, path)
        assert load_annotation_columns(path) == annotations

    def test_report_line_optional(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        save_annotations(annotation_columns(), path)
        assert load_annotation_columns(path) == annotation_columns()

    @pytest.mark.parametrize(
        "tweets, replies",
        [((("t1", "t2"), ((),)), ((), ())), ((("t1",), ((),)), (("r1",), ()))],
        ids=["tweets", "replies"],
    )
    def test_ragged_columns_fail_and_write_nothing(self, tmp_path, tweets, replies):
        path = tmp_path / "annotations.jsonl"
        with pytest.raises(ValueError, match="shorter|longer"):
            save_annotations(AnnotationColumns(*tweets, *replies), path)
        assert not path.exists()

    # unchecked, nan and inf were written as such, and the reader then
    # refused the writer's own file on line 1 with "Expecting value"
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5, 1.5])
    def test_score_outside_its_range_fails_naming_the_first_tweet(self, tmp_path, bad):
        good = (DomainAnnotation("Arts", 1),)
        worse = (DomainAnnotation("Arts", 0.5), DomainAnnotation("News", bad))
        columns = AnnotationColumns(
            ("t1", "t2", "t3", "t4"), (good, worse, (DomainAnnotation("Sports", 2.0),), worse),
            (), (),
        )
        path = tmp_path / "annotations.jsonl"
        with pytest.raises(ValueError) as caught:
            save_annotations(columns, path)
        assert str(caught.value) == f"tweet t2: score for 'News' outside [0, 1]: {bad}"
        assert not path.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 1.5])
    def test_sentiment_outside_its_range_fails_naming_the_first_reply(self, tmp_path, bad):
        columns = AnnotationColumns(
            ("t1",), ((DomainAnnotation("Arts", 1.0),),),
            ("r1", "r2", "r3", "r4"), (-0.0, bad, -2.0, bad),
        )
        path = tmp_path / "annotations.jsonl"
        with pytest.raises(ValueError) as caught:
            save_annotations(columns, path)
        assert str(caught.value) == "sentiment for r2 outside [-1, 1]"
        assert not path.exists()

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text('{"kind": "mystery"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="mystery"):
            load_annotation_columns(path)


class _Handler(BaseHTTPRequestHandler):
    payload: dict = {}
    status = 200

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        type(self).last_request = json.loads(body)
        type(self).last_auth = self.headers.get("Authorization")
        response = json.dumps(self.payload).encode("utf-8")
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(response)))
        self.end_headers()
        self.wfile.write(response)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_service():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}", _Handler
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteAnnotator:
    def test_parses_taxonomy(self, http_service):
        url, handler = http_service
        handler.payload = {
            "domains": [
                {"label": "Food", "score": 0.5},
                {"label": "Tech", "score": 1.0, "confident": True},
            ],
            "sentiment": 0.25,
        }
        handler.status = 200
        remote = RemoteAnnotator(url)
        result = remote.infer_taxonomy("anything")
        assert [d.label for d in result] == ["Tech", "Food"]
        assert result[0].confident
        assert remote.score_sentiment("anything") == 0.25
        assert handler.last_request == {"text": "anything"}

    def test_sentiment_clamped(self, http_service):
        url, handler = http_service
        handler.payload = {"sentiment": 7.0}
        assert RemoteAnnotator(url).score_sentiment("x") == 1.0

    def test_token_sent_when_env_set(self, http_service, monkeypatch):
        url, handler = http_service
        handler.payload = {"domains": [], "sentiment": 0.0}
        monkeypatch.setenv("ANNOTATE_TOKEN", "secret")
        RemoteAnnotator(url, token_env="ANNOTATE_TOKEN").score_sentiment("x")
        assert handler.last_auth == "Bearer secret"

    def test_http_error_wrapped(self, http_service):
        url, handler = http_service
        handler.payload = {}
        handler.status = 500
        with pytest.raises(AnnotatorError, match="annotation service failed"):
            RemoteAnnotator(url).score_sentiment("x")
        handler.status = 200

    # one fault per case, beside a valid value on the other side of the payload
    @pytest.mark.parametrize(
        "domain, sentiment, call, match",
        [
            ({"score": 0.5}, 0.0, "infer_taxonomy", "bad taxonomy"),
            ({"label": None, "score": 0.5}, 0.0, "infer_taxonomy", "bad taxonomy"),
            (
                {"label": "Tech", "score": 0.5, "confident": "false"},
                0.0,
                "infer_taxonomy",
                "bad taxonomy",
            ),
            ({"label": "Tech", "score": "0.5"}, 0.0, "infer_taxonomy", "bad taxonomy"),
            ({"label": "Tech", "score": float("nan")}, 0.0, "infer_taxonomy", "bad taxonomy"),
            ({"label": "Tech", "score": True}, 0.0, "infer_taxonomy", "bad taxonomy"),
            ({"label": "Tech", "score": 10**400}, 0.0, "infer_taxonomy", "bad taxonomy"),
            (
                {"label": "Tech", "score": 1.5},
                0.0,
                "infer_taxonomy",
                r"bad taxonomy payload: score for 'Tech' outside \[0, 1\]: 1.5",
            ),
            ({"label": "Tech", "score": 0.5}, "not a number", "score_sentiment", "bad sentiment"),
            ({"label": "Tech", "score": 0.5}, float("nan"), "score_sentiment", "bad sentiment"),
            ({"label": "Tech", "score": 0.5}, "nan", "score_sentiment", "bad sentiment"),
            ({"label": "Tech", "score": 0.5}, "0.5", "score_sentiment", "bad sentiment"),
            ({"label": "Tech", "score": 0.5}, True, "score_sentiment", "bad sentiment"),
            ({"label": "Tech", "score": 0.5}, 10**400, "score_sentiment", "bad sentiment"),
        ],
        ids=[
            "label-missing",
            "label-null",
            "confident-string",
            "score-string",
            "score-nan",
            "score-true",
            "score-huge-int",
            "score-above-one",
            "sentiment-word",
            "sentiment-nan",
            "sentiment-string-nan",
            "sentiment-string-number",
            "sentiment-true",
            "sentiment-huge-int",
        ],
    )
    def test_bad_payload_wrapped(self, http_service, domain, sentiment, call, match):
        url, handler = http_service
        handler.payload = {"domains": [domain], "sentiment": sentiment}
        with pytest.raises(AnnotatorError, match=match):
            getattr(RemoteAnnotator(url), call)("x")

    @pytest.mark.parametrize("timeout", [0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout must be positive and finite"):
            RemoteAnnotator("http://127.0.0.1:1", timeout=timeout)

    def test_unreachable_host_wrapped(self):
        remote = RemoteAnnotator("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(AnnotatorError):
            remote.score_sentiment("x")
