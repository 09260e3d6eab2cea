"""Lexicon parsing and scoring."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from domcred.lexicon import (
    LexiconFormatError,
    builtin_domain_lexicon,
    builtin_sentiment_lexicon,
    load_domain_lexicon,
    load_sentiment_lexicon,
    parse_domain_lexicon,
    parse_sentiment_lexicon,
    tokenize,
)

from helpers import brute_hit_counts, brute_sentiment_score

DOMAINS_TEXT = """
# comment
[Tech]
python
server

[Food]
pizza
python
"""

SENTIMENT_TEXT = "great\t+1\nbad\t-1\nfine\t1\n"


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Big.Data, and ML!") == ["big", "data", "and", "ml"]

    def test_keeps_digits_and_apostrophes(self):
        assert tokenize("it's web3") == ["it's", "web3"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("!!! ---") == []


class TestDomainParsing:
    def test_sections_and_terms(self):
        lex = parse_domain_lexicon(DOMAINS_TEXT)
        assert lex.domains == ("Food", "Tech")
        assert lex.terms["Tech"] == frozenset({"python", "server"})
        assert "python" in lex.terms["Food"]

    def test_term_before_header_rejected(self):
        with pytest.raises(LexiconFormatError, match="before any"):
            parse_domain_lexicon("python\n[Tech]\n")

    def test_multiword_term_rejected(self):
        with pytest.raises(LexiconFormatError, match="single token"):
            parse_domain_lexicon("[Tech]\nmachine learning\n")

    def test_empty_domain_name_rejected(self):
        with pytest.raises(LexiconFormatError, match="empty domain"):
            parse_domain_lexicon("[  ]\npython\n")

    def test_no_domains_rejected(self):
        with pytest.raises(LexiconFormatError, match="no domains"):
            parse_domain_lexicon("# nothing here\n")

    def test_error_carries_line_number(self):
        with pytest.raises(LexiconFormatError, match="line 3"):
            parse_domain_lexicon("[Tech]\npython\nnot a token\n")


class TestHitCounts:
    def test_counts_every_occurrence(self):
        lex = parse_domain_lexicon(DOMAINS_TEXT)
        counts = lex.hit_counts("python loves PYTHON and pizza")
        assert counts == {"Tech": 2, "Food": 3}

    def test_no_hits_is_empty(self):
        lex = parse_domain_lexicon(DOMAINS_TEXT)
        assert lex.hit_counts("nothing relevant here") == {}

    def test_matching_is_token_exact(self):
        lex = parse_domain_lexicon(DOMAINS_TEXT)
        # "pythonic" must not count as "python"
        assert lex.hit_counts("pythonic servers") == {}


class TestSentimentParsing:
    def test_polarities(self):
        lex = parse_sentiment_lexicon(SENTIMENT_TEXT)
        assert lex.polarity == {"great": 1, "bad": -1, "fine": 1}

    def test_missing_tab_rejected(self):
        with pytest.raises(LexiconFormatError, match="term<TAB>polarity"):
            parse_sentiment_lexicon("great +1\n")

    def test_bad_polarity_rejected(self):
        with pytest.raises(LexiconFormatError, match="not \\+1/-1"):
            parse_sentiment_lexicon("great\t2\n")

    def test_empty_rejected(self):
        with pytest.raises(LexiconFormatError, match="empty"):
            parse_sentiment_lexicon("# only comments\n")


class TestSentimentScore:
    def test_balance_over_token_count(self):
        lex = parse_sentiment_lexicon(SENTIMENT_TEXT)
        # 2 positive, 1 negative, 5 tokens
        assert lex.score("great great bad and so") == pytest.approx(1 / 5)

    def test_gain_scales_before_clamping(self):
        lex = parse_sentiment_lexicon(SENTIMENT_TEXT)
        base = lex.score("great stuff")
        assert lex.score("great stuff", gain=1.5) == pytest.approx(1.5 * base)
        assert lex.score("great great", gain=5.0) == 1.0

    def test_empty_text_neutral(self):
        lex = parse_sentiment_lexicon(SENTIMENT_TEXT)
        assert lex.score("") == 0.0

    @given(st.text(max_size=200), st.floats(min_value=0.1, max_value=10.0))
    def test_score_always_in_range(self, text, gain):
        lex = builtin_sentiment_lexicon()
        assert -1.0 <= lex.score(text, gain=gain) <= 1.0


class TestBuiltins:
    def test_domain_lexicon_loads(self):
        lex = builtin_domain_lexicon()
        assert "Technology and Computing" in lex.domains
        assert len(lex.domains) >= 4
        assert lex.hit_counts("python software")["Technology and Computing"] == 2

    def test_sentiment_lexicon_loads(self):
        lex = builtin_sentiment_lexicon()
        assert lex.score("great awesome") == 1.0
        assert lex.score("terrible awful") == -1.0


class TestLexiconFiles:
    def test_packaged_files_load_as_the_builtins(self):
        data = Path(__file__).resolve().parent.parent / "src/domcred/data"
        assert load_domain_lexicon(data / "domains.lex") == builtin_domain_lexicon()
        assert load_sentiment_lexicon(data / "sentiment.lex") == builtin_sentiment_lexicon()

    @pytest.mark.parametrize(
        "load, content",
        [
            (load_domain_lexicon, b"python\n"),
            (load_domain_lexicon, b"[Tech]\n\xff\n"),
            (load_sentiment_lexicon, b"good\t+2\n"),
        ],
    )
    def test_a_bad_file_is_named(self, tmp_path, load, content):
        path = tmp_path / "bad.lex"
        path.write_bytes(content)
        with pytest.raises(LexiconFormatError, match=f"^{re.escape(str(path))}: "):
            load(path)


class TestOnePassAgainstTwoPass:
    """The one-pass scorers equal the per-domain and per-polarity passes."""

    words = st.sampled_from(
        ["python", "server", "pizza", "great", "bad", "fine", "the", "Python!", "x", "\n"]
    )
    texts = st.lists(words, max_size=30).map(" ".join)

    @given(texts)
    def test_hit_counts_equal_with_key_order(self, text):
        # "python" is a term of both domains and counts for each
        lex = parse_domain_lexicon(DOMAINS_TEXT)
        counts = lex.hit_counts(text)
        expected = brute_hit_counts(lex, text)
        assert counts == expected
        assert list(counts) == list(expected)

    @given(st.text(max_size=200))
    def test_builtin_hit_counts_equal_with_key_order(self, text):
        lex = builtin_domain_lexicon()
        counts = lex.hit_counts(text)
        assert list(counts.items()) == list(brute_hit_counts(lex, text).items())

    @given(texts, st.floats(min_value=0.01, max_value=10.0))
    def test_score_is_bit_identical(self, text, gain):
        lex = parse_sentiment_lexicon(SENTIMENT_TEXT)
        assert repr(lex.score(text, gain=gain)) == repr(brute_sentiment_score(lex, text, gain))

    @given(st.text(max_size=200), st.floats(min_value=0.01, max_value=10.0))
    def test_builtin_score_is_bit_identical(self, text, gain):
        lex = builtin_sentiment_lexicon()
        assert repr(lex.score(text, gain=gain)) == repr(brute_sentiment_score(lex, text, gain))
