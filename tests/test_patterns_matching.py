"""Tests for pattern matching with per-token spans."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.patterns.matching import match_pattern, matches, pattern_of_string
from repro.patterns.parse import parse_pattern


class TestMatchPattern:
    def test_returns_per_token_substrings(self):
        pattern = parse_pattern("'('<D>3')'' '<D>3'-'<D>4")
        assert match_pattern("(734) 645-8397", pattern) == [
            "(", "734", ")", " ", "645", "-", "8397",
        ]

    def test_non_matching_returns_none(self):
        pattern = parse_pattern("<D>3")
        assert match_pattern("12", pattern) is None
        assert match_pattern("1234", pattern) is None
        assert match_pattern("abc", pattern) is None
        assert match_pattern("123\n", pattern) is None  # "$" alone admits a final "\n"

    def test_plus_tokens_capture_full_runs(self):
        pattern = parse_pattern("<U>+'-'<D>+")
        assert match_pattern("CPT-00350", pattern) == ["CPT", "-", "00350"]

    def test_empty_pattern_matches_only_empty_string(self):
        empty = parse_pattern("")
        assert match_pattern("", empty) == []
        assert match_pattern("x", empty) is None

    def test_matches_boolean_form(self):
        pattern = parse_pattern("<D>2")
        assert matches("12", pattern)
        assert not matches("123", pattern)


class TestPatternOfString:
    def test_leaf_pattern(self):
        assert pattern_of_string("734-422-8073").notation() == "<D>3'-'<D>3'-'<D>4"

    def test_empty_string(self):
        assert len(pattern_of_string("")) == 0


ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
)


class TestMatchingProperties:
    @given(ascii_text)
    def test_every_string_matches_its_own_pattern(self, value):
        pattern = pattern_of_string(value)
        pieces = match_pattern(value, pattern)
        assert pieces is not None
        assert "".join(pieces) == value

    @given(ascii_text, ascii_text)
    def test_match_spans_concatenate_to_the_input(self, value, other):
        pattern = pattern_of_string(value)
        pieces = match_pattern(other, pattern)
        if pieces is not None:
            assert "".join(pieces) == other
