"""Tests for the tokenizer (Section 4.1 rules)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tokens import tokenizer
from repro.tokens.classes import TokenClass
from repro.tokens.token import Token
from repro.tokens.tokenizer import (
    MAX_INTERNED_RUN,
    detokenize_lengths,
    leaf_shape,
    split_by_tokens,
    tokenize,
    tokenize_all,
    tokenize_reference,
)


class TestTokenizeExamples:
    def test_paper_example_3(self):
        """'Bob123@gmail.com' -> [<U>, <L>2, <D>3, '@', <L>5, '.', <L>3]."""
        tokens = tokenize("Bob123@gmail.com")
        assert [t.notation() for t in tokens] == [
            "<U>", "<L>2", "<D>3", "'@'", "<L>5", "'.'", "<L>3",
        ]

    def test_phone_number(self):
        tokens = tokenize("(734) 645-8397")
        assert [t.notation() for t in tokens] == [
            "'('", "<D>3", "')'", "' '", "<D>3", "'-'", "<D>4",
        ]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_single_punctuation_characters_are_individual_literals(self):
        tokens = tokenize("--")
        assert len(tokens) == 2
        assert all(t.is_literal and t.literal == "-" for t in tokens)

    def test_most_precise_class_is_chosen(self):
        tokens = tokenize("cat")
        assert tokens == [Token.base(TokenClass.LOWER, 3)]

    def test_case_change_splits_runs(self):
        tokens = tokenize("McMillan")
        assert [t.notation() for t in tokens] == ["<U>", "<L>", "<U>", "<L>5"]

    def test_quantifiers_are_natural_numbers(self):
        for token in tokenize("abc123XYZ"):
            assert isinstance(token.quantifier, int)

    def test_unicode_characters_become_literals(self):
        tokens = tokenize("naïve")
        assert any(t.is_literal and t.literal == "ï" for t in tokens)

    def test_tokenize_all(self):
        results = tokenize_all(["a1", "b2"])
        assert len(results) == 2
        assert [t.notation() for t in results[0]] == ["<L>", "<D>"]


class TestSplitByTokens:
    def test_roundtrip(self):
        value = "Bob123@gmail.com"
        tokens = tokenize(value)
        pieces = split_by_tokens(value, tokens)
        assert "".join(pieces) == value
        assert pieces == ["Bob"[:1], "ob", "123", "@", "gmail", ".", "com"]

    def test_mismatched_length_raises(self):
        with pytest.raises(ValueError):
            split_by_tokens("abc", tokenize("abcd"))

    def test_detokenize_lengths_rejects_plus(self):
        from repro.tokens.token import PLUS

        with pytest.raises(ValueError):
            detokenize_lengths([Token.base(TokenClass.DIGIT, PLUS)])


# A printable-ASCII alphabet that keeps hypothesis inputs in the domain the
# tokenizer is designed for (the paper's data is ASCII).
ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=40
)


class TestTokenizerProperties:
    @given(ascii_text)
    def test_tokens_cover_the_string_exactly(self, value):
        tokens = tokenize(value)
        assert sum(t.fixed_length for t in tokens) == len(value)

    @given(ascii_text)
    def test_split_reconstructs_the_string(self, value):
        tokens = tokenize(value)
        assert "".join(split_by_tokens(value, tokens)) == value

    @given(ascii_text)
    def test_each_token_matches_its_own_piece(self, value):
        tokens = tokenize(value)
        for token, piece in zip(tokens, split_by_tokens(value, tokens)):
            assert token.matches_text(piece)

    @given(ascii_text)
    def test_adjacent_base_tokens_never_share_a_class(self, value):
        tokens = tokenize(value)
        for left, right in zip(tokens, tokens[1:]):
            if not left.is_literal and not right.is_literal:
                assert left.klass is not right.klass

    @given(ascii_text)
    def test_tokenization_is_deterministic(self, value):
        assert tokenize(value) == tokenize(value)


#: Characters the differential draws from: every base class, punctuation,
#: whitespace controls, and non-ASCII characters that ``str.isdigit`` or
#: ``str.isalpha`` accept but no base class does.
_DIGITS = "0123456789"
_LOWER = "abcdefghijklmnopqrstuvwxyz"
_UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_OTHER = "-_.,;:()[]@/'\" \n\r\t²½١Üé"
_ALPHABET = _DIGITS + _LOWER + _UPPER + _OTHER


def _random_value(rng) -> str:
    """A short mixed string, sometimes empty, sometimes holding a long run."""
    roll = rng.random()
    if roll < 0.05:
        return ""
    if roll < 0.15:
        run = rng.choice((_DIGITS, _LOWER, _UPPER, "\u00e9"))
        length = rng.randrange(MAX_INTERNED_RUN - 2, 3 * MAX_INTERNED_RUN)
        return "".join(rng.choice(run) for _ in range(length)) + rng.choice(_OTHER)
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randrange(1, 24)))


def _same_class_swap(rng, value: str) -> str:
    """``value`` with some characters replaced by others of the same class."""
    out = []
    for char in value:
        for pool in (_DIGITS, _LOWER, _UPPER):
            if char in pool and rng.random() < 0.5:
                char = rng.choice(pool)
        out.append(char)
    return "".join(out)


def _perturb(rng, value: str) -> str:
    """A near miss of ``value``: one character inserted, dropped or replaced."""
    index = rng.randrange(len(value) + 1)
    roll = rng.random()
    if roll < 0.4 or not value:
        return value[:index] + rng.choice(_ALPHABET) + value[index:]
    index = min(index, len(value) - 1)
    if roll < 0.7:
        return value[:index] + value[index + 1 :]
    return value[:index] + rng.choice(_ALPHABET) + value[index + 1 :]


class TestCompiledTokenizer:
    """The compiled :func:`tokenize` against the character-loop specification."""

    def test_equals_the_reference_on_random_strings(self, property_rng):
        values = [_random_value(property_rng) for _ in range(3_000)]
        values += ["", "\n", "\r\n", "\t\t", "0aA", "²½١Üé", "7" * 500, "x" * 65]
        for value in values:
            assert tokenize(value) == tokenize_reference(value), repr(value)

    def test_equal_shapes_exactly_when_equal_tokenizations(self, property_rng):
        outcomes = set()
        for _ in range(3_000):
            left = _random_value(property_rng)
            right = (
                _same_class_swap(property_rng, left)
                if property_rng.random() < 0.5
                else _perturb(property_rng, _same_class_swap(property_rng, left))
            )
            same_shape = leaf_shape(left) == leaf_shape(right)
            assert same_shape == (tokenize(left) == tokenize(right)), (left, right)
            assert same_shape == (tokenize_reference(left) == tokenize_reference(right))
            outcomes.add(same_shape)
        # The pairs were drawn to land on both sides of the invariant.
        assert outcomes == {True, False}

    def test_interned_tokens_equal_fresh_ones(self, property_rng):
        for _ in range(500):
            for token in tokenize(_random_value(property_rng)):
                fresh = (
                    Token.lit(token.literal)
                    if token.is_literal
                    else Token.base(token.klass, token.quantifier)
                )
                assert token == fresh and hash(token) == hash(fresh)

    def test_short_ascii_pieces_are_shared(self):
        first, second = tokenize("ab-12"), tokenize("cd-34")
        assert all(left is right for left, right in zip(first, second))

    def test_intern_table_stays_bounded(self):
        before = dict(tokenizer._INTERNED)
        assert len(before) <= 3 * MAX_INTERNED_RUN + 128
        assert all(piece.isascii() for piece in before)
        for code in range(0x4E00, 0x4E00 + 5_000):
            assert tokenize(f"a{chr(code)}1")[1] == Token.lit(chr(code))
        for length in range(1, 4 * MAX_INTERNED_RUN):
            assert tokenize("z" * length) == [Token.base(TokenClass.LOWER, length)]
        assert tokenizer._INTERNED == before
