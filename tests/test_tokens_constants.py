"""Tests for constant-token discovery ("Find Constant Tokens", Section 4.1)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.tokens.constants import (
    MAX_CONSTANT_LENGTH,
    constant_positions,
    discover_constant_tokens,
    promote_constants,
)
from repro.tokens.tokenizer import split_by_tokens, tokenize, tokenize_all


def _cluster(values):
    return values, tokenize_all(values)


class TestDiscovery:
    def test_shared_prefix_is_promoted(self):
        values, tokenizations = _cluster(
            ["Dr. Adams", "Dr. Brown", "Dr. Clark", "Dr. Davis"]
        )
        constants = discover_constant_tokens(values, tokenizations)
        # 'D' and 'r' positions are constant; the varying surname is not.
        assert 0 in constants and constants[0] == "D"
        assert 1 in constants and constants[1] == "r"
        assert max(constants) < 4  # surname tokens not promoted

    def test_digit_values_never_promoted(self):
        values, tokenizations = _cluster(["734-111", "734-222", "734-333"])
        constants = discover_constant_tokens(values, tokenizations)
        assert constants == {}

    def test_small_clusters_not_promoted(self):
        values, tokenizations = _cluster(["Dr. Adams", "Dr. Brown"])
        assert discover_constant_tokens(values, tokenizations, min_rows=3) == {}

    def test_threshold_controls_promotion(self):
        values, tokenizations = _cluster(
            ["Mr. Adams", "Mr. Brown", "Mr. Clark", "Ms. Davis"]
        )
        strict = discover_constant_tokens(values, tokenizations, threshold=1.0)
        lenient = discover_constant_tokens(values, tokenizations, threshold=0.7)
        assert 1 not in strict  # 'r' vs 's' varies
        assert 1 in lenient

    def test_empty_input(self):
        assert discover_constant_tokens([], []) == {}

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            discover_constant_tokens(["abc", "abd", "abe"], [tokenize("abc")])

    def test_invalid_threshold_raises(self):
        values, tokenizations = _cluster(["abc", "abd", "abe"])
        with pytest.raises(ValueError):
            discover_constant_tokens(values, tokenizations, threshold=0.0)

    def test_inconsistent_tokenization_length_raises(self):
        with pytest.raises(ValueError):
            discover_constant_tokens(
                ["ab", "a-b", "xy"], [tokenize("ab"), tokenize("a-b"), tokenize("xy")]
            )


    def test_lengths_not_covering_the_value_raise(self):
        shared = tokenize("ab-1")
        with pytest.raises(ValueError, match="do not cover"):
            discover_constant_tokens(["ab-1", "cd-2", "ef-34"], [shared] * 3)


def _reference_constants(values, tokenizations, threshold=0.9, min_rows=3):
    """Constant discovery by splitting every value with ``split_by_tokens``."""
    if not values or len(values) < min_rows:
        return {}
    per_position = [Counter() for _ in tokenizations[0]]
    for value, tokens in zip(values, tokenizations):
        for index, piece in enumerate(split_by_tokens(value, tokens)):
            per_position[index][piece] += 1
    constants = {}
    for index, counter in enumerate(per_position):
        if tokenizations[0][index].is_literal:
            continue
        text, count = counter.most_common(1)[0]
        if not text.isdigit() and count / len(values) >= threshold:
            if len(text) <= MAX_CONSTANT_LENGTH:
                constants[index] = text
    return constants


_SHAPE_POOLS = {"0": "0123456789", "a": "abcdefghij", "A": "ABCDEFGHIJ"}


def _random_cluster(rng):
    """Values of one random leaf shape; some positions mostly constant."""
    shape = "".join(rng.choice("0aA-. ") for _ in range(rng.randint(1, 8)))
    fixed = {
        position: rng.choice(_SHAPE_POOLS.get(char, char))
        for position, char in enumerate(shape)
        if rng.random() < 0.5
    }
    values = []
    for _ in range(rng.randint(1, 40)):
        chars = []
        for position, char in enumerate(shape):
            pool = _SHAPE_POOLS.get(char, char)
            keep = position in fixed and rng.random() < 0.95
            chars.append(fixed[position] if keep else rng.choice(pool))
        values.append("".join(chars))
    return values


class TestDiscoveryMatchesSplitReference:
    def test_random_clusters(self, property_rng):
        promoted = 0
        for _ in range(400):
            values = _random_cluster(property_rng)
            threshold = property_rng.choice([0.6, 0.9, 1.0])
            shared = [tokenize(values[0])] * len(values)
            own = tokenize_all(values)
            expected = _reference_constants(values, own, threshold=threshold)
            assert discover_constant_tokens(values, own, threshold=threshold) == expected
            assert discover_constant_tokens(values, shared, threshold=threshold) == expected
            promoted += bool(expected)
        assert promoted >= 50, promoted


class TestPromotion:
    def test_promote_constants_replaces_positions(self):
        tokens = tokenize("Dr. Adams")
        promoted = promote_constants(tokens, {0: "D", 1: "r"})
        assert promoted[0].is_literal and promoted[0].literal == "D"
        assert promoted[1].is_literal and promoted[1].literal == "r"
        assert not promoted[4].is_literal

    def test_promote_constants_ignores_existing_literals(self):
        tokens = tokenize("a-b")
        promoted = promote_constants(tokens, {1: "-"})
        assert promoted == tokens

    def test_constant_positions_helper(self):
        tokens = tokenize("a-b")
        assert constant_positions(tokens) == (1,)
