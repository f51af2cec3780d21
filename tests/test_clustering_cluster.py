"""Tests for leaf cluster construction (tokenization phase, Section 4.1)."""

from __future__ import annotations

import pytest

from repro.clustering import cluster as cluster_module
from repro.clustering.cluster import PatternCluster, initial_clusters
from repro.patterns.matching import matches
from repro.patterns.parse import parse_pattern
from repro.patterns.pattern import Pattern
from repro.tokens.constants import discover_constant_tokens, promote_constants
from repro.tokens.tokenizer import leaf_shape, tokenize_reference


class TestInitialClusters:
    def test_strings_with_same_pattern_share_a_cluster(self, phone_values):
        clusters = initial_clusters(phone_values + ["999-111-2222"])
        by_notation = {c.pattern.notation(): c for c in clusters}
        dashes = by_notation["<D>3'-'<D>3'-'<D>4"]
        assert dashes.size == 2

    def test_duplicates_are_counted_not_collapsed(self):
        clusters = initial_clusters(["ab", "ab", "ab"])
        assert len(clusters) == 1
        assert clusters[0].size == 3

    def test_clusters_sorted_by_size_descending(self):
        clusters = initial_clusters(["1", "2", "3", "ab", "cd", "x-y"])
        sizes = [c.size for c in clusters]
        assert sizes == sorted(sizes, reverse=True)

    def test_every_value_matches_its_cluster_pattern(self, phone_values):
        clusters = initial_clusters(phone_values * 3)
        for cluster in clusters:
            for value in cluster.values:
                assert matches(value, cluster.pattern)

    def test_empty_input_gives_no_clusters(self):
        assert initial_clusters([]) == []

    def test_empty_strings_form_their_own_cluster(self):
        clusters = initial_clusters(["", "", "a"])
        empties = [c for c in clusters if len(c.pattern) == 0]
        assert len(empties) == 1 and empties[0].size == 2

    def test_constant_promotion_on_shared_prefix(self):
        values = [f"Dr. {name}" for name in ("Adams", "Brown", "Clark", "Davis")]
        clusters = initial_clusters(values)
        assert len(clusters) == 1  # all surnames here share the <U><L>4 shape
        notation = clusters[0].pattern.notation()
        assert notation.startswith("'D''r''.'")
        assert notation.endswith("<U><L>4")

    def test_constant_promotion_can_be_disabled(self):
        values = [f"Dr. {name}" for name in ("Adams", "Brown", "Clark", "Davis")]
        clusters = initial_clusters(values, discover_constants=False)
        for cluster in clusters:
            assert cluster.pattern.notation().startswith("<U><L>'.'")

    def test_promotion_keeps_values_matching(self):
        values = [f"Dr. {name}" for name in ("Adams", "Brown", "Clark", "Davis")]
        for cluster in initial_clusters(values):
            for value in cluster.values:
                assert matches(value, cluster.pattern)


class TestPatternCluster:
    def test_sample_returns_distinct_values_in_order(self):
        cluster = PatternCluster(pattern=parse_pattern("<L>2"), values=["ab", "ab", "cd", "ef"])
        assert cluster.sample(2) == ["ab", "cd"]

    def test_sample_smaller_than_requested(self):
        cluster = PatternCluster(pattern=parse_pattern("<L>2"), values=["ab"])
        assert cluster.sample(5) == ["ab"]


def _reference_clusters(values, discover_constants=True, constant_threshold=1.0):
    """Per-value reference: tokenize every value, group by pattern, promote."""
    groups = {}
    for value in values:
        tokens = tokenize_reference(value)
        groups.setdefault(Pattern(tokens), []).append((value, tokens))
    clusters = []
    for pattern, members in groups.items():
        cluster_values = [value for value, _ in members]
        if discover_constants:
            constants = discover_constant_tokens(
                cluster_values, [tokens for _, tokens in members], threshold=constant_threshold
            )
            if constants:
                pattern = Pattern(promote_constants(pattern.tokens, constants))
        clusters.append(PatternCluster(pattern=pattern, values=cluster_values))
    merged = {}
    for cluster in clusters:
        if cluster.pattern in merged:
            merged[cluster.pattern].values.extend(cluster.values)
        else:
            merged[cluster.pattern] = cluster
    return sorted(merged.values(), key=lambda c: (-c.size, c.pattern.notation()))


def _random_column(rng, rows: int) -> list:
    """Values over a few templates with constant words, random runs and punctuation."""
    words = ("Dr", "Mr", "kg", "ID", "x", "ab")
    kinds = ("word", "digits", "lower", "upper", "punct")
    templates = [[rng.choice(kinds) for _ in range(rng.randrange(0, 5))] for _ in range(12)]

    def render(template):
        parts = []
        for kind in template:
            if kind == "word":
                parts.append(rng.choice(words[:2]) if rng.random() < 0.8 else rng.choice(words))
            elif kind == "digits":
                parts.append(str(rng.randrange(10 ** rng.randrange(1, 4))))
            elif kind == "lower":
                parts.append(rng.choice(("ab", "cd", "zz", "q")))
            elif kind == "upper":
                parts.append(rng.choice(("AB", "Q", "XYZ")))
            else:
                parts.append(rng.choice("-. /:é\n"))
        return "".join(parts)

    return [render(rng.choice(templates)) for _ in range(rows)]


def _signature(clusters):
    return [(cluster.pattern, list(cluster.values)) for cluster in clusters]


class TestShapeGrouping:
    """Shape-grouped :func:`initial_clusters` against the per-value reference."""

    @pytest.mark.parametrize(
        "config",
        [{}, {"discover_constants": False}, {"constant_threshold": 0.6}],
    )
    def test_matches_the_per_value_reference(self, property_rng, config):
        for _ in range(20):
            values = _random_column(property_rng, property_rng.randrange(1, 400))
            assert _signature(initial_clusters(values, **config)) == _signature(
                _reference_clusters(values, **config)
            )

    def test_tokenizes_once_per_shape_group(self, monkeypatch, property_rng):
        calls = []
        real_tokenize = cluster_module.tokenize

        def counting_tokenize(value):
            calls.append(value)
            return real_tokenize(value)

        monkeypatch.setattr(cluster_module, "tokenize", counting_tokenize)
        values = _random_column(property_rng, 500)
        initial_clusters(values)
        first_of_shape = {}
        for value in values:
            first_of_shape.setdefault(leaf_shape(value), value)
        assert calls == list(first_of_shape.values())
