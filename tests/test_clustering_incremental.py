"""Tests for bounded-memory incremental profiling and profile merging."""

from __future__ import annotations

import random

import pytest

from repro.bench.generators import addresses, human_names, medical_codes
from repro.bench.phone import phone_dataset
from repro.clustering import incremental
from repro.clustering.incremental import (
    DEFAULT_EXEMPLAR_CAP,
    VALUE_MEMO_SIZE,
    ColumnProfile,
    IncrementalProfiler,
    SampledCluster,
    _LeafAccumulator,
    profile_stream,
)
from repro.clustering.profiler import PatternProfiler
from repro.core.session import CLXSession
from repro.patterns.pattern import Pattern
from repro.tokens.tokenizer import leaf_shape, split_by_tokens, tokenize_reference
from repro.util.errors import ValidationError


def _layer_signature(hierarchy):
    """(pattern notation, size) per node per layer — the comparable core."""
    return [
        [(node.pattern.notation(), node.size) for node in layer]
        for layer in hierarchy.layers
    ]


def _bench_columns():
    return {
        "phones": phone_dataset(300, 6, seed=331)[0],
        "names": human_names(60)[0],
        "medical": medical_codes(40)[0],
        "addresses": addresses(50)[0],
    }


class TestBatchEquivalence:
    @pytest.mark.parametrize("name", list(_bench_columns()))
    def test_hierarchy_matches_batch_profiler(self, name):
        values = _bench_columns()[name]
        batch = PatternProfiler().profile(values)
        incremental = IncrementalProfiler().profile(iter(values)).to_hierarchy()
        assert _layer_signature(incremental) == _layer_signature(batch)

    def test_constant_promotion_matches_batch(self, employee_names):
        # The "Dr." prefix must be promoted identically to the batch path.
        values = employee_names * 3
        batch = PatternProfiler().profile(values)
        incremental = profile_stream(iter(values)).to_hierarchy()
        assert sorted(p.notation() for p in incremental.leaf_patterns()) == sorted(
            p.notation() for p in batch.leaf_patterns()
        )

    def test_total_rows_is_exact(self):
        values = phone_dataset(500, 4, seed=3)[0]
        hierarchy = profile_stream(values).to_hierarchy()
        assert hierarchy.total_rows == 500

    def test_profiles_a_generator_without_len(self):
        hierarchy = profile_stream(v for v in ["a1", "b2", "c3"]).to_hierarchy()
        assert hierarchy.total_rows == 3


class TestBoundedMemory:
    def test_exemplars_are_capped(self):
        values = [f"x{index:05d}" for index in range(1000)]
        profile = IncrementalProfiler(exemplar_cap=5).profile(values)
        hierarchy = profile.to_hierarchy()
        (leaf,) = hierarchy.leaf_nodes
        assert isinstance(leaf.cluster, SampledCluster)
        assert leaf.size == 1000
        assert len(leaf.cluster.values) == 5

    def test_sample_draws_from_exemplars(self):
        profile = profile_stream(["aa", "bb", "aa", "cc"])
        (leaf,) = profile.to_hierarchy().leaf_nodes
        assert leaf.cluster.sample(2) == ["aa", "bb"]

    def test_exemplar_cap_must_be_positive(self):
        with pytest.raises(ValidationError):
            ColumnProfile(exemplar_cap=0)


class TestMerge:
    def test_shard_then_merge_equals_whole_column(self):
        for values in _bench_columns().values():
            third = len(values) // 3
            shards = [values[:third], values[third : 2 * third], values[2 * third :]]
            merged = ColumnProfile.merge_all(
                [IncrementalProfiler().profile(shard) for shard in shards]
            )
            whole = IncrementalProfiler().profile(values)
            assert merged.row_count == whole.row_count
            assert merged.leaf_counts() == whole.leaf_counts()
            assert _layer_signature(merged.to_hierarchy()) == _layer_signature(
                whole.to_hierarchy()
            )

    def test_merge_is_associative(self):
        values = phone_dataset(150, 6, seed=9)[0]
        a, b, c = (
            IncrementalProfiler().profile(values[index::3]) for index in range(3)
        )
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.leaf_counts() == right.leaf_counts()
        assert _layer_signature(left.to_hierarchy()) == _layer_signature(
            right.to_hierarchy()
        )

    def test_merge_does_not_mutate_inputs(self):
        a = profile_stream(["123"])
        b = profile_stream(["456", "x9"])
        merged = a.merge(b)
        assert a.row_count == 1 and b.row_count == 2
        assert merged.row_count == 3

    def test_merge_intersects_constant_trackers(self):
        # The constant "Mr " prefix must survive a merge of agreeing
        # shards and be promoted exactly as the batch profiler does ...
        shard = ["Mr Smith", "Mr Jones", "Mr Brown"]
        merged = profile_stream(shard).merge(profile_stream(shard))
        batch = PatternProfiler().profile(shard * 2)
        assert _layer_signature(merged.to_hierarchy()) == _layer_signature(batch)
        assert merged.to_hierarchy().leaf_patterns()[0].notation() == "'M''r'' '<U><L>4"

    def test_merge_demotes_constants_when_shards_disagree(self):
        # ... while disagreeing shards demote the position, again exactly
        # like batch-profiling the concatenated column.
        a = ["Mr Smith", "Mr Jones", "Mr Brown"]
        b = ["Dr Smith", "Dr Jones", "Dr Brown"]
        merged = profile_stream(a).merge(profile_stream(b))
        batch = PatternProfiler().profile(a + b)
        assert _layer_signature(merged.to_hierarchy()) == _layer_signature(batch)

    def test_merge_rejects_mismatched_configuration(self):
        a = profile_stream(["1"], exemplar_cap=4)
        b = profile_stream(["2"], exemplar_cap=8)
        with pytest.raises(ValidationError):
            a.merge(b)

    def test_merge_all_requires_a_profile(self):
        with pytest.raises(ValidationError):
            ColumnProfile.merge_all([])


class TestValidation:
    def test_empty_iterable_raises(self):
        with pytest.raises(ValidationError):
            IncrementalProfiler().profile(iter([]))

    def test_allow_empty_returns_empty_profile(self):
        profile = IncrementalProfiler(allow_empty=True).profile(iter([]))
        assert profile.row_count == 0
        with pytest.raises(ValidationError):
            profile.to_hierarchy()
        assert profile.to_hierarchy(allow_empty=True).leaf_nodes == []

    def test_non_unit_constant_threshold_is_rejected(self):
        with pytest.raises(ValidationError):
            IncrementalProfiler(constant_threshold=0.9)
        # Without constant discovery any threshold is fine.
        IncrementalProfiler(discover_constants=False, constant_threshold=0.9)


class TestFromProfile:
    def test_synthesizes_the_same_program_as_a_full_session(self):
        values = phone_dataset(300, 6, seed=331)[0]
        profiled = CLXSession.from_profile(profile_stream(values))
        profiled.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        full = CLXSession(values)
        full.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        assert profiled.compile() == full.compile()

    def test_compiled_program_transforms_like_the_full_session(self):
        values = phone_dataset(120, 4, seed=17)[0]
        profiled = CLXSession.from_profile(profile_stream(values))
        profiled.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        engine = profiled.engine()
        full = CLXSession(values)
        full.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        assert engine.run(values).outputs == full.transform().outputs

    def test_accepts_a_hierarchy(self):
        values = phone_dataset(50, 2, seed=5)[0]
        hierarchy = profile_stream(values).to_hierarchy()
        session = CLXSession.from_profile(hierarchy)
        assert session.hierarchy is hierarchy

    def test_pattern_summary_reports_counts_and_samples(self):
        values = phone_dataset(200, 4, seed=11)[0]
        session = CLXSession.from_profile(profile_stream(values))
        summaries = session.pattern_summary()
        assert sum(summary.count for summary in summaries) == 200
        assert all(summary.samples for summary in summaries)

    def test_transform_and_values_need_the_raw_column(self):
        session = CLXSession.from_profile(profile_stream(["734-555-0199"]))
        session.label_target_from_notation("<D>3'-'<D>3'-'<D>4")
        with pytest.raises(ValidationError, match="profile"):
            session.transform()
        with pytest.raises(ValidationError, match="profile"):
            session.values

    def test_rejects_other_types_and_empty_profiles(self):
        with pytest.raises(ValidationError):
            CLXSession.from_profile(["not", "a", "profile"])
        empty = IncrementalProfiler(allow_empty=True).profile(iter([]))
        with pytest.raises(ValidationError):
            CLXSession.from_profile(empty)


def _observed_one_by_one(values, **config):
    """The reference: a per-value :meth:`ColumnProfile.observe` loop."""
    profile = ColumnProfile(**config)
    for value in values:
        profile.observe(value)
    return profile


def _profile_state(profile):
    """Everything observable about a profile, exemplar order included."""
    return (
        profile.row_count,
        profile.leaf_counts(),
        profile.fingerprint(),
        {pattern: list(acc.exemplars) for pattern, acc in profile._clusters.items()},
    )


def _zipf_stream(rng, pool, rows):
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=rows)


class TestValueMemo:
    """``observe_all`` (value memo) must equal the per-value ``observe`` loop."""

    def _assert_same_as_reference(self, values, **config):
        fast = ColumnProfile(**config).observe_all(iter(values))
        reference = _observed_one_by_one(values, **config)
        assert _profile_state(fast) == _profile_state(reference)
        assert _layer_signature(fast.to_hierarchy()) == _layer_signature(
            reference.to_hierarchy()
        )

    def test_zipf_repeats(self):
        rng = random.Random(41)
        pool = phone_dataset(200, 6, seed=41)[0] + human_names(60, seed=41)[0]
        self._assert_same_as_reference(_zipf_stream(rng, pool, 5_000))

    def test_stream_crossing_a_memo_clear(self):
        # More distinct values than the memo holds, then repeats of the
        # earliest ones: the memo has been cleared by the time they recur.
        distinct = [f"id-{index:05d}" for index in range(VALUE_MEMO_SIZE + 300)]
        rng = random.Random(42)
        values = distinct + distinct[:50] * 3 + _zipf_stream(rng, distinct, 3_000)
        self._assert_same_as_reference(values, exemplar_cap=4)

    def test_repeats_after_a_full_reservoir(self):
        rng = random.Random(43)
        pool = [f"x{index:03d}" for index in range(40)]
        values = ["x007", "x001", "x007"] + _zipf_stream(rng, pool, 800)
        self._assert_same_as_reference(values, exemplar_cap=1)

    @pytest.mark.parametrize(
        "values",
        [
            ["Mr Smith", "Dr Smith", "Mr Smith"] * 3,
            ["Mr Smith", "Mr Jones", "Mr Smith", "Mr Smith"],
            ["AB-1", "AB-2", "CD-1", "AB-1", "CD-1"],
        ],
    )
    def test_constant_demotion(self, values):
        self._assert_same_as_reference(values)

    def test_empty_strings(self):
        self._assert_same_as_reference(["", "a", "", "", "a1", "", "a"])

    def test_values_that_hash_equal_but_render_differently(self):
        # 1, True and 1.0 are equal dict keys, yet "1", "True" and "1.0"
        # tokenize into three different leaves.
        self._assert_same_as_reference([1, True, 1.0, "1", "True"])

    def test_tokenizes_each_distinct_value_once(self, monkeypatch):
        """A value is tokenized at most once: only the first of its shape is."""
        calls = []
        real_tokenize = incremental.tokenize

        def counting_tokenize(value):
            calls.append(value)
            return real_tokenize(value)

        # Patched as the module global, the way a tracer wraps it.
        monkeypatch.setattr(incremental, "tokenize", counting_tokenize)
        pool = [f"code-{index}" for index in range(VALUE_MEMO_SIZE // 2)]
        pool += [f"Code {index}" for index in range(VALUE_MEMO_SIZE // 2)]
        values = _zipf_stream(random.Random(44), pool, 10_000)
        profile = IncrementalProfiler().profile(values)
        assert profile.row_count == len(values)
        first_of_shape = {}
        for value in values:
            first_of_shape.setdefault(leaf_shape(value), value)
        # Exactly one call per distinct shape, made on its first value.
        assert calls == list(first_of_shape.values())

    def test_memo_is_not_profile_state(self):
        fast = ColumnProfile().observe_all(["a1", "a1", "b2"])
        assert set(vars(fast)) == set(vars(ColumnProfile()))

    def test_memo_lives_for_one_call(self):
        profile = ColumnProfile()
        profile.observe_all(["Mr Smith", "Mr Smith"])
        profile.observe_all(["Dr Smith", "Mr Smith"])
        reference = _observed_one_by_one(["Mr Smith", "Mr Smith", "Dr Smith", "Mr Smith"])
        assert _profile_state(profile) == _profile_state(reference)


# ----------------------------------------------------------------------
# The shape fold against a per-value reference
# ----------------------------------------------------------------------
_CLASS_POOLS = ("0123456789", "abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _shaped_stream(rng, shapes: int, distinct: int, rows: int) -> list:
    """``rows`` values over ``distinct`` values drawn from ``shapes`` templates.

    A template is a list of parts: a class run (filled at random), a fixed
    word (a constant the tracker keeps), or a punctuation character.  Some
    templates hold both a fixed and a varying word of the same class at
    the same offsets, so constants survive in some leaves and not others.
    """
    templates = []
    for _ in range(shapes):
        parts = []
        for _ in range(rng.randrange(0, 5)):
            roll = rng.random()
            if roll < 0.5:
                parts.append(("run", rng.choice(_CLASS_POOLS), rng.randrange(1, 5)))
            elif roll < 0.7:
                parts.append(("fixed", rng.choice(("Dr", "mr", "ID", "kg", "x")), 0))
            else:
                parts.append(("fixed", rng.choice("-./ :é\n"), 0))
        templates.append(parts)

    def render(parts):
        out = []
        for kind, pool, length in parts:
            if kind == "fixed":
                out.append(pool)
            else:
                out.append("".join(rng.choice(pool) for _ in range(length)))
        return "".join(out)

    seen = {}
    for _ in range(50 * distinct):
        seen.setdefault(render(rng.choice(templates)), None)
        if len(seen) == distinct:
            break
    pool = list(seen)
    values = pool + _zipf_stream(rng, pool, rows)
    rng.shuffle(values)
    return values


def _reference_profile(values, exemplar_cap=DEFAULT_EXEMPLAR_CAP, discover_constants=True):
    """The per-value fold: ``tokenize_reference`` and ``split_by_tokens`` per row.

    Returns a :class:`ColumnProfile` holding the reference state, so its
    fingerprint and hierarchy come from the same lowering code.
    """
    leaves = {}
    for value in values:
        value = str(value)
        tokens = tokenize_reference(value)
        pattern = Pattern(tokens)
        if pattern not in leaves:
            leaves[pattern] = _LeafAccumulator(pattern, track_constants=False)
        leaf = leaves[pattern]
        leaf.count += 1
        if len(leaf.exemplars) < exemplar_cap and value not in leaf.exemplars:
            leaf.exemplars.append(value)
        if not discover_constants:
            continue
        observed = [
            None if token.is_literal else piece
            for token, piece in zip(tokens, split_by_tokens(value, tokens))
        ]
        if leaf.pieces is None:
            leaf.pieces = observed
        else:
            leaf.pieces = [
                mine if mine == theirs else None for mine, theirs in zip(leaf.pieces, observed)
            ]
    profile = ColumnProfile(exemplar_cap=exemplar_cap, discover_constants=discover_constants)
    profile._clusters = leaves
    profile._row_count = len(values)
    return profile


def _fold_state(profile):
    """Fingerprint, leaf counts, exemplars, pieces and lowered hierarchy."""
    hierarchy = profile.to_hierarchy()
    return (
        profile.fingerprint(),
        profile.leaf_counts(),
        {pattern: list(acc.exemplars) for pattern, acc in profile._clusters.items()},
        {pattern: acc.pieces for pattern, acc in profile._clusters.items()},
        _layer_signature(hierarchy),
        [list(node.cluster.values) for node in hierarchy.leaf_nodes],
    )


_CONFIGS = [
    {},
    {"exemplar_cap": 1},
    {"discover_constants": False},
]


class TestShapeFold:
    """``observe_all`` (value memo + shape fold) against the per-value reference."""

    @pytest.mark.parametrize("config", _CONFIGS)
    def test_stream_crossing_the_memo(self, property_rng, config):
        values = _shaped_stream(property_rng, 60, VALUE_MEMO_SIZE + 500, 4_000)
        assert len(set(values)) > VALUE_MEMO_SIZE
        fast = ColumnProfile(**config).observe_all(iter(values))
        assert _fold_state(fast) == _fold_state(_reference_profile(values, **config))

    @pytest.mark.parametrize("config", _CONFIGS)
    def test_merge_copy_then_fold_more(self, property_rng, config):
        values = _shaped_stream(property_rng, 40, VALUE_MEMO_SIZE + 200, 3_000)
        cut = [0, len(values) // 5, len(values) // 2, 3 * len(values) // 4, len(values)]
        chunks = [values[start:end] for start, end in zip(cut, cut[1:])]
        first, second, third = (ColumnProfile(**config).observe_all(chunk) for chunk in chunks[:3])

        merged = first.merge(second)
        merged.observe_all(chunks[2])
        assert _fold_state(merged) == _fold_state(
            _reference_profile(chunks[0] + chunks[1] + chunks[2], **config)
        )

        combined = ColumnProfile.merge_all([first, second, third])
        combined.observe_all(chunks[3])
        assert _fold_state(combined) == _fold_state(_reference_profile(values, **config))

        single = ColumnProfile.merge_all([third])  # copies every leaf
        single.observe_all(chunks[0])
        assert _fold_state(single) == _fold_state(
            _reference_profile(chunks[2] + chunks[0], **config)
        )
        # Folding into merged copies left the inputs as they were.
        for chunk, profile in zip(chunks, (first, second, third)):
            assert _fold_state(profile) == _fold_state(_reference_profile(chunk, **config))

    def test_copies_and_merges_keep_tracking(self):
        # A position constant in every shard must still be demoted by a
        # row folded into the merged profile: the copies and the merged
        # leaves keep tracking it.
        first = ColumnProfile().observe_all(["Dr 12-ab", "Dr 34-ab"])
        second = ColumnProfile().observe_all(["Dr 56-ab"])
        later = ["Mr 78-ab", "Dr 90-cd"]
        for profile, seen in (
            (first.merge(second), ["Dr 12-ab", "Dr 34-ab", "Dr 56-ab"]),
            (ColumnProfile.merge_all([first]), ["Dr 12-ab", "Dr 34-ab"]),
        ):
            profile.observe_all(later)
            assert _fold_state(profile) == _fold_state(_reference_profile(seen + later))

    def test_constants_survive_and_demote(self):
        values = ["Dr 12-ab", "Dr 34-ab", "Dr 56-cd", "Mr 12-ab", "x", "y"] * 3
        fast = ColumnProfile().observe_all(values)
        assert _fold_state(fast) == _fold_state(_reference_profile(values))
        pieces = {
            pattern.notation(): acc.pieces for pattern, acc in fast._clusters.items()
        }
        assert pieces["<U><L>' '<D>2'-'<L>2"] == [None, "r", None, None, None, None]
        assert pieces["<L>"] == [None]
