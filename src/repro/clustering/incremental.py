"""Constant-memory, mergeable pattern profiling (the scale path of Cluster).

:class:`~repro.clustering.profiler.PatternProfiler` materializes every
value: each leaf :class:`~repro.clustering.cluster.PatternCluster` keeps
the full list of raw strings it covers, so profiling a column costs
memory proportional to the column.  That is fine for the interactive
sessions of the paper's user studies and fatal for the ROADMAP's
"millions of rows" workloads, where Cluster is the first step every byte
of data must pass through.

This module profiles in one pass over any iterable with *bounded*
memory.  Per distinct leaf tokenization it keeps

* the row **count** (cluster sizes stay exact),
* a capped first-seen **exemplar reservoir** (what previews and
  ``describe`` actually need), and
* a per-token-position **constant tracker** — the piece of the first
  value at each position, demoted to "varied" the moment any row
  disagrees — which makes constant-token promotion at the profiler's
  default dominance threshold of 1.0 exact without storing values.

A repeated value costs one dict lookup.  :meth:`ColumnProfile.observe_all`
keeps a call-local memo from ``str(value)`` to the value's leaf
accumulator, so a value already folded in the same call only bumps the
leaf's row count: tokenization, ``Pattern`` hashing and the constant
tracker are skipped.  That is exact, because re-observing a value the
profile already holds changes nothing but the count — its exemplar is
already in the reservoir or the reservoir was full, and every surviving
tracker piece already equals that value's piece.  The memo holds at most
:data:`VALUE_MEMO_SIZE` values and is cleared when full, so memory stays
bounded on a column of distinct values; it is never part of the profile
state (not pickled, merged, copied or fingerprinted).

A new value with a known shape costs one ``str.translate`` plus one
lookup.  :func:`~repro.tokens.tokenizer.leaf_shape` replaces each ASCII
digit, lowercase and uppercase letter by ``0``, ``a`` and ``A``; two
values have equal shapes exactly when they tokenize equally, so a second
call-local dict from shape to leaf accumulator sends a memo miss to its
leaf, and only the first value of each shape in the call is tokenized
and hashed into a ``Pattern``.  Leaf tokens have fixed lengths, so the
constant tracker compares ``value[start:end]`` slices at offsets derived
from the leaf pattern instead of re-splitting each value, and only at
the positions still constant.  The shape dict holds one entry per leaf
the call touched, so it is no larger than the profile itself.

The accumulated state is a :class:`ColumnProfile`.  Profiles built over
different shards of the same column **merge** (:meth:`ColumnProfile.merge`,
associative and commutative on counts and patterns), so a column can be
profiled in parallel and combined; :meth:`ColumnProfile.to_hierarchy`
lowers the profile into the ordinary
:class:`~repro.clustering.hierarchy.PatternHierarchy`, producing the same
leaf patterns, counts and refinement layers as the batch profiler, so
:class:`~repro.core.session.CLXSession` and the synthesizer work
unchanged on top of it (see :meth:`CLXSession.from_profile`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.clustering.cluster import PatternCluster
from repro.clustering.hierarchy import HierarchyNode, PatternHierarchy
from repro.clustering.refine import refine_layer
from repro.patterns.generalize import GENERALIZATION_STRATEGIES, GeneralizationStrategy
from repro.patterns.pattern import Pattern
from repro.tokens.constants import DEFAULT_MIN_ROWS, MAX_CONSTANT_LENGTH, promote_constants
from repro.tokens.tokenizer import leaf_shape, tokenize
from repro.util.errors import ValidationError

#: Default number of distinct sample values retained per leaf cluster.
#: Previews show at most 3, so a small reservoir is plenty; it only
#: bounds *samples*, never counts or patterns.
DEFAULT_EXEMPLAR_CAP = 8

#: Distinct values one :meth:`ColumnProfile.observe_all` call remembers
#: before it clears its value memo.  Large enough to hold the heavy
#: hitters of a real column, small enough that a column of distinct
#: values keeps the profile's memory flat.
VALUE_MEMO_SIZE = 1024


@dataclass
class SampledCluster(PatternCluster):
    """A leaf cluster standing on a row count plus capped exemplars.

    Unlike its parent class, ``values`` holds only the exemplar
    reservoir; :attr:`size` reports the true row count, so hierarchy
    statistics (``node.size``, ``total_rows``, summary ordering) remain
    exact while memory stays bounded.
    """

    row_count: int = 0

    @property
    def size(self) -> int:
        """Number of rows observed for this cluster (not exemplars kept)."""
        return self.row_count


def _piece_spans(pattern: Pattern) -> List[Tuple[int, int, int]]:
    """``(position, start, end)`` of each base token of a leaf pattern.

    Leaf tokens have fixed lengths, so every value of the leaf holds the
    piece of base token ``position`` at ``value[start:end]``.  Literal
    positions are constant by construction and left out.
    """
    spans: List[Tuple[int, int, int]] = []
    cursor = 0
    for position, token in enumerate(pattern.tokens):
        length = token.fixed_length
        assert length is not None, "leaf patterns have fixed-length tokens"
        if not token.is_literal:
            spans.append((position, cursor, cursor + length))
        cursor += length
    return spans


class _LeafAccumulator:
    """Bounded per-leaf-pattern state: count, exemplars, constant tracker."""

    __slots__ = ("pattern", "count", "exemplars", "_exemplar_set", "pieces", "_tracked")

    def __init__(self, pattern: Pattern, track_constants: bool) -> None:
        self.pattern = pattern
        self.count = 0
        self.exemplars: List[str] = []
        self._exemplar_set: Set[str] = set()
        # pieces[i] is the constant string at token position i while every
        # row so far agrees, None once positions diverge.  Literal token
        # positions are constant by construction and never promoted, so
        # they are always None.
        self.pieces: Optional[List[Optional[str]]] = (
            [None] * len(pattern.tokens) if track_constants else None
        )
        # (position, start, end) of every position whose piece is still
        # constant: all base positions until the first row disagrees,
        # empty once none is left or when constants are not tracked.
        self._tracked = _piece_spans(pattern) if track_constants else []

    def add(self, value: str, exemplar_cap: int) -> None:
        self.count += 1
        if len(self.exemplars) < exemplar_cap and value not in self._exemplar_set:
            self.exemplars.append(value)
            self._exemplar_set.add(value)
        tracked = self._tracked
        if not tracked:
            return
        pieces = self.pieces
        assert pieces is not None
        if self.count == 1:
            for position, start, end in tracked:
                pieces[position] = value[start:end]
            return
        demoted = False
        for position, start, end in tracked:
            if pieces[position] != value[start:end]:
                pieces[position] = None
                demoted = True
        if demoted:
            self._tracked = [span for span in tracked if pieces[span[0]] is not None]

    def merge_into(self, other: "_LeafAccumulator", exemplar_cap: int) -> None:
        """Fold ``other``'s state into this accumulator (same pattern)."""
        self.count += other.count
        for value in other.exemplars:
            if len(self.exemplars) >= exemplar_cap:
                break
            if value not in self._exemplar_set:
                self.exemplars.append(value)
                self._exemplar_set.add(value)
        if self.pieces is None or other.pieces is None:
            # A side without a tracker made no constant claims, and a
            # position is constant only when verified against *every*
            # row — so an untracked side poisons every position.  (With
            # matching configurations both sides always track, so this
            # is a safety net, not a live path.)
            self.pieces = None
            self._tracked = []
        else:
            pieces = self.pieces = [
                mine if mine is not None and mine == theirs else None
                for mine, theirs in zip(self.pieces, other.pieces)
            ]
            self._tracked = [
                span for span in _piece_spans(self.pattern) if pieces[span[0]] is not None
            ]

    def copy(self) -> "_LeafAccumulator":
        duplicate = _LeafAccumulator(self.pattern, track_constants=False)
        duplicate.count = self.count
        duplicate.exemplars = list(self.exemplars)
        duplicate._exemplar_set = set(self._exemplar_set)
        duplicate.pieces = list(self.pieces) if self.pieces is not None else None
        duplicate._tracked = list(self._tracked)
        return duplicate


class ColumnProfile:
    """Bounded-memory profile of one column: counts, exemplars, constants.

    Build one through :class:`IncrementalProfiler` (or feed values
    directly via :meth:`observe`).  Profiles over shards of the same
    column combine with :meth:`merge` — counts add, exemplar reservoirs
    concatenate up to the cap, and the constant trackers intersect — and
    :meth:`to_hierarchy` lowers the combined state into a standard
    :class:`~repro.clustering.hierarchy.PatternHierarchy`.

    Args:
        exemplar_cap: Distinct sample values kept per leaf cluster.
        discover_constants: Track and promote constant token positions
            (exact at the batch profiler's default threshold of 1.0).
        strategies: Generalization strategies for the refinement rounds
            applied at lowering time.
    """

    def __init__(
        self,
        exemplar_cap: int = DEFAULT_EXEMPLAR_CAP,
        discover_constants: bool = True,
        strategies: Sequence[GeneralizationStrategy] = GENERALIZATION_STRATEGIES,
    ) -> None:
        if exemplar_cap < 1:
            raise ValidationError(f"exemplar_cap must be positive, got {exemplar_cap}")
        self._exemplar_cap = exemplar_cap
        self._discover_constants = discover_constants
        self._strategies = tuple(strategies)
        self._clusters: Dict[Pattern, _LeafAccumulator] = {}
        self._row_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        """Total number of values observed."""
        return self._row_count

    @property
    def cluster_count(self) -> int:
        """Number of distinct leaf tokenizations observed."""
        return len(self._clusters)

    @property
    def exemplar_cap(self) -> int:
        """Maximum distinct sample values kept per leaf cluster."""
        return self._exemplar_cap

    @property
    def discover_constants(self) -> bool:
        """Whether constant-token positions are tracked and promoted."""
        return self._discover_constants

    @property
    def strategies(self) -> tuple:
        """Generalization strategies applied when lowering to a hierarchy."""
        return self._strategies

    def leaf_counts(self) -> Dict[Pattern, int]:
        """Row count per raw (pre-promotion) leaf pattern."""
        return {pattern: acc.count for pattern, acc in self._clusters.items()}

    def fingerprint(self) -> str:
        """Content hash of everything that determines the lowered hierarchy.

        Two profiles with the same fingerprint lower to the same
        :class:`PatternHierarchy` (up to exemplar selection) and
        therefore synthesize the same program for a given target: the
        hash covers the leaf patterns, their row counts, the surviving
        constant-tracker pieces (which decide constant promotion), and
        the configuration knobs that shape lowering.  This is the
        column half of the artifact cache key used by
        :class:`~repro.engine.cache.ArtifactCache`.
        """
        import hashlib
        import json

        entries = sorted(
            (pattern.notation(), accumulator.count, accumulator.pieces)
            for pattern, accumulator in self._clusters.items()
        )
        payload = json.dumps(
            {
                "rows": self._row_count,
                "clusters": entries,
                "discover_constants": self._discover_constants,
                "strategies": [
                    getattr(strategy, "__name__", repr(strategy))
                    for strategy in self._strategies
                ],
            },
            sort_keys=True,
            ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnProfile(rows={self._row_count}, clusters={len(self._clusters)})"

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def _leaf(self, value: str) -> _LeafAccumulator:
        """Tokenize ``value`` and return its leaf, creating it if new."""
        pattern = Pattern(tokenize(value))
        accumulator = self._clusters.get(pattern)
        if accumulator is None:
            accumulator = _LeafAccumulator(pattern, track_constants=self._discover_constants)
            self._clusters[pattern] = accumulator
        return accumulator

    def observe(self, value: str) -> None:
        """Fold one raw value into the profile."""
        value = str(value)
        self._leaf(value).add(value, self._exemplar_cap)
        self._row_count += 1

    def observe_all(self, values: Iterable[str]) -> "ColumnProfile":
        """Fold every value of ``values`` into the profile; returns self.

        The result is exactly that of calling :meth:`observe` on each
        value, but a value already folded earlier in this call costs one
        dict lookup and a count increment.  The memo is keyed by
        ``str(value)`` — ``1``, ``True`` and ``1.0`` hash equal but
        tokenize differently — holds at most :data:`VALUE_MEMO_SIZE`
        values, is cleared when full, and lives only for this call.

        A new value finds its leaf by its
        :func:`~repro.tokens.tokenizer.leaf_shape`, which equals another
        value's exactly when their tokenizations do: only the first
        value of each shape in the call is tokenized.
        """
        memo: Dict[str, _LeafAccumulator] = {}
        by_shape: Dict[str, _LeafAccumulator] = {}
        exemplar_cap = self._exemplar_cap
        for value in values:
            value = str(value)
            accumulator = memo.get(value)
            if accumulator is None:
                if len(memo) >= VALUE_MEMO_SIZE:
                    memo.clear()
                shape = leaf_shape(value)
                accumulator = by_shape.get(shape)
                if accumulator is None:
                    accumulator = by_shape[shape] = self._leaf(value)
                accumulator.add(value, exemplar_cap)
                memo[value] = accumulator
            else:
                accumulator.count += 1
            self._row_count += 1
        return self

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "ColumnProfile") -> None:
        if not isinstance(other, ColumnProfile):
            raise ValidationError(
                f"can only merge ColumnProfile with ColumnProfile, got {type(other).__name__}"
            )
        if (
            self._exemplar_cap != other._exemplar_cap
            or self._discover_constants != other._discover_constants
            or self._strategies != other._strategies
        ):
            raise ValidationError(
                "cannot merge profiles built with different configurations "
                "(exemplar_cap / discover_constants / strategies must match)"
            )

    def merge(self, other: "ColumnProfile") -> "ColumnProfile":
        """Combine two shard profiles into a new profile (inputs untouched).

        Counts add exactly, so shard-then-merge profiling yields the same
        leaf patterns and sizes as profiling the whole column at once;
        only the exemplar *selection* may differ when a reservoir fills.
        The operation is associative, so any merge tree over the shards
        of a column produces the same profile.
        """
        self._check_compatible(other)
        merged = ColumnProfile(
            exemplar_cap=self._exemplar_cap,
            discover_constants=self._discover_constants,
            strategies=self._strategies,
        )
        for source in (self, other):
            for pattern, accumulator in source._clusters.items():
                existing = merged._clusters.get(pattern)
                if existing is None:
                    merged._clusters[pattern] = accumulator.copy()
                else:
                    existing.merge_into(accumulator, self._exemplar_cap)
        merged._row_count = self._row_count + other._row_count
        return merged

    @classmethod
    def merge_all(cls, profiles: Sequence["ColumnProfile"]) -> "ColumnProfile":
        """Merge any number of shard profiles (at least one required).

        Always returns a fresh profile, never an alias of an input —
        including for a single-element sequence.
        """
        if not profiles:
            raise ValidationError("merge_all needs at least one profile")
        first = profiles[0]
        merged = cls(
            exemplar_cap=first.exemplar_cap,
            discover_constants=first.discover_constants,
            strategies=first.strategies,
        ).merge(first)
        for profile in profiles[1:]:
            merged = merged.merge(profile)
        return merged

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _lower_cluster(self, accumulator: _LeafAccumulator) -> SampledCluster:
        """Promote the accumulator's constants and emit a sampled cluster."""
        pattern = accumulator.pattern
        if (
            self._discover_constants
            and accumulator.count >= DEFAULT_MIN_ROWS
            and accumulator.pieces is not None
        ):
            constants = {
                index: piece
                for index, piece in enumerate(accumulator.pieces)
                if piece is not None
                and not piece.isdigit()
                and len(piece) <= MAX_CONSTANT_LENGTH
            }
            if constants:
                pattern = Pattern(promote_constants(pattern.tokens, constants))
        return SampledCluster(
            pattern=pattern,
            values=list(accumulator.exemplars),
            row_count=accumulator.count,
        )

    def to_hierarchy(self, allow_empty: bool = False) -> PatternHierarchy:
        """Lower the profile into a :class:`PatternHierarchy`.

        The result has the same leaf patterns, cluster sizes, ordering
        and refinement layers as ``PatternProfiler().profile(column)``
        over the same data; leaf clusters are :class:`SampledCluster`
        instances carrying exemplars instead of every raw value.

        Raises:
            ValidationError: If the profile is empty and ``allow_empty``
                is False.
        """
        if not self._clusters and not allow_empty:
            raise ValidationError("cannot build a hierarchy from an empty profile")

        merged: Dict[Pattern, SampledCluster] = {}
        for accumulator in self._clusters.values():
            cluster = self._lower_cluster(accumulator)
            existing = merged.get(cluster.pattern)
            if existing is None:
                merged[cluster.pattern] = cluster
            else:
                existing.row_count += cluster.row_count
                for value in cluster.values:
                    if len(existing.values) >= self._exemplar_cap:
                        break
                    if value not in existing.values:
                        existing.values.append(value)

        ordered = sorted(merged.values(), key=lambda c: (-c.size, c.pattern.notation()))
        leaf_layer = [
            HierarchyNode(pattern=cluster.pattern, cluster=cluster, level=0)
            for cluster in ordered
        ]
        hierarchy = PatternHierarchy(layers=[leaf_layer])
        current: List[HierarchyNode] = leaf_layer
        for round_index, strategy in enumerate(self._strategies, start=1):
            current = refine_layer(current, strategy, level=round_index)
            hierarchy.layers.append(current)
        return hierarchy


@dataclass
class IncrementalProfiler:
    """One-pass, constant-memory counterpart of :class:`PatternProfiler`.

    Profiles any iterable — a generator over a huge CSV, a shard of a
    partitioned column — without ever materializing it, producing a
    :class:`ColumnProfile`.

    Attributes:
        discover_constants: Run constant-token promotion at lowering.
        constant_threshold: Dominance threshold.  Only the batch default
            of 1.0 ("every row agrees") can be decided exactly in bounded
            memory, so other values are rejected.
        exemplar_cap: Distinct sample values kept per leaf cluster.
        strategies: Generalization strategies, one refinement round each.
        allow_empty: When False (default), profiling an empty iterable
            raises :class:`~repro.util.errors.ValidationError`.
    """

    discover_constants: bool = True
    constant_threshold: float = 1.0
    exemplar_cap: int = DEFAULT_EXEMPLAR_CAP
    strategies: Sequence[GeneralizationStrategy] = field(
        default_factory=lambda: GENERALIZATION_STRATEGIES
    )
    allow_empty: bool = False

    def __post_init__(self) -> None:
        if self.discover_constants and self.constant_threshold != 1.0:
            raise ValidationError(
                "IncrementalProfiler decides constants in bounded memory, which "
                f"is only exact at constant_threshold=1.0 (got {self.constant_threshold}); "
                "use PatternProfiler for other thresholds"
            )

    def new_profile(self) -> ColumnProfile:
        """An empty profile with this profiler's configuration."""
        return ColumnProfile(
            exemplar_cap=self.exemplar_cap,
            discover_constants=self.discover_constants,
            strategies=self.strategies,
        )

    def profile(self, values: Iterable[str]) -> ColumnProfile:
        """Profile ``values`` in one pass; memory is bounded by the number
        of distinct leaf patterns, not the number of rows.

        Raises:
            ValidationError: If the iterable is empty and ``allow_empty``
                is False.
        """
        result = self.new_profile().observe_all(values)
        if result.row_count == 0 and not self.allow_empty:
            raise ValidationError("cannot profile an empty dataset")
        return result

    def hierarchy(self, values: Iterable[str]) -> PatternHierarchy:
        """Profile ``values`` and lower straight into a hierarchy."""
        return self.profile(values).to_hierarchy(allow_empty=self.allow_empty)


def profile_stream(values: Iterable[str], **kwargs) -> ColumnProfile:
    """Profile ``values`` with a default-configured :class:`IncrementalProfiler`.

    Keyword arguments are forwarded to the profiler constructor.
    """
    return IncrementalProfiler(**kwargs).profile(values)
