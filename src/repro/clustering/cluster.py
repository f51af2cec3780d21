"""Leaf pattern clusters produced by the tokenization phase (Section 4.1).

A :class:`PatternCluster` groups the raw strings that share the same leaf
pattern.  Constant-token discovery runs per cluster and may rewrite the
cluster's pattern so that positions holding one dominant value become
literal tokens (e.g. a ``Dr.`` prefix).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

from repro.patterns.pattern import Pattern
from repro.tokens.constants import discover_constant_tokens, promote_constants
from repro.tokens.tokenizer import leaf_shape, tokenize


@dataclass
class PatternCluster:
    """A set of raw strings sharing one pattern.

    Attributes:
        pattern: The cluster's pattern.  At the leaf level this is the
            exact tokenization (possibly with constants promoted); at
            higher levels of the hierarchy it is a generalized pattern.
        values: The raw strings assigned to the cluster, in first-seen
            order with duplicates preserved (cluster size mirrors row
            counts, as in Figure 3 of the paper).
    """

    pattern: Pattern
    values: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of rows (strings, duplicates included) in the cluster."""
        return len(self.values)

    def sample(self, count: int = 3) -> List[str]:
        """First ``count`` distinct values, for display in previews.

        ``count`` values of zero or less return no samples (the cap is
        checked before inserting, so ``count=0`` no longer leaks one).
        """
        if count <= 0:
            return []
        seen: "OrderedDict[str, None]" = OrderedDict()
        for value in self.values:
            if value not in seen:
                seen[value] = None
                if len(seen) >= count:
                    break
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PatternCluster({self.pattern.notation()!r}, size={self.size})"


def initial_clusters(
    values: Iterable[str],
    discover_constants: bool = True,
    constant_threshold: float = 1.0,
) -> List[PatternCluster]:
    """Build the leaf-level clusters for ``values`` (tokenization phase).

    Args:
        values: Raw strings (one column of data).
        discover_constants: Whether to run constant-token promotion on
            each cluster (the "Find Constant Tokens" step).
        constant_threshold: Dominance threshold for constant promotion.
            The default of 1.0 promotes a position only when *every*
            member of the cluster shares the value, which preserves the
            invariant that each value matches its cluster's pattern.

    Returns:
        Clusters ordered by size, largest first (ties broken by pattern
        notation for determinism), matching the presentation order of
        Figure 3.
    """
    # Values with equal shapes tokenize equally, so each shape group is
    # tokenized once, on its first value; shapes and patterns correspond
    # one to one, so the groups keep the first-seen order of the patterns.
    groups: Dict[str, List[str]] = {}
    for value in values:
        shape = leaf_shape(value)
        group = groups.get(shape)
        if group is None:
            groups[shape] = [value]
        else:
            group.append(value)
    clusters = [
        PatternCluster(pattern=Pattern(tokenize(group[0])), values=group)
        for group in groups.values()
    ]
    if discover_constants:
        clusters = [
            _promote_cluster_constants(cluster, constant_threshold) for cluster in clusters
        ]
        clusters = _remerge_equal_patterns(clusters)
    clusters.sort(key=lambda c: (-c.size, c.pattern.notation()))
    return clusters


def _promote_cluster_constants(cluster: PatternCluster, threshold: float) -> PatternCluster:
    """Return a cluster whose dominant constant positions are literal.

    ``cluster`` is a leaf cluster, so its pattern is the tokenization
    every one of its values shares.
    """
    tokenizations = [cluster.pattern.tokens] * cluster.size
    constants = discover_constant_tokens(cluster.values, tokenizations, threshold=threshold)
    if not constants:
        return cluster
    promoted = promote_constants(cluster.pattern.tokens, constants)
    return PatternCluster(pattern=Pattern(promoted), values=list(cluster.values))


def _remerge_equal_patterns(clusters: Sequence[PatternCluster]) -> List[PatternCluster]:
    """Merge clusters whose patterns became identical after promotion."""
    merged: Dict[Pattern, PatternCluster] = {}
    for cluster in clusters:
        existing = merged.get(cluster.pattern)
        if existing is None:
            merged[cluster.pattern] = cluster
        else:
            existing.values.extend(cluster.values)
    return list(merged.values())
