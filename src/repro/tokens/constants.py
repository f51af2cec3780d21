"""Constant-token discovery (the "Find Constant Tokens" step of Section 4.1).

Some base tokens in the discovered patterns carry constant values across
the whole cluster — for example the "Dr." prefix in a faculty name list.
Representing them by their constant value instead of their base class
yields better patterns and better programs.  Following the paper (which
cites LearnPADS), we detect constants with simple statistics over the
tokenized strings: a token position whose observed values are dominated
by one string (above a frequency threshold) is promoted to a literal.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from repro.tokens.token import Token
from repro.tokens.tokenizer import detokenize_lengths

#: Fraction of rows in a cluster that must share the same token value for
#: the token to be promoted to a constant.
DEFAULT_CONSTANT_THRESHOLD = 0.9

#: Never promote tokens whose constant value would be longer than this —
#: very long constants are almost always data, not structure.
MAX_CONSTANT_LENGTH = 12

#: Minimum number of rows a cluster must have before any promotion runs.
#: With fewer rows the "statistics" degenerate (a singleton cluster would
#: promote every position) and the resulting all-literal patterns defeat
#: the purpose of pattern profiling.
DEFAULT_MIN_ROWS = 3


def discover_constant_tokens(
    values: Sequence[str],
    tokenizations: Sequence[Sequence[Token]],
    threshold: float = DEFAULT_CONSTANT_THRESHOLD,
    min_rows: int = DEFAULT_MIN_ROWS,
) -> Dict[int, str]:
    """Find token positions holding a constant value across ``values``.

    All ``tokenizations`` must share the same token-class *shape* (same
    classes in the same positions) — callers pass the members of a single
    leaf pattern cluster, which satisfy this by construction.

    Args:
        values: Raw strings of one pattern cluster.
        tokenizations: Leaf tokenization of each string, parallel to
            ``values``.
        threshold: Minimum fraction of rows sharing a value for promotion.
        min_rows: Minimum cluster size before promotion is considered.

    Returns:
        Mapping from token index to the constant string at that index.
        Dominant values that are purely digits are never promoted: digit
        runs (phone prefixes, years, ids) are data, not structure, and
        promoting them makes patterns brittle without improving the
        synthesized programs.
    """
    if not values or len(values) < min_rows:
        return {}
    if len(values) != len(tokenizations):
        raise ValueError("values and tokenizations must be parallel")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")

    token_count = len(tokenizations[0])
    positions = [index for index, token in enumerate(tokenizations[0]) if not token.is_literal]
    per_position: List[Counter] = [Counter() for _ in positions]
    # Rows of one leaf cluster usually share one tokenization object, so
    # its offsets are computed once and reused while it repeats.
    shared: Optional[Sequence[Token]] = None
    spans: List[Tuple[int, int]] = []
    covered = 0
    for value, tokens in zip(values, tokenizations):
        if tokens is not shared:
            if len(tokens) != token_count:
                raise ValueError("all tokenizations must have the same length")
            offsets = list(accumulate(detokenize_lengths(tokens), initial=0))
            spans = [(offsets[index], offsets[index + 1]) for index in positions]
            covered = offsets[-1]
            shared = tokens
        if covered != len(value):
            raise ValueError("token lengths do not cover the input string")
        for counter, (start, end) in zip(per_position, spans):
            counter[value[start:end]] += 1

    constants: Dict[int, str] = {}
    total = len(values)
    for index, counter in zip(positions, per_position):
        text, count = counter.most_common(1)[0]
        if text.isdigit():
            continue
        if count / total >= threshold and len(text) <= MAX_CONSTANT_LENGTH:
            constants[index] = text
    return constants


def promote_constants(
    tokens: Sequence[Token], constants: Dict[int, str]
) -> List[Token]:
    """Return a copy of ``tokens`` with the given positions made literal.

    Args:
        tokens: Token sequence of a pattern.
        constants: Mapping produced by :func:`discover_constant_tokens`.
    """
    promoted: List[Token] = []
    for index, token in enumerate(tokens):
        if index in constants and not token.is_literal:
            promoted.append(Token.lit(constants[index]))
        else:
            promoted.append(token)
    return promoted


def constant_positions(tokens: Sequence[Token]) -> Tuple[int, ...]:
    """Indices of literal tokens in ``tokens`` (useful for tests)."""
    return tuple(index for index, token in enumerate(tokens) if token.is_literal)
