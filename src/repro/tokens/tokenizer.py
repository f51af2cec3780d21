"""Tokenizer converting raw strings into token sequences (Section 4.1).

Tokenization rules, quoted from the paper:

* every non-alphanumeric character becomes an individual literal token;
* runs of alphanumeric characters are split into maximal runs of a single
  most-precise base class (digits, lowercase, uppercase);
* quantifiers produced here are always natural numbers (the leaf level of
  the pattern hierarchy).

Since only ASCII alphanumerics belong to a base class, a string's
tokenization depends only on its :func:`leaf_shape` (each ASCII digit,
lowercase and uppercase letter replaced by ``0``, ``a`` and ``A``).
:func:`tokenize` splits that shape with one compiled regex;
:func:`tokenize_reference` is the character loop it must equal.

Example:
    >>> from repro.tokens import tokenize
    >>> [t.notation() for t in tokenize("Bob123@gmail.com")]
    ['<U>', '<L>2', '<D>3', "'@'", '<L>5', "'.'", '<L>3']
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence

from repro.tokens.classes import TokenClass
from repro.tokens.token import Token

#: ``str.translate`` table behind :func:`leaf_shape`: each ASCII digit
#: becomes ``0``, each ASCII lowercase letter ``a``, each ASCII uppercase
#: letter ``A``; every other character is left as it is.
_SHAPE_TABLE: Dict[int, str] = {
    **{code: "0" for code in range(ord("0"), ord("9") + 1)},
    **{code: "a" for code in range(ord("a"), ord("z") + 1)},
    **{code: "A" for code in range(ord("A"), ord("Z") + 1)},
}

#: One leaf token of a shape: a run of one class letter, or any single
#: other character (``re.S``, so newlines are literals too).
_SHAPE_TOKEN = re.compile(r"0+|a+|A+|.", re.S)

#: Base class of each run letter in a shape.
_RUN_CLASS: Dict[str, TokenClass] = {
    "0": TokenClass.DIGIT,
    "a": TokenClass.LOWER,
    "A": TokenClass.UPPER,
}

#: Base-class runs up to this long are interned; longer runs, like
#: non-ASCII literals, get a fresh token per occurrence.
MAX_INTERNED_RUN = 64

#: Shape piece (``"000"``, ``"aa"``, ``"-"``) -> its shared token: every
#: base-class run up to :data:`MAX_INTERNED_RUN` and every ASCII literal.
#: Built once at import and never grown.
_INTERNED: Dict[str, Token] = {
    **{
        letter * length: Token.base(klass, length)
        for letter, klass in _RUN_CLASS.items()
        for length in range(1, MAX_INTERNED_RUN + 1)
    },
    **{chr(code): Token.lit(chr(code)) for code in range(128) if code not in _SHAPE_TABLE},
}


def leaf_shape(value: str) -> str:
    """The shape of ``value``: every ASCII alphanumeric replaced by its class.

    ASCII digits become ``0``, lowercase letters ``a`` and uppercase
    letters ``A``; every other character stays itself.  Only ASCII
    alphanumerics belong to a base class, and every other character is
    its own literal token, so for any two strings

        ``leaf_shape(a) == leaf_shape(b)`` exactly when
        ``tokenize(a) == tokenize(b)``.

    A shape therefore keys leaf clusters as well as the leaf pattern
    does, for the cost of one ``str.translate`` instead of a
    tokenization.
    """
    return value.translate(_SHAPE_TABLE)


def _piece_token(piece: str) -> Token:
    """A fresh token for a shape piece the intern table does not hold."""
    klass = _RUN_CLASS.get(piece[0])
    return Token.lit(piece) if klass is None else Token.base(klass, len(piece))


def tokenize(value: str) -> List[Token]:
    """Tokenize one raw string into its leaf-level token sequence.

    Splits :func:`leaf_shape` of ``value`` with one compiled regex and
    maps each piece to an interned :class:`~repro.tokens.token.Token`;
    :func:`tokenize_reference` is the specification it must equal.

    Args:
        value: The raw cell value.  The empty string tokenizes to an empty
            list (the profiler groups empty strings into their own
            cluster).

    Returns:
        A list of :class:`~repro.tokens.token.Token` with natural-number
        quantifiers; non-alphanumeric characters appear as single-character
        literal tokens.
    """
    interned = _INTERNED.get
    return [
        interned(piece) or _piece_token(piece)
        for piece in _SHAPE_TOKEN.findall(value.translate(_SHAPE_TABLE))
    ]


def _char_class(char: str) -> TokenClass | None:
    """Most precise base class of a single character, or None for punctuation."""
    if char.isascii() and char.isdigit():
        return TokenClass.DIGIT
    if char.isascii() and char.isalpha():
        return TokenClass.LOWER if char.islower() else TokenClass.UPPER
    return None


def tokenize_reference(value: str) -> List[Token]:
    """The character loop :func:`tokenize` must equal (the specification).

    Walks ``value`` one character at a time: a non-alphanumeric
    character is a literal token, and a maximal run of one base class
    is one base token.
    """
    tokens: List[Token] = []
    index = 0
    length = len(value)
    while index < length:
        char = value[index]
        klass = _char_class(char)
        if klass is None:
            tokens.append(Token.lit(char))
            index += 1
            continue
        run_start = index
        while index < length and _char_class(value[index]) is klass:
            index += 1
        tokens.append(Token.base(klass, index - run_start))
    return tokens


def tokenize_all(values: Iterable[str]) -> List[List[Token]]:
    """Tokenize every string in ``values`` (convenience wrapper)."""
    return [tokenize(value) for value in values]


def detokenize_lengths(tokens: Sequence[Token]) -> List[int]:
    """Return the character length contributed by each token.

    Only valid for leaf-level tokens (numeric quantifiers); ``+`` tokens
    raise ``ValueError`` because their length is data dependent.
    """
    lengths: List[int] = []
    for token in tokens:
        fixed = token.fixed_length
        if fixed is None:
            raise ValueError("cannot compute lengths for '+' quantified tokens")
        lengths.append(fixed)
    return lengths


def split_by_tokens(value: str, tokens: Sequence[Token]) -> List[str]:
    """Split ``value`` into the substrings covered by each leaf token.

    Args:
        value: The original string.
        tokens: Its leaf tokenization (as returned by :func:`tokenize`).

    Returns:
        One substring per token, concatenating back to ``value``.

    Raises:
        ValueError: If the token lengths do not add up to ``len(value)``.
    """
    lengths = detokenize_lengths(tokens)
    if sum(lengths) != len(value):
        raise ValueError("token lengths do not cover the input string")
    pieces: List[str] = []
    cursor = 0
    for length in lengths:
        pieces.append(value[cursor : cursor + length])
        cursor += length
    return pieces
