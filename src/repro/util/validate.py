"""Shared validation of the knobs every scale path exposes.

``workers`` and ``chunk_size`` appear on :meth:`TransformEngine.run_iter`,
:class:`ShardedTableExecutor`, the parallel profiler, and three CLI
subcommands.  Before this module each layer checked them differently
(or not at all); these helpers give one message shape, so a bad value
fails the same way no matter which door it came in through.

:func:`validated_workers` resolves ``None`` to ``os.cpu_count()`` for
the entry points whose contract is "default to all cores"
(``ShardedTableExecutor``, ``ParallelProfiler``).  One deliberate
exception: the table APIs (``transform_table`` /
``apply_table``) treat ``workers=None`` as the in-process single pass
for backward compatibility, and only route explicit values through
this check.

:func:`validated_positive_int` is the shared check behind both, and
behind the :class:`~repro.synthesis.synthesizer.Synthesizer` knobs
(``max_plans_per_source``, ``keep_candidates``, ``dedup_window``).
:func:`validated_non_negative_int` is its twin for counts where zero
means "none": the dispatch memo bound and
:meth:`~repro.synthesis.synthesizer.SynthesisResult.alternatives`' count.

:func:`validated_delimiter` guards the one CSV knob every read and
write path shares; :mod:`repro.util.csvio` runs it when it first builds
a delimiter's record scanners, and the CLI runs it on ``--delimiter``.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.util.errors import ValidationError


def validated_positive_int(value: int, name: str) -> int:
    """Validate a count that must be a positive integer (``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{name} must be a positive integer, got {type(value).__name__}"
        )
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


def validated_workers(workers: Optional[int], name: str = "workers") -> int:
    """Resolve and validate a worker count.

    ``None`` resolves to ``os.cpu_count()``; anything below 1 (or a
    non-integer) raises :class:`~repro.util.errors.ValidationError`.
    """
    if workers is None:
        return os.cpu_count() or 1
    return validated_positive_int(workers, name)


def validated_chunk_size(chunk_size: int, name: str = "chunk_size") -> int:
    """Validate a chunk size (must be a positive integer)."""
    return validated_positive_int(chunk_size, name)


def validated_non_negative_int(value: int, name: str) -> int:
    """Validate a count that must be an integer >= 0 (``bool`` is not one)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"{name} must be a non-negative integer, got {type(value).__name__}"
        )
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def validated_memo_size(memo_size: int, name: str = "memo_size") -> int:
    """Validate a dispatch-memo bound.

    Unlike ``workers``/``chunk_size``, zero is a meaningful value here —
    it disables memoization rather than asking for an empty cache — so
    only negative values and non-integers are rejected.
    """
    return validated_non_negative_int(memo_size, name)


def validated_delimiter(delimiter: str, name: str = "delimiter") -> str:
    """Validate a CSV delimiter: exactly one character, not a quote or line break.

    The csv module itself rejects a multi-character delimiter only with a
    raw ``TypeError``, and silently misparses with ``"`` (the quote
    character) or a line break, so every CSV path checks here first.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ValidationError(f"{name} must be a single character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise ValidationError(
            f"{name} cannot be {delimiter!r}: it is the CSV quote character or a line break"
        )
    return delimiter
