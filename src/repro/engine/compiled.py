"""Compiled UniFi programs: the serializable compile-once artifact.

The interpreter in :mod:`repro.dsl.interpreter` re-resolves everything
per value: every branch match goes through the pattern-keyed regex cache
(hashing the pattern each time) and every plan expression is re-dispatched
with ``isinstance`` checks.  That is fine inside an interactive session
but wrong for CLX's economics — the program is synthesized *once* under
user verification and then applied to the rest of the data, so the apply
half should be as close to raw regex matching as Python allows.

:class:`CompiledProgram` is that artifact.  Compiling resolves, up front:

* the target pattern into a single pass-through regex,
* every branch pattern into a precompiled regex with one capture group
  per token,
* every plan into a flat tuple of ops — constant strings and 0-based
  capture-group slices — with ``Extract`` ranges bounds-checked against
  the branch pattern at compile time,
* every guard into a bound predicate (unguarded branches pay nothing).

Dispatch is the paper's first-match-wins Switch, in one place
(:meth:`CompiledProgram._dispatch`): a value that already matches the
target passes through, otherwise the first branch whose guard holds
and whose regex matches the *whole* value transforms it.  Regexes
decide membership with ``fullmatch``, so a trailing newline can never
slip past a ``$`` anchor.

On top of dispatch sits a **value memo**.  Guards and plans are pure
functions of the input value, so the full :class:`TransformOutcome`
for a value can be cached.  Real columns are heavy-hitter distributed;
a small bounded LRU (``memo_size`` entries, least-recently-used
eviction) lets repeated values skip regex work entirely.  The memo is
a runtime knob — it is not part of the artifact, does not affect
equality or serialization, and ``memo_size=0`` disables it.

A compiled program is immutable in its observable behaviour, safe to
share across threads (the memo tolerates concurrent access: entries are
pure and eviction races are swallowed), and round-trips through JSON via
:meth:`to_dict` / :meth:`from_dict` / :meth:`dumps` / :meth:`loads`, so
it can be saved to disk and applied by a process that never saw the
original data or session.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.result import TransformReport
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.interpreter import TransformOutcome
from repro.engine.serialize import (
    pattern_from_json,
    pattern_to_json,
    program_from_dict,
    program_to_dict,
)
from repro.patterns.matching import compiled_with_groups
from repro.patterns.pattern import Pattern
from repro.patterns.regex import compile_pattern
from repro.util.errors import SerializationError, TransformError
from repro.util.validate import validated_memo_size

#: One plan op: a constant output string, or a 0-based ``(start, stop)``
#: slice over the branch regex's capture groups.
PlanOp = Union[str, Tuple[int, int]]

#: Default bounded-LRU size for the per-program value memo.
DEFAULT_MEMO_SIZE = 4096

#: Batch misses tolerated before :meth:`CompiledProgram.run` checks the
#: hit rate and bypasses a memo that is clearly not paying for itself.
_MEMO_BYPASS_WINDOW = 1024


def _compile_plan_ops(
    plan: AtomicPlan, token_count: int, pattern: Pattern, branch_index: int
) -> Tuple[PlanOp, ...]:
    """Flatten ``plan`` into ops, bounds-checking extracts at compile time.

    ``Extract`` carries 1-based, inclusive token indices.  The AST
    constructor validates them, but artifacts rebuilt from the JSON wire
    format (or any other out-of-band construction) can smuggle a
    malformed range past it — and a ``start < 1`` would compile to a
    negative slice that wraps around the capture groups and silently
    emits wrong output.  Every range is therefore re-checked here, and
    rejected with an error naming the branch.
    """
    ops: List[PlanOp] = []
    for expression in plan.expressions:
        if isinstance(expression, ConstStr):
            ops.append(expression.text)
        elif isinstance(expression, Extract):
            if expression.start < 1 or expression.end < expression.start:
                raise TransformError(
                    f"branch {branch_index + 1}: {expression} has an invalid "
                    f"token range (indices are 1-based and end >= start)"
                )
            if expression.end > token_count:
                raise TransformError(
                    f"branch {branch_index + 1}: {expression} out of range for "
                    f"source pattern {pattern.notation()} with {token_count} tokens"
                )
            ops.append((expression.start - 1, expression.end))
        else:  # pragma: no cover - AtomicPlan already rejects these
            raise TransformError(f"unsupported expression {expression!r}")
    return tuple(ops)


class _CompiledBranch:
    """One precompiled Switch arm of the dispatch table."""

    __slots__ = ("pattern", "match", "guard", "ops")

    def __init__(self, branch: Branch, index: int) -> None:
        self.pattern = branch.pattern
        self.match = compiled_with_groups(branch.pattern).fullmatch
        self.guard: Optional[Callable[[str], bool]] = (
            branch.guard.holds if branch.guard is not None else None
        )
        self.ops = _compile_plan_ops(
            branch.plan, len(branch.pattern), branch.pattern, index
        )


class CompiledProgram:
    """A UniFi program + target pattern compiled into a regex dispatch table.

    Args:
        program: The synthesized (and user-verified) UniFi program.
        target: The target pattern; values already matching it pass
            through untouched, exactly as
            :func:`repro.core.transformer.transform_column` does.
        metadata: Optional JSON-serializable annotations (source column
            name, provenance, …) carried through serialization verbatim.
        memo_size: Bound on the value→outcome LRU memo; ``0`` disables
            memoization.  A runtime knob — not serialized, and excluded
            from equality/hashing.

    Raises:
        TransformError: If any plan extracts token indices that do not
            exist in its branch's source pattern.
        ValidationError: If ``memo_size`` is not a non-negative integer.
    """

    #: Artifact envelope markers checked on load.
    FORMAT = "clx/compiled-program"
    VERSION = 1

    __slots__ = (
        "_program",
        "_target",
        "_metadata",
        "_target_match",
        "_branches",
        "_memo",
        "_memo_size",
        "_memo_hits",
        "_memo_misses",
    )

    def __init__(
        self,
        program: UniFiProgram,
        target: Pattern,
        metadata: Optional[Dict[str, Any]] = None,
        *,
        memo_size: int = DEFAULT_MEMO_SIZE,
    ) -> None:
        self._program = program
        self._target = target
        self._metadata: Dict[str, Any] = dict(metadata) if metadata else {}
        # Validate serializability up front: a bad metadata value must
        # fail here, at the call site that supplied it, not later inside
        # dumps() deep in a compile --cache-dir store.
        if self._metadata:
            try:
                # allow_nan=False: NaN/Infinity serialize to non-JSON
                # literals that other readers reject.
                json.dumps(self._metadata, allow_nan=False)
            except (TypeError, ValueError) as error:
                raise SerializationError(
                    f"artifact metadata must be JSON-serializable: {error}"
                ) from error
        self._target_match = compile_pattern(target).fullmatch
        self._branches = tuple(
            _CompiledBranch(branch, index)
            for index, branch in enumerate(program.branches)
        )
        self._memo_size = validated_memo_size(memo_size)
        self._memo: Optional[Dict[str, TransformOutcome]] = (
            {} if self._memo_size else None
        )
        self._memo_hits = 0
        self._memo_misses = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def program(self) -> UniFiProgram:
        """The source UniFi program."""
        return self._program

    @property
    def target(self) -> Pattern:
        """The target pattern."""
        return self._target

    @property
    def metadata(self) -> Dict[str, Any]:
        """A copy of the artifact's metadata annotations."""
        return dict(self._metadata)

    @property
    def memo_size(self) -> int:
        """The configured memo bound (``0`` = memoization disabled)."""
        return self._memo_size

    def memo_stats(self) -> Dict[str, int]:
        """Memo counters: hits, misses, live entries, and the bound."""
        return {
            "hits": self._memo_hits,
            "misses": self._memo_misses,
            "entries": len(self._memo) if self._memo is not None else 0,
            "size": self._memo_size,
        }

    def clear_memo(self) -> None:
        """Drop all memo entries and reset the hit/miss counters."""
        if self._memo is not None:
            self._memo.clear()
        self._memo_hits = 0
        self._memo_misses = 0

    def __len__(self) -> int:
        return len(self._program)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompiledProgram):
            return NotImplemented
        return self._program == other._program and self._target == other._target

    def __hash__(self) -> int:
        return hash((self._program, self._target))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledProgram(target={self._target.notation()!r}, "
            f"branches={len(self._branches)})"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, value: str) -> Tuple[str, Optional[Pattern]]:
        """Run one value through the Switch, without consulting the memo.

        Returns ``(output, pattern)``: the target itself for a value
        that already conforms, the source pattern of the first branch
        whose guard holds and whose regex matches, or ``None`` (with the
        value unchanged) when nothing matches.
        """
        if self._target_match(value) is not None:
            return value, self._target
        for branch in self._branches:
            guard = branch.guard
            if guard is not None and not guard(value):
                continue
            match = branch.match(value)
            if match is None:
                continue
            groups = match.groups()
            output = "".join(
                op if type(op) is str else "".join(groups[op[0] : op[1]])
                for op in branch.ops
            )
            return output, branch.pattern
        return value, None

    def _remember(
        self, memo: Dict[str, TransformOutcome], value: str, outcome: TransformOutcome
    ) -> None:
        """Insert a miss at the most-recently-used end, evicting the oldest."""
        memo[value] = outcome
        if len(memo) > self._memo_size:
            try:
                del memo[next(iter(memo))]  # oldest = least recently used
            except (KeyError, StopIteration):  # pragma: no cover - thread race
                pass

    def run_one(self, value: str) -> TransformOutcome:
        """Transform one value (memo first, then :meth:`_dispatch`)."""
        memo = self._memo
        if memo is not None:
            cached = memo.pop(value, None)
            if cached is not None:
                memo[value] = cached  # re-insert: most-recently-used position
                self._memo_hits += 1
                return cached
        output, pattern = self._dispatch(value)
        outcome = TransformOutcome(output=output, matched=pattern is not None, pattern=pattern)
        if memo is not None:
            self._memo_misses += 1
            self._remember(memo, value, outcome)
        return outcome

    def run(self, values: Sequence[str]) -> TransformReport:
        """Batch-transform ``values`` into a :class:`TransformReport`.

        Semantically identical to calling :meth:`run_one` per value, but
        with the memo bound to locals for the tight loop.
        """
        inputs = list(values)
        outputs: List[str] = []
        matched: List[Optional[Pattern]] = []
        append_output = outputs.append
        append_matched = matched.append
        dispatch = self._dispatch
        remember = self._remember
        consult = self._memo is not None
        memo: Dict[str, TransformOutcome] = {} if self._memo is None else self._memo
        memo_pop = memo.pop
        hits = 0
        misses = 0
        for value in inputs:
            if consult:
                cached = memo_pop(value, None)
                if cached is not None:
                    memo[value] = cached  # re-insert: most-recently-used position
                    hits += 1
                    append_output(cached.output)
                    append_matched(cached.pattern)
                    continue
            output, pattern = dispatch(value)
            if consult:
                misses += 1
                remember(
                    memo,
                    value,
                    TransformOutcome(output=output, matched=pattern is not None, pattern=pattern),
                )
                # Mostly-distinct batches turn the memo into pure dict
                # churn (an LRU sees a cyclic stream larger than itself
                # as 100% misses), so once a warm-up window shows the
                # hit rate stuck under ~5%, stop consulting it for the
                # rest of this batch.  Bypassed values still count as
                # misses, so memo_stats() reflects the stream.
                if misses > _MEMO_BYPASS_WINDOW and hits * 19 < misses:
                    consult = False
            append_output(output)
            append_matched(pattern)
        if self._memo is not None:
            self._memo_hits += hits
            self._memo_misses += len(inputs) - hits
        return TransformReport(
            inputs=inputs,
            outputs=outputs,
            matched_pattern=matched,
            target=self._target,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The versioned JSON-serializable artifact envelope."""
        payload = {
            "format": self.FORMAT,
            "version": self.VERSION,
            "target": pattern_to_json(self._target),
            "program": program_to_dict(self._program),
        }
        if self._metadata:
            payload["metadata"] = dict(self._metadata)
        return payload

    @classmethod
    def from_dict(
        cls, payload: Any, *, memo_size: int = DEFAULT_MEMO_SIZE
    ) -> "CompiledProgram":
        """Rebuild (and recompile) a program from its :meth:`to_dict` form.

        ``memo_size`` configures the rebuilt program's value memo; it is
        not part of the artifact.

        Raises:
            SerializationError: On a wrong format marker, unsupported
                version, or malformed program payload.
        """
        if not isinstance(payload, dict):
            raise SerializationError(
                f"compiled-program artifact must be an object, got {type(payload).__name__}"
            )
        marker = payload.get("format")
        if marker != cls.FORMAT:
            raise SerializationError(f"unexpected artifact format {marker!r} (want {cls.FORMAT!r})")
        version = payload.get("version")
        if version != cls.VERSION:
            raise SerializationError(f"unsupported artifact version {version!r} (want {cls.VERSION})")
        metadata = payload.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise SerializationError("artifact metadata must be an object")
        if "target" not in payload or "program" not in payload:
            raise SerializationError("artifact is missing 'target' or 'program'")
        return cls(
            program=program_from_dict(payload["program"]),
            target=pattern_from_json(payload["target"]),
            metadata=metadata,
            memo_size=memo_size,
        )

    def dumps(self, indent: Optional[int] = None) -> str:
        """Serialize the artifact to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str, *, memo_size: int = DEFAULT_MEMO_SIZE) -> "CompiledProgram":
        """Parse a JSON string produced by :meth:`dumps`.

        Raises:
            SerializationError: On malformed JSON or an invalid artifact.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"artifact is not valid JSON: {error}") from error
        return cls.from_dict(payload, memo_size=memo_size)


def compile_program(
    program: UniFiProgram,
    target: Pattern,
    metadata: Optional[Dict[str, Any]] = None,
    *,
    memo_size: int = DEFAULT_MEMO_SIZE,
) -> CompiledProgram:
    """Functional spelling of :class:`CompiledProgram`'s constructor."""
    return CompiledProgram(program, target, metadata=metadata, memo_size=memo_size)
