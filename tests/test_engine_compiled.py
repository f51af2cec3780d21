"""Tests for CompiledProgram — the serializable compile-once artifact."""

from __future__ import annotations

import pytest

from repro.core.session import CLXSession
from repro.core.transformer import transform_column
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.guards import ContainsGuard
from repro.dsl.interpreter import apply_program, apply_with_target
from repro.engine.compiled import CompiledProgram, compile_program
from repro.patterns.parse import parse_pattern
from repro.util.errors import SerializationError, TransformError, ValidationError


def _bypassed_extract(start, end):
    """An Extract built around the AST validator, as a corrupted wire
    artifact (or any out-of-band construction) could produce."""
    expression = object.__new__(Extract)
    object.__setattr__(expression, "start", start)
    object.__setattr__(expression, "end", end)
    return expression


@pytest.fixture
def phone_session(phone_values, phone_target):
    session = CLXSession(phone_values)
    session.label_target(phone_target)
    return session


class TestCompilation:
    def test_matches_session_transform(self, phone_session, phone_values):
        expected = phone_session.transform()
        compiled = CompiledProgram(phone_session.program, phone_session.target)
        report = compiled.run(phone_values)
        assert report.outputs == expected.outputs
        assert report.matched_pattern == expected.matched_pattern

    def test_matches_interpreter_on_non_target_values(self, phone_session):
        compiled = phone_session.compile()
        for value in ["(734) 645-8397", "734.236.3466", "definitely not a phone"]:
            outcome = compiled.run_one(value)
            reference = apply_program(phone_session.program, value)
            assert outcome.output == reference.output

    def test_target_values_pass_through(self, phone_session, phone_target):
        compiled = phone_session.compile()
        outcome = compiled.run_one("734-422-8073")
        assert outcome.output == "734-422-8073"
        assert outcome.matched and outcome.pattern == phone_target

    def test_unmatched_values_flagged_unchanged(self, phone_session):
        outcome = phone_session.compile().run_one("N/A!!!")
        assert outcome.output == "N/A!!!"
        assert not outcome.matched and outcome.pattern is None

    def test_out_of_range_extract_fails_at_compile_time(self):
        branch = Branch(
            pattern=parse_pattern("<D>3"),
            plan=AtomicPlan([Extract(2)]),  # pattern has a single token
        )
        with pytest.raises(TransformError):
            CompiledProgram(UniFiProgram([branch]), parse_pattern("<D>4"))

    def test_guarded_branches_respect_guards(self):
        pattern = parse_pattern("<L>+")
        program = UniFiProgram(
            [
                Branch(
                    pattern=pattern,
                    plan=AtomicPlan([ConstStr("PIC")]),
                    guard=ContainsGuard("picture"),
                ),
                Branch(pattern=pattern, plan=AtomicPlan([Extract(1)])),
            ]
        )
        compiled = CompiledProgram(program, parse_pattern("<U>+"))
        assert compiled.run_one("picture").output == "PIC"
        assert compiled.run_one("words").output == "words"

    def test_functional_constructor(self, phone_session, phone_values):
        compiled = compile_program(phone_session.program, phone_session.target)
        assert compiled == phone_session.compile()
        assert len(compiled) == len(phone_session.program)

    def test_equality_and_hash(self, phone_session):
        first = phone_session.compile()
        second = phone_session.compile()
        assert first == second
        assert hash(first) == hash(second)
        assert first != object()


class TestSerialization:
    def test_json_round_trip_identical_outputs(self, phone_session, phone_values):
        compiled = phone_session.compile()
        revived = CompiledProgram.loads(compiled.dumps())
        assert revived == compiled
        assert revived.run(phone_values).outputs == compiled.run(phone_values).outputs

    def test_round_trip_preserves_guards(self):
        pattern = parse_pattern("<L>+")
        program = UniFiProgram(
            [
                Branch(
                    pattern=pattern,
                    plan=AtomicPlan([ConstStr("X")]),
                    guard=ContainsGuard("kw", case_sensitive=False),
                )
            ]
        )
        compiled = CompiledProgram(program, parse_pattern("<U>+"))
        revived = CompiledProgram.loads(compiled.dumps(indent=2))
        assert revived.program.branches[0].guard == ContainsGuard("kw", case_sensitive=False)

    def test_metadata_round_trips(self, phone_session):
        compiled = phone_session.compile(metadata={"column": "phone", "rows": 7})
        revived = CompiledProgram.loads(compiled.dumps())
        assert revived.metadata == {"column": "phone", "rows": 7}

    def test_metadata_is_copied(self, phone_session):
        compiled = phone_session.compile(metadata={"column": "phone"})
        compiled.metadata["column"] = "mutated"
        assert compiled.metadata == {"column": "phone"}

    def test_envelope_is_versioned(self, phone_session):
        payload = phone_session.compile().to_dict()
        assert payload["format"] == CompiledProgram.FORMAT
        assert payload["version"] == CompiledProgram.VERSION

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda payload: payload.pop("format"),
            lambda payload: payload.update(format="clx/other"),
            lambda payload: payload.update(version=99),
            lambda payload: payload.pop("program"),
            lambda payload: payload.pop("target"),
            lambda payload: payload.update(metadata=[1, 2]),
        ],
    )
    def test_malformed_envelopes_rejected(self, phone_session, mutate):
        payload = phone_session.compile().to_dict()
        mutate(payload)
        with pytest.raises(SerializationError):
            CompiledProgram.from_dict(payload)

    def test_loads_rejects_bad_json(self):
        with pytest.raises(SerializationError):
            CompiledProgram.loads("][")
        with pytest.raises(SerializationError):
            CompiledProgram.loads('"a string"')

    def test_equals_transform_column_after_round_trip(self, phone_session, phone_values):
        compiled = CompiledProgram.loads(phone_session.compile().dumps())
        reference = transform_column(
            phone_session.program, phone_values, phone_session.target
        )
        assert compiled.run(phone_values).outputs == reference.outputs


class TestMetadataValidation:
    def _program(self):
        return UniFiProgram(
            (Branch(parse_pattern("<D>3'.'<D>4"), AtomicPlan([Extract(1)])),)
        )

    def test_unserializable_metadata_rejected_at_construction(self):
        # The old behavior deferred the failure to dumps(), long after
        # the caller that supplied the bad value has left the stack.
        with pytest.raises(SerializationError, match="JSON-serializable"):
            CompiledProgram(
                self._program(),
                parse_pattern("<D>3'-'<D>4"),
                metadata={"column": object()},
            )

    def test_non_string_safe_values_rejected(self):
        with pytest.raises(SerializationError):
            CompiledProgram(
                self._program(),
                parse_pattern("<D>3'-'<D>4"),
                metadata={"nan": float("nan")},
            )

    def test_serializable_metadata_accepted(self):
        compiled = CompiledProgram(
            self._program(),
            parse_pattern("<D>3'-'<D>4"),
            metadata={"column": "phone", "rows": 3, "nested": {"ok": [1, 2]}},
        )
        assert CompiledProgram.loads(compiled.dumps()).metadata == compiled.metadata


class TestPlanRangeValidation:
    """The start<1 / end<start guard in _compile_plan_ops.

    ``Extract.__init__`` validates its indices, but the compile path
    must not trust it: a corrupted wire artifact or out-of-band
    construction that smuggles ``start < 1`` past the AST would compile
    to a negative group slice that silently emits wrong output.
    """

    def _program_with(self, expression):
        branch = Branch(
            pattern=parse_pattern("<D>3'.'<D>4"),
            plan=AtomicPlan([expression]),
        )
        return UniFiProgram([branch])

    def test_start_below_one_rejected_naming_branch(self):
        program = self._program_with(_bypassed_extract(0, 1))
        with pytest.raises(TransformError, match="branch 1"):
            CompiledProgram(program, parse_pattern("<D>3'-'<D>4"))

    def test_negative_start_rejected(self):
        program = self._program_with(_bypassed_extract(-2, 1))
        with pytest.raises(TransformError, match="invalid token range"):
            CompiledProgram(program, parse_pattern("<D>3'-'<D>4"))

    def test_end_before_start_rejected(self):
        program = self._program_with(_bypassed_extract(3, 1))
        with pytest.raises(TransformError, match="branch 1"):
            CompiledProgram(program, parse_pattern("<D>3'-'<D>4"))

    def test_error_names_the_offending_branch(self):
        pattern = parse_pattern("<D>3'.'<D>4")
        program = UniFiProgram(
            [
                Branch(pattern=pattern, plan=AtomicPlan([Extract(1)])),
                Branch(pattern=pattern, plan=AtomicPlan([_bypassed_extract(0, 1)])),
            ]
        )
        with pytest.raises(TransformError, match="branch 2"):
            CompiledProgram(program, parse_pattern("<D>3'-'<D>4"))

    def test_wire_format_mutant_rejected_on_load(self, phone_session):
        # The wire format's own deserializer also refuses a corrupt
        # range (Extract validates on construction); either way the
        # artifact must never load into a silently-wrong program.
        import json as json_module

        payload = json_module.loads(phone_session.compile().dumps())
        corrupted = False
        for branch in payload["program"]["branches"]:
            for op in branch["plan"]:
                if op.get("op") == "extract":
                    op["start"] = 0
                    corrupted = True
                    break
            if corrupted:
                break
        assert corrupted, "phone program has no extract op to corrupt"
        with pytest.raises((SerializationError, TransformError)):
            CompiledProgram.loads(json_module.dumps(payload))


def _reference_outputs(compiled, values):
    """Outputs and matched patterns from the reference interpreter."""
    outcomes = [
        apply_with_target(compiled.program, compiled.target, value) for value in values
    ]
    return [o.output for o in outcomes], [o.pattern for o in outcomes]


class TestMemoDispatch:
    def test_memoized_outcomes_match_naive(self, phone_session, phone_values):
        artifact = phone_session.compile().dumps()
        fast = CompiledProgram.loads(artifact)
        stream = list(phone_values) * 3 + ["nonsense", "nonsense"]
        fast_report = fast.run(stream)
        assert (fast_report.outputs, fast_report.matched_pattern) == _reference_outputs(
            fast, stream
        )
        stats = fast.memo_stats()
        assert stats["hits"] > 0
        assert stats["hits"] + stats["misses"] == len(stream)

    def test_batch_bypasses_memo_when_values_never_repeat(self, phone_session):
        # A mostly-distinct batch is the memo's worst case (pure dict
        # churn), so run() stops consulting it once a warm-up window
        # shows the hit rate stuck near zero — without changing outputs
        # or the stats contract.
        artifact = phone_session.compile().dumps()
        fast = CompiledProgram.loads(artifact)
        stream = [f"({700 + i % 300}) {100 + i % 900}-{1000 + i}" for i in range(3000)]
        fast_report = fast.run(stream)
        assert fast_report.outputs == _reference_outputs(fast, stream)[0]
        stats = fast.memo_stats()
        assert stats["hits"] == 0
        assert stats["misses"] == len(stream)  # bypassed values still count
        assert stats["entries"] <= fast.memo_size

    def test_run_one_uses_memo(self, phone_session):
        compiled = CompiledProgram.loads(phone_session.compile().dumps())
        first = compiled.run_one("(734) 330-9426")
        second = compiled.run_one("(734) 330-9426")
        assert first == second
        assert compiled.memo_stats()["hits"] == 1
        assert compiled.memo_stats()["misses"] == 1

    def test_memo_size_zero_disables_memo(self, phone_session, phone_values):
        compiled = CompiledProgram.loads(phone_session.compile().dumps(), memo_size=0)
        assert compiled.memo_size == 0
        compiled.run(list(phone_values) * 2)
        stats = compiled.memo_stats()
        assert stats == {"hits": 0, "misses": 0, "entries": 0, "size": 0}

    def test_memo_is_bounded_lru(self, phone_session):
        compiled = CompiledProgram.loads(phone_session.compile().dumps(), memo_size=2)
        values = ["(111) 111-1111", "(222) 222-2222", "(333) 333-3333"]
        for value in values:
            compiled.run_one(value)
        assert compiled.memo_stats()["entries"] == 2
        # The least-recently-used entry (the first value) was evicted:
        # re-running it is a miss, while the most recent two still hit.
        compiled.run_one(values[2])
        assert compiled.memo_stats()["hits"] == 1
        compiled.run_one(values[0])
        assert compiled.memo_stats()["misses"] == 4

    def test_lru_reinsertion_protects_hot_values(self, phone_session):
        compiled = CompiledProgram.loads(phone_session.compile().dumps(), memo_size=2)
        compiled.run_one("(111) 111-1111")
        compiled.run_one("(222) 222-2222")
        compiled.run_one("(111) 111-1111")  # hit: moves to MRU position
        compiled.run_one("(333) 333-3333")  # evicts (222), not (111)
        hits_before = compiled.memo_stats()["hits"]
        compiled.run_one("(111) 111-1111")
        assert compiled.memo_stats()["hits"] == hits_before + 1

    def test_clear_memo_resets_entries_and_counters(self, phone_session, phone_values):
        compiled = CompiledProgram.loads(phone_session.compile().dumps())
        compiled.run(list(phone_values) * 2)
        assert compiled.memo_stats()["entries"] > 0
        compiled.clear_memo()
        assert compiled.memo_stats() == {
            "hits": 0,
            "misses": 0,
            "entries": 0,
            "size": compiled.memo_size,
        }

    def test_memo_excluded_from_equality_and_serialization(self, phone_session):
        artifact = phone_session.compile().dumps()
        default = CompiledProgram.loads(artifact)
        tuned = CompiledProgram.loads(artifact, memo_size=7)
        assert default == tuned
        assert hash(default) == hash(tuned)
        assert tuned.dumps() == default.dumps()

    @pytest.mark.parametrize("bad", [-1, -4096, 1.5, "16", True])
    def test_invalid_memo_size_rejected(self, phone_session, bad):
        artifact = phone_session.compile().dumps()
        with pytest.raises(ValidationError, match="memo_size"):
            CompiledProgram.loads(artifact, memo_size=bad)


class TestDispatchOrder:
    def _two_branch_program(self):
        return UniFiProgram(
            [
                Branch(
                    pattern=parse_pattern("<D>3'.'<D>4"),
                    plan=AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]),
                ),
                Branch(
                    pattern=parse_pattern("'('<D>3')'' '<D>3'-'<D>4"),
                    plan=AtomicPlan([Extract(2), ConstStr("-"), Extract(5), ConstStr("-"), Extract(7)]),
                ),
            ]
        )

    def test_single_branch(self):
        program = UniFiProgram(
            [Branch(parse_pattern("<D>3'.'<D>4"), AtomicPlan([Extract(1)]))]
        )
        compiled = CompiledProgram(program, parse_pattern("<D>3'-'<D>4"))
        assert compiled.run_one("123.4567").output == "123"

    def test_outputs_match_interpreter(self, phone_session, phone_values):
        compiled = CompiledProgram.loads(phone_session.compile().dumps(), memo_size=0)
        probes = list(phone_values) + ["nope", "", "734.236.3466", "(734) 645-8397"]
        for value in probes:
            actual = compiled.run_one(value)
            expected = apply_with_target(compiled.program, compiled.target, value)
            assert (actual.output, actual.matched, actual.pattern) == (
                expected.output,
                expected.matched,
                expected.pattern,
            ), value

    def test_first_match_wins_order_preserved(self):
        # Both branches match "abc"; dispatch must pick the first.
        pattern = parse_pattern("<L>+")
        program = UniFiProgram(
            [
                Branch(pattern=pattern, plan=AtomicPlan([ConstStr("FIRST")])),
                Branch(pattern=pattern, plan=AtomicPlan([ConstStr("SECOND")])),
            ]
        )
        compiled = CompiledProgram(program, parse_pattern("<U>+"))
        assert compiled.run_one("abc").output == "FIRST"
        assert compiled.run_one("abc").pattern is program.branches[0].pattern

    def test_guard_in_front_vetoes_per_value(self):
        pattern = parse_pattern("<L>+")
        program = UniFiProgram(
            [
                Branch(
                    pattern=pattern,
                    plan=AtomicPlan([ConstStr("PIC")]),
                    guard=ContainsGuard("picture"),
                ),
                Branch(pattern=pattern, plan=AtomicPlan([Extract(1)])),
                Branch(pattern=parse_pattern("<D>+"), plan=AtomicPlan([ConstStr("NUM")])),
            ]
        )
        compiled = CompiledProgram(program, parse_pattern("<U>+"))
        assert compiled.run_one("picture").output == "PIC"
        assert compiled.run_one("words").output == "words"
        assert compiled.run_one("123").output == "NUM"

    def test_unguarded_prefix_then_guarded_tail(self):
        program = UniFiProgram(
            [
                Branch(parse_pattern("<D>+"), AtomicPlan([ConstStr("NUM")])),
                Branch(parse_pattern("<U>+"), AtomicPlan([ConstStr("CAPS")])),
                Branch(
                    pattern=parse_pattern("<L>+"),
                    plan=AtomicPlan([ConstStr("PIC")]),
                    guard=ContainsGuard("picture"),
                ),
                Branch(parse_pattern("<L>+"), AtomicPlan([Extract(1)])),
            ]
        )
        compiled = CompiledProgram(program, parse_pattern("'#'"))
        assert compiled.run_one("123").output == "NUM"
        assert compiled.run_one("ABC").output == "CAPS"
        assert compiled.run_one("picture").output == "PIC"
        assert compiled.run_one("words").output == "words"

    def test_multi_token_extracts(self):
        compiled = CompiledProgram(
            self._two_branch_program(), parse_pattern("<D>3'-'<D>4")
        )
        assert compiled.run_one("555.0199").output == "555-0199"
        assert compiled.run_one("(734) 555-0199").output == "734-555-0199"
        assert not compiled.run_one("not a phone").matched

    @pytest.mark.parametrize("value", ["555.0199\n", "555-0199\n"])
    def test_trailing_newline_is_not_matched(self, value):
        # re.match lets "$" match before a final "\n"; a value with one
        # must neither pass through as target-conforming nor match a
        # branch whose pattern never saw the newline.
        compiled = CompiledProgram(
            self._two_branch_program(), parse_pattern("<D>3'-'<D>4")
        )
        outcome = compiled.run_one(value)
        assert (outcome.output, outcome.matched, outcome.pattern) == (value, False, None)
        report = compiled.run([value])
        assert (report.outputs, report.matched_pattern) == ([value], [None])
        reference = apply_with_target(compiled.program, compiled.target, value)
        assert (reference.output, reference.matched) == (value, False)
