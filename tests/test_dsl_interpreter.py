"""Tests for the UniFi interpreter."""

from __future__ import annotations

import pytest

from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.interpreter import apply_plan, apply_program, transform_all
from repro.patterns.parse import parse_pattern
from repro.util.errors import TransformError


class TestApplyPlan:
    def test_extract_and_const(self):
        # Source "734.236.3466" tokens: 734 . 236 . 3466
        plan = AtomicPlan(
            (
                ConstStr("("), Extract(1), ConstStr(")"), ConstStr(" "),
                Extract(3), ConstStr("-"), Extract(5),
            )
        )
        assert apply_plan(plan, ["734", ".", "236", ".", "3466"]) == "(734) 236-3466"

    def test_range_extract(self):
        plan = AtomicPlan((Extract(1, 3),))
        assert apply_plan(plan, ["a", "-", "b"]) == "a-b"

    def test_empty_plan_produces_empty_string(self):
        assert apply_plan(AtomicPlan(()), ["x"]) == ""

    def test_out_of_range_extract_raises(self):
        plan = AtomicPlan((Extract(4),))
        with pytest.raises(TransformError):
            apply_plan(plan, ["a", "b"])


class TestApplyProgram:
    def _program(self):
        dots = Branch(
            parse_pattern("<D>3'.'<D>3'.'<D>4"),
            AtomicPlan((Extract(1), ConstStr("-"), Extract(3), ConstStr("-"), Extract(5))),
        )
        return UniFiProgram((dots,))

    def test_matching_branch_applies(self):
        outcome = apply_program(self._program(), "734.236.3466")
        assert outcome.matched
        assert outcome.output == "734-236-3466"
        assert outcome.pattern is not None

    def test_unmatched_value_flagged_and_unchanged(self):
        # A trailing newline (as a quoted CSV cell can carry) is not
        # covered by the branch pattern, so it is unmatched too.
        for value in ("N/A", "734.236.3466\n"):
            outcome = apply_program(self._program(), value)
            assert not outcome.matched
            assert outcome.output == value
            assert outcome.pattern is None

    def test_first_matching_branch_wins(self):
        specific = Branch(parse_pattern("<D>2"), AtomicPlan((ConstStr("specific"),)))
        general = Branch(parse_pattern("<D>+"), AtomicPlan((ConstStr("general"),)))
        program = UniFiProgram((specific, general))
        assert apply_program(program, "12").output == "specific"
        assert apply_program(program, "123").output == "general"

    def test_transform_all_preserves_order(self):
        program = self._program()
        outcomes = transform_all(program, ["734.236.3466", "N/A"])
        assert [o.output for o in outcomes] == ["734-236-3466", "N/A"]


class TestPaperExample5Program:
    """The exact UniFi program printed in the paper for Example 5."""

    def _program(self):
        return UniFiProgram(
            (
                Branch(
                    parse_pattern("'['<U>+'-'<D>+"),
                    AtomicPlan((Extract(1, 4), ConstStr("]"))),
                ),
                Branch(
                    parse_pattern("<U>+'-'<D>+"),
                    AtomicPlan((ConstStr("["), Extract(1, 3), ConstStr("]"))),
                ),
                Branch(
                    parse_pattern("<U>+<D>+"),
                    AtomicPlan(
                        (ConstStr("["), Extract(1), ConstStr("-"), Extract(2), ConstStr("]"))
                    ),
                ),
            )
        )

    @pytest.mark.parametrize(
        "raw, desired",
        [
            ("CPT-00350", "[CPT-00350]"),
            ("[CPT-00340", "[CPT-00340]"),
            ("CPT115", "[CPT-115]"),
        ],
    )
    def test_table_3_rows(self, raw, desired):
        assert apply_program(self._program(), raw).output == desired
