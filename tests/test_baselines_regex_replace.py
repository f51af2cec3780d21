"""Tests for the RegexReplace (Trifacta-style manual replace) baseline."""

from __future__ import annotations

import pytest

from repro.baselines.regex_replace import RegexReplaceSession, RegexRule
from repro.dsl.replace import ReplaceOperation
from repro.util.errors import ValidationError


class TestRegexRule:
    def test_rule_as_operation_applies(self):
        rule = RegexRule(regex=r"^([0-9]{3})\.([0-9]{3})\.([0-9]{4})$", replacement="$1-$2-$3")
        assert rule.as_operation().apply("734.236.3466") == "734-236-3466"

    def test_matches(self):
        rule = RegexRule(regex=r"^[0-9]+$", replacement="x")
        assert rule.matches("123")
        assert not rule.matches("abc")
        assert not rule.matches("123\n")  # agrees with rule.as_operation()


class TestSession:
    def test_requires_data(self):
        with pytest.raises(ValidationError):
            RegexReplaceSession([])

    def test_invalid_regex_rejected(self):
        session = RegexReplaceSession(["x"])
        with pytest.raises(ValidationError):
            session.add_rule("([0-9]", "x")
        assert session.rule_count == 0

    def test_rules_apply_in_order(self):
        session = RegexReplaceSession(["734.236.3466", "(734) 645-8397", "N/A"])
        session.add_rule(r"^([0-9]{3})\.([0-9]{3})\.([0-9]{4})$", "$1-$2-$3")
        session.add_rule(r"^\(([0-9]{3})\) ([0-9]{3})-([0-9]{4})$", "$1-$2-$3")
        assert session.outputs() == ["734-236-3466", "734-645-8397", "N/A"]

    def test_later_rules_see_earlier_rewrites(self):
        session = RegexReplaceSession(["abc"])
        session.add_rule(r"^abc$", "def")
        session.add_rule(r"^def$", "ghi")
        assert session.outputs() == ["ghi"]

    def test_add_operation_from_replace(self):
        session = RegexReplaceSession(["12"])
        operation = ReplaceOperation(regex=r"^([0-9]+)$", replacement="n$1")
        session.add_operation(operation)
        assert session.outputs() == ["n12"]

    def test_failing_rows_and_completion(self):
        expected = {"734.236.3466": "734-236-3466", "N/A": "N/A"}
        session = RegexReplaceSession(list(expected))
        assert session.failing_rows(expected) == ["734.236.3466"]
        session.add_rule(r"^([0-9]{3})\.([0-9]{3})\.([0-9]{4})$", "$1-$2-$3")
        assert session.is_complete(expected)

    def test_failing_rows_against_pattern(self, phone_target):
        session = RegexReplaceSession(["734.236.3466"])
        assert session.failing_rows_against_pattern(phone_target) == ["734.236.3466"]
        session.add_rule(r"^([0-9]{3})\.([0-9]{3})\.([0-9]{4})$", "$1-$2-$3")
        assert session.failing_rows_against_pattern(phone_target) == []

    def test_rules_property_is_copy(self):
        session = RegexReplaceSession(["x"])
        session.add_rule("^x$", "y")
        rules = session.rules
        rules.clear()
        assert session.rule_count == 1
