"""Tests for executable Replace operations."""

from __future__ import annotations

from repro.dsl.replace import ReplaceOperation, apply_replace, apply_replacements


class TestReplaceOperation:
    def test_figure_4_operation(self):
        """Replace '^(digit3)-(digit3)-(digit4)$' with '($1) $2-$3'."""
        operation = ReplaceOperation(
            regex=r"^([0-9]{3})\-([0-9]{3})\-([0-9]{4})$",
            replacement="($1) $2-$3",
        )
        assert operation.apply("734-422-8073") == "(734) 422-8073"

    def test_non_matching_value_is_unchanged(self):
        operation = ReplaceOperation(regex=r"^[0-9]+$", replacement="digits")
        assert operation.apply("abc") == "abc"

    def test_matches(self):
        operation = ReplaceOperation(regex=r"^[0-9]+$", replacement="digits")
        assert operation.matches("123")
        assert not operation.matches("12a")
        assert not operation.matches("123\n")  # "$" alone admits a final "\n"
        assert operation.apply("123\n") == "123\n"

    def test_dollar_escape(self):
        operation = ReplaceOperation(regex=r"^([0-9]+)$", replacement="$$ $1")
        assert operation.apply("42") == "$ 42"

    def test_multi_digit_group_reference(self):
        groups = "".join(f"([a-z])" for _ in range(11))
        operation = ReplaceOperation(regex=f"^{groups}$", replacement="$11$10$1")
        assert operation.apply("abcdefghijk") == "kja"

    def test_str_rendering(self):
        operation = ReplaceOperation(regex="^a$", replacement="b")
        assert "Replace" in str(operation)

    def test_function_form(self):
        operation = ReplaceOperation(regex=r"^(a)(b)$", replacement="$2$1")
        assert apply_replace(operation, "ab") == "ba"


class TestApplyReplacements:
    def test_first_matching_operation_wins(self):
        operations = [
            ReplaceOperation(regex=r"^[0-9]{2}$", replacement="two"),
            ReplaceOperation(regex=r"^[0-9]+$", replacement="many"),
        ]
        assert apply_replacements(operations, "12") == "two"
        assert apply_replacements(operations, "1234") == "many"

    def test_no_match_returns_input(self):
        operations = [ReplaceOperation(regex=r"^[0-9]+$", replacement="digits")]
        assert apply_replacements(operations, "n/a") == "n/a"

    def test_empty_operation_list(self):
        assert apply_replacements([], "x") == "x"
