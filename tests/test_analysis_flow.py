"""Unit tests for the output-language flow analysis (repro.analysis.flow).

Each fixture program is hand-built to trip exactly one verdict family:
target conformance (CLX015/CLX016), idempotence (CLX017/CLX018), and
static pipeline composition (CLX019–CLX021).  Every test states a
language fact about the program's *outputs* a human can verify by hand.
"""

from __future__ import annotations

import pytest

from repro.analysis.analyzer import verify_artifacts, verify_program
from repro.analysis.findings import Severity
from repro.analysis.flow import (
    branch_output_pattern,
    check_composition,
    check_flow,
    is_verified,
    plan_conforms,
    plan_is_identity,
)
from repro.dsl.ast import AtomicPlan, Branch, ConstStr, Extract, UniFiProgram
from repro.dsl.guards import ContainsGuard
from repro.engine.compiled import CompiledProgram
from repro.patterns.parse import parse_pattern as P


def _compiled(branches, target, column=None):
    metadata = {"column": column} if column else None
    return CompiledProgram(UniFiProgram(branches), P(target), metadata=metadata)


def _rules(findings):
    return [item.rule_id for item in findings]


class TestBranchOutputPattern:
    def test_const_and_extract_concatenate(self):
        branch = Branch(
            P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)])
        )
        assert branch_output_pattern(branch).notation() == "<D>3'-'<D>4"

    def test_extract_range_copies_source_tokens(self):
        branch = Branch(P("<U>2'-'<D>+"), AtomicPlan([Extract(2, 3)]))
        assert branch_output_pattern(branch).notation() == "'-'<D>+"

    def test_all_const_plan_has_literal_output(self):
        branch = Branch(P("<L>+"), AtomicPlan([ConstStr("n/a")]))
        assert branch_output_pattern(branch).notation() == "'n/a'"


class TestPlanConforms:
    def test_conforming_plan(self):
        plan = AtomicPlan([Extract(1), ConstStr("-"), Extract(3)])
        assert plan_conforms(P("<D>3'.'<D>4"), plan, P("<D>3'-'<D>4"))

    def test_nonconforming_plan(self):
        assert not plan_conforms(P("<D>3'.'<D>4"), AtomicPlan([Extract(1)]), P("<D>3'-'<D>4"))

    def test_plus_output_escapes_fixed_target(self):
        assert not plan_conforms(P("<D>+"), AtomicPlan([Extract(1)]), P("<D>3"))
        assert plan_conforms(P("<D>3"), AtomicPlan([Extract(1)]), P("<D>+"))


class TestConformance:
    def test_conforming_program_is_verified(self):
        compiled = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<D>3'-'<D>4",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert findings == []
        assert is_verified(findings)

    def test_unguarded_escape_is_clx015_error(self):
        compiled = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1)]))], "<D>3'-'<D>4"
        )
        findings = check_flow(compiled, "a.clx.json")
        assert _rules(findings) == ["CLX015"]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].location == "a.clx.json:branch[1]"
        # The witness is a concrete output outside the target language.
        assert findings[0].data["witness"] == "000"
        assert findings[0].message == (
            "plan output <D>3 escapes the target <D>3'-'<D>4: e.g. input "
            "'000.0000' can produce '000'"
        )
        assert not is_verified(findings)

    def test_guarded_escape_is_clx016_warn(self):
        compiled = _compiled(
            [
                Branch(
                    P("<D>3'.'<D>4"),
                    AtomicPlan([Extract(1)]),
                    guard=ContainsGuard("1"),
                )
            ],
            "<D>3'-'<D>4",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert _rules(findings) == ["CLX016"]
        assert findings[0].severity is Severity.WARN
        assert findings[0].data["witness"] == "000"
        assert findings[0].message == (
            "guarded branch output <D>3 is not provably inside the target "
            "<D>3'-'<D>4 (e.g. '000'); conformance is undecided"
        )
        assert not is_verified(findings)

    def test_identity_plan_branch_is_exempt(self):
        # Extract(1, 2) reproduces every <A>+'/'... match verbatim: the
        # branch cannot corrupt anything, exactly like pass-through.
        compiled = _compiled(
            [Branch(P("<A>+'/'<A>+"), AtomicPlan([Extract(1, 3)]))], "<D>3"
        )
        findings = check_flow(compiled, "a.clx.json")
        assert findings == []
        assert is_verified(findings)

    def test_dead_branch_is_not_judged(self):
        # Branch 2 is subsumed by branch 1 (unguarded, earlier): its
        # non-conforming plan can never fire, so no flow verdict.
        compiled = _compiled(
            [
                Branch(P("<D>+'.'<D>+"), AtomicPlan([Extract(1), ConstStr("!")])),
                Branch(P("<D>3'.'<D>4"), AtomicPlan([ConstStr("zzz")])),
            ],
            "<D>+'!'",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert [item.location for item in findings if item.rule_id == "CLX015"] == []

    def test_unsatisfiable_guard_branch_is_not_judged(self):
        compiled = _compiled(
            [
                Branch(
                    P("<D>3"),
                    AtomicPlan([ConstStr("zzz")]),
                    guard=ContainsGuard("kg"),
                )
            ],
            "<D>3'-'<D>4",
        )
        assert check_flow(compiled, "a.clx.json") == []


class TestIdempotence:
    def test_self_reentry_is_clx018(self):
        # Output 'x''1'<D>+ escapes the target and re-enters the branch's
        # own dispatch: repeated applies keep rewriting (x0 -> x10 -> x110).
        compiled = _compiled(
            [
                Branch(
                    P("'x'<D>+"),
                    AtomicPlan([ConstStr("x"), ConstStr("1"), Extract(2)]),
                )
            ],
            "'y'<D>2",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert _rules(findings) == ["CLX015", "CLX018"]
        reentry = findings[1]
        assert reentry.data["witness"] == "x10"
        assert reentry.message == (
            "output 'x10' re-enters this branch's own dispatch ('x'<D>+); "
            "repeated applies keep rewriting the value"
        )
        # A second apply really does rewrite the witness.
        assert compiled.run_one("x10").output != "x10"

    def test_literal_echo_gets_the_identity_treatment(self):
        # ConstStr('x') rebuilds the literal source token it stands on,
        # so the plan echoes every match (x0 -> x0): like an identity
        # plan it can neither escape the target nor keep rewriting.
        compiled = _compiled(
            [Branch(P("'x'<D>+"), AtomicPlan([ConstStr("x"), Extract(2)]))],
            "'y'<D>2",
        )
        assert compiled.run_one("x0").output == "x0"
        assert check_flow(compiled, "a.clx.json") == []

    def test_cross_reentry_is_clx017(self):
        # Branch 1's output <D>2 escapes the target and lands in branch
        # 2's dispatch, whose non-identity plan transforms it again.
        compiled = _compiled(
            [
                Branch(P("<D>2'.'<D>2"), AtomicPlan([Extract(1)])),
                Branch(P("<D>2"), AtomicPlan([ConstStr("#"), Extract(1)])),
            ],
            "'#'<D>2",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert _rules(findings) == ["CLX015", "CLX017"]
        reentry = findings[1]
        assert reentry.data["reenters_branch"] == 2
        assert reentry.location == "a.clx.json:branch[1]"
        assert reentry.data["witness"] == "00"
        assert reentry.message == (
            "output '00' re-enters branch 2 (<D>2); applying the artifact "
            "twice transforms it twice"
        )
        # A second apply really does rewrite the witness.
        assert compiled.run_one("00").output == "#00"

    def test_reentry_follows_first_match_order(self):
        # Branch 3's output '123' escapes the target and matches branch
        # 2's <D>+, but dispatch tries the identity arm <D>3 first: a
        # second apply returns '123' unchanged, so no re-entry finding.
        compiled = _compiled(
            [
                Branch(P("<D>3"), AtomicPlan([Extract(1)])),
                Branch(P("<D>+"), AtomicPlan([ConstStr("x")])),
                Branch(P("<U>3"), AtomicPlan([ConstStr("123")])),
            ],
            "<L>3",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert _rules(findings) == ["CLX015", "CLX015"]
        assert compiled.run_one("123").output == "123"

    def test_earlier_guarded_arm_does_not_hide_reentry(self):
        # A guarded arm may decline the output, so it excludes nothing:
        # the re-entry into branch 2 stays reported.
        compiled = _compiled(
            [
                Branch(P("<D>3"), AtomicPlan([Extract(1)]), guard=ContainsGuard("9")),
                Branch(P("<D>+"), AtomicPlan([ConstStr("x")])),
                Branch(P("<U>3"), AtomicPlan([ConstStr("123")])),
            ],
            "<L>3",
        )
        findings = check_flow(compiled, "a.clx.json")
        assert _rules(findings) == ["CLX015", "CLX015", "CLX017"]
        assert findings[2].data == {"reenters_branch": 2, "witness": "123"}
        assert compiled.run_one("123").output == "x"

    def test_conforming_output_never_reenters(self):
        # Conforming outputs hit the target pass-through on a second
        # apply, so no idempotence finding even though the output
        # language overlaps branch dispatch syntactically.
        compiled = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<D>3'-'<D>4",
        )
        assert check_flow(compiled, "a.clx.json") == []


class TestVerifyEntryPoints:
    def test_verify_program_returns_report_and_bit(self):
        compiled = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<D>3'-'<D>4",
        )
        report, verified = verify_program(compiled, "a.clx.json")
        assert verified and len(report) == 0

    def test_verify_artifacts_maps_each_name(self):
        good = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<D>3'-'<D>4",
        )
        bad = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1)]))], "<D>3'-'<D>4"
        )
        report, verified = verify_artifacts([("good", good), ("bad", bad)])
        assert verified == {"good": True, "bad": False}
        assert _rules(report.findings) == ["CLX015"]


class TestComposition:
    def _producer(self):
        return _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<D>3'-'<D>4",
            column="code",
        )

    def test_broken_chain_is_clx019(self):
        # The consumer reads code_transformed but only dispatches on
        # letters: nothing the producer emits can ever match.
        consumer = _compiled(
            [Branch(P("<U>+'.'<U>+"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<U>+'-'<U>+",
            column="code_transformed",
        )
        findings = check_composition(
            [("p.clx.json", self._producer()), ("c.clx.json", consumer)]
        )
        assert _rules(findings) == ["CLX019"]
        assert findings[0].severity is Severity.ERROR
        assert findings[0].location == "c.clx.json"
        assert findings[0].data["producer"] == "p.clx.json"
        assert findings[0].data["example"] == "000-0000"
        assert findings[0].message == (
            "chained artifact (reads 'code_transformed') can never match "
            "anything p.clx.json emits — e.g. '000-0000' hits no branch and "
            "no pass-through; the chain is mis-ordered or mismatched"
        )

    def test_matched_chain_is_clean(self):
        # The consumer shares the producer's target (its pass-through
        # absorbs everything the producer emits) and only transforms a
        # format the producer never produces.
        consumer = _compiled(
            [Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]))],
            "<D>3'-'<D>4",
            column="code_transformed",
        )
        findings = check_composition(
            [("p.clx.json", self._producer()), ("c.clx.json", consumer)]
        )
        assert findings == []

    def test_leaky_chain_is_clx020(self):
        # The consumer's only matching arm is guarded: values failing
        # the guard leak through unmatched, so consumption of the
        # producer's pass-through is not *sure*.
        consumer = _compiled(
            [
                Branch(
                    P("<D>3'-'<D>4"),
                    AtomicPlan([Extract(1, 3)]),
                    guard=ContainsGuard("1"),
                )
            ],
            "'#'<D>3'-'<D>4",
            column="code_transformed",
        )
        findings = check_composition(
            [("p.clx.json", self._producer()), ("c.clx.json", consumer)]
        )
        assert _rules(findings) == ["CLX020"]
        assert findings[0].severity is Severity.WARN
        assert findings[0].data["witness"] == "000-0000"
        assert findings[0].message == (
            "p.clx.json target pass-through (<D>3'-'<D>4) is not fully "
            "consumed: e.g. '000-0000' passes through unmatched"
        )

    def test_retransform_chain_is_clx021(self):
        # The consumer's branch matches values already conforming to
        # the producer's target (outside the consumer's own target) and
        # rewrites them: applying the pair twice is not idempotent.
        consumer = _compiled(
            [Branch(P("<D>3'-'<D>4"), AtomicPlan([ConstStr("#"), Extract(1, 3)]))],
            "'#'<D>3'-'<D>4",
            column="code_transformed",
        )
        findings = check_composition(
            [("p.clx.json", self._producer()), ("c.clx.json", consumer)]
        )
        assert _rules(findings) == ["CLX021"]
        assert findings[0].location == "c.clx.json:branch[1]"
        assert findings[0].data["witness"] == "000-0000"
        assert findings[0].message == (
            "branch rewrites values already conforming to p.clx.json's target "
            "(<D>3'-'<D>4): e.g. '000-0000' is transformed again"
        )
        assert consumer.run_one("000-0000").output == "#000-0000"

    def test_retransform_follows_first_match_order(self):
        # The producer's conforming values <D>3 hit the consumer's
        # identity arm before its rewriting <D>+ arm: nothing is
        # transformed again.
        producer = _compiled(
            [Branch(P("<L>3"), AtomicPlan([ConstStr("000")]))], "<D>3", column="v"
        )
        consumer = _compiled(
            [
                Branch(P("<D>3"), AtomicPlan([Extract(1)])),
                Branch(P("<D>+"), AtomicPlan([ConstStr("x")])),
            ],
            "'x'",
            column="v_transformed",
        )
        findings = check_composition([("p.clx.json", producer), ("c.clx.json", consumer)])
        assert "CLX021" not in _rules(findings)
        assert consumer.run_one("000").output == "000"

    def test_chain_requires_column_metadata(self):
        anonymous = _compiled(
            [Branch(P("<U>+"), AtomicPlan([ConstStr("x")]))], "'x'"
        )
        findings = check_composition(
            [("p.clx.json", self._producer()), ("c.clx.json", anonymous)]
        )
        assert findings == []

    def test_single_artifact_has_no_composition(self):
        assert check_composition([("p.clx.json", self._producer())]) == []


class TestPlanIsIdentity:
    @pytest.mark.parametrize(
        "plan,expected",
        [
            (AtomicPlan([Extract(1, 3)]), True),
            (AtomicPlan([Extract(1), Extract(2), Extract(3)]), True),
            (AtomicPlan([Extract(1, 2)]), False),  # drops token 3
            (AtomicPlan([Extract(3), Extract(1, 2)]), False),  # reorders
            (AtomicPlan([Extract(1, 3), ConstStr("!")]), False),
            # A ConstStr spelling the literal source token emits it.
            (AtomicPlan([Extract(1), ConstStr("."), Extract(3)]), True),
            (AtomicPlan([Extract(1), ConstStr("-"), Extract(3)]), False),
            (AtomicPlan([Extract(1), ConstStr(".0"), Extract(3)]), False),
        ],
    )
    def test_identity_detection(self, plan, expected):
        branch = Branch(P("<D>3'.'<D>4"), plan)
        assert plan_is_identity(branch) is expected

    @pytest.mark.parametrize(
        "pattern,plan,expected",
        [
            # One ConstStr may spell several adjacent literal tokens.
            ("'('')'<D>2", AtomicPlan([ConstStr("()"), Extract(3)]), True),
            ("'('')'<D>2", AtomicPlan([ConstStr("("), Extract(2, 3)]), True),
            # A ConstStr never stands in for a base token.
            ("'x'<D>1", AtomicPlan([ConstStr("x0")]), False),
            # Same output pattern, but the digits are swapped.
            ("<D><D>", AtomicPlan([Extract(2), Extract(1)]), False),
        ],
    )
    def test_literal_tokens_rebuilt_by_conststr(self, pattern, plan, expected):
        assert plan_is_identity(Branch(P(pattern), plan)) is expected
