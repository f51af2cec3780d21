"""Regex safety analysis (repro.analysis.redos).

The token rule must flag adjacent overlapping ``+`` tokens and nothing
else; the pump must build the adversarial input the probe has always
used; and the probe must confirm real blow-ups within a hard time
bound — it can never hang, whatever the regex.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import analyze_program, redos
from repro.analysis.passes import check_regex_safety
from repro.analysis.redos import (
    PROBE_BUDGET_SECONDS,
    ProbeResult,
    ambiguous_repetition,
    probe,
    pump,
)
from repro.dsl.ast import AtomicPlan, Branch, Extract, UniFiProgram
from repro.engine.compiled import CompiledProgram
from repro.patterns.matching import compiled_with_groups
from repro.patterns.parse import parse_pattern as P
from repro.patterns.regex import pattern_to_regex

#: A classic exponential regex and its greedy adversarial input.
_NESTED = r"^(?:[a-z]+)+$"
_NESTED_PUMP = "a" * 256


class TestStructure:
    def test_adjacent_overlapping_unbounded_repeats_flagged(self):
        assert ambiguous_repetition(P("<L>+<AN>+"))

    @pytest.mark.parametrize(
        "notation",
        [
            "<D>3'-'<D>4",   # fixed counts only
            "<L>+'@'<D>+",   # separated by a literal
            "<L>+'.'<L>+",   # separated by a literal
            "<L>+<D>+",      # disjoint adjacent repeats
        ],
    )
    def test_healthy_regexes_are_clean(self, notation):
        assert not ambiguous_repetition(P(notation))


#: ``pump(pattern, 256)``, recorded from the regex parser's pump on both
#: renderings of each pattern before the parser was deleted.
_PUMP_PINS = [
    ("<AN>+'.'<L>+", "-" * 128 + "." + "a" * 127),
    ("<D>3'-'<D>4", "000-0000"),
    ("'ID-'<L>+", "ID-" + "a" * 253),
    ("<U>2' '<D>+'.'<D>2", "AA " + "0" * 253),
    ("<L><U>2'#'", "aAA#"),
    ("<A>+" * 8, "A" * 256),
]


class TestPump:
    @pytest.mark.parametrize(
        "notation, expected", _PUMP_PINS, ids=[notation for notation, _ in _PUMP_PINS]
    )
    def test_pins_the_adversarial_input(self, notation, expected):
        assert pump(P(notation), 256) == expected

    def test_each_plus_token_gets_at_least_two_characters(self):
        # Three '+' tokens in four characters: a share of 2, then the cut.
        assert pump(P("<D>+'-'<L>+<D>+"), 4) == "00-a"


class TestProbe:
    @pytest.mark.parametrize(
        "notation",
        ["<D>3'-'<D>4", "'(a)+*?.'<D>+", "<AN>+'_'<U>2", "'ID-'<L>+"],
    )
    def test_probes_every_rendered_pattern_regex(self, notation):
        # Both regex flavors the engine actually compiles: a probe that
        # returned None here would silently drop a CLX006.
        pattern = P(notation)
        for source in (pattern_to_regex(pattern), compiled_with_groups(pattern).pattern):
            measured = probe(source, pump(pattern))
            assert measured is not None and not measured.slow, source

    def test_uncompilable_regex_is_not_probed(self):
        assert probe(r"^(?:[a-z]+$", _NESTED_PUMP) is None

    def test_empty_pump_is_not_probed(self):
        assert probe(_NESTED, "") is None

    def test_exponential_regex_is_confirmed_slow(self):
        measured = probe(_NESTED, _NESTED_PUMP)
        assert measured is not None
        assert measured.slow
        assert measured.seconds > PROBE_BUDGET_SECONDS

    def test_probe_is_time_bounded(self):
        start = time.perf_counter()
        probe(_NESTED, _NESTED_PUMP)
        # The probe must stay well under a second even for a regex whose
        # worst case is measured in hours.
        assert time.perf_counter() - start < 2.0

    def test_clean_regex_is_never_probed(self, monkeypatch):
        def refuse(regex_source, pumped):
            raise AssertionError(f"probe ran on clean regex {regex_source!r}")

        monkeypatch.setattr(redos, "probe", refuse)
        branch = Branch(P("<D>3'.'<D>4"), AtomicPlan([Extract(1, 3)]))
        report = analyze_program(CompiledProgram(UniFiProgram([branch]), P("<D>3'-'<D>4")))
        assert not {"CLX004", "CLX005", "CLX006"} & {f.rule_id for f in report.findings}

    def test_polynomial_ambiguity_stays_warn_level(self):
        # Two adjacent overlapping '+' groups backtrack polynomially —
        # flagged by the token rule, but the probe finds them fast, so
        # no CLX006 escalation.
        pattern = P("<L>+<AN>+")
        measured = probe(compiled_with_groups(pattern).pattern, pump(pattern))
        assert measured is not None and not measured.slow


def _flagged_program():
    """One branch of eight adjacent overlapping '+' tokens: flagged CLX005."""
    branch = Branch(P("<A>+" * 8), AtomicPlan([Extract(1, 8)]))
    return CompiledProgram(UniFiProgram([branch]), P("<D>3"))


class TestProbeFlag:
    def test_probe_false_never_runs_the_probe(self, monkeypatch):
        def refuse(regex_source, pumped):
            raise AssertionError(f"probe ran on {regex_source!r} with probe=False")

        monkeypatch.setattr(redos, "probe", refuse)
        report = analyze_program(_flagged_program(), probe=False)
        codes = {finding.rule_id for finding in report.findings}
        assert "CLX005" in codes and "CLX006" not in codes

    def test_structural_findings_do_not_depend_on_the_flag(self, monkeypatch):
        monkeypatch.setattr(
            redos,
            "probe",
            lambda regex_source, pumped: ProbeResult(slow=True, input_length=64, seconds=1.0),
        )
        probed = analyze_program(_flagged_program(), probe=True).findings
        unprobed = analyze_program(_flagged_program(), probe=False).findings
        assert "CLX006" in {finding.rule_id for finding in probed}
        assert [finding for finding in probed if finding.rule_id != "CLX006"] == unprobed


def _program(target, branch):
    """A one-branch program: ``branch`` extracts its first token."""
    return CompiledProgram(UniFiProgram([Branch(P(branch), AtomicPlan([Extract(1, 1)]))]), P(target))


class TestCheckRegexSafety:
    def test_target_finding_carries_the_anchored_regex(self):
        findings = check_regex_safety(_program("<L>+<AN>+", "<D>3"), "t.clx.json", probe=False)
        assert [(f.rule_id, f.location, f.data["regex"]) for f in findings] == [
            ("CLX005", "t.clx.json", pattern_to_regex(P("<L>+<AN>+")))
        ]

    def test_branch_finding_carries_the_grouped_regex(self):
        findings = check_regex_safety(_program("<D>3", "<L>+<AN>+"), "t.clx.json", probe=False)
        assert [(f.rule_id, f.location, f.data["regex"]) for f in findings] == [
            ("CLX005", "t.clx.json:branch[1]", compiled_with_groups(P("<L>+<AN>+")).pattern)
        ]

    def test_probe_gets_the_rendering_and_the_pump(self, monkeypatch):
        calls = []

        def record(regex_source, pumped):
            calls.append((regex_source, pumped))
            return None

        monkeypatch.setattr(redos, "probe", record)
        check_regex_safety(_program("<U>+<A>+", "<L>+'.'<L>+<AN>+"), "t.clx.json")
        assert calls == [
            (pattern_to_regex(P("<U>+<A>+")), pump(P("<U>+<A>+"))),
            (
                compiled_with_groups(P("<L>+'.'<L>+<AN>+")).pattern,
                pump(P("<L>+'.'<L>+<AN>+")),
            ),
        ]

    def test_slow_probe_escalates_at_the_flagged_location(self, monkeypatch):
        monkeypatch.setattr(
            redos,
            "probe",
            lambda regex_source, pumped: ProbeResult(slow=True, input_length=64, seconds=1.0),
        )
        findings = check_regex_safety(_program("<D>3", "<L>+<AN>+"), "t.clx.json")
        assert [(f.rule_id, f.location) for f in findings] == [
            ("CLX005", "t.clx.json:branch[1]"),
            ("CLX006", "t.clx.json:branch[1]"),
        ]
        assert findings[1].data == {"input_length": 64, "seconds": 1.0}
