"""Regex safety analysis (repro.analysis.redos).

The parser must cover exactly the regex subset the token renderer (and
the dispatch compiler around it) emits; the structural scan must flag
the two ReDoS shapes; and the probe must confirm real blow-ups within a
hard time bound — it can never hang, whatever the regex.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import analyze_program, redos
from repro.analysis.redos import (
    PROBE_BUDGET_SECONDS,
    ProbeResult,
    analyze_regex,
    parse_regex,
    scan_structure,
)
from repro.dsl.ast import AtomicPlan, Branch, Extract, UniFiProgram
from repro.engine.compiled import CompiledProgram
from repro.patterns.matching import compiled_with_groups
from repro.patterns.parse import parse_pattern as P
from repro.patterns.regex import pattern_to_regex


class TestParser:
    @pytest.mark.parametrize(
        "notation",
        ["<D>3'-'<D>4", "'(a)+*?.'<D>+", "<AN>+'_'<U>2", "'ID-'<L>+"],
    )
    def test_parses_every_rendered_pattern_regex(self, notation):
        # Both regex flavors the engine actually compiles.
        parse_regex(pattern_to_regex(P(notation)))
        parse_regex(compiled_with_groups(P(notation)).pattern)

    @pytest.mark.parametrize(
        "source",
        [
            r"^(?:[a-z]+)+$",
            r"^(?=.*kg)[a-z0-9]+$",
            r"^(?i:abc)[0-9]{3,}$",
            r"^(?P<word>\w+)\s?$",
            r"^[^@]+@[a-z.]+$",
            r"^(a|bc|[0-9]{2,4})?$",
        ],
    )
    def test_parses_common_constructs(self, source):
        parse_regex(source)

    def test_unparseable_regex_yields_no_findings(self):
        issues, probe = analyze_regex(r"^(?<=look)behind$")
        assert issues == [] and probe is None


class TestStructure:
    def test_nested_unbounded_quantifier_flagged(self):
        issues = scan_structure(parse_regex(r"^(?:[a-z]+)+$"))
        assert "nested" in {issue.kind for issue in issues}

    def test_overlapping_alternation_under_quantifier_flagged(self):
        issues = scan_structure(parse_regex(r"^(?:ab|[a-z]c)+$"))
        assert "ambiguous" in {issue.kind for issue in issues}

    def test_adjacent_overlapping_unbounded_repeats_flagged(self):
        issues = scan_structure(parse_regex(r"^([a-z]+)([a-z0-9]+)$"))
        assert "ambiguous" in {issue.kind for issue in issues}

    @pytest.mark.parametrize(
        "source",
        [
            r"^[0-9]{3}-[0-9]{4}$",          # fixed counts only
            r"^[a-z]+@[0-9]+$",              # disjoint adjacent repeats
            r"^(?:ab|cd)+$",                 # disjoint alternation arms
            r"^[a-z]+\.[a-z]+$",             # separated by a literal
        ],
    )
    def test_healthy_regexes_are_clean(self, source):
        assert scan_structure(parse_regex(source)) == []


class TestProbe:
    def test_exponential_regex_is_confirmed_slow(self):
        issues, probe = analyze_regex(r"^(?:[a-z]+)+$")
        assert issues and probe is not None
        assert probe.slow
        assert probe.seconds > PROBE_BUDGET_SECONDS

    def test_probe_is_time_bounded(self):
        start = time.perf_counter()
        analyze_regex(r"^(?:[a-z]+)+$")
        # Structural flag + probe must stay well under a second even for
        # a regex whose worst case is measured in hours.
        assert time.perf_counter() - start < 2.0

    def test_clean_regex_is_never_probed(self):
        issues, probe = analyze_regex(r"^[0-9]{3}-[0-9]{4}$")
        assert issues == [] and probe is None

    def test_polynomial_ambiguity_stays_warn_level(self):
        # Two adjacent overlapping '+' groups backtrack polynomially —
        # structurally flagged, but the probe finds them fast, so no
        # CLX006 escalation.
        issues, probe = analyze_regex(r"^([a-z]+)([a-z0-9]+)$")
        assert {issue.kind for issue in issues} == {"ambiguous"}
        assert probe is not None and not probe.slow


def _flagged_program():
    """One branch of eight adjacent overlapping '+' tokens: structurally flagged."""
    branch = Branch(P("<A>+" * 8), AtomicPlan([Extract(1, 8)]))
    return CompiledProgram(UniFiProgram([branch]), P("<D>3"))


class TestProbeFlag:
    def test_probe_false_never_runs_the_probe(self, monkeypatch):
        def refuse(regex_source, node):
            raise AssertionError(f"probe ran on {regex_source!r} with probe=False")

        monkeypatch.setattr(redos, "probe", refuse)
        report = analyze_program(_flagged_program(), probe=False)
        codes = {finding.rule_id for finding in report.findings}
        assert "CLX005" in codes and "CLX006" not in codes
        assert analyze_regex(r"^(?:[a-z]+)+$", probe=False)[1] is None

    def test_structural_findings_do_not_depend_on_the_flag(self, monkeypatch):
        monkeypatch.setattr(
            redos,
            "probe",
            lambda regex_source, node: ProbeResult(slow=True, input_length=64, seconds=1.0),
        )
        probed = analyze_program(_flagged_program(), probe=True).findings
        unprobed = analyze_program(_flagged_program(), probe=False).findings
        assert "CLX006" in {finding.rule_id for finding in probed}
        assert [finding for finding in probed if finding.rule_id != "CLX006"] == unprobed
