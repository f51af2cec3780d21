"""Exact language queries of the analyzer (repro.analysis.lang).

These are the decidable primitives every reachability/coverage verdict
rests on: subset simulation over chain NFAs on a finite atom alphabet.
Each test states a language fact a human can verify by hand.
"""

from __future__ import annotations

import pytest

from repro.analysis.lang import (
    atom_alphabet,
    contains_nfa,
    difference_witness,
    guard_satisfiable,
    keyword_always_present,
    languages_overlap,
    nfa_accepts,
    overlap_witness,
    pattern_nfa,
    random_sample_string,
    sample_string,
    subsumed_by_union,
)
from repro.patterns.parse import parse_pattern as P


def _nfa(pattern, atoms):
    return pattern_nfa(pattern, atoms)


def _subsumed(child_notation, *parent_notations):
    patterns = [P(child_notation)] + [P(n) for n in parent_notations]
    atoms = atom_alphabet(patterns)
    machines = [pattern_nfa(p, atoms) for p in patterns]
    return subsumed_by_union(machines[0], machines[1:], atoms)


def _overlap(first_notation, second_notation, excluding=()):
    patterns = [P(first_notation), P(second_notation)] + [P(n) for n in excluding]
    atoms = atom_alphabet(patterns)
    machines = [pattern_nfa(p, atoms) for p in patterns]
    return languages_overlap(machines[0], machines[1], atoms, excluding=machines[2:])


class TestAtomAlphabet:
    def test_literals_plus_one_representative_per_pool(self):
        atoms = atom_alphabet([P("<D>3'-'<D>4")])
        assert "-" in atoms  # the literal itself
        assert any(a.isdigit() for a in atoms)
        assert any(a.islower() for a in atoms)
        assert any(a.isupper() for a in atoms)
        assert "_" in atoms

    def test_representative_avoids_claimed_literals(self):
        # '0' is a literal, so "some other digit" must be a different one.
        atoms = atom_alphabet([P("'0'<D>2")])
        digits = [a for a in atoms if a.isdigit()]
        assert "0" in digits and len(digits) >= 2

    def test_extra_text_contributes_atoms(self):
        atoms = atom_alphabet([P("<D>2")], extra_text=["kg"])
        assert "k" in atoms and "g" in atoms


class TestSubsumption:
    def test_equal_patterns_subsume(self):
        assert _subsumed("<D>3'-'<D>4", "<D>3'-'<D>4")

    def test_fixed_count_inside_plus(self):
        assert _subsumed("<D>3", "<D>+")
        assert not _subsumed("<D>+", "<D>3")

    def test_class_hierarchy(self):
        assert _subsumed("<L>4", "<A>4")
        assert _subsumed("<D>2", "<AN>2")
        assert not _subsumed("<A>4", "<L>4")

    def test_literal_inside_class(self):
        assert _subsumed("'ab'", "<L>2")
        assert not _subsumed("<L>2", "'ab'")

    def test_union_coverage_needs_both_parents(self):
        # <AN>1 = letter|digit|-|_ is NOT covered by letters or digits
        # alone, nor by both together (the '-' and '_' strings remain).
        assert not _subsumed("<AN>1", "<A>1")
        assert not _subsumed("<AN>1", "<A>1", "<D>1")
        assert _subsumed("<AN>1", "<A>1", "<D>1", "'-'", "'_'")

    def test_plus_split_is_not_covered_by_fixed_unions(self):
        assert not _subsumed("<D>+", "<D>1", "<D>2", "<D>3")

    def test_empty_parents_never_subsume(self):
        assert not _subsumed("<D>1")


class TestOverlap:
    def test_disjoint_classes_do_not_overlap(self):
        assert not _overlap("<D>3", "<L>3")

    def test_shared_instances_overlap(self):
        assert _overlap("<D>+", "<D>3")
        assert _overlap("<A>2", "<L>2")

    def test_excluding_removes_the_only_witnesses(self):
        # <D>3 and <D>+ overlap exactly on <D>3 strings; excluding them
        # leaves nothing.
        assert not _overlap("<D>3", "<D>+", excluding=["<D>3"])
        assert _overlap("<D>+", "<AN>+", excluding=["<D>3"])


class TestGuards:
    def test_satisfiable_when_keyword_fits_a_class_run(self):
        atoms = atom_alphabet([P("<L>+")], extra_text=["kg"])
        machine = pattern_nfa(P("<L>+"), atoms)
        assert guard_satisfiable(machine, "kg", atoms)

    def test_unsatisfiable_when_no_match_contains_keyword(self):
        atoms = atom_alphabet([P("<U>3")], extra_text=["kg"])
        machine = pattern_nfa(P("<U>3"), atoms)
        assert not guard_satisfiable(machine, "kg", atoms)

    def test_case_insensitive_crosses_class_boundaries(self):
        atoms = atom_alphabet([P("<U>2")], extra_text=["kg", "KG"])
        machine = pattern_nfa(P("<U>2"), atoms)
        assert not guard_satisfiable(machine, "kg", atoms, case_sensitive=True)
        assert guard_satisfiable(machine, "kg", atoms, case_sensitive=False)

    def test_always_present_inside_literal_run(self):
        assert keyword_always_present(P("'lbs.'<D>+"), "lbs")
        assert keyword_always_present(P("<D>+' lbs'"), "LBS", case_sensitive=False)
        assert not keyword_always_present(P("<L>3"), "lbs")

    def test_always_present_across_adjacent_literal_tokens(self):
        # The keyword spans two literal tokens — the single-literal scan
        # used to miss this (a documented false negative); the exact
        # inclusion check does not.
        assert keyword_always_present(P("'lb''s.'<D>+"), "lbs")
        assert keyword_always_present(P("<D>+'k''g'"), "kg")

    def test_never_present_through_class_tokens_is_exact(self):
        # '0.' is NOT always present: <D>1 can be another digit.  But
        # every match of '0'<D>1 does contain '0'.
        assert not keyword_always_present(P("'0'<D>1'.'"), "0.")
        assert keyword_always_present(P("'0'<D>1'.'"), "0")

    def test_empty_keyword_is_trivially_present(self):
        assert keyword_always_present(P("<D>3"), "")

    def test_exactness_against_witness_search(self):
        # keyword_always_present must agree with the witness machinery:
        # when it says "not always", a concrete pattern match without
        # the keyword exists (and really matches the pattern's regex).
        from repro.patterns.regex import compile_pattern

        cases = [
            ("'lbs.'<D>+", "lbs"),
            ("'lb''s.'<D>+", "lbs"),
            ("<L>3", "lbs"),
            ("'0'<D>1'.'", "0."),
            ("<D>+' kg'", "kg"),
            ("<U>2'-'<D>2", "A-"),
        ]
        for notation, keyword in cases:
            pattern = P(notation)
            atoms = atom_alphabet([pattern], extra_text=[keyword])
            witness = difference_witness(
                pattern_nfa(pattern, atoms),
                [contains_nfa(keyword, atoms)],
                atoms,
            )
            always = keyword_always_present(pattern, keyword)
            assert always == (witness is None), (notation, keyword, witness)
            if witness is not None:
                assert compile_pattern(pattern).match(witness)
                assert keyword not in witness


class TestContainsNfa:
    def test_substring_search_semantics(self):
        atoms = tuple("abx")
        machine = contains_nfa("ab", atoms)
        states = 1  # bit 0: the start state
        for char in "xabx":
            states = machine.step(states, char)
        assert machine.accepts_state(states)
        states = 1
        for char in "xbax":
            states = machine.step(states, char)
        assert not machine.accepts_state(states)


class TestSampleString:
    @pytest.mark.parametrize(
        "notation", ["<D>3'-'<D>4", "'ID-'<D>+", "<L>2<U>1", "<AN>+"]
    )
    def test_sample_matches_its_own_pattern(self, notation):
        from repro.patterns.regex import compile_pattern

        pattern = P(notation)
        assert compile_pattern(pattern).match(sample_string(pattern))
        assert compile_pattern(pattern).match(sample_string(pattern, plus_length=3))
