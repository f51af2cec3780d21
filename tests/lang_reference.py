"""Frozenset reference for the language queries of ``repro.analysis.lang``.

The subset simulation ``lang`` ran before its state sets became int
masks: chain NFAs as per-state transition dicts, one ``frozenset`` per
machine in a tuple per joint state, and ``hit``/``prune`` closures.  The
differential property test and the ``test_perf_language_search`` bench
row compare ``lang`` against it; the two must return byte-identical
witnesses, since both explore the same joint states in the same
breadth-first order over the sorted atom alphabet.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.patterns.pattern import Pattern

Transitions = List[Dict[str, Set[int]]]
Joint = Tuple[FrozenSet[int], ...]

_EMPTY: Set[int] = set()


class ChainNFA:
    """transitions[state][atom] = set of next states; 0 is the start."""

    __slots__ = ("transitions", "accept")

    def __init__(self, transitions: Transitions, accept: int) -> None:
        self.transitions = transitions
        self.accept = accept

    def step(self, states: FrozenSet[int], atom: str) -> FrozenSet[int]:
        nexts: Set[int] = set()
        for state in states:
            nexts |= self.transitions[state].get(atom, _EMPTY)
        return frozenset(nexts)

    def accepts_state(self, states: FrozenSet[int]) -> bool:
        return self.accept in states


def pattern_nfa(pattern: Pattern, atoms: Sequence[str]) -> ChainNFA:
    transitions: Transitions = [{}]

    def _new_state() -> int:
        transitions.append({})
        return len(transitions) - 1

    def _add(source: int, atom: str, destination: int) -> None:
        transitions[source].setdefault(atom, set()).add(destination)

    current = 0
    for token in pattern.tokens:
        if token.is_literal:
            assert token.literal is not None
            for char in token.literal:
                nxt = _new_state()
                _add(current, char, nxt)
                current = nxt
            continue
        accepted = [atom for atom in atoms if token.klass.accepts_char(atom)]
        if token.is_plus:
            nxt = _new_state()
            for atom in accepted:
                _add(current, atom, nxt)
                _add(nxt, atom, nxt)
            current = nxt
        else:
            for _ in range(int(token.quantifier)):
                nxt = _new_state()
                for atom in accepted:
                    _add(current, atom, nxt)
                current = nxt
    return ChainNFA(transitions, accept=current)


def contains_nfa(keyword: str, atoms: Sequence[str], case_sensitive: bool = True) -> ChainNFA:
    transitions: Transitions = [{} for _ in range(len(keyword) + 1)]
    accept = len(keyword)
    for atom in atoms:
        transitions[0].setdefault(atom, set()).add(0)
        transitions[accept].setdefault(atom, set()).add(accept)
    for index, char in enumerate(keyword):
        if case_sensitive:
            matching = [atom for atom in atoms if atom == char]
        else:
            matching = [atom for atom in atoms if atom.lower() == char.lower()]
        for atom in matching:
            transitions[index].setdefault(atom, set()).add(index + 1)
    return ChainNFA(transitions, accept=accept)


def _search(
    machines: Sequence[ChainNFA],
    atoms: Sequence[str],
    hit: Callable[[Joint], bool],
    prune: Callable[[Joint], bool],
) -> Optional[str]:
    start = tuple(frozenset((0,)) for _ in machines)
    if hit(start):
        return ""
    seen = {start}
    frontier: List[Tuple[Joint, str]] = [(start, "")]
    while frontier:
        next_frontier: List[Tuple[Joint, str]] = []
        for joint, prefix in frontier:
            for atom in atoms:
                advanced = tuple(
                    machine.step(states, atom) for machine, states in zip(machines, joint)
                )
                if advanced in seen or prune(advanced):
                    continue
                text = prefix + atom
                if hit(advanced):
                    return text
                seen.add(advanced)
                next_frontier.append((advanced, text))
        frontier = next_frontier
    return None


def difference_witness(
    child: ChainNFA, parents: Sequence[ChainNFA], atoms: Sequence[str]
) -> Optional[str]:
    def _violation(joint: Joint) -> bool:
        if not child.accepts_state(joint[0]):
            return False
        return not any(
            parent.accepts_state(states) for parent, states in zip(parents, joint[1:])
        )

    return _search([child, *parents], atoms, hit=_violation, prune=lambda joint: not joint[0])


def overlap_witness(
    first: ChainNFA,
    second: ChainNFA,
    atoms: Sequence[str],
    excluding: Sequence[ChainNFA] = (),
) -> Optional[str]:
    def _hit(joint: Joint) -> bool:
        if not (first.accepts_state(joint[0]) and second.accepts_state(joint[1])):
            return False
        return not any(
            machine.accepts_state(states) for machine, states in zip(excluding, joint[2:])
        )

    return _search(
        [first, second, *excluding],
        atoms,
        hit=_hit,
        prune=lambda joint: not joint[0] or not joint[1],
    )
