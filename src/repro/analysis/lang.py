"""Exact language queries over token patterns (the decidable core).

A :class:`~repro.patterns.pattern.Pattern` denotes a regular language of
a very restricted shape: a concatenation of character-class tokens, each
repeated exactly ``k`` times or one-or-more times, plus literal strings.
Every character set involved is a union drawn from a *finite* universe —
the five base classes of Table 2 plus the individual literal characters
of the patterns under analysis — so language questions (inclusion,
overlap, emptiness under a containment guard) are decidable by subset
simulation over a small **atom alphabet**: one representative character
per distinguishable character group.

This is what makes the artifact linter's dead-arm and coverage verdicts
*exact* rather than heuristic: ``CompiledProgram.run_one`` dispatches
first-match over these languages, so "branch j can never fire" is
precisely "L(branch_j) ⊆ L(target) ∪ ⋃ L(earlier unguarded branches)",
which :func:`subsumed_by_union` decides.

The machinery is deliberately tiny.  Patterns compile to **chain NFAs**:
one state per consumed character position, no epsilon transitions, and
every transition goes ``j → j+1`` or ``j → j`` (a ``+`` token's
self-loop).  A set of states is therefore an int with bit ``j`` for
state ``j``, and one step is the shift-and update of Baeza-Yates and
Gonnet (*A new approach to text searching*, CACM 1992)::

    S' = ((S & move[atom]) << 1) | (S & loop[atom])

All queries run one breadth-first subset simulation (:func:`_search`)
of several machines in lockstep, and their joint state is **one int**:
machine ``k`` owns a bit field of width ``accept_k + 1``, laid out one
after another.  No transition leaves an accepting state — the accept
state is the last of its chain and has at most a self-loop — so no
``move`` bit sits on a field's top bit and a shift never carries into
the next field; one joint ``(move, loop)`` pair per atom steps every
machine at once.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.patterns.pattern import Pattern
from repro.tokens.classes import TokenClass
from repro.tokens.token import Token


class ChainNFA:
    """A pattern (or containment query) lowered to a chain NFA over atoms.

    States ``0..accept`` form a chain, ``0`` the start and ``accept`` the
    single accepting state; a subset of states is an int mask.  Bit ``j``
    of ``move[atom]`` means state ``j`` goes to ``j + 1`` on ``atom``; bit
    ``j`` of ``loop[atom]`` means state ``j`` stays on ``atom``.
    """

    __slots__ = ("move", "loop", "accept")

    def __init__(self, move: Dict[str, int], loop: Dict[str, int], accept: int) -> None:
        self.move = move
        self.loop = loop
        self.accept = accept

    def step(self, states: int, atom: str) -> int:
        """The state mask reachable from ``states`` by consuming ``atom``."""
        return ((states & self.move.get(atom, 0)) << 1) | (states & self.loop.get(atom, 0))

    def accepts_state(self, states: int) -> bool:
        """Whether the state mask contains the accepting state."""
        return bool(states >> self.accept & 1)


#: Representative pools per base character group.  ``-`` and ``_`` are
#: singled out because ``<AN>`` accepts them while no other class does.
_REPRESENTATIVE_POOLS: Tuple[str, ...] = (
    "0123456789",
    "abcdefghijklmnopqrstuvwxyz",
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "-",
    "_",
)


def atom_alphabet(patterns: Iterable[Pattern], extra_text: Iterable[str] = ()) -> Tuple[str, ...]:
    """The atom alphabet distinguishing every character set in play.

    One atom per literal character appearing in any pattern (or in
    ``extra_text``, e.g. guard keywords), plus — per base character
    group — one representative character *not* claimed by a literal, so
    "some other digit/letter" stays expressible.  Characters outside
    every base class only matter when a literal names them, so no
    generic "garbage" atom is needed: no token can consume one.
    """
    literals: Set[str] = set()
    for pattern in patterns:
        for token in pattern.tokens:
            if token.is_literal and token.literal:
                literals.update(token.literal)
    for text in extra_text:
        literals.update(text)
    atoms: Set[str] = set(literals)
    for pool in _REPRESENTATIVE_POOLS:
        for char in pool:
            if char not in literals:
                atoms.add(char)
                break
    return tuple(sorted(atoms))


@lru_cache(maxsize=1024)
def _class_atoms(klass: TokenClass, atoms: Tuple[str, ...]) -> Tuple[str, ...]:
    """The atoms of ``atoms`` that a character class accepts."""
    return tuple(atom for atom in atoms if klass.accepts_char(atom))


def pattern_nfa(pattern: Pattern, atoms: Sequence[str]) -> ChainNFA:
    """Lower ``pattern`` to a chain NFA over the atom alphabet."""
    move: Dict[str, int] = {}
    loop: Dict[str, int] = {}
    class_move: Dict[TokenClass, int] = {}
    class_loop: Dict[TokenClass, int] = {}
    state = 0
    for token in pattern.tokens:
        if token.is_literal:
            assert token.literal is not None
            for char in token.literal:
                move[char] = move.get(char, 0) | 1 << state
                state += 1
            continue
        klass = token.klass
        width = 1 if token.is_plus else int(token.quantifier)
        class_move[klass] = class_move.get(klass, 0) | ((1 << width) - 1) << state
        state += width
        if token.is_plus:
            class_loop[klass] = class_loop.get(klass, 0) | 1 << state
    alphabet = tuple(atoms)
    for masks, by_class in ((move, class_move), (loop, class_loop)):
        for klass, bits in by_class.items():
            for atom in _class_atoms(klass, alphabet):
                masks[atom] = masks.get(atom, 0) | bits
    return ChainNFA(move, loop, accept=state)


def contains_nfa(keyword: str, atoms: Sequence[str], case_sensitive: bool = True) -> ChainNFA:
    """NFA for ``.*keyword.*`` over the atom alphabet (substring search)."""
    accept = len(keyword)
    ends = 1 | 1 << accept
    loop = {atom: ends for atom in atoms}
    move: Dict[str, int] = {}
    for index, char in enumerate(keyword):
        for atom in atoms:
            if atom == char or (not case_sensitive and atom.lower() == char.lower()):
                move[atom] = move.get(atom, 0) | 1 << index
    return ChainNFA(move, loop, accept=accept)


def _search(machines: Sequence[ChainNFA], atoms: Sequence[str], required: int) -> Optional[str]:
    """Breadth-first subset simulation of several NFAs in lockstep.

    The first ``required`` machines (one or two) must accept, the rest
    must not: a joint state is a hit when every required accept bit is
    set and no other accept bit is, and it is pruned (never extended)
    once a required machine's field is empty — no string can extend
    from it.  Explores every reachable joint state over ``atoms`` in
    order and returns a *shortest* witness string (over the atom
    alphabet) as soon as one hits, or ``None`` when none does.
    """
    assert 1 <= required <= 2, required
    start = need = accepts = width = 0
    offsets: List[int] = []
    alive: List[int] = []
    for index, machine in enumerate(machines):
        offsets.append(width)
        start |= 1 << width
        accept_bit = 1 << (width + machine.accept)
        accepts |= accept_bit
        if index < required:
            need |= accept_bit
            alive.append((accept_bit << 1) - (1 << width))
        width += machine.accept + 1
    first_alive, last_alive = alive[0], alive[-1]
    steps: List[Tuple[str, int, int]] = []
    for atom in atoms:
        move = loop = 0
        for machine, offset in zip(machines, offsets):
            move |= machine.move.get(atom, 0) << offset
            loop |= machine.loop.get(atom, 0) << offset
        steps.append((atom, move, loop))
    if start & accepts == need:
        return ""
    seen = {start}
    frontier: List[Tuple[int, str]] = [(start, "")]
    while frontier:
        next_frontier: List[Tuple[int, str]] = []
        for joint, prefix in frontier:
            for atom, move, loop in steps:
                advanced = ((joint & move) << 1) | (joint & loop)
                if not (advanced & first_alive and advanced & last_alive) or advanced in seen:
                    continue
                text = prefix + atom
                if advanced & accepts == need:
                    return text
                seen.add(advanced)
                next_frontier.append((advanced, text))
        frontier = next_frontier
    return None


def difference_witness(
    child: ChainNFA, parents: Sequence[ChainNFA], atoms: Sequence[str]
) -> Optional[str]:
    """A shortest string in ``L(child) \\ ⋃ L(parents)``, or ``None``.

    The witness-producing form of :func:`subsumed_by_union`: ``None``
    means the child language is covered; a string is a concrete
    counterexample (over the atom alphabet) usable directly in finding
    messages.
    """
    return _search([child, *parents], atoms, required=1)


def subsumed_by_union(child: ChainNFA, parents: Sequence[ChainNFA], atoms: Sequence[str]) -> bool:
    """Whether every string of ``child`` is accepted by *some* parent.

    ``L(child) ⊆ ⋃ L(parents)``.  With a single parent this is plain
    language inclusion; with several it is the exact dead-arm /
    coverage condition of first-match dispatch.
    """
    return difference_witness(child, parents, atoms) is None


def overlap_witness(
    first: ChainNFA,
    second: ChainNFA,
    atoms: Sequence[str],
    excluding: Sequence[ChainNFA] = (),
) -> Optional[str]:
    """A shortest string in ``L(first) ∩ L(second) \\ ⋃ L(excluding)``.

    The witness-producing form of :func:`languages_overlap`; ``None``
    means the (residual) intersection is empty.
    """
    return _search([first, second, *excluding], atoms, required=2)


def languages_overlap(
    first: ChainNFA,
    second: ChainNFA,
    atoms: Sequence[str],
    excluding: Sequence[ChainNFA] = (),
) -> bool:
    """Whether some string is in both languages (and in no excluded one).

    ``L(first) ∩ L(second) \\ ⋃ L(excluding) ≠ ∅``.  The exclusion set
    lets the overlap pass ignore strings the target's pass-through check
    intercepts before any branch is consulted.
    """
    return overlap_witness(first, second, atoms, excluding=excluding) is not None


def guard_satisfiable(
    pattern_machine: ChainNFA,
    keyword: str,
    atoms: Sequence[str],
    case_sensitive: bool = True,
) -> bool:
    """Whether any string matching the pattern also contains ``keyword``."""
    return languages_overlap(
        pattern_machine, contains_nfa(keyword, atoms, case_sensitive), atoms
    )


def keyword_always_present(pattern: Pattern, keyword: str, case_sensitive: bool = True) -> bool:
    """Exact check that every match of ``pattern`` contains ``keyword``.

    Decides ``L(pattern) ⊆ L(.*keyword.*)`` by subset simulation over an
    atom alphabet that distinguishes every keyword character (and, for
    case-insensitive guards, both its case foldings), so keywords that
    span literal runs *and* class tokens are handled, not just keywords
    inside a single literal run.
    """
    if not keyword:
        return True
    if case_sensitive:
        variants: Tuple[str, ...] = (keyword,)
    else:
        variants = (keyword, keyword.lower(), keyword.upper())
    atoms = atom_alphabet([pattern], extra_text=variants)
    machine = pattern_nfa(pattern, atoms)
    return subsumed_by_union(machine, [contains_nfa(keyword, atoms, case_sensitive)], atoms)


def nfa_accepts(nfa: ChainNFA, text: str) -> bool:
    """Concrete membership: whether ``nfa`` accepts ``text``.

    Only meaningful when every character of ``text`` is an atom of the
    alphabet the NFA was built over — pass ``extra_text=[text]`` to
    :func:`atom_alphabet` when building it.  (Extra literal atoms only
    refine the quotient, so this never changes the language denoted.)
    """
    states = 1
    for char in text:
        states = nfa.step(states, char)
        if not states:
            return False
    return nfa.accepts_state(states)


def random_sample_string(pattern: Pattern, rng: random.Random, plus_cap: int = 4) -> str:
    """A random concrete string matching ``pattern``.

    Class tokens draw uniformly from all accepted base-class characters;
    ``+`` tokens repeat between 1 and ``plus_cap`` times.  Used by the
    differential property suites to exercise the language machinery on
    inputs :func:`sample_string` would never produce.
    """
    pieces: List[str] = []
    for token in pattern.tokens:
        if token.is_literal:
            assert token.literal is not None
            pieces.append(token.literal)
            continue
        accepted = [
            char
            for pool in _REPRESENTATIVE_POOLS
            for char in pool
            if token.klass.accepts_char(char)
        ]
        count = rng.randint(1, plus_cap) if token.is_plus else int(token.quantifier)
        pieces.append("".join(rng.choice(accepted) for _ in range(count)))
    return "".join(pieces)


def sample_string(pattern: Pattern, plus_length: int = 1) -> str:
    """A concrete string matching ``pattern`` (``+`` tokens repeated
    ``plus_length`` times), used for counterexample hints in findings."""
    pieces: List[str] = []
    for token in pattern.tokens:
        if token.is_literal:
            assert token.literal is not None
            pieces.append(token.literal)
            continue
        char = _class_representative(token)
        count = plus_length if token.is_plus else int(token.quantifier)
        pieces.append(char * count)
    return "".join(pieces)


def _class_representative(token: Token) -> str:
    for pool in _REPRESENTATIVE_POOLS:
        for char in pool:
            if token.klass.accepts_char(char):
                return char
    raise AssertionError(f"no representative character for {token!r}")  # pragma: no cover
