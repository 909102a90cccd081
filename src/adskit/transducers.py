"""Finite-state transducers and the rational-relation algebra.

Transitions carry whole output words, not single symbols; compositions
and inversions split multi-symbol outputs through fresh intermediate
states when they need letter granularity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .automata import Alphabet, Nfa, Word, pair_product, reading_rows, walk_words
from .verdict import explore


class Fst:
    """Transducer transition: (source, input symbol-or-None, output word, target)."""

    def __init__(self, states, input_alphabet: Alphabet, output_alphabet: Alphabet,
                 transitions, initial, accepting):
        self.states = frozenset(states)
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.transitions = frozenset((s, a, tuple(out), d) for s, a, out, d in transitions)
        self.initial = initial
        self.accepting = frozenset(accepting)
        if self.initial not in self.states:
            raise ValueError("initial state not declared")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be declared")
        for src, sym, out, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise ValueError("transition references undeclared state")
            if sym is not None and sym not in input_alphabet:
                raise ValueError(f"input symbol {sym!r} not declared")
            for c in out:
                if c not in output_alphabet:
                    raise ValueError(f"output symbol {c!r} not declared")
        self._out = {}
        for src, sym, out, dst in self.transitions:
            self._out.setdefault(src, []).append((sym, out, dst))

    @property
    def deterministic(self) -> bool:
        """Recomputed, never stored: no ε-input moves, unique (state, symbol) fanout."""
        seen = set()
        for src, sym, _, _ in self.transitions:
            if sym is None or (src, sym) in seen:
                return False
            seen.add((src, sym))
        return True

    def __eq__(self, other):
        return isinstance(other, Fst) and (
            self.states, self.input_alphabet, self.output_alphabet,
            self.transitions, self.initial, self.accepting,
        ) == (
            other.states, other.input_alphabet, other.output_alphabet,
            other.transitions, other.initial, other.accepting,
        )

    def __hash__(self):
        return hash((self.states, self.transitions, self.initial, self.accepting))

    def __repr__(self):
        return f"Fst(states={len(self.states)}, transitions={len(self.transitions)})"

    def apply(self, word: Word, output_cap: int = 64) -> "ApplyResult":
        """All outputs of length <= output_cap (at least 0) for this input word.

        Truncation is loud: if any run was cut because its output grew
        past the cap, the result says so instead of silently shrinking.
        Any run counts, accepted or not: a move that would take an output
        past the cap sets `truncated` even on a branch that never accepts.
        """
        if output_cap < 0:
            raise ValueError(f"output cap must be at least 0, got {output_cap}")
        for sym in word:
            if sym not in self.input_alphabet:
                raise ValueError(f"input symbol {sym!r} not declared")
        # A subset construction over the output side: the runs on `word` form
        # an automaton over the (state, position) pairs whose letters are
        # the distinct non-empty emitted words, and a move emitting nothing
        # is an epsilon move.  walk_words lists the words it spells.
        letters, moves = {}, []

        def successors(pair):
            state, pos = pair
            for sym, emitted, dst in self._out.get(state, ()):
                if sym is None:
                    nxt = (dst, pos)
                elif pos < len(word) and sym == word[pos]:
                    nxt = (dst, pos + 1)
                else:
                    continue
                letter = letters.setdefault(emitted, str(len(letters))) if emitted else None
                moves.append((pair, letter, nxt))
                yield nxt

        start = (self.initial, 0)
        pairs, _ = explore([start], successors)
        final = [(state, pos) for state, pos in pairs
                 if pos == len(word) and state in self.accepting]
        labels = {letter: emitted for emitted, letter in letters.items()}
        # an alphabet is never empty: when no move emits, its one letter goes unused
        runs = Nfa(pairs, Alphabet(labels or ["0"]), moves, start, final)
        outputs, truncated = walk_words(runs, labels, output_cap)
        return ApplyResult(frozenset(outputs), truncated)


@dataclass(frozen=True)
class ApplyResult:
    words: frozenset
    truncated: bool


def _fresh(states: set, base: str) -> str:
    name = base
    while name in states:
        name += "'"
    states.add(name)
    return name


def letter_split(t: Fst) -> Fst:
    """Equivalent transducer whose outputs all have length <= 1."""
    if all(len(out) <= 1 for _, _, out, _ in t.transitions):
        return t
    states = set(t.states)
    transitions = set()
    for idx, (src, sym, out, dst) in enumerate(sorted(t.transitions, key=repr)):
        if len(out) <= 1:
            transitions.add((src, sym, out, dst))
            continue
        prev, label = src, sym
        for i, c in enumerate(out):
            target = dst if i == len(out) - 1 else _fresh(states, f"{src}+{idx}.{i}")
            transitions.add((prev, label, (c,), target))
            prev, label = target, None
    return Fst(states, t.input_alphabet, t.output_alphabet, transitions, t.initial, t.accepting)


def _split_rows(t: Fst) -> dict:
    """letter_split(t) as the left side of pair_product: each move hands on
    its one output letter, or None when it outputs nothing.  The split keeps
    t's initial and accepting states."""
    return {q: [(sym, out[0] if out else None, d) for sym, out, d in row]
            for q, row in letter_split(t)._out.items()}


def compose(t1: Fst, t2: Fst) -> Fst:
    """Relational composition: u ↦ v iff some w has u t1 w and w t2 v."""
    if not t1.output_alphabet.same_symbols(t2.input_alphabet):
        raise ValueError("compose requires t1 output alphabet = t2 input alphabet")
    states, moves, initial, accepting = pair_product(
        _split_rows(t1), t2._out, (t1.initial, t2.initial), (t1.accepting, t2.accepting))
    return Fst(states, t1.input_alphabet, t2.output_alphabet, moves, initial, accepting)


def invert(t: Fst) -> Fst:
    """Swap the relation: output words become input paths, inputs become outputs."""
    s = letter_split(t)
    transitions = set()
    for src, sym, out, dst in s.transitions:
        new_in = out[0] if out else None
        new_out = (sym,) if sym is not None else ()
        transitions.add((src, new_in, new_out, dst))
    return Fst(s.states, t.output_alphabet, t.input_alphabet, transitions, s.initial, s.accepting)


def preimage_nfa(t: Fst, a: Nfa) -> Nfa:
    """NFA for {u : apply(t, u) meets L(a)}."""
    if not t.output_alphabet.same_symbols(a.alphabet):
        raise ValueError("preimage requires t output alphabet = automaton alphabet")
    states, moves, initial, accepting = pair_product(
        _split_rows(t), reading_rows(a), (t.initial, a.initial), (t.accepting, a.accepting))
    return Nfa(states, t.input_alphabet, [(p, sym, d) for p, sym, _, d in moves],
               initial, accepting)


def image_nfa(t: Fst, a: Nfa) -> Nfa:
    """NFA for T(L(a)), computed as the preimage under the inverse."""
    if not t.input_alphabet.same_symbols(a.alphabet):
        raise ValueError("image requires t input alphabet = automaton alphabet")
    return preimage_nfa(invert(t), a)


def id_on(a: Nfa) -> Fst:
    """Identity transducer restricted to L(a): x ↦ x iff x ∈ L(a)."""
    transitions = set()
    for src, sym, dst in a.transitions:
        if sym is None:
            transitions.add((src, None, (), dst))
        else:
            transitions.add((src, sym, (sym,), dst))
    return Fst(a.states, a.alphabet, a.alphabet, transitions, a.initial, a.accepting)


def identity_fst(alphabet: Alphabet) -> Fst:
    state = "i"
    transitions = {(state, sym, (sym,), state) for sym in alphabet}
    return Fst({state}, alphabet, alphabet, transitions, state, {state})


def word_fst(pairs: Iterable[tuple[Word, Word]], input_alphabet: Alphabet,
             output_alphabet: Alphabet) -> Fst:
    """Finite relation as a transducer; test-fixture helper."""
    root = ""
    states = {root}
    transitions = set()
    accepting = set()
    for n, (u, v) in enumerate(pairs):
        prev = root
        if u:
            for i, sym in enumerate(u):
                out = v if i == 0 else ()
                nxt = _fresh(states, f"{n}.{i}")
                transitions.add((prev, sym, out, nxt))
                prev = nxt
        else:
            nxt = _fresh(states, f"{n}.e")
            transitions.add((prev, None, v, nxt))
            prev = nxt
        accepting.add(prev)
    return Fst(states, input_alphabet, output_alphabet, transitions, root, accepting)
