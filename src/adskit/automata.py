"""Nondeterministic finite automata over declared token alphabets.

Words are tuples of string tokens (a token may be longer than one
character, e.g. "push("), so every automaton carries an explicit
Alphabet.  The token "eps" is reserved for the file format and denotes
the internal epsilon label None.
"""
from __future__ import annotations

import heapq
from functools import cached_property
from typing import Iterable, Optional

from .errors import CapExceeded, ItemError
from .verdict import explore

EPSILON_TOKEN = "eps"
DEFAULT_ENUM_CAP = 10**6
# (mask, symbol) entries one automaton's step cache may hold; once full it
# stops inserting, so stepping never grows memory past this
STEP_CACHE_ENTRIES = 1 << 16

Word = tuple[str, ...]
Transition = tuple[str, Optional[str], str]


class Alphabet:
    """Ordered set of distinct, non-empty symbol tokens.

    The declaration order is the order used for lexicographic word
    enumeration, so two alphabets with the same symbols in a different
    order are distinct values.
    """

    def __init__(self, symbols: Iterable[str]):
        self.symbols = tuple(symbols)
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        for sym in self.symbols:
            if not isinstance(sym, str) or not sym:
                raise ValueError("alphabet symbols must be non-empty strings")
            if sym == EPSILON_TOKEN:
                raise ValueError(f"{EPSILON_TOKEN!r} is reserved and cannot be a symbol")
        self._index = {sym: i for i, sym in enumerate(self.symbols)}

    def __contains__(self, sym):
        return sym in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def index(self, sym: str) -> int:
        return self._index[sym]

    def word_key(self, word: Word):
        """Sort key realizing length-then-lexicographic order."""
        return (len(word), tuple(self._index[s] for s in word))

    def same_symbols(self, other: "Alphabet") -> bool:
        return set(self.symbols) == set(other.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"


class Nfa:
    """Epsilon-NFA with a single initial state.

    Immutable by convention, so an operation that would rebuild a plain
    Nfa unchanged (trim, eliminate_eps) returns the automaton itself.
    Transitions are (src, symbol-or-None, dst) triples where None is
    the epsilon label.  `step` runs on state sets held as bitmasks of
    `core`, the automaton compiled on first use.
    """

    _trim = False  # set on the plain Nfa that trim() returns

    def __init__(self, states, alphabet: Alphabet, transitions, initial, accepting):
        self.states = frozenset(states)
        self.alphabet = alphabet
        self.initial = initial
        self.accepting = frozenset(accepting)
        if not self.states:
            raise ItemError("state set must be non-empty", "states")
        if self.initial not in self.states:
            raise ItemError(f"initial state {initial!r} not declared", "initial")
        if not self.accepting <= self.states:
            raise ItemError("accepting states must be declared states", "accept")
        self.transitions = frozenset(self._checked(transitions))
        self._out = {}
        for src, sym, dst in self.transitions:
            self._out.setdefault(src, []).append((sym, dst))

    def _checked(self, transitions):
        """Each transition in the caller's order, once it passes the rules."""
        for move in transitions:
            src, sym, dst = move
            if src not in self.states or dst not in self.states:
                raise ItemError(f"transition ({src!r},{sym!r},{dst!r}) uses undeclared state",
                                move)
            if sym is not None and sym not in self.alphabet:
                raise ItemError(f"transition symbol {sym!r} not in alphabet", move)
            yield move

    def __eq__(self, other):
        return (
            isinstance(other, Nfa)
            and type(self) is type(other)
            and self.states == other.states
            and self.alphabet == other.alphabet
            and self.transitions == other.transitions
            and self.initial == other.initial
            and self.accepting == other.accepting
        )

    def __hash__(self):
        return hash((self.states, self.alphabet, self.transitions, self.initial, self.accepting))

    def __repr__(self):
        return (
            f"{type(self).__name__}(states={len(self.states)}, "
            f"transitions={len(self.transitions)}, initial={self.initial!r})"
        )

    # -- run semantics ------------------------------------------------

    @cached_property
    def core(self) -> "Core":
        """The automaton compiled for stepping, built on first use."""
        return Core(self)

    def eps_closure(self, states: Iterable[str]) -> frozenset:
        seen = set(states)
        stack = list(seen)
        while stack:
            s = stack.pop()
            for sym, dst in self._out.get(s, ()):
                if sym is None and dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def step(self, mask: int, sym: str) -> int:
        """One symbol move from an epsilon-closed state set, closing the result.

        Sets are bitmasks over `core.states`; sym must be in the alphabet.
        """
        core = self.core
        row, memo = core.steps[sym]
        hit = memo.get(mask)
        if hit is None:
            hit, rest = 0, mask
            while rest:
                low = rest & -rest
                hit |= row[low.bit_length() - 1]
                rest ^= low
            if core.cached < STEP_CACHE_ENTRIES:
                memo[mask] = hit
                core.cached += 1
        return hit

    def step_each(self, masks, sym: str) -> tuple:
        """step(mask, sym) for each of masks, in order.

        All memo hits are read in one pass; on any miss the whole tuple
        goes through step, which alone fills the memo.
        """
        hits = tuple(map(self.core.steps[sym][1].get, masks))
        if None in hits:
            return tuple(self.step(mask, sym) for mask in masks)
        return hits

    def accepts(self, word: Word) -> bool:
        for sym in word:
            if sym not in self.alphabet:
                raise ValueError(f"symbol {sym!r} not in alphabet")
        current = self.core.start
        for sym in word:
            current = self.step(current, sym)
            if not current:
                return False
        return bool(current & self.core.accepting)

    # -- structural operations ----------------------------------------

    def reachable(self, state: str) -> set:
        """States reachable from state along transitions of any label."""
        return set(explore([state], lambda s: [d for _, d in self._out.get(s, ())])[0])

    def trim(self) -> "Nfa":
        """Restrict to states both reachable and co-reachable.

        If nothing useful survives, the canonical one-state empty
        automaton is returned so all empty results compare equal.  A
        subclass such as Dfa always gets a fresh plain Nfa back.  The
        plain Nfa returned is marked trim, so trimming it again returns
        it at once.
        """
        if self._trim:
            return self
        forward = self.reachable(self.initial)
        into = {}
        for src, _, dst in self.transitions:
            into.setdefault(dst, set()).add(src)
        keep = forward.intersection(explore(self.accepting, lambda s: into.get(s, ()))[0])
        if self.initial not in keep:
            out = canonical_empty(self.alphabet)
        elif keep == self.states and type(self) is Nfa:
            out = self
        else:
            out = Nfa(
                keep,
                self.alphabet,
                {(s, a, d) for s, a, d in self.transitions if s in keep and d in keep},
                self.initial,
                self.accepting & keep,
            )
        out._trim = True
        return out

    def is_empty(self) -> bool:
        return not (self.reachable(self.initial) & self.accepting)

    def is_finite(self) -> bool:
        """True iff the language is finite (no productive cycle)."""
        core = self.eliminate_eps().trim()
        # every state of a trimmed automaton lies on an accepting path, so
        # any cycle pumps the language
        succ = {s: {d for _, d in core._out.get(s, ())} for s in core.states}
        return len(_kahn(core.states, succ)) == len(core.states)

    def enumerate_words(self, max_len: int, cap: int = DEFAULT_ENUM_CAP) -> list[Word]:
        """All accepted words of length <= max_len, shortest first, then
        lexicographic in alphabet declaration order.

        Raises CapExceeded once more than `cap` distinct words have been
        stored.
        """
        return walk_words(self.trim(), {sym: (sym,) for sym in self.alphabet}, max_len, cap)[0]

    def sub_automaton(self, s1: str, s2: str) -> "Nfa":
        """Same graph re-rooted: initial s1, sole accepting state s2."""
        if s1 not in self.states or s2 not in self.states:
            raise ValueError("sub_automaton endpoints must be declared states")
        return Nfa(self.states, self.alphabet, self.transitions, s1, {s2})

    def eliminate_eps(self) -> "Nfa":
        """Equivalent automaton without epsilon transitions (same state set)."""
        if type(self) is Nfa and all(sym is not None for _, sym, _ in self.transitions):
            return self
        closures = {s: self.eps_closure([s]) for s in self.states}
        transitions = set()
        accepting = set()
        for s in self.states:
            if closures[s] & self.accepting:
                accepting.add(s)
            for q in closures[s]:
                for sym, dst in self._out.get(q, ()):
                    if sym is not None:
                        transitions.add((s, sym, dst))
        return Nfa(self.states, self.alphabet, transitions, self.initial, accepting)


class Core:
    """An Nfa compiled for stepping.

    A state set is an int whose bit i stands for states[i], the i-th state
    in sorted order, so walking a mask's bits upwards lists its states
    sorted.  steps[sym] pairs the row of sym, whose entry i is the
    epsilon-closed successor set of states[i], with the memo of Nfa.step
    results on sym; the memos hold `cached` entries in all, at most
    STEP_CACHE_ENTRIES.
    """

    __slots__ = ("states", "closure", "start", "accepting", "steps", "cached")

    def __init__(self, a: Nfa):
        self.states = tuple(sorted(a.states))
        index = {s: i for i, s in enumerate(self.states)}

        def to_mask(states):
            return sum(1 << index[s] for s in states)

        # closure[i] is the epsilon closure of states[i]
        self.closure = tuple(to_mask(a.eps_closure([s])) for s in self.states)
        self.start = self.closure[index[a.initial]]
        self.accepting = to_mask(a.accepting)
        self.steps = {sym: ([0] * len(self.states), {}) for sym in a.alphabet}
        for src, sym, dst in a.transitions:
            if sym is not None:
                self.steps[sym][0][index[src]] |= self.closure[index[dst]]
        self.cached = 0

    def names(self, mask: int) -> list[str]:
        """The states of a mask, in sorted order."""
        return [self.states[i] for i in bits(mask)]


def bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def walk_words(a: Nfa, labels: dict, max_len: int,
               cap: Optional[int] = None) -> tuple[list[Word], bool]:
    """The words of length <= max_len that accepted runs of `a` spell when
    symbol s spells the non-empty word labels[s], shortest first, and
    whether some run, accepted or not, was cut for spelling a longer word.

    Each length is held as groups of words, one group per mask of the
    states their runs reach, and a group is extended by each move of its
    mask at once.  A move spells at least one letter, so a length is
    complete before it is expanded, and the words of length max_len are
    never expanded.  When no label is a prefix of another, or none is a
    suffix of another, the labels are a code (Sardinas and Patterson,
    1953): each word has one spelling, so it is built once, in one group,
    and `cap` is charged before a group's extension is built.  Otherwise a
    word spelled two ways may sit in several groups; each length is then
    merged by word, its masks united, before it is expanded, and `cap` is
    charged after that merge.  Either way CapExceeded is raised once more
    than `cap` distinct words (the empty word included) are stored.  With
    one-letter labels each length comes out in lexicographic order, a
    letter ranking by its symbol's place in `labels`.
    """
    core = a.core
    spellings = list(labels.values())
    merge = not (_prefix_free(spellings) or _prefix_free([s[::-1] for s in spellings]))
    rank = None  # letter -> place in `labels`, when every label is one letter
    if all(len(label) == 1 for label in spellings):
        rank = {}
        for label in spellings:
            rank.setdefault(label[0], len(rank))
    moves_of = {}  # mask -> its non-empty (label, target) moves
    found: list[Word] = []
    cut = False
    buckets = {0: {core.start: [()]}} if max_len >= 0 else {}
    stored = 1
    while buckets:
        length = min(buckets)
        room = max_len - length
        groups = buckets.pop(length)
        if merge and length:
            masks = {}
            for mask, words in groups.items():
                for word in words:
                    masks[word] = masks.get(word, 0) | mask
            stored += len(masks)
            if cap is not None and stored > cap:
                raise CapExceeded(f"enumeration cap {cap} exceeded")
            groups = {}
            for word, mask in masks.items():
                groups.setdefault(mask, []).append(word)
        union = 0
        accepted = []
        for mask, words in groups.items():
            union |= mask
            if mask & core.accepting:
                accepted += words
            if not room:
                continue
            moves = moves_of.get(mask)
            if moves is None:
                moves = moves_of[mask] = [
                    (label, target) for sym, label in labels.items()
                    if (target := a.step(mask, sym))]
            for label, target in moves:
                if len(label) > room:
                    continue
                if not merge:
                    stored += len(words)
                    if cap is not None and stored > cap:
                        raise CapExceeded(f"enumeration cap {cap} exceeded")
                level = buckets.setdefault(length + len(label), {})
                grown = [word + label for word in words]
                held = level.get(target)
                if held is None:
                    level[target] = grown
                else:
                    held += grown
        if rank is not None:
            accepted.sort(key=lambda word: [rank[letter] for letter in word])
        found += accepted
        # step distributes over union, so one step per symbol finds any cut run
        cut = cut or any(a.step(union, sym) for sym, label in labels.items()
                         if len(label) > room)
    return found, cut


def _prefix_free(words: list[Word]) -> bool:
    """True when no word is a prefix of another or equal to it.  If x is a
    prefix of y, the word after x in sorted order starts with x too, so
    neighbours suffice."""
    words = sorted(words)
    return all(nxt[:len(word)] != word for word, nxt in zip(words, words[1:]))


class Dfa(Nfa):
    """Deterministic (possibly partial) automaton.

    No epsilon transitions and at most one transition per (state, symbol);
    missing transitions reject.
    """

    # no code of its own; perfbench/trace.py wraps each class's own __init__
    __init__ = Nfa.__init__

    def _checked(self, transitions):
        fanout = {}
        for move in super()._checked(transitions):
            src, sym, dst = move
            if sym is None:
                raise ItemError("DFA cannot contain epsilon transitions", move)
            # identical duplicates stay legal
            if fanout.setdefault((src, sym), dst) != dst:
                raise ItemError(f"DFA has two transitions from {src!r} on {sym!r}", move)
            yield move

    def delta(self, state: str, sym: str) -> Optional[str]:
        for label, dst in self._out.get(state, ()):
            if label == sym:
                return dst
        return None


def canonical_empty(alphabet: Alphabet) -> Nfa:
    """The one fixed representation of the empty language."""
    return Nfa({"0"}, alphabet, set(), "0", set())


def universal_nfa(alphabet: Alphabet) -> Nfa:
    state = "u"
    return Nfa({state}, alphabet, {(state, sym, state) for sym in alphabet}, state, {state})


def nfa_for_words(alphabet: Alphabet, words: Iterable[Word]) -> Nfa:
    """Automaton accepting exactly the given finite set of words (a trie)."""
    root = ""
    states = {root}
    transitions = set()
    accepting = set()
    for word in words:
        node = root
        for sym in word:
            if sym not in alphabet:
                raise ValueError(f"word symbol {sym!r} not in alphabet")
            nxt = node + "\x00" + sym
            states.add(nxt)
            transitions.add((node, sym, nxt))
            node = nxt
        accepting.add(node)
    return Nfa(states, alphabet, transitions, root, accepting)


def pair_product(left, right, start, accepting):
    """Reachable part of the product of two machines run in step.

    left[p] lists (label, letter, p2) and right[q] lists (letter, out, q2);
    a state missing from a mapping has no moves.  A move whose letter is
    None runs alone; a left move with a letter pairs with every right move
    reading the same letter.  Starting from the state pair `start`, returns
    the "(p|q)" names, a list of the moves as (src, label, out, dst) (label
    None on a right-alone move, out () on a left-alone move; a move may be
    listed twice), the initial name and the names whose halves lie in the
    two sets of `accepting`.
    """
    def name(p, q):
        return f"({p}|{q})"

    moves = []

    def successors(pair):
        p, q = pair
        row = right.get(q, ())
        steps = []
        for label, letter, p2 in left.get(p, ()):
            if letter is None:
                steps.append((label, (), (p2, q)))
            else:
                for read, out, q2 in row:
                    if read == letter:
                        steps.append((label, out, (p2, q2)))
        for read, out, q2 in row:
            if read is None:
                steps.append((None, out, (p, q2)))
        src = name(p, q)
        for label, out, target in steps:
            moves.append((src, label, out, name(*target)))
        return [target for _, _, target in steps]

    pairs, _ = explore([start], successors)
    left_acc, right_acc = accepting
    names = {name(p, q) for p, q in pairs}
    final = {name(p, q) for p, q in pairs if p in left_acc and q in right_acc}
    return names, moves, name(*start), final


def _kahn(states, succ: dict) -> list[str]:
    """The states that no cycle reaches, in topological order.

    `states` must be closed under succ.  The ready queue is kept sorted,
    so the order does not depend on set iteration.
    """
    indeg = dict.fromkeys(states, 0)
    for s in states:
        for dst in succ[s]:
            indeg[dst] += 1
    ready = sorted(s for s, n in indeg.items() if n == 0)  # a sorted list is a heap
    order = []
    while ready:
        s = heapq.heappop(ready)
        order.append(s)
        for dst in succ[s]:
            indeg[dst] -= 1
            if indeg[dst] == 0:
                heapq.heappush(ready, dst)
    return order


def reading_rows(a: Nfa) -> dict:
    """The automaton as the right side of pair_product: it reads, writes nothing."""
    return {s: [(sym, (), d) for sym, d in row] for s, row in a._out.items()}


def product_intersect(a: Nfa, b: Nfa) -> Nfa:
    """Automaton for L(a) & L(b); alphabets must carry the same symbols."""
    if not a.alphabet.same_symbols(b.alphabet):
        raise ValueError("product requires alphabets with equal symbol sets")
    left = {s: [(sym, sym, d) for sym, d in row] for s, row in a._out.items()}
    states, moves, initial, accepting = pair_product(
        left, reading_rows(b), (a.initial, b.initial), (a.accepting, b.accepting))
    return Nfa(states, a.alphabet, [(s, sym, d) for s, sym, _, d in moves], initial, accepting)


def to_dot(a: Nfa) -> str:
    """GraphViz rendering; accepting states are double circles."""
    return dot_graph("automaton", a.states, a.accepting, a.initial,
                     ((src, "ε" if sym is None else sym, dst) for src, sym, dst in a.transitions))


def dot_graph(title: str, states, accepting, initial: str, edges) -> str:
    """GraphViz digraph of (src, label, dst) edges; parallel edges share one
    arrow with their labels sorted and comma-joined."""
    lines = [f'digraph "{title}" {{', "  rankdir=LR;", '  __start [shape=point, label=""];']
    for s in sorted(states):
        shape = "doublecircle" if s in accepting else "circle"
        lines.append(f'  "{s}" [shape={shape}];')
    lines.append(f'  __start -> "{initial}";')
    by_edge: dict[tuple[str, str], list[str]] = {}
    for src, label, dst in edges:
        by_edge.setdefault((src, dst), []).append(label)
    for (src, dst), labels in sorted(by_edge.items()):
        lines.append(f'  "{src}" -> "{dst}" [label="{", ".join(sorted(labels))}"];')
    lines.append("}")
    return "\n".join(lines)
