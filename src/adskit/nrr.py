"""Regular realizability: does a regular language meet a filter language?

An instance pairs an NFA over a protocol alphabet with a filter (a
protocol oracle, or the copy language Per_k).  The deciders answer
Yes/No/Unknown; every Yes carries a witness word that is re-validated
before being returned.  The reduction constructions translate between
ADS-automaton problems and these instances.
"""

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Union

from .ads import AdsAutomaton, extractor, m_prot, compose_with_fst, normalize_endmarkers
from .automata import Alphabet, Dfa, Nfa, Word, bits, universal_nfa
from .protocols import (
    DyckOracle,
    ProtocolAlphabet,
    ProtocolOracle,
    membership,
    per_k_membership,
    protocol_search,
    sigma_k,
)
from .transducers import Fst, id_on, image_nfa, preimage_nfa
from .verdict import DEFAULT_BOUNDS, SearchBounds, Verdict, bounded_search, explore


class PerKFilter:
    """The copy language (v#)^k over the k-letter digit alphabet."""

    def __init__(self, k: int):
        self.k = k
        self.alphabet = Alphabet(list(sigma_k(k)) + ["#"])

    def member(self, word: Word) -> bool:
        return per_k_membership(word, self.k)

    def __repr__(self):
        return f"PerKFilter(k={self.k})"


Filter = Union[ProtocolOracle, PerKFilter]


def _filter_alphabet(f: Filter) -> Alphabet:
    if isinstance(f, PerKFilter):
        return f.alphabet
    return f.alphabet.flattened()


def _filter_member(f: Filter, word: Word) -> bool:
    if isinstance(f, PerKFilter):
        return f.member(word)
    return membership(f, word)


@dataclass(frozen=True)
class NrrInstance:
    automaton: Nfa
    filter: Filter

    def __post_init__(self):
        if not self.automaton.alphabet.same_symbols(_filter_alphabet(self.filter)):
            raise ValueError("instance automaton alphabet must match the filter alphabet")


@dataclass(frozen=True)
class NrrAnswer:
    """ACCEPT means the intersection is non-empty; REJECT means provably empty."""

    verdict: Verdict
    witness: Optional[Word] = None


def _validated(inst: NrrInstance, witness: Word) -> NrrAnswer:
    # a Yes answer must survive both sides of the intersection
    if not inst.automaton.accepts(witness):
        raise RuntimeError(f"witness {witness!r} rejected by the automaton")
    if not _filter_member(inst.filter, witness):
        raise RuntimeError(f"witness {witness!r} rejected by the filter")
    return NrrAnswer(Verdict.ACCEPT, tuple(witness))


def nreg_generic(inst: NrrInstance, bounds: SearchBounds = DEFAULT_BOUNDS) -> NrrAnswer:
    """Breadth-first intersection search for oracle filters.

    The control of a node is the NFA state set as a step mask;
    `protocol_search` adds the write word of the open block and the
    oracle state.  A write reads its one token, a query answered by r
    reads q then r, and asks gives the query symbols the state set can
    read, so the oracle is never asked a query no run could follow.  No
    is reported only when the whole space was exhausted without touching
    a bound.
    """
    o = inst.filter
    if not isinstance(o, ProtocolOracle):
        raise ValueError("nreg_generic needs a protocol oracle filter")
    # dead branches would otherwise bloat the frontier into the config cap
    a = inst.automaton.trim()
    if not a.accepting:
        return NrrAnswer(Verdict.REJECT)
    step, accepting = a.step, a.core.accepting
    tokens = [((sym,), sym) for sym in o.alphabet.wr_symbols]
    queries = tuple(o.alphabet.gamma_query)

    def writes(states):
        moves = []
        for tok, sym in tokens:
            nxt = step(states, sym)
            if nxt:
                moves.append((tok, nxt))
        return moves

    def asks(states):
        return [q for q in queries if step(states, q)]

    def answers(states, q, r):
        nxt = step(step(states, q), r)
        return (nxt,) if nxt else ()

    def is_final(states):
        return states & accepting

    verdict, labels = protocol_search(a.core.start, o, writes, asks, answers, is_final, bounds)
    if verdict is Verdict.ACCEPT:
        return _validated(inst, tuple(tok for part in labels for tok in part))
    return NrrAnswer(verdict)


# -- complete backend for the bracket filter ------------------------------


def _pair_edges(a: Nfa, first: str, second: str) -> list:
    """State pairs connected by reading the two tokens (with closures)."""
    core, edges = a.core, []
    for p, closed in zip(core.states, core.closure):
        reach = a.step(a.step(closed, first), second)
        for q in core.names(reach):
            edges.append((p, q))
    return edges


def nreg_dyck(a: Nfa, exact_d2: bool = False) -> NrrAnswer:
    """Complete decider for the bracket filter by worklist CFL reachability.

    B(p, q) holds when a balanced block sequence leads from p to q:
    B -> ε | B B | push_γ B pop_γ.  Prefix mode adds R(q), reached from
    the initial state: R -> ε | R B | R push_γ.  One heap settles each
    item once, in (len(w), w) order (Knuth's generalisation of Dijkstra),
    and joins combine settled items only, indexed by endpoint.  The first
    settled B (exact) or R (prefix) from the initial to an accepting state
    is returned, so the witness is the least word under (len(w), w) and
    the verdict is never Unknown.
    """
    inst = NrrInstance(a, DyckOracle(exact_d2))

    blocks = {"(": (("push(", "("), ("pop", ")")), "[": (("push[", "["), ("pop", "]"))}
    opened_into, closed_from, pushes = defaultdict(list), defaultdict(list), defaultdict(list)
    for gamma, (opener, closer) in blocks.items():
        for p, q in _pair_edges(a, *opener):
            opened_into[q, gamma].append(p)
            pushes[p].append((q, opener))
        for p, q in _pair_edges(a, *closer):
            closed_from[p, gamma].append(q)

    heap, best = [], {}
    starting, ending, reached = defaultdict(list), defaultdict(list), {}

    def offer(kind, p, q, word):
        key = (len(word), word)
        if (kind, p, q) not in best or key < best[kind, p, q]:
            best[kind, p, q] = key
            heapq.heappush(heap, (*key, kind, p, q))

    for p, closed in zip(a.core.states, a.core.closure):
        for q in a.core.names(closed):
            offer("B", p, q, ())
    if not exact_d2:
        offer("R", a.initial, a.initial, ())
    goal = "B" if exact_d2 else "R"
    while heap:
        n, w, kind, p, q = heapq.heappop(heap)
        # a smaller offer made this entry stale; joins never shrink a word
        if best[kind, p, q] != (n, w):
            continue
        if kind == goal and p == a.initial and q in a.accepting:
            return _validated(inst, w)
        if kind == "R":
            reached[q] = w
            for s, w1 in starting[q]:
                offer("R", p, s, w + w1)
            for s, opener in pushes[q]:
                offer("R", p, s, w + opener)
            continue
        starting[p].append((q, w))
        ending[q].append((p, w))
        for r, w0 in ending[p]:
            offer("B", r, q, w0 + w)
        for s, w1 in starting[q]:
            offer("B", p, s, w + w1)
        if p in reached:
            offer("R", a.initial, q, reached[p] + w)
        for gamma, (opener, closer) in blocks.items():
            for p0 in opened_into[p, gamma]:
                for q1 in closed_from[q, gamma]:
                    offer("B", p0, q1, opener + w + closer)
    return NrrAnswer(Verdict.REJECT)


# -- complete backend for the copy filter ----------------------------------


def nreg_perk(a: Nfa, k: int, bounds: SearchBounds = DEFAULT_BOUNDS) -> NrrAnswer:
    """Decide L(a) ∩ (v#)^k ≠ ∅ by searching the transition-relation monoid.

    Each candidate v is represented by its state relation; relations are
    explored breadth-first (shortest v first) and deduplicated, so the
    search space is finite and the answer complete unless the relation
    cap is hit.
    """
    inst = NrrInstance(a, PerKFilter(k))
    digits = tuple(sigma_k(k))
    core = a.core

    def accepts_via(node) -> bool:
        current = core.start
        for _ in range(k):
            after_v = 0
            for i in bits(current):
                after_v |= node[i]
            current = a.step(after_v, "#")
            if not current:
                return False
        return bool(current & core.accepting)

    def successors(node, _cost):
        for sym in digits:
            yield a.step_each(node, sym), 0, sym

    # a node is the relation: the step mask each state reaches, in core.states order
    verdict, v = bounded_search(core.closure, successors, accepts_via, bounds.max_configs)
    if verdict is Verdict.ACCEPT:
        return _validated(inst, (v + ("#",)) * k)
    return NrrAnswer(verdict)


def decide(inst: NrrInstance, bounds: SearchBounds = DEFAULT_BOUNDS) -> NrrAnswer:
    """Route an instance to the strongest backend available for its filter."""
    if isinstance(inst.filter, PerKFilter):
        return nreg_perk(inst.automaton, inst.filter.k, bounds)
    if isinstance(inst.filter, DyckOracle):
        return nreg_dyck(inst.automaton, inst.filter.exact_d2)
    return nreg_generic(inst, bounds)


# -- reductions -------------------------------------------------------------


def nonemptiness_to_nrr(m: AdsAutomaton) -> Nfa:
    """NFA of all protocols m can produce: L(m) ≠ ∅ iff it meets PROT."""
    return image_nfa(extractor(m), universal_nfa(m.input_alphabet))


def nrr_to_nonemptiness(a: Nfa, pa: ProtocolAlphabet, o: ProtocolOracle) -> AdsAutomaton:
    """ADS automaton whose language is non-empty iff L(a) meets PROT(o)."""
    if not a.alphabet.same_symbols(pa.flattened()):
        raise ValueError("automaton alphabet must match the flattened protocol alphabet")
    return compose_with_fst(m_prot(pa, o), id_on(a))


def membership_to_reg(m: AdsAutomaton, w: Word) -> Dfa:
    """DFA of the protocols a deterministic m can follow while reading w.

    The input word is hardwired; the DFA's own input spells the protocol.
    Runs of tokenless moves are fast-forwarded, so each DFA state buffers
    at most one move's write word or one query.  Guarantee:
    L(result) ∩ PROT(o) ≠ ∅ iff m accepts w against o.
    """
    if not m.is_deterministic():
        raise ValueError("membership reduction needs a deterministic machine")
    m = normalize_endmarkers(m)
    w = tuple(w)
    for sym in w:
        if sym not in m.input_alphabet:
            raise ValueError(f"input symbol {sym!r} not in the machine alphabet")
    alphabet = m.protocol.flattened()

    def chase(state, i):
        """Follow tokenless moves until a query, a writing move, or a dead end."""
        accept = False
        seen = set()
        while True:
            if state in m.accepting and i == len(w):
                accept = True
            if (state, i) in seen:
                return "dead", accept, None
            seen.add((state, i))
            if state in m.query_states:
                qmoves = m.query_moves_from(state)
                if not qmoves:
                    return "dead", accept, None
                return "query", accept, (state, i)
            move = None
            for _, inp, x, dst in m.write_moves_from(state):
                if inp is None or (i < len(w) and w[i] == inp):
                    move = (inp, x, dst)
                    break
            if move is None:
                return "dead", accept, None
            inp, x, dst = move
            ni = i if inp is None else i + 1
            if x:
                return "write", accept, (x, dst, ni)
            state, i = dst, ni

    # (source key, suffixes naming the states in between, tokens, target key)
    moves, accepting = [], []

    def successors(key):
        kind, accept, data = chase(*key)
        if accept:
            accepting.append(key)
        if kind == "write":
            x, dst, ni = data
            moves.append((key, [f".w{j}" for j in range(1, len(x))], x, (dst, ni)))
            yield dst, ni
        elif kind == "query":
            qstate, qi = data
            for _, q, r, dst in m.query_moves_from(qstate):
                moves.append((key, [".q"], (q, r), (dst, qi)))
                yield dst, qi

    keys, _ = explore([(m.initial, 0)], successors)
    names = {key: f"e{n}" for n, key in enumerate(keys)}
    states, transitions = set(names.values()), set()
    for key, between, tokens, dst in moves:
        path = [names[key], *(names[key] + suffix for suffix in between), names[dst]]
        states.update(path)
        transitions.update(zip(path, tokens, path[1:]))
    return Dfa(states, alphabet, transitions, "e0", {names[key] for key in accepting})


def filter_transfer(a: Nfa, t: Fst) -> Nfa:
    """Carry an instance across a transduction t with F1 = T(F2).

    The result reads F2-side words: L(a) ∩ F1 ≠ ∅ iff L(result) ∩ F2 ≠ ∅.
    """
    return preimage_nfa(t, a)


# -- single-insert vs copy-language transductions ---------------------------


def spk_to_perk_fst(k: int) -> Fst:
    """Map "w ins + w test + ... w test +" (k blocks) to (w#)^k."""
    sp = sigma_k(k)
    inp = Alphabet(list(sp) + ["ins", "test", "+", "-"])
    out = Alphabet(list(sp) + ["#"])
    states = set()
    transitions = set()
    for j in range(1, k + 1):
        copy, asked = f"c{j}", f"a{j}"
        states |= {copy, asked}
        for sym in sp:
            transitions.add((copy, sym, (sym,), copy))
        transitions.add((copy, "ins" if j == 1 else "test", (), asked))
        transitions.add((asked, "+", ("#",), f"c{j + 1}"))
    final = f"c{k + 1}"
    states.add(final)
    return Fst(states, inp, out, transitions, "c1", {final})


def perk_to_spk_fst(k: int) -> Fst:
    """Map (w#)^k onto single-insert protocols, one edit mode per block.

    Modes: keep the block word (K), change at least one letter keeping
    the length (D), end up strictly shorter (S), strictly longer (L).
    A kept word may be queried as the one insert; after that insert only
    the kept word tests +, and any further ins answers -.
    """
    sp = sigma_k(k)
    inp = Alphabet(list(sp) + ["#"])
    out = Alphabet(list(sp) + ["ins", "test", "+", "-"])
    states = set()
    transitions = set()

    def add_block(j: int, flag: str):
        K, D, S, L = (f"{flag}{j}.{mode}" for mode in "KDSL")
        states.update((K, D, S, L))
        for sym in sp:
            transitions.add((K, sym, (sym,), K))
            transitions.add((K, sym, (), S))
            for other in sp:
                if other != sym:
                    transitions.add((K, sym, (other,), D))
                transitions.add((D, sym, (other,), D))
                transitions.add((S, sym, (other,), S))
                transitions.add((L, sym, (other,), L))
                transitions.add((D, sym, (sym,), D))
                transitions.add((S, sym, (sym,), S))
                transitions.add((L, sym, (sym,), L))
            transitions.add((S, sym, (), S))
            transitions.add((K, None, (sym,), L))
            transitions.add((L, None, (sym,), L))
        nxt_pre = f"pre{j + 1}.K" if j < k else "final"
        nxt_post = f"post{j + 1}.K" if j < k else "final"
        if flag == "pre":
            transitions.add((K, "#", ("test", "-"), nxt_pre))
            transitions.add((K, "#", ("ins", "+"), nxt_post))
            for edited_state in (D, S, L):
                transitions.add((edited_state, "#", ("test", "-"), nxt_pre))
        else:
            transitions.add((K, "#", ("test", "+"), nxt_post))
            transitions.add((K, "#", ("ins", "-"), nxt_post))
            for edited_state in (D, S, L):
                transitions.add((edited_state, "#", ("test", "-"), nxt_post))
                transitions.add((edited_state, "#", ("ins", "-"), nxt_post))

    for j in range(1, k + 1):
        add_block(j, "pre")
        add_block(j, "post")
    states.add("final")
    return Fst(states, inp, out, transitions, "pre1.K", {"final"})
