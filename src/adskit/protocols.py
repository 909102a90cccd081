"""Languages of correct protocols and the oracles that define them.

A protocol is a sequence of blocks u·q·r: a written word u over the
write alphabet, one query symbol q, one response symbol r. An oracle is
the behavioral side of an auxiliary data structure: it owns the alphabet
and answers queries deterministically.  Its states are hashable values
that are never mutated, and equal states answer alike, so a search may
merge them.  `membership` replays one word block by block;
`protocol_search` runs the same block rule over every run of a machine,
and is the one search behind the storage-automaton simulator, the
realizability search and the log-space query runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .automata import Alphabet, Word
from .verdict import PRUNED, SearchBounds, Verdict, bounded_search


class BlockParseError(ValueError):
    """Word is not a sequence of well-formed query blocks."""


class ProtocolAlphabet:
    """Write/query/response alphabets plus the valid (q, r) relation.

    The write alphabet must be disjoint from the other two so block
    factorization is unique. Query and response alphabets may share a
    token (position inside a block disambiguates); one shipped protocol
    language uses the same token as its reset query and reset response.
    """

    def __init__(self, gamma_wr: Optional[Alphabet], gamma_query: Alphabet,
                 gamma_resp: Alphabet, valid):
        self.gamma_wr = gamma_wr
        self.gamma_query = gamma_query
        self.gamma_resp = gamma_resp
        self.valid = frozenset(valid)
        wr = set(self.wr_symbols)
        if wr & set(gamma_query.symbols) or wr & set(gamma_resp.symbols):
            raise ValueError("write alphabet must be disjoint from query/response alphabets")
        for q, r in self.valid:
            if q not in gamma_query or r not in gamma_resp:
                raise ValueError(f"valid pair ({q!r},{r!r}) uses undeclared symbols")
        if not self.valid:
            raise ValueError("valid relation must be non-empty")

    @property
    def wr_symbols(self) -> tuple[str, ...]:
        return self.gamma_wr.symbols if self.gamma_wr is not None else ()

    def responses_for(self, q: str) -> tuple[str, ...]:
        return tuple(r for (qq, r) in sorted(self.valid) if qq == q)

    def flattened(self) -> Alphabet:
        seen = []
        for sym in (*self.wr_symbols, *self.gamma_query.symbols, *self.gamma_resp.symbols):
            if sym not in seen:
                seen.append(sym)
        return Alphabet(seen)

    def __eq__(self, other):
        return isinstance(other, ProtocolAlphabet) and (
            self.gamma_wr, self.gamma_query, self.gamma_resp, self.valid,
        ) == (other.gamma_wr, other.gamma_query, other.gamma_resp, other.valid)

    def __hash__(self):
        return hash((self.gamma_wr, self.gamma_query, self.gamma_resp, self.valid))


@dataclass(frozen=True)
class ProtocolBlock:
    u: Word
    q: str
    r: str

    def tokens(self) -> Word:
        return (*self.u, self.q, self.r)


def parse_blocks(word: Word, pa: ProtocolAlphabet) -> list[ProtocolBlock]:
    """Unique greedy factorization of a token sequence into query blocks."""
    wr = set(pa.wr_symbols)
    blocks = []
    i = 0
    while i < len(word):
        u = []
        while i < len(word) and word[i] in wr:
            u.append(word[i])
            i += 1
        if i == len(word):
            raise BlockParseError(f"missing query after write word {''.join(u)!r}")
        q = word[i]
        if q not in pa.gamma_query:
            raise BlockParseError(f"expected query symbol, got {q!r}")
        i += 1
        if i == len(word):
            raise BlockParseError(f"missing response after query {q!r}")
        r = word[i]
        if r not in pa.gamma_resp or (q, r) not in pa.valid:
            raise BlockParseError(f"invalid (query, response) pair ({q!r},{r!r})")
        i += 1
        blocks.append(ProtocolBlock(tuple(u), q, r))
    return blocks


def flatten_blocks(blocks) -> Word:
    out = []
    for b in blocks:
        out.extend(b.tokens())
    return tuple(out)


class ProtocolOracle:
    """Deterministic responder defining a language of correct protocols.

    States are hashable values handed back and forth and never mutated;
    equal states must give equal answers to every later query, so a
    search may merge them.  respond returns (response, new state) or None
    when the data structure has no legal answer (which a correct protocol
    can never contain).
    """

    alphabet: ProtocolAlphabet
    reset_symbols: Optional[tuple[str, str]] = None

    def initial_state(self):
        raise NotImplementedError

    def respond(self, state, u: Word, q: str):
        raise NotImplementedError

    def canonical_key(self, state):
        """States are their own keys: equal states answer alike."""
        return state

    def accepting(self, state) -> bool:
        """End-of-word condition; True except for exact-language variants."""
        return True


def membership(o: ProtocolOracle, word: Word) -> bool:
    """Replay the word block by block; any deviation or parse failure rejects."""
    try:
        blocks = parse_blocks(word, o.alphabet)
    except BlockParseError:
        return False
    state = o.initial_state()
    for b in blocks:
        answer = o.respond(state, b.u, b.q)
        if answer is None or answer[0] != b.r:
            return False
        state = answer[1]
    return o.accepting(state)


def protocol_search(start, oracle: ProtocolOracle, writes, asks, answers, is_final,
                    bounds: SearchBounds) -> tuple[Verdict, Optional[tuple]]:
    """Bounded search over the runs of a machine talking to an oracle.

    Nodes are (control, tape, oracle state); the client supplies only its
    control moves.  writes(control) lists (tokens, next control) pairs,
    each appending its tokens to the tape; asks(control) lists the query
    symbols the control may issue (only those it can follow: each one
    listed costs a respond call per node); answers(control, q, r) lists
    the controls that go on once the oracle answered the tape and q
    with r.
    A query clears the tape and counts one block.  A node is a goal on an
    empty tape, in a final control and an accepting oracle state.  Runs
    that meet in equal oracle states share a node.  A write past max_tape
    prunes, and so does a query that has a continuation once it would
    exceed max_blocks; a response nothing continues from does neither.
    Returns bounded_search's verdict and, on ACCEPT, the path's labels:
    the tokens of each write and the (q, r) pair of each query.

    writes, asks and answers must be functions of the control alone: the
    search calls writes and asks once per control, on its first
    expansion, and answers once per (control, q, r), when an oracle
    answer first needs it, and reuses the results for the rest of the
    call, so every oracle state that reaches a control shares its moves.
    respond is still called once per (node, query the client lists).
    """
    respond, accepting = oracle.respond, oracle.accepting
    max_tape, max_blocks = bounds.max_tape, bounds.max_blocks
    # control -> (its writes, its asks, its answers by (q, r)); one entry
    # per expanded control, so max_configs bounds it
    moves_of = {}

    def is_goal(node):
        control, tape, ostate = node
        return not tape and is_final(control) and accepting(ostate)

    def successors(node, blocks):
        control, tape, ostate = node
        known = moves_of.get(control)
        if known is None:
            known = moves_of[control] = (tuple(writes(control)), tuple(asks(control)), {})
        control_writes, queries, after = known
        room = max_tape - len(tape)
        moves = []
        for tokens, nxt in control_writes:
            moves.append(((nxt, tape + tokens, ostate), blocks, tokens)
                         if len(tokens) <= room else PRUNED)
        for q in queries:
            answer = respond(ostate, tape, q)
            if answer is None:
                continue
            r, nstate = answer
            nexts = after.get((q, r))
            if nexts is None:
                nexts = after[q, r] = tuple(answers(control, q, r))
            if not nexts:
                continue
            if blocks >= max_blocks:
                moves.append(PRUNED)
                continue
            label = (q, r)
            for nxt in nexts:
                moves.append(((nxt, (), nstate), blocks + 1, label))
        return moves

    return bounded_search((start, (), oracle.initial_state()), successors, is_goal,
                          bounds.max_configs)


# -- shipped oracles -----------------------------------------------------


class DyckOracle(ProtocolOracle):
    """Two-bracket stack: push queries answer with the pushed bracket,
    pop answers the matching closer. Pop on the empty stack has no
    response. With exact_d2 the whole word must drain the stack.
    """

    def __init__(self, exact_d2: bool = False):
        self.exact_d2 = exact_d2
        self.alphabet = ProtocolAlphabet(
            None,
            Alphabet(["push(", "push[", "pop"]),
            Alphabet(["(", ")", "[", "]"]),
            {("push(", "("), ("push[", "["), ("pop", ")"), ("pop", "]")},
        )

    def initial_state(self):
        return ()

    def respond(self, state, u, q):
        if u:
            return None
        if q == "push(":
            return "(", state + ("(",)
        if q == "push[":
            return "[", state + ("[",)
        if q == "pop":
            if not state:
                return None
            closer = ")" if state[-1] == "(" else "]"
            return closer, state[:-1]
        return None

    def accepting(self, state):
        return not self.exact_d2 or not state


class SetOracle(ProtocolOracle):
    """Set of words over {a,b}: insert, remove, membership test."""

    def __init__(self):
        self.alphabet = ProtocolAlphabet(
            Alphabet(["a", "b"]),
            Alphabet(["#ins", "#out", "#test"]),
            Alphabet(["#", "+#", "-#"]),
            {("#ins", "#"), ("#out", "#"), ("#test", "+#"), ("#test", "-#")},
        )

    def initial_state(self):
        return frozenset()

    def respond(self, state, u, q):
        if q == "#ins":
            return "#", state | {u}
        if q == "#out":
            return "#", state - {u}
        if q == "#test":
            return ("+#" if u in state else "-#"), state
        return None


def sigma_k(k: int) -> Alphabet:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return Alphabet([str(i) for i in range(k)])


class SingleInsertOracle(ProtocolOracle):
    """Storage holding at most one word, writable once.

    The first ins answers + and stores the word; every later ins answers
    −; test answers + exactly on the stored word.
    """

    def __init__(self, k: int):
        self.k = k
        self.alphabet = ProtocolAlphabet(
            sigma_k(k),
            Alphabet(["ins", "test"]),
            Alphabet(["+", "-"]),
            {("ins", "+"), ("ins", "-"), ("test", "+"), ("test", "-")},
        )

    def initial_state(self):
        return None

    def respond(self, state, u, q):
        if q == "ins":
            if state is None:
                return "+", u
            return "-", state
        if q == "test":
            return ("+" if state is not None and state == u else "-"), state
        return None


def per_k_membership(word: Word, k: int) -> bool:
    """True iff word = (v#)^k for one v over the k-letter digit alphabet."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not word or word[-1] != "#":
        return False
    parts = []
    current = []
    for tok in word:
        if tok == "#":
            parts.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        return False
    return len(parts) == k and len(set(parts)) == 1


# -- axiom fuzzing -------------------------------------------------------


@dataclass
class FuzzReport:
    axiom: str
    trials: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = f"axiom ({self.axiom}): {self.trials} trials, {len(self.violations)} violations"
        if self.violations:
            shown = "\n".join("  " + v for v in self.violations[:10])
            return head + "\n" + shown
        return head


def random_member(o: ProtocolOracle, rng: random.Random,
                  max_blocks: int) -> list[ProtocolBlock]:
    """Generate a correct protocol by walking the oracle."""
    pa = o.alphabet
    state = o.initial_state()
    blocks = []
    for _ in range(rng.randint(0, max_blocks)):
        u = tuple(rng.choice(pa.wr_symbols)
                  for _ in range(rng.randint(0, 3))) if pa.wr_symbols else ()
        queries = list(pa.gamma_query.symbols)
        rng.shuffle(queries)
        placed = False
        for q in queries:
            answer = o.respond(state, u, q)
            if answer is not None:
                blocks.append(ProtocolBlock(u, q, answer[0]))
                state = answer[1]
                placed = True
                break
        if not placed:
            break
    return blocks


def _replay(o: ProtocolOracle, blocks):
    """Responses the oracle gives to the (u, q) skeleton of the blocks."""
    state = o.initial_state()
    answers = []
    for b in blocks:
        answer = o.respond(state, b.u, b.q)
        if answer is None:
            return None
        answers.append(answer[0])
        state = answer[1]
    return answers


def axiom_fuzz(o: ProtocolOracle, axiom: str, trials: int, max_len: int = 50,
               seed: int = 0) -> FuzzReport:
    """Randomized check of one protocol-language axiom.

    Axioms: i empty word; ii members factor into blocks; iii block-prefix
    closure; iv query totality (a no-response counts as a violation);
    v response determinism; vi reset (only when the oracle declares
    reset symbols).
    """
    if axiom not in ("i", "ii", "iii", "iv", "v", "vi"):
        raise ValueError(f"unknown axiom {axiom!r}")
    rng = random.Random(seed)
    report = FuzzReport(axiom, trials)

    if axiom == "i":
        if not membership(o, ()):
            report.violations.append("empty word rejected")
        return report

    if axiom == "vi" and o.reset_symbols is None:
        report.violations.append("oracle declares no reset symbols")
        return report

    for _ in range(trials):
        p = random_member(o, rng, max_blocks=max_len)
        word = flatten_blocks(p)
        if axiom == "ii":
            try:
                parsed = parse_blocks(word, o.alphabet)
            except BlockParseError as exc:
                report.violations.append(f"{word!r}: {exc}")
                continue
            if parsed != p:
                report.violations.append(f"{word!r}: reparse changed blocks")
        elif axiom == "iii":
            cut = rng.randint(0, len(p))
            prefix = flatten_blocks(p[:cut])
            if not membership(o, prefix):
                report.violations.append(f"member {word!r} has non-member prefix {prefix!r}")
        elif axiom == "iv":
            u = tuple(rng.choice(o.alphabet.wr_symbols)
                      for _ in range(rng.randint(0, 3))) if o.alphabet.wr_symbols else ()
            state = o.initial_state()
            for b in p:
                state = o.respond(state, b.u, b.q)[1]
            for q in o.alphabet.gamma_query:
                if o.respond(state, u, q) is None:
                    report.violations.append(
                        f"after {word!r} with u={''.join(u)!r}: no response to {q!r}")
        elif axiom == "v":
            first = _replay(o, p)
            second = _replay(o, p)
            want = [b.r for b in p]
            if first != want or second != want:
                report.violations.append(f"{word!r}: replay disagrees with recorded responses")
        elif axiom == "vi":
            p2 = random_member(o, rng, max_blocks=max_len)
            q_rs, r_rs = o.reset_symbols
            joined = list(p) + [ProtocolBlock((), q_rs, r_rs)] + list(p2)
            if not membership(o, flatten_blocks(joined)):
                report.violations.append(
                    f"reset between {word!r} and {flatten_blocks(p2)!r} not a member")
    return report
