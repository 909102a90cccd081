"""Bounded-workspace Turing machines with advice or query tapes.

Log space is modeled by an explicit per-machine work-tape size; the
input sits between endmarkers and is read-only.  A machine either
consumes advice symbols from a one-way read-only tape, or writes query
words to a one-way tape that a protocol oracle answers.  A surface
configuration is the tuple (state, input head, work tape, work head);
those of a fixed input are finitely many, which is what the NFA
construction exploits.  `_rule_steps` alone applies table rules to one.
"""

from dataclasses import dataclass
from typing import Optional

from .ads import LM, RM
from .automata import Alphabet, Dfa, Nfa, Word
from .errors import CapExceeded, ItemError
from .protocols import ProtocolOracle, protocol_search
from .verdict import DEFAULT_BOUNDS, SearchBounds, Verdict, bounded_search, explore

BLANK = "_"
LAMBDA = "Λ"
MOVES = {"L": -1, "R": 1, "S": 0}


@dataclass(frozen=True)
class TmRule:
    """One table entry; advice is matched only when consume is set."""

    state: str
    in_sym: str
    work_sym: str
    advice: Optional[str]
    dst: str
    work_write: str
    in_move: str
    work_move: str
    consume: bool = False
    qwrite: Optional[str] = None


class LogTm:
    def __init__(self, states, input_alphabet: Alphabet, work_alphabet: Alphabet,
                 work_size: int, rules, initial, accepting, rejecting=(),
                 advice_alphabet: Optional[Alphabet] = None,
                 queries=(), responses=()):
        self.states = frozenset(states)
        self.input_alphabet = input_alphabet
        if BLANK not in work_alphabet:
            work_alphabet = Alphabet([BLANK] + list(work_alphabet))
        self.work_alphabet = work_alphabet
        self.work_size = work_size
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.rejecting = frozenset(rejecting)
        self.advice_alphabet = advice_alphabet
        rules, queries, responses = tuple(rules), tuple(queries), tuple(responses)
        self._validate(rules, queries, responses)
        self.rules = tuple(sorted(rules, key=repr))
        self.queries = frozenset(queries)
        self.responses = frozenset(responses)
        self._rules_from = {}
        for rule in self.rules:
            self._rules_from.setdefault(rule.state, []).append(rule)
        self._queries_from = {}
        for s, q in sorted(self.queries):
            self._queries_from.setdefault(s, []).append(q)
        self._responses_from = {}
        for s, r, dst in sorted(self.responses):
            self._responses_from.setdefault((s, r), []).append(dst)

    def _validate(self, rules, queries, responses):
        if self.work_size < 1:
            raise ItemError("work tape needs at least one cell", "worksize")
        if self.initial not in self.states:
            raise ItemError("initial state not declared", "initial")
        if not self.accepting <= self.states or not self.rejecting <= self.states:
            raise ItemError("accepting/rejecting states must be declared", "accept")
        if self.accepting & self.rejecting:
            raise ItemError("a state cannot both accept and reject", "accept")
        for marker in (LM, RM):
            if marker in self.input_alphabet:
                raise ItemError(f"{marker!r} is reserved for the input endmarkers", "alphabet")
        if self.advice_alphabet is not None and LAMBDA in self.advice_alphabet:
            raise ItemError(f"{LAMBDA!r} is reserved for advice padding", "advicealphabet")
        halting = self.accepting | self.rejecting
        query_states = {s for s, _ in queries}
        for rule in rules:
            if rule.state not in self.states or rule.dst not in self.states:
                raise ItemError(f"rule {rule} references an undeclared state", rule)
            if rule.state in halting:
                raise ItemError("halting states cannot carry rules", rule)
            if rule.state in query_states:
                raise ItemError(f"{rule.state!r} is a query state and cannot carry rules", rule)
            if rule.in_sym not in self.input_alphabet and rule.in_sym not in (LM, RM):
                raise ItemError(f"input symbol {rule.in_sym!r} not declared", rule)
            if rule.work_sym not in self.work_alphabet or rule.work_write not in self.work_alphabet:
                raise ItemError(f"work symbol in {rule} not declared", rule)
            if rule.in_move not in MOVES or rule.work_move not in MOVES:
                raise ItemError("head moves must be L, R or S", rule)
            if rule.consume:
                if rule.qwrite is not None:
                    raise ItemError("a rule cannot both consume advice and write a query", rule)
                if self.advice_alphabet is None:
                    raise ItemError("consume rules need an advice alphabet", rule)
                if rule.advice not in self.advice_alphabet and rule.advice != LAMBDA:
                    raise ItemError(f"advice symbol {rule.advice!r} not declared", rule)
            elif rule.advice is not None:
                raise ItemError("non-consuming rules cannot match advice", rule)
        for query in queries:
            if query[0] not in self.states or query[0] in halting:
                raise ItemError("query states must be declared, non-halting states", query)
        for response in responses:
            s, _, dst = response
            if s not in query_states:
                raise ItemError(f"response rule for non-query state {s!r}", response)
            if dst not in self.states:
                raise ItemError("response target not declared", response)

    def uses_advice(self) -> bool:
        return any(rule.consume for rule in self.rules)

    def uses_queries(self) -> bool:
        return bool(self.queries) or any(rule.qwrite is not None for rule in self.rules)


def _input_tape(tm: LogTm, x: Word) -> tuple:
    for sym in x:
        if sym not in tm.input_alphabet:
            raise ValueError(f"input symbol {sym!r} not declared")
    return (LM,) + tuple(x) + (RM,)


def _initial_config(tm: LogTm) -> tuple:
    return (tm.initial, 0, (BLANK,) * tm.work_size, 0)


def _rule_steps(tm: LogTm, tape: tuple, config: tuple):
    """The rules that apply in config = (q, i, work, head), in table order,
    each with the configuration it leads to; a rule that would move a head
    off its tape does not apply."""
    q, i, work, head = config
    for rule in tm._rules_from.get(q, ()):
        if rule.in_sym != tape[i] or rule.work_sym != work[head]:
            continue
        ni = i + MOVES[rule.in_move]
        nh = head + MOVES[rule.work_move]
        if 0 <= ni < len(tape) and 0 <= nh < tm.work_size:
            yield rule, (rule.dst, ni, work[:head] + (rule.work_write,) + work[head + 1:], nh)


def run_with_advice(tm: LogTm, x: Word, y: Word, step_cap: int = 100_000) -> Verdict:
    """Execute with advice y, then unbounded padding symbols.

    Accepting requires the advice head to have passed all of y; the
    position is capped at len(y) so padding loops cannot blow up the
    configuration space.
    """
    if tm.uses_queries():
        raise ValueError("advice execution cannot handle query rules")
    for sym in y:
        if tm.advice_alphabet is None or sym not in tm.advice_alphabet:
            raise ValueError(f"advice symbol {sym!r} not declared")
    tape = _input_tape(tm, x)
    y = tuple(y)

    def is_goal(node):
        config, j = node
        return config[0] in tm.accepting and j >= len(y)

    def successors(node, _cost):
        # halting states carry no rules, so their configurations end here
        config, j = node
        under = y[j] if j < len(y) else LAMBDA
        for rule, nxt in _rule_steps(tm, tape, config):
            if rule.consume and rule.advice != under:
                continue
            yield (nxt, min(j + 1, len(y)) if rule.consume else j), 0, None

    return bounded_search((_initial_config(tm), 0), successors, is_goal, step_cap)[0]


def surface_config_nfa(tm: LogTm, x: Word, state_cap: int = 20_000) -> Nfa:
    """NFA over advice ∪ {Λ} tracing the machine's surface configurations.

    Consuming rules become letter transitions, non-consuming ones ε
    transitions; accepting configurations get a Λ self-loop so trailing
    padding never changes the verdict.  x is in the machine's language
    under advice filter F iff some yΛ^k with y ∈ F lands here.
    """
    if tm.uses_queries():
        raise ValueError("surface construction cannot handle query rules")
    advice = list(tm.advice_alphabet) if tm.advice_alphabet is not None else []
    alphabet = Alphabet(advice + [LAMBDA])
    tape = _input_tape(tm, x)
    start = _initial_config(tm)
    moves = []

    def successors(config):
        # halting states carry no rules: rejecting ones end here, accepting ones pad
        if config[0] in tm.accepting:
            moves.append((config, LAMBDA, config))
            return
        for rule, nxt in _rule_steps(tm, tape, config):
            moves.append((config, rule.advice if rule.consume else None, nxt))
            yield nxt

    configs, truncated = explore([start], successors, max_nodes=state_cap)
    if truncated:
        raise CapExceeded("surface configuration cap exceeded")
    names = {(q, i, work, head): f"{q}|{'.'.join(work)}|{head}|{i}"
             for q, i, work, head in configs}
    return Nfa(set(names.values()), alphabet,
               {(names[src], label, names[dst]) for src, label, dst in moves},
               names[start], {names[c] for c in configs if c[0] in tm.accepting})


def _check_padding_input(a: Dfa, lam: str):
    if not isinstance(a, Dfa):
        raise ValueError("padding construction needs a deterministic automaton")
    if lam not in a.alphabet:
        raise ValueError(f"{lam!r} is not in the automaton alphabet")


def padding_flagged(a: Dfa, lam: str) -> Dfa:
    """The flagged padding automaton: once lam is read, only lam may follow."""
    _check_padding_input(a, lam)
    states = {f"{q}@0" for q in a.states} | {f"{q}@1" for q in a.states}
    transitions = set()
    for src, sym, dst in a.transitions:
        if sym == lam:
            transitions.add((f"{src}@0", sym, f"{dst}@1"))
            transitions.add((f"{src}@1", sym, f"{dst}@1"))
        else:
            transitions.add((f"{src}@0", sym, f"{dst}@0"))
    accepting = {f"{q}@0" for q in a.accepting} | {f"{q}@1" for q in a.accepting}
    return Dfa(states, a.alphabet, transitions, f"{a.initial}@0", accepting)


def lambda_eliminate(a: Dfa, lam: str) -> Dfa:
    """Strip lam transitions; a state accepts iff its lam-chain reaches acceptance.

    For lam-free y: y is accepted by the result iff yΛ^k was accepted by
    a for some k ≥ 0.
    """
    _check_padding_input(a, lam)
    lam_next = {src: (dst,) for src, sym, dst in a.transitions if sym == lam}
    accepting = {q for q in a.states
                 if not a.accepting.isdisjoint(explore([q], lambda s: lam_next.get(s, ()))[0])}
    transitions = {(s, sym, d) for s, sym, d in a.transitions if sym != lam}
    return Dfa(a.states, a.alphabet, transitions, a.initial, accepting)


def run_with_protocol(tm: LogTm, x: Word, o: ProtocolOracle,
                      bounds: SearchBounds = DEFAULT_BOUNDS) -> Verdict:
    """Execute against a protocol oracle instead of advice.

    The query tape buffers written symbols until a query state fires;
    the oracle's response picks the continuation.  Accepting needs an
    accepting control state, an empty query tape and an accepting oracle
    state, mirroring the ADS-automaton convention.
    """
    if tm.uses_advice():
        raise ValueError("protocol execution cannot handle advice rules")
    wr = o.alphabet.gamma_wr
    for rule in tm.rules:
        if rule.qwrite is not None and (wr is None or rule.qwrite not in wr):
            raise ValueError(f"query-tape symbol {rule.qwrite!r} not in the write alphabet")
    for s, q in tm.queries:
        if q not in o.alphabet.gamma_query:
            raise ValueError(f"query symbol {q!r} not declared by the oracle")
    for s, r, _ in tm.responses:
        if r not in o.alphabet.gamma_resp:
            raise ValueError(f"response symbol {r!r} not declared by the oracle")

    tape = _input_tape(tm, x)

    def writes(control):
        # halting states carry no rules or queries, so their configurations end here
        return [(() if rule.qwrite is None else (rule.qwrite,), nxt)
                for rule, nxt in _rule_steps(tm, tape, control)]

    def asks(control):
        return tm._queries_from.get(control[0], ())

    def answers(control, qsym, r):
        return [(dst,) + control[1:] for dst in tm._responses_from.get((control[0], r), ())]

    def is_final(control):
        return control[0] in tm.accepting

    return protocol_search(_initial_config(tm), o, writes, asks, answers, is_final, bounds)[0]


# -- toy machines -----------------------------------------------------------

AB = Alphabet(["a", "b"])
_WORK = Alphabet([BLANK])


def _toy_tm(states, rules, initial, accepting, **kwargs):
    return LogTm(states, AB, _WORK, 1, rules, initial, accepting, **kwargs)


def toy_first_symbol_tm() -> LogTm:
    """Accepts when the first advice symbol equals the first input symbol."""
    rules = [TmRule("s0", LM, BLANK, None, "s1", BLANK, "R", "S")]
    for sym in AB:
        rules.append(TmRule("s1", sym, BLANK, sym, "drain", BLANK, "S", "S", consume=True))
        for adv in AB:
            rules.append(TmRule("drain", sym, BLANK, adv, "drain", BLANK, "S", "S", consume=True))
        rules.append(TmRule("drain", sym, BLANK, None, "acc", BLANK, "S", "S"))
    return _toy_tm({"s0", "s1", "drain", "acc"}, rules, "s0", {"acc"}, advice_alphabet=AB)


def toy_equality_tm() -> LogTm:
    """Accepts exactly when the advice word equals the input word."""
    rules = [TmRule("e0", LM, BLANK, None, "e1", BLANK, "R", "S")]
    for sym in AB:
        rules.append(TmRule("e1", sym, BLANK, sym, "e1", BLANK, "R", "S", consume=True))
    rules.append(TmRule("e1", RM, BLANK, None, "acc", BLANK, "S", "S"))
    return _toy_tm({"e0", "e1", "acc"}, rules, "e0", {"acc"}, advice_alphabet=AB)


def toy_always_tm() -> LogTm:
    """Accepts immediately; only the empty advice word works."""
    return _toy_tm({"acc"}, [], "acc", {"acc"}, advice_alphabet=AB)


def toy_never_tm() -> LogTm:
    return _toy_tm({"rej"}, [], "rej", set(), rejecting={"rej"}, advice_alphabet=AB)


def toy_insert_test_tm() -> LogTm:
    """Inserts the input into the set, then tests it: accepts everything."""
    rules = [TmRule("p0", LM, BLANK, None, "w1", BLANK, "R", "S")]
    for sym in AB:
        rules.append(TmRule("w1", sym, BLANK, None, "w1", BLANK, "R", "S", qwrite=sym))
        rules.append(TmRule("r1", sym, BLANK, None, "r1", BLANK, "L", "S"))
        rules.append(TmRule("w2", sym, BLANK, None, "w2", BLANK, "R", "S", qwrite=sym))
    rules.append(TmRule("w1", RM, BLANK, None, "qi", BLANK, "S", "S"))
    rules.append(TmRule("r1", RM, BLANK, None, "r1", BLANK, "L", "S"))
    rules.append(TmRule("r1", LM, BLANK, None, "w2", BLANK, "R", "S"))
    rules.append(TmRule("w2", RM, BLANK, None, "qt", BLANK, "S", "S"))
    return _toy_tm({"p0", "w1", "qi", "r1", "w2", "qt", "acc"}, rules, "p0", {"acc"},
                   queries={("qi", "#ins"), ("qt", "#test")},
                   responses={("qi", "#", "r1"), ("qt", "+#", "acc")})


def toy_test_first_tm() -> LogTm:
    """Demands a positive test before anything was inserted: rejects everything."""
    return _toy_tm({"t0", "acc"}, [], "t0", {"acc"},
                   queries={("t0", "#test")}, responses={("t0", "+#", "acc")})


def toy_palindrome_tm() -> LogTm:
    """Inserts the input, then tests its reversal: accepts palindromes."""
    rules = [TmRule("p0", LM, BLANK, None, "w1", BLANK, "R", "S")]
    for sym in AB:
        rules.append(TmRule("w1", sym, BLANK, None, "w1", BLANK, "R", "S", qwrite=sym))
        rules.append(TmRule("b1", sym, BLANK, None, "b1", BLANK, "L", "S", qwrite=sym))
    rules.append(TmRule("w1", RM, BLANK, None, "qi", BLANK, "S", "S"))
    rules.append(TmRule("b1", RM, BLANK, None, "b1", BLANK, "L", "S"))
    rules.append(TmRule("b1", LM, BLANK, None, "qt", BLANK, "S", "S"))
    return _toy_tm({"p0", "w1", "qi", "b1", "qt", "acc"}, rules, "p0", {"acc"},
                   queries={("qi", "#ins"), ("qt", "#test")},
                   responses={("qi", "#", "b1"), ("qt", "+#", "acc")})
