"""Finite automata with an auxiliary data structure behind a query tape.

The machine writes onto a one-way tape and occasionally issues a query:
the tape content u plus a query symbol q go to the oracle, the oracle's
response must match the move's expected response, and the tape clears.
States are partitioned: write states read input and append to the tape,
query states only query. Acceptance requires the input consumed, an
accepting state, an empty tape, and an accepting oracle state.
"""
from __future__ import annotations

from typing import Optional

from .automata import Alphabet, Word
from .errors import ItemError
from .protocols import ProtocolAlphabet, ProtocolOracle, protocol_search
from .transducers import Fst
from .verdict import DEFAULT_BOUNDS, SearchBounds, Verdict, explore

# reserved input tokens for the left and right endmarkers
LM = "lm"
RM = "rm"

# (src, input symbol / marker / None, written word, dst)
WriteMove = tuple[str, Optional[str], Word, str]
# (src, query, expected response, dst)
QueryMove = tuple[str, str, str, str]


class AdsAutomaton:
    def __init__(self, write_states, query_states, input_alphabet: Alphabet,
                 protocol: ProtocolAlphabet, write_moves, query_moves,
                 initial: str, accepting):
        self.write_states = frozenset(write_states)
        self.query_states = frozenset(query_states)
        self.states = self.write_states | self.query_states
        self.input_alphabet = input_alphabet
        self.protocol = protocol
        self.initial = initial
        self.accepting = frozenset(accepting)
        write_moves, query_moves = tuple(write_moves), tuple(query_moves)
        self._validate(write_moves, query_moves)
        self.write_moves = frozenset(write_moves)
        self.query_moves = frozenset(query_moves)
        self._wout: dict[str, list[WriteMove]] = {s: [] for s in self.states}
        self._qout: dict[str, list[QueryMove]] = {s: [] for s in self.states}
        for mv in sorted(self.write_moves, key=repr):
            self._wout[mv[0]].append(mv)
        for mv in sorted(self.query_moves, key=repr):
            self._qout[mv[0]].append(mv)

    def _validate(self, write_moves, query_moves):
        if not self.states:
            raise ItemError("automaton needs at least one state", "partition")
        if self.write_states & self.query_states:
            raise ItemError("write and query states must be disjoint", "partition")
        if self.initial not in self.states:
            raise ItemError(f"initial state {self.initial!r} not a state", "initial")
        if not self.accepting <= self.states:
            raise ItemError("accepting states must be states", "accept")
        if LM in self.input_alphabet or RM in self.input_alphabet:
            raise ItemError(f"{LM!r} and {RM!r} are reserved for the endmarkers", "alphabet")
        wr = set(self.protocol.wr_symbols)
        for move in write_moves:
            src, inp, write, dst = move
            if src not in self.write_states:
                raise ItemError(f"write move from non-write state {src!r}", move)
            if dst not in self.states:
                raise ItemError(f"write move into unknown state {dst!r}", move)
            if inp is not None and inp not in self.input_alphabet and inp not in (LM, RM):
                raise ItemError(f"write move reads undeclared symbol {inp!r}", move)
            if not isinstance(write, tuple) or any(x not in wr for x in write):
                raise ItemError(
                    f"write move emits tokens outside the write alphabet: {write!r}", move)
        for move in query_moves:
            src, q, r, dst = move
            if src not in self.query_states:
                raise ItemError(f"query move from non-query state {src!r}", move)
            if dst not in self.write_states:
                raise ItemError(f"query move must land in a write state, got {dst!r}", move)
            if (q, r) not in self.protocol.valid:
                raise ItemError(f"query move uses invalid pair ({q!r},{r!r})", move)

    def write_moves_from(self, state: str) -> list[WriteMove]:
        return self._wout[state]

    def query_moves_from(self, state: str) -> list[QueryMove]:
        return self._qout[state]

    def reads_marker(self, marker: str) -> bool:
        return any(inp == marker for _, inp, _, _ in self.write_moves)

    def is_deterministic(self) -> bool:
        """One future per configuration: no input fanout, an input-free
        move alone at its state, query states on one query with distinct
        expected responses."""
        for s in self.states:
            wm = self._wout[s]
            qm = self._qout[s]
            if qm:
                if len({q for _, q, _, _ in qm}) > 1:
                    return False
                if len({r for _, _, r, _ in qm}) != len(qm):
                    return False
            seen_inputs = set()
            for _, inp, _, _ in wm:
                if inp in seen_inputs:
                    return False
                seen_inputs.add(inp)
            if None in seen_inputs and len(wm) > 1:
                return False
        return True

    def renamed(self, suffix: str) -> "AdsAutomaton":
        f = lambda s: s + suffix
        return AdsAutomaton(
            {f(s) for s in self.write_states}, {f(s) for s in self.query_states},
            self.input_alphabet, self.protocol,
            {(f(a), i, w, f(b)) for a, i, w, b in self.write_moves},
            {(f(a), q, r, f(b)) for a, q, r, b in self.query_moves},
            f(self.initial), {f(s) for s in self.accepting})

    def __repr__(self):
        return (f"AdsAutomaton(states={len(self.states)}, "
                f"writes={len(self.write_moves)}, queries={len(self.query_moves)})")


def _effective_input(m: AdsAutomaton, word: Word) -> Word:
    """Input as the machine sees it: markers appear only if it reads them."""
    full = tuple(word)
    if m.reads_marker(LM):
        full = (LM,) + full
    if m.reads_marker(RM):
        full = full + (RM,)
    return full


def simulate(m: AdsAutomaton, word: Word, oracle: ProtocolOracle,
             bounds: SearchBounds = DEFAULT_BOUNDS) -> Verdict:
    """Bounded search over machine configurations.

    The control of a configuration is (state, input position); the tape,
    the oracle state and the bounds are `protocol_search`'s.  Reject is
    claimed only when the whole graph was explored; any pruned branch
    (tape, blocks, or config cap) downgrades a miss to Unknown.
    """
    if oracle.alphabet != m.protocol:
        raise ValueError("oracle alphabet does not match the automaton's protocol alphabet")
    full = _effective_input(m, word)
    end = len(full)
    # each state's distinct query symbols in move order; targets by (state, q, r)
    queries, targets = {}, {}
    for state in m.query_states:
        for _, q, r, dst in m.query_moves_from(state):
            queries.setdefault(state, {})[q] = None
            targets.setdefault((state, q, r), []).append(dst)

    def writes(control):
        state, pos = control
        here = full[pos] if pos < end else None
        return [(write, (dst, pos)) if inp is None else (write, (dst, pos + 1))
                for _, inp, write, dst in m.write_moves_from(state)
                if inp is None or inp == here]

    def asks(control):
        return queries.get(control[0], ())

    def answers(control, q, r):
        state, pos = control
        return [(dst, pos) for dst in targets.get((state, q, r), ())]

    def is_final(control):
        return control[0] in m.accepting and control[1] == end

    return protocol_search((m.initial, 0), oracle, writes, asks, answers, is_final, bounds)[0]


def m_prot(pa: ProtocolAlphabet, oracle: Optional[ProtocolOracle] = None) -> AdsAutomaton:
    """Canonical machine accepting exactly the correct protocols.

    One scan state copies written symbols to the tape; reading a query
    symbol and then a response symbol commits to a query move expecting
    that response. Deterministic by construction.
    """
    if oracle is not None and oracle.alphabet != pa:
        raise ValueError("oracle alphabet does not match the protocol alphabet")
    wstates = {"scan"}
    qstates = set()
    wmoves = set()
    qmoves = set()
    for a in pa.wr_symbols:
        wmoves.add(("scan", a, (a,), "scan"))
    for q in pa.gamma_query:
        sq = f"q:{q}"
        wstates.add(sq)
        wmoves.add(("scan", q, (), sq))
        for r in pa.responses_for(q):
            sqr = f"q:{q}/{r}"
            qstates.add(sqr)
            wmoves.add((sq, r, (), sqr))
            qmoves.add((sqr, q, r, "scan"))
    return AdsAutomaton(wstates, qstates, pa.flattened(), pa, wmoves, qmoves,
                        "scan", {"scan"})


def normalize_endmarkers(m: AdsAutomaton) -> AdsAutomaton:
    """Fold endmarker reads into state, yielding a marker-free machine.

    Phases 0/1/2 track whether the left marker, the input proper, or the
    right marker is being consumed; marker reads become input-free moves.
    """
    uses_lm = m.reads_marker(LM)
    uses_rm = m.reads_marker(RM)
    if not uses_lm and not uses_rm:
        return m
    name = lambda s, p: f"{s}@{p}"
    wstates = {name(s, p) for s in m.write_states for p in (0, 1, 2)}
    qstates = {name(s, p) for s in m.query_states for p in (0, 1, 2)}
    wmoves = set()
    for src, inp, write, dst in m.write_moves:
        if inp == LM:
            wmoves.add((name(src, 0), None, write, name(dst, 1)))
        elif inp == RM:
            wmoves.add((name(src, 1), None, write, name(dst, 2)))
        elif inp is None:
            for p in (0, 1, 2):
                wmoves.add((name(src, p), None, write, name(dst, p)))
        else:
            wmoves.add((name(src, 1), inp, write, name(dst, 1)))
    qmoves = {(name(src, p), q, r, name(dst, p))
              for src, q, r, dst in m.query_moves for p in (0, 1, 2)}
    return AdsAutomaton(wstates, qstates, m.input_alphabet, m.protocol,
                        wmoves, qmoves, name(m.initial, 0 if uses_lm else 1),
                        {name(f, 2 if uses_rm else 1) for f in m.accepting})


def compose_with_fst(m: AdsAutomaton, t: Fst) -> AdsAutomaton:
    """Machine accepting {w : some output of t on w is accepted by m}.

    The transducer runs in front of m; its emissions sit in a bounded
    buffer that m drains before t may step again. When both machines are
    deterministic and t never emits the empty word, t is additionally
    held back wherever m has an input-free move pending, which keeps the
    product deterministic without losing runs.
    """
    m = normalize_endmarkers(m)
    if not t.output_alphabet.same_symbols(m.input_alphabet):
        raise ValueError("transducer output alphabet must match the machine input alphabet")
    strict = (m.is_deterministic() and t.deterministic
              and all(out for _, _, out, _ in t.transitions))
    wname = lambda ms, ts, buf: f"({ms}|{ts}|{'.'.join(buf)})"
    qname = lambda ms, ts, buf: f"({ms}|{ts}|{'.'.join(buf)}|q)"
    initial = (m.initial, t.initial, ())
    qstates = set()
    wmoves, qmoves = set(), set()

    def successors(cfg):
        ms, ts, buf = cfg
        src = wname(ms, ts, buf)
        t_allowed = buf == () and (not strict or
                                   (ms in m.write_states and
                                    not any(inp is None for _, inp, _, _ in
                                            m.write_moves_from(ms))))
        if t_allowed:
            for sym, out, tdst in t._out.get(ts, ()):
                wmoves.add((src, sym, (), wname(ms, tdst, out)))
                yield ms, tdst, out
        for _, inp, write, mdst in m.write_moves_from(ms):
            if inp is None:
                wmoves.add((src, None, write, wname(mdst, ts, buf)))
                yield mdst, ts, buf
            elif buf and inp == buf[0]:
                wmoves.add((src, None, write, wname(mdst, ts, buf[1:])))
                yield mdst, ts, buf[1:]
        if m.query_moves_from(ms):
            hop = qname(ms, ts, buf)
            qstates.add(hop)
            wmoves.add((src, None, (), hop))
            for _, q, r, mdst in m.query_moves_from(ms):
                qmoves.add((hop, q, r, wname(mdst, ts, buf)))
                yield mdst, ts, buf

    configs, _ = explore([initial], successors)
    wstates = {wname(*cfg) for cfg in configs}
    accepting = {wname(ms, ts, ()) for ms, ts, buf in configs
                 if buf == () and ms in m.accepting and ts in t.accepting}
    return AdsAutomaton(wstates, qstates, t.input_alphabet, m.protocol,
                        wmoves, qmoves, wname(*initial), accepting)


def extractor(m: AdsAutomaton) -> Fst:
    """Transducer mapping each input to the protocols of m's runs on it.

    A word is accepted by m with oracle O exactly when the extractor
    relates it to some member of O's protocol language: write moves emit
    the written tokens, query moves emit the query and the expected
    response. Runs that end with a dirty tape emit a trailing write word
    that no protocol parse accepts, so they never produce false members.
    Endmarker reads are folded away first so no marker leaks out.
    """
    m = normalize_endmarkers(m)
    out_alpha = m.protocol.flattened()
    transitions = set()
    for src, inp, write, dst in m.write_moves:
        transitions.add((src, inp, write, dst))
    for src, q, r, dst in m.query_moves:
        transitions.add((src, None, (q, r), dst))
    return Fst(m.states, m.input_alphabet, out_alpha, transitions,
               m.initial, m.accepting)


AB_WRITE = Alphabet(["a", "b"])


class LetterCode:
    """Unary block code over {a,b}: the i-th letter becomes a b^i a."""

    def __init__(self, alphabet: Alphabet):
        if not alphabet.symbols:
            raise ValueError("cannot recode an empty write alphabet")
        self.alphabet = alphabet
        self._enc = {sym: ("a",) + ("b",) * (i + 1) + ("a",)
                     for i, sym in enumerate(alphabet.symbols)}

    def encode_word(self, word: Word) -> Word:
        return tuple(tok for sym in word for tok in self._enc[sym])

    def decode_word(self, word: Word) -> Optional[Word]:
        out = []
        i = 0
        n = len(word)
        while i < n:
            if word[i] != "a":
                return None
            j = i + 1
            while j < n and word[j] == "b":
                j += 1
            count = j - i - 1
            if count < 1 or count > len(self.alphabet.symbols):
                return None
            if j >= n or word[j] != "a":
                return None
            out.append(self.alphabet.symbols[count - 1])
            i = j + 1
        return tuple(out)

    def to_fst(self) -> Fst:
        transitions = {("0", sym, code, "0") for sym, code in self._enc.items()}
        return Fst({"0"}, self.alphabet, AB_WRITE, transitions, "0", {"0"})


class RecodedOracle(ProtocolOracle):
    """Wraps an oracle so its write words arrive in a b^i a code."""

    def __init__(self, inner: ProtocolOracle):
        if inner.alphabet.gamma_wr is None:
            raise ValueError("inner oracle has no write alphabet to recode")
        self.inner = inner
        self.code = LetterCode(inner.alphabet.gamma_wr)
        pa = inner.alphabet
        self.alphabet = ProtocolAlphabet(AB_WRITE, pa.gamma_query, pa.gamma_resp,
                                         pa.valid)
        self.reset_symbols = inner.reset_symbols

    def initial_state(self):
        return self.inner.initial_state()

    def respond(self, state, u, q):
        decoded = self.code.decode_word(u)
        if decoded is None:
            return None
        return self.inner.respond(state, decoded, q)

    def accepting(self, state):
        return self.inner.accepting(state)


def two_letter_recode(m: AdsAutomaton) -> tuple[AdsAutomaton, Fst]:
    """Rebuild the machine over the write alphabet {a, b}.

    Returns the recoded machine and the deterministic codec transducer;
    pair the machine with a RecodedOracle around the original oracle.
    """
    if m.protocol.gamma_wr is None:
        raise ValueError("machine has no write alphabet to recode")
    code = LetterCode(m.protocol.gamma_wr)
    pa = m.protocol
    new_pa = ProtocolAlphabet(AB_WRITE, pa.gamma_query, pa.gamma_resp, pa.valid)
    wmoves = {(src, inp, code.encode_word(write), dst)
              for src, inp, write, dst in m.write_moves}
    m2 = AdsAutomaton(m.write_states, m.query_states, m.input_alphabet, new_pa,
                      wmoves, m.query_moves, m.initial, m.accepting)
    return m2, code.to_fst()


def _clean_name(s: str, clean: bool) -> str:
    return f"{s}~{'c' if clean else 'd'}"


def _with_clean_flag(m: AdsAutomaton):
    """Track syntactically whether the tape is empty (clean) in the state."""
    wstates = {_clean_name(s, c) for s in m.write_states for c in (True, False)}
    qstates = {_clean_name(s, c) for s in m.query_states for c in (True, False)}
    wmoves = set()
    for src, inp, write, dst in m.write_moves:
        for clean in (True, False):
            wmoves.add((_clean_name(src, clean), inp, write,
                        _clean_name(dst, clean and not write)))
    qmoves = set()
    for src, q, r, dst in m.query_moves:
        for clean in (True, False):
            qmoves.add((_clean_name(src, clean), q, r, _clean_name(dst, True)))
    return wstates, qstates, wmoves, qmoves


def _require_reset(oracle: ProtocolOracle, pa: ProtocolAlphabet):
    reset = oracle.reset_symbols
    if reset is None:
        raise ValueError("construction needs an oracle with declared reset symbols")
    q_rs, r_rs = reset
    if (q_rs, r_rs) not in pa.valid:
        raise ValueError("reset symbols are not a valid query/response pair")
    return q_rs, r_rs


def _reset_bridges(m_states_accepting, write_states, q_rs, r_rs, target, tag):
    """Reset moves out of accepting clean states, via a hop where needed.

    Query moves must start in query states, so accepting write states get
    a fresh query state in between.
    """
    new_wmoves, new_qmoves, new_qstates = set(), set(), set()
    for i, f in enumerate(sorted(m_states_accepting)):
        src = _clean_name(f, True)
        if f in write_states:
            hop = f"{tag}{i}"
            new_qstates.add(hop)
            new_wmoves.add((src, None, (), hop))
            new_qmoves.add((hop, q_rs, r_rs, target))
        else:
            new_qmoves.add((src, q_rs, r_rs, target))
    return new_wmoves, new_qmoves, new_qstates


def concat_reset(m1: AdsAutomaton, m2: AdsAutomaton,
                 oracle: ProtocolOracle) -> AdsAutomaton:
    """Concatenation of two languages over a resettable data structure.

    Between the halves a reset block restores the oracle; the bridge
    only opens at accepting states whose tape is provably empty.
    """
    if m1.protocol != m2.protocol:
        raise ValueError("machines must share a protocol alphabet")
    if not m1.input_alphabet.same_symbols(m2.input_alphabet):
        raise ValueError("machines must share an input alphabet")
    q_rs, r_rs = _require_reset(oracle, m1.protocol)
    m1 = normalize_endmarkers(m1).renamed(".l")
    m2 = normalize_endmarkers(m2).renamed(".r")
    wstates, qstates, wmoves, qmoves = _with_clean_flag(m1)
    wstates |= m2.write_states
    qstates |= m2.query_states
    wmoves |= m2.write_moves
    qmoves |= m2.query_moves
    entry = m2.initial
    if entry in m2.query_states:
        # reset moves must land in a write state
        entry = "enter.r"
        wstates.add(entry)
        wmoves.add((entry, None, (), m2.initial))
    bw, bq, bqs = _reset_bridges(m1.accepting, m1.write_states, q_rs, r_rs,
                                 entry, "cat")
    return AdsAutomaton(wstates, qstates | bqs, m1.input_alphabet, m1.protocol,
                        wmoves | bw, qmoves | bq, _clean_name(m1.initial, True),
                        m2.accepting)


def star_reset(m: AdsAutomaton, oracle: ProtocolOracle) -> AdsAutomaton:
    """Kleene star over a resettable data structure."""
    q_rs, r_rs = _require_reset(oracle, m.protocol)
    m = normalize_endmarkers(m).renamed(".s")
    wstates, qstates, wmoves, qmoves = _with_clean_flag(m)
    start = "start"
    wstates.add(start)
    wmoves.add((start, None, (), _clean_name(m.initial, True)))
    bw, bq, bqs = _reset_bridges(m.accepting, m.write_states, q_rs, r_rs,
                                 start, "loop")
    accepting = {start} | {_clean_name(f, True) for f in m.accepting}
    return AdsAutomaton(wstates, qstates | bqs, m.input_alphabet, m.protocol,
                        wmoves | bw, qmoves | bq, start, accepting)
