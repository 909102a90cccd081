"""Textual machine descriptions and their writers.

All formats share one shape: whitespace-tokenized lines led by a keyword.
A line whose first non-blank character is '#' is a comment; '#' anywhere
else stays an ordinary token, since several protocol alphabets use it.
The token "eps" denotes a missing input symbol and is reserved (it can
never be declared in an alphabet); "-" denotes an empty written word in
transducer and storage-machine lines.

Automaton::          type nfa|dfa / alphabet / states / initial / accept /
                     trans <src> <tok|eps> <dst>
Transducer::         type fst / alphabet / outalphabet / states / initial /
                     accept / trans <src> <tok|eps> <out-word|-> <dst>
                     (output words are comma-joined tokens)
Storage machine::    type ads / alphabet / partition wr|query <ids> /
                     initial / accept / wmove <s> <tok|eps|lm|rm> <word|-> <s'> /
                     qmove <s> <q> <r> <s'>
                     (the protocol alphabet comes from the caller)
Turing machine::     type tm / tmstate <id> [initial|accepting|rejecting] /
                     alphabet / workalphabet / worksize N / [advicealphabet] /
                     rule <q> <in> <work> <advice|-> -> <q'> <write> <L|R|S> <L|R|S>
                          <consume|hold|qwrite:tok> /
                     query <q> <qsym> / onresp <q> <rsym> <q'>

Writers emit a canonical sorted form that parses back to an equal machine.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .ads import AdsAutomaton
from .automata import Alphabet, Dfa, Nfa, Word, dot_graph
from .errors import FormatError
from .logtm import LogTm, TmRule
from .protocols import ProtocolAlphabet
from .transducers import Fst

EPS_TOKEN = "eps"
EMPTY_WORD = "-"


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield no, stripped.split()


def _need(cond, no: int, message: str):
    if not cond:
        raise FormatError(message, line_no=no)


def _sym(tok: str) -> Optional[str]:
    if tok == EPS_TOKEN:
        return None
    return tok


def _word(tok: str, no: int) -> Word:
    if tok == EMPTY_WORD:
        return ()
    parts = tuple(tok.split(","))
    _need(all(parts), no, f"malformed word {tok!r}")
    _need(EPS_TOKEN not in parts, no, "eps cannot appear inside a word")
    return parts


def _join_word(word: Word) -> str:
    return ",".join(word) if word else EMPTY_WORD


class _Doc:
    """Grouped lines of one description, with single/multi accessors, and
    the line each item (a header by its keyword, or a move) was first read on.
    `type` is the one type line's value, which must be one of types."""

    def __init__(self, text: str, *types: str):
        self.rows: dict[str, list[tuple[int, list[str]]]] = {}
        self.lines: dict = {}
        for no, toks in _lines(text):
            self.rows.setdefault(toks[0], []).append((no, toks[1:]))
        type_rows = self.rows.pop("type", [])
        _need(len(type_rows) == 1, type_rows[0][0] if type_rows else 1,
              "exactly one type line required")
        no, val = type_rows[0]
        self.type = " ".join(val)
        _need(self.type in types, no, f"expected type {types[0]!r}, found {self.type!r}"
              if len(types) == 1 else f"unknown automaton type {self.type!r}")

    def one(self, key: str) -> tuple[int, list[str]]:
        """The line number and tokens of the one `key` line."""
        rows = self.rows.pop(key, [])
        _need(len(rows) == 1, rows[0][0] if rows else 1,
              f"exactly one {key!r} line required")
        no, toks = rows[0]
        _need(len(toks) >= 1, no, f"{key!r} line needs at least 1 tokens")
        self.lines[key] = no
        return no, toks

    def maybe(self, key: str) -> tuple[int, Optional[list[str]]]:
        """Like `one`, but a missing line gives (1, None)."""
        rows = self.rows.pop(key, [])
        if not rows:
            return 1, None
        _need(len(rows) == 1, rows[0][0], f"at most one {key!r} line allowed")
        self.lines[key] = rows[0][0]
        return rows[0]

    def many(self, key: str) -> list[tuple[int, list[str]]]:
        return self.rows.pop(key, [])

    def item(self, item, no: int):
        """item, recorded as read on line no unless read before."""
        self.lines.setdefault(item, no)
        return item

    def build(self, ctor, *args, **kwargs):
        """ctor(*args, **kwargs), a complaint named on its item's line (else the
        last line recorded); then any directive no loader asked for."""
        try:
            machine = ctor(*args, **kwargs)
        except ValueError as exc:
            no = self.lines.get(getattr(exc, "item", None)) or max(self.lines.values())
            raise FormatError(str(exc), line_no=no) from None
        for key, rows in self.rows.items():
            raise FormatError(f"unknown directive {key!r}", line_no=rows[0][0])
        return machine


def _alphabet(row: tuple[int, Iterable[str]]) -> Alphabet:
    no, tokens = row
    try:
        return Alphabet(tokens)
    except ValueError as exc:
        raise FormatError(str(exc), line_no=no) from None


# -- plain automata -------------------------------------------------------


def load_automaton(text: str) -> Nfa:
    doc = _Doc(text, "nfa", "dfa")
    alphabet = _alphabet(doc.one("alphabet"))
    states = doc.one("states")[1]
    initial = doc.one("initial")[1][0]
    accepting = doc.maybe("accept")[1] or ()
    transitions = []
    for no, toks in doc.many("trans"):
        _need(len(toks) == 3, no, "trans needs <src> <tok|eps> <dst>")
        transitions.append(doc.item((toks[0], _sym(toks[1]), toks[2]), no))
    return doc.build(Dfa if doc.type == "dfa" else Nfa, states, alphabet, transitions,
                     initial, accepting)


def dump_automaton(a: Nfa) -> str:
    kind = "dfa" if isinstance(a, Dfa) else "nfa"
    out = [f"type {kind}", "alphabet " + " ".join(a.alphabet.symbols)]
    out.append("states " + " ".join(sorted(a.states)))
    out.append(f"initial {a.initial}")
    if a.accepting:
        out.append("accept " + " ".join(sorted(a.accepting)))
    for src, sym, dst in sorted(a.transitions, key=repr):
        out.append(f"trans {src} {EPS_TOKEN if sym is None else sym} {dst}")
    return "\n".join(out) + "\n"


# -- transducers ----------------------------------------------------------


def load_fst(text: str) -> Fst:
    doc = _Doc(text, "fst")
    alphabet = _alphabet(doc.one("alphabet"))
    out_alpha = _alphabet(doc.one("outalphabet"))
    states = doc.one("states")[1]
    initial = doc.one("initial")[1][0]
    accepting = doc.maybe("accept")[1] or ()
    transitions = []
    for no, toks in doc.many("trans"):
        _need(len(toks) == 4, no, "trans needs <src> <tok|eps> <out|-> <dst>")
        transitions.append(doc.item((toks[0], _sym(toks[1]), _word(toks[2], no), toks[3]), no))
    return doc.build(Fst, states, alphabet, out_alpha, transitions, initial, accepting)


def dump_fst(t: Fst) -> str:
    out = ["type fst",
           "alphabet " + " ".join(t.input_alphabet.symbols),
           "outalphabet " + " ".join(t.output_alphabet.symbols),
           "states " + " ".join(sorted(t.states)),
           f"initial {t.initial}"]
    if t.accepting:
        out.append("accept " + " ".join(sorted(t.accepting)))
    for src, sym, word, dst in sorted(t.transitions, key=repr):
        out.append(f"trans {src} {EPS_TOKEN if sym is None else sym} "
                   f"{_join_word(word)} {dst}")
    return "\n".join(out) + "\n"


def fst_dot(t: Fst) -> str:
    """GraphViz rendering with in/out edge labels."""
    edges = ((src, f"{'ε' if sym is None else sym}/{'·'.join(word) if word else 'ε'}", dst)
             for src, sym, word, dst in t.transitions)
    return dot_graph("transducer", t.states, t.accepting, t.initial, edges)


# -- storage machines ------------------------------------------------------


def load_ads(text: str, protocol: ProtocolAlphabet) -> AdsAutomaton:
    doc = _Doc(text, "ads")
    alphabet = _alphabet(doc.one("alphabet"))
    write_states: set = set()
    query_states: set = set()
    for no, toks in doc.many("partition"):
        _need(len(toks) >= 1, no, "partition needs a kind")
        kind, ids = toks[0], toks[1:]
        _need(kind in ("wr", "query"), no, f"unknown partition kind {kind!r}")
        (write_states if kind == "wr" else query_states).update(ids)
    initial = doc.one("initial")[1][0]
    accepting = doc.maybe("accept")[1] or ()
    write_moves = []
    for no, toks in doc.many("wmove"):
        _need(len(toks) == 4, no, "wmove needs <src> <tok|eps|lm|rm> <word|-> <dst>")
        write_moves.append(doc.item((toks[0], _sym(toks[1]), _word(toks[2], no), toks[3]), no))
    query_moves = []
    for no, toks in doc.many("qmove"):
        _need(len(toks) == 4, no, "qmove needs <src> <query> <resp> <dst>")
        query_moves.append(doc.item(tuple(toks), no))
    return doc.build(AdsAutomaton, write_states, query_states, alphabet, protocol,
                     write_moves, query_moves, initial, accepting)


def dump_ads(m: AdsAutomaton) -> str:
    out = ["type ads", "alphabet " + " ".join(m.input_alphabet.symbols)]
    if m.write_states:
        out.append("partition wr " + " ".join(sorted(m.write_states)))
    if m.query_states:
        out.append("partition query " + " ".join(sorted(m.query_states)))
    out.append(f"initial {m.initial}")
    if m.accepting:
        out.append("accept " + " ".join(sorted(m.accepting)))
    for src, sym, word, dst in sorted(m.write_moves, key=repr):
        out.append(f"wmove {src} {EPS_TOKEN if sym is None else sym} "
                   f"{_join_word(word)} {dst}")
    for src, q, r, dst in sorted(m.query_moves, key=repr):
        out.append(f"qmove {src} {q} {r} {dst}")
    return "\n".join(out) + "\n"


# -- log-space machines -----------------------------------------------------

_FLAGS = ("initial", "accepting", "rejecting")


def load_tm(text: str) -> LogTm:
    doc = _Doc(text, "tm")
    states, accepting, rejecting = set(), set(), set()
    initial = None
    for no, toks in doc.many("tmstate"):
        _need(len(toks) >= 1, no, "tmstate needs a state id")
        name, flags = toks[0], toks[1:]
        states.add(name)
        for flag in flags:
            _need(flag in _FLAGS, no, f"unknown tmstate flag {flag!r}")
            if flag == "initial":
                _need(initial is None, no, "several initial states")
                initial = name
            elif flag == "accepting":
                accepting.add(name)
            else:
                rejecting.add(name)
    _need(initial is not None, 1, "one tmstate needs the initial flag")
    alphabet = _alphabet(doc.one("alphabet"))
    work = _alphabet(doc.one("workalphabet"))
    size_no, size_row = doc.one("worksize")
    _need(size_row[0].removeprefix("-").isdecimal(), size_no,
          f"worksize must be an integer, got {size_row[0]!r}")
    work_size = int(size_row[0])
    advice_row = doc.maybe("advicealphabet")
    advice = _alphabet(advice_row) if advice_row[1] is not None else None
    rules = []
    for no, toks in doc.many("rule"):
        _need(len(toks) == 10 and toks[4] == "->", no,
              "rule needs <q> <in> <work> <advice|-> -> "
              "<q'> <write> <L|R|S> <L|R|S> <consume|hold|qwrite:tok>")
        q, in_sym, work_sym, adv, _, dst, write, im, wm, mode = toks
        consume = False
        qwrite = None
        if mode == "consume":
            consume = True
            _need(adv != EMPTY_WORD, no, "consume rules need an advice symbol")
        elif mode == "hold":
            _need(adv == EMPTY_WORD, no, "hold rules take no advice symbol")
        elif mode.startswith("qwrite:"):
            qwrite = mode[len("qwrite:"):]
            _need(bool(qwrite), no, "qwrite needs a symbol")
            _need(adv == EMPTY_WORD, no, "qwrite rules take no advice symbol")
        else:
            raise FormatError(f"unknown rule mode {mode!r}", line_no=no)
        rules.append(doc.item(TmRule(q, in_sym, work_sym,
                                     None if adv == EMPTY_WORD else adv,
                                     dst, write, im, wm, consume=consume, qwrite=qwrite), no))
    queries = []
    for no, toks in doc.many("query"):
        _need(len(toks) == 2, no, "query needs <state> <qsym>")
        queries.append(doc.item(tuple(toks), no))
    responses = []
    for no, toks in doc.many("onresp"):
        _need(len(toks) == 3, no, "onresp needs <state> <rsym> <state'>")
        responses.append(doc.item(tuple(toks), no))
    return doc.build(LogTm, states, alphabet, work, work_size, rules,
                     initial, accepting, rejecting=rejecting,
                     advice_alphabet=advice, queries=queries, responses=responses)


def dump_tm(tm: LogTm) -> str:
    out = ["type tm"]
    for s in sorted(tm.states):
        flags = []
        if s == tm.initial:
            flags.append("initial")
        if s in tm.accepting:
            flags.append("accepting")
        if s in tm.rejecting:
            flags.append("rejecting")
        out.append(" ".join(["tmstate", s] + flags))
    out.append("alphabet " + " ".join(tm.input_alphabet.symbols))
    out.append("workalphabet " + " ".join(tm.work_alphabet.symbols))
    out.append(f"worksize {tm.work_size}")
    if tm.advice_alphabet is not None:
        out.append("advicealphabet " + " ".join(tm.advice_alphabet.symbols))
    for r in tm.rules:
        if r.consume:
            mode = "consume"
        elif r.qwrite is not None:
            mode = f"qwrite:{r.qwrite}"
        else:
            mode = "hold"
        adv = r.advice if r.advice is not None else EMPTY_WORD
        out.append(f"rule {r.state} {r.in_sym} {r.work_sym} {adv} -> "
                   f"{r.dst} {r.work_write} {r.in_move} {r.work_move} {mode}")
    for s, q in sorted(tm.queries):
        out.append(f"query {s} {q}")
    for s, resp, dst in sorted(tm.responses):
        out.append(f"onresp {s} {resp} {dst}")
    return "\n".join(out) + "\n"
