"""Seeded random instance generators shared by the test modules."""
from __future__ import annotations

import random

from adskit.automata import Alphabet, Dfa, Nfa
from adskit.logtm import BLANK, LAMBDA, LM, RM, LogTm, TmRule
from adskit.transducers import Fst

AB = Alphabet(["a", "b"])
BIN = Alphabet(["0", "1"])


def random_nfa(rng: random.Random, alphabet=AB, max_states=4, eps_prob=0.15,
               density=2.0, accept_prob=0.4) -> Nfa:
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions = set()
    for _ in range(rng.randint(0, int(density * n) + 1)):
        sym = None if rng.random() < eps_prob else rng.choice(alphabet.symbols)
        transitions.add((rng.choice(states), sym, rng.choice(states)))
    accepting = {s for s in states if rng.random() < accept_prob}
    return Nfa(states, alphabet, transitions, states[0], accepting)


def random_dag_nfa(rng: random.Random, alphabet=BIN, max_states=5, density=2.0,
                   single_accepting=False) -> Nfa:
    """Acyclic automaton: transitions only go from lower to higher index."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    transitions = set()
    if n > 1:
        for _ in range(rng.randint(1, int(density * n))):
            i = rng.randrange(n - 1)
            j = rng.randrange(i + 1, n)
            transitions.add((states[i], rng.choice(alphabet.symbols), states[j]))
    if single_accepting:
        accepting = {states[-1]}
    else:
        accepting = {s for s in states if rng.random() < 0.4} or {states[-1]}
    return Nfa(states, alphabet, transitions, states[0], accepting)


def random_dfa(rng: random.Random, alphabet, max_states=6, total=False,
               accept_prob=0.4) -> Dfa:
    n = rng.randint(1, max_states)
    states = [f"d{i}" for i in range(n)]
    transitions = set()
    for s in states:
        for sym in alphabet:
            if total or rng.random() < 0.8:
                transitions.add((s, sym, rng.choice(states)))
    accepting = {s for s in states if rng.random() < accept_prob}
    return Dfa(states, alphabet, transitions, states[0], accepting)


def random_fst(rng: random.Random, in_alphabet=AB, out_alphabet=AB,
               max_states=4, max_out=2, eps_prob=0.15, density=2.0) -> Fst:
    n = rng.randint(1, max_states)
    states = [f"t{i}" for i in range(n)]
    transitions = set()
    for _ in range(rng.randint(1, int(density * n) + 1)):
        sym = None if rng.random() < eps_prob else rng.choice(in_alphabet.symbols)
        out = tuple(rng.choice(out_alphabet.symbols) for _ in range(rng.randint(0, max_out)))
        transitions.add((rng.choice(states), sym, out, rng.choice(states)))
    accepting = {s for s in states if rng.random() < 0.5} or {states[-1]}
    return Fst(states, in_alphabet, out_alphabet, transitions, states[0], accepting)


# push/opener and pop/closer blocks of the bracket (stack) protocol
BRACKET_BLOCKS = (("push(", "("), ("push[", "["), ("pop", ")"), ("pop", "]"))


def random_bracket_nfa(rng: random.Random, alphabet, base=6, out_degree=3):
    """Block-structured automaton over the bracket protocol alphabet.

    Every edge between the base states b0..b{base-1} is one block of
    BRACKET_BLOCKS through its own midpoint state, so random symbols
    cannot break the push/opener and pop/closer pairing.  The first edge
    of each base state goes to the next one around a ring and the last
    base state accepts, so a witness takes several blocks.  Returns the
    token automaton and the same graph over the block letters "0".."3"
    (indexes into BRACKET_BLOCKS), whose words spell the token words
    two tokens a letter.
    """
    names = [f"b{i}" for i in range(base)]
    states = list(names)
    transitions, block_moves = set(), set()
    for i, src in enumerate(names):
        for e in range(out_degree):
            k = rng.randrange(len(BRACKET_BLOCKS))
            dst = names[(i + 1) % base] if e == 0 else rng.choice(names)
            mid = f"m{i}.{e}"
            states.append(mid)
            first, second = BRACKET_BLOCKS[k]
            transitions |= {(src, first, mid), (mid, second, dst)}
            block_moves.add((src, str(k), dst))
    accepting = {names[-1]}
    return (Nfa(states, alphabet, transitions, names[0], accepting),
            Nfa(names, Alphabet(["0", "1", "2", "3"]), block_moves, names[0], accepting))


# query/response blocks of the set protocol
SET_BLOCKS = (("#ins", "#"), ("#out", "#"), ("#test", "+#"), ("#test", "-#"))


def random_set_nfa(rng: random.Random, alphabet, base=5, out_degree=3):
    """Block-structured automaton over the set protocol alphabet.

    Every edge between the base states b0..b{base-1} writes at most two
    letters and closes its block with one pair of SET_BLOCKS, through
    its own chain of states, so the stored words stay short and the
    configuration space is finite.  The first edge of each base state
    goes to the next one around a ring and the last base state accepts.
    """
    names = [f"b{i}" for i in range(base)]
    states = list(names)
    transitions = set()
    for i, src in enumerate(names):
        for e in range(out_degree):
            dst = names[(i + 1) % base] if e == 0 else rng.choice(names)
            tokens = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            tokens += rng.choice(SET_BLOCKS)
            prev = src
            for j, sym in enumerate(tokens[:-1]):
                mid = f"m{i}.{e}.{j}"
                states.append(mid)
                transitions.add((prev, sym, mid))
                prev = mid
            transitions.add((prev, tokens[-1], dst))
    return Nfa(states, alphabet, transitions, names[0], {names[-1]})


def random_ads(rng: random.Random, pa, input_alphabet=AB, max_states=4,
               density=2.0, det=False):
    """Random machine over a protocol alphabet; det forces one future
    per configuration (no fanout, lone input-free moves, single query)."""
    from adskit.ads import AdsAutomaton

    n_w = rng.randint(1, max_states)
    n_q = rng.randint(0, max(1, max_states // 2))
    wstates = [f"w{i}" for i in range(n_w)]
    qstates = [f"q{i}" for i in range(n_q)]
    states = wstates + qstates
    wr = pa.wr_symbols
    wmoves = set()
    if det:
        for s in wstates:
            if rng.random() < 0.2:
                write = tuple(rng.choice(wr) for _ in range(rng.randint(0, 2))) if wr else ()
                wmoves.add((s, None, write, rng.choice(states)))
                continue
            for sym in input_alphabet:
                if rng.random() < 0.7:
                    write = tuple(rng.choice(wr) for _ in range(rng.randint(0, 2))) if wr else ()
                    wmoves.add((s, sym, write, rng.choice(states)))
    else:
        for _ in range(rng.randint(1, int(density * n_w) + 1)):
            sym = None if rng.random() < 0.2 else rng.choice(input_alphabet.symbols)
            write = tuple(rng.choice(wr) for _ in range(rng.randint(0, 2))) if wr else ()
            wmoves.add((rng.choice(wstates), sym, write, rng.choice(states)))
    qmoves = set()
    for s in qstates:
        if det:
            q = rng.choice(pa.gamma_query.symbols)
            resps = list(pa.responses_for(q))
            rng.shuffle(resps)
            for r in resps[:rng.randint(1, len(resps))]:
                qmoves.add((s, q, r, rng.choice(wstates)))
        else:
            for _ in range(rng.randint(1, 2)):
                q = rng.choice(pa.gamma_query.symbols)
                r = rng.choice(pa.responses_for(q))
                qmoves.add((s, q, r, rng.choice(wstates)))
    accepting = {s for s in states if rng.random() < 0.4} or {states[-1]}
    initial = rng.choice(states)
    return AdsAutomaton(wstates, qstates, input_alphabet, pa, wmoves, qmoves,
                        initial, accepting)


def random_copy_nfa(rng: random.Random, states: int, k: int) -> Nfa:
    """Automaton over the k digits and '#' for the copy filter (v#)^k.

    Each digit acts on the states in its own way: as a permutation, as a
    partial function or as a relation of up to two targets per state, so
    the relation monoid is not a group.  '#' is a partial function, and
    one or two states accept.
    """
    names = [f"c{i}" for i in range(states)]
    digits = [str(i) for i in range(k)]
    transitions = set()
    for d in digits:
        kind = rng.choice(("permutation", "function", "relation"))
        if kind == "permutation":
            image = list(names)
            rng.shuffle(image)
            transitions |= {(src, d, dst) for src, dst in zip(names, image)}
        for src in names:
            if kind == "function" and rng.random() < 0.8:
                transitions.add((src, d, rng.choice(names)))
            elif kind == "relation":
                transitions |= {(src, d, dst) for dst in rng.sample(names, rng.randint(0, 2))}
    for src in names:
        if rng.random() < 0.6:
            transitions.add((src, "#", rng.choice(names)))
    accepting = set(rng.sample(names, rng.randint(1, 2)))
    return Nfa(names, Alphabet(digits + ["#"]), transitions, names[0], accepting)


def random_advice_tm(rng: random.Random) -> LogTm:
    """Advice machine over a, b: 2-4 states, work alphabet {_, 0} on 1-2
    cells, 2-9 rules, each consuming a, b or the padding symbol with
    probability one half.  The last state accepts and carries no rules.
    The first rule reads the start configuration; each later one goes on
    from a random earlier rule, reading what it left under a head that
    stayed, so that runs get past their first step."""
    states = [f"q{i}" for i in range(rng.randint(2, 4))]
    rules = []
    for _ in range(rng.randint(2, 9)):
        state, in_sym, work_sym = states[0], LM, BLANK
        if rules:
            prev = rng.choice(rules)
            state = prev.dst if prev.dst != states[-1] else rng.choice(states[:-1])
            in_sym = prev.in_sym if prev.in_move == "S" else rng.choice((LM, RM, "a", "b"))
            work_sym = prev.work_write if prev.work_move == "S" else rng.choice((BLANK, "0"))
        consume = rng.random() < 0.5
        rules.append(TmRule(state, in_sym, work_sym,
                            rng.choice(("a", "b", LAMBDA)) if consume else None,
                            rng.choice(states), rng.choice((BLANK, "0")),
                            rng.choice("LRSS"), rng.choice("LRS"), consume=consume))
    return LogTm(states, AB, Alphabet([BLANK, "0"]), rng.randint(1, 2), rules,
                 states[0], {states[-1]}, advice_alphabet=AB)
