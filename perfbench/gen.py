"""Seeded instance generators for the benchmark.

Every generator returns plain tuples, never adskit objects, so the
reference checkers can read the same description the program was built
from.  Each family draws from its own `random.Random` keyed by
(seed, family, size, index), so adding a family or a rung never shifts
the instances of another.

Machines are described as dicts:
  nfa: states, alphabet, trans [(src, sym|None, dst)], initial, accept
  fst: states, alphabet, outalphabet, trans [(src, sym|None, out, dst)],
       initial, accept
  ads: wstates, qstates, alphabet, wmoves [(src, inp|None, word, dst)],
       qmoves [(src, q, r, dst)], initial, accept
"""
from __future__ import annotations

import random

DYCK_ALPHABET = ("push(", "push[", "pop", "(", ")", "[", "]")
DYCK_BLOCKS = (("push(", "("), ("push[", "["), ("pop", ")"), ("pop", "]"))

SET_ALPHABET = ("a", "b", "#ins", "#out", "#test", "#", "+#", "-#")
SET_BLOCKS = (("#ins", "#"), ("#out", "#"), ("#test", "+#"), ("#test", "-#"))

GRADED_ALPHABET = ("0", "1", "#", "+", "-", "r")


def rng_for(seed: int, family: str, size: int, index: int) -> random.Random:
    # string seeds go through sha512, so the stream is stable across runs
    return random.Random(f"{seed}/{family}/{size}/{index}")


def _nfa(states, alphabet, trans, initial, accept):
    return {"states": list(states), "alphabet": list(alphabet),
            "trans": sorted(set(trans), key=repr), "initial": initial,
            "accept": sorted(set(accept))}


def bracket_nfa(rng: random.Random, n_states: int) -> dict:
    """Block-structured bracket automaton with 3 block edges per state.

    A block edge is push(/( , push[/[ , pop/) or pop/] through a fresh
    midpoint state, so the automaton has n_states/4 base states and 3
    midpoints for each.  The base states form a circulant graph (edges
    to i+1, i+3 and i+7) and each block kind labels a quarter of the
    edges; the seed shuffles the labels and picks the accepting states.
    The fixed shape keeps the saturation cost close across seeds.
    """
    base = n_states // 4
    names = [f"b{i}" for i in range(base)]
    states = list(names)
    trans = []
    deck = [DYCK_BLOCKS[j % 4] for j in range(3 * base)]
    rng.shuffle(deck)
    for i, src in enumerate(names):
        for e, offset in enumerate((1, 3, 7)):
            q, r = deck.pop()
            mid = f"m{i}.{e}"
            states.append(mid)
            trans.append((src, q, mid))
            trans.append((mid, r, names[(i + offset) % base]))
    accept = rng.sample(names[1:], 2)
    return _nfa(states, DYCK_ALPHABET, trans, names[0], accept)


def graded_dag(rng: random.Random, n_states: int) -> dict:
    """Binary-heavy acyclic automaton over the graded protocol alphabet.

    Edges only go from lower to higher index.  Most carry a binary
    letter; about one edge in six starts a two-edge query block instead
    ('#' then '+' or '-', or the reset pair 'r r').
    """
    names = [f"v{i}" for i in range(n_states)]
    trans = []
    for i in range(n_states - 1):
        for _ in range(2):
            j = min(n_states - 1, i + rng.randint(1, 3))
            if rng.random() < 0.17 and j < n_states - 1:
                q, r = rng.choice((("#", "+"), ("#", "+"), ("#", "-"), ("r", "r")))
                trans.append((names[i], q, names[j]))
                trans.append((names[j], r, names[min(n_states - 1, j + rng.randint(1, 2))]))
            else:
                trans.append((names[i], rng.choice("01"), names[j]))
    accept = [names[-1]] + rng.sample(names[1:-1], max(1, n_states // 8))
    return _nfa(names, GRADED_ALPHABET, trans, names[0], accept)


def oracle_members(rng: random.Random, count: int = 6) -> list[str]:
    """Finite membership predicate X: short binary words."""
    out = set()
    while len(out) < count:
        out.add("".join(rng.choice("01") for _ in range(rng.randint(0, 3))))
    return sorted(out)


def set_nfa(rng: random.Random, n_base: int, guard_inserted: bool) -> dict:
    """Dense set-store automaton behind a guarded accepting state.

    Each base state has 4 moves.  Every move writes at most two letters
    and closes its block with one query/response pair, so the pending
    word stays short, only words of length <= 2 are ever stored, and the
    configuration space is finite.
    The accepting state is entered only through the block "b b #test +#".
    Unless guard_inserted is set no move inserts "bb", so that test can
    never answer +# and the instance is empty by construction: the
    generic search has to exhaust the whole space to say REJECT.
    """
    names = [f"s{i}" for i in range(n_base)]
    states = list(names) + ["acc"]
    trans = []

    def chain(src, tag, tokens, dst):
        prev = src
        for k, sym in enumerate(tokens[:-1]):
            nxt = f"{src}.{tag}.{k}"
            states.append(nxt)
            trans.append((prev, sym, nxt))
            prev = nxt
        trans.append((prev, tokens[-1], dst))

    # every (stored word, block) pair occurs about equally often and the
    # first move of each state walks a ring, so all seeds reach every
    # state with every set content and exhaustion costs about the same
    words = [(), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a")]
    combos = [w + blk for w in words for blk in SET_BLOCKS]
    deck = []
    for i, src in enumerate(names):
        for e in range(4):
            if not deck:
                deck = list(combos)
                rng.shuffle(deck)
            dst = names[(i + 1) % n_base] if e == 0 else rng.choice(names)
            chain(src, e, deck.pop(), dst)
    for src in rng.sample(names, 2):
        chain(src, "g", ("b", "b", "#test", "+#"), "acc")
    if guard_inserted:
        chain(rng.choice(names), "i", ("b", "b", "#ins", "#"), rng.choice(names))
    trans.append(("acc", "#test", "acc.t"))
    states.append("acc.t")
    trans.append(("acc.t", "+#", "acc"))
    return _nfa(states, SET_ALPHABET, trans, names[0], ["acc"])


def sis_nfa(rng: random.Random, n_base: int) -> dict:
    """Automaton over the single-insert protocol alphabet for 2 digits.

    Moves write at most two digits and close with one ins/test block;
    the first move of each state walks a ring.
    """
    digits = ["0", "1"]
    blocks = (("ins", "+"), ("ins", "-"), ("test", "+"), ("test", "-"))
    names = [f"s{i}" for i in range(n_base)]
    states = list(names)
    trans = []
    for i, src in enumerate(names):
        for e in range(3):
            w = tuple(rng.choice(digits) for _ in range(rng.randint(0, 2)))
            dst = names[(i + 1) % n_base] if e == 0 else rng.choice(names)
            prev = src
            for j, sym in enumerate(w + rng.choice(blocks)):
                nxt = dst if j == len(w) + 1 else f"{src}.{e}.{j}"
                if nxt != dst:
                    states.append(nxt)
                trans.append((prev, sym, nxt))
                prev = nxt
    accept = rng.sample(names[1:], 2)
    return _nfa(states, digits + ["ins", "test", "+", "-"], trans, names[0], accept)


def copy_nfa(rng: random.Random, n_states: int, k: int, sealed: bool) -> dict:
    """Automaton over the k digits plus '#' for the copy filter (v#)^k.

    The digits act as permutations: a transposition, an n-cycle and
    random ones, under a seeded relabelling.  The first two generate the
    full symmetric group, so the relation monoid the decider explores
    has n! elements on every seed.  '#' is a partial random map.  When
    sealed is set no '#' edge enters an accepting state; every word of
    (v#)^k ends in '#', so the instance is empty by construction.
    """
    names = [f"c{i}" for i in range(n_states)]
    order = list(names)
    rng.shuffle(order)
    digits = [str(i) for i in range(k)]
    perms = [[1, 0] + list(range(2, n_states)),
             [(i + 1) % n_states for i in range(n_states)]]
    while len(perms) < k:
        p = list(range(n_states))
        rng.shuffle(p)
        perms.append(p)
    trans = []
    for d, p in zip(digits, perms):
        for i in range(n_states):
            trans.append((order[i], d, order[p[i]]))
    accept = rng.sample(names, 2)
    targets = [s for s in names if not (sealed and s in accept)]
    for src in names:
        if rng.random() < 0.6:
            trans.append((src, "#", rng.choice(targets)))
    return _nfa(names, digits + ["#"], trans, names[0], accept)


def det_set_ads(rng: random.Random, n_write: int, n_query: int,
                endmarker: bool = True) -> dict:
    """Deterministic set-store machine over input {a, b}.

    Every write move reads an input letter (or, with endmarker set, the
    right endmarker), so each run is finite and simulation always ends
    with a definite verdict.
    """
    wnames = [f"w{i}" for i in range(n_write)]
    qnames = [f"q{i}" for i in range(n_query)]
    everyone = wnames + qnames
    wmoves = []
    for src in wnames:
        for sym in ("a", "b"):
            if rng.random() < 0.9:
                word = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
                wmoves.append((src, sym, word, rng.choice(everyone)))
        if endmarker and rng.random() < 0.4:
            wmoves.append((src, "rm", (), rng.choice(everyone)))
    qmoves = []
    for src in qnames:
        q = rng.choice(("#ins", "#out", "#test"))
        if q == "#test":
            for r in ("+#", "-#"):
                qmoves.append((src, q, r, rng.choice(wnames)))
        else:
            qmoves.append((src, q, "#", rng.choice(wnames)))
    accept = rng.sample(everyone, max(1, len(everyone) // 3))
    return {"wstates": wnames, "qstates": qnames, "alphabet": ["a", "b"],
            "wmoves": sorted(set(wmoves), key=repr), "qmoves": sorted(set(qmoves), key=repr),
            "initial": wnames[0], "accept": sorted(accept)}


def loop_ads(rng: random.Random) -> dict:
    """Set-store machine whose extractor has a fixed-size output blow-up.

    Each input letter opens a write loop of two input-free moves, one
    writing a single letter c and one writing the other letter followed
    by any letter, then closes with an insert or a test.  {c, dx} is a
    prefix code, so distinct runs give distinct outputs and every seed
    yields the same number of outputs at a given cap; the seed only
    picks the letters.
    """
    c = rng.choice("ab")
    d = "b" if c == "a" else "a"
    wmoves = [("w0", "a", (), "w1"), ("w0", "b", (), "w1"),
              ("w1", None, (c,), "w1"), ("w1", None, (d, rng.choice("ab")), "w1"),
              ("w1", None, (), "q0")]
    qmoves = [("q0", "#ins", "#", "w0"), ("q0", "#test", "+#", "w0"),
              ("q0", "#test", "-#", "w0")]
    return {"wstates": ["w0", "w1"], "qstates": ["q0"], "alphabet": ["a", "b"],
            "wmoves": sorted(wmoves, key=repr), "qmoves": qmoves,
            "initial": "w0", "accept": ["w0"]}


def random_fst(rng: random.Random, n_states: int, eps_in: bool = True,
               min_out: int = 0, max_out: int = 2) -> dict:
    """Transducer over {a, b} -> {a, b}: two moves on a, one on b per
    state, the first a-move walking a ring, and an input-free move on
    about one state in four."""
    names = [f"t{i}" for i in range(n_states)]

    def out():
        return tuple(rng.choice("ab") for _ in range(rng.randint(min_out, max_out)))

    trans = []
    for i, src in enumerate(names):
        trans.append((src, "a", out(), names[(i + 1) % n_states]))
        trans.append((src, "a", out(), rng.choice(names)))
        trans.append((src, "b", out(), rng.choice(names)))
        if eps_in and rng.random() < 0.25:
            emitted = tuple(rng.choice("ab") for _ in range(rng.randint(max(1, min_out), max_out)))
            trans.append((src, None, emitted, rng.choice(names)))
    accept = rng.sample(names, max(1, n_states // 2))
    return {"states": names, "alphabet": ["a", "b"], "outalphabet": ["a", "b"],
            "trans": sorted(set(trans), key=repr), "initial": names[0],
            "accept": sorted(accept)}


def random_ab_nfa(rng: random.Random, n_states: int) -> dict:
    """Automaton over {a, b}: an a-ring through all states, one more
    random move per state and letter, an epsilon move on about one
    state in seven."""
    names = [f"n{i}" for i in range(n_states)]
    trans = []
    for i, src in enumerate(names):
        trans.append((src, "a", names[(i + 1) % n_states]))
        trans.append((src, "a", rng.choice(names)))
        trans.append((src, "b", rng.choice(names)))
        if rng.random() < 0.15:
            trans.append((src, None, rng.choice(names)))
    accept = rng.sample(names, max(1, n_states // 3))
    return _nfa(names, ("a", "b"), trans, names[0], accept)


def word(rng: random.Random, length: int) -> tuple:
    return tuple(rng.choice("ab") for _ in range(length))
