"""Non-emptiness over a graded protocol language, driven by a membership oracle.

The write alphabet here is binary and every query grades the pending word
against a fixed language L built from three ingredients: a sparse marker
family W (one rejected and one accepted word per triple of non-empty binary
words), a square encoding sq whose image tracks an arbitrary membership
predicate X, and cheap tie-break rules (odd length, repeated halves,
lexicographic halves) covering everything else.  With that L in place,
protocol non-emptiness for an NFA reduces to polynomially many X calls:
per state pair one decides whether some connecting binary word lands in L
(resp. outside L), and the resulting yes/no transition sets turn the NFA
into a plain regular emptiness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterable, Optional

from .automata import Alphabet, Dfa, Nfa, _kahn, product_intersect
from .errors import CapExceeded
from .protocols import ProtocolAlphabet, ProtocolOracle, Word

BINARY = Alphabet(["0", "1"])

# lengths of marker words for a size-n triple live in [2^(3n+3), 2^(3n+4))
_RANGE_SHIFT = 3

# triples beyond this size would need marker words of length >= 2^30
MAX_TRIPLE_SIZE = 8


def _check_binary(w: str) -> None:
    for ch in w:
        if ch not in ("0", "1"):
            raise ValueError(f"binary word expected, got {w!r}")


# -- square encoding ----------------------------------------------------

_BETA = {"0": "01", "1": "10"}


def beta(x: str) -> str:
    """Letter doubling 0 -> 01, 1 -> 10, extended to a morphism."""
    _check_binary(x)
    return "".join(_BETA[ch] for ch in x)


def sq(x: str) -> str:
    """Square encoding beta(x)11 beta(x)11 of a binary word."""
    half = beta(x) + "11"
    return half + half


def _beta11_decode(v: str) -> Optional[str]:
    """Recover x from v = beta(x)11, or None when v has no such shape."""
    if len(v) < 2 or len(v) % 2 or not v.endswith("11"):
        return None
    out = []
    body = v[:-2]
    for i in range(0, len(body), 2):
        pair = body[i:i + 2]
        if pair == "01":
            out.append("0")
        elif pair == "10":
            out.append("1")
        else:
            return None
    return "".join(out)


def sq_decode(w: str) -> Optional[str]:
    """Inverse of sq on its image; None for words outside the image."""
    _check_binary(w)
    if len(w) % 2:
        return None
    half = len(w) // 2
    if w[:half] != w[half:]:
        return None
    return _beta11_decode(w[:half])


# -- the sparse marker family W -----------------------------------------


@dataclass(frozen=True)
class WEntry:
    """Marker pair of one triple: a b^(2r) c is rejected, a b^(2q+1) c accepted."""

    a: str
    b: str
    c: str
    r: int
    q: int

    @property
    def triple_size(self) -> int:
        return len(self.a) + len(self.b) + len(self.c)

    @property
    def r_length(self) -> int:
        return len(self.a) + len(self.c) + 2 * self.r * len(self.b)

    @property
    def q_length(self) -> int:
        return len(self.a) + len(self.c) + (2 * self.q + 1) * len(self.b)

    def r_word(self) -> str:
        return self.a + self.b * (2 * self.r) + self.c

    def q_word(self) -> str:
        return self.a + self.b * (2 * self.q + 1) + self.c

    def form_of(self, w: str) -> Optional[str]:
        """Which of the two marker words w is ("r" or "q"), if either."""
        if len(w) == self.r_length and w == self.r_word():
            return "r"
        if len(w) == self.q_length and w == self.q_word():
            return "q"
        return None


def _binary_words(length: int):
    return ("".join(bits) for bits in iproduct("01", repeat=length))


def _triples_of_size(n: int) -> list[tuple[str, str, str]]:
    out = []
    for i in range(1, n - 1):
        for j in range(1, n - i):
            k = n - i - j
            for a in _binary_words(i):
                for b in _binary_words(j):
                    for c in _binary_words(k):
                        out.append((a, b, c))
    # shorter component first, then lexicographic, compared left to right
    out.sort(key=lambda t: tuple((len(w), w) for w in t))
    return out


class WCache:
    """Incrementally built marker family, shareable between calls.

    Entries appear in the canonical triple order (total size first, then
    the per-component shortlex order), and no two marker words in the
    whole family ever share a length.
    """

    def __init__(self, max_triple_size: int = MAX_TRIPLE_SIZE):
        self.max_triple_size = max_triple_size
        self.entries: list[WEntry] = []
        self._by_triple: dict[tuple[str, str, str], WEntry] = {}
        self._by_length: dict[int, WEntry] = {}
        self._done = 2

    def ensure(self, triple_size: int) -> None:
        """Process every triple of total size up to the argument."""
        if triple_size > self.max_triple_size:
            raise CapExceeded(
                f"marker construction capped at triple size {self.max_triple_size}")
        while self._done < triple_size:
            n = self._done + 1
            for a, b, c in _triples_of_size(n):
                entry = self._settle(a, b, c)
                self.entries.append(entry)
                self._by_triple[(a, b, c)] = entry
            self._done = n

    def lookup(self, a: str, b: str, c: str) -> WEntry:
        self.ensure(len(a) + len(b) + len(c))
        return self._by_triple[(a, b, c)]

    def _settle(self, a: str, b: str, c: str) -> WEntry:
        n = len(a) + len(b) + len(c)
        lo = 1 << (3 * n + _RANGE_SHIFT)
        hi = lo << 1
        fixed = len(a) + len(c)
        step = len(b)
        r = self._pick(fixed, step, lo, hi, even=True)
        q = self._pick(fixed, step, lo, hi, even=False)
        entry = WEntry(a, b, c, r, q)
        for ln in (entry.r_length, entry.q_length):
            if not lo <= ln < hi:
                raise RuntimeError("marker length left its designated range")
            self._by_length[ln] = entry
        # squares repeat their halves exactly; marker words are checked to
        # stay off the sq image whenever materializing them is affordable
        if entry.r_length <= 1 << 16 and sq_decode(entry.r_word()) is not None:
            raise RuntimeError("marker word collided with the square image")
        if entry.q_length <= 1 << 16 and sq_decode(entry.q_word()) is not None:
            raise RuntimeError("marker word collided with the square image")
        return entry

    def _pick(self, fixed: int, step: int, lo: int, hi: int, even: bool) -> int:
        # smallest exponent m of the requested parity whose word length
        # lands in [lo, hi) without reusing a length already taken
        m = max(0, -(-(lo - fixed) // step))
        if even:
            m += m % 2
        else:
            m += 1 - m % 2
        while fixed + m * step in self._by_length:
            m += 2
        if fixed + m * step >= hi:
            raise RuntimeError("no free length remained in the marker range")
        return m // 2


def w_params(a: str, b: str, c: str, cache: Optional[WCache] = None) -> WEntry:
    """Marker exponents for one triple, replaying all earlier triples."""
    for part in (a, b, c):
        _check_binary(part)
        if not part:
            raise ValueError("triple components must be non-empty")
    cache = cache if cache is not None else WCache()
    return cache.lookup(a, b, c)


def w_words_up_to(n: int, cache: Optional[WCache] = None) -> list[tuple[str, bool]]:
    """Marker words of length <= n as (word, accepted) pairs.

    Pairs come out in construction order. Sizes whose whole length range
    starts above n are never processed, so the call stays cheap for the
    small n seen in practice (the family starts at length 4096).
    """
    cache = cache if cache is not None else WCache()
    size = 3
    while 1 << (3 * size + _RANGE_SHIFT) <= n:
        cache.ensure(size)
        size += 1
    out = []
    for entry in cache.entries:
        if entry.r_length <= n:
            out.append((entry.r_word(), False))
        if entry.q_length <= n:
            out.append((entry.q_word(), True))
    return out


def w_membership(w: str, cache: Optional[WCache] = None) -> Optional[WEntry]:
    """The marker entry one of whose two words is w, or None.

    Only the single triple size whose length range covers |w| needs to be
    generated; lengths outside every range short-circuit to None.  No two
    marker words share a length, so the entry is looked up by |w|.
    """
    _check_binary(w)
    n = len(w)
    if n == 0:
        return None
    bits = n.bit_length()
    if bits < 3 * 3 + _RANGE_SHIFT + 1 or (bits - _RANGE_SHIFT - 1) % 3:
        return None
    size = (bits - _RANGE_SHIFT - 1) // 3
    cache = cache if cache is not None else WCache()
    cache.ensure(size)
    entry = cache._by_length.get(n)
    return entry if entry is not None and entry.form_of(w) is not None else None


# -- the graded language L and its membership oracle ---------------------


class OracleX:
    """Finite membership predicate over binary words with a call counter."""

    def __init__(self, members: Iterable[str] = ()):
        members = frozenset(members)
        for m in members:
            _check_binary(m)
        self._members = members
        self.calls = 0

    def member(self, x: str) -> bool:
        self.calls += 1
        return x in self._members


def l_membership(w: str, x_oracle, cache: Optional[WCache] = None) -> bool:
    """Membership of w in L; the oracle is consulted only on square words.

    Rule order: marker words first (accepted exactly in their odd-exponent
    form), then squares graded by the oracle, then odd length, repeated
    halves, and finally the lexicographic comparison of the two halves.
    """
    _check_binary(w)
    entry = w_membership(w, cache)
    if entry is not None:
        return entry.form_of(w) == "q"
    x = sq_decode(w)
    if x is not None:
        return x_oracle.member(x)
    if len(w) % 2:
        return True
    half = len(w) // 2
    u, v = w[:half], w[half:]
    if u == v:
        return True
    return u < v


PROT_X = ProtocolAlphabet(
    gamma_wr=BINARY,
    gamma_query=Alphabet(["#", "r"]),
    gamma_resp=Alphabet(["+", "-", "r"]),
    valid={("#", "+"), ("#", "-"), ("r", "r")},
)


class ProtXOracle(ProtocolOracle):
    """Stateless responder: '#' grades the pending word, 'r' resets.

    The reset query only answers on an empty pending word, so any write
    before it kills the protocol (the deliberate totality exception of
    this language).
    """

    alphabet = PROT_X
    reset_symbols = ("r", "r")

    def __init__(self, x_oracle):
        self.x = x_oracle
        self.cache = WCache()

    def initial_state(self):
        return ()

    def respond(self, state, u: Word, q: str):
        if q == "r":
            return ("r", state) if not u else None
        if q != "#":
            return None
        answer = "+" if l_membership("".join(u), self.x, self.cache) else "-"
        return (answer, state)


def forward_reduce(x: str) -> Word:
    """Protocol word sq(x) # + which is correct exactly when x is a member."""
    _check_binary(x)
    return tuple(sq(x)) + ("#", "+")


# -- path length sets over acyclic automata ------------------------------

_NO_LENGTHS: frozenset = frozenset()
_NO_ROW: dict = {}


class LengthSets:
    """Path length sets between every pair of useful states."""

    def __init__(self, states: Iterable[str], table: dict):
        self.states = tuple(sorted(states))
        self._table = table

    def get(self, s1: str, s2: str) -> frozenset:
        return self._table.get(s1, _NO_ROW).get(s2, _NO_LENGTHS)

    @property
    def max_length(self) -> int:
        return max((max(v) for row in self._table.values() for v in row.values()), default=0)


def _reject_eps(a: Nfa) -> None:
    if any(sym is None for _, sym, _ in a.transitions):
        raise ValueError("length analysis needs an epsilon-free automaton")


def _rows(a: Nfa) -> tuple[dict, dict]:
    """Successor sets per state, and target sets per (state, letter)."""
    succ: dict[str, set] = {s: set() for s in a.states}
    adj: dict[tuple[str, str], set] = {}
    for src, sym, dst in a.transitions:
        succ[src].add(dst)
        adj.setdefault((src, sym), set()).add(dst)
    return succ, adj


def _length_rows(succ: dict) -> dict:
    """rows[m][t]: the lengths of the paths m -> t, for each state m on no cycle.

    Tarjan's search closes the strongly connected components in reverse
    topological order.  A state on no cycle is a component of its own
    without a self-loop and closes after all of its successors, so its
    row is one more than theirs.  Successors on a cycle have no row and
    are skipped, which leaves row[m][t] exact for every target t that no
    cycle reachable from m reaches.
    """
    rows: dict[str, dict] = {}
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set = set()
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, todo = work[-1]
            for d in todo:
                if d not in index:
                    index[d] = low[d] = len(index)
                    stack.append(d)
                    on_stack.add(d)
                    work.append((d, iter(succ[d])))
                    break
                if d in on_stack:
                    low[v] = min(low[v], index[d])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] != index[v]:
                    continue
                top = stack.pop()
                on_stack.discard(top)
                if top == v and v not in succ[v]:
                    mine: dict[str, set] = {v: {0}}
                    for d in succ[v]:
                        for t, lens in rows.get(d, _NO_ROW).items():
                            mine.setdefault(t, set()).update(n + 1 for n in lens)
                    rows[v] = {t: frozenset(lens) for t, lens in mine.items()}
                while top != v:
                    top = stack.pop()
                    on_stack.discard(top)
    return rows


def length_sets(a: Nfa) -> LengthSets:
    """Sets of path lengths s1 -> s2 in the trimmed automaton.

    Cyclic input (after trimming) is an error since the sets would be
    infinite.
    """
    _reject_eps(a)
    core = a.trim()
    rows = _length_rows(_rows(core)[0])
    if len(rows) != len(core.states):
        raise ValueError("length analysis needs an acyclic trimmed automaton")
    return LengthSets(core.states, rows)


# -- lexicographic extremes of fixed-length path sets --------------------

_KINDS = ("min0", "max0", "min1", "max1")
_MIN = ("0", "1")
_MAX = ("1", "0")


def _lengths_to(rows: dict, targets) -> dict:
    """col[m]: the lengths of the paths from m to any of the targets."""
    col = {}
    for m, row in rows.items():
        hits = [row[t] for t in targets if t in row]
        if hits:
            col[m] = hits[0].union(*hits[1:])
    return col


def _extreme(adj: dict, lengths_to: dict, sources, length: int,
             prefer: tuple[str, str]) -> Optional[str]:
    """Lexicographically first word of the given length, under the letter
    preference, that leads from a source to a target; None if none does.
    lengths_to[m] holds the lengths of the paths from m to a target.

    Extends each prefix by the preferred letter as long as some carrier
    state can still finish with the remaining length budget.
    """
    current = {st for st in sources if length in lengths_to.get(st, _NO_LENGTHS)}
    if not current:
        return None
    out = []
    for remaining in range(length - 1, -1, -1):
        for sym in prefer:
            nxt = {d for st in current for d in adj.get((st, sym), ())
                   if remaining in lengths_to.get(d, _NO_LENGTHS)}
            if nxt:
                out.append(sym)
                current = nxt
                break
        else:
            return None
    return "".join(out)


def lex_extreme(a: Nfa, s: str, length: int, kind: str,
                ls: Optional[LengthSets] = None) -> Optional[str]:
    """Extreme word of one fixed-length path family, or None if empty.

    Kinds ending in 0 range over words leading from the initial state to
    s; kinds ending in 1 over words leading from s to an accepting state.
    min/max refer to the lexicographic order on the equal-length words.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if not a.alphabet.same_symbols(BINARY):
        raise ValueError("lexicographic extremes are defined over the binary alphabet")
    if s not in a.states:
        raise ValueError(f"state {s!r} not declared")
    core = a.trim()
    if ls is None:
        ls = length_sets(core)
    over_left = kind.endswith("0")
    sources = (core.initial,) if over_left else (s,)
    targets = (s,) if over_left else tuple(core.accepting)
    prefer = _MIN if kind.startswith("min") else _MAX
    return _extreme(_rows(core)[1], _lengths_to(ls._table, targets), sources, length, prefer)


# -- transition sets through L and through its complement -----------------


def _exclude_words(a: Nfa, words: Iterable[str]) -> Nfa:
    """Same language minus the listed words.

    Product with a DFA that follows the prefixes of the word list and
    falls into a sink once the read word has left them; the product is
    built over reachable pairs only, so a long excluded word does not
    blow up a thin automaton.
    """
    _reject_eps(a)
    words = set(words)
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)} | {""}
    states = prefixes | {"⊥"}
    avoid = Dfa(states, a.alphabet,
                {(p, sym, p + sym if p + sym in prefixes else "⊥")
                 for p in states for sym in a.alphabet},
                "", states - words)
    return product_intersect(a, avoid)


def _marker_hits(sub: Nfa, word_lengths, w_list) -> tuple[bool, bool]:
    """Whether the automaton accepts a marker word graded in L, resp. out of L."""
    hits = {accepted for word, accepted in w_list
            if len(word) in word_lengths and sub.accepts(tuple(word))}
    return True in hits, False in hits


class _Tables:
    """The graph work on one automaton that every source state can share.

    succ and adj come from _rows and rows from _length_rows, each built
    once; lengths_to() keeps one _lengths_to column per target tuple, and
    extreme() memoises _extreme.  A graded target lies behind no cycle
    reachable from its source, so the rows of the states that can still
    reach it are exact, and a word found for a (sources, targets, length,
    preference) key is the same whichever source asked.
    """

    def __init__(self, a: Nfa):
        self.succ, self.adj = _rows(a)
        self.rows = _length_rows(self.succ)
        self._columns: dict = {}
        self._extremes: dict = {}

    def lengths_to(self, targets) -> dict:
        col = self._columns.get(targets)
        if col is None:
            col = self._columns[targets] = _lengths_to(self.rows, targets)
        return col

    def extreme(self, sources, targets, length: int,
                prefer: tuple[str, str]) -> Optional[str]:
        key = (sources, targets, length, prefer)
        if key not in self._extremes:
            self._extremes[key] = _extreme(self.adj, self.lengths_to(targets), sources,
                                           length, prefer)
        return self._extremes[key]


def _grade(tables: _Tables, start: str, finals, mids,
           want_l: bool, want_lbar: bool, member) -> tuple[bool, bool]:
    """Whether some word start -> finals lies in L, resp. outside L.

    Only the wanted sides are settled, and no accepted word may be a
    marker word.  Odd words lie in L; even words split at a middle state
    into halves u v, and the extreme halves show whether some u < v, or
    whether u == v is forced, in which case the square shape of u decides
    (the oracle is asked only then).
    """
    row, right, extreme = tables.rows[start], tables.lengths_to(finals), tables.extreme
    need_l = want_l and not any(n % 2 for n in right.get(start, _NO_LENGTHS))
    need_lbar = want_lbar
    for mid in mids:
        if not (need_l or need_lbar):
            break
        for h in sorted(row.get(mid, _NO_LENGTHS) & right.get(mid, _NO_LENGTHS)):
            if need_l:
                lo = extreme((start,), (mid,), h, _MIN)
                hi = extreme((mid,), finals, h, _MAX)
                x = _beta11_decode(lo) if lo == hi else None
                need_l = not (lo < hi or lo == hi and (x is None or member(x)))
            if need_lbar:
                lo = extreme((mid,), finals, h, _MIN)
                hi = extreme((start,), (mid,), h, _MAX)
                x = _beta11_decode(lo) if lo == hi else None
                need_lbar = not (lo < hi or x is not None and not member(x))
            if not (need_l or need_lbar):
                break
    return want_l and not need_l, want_lbar and not need_lbar


def _grade_around_markers(a: Nfa, s: str, s2: str, lengths, w_list,
                          member) -> tuple[bool, bool]:
    """_grade for a target that can produce a listed marker word: probe the
    connecting automaton for the markers, then grade it without them on
    tables of its own."""
    sub = a.sub_automaton(s, s2).trim()
    hit_in, hit_out = _marker_hits(sub, lengths, w_list)
    if hit_in and hit_out:
        return True, True
    core = _exclude_words(sub, [w for w, _ in w_list]).trim()
    if core.is_empty():
        return hit_in, hit_out
    got_l, got_lbar = _grade(_Tables(core), core.initial, tuple(core.accepting),
                             sorted(core.states), not hit_in, not hit_out, member)
    return hit_in or got_l, hit_out or got_lbar


WSource = Callable[[int], list[tuple[str, bool]]]


def _delta_both(a: Nfa, s: str, x_oracle, w_source: Optional[WSource] = None,
                memo: Optional[dict] = None, cache: Optional[WCache] = None,
                tables: Optional[_Tables] = None) -> tuple[frozenset, frozenset]:
    """States reachable from s by a word in L, and by a word outside L.

    `tables` holds the successor rows, path-length rows and memoised
    extreme words of `a`; a decision builds it once and passes it for
    every source state, and a call without it builds its own.  Per source
    there is one reachability walk and one Kahn order: a target that some
    cycle reaches has an infinite connecting language, which lands in
    both sets outright.  The others are graded on the shared tables,
    unless a generated marker word has a length the target can produce;
    only then is the connecting automaton built, probed for marker words
    and graded with the markers excluded.
    """
    if s not in a.states:
        raise ValueError(f"state {s!r} not declared")
    if not a.alphabet.same_symbols(BINARY):
        raise ValueError("transition sets are defined over the binary alphabet")
    _reject_eps(a)
    cache = cache if cache is not None else WCache()
    if w_source is None:
        w_source = lambda n: w_words_up_to(n, cache)
    memo = memo if memo is not None else {}
    tables = tables if tables is not None else _Tables(a)

    def member(x: str) -> bool:
        if x not in memo:
            memo[x] = x_oracle.member(x)
        return memo[x]

    reach = a.reachable(s)
    order = _kahn(reach, tables.succ)
    # every infinite regular language strays into a marker pair
    in_l = reach - set(order)
    in_lbar = set(in_l)
    ranked = sorted(order)
    for s2 in ranked:
        into = tables.lengths_to((s2,))
        lengths = into[s]
        mids = [m for m in ranked if m in into]
        w_list = w_source(len(mids))
        if any(len(w) in lengths for w, _ in w_list):
            got_l, got_lbar = _grade_around_markers(a, s, s2, lengths, w_list, member)
        else:
            got_l, got_lbar = _grade(tables, s, (s2,), mids, True, True, member)
        if got_l:
            in_l.add(s2)
        if got_lbar:
            in_lbar.add(s2)
    return frozenset(in_l), frozenset(in_lbar)


# -- the decision procedure ----------------------------------------------

DECIDE_ALPHABET = Alphabet(["y", "n", "#", "+", "-", "r"])


@dataclass(frozen=True)
class UniversalityAnswer:
    nonempty: bool
    oracle_calls: int


def _block_shape_nfa() -> Nfa:
    """Cycle automaton for (y # + | n # - | r r)*."""
    transitions = {
        ("b0", "y", "y1"), ("y1", "#", "y2"), ("y2", "+", "b0"),
        ("b0", "n", "n1"), ("n1", "#", "n2"), ("n2", "-", "b0"),
        ("b0", "r", "r1"), ("r1", "r", "b0"),
    }
    return Nfa({"b0", "y1", "y2", "n1", "n2", "r1"}, DECIDE_ALPHABET,
               transitions, "b0", {"b0"})


def universality_decide(a: Nfa, x_oracle) -> UniversalityAnswer:
    """Does the automaton accept a correct protocol of the graded language?

    Summarizes every binary stretch by yes/no letters: an edge s -y-> s2
    exists when some word in L connects them, s -n-> s2 when some word
    outside L does. The summarized automaton intersected with the block
    shape (y#+ | n#- | rr)* is non-empty exactly when the original meets
    the protocol language. Oracle calls are deduplicated per decision, and
    the path tables and extreme words of the binary moves are built once
    and shared by every source state.
    """
    if not a.alphabet.same_symbols(PROT_X.flattened()):
        raise ValueError("automaton alphabet must match the graded protocol alphabet")
    before = x_oracle.calls
    flat = a.eliminate_eps()
    binary = Nfa(
        flat.states, BINARY,
        {(p, sym, d) for p, sym, d in flat.transitions if sym in ("0", "1")},
        flat.initial, flat.accepting)
    cache = WCache()
    memo: dict = {}
    edges = {(p, sym, d) for p, sym, d in flat.transitions
             if sym in ("#", "+", "-", "r")}
    tables = _Tables(binary)
    for s in sorted(flat.states):
        dl, dlbar = _delta_both(binary, s, x_oracle, memo=memo, cache=cache, tables=tables)
        edges.update((s, "y", t) for t in dl)
        edges.update((s, "n", t) for t in dlbar)
    summarized = Nfa(flat.states, DECIDE_ALPHABET, edges, flat.initial, flat.accepting)
    nonempty = not product_intersect(summarized, _block_shape_nfa()).is_empty()
    return UniversalityAnswer(nonempty, x_oracle.calls - before)
