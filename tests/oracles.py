"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the definitions, not
against the library code: path-level DFS instead of subset stepping,
itertools products instead of level BFS, explicit replay instead of
search. Slower, simpler, and independently wrong-or-right.
"""
from __future__ import annotations

import itertools

from adskit.logtm import BLANK, LAMBDA, LM, RM


def path_accepts(a, word):
    """Membership by DFS over (state, position) pairs."""
    goal = len(word)
    seen = set()
    stack = [(a.initial, 0)]
    while stack:
        state, pos = stack.pop()
        if (state, pos) in seen:
            continue
        seen.add((state, pos))
        if pos == goal and state in a.accepting:
            return True
        for src, sym, dst in a.transitions:
            if src != state:
                continue
            if sym is None:
                stack.append((dst, pos))
            elif pos < goal and sym == word[pos]:
                stack.append((dst, pos + 1))
    return False


def brute_words(a, max_len):
    """L(a) up to max_len by generate-and-test, in length-then-lex order."""
    out = []
    for length in range(max_len + 1):
        for tokens in itertools.product(a.alphabet.symbols, repeat=length):
            if path_accepts(a, tokens):
                out.append(tokens)
    return out


def label_walk(a, labels, max_len):
    """What walk_words should find, by DFS over (state, spelled word) pairs.

    Symbol s spells the word labels[s].  Returns (accepted, cut, stored):
    the accepted words of length <= max_len, whether some run, accepted or
    not, has a move whose label takes it past max_len, and how many
    distinct words of length <= max_len some run spells (the empty word
    included).
    """
    if max_len < 0:
        return set(), False, 0
    accepted = set()
    spelled = set()
    cut = False
    seen = {(a.initial, ())}
    stack = [(a.initial, ())]
    while stack:
        state, word = stack.pop()
        spelled.add(word)
        if state in a.accepting:
            accepted.add(word)
        for src, sym, dst in a.transitions:
            if src != state:
                continue
            nxt = (dst, word if sym is None else word + labels[sym])
            if len(nxt[1]) > max_len:
                cut = True
            elif nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return accepted, cut, len(spelled)


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(alphabet.symbols, repeat=length)


def fst_outputs(t, word, max_out):
    """Bounded relation image by DFS over (state, pos, out) triples."""
    results = set()
    seen = set()
    stack = [(t.initial, 0, ())]
    while stack:
        state, pos, out = stack.pop()
        if (state, pos, out) in seen or len(out) > max_out:
            continue
        seen.add((state, pos, out))
        if pos == len(word) and state in t.accepting:
            results.add(out)
        for src, sym, emitted, dst in t.transitions:
            if src != state:
                continue
            if sym is None:
                stack.append((dst, pos, out + emitted))
            elif pos < len(word) and sym == word[pos]:
                stack.append((dst, pos + 1, out + emitted))
    return results


def fst_apply_ref(t, word, cap):
    """Bounded relation image and its truncation flag, by DFS over triples.

    Returns (words, truncated): the accepted outputs of length <= cap, and
    whether any move out of a kept (state, pos, out) triple, on an accepting
    run or not, would take the output past cap.
    """
    words = set()
    truncated = False
    seen = {(t.initial, 0, ())}
    stack = [(t.initial, 0, ())]
    while stack:
        state, pos, out = stack.pop()
        if pos == len(word) and state in t.accepting:
            words.add(out)
        for src, sym, emitted, dst in t.transitions:
            if src != state:
                continue
            if sym is None:
                nxt = (dst, pos, out + emitted)
            elif pos < len(word) and sym == word[pos]:
                nxt = (dst, pos + 1, out + emitted)
            else:
                continue
            if len(nxt[2]) > cap:
                truncated = True
            elif nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return words, truncated


def brute_ads_accepts(m, word, oracle, max_tape=24, max_keys=100_000):
    """Run-tree reachability for machines with a data structure.

    Depth-first over (state, position, tape, oracle state) with literal
    move scanning. Returns (found, capped); found is trustworthy always,
    a miss only when capped is False.
    """
    full = list(word)
    if any(mv[1] == "lm" for mv in m.write_moves):
        full = ["lm"] + full
    if any(mv[1] == "rm" for mv in m.write_moves):
        full = full + ["rm"]
    full = tuple(full)
    capped = False
    seen = set()
    stack = [(m.initial, 0, (), oracle.initial_state())]
    while stack:
        state, pos, tape, ost = stack.pop()
        key = (state, pos, tape, oracle.canonical_key(ost))
        if key in seen:
            continue
        if len(seen) >= max_keys:
            capped = True
            break
        seen.add(key)
        if (state in m.accepting and pos == len(full) and not tape
                and oracle.accepting(ost)):
            return True, capped
        for src, inp, write, dst in m.write_moves:
            if src != state:
                continue
            if inp is None:
                npos = pos
            elif pos < len(full) and full[pos] == inp:
                npos = pos + 1
            else:
                continue
            if len(tape) + len(write) > max_tape:
                capped = True
                continue
            stack.append((dst, npos, tape + write, ost))
        for src, q, r, dst in m.query_moves:
            if src != state:
                continue
            answer = oracle.respond(ost, tape, q)
            if answer is not None and answer[0] == r:
                stack.append((dst, pos, (), answer[1]))
    return False, capped


def brute_advice_accepts(tm, x, y):
    """Advice acceptance by DFS over (state, input head, work tape, work
    head, advice head), scanning the rule table literally.

    The input sits between the endmarkers; a rule fires when its state and
    both scanned symbols match and neither head leaves its tape.  A
    consuming rule reads the next symbol of y, or past the end of y the
    padding symbol, after which the advice head stays put.  Acceptance
    needs an accepting state with all of y read.  The space is finite, so
    a miss is exact.
    """
    tape = (LM,) + tuple(x) + (RM,)
    y = tuple(y)
    step = {"L": -1, "R": 1, "S": 0}
    seen = set()
    stack = [(tm.initial, 0, (BLANK,) * tm.work_size, 0, 0)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        state, i, work, head, j = node
        if state in tm.accepting and j == len(y):
            return True
        for rule in tm.rules:
            if (rule.state, rule.in_sym, rule.work_sym) != (state, tape[i], work[head]):
                continue
            ni, nh = i + step[rule.in_move], head + step[rule.work_move]
            if not (0 <= ni < len(tape) and 0 <= nh < len(work)):
                continue
            nj = j
            if rule.consume:
                if rule.advice != (y[j] if j < len(y) else LAMBDA):
                    continue
                nj = min(j + 1, len(y))
            written = work[:head] + (rule.work_write,) + work[head + 1:]
            stack.append((rule.dst, ni, written, nh, nj))
    return False


def naive_set_replay(blocks):
    """Reference for the set-storage oracle: literal set bookkeeping."""
    stored = set()
    for u, q, r in blocks:
        if q == "#ins":
            stored.add(u)
            expect = "#"
        elif q == "#out":
            stored.discard(u)
            expect = "#"
        elif q == "#test":
            expect = "+#" if u in stored else "-#"
        else:
            return False
        if r != expect:
            return False
    return True


def ref_marker_family(max_size):
    """Reference for the marker family: scan exponents one at a time.

    Returns (a, b, c, r, q) tuples in construction order.  Both
    exponents of a triple are hunted in the same loop; their candidate
    lengths never clash with each other (opposite parity classes), so
    interleaving matches the sequential pick.
    """
    import itertools

    taken = set()
    entries = []
    for n in range(3, max_size + 1):
        triples = []
        for i in range(1, n - 1):
            for j in range(1, n - i):
                k = n - i - j
                for a in itertools.product("01", repeat=i):
                    for b in itertools.product("01", repeat=j):
                        for c in itertools.product("01", repeat=k):
                            triples.append(("".join(a), "".join(b), "".join(c)))
        triples.sort(key=lambda t: tuple((len(w), w) for w in t))
        lo, hi = 2 ** (3 * n + 3), 2 ** (3 * n + 4)
        for a, b, c in triples:
            base = len(a) + len(c)
            r = q = None
            j = 0
            while r is None or q is None:
                even_len = base + 2 * j * len(b)
                odd_len = base + (2 * j + 1) * len(b)
                if r is None and lo <= even_len < hi and even_len not in taken:
                    r = j
                    taken.add(even_len)
                if q is None and lo <= odd_len < hi and odd_len not in taken:
                    q = j
                    taken.add(odd_len)
                if even_len >= hi and odd_len >= hi:
                    raise AssertionError("exponent scan left the range")
                j += 1
            entries.append((a, b, c, r, q))
    return entries


def ref_graded_member(w, members, marker_forms):
    """Reference for the graded language.

    marker_forms maps a marker word to its accepted flag; at desk scale
    the dict is empty since marker lengths start at 4096.
    """
    if w in marker_forms:
        return marker_forms[w]
    if len(w) % 2:
        return True
    half = w[: len(w) // 2]
    if half != w[len(w) // 2:]:
        return half < w[len(w) // 2:]
    body = half[:-2]
    if half.endswith("11") and len(half) % 2 == 0 and all(
            body[i:i + 2] in ("01", "10") for i in range(0, len(body), 2)):
        x = "".join("0" if body[i:i + 2] == "01" else "1"
                    for i in range(0, len(body), 2))
        return x in members
    return True
