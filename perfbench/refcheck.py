"""Reference checkers written from the definitions.

Nothing here imports adskit: each check reads the plain machine
descriptions made by gen.py and replays words literally, so a fault in
the program cannot hide in its own checker.
"""
from __future__ import annotations

# -- automata and transducers ---------------------------------------------


def nfa_accepts(desc: dict, word) -> bool:
    """Path search over (state, position) pairs, epsilon edges included."""
    out = {}
    for src, sym, dst in desc["trans"]:
        out.setdefault(src, []).append((sym, dst))
    accept = set(desc["accept"])
    goal = len(word)
    seen = set()
    stack = [(desc["initial"], 0)]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        state, pos = node
        if pos == goal and state in accept:
            return True
        for sym, dst in out.get(state, ()):
            if sym is None:
                stack.append((dst, pos))
            elif pos < goal and sym == word[pos]:
                stack.append((dst, pos + 1))
    return False


def fst_outputs(desc: dict, word, cap: int) -> tuple[set, bool]:
    """All outputs of length <= cap, and whether some run outgrew the cap."""
    out = {}
    for src, sym, emitted, dst in desc["trans"]:
        out.setdefault(src, []).append((sym, tuple(emitted), dst))
    accept = set(desc["accept"])
    results = set()
    binds = False
    seen = set()
    stack = [(desc["initial"], 0, ())]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        state, pos, emitted_so_far = node
        if pos == len(word) and state in accept:
            results.add(emitted_so_far)
        for sym, emitted, dst in out.get(state, ()):
            if sym is None:
                npos = pos
            elif pos < len(word) and sym == word[pos]:
                npos = pos + 1
            else:
                continue
            nxt = emitted_so_far + emitted
            if len(nxt) > cap:
                binds = True
                continue
            stack.append((dst, npos, nxt))
    return results, binds


def extractor_desc(ads: dict) -> dict:
    """The run extractor by its definition, for machines without endmarkers:
    write moves emit their word, query moves read nothing and emit q r."""
    trans = [(s, i, tuple(w), d) for s, i, w, d in ads["wmoves"]]
    trans += [(s, None, (q, r), d) for s, q, r, d in ads["qmoves"]]
    return {"trans": trans, "initial": ads["initial"], "accept": ads["accept"]}


# -- protocol languages ----------------------------------------------------


def _blocks(word, write_letters, queries, responses):
    """Split into (u, q, r) blocks; None when the word does not factor."""
    blocks = []
    i = 0
    while i < len(word):
        u = []
        while i < len(word) and word[i] in write_letters:
            u.append(word[i])
            i += 1
        if i + 1 >= len(word) or word[i] not in queries or word[i + 1] not in responses:
            return None
        blocks.append((tuple(u), word[i], word[i + 1]))
        i += 2
    return blocks


def dyck_ok(word, exact: bool) -> bool:
    """Stack replay: push( answers (, push[ answers [, pop answers the
    closer of the top bracket; exact also needs the stack empty at the end."""
    blocks = _blocks(word, (), ("push(", "push[", "pop"), ("(", ")", "[", "]"))
    if blocks is None:
        return False
    stack = []
    for _, q, r in blocks:
        if q == "push(" and r == "(":
            stack.append("(")
        elif q == "push[" and r == "[":
            stack.append("[")
        elif q == "pop" and stack and r == {"(": ")", "[": "]"}[stack[-1]]:
            stack.pop()
        else:
            return False
    return not (exact and stack)


def dyck_pop_on_empty(word) -> bool:
    """Whether the bracket protocol word leaves the stack empty."""
    blocks = _blocks(word, (), ("push(", "push[", "pop"), ("(", ")", "[", "]"))
    if blocks is None:
        return False
    depth = 0
    for _, q, _ in blocks:
        depth += 1 if q.startswith("push") else -1
    return depth == 0


def set_ok(word) -> bool:
    """Set replay: #ins and #out answer #, #test answers +# iff stored."""
    blocks = _blocks(word, ("a", "b"), ("#ins", "#out", "#test"), ("#", "+#", "-#"))
    if blocks is None:
        return False
    stored = set()
    for u, q, r in blocks:
        if q == "#ins":
            stored.add(u)
            want = "#"
        elif q == "#out":
            stored.discard(u)
            want = "#"
        else:
            want = "+#" if u in stored else "-#"
        if r != want:
            return False
    return True


def single_insert_ok(word, k: int) -> bool:
    """Single-insert replay: the first ins answers + and stores its word,
    later ins answer -, test answers + exactly on the stored word."""
    digits = tuple(str(i) for i in range(k))
    blocks = _blocks(word, digits, ("ins", "test"), ("+", "-"))
    if blocks is None:
        return False
    stored = None
    for u, q, r in blocks:
        if q == "ins":
            want = "+" if stored is None else "-"
            if stored is None:
                stored = u
        else:
            want = "+" if stored is not None and stored == u else "-"
        if r != want:
            return False
    return True


def copy_ok(word, k: int) -> bool:
    """The (v#)^k test: k equal '#'-terminated words over the k digits."""
    digits = {str(i) for i in range(k)}
    parts, current = [], []
    for tok in word:
        if tok == "#":
            parts.append(tuple(current))
            current = []
        elif tok in digits:
            current.append(tok)
        else:
            return False
    return not current and len(parts) == k and len(set(parts)) == 1


# -- the graded language -----------------------------------------------------

MARKER_FREE_LENGTH = 4096  # marker words of the graded language start here


def graded_member(w: str, members) -> bool:
    """Membership in the graded language for words below the marker range:
    squares sq(x) = beta(x)11 beta(x)11 follow the predicate X, odd
    lengths and repeated halves are in, else the halves compare."""
    if len(w) >= MARKER_FREE_LENGTH:
        raise ValueError("reference covers only words below the marker range")
    if len(w) % 2:
        return True
    u, v = w[:len(w) // 2], w[len(w) // 2:]
    if u != v:
        return u < v
    body = u[:-2]
    if u.endswith("11") and len(body) % 2 == 0 and all(
            body[i:i + 2] in ("01", "10") for i in range(0, len(body), 2)):
        x = "".join("0" if body[i:i + 2] == "01" else "1"
                    for i in range(0, len(body), 2))
        return x in members
    return True


def graded_protocol_ok(word, members) -> bool:
    """'#' answers + iff the pending binary word is in the graded
    language; the reset query r answers r on an empty pending word."""
    blocks = _blocks(word, ("0", "1"), ("#", "r"), ("+", "-", "r"))
    if blocks is None:
        return False
    for u, q, r in blocks:
        if q == "r":
            if u or r != "r":
                return False
        elif r != ("+" if graded_member("".join(u), members) else "-"):
            return False
    return True


# -- machines --------------------------------------------------------------


def det_set_ads_accepts(ads: dict, word) -> bool:
    """Replay of a deterministic set-store machine whose write moves all
    read a letter or the right endmarker."""
    full = tuple(word)
    if any(inp == "rm" for _, inp, _, _ in ads["wmoves"]):
        full += ("rm",)
    wmoves = {(s, i): (w, d) for s, i, w, d in ads["wmoves"]}
    qmoves = {}
    for s, q, r, d in ads["qmoves"]:
        qmoves.setdefault(s, []).append((q, r, d))
    accept = set(ads["accept"])
    state, pos, tape, stored = ads["initial"], 0, (), set()
    seen = set()
    while True:
        if state in accept and pos == len(full) and not tape:
            return True
        key = (state, pos, tape, frozenset(stored))
        if key in seen:
            return False
        seen.add(key)
        if state in qmoves:
            q = qmoves[state][0][0]
            if q == "#ins":
                stored.add(tape)
                r = "#"
            elif q == "#out":
                stored.discard(tape)
                r = "#"
            else:
                r = "+#" if tape in stored else "-#"
            nxt = [d for qq, rr, d in qmoves[state] if rr == r]
            if not nxt:
                return False
            state, tape = nxt[0], ()
            continue
        if pos == len(full) or (state, full[pos]) not in wmoves:
            return False
        w, state = wmoves[(state, full[pos])]
        tape += tuple(w)
        pos += 1


def toy_protocol_expect(machine: str, x) -> bool:
    """Language of the shipped protocol toys, from their documentation."""
    if machine == "insert_test":
        return True
    if machine == "palindrome":
        return tuple(x) == tuple(reversed(x))
    if machine == "test_first":
        return False
    raise ValueError(machine)


def toy_advice_expect(machine: str, x, y) -> bool:
    """Language of the shipped advice toys with advice word y."""
    if machine == "equality":
        return tuple(x) == tuple(y)
    if machine == "first_symbol":
        return bool(x) and len(y) >= 1 and y[0] == x[0]
    raise ValueError(machine)
