"""Release acceptance suite.

Ten end-to-end criteria, each printing exactly one PASS/FAIL line.  The
lines go to the unredirected stdout so they stay visible under pytest's
capture; the assertion right after keeps the gate binding.  Sample sizes,
caps, and tolerances are part of the contract and are not to be loosened.
"""

import random
import sys
import time

from adskit.ads import extractor, simulate
from adskit.automata import Alphabet, Nfa, nfa_for_words, product_intersect
from adskit.logtm import (
    LAMBDA,
    lambda_eliminate,
    run_with_advice,
    surface_config_nfa,
    toy_always_tm,
    toy_equality_tm,
    toy_first_symbol_tm,
)
from adskit.nrr import (
    NrrInstance,
    decide,
    membership_to_reg,
    nonemptiness_to_nrr,
    nreg_dyck,
    nreg_generic,
    nrr_to_nonemptiness,
    perk_to_spk_fst,
    spk_to_perk_fst,
)
from adskit.protocols import (
    DyckOracle,
    SetOracle,
    SingleInsertOracle,
    axiom_fuzz,
    membership,
    sigma_k,
)
from adskit.transducers import compose, image_nfa, invert
from adskit.universality import (
    _delta_both,
    OracleX,
    forward_reduce,
    l_membership,
    lex_extreme,
    ProtXOracle,
    universality_decide,
    w_params,
    WCache,
)
from adskit.verdict import Verdict

from genrand import random_ads, random_dag_nfa, random_dfa, random_fst, random_nfa

SET = SetOracle()


def emit(capsys, num, name, ok, detail):
    line = f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        sys.stdout.write("\n" + line + "\n")
        sys.stdout.flush()
    assert ok, line


def words_over(alphabet, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (s,) for w in layer for s in alphabet]
        out.extend(layer)
    return out


WORDS4 = words_over(("a", "b"), 4)


def finite_image(t):
    """No epsilon cycle that emits output, so every input has a finite image
    and staged enumeration below a cap is complete."""
    eps = [(s, out, d) for s, sym, out, d in t.transitions if sym is None]
    adj = {}
    for s, _, d in eps:
        adj.setdefault(s, []).append(d)

    def reaches(frm, to):
        seen, stack = set(), [frm]
        while stack:
            cur = stack.pop()
            if cur == to:
                return True
            if cur not in seen:
                seen.add(cur)
                stack.extend(adj.get(cur, ()))
        return False

    return not any(out and reaches(d, s) for s, out, d in eps)


def test_c01_transducer_composition_is_two_stage_union(capsys):
    rng = random.Random(11)
    started = time.time()
    fails = truncated = pairs = 0
    while pairs < 200:
        t1, t2 = random_fst(rng), random_fst(rng)
        if not (finite_image(t1) and finite_image(t2)):
            continue
        pairs += 1
        c = compose(t1, t2)
        for u in WORDS4:
            direct = c.apply(u, output_cap=64)
            first = t1.apply(u, output_cap=64)
            staged = set()
            cut = direct.truncated or first.truncated
            for v in first.words:
                second = t2.apply(v, output_cap=64)
                cut = cut or second.truncated
                staged |= second.words
            if cut:
                truncated += 1
            elif direct.words != staged:
                fails += 1
    elapsed = time.time() - started
    emit(capsys, 1, "transducer composition", fails == 0 and truncated == 0 and elapsed < 60,
         f"200 pairs x {len(WORDS4)} words, {fails} mismatches, "
         f"{truncated} truncated, {elapsed:.1f}s")


def test_c02_double_inversion_preserves_the_relation(capsys):
    rng = random.Random(12)
    fails = 0
    for _ in range(200):
        t = random_fst(rng)
        back = invert(invert(t))
        for u in WORDS4:
            if t.apply(u, 12).words != back.apply(u, 12).words:
                fails += 1
    emit(capsys, 2, "double inversion", fails == 0,
         f"200 transducers x {len(WORDS4)} words at cap 12, {fails} mismatches")


def test_c03_protocol_axioms_hold_and_violations_surface(capsys):
    trials = 10_000
    problems = []
    for label, oracle in [("set", SET), ("sis:2", SingleInsertOracle(2))]:
        for axiom in ("i", "ii", "iii", "iv", "v"):
            rep = axiom_fuzz(oracle, axiom, trials=trials, max_len=50)
            if rep.violations:
                problems.append(f"{label} axiom {axiom}: {len(rep.violations)}")
    for axiom in ("i", "ii", "iii", "v"):
        rep = axiom_fuzz(DyckOracle(), axiom, trials=trials, max_len=50)
        if rep.violations:
            problems.append(f"dyck axiom {axiom}: {len(rep.violations)}")
    pop_report = axiom_fuzz(DyckOracle(), "iv", trials=trials, max_len=50)
    pop_ok = (len(pop_report.violations) > 0
              and all("no response to 'pop'" in v for v in pop_report.violations))
    if not pop_ok:
        problems.append("dyck pop-on-empty not reported as such")
    emit(capsys, 3, "protocol axioms", not problems,
         f"{trials} trials per axiom, clean oracles have 0 violations, "
         f"dyck query totality flagged {len(pop_report.violations)} pop-on-empty cases"
         + ("" if not problems else f"; problems: {problems}"))


def _sample_machines():
    rng = random.Random(0)
    return [random_ads(rng, SET.alphabet, max_states=4) for _ in range(100)]


def test_c04_extractor_outputs_decide_acceptance(capsys):
    fails = skipped = checked = 0
    for m in _sample_machines():
        t = extractor(m)
        for w in WORDS4:
            direct = simulate(m, w, SET)
            if direct is Verdict.UNKNOWN:
                skipped += 1  # non-halting run tree, no ground truth to compare
                continue
            checked += 1
            found = any(membership(SET, p)
                        for p in t.apply(w, output_cap=30).words)
            if (direct is Verdict.ACCEPT) != found:
                fails += 1
    ok = fails == 0 and skipped < checked / 10
    emit(capsys, 4, "run extractor", ok,
         f"100 machines, {checked} definite input checks, {fails} mismatches, "
         f"{skipped} skipped as unbounded")


def test_c05_nonemptiness_matches_intersection_verdicts(capsys):
    words5 = words_over(("a", "b"), 5)
    disagree = unknown = round_trip_breaks = definite = 0
    for m in _sample_machines():
        ground = any(simulate(m, w, SET) is Verdict.ACCEPT for w in words5)
        first = decide(NrrInstance(nonemptiness_to_nrr(m), SET))
        if first.verdict is Verdict.UNKNOWN:
            unknown += 1
            continue
        definite += 1
        if (first.verdict is Verdict.ACCEPT) != ground:
            disagree += 1
        back = nrr_to_nonemptiness(nonemptiness_to_nrr(m), SET.alphabet, SET)
        second = decide(NrrInstance(nonemptiness_to_nrr(back), SET))
        if second.verdict is not Verdict.UNKNOWN and second.verdict is not first.verdict:
            round_trip_breaks += 1
    ok = disagree == 0 and round_trip_breaks == 0 and unknown < 10
    emit(capsys, 5, "nonemptiness reduction", ok,
         f"100 machines, {definite} definite, {disagree} disagreements, "
         f"{round_trip_breaks} round-trip breaks, {unknown} unknown (<10 required)")


def test_c06_membership_reduction_matches_simulation(capsys):
    rng = random.Random(6)
    fails = skipped = compared = 0
    for _ in range(50):
        m = random_ads(rng, SET.alphabet, max_states=4, det=True)
        for w in WORDS4:
            direct = simulate(m, w, SET)
            reg = nreg_generic(NrrInstance(membership_to_reg(m, w), SET)).verdict
            if Verdict.UNKNOWN in (direct, reg):
                skipped += 1
                continue
            compared += 1
            if reg is not direct:
                fails += 1
    ok = fails == 0 and skipped < compared / 10
    emit(capsys, 6, "deterministic membership reduction", ok,
         f"50 machines x {len(WORDS4)} inputs, {compared} compared, "
         f"{fails} mismatches, {skipped} skipped as unbounded")


def test_c07_bracket_backend_is_complete_and_agrees(capsys):
    rng = random.Random(7)
    dyck = DyckOracle()
    alpha = dyck.alphabet.flattened()
    saturation_unknown = disagree = definite = 0
    for _ in range(500):
        a = random_nfa(rng, alphabet=alpha, max_states=4, density=2.5)
        sat = nreg_dyck(a)
        if sat.verdict is Verdict.UNKNOWN:
            saturation_unknown += 1
            continue
        gen = nreg_generic(NrrInstance(a, dyck))
        if gen.verdict is Verdict.UNKNOWN:
            continue
        definite += 1
        if sat.verdict is not gen.verdict:
            disagree += 1
    ok = saturation_unknown == 0 and disagree == 0
    emit(capsys, 7, "bracket saturation backend", ok,
         f"500 instances, {saturation_unknown} saturation unknowns, "
         f"{definite} cross-checked, {disagree} disagreements")


def test_c08_machine_surface_graphs_and_padding_removal(capsys):
    toys = [toy_first_symbol_tm(), toy_equality_tm(), toy_always_tm()]
    inputs = [(), ("a",), ("b", "a")]
    advice = words_over(("a", "b"), 3)
    surf_fails = 0
    for tm in toys:
        for x in inputs:
            nfa = surface_config_nfa(tm, x)
            for y in advice:
                ran = run_with_advice(tm, x, y) is Verdict.ACCEPT
                for k in range(4):
                    if nfa.accepts(y + (LAMBDA,) * k) != ran:
                        surf_fails += 1
    lam_alpha = Alphabet(["a", "b", LAMBDA])
    rng = random.Random(8)
    pad_fails = 0
    for _ in range(200):
        d = random_dfa(rng, lam_alpha, max_states=6)
        out = lambda_eliminate(d, LAMBDA)
        for y in words_over(("a", "b"), 4):
            direct = any(d.accepts(y + (LAMBDA,) * k) for k in range(7))
            if out.accepts(y) != direct:
                pad_fails += 1
    ok = surf_fails == 0 and pad_fails == 0
    emit(capsys, 8, "surface graphs and padding removal", ok,
         f"3 machines x {len(inputs)} inputs x {len(advice)} advice words, "
         f"{surf_fails} surface mismatches; 200 padded automata, {pad_fails} mismatches")


def _correct_sis_protocols(oracle, us, blocks):
    found = []

    def rec(prefix, state, left):
        if left == 0:
            found.append(tuple(prefix))
            return
        for u in us:
            for q in ("ins", "test"):
                answer = oracle.respond(state, u, q)
                if answer is None:
                    continue
                r, nstate = answer
                rec(prefix + list(u) + [q, r], nstate, left - 1)

    rec([], oracle.initial_state(), blocks)
    return found


def _expected_spk_image(k, w, us, oracle):
    """Correct k-block protocols whose first insert word, if any, is w."""
    out = set()

    def rec(prefix, state, blocks, ins_seen):
        if blocks == k:
            out.add(tuple(prefix))
            return
        for u in us:
            for q in ("ins", "test"):
                if q == "ins" and not ins_seen and u != w:
                    continue
                r, nstate = oracle.respond(state, u, q)
                rec(prefix + list(u) + [q, r], nstate, blocks + 1,
                    ins_seen or q == "ins")

    rec([], oracle.initial_state(), 0, False)
    return out


def _block_shape_nfa(oracle, k, max_u):
    """Exactly k blocks, each writing at most max_u symbols."""
    pa = oracle.alphabet
    wr = tuple(pa.gamma_wr)
    states = {"done"}
    trans = set()
    for i in range(k):
        states.update(f"b{i}w{j}" for j in range(max_u + 1))
        states.add(f"b{i}q")
        for j in range(max_u):
            for sym in wr:
                trans.add((f"b{i}w{j}", sym, f"b{i}w{j + 1}"))
        for j in range(max_u + 1):
            for q in pa.gamma_query:
                trans.add((f"b{i}w{j}", q, f"b{i}q"))
        nxt = "done" if i == k - 1 else f"b{i + 1}w0"
        for r in pa.gamma_resp:
            trans.add((f"b{i}q", r, nxt))
    return Nfa(states, pa.flattened(), trans, "b0w0", {"done"})


def test_c09_copy_transductions_have_the_stated_images(capsys):
    sis2 = SingleInsertOracle(2)
    us2 = words_over(tuple(sigma_k(2)), 2)
    forward = spk_to_perk_fst(2)
    image = set()
    for p in _correct_sis_protocols(sis2, us2, 2):
        image |= forward.apply(p, output_cap=10).words
    expected = {w + ("#",) + w + ("#",) for w in us2}
    forward_ok = image == expected

    backward_bad = []
    for k in (1, 2, 3):
        oracle = SingleInsertOracle(k)
        us = words_over(tuple(sigma_k(k)), 2)
        t = perk_to_spk_fst(k)
        shape = _block_shape_nfa(oracle, k, 2)
        for w in us:
            source = nfa_for_words(t.input_alphabet, [(w + ("#",)) * k])
            reachable = product_intersect(image_nfa(t, source), shape)
            got = set(reachable.enumerate_words(k * 4, cap=10 ** 7))
            if got != _expected_spk_image(k, w, us, oracle):
                backward_bad.append((k, w))
    ok = forward_ok and not backward_bad
    emit(capsys, 9, "copy transductions", ok,
         f"forward image over {len(us2)} words {'matches' if forward_ok else 'differs'}; "
         f"backward checked k=1..3, |w|<=2, {len(backward_bad)} mismatches")


def _runs(a, origin, word, target):
    states = {origin}
    for sym in word:
        states = {d for st in states for (s2, sy, d) in a.transitions
                  if s2 == st and sy == sym}
        if not states:
            return False
    if target is None:
        return bool(states & a.accepting)
    return target in states


def brute_lex(core, s, length, kind):
    """Scan every binary word of the length; core must already be trimmed."""
    left = kind in ("min0", "max0")
    lo = kind in ("min0", "min1")
    best = None
    for bits in range(2 ** length):
        word = format(bits, f"0{length}b") if length else ""
        w = tuple(word)
        ok = (_runs(core, core.initial, w, s) if left else _runs(core, s, w, None))
        if ok and (best is None or (word < best if lo else word > best)):
            best = word
    return best


def test_c10_graded_language_suite(capsys):
    started = time.time()
    problems = []

    # (a) the first marker pair, derived twice from scratch
    entries = []
    for _ in range(2):
        cache = WCache()
        entry = w_params("0", "0", "0", cache=cache)
        member_r = l_membership(entry.r_word(), OracleX(["0"]), cache=WCache())
        member_q = l_membership(entry.q_word(), OracleX(["0"]), cache=WCache())
        entries.append((entry.r, entry.q, entry.r_word(), entry.q_word(),
                        member_r, member_q))
    first = entries[0]
    if entries[0] != entries[1]:
        problems.append("marker derivation unstable across runs")
    if first[2] != "0" * 4096 or first[4] is not False:
        problems.append("excluded marker word is not the rejected 0^4096")
    if first[3] != "0" * 4097 or first[5] is not True:
        problems.append("included marker word is not the accepted 0^4097")

    # (b) lexicographic extremes against brute force
    rng = random.Random(101)
    lex_checked = 0
    for _ in range(60):
        core = random_dag_nfa(rng, max_states=6).trim()
        for s in sorted(core.states):
            for length in range(7):
                for kind in ("min0", "max0", "min1", "max1"):
                    got = lex_extreme(core, s, length, kind)
                    want = brute_lex(core, s, length, kind)
                    lex_checked += 1
                    if got != want:
                        problems.append(f"lex {kind} len {length} at {s}: "
                                        f"{got!r} != {want!r}")

    # (c) per-state membership splits against enumerate-and-test
    members = ("0", "10", "")
    rng = random.Random(102)
    delta_checked = 0
    for _ in range(100):
        a = random_dag_nfa(rng, max_states=5)
        x = OracleX(members)
        cache = WCache()
        got = {s: _delta_both(a, s, x) for s in a.states}
        for s in a.states:
            want_l = set()
            want_lbar = set()
            for s2 in a.states:
                sub = a.sub_automaton(s, s2)
                for w in sub.enumerate_words(6):
                    word = "".join(w)
                    if l_membership(word, OracleX(members), cache=cache):
                        want_l.add(s2)
                    else:
                        want_lbar.add(s2)
            delta_checked += 1
            if got[s] != (frozenset(want_l), frozenset(want_lbar)):
                problems.append(f"membership split differs at {s}")

    # (d) full decision against the bounded search, plus the word map
    rng = random.Random(103)
    flat = ProtXOracle(OracleX(members)).alphabet.flattened()
    uni_checked = 0
    for _ in range(100):
        a = random_dag_nfa(rng, alphabet=flat, max_states=4, density=2.0)
        x = OracleX(members)
        answer = universality_decide(a, x)
        bounded = nreg_generic(NrrInstance(a, ProtXOracle(OracleX(members))))
        uni_checked += 1
        if bounded.verdict is Verdict.UNKNOWN:
            continue
        if answer.nonempty != (bounded.verdict is Verdict.ACCEPT):
            problems.append("universality decision disagrees with bounded search")
    for length in range(5):
        for val in range(2 ** length):
            x_word = format(val, f"0{length}b") if length else ""
            oracle = ProtXOracle(OracleX(["0", "11"]))
            in_x = x_word in ("0", "11")
            if membership(oracle, forward_reduce(x_word)) != in_x:
                problems.append(f"forward map wrong on {x_word!r}")
    elapsed = time.time() - started
    ok = not problems and elapsed < 300
    emit(capsys, 10, "graded language suite", ok,
         f"marker pair stable, {lex_checked} extreme checks, {delta_checked} split "
         f"checks, {uni_checked} decisions, {elapsed:.1f}s (<300s)"
         + ("" if not problems else f"; problems: {problems[:3]}"))
