import itertools
import random

import pytest

from adskit.automata import Alphabet, Nfa, canonical_empty, nfa_for_words, universal_nfa
from adskit.errors import CapExceeded
from adskit.nrr import NrrInstance, nreg_generic
from adskit.protocols import axiom_fuzz, membership
from adskit.universality import (
    BINARY,
    PROT_X,
    OracleX,
    ProtXOracle,
    WCache,
    beta,
    forward_reduce,
    l_membership,
    length_sets,
    lex_extreme,
    sq,
    sq_decode,
    universality_decide,
    w_membership,
    w_params,
    w_words_up_to,
)
from adskit.universality import _delta_both, _exclude_words, _marker_hits
from adskit.verdict import Verdict

from genrand import BIN, random_dag_nfa, random_nfa
from oracles import ref_graded_member, ref_marker_family

FLAT = PROT_X.flattened()


def binary_words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def run_word(a, origin, word):
    """States reached from origin on the word; no epsilon involved."""
    current = {origin}
    for sym in word:
        current = {d for s, x, d in a.transitions if s in current and x == sym}
        if not current:
            break
    return current


class TestSquareEncoding:
    def test_beta_frozen(self):
        assert beta("") == ""
        assert beta("0") == "01"
        assert beta("1") == "10"
        assert beta("01") == "0110"

    def test_sq_frozen(self):
        assert sq("0") == "01110111"
        assert sq("") == "1111"

    def test_decode_roundtrip(self):
        for x in binary_words(8):
            assert sq_decode(sq(x)) == x

    def test_decode_off_image(self):
        assert sq_decode("0000") is None
        assert sq_decode("0") is None
        assert sq_decode("111111") is None
        assert sq_decode("1111") == ""

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            beta("2")
        with pytest.raises(ValueError):
            sq_decode("ab")


class TestMarkerFamily:
    def test_first_triple_frozen(self):
        entry = w_params("0", "0", "0")
        assert (entry.r, entry.q) == (2047, 2047)
        assert entry.r_word() == "0" * 4096
        assert entry.q_word() == "0" * 4097

    def test_lengths_stay_in_designated_range(self):
        cache = WCache()
        cache.ensure(4)
        for entry in cache.entries:
            lo = 1 << (3 * entry.triple_size + 3)
            assert lo <= entry.r_length < 2 * lo
            assert lo <= entry.q_length < 2 * lo

    def test_first_ten_triples_have_distinct_lengths(self):
        cache = WCache()
        cache.ensure(4)
        lengths = []
        for entry in cache.entries[:10]:
            lengths += [entry.r_length, entry.q_length]
        assert len(set(lengths)) == 20

    def test_sparsity_count_below_8192(self):
        words = w_words_up_to(8192)
        assert len(words) == 16
        assert len({len(w) for w, _ in words}) == 16
        assert all(4096 <= len(w) < 8192 for w, _ in words)

    def test_matches_reference_construction(self):
        cache = WCache()
        cache.ensure(4)
        mine = [(e.a, e.b, e.c, e.r, e.q) for e in cache.entries]
        assert mine == ref_marker_family(4)

    def test_square_image_disjoint(self):
        for word, _ in w_words_up_to(8192):
            assert sq_decode(word) is None

    def test_membership_frozen(self):
        entry = w_membership("0" * 4096)
        assert (entry.a, entry.b, entry.c) == ("0", "0", "0")
        assert entry.form_of("0" * 4096) == "r"
        assert w_membership("0" * 4097).form_of("0" * 4097) == "q"
        assert w_membership("01") is None
        assert w_membership("0" * 4095) is None
        assert w_membership("0" * 4098) is None

    def test_membership_skips_uncovered_lengths(self):
        # between the size-3 and size-4 ranges nothing needs generating
        cache = WCache(max_triple_size=3)
        assert w_membership("0" * 10000, cache) is None

    def test_cache_cap(self):
        cache = WCache(max_triple_size=3)
        with pytest.raises(CapExceeded):
            w_params("0", "0", "00", cache)
        with pytest.raises(CapExceeded):
            w_membership("0" * (1 << 15), cache)

    def test_triple_validation(self):
        with pytest.raises(ValueError):
            w_params("", "0", "0")
        with pytest.raises(ValueError):
            w_params("0", "2", "0")

    def test_shared_cache_grows_once(self):
        cache = WCache()
        w_params("0", "0", "0", cache)
        first = len(cache.entries)
        w_params("1", "1", "1", cache)
        assert len(cache.entries) == first


class TestGradedLanguage:
    def test_frozen_cases(self):
        x = OracleX()
        assert l_membership("", x) is True
        assert l_membership("0", x) is True
        assert l_membership("01", x) is True
        assert l_membership("10", x) is False
        assert x.calls == 0

    def test_oracle_consulted_on_squares_only(self):
        x = OracleX({"0"})
        assert l_membership(sq("0"), x) is True
        assert x.calls == 1
        assert l_membership(sq("1"), x) is False
        assert x.calls == 2
        assert l_membership("0110", x) is True
        assert x.calls == 2

    def test_marker_words_graded_structurally(self):
        x = OracleX()
        assert l_membership("0" * 4097, x) is True
        assert l_membership("0" * 4096, x) is False
        assert x.calls == 0

    def test_deterministic_across_fresh_caches(self):
        for w in ("0" * 4096, "0" * 4097, "1111", "0110"):
            first = l_membership(w, OracleX({""}), WCache())
            again = l_membership(w, OracleX({""}), WCache())
            assert first == again

    def test_matches_reference(self):
        members = {"0", "10", ""}
        x = OracleX(members)
        for w in binary_words(9):
            assert l_membership(w, x) == ref_graded_member(w, members, {}), w


class TestProtXOracle:
    def test_forward_reduce_frozen(self):
        assert forward_reduce("0") == tuple("01110111") + ("#", "+")
        assert forward_reduce("") == ("1", "1", "1", "1", "#", "+")

    def test_forward_reduce_membership_roundtrip(self):
        for members in (set(), {""}, {"0", "11"}, {"0110", "1"}):
            oracle = ProtXOracle(OracleX(members))
            for x in binary_words(4):
                assert membership(oracle, forward_reduce(x)) == (x in members), x

    def test_reset_blocks(self):
        oracle = ProtXOracle(OracleX())
        assert membership(oracle, ("r", "r"))
        assert membership(oracle, ("r", "r", "r", "r"))
        assert not membership(oracle, ("0", "r", "r"))
        assert membership(oracle, ("0", "#", "+"))
        assert not membership(oracle, ("0", "#", "-"))

    def test_axioms(self):
        oracle = ProtXOracle(OracleX({"0"}))
        for axiom in ("i", "ii", "iii", "v", "vi"):
            report = axiom_fuzz(oracle, axiom, trials=150, max_len=8)
            assert report.ok, report.summary()
        # the reset query refuses a non-empty pending word, so query
        # totality fails by design, exactly like pop on an empty stack
        report = axiom_fuzz(oracle, "iv", trials=150, max_len=8)
        assert not report.ok

    def test_stateless(self):
        oracle = ProtXOracle(OracleX())
        state = oracle.initial_state()
        answer, state2 = oracle.respond(state, ("0",), "#")
        assert answer == "+"
        assert oracle.canonical_key(state2) == oracle.canonical_key(state)


def brute_length_table(a):
    core = a.trim()
    succ = {}
    for src, _, dst in core.transitions:
        succ.setdefault(src, set()).add(dst)
    table = {}
    for start in core.states:
        stack = [(start, 0)]
        while stack:
            state, depth = stack.pop()
            table.setdefault((start, state), set()).add(depth)
            for dst in succ.get(state, ()):
                stack.append((dst, depth + 1))
    return table


class TestLengthSets:
    def test_chain_frozen(self):
        chain = Nfa({"q0", "q1", "q2"}, BINARY,
                    {("q0", "0", "q1"), ("q1", "0", "q2")}, "q0", {"q2"})
        assert set(length_sets(chain).get("q0", "q2")) == {2}

    def test_diamond_frozen(self):
        dia = Nfa({"a", "b", "c", "d"}, BINARY,
                  {("a", "0", "b"), ("b", "0", "d"), ("b", "1", "c"), ("c", "0", "d")},
                  "a", {"d"})
        assert set(length_sets(dia).get("a", "d")) == {2, 3}

    def test_cyclic_rejected(self):
        cyc = Nfa({"s"}, BINARY, {("s", "0", "s")}, "s", {"s"})
        with pytest.raises(ValueError, match="acyclic"):
            length_sets(cyc)

    def test_epsilon_rejected(self):
        eps = Nfa({"a", "b"}, BINARY, {("a", None, "b")}, "a", {"b"})
        with pytest.raises(ValueError, match="epsilon"):
            length_sets(eps)

    def test_dead_cycle_trimmed_away(self):
        a = Nfa({"a", "b", "junk"}, BINARY,
                {("a", "0", "b"), ("junk", "0", "junk")}, "a", {"b"})
        ls = length_sets(a)
        assert set(ls.get("a", "b")) == {1}
        assert ls.get("junk", "junk") == frozenset()

    def test_matches_brute_paths(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_dag_nfa(rng, max_states=6)
            ls = length_sets(a)
            brute = brute_length_table(a)
            core = a.trim()
            for s1 in core.states:
                for s2 in core.states:
                    assert set(ls.get(s1, s2)) == brute.get((s1, s2), set())
            assert ls.max_length <= max(1, len(core.states)) - 1


class TestLexExtreme:
    def fixture(self):
        return nfa_for_words(BINARY, [("0", "0"), ("0", "1"), ("1", "0")])

    def test_trie_example(self):
        trie = self.fixture()
        assert lex_extreme(trie, trie.initial, 2, "min1") == "00"
        assert lex_extreme(trie, trie.initial, 2, "max1") == "10"

    def test_left_family(self):
        trie = self.fixture()
        zero = trie.initial + "\x00" + "0"
        assert lex_extreme(trie, zero, 1, "min0") == "0"
        assert lex_extreme(trie, zero, 1, "max0") == "0"

    def test_zero_length(self):
        trie = self.fixture()
        assert lex_extreme(trie, trie.initial, 0, "min0") == ""
        assert lex_extreme(trie, trie.initial, 0, "min1") is None

    def test_empty_family(self):
        trie = self.fixture()
        assert lex_extreme(trie, trie.initial, 5, "min1") is None

    def test_validation(self):
        trie = self.fixture()
        with pytest.raises(ValueError, match="kind"):
            lex_extreme(trie, trie.initial, 1, "min2")
        with pytest.raises(ValueError, match="declared"):
            lex_extreme(trie, "nope", 1, "min0")
        ab = Nfa({"s"}, Alphabet(["a", "b"]), set(), "s", {"s"})
        with pytest.raises(ValueError, match="binary"):
            lex_extreme(ab, "s", 0, "min0")

    def test_matches_brute_enumeration(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_dag_nfa(rng, max_states=6)
            core = a.trim()
            for s in sorted(core.states):
                for length in range(0, 7):
                    words = ["".join(bits)
                             for bits in itertools.product("01", repeat=length)]
                    left = [w for w in words if s in run_word(core, core.initial, w)]
                    right = [w for w in words
                             if run_word(core, s, w) & core.accepting]
                    for kind, family, pick in (
                            ("min0", left, min), ("max0", left, max),
                            ("min1", right, min), ("max1", right, max)):
                        want = pick(family) if family else None
                        assert lex_extreme(core, s, length, kind) == want


class TestDeltas:
    def test_single_zero_edge(self):
        a = Nfa({"p", "q"}, BINARY, {("p", "0", "q")}, "p", {"q"})
        x = OracleX()
        dl, dlbar = _delta_both(a, "p", x)
        assert dl == {"p", "q"}
        assert dlbar == frozenset()

    def test_path_one_zero(self):
        a = Nfa({"p", "m", "q"}, BINARY,
                {("p", "1", "m"), ("m", "0", "q")}, "p", {"q"})
        x = OracleX()
        # "1" is odd so m arrives through L; "10" compares halves 1 > 0
        dl, dlbar = _delta_both(a, "p", x)
        assert dl == {"p", "m"}
        assert dlbar == {"q"}

    def test_empty_word_always_counts(self):
        lonely = Nfa({"s"}, BINARY, set(), "s", set())
        x = OracleX()
        dl, dlbar = _delta_both(lonely, "s", x)
        assert dl == {"s"}
        assert dlbar == frozenset()

    def test_cycle_lands_in_both(self):
        cyc = Nfa({"s"}, BINARY, {("s", "0", "s")}, "s", {"s"})
        x = OracleX()
        dl, dlbar = _delta_both(cyc, "s", x)
        assert dl == {"s"}
        assert dlbar == {"s"}
        assert x.calls == 0

    def test_square_edge_consults_oracle(self):
        word = sq("0")
        states = {f"s{i}" for i in range(len(word) + 1)}
        trans = {(f"s{i}", word[i], f"s{i+1}") for i in range(len(word))}
        a = Nfa(states, BINARY, trans, "s0", {f"s{len(word)}"})
        x = OracleX({"0"})
        assert f"s{len(word)}" in _delta_both(a, "s0", x)[0]
        assert x.calls == 1
        x2 = OracleX()
        assert f"s{len(word)}" in _delta_both(a, "s0", x2)[1]
        assert x2.calls == 1

    def test_matches_brute_force(self):
        rng = random.Random(11)
        pool = ["0", "1", "00", "01", "10", "11", ""]
        for _ in range(100):
            a = random_dag_nfa(rng, max_states=5)
            members = set(rng.sample(pool, 3))
            s = rng.choice(sorted(a.states))
            got_l, got_lbar = _delta_both(a, s, OracleX(members))
            want_l, want_lbar = set(), set()
            for s2 in a.states:
                sub = a.sub_automaton(s, s2).trim()
                if sub.is_empty():
                    continue
                for w in sub.enumerate_words(6):
                    if l_membership("".join(w), OracleX(members)):
                        want_l.add(s2)
                    else:
                        want_lbar.add(s2)
            assert got_l == want_l
            assert got_lbar == want_lbar

    def test_matches_brute_force_cyclic(self):
        rng = random.Random(17)
        pool = ["0", "1", "00", "01", "10", "11", ""]
        for _ in range(200):
            a = random_nfa(rng, alphabet=BIN, max_states=6, eps_prob=0)
            members = set(rng.sample(pool, 3))
            for s in sorted(a.states):
                got_l, got_lbar = _delta_both(a, s, OracleX(members))
                want_l, want_lbar = set(), set()
                for s2 in a.states:
                    sub = a.sub_automaton(s, s2).trim()
                    if sub.is_empty():
                        continue
                    if not sub.is_finite():
                        want_l.add(s2)
                        want_lbar.add(s2)
                        continue
                    for w in sub.enumerate_words(len(a.states)):
                        if l_membership("".join(w), OracleX(members)):
                            want_l.add(s2)
                        else:
                            want_lbar.add(s2)
                assert got_l == want_l
                assert got_lbar == want_lbar

    def test_marker_probe_hook(self):
        # one accepted word "10"; an injected marker list flips its grade
        a = Nfa({"p", "m", "q"}, BINARY,
                {("p", "1", "m"), ("m", "0", "q")}, "p", {"q"})
        x = OracleX()
        as_accepted = lambda n: [("10", True)]
        dl, dlbar = _delta_both(a, "p", x, w_source=as_accepted)
        assert "q" in dl
        # and the exclusion really removes the word: nothing reaches the
        # complement side even though plain grading would put it there
        assert "q" not in dlbar
        as_rejected = lambda n: [("10", False)]
        dl, dlbar = _delta_both(a, "p", x, w_source=as_rejected)
        assert "q" not in dl
        assert "q" in dlbar

    def test_exclusion_spares_other_words(self):
        trie = nfa_for_words(BINARY, [("1", "0"), ("1", "1", "0", "0")])
        x = OracleX()
        sep = "\x00"
        leaf_10 = sep.join(["", "1", "0"])
        leaf_1100 = sep.join(["", "1", "1", "0", "0"])
        # "10" is marked as accepted; "1100" still grades into the
        # complement on its own (halves 11 > 00)
        hook = lambda n: [("10", True)]
        got_l, got_lbar = _delta_both(trie, trie.initial, x, w_source=hook)
        assert leaf_10 in got_l
        assert leaf_10 not in got_lbar
        assert leaf_1100 in got_lbar
        assert leaf_1100 not in got_l


def marker_chain():
    """Chain accepting the two size-3 all-zero marker words."""
    n = 4097
    states = {f"c{i}" for i in range(n + 1)}
    trans = {(f"c{i}", "0", f"c{i+1}") for i in range(n)}
    return Nfa(states, BINARY, trans, "c0", {"c4096", "c4097"})


class TestMarkerSteps:
    def test_probe_finds_both_grades(self):
        chain = marker_chain()
        w_list = w_words_up_to(len(chain.states))
        assert [(len(w), graded) for w, graded in w_list] == [
            (4096, False), (4097, True), (4098, False)]
        hit_in, hit_out = _marker_hits(chain, {4096, 4097}, w_list)
        assert hit_in and hit_out

    def test_exclusion_empties_the_chain(self):
        chain = marker_chain()
        words = [w for w, _ in w_words_up_to(len(chain.states))]
        assert _exclude_words(chain, words).trim().is_empty()

    def test_exclusion_keeps_shorter_word(self):
        chain = marker_chain()
        other = Nfa(chain.states, BINARY, chain.transitions, "c0", {"c4095"})
        words = [w for w, _ in w_words_up_to(len(chain.states))]
        survived = _exclude_words(other, words).trim()
        assert not survived.is_empty()
        assert survived.accepts(tuple("0" * 4095))


class TestUniversalityDecide:
    def singleton(self, x):
        return nfa_for_words(FLAT, [forward_reduce(x)])

    def test_singleton_square_words(self):
        for x, members in (("0", {"0"}), ("0", set()), ("", {""}), ("", set())):
            oracle = OracleX(members)
            answer = universality_decide(self.singleton(x), oracle)
            assert answer.nonempty == (x in members)
            assert answer.oracle_calls == 1

    def test_reset_word_needs_no_oracle(self):
        a = nfa_for_words(FLAT, [("r", "r")])
        answer = universality_decide(a, OracleX())
        assert answer.nonempty
        assert answer.oracle_calls == 0

    def test_empty_and_universal(self):
        assert not universality_decide(canonical_empty(FLAT), OracleX()).nonempty
        # the empty protocol is always correct
        assert universality_decide(universal_nfa(FLAT), OracleX()).nonempty

    def test_infinite_grade_beyond_bounded_search(self):
        # demands a rejected all-zero word; the shortest one has length
        # 4096, far past any bounded exploration, yet the cycle summary
        # answers structurally
        a = Nfa({"s0", "s1", "s2"}, FLAT,
                {("s0", "0", "s0"), ("s0", "#", "s1"), ("s1", "-", "s2")},
                "s0", {"s2"})
        answer = universality_decide(a, OracleX())
        assert answer.nonempty
        assert answer.oracle_calls == 0
        bounded = nreg_generic(NrrInstance(a, ProtXOracle(OracleX())))
        assert bounded.verdict is Verdict.UNKNOWN

    def test_epsilon_moves_allowed(self):
        a = Nfa({"e0", "e1", "e2", "e3"}, FLAT,
                {("e0", None, "e1"), ("e1", "r", "e2"), ("e2", "r", "e3")},
                "e0", {"e3"})
        assert universality_decide(a, OracleX()).nonempty

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            universality_decide(universal_nfa(BINARY), OracleX())

    def test_agrees_with_bounded_reference(self):
        rng = random.Random(7)
        pool = ["0", "1", "01", ""]
        for _ in range(100):
            a = random_dag_nfa(rng, alphabet=FLAT, max_states=4)
            members = {w for w in pool if rng.random() < 0.4}
            answer = universality_decide(a, OracleX(members))
            verdict = nreg_generic(
                NrrInstance(a, ProtXOracle(OracleX(members)))).verdict
            assert verdict is not Verdict.UNKNOWN
            assert answer.nonempty == (verdict is Verdict.ACCEPT)

    def test_oracle_call_budget(self):
        rng = random.Random(13)
        for _ in range(50):
            a = random_dag_nfa(rng, alphabet=FLAT, max_states=4)
            members = {w for w in ("0", "1", "01") if rng.random() < 0.5}
            answer = universality_decide(a, OracleX(members))
            states = len(a.states)
            assert answer.oracle_calls <= 2 * states * states * max(1, states)
