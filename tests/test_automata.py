import random

import pytest

from adskit import automata
from adskit.automata import (
    Alphabet,
    Dfa,
    Nfa,
    canonical_empty,
    nfa_for_words,
    product_intersect,
    to_dot,
    universal_nfa,
    walk_words,
)
from adskit.errors import CapExceeded, ItemError

from genrand import AB, random_nfa
from oracles import brute_words, label_walk, path_accepts

A = Alphabet(["a"])
ABC_XYZ = Alphabet(["x", "y", "z"])


def w(text):
    return tuple(text)


class TestAlphabet:
    def test_rejects_eps_token(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "eps"])

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet([""])

    def test_order_is_significant(self):
        assert Alphabet(["a", "b"]) != Alphabet(["b", "a"])
        assert Alphabet(["a", "b"]).same_symbols(Alphabet(["b", "a"]))


class TestAccepts:
    def test_one_edge_path(self):
        a = Nfa({"q0", "q1"}, A, {("q0", "a", "q1")}, "q0", {"q1"})
        assert a.accepts(("a",))
        assert not a.accepts(())

    def test_eps_cycle_accepts_empty(self):
        a = Nfa({"q0"}, A, {("q0", None, "q0")}, "q0", {"q0"})
        assert a.accepts(())

    def test_undeclared_symbol_raises(self):
        a = Nfa({"q0"}, A, set(), "q0", {"q0"})
        with pytest.raises(ValueError):
            a.accepts(("z",))


class TestTrim:
    def test_removes_dead_state(self):
        a = Nfa(
            {"q0", "q1", "d"},
            A,
            {("q0", "a", "q1"), ("q0", "a", "d"), ("d", "a", "d")},
            "q0",
            {"q1"},
        )
        t = a.trim()
        assert t.states == {"q0", "q1"}
        assert t.transitions == {("q0", "a", "q1")}

    def test_idempotent_on_trim_input(self):
        a = Nfa({"q0", "q1"}, A, {("q0", "a", "q1")}, "q0", {"q1"})
        assert a.trim() == a
        assert a.trim().trim() == a.trim()

    def test_trim_input_comes_back_unchanged(self):
        a = Nfa({"q0", "q1"}, A, {("q0", "a", "q1"), ("q1", None, "q0")}, "q0", {"q1"})
        assert a.trim() is a

    def test_trimmed_result_trims_at_once(self, monkeypatch):
        dead = Nfa({"q0", "q1", "d"}, A, {("q0", "a", "q1"), ("q0", "a", "d")}, "q0", {"q1"})
        dfa = Dfa({"q", "p"}, AB, {("q", "a", "p")}, "q", {"p"})
        trimmed = [dead.trim(), Nfa({"q0"}, A, set(), "q0", set()).trim(), dfa.trim(),
                   product_intersect(dead, dead).trim()]
        walks = []
        real = automata.explore
        monkeypatch.setattr(automata, "explore", lambda *args: walks.append(args) or real(*args))
        for t in trimmed:
            assert t.trim() is t
        assert not walks
        assert dfa.trim() is not dfa
        assert walks

    def test_eps_free_input_comes_back_unchanged(self):
        a = Nfa({"q0", "q1"}, A, {("q0", "a", "q1")}, "q0", {"q1"})
        assert a.eliminate_eps() is a

    def test_empty_language_is_canonical(self):
        a = Nfa({"q0", "q1"}, A, {("q0", "a", "q0")}, "q0", set())
        assert a.trim() == canonical_empty(A)
        assert len(a.trim().states) == 1
        assert not a.trim().transitions


class TestProduct:
    def test_literal_intersection(self):
        a = nfa_for_words(ABC_XYZ, [w("x"), w("y")])
        b = nfa_for_words(ABC_XYZ, [w("y"), w("z")])
        p = product_intersect(a, b)
        assert p.enumerate_words(3) == [("y",)]

    def test_universal_neutral(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_nfa(rng)
            p = product_intersect(a, universal_nfa(a.alphabet))
            assert p.enumerate_words(5) == a.enumerate_words(5)

    def test_empty_annihilates(self):
        a = canonical_empty(ABC_XYZ)
        b = nfa_for_words(ABC_XYZ, [w("xyz")])
        assert product_intersect(a, b).is_empty()

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            product_intersect(universal_nfa(A), universal_nfa(AB))

    def test_pinned_machine(self):
        # epsilon moves on both sides; pair names are "(p|q)"
        a = Nfa({"p0", "p1", "p2"}, AB,
                {("p0", None, "p1"), ("p1", "a", "p2"), ("p2", "b", "p2")}, "p0", {"p2"})
        b = Nfa({"q0", "q1"}, AB,
                {("q0", "a", "q1"), ("q1", None, "q0"), ("q1", "b", "q1")}, "q0", {"q1"})
        p = product_intersect(a, b)
        assert p.states == {"(p0|q0)", "(p1|q0)", "(p2|q0)", "(p2|q1)"}
        assert p.transitions == {
            ("(p0|q0)", None, "(p1|q0)"),
            ("(p1|q0)", "a", "(p2|q1)"),
            ("(p2|q1)", "b", "(p2|q1)"),
            ("(p2|q1)", None, "(p2|q0)"),
        }
        assert p.initial == "(p0|q0)"
        assert p.accepting == {"(p2|q1)"}


class TestEmptinessFiniteness:
    def test_a_star(self):
        a = Nfa({"q"}, A, {("q", "a", "q")}, "q", {"q"})
        assert not a.is_empty()
        assert not a.is_finite()

    def test_fixed_word_finite(self):
        a = nfa_for_words(AB, [w("ab")])
        assert a.is_finite()

    def test_dead_cycle_does_not_count(self):
        a = Nfa(
            {"q0", "q1", "d"},
            A,
            {("q0", "a", "q1"), ("d", "a", "d"), ("q1", "a", "d")},
            "q0",
            {"q1"},
        )
        assert a.is_finite()

    def test_eps_cycle_is_not_productive(self):
        a = Nfa({"q0"}, A, {("q0", None, "q0")}, "q0", {"q0"})
        assert a.is_finite()


class TestEnumerate:
    def test_a_star_prefix(self):
        a = Nfa({"q"}, A, {("q", "a", "q")}, "q", {"q"})
        assert a.enumerate_words(2) == [(), ("a",), ("a", "a")]

    def test_empty_language(self):
        assert canonical_empty(A).enumerate_words(4) == []

    def test_alternation(self):
        a = nfa_for_words(AB, [w("a"), w("b")])
        assert a.enumerate_words(1) == [("a",), ("b",)]

    def test_order_follows_alphabet_declaration(self):
        rev = Alphabet(["b", "a"])
        a = nfa_for_words(rev, [w("a"), w("b")])
        assert a.enumerate_words(1) == [("b",), ("a",)]

    def test_cap_raises(self):
        u = universal_nfa(AB)
        with pytest.raises(CapExceeded):
            u.enumerate_words(30, cap=100)

    def test_cap_counts_the_live_prefixes(self):
        # q2 and q4 are dead, so the live prefixes up to length 3 are
        # (), a, aa, ab, aaa and aab: six, and the words of length 3 are
        # never expanded
        moves = {("q0", "a", "q1"), ("q0", "b", "q2"), ("q1", "a", "q1"),
                 ("q1", "b", "q3"), ("q2", "a", "q4")}
        a = Nfa({"q0", "q1", "q2", "q3", "q4"}, AB, moves, "q0", {"q3"})
        assert a.enumerate_words(3, cap=6) == [w("ab"), w("aab")]
        with pytest.raises(CapExceeded):
            a.enumerate_words(3, cap=5)

    def test_negative_length_lists_nothing(self):
        assert universal_nfa(AB).enumerate_words(-1) == []


def one_letter(alphabet):
    return {sym: (sym,) for sym in alphabet}


# "ab" spells a and b in one move to x; "a" then "b" spell them through y to z
SPLITS = Alphabet(["ab", "a", "b"])
SPLIT_LABELS = {"ab": ("a", "b"), "a": ("a",), "b": ("b",)}


def split_nfa(accepting):
    moves = {("s", "ab", "x"), ("s", "a", "y"), ("y", "b", "z")}
    return Nfa({"s", "x", "y", "z"}, SPLITS, moves, "s", accepting)


class TestWalkWords:
    @pytest.mark.parametrize("accepting", [{"x"}, {"z"}, {"x", "z"}])
    def test_word_spelled_two_ways_is_listed_once(self, accepting):
        assert walk_words(split_nfa(accepting), SPLIT_LABELS, 2) == ([w("ab")], False)

    def test_dead_branch_past_max_len_is_cut(self):
        # b leads to d, which never accepts but still reads another b
        moves = {("s", "a", "t"), ("s", "b", "d"), ("d", "b", "e")}
        a = Nfa({"s", "t", "d", "e"}, AB, moves, "s", {"t"})
        assert walk_words(a, one_letter(AB), 1) == ([w("a")], True)
        assert walk_words(a, one_letter(AB), 2) == ([w("a")], False)

    def test_label_longer_than_the_room_left_is_cut(self):
        assert walk_words(split_nfa({"x", "z"}), SPLIT_LABELS, 1) == ([], True)

    def test_one_letter_labels_follow_alphabet_order(self):
        rev = Alphabet(["b", "a"])
        words, cut = walk_words(universal_nfa(rev), one_letter(rev), 2)
        assert words == [(), w("b"), w("a"), w("bb"), w("ba"), w("ab"), w("aa")]
        assert cut

    def test_cap_counts_distinct_stored_words(self):
        # (), a and ab: ab is stored once though two runs spell it
        a = split_nfa({"z"})
        assert walk_words(a, SPLIT_LABELS, 2, cap=3) == ([w("ab")], False)
        with pytest.raises(CapExceeded):
            walk_words(a, SPLIT_LABELS, 2, cap=2)

    def test_negative_length_lists_nothing(self):
        assert walk_words(universal_nfa(AB), one_letter(AB), -1)[0] == []

    def test_order_holds_when_a_length_spans_several_masks(self):
        # the parity of the a's splits each length into two masks: aa and bb
        # reach "even", ab and ba reach "odd"
        moves = {("even", "a", "odd"), ("odd", "a", "even"),
                 ("even", "b", "even"), ("odd", "b", "odd")}
        a = Nfa({"even", "odd"}, AB, moves, "even", {"even", "odd"})
        assert a.enumerate_words(3) == sorted(brute_words(a, 3), key=AB.word_key)
        rev = Alphabet(["b", "a"])
        words, _ = walk_words(a, one_letter(rev), 3)
        assert words == sorted(brute_words(a, 3), key=rev.word_key)

    @pytest.mark.parametrize("kind, labels", [
        ("one letter", {"x": ("b",), "y": ("a",), "z": ("c",)}),
        ("prefix code", {"x": ("a",), "y": ("b", "a")}),
        ("suffix code", {"x": ("a",), "y": ("a", "b")}),
        ("neither", {"x": ("a",), "y": ("a", "b"), "z": ("b", "a")}),
    ])
    def test_matches_label_walk(self, kind, labels):
        rng = random.Random(f"walk/{kind}")
        alphabet = Alphabet(labels)
        rank = {label: i for i, label in enumerate(labels.values())}
        for _ in range(200):
            a = random_nfa(rng, alphabet, max_states=6, eps_prob=0.2, density=3.5)
            max_len = rng.randint(0, 7)
            accepted, cut, stored = label_walk(a, labels, max_len)
            words, walked_cut = walk_words(a, labels, max_len, cap=stored)
            assert len(words) == len(set(words)) and set(words) == accepted
            if kind == "one letter":
                assert words == sorted(words, key=lambda word: (
                    len(word), [rank[(letter,)] for letter in word]))
            else:
                assert [len(word) for word in words] == sorted(len(word) for word in words)
            assert walked_cut == cut
            if stored > 1:
                with pytest.raises(CapExceeded):
                    walk_words(a, labels, max_len, cap=stored - 1)


class TestSubAutomaton:
    def test_same_endpoints_accepts_empty(self):
        a = random_nfa(random.Random(3))
        s = next(iter(a.states))
        assert a.sub_automaton(s, s).accepts(())

    def test_reroot_to_original_endpoints(self):
        a = nfa_for_words(AB, [w("ab"), w("b")])
        accepting = next(iter(a.accepting))
        sub = a.sub_automaton(a.initial, accepting)
        assert set(sub.enumerate_words(5)) <= set(a.enumerate_words(5))

    def test_unreachable_pair_empty(self):
        a = nfa_for_words(AB, [w("a")])
        sub = a.sub_automaton(next(iter(a.accepting)), a.initial)
        assert sub.is_empty()

    def test_unknown_state_rejected(self):
        a = nfa_for_words(AB, [w("a")])
        with pytest.raises(ValueError):
            a.sub_automaton("nope", a.initial)


class TestRandomizedAgainstOracles:
    def test_accepts_matches_path_dfs(self):
        rng = random.Random(11)
        for _ in range(80):
            a = random_nfa(rng)
            for word in brute_words(universal_nfa(a.alphabet), 4):
                assert a.accepts(word) == path_accepts(a, word)

    def test_enumerate_matches_generate_and_test(self):
        rng = random.Random(13)
        for _ in range(80):
            a = random_nfa(rng)
            assert a.enumerate_words(4) == brute_words(a, 4)

    def test_trim_preserves_language(self):
        rng = random.Random(17)
        for _ in range(80):
            a = random_nfa(rng)
            assert a.trim().enumerate_words(5) == a.enumerate_words(5)

    def test_product_is_set_intersection(self):
        rng = random.Random(19)
        for _ in range(60):
            a = random_nfa(rng, max_states=5)
            b = random_nfa(rng, max_states=5)
            got = set(product_intersect(a, b).enumerate_words(5))
            want = set(a.enumerate_words(5)) & set(b.enumerate_words(5))
            assert got == want

    def test_is_finite_matches_pumping_window(self):
        # L is infinite iff it contains a word w with n <= |w| < 2n where n
        # counts the states of the eps-free trim
        rng = random.Random(23)
        for _ in range(60):
            a = random_nfa(rng)
            n = len(a.eliminate_eps().trim().states)
            pumped = any(n <= len(word) < 2 * n for word in a.enumerate_words(2 * n))
            assert a.is_finite() == (not pumped)

    def test_eliminate_eps(self):
        rng = random.Random(29)
        for _ in range(60):
            a = random_nfa(rng, eps_prob=0.4)
            b = a.eliminate_eps()
            assert all(sym is not None for _, sym, _ in b.transitions)
            assert b.enumerate_words(4) == a.enumerate_words(4)

    def test_accepts_iff_enumerated(self):
        rng = random.Random(31)
        for _ in range(40):
            a = random_nfa(rng)
            words = set(a.enumerate_words(3))
            for word in brute_words(universal_nfa(a.alphabet), 3):
                assert a.accepts(word) == (word in words)


class TestCompiledStep:
    def test_step_reaches_the_states_some_path_reaches(self):
        rng = random.Random(37)
        for _ in range(60):
            a = random_nfa(rng, eps_prob=0.3)
            for word in brute_words(universal_nfa(a.alphabet), 4):
                mask = a.core.start
                for sym in word:
                    mask = a.step(mask, sym)
                want = {q for q in a.states
                        if path_accepts(a.sub_automaton(a.initial, q), word)}
                assert a.core.names(mask) == sorted(want)

    def test_cache_stays_within_budget(self):
        # eps-free, so every mask is closed: 2 symbols x 2^16 masks is
        # twice the budget; the names sort in index order, so bit i is q{i}
        n = 16
        states = [f"q{i:02d}" for i in range(n)]
        moves = {(states[i], "a", states[(i + 1) % n]) for i in range(n)}
        moves |= {(states[i], "b", states[(3 * i) % n]) for i in range(n)}
        moves |= {(states[i], "b", states[(i + 5) % n]) for i in range(0, n, 2)}
        a = Nfa(states, AB, moves, states[0], {states[-1]})
        assert 2 * 2**n > automata.STEP_CACHE_ENTRIES
        # reference[sym][mask], built up one lowest bit at a time
        reference = {sym: [0] * 2**n for sym in AB}
        for src, sym, dst in moves:
            reference[sym][1 << states.index(src)] |= 1 << states.index(dst)
        for table in reference.values():
            for mask in range(1, 2**n):
                low = mask & -mask
                table[mask] = table[low] | table[mask ^ low]

        for _sweep in range(2):
            for mask in range(2**n):
                for sym in AB:
                    assert a.step(mask, sym) == reference[sym][mask]
                    assert a.core.cached <= automata.STEP_CACHE_ENTRIES
            held = sum(len(memo) for _, memo in a.core.steps.values())
            assert held == a.core.cached == automata.STEP_CACHE_ENTRIES

    def test_step_each_matches_step(self, monkeypatch):
        rng = random.Random(41)
        for budget in (automata.STEP_CACHE_ENTRIES, 3):
            # a budget of 3 fills the cache at once, so later misses stay misses
            monkeypatch.setattr(automata, "STEP_CACHE_ENTRIES", budget)
            for _ in range(40):
                a = random_nfa(rng, max_states=6, eps_prob=0.3, density=3.0)
                # a fresh copy steps one mask at a time, so its results come
                # from step alone
                ref = Nfa(a.states, a.alphabet, a.transitions, a.initial, a.accepting)
                full = (1 << len(a.states)) - 1
                for sym in a.alphabet:
                    for _ in range(3):
                        masks = tuple(rng.randint(0, full) for _ in range(rng.randint(0, 6)))
                        want = tuple(ref.step(mask, sym) for mask in masks)
                        # the first call may miss, the second finds what it stored
                        assert a.step_each(masks, sym) == want
                        assert a.step_each(masks, sym) == want
                        assert a.core.cached <= budget
                assert ref.core.cached == a.core.cached


class TestDfa:
    def test_rejects_eps(self):
        with pytest.raises(ValueError):
            Dfa({"q"}, A, {("q", None, "q")}, "q", set())

    def test_rejects_fanout(self):
        with pytest.raises(ValueError):
            Dfa({"q", "p"}, A, {("q", "a", "q"), ("q", "a", "p")}, "q", set())

    def test_partial_is_fine(self):
        d = Dfa({"q", "p"}, AB, {("q", "a", "p")}, "q", {"p"})
        assert d.accepts(("a",))
        assert not d.accepts(("b",))
        assert d.delta("q", "b") is None

    def test_trim_gives_plain_nfa(self):
        d = Dfa({"q", "p"}, AB, {("q", "a", "p")}, "q", {"p"})
        t = d.trim()
        assert type(t) is Nfa
        assert t == Nfa(d.states, AB, d.transitions, "q", {"p"})


class TestItemOrder:
    """A constructor checks its fields, then each move in the given order,
    and names the first bad one."""

    BAD_SYMBOL = ("q", "b", "q")
    BAD_STATE = ("q", "a", "zz")

    @pytest.mark.parametrize("ctor", [Nfa, Dfa])
    def test_first_bad_move_is_named(self, ctor):
        for moves in ([self.BAD_SYMBOL, self.BAD_STATE], [self.BAD_STATE, self.BAD_SYMBOL]):
            with pytest.raises(ItemError) as err:
                ctor({"q"}, A, moves, "q", set())
            assert isinstance(err.value, ValueError)
            assert err.value.item == moves[0]

    @pytest.mark.parametrize("ctor", [Nfa, Dfa])
    def test_fields_come_before_moves(self, ctor):
        with pytest.raises(ItemError, match="initial state 'p' not declared") as err:
            ctor({"q"}, A, [self.BAD_SYMBOL], "p", set())
        assert err.value.item == "initial"
        with pytest.raises(ItemError, match="accepting states") as err:
            ctor({"q"}, A, [self.BAD_SYMBOL], "q", {"p"})
        assert err.value.item == "accept"

    def test_dfa_epsilon_before_bad_symbol_names_epsilon(self):
        eps = ("q", None, "q")
        with pytest.raises(ItemError, match="epsilon") as err:
            Dfa({"q"}, A, [eps, self.BAD_SYMBOL], "q", set())
        assert err.value.item == eps

    def test_dfa_fanout_names_the_second_move(self):
        second = ("q", "a", "p")
        with pytest.raises(ItemError, match="two transitions from 'q' on 'a'") as err:
            Dfa({"q", "p"}, A, [("q", "a", "q"), ("p", "a", "p"), second], "q", set())
        assert err.value.item == second

    def test_dfa_identical_duplicates_are_legal(self):
        d = Dfa({"q"}, A, [("q", "a", "q"), ("q", "a", "q")], "q", {"q"})
        assert d.transitions == frozenset({("q", "a", "q")})
        assert d.delta("q", "a") == "q"

    @pytest.mark.parametrize("ctor", [Nfa, Dfa])
    def test_one_shot_iterables_are_checked(self, ctor):
        good = [("q", "a", "q"), ("q", "a", "q")]
        assert ctor({"q"}, A, iter(good), "q", set()).transitions == frozenset(good)
        moves = (m for m in [("q", "a", "q"), ("q", "a", "p")])
        with pytest.raises(ItemError) as err:
            ctor({"q"}, A, moves, "q", set())
        assert err.value.item == ("q", "a", "p")


def test_dot_export_mentions_all_states():
    a = nfa_for_words(AB, [w("ab")])
    dot = to_dot(a)
    assert dot.startswith("digraph")
    for s in a.states:
        assert f'"{s}"' in dot
