import random

import pytest

from adskit.automata import Alphabet, Nfa, canonical_empty, nfa_for_words, universal_nfa
from adskit.transducers import (
    Fst,
    compose,
    id_on,
    identity_fst,
    image_nfa,
    invert,
    letter_split,
    preimage_nfa,
    word_fst,
)

from genrand import AB, random_fst, random_nfa
from oracles import all_words, brute_words, fst_apply_ref, fst_outputs

A = Alphabet(["a"])
B = Alphabet(["b"])
C = Alphabet(["c"])
BC = Alphabet(["b", "c"])


def t_a_to_bb():
    return Fst({"0", "1"}, A, B, {("0", "a", ("b", "b"), "1")}, "0", {"1"})


def t_b_to_c():
    return Fst({"0"}, B, C, {("0", "b", ("c",), "0")}, "0", {"0"})


def t_a_to_bb_looping():
    """a -> bb, then an epsilon move back that outputs nothing."""
    return Fst({"0", "1"}, A, B,
               {("0", "a", ("b", "b"), "1"), ("1", None, (), "0")}, "0", {"1"})


class TestApply:
    def test_identity(self):
        t = identity_fst(AB)
        r = t.apply(("a", "b"), output_cap=10)
        assert r.words == {("a", "b")}
        assert not r.truncated

    def test_two_branches(self):
        xy = Alphabet(["x", "y"])
        t = Fst({"0", "1"}, A, xy,
                {("0", "a", ("x",), "1"), ("0", "a", ("y",), "1")}, "0", {"1"})
        assert t.apply(("a",)).words == {("x",), ("y",)}

    def test_eps_loop_truncates_loudly(self):
        z = Alphabet(["z"])
        t = Fst({"0"}, A, z, {("0", None, ("z",), "0")}, "0", {"0"})
        r = t.apply((), output_cap=3)
        assert r.words == {(), ("z",), ("z", "z"), ("z", "z", "z")}
        assert r.truncated

    def test_matches_dfs_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            t = random_fst(rng)
            for u in all_words(t.input_alphabet, 3):
                r = t.apply(u, output_cap=8)
                assert r.words == fst_outputs(t, u, 8)

    def test_matches_reference_with_truncation(self):
        rng = random.Random(211)
        for _ in range(1100):
            t = random_fst(rng, max_states=6, max_out=rng.randint(0, 3),
                           eps_prob=rng.uniform(0, 0.6))
            for u in all_words(t.input_alphabet, 3):
                cap = rng.randint(0, 8)
                r = t.apply(u, output_cap=cap)
                assert (r.words, r.truncated) == fst_apply_ref(t, u, cap), (t.transitions, u, cap)

    def test_silent_eps_cycle_is_not_truncation(self):
        t = Fst({"0", "1"}, A, B, {("0", None, (), "1"), ("1", None, (), "0")}, "0", {"1"})
        r = t.apply((), output_cap=2)
        assert r.words == {()}
        assert not r.truncated

    def test_dead_branch_past_the_cap_truncates(self):
        z = Alphabet(["z"])
        t = Fst({"0", "dead"}, A, z, {("0", None, ("z", "z", "z"), "dead")}, "0", {"0"})
        r = t.apply((), output_cap=2)
        assert r.words == {()}
        assert r.truncated

    def test_two_letters_from_one_below_the_cap_are_cut(self):
        xy = Alphabet(["x", "y"])
        t = Fst({"0", "1", "2"}, A, xy,
                {("0", "a", ("x",), "1"), ("1", "a", ("y", "y"), "2")}, "0", {"2"})
        cut = t.apply(("a", "a"), output_cap=2)
        assert cut.words == frozenset()
        assert cut.truncated
        whole = t.apply(("a", "a"), output_cap=3)
        assert whole.words == {("x", "y", "y")}
        assert not whole.truncated

    def test_zero_cap(self):
        t = Fst({"0", "1"}, A, B, {("0", None, (), "1"), ("1", "a", ("b",), "1")}, "0", {"1"})
        empty = t.apply((), output_cap=0)
        assert empty.words == {()}
        assert not empty.truncated
        r = t.apply(("a",), output_cap=0)
        assert r.words == frozenset()
        assert r.truncated

    def test_negative_cap_is_rejected(self):
        # every output, even the empty word, is longer than a negative cap
        with pytest.raises(ValueError, match="output cap"):
            identity_fst(AB).apply((), output_cap=-1)


class TestCompose:
    def test_chains_single_pair(self):
        c = compose(t_a_to_bb(), t_b_to_c())
        assert c.apply(("a",)).words == {("c", "c")}

    def test_identity_is_neutral(self):
        rng = random.Random(103)
        for _ in range(25):
            t = random_fst(rng)
            c = compose(t, identity_fst(t.output_alphabet))
            for u in all_words(t.input_alphabet, 4):
                assert c.apply(u, 12).words == t.apply(u, 12).words

    def test_two_stage_union(self):
        rng = random.Random(107)
        for _ in range(40):
            t1 = random_fst(rng)
            t2 = random_fst(rng)
            c = compose(t1, t2)
            for u in all_words(t1.input_alphabet, 3):
                staged = set()
                for w in t1.apply(u, 8).words:
                    staged |= t2.apply(w, 12).words
                assert c.apply(u, 12).words == {v for v in staged if len(v) <= 12}

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            compose(t_a_to_bb(), t_a_to_bb())

    def test_associativity_on_samples(self):
        rng = random.Random(109)
        for _ in range(15):
            t1, t2, t3 = (random_fst(rng) for _ in range(3))
            left = compose(compose(t1, t2), t3)
            right = compose(t1, compose(t2, t3))
            for u in all_words(t1.input_alphabet, 3):
                assert left.apply(u, 10).words == right.apply(u, 10).words


class TestPinnedMachines:
    """Exact machines on one fixture: the split output bb goes through the
    fresh state 0+0.0, and both sides have epsilon moves."""

    def test_compose(self):
        t2 = Fst({"x", "y"}, B, C,
                 {("x", "b", ("c",), "y"), ("y", None, ("c",), "x"), ("y", "b", (), "y")},
                 "x", {"y"})
        c = compose(t_a_to_bb_looping(), t2)
        assert c.states == {"(0|x)", "(0|y)", "(1|x)", "(1|y)", "(0+0.0|x)", "(0+0.0|y)"}
        assert c.transitions == {
            ("(0+0.0|x)", None, ("c",), "(1|y)"),
            ("(0+0.0|y)", None, ("c",), "(0+0.0|x)"),
            ("(0+0.0|y)", None, (), "(1|y)"),
            ("(0|x)", "a", ("c",), "(0+0.0|y)"),
            ("(0|y)", "a", (), "(0+0.0|y)"),
            ("(0|y)", None, ("c",), "(0|x)"),
            ("(1|x)", None, (), "(0|x)"),
            ("(1|y)", None, ("c",), "(1|x)"),
            ("(1|y)", None, (), "(0|y)"),
        }
        assert c.initial == "(0|x)"
        assert c.accepting == {"(1|y)"}

    def test_preimage(self):
        n = Nfa({"m0", "m1"}, B, {("m0", "b", "m1"), ("m1", None, "m0")}, "m0", {"m1"})
        p = preimage_nfa(t_a_to_bb_looping(), n)
        assert p.states == {"(0|m0)", "(0|m1)", "(1|m0)", "(1|m1)",
                            "(0+0.0|m0)", "(0+0.0|m1)"}
        assert p.transitions == {
            ("(0+0.0|m0)", None, "(1|m1)"),
            ("(0+0.0|m1)", None, "(0+0.0|m0)"),
            ("(0|m0)", "a", "(0+0.0|m1)"),
            ("(0|m1)", None, "(0|m0)"),
            ("(1|m0)", None, "(0|m0)"),
            ("(1|m1)", None, "(0|m1)"),
            ("(1|m1)", None, "(1|m0)"),
        }
        assert p.initial == "(0|m0)"
        assert p.accepting == {"(1|m1)"}


class TestInvert:
    def test_single_pair(self):
        t = Fst({"0", "1"}, A, BC, {("0", "a", ("b", "c"), "1")}, "0", {"1"})
        inv = invert(t)
        assert inv.apply(("b", "c")).words == {("a",)}
        assert inv.apply(("b",)).words == set()

    def test_involution_at_relation_level(self):
        rng = random.Random(113)
        for _ in range(40):
            t = random_fst(rng)
            tt = invert(invert(t))
            for u in all_words(t.input_alphabet, 4):
                assert tt.apply(u, 10).words == t.apply(u, 10).words

    def test_pair_swap(self):
        rng = random.Random(127)
        for _ in range(30):
            t = random_fst(rng)
            inv = invert(t)
            for u in all_words(t.input_alphabet, 3):
                for v in t.apply(u, 6).words:
                    assert u in inv.apply(v, 6).words

    def test_deterministic_flag_recomputed(self):
        t = Fst({"0", "1"}, A, B, {("0", "a", (), "1")}, "0", {"1"})
        assert t.deterministic
        assert not invert(t).deterministic  # a↦ε inverts to an ε-input move


class TestPreimageImage:
    def test_preimage_single(self):
        a = nfa_for_words(B, [("b", "b")])
        pre = preimage_nfa(t_a_to_bb(), a)
        assert pre.enumerate_words(3) == [("a",)]

    def test_preimage_universal_is_domain(self):
        rng = random.Random(131)
        for _ in range(30):
            t = random_fst(rng)
            pre = preimage_nfa(t, universal_nfa(t.output_alphabet))
            for u in all_words(t.input_alphabet, 4):
                r = t.apply(u, 16)
                assert pre.accepts(u) == bool(r.words)

    def test_preimage_empty(self):
        pre = preimage_nfa(t_a_to_bb(), canonical_empty(B))
        assert pre.is_empty()

    def test_image_single(self):
        a = nfa_for_words(A, [("a",)])
        img = image_nfa(t_a_to_bb(), a)
        assert img.enumerate_words(3) == [("b", "b")]

    def test_image_of_universal_is_range(self):
        rng = random.Random(137)
        for _ in range(30):
            t = random_fst(rng)
            img = image_nfa(t, universal_nfa(t.input_alphabet))
            produced = set()
            for u in all_words(t.input_alphabet, 4):
                produced |= {v for v in t.apply(u, 4).words if len(v) <= 4}
            for v in all_words(t.output_alphabet, 4):
                if img.accepts(v):
                    # anything the image automaton claims must be producible,
                    # possibly from an input longer than the sample window
                    assert v in image_words_somehow(t, v) or v in produced
                if v in produced:
                    assert img.accepts(v)

    def test_image_empty(self):
        img = image_nfa(t_a_to_bb(), canonical_empty(A))
        assert img.is_empty()


def image_words_somehow(t, v, max_in=7):
    hits = set()
    for u in all_words(t.input_alphabet, max_in):
        if v in t.apply(u, len(v)).words:
            hits.add(v)
            break
    return hits


class TestBuilders:
    def test_id_on_restricts(self):
        lang = nfa_for_words(AB, [("a",), ("a", "b")])
        t = id_on(lang)
        assert t.apply(("a", "b")).words == {("a", "b")}
        assert t.apply(("b",)).words == set()

    def test_id_on_random(self):
        rng = random.Random(139)
        for _ in range(25):
            a = random_nfa(rng)
            t = id_on(a)
            for u in all_words(a.alphabet, 3):
                want = {u} if a.accepts(u) else set()
                assert t.apply(u, 10).words == want

    def test_letter_split_preserves_relation(self):
        rng = random.Random(149)
        for _ in range(30):
            t = random_fst(rng, max_out=3)
            s = letter_split(t)
            assert all(len(out) <= 1 for _, _, out, _ in s.transitions)
            for u in all_words(t.input_alphabet, 3):
                assert s.apply(u, 10).words == t.apply(u, 10).words

    def test_word_fst(self):
        t = word_fst([(("a",), ("b", "b")), ((), ("b",))], A, B)
        assert t.apply(("a",)).words == {("b", "b")}
        assert t.apply(()).words == {("b",)}
