import itertools
import random

import pytest

from adskit.ads import (
    LM,
    RM,
    AdsAutomaton,
    LetterCode,
    RecodedOracle,
    compose_with_fst,
    concat_reset,
    extractor,
    m_prot,
    normalize_endmarkers,
    simulate,
    star_reset,
    two_letter_recode,
)
from adskit.automata import Alphabet, nfa_for_words
from adskit.errors import ItemError
from adskit.protocols import (
    DyckOracle,
    ProtocolAlphabet,
    SetOracle,
    SingleInsertOracle,
    flatten_blocks,
    membership,
    random_member,
)
from adskit.transducers import id_on, preimage_nfa, word_fst
from adskit.verdict import SearchBounds, Verdict
from genrand import AB, random_ads, random_nfa
from oracles import brute_ads_accepts

SET = SetOracle()
SET_PA = SET.alphabet
LOOSE = SearchBounds(max_configs=100_000, max_blocks=40, max_tape=30)


class ResettableSIS(SingleInsertOracle):
    """Single-insert storage with a reset query wiping the cell."""

    reset_symbols = ("rs", "+")

    def __init__(self, k):
        super().__init__(k)
        pa = self.alphabet
        self.alphabet = ProtocolAlphabet(
            pa.gamma_wr, Alphabet(["ins", "test", "rs"]), pa.gamma_resp,
            set(pa.valid) | {("rs", "+")})

    def respond(self, state, u, q):
        if q == "rs":
            return "+", None
        return super().respond(state, u, q)


def words_over(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet.symbols, repeat=n)


def chain_for_protocol_input(word, pa, suffix=""):
    """Machine accepting exactly the given protocol word as input."""
    wstates, qstates = set(), set()
    wmoves, qmoves = set(), set()
    wr = set(pa.wr_symbols)
    cur = f"c0{suffix}"
    wstates.add(cur)
    i = 0
    k = 0
    while i < len(word):
        tok = word[i]
        k += 1
        nxt = f"c{k}{suffix}"
        if tok in wr:
            wstates.add(nxt)
            wmoves.add((cur, tok, (tok,), nxt))
            i += 1
        else:
            q, r = word[i], word[i + 1]
            mid = f"c{k}m{suffix}"
            qstates.add(mid)
            wstates.add(nxt)
            wmoves.add((cur, q, (), f"c{k}r{suffix}"))
            wstates.add(f"c{k}r{suffix}")
            wmoves.add((f"c{k}r{suffix}", r, (), mid))
            qmoves.add((mid, q, r, nxt))
            i += 2
        cur = nxt
    return AdsAutomaton(wstates, qstates, pa.flattened(), pa, wmoves, qmoves,
                        f"c0{suffix}", {cur})


class TestValidation:
    def test_partition_disjoint(self):
        with pytest.raises(ValueError, match="disjoint"):
            AdsAutomaton({"s"}, {"s"}, AB, SET_PA, set(), set(), "s", set())

    def test_write_move_from_query_state(self):
        with pytest.raises(ValueError, match="non-write state"):
            AdsAutomaton({"w"}, {"q"}, AB, SET_PA, {("q", "a", (), "w")},
                         set(), "w", set())

    def test_query_move_must_land_in_write_state(self):
        with pytest.raises(ValueError, match="land in a write state"):
            AdsAutomaton({"w"}, {"q", "p"}, AB, SET_PA, set(),
                         {("q", "#ins", "#", "p")}, "w", set())

    def test_invalid_query_pair(self):
        with pytest.raises(ValueError, match="invalid pair"):
            AdsAutomaton({"w"}, {"q"}, AB, SET_PA, set(),
                         {("q", "#ins", "+#", "w")}, "w", set())

    def test_write_outside_alphabet(self):
        with pytest.raises(ValueError, match="outside the write alphabet"):
            AdsAutomaton({"w"}, set(), AB, SET_PA, {("w", "a", ("z",), "w")},
                         set(), "w", set())

    def test_markers_reserved_in_input_alphabet(self):
        with pytest.raises(ValueError, match="reserved"):
            AdsAutomaton({"w"}, set(), Alphabet(["a", "lm"]), SET_PA, set(),
                         set(), "w", set())

    def test_first_bad_move_is_named_in_the_given_order(self):
        bad_input = ("w", "c", (), "w")
        bad_write = ("w", "a", ("z",), "w")
        for moves in ([bad_input, bad_write], [bad_write, bad_input]):
            with pytest.raises(ItemError) as err:
                AdsAutomaton({"w"}, {"q"}, AB, SET_PA, iter(moves), set(), "w", set())
            assert isinstance(err.value, ValueError)
            assert err.value.item == moves[0]
        bad_pair = ("q", "#ins", "+#", "w")
        bad_land = ("q", "#ins", "#", "q")
        for moves in ([bad_pair, bad_land], [bad_land, bad_pair]):
            with pytest.raises(ItemError) as err:
                AdsAutomaton({"w"}, {"q"}, AB, SET_PA, set(), moves, "w", set())
            assert err.value.item == moves[0]

    def test_fields_then_write_moves_then_query_moves(self):
        bad_write = [("w", "c", (), "w")]
        bad_query = [("q", "#ins", "+#", "w")]
        with pytest.raises(ItemError) as err:
            AdsAutomaton({"w"}, {"q"}, AB, SET_PA, bad_write, bad_query, "zz", set())
        assert err.value.item == "initial"
        with pytest.raises(ItemError) as err:
            AdsAutomaton({"w"}, {"q"}, AB, SET_PA, bad_write, bad_query, "w", set())
        assert err.value.item == bad_write[0]

    def test_initial_may_be_query_state(self):
        m = AdsAutomaton({"w"}, {"q"}, AB, SET_PA, set(),
                         {("q", "#test", "-#", "w")}, "q", {"q"})
        assert simulate(m, (), SET) is Verdict.ACCEPT


class TestMProt:
    def test_set_examples(self):
        m = m_prot(SET_PA, SET)
        assert simulate(m, ("a", "#ins", "#", "a", "#test", "+#"), SET) is Verdict.ACCEPT
        assert simulate(m, ("a", "#test", "+#"), SET) is Verdict.REJECT
        assert simulate(m, (), SET) is Verdict.ACCEPT

    def test_dyck_example(self):
        o = DyckOracle()
        m = m_prot(o.alphabet)
        assert simulate(m, ("push(", "(", "pop", ")"), o) is Verdict.ACCEPT
        assert simulate(m, ("pop", ")"), o) is Verdict.REJECT

    def test_deterministic_by_construction(self):
        assert m_prot(SET_PA).is_deterministic()
        assert m_prot(DyckOracle().alphabet).is_deterministic()

    def test_oracle_alphabet_checked(self):
        with pytest.raises(ValueError, match="alphabet"):
            m_prot(SET_PA, DyckOracle())

    @pytest.mark.parametrize("make", [pytest.param(SetOracle, id="set_oracle"),
                                      pytest.param(DyckOracle, id="dyck_oracle"),
                                      lambda: SingleInsertOracle(2)])
    def test_agrees_with_membership(self, make):
        rng = random.Random(17)
        o = make()
        m = m_prot(o.alphabet)
        syms = o.alphabet.flattened().symbols
        for _ in range(200):
            word = list(flatten_blocks(random_member(o, rng, max_blocks=6)))
            if word and rng.random() < 0.5:
                word[rng.randrange(len(word))] = rng.choice(syms)
            word = tuple(word)
            want = Verdict.ACCEPT if membership(o, word) else Verdict.REJECT
            assert simulate(m, word, o, LOOSE) is want, word


class TestSimulateAgainstRunTree:
    def test_random_machines(self):
        rng = random.Random(23)
        bounds = SearchBounds(max_configs=100_000, max_blocks=1_000_000, max_tape=24)
        definite = 0
        for _ in range(60):
            m = random_ads(rng, SET_PA, AB, max_states=4)
            for word in words_over(AB, 3):
                found, capped = brute_ads_accepts(m, word, SET, max_tape=24,
                                                  max_keys=100_000)
                got = simulate(m, word, SET, bounds)
                if found:
                    assert got is Verdict.ACCEPT
                    definite += 1
                elif not capped:
                    assert got is Verdict.REJECT
                    definite += 1
        assert definite > 500

    def test_unknown_on_tight_bounds(self):
        # tape pump with no acceptance in reach: honest Unknown, not Reject
        m = AdsAutomaton({"w"}, set(), AB, SET_PA,
                         {("w", None, ("a",), "w")}, set(), "w", set())
        tight = SearchBounds(max_configs=10, max_blocks=2, max_tape=3)
        assert simulate(m, ("a",), SET, tight) is Verdict.UNKNOWN


class TestEndmarkers:
    def make_marked(self):
        # reads lm, loops on a, reads rm; accepts a*
        return AdsAutomaton(
            {"i0", "i1", "f"}, set(), AB, SET_PA,
            {("i0", LM, (), "i1"), ("i1", "a", (), "i1"), ("i1", RM, (), "f")},
            set(), "i0", {"f"})

    def test_simulate_wraps_markers(self):
        m = self.make_marked()
        assert simulate(m, ("a", "a"), SET) is Verdict.ACCEPT
        assert simulate(m, ("b",), SET) is Verdict.REJECT

    def test_normalize_strips_markers(self):
        m = self.make_marked()
        n = normalize_endmarkers(m)
        assert not n.reads_marker(LM) and not n.reads_marker(RM)
        for word in words_over(AB, 3):
            assert simulate(n, word, SET) is simulate(m, word, SET)

    def test_marker_free_machine_untouched(self):
        m = m_prot(SET_PA)
        assert normalize_endmarkers(m) is m

    def test_extractor_emits_no_markers(self):
        t = extractor(self.make_marked())
        res = t.apply(("a",))
        assert res.words == {()}


class TestCompose:
    def test_identity_on_nfa_is_intersection(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(12):
            m = random_ads(rng, SET_PA, AB, max_states=3)
            a = random_nfa(rng, AB, max_states=3)
            comp = compose_with_fst(m, id_on(a))
            for word in words_over(AB, 3):
                base = simulate(m, word, SET, LOOSE)
                got = simulate(comp, word, SET, LOOSE)
                if base is Verdict.UNKNOWN or got is Verdict.UNKNOWN:
                    continue
                want = base is Verdict.ACCEPT and a.accepts(word)
                assert (got is Verdict.ACCEPT) == want, word
                checked += 1
        assert checked > 120

    def test_expansion_example(self):
        # t: a -> bb feeding a machine that wants exactly bb
        ab_only = Alphabet(["a"])
        b_only = Alphabet(["b"])
        m = AdsAutomaton({"w0", "w1", "w2"}, set(), b_only, SET_PA,
                         {("w0", "b", (), "w1"), ("w1", "b", (), "w2")},
                         set(), "w0", {"w2"})
        t = word_fst([(("a",), ("b", "b"))], ab_only, b_only)
        comp = compose_with_fst(m, t)
        assert simulate(comp, ("a",), SET) is Verdict.ACCEPT
        assert simulate(comp, (), SET) is Verdict.REJECT
        assert simulate(comp, ("a", "a"), SET) is Verdict.REJECT

    def test_pinned_machine(self):
        # t: a -> bb feeding a machine that writes and queries between its
        # two b reads; states are (machine|transducer|buffer), query hops end in |q
        b_only = Alphabet(["b"])
        m = AdsAutomaton({"w0", "w1", "w2"}, {"q0"}, b_only, SET_PA,
                         {("w0", "b", ("a",), "q0"), ("w1", "b", (), "w2")},
                         {("q0", "#ins", "#", "w1")}, "w0", {"w2"})
        t = word_fst([(("a",), ("b", "b"))], Alphabet(["a"]), b_only)
        comp = compose_with_fst(m, t)
        assert comp.write_states == {"(w0||)", "(w0|0.0|b.b)", "(q0|0.0|b)",
                                     "(w1|0.0|b)", "(w2|0.0|)"}
        assert comp.query_states == {"(q0|0.0|b|q)"}
        assert comp.write_moves == {
            ("(w0||)", "a", (), "(w0|0.0|b.b)"),
            ("(w0|0.0|b.b)", None, ("a",), "(q0|0.0|b)"),
            ("(q0|0.0|b)", None, (), "(q0|0.0|b|q)"),
            ("(w1|0.0|b)", None, (), "(w2|0.0|)")}
        assert comp.query_moves == {("(q0|0.0|b|q)", "#ins", "#", "(w1|0.0|b)")}
        assert (comp.initial, comp.accepting) == ("(w0||)", {"(w2|0.0|)"})

    def test_empty_domain_rejects_everything(self):
        from adskit.transducers import Fst
        m = m_prot(SET_PA)
        t = Fst({"t"}, AB, m.input_alphabet, set(), "t", set())
        comp = compose_with_fst(m, t)
        for word in words_over(AB, 2):
            assert simulate(comp, word, SET) is Verdict.REJECT

    def test_preserves_determinism(self):
        rng = random.Random(37)
        kept = 0
        for _ in range(40):
            m = random_ads(rng, SET_PA, AB, max_states=3, det=True)
            assert m.is_deterministic()
            # deterministic letter-to-word transducer with non-empty outputs
            states = ["t0", "t1"]
            trans = set()
            for s in states:
                for sym in AB:
                    out = tuple(rng.choice(AB.symbols)
                                for _ in range(rng.randint(1, 2)))
                    trans.add((s, sym, out, rng.choice(states)))
            from adskit.transducers import Fst
            t = Fst(states, AB, AB, trans, "t0", {rng.choice(states)})
            assert t.deterministic
            comp = compose_with_fst(m, t)
            assert comp.is_deterministic()
            kept += 1
        assert kept == 40

    def test_alphabet_mismatch(self):
        m = m_prot(SET_PA)
        t = word_fst([(("a",), ("a",))], AB, AB)
        with pytest.raises(ValueError, match="output alphabet"):
            compose_with_fst(m, t)


class TestExtractor:
    def test_identity_like_on_m_prot(self):
        t = extractor(m_prot(SET_PA))
        res = t.apply(("a", "#ins", "#"))
        assert ("a", "#ins", "#") in res.words

    def test_queryless_machine_concatenates_writes(self):
        m = AdsAutomaton({"w0", "w1", "w2"}, set(), AB, SET_PA,
                         {("w0", "a", ("a",), "w1"), ("w1", "b", ("b", "b"), "w2")},
                         set(), "w0", {"w2"})
        res = extractor(m).apply(("a", "b"))
        assert res.words == {("a", "b", "b")}

    def test_characterizes_acceptance(self):
        rng = random.Random(41)
        tight = SearchBounds(max_configs=50_000, max_blocks=3, max_tape=4)
        accepts = 0
        for _ in range(40):
            m = random_ads(rng, SET_PA, AB, max_states=3)
            t = extractor(m)
            for word in words_over(AB, 3):
                res = t.apply(word, output_cap=30)
                witnessed = any(membership(SET, p) for p in res.words)
                if witnessed:
                    assert simulate(m, word, SET, LOOSE) is Verdict.ACCEPT
                    accepts += 1
                if simulate(m, word, SET, tight) is Verdict.ACCEPT:
                    assert witnessed
        assert accepts > 40

    def test_principal_cone_direction(self):
        rng = random.Random(43)
        protos = member_protocols(SET, max_tokens=8, max_u=2)
        nfa_p = nfa_for_words(SET_PA.flattened(), protos)
        tight = SearchBounds(max_configs=50_000, max_blocks=2, max_tape=2)
        for _ in range(5):
            m = random_ads(rng, SET_PA, AB, max_states=3)
            cone = preimage_nfa(extractor(m), nfa_p)
            cone_words = set(cone.enumerate_words(3))
            for word in words_over(AB, 3):
                if word in cone_words:
                    assert simulate(m, word, SET, LOOSE) is Verdict.ACCEPT
                if simulate(m, word, SET, tight) is Verdict.ACCEPT:
                    assert word in cone_words


def member_protocols(oracle, max_tokens, max_u):
    """All correct protocols up to a token budget, by walking the oracle."""
    pa = oracle.alphabet
    u_choices = [w for n in range(max_u + 1)
                 for w in itertools.product(pa.wr_symbols, repeat=n)]
    out = [()]
    frontier = [(oracle.initial_state(), ())]
    while frontier:
        new = []
        for st, word in frontier:
            for u in u_choices:
                for q in pa.gamma_query:
                    answer = oracle.respond(st, u, q)
                    if answer is None:
                        continue
                    w2 = word + u + (q, answer[0])
                    if len(w2) > max_tokens:
                        continue
                    out.append(w2)
                    new.append((answer[1], w2))
        frontier = new
    return out


class TestTwoLetterRecode:
    def test_code_table(self):
        code = LetterCode(Alphabet(["x"]))
        assert code.encode_word(("x",)) == ("a", "b", "a")
        code2 = LetterCode(Alphabet(["x", "y"]))
        assert code2.encode_word(("y",)) == ("a", "b", "b", "a")
        assert code2.decode_word(("a", "b", "b", "a", "a", "b", "a")) == ("y", "x")
        assert code2.decode_word(("a", "b")) is None
        assert code2.decode_word(("b",)) is None

    def test_codec_fst(self):
        sis = SingleInsertOracle(2)
        m = random_ads(random.Random(1), sis.alphabet, AB, max_states=3)
        m2, codec = two_letter_recode(m)
        assert codec.deterministic
        res = codec.apply(("0", "1"))
        assert res.words == {("a", "b", "a", "a", "b", "b", "a")}

    def test_codec_injective_short_words(self):
        code = LetterCode(Alphabet(["0", "1"]))
        seen = {}
        for word in words_over(Alphabet(["0", "1"]), 4):
            enc = code.encode_word(word)
            assert enc not in seen
            seen[enc] = word
            assert code.decode_word(enc) == word

    def test_simulation_equivalence(self):
        rng = random.Random(47)
        sis = SingleInsertOracle(2)
        rec_bounds = SearchBounds(max_configs=200_000, max_blocks=32, max_tape=96)
        wrapped = RecodedOracle(sis)
        checked = 0
        for _ in range(15):
            m = random_ads(rng, sis.alphabet, AB, max_states=3)
            m2, _ = two_letter_recode(m)
            assert m2.protocol == wrapped.alphabet
            for word in words_over(AB, 3):
                base = simulate(m, word, sis)
                if base is Verdict.UNKNOWN:
                    continue
                assert simulate(m2, word, wrapped, rec_bounds) is base
                checked += 1
        assert checked > 200

    def test_requires_write_alphabet(self):
        m = m_prot(DyckOracle().alphabet)
        with pytest.raises(ValueError, match="write alphabet"):
            two_letter_recode(m)


class TestResetClosures:
    P = ("0", "ins", "+")

    def setup_method(self):
        self.o = ResettableSIS(2)
        self.m1 = chain_for_protocol_input(self.P, self.o.alphabet)

    def test_machine_accepts_exactly_p(self):
        assert simulate(self.m1, self.P, self.o) is Verdict.ACCEPT
        assert simulate(self.m1, self.P + self.P, self.o) is Verdict.REJECT
        assert simulate(self.m1, (), self.o) is Verdict.REJECT

    def test_concat_resets_between_halves(self):
        cat = concat_reset(self.m1, self.m1, self.o)
        assert simulate(cat, self.P + self.P, self.o) is Verdict.ACCEPT
        assert simulate(cat, self.P, self.o) is Verdict.REJECT
        assert simulate(cat, self.P + self.P + self.P, self.o) is Verdict.REJECT

    def test_plain_gluing_fails_without_reset(self):
        # the second insert hits an occupied cell, so p.p needs the reset
        glued = chain_for_protocol_input(self.P + self.P, self.o.alphabet)
        assert simulate(glued, self.P + self.P, self.o) is Verdict.REJECT

    def test_star(self):
        st = star_reset(self.m1, self.o)
        assert simulate(st, (), self.o) is Verdict.ACCEPT
        assert simulate(st, self.P, self.o) is Verdict.ACCEPT
        assert simulate(st, self.P * 3, self.o) is Verdict.ACCEPT
        assert simulate(st, self.P + ("0",), self.o) is Verdict.REJECT

    def test_concat_with_empty_language(self):
        dead = AdsAutomaton({"z"}, set(), self.m1.input_alphabet,
                            self.o.alphabet, set(), set(), "z", set())
        cat = concat_reset(self.m1, dead, self.o)
        assert simulate(cat, self.P, self.o) is Verdict.REJECT
        assert simulate(cat, self.P + self.P, self.o) is Verdict.REJECT

    def test_reset_required(self):
        sis = SingleInsertOracle(2)
        m = chain_for_protocol_input(("0", "ins", "+"), sis.alphabet)
        with pytest.raises(ValueError, match="reset"):
            concat_reset(m, m, sis)
        with pytest.raises(ValueError, match="reset"):
            star_reset(m, sis)


class TestDeterminism:
    def test_m_prot_true(self):
        assert m_prot(SET_PA).is_deterministic()

    def test_two_eps_moves_false(self):
        m = AdsAutomaton({"w", "v", "u"}, set(), AB, SET_PA,
                         {("w", None, (), "v"), ("w", None, (), "u")},
                         set(), "w", set())
        assert not m.is_deterministic()

    def test_input_fanout_false(self):
        m = AdsAutomaton({"w", "v", "u"}, set(), AB, SET_PA,
                         {("w", "a", (), "v"), ("w", "a", (), "u")},
                         set(), "w", set())
        assert not m.is_deterministic()

    def test_eps_plus_letter_false(self):
        m = AdsAutomaton({"w", "v"}, set(), AB, SET_PA,
                         {("w", None, (), "v"), ("w", "a", (), "v")},
                         set(), "w", set())
        assert not m.is_deterministic()

    def test_query_branching_on_responses_true(self):
        m = AdsAutomaton({"w"}, {"q"}, AB, SET_PA, set(),
                         {("q", "#test", "+#", "w"), ("q", "#test", "-#", "w")},
                         "q", {"w"})
        assert m.is_deterministic()

    def test_two_queries_false(self):
        m = AdsAutomaton({"w"}, {"q"}, AB, SET_PA, set(),
                         {("q", "#test", "+#", "w"), ("q", "#ins", "#", "w")},
                         "q", {"w"})
        assert not m.is_deterministic()
