import random
from collections import Counter

import pytest

from adskit.automata import Alphabet
from adskit.protocols import (
    BlockParseError,
    DyckOracle,
    ProtocolAlphabet,
    ProtocolBlock,
    SetOracle,
    SingleInsertOracle,
    axiom_fuzz,
    flatten_blocks,
    membership,
    parse_blocks,
    per_k_membership,
    protocol_search,
    random_member,
    sigma_k,
)
from adskit.verdict import SearchBounds, Verdict
from oracles import naive_set_replay


class TestProtocolAlphabet:
    def test_wr_overlap_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            ProtocolAlphabet(Alphabet(["q"]), Alphabet(["q"]), Alphabet(["r"]),
                             {("q", "r")})

    def test_query_resp_overlap_allowed(self):
        # one token serving as both reset query and reset response
        pa = ProtocolAlphabet(None, Alphabet(["t", "r"]), Alphabet(["+", "r"]),
                              {("t", "+"), ("r", "r")})
        assert pa.responses_for("r") == ("r",)
        assert pa.flattened().symbols == ("t", "r", "+")

    def test_undeclared_pair_symbol_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            ProtocolAlphabet(None, Alphabet(["q"]), Alphabet(["r"]), {("q", "x")})

    def test_empty_valid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            ProtocolAlphabet(None, Alphabet(["q"]), Alphabet(["r"]), set())


class TestParseBlocks:
    def setup_method(self):
        self.dyck = DyckOracle().alphabet
        self.set = SetOracle().alphabet

    def test_two_blocks(self):
        blocks = parse_blocks(("push(", "(", "pop", ")"), self.dyck)
        assert blocks == [ProtocolBlock((), "push(", "("),
                          ProtocolBlock((), "pop", ")")]

    def test_empty_word(self):
        assert parse_blocks((), self.dyck) == []

    def test_write_word_collected(self):
        blocks = parse_blocks(("a", "b", "#ins", "#"), self.set)
        assert blocks == [ProtocolBlock(("a", "b"), "#ins", "#")]

    def test_missing_response(self):
        with pytest.raises(BlockParseError, match="missing response"):
            parse_blocks(("a", "#ins"), self.set)

    def test_missing_query(self):
        with pytest.raises(BlockParseError, match="missing query"):
            parse_blocks(("a", "b"), self.set)

    def test_invalid_pair(self):
        with pytest.raises(BlockParseError, match="invalid"):
            parse_blocks(("a", "#ins", "+#"), self.set)

    def test_flatten_round_trip(self):
        word = ("a", "#ins", "#", "b", "#test", "-#")
        assert flatten_blocks(parse_blocks(word, self.set)) == word


class TestSetOracle:
    def setup_method(self):
        self.o = SetOracle()

    def test_insert_then_test(self):
        assert membership(self.o, ("a", "#ins", "#", "a", "#test", "+#"))

    def test_fresh_test_negative(self):
        assert membership(self.o, ("a", "#test", "-#"))
        assert not membership(self.o, ("a", "#test", "+#"))

    def test_other_word_not_member(self):
        assert membership(self.o, ("a", "#ins", "#", "b", "#test", "-#"))

    def test_longer_word(self):
        assert membership(self.o, ("a", "b", "#ins", "#", "a", "b", "#test", "+#"))

    def test_removal(self):
        assert not membership(self.o, ("a", "#ins", "#", "a", "#out", "#",
                                       "a", "#test", "+#"))
        assert membership(self.o, ("a", "#ins", "#", "a", "#out", "#",
                                   "a", "#test", "-#"))

    def test_empty_word_member(self):
        assert membership(self.o, ())

    def test_empty_write_word_storable(self):
        assert membership(self.o, ("#ins", "#", "#test", "+#"))

    def test_agrees_with_naive_replay(self):
        rng = random.Random(11)
        pa = self.o.alphabet
        syms = pa.flattened().symbols
        checked_members = 0
        for _ in range(600):
            if rng.random() < 0.5:
                word = list(flatten_blocks(random_member(self.o, rng, max_blocks=5)))
                # sometimes corrupt one position
                if word and rng.random() < 0.5:
                    word[rng.randrange(len(word))] = rng.choice(syms)
            else:
                word = [rng.choice(syms) for _ in range(rng.randint(0, 10))]
            word = tuple(word)
            try:
                expected = naive_set_replay(
                    (b.u, b.q, b.r) for b in parse_blocks(word, pa))
            except BlockParseError:
                expected = False
            assert membership(self.o, word) == expected, word
            checked_members += expected
        assert checked_members > 50


class TestDyckOracle:
    def test_nested_brackets(self):
        word = ("push(", "(", "push[", "[", "pop", "]", "pop", ")")
        assert membership(DyckOracle(), word)
        assert membership(DyckOracle(exact_d2=True), word)

    def test_open_prefix(self):
        word = ("push(", "(")
        assert membership(DyckOracle(), word)
        assert not membership(DyckOracle(exact_d2=True), word)

    def test_pop_on_empty(self):
        assert not membership(DyckOracle(), ("pop", ")"))
        assert not membership(DyckOracle(exact_d2=True), ("pop", ")"))

    def test_wrong_closer(self):
        assert not membership(DyckOracle(), ("push(", "(", "pop", "]"))

    def test_write_word_rejected(self):
        # no write alphabet, so any stray token breaks the block shape
        assert not membership(DyckOracle(), ("x", "push(", "("))

    def test_block_prefixes_of_member(self):
        o = DyckOracle()
        word = ("push(", "(", "push[", "[", "pop", "]", "pop", ")")
        blocks = parse_blocks(word, o.alphabet)
        for cut in range(len(blocks) + 1):
            assert membership(o, flatten_blocks(blocks[:cut]))


class TestSingleInsert:
    def setup_method(self):
        self.o = SingleInsertOracle(2)

    def test_store_and_hit(self):
        assert membership(self.o, ("0", "ins", "+", "0", "test", "+"))

    def test_second_insert_refused(self):
        assert not membership(self.o, ("0", "ins", "+", "1", "ins", "+"))
        assert membership(self.o, ("0", "ins", "+", "1", "ins", "-"))

    def test_test_before_insert(self):
        assert membership(self.o, ("0", "test", "-"))
        assert not membership(self.o, ("0", "test", "+"))

    def test_empty_word_storable(self):
        assert membership(self.o, ("ins", "+", "test", "+"))
        assert not membership(self.o, ("ins", "+", "0", "test", "+"))

    def test_miss_after_store(self):
        assert membership(self.o, ("0", "1", "ins", "+", "1", "0", "test", "-"))

    def test_alphabet_size(self):
        o = SingleInsertOracle(3)
        assert o.alphabet.gamma_wr.symbols == ("0", "1", "2")
        with pytest.raises(ValueError):
            SingleInsertOracle(0)

    @pytest.mark.parametrize("make", [sigma_k, SingleInsertOracle], ids=["sigma_k", "oracle"])
    def test_k_below_one_is_named(self, make):
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            make(0)


class TestPerK:
    def test_repeated_segment(self):
        assert per_k_membership(("a", "b", "#", "a", "b", "#"), 2)

    def test_mismatched_segments(self):
        assert not per_k_membership(("a", "b", "#", "b", "a", "#"), 2)

    def test_empty_segment(self):
        assert per_k_membership(("#",), 1)
        assert per_k_membership(("#", "#"), 2)

    def test_wrong_count(self):
        assert not per_k_membership(("a", "b", "#"), 2)
        assert not per_k_membership(("a", "#", "a", "#", "a", "#"), 2)

    def test_no_trailing_separator(self):
        assert not per_k_membership(("a", "b"), 1)
        assert not per_k_membership((), 1)

    def test_k_validated(self):
        with pytest.raises(ValueError):
            per_k_membership(("#",), 0)


class TestRandomMember:
    @pytest.mark.parametrize("make", [pytest.param(SetOracle, id="set_oracle"),
                                      pytest.param(DyckOracle, id="dyck_oracle"),
                                      lambda: SingleInsertOracle(2)])
    def test_generated_words_are_members(self, make):
        rng = random.Random(5)
        o = make()
        for _ in range(200):
            blocks = random_member(o, rng, max_blocks=8)
            assert membership(o, flatten_blocks(blocks))


class TestAxiomFuzz:
    @pytest.mark.parametrize("make,axioms", [
        pytest.param(SetOracle, "i ii iii iv v", id="set_oracle-i ii iii iv v"),
        (lambda: SingleInsertOracle(3), "i ii iii iv v"),
        pytest.param(DyckOracle, "i ii iii v", id="dyck_oracle-i ii iii v"),
    ])
    def test_clean_oracles(self, make, axioms):
        for axiom in axioms.split():
            report = axiom_fuzz(make(), axiom, trials=300, seed=3)
            assert report.ok, report.summary()

    def test_dyck_pop_gap_reported(self):
        report = axiom_fuzz(DyckOracle(), "iv", trials=300, seed=3)
        assert not report.ok
        assert any("pop" in v for v in report.violations)

    def test_exact_dyck_not_prefix_closed(self):
        report = axiom_fuzz(DyckOracle(exact_d2=True), "iii", trials=300, seed=3)
        assert not report.ok

    def test_reset_without_declaration(self):
        report = axiom_fuzz(SetOracle(), "vi", trials=10, seed=0)
        assert report.violations == ["oracle declares no reset symbols"]

    def test_unknown_axiom(self):
        with pytest.raises(ValueError):
            axiom_fuzz(SetOracle(), "vii", trials=1)

    def test_summary_mentions_counts(self):
        report = axiom_fuzz(SetOracle(), "v", trials=7, seed=1)
        assert "7 trials, 0 violations" in report.summary()


class TestCanonicalKey:
    def test_set_key_tracks_contents(self):
        o = SetOracle()
        s = o.initial_state()
        _, s = o.respond(s, ("b",), "#ins")
        _, s = o.respond(s, ("a",), "#ins")
        t = o.initial_state()
        _, t = o.respond(t, ("a",), "#ins")
        _, t = o.respond(t, ("b",), "#ins")
        _, t = o.respond(t, ("b",), "#ins")
        assert o.canonical_key(s) == o.canonical_key(t)
        _, t2 = o.respond(t, ("b",), "#out")
        assert o.canonical_key(s) != o.canonical_key(t2)

    def test_stored_empty_word_distinct_from_empty_set(self):
        o = SetOracle()
        empty = o.initial_state()
        _, holds_eps = o.respond(empty, (), "#ins")
        assert o.canonical_key(empty) != o.canonical_key(holds_eps)

    def test_equal_keys_respond_equally(self):
        rng = random.Random(9)
        for make in (SetOracle, DyckOracle, lambda: SingleInsertOracle(2)):
            o = make()
            pool = []
            for _ in range(60):
                state = o.initial_state()
                for b in random_member(o, rng, max_blocks=4):
                    state = o.respond(state, b.u, b.q)[1]
                pool.append(state)
            probes = [(b.u, b.q)
                      for b in random_member(o, rng, max_blocks=6)] or [((), "pop")]
            for s in pool:
                for t in pool:
                    if o.canonical_key(s) != o.canonical_key(t):
                        continue
                    for u, q in probes:
                        ra = o.respond(s, u, q)
                        rb = o.respond(t, u, q)
                        assert (ra is None) == (rb is None)
                        if ra is not None:
                            assert ra[0] == rb[0]


def _graph_search(oracle, moves, finals, start="s", calls=None, **bounds):
    """protocol_search over a hand-built control graph.

    moves maps a control to ("w", tokens, next) writes and ("q", q, r,
    next) queries that go on to next when the oracle answers q with r.
    A `calls` Counter, when given, counts each client call by its
    arguments: ("writes", c), ("asks", c) and ("answers", c, q, r).
    """
    tally = Counter() if calls is None else calls

    def writes(c):
        tally["writes", c] += 1
        return [(m[1], m[2]) for m in moves.get(c, ()) if m[0] == "w"]

    def asks(c):
        tally["asks", c] += 1
        return list(dict.fromkeys(m[1] for m in moves.get(c, ()) if m[0] == "q"))

    def answers(c, q, r):
        tally["answers", c, q, r] += 1
        return [m[3] for m in moves.get(c, ()) if m[0] == "q" and m[1:3] == (q, r)]

    return protocol_search(start, oracle, writes, asks, answers, finals.__contains__,
                           SearchBounds(**bounds))


class TestProtocolSearch:
    # s writes a, then a b, inserts the three-token tape and stops in f
    TAPE = {"s": [("w", ("a",), "t")], "t": [("w", ("a", "b"), "u")],
            "u": [("q", "#ins", "#", "f")]}
    # three empty-tape inserts in a row
    CHAIN = {f"c{i}": [("q", "#ins", "#", f"c{i + 1}")] for i in range(3)}

    # inserting a then b and b then a meet in m holding {a, b}; the tests
    # after m answer -# down a chain that never reaches a final control
    DIAMOND = {"s": [("w", ("a",), "a1"), ("w", ("b",), "b1")],
               "a1": [("q", "#ins", "#", "a2")], "a2": [("w", ("b",), "a3")],
               "a3": [("q", "#ins", "#", "m")],
               "b1": [("q", "#ins", "#", "b2")], "b2": [("w", ("a",), "b3")],
               "b3": [("q", "#ins", "#", "m")],
               "m": [("q", "#test", "-#", "c1")], "c1": [("q", "#test", "-#", "c2")],
               "c2": [("q", "#test", "-#", "c3")]}

    def test_equal_oracle_states_share_a_node(self):
        # s, a1-a3, b1-b3, one m and c1-c3: eleven nodes when the two
        # {a, b} sets merge, fifteen if each path kept its own
        assert _graph_search(SetOracle(), self.DIAMOND, {"f"},
                             max_configs=11) == (Verdict.REJECT, None)
        assert _graph_search(SetOracle(), self.DIAMOND, {"f"},
                             max_configs=10) == (Verdict.UNKNOWN, None)

    def test_write_up_to_max_tape_is_taken(self):
        verdict, labels = _graph_search(SetOracle(), self.TAPE, {"f"}, max_tape=3)
        assert verdict is Verdict.ACCEPT
        assert labels == (("a",), ("a", "b"), ("#ins", "#"))

    def test_write_past_max_tape_prunes(self):
        verdict, labels = _graph_search(SetOracle(), self.TAPE, {"f"}, max_tape=2)
        assert verdict is Verdict.UNKNOWN and labels is None

    def test_max_blocks_queries_are_taken(self):
        verdict, labels = _graph_search(SetOracle(), self.CHAIN, {"c3"}, start="c0",
                                        max_blocks=3)
        assert verdict is Verdict.ACCEPT and labels == (("#ins", "#"),) * 3

    def test_query_past_max_blocks_prunes(self):
        verdict, _ = _graph_search(SetOracle(), self.CHAIN, {"c3"}, start="c0", max_blocks=2)
        assert verdict is Verdict.UNKNOWN

    def test_response_without_continuation_neither_prunes_nor_counts(self):
        # an empty set answers -# to the test; only +# would go on
        dead = {"s": [("q", "#test", "+#", "f")]}
        assert _graph_search(SetOracle(), dead, {"f"}, max_blocks=0)[0] is Verdict.REJECT
        beside = {"s": [("q", "#test", "+#", "f"), ("q", "#ins", "#", "t")],
                  "t": [("q", "#test", "+#", "f")]}
        verdict, labels = _graph_search(SetOracle(), beside, {"f"}, max_blocks=2)
        assert verdict is Verdict.ACCEPT
        assert labels == (("#ins", "#"), ("#test", "+#"))

    def test_accept_needs_an_empty_tape(self):
        pending = {"s": [("w", ("a",), "f")]}
        assert _graph_search(SetOracle(), pending, {"f"})[0] is Verdict.REJECT
        assert _graph_search(SetOracle(), pending, {"s"})[1] == ()

    def test_accept_needs_an_accepting_oracle_state(self):
        moves = {"s": [("q", "push(", "(", "o")], "o": [("q", "pop", ")", "c")]}
        verdict, labels = _graph_search(DyckOracle(), moves, {"o", "c"})
        assert verdict is Verdict.ACCEPT and labels == (("push(", "("),)
        verdict, labels = _graph_search(DyckOracle(exact_d2=True), moves, {"o", "c"})
        assert verdict is Verdict.ACCEPT and labels == (("push(", "("), ("pop", ")"))
        assert _graph_search(DyckOracle(exact_d2=True), moves, {"o"})[0] is Verdict.REJECT

    # s writes a or b, t stores, drops or tests that word; only a +#
    # test leads on, to g; every set of {a, b} reaches s and t
    LOOP = {"s": [("w", ("a",), "t"), ("w", ("b",), "t")],
            "t": [("q", "#ins", "#", "s"), ("q", "#out", "#", "s"),
                  ("q", "#test", "-#", "s"), ("q", "#test", "+#", "g")]}

    @pytest.mark.parametrize("graph, finals, bounds, result, answered", [
        ("DIAMOND", {"f"}, {"max_configs": 11}, (Verdict.REJECT, None),
         {("a1", "#ins", "#"), ("a3", "#ins", "#"), ("b1", "#ins", "#"),
          ("b3", "#ins", "#"), ("m", "#test", "-#"), ("c1", "#test", "-#"),
          ("c2", "#test", "-#")}),
        ("LOOP", {"f"}, {}, (Verdict.REJECT, None),
         {("t", "#ins", "#"), ("t", "#out", "#"), ("t", "#test", "-#"),
          ("t", "#test", "+#")}),
        ("LOOP", {"g"}, {}, (Verdict.ACCEPT, (("a",), ("#ins", "#"), ("a",), ("#test", "+#"))),
         {("t", "#ins", "#"), ("t", "#out", "#"), ("t", "#test", "-#"),
          ("t", "#test", "+#")}),
    ], ids=["diamond", "loop-reject", "loop-accept"])
    def test_client_moves_are_computed_once_per_control(self, graph, finals, bounds,
                                                        result, answered):
        calls = Counter()
        moves = getattr(self, graph)
        assert _graph_search(SetOracle(), moves, finals, calls=calls, **bounds) == result
        assert set(calls.values()) == {1}
        controls = {key[1] for key in calls if key[0] == "writes"}
        assert {key[1] for key in calls if key[0] == "asks"} == controls
        assert {key[1:] for key in calls if key[0] == "answers"} == answered
        if graph == "DIAMOND":
            assert controls == {"s", "a1", "a2", "a3", "b1", "b2", "b3", "m",
                                "c1", "c2", "c3"}
        elif result[0] is Verdict.REJECT:
            assert controls == {"s", "t", "g"}

    def test_labels_follow_the_path(self):
        moves = {"s": [("w", ("a",), "t")], "t": [("q", "#ins", "#", "u")],
                 "u": [("w", ("b",), "v")], "v": [("q", "#test", "-#", "f")]}
        verdict, labels = _graph_search(SetOracle(), moves, {"f"})
        assert verdict is Verdict.ACCEPT
        assert labels == (("a",), ("#ins", "#"), ("b",), ("#test", "-#"))
