import random

import pytest

from adskit.automata import Alphabet, Dfa, Nfa
from adskit.errors import CapExceeded, ItemError
from adskit.logtm import (
    BLANK,
    LAMBDA,
    LM,
    RM,
    LogTm,
    TmRule,
    lambda_eliminate,
    padding_flagged,
    run_with_advice,
    run_with_protocol,
    surface_config_nfa,
    toy_always_tm,
    toy_equality_tm,
    toy_first_symbol_tm,
    toy_insert_test_tm,
    toy_never_tm,
    toy_palindrome_tm,
    toy_test_first_tm,
)
from adskit.nrr import NrrInstance, nreg_generic
from adskit.protocols import DyckOracle, SetOracle
from adskit.verdict import SearchBounds, Verdict

from genrand import AB, random_advice_tm, random_dfa
from oracles import brute_advice_accepts

SET = SetOracle()


def words_over(alphabet, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (s,) for w in layer for s in alphabet]
        out.extend(layer)
    return out


def simple_tm(**overrides):
    base = dict(
        states={"s", "t"},
        input_alphabet=AB,
        work_alphabet=Alphabet([BLANK, "0"]),
        work_size=2,
        rules=[TmRule("s", LM, BLANK, None, "t", "0", "R", "R")],
        initial="s",
        accepting={"t"},
        advice_alphabet=AB,
    )
    base.update(overrides)
    return LogTm(**base)


class TestValidation:
    def test_work_tape_needs_a_cell(self):
        with pytest.raises(ValueError, match="cell"):
            simple_tm(work_size=0)

    def test_initial_must_be_declared(self):
        with pytest.raises(ValueError, match="initial"):
            simple_tm(initial="nope")

    def test_accept_reject_disjoint(self):
        with pytest.raises(ValueError, match="both"):
            simple_tm(rejecting={"t"})

    def test_endmarkers_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            simple_tm(input_alphabet=Alphabet(["a", LM]))

    def test_padding_symbol_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            simple_tm(advice_alphabet=Alphabet(["a", LAMBDA]))

    def test_halting_states_carry_no_rules(self):
        with pytest.raises(ValueError, match="halting"):
            simple_tm(rules=[TmRule("t", LM, BLANK, None, "s", BLANK, "S", "S")])

    def test_query_states_carry_no_rules(self):
        with pytest.raises(ValueError, match="query state"):
            simple_tm(
                rules=[TmRule("s", LM, BLANK, None, "s", BLANK, "S", "S")],
                queries={("s", "#ins")},
                responses={("s", "#", "t")},
            )

    def test_consume_conflicts_with_query_write(self):
        with pytest.raises(ValueError, match="both"):
            simple_tm(rules=[TmRule("s", LM, BLANK, "a", "t", BLANK, "S", "S",
                                    consume=True, qwrite="a")])

    def test_consume_needs_advice_alphabet(self):
        with pytest.raises(ValueError, match="advice"):
            simple_tm(
                rules=[TmRule("s", LM, BLANK, "a", "t", BLANK, "S", "S", consume=True)],
                advice_alphabet=None,
            )

    def test_hold_rules_cannot_match_advice(self):
        with pytest.raises(ValueError, match="advice"):
            simple_tm(rules=[TmRule("s", LM, BLANK, "a", "t", BLANK, "S", "S")])

    def test_moves_are_checked(self):
        with pytest.raises(ValueError, match="moves"):
            simple_tm(rules=[TmRule("s", LM, BLANK, None, "t", BLANK, "X", "S")])

    def test_response_needs_query_state(self):
        with pytest.raises(ValueError, match="non-query"):
            simple_tm(responses={("s", "#", "t")})

    def test_first_bad_rule_is_named_in_the_given_order(self):
        bad_move = TmRule("s", RM, BLANK, None, "t", BLANK, "X", "S")
        bad_input = TmRule("s", "c", BLANK, None, "t", BLANK, "S", "S")
        # the machine keeps its rules sorted by repr, bad_input first
        for rules in ([bad_move, bad_input], [bad_input, bad_move]):
            with pytest.raises(ItemError) as err:
                simple_tm(rules=iter(rules))
            assert isinstance(err.value, ValueError)
            assert err.value.item == rules[0]

    def test_first_bad_query_and_response_are_named(self):
        queries = [("s", "#ins"), ("t", "#ins"), ("zz", "#ins")]
        with pytest.raises(ItemError, match="non-halting") as err:
            simple_tm(rules=[], queries=queries)
        assert err.value.item == ("t", "#ins")
        responses = [("s", "#", "t"), ("s", "+", "zz"), ("t", "#", "s")]
        with pytest.raises(ItemError, match="target") as err:
            simple_tm(rules=[], queries=[("s", "#ins")], responses=iter(responses))
        assert err.value.item == ("s", "+", "zz")

    def test_fields_then_rules_then_queries(self):
        bad_rule = [TmRule("s", "c", BLANK, None, "t", BLANK, "S", "S")]
        with pytest.raises(ItemError) as err:
            simple_tm(work_size=0, rules=bad_rule)
        assert err.value.item == "worksize"
        with pytest.raises(ItemError) as err:
            simple_tm(rules=bad_rule, queries=[("t", "#ins")])
        assert err.value.item == bad_rule[0]


class TestRunWithAdvice:
    def test_first_symbol_match(self):
        tm = toy_first_symbol_tm()
        assert run_with_advice(tm, ("a",), ("a",)) is Verdict.ACCEPT
        assert run_with_advice(tm, ("a",), ("b",)) is Verdict.REJECT

    def test_longer_advice_still_checked_to_the_end(self):
        tm = toy_first_symbol_tm()
        assert run_with_advice(tm, ("b",), ("b", "a", "a")) is Verdict.ACCEPT
        assert run_with_advice(tm, ("b",), ()) is Verdict.REJECT

    def test_equality_toy_matches_direct_comparison(self):
        rng = random.Random(410)
        tm = toy_equality_tm()
        for _ in range(50):
            x = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            y = tuple(rng.choice("ab") for _ in range(rng.randint(0, 3)))
            want = Verdict.ACCEPT if x == y else Verdict.REJECT
            assert run_with_advice(tm, x, y) is want

    def test_immediate_accept_needs_empty_advice(self):
        tm = toy_always_tm()
        assert run_with_advice(tm, ("a",), ()) is Verdict.ACCEPT
        assert run_with_advice(tm, ("a",), ("a",)) is Verdict.REJECT

    def test_rejecting_machine(self):
        assert run_with_advice(toy_never_tm(), ("a",), ()) is Verdict.REJECT

    def test_undeclared_advice_symbol(self):
        with pytest.raises(ValueError, match="advice symbol"):
            run_with_advice(toy_equality_tm(), ("a",), ("z",))

    def test_query_machines_are_rejected(self):
        with pytest.raises(ValueError, match="query"):
            run_with_advice(toy_insert_test_tm(), ("a",), ())

    def test_step_cap_degrades_to_unknown(self):
        work = Alphabet([BLANK, "0", "1"])
        rules = []
        for w in work:
            for bit in ("0", "1"):
                rules.append(TmRule("s", LM, w, None, "s", bit, "S", "R"))
                rules.append(TmRule("s", LM, w, None, "s", bit, "S", "L"))
        tm = LogTm({"s", "t"}, AB, work, 6, rules, "s", {"t"}, advice_alphabet=AB)
        assert run_with_advice(tm, (), (), step_cap=10) is Verdict.UNKNOWN
        assert run_with_advice(tm, (), ()) is Verdict.REJECT

    def test_follows_only_the_given_advice(self):
        # copies its advice onto a 16-cell work tape and may stop at an a:
        # 3·2^16 - 2 surface configurations, but only 18 along one advice word
        work, k = Alphabet([BLANK, "a", "b"]), 16
        rules = [TmRule("s", LM, BLANK, None, "c", BLANK, "S", "S"),
                 TmRule("c", LM, BLANK, "a", "acc", "a", "S", "S", consume=True),
                 TmRule("c", LM, BLANK, LAMBDA, "rej", BLANK, "S", "S", consume=True)]
        rules += [TmRule("c", LM, BLANK, sym, "c", sym, "S", "R", consume=True)
                  for sym in ("a", "b")]
        tm = LogTm({"s", "c", "acc", "rej"}, AB, work, k, rules, "s", {"acc"},
                   rejecting={"rej"}, advice_alphabet=AB)
        assert run_with_advice(tm, (), ("b",) * 15 + ("a",), step_cap=100) is Verdict.ACCEPT
        assert run_with_advice(tm, (), ("b",) * 16, step_cap=100) is Verdict.REJECT
        with pytest.raises(CapExceeded):
            surface_config_nfa(tm, ())

    def test_runs_and_surface_nfa_match_brute_force(self):
        # yΛ^k is accepted for some k iff for k = |states|: accepting
        # configurations loop on Λ, and a shortest path has fewer Λ moves
        rng = random.Random(423)
        words = words_over(tuple(AB), 3)
        verdicts = []
        for _ in range(100):
            tm = random_advice_tm(rng)
            for x in words:
                nfa = surface_config_nfa(tm, x)
                pad = (LAMBDA,) * len(nfa.states)
                for y in words:
                    want = brute_advice_accepts(tm, x, y)
                    got = run_with_advice(tm, x, y)
                    assert got is (Verdict.ACCEPT if want else Verdict.REJECT), (x, y)
                    assert nfa.accepts(y + pad) == want, (x, y)
                    verdicts.append(got)
        assert verdicts.count(Verdict.ACCEPT) > 300 and verdicts.count(Verdict.REJECT) > 20_000


class TestSurfaceConfigNfa:
    def lam_pad(self, y, k):
        return y + (LAMBDA,) * k

    def test_first_symbol_language(self):
        a = surface_config_nfa(toy_first_symbol_tm(), ("a",))
        assert a.accepts(("a",))
        assert a.accepts(("a", "b"))
        assert a.accepts(("a", LAMBDA, LAMBDA))
        assert not a.accepts(("b",))
        assert not a.accepts((LAMBDA,))
        assert not a.accepts(())

    def test_unconditional_machine_accepts_padding_only(self):
        a = surface_config_nfa(toy_always_tm(), ("a", "b"))
        assert a.accepts(())
        assert a.accepts((LAMBDA, LAMBDA))
        assert not a.accepts(("a",))

    def test_rejecting_machine_gives_empty_language(self):
        a = surface_config_nfa(toy_never_tm(), ("a",))
        assert a.is_empty()

    def test_matches_runs_under_padding(self):
        toys = [toy_first_symbol_tm(), toy_equality_tm(), toy_always_tm()]
        inputs = [(), ("a",), ("b", "a")]
        for tm in toys:
            for x in inputs:
                nfa = surface_config_nfa(tm, x)
                for y in words_over(tuple(AB), 3):
                    ran = run_with_advice(tm, x, y) is Verdict.ACCEPT
                    for k in range(4):
                        assert nfa.accepts(self.lam_pad(y, k)) == ran, (x, y, k)

    def test_query_machines_are_rejected(self):
        with pytest.raises(ValueError, match="query"):
            surface_config_nfa(toy_insert_test_tm(), ("a",))

    def test_state_cap(self):
        with pytest.raises(CapExceeded):
            surface_config_nfa(toy_equality_tm(), ("a", "b", "a"), state_cap=3)

    def test_names_and_moves_are_pinned(self):
        a = surface_config_nfa(toy_first_symbol_tm(), ("a",))
        assert a.states == {"s0|_|0|0", "s1|_|0|1", "drain|_|0|1", "acc|_|0|1"}
        assert a.transitions == {
            ("s0|_|0|0", None, "s1|_|0|1"),
            ("s1|_|0|1", "a", "drain|_|0|1"),
            ("drain|_|0|1", "a", "drain|_|0|1"),
            ("drain|_|0|1", "b", "drain|_|0|1"),
            ("drain|_|0|1", None, "acc|_|0|1"),
            ("acc|_|0|1", LAMBDA, "acc|_|0|1"),
        }
        assert a.initial == "s0|_|0|0"
        assert a.accepting == {"acc|_|0|1"}

    def test_state_cap_boundary(self):
        x = ("a", "b", "a")
        size = len(surface_config_nfa(toy_equality_tm(), x).states)
        assert surface_config_nfa(toy_equality_tm(), x, state_cap=size).states \
            == surface_config_nfa(toy_equality_tm(), x).states
        with pytest.raises(CapExceeded):
            surface_config_nfa(toy_equality_tm(), x, state_cap=size - 1)


LAM_ALPHA = Alphabet(["a", "b", LAMBDA])


def chain_dfa(word, alphabet=LAM_ALPHA):
    states = {f"c{i}" for i in range(len(word) + 1)}
    transitions = {(f"c{i}", sym, f"c{i + 1}") for i, sym in enumerate(word)}
    return Dfa(states, alphabet, transitions, "c0", {f"c{len(word)}"})


class TestLambdaEliminate:
    def test_trailing_padding_is_folded_into_acceptance(self):
        a = chain_dfa(("a", "b", LAMBDA, LAMBDA))
        out = lambda_eliminate(a, LAMBDA)
        assert set(out.enumerate_words(4)) == {("a", "b")}

    def test_padding_before_letters_is_excluded(self):
        a = chain_dfa(("a", LAMBDA, "b"))
        out = lambda_eliminate(a, LAMBDA)
        assert set(out.enumerate_words(4)) == set()

    def test_flagged_part_never_leaves_on_letters(self):
        rng = random.Random(411)
        for _ in range(20):
            a = random_dfa(rng, LAM_ALPHA, max_states=6)
            flagged = padding_flagged(a, LAMBDA)
            for src, sym, dst in flagged.transitions:
                if src.endswith("@1"):
                    assert sym == LAMBDA

    def test_agrees_with_padding_brute_force(self):
        rng = random.Random(412)
        for _ in range(60):
            a = random_dfa(rng, LAM_ALPHA, max_states=6)
            out = lambda_eliminate(a, LAMBDA)
            for y in words_over(("a", "b"), 4):
                direct = any(a.accepts(y + (LAMBDA,) * k) for k in range(7))
                assert out.accepts(y) == direct

    def test_requires_dfa(self):
        nfa = Nfa({"0"}, LAM_ALPHA, set(), "0", set())
        with pytest.raises(ValueError, match="deterministic"):
            lambda_eliminate(nfa, LAMBDA)

    def test_padding_symbol_must_exist(self):
        a = chain_dfa((), alphabet=LAM_ALPHA)
        with pytest.raises(ValueError, match="alphabet"):
            lambda_eliminate(a, "zz")


class TestRunWithProtocol:
    def test_insert_then_test_accepts_everything(self):
        tm = toy_insert_test_tm()
        for x in words_over(("a", "b"), 3):
            assert run_with_protocol(tm, x, SET) is Verdict.ACCEPT

    def test_test_before_insert_rejects(self):
        assert run_with_protocol(toy_test_first_tm(), ("a",), SET) is Verdict.REJECT

    def test_palindrome_machine_matches_reference(self):
        rng = random.Random(413)
        tm = toy_palindrome_tm()
        for _ in range(50):
            x = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
            want = Verdict.ACCEPT if x == x[::-1] else Verdict.REJECT
            assert run_with_protocol(tm, x, SET) is want

    def test_unflushed_query_tape_blocks_acceptance(self):
        tm = LogTm(
            states={"s", "t"},
            input_alphabet=AB,
            work_alphabet=Alphabet([BLANK]),
            work_size=1,
            rules=[TmRule("s", LM, BLANK, None, "t", BLANK, "S", "S", qwrite="a")],
            initial="s",
            accepting={"t"},
        )
        assert run_with_protocol(tm, (), SET) is Verdict.REJECT

    def test_bounds_degrade_to_unknown(self):
        tm = toy_insert_test_tm()
        tight = SearchBounds(max_configs=200_000, max_blocks=32, max_tape=1)
        assert run_with_protocol(tm, ("a", "b"), SET, tight) is Verdict.UNKNOWN
        starved = SearchBounds(max_configs=200_000, max_blocks=0, max_tape=24)
        assert run_with_protocol(tm, ("a",), SET, starved) is Verdict.UNKNOWN

    def test_advice_machines_are_rejected(self):
        with pytest.raises(ValueError, match="advice"):
            run_with_protocol(toy_equality_tm(), ("a",), SET)

    def test_query_write_symbols_checked_against_oracle(self):
        with pytest.raises(ValueError, match="write alphabet"):
            run_with_protocol(toy_insert_test_tm(), ("a",), DyckOracle())

    def test_query_symbols_checked_against_oracle(self):
        tm = LogTm(
            states={"q", "t"},
            input_alphabet=AB,
            work_alphabet=Alphabet([BLANK]),
            work_size=1,
            rules=[],
            initial="q",
            accepting={"t"},
            queries={("q", "#bogus")},
            responses={("q", "#", "t")},
        )
        with pytest.raises(ValueError, match="query symbol"):
            run_with_protocol(tm, (), SET)


def advice_twin_palindrome():
    """Consumes exactly the protocol the palindrome machine would produce."""
    flat = SET.alphabet.flattened()
    rules = [TmRule("t0", LM, BLANK, None, "t1", BLANK, "R", "S")]
    for sym in ("a", "b"):
        rules.append(TmRule("t1", sym, BLANK, sym, "t1", BLANK, "R", "S", consume=True))
        rules.append(TmRule("t3", sym, BLANK, sym, "t3", BLANK, "L", "S", consume=True))
    rules.append(TmRule("t1", RM, BLANK, "#ins", "t2", BLANK, "S", "S", consume=True))
    rules.append(TmRule("t2", RM, BLANK, "#", "t3", BLANK, "L", "S", consume=True))
    rules.append(TmRule("t3", LM, BLANK, "#test", "t4", BLANK, "S", "S", consume=True))
    rules.append(TmRule("t4", LM, BLANK, "+#", "acc", BLANK, "S", "S", consume=True))
    return LogTm(
        states={"t0", "t1", "t2", "t3", "t4", "acc"},
        input_alphabet=AB,
        work_alphabet=Alphabet([BLANK]),
        work_size=1,
        rules=rules,
        initial="t0",
        accepting={"acc"},
        advice_alphabet=flat,
    )


def strip_padding(nfa):
    flat = SET.alphabet.flattened()
    transitions = {(s, sym, d) for s, sym, d in nfa.transitions if sym != LAMBDA}
    return Nfa(nfa.states, flat, transitions, nfa.initial, nfa.accepting)


class TestProtocolAdviceEquivalence:
    def test_surface_nfa_plus_filter_matches_protocol_run(self):
        """Guessing the protocol as advice and checking it against the
        filter gives the same verdict as running against the oracle."""
        twin = advice_twin_palindrome()
        direct = toy_palindrome_tm()
        hits = misses = 0
        for x in words_over(("a", "b"), 3):
            instance = NrrInstance(strip_padding(surface_config_nfa(twin, x)), SET)
            chained = nreg_generic(instance).verdict
            ran = run_with_protocol(direct, x, SET)
            assert chained is ran, f"chain mismatch on {x!r}"
            hits += ran is Verdict.ACCEPT
            misses += ran is Verdict.REJECT
        assert hits and misses

    def test_twin_runs_match_the_produced_protocol(self):
        twin = advice_twin_palindrome()
        x = ("a", "b")
        produced = ("a", "b", "#ins", "#", "b", "a", "#test", "+#")
        assert run_with_advice(twin, x, produced) is Verdict.ACCEPT
        wrong = ("a", "b", "#ins", "#", "a", "b", "#test", "+#")
        assert run_with_advice(twin, x, wrong) is Verdict.REJECT
