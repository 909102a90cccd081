import random
from collections import Counter

import pytest

from adskit import automata
from adskit.ads import AdsAutomaton, simulate
from adskit.automata import Alphabet, Nfa, nfa_for_words, universal_nfa
from adskit.nrr import (
    NrrAnswer,
    NrrInstance,
    PerKFilter,
    decide,
    filter_transfer,
    membership_to_reg,
    nonemptiness_to_nrr,
    nreg_dyck,
    nreg_generic,
    nreg_perk,
    nrr_to_nonemptiness,
    perk_to_spk_fst,
    spk_to_perk_fst,
)
from adskit.protocols import (
    DyckOracle,
    ProtocolOracle,
    SetOracle,
    SingleInsertOracle,
    membership,
    parse_blocks,
    per_k_membership,
    protocol_search,
    sigma_k,
)
from adskit.transducers import identity_fst
from adskit.verdict import DEFAULT_BOUNDS, SearchBounds, Verdict

from genrand import (
    AB,
    BRACKET_BLOCKS,
    random_ads,
    random_bracket_nfa,
    random_copy_nfa,
    random_nfa,
    random_set_nfa,
)
from oracles import brute_words, path_accepts

SET = SetOracle()
SET_ALPHA = SET.alphabet.flattened()
DYCK = DyckOracle()
DYCK_ALPHA = DYCK.alphabet.flattened()

# a 12-state block-structured bracket automaton: three base states, each
# block edge through its own midpoint; several shortest witnesses exist
BLOCK_BRACKET_NFA = Nfa(
    ["b0", "b1", "b2", "m0.0", "m0.1", "m0.2", "m1.0", "m1.1", "m1.2",
     "m2.0", "m2.1", "m2.2"],
    DYCK_ALPHA,
    {("b0", "pop", "m0.0"), ("b0", "pop", "m0.1"), ("b0", "push[", "m0.2"),
     ("b1", "pop", "m1.0"), ("b1", "push(", "m1.1"), ("b1", "push[", "m1.2"),
     ("b2", "pop", "m2.2"), ("b2", "push(", "m2.0"), ("b2", "push(", "m2.1"),
     ("m0.0", "]", "b1"), ("m0.1", "]", "b0"), ("m0.2", "[", "b1"),
     ("m1.0", ")", "b2"), ("m1.1", "(", "b1"), ("m1.2", "[", "b2"),
     ("m2.0", "(", "b0"), ("m2.1", "(", "b2"), ("m2.2", ")", "b0")},
    "b0",
    {"b1", "b2"},
)


def words_over(alphabet, max_len):
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (s,) for w in layer for s in alphabet]
        out.extend(layer)
    return out


def correct_protocols(oracle, max_tokens, max_u=6):
    """Every correct protocol of at most max_tokens tokens, exhaustively."""
    wr = tuple(oracle.alphabet.gamma_wr) if oracle.alphabet.gamma_wr else ()
    found = []

    def rec(prefix, state, budget):
        if oracle.accepting(state):
            found.append(tuple(prefix))
        for u in words_over(wr, min(max_u, budget - 2)) if budget >= 2 else []:
            for q in oracle.alphabet.gamma_query:
                answer = oracle.respond(state, u, q)
                if answer is None:
                    continue
                r, nstate = answer
                rec(prefix + list(u) + [q, r], nstate, budget - len(u) - 2)

    rec([], oracle.initial_state(), max_tokens)
    return found


class TestInstancePlumbing:
    def test_alphabet_mismatch_rejected(self):
        a = universal_nfa(AB)
        with pytest.raises(ValueError, match="alphabet"):
            NrrInstance(a, SET)

    def test_perk_filter_membership(self):
        f = PerKFilter(2)
        assert f.member(("0", "1", "#", "0", "1", "#"))
        assert not f.member(("0", "#", "1", "#"))
        assert f.alphabet.same_symbols(Alphabet(["0", "1", "#"]))

    def test_perk_filter_validates_k(self):
        with pytest.raises(ValueError):
            PerKFilter(0)

    def test_yes_answers_carry_validated_witnesses(self):
        a = nfa_for_words(SET_ALPHA, [("a", "#ins", "#")])
        answer = nreg_generic(NrrInstance(a, SET))
        assert answer.verdict is Verdict.ACCEPT
        assert a.accepts(answer.witness)
        assert membership(SET, answer.witness)


class TestGenericDecider:
    def test_dyck_single_block_word(self):
        a = nfa_for_words(DYCK_ALPHA, [("push(", "(", "pop", ")")])
        answer = nreg_generic(NrrInstance(a, DYCK))
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ("push(", "(", "pop", ")")

    def test_exact_dyck_rejects_unbalanced(self):
        a = nfa_for_words(DYCK_ALPHA, [("push(", "(")])
        answer = nreg_generic(NrrInstance(a, DyckOracle(exact_d2=True)))
        assert answer.verdict is Verdict.REJECT
        assert answer.witness is None

    def test_empty_word_accepted_immediately(self):
        a = universal_nfa(SET_ALPHA)
        answer = nreg_generic(NrrInstance(a, SET))
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ()

    def test_unknown_when_bounds_bite(self):
        # the only witness needs 3 blocks, the cap stops at 2
        word = ("a", "#ins", "#") * 3
        a = nfa_for_words(SET_ALPHA, [word])
        tiny = SearchBounds(max_configs=200, max_blocks=2, max_tape=2)
        answer = nreg_generic(NrrInstance(a, SET), tiny)
        assert answer.verdict is Verdict.UNKNOWN

    def test_unknown_when_tape_cap_bites(self):
        word = ("a", "a", "a", "#ins", "#")
        a = nfa_for_words(SET_ALPHA, [word])
        tiny = SearchBounds(max_configs=200, max_blocks=4, max_tape=2)
        answer = nreg_generic(NrrInstance(a, SET), tiny)
        assert answer.verdict is Verdict.UNKNOWN

    def test_empty_language_rejected_despite_tiny_bounds(self):
        a = universal_nfa(SET_ALPHA)
        # accepting state unreachable: emptiness is decided before the search
        a = Nfa(a.states | {"x"}, a.alphabet, a.transitions, a.initial, {"x"})
        tiny = SearchBounds(max_configs=4, max_blocks=2, max_tape=2)
        answer = nreg_generic(NrrInstance(a, SET), tiny)
        assert answer.verdict is Verdict.REJECT

    def test_matches_exhaustive_set_protocol_search(self):
        rng = random.Random(401)
        protocols = correct_protocols(SET, 8)
        assert len(protocols) > 400
        definite = 0
        for _ in range(60):
            a = random_nfa(rng, alphabet=SET_ALPHA, max_states=4, density=3.0)
            answer = nreg_generic(NrrInstance(a, SET))
            brute = any(a.accepts(p) for p in protocols)
            if answer.verdict is Verdict.UNKNOWN:
                continue
            definite += 1
            assert (answer.verdict is Verdict.ACCEPT) == brute
        assert definite > 50


class CountingSetOracle(SetOracle):
    """A set oracle that counts its respond calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def respond(self, state, u, q):
        self.calls += 1
        return super().respond(state, u, q)


class RecordingOracle(ProtocolOracle):
    """Wraps an oracle and records the query of each respond call."""

    def __init__(self, inner):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.queries = []

    def initial_state(self):
        return self.inner.initial_state()

    def respond(self, state, u, q):
        self.queries.append(q)
        return self.inner.respond(state, u, q)

    def accepting(self, state):
        return self.inner.accepting(state)


def ask_every_query(inst, bounds=DEFAULT_BOUNDS):
    """Reference client of protocol_search: nreg_generic's moves, but
    every control asks every query symbol of the alphabet."""
    a = inst.automaton.trim()
    if not a.accepting:
        return Verdict.REJECT, None
    step, o = a.step, inst.filter
    queries = tuple(o.alphabet.gamma_query)

    def writes(states):
        return [((sym,), nxt) for sym in o.alphabet.wr_symbols if (nxt := step(states, sym))]

    def answers(states, q, r):
        nxt = step(step(states, q), r)
        return (nxt,) if nxt else ()

    verdict, labels = protocol_search(a.core.start, o, writes, lambda states: queries, answers,
                                      lambda states: states & a.core.accepting, bounds)
    if verdict is not Verdict.ACCEPT:
        return verdict, None
    witness = tuple(tok for part in labels for tok in part)
    # nreg_generic validates its witness against the oracle; so does this
    assert membership(o, witness)
    return verdict, witness


class TestOracleTraffic:
    """nreg_generic asks the oracle once per (node, query the state set
    can read): pinned counts."""

    @pytest.mark.parametrize("seed, base, out_degree, verdict, calls, witness", [
        (16, 8, 4, Verdict.ACCEPT, 162,
         ("b", "#test", "-#", "b", "#out", "#", "a", "b", "#ins", "#", "a", "#out", "#",
          "b", "#out", "#", "b", "#ins", "#", "a", "b", "#test", "+#", "a", "b",
          "#out", "#")),
        (24, 10, 5, Verdict.REJECT, 827, None),
    ])
    def test_respond_calls_are_pinned(self, seed, base, out_degree, verdict, calls, witness):
        a = random_set_nfa(random.Random(seed), SET_ALPHA, base, out_degree)
        oracle = CountingSetOracle()
        answer = nreg_generic(NrrInstance(a, oracle))
        assert (answer.verdict, oracle.calls, answer.witness) == (verdict, calls, witness)

    def test_only_readable_queries_are_asked(self):
        a = nfa_for_words(SET_ALPHA, [("a", "#test", "-#", "b", "#test", "-#"),
                                      ("#test", "+#")])
        oracle = RecordingOracle(SetOracle())
        answer = nreg_generic(NrrInstance(a, oracle))
        assert answer.verdict is Verdict.ACCEPT
        assert oracle.queries and set(oracle.queries) == {"#test"}

    def test_agrees_with_a_client_asking_every_query(self):
        sis = SingleInsertOracle(2)
        rng = random.Random(409)
        instances = [(random_set_nfa(rng, SET_ALPHA, 5, 3), SetOracle()) for _ in range(10)]
        instances += [(random_nfa(rng, alphabet=sis.alphabet.flattened(), max_states=6,
                                  eps_prob=0.1, density=4.0, accept_prob=0.2), sis)
                      for _ in range(30)]
        saved = 0
        for a, inner in instances:
            mine, every = RecordingOracle(inner), RecordingOracle(inner)
            answer = nreg_generic(NrrInstance(a, mine))
            assert (answer.verdict, answer.witness) == ask_every_query(NrrInstance(a, every))
            assert len(mine.queries) <= len(every.queries)
            saved += len(mine.queries) < len(every.queries)
        assert saved > 0


class TestDyckDecider:
    def test_block_star_accepts_empty_word(self):
        a = Nfa(
            {"A", "B", "C", "D"},
            DYCK_ALPHA,
            {("A", "push(", "B"), ("B", "(", "C"), ("C", "pop", "D"), ("D", ")", "A")},
            "A",
            {"A"},
        )
        answer = nreg_dyck(a)
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ()

    def test_exact_mode_finds_completed_word(self):
        a = nfa_for_words(
            DYCK_ALPHA,
            [("push(", "("), ("push(", "(", "pop", ")")],
        )
        answer = nreg_dyck(a, exact_d2=True)
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ("push(", "(", "pop", ")")

    def test_prefix_mode_accepts_open_brackets(self):
        a = nfa_for_words(DYCK_ALPHA, [("push(", "(")])
        assert nreg_dyck(a).verdict is Verdict.ACCEPT
        assert nreg_dyck(a, exact_d2=True).verdict is Verdict.REJECT

    def test_mismatched_brackets_rejected(self):
        a = nfa_for_words(DYCK_ALPHA, [("push(", "(", "pop", "]")])
        assert nreg_dyck(a).verdict is Verdict.REJECT
        assert nreg_dyck(a, exact_d2=True).verdict is Verdict.REJECT

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            nreg_dyck(universal_nfa(AB))

    def test_witness_is_least_under_length_then_tokens(self):
        answer = nreg_dyck(BLOCK_BRACKET_NFA, exact_d2=True)
        assert answer.witness == ("push[", "[", "push(", "(", "pop", ")",
                                  "push(", "(", "pop", ")", "pop", "]")

    def test_witness_is_first_member_by_brute_force(self):
        rng = random.Random(403)
        nonempty = rejected = 0
        for _ in range(250):
            a = random_nfa(rng, alphabet=DYCK_ALPHA, max_states=4, density=8.0,
                           accept_prob=0.3)
            words = sorted(brute_words(a, 4), key=lambda w: (len(w), w))
            for exact in (False, True):
                members = [w for w in words if membership(DyckOracle(exact), w)]
                answer = nreg_dyck(a, exact_d2=exact)
                if answer.verdict is Verdict.REJECT:
                    assert members == []
                    rejected += 1
                elif len(answer.witness) <= 4:
                    assert answer.witness == members[0]
                    nonempty += len(answer.witness) > 0
        assert nonempty > 15 and rejected > 200

    def test_block_witnesses_are_least_members_by_brute_force(self):
        # block-structured instances: their witnesses push and pop through
        # several blocks, which random symbols rarely line up to do
        rng = random.Random(405)
        long_witnesses = {False: 0, True: 0}
        for _ in range(100):
            a, blocks = random_bracket_nfa(rng, DYCK_ALPHA)
            words = [tuple(tok for k in w for tok in BRACKET_BLOCKS[int(k)])
                     for w in brute_words(blocks, 6)]
            for exact in (False, True):
                members = [w for w in words if membership(DyckOracle(exact), w)]
                answer = nreg_dyck(a, exact_d2=exact)
                if not members:
                    assert answer.verdict is Verdict.REJECT or len(answer.witness) > 12
                    continue
                least = min(members, key=lambda w: (len(w), w))
                assert answer.witness == least
                long_witnesses[exact] += len(least) >= 6
        assert long_witnesses[False] >= 35 and long_witnesses[True] >= 25, long_witnesses

    def test_block_instances_agree_with_generic(self):
        # block-structured witnesses push and pop through several blocks,
        # so the generic search merges many equal tuple-valued stacks
        rng = random.Random(408)
        definite = long_witnesses = 0
        for _ in range(30):
            a, _ = random_bracket_nfa(rng, DYCK_ALPHA)
            for exact in (False, True):
                fast = nreg_dyck(a, exact_d2=exact)
                slow = nreg_generic(NrrInstance(a, DyckOracle(exact)),
                                    SearchBounds(max_configs=20_000))
                if slow.verdict is Verdict.UNKNOWN:
                    continue
                definite += 1
                assert fast.verdict is slow.verdict
                if fast.verdict is Verdict.ACCEPT:
                    assert a.accepts(slow.witness)
                    assert membership(DyckOracle(exact), slow.witness)
                    # nreg_dyck's witness is the least under (len(w), w)
                    assert ((len(fast.witness), fast.witness)
                            <= (len(slow.witness), slow.witness))
                    long_witnesses += len(fast.witness) >= 6
        assert definite >= 45 and long_witnesses >= 18, (definite, long_witnesses)

    def test_agrees_with_generic_and_never_unknown(self):
        rng = random.Random(402)
        compared = 0
        for _ in range(120):
            a = random_nfa(rng, alphabet=DYCK_ALPHA, max_states=5, density=3.0)
            exact = rng.random() < 0.5
            fast = nreg_dyck(a, exact_d2=exact)
            assert fast.verdict is not Verdict.UNKNOWN
            slow = nreg_generic(NrrInstance(a, DyckOracle(exact)))
            if slow.verdict is Verdict.UNKNOWN:
                continue
            compared += 1
            assert fast.verdict is slow.verdict
        assert compared > 80


class TestPerkDecider:
    def test_copy_word_found(self):
        a = nfa_for_words(PerKFilter(2).alphabet, [("0", "1", "#", "0", "1", "#")])
        answer = nreg_perk(a, 2)
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ("0", "1", "#", "0", "1", "#")

    def test_differing_halves_rejected(self):
        a = nfa_for_words(PerKFilter(2).alphabet, [("0", "#", "1", "#")])
        assert nreg_perk(a, 2).verdict is Verdict.REJECT

    def test_universal_accepts_empty_copy(self):
        answer = nreg_perk(universal_nfa(PerKFilter(2).alphabet), 2)
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ("#", "#")

    def test_matches_brute_force(self):
        rng = random.Random(403)
        for k in (1, 2):
            filt = PerKFilter(k)
            copies = [
                tuple((list(v) + ["#"]) * k)
                for v in words_over(tuple(sigma_k(k)), 4)
            ]
            for _ in range(40):
                a = random_nfa(rng, alphabet=filt.alphabet, max_states=4, density=3.0)
                answer = nreg_perk(a, k)
                brute = any(a.accepts(w) for w in copies)
                if brute:
                    assert answer.verdict is Verdict.ACCEPT
                if answer.verdict is Verdict.REJECT:
                    assert not brute

    @staticmethod
    def mixed_action_runs(k):
        """nreg_perk on 40 seeded random copy automata of 5-7 states."""
        rng = random.Random(405)
        runs = []
        for _ in range(40):
            a = random_copy_nfa(rng, rng.randint(5, 7), k)
            runs.append((a, nreg_perk(a, k, SearchBounds(max_configs=20_000))))
        return runs

    def test_mixed_actions_match_brute_force(self, monkeypatch):
        k, max_v = 3, 4
        copies = [tuple((list(v) + ["#"]) * k) for v in words_over(tuple(sigma_k(k)), max_v)]
        runs = self.mixed_action_runs(k)
        verdicts = Counter()
        for a, answer in runs:
            verdicts[answer.verdict] += 1
            shortest = next((w for w in copies if path_accepts(a, w)), None)
            if answer.verdict is Verdict.ACCEPT:
                assert path_accepts(a, answer.witness)
                assert per_k_membership(answer.witness, k)
                # relations are searched shortest v first
                if shortest is None:
                    assert len(answer.witness) > len(copies[-1])
                else:
                    assert len(answer.witness) == len(shortest)
            else:
                assert shortest is None
        assert verdicts[Verdict.ACCEPT] >= 15 and verdicts[Verdict.REJECT] >= 8
        # a budget of 16 keeps step_each on its miss path nearly always
        monkeypatch.setattr(automata, "STEP_CACHE_ENTRIES", 16)
        again = self.mixed_action_runs(k)
        assert [answer for _, answer in again] == [answer for _, answer in runs]

    def test_unknown_under_tiny_cap(self):
        a = nfa_for_words(PerKFilter(1).alphabet, [("0", "0", "#")])
        answer = nreg_perk(a, 1, SearchBounds(max_configs=1, max_blocks=2, max_tape=2))
        assert answer.verdict is Verdict.UNKNOWN

    def test_decide_routes_by_filter(self):
        a = universal_nfa(PerKFilter(1).alphabet)
        assert decide(NrrInstance(a, PerKFilter(1))).verdict is Verdict.ACCEPT
        d = nfa_for_words(DYCK_ALPHA, [("push(", "(")])
        assert decide(NrrInstance(d, DyckOracle(True))).verdict is Verdict.REJECT
        s = nfa_for_words(SET_ALPHA, [("a", "#ins", "#")])
        assert decide(NrrInstance(s, SET)).verdict is Verdict.ACCEPT


def all_inputs(m, max_len):
    return words_over(tuple(m.input_alphabet), max_len)


def bounded_nonempty(m, oracle, max_len=5):
    hits = [w for w in all_inputs(m, max_len) if simulate(m, w, oracle) is Verdict.ACCEPT]
    return bool(hits)


class TestNonemptinessReduction:
    def test_queryless_machine_yields_empty_protocol(self):
        m = AdsAutomaton(
            write_states={"s"},
            query_states=set(),
            input_alphabet=AB,
            protocol=SET.alphabet,
            write_moves={("s", "a", (), "s"), ("s", "b", (), "s")},
            query_moves=set(),
            initial="s",
            accepting={"s"},
        )
        a = nonemptiness_to_nrr(m)
        answer = nreg_generic(NrrInstance(a, SET))
        assert answer.verdict is Verdict.ACCEPT
        assert answer.witness == ()

    def test_unsatisfiable_response_demand(self):
        m = AdsAutomaton(
            write_states={"acc"},
            query_states={"q0"},
            input_alphabet=AB,
            protocol=SET.alphabet,
            write_moves=set(),
            query_moves={("q0", "#test", "+#", "acc")},
            initial="q0",
            accepting={"acc"},
        )
        a = nonemptiness_to_nrr(m)
        assert nreg_generic(NrrInstance(a, SET)).verdict is Verdict.REJECT

    def test_verdict_matches_bounded_search(self):
        rng = random.Random(404)
        definite = agreements = 0
        for _ in range(30):
            m = random_ads(rng, SET.alphabet, max_states=3)
            a = nonemptiness_to_nrr(m)
            answer = nreg_generic(NrrInstance(a, SET))
            if answer.verdict is Verdict.UNKNOWN:
                continue
            definite += 1
            if (answer.verdict is Verdict.ACCEPT) == bounded_nonempty(m, SET):
                agreements += 1
        assert definite >= 25
        assert agreements == definite


class TestMembershipReduction:
    def build_all_inputs_machine(self):
        sis = SingleInsertOracle(1)
        m = AdsAutomaton(
            write_states={"w0", "acc"},
            query_states={"q0"},
            input_alphabet=AB,
            protocol=sis.alphabet,
            write_moves={("w0", None, ("0",), "q0"), ("acc", "a", (), "acc"), ("acc", "b", (), "acc")},
            query_moves={("q0", "ins", "+", "acc")},
            initial="w0",
            accepting={"acc"},
        )
        return m, sis

    def test_single_protocol_machine(self):
        m, sis = self.build_all_inputs_machine()
        dfa = membership_to_reg(m, ("a", "a"))
        assert set(dfa.enumerate_words(5)) == {("0", "ins", "+")}
        inst = NrrInstance(dfa, sis)
        assert nreg_generic(inst).verdict is Verdict.ACCEPT

    def test_pinned_dfa(self):
        # states are named e0, e1, ... in discovery order; a write of two
        # tokens passes a .w state, a query a .q state
        m, _ = self.build_all_inputs_machine()
        dfa = membership_to_reg(m, ("a", "a"))
        assert dfa.states == {"e0", "e1", "e1.q", "e2"}
        assert dfa.transitions == {("e0", "0", "e1"), ("e1", "ins", "e1.q"),
                                   ("e1.q", "+", "e2")}
        assert (dfa.initial, dfa.accepting) == ("e0", {"e2"})
        sis = SingleInsertOracle(1)
        m = AdsAutomaton(
            write_states={"w0", "acc"},
            query_states={"q0"},
            input_alphabet=AB,
            protocol=sis.alphabet,
            write_moves={("w0", "a", ("0", "0"), "q0"), ("acc", "a", (), "acc"),
                         ("acc", "b", ("0",), "acc")},
            query_moves={("q0", "ins", "+", "acc"), ("q0", "ins", "-", "w0")},
            initial="w0",
            accepting={"acc"},
        )
        dfa = membership_to_reg(m, ("a", "b"))
        assert dfa.states == {"e0", "e0.w1", "e1", "e1.q", "e2", "e3", "e4"}
        assert dfa.transitions == {
            ("e0", "0", "e0.w1"), ("e0.w1", "0", "e1"), ("e1", "ins", "e1.q"),
            ("e1.q", "+", "e2"), ("e1.q", "-", "e3"), ("e2", "0", "e4")}
        assert (dfa.initial, dfa.accepting) == ("e0", {"e4"})

    def test_rejected_input_fails_final_state_check(self):
        sis = SingleInsertOracle(1)
        m = AdsAutomaton(
            write_states={"w0", "acc"},
            query_states={"q0"},
            input_alphabet=AB,
            protocol=sis.alphabet,
            write_moves={("w0", "a", ("0",), "q0")},
            query_moves={("q0", "ins", "+", "acc")},
            initial="w0",
            accepting={"acc"},
        )
        good = membership_to_reg(m, ("a",))
        assert nreg_generic(NrrInstance(good, sis)).verdict is Verdict.ACCEPT
        bad = membership_to_reg(m, ("a", "a"))
        assert not bad.accepting
        assert nreg_generic(NrrInstance(bad, sis)).verdict is Verdict.REJECT

    def test_nondeterministic_machine_rejected(self):
        m = AdsAutomaton(
            write_states={"s"},
            query_states=set(),
            input_alphabet=AB,
            protocol=SET.alphabet,
            write_moves={("s", None, (), "s"), ("s", "a", (), "s")},
            query_moves=set(),
            initial="s",
            accepting={"s"},
        )
        with pytest.raises(ValueError, match="deterministic"):
            membership_to_reg(m, ("a",))

    def test_agrees_with_simulation(self):
        rng = random.Random(405)
        compared = 0
        for _ in range(20):
            m = random_ads(rng, SET.alphabet, max_states=4, det=True)
            for w in all_inputs(m, 3):
                direct = simulate(m, w, SET)
                if direct is Verdict.UNKNOWN:
                    continue
                dfa = membership_to_reg(m, w)
                reg = nreg_generic(NrrInstance(dfa, SET)).verdict
                if reg is Verdict.UNKNOWN:
                    continue
                compared += 1
                assert reg is direct, f"membership mismatch on {w!r}"
        assert compared > 200


class TestRoundTrip:
    def test_single_protocol_instance_gives_nonempty_machine(self):
        a = nfa_for_words(SET_ALPHA, [("a", "#ins", "#")])
        m = nrr_to_nonemptiness(a, SET.alphabet, SET)
        assert simulate(m, ("a", "#ins", "#"), SET) is Verdict.ACCEPT

    def test_empty_instance_gives_empty_machine(self):
        a = Nfa({"0"}, SET_ALPHA, set(), "0", set())
        m = nrr_to_nonemptiness(a, SET.alphabet, SET)
        assert not bounded_nonempty(m, SET, max_len=3)

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="alphabet"):
            nrr_to_nonemptiness(universal_nfa(AB), SET.alphabet, SET)

    def test_verdicts_survive_both_directions(self):
        rng = random.Random(406)
        checked = 0
        for _ in range(15):
            a = random_nfa(rng, alphabet=SET_ALPHA, max_states=3, density=2.5)
            here = nreg_generic(NrrInstance(a, SET))
            if here.verdict is Verdict.UNKNOWN:
                continue
            m = nrr_to_nonemptiness(a, SET.alphabet, SET)
            back = nreg_generic(NrrInstance(nonemptiness_to_nrr(m), SET))
            if back.verdict is Verdict.UNKNOWN:
                continue
            checked += 1
            assert back.verdict is here.verdict
        assert checked >= 10


class TestFilterTransfer:
    def test_identity_preserves_verdicts(self):
        rng = random.Random(407)
        t = identity_fst(SET_ALPHA)
        for _ in range(10):
            a = random_nfa(rng, alphabet=SET_ALPHA, max_states=4, density=2.5)
            before = nreg_generic(NrrInstance(a, SET)).verdict
            after = nreg_generic(NrrInstance(filter_transfer(a, t), SET)).verdict
            assert before is after

    def test_empty_instance_stays_no(self):
        a = Nfa({"0"}, PerKFilter(2).alphabet, set(), "0", set())
        moved = filter_transfer(a, spk_to_perk_fst(2))
        assert nreg_generic(NrrInstance(moved, SingleInsertOracle(2))).verdict is Verdict.REJECT

    def test_output_alphabet_must_match(self):
        with pytest.raises(ValueError, match="alphabet"):
            filter_transfer(universal_nfa(AB), spk_to_perk_fst(2))

    def test_copy_instances_transfer_to_single_insert(self):
        rng = random.Random(408)
        t = spk_to_perk_fst(2)
        sis = SingleInsertOracle(2)
        small = words_over(tuple(sigma_k(2)), 4)
        hits = definite = 0
        for _ in range(30):
            a = random_nfa(rng, alphabet=PerKFilter(2).alphabet, max_states=4, density=3.0)
            moved = filter_transfer(a, t)
            before = any(a.accepts(w + ("#",) + w + ("#",)) for w in small)
            after = any(
                moved.accepts(w + ("ins", "+") + w + ("test", "+")) for w in small
            )
            assert before == after
            hits += before
            direct = nreg_perk(a, 2)
            answer = nreg_generic(NrrInstance(moved, sis))
            if answer.verdict is not Verdict.UNKNOWN:
                assert answer.verdict is direct.verdict
                definite += 1
            if before:
                assert direct.verdict is Verdict.ACCEPT
        assert 0 < hits < 30
        # a search that walks each control's writes before asking can loop
        # on digit writes up to max_tape and miss the short witnesses
        assert definite >= 29


class TestCopyTransductions:
    def test_spk_to_perk_maps_insert_then_test(self):
        t = spk_to_perk_fst(2)
        res = t.apply(("0", "1", "ins", "+", "0", "1", "test", "+"))
        assert res.words == {("0", "1", "#", "0", "1", "#")}
        assert not res.truncated

    def test_spk_to_perk_rejects_other_shapes(self):
        t = spk_to_perk_fst(2)
        assert t.apply(("0", "test", "+", "0", "test", "+")).words == frozenset()
        assert t.apply(("0", "ins", "-", "0", "test", "+")).words == frozenset()
        assert t.apply(("0", "ins", "+")).words == frozenset()

    def test_perk_to_spk_mode_choices(self):
        t = perk_to_spk_fst(1)
        res = t.apply(("0", "#"), output_cap=6)
        assert ("0", "ins", "+") in res.words
        assert ("0", "test", "-") in res.words

    def test_perk_to_spk_validates_k(self):
        with pytest.raises(ValueError):
            perk_to_spk_fst(0)
        with pytest.raises(ValueError):
            spk_to_perk_fst(0)

    def expected_image(self, k, w, max_u):
        """Correct k-block protocols whose first ins word (if any) is w."""
        sis = SingleInsertOracle(k)
        us = words_over(tuple(sigma_k(k)), max_u)
        out = set()

        def rec(prefix, state, blocks, ins_seen):
            if blocks == k:
                out.add(tuple(prefix))
                return
            for u in us:
                for q in ("ins", "test"):
                    if q == "ins" and not ins_seen and u != w:
                        continue
                    r, nstate = sis.respond(state, u, q)
                    rec(prefix + list(u) + [q, r], nstate, blocks + 1, ins_seen or q == "ins")

        rec([], sis.initial_state(), 0, False)
        return out

    @pytest.mark.parametrize("k", [1, 2])
    def test_perk_to_spk_image_characterization(self, k):
        t = perk_to_spk_fst(k)
        sis = SingleInsertOracle(k)
        max_u = 3
        cap = k * (max_u + 2)
        for w in words_over(tuple(sigma_k(k)), 2):
            word = (w + ("#",)) * k
            res = t.apply(word, output_cap=cap)
            image = {
                p
                for p in res.words
                if all(len(b.u) <= max_u for b in parse_blocks(p, sis.alphabet))
            }
            assert image == self.expected_image(k, w, max_u), f"image mismatch at w={w!r}"

    def test_image_contains_double_insert(self):
        # the second insert of the same word answers -, and must be reachable
        t = perk_to_spk_fst(2)
        res = t.apply(("0", "#", "0", "#"), output_cap=8)
        assert ("0", "ins", "+", "0", "ins", "-") in res.words
