"""Parser/writer round trips for the four textual machine formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adskit

from adskit.ads import AdsAutomaton
from adskit.automata import Alphabet, Dfa, Nfa
from adskit.errors import FormatError
from adskit.formats import (
    dump_ads,
    dump_automaton,
    dump_fst,
    dump_tm,
    fst_dot,
    load_ads,
    load_automaton,
    load_fst,
    load_tm,
)
from adskit.logtm import LogTm, TmRule
from adskit.protocols import DyckOracle, SetOracle
from adskit.transducers import Fst

from genrand import random_dag_nfa
import random


NFA_TEXT = """\
# comment line
type nfa
states s0 s1 s2
alphabet a b
initial s0
accept s2

trans s0 a s1
trans s1 eps s2
trans s2 b s2
"""


class TestAutomata:
    def test_load_basic(self):
        a = load_automaton(NFA_TEXT)
        assert isinstance(a, Nfa) and not isinstance(a, Dfa)
        assert a.states == frozenset({"s0", "s1", "s2"})
        assert a.initial == "s0"
        assert a.accepting == frozenset({"s2"})
        assert ("s1", None, "s2") in a.transitions
        assert a.accepts(("a", "b"))

    def test_round_trip(self):
        a = load_automaton(NFA_TEXT)
        assert load_automaton(dump_automaton(a)) == a

    def test_dump_is_canonical(self):
        a = load_automaton(NFA_TEXT)
        assert dump_automaton(load_automaton(dump_automaton(a))) == dump_automaton(a)

    def test_dfa_type_preserved(self):
        text = ("type dfa\nstates q0 q1\nalphabet 0 1\ninitial q0\naccept q1\n"
                "trans q0 0 q1\ntrans q0 1 q0\ntrans q1 0 q1\ntrans q1 1 q1\n")
        d = load_automaton(text)
        assert isinstance(d, Dfa)
        again = load_automaton(dump_automaton(d))
        assert isinstance(again, Dfa) and again == d

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(40):
            a = random_dag_nfa(rng, max_states=6)
            assert load_automaton(dump_automaton(a)) == a

    def test_hash_only_comments_at_line_start(self):
        # '#' is an ordinary token mid-line: several protocols use it
        text = ("type nfa\nstates p q\nalphabet # a\ninitial p\naccept q\n"
                "trans p # q\n")
        a = load_automaton(text)
        assert a.accepts(("#",))

    def test_unknown_type(self):
        with pytest.raises(FormatError, match="unknown automaton type"):
            load_automaton("type pda\nstates s\nalphabet a\ninitial s\n")

    def test_unknown_type_is_named_on_its_own_line(self):
        with pytest.raises(FormatError, match="line 3: unknown automaton type 'pda'"):
            load_automaton("# a comment\nstates s\ntype pda\nalphabet a\ninitial s\n")

    def test_missing_states_line(self):
        with pytest.raises(FormatError, match="states"):
            load_automaton("type nfa\nalphabet a\ninitial s\n")

    def test_bad_transition_arity_has_line_number(self):
        text = "type nfa\nstates s\nalphabet a\ninitial s\naccept s\ntrans s a\n"
        with pytest.raises(FormatError, match="line 6"):
            load_automaton(text)

    def test_undeclared_symbol_rejected(self):
        text = ("type nfa\nstates s\nalphabet a\ninitial s\naccept s\n"
                "trans s b s\n")
        with pytest.raises(FormatError, match="alphabet"):
            load_automaton(text)

    def test_unknown_directive(self):
        text = NFA_TEXT + "frobnicate s0\n"
        with pytest.raises(FormatError, match="frobnicate"):
            load_automaton(text)

    def test_eps_reserved_in_alphabet(self):
        text = "type nfa\nstates s\nalphabet eps a\ninitial s\naccept s\n"
        with pytest.raises(FormatError):
            load_automaton(text)

    def test_no_accept_line_means_empty(self):
        text = "type nfa\nstates s\nalphabet a\ninitial s\ntrans s a s\n"
        a = load_automaton(text)
        assert a.accepting == frozenset()
        assert load_automaton(dump_automaton(a)) == a


FST_TEXT = """\
type fst
states t0 t1
alphabet a b
outalphabet x y
initial t0
accept t1
trans t0 a x,y t1
trans t0 b - t1
trans t1 eps x t1
"""


class TestTransducers:
    def test_load_basic(self):
        t = load_fst(FST_TEXT)
        assert ("t0", "a", ("x", "y"), "t1") in t.transitions
        assert ("t0", "b", (), "t1") in t.transitions
        assert ("t1", None, ("x",), "t1") in t.transitions

    def test_round_trip(self):
        t = load_fst(FST_TEXT)
        assert load_fst(dump_fst(t)) == t

    def test_empty_output_written_as_dash(self):
        t = load_fst(FST_TEXT)
        assert " b - " in dump_fst(t)

    def test_eps_forbidden_inside_word(self):
        bad = FST_TEXT.replace("x,y", "x,eps")
        with pytest.raises(FormatError, match="eps"):
            load_fst(bad)

    def test_dot_output_mentions_edges(self):
        dot = fst_dot(load_fst(FST_TEXT))
        assert dot.startswith("digraph") and "a/x·y" in dot

    def test_missing_outalphabet(self):
        text = FST_TEXT.replace("outalphabet x y\n", "")
        with pytest.raises(FormatError, match="outalphabet"):
            load_fst(text)


ADS_TEXT = """\
type ads
alphabet a b
partition wr w0 w1 acc
partition query q0
initial w0
accept acc
wmove w0 lm - w1
wmove w1 a a w1
wmove w1 b b,a w1
wmove w1 rm - q0
qmove q0 #ins # acc
"""


class TestStorageMachines:
    def test_load_basic(self):
        m = load_ads(ADS_TEXT, SetOracle().alphabet)
        assert m.write_states == frozenset({"w0", "w1", "acc"})
        assert m.query_states == frozenset({"q0"})
        assert ("w1", "b", ("b", "a"), "w1") in m.write_moves
        assert ("q0", "#ins", "#", "acc") in m.query_moves

    def test_round_trip_canonical(self):
        pa = SetOracle().alphabet
        m = load_ads(ADS_TEXT, pa)
        text = dump_ads(m)
        again = load_ads(text, pa)
        assert dump_ads(again) == text
        assert again.write_moves == m.write_moves
        assert again.query_moves == m.query_moves
        assert again.initial == m.initial and again.accepting == m.accepting

    def test_endmarkers_are_plain_tokens(self):
        m = load_ads(ADS_TEXT, SetOracle().alphabet)
        assert ("w0", "lm", (), "w1") in m.write_moves

    def test_wrong_protocol_rejected(self):
        with pytest.raises(FormatError):
            load_ads(ADS_TEXT, DyckOracle().alphabet)

    def test_bad_partition_kind(self):
        text = ADS_TEXT.replace("partition wr", "partition push")
        with pytest.raises(FormatError, match="partition kind"):
            load_ads(text, SetOracle().alphabet)

    def test_qmove_arity_line_number(self):
        text = ADS_TEXT + "qmove q0 #ins acc\n"
        with pytest.raises(FormatError, match="line 12"):
            load_ads(text, SetOracle().alphabet)


TM_TEXT = """\
type tm
tmstate p0 initial
tmstate loop
tmstate qs
tmstate acc accepting
tmstate rej rejecting
alphabet a b
workalphabet x
worksize 2
advicealphabet 0 1
rule p0 lm _ - -> loop _ R S hold
rule loop a _ 0 -> loop x R S consume
rule loop b _ - -> qs _ R S qwrite:a
rule loop rm _ - -> acc _ S S hold
query qs ask
onresp qs + acc
onresp qs - rej
"""


class TestLogSpaceMachines:
    def test_load_basic(self):
        tm = load_tm(TM_TEXT)
        assert tm.initial == "p0"
        assert tm.accepting == frozenset({"acc"})
        assert tm.rejecting == frozenset({"rej"})
        assert tm.work_size == 2
        assert ("qs", "ask") in tm.queries
        assert ("qs", "+", "acc") in tm.responses
        consume = [r for r in tm.rules if r.consume]
        assert len(consume) == 1 and consume[0].advice == "0"
        qw = [r for r in tm.rules if r.qwrite is not None]
        assert len(qw) == 1 and qw[0].qwrite == "a"

    def test_round_trip_canonical(self):
        tm = load_tm(TM_TEXT)
        text = dump_tm(tm)
        again = load_tm(text)
        assert dump_tm(again) == text
        assert again.rules == tm.rules
        assert again.states == tm.states
        assert again.queries == tm.queries and again.responses == tm.responses

    def test_no_advice_alphabet_round_trip(self):
        text = ("type tm\ntmstate s initial accepting\nalphabet a\n"
                "workalphabet x\nworksize 1\n")
        tm = load_tm(text)
        assert tm.advice_alphabet is None
        assert load_tm(dump_tm(tm)).advice_alphabet is None

    def test_blank_added_to_work_alphabet(self):
        tm = load_tm(TM_TEXT)
        assert "_" in tm.work_alphabet

    def test_two_initial_states_rejected(self):
        text = TM_TEXT.replace("tmstate loop", "tmstate loop initial")
        with pytest.raises(FormatError, match="initial"):
            load_tm(text)

    def test_consume_needs_advice(self):
        text = TM_TEXT.replace("0 -> loop x R S consume",
                               "- -> loop x R S consume")
        with pytest.raises(FormatError, match="consume"):
            load_tm(text)

    def test_hold_refuses_advice(self):
        text = TM_TEXT.replace("rule loop rm _ - -> acc _ S S hold",
                               "rule loop rm _ 0 -> acc _ S S hold")
        with pytest.raises(FormatError, match="hold"):
            load_tm(text)

    def test_worksize_must_be_integer(self):
        text = TM_TEXT.replace("worksize 2", "worksize two")
        with pytest.raises(FormatError, match="worksize"):
            load_tm(text)

    def test_unknown_rule_mode(self):
        text = TM_TEXT.replace("S S hold\nquery", "S S shout\nquery")
        with pytest.raises(FormatError, match="mode"):
            load_tm(text)



def _load_set_ads(text):
    return load_ads(text, SetOracle().alphabet)


class TestErrorLines:
    """A bad header line is named in the error, whatever the file kind."""

    @pytest.mark.parametrize("load, text", [
        (load_automaton, "type nfa\nstates s\nalphabet a a\ninitial s\n"),
        (load_fst, "type fst\nstates s\nalphabet a a\noutalphabet b\ninitial s\n"),
        (_load_set_ads, "type ads\npartition wr s\nalphabet a a\ninitial s\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a a\nworkalphabet x\nworksize 1\n"),
    ], ids=["nfa", "fst", "ads", "tm"])
    def test_duplicate_symbol_names_its_line(self, load, text):
        with pytest.raises(FormatError, match="^line 3: ") as err:
            load(text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("load, text", [
        (load_fst, "type fst\nstates s\nalphabet a\ninitial s\noutalphabet b b\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a\nworkalphabet x\nworksize two\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a\nworksize 1\nadvicealphabet 0 0\n"
                  "workalphabet x\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a\nworkalphabet x\nworksize 0\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a\nworkalphabet x\nworksize -2\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a\nworkalphabet x\nworksize 1_0\n"),
        (load_tm, "type tm\ntmstate s initial\nalphabet a\nworkalphabet x\nworksize +1\n"),
    ], ids=["fst-outalphabet", "tm-worksize", "tm-advicealphabet", "tm-worksize-zero",
            "tm-worksize-negative", "tm-worksize-underscore", "tm-worksize-plus"])
    def test_later_header_names_its_line(self, load, text):
        with pytest.raises(FormatError, match="^line 5: "):
            load(text)

    @pytest.mark.parametrize("size, message", [
        ("0", "work tape needs at least one cell"),
        ("-2", "work tape needs at least one cell"),
        ("1_0", "worksize must be an integer, got '1_0'"),
        ("+1", "worksize must be an integer, got '+1'"),
    ])
    def test_worksize_named_before_the_rules(self, size, message):
        text = (f"type tm\ntmstate p initial\ntmstate t accepting\nalphabet a\n"
                f"workalphabet x\nworksize {size}\nrule p lm _ - -> t _ S S hold\n")
        with pytest.raises(FormatError) as err:
            load_tm(text)
        assert str(err.value) == f"line 6: {message}"


class TestMoveLines:
    """A bad move, initial or accept line is named on the line where it is read."""

    TWO_BAD_MOVES = ("type nfa\nalphabet a\nstates s t\ninitial s\naccept t\n"
                     "trans s b t\ntrans s c t\ntrans s a t\n")

    def test_first_bad_move_is_named_whatever_the_hash_seed(self, tmp_path):
        path = tmp_path / "two_bad.nfa"
        path.write_text(self.TWO_BAD_MOVES)
        src = str(Path(adskit.__file__).resolve().parent.parent)
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "adskit.cli", "trim", str(path)],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 65, seed
            assert "line 6: transition symbol 'b' not in alphabet" in done.stderr, seed

    @pytest.mark.parametrize("load, text, message", [
        (load_automaton, "type nfa\nalphabet a\nstates s t\ninitial zz\naccept t\n"
                         "trans s a t\ntrans t a s\n",
         "line 4: initial state 'zz' not declared"),
        (load_automaton, "type nfa\nalphabet a\nstates s t\ninitial s\naccept t u\n"
                         "trans s a t\n",
         "line 5: accepting states must be declared states"),
        (load_automaton, "type nfa\nalphabet a\nstates s t\ninitial s\ntrans s a t\n"
                         "trans s a u\ntrans u a v\n",
         "line 6: transition ('s','a','u') uses undeclared state"),
        (load_automaton, "type dfa\nalphabet a\nstates s t\ninitial s\ntrans s a t\n"
                         "trans s a t\ntrans t a s\ntrans s a s\n",
         "line 8: DFA has two transitions from 's' on 'a'"),
        (load_automaton, "type dfa\nalphabet a\nstates s t\ninitial s\ntrans s a t\n"
                         "trans t eps s\ntrans t b s\n",
         "line 6: DFA cannot contain epsilon transitions"),
        (load_fst, "type fst\nalphabet a\noutalphabet b\nstates s t\ninitial zz\n"
                   "trans s a b t\n",
         "line 5: initial state not declared"),
        (load_fst, "type fst\nalphabet a\noutalphabet b\nstates s t\ninitial s\n"
                   "trans s a b,c t\ntrans s c b t\ntrans s a d t\n",
         "line 6: output symbol 'c' not declared"),
        (load_fst, "type fst\nalphabet a\noutalphabet b\nstates s t\ninitial s\n"
                   "trans s a b t\ntrans s c b t\ntrans u a b t\n",
         "line 7: input symbol 'c' not declared"),
    ], ids=["nfa-initial", "nfa-accept", "nfa-state", "dfa-fanout", "dfa-eps",
            "fst-initial", "fst-output", "fst-input"])
    def test_error_names_its_own_line(self, load, text, message):
        with pytest.raises(FormatError) as err:
            load(text)
        assert str(err.value) == message


# qmove first, so a move error is never on the last line of the file
ADS_LINES = """\
type ads
alphabet a b
partition wr w0 w1 acc
partition query q0
initial w0
accept acc
qmove q0 #ins # acc
wmove w0 lm - w1
wmove w1 a a w1
wmove w1 rm - q0
"""


def _replace_line(text, no, line):
    lines = text.splitlines()
    lines[no - 1] = line
    return "\n".join(lines) + "\n"


class TestStorageAndTmLines:
    """Storage and log-space machines name the line of the item their
    constructor rejects, checking fields first, then items in file order."""

    FOUND_ADS = ("type ads\nalphabet a\npartition wr w\ninitial w\naccept w\n"
                 "# two bad moves, then a good one\n"
                 "wmove w b - w\nwmove w c - w\nwmove w a - w\n")

    def test_first_bad_move_is_named_whatever_the_hash_seed(self, tmp_path):
        path = tmp_path / "two_bad.ads"
        path.write_text(self.FOUND_ADS)
        src = str(Path(adskit.__file__).resolve().parent.parent)
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            done = subprocess.run([sys.executable, "-m", "adskit.cli", "ads", "simulate",
                                   str(path), "a", "--oracle", "set"],
                                  env=env, capture_output=True, text=True)
            assert done.returncode == 65, seed
            assert "line 7: write move reads undeclared symbol 'b'" in done.stderr, seed

    @pytest.mark.parametrize("no, line, message", [
        (5, "initial zz", "initial state 'zz' not a state"),
        (6, "accept acc zz", "accepting states must be states"),
        (2, "alphabet a lm", "'lm' and 'rm' are reserved for the endmarkers"),
        (9, "wmove q0 a a w1", "write move from non-write state 'q0'"),
        (9, "wmove w1 a a zz", "write move into unknown state 'zz'"),
        (9, "wmove w1 c a w1", "write move reads undeclared symbol 'c'"),
        (9, "wmove w1 a z w1", "write move emits tokens outside the write alphabet: ('z',)"),
        (7, "qmove w0 #ins # acc", "query move from non-query state 'w0'"),
        (7, "qmove q0 #ins # q0", "query move must land in a write state, got 'q0'"),
        (7, "qmove q0 #ins +# acc", "query move uses invalid pair ('#ins','+#')"),
    ], ids=["initial", "accept", "alphabet", "wmove-src", "wmove-dst", "wmove-input",
            "wmove-write", "qmove-src", "qmove-dst", "qmove-pair"])
    def test_ads_error_names_its_own_line(self, no, line, message):
        with pytest.raises(FormatError) as err:
            _load_set_ads(_replace_line(ADS_LINES, no, line))
        assert str(err.value) == f"line {no}: {message}"

    def test_first_of_two_bad_rules_is_named(self):
        # the second rule sorts first by repr, which is the order the
        # machine keeps its rules in
        text = ("type tm\ntmstate p initial\ntmstate t accepting\nalphabet a\n"
                "workalphabet x\nworksize 1\nrule p lm _ - -> t _ S S hold\n"
                "rule p a _ - -> t _ S S hold\nrule p rm _ - -> t _ X S hold\n"
                "rule p b _ - -> t _ S S hold\n")
        with pytest.raises(FormatError) as err:
            load_tm(text)
        assert str(err.value) == "line 9: head moves must be L, R or S"

    @pytest.mark.parametrize("no, line, message", [
        (15, "query acc ask", "query states must be declared, non-halting states"),
        (16, "onresp qs + zz", "response target not declared"),
        (9, "worksize 0", "work tape needs at least one cell"),
        (7, "alphabet a b rm", "'rm' is reserved for the input endmarkers"),
        (10, "advicealphabet 0 Λ", "'Λ' is reserved for advice padding"),
    ], ids=["query", "onresp", "worksize", "alphabet", "advicealphabet"])
    def test_tm_error_names_its_own_line(self, no, line, message):
        with pytest.raises(FormatError) as err:
            load_tm(_replace_line(TM_TEXT, no, line))
        assert str(err.value) == f"line {no}: {message}"

    def test_a_line_that_does_not_parse_comes_before_a_bad_field(self):
        text = _replace_line(_replace_line(TM_TEXT, 9, "worksize 0"), 14,
                             "rule loop rm _ - -> acc _ S S")
        with pytest.raises(FormatError, match="^line 14: rule needs"):
            load_tm(text)

    def test_a_bad_field_comes_before_an_unknown_directive(self):
        with pytest.raises(FormatError, match="^line 5: initial state 'zz'"):
            _load_set_ads(_replace_line(ADS_LINES, 5, "initial zz") + "frobnicate\n")
