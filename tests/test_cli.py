"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv); stdout is the report under
test.  Fixture files live in tmp_path so every test owns its inputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adskit
from adskit.cli import main
from adskit.formats import load_ads, load_automaton, load_fst
from adskit.automata import Dfa
from adskit.protocols import SetOracle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DYCK_NFA = """\
type nfa
states s0 s1 s2 s3 s4
alphabet push( push[ pop ( ) [ ]
initial s0
accept s4
trans s0 push( s1
trans s1 ( s2
trans s2 pop s3
trans s3 ) s4
"""

AB_NFA = """\
type nfa
states n0 n1
alphabet a b
initial n0
accept n1
trans n0 a n1
trans n1 b n1
"""

DUP_FST = """\
type fst
states t0
alphabet a b
outalphabet a b
initial t0
accept t0
trans t0 a a,a t0
trans t0 b b t0
"""

SWAP_FST = """\
type fst
states u0
alphabet a b
outalphabet a b
initial u0
accept u0
trans u0 a b u0
trans u0 b a u0
"""

INS_ADS = """\
type ads
alphabet a b
partition wr w0 w1 acc
partition query q0
initial w0
accept acc
wmove w0 lm - w1
wmove w1 a a w1
wmove w1 b b w1
wmove w1 rm - q0
qmove q0 #ins # acc
"""

WRITE_LOOP_NFA = """\
type nfa
states s0 s1
alphabet a b #ins #out #test # +# -#
initial s0
accept s1
trans s0 a s1
trans s1 a s1
"""

EVEN_TM = """\
type tm
tmstate p0 initial
tmstate even
tmstate odd
tmstate acc accepting
alphabet a b
workalphabet x
worksize 1
rule p0 lm _ - -> even _ R S hold
rule even a _ - -> odd _ R S hold
rule even b _ - -> odd _ R S hold
rule odd a _ - -> even _ R S hold
rule odd b _ - -> even _ R S hold
rule even rm _ - -> acc _ S S hold
"""

UNI_NFA = """\
type nfa
states v0 v1 v2 v3
alphabet 0 1 # + - r
initial v0
accept v3
trans v0 0 v1
trans v1 # v2
trans v2 + v3
"""

# 16-state graded DAG whose oracle-call count depends on the order in
# which the transition sets visit middle states
SEEDED_DAG_NFA = """\
type nfa
alphabet 0 1 # + - r
states v0 v1 v10 v11 v12 v13 v14 v15 v2 v3 v4 v5 v6 v7 v8 v9
initial v0
accept v15 v3 v5
trans v0 0 v2
trans v0 1 v2
trans v1 0 v4
trans v1 1 v4
trans v10 0 v12
trans v10 1 v11
trans v11 0 v14
trans v11 1 v13
trans v12 0 v15
trans v12 1 v15
trans v13 1 v14
trans v13 r v14
trans v14 0 v15
trans v14 r v15
trans v2 0 v4
trans v3 1 v5
trans v4 0 v6
trans v4 1 v5
trans v5 1 v6
trans v5 1 v7
trans v6 0 v7
trans v6 0 v8
trans v7 0 v10
trans v7 1 v9
trans v8 1 v11
trans v8 1 v9
trans v9 1 v12
"""

# 32-state bracket automaton with more than one shortest prefix-mode witness
SEEDED_BRACKET_NFA = """\
type nfa
alphabet push( push[ pop ( ) [ ]
states b0 b1 b2 b3 b4 b5 b6 b7 m0.0 m0.1 m0.2 m1.0 m1.1 m1.2 m2.0 m2.1 m2.2 m3.0 m3.1 m3.2 m4.0 m4.1 m4.2 m5.0 m5.1 m5.2 m6.0 m6.1 m6.2 m7.0 m7.1 m7.2
initial b0
accept b2 b6
trans b0 pop m0.0
trans b0 push[ m0.1
trans b0 push[ m0.2
trans b1 pop m1.0
trans b1 push[ m1.1
trans b1 push[ m1.2
trans b2 pop m2.0
trans b2 pop m2.1
trans b2 push( m2.2
trans b3 pop m3.2
trans b3 push( m3.0
trans b3 push[ m3.1
trans b4 pop m4.1
trans b4 push( m4.0
trans b4 push[ m4.2
trans b5 pop m5.0
trans b5 pop m5.1
trans b5 push( m5.2
trans b6 pop m6.0
trans b6 pop m6.1
trans b6 push( m6.2
trans b7 pop m7.0
trans b7 pop m7.1
trans b7 push( m7.2
trans m0.0 ) b1
trans m0.1 [ b3
trans m0.2 [ b7
trans m1.0 ] b2
trans m1.1 [ b4
trans m1.2 [ b0
trans m2.0 ) b3
trans m2.1 ) b5
trans m2.2 ( b1
trans m3.0 ( b4
trans m3.1 [ b6
trans m3.2 ) b2
trans m4.0 ( b5
trans m4.1 ) b7
trans m4.2 [ b3
trans m5.0 ] b6
trans m5.1 ] b0
trans m5.2 ( b4
trans m6.0 ] b7
trans m6.1 ] b1
trans m6.2 ( b5
trans m7.0 ] b0
trans m7.1 ) b2
trans m7.2 ( b6
"""

# 10-state automaton over the set protocol alphabet; the set-filter search
# finds a 17-token witness
SEEDED_SET_NFA = """\
type nfa
alphabet a b #ins #out #test # +# -#
states s0 s1 s2 s3 s4 s5 s6 s7 s8 s9
initial s0
accept s9
trans s0 #test s1
trans s0 a s4
trans s0 b s6
trans s1 # s5
trans s1 a s2
trans s1 a s6
trans s2 # s3
trans s2 #ins s0
trans s2 #ins s5
trans s3 +# s1
trans s3 a s5
trans s4 #ins s2
trans s4 -# s1
trans s4 a s1
trans s5 +# s9
trans s5 -# s4
trans s5 a s4
trans s6 #test s5
trans s6 -# s0
trans s6 -# s3
trans s7 # s0
trans s7 +# s8
trans s8 +# s5
trans s8 -# s8
trans s8 a s2
trans s9 # s5
trans s9 #test s2
trans s9 b s7
"""

# 5-state copy-filter automaton with mixed digit actions; per:3 finds the
# witness (1 0 2 #)^3
SEEDED_COPY_NFA = """\
type nfa
alphabet 0 1 2 #
states c0 c1 c2 c3 c4
initial c0
accept c1
trans c0 # c4
trans c0 1 c3
trans c0 2 c3
trans c1 # c1
trans c1 0 c0
trans c1 1 c2
trans c1 2 c4
trans c2 0 c4
trans c2 1 c1
trans c2 2 c2
trans c3 # c0
trans c3 0 c4
trans c3 1 c4
trans c3 2 c0
trans c4 # c3
trans c4 0 c4
trans c4 1 c0
trans c4 2 c1
"""

# small set-store machine; simulate accepts the input b,a
SEEDED_SET_ADS = """\
type ads
alphabet a b
partition wr w0 w1 w2
partition query q0
initial w2
accept q0 w2
wmove w0 a b q0
wmove w1 a b,b w1
wmove w1 eps a,b q0
wmove w2 b a,a w1
qmove q0 #out # w2
qmove q0 #test +# w0
"""

# 5-state transducer with epsilon moves, silent moves and outputs of up to
# three letters, and a 4-state automaton over its alphabet; letter_split,
# compose and invert all make fresh and paired state names from them
SEEDED_FST = """\
type fst
alphabet a b
outalphabet a b
states t0 t1 t2 t3 t4
initial t0
accept t0 t2
trans t0 a a t2
trans t0 a b,a t2
trans t0 a b,a,b t1
trans t0 b a t2
trans t1 eps b,a,b t0
trans t2 a a t1
trans t2 b b t2
trans t2 b - t2
trans t2 b - t3
trans t2 eps a,b,a t4
"""

SEEDED_AB_NFA = """\
type nfa
alphabet a b
states s0 s1 s2 s3
initial s0
accept s2 s3
trans s0 a s2
trans s0 b s0
trans s1 a s3
trans s1 b s2
trans s1 eps s0
trans s2 a s0
trans s2 a s3
trans s2 eps s0
trans s3 a s0
"""


PAD_DFA = """\
type dfa
states d0 d1
alphabet a Λ
initial d0
accept d1
trans d0 a d1
trans d1 a d0
trans d0 Λ d0
trans d1 Λ d1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("dyck.nfa", DYCK_NFA), ("ab.nfa", AB_NFA),
                       ("dup.fst", DUP_FST), ("swap.fst", SWAP_FST),
                       ("ins.ads", INS_ADS), ("loop.nfa", WRITE_LOOP_NFA),
                       ("even.tm", EVEN_TM), ("uni.nfa", UNI_NFA),
                       ("pad.dfa", PAD_DFA)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    members = tmp_path / "x.members"
    members.write_text("0\n10\n")
    paths["x.members"] = str(members)
    return paths


class TestReadmeExamples:
    def test_nrr_decide_dyck_witness(self, capsys, files):
        code, out, _ = run(capsys, "nrr", "decide", files["dyck.nfa"],
                           "--filter", "dyck")
        assert code == 0
        assert "verdict: accept" in out
        assert "witness: push( ( pop )" in out

    def test_universality_forward(self, capsys):
        code, out, _ = run(capsys, "universality", "forward", "0")
        assert code == 0
        assert out.strip() == "01110111 # +"

    def test_protocol_fuzz_clean(self, capsys):
        code, out, _ = run(capsys, "protocol", "fuzz", "--oracle", "set",
                           "--axiom", "v", "--trials", "1000")
        assert code == 0
        assert "0 violations" in out


class TestExitCodes:
    def test_yes_no_unknown(self, capsys, files):
        assert run(capsys, "accepts", files["ab.nfa"], "a")[0] == 0
        assert run(capsys, "accepts", files["ab.nfa"], "b")[0] == 1
        code, out, _ = run(capsys, "nrr", "decide", files["loop.nfa"],
                           "--filter", "set")
        assert code == 2 and "verdict: unknown" in out

    def test_usage_errors(self, capsys, files):
        assert run(capsys, "frobnicate")[0] == 64
        assert run(capsys, "nrr", "decide", files["ab.nfa"],
                   "--filter", "nope")[0] == 64
        assert run(capsys, "accepts", files["ab.nfa"], "a",
                   "--format", "dot")[0] == 64

    def test_data_errors(self, capsys, tmp_path):
        assert run(capsys, "accepts", str(tmp_path / "missing.nfa"), "a")[0] == 65
        bad = tmp_path / "bad.nfa"
        bad.write_text("type nfa\nstates s\nalphabet a\ninitial s\naccept s\n"
                       "trans s b s\n")
        code, _, err = run(capsys, "trim", str(bad))
        assert code == 65
        assert "line 6" in err

    def test_logtm_bounds_needs_oracle(self, capsys, files):
        code, _, err = run(capsys, "logtm", "run", files["even.tm"], "a,b",
                           "--bounds", "max-configs=1")
        assert code == 64 and "--bounds" in err

    def test_logtm_step_cap_needs_advice_run(self, capsys, files):
        code, _, err = run(capsys, "logtm", "run", files["even.tm"], "a,b",
                           "--oracle", "set", "--step-cap", "1")
        assert code == 64 and "--step-cap" in err
        assert run(capsys, "logtm", "run", files["even.tm"], "a,b",
                   "--step-cap", "1")[0] == 2

    def test_logtm_advice_needs_advice_run(self, capsys, files):
        code, out, err = run(capsys, "logtm", "run", files["even.tm"], "a,b",
                             "--oracle", "set", "--advice", "zz")
        assert code == 64 and "--advice" in err and out == ""

    @pytest.mark.parametrize("filt", ["dyck", "dyck-exact"])
    def test_nrr_bounds_need_a_searched_filter(self, capsys, files, filt):
        code, out, err = run(capsys, "nrr", "decide", files["dyck.nfa"],
                             "--filter", filt, "--bounds", "max-configs=1")
        assert code == 64 and "--bounds" in err and out == ""
        assert run(capsys, "nrr", "decide", files["loop.nfa"], "--filter", "set",
                    "--bounds", "max-configs=1")[0] == 2

    @pytest.mark.parametrize("argv, flag", [
        (["logtm", "run", "even.tm", "a,b", "--step-cap", "0"], "--step-cap"),
        (["fst", "apply", "dup.fst", "--cap", "-1"], "--cap"),
        (["protocol", "fuzz", "--oracle", "set", "--axiom", "v",
          "--trials", "-5"], "--trials"),
        (["protocol", "fuzz", "--oracle", "set", "--axiom", "v",
          "--max-len", "-1"], "--max-len"),
        (["nrr", "decide", "loop.nfa", "--filter", "per:0"], "per:0"),
        (["nrr", "decide", "loop.nfa", "--filter", "sis:0"], "sis:0"),
        (["ads", "simulate", "ins.ads", "a", "--oracle", "sis:0"], "sis:0"),
    ], ids=["step-cap", "cap", "trials", "max-len", "filter-per", "filter-sis",
            "oracle-sis"])
    def test_count_below_range_is_usage_error(self, capsys, files, argv, flag):
        code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 64 and flag in err and out == ""

    @pytest.mark.parametrize("argv, named", [
        (["protocol", "fuzz", "--oracle", "sis:\u00b2", "--axiom", "v"], "sis:\u00b2"),
        (["nrr", "decide", "loop.nfa", "--filter", "per:\u00b2"], "per:\u00b2"),
        (["ads", "simulate", "ins.ads", "a", "--oracle", "set",
          "--bounds", "max-tape=\u00b2"], "max-tape=\u00b2"),
        (["ads", "simulate", "ins.ads", "a", "--oracle", "set",
          "--bounds", "max-tape=--5"], "bad bounds component 'max-tape=--5'"),
    ], ids=["oracle-sis", "filter-per", "bounds", "bounds-double-minus"])
    def test_non_decimal_digits_are_usage_errors(self, capsys, files, argv, named):
        code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 64 and named in err and out == ""

    @pytest.mark.parametrize("argv, noun, other", [
        (["protocol", "member", "a", "--oracle", "sis:0"], "bad oracle 'sis:0'", "filter"),
        (["protocol", "member", "a", "--oracle", "sis:x"], "unknown oracle 'sis:x'", "filter"),
        (["nrr", "reduce-to-ads", "dyck.nfa", "--filter", "per:2"], "unknown filter 'per:2'",
         "oracle"),
    ], ids=["oracle-range", "oracle-digits", "reduce-to-ads-filter"])
    def test_store_errors_name_their_flag(self, capsys, files, argv, noun, other):
        code, out, err = run(capsys, *(files.get(arg, arg) for arg in argv))
        assert code == 64 and noun in err and other not in err and out == ""

    @pytest.mark.parametrize("argv, named", [
        (["logtm", "run", "missing.tm", "a", "--oracle", "bogus"], "bogus"),
        (["logtm", "run", "missing.tm", "a", "--oracle", "set",
          "--bounds", "max-tape=x"], "max-tape=x"),
        (["ads", "simulate", "missing.ads", "a", "--oracle", "set",
          "--bounds", "max-tape=x"], "max-tape=x"),
        (["nrr", "decide", "missing.nfa", "--filter", "set",
          "--bounds", "max-tape=x"], "max-tape=x"),
        (["universality", "lmember", "012", "--oracle-file", "missing.members"], "012"),
        (["accepts", "missing.nfa", "a", "--format", "dot"], "'dot'"),
        (["nrr", "reduce-to-ads", "missing.nfa", "--filter", "set", "--format", "dot"],
         "'dot'"),
        (["ads", "recode", "missing.ads", "--oracle", "set", "--format", "dot"], "DOT"),
    ], ids=["logtm-oracle", "logtm-bounds", "ads-bounds", "nrr-bounds", "lmember-word",
            "accepts-dot", "reduce-to-ads-dot", "recode-machine-dot"])
    def test_usage_error_wins_over_unreadable_file(self, capsys, tmp_path, argv, named):
        argv = [str(tmp_path / arg) if arg.startswith("missing.") else arg for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code == 64 and named in err and out == ""

    @pytest.mark.parametrize("argv, named", [
        (["universality", "forward", "012"], "binary word expected, got '012'"),
        (["universality", "wparams", "0", "2", "0"], "binary word expected, got '2'"),
        (["universality", "wparams", "0", "0", ""], "triple components must be non-empty"),
    ], ids=["forward", "wparams", "wparams-empty"])
    def test_bad_binary_word_is_usage_error(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 64 and named in err and out == ""

    def test_bad_bounds_is_usage_error(self, capsys, files):
        assert run(capsys, "ads", "simulate", files["ins.ads"], "a",
                   "--oracle", "set", "--bounds", "max-configs=x")[0] == 64

    @pytest.mark.parametrize("bounds, message", [
        ("max-blocks=-1", "max-blocks must be at least 0, got -1"),
        ("max-tape=1,max-tape=2", "max-tape given twice"),
    ], ids=["negative", "repeated"])
    def test_bounds_out_of_range_or_repeated_is_usage_error(self, capsys, files,
                                                            bounds, message):
        code, out, err = run(capsys, "ads", "simulate", files["ins.ads"], "a",
                             "--oracle", "set", "--bounds", bounds)
        assert code == 64 and message in err and out == ""


class TestReports:
    def test_byte_identical_runs(self, capsys, files):
        first = run(capsys, "nrr", "decide", files["dyck.nfa"], "--filter", "dyck")
        second = run(capsys, "nrr", "decide", files["dyck.nfa"], "--filter", "dyck")
        assert first == second
        fuzz1 = run(capsys, "protocol", "fuzz", "--oracle", "dyck",
                    "--axiom", "ii", "--trials", "200", "--seed", "5")
        fuzz2 = run(capsys, "protocol", "fuzz", "--oracle", "dyck",
                    "--axiom", "ii", "--trials", "200", "--seed", "5")
        assert fuzz1 == fuzz2

    def test_reports_ignore_hash_seed(self, tmp_path):
        (tmp_path / "dag.nfa").write_text(SEEDED_DAG_NFA)
        (tmp_path / "x.members").write_text("000\n001\n1\n100\n110\n")
        (tmp_path / "bracket.nfa").write_text(SEEDED_BRACKET_NFA)
        (tmp_path / "copy.nfa").write_text(SEEDED_COPY_NFA)
        (tmp_path / "set.ads").write_text(SEEDED_SET_ADS)
        commands = [
            ["universality", "decide", "dag.nfa", "--oracle-file", "x.members"],
            ["nrr", "decide", "bracket.nfa", "--filter", "dyck"],
            ["nrr", "decide", "copy.nfa", "--filter", "per:3"],
            ["ads", "simulate", "set.ads", "b,a", "--oracle", "set"],
        ]
        src = str(Path(adskit.__file__).resolve().parent.parent)
        for argv in commands:
            runs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                done = subprocess.run([sys.executable, "-m", "adskit.cli", *argv],
                                      cwd=tmp_path, env=env, capture_output=True,
                                      text=True)
                runs.append((done.returncode, done.stdout))
            assert runs[0] == runs[1], argv

    def test_products_and_set_searches_ignore_hash_seed(self, tmp_path):
        (tmp_path / "bracket.nfa").write_text(SEEDED_BRACKET_NFA)
        (tmp_path / "set.nfa").write_text(SEEDED_SET_NFA)
        commands = [
            ["product", "bracket.nfa", "bracket.nfa", "--format", "dot"],
            ["nrr", "decide", "set.nfa", "--filter", "set"],
        ]
        src = str(Path(adskit.__file__).resolve().parent.parent)
        for argv in commands:
            runs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                done = subprocess.run([sys.executable, "-m", "adskit.cli", *argv],
                                      cwd=tmp_path, env=env, capture_output=True,
                                      text=True)
                runs.append((done.returncode, done.stdout))
            assert runs[0] == runs[1], argv
            assert runs[0][0] == 0 and runs[0][1], argv

    def test_transducer_reports_ignore_hash_seed(self, tmp_path):
        (tmp_path / "seeded.fst").write_text(SEEDED_FST)
        (tmp_path / "seeded.nfa").write_text(SEEDED_AB_NFA)
        commands = [
            ["fst", "apply", "seeded.fst", "a,b,a", "--cap", "8"],
            ["fst", "apply", "seeded.fst", "a,b,a", "--cap", "8", "--format", "jsonl"],
            ["fst", "compose", "seeded.fst", "seeded.fst"],
            ["fst", "invert", "seeded.fst"],
            ["fst", "image", "seeded.fst", "seeded.nfa"],
            ["fst", "preimage", "seeded.fst", "seeded.nfa"],
        ]
        src = str(Path(adskit.__file__).resolve().parent.parent)
        for argv in commands:
            runs = []
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
                done = subprocess.run([sys.executable, "-m", "adskit.cli", *argv],
                                      cwd=tmp_path, env=env, capture_output=True,
                                      text=True)
                runs.append((done.returncode, done.stdout))
            assert runs[0] == runs[1], argv
            assert runs[0][0] == 0 and runs[0][1], argv

    def test_jsonl_mirrors_text(self, capsys, files):
        _, text, _ = run(capsys, "universality", "decide", files["uni.nfa"],
                         "--oracle-file", files["x.members"])
        _, lines, _ = run(capsys, "universality", "decide", files["uni.nfa"],
                          "--oracle-file", files["x.members"],
                          "--format", "jsonl")
        record = json.loads(lines)
        text_keys = [line.split(":")[0] for line in text.strip().splitlines()]
        assert list(record) == text_keys

    def test_accepts_report_shape(self, capsys, files):
        _, out, _ = run(capsys, "accepts", files["ab.nfa"], "a,b,b")
        assert out == "accepts: yes\n"


class TestMachineEmission:
    def test_trim_round_trips(self, capsys, files):
        code, out, _ = run(capsys, "trim", files["dyck.nfa"])
        assert code == 0
        emitted = load_automaton(out)
        assert emitted == load_automaton(DYCK_NFA).trim()

    def test_product_round_trips(self, capsys, files):
        code, out, _ = run(capsys, "product", files["ab.nfa"], files["ab.nfa"])
        assert code == 0
        assert load_automaton(out).accepts(("a", "b"))

    @pytest.mark.parametrize("argv", [
        ["trim", "dyck.nfa"],
        ["product", "ab.nfa", "ab.nfa"],
        ["fst", "compose", "dup.fst", "swap.fst"],
        ["fst", "invert", "swap.fst"],
        ["fst", "image", "dup.fst", "ab.nfa"],
        ["fst", "preimage", "swap.fst", "ab.nfa"],
        ["ads", "extract", "ins.ads", "--oracle", "set"],
        ["ads", "recode", "ins.ads", "--oracle", "set", "--emit", "decoder"],
        ["nrr", "reduce-from-ads", "ins.ads", "--oracle", "set"],
        ["nrr", "member-to-reg", "ins.ads", "a", "--oracle", "set"],
        ["nrr", "filter-transfer", "ab.nfa", "swap.fst"],
        ["logtm", "surface-nfa", "even.tm", "a,b"],
        ["logtm", "lambda-elim", "pad.dfa"],
    ], ids=["trim", "product", "fst-compose", "fst-invert", "fst-image", "fst-preimage",
            "ads-extract", "ads-recode", "nrr-reduce-from-ads", "nrr-member-to-reg",
            "nrr-filter-transfer", "logtm-surface-nfa", "logtm-lambda-elim"])
    def test_dot_output(self, capsys, files, argv):
        code, out, _ = run(capsys, *(files.get(arg, arg) for arg in argv),
                           "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_jsonl_machine_record_parses(self, capsys, files):
        _, out, _ = run(capsys, "trim", files["dyck.nfa"], "--format", "jsonl")
        record = json.loads(out)
        assert load_automaton(record["machine"]) == load_automaton(DYCK_NFA).trim()

    def test_fst_compose_semantics(self, capsys, files):
        code, out, _ = run(capsys, "fst", "compose", files["dup.fst"],
                           files["swap.fst"])
        assert code == 0
        composed = load_fst(out)
        assert composed.apply(("a",)).words == {("b", "b")}

    def test_fst_invert_round_trips(self, capsys, files):
        _, out, _ = run(capsys, "fst", "invert", files["swap.fst"])
        inv = load_fst(out)
        assert inv.apply(("b",)).words == {("a",)}

    def test_fst_image_preimage(self, capsys, files):
        _, image, _ = run(capsys, "fst", "image", files["dup.fst"], files["ab.nfa"])
        assert load_automaton(image).accepts(("a", "a", "b"))
        _, pre, _ = run(capsys, "fst", "preimage", files["swap.fst"], files["ab.nfa"])
        assert load_automaton(pre).accepts(("b", "a"))

    def test_ads_emissions_parse_back(self, capsys, files):
        _, ext, _ = run(capsys, "ads", "extract", files["ins.ads"],
                        "--oracle", "set")
        load_fst(ext)
        _, mp, _ = run(capsys, "ads", "mprot", "--oracle", "set")
        load_ads(mp, SetOracle().alphabet)
        _, rec, _ = run(capsys, "ads", "recode", files["ins.ads"],
                        "--oracle", "set")
        load_ads(rec, SetOracle().alphabet)
        _, dec, _ = run(capsys, "ads", "recode", files["ins.ads"],
                        "--oracle", "set", "--emit", "decoder")
        load_fst(dec)

    def test_nrr_reductions_parse_back(self, capsys, files):
        _, a_text, _ = run(capsys, "nrr", "reduce-from-ads", files["ins.ads"],
                           "--oracle", "set")
        load_automaton(a_text)
        _, m_text, _ = run(capsys, "nrr", "reduce-to-ads", files["dyck.nfa"],
                           "--filter", "dyck")
        from adskit.protocols import DyckOracle
        load_ads(m_text, DyckOracle().alphabet)
        _, d_text, _ = run(capsys, "nrr", "member-to-reg", files["ins.ads"], "a",
                           "--oracle", "set")
        assert isinstance(load_automaton(d_text), Dfa)

    def test_filter_transfer_parses_back(self, capsys, files):
        _, out, _ = run(capsys, "nrr", "filter-transfer", files["ab.nfa"],
                        files["swap.fst"])
        load_automaton(out)


class TestFstApply:
    def test_outputs_listed(self, capsys, files):
        code, out, _ = run(capsys, "fst", "apply", files["dup.fst"], "a,b")
        assert code == 0
        assert "outputs: a,a,b" in out
        assert "truncated: no" in out

    def test_no_output_exits_one(self, capsys, files):
        code, out, _ = run(capsys, "fst", "apply", files["swap.fst"])
        assert code == 0  # empty input maps to the empty output word
        assert "outputs: -" in out

    def test_jsonl_outputs(self, capsys, files):
        _, out, _ = run(capsys, "fst", "apply", files["dup.fst"], "a",
                        "--format", "jsonl")
        record = json.loads(out)
        assert record["outputs"] == [["a", "a"]]


class TestAdsAndLogtm:
    def test_simulate_accepts(self, capsys, files):
        code, out, _ = run(capsys, "ads", "simulate", files["ins.ads"], "a,b",
                           "--oracle", "set")
        assert code == 0 and "verdict: accept" in out

    def test_logtm_run_parity(self, capsys, files):
        assert run(capsys, "logtm", "run", files["even.tm"], "a,b")[0] == 0
        assert run(capsys, "logtm", "run", files["even.tm"], "a,b,a")[0] == 1

    def test_surface_nfa_parses_back(self, capsys, files):
        code, out, _ = run(capsys, "logtm", "surface-nfa", files["even.tm"], "a,b")
        assert code == 0
        load_automaton(out)

    def test_surface_nfa_stdout_is_pinned(self, capsys, files):
        code, out, _ = run(capsys, "logtm", "surface-nfa", files["even.tm"], "a,b")
        assert code == 0
        assert out == (
            "type nfa\n"
            "alphabet Λ\n"
            "states acc|_|0|3 even|_|0|1 even|_|0|3 odd|_|0|2 p0|_|0|0\n"
            "initial p0|_|0|0\n"
            "accept acc|_|0|3\n"
            "trans acc|_|0|3 Λ acc|_|0|3\n"
            "trans even|_|0|1 eps odd|_|0|2\n"
            "trans even|_|0|3 eps acc|_|0|3\n"
            "trans odd|_|0|2 eps even|_|0|3\n"
            "trans p0|_|0|0 eps even|_|0|1\n"
        )

    def test_lambda_elim_stdout_is_pinned(self, capsys, files):
        code, out, _ = run(capsys, "logtm", "lambda-elim", files["pad.dfa"])
        assert code == 0
        assert out == (
            "type dfa\n"
            "alphabet a Λ\n"
            "states d0 d1\n"
            "initial d0\n"
            "accept d1\n"
            "trans d0 a d1\n"
            "trans d1 a d0\n"
        )

    def test_lambda_elim(self, capsys, tmp_path):
        dfa = tmp_path / "pad.dfa"
        dfa.write_text("type dfa\nstates d0 d1\nalphabet a Λ\ninitial d0\n"
                       "accept d1\ntrans d0 a d1\ntrans d1 a d0\n"
                       "trans d0 Λ d0\ntrans d1 Λ d1\n")
        code, out, _ = run(capsys, "logtm", "lambda-elim", str(dfa))
        assert code == 0
        slim = load_automaton(out)
        assert isinstance(slim, Dfa)
        assert slim.accepts(("a",))
        assert not any(sym == "Λ" for _, sym, _ in slim.transitions)


class TestUniversality:
    def test_decide_yes_and_calls(self, capsys, files):
        code, out, _ = run(capsys, "universality", "decide", files["uni.nfa"],
                           "--oracle-file", files["x.members"])
        assert code == 0
        assert "nonempty: yes" in out
        assert "oracle-calls:" in out

    def test_decide_no(self, capsys, files, tmp_path):
        text = UNI_NFA.replace("trans v2 + v3", "trans v2 - v3")
        neg = tmp_path / "neg.nfa"
        neg.write_text(text)
        code, out, _ = run(capsys, "universality", "decide", str(neg),
                           "--oracle-file", files["x.members"])
        assert code == 1 and "nonempty: no" in out

    def test_lmember(self, capsys, files):
        assert run(capsys, "universality", "lmember", "0",
                   "--oracle-file", files["x.members"])[0] == 0
        assert run(capsys, "universality", "lmember", "10",
                   "--oracle-file", files["x.members"])[0] == 1

    def test_wparams_first_triple(self, capsys):
        code, out, _ = run(capsys, "universality", "wparams", "0", "0", "0")
        assert code == 0
        assert "r: 2047" in out and "q: 2047" in out
        assert "r-length: 4096" in out and "q-length: 4097" in out

    def test_forward_jsonl(self, capsys):
        _, out, _ = run(capsys, "universality", "forward", "0",
                        "--format", "jsonl")
        record = json.loads(out)
        assert record["protocol"] == list("01110111") + ["#", "+"]

    def test_oracle_file_comments_and_validation(self, capsys, tmp_path, files):
        ok = tmp_path / "ok.members"
        ok.write_text("# members\n0\n\n10\n")
        assert run(capsys, "universality", "lmember", "0",
                   "--oracle-file", str(ok))[0] == 0
        bad = tmp_path / "bad.members"
        bad.write_text("0\n2\n")
        code, _, err = run(capsys, "universality", "lmember", "0",
                           "--oracle-file", str(bad))
        assert code == 65 and "line 2" in err
