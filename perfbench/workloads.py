"""The four benchmark workloads.

`setup(name, seed, workdir)` generates the seeded instances, builds the
adskit objects, writes their files and returns the workload's operations.
An operation answers one instance (or runs one CLI command).  Its
`check` runs once, on the first answer, against the reference checkers
in refcheck.py, against a second backend where one exists, and against
the stated properties; it returns None or the reason for a failure.

Program functions are always reached through their module
(`nrr.nreg_dyck`, not a name imported here), so wrappers installed by
trace.py see every call.
"""
from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import gen
import refcheck
from adskit import ads, automata, cli, formats, logtm, nrr, protocols, transducers
from adskit import universality as uni
from adskit.verdict import SearchBounds, Verdict

HERE = Path(__file__).resolve().parent
README_DIR = HERE / "readme_examples"

# (size, instances) ladders; the last rung of each is that family's top
DYCK_RUNGS = ((32, 3), (64, 4), (96, 6))  # states, block midpoints included
DAG_RUNGS = ((16, 3), (24, 6))            # states
SET_RUNGS = ((10, 4), (20, 4), (40, 6))   # base states of the set automata
COPY_RUNGS = (5, 6, 7)                 # states; the monoid has n! elements
CLIFF_CAPS = (8, 11, 14)               # Fst.apply output caps on the loop extractor
FST_RUNGS = (16, 40)                   # states of the seeded transducers
PRODUCT_RUNGS = (16, 32)              # states of each product operand
CLI_DYCK, CLI_DAG = 64, 24             # mid rungs whose files the CLI reads
# second backends in the checks search this far; beyond it they say
# UNKNOWN and the instance is not compared
CROSS_BOUNDS = SearchBounds(max_configs=20_000)


@dataclass
class Op:
    name: str
    rung: str
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    summary: Callable[[object], str]
    top: bool = False


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    # "top": largest_s times the ops marked top (the top rung of each
    # ladder); "slowest": the slowest op
    largest: str = "top"

    def add(self, *args, **kwargs):
        self.ops.append(Op(*args, **kwargs))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def nrr_summary(ans) -> str:
    if ans.witness is None:
        return ans.verdict.value
    return f"{ans.verdict.value} {digest(ans.witness)}"


def words_summary(result) -> str:
    return f"{len(result.words)} {digest(sorted(result.words))} {result.truncated}"


def all_words(letters, max_len):
    out = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (c,) for w in level for c in letters]
        out.extend(level)
    return out


# -- building program objects from descriptions ----------------------------


def build_nfa(d):
    return automata.Nfa(d["states"], automata.Alphabet(d["alphabet"]), d["trans"],
                        d["initial"], d["accept"])


def build_fst(d):
    return transducers.Fst(d["states"], automata.Alphabet(d["alphabet"]),
                           automata.Alphabet(d["outalphabet"]), d["trans"],
                           d["initial"], d["accept"])


def build_ads(d, pa):
    return ads.AdsAutomaton(d["wstates"], d["qstates"], automata.Alphabet(d["alphabet"]),
                            pa, d["wmoves"], d["qmoves"], d["initial"], d["accept"])


def write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def nfa_desc(a) -> dict:
    """Plain description of a program-built automaton, for the checkers."""
    return {"trans": list(a.transitions), "initial": a.initial,
            "accept": list(a.accepting)}


# -- shared checks -------------------------------------------------------------


def definite(ans) -> Optional[str]:
    if ans.verdict is Verdict.UNKNOWN:
        return "UNKNOWN on an instance that needs a definite answer"
    return None


def witness_check(desc, ans, protocol_ok) -> Optional[str]:
    """An ACCEPT witness must be accepted by the automaton and be a
    correct protocol; other verdicts pass here."""
    if ans.verdict is not Verdict.ACCEPT:
        return None
    if not refcheck.nfa_accepts(desc, ans.witness):
        return "witness rejected by the automaton (path search)"
    if not protocol_ok(ans.witness):
        return "witness is not a correct protocol (replay)"
    return None


def first_failure(*reasons):
    for r in reasons:
        if r:
            return r
    return None


# -- saturate ---------------------------------------------------------------


def saturate(seed: int, workdir: Path) -> Workload:
    w = Workload()
    for size, count in DYCK_RUNGS:
        for i in range(count):
            d = gen.bracket_nfa(gen.rng_for(seed, "bracket", size, i), size)
            a = build_nfa(d)
            write(workdir, f"bracket-{size}-{i}.nfa", formats.dump_automaton(a))
            for exact in (True, False):
                mode = "exact" if exact else "prefix"
                w.add(f"nreg_dyck.{mode}/{size}/{i}", f"dyck-{size}",
                      lambda a=a, exact=exact: nrr.nreg_dyck(a, exact),
                      _dyck_check(d, a, size, i, exact), nrr_summary,
                      top=size == DYCK_RUNGS[-1][0])
    for size, count in DAG_RUNGS:
        for i in range(count):
            rng = gen.rng_for(seed, "dag", size, i)
            d = gen.graded_dag(rng, size)
            members = gen.oracle_members(rng)
            a = build_nfa(d)
            write(workdir, f"dag-{size}-{i}.nfa", formats.dump_automaton(a))
            write(workdir, f"members-{size}-{i}.txt", "\n".join(members) + "\n")
            w.add(f"universality/{size}/{i}", f"dag-{size}",
                  lambda a=a, m=members: uni.universality_decide(a, uni.OracleX(m)),
                  _universality_check(d, a, members),
                  lambda r: f"{r.nonempty} {r.oracle_calls}", top=size == DAG_RUNGS[-1][0])
    return w


def _dyck_check(d, a, size, i, exact):
    def check(ans, ctx):
        reason = first_failure(definite(ans),
                               witness_check(d, ans, lambda wd: refcheck.dyck_ok(wd, exact)))
        if reason:
            return reason
        if exact and ans.verdict is Verdict.ACCEPT:
            prefix = ctx[f"nreg_dyck.prefix/{size}/{i}"]
            if prefix.verdict is not Verdict.ACCEPT:
                return "exact-mode ACCEPT without a prefix-mode ACCEPT"
        if size == DYCK_RUNGS[0][0]:
            other = nrr.nreg_generic(nrr.NrrInstance(a, protocols.DyckOracle(exact)),
                                     CROSS_BOUNDS)
            if other.verdict is not Verdict.UNKNOWN and other.verdict is not ans.verdict:
                return f"nreg_generic says {other.verdict.value}"
        return None
    return check


def _universality_check(d, a, members):
    def check(res, ctx):
        oracle = uni.ProtXOracle(uni.OracleX(members))
        other = nrr.nreg_generic(nrr.NrrInstance(a, oracle), CROSS_BOUNDS)
        reason = witness_check(d, other,
                               lambda wd: refcheck.graded_protocol_ok(wd, set(members)))
        if reason:
            return "nreg_generic " + reason
        if other.verdict is not Verdict.UNKNOWN and \
                (other.verdict is Verdict.ACCEPT) != res.nonempty:
            return f"nreg_generic with the graded oracle says {other.verdict.value}"
        return None
    return check


# -- search ------------------------------------------------------------------


SET = protocols.SetOracle()

TOY_PROTOCOL = {"insert_test": logtm.toy_insert_test_tm,
                "palindrome": logtm.toy_palindrome_tm,
                "test_first": logtm.toy_test_first_tm}
TOY_ADVICE = {"equality": logtm.toy_equality_tm,
              "first_symbol": logtm.toy_first_symbol_tm}


def search(seed: int, workdir: Path) -> Workload:
    w = Workload()
    for size, count in SET_RUNGS:
        top = size == SET_RUNGS[-1][0]
        for i in range(count):
            # the top rung is all guarded, so it always measures a full
            # exhaustion; below it instance 2 may accept
            guarded = top or i != 2
            d = gen.set_nfa(gen.rng_for(seed, "set", size, i), size, guard_inserted=not guarded)
            a = build_nfa(d)
            write(workdir, f"set-{size}-{i}.nfa", formats.dump_automaton(a))
            w.add(f"nreg_generic.set/{size}/{i}", f"set-{size}",
                  lambda a=a: nrr.nreg_generic(nrr.NrrInstance(a, SET)),
                  _set_check(d, guarded), nrr_summary, top=top)
    for i in range(3):
        d = gen.sis_nfa(gen.rng_for(seed, "sis", 12, i), 12)
        a = build_nfa(d)
        write(workdir, f"sis-12-{i}.nfa", formats.dump_automaton(a))
        w.add(f"nreg_generic.sis/12/{i}", "sis-12",
              lambda a=a: nrr.nreg_generic(nrr.NrrInstance(a, protocols.SingleInsertOracle(2))),
              lambda ans, ctx, d=d: first_failure(
                  definite(ans),
                  witness_check(d, ans, lambda wd: refcheck.single_insert_ok(wd, 2))),
              nrr_summary)
    for size in COPY_RUNGS:
        top = size == COPY_RUNGS[-1]
        for i in range(3):
            # as above: a sealed top rung explores the whole monoid
            sealed = top or i < 2
            d = gen.copy_nfa(gen.rng_for(seed, "copy", size, i), size, 3, sealed)
            a = build_nfa(d)
            write(workdir, f"copy-{size}-{i}.nfa", formats.dump_automaton(a))
            w.add(f"nreg_perk/{size}/{i}", f"copy-{size}",
                  lambda a=a: nrr.nreg_perk(a, 3), _copy_check(d, sealed), nrr_summary,
                  top=top)
    for i in range(6):
        rng = gen.rng_for(seed, "ads", 6, i)
        d = gen.det_set_ads(rng, 6, 3)
        m = build_ads(d, SET.alphabet)
        write(workdir, f"ads-{i}.ads", formats.dump_ads(m))
        for j in range(3):
            x = gen.word(rng, 6 + j)
            w.add(f"simulate/{i}/{j}", "ads-6",
                  lambda m=m, x=x: ads.simulate(m, x, SET),
                  _simulate_check(d, x), lambda v: v.value)
            w.add(f"membership_to_reg/{i}/{j}", "ads-6",
                  lambda m=m, x=x: nrr.nreg_generic(
                      nrr.NrrInstance(nrr.membership_to_reg(m, x), SET)),
                  _membership_check(i, j), nrr_summary)
    rng = gen.rng_for(seed, "logtm", 0, 0)
    for name, make in TOY_PROTOCOL.items():
        tm = make()
        for j in range(3):
            half = gen.word(rng, 4 + j)
            x = half + tuple(reversed(half)) if j == 1 else gen.word(rng, 8 + j)
            w.add(f"run_with_protocol/{name}/{j}", "logtm",
                  lambda tm=tm, x=x: logtm.run_with_protocol(tm, x, SET),
                  _toy_check(refcheck.toy_protocol_expect(name, x)), lambda v: v.value)
    for name, make in TOY_ADVICE.items():
        tm = make()
        for j in range(4):
            x = gen.word(rng, 10 + j)
            y = x if j % 2 == 0 else x[:-1] + (("b",) if x[-1] == "a" else ("a",))
            w.add(f"run_with_advice/{name}/{j}", "logtm",
                  lambda tm=tm, x=x, y=y: logtm.run_with_advice(tm, x, y),
                  _toy_check(refcheck.toy_advice_expect(name, x, y)), lambda v: v.value)
    for j in range(3):
        x = gen.word(rng, 10 + j)
        w.add(f"surface_config_nfa/{j}", "logtm",
              lambda x=x: logtm.surface_config_nfa(logtm.toy_equality_tm(), x),
              _surface_check(x), lambda a: f"{len(a.states)} {len(a.transitions)}")
    oracles = {"set": protocols.SetOracle(), "sis2": protocols.SingleInsertOracle(2),
               "dyck": protocols.DyckOracle()}
    for oname, oracle in oracles.items():
        for axiom in ("i", "ii", "iii", "iv", "v"):
            w.add(f"axiom_fuzz/{oname}/{axiom}", "fuzz",
                  lambda o=oracle, ax=axiom: protocols.axiom_fuzz(o, ax, trials=150,
                                                                 max_len=30, seed=seed),
                  _fuzz_check(oname, axiom),
                  lambda r: f"{r.trials} {len(r.violations)} {digest(r.violations)}")
    return w


def _set_check(d, guarded):
    def check(ans, ctx):
        reason = first_failure(definite(ans), witness_check(d, ans, refcheck.set_ok))
        if reason:
            return reason
        if guarded and ans.verdict is not Verdict.REJECT:
            return "ACCEPT although no move ever inserts the guard word"
        return None
    return check


def _copy_check(d, sealed):
    def check(ans, ctx):
        reason = first_failure(definite(ans),
                               witness_check(d, ans, lambda wd: refcheck.copy_ok(wd, 3)))
        if reason:
            return reason
        if sealed and ans.verdict is not Verdict.REJECT:
            return "ACCEPT although no '#' edge enters an accepting state"
        return None
    return check


def _simulate_check(d, x):
    def check(verdict, ctx):
        if verdict is Verdict.UNKNOWN:
            return "UNKNOWN on a machine whose runs are all finite"
        want = refcheck.det_set_ads_accepts(d, x)
        if (verdict is Verdict.ACCEPT) != want:
            return f"simulate says {verdict.value}, replay says {want}"
        return None
    return check


def _membership_check(i, j):
    def check(ans, ctx):
        reason = definite(ans)
        if reason:
            return reason
        if ans.verdict is Verdict.ACCEPT and not refcheck.set_ok(ans.witness):
            return "witness is not a correct set protocol (replay)"
        direct = ctx[f"simulate/{i}/{j}"]
        if ans.verdict is not direct:
            return f"membership_to_reg + nreg_generic says {ans.verdict.value}, " \
                   f"simulate says {direct.value}"
        return None
    return check


def _toy_check(want):
    def check(verdict, ctx):
        if verdict is Verdict.UNKNOWN:
            return "UNKNOWN on a toy machine"
        if (verdict is Verdict.ACCEPT) != want:
            return f"verdict {verdict.value}, expected {'accept' if want else 'reject'}"
        return None
    return check


def _surface_check(x):
    def check(a, ctx):
        desc = nfa_desc(a)
        if not refcheck.nfa_accepts(desc, tuple(x) + (logtm.LAMBDA,)):
            return "surface NFA rejects the input as its own advice"
        wrong = tuple(x[:-1]) + (("b",) if x[-1] == "a" else ("a",))
        if refcheck.nfa_accepts(desc, wrong + (logtm.LAMBDA,)):
            return "surface NFA accepts an advice word unequal to the input"
        return None
    return check


def _fuzz_check(oname, axiom):
    def check(report, ctx):
        if oname == "dyck" and axiom == "iv":
            for v in report.violations:
                # "after <word> with u='': no response to 'pop'"
                head, _, tail = v.partition(" with u=")
                if not tail.endswith("no response to 'pop'"):
                    return f"bracket axiom iv reported {v!r}"
                word = ast.literal_eval(head[len("after "):])
                if not refcheck.dyck_pop_on_empty(word):
                    return f"pop refused on a non-empty stack after {word!r}"
            return None
        if report.violations:
            return f"clean oracle has {len(report.violations)} violations"
        return None
    return check


# -- transduce ------------------------------------------------------------------


def transduce(seed: int, workdir: Path) -> Workload:
    w = Workload()
    loop = gen.loop_ads(gen.rng_for(seed, "loop", 2, 0))
    loop_m = build_ads(loop, SET.alphabet)
    write(workdir, "loop.ads", formats.dump_ads(loop_m))
    loop_t = ads.extractor(loop_m)
    loop_ref = refcheck.extractor_desc(loop)
    for cap in CLIFF_CAPS:
        w.add(f"apply.extractor/{cap}", f"cliff-{cap}",
              lambda cap=cap: loop_t.apply(("a", "a", "a"), output_cap=cap),
              _cliff_check(loop_ref, cap), words_summary, top=cap == CLIFF_CAPS[-1])
    for i in range(6):
        rng = gen.rng_for(seed, "extract", 5, i)
        d = gen.det_set_ads(rng, 5, 3, endmarker=False)
        m = build_ads(d, SET.alphabet)
        write(workdir, f"extract-{i}.ads", formats.dump_ads(m))
        x = gen.word(rng, 3)
        w.add(f"extractor+apply/{i}", "extract-5",
              lambda m=m, x=x: ads.extractor(m).apply(x, output_cap=10),
              _apply_ref_check(refcheck.extractor_desc(d), x, 10), words_summary)
    for size in FST_RUNGS:
        for i in range(3):
            rng = gen.rng_for(seed, "fst", size, i)
            d1 = gen.random_fst(rng, size)
            d2 = gen.random_fst(rng, size, min_out=1)
            d3 = gen.random_fst(rng, size, eps_in=False)
            da = gen.random_ab_nfa(rng, size)
            t1, t2, t3, a = build_fst(d1), build_fst(d2), build_fst(d3), build_nfa(da)
            for name, t in (("t1", t1), ("t2", t2), ("t3", t3)):
                write(workdir, f"fst-{size}-{i}-{name}.fst", formats.dump_fst(t))
            write(workdir, f"fst-{size}-{i}-a.nfa", formats.dump_automaton(a))
            rung = f"fst-{size}"
            x = gen.word(rng, 3)
            w.add(f"compose/{size}/{i}", rung,
                  lambda t1=t1, t2=t2: transducers.compose(t1, t2),
                  _compose_check(t1, t2), lambda t: f"{len(t.states)} {len(t.transitions)}")
            w.add(f"invert/{size}/{i}", rung,
                  lambda t=t1: transducers.invert(t),
                  _invert_check(t1), lambda t: f"{len(t.states)} {len(t.transitions)}")
            w.add(f"image_nfa/{size}/{i}", rung,
                  lambda t=t1, x=x: transducers.image_nfa(
                      t, automata.nfa_for_words(t.input_alphabet, [x])).enumerate_words(7),
                  _image_check(t1, x, 7), digest)
            w.add(f"preimage_nfa/{size}/{i}", rung,
                  lambda t=t3, a=a: transducers.preimage_nfa(t, a),
                  _preimage_check(d3, da), lambda p: f"{len(p.states)} {len(p.transitions)}")
    for size in PRODUCT_RUNGS:
        for i in range(3):
            rng = gen.rng_for(seed, "product", size, i)
            da, db = gen.random_ab_nfa(rng, size), gen.random_ab_nfa(rng, size)
            a, b = build_nfa(da), build_nfa(db)
            write(workdir, f"product-{size}-{i}-a.nfa", formats.dump_automaton(a))
            write(workdir, f"product-{size}-{i}-b.nfa", formats.dump_automaton(b))
            w.add(f"product+trim+enumerate/{size}/{i}", f"product-{size}",
                  lambda a=a, b=b: automata.product_intersect(a, b).trim().enumerate_words(8),
                  _product_check(da, db, 8), digest)
    for i in range(4):
        rng = gen.rng_for(seed, "cwf", 4, i)
        dm = gen.det_set_ads(rng, 12, 6)
        dt = gen.random_fst(rng, 6, eps_in=False, min_out=1, max_out=2)
        m, t = build_ads(dm, SET.alphabet), build_fst(dt)
        write(workdir, f"cwf-{i}.ads", formats.dump_ads(m))
        write(workdir, f"cwf-{i}.fst", formats.dump_fst(t))
        w.add(f"compose_with_fst/{i}", "cwf-12",
              lambda m=m, t=t: ads.compose_with_fst(m, t),
              _cwf_check(m, t), lambda c: f"{len(c.states)} {len(c.write_moves)}")
    for i in range(4):
        rng = gen.rng_for(seed, "roundtrip", 3, i)
        dm = gen.det_set_ads(rng, 5, 3)
        m = build_ads(dm, SET.alphabet)
        write(workdir, f"roundtrip-{i}.ads", formats.dump_ads(m))
        w.add(f"nonemptiness_roundtrip/{i}", "roundtrip-5",
              lambda m=m: _roundtrip(m), _roundtrip_check,
              lambda r: " ".join(f"{len(x.states)}" for x in r))
    return w


def _roundtrip(m):
    first = nrr.nonemptiness_to_nrr(m)
    back = nrr.nrr_to_nonemptiness(first, SET.alphabet, SET)
    return first, nrr.nonemptiness_to_nrr(back)


def _roundtrip_check(result, ctx):
    first, second = (nrr.nreg_generic(nrr.NrrInstance(a, SET), CROSS_BOUNDS) for a in result)
    for ans in (first, second):
        if ans.verdict is Verdict.ACCEPT and not refcheck.set_ok(ans.witness):
            return "round-trip witness is not a correct set protocol (replay)"
    if Verdict.UNKNOWN not in (first.verdict, second.verdict) and \
            first.verdict is not second.verdict:
        return f"round trip changed the verdict: {first.verdict.value} -> " \
               f"{second.verdict.value}"
    return None


def _cliff_check(ref, cap):
    def check(result, ctx):
        if not result.truncated:
            return "cap binds on the loop extractor but truncated is not set"
        if cap == CLIFF_CAPS[-1]:
            # the top rung is checked by restriction to the rung below
            below = ctx[f"apply.extractor/{CLIFF_CAPS[-2]}"]
            restricted = {w for w in result.words if len(w) <= CLIFF_CAPS[-2]}
            if restricted != below.words:
                return "outputs at the top cap do not restrict to the rung below"
            return None
        want, _ = refcheck.fst_outputs(ref, ("a", "a", "a"), cap)
        if result.words != want:
            return f"{len(result.words)} outputs, reference search finds {len(want)}"
        return None
    return check


def _apply_ref_check(ref, x, cap):
    def check(result, ctx):
        want, binds = refcheck.fst_outputs(ref, x, cap)
        if result.words != want:
            return f"{len(result.words)} outputs, reference search finds {len(want)}"
        if result.truncated != binds:
            return f"truncated is {result.truncated} but the cap binds: {binds}"
        return None
    return check


def _compose_check(t1, t2, cap=6):
    def check(t12, ctx):
        for x in all_words("ab", 3):
            staged = set()
            for mid in t1.apply(x, output_cap=cap).words:
                staged |= t2.apply(mid, output_cap=cap).words
            if t12.apply(x, output_cap=cap).words != staged:
                return f"compose disagrees with staged apply on {x!r}"
        return None
    return check


def _invert_check(t, cap=6):
    def check(inv, ctx):
        back = transducers.invert(inv)
        for x in all_words("ab", 3):
            if back.apply(x, output_cap=cap).words != t.apply(x, output_cap=cap).words:
                return f"double inversion changed the outputs of {x!r}"
        return None
    return check


def _image_check(t, x, cap):
    def check(words, ctx):
        if set(words) != t.apply(x, output_cap=cap).words:
            return "image of the one-word automaton disagrees with apply"
        return None
    return check


def _preimage_check(dt, da):
    def check(pre, ctx):
        for x in all_words("ab", 4):
            outs, _ = refcheck.fst_outputs(dt, x, 2 * len(x))
            want = any(refcheck.nfa_accepts(da, v) for v in outs)
            if pre.accepts(x) != want:
                return f"preimage membership of {x!r} is {not want}, reference says {want}"
        return None
    return check


def _product_check(da, db, max_len):
    def check(words, ctx):
        want = {x for x in all_words("ab", max_len)
                if refcheck.nfa_accepts(da, x) and refcheck.nfa_accepts(db, x)}
        if set(words) != want:
            return f"{len(words)} words, reference path search finds {len(want)}"
        return None
    return check


def _cwf_check(m, t):
    def check(composed, ctx):
        for x in all_words("ab", 3):
            left = ads.simulate(composed, x, SET)
            rights = [ads.simulate(m, v, SET) for v in t.apply(x, output_cap=64).words]
            if left is Verdict.UNKNOWN or Verdict.UNKNOWN in rights:
                continue
            if (left is Verdict.ACCEPT) != (Verdict.ACCEPT in rights):
                return f"composed machine says {left.value} on {x!r}"
        return None
    return check


# -- cli ----------------------------------------------------------------------

README_EXAMPLES = [
    (["nrr", "decide", "readme:dyck.nfa", "--filter", "dyck"],
     "verdict: accept\nwitness: push( ( pop )\n", 0),
    (["fst", "apply", "readme:dup.fst", "a,b,a"], "outputs: x,y,x,y\ntruncated: no\n", 0),
    (["protocol", "fuzz", "--oracle", "set", "--axiom", "v", "--trials", "1000"],
     "axiom (v): 1000 trials, 0 violations\n", 0),
    (["ads", "simulate", "readme:ins.ads", "a,b", "--oracle", "set"], "verdict: accept\n", 0),
    (["universality", "forward", "0"], "01110111 # +\n", 0),
]


def run_cli_subprocess(argv):
    proc = subprocess.run([sys.executable, "-m", "adskit.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def cli_commands(seed: int, workdir: Path):
    """(name, argv, check) of every CLI command, with its input files written."""
    commands = []
    for argv, want_out, want_code in README_EXAMPLES:
        argv = [str(README_DIR / a[len("readme:"):]) if a.startswith("readme:") else a
                for a in argv]
        commands.append((f"readme/{argv[0]}.{argv[1]}", argv,
                         _exact_check(want_out, want_code)))
    d = gen.bracket_nfa(gen.rng_for(seed, "bracket", CLI_DYCK, 0), CLI_DYCK)
    a = build_nfa(d)
    bracket_file = write(workdir, "cli-bracket.nfa", formats.dump_automaton(a))
    commands.append(("nrr.decide", ["nrr", "decide", bracket_file, "--filter", "dyck"],
                     _cli_dyck_check(d, a)))
    commands.append(("trim", ["trim", bracket_file], _cli_trim_check(a)))
    loop = gen.loop_ads(gen.rng_for(seed, "loop", 2, 0))
    loop_t = ads.extractor(build_ads(loop, SET.alphabet))
    fst_file = write(workdir, "cli-loop.fst", formats.dump_fst(loop_t))
    commands.append(("fst.apply", ["fst", "apply", fst_file, "a,a", "--cap", "10"],
                     _cli_apply_check(refcheck.extractor_desc(loop), ("a", "a"), 10)))
    rng = gen.rng_for(seed, "dag", CLI_DAG, 0)
    d = gen.graded_dag(rng, CLI_DAG)
    members = gen.oracle_members(rng)
    dag = build_nfa(d)
    dag_file = write(workdir, "cli-dag.nfa", formats.dump_automaton(dag))
    members_file = write(workdir, "cli-members.txt", "\n".join(members) + "\n")
    commands.append(("universality.decide",
                     ["universality", "decide", dag_file, "--oracle-file", members_file],
                     _cli_universality_check(dag, members)))
    size = PRODUCT_RUNGS[0]
    rng = gen.rng_for(seed, "product", size, 0)
    pa, pb = build_nfa(gen.random_ab_nfa(rng, size)), build_nfa(gen.random_ab_nfa(rng, size))
    fa = write(workdir, "cli-product-a.nfa", formats.dump_automaton(pa))
    fb = write(workdir, "cli-product-b.nfa", formats.dump_automaton(pb))
    commands.append(("product.dot", ["product", fa, fb, "--format", "dot"],
                     _cli_product_check(pa, pb)))
    return commands


def cli_workload(seed: int, workdir: Path, inprocess: bool = False) -> Workload:
    w = Workload(largest="slowest")
    runner = run_cli_inprocess if inprocess else run_cli_subprocess
    for name, argv, check in cli_commands(seed, workdir):
        w.add(name, "cli", lambda argv=argv: runner(argv), check,
              lambda r: f"{r[0]} {digest(r[1])}")
    return w


def _exact_check(want_out, want_code):
    def check(result, ctx):
        code, out = result
        if (code, out) != (want_code, want_out):
            return f"exit {code} and stdout {out!r}, README shows {want_code} and {want_out!r}"
        return None
    return check


def _rows(out):
    return dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)


def _cli_dyck_check(d, a):
    def check(result, ctx):
        code, out = result
        rows = _rows(out)
        verdict = rows.get("verdict")
        if verdict == "accept":
            wd = tuple(rows.get("witness", "").split())
            if code != 0 or not refcheck.nfa_accepts(d, wd) or not refcheck.dyck_ok(wd, False):
                return "CLI accept without a valid witness"
            return None
        if verdict == "reject" and code == 1:
            if nrr.nreg_dyck(a).verdict is not Verdict.REJECT:
                return "CLI rejects, the library accepts"
            return None
        return f"CLI answered {out!r} with exit {code}"
    return check


def _cli_trim_check(a):
    def check(result, ctx):
        code, out = result
        if code != 0 or out != formats.dump_automaton(a.trim()):
            return "trim output differs from the library's trimmed automaton"
        return None
    return check


def _cli_apply_check(ref, x, cap):
    def check(result, ctx):
        code, out = result
        rows = _rows(out)
        got = rows.get("outputs", "")
        got = {() if w == "-" else tuple(w.split(",")) for w in got.split()}
        want, binds = refcheck.fst_outputs(ref, x, cap)
        if got != want or rows.get("truncated") != ("yes" if binds else "no") or code != 0:
            return "CLI fst apply disagrees with the reference output search"
        return None
    return check


def _cli_universality_check(a, members):
    def check(result, ctx):
        code, out = result
        res = uni.universality_decide(a, uni.OracleX(members))
        want = f"nonempty: {'yes' if res.nonempty else 'no'}\n" \
               f"oracle-calls: {res.oracle_calls}\n"
        if out != want or code != (0 if res.nonempty else 1):
            return "CLI universality decide disagrees with the library"
        return None
    return check


def _cli_product_check(a, b):
    def check(result, ctx):
        code, out = result
        if code != 0 or out != automata.to_dot(automata.product_intersect(a, b)) + "\n":
            return "CLI product --format dot disagrees with the library"
        return None
    return check


def setup(name: str, seed: int, workdir: Path, inprocess: bool = False) -> Workload:
    """Build workload `name`; inprocess makes the cli workload call main
    in this process instead of starting the CLI."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "cli":
        return cli_workload(seed, workdir, inprocess)
    return {"saturate": saturate, "search": search, "transduce": transduce}[name](seed, workdir)


def fresh_import_seconds() -> float:
    """Time of a fresh `import adskit.cli`, measured inside a new interpreter."""
    code = ("import time; t = time.perf_counter(); import adskit.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return float(out.strip())


def interpreter_seconds() -> float:
    """Wall time of a bare `python -c pass`."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start

