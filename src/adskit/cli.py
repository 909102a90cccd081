"""Command-line front end.

Every subcommand reads machine descriptions in the textual formats,
prints a deterministic report, and signals its answer through the exit
code: 0 yes/success, 1 no, 2 unknown, 64 usage errors, 65 malformed
input or failed domain validation.  --format switches the report between
plain text, DOT (machine-emitting commands only), and JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import ads as ads_mod
from . import logtm as logtm_mod
from . import nrr as nrr_mod
from . import transducers as fst_mod
from . import universality as uni_mod
from .automata import Nfa, product_intersect, to_dot
from .errors import CapExceeded, FormatError
from .formats import (
    dump_ads,
    dump_automaton,
    dump_fst,
    fst_dot,
    load_ads,
    load_automaton,
    load_fst,
    load_tm,
)
from .protocols import (
    DyckOracle,
    SetOracle,
    SingleInsertOracle,
    axiom_fuzz,
    membership,
)
from .verdict import DEFAULT_BOUNDS, SearchBounds, Verdict

EX_YES = 0
EX_NO = 1
EX_UNKNOWN = 2
EX_USAGE = 64
EX_DATA = 65

_VERDICT_EXIT = {Verdict.ACCEPT: EX_YES, Verdict.REJECT: EX_NO,
                 Verdict.UNKNOWN: EX_UNKNOWN}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None


def _tokens(args) -> tuple:
    """Word tokens from positional arguments; commas also separate."""
    out = []
    for arg in args:
        out.extend(t for t in arg.split(",") if t)
    return tuple(out)


def _advice_word(text: Optional[str]) -> tuple:
    if text is None or text == "-":
        return ()
    return tuple(t for t in text.split(",") if t)


def _protocol_filter(arg: str):
    if arg == "dyck":
        return DyckOracle()
    if arg == "dyck-exact":
        return DyckOracle(exact_d2=True)
    if arg == "set":
        return SetOracle()
    if arg.startswith("sis:"):
        return SingleInsertOracle(_k(arg))
    return None


def _k(arg: str) -> int:
    """K of a filter written name:K, a whole number of at least 1."""
    k = arg.partition(":")[2]
    if not k.isdecimal():
        raise UsageError(f"bad filter {arg!r}")
    if int(k) < 1:
        raise UsageError(f"bad filter {arg!r}: K must be at least 1, got {int(k)}")
    return int(k)


def _filter(arg: str):
    oracle = _protocol_filter(arg)
    if oracle is not None:
        return oracle
    if arg.startswith("per:") and arg[len("per:"):].isdecimal():
        return nrr_mod.PerKFilter(_k(arg))
    raise UsageError(f"unknown filter {arg!r} "
                     "(expected dyck, dyck-exact, set, sis:K, or per:K)")


def _oracle(arg: str):
    oracle = _protocol_filter(arg)
    if oracle is None:
        raise UsageError(f"unknown oracle {arg!r} "
                         "(expected dyck, dyck-exact, set, or sis:K)")
    return oracle


def _count(low: int):
    """argparse type: an integer that must be at least low."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _bounds(text: Optional[str]) -> SearchBounds:
    if text is None:
        return DEFAULT_BOUNDS
    try:
        return SearchBounds.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _oracle_x(path: str) -> uni_mod.OracleX:
    members = []
    for no, line in enumerate(_read(path).splitlines(), start=1):
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        if any(ch not in "01" for ch in word):
            raise FormatError(f"oracle words must be binary, got {word!r}",
                              line_no=no)
        members.append(word)
    return uni_mod.OracleX(members)


class _Report:
    """Collects key/value rows; renders text or JSON lines."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.rows = []

    def add(self, key: str, value):
        self.rows.append((key, value))

    def emit(self):
        if self.fmt == "dot":
            raise UsageError("DOT output is only defined for machine-emitting commands")
        if self.fmt == "jsonl":
            print(json.dumps(dict(self.rows), ensure_ascii=False))
        else:
            for key, value in self.rows:
                if isinstance(value, bool):
                    value = "yes" if value else "no"
                elif isinstance(value, (list, tuple)):
                    value = " ".join(value) if value else "-"
                print(f"{key}: {value}")


def _emit_machine(obj, fmt: str) -> int:
    if fmt == "dot":
        if isinstance(obj, fst_mod.Fst):
            print(fst_dot(obj))
        elif isinstance(obj, Nfa):
            print(to_dot(obj))
        else:
            raise UsageError("DOT output is only defined for automata and transducers")
        return EX_YES
    if isinstance(obj, fst_mod.Fst):
        text = dump_fst(obj)
    elif isinstance(obj, Nfa):
        text = dump_automaton(obj)
    elif isinstance(obj, ads_mod.AdsAutomaton):
        text = dump_ads(obj)
    else:
        raise AssertionError(f"unprintable machine {type(obj)!r}")
    if fmt == "jsonl":
        print(json.dumps({"machine": text}))
    else:
        sys.stdout.write(text)
    return EX_YES


def _verdict_report(verdict: Verdict, fmt: str, witness=None, extra=()) -> int:
    report = _Report(fmt)
    report.add("verdict", verdict.value)
    if verdict is Verdict.ACCEPT and witness is not None:
        report.add("witness", list(witness))
    for key, value in extra:
        report.add(key, value)
    report.emit()
    return _VERDICT_EXIT[verdict]


# -- subcommand bodies ----------------------------------------------------


def _cmd_accepts(ns) -> int:
    a = load_automaton(_read(ns.file))
    word = _tokens(ns.word)
    ok = a.accepts(word)
    report = _Report(ns.format)
    report.add("accepts", "yes" if ok else "no")
    report.emit()
    return EX_YES if ok else EX_NO


def _cmd_trim(ns) -> int:
    return _emit_machine(load_automaton(_read(ns.file)).trim(), ns.format)


def _cmd_product(ns) -> int:
    a = load_automaton(_read(ns.file))
    b = load_automaton(_read(ns.other))
    return _emit_machine(product_intersect(a, b), ns.format)


def _cmd_fst_apply(ns) -> int:
    t = load_fst(_read(ns.file))
    result = t.apply(_tokens(ns.word), output_cap=ns.cap)
    report = _Report(ns.format)
    words = sorted(result.words, key=t.output_alphabet.word_key)
    if ns.format == "jsonl":
        report.add("outputs", [list(w) for w in words])
    else:
        report.add("outputs", [",".join(w) if w else "-" for w in words])
    report.add("truncated", result.truncated)
    report.emit()
    return EX_YES if words else EX_NO


def _cmd_fst_compose(ns) -> int:
    t1 = load_fst(_read(ns.file))
    t2 = load_fst(_read(ns.other))
    return _emit_machine(fst_mod.compose(t1, t2), ns.format)


def _cmd_fst_invert(ns) -> int:
    return _emit_machine(fst_mod.invert(load_fst(_read(ns.file))), ns.format)


def _cmd_fst_image(ns) -> int:
    t = load_fst(_read(ns.file))
    a = load_automaton(_read(ns.automaton))
    return _emit_machine(fst_mod.image_nfa(t, a), ns.format)


def _cmd_fst_preimage(ns) -> int:
    t = load_fst(_read(ns.file))
    a = load_automaton(_read(ns.automaton))
    return _emit_machine(fst_mod.preimage_nfa(t, a), ns.format)


def _cmd_protocol_member(ns) -> int:
    oracle = _oracle(ns.oracle)
    ok = membership(oracle, _tokens(ns.word))
    report = _Report(ns.format)
    report.add("member", "yes" if ok else "no")
    report.emit()
    return EX_YES if ok else EX_NO


def _cmd_protocol_fuzz(ns) -> int:
    oracle = _oracle(ns.oracle)
    report = axiom_fuzz(oracle, ns.axiom, trials=ns.trials,
                        max_len=ns.max_len, seed=ns.seed)
    if ns.format == "dot":
        raise UsageError("DOT output is only defined for machine-emitting commands")
    if ns.format == "jsonl":
        print(json.dumps({"axiom": report.axiom, "trials": report.trials,
                          "violations": len(report.violations)}))
    else:
        print(report.summary())
    return EX_YES if report.ok else EX_NO


def _cmd_ads_simulate(ns) -> int:
    oracle = _oracle(ns.oracle)
    bounds = _bounds(ns.bounds)
    machine = load_ads(_read(ns.file), oracle.alphabet)
    verdict = ads_mod.simulate(machine, _tokens(ns.word), oracle, bounds=bounds)
    return _verdict_report(verdict, ns.format)


def _cmd_ads_extract(ns) -> int:
    oracle = _oracle(ns.oracle)
    machine = load_ads(_read(ns.file), oracle.alphabet)
    return _emit_machine(ads_mod.extractor(machine), ns.format)


def _cmd_ads_mprot(ns) -> int:
    oracle = _oracle(ns.oracle)
    return _emit_machine(ads_mod.m_prot(oracle.alphabet, oracle), ns.format)


def _cmd_ads_recode(ns) -> int:
    oracle = _oracle(ns.oracle)
    machine = load_ads(_read(ns.file), oracle.alphabet)
    recoded, decoder = ads_mod.two_letter_recode(machine)
    return _emit_machine(decoder if ns.emit == "decoder" else recoded, ns.format)


def _cmd_nrr_decide(ns) -> int:
    filt = _filter(ns.filter)
    if isinstance(filt, DyckOracle) and ns.bounds is not None:
        raise UsageError("--bounds applies to searched filters only; "
                         "the dyck filters are decided without bounds")
    bounds = _bounds(ns.bounds)
    a = load_automaton(_read(ns.file))
    instance = nrr_mod.NrrInstance(a, filt)
    answer = nrr_mod.decide(instance, bounds=bounds)
    return _verdict_report(answer.verdict, ns.format, witness=answer.witness)


def _cmd_nrr_reduce_from_ads(ns) -> int:
    oracle = _oracle(ns.oracle)
    machine = load_ads(_read(ns.file), oracle.alphabet)
    return _emit_machine(nrr_mod.nonemptiness_to_nrr(machine), ns.format)


def _cmd_nrr_reduce_to_ads(ns) -> int:
    oracle = _oracle(ns.filter)
    a = load_automaton(_read(ns.file))
    machine = nrr_mod.nrr_to_nonemptiness(a, oracle.alphabet, oracle)
    return _emit_machine(machine, ns.format)


def _cmd_nrr_member_to_reg(ns) -> int:
    oracle = _oracle(ns.oracle)
    machine = load_ads(_read(ns.file), oracle.alphabet)
    dfa = nrr_mod.membership_to_reg(machine, _tokens(ns.word))
    return _emit_machine(dfa, ns.format)


def _cmd_nrr_filter_transfer(ns) -> int:
    a = load_automaton(_read(ns.file))
    t = load_fst(_read(ns.fst))
    return _emit_machine(nrr_mod.filter_transfer(a, t), ns.format)


def _cmd_logtm_run(ns) -> int:
    if ns.oracle is not None and ns.step_cap is not None:
        raise UsageError("--step-cap applies to advice runs only, not with --oracle")
    if ns.oracle is not None and ns.advice is not None:
        raise UsageError("--advice applies to advice runs only, not with --oracle")
    if ns.oracle is None and ns.bounds is not None:
        raise UsageError("--bounds applies to oracle runs only; it needs --oracle")
    oracle = None if ns.oracle is None else _oracle(ns.oracle)
    bounds = _bounds(ns.bounds)
    tm = load_tm(_read(ns.file))
    word = _tokens(ns.word)
    if oracle is not None:
        verdict = logtm_mod.run_with_protocol(tm, word, oracle, bounds=bounds)
    else:
        # without --step-cap the run keeps run_with_advice's own default
        cap = {} if ns.step_cap is None else {"step_cap": ns.step_cap}
        verdict = logtm_mod.run_with_advice(tm, word, _advice_word(ns.advice), **cap)
    return _verdict_report(verdict, ns.format)


def _cmd_logtm_surface(ns) -> int:
    tm = load_tm(_read(ns.file))
    return _emit_machine(logtm_mod.surface_config_nfa(tm, _tokens(ns.word)),
                         ns.format)


def _cmd_logtm_lambda_elim(ns) -> int:
    a = load_automaton(_read(ns.file))
    return _emit_machine(logtm_mod.lambda_eliminate(a, ns.lam), ns.format)


def _cmd_uni_decide(ns) -> int:
    a = load_automaton(_read(ns.file))
    answer = uni_mod.universality_decide(a, _oracle_x(ns.oracle_file))
    report = _Report(ns.format)
    report.add("nonempty", "yes" if answer.nonempty else "no")
    report.add("oracle-calls", answer.oracle_calls)
    report.emit()
    return EX_YES if answer.nonempty else EX_NO


def _cmd_uni_lmember(ns) -> int:
    if any(ch not in "01" for ch in ns.word):
        raise UsageError(f"binary word expected, got {ns.word!r}")
    oracle = _oracle_x(ns.oracle_file)
    ok = uni_mod.l_membership(ns.word, oracle)
    report = _Report(ns.format)
    report.add("member", "yes" if ok else "no")
    report.emit()
    return EX_YES if ok else EX_NO


def _cmd_uni_wparams(ns) -> int:
    entry = uni_mod.w_params(ns.a, ns.b, ns.c)
    report = _Report(ns.format)
    report.add("r", entry.r)
    report.add("q", entry.q)
    report.add("r-length", entry.r_length)
    report.add("q-length", entry.q_length)
    report.emit()
    return EX_YES


def _cmd_uni_forward(ns) -> int:
    word = uni_mod.forward_reduce(ns.x)
    if ns.format == "dot":
        raise UsageError("DOT output is only defined for machine-emitting commands")
    if ns.format == "jsonl":
        print(json.dumps({"protocol": list(word)}))
    else:
        print(f"{''.join(word[:-2])} # +")
    return EX_YES


# -- parser wiring ---------------------------------------------------------


def _add_common(p):
    p.add_argument("--format", choices=("text", "dot", "jsonl"), default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="adskit", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("accepts", help="run an automaton on a word")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    _add_common(p)
    p.set_defaults(fn=_cmd_accepts)

    p = sub.add_parser("trim", help="drop useless states")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=_cmd_trim)

    p = sub.add_parser("product", help="intersection product of two automata")
    p.add_argument("file")
    p.add_argument("other")
    _add_common(p)
    p.set_defaults(fn=_cmd_product)

    fst = sub.add_parser("fst", help="transducer operations").add_subparsers(
        dest="sub", required=True)
    p = fst.add_parser("apply")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--cap", type=_count(0), default=64)
    _add_common(p)
    p.set_defaults(fn=_cmd_fst_apply)
    p = fst.add_parser("compose")
    p.add_argument("file")
    p.add_argument("other")
    _add_common(p)
    p.set_defaults(fn=_cmd_fst_compose)
    p = fst.add_parser("invert")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=_cmd_fst_invert)
    p = fst.add_parser("image")
    p.add_argument("file")
    p.add_argument("automaton")
    _add_common(p)
    p.set_defaults(fn=_cmd_fst_image)
    p = fst.add_parser("preimage")
    p.add_argument("file")
    p.add_argument("automaton")
    _add_common(p)
    p.set_defaults(fn=_cmd_fst_preimage)

    proto = sub.add_parser("protocol", help="protocol language checks").add_subparsers(
        dest="sub", required=True)
    p = proto.add_parser("member")
    p.add_argument("word", nargs="*")
    p.add_argument("--oracle", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_protocol_member)
    p = proto.add_parser("fuzz")
    p.add_argument("--oracle", required=True)
    p.add_argument("--axiom", required=True,
                   choices=("i", "ii", "iii", "iv", "v", "vi"))
    p.add_argument("--trials", type=_count(0), default=1000)
    p.add_argument("--max-len", type=_count(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_protocol_fuzz)

    ads = sub.add_parser("ads", help="storage-machine operations").add_subparsers(
        dest="sub", required=True)
    p = ads.add_parser("simulate")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--oracle", required=True)
    p.add_argument("--bounds")
    _add_common(p)
    p.set_defaults(fn=_cmd_ads_simulate)
    p = ads.add_parser("extract")
    p.add_argument("file")
    p.add_argument("--oracle", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_ads_extract)
    p = ads.add_parser("mprot")
    p.add_argument("--oracle", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_ads_mprot)
    p = ads.add_parser("recode")
    p.add_argument("file")
    p.add_argument("--oracle", required=True)
    p.add_argument("--emit", choices=("machine", "decoder"), default="machine")
    _add_common(p)
    p.set_defaults(fn=_cmd_ads_recode)

    nrr = sub.add_parser("nrr", help="realizability instances").add_subparsers(
        dest="sub", required=True)
    p = nrr.add_parser("decide")
    p.add_argument("file")
    p.add_argument("--filter", required=True)
    p.add_argument("--bounds")
    _add_common(p)
    p.set_defaults(fn=_cmd_nrr_decide)
    p = nrr.add_parser("reduce-from-ads")
    p.add_argument("file")
    p.add_argument("--oracle", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_nrr_reduce_from_ads)
    p = nrr.add_parser("reduce-to-ads")
    p.add_argument("file")
    p.add_argument("--filter", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_nrr_reduce_to_ads)
    p = nrr.add_parser("member-to-reg")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--oracle", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_nrr_member_to_reg)
    p = nrr.add_parser("filter-transfer")
    p.add_argument("file")
    p.add_argument("fst")
    _add_common(p)
    p.set_defaults(fn=_cmd_nrr_filter_transfer)

    logtm = sub.add_parser("logtm", help="log-space machine runs").add_subparsers(
        dest="sub", required=True)
    p = logtm.add_parser("run")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--advice")
    p.add_argument("--oracle")
    p.add_argument("--bounds")
    p.add_argument("--step-cap", type=_count(1))
    _add_common(p)
    p.set_defaults(fn=_cmd_logtm_run)
    p = logtm.add_parser("surface-nfa")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    _add_common(p)
    p.set_defaults(fn=_cmd_logtm_surface)
    p = logtm.add_parser("lambda-elim")
    p.add_argument("file")
    p.add_argument("--lam", default=logtm_mod.LAMBDA)
    _add_common(p)
    p.set_defaults(fn=_cmd_logtm_lambda_elim)

    uni = sub.add_parser("universality", help="graded-language reductions").add_subparsers(
        dest="sub", required=True)
    p = uni.add_parser("decide")
    p.add_argument("file")
    p.add_argument("--oracle-file", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_uni_decide)
    p = uni.add_parser("lmember")
    p.add_argument("word")
    p.add_argument("--oracle-file", required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_uni_lmember)
    p = uni.add_parser("wparams")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    _add_common(p)
    p.set_defaults(fn=_cmd_uni_wparams)
    p = uni.add_parser("forward")
    p.add_argument("x")
    _add_common(p)
    p.set_defaults(fn=_cmd_uni_forward)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.fn(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATA
    except (ValueError, CapExceeded, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
