"""Command-line front end.

Every subcommand reads machine descriptions in the textual formats,
prints a deterministic report, and signals its answer through the exit
code: 0 yes/success, 1 no, 2 unknown, 64 usage errors, 65 malformed
input or failed domain validation.  --format switches the report between
plain text and JSON lines; commands that print an automaton or a
transducer also offer DOT.  The parser converts and checks every flag
and binary-word argument, so a bad value is refused before any input is
read; command bodies check only the rules that tie two flags together.
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


# Store names and their constructors: --oracle takes a protocol oracle,
# --filter also the copy language.  A name:K store takes K in decimal
# digits; its constructor checks the range.
_ORACLES = {"dyck": DyckOracle, "dyck-exact": lambda: DyckOracle(exact_d2=True),
            "set": SetOracle, "sis:K": SingleInsertOracle}
_FILTERS = {**_ORACLES, "per:K": nrr_mod.PerKFilter}


def _store(noun: str, stores: dict):
    """argparse type: a store named in stores, refused in terms of noun."""
    names = list(stores)
    expected = ", ".join(names[:-1]) + ", or " + names[-1]

    def store(arg: str):
        name, colon, k = arg.partition(":")
        make = stores.get(name + ":K" if colon else name)
        if make is None or colon and not k.isdecimal():
            raise UsageError(f"unknown {noun} {arg!r} (expected {expected})")
        try:
            return make(int(k)) if colon else make()
        except ValueError as exc:
            raise UsageError(f"bad {noun} {arg!r}: {exc}") from None
    return store


_oracle = _store("oracle", _ORACLES)


def _binary(text: str) -> str:
    """argparse type: a word over 0 and 1."""
    if any(ch not in "01" for ch in text):
        raise UsageError(f"binary word expected, got {text!r}")
    return text


def _triple_part(text: str) -> str:
    """argparse type: a non-empty binary word, one component of a triple."""
    if not _binary(text):
        raise UsageError("triple components must be non-empty")
    return text


def _count(low: int):
    """argparse type: an integer that must be at least low."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return count


def _bounds(text: str) -> SearchBounds:
    """argparse type for --bounds.  A parsed value is a new object, never
    DEFAULT_BOUNDS itself, so `ns.bounds is not DEFAULT_BOUNDS` means the
    flag was given."""
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


def _report(fmt: str, rows, ok: bool = True) -> int:
    """Print key/value rows as text lines or as one JSON line; exit yes if ok, else no."""
    if fmt == "jsonl":
        print(json.dumps(dict(rows), ensure_ascii=False))
    else:
        for key, value in rows:
            if isinstance(value, bool):
                value = "yes" if value else "no"
            elif isinstance(value, (list, tuple)):
                value = " ".join(value) if value else "-"
            print(f"{key}: {value}")
    return EX_YES if ok else EX_NO


def _emit_machine(obj, fmt: str) -> int:
    if fmt == "dot":
        print(fst_dot(obj) if isinstance(obj, fst_mod.Fst) else to_dot(obj))
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


def _verdict_report(verdict: Verdict, fmt: str, witness=None) -> int:
    rows = [("verdict", verdict.value)]
    if verdict is Verdict.ACCEPT and witness is not None:
        rows.append(("witness", list(witness)))
    _report(fmt, rows)
    return _VERDICT_EXIT[verdict]


# -- subcommand bodies ----------------------------------------------------


def _cmd_accepts(ns) -> int:
    a = load_automaton(_read(ns.file))
    word = _tokens(ns.word)
    ok = a.accepts(word)
    return _report(ns.format, [("accepts", "yes" if ok else "no")], ok)


def _cmd_trim(ns) -> int:
    return _emit_machine(load_automaton(_read(ns.file)).trim(), ns.format)


def _cmd_product(ns) -> int:
    a = load_automaton(_read(ns.file))
    b = load_automaton(_read(ns.other))
    return _emit_machine(product_intersect(a, b), ns.format)


def _cmd_fst_apply(ns) -> int:
    t = load_fst(_read(ns.file))
    result = t.apply(_tokens(ns.word), output_cap=ns.cap)
    words = sorted(result.words, key=t.output_alphabet.word_key)
    if ns.format == "jsonl":
        outputs = [list(w) for w in words]
    else:
        outputs = [",".join(w) if w else "-" for w in words]
    return _report(ns.format, [("outputs", outputs), ("truncated", result.truncated)],
                   bool(words))


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
    ok = membership(ns.oracle, _tokens(ns.word))
    return _report(ns.format, [("member", "yes" if ok else "no")], ok)


def _cmd_protocol_fuzz(ns) -> int:
    report = axiom_fuzz(ns.oracle, ns.axiom, trials=ns.trials,
                        max_len=ns.max_len, seed=ns.seed)
    if ns.format == "jsonl":
        print(json.dumps({"axiom": report.axiom, "trials": report.trials,
                          "violations": len(report.violations)}))
    else:
        print(report.summary())
    return EX_YES if report.ok else EX_NO


def _cmd_ads_simulate(ns) -> int:
    machine = load_ads(_read(ns.file), ns.oracle.alphabet)
    verdict = ads_mod.simulate(machine, _tokens(ns.word), ns.oracle, bounds=ns.bounds)
    return _verdict_report(verdict, ns.format)


def _cmd_ads_extract(ns) -> int:
    machine = load_ads(_read(ns.file), ns.oracle.alphabet)
    return _emit_machine(ads_mod.extractor(machine), ns.format)


def _cmd_ads_mprot(ns) -> int:
    return _emit_machine(ads_mod.m_prot(ns.oracle.alphabet, ns.oracle), ns.format)


def _cmd_ads_recode(ns) -> int:
    if ns.format == "dot" and ns.emit == "machine":
        raise UsageError("DOT output is only defined for automata and transducers")
    machine = load_ads(_read(ns.file), ns.oracle.alphabet)
    recoded, decoder = ads_mod.two_letter_recode(machine)
    return _emit_machine(decoder if ns.emit == "decoder" else recoded, ns.format)


def _cmd_nrr_decide(ns) -> int:
    if isinstance(ns.filter, DyckOracle) and ns.bounds is not DEFAULT_BOUNDS:
        raise UsageError("--bounds applies to searched filters only; "
                         "the dyck filters are decided without bounds")
    a = load_automaton(_read(ns.file))
    answer = nrr_mod.decide(nrr_mod.NrrInstance(a, ns.filter), bounds=ns.bounds)
    return _verdict_report(answer.verdict, ns.format, witness=answer.witness)


def _cmd_nrr_reduce_from_ads(ns) -> int:
    machine = load_ads(_read(ns.file), ns.oracle.alphabet)
    return _emit_machine(nrr_mod.nonemptiness_to_nrr(machine), ns.format)


def _cmd_nrr_reduce_to_ads(ns) -> int:
    a = load_automaton(_read(ns.file))
    machine = nrr_mod.nrr_to_nonemptiness(a, ns.filter.alphabet, ns.filter)
    return _emit_machine(machine, ns.format)


def _cmd_nrr_member_to_reg(ns) -> int:
    machine = load_ads(_read(ns.file), ns.oracle.alphabet)
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
    if ns.oracle is None and ns.bounds is not DEFAULT_BOUNDS:
        raise UsageError("--bounds applies to oracle runs only; it needs --oracle")
    tm = load_tm(_read(ns.file))
    word = _tokens(ns.word)
    if ns.oracle is not None:
        verdict = logtm_mod.run_with_protocol(tm, word, ns.oracle, bounds=ns.bounds)
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
    return _report(ns.format, [("nonempty", "yes" if answer.nonempty else "no"),
                               ("oracle-calls", answer.oracle_calls)], answer.nonempty)


def _cmd_uni_lmember(ns) -> int:
    ok = uni_mod.l_membership(ns.word, _oracle_x(ns.oracle_file))
    return _report(ns.format, [("member", "yes" if ok else "no")], ok)


def _cmd_uni_wparams(ns) -> int:
    entry = uni_mod.w_params(ns.a, ns.b, ns.c)
    return _report(ns.format, [("r", entry.r), ("q", entry.q),
                               ("r-length", entry.r_length), ("q-length", entry.q_length)])


def _cmd_uni_forward(ns) -> int:
    word = uni_mod.forward_reduce(ns.x)
    if ns.format == "jsonl":
        print(json.dumps({"protocol": list(word)}))
    else:
        print(f"{''.join(word[:-2])} # +")
    return EX_YES


# -- parser wiring ---------------------------------------------------------


def _add_format(p, dot: bool = False):
    """--format; DOT only for commands that print an automaton or a transducer."""
    p.add_argument("--format", choices=("text", "dot", "jsonl") if dot else ("text", "jsonl"),
                   default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="adskit", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("accepts", help="run an automaton on a word")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    _add_format(p)
    p.set_defaults(fn=_cmd_accepts)

    p = sub.add_parser("trim", help="drop useless states")
    p.add_argument("file")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_trim)

    p = sub.add_parser("product", help="intersection product of two automata")
    p.add_argument("file")
    p.add_argument("other")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_product)

    fst = sub.add_parser("fst", help="transducer operations").add_subparsers(
        dest="sub", required=True)
    p = fst.add_parser("apply")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--cap", type=_count(0), default=64)
    _add_format(p)
    p.set_defaults(fn=_cmd_fst_apply)
    p = fst.add_parser("compose")
    p.add_argument("file")
    p.add_argument("other")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_fst_compose)
    p = fst.add_parser("invert")
    p.add_argument("file")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_fst_invert)
    p = fst.add_parser("image")
    p.add_argument("file")
    p.add_argument("automaton")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_fst_image)
    p = fst.add_parser("preimage")
    p.add_argument("file")
    p.add_argument("automaton")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_fst_preimage)

    proto = sub.add_parser("protocol", help="protocol language checks").add_subparsers(
        dest="sub", required=True)
    p = proto.add_parser("member")
    p.add_argument("word", nargs="*")
    p.add_argument("--oracle", required=True, type=_oracle)
    _add_format(p)
    p.set_defaults(fn=_cmd_protocol_member)
    p = proto.add_parser("fuzz")
    p.add_argument("--oracle", required=True, type=_oracle)
    p.add_argument("--axiom", required=True,
                   choices=("i", "ii", "iii", "iv", "v", "vi"))
    p.add_argument("--trials", type=_count(0), default=1000)
    p.add_argument("--max-len", type=_count(0), default=50)
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.set_defaults(fn=_cmd_protocol_fuzz)

    ads = sub.add_parser("ads", help="storage-machine operations").add_subparsers(
        dest="sub", required=True)
    p = ads.add_parser("simulate")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--oracle", required=True, type=_oracle)
    p.add_argument("--bounds", type=_bounds, default=DEFAULT_BOUNDS)
    _add_format(p)
    p.set_defaults(fn=_cmd_ads_simulate)
    p = ads.add_parser("extract")
    p.add_argument("file")
    p.add_argument("--oracle", required=True, type=_oracle)
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_ads_extract)
    p = ads.add_parser("mprot")
    p.add_argument("--oracle", required=True, type=_oracle)
    _add_format(p)
    p.set_defaults(fn=_cmd_ads_mprot)
    p = ads.add_parser("recode")
    p.add_argument("file")
    p.add_argument("--oracle", required=True, type=_oracle)
    p.add_argument("--emit", choices=("machine", "decoder"), default="machine")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_ads_recode)

    nrr = sub.add_parser("nrr", help="realizability instances").add_subparsers(
        dest="sub", required=True)
    p = nrr.add_parser("decide")
    p.add_argument("file")
    p.add_argument("--filter", required=True, type=_store("filter", _FILTERS))
    p.add_argument("--bounds", type=_bounds, default=DEFAULT_BOUNDS)
    _add_format(p)
    p.set_defaults(fn=_cmd_nrr_decide)
    p = nrr.add_parser("reduce-from-ads")
    p.add_argument("file")
    p.add_argument("--oracle", required=True, type=_oracle)
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_nrr_reduce_from_ads)
    p = nrr.add_parser("reduce-to-ads")
    p.add_argument("file")
    p.add_argument("--filter", required=True, type=_store("filter", _ORACLES))
    _add_format(p)
    p.set_defaults(fn=_cmd_nrr_reduce_to_ads)
    p = nrr.add_parser("member-to-reg")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--oracle", required=True, type=_oracle)
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_nrr_member_to_reg)
    p = nrr.add_parser("filter-transfer")
    p.add_argument("file")
    p.add_argument("fst")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_nrr_filter_transfer)

    logtm = sub.add_parser("logtm", help="log-space machine runs").add_subparsers(
        dest="sub", required=True)
    p = logtm.add_parser("run")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    p.add_argument("--advice")
    p.add_argument("--oracle", type=_oracle)
    p.add_argument("--bounds", type=_bounds, default=DEFAULT_BOUNDS)
    p.add_argument("--step-cap", type=_count(1))
    _add_format(p)
    p.set_defaults(fn=_cmd_logtm_run)
    p = logtm.add_parser("surface-nfa")
    p.add_argument("file")
    p.add_argument("word", nargs="*")
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_logtm_surface)
    p = logtm.add_parser("lambda-elim")
    p.add_argument("file")
    p.add_argument("--lam", default=logtm_mod.LAMBDA)
    _add_format(p, dot=True)
    p.set_defaults(fn=_cmd_logtm_lambda_elim)

    uni = sub.add_parser("universality", help="graded-language reductions").add_subparsers(
        dest="sub", required=True)
    p = uni.add_parser("decide")
    p.add_argument("file")
    p.add_argument("--oracle-file", required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_uni_decide)
    p = uni.add_parser("lmember")
    p.add_argument("word", type=_binary)
    p.add_argument("--oracle-file", required=True)
    _add_format(p)
    p.set_defaults(fn=_cmd_uni_lmember)
    p = uni.add_parser("wparams")
    p.add_argument("a", type=_triple_part)
    p.add_argument("b", type=_triple_part)
    p.add_argument("c", type=_triple_part)
    _add_format(p)
    p.set_defaults(fn=_cmd_uni_wparams)
    p = uni.add_parser("forward")
    p.add_argument("x", type=_binary)
    _add_format(p)
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
