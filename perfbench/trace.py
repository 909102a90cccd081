"""Per-layer tracing installed from outside the program.

Wrappers replace public adskit functions and methods at run time; the
program's source is never touched.  A wrapped function is rebound in
every adskit module that imported it (for example
`universality.product_intersect`), so calls made from inside the package
are seen too.  Most functions record a span (id, parent span, name,
start, end); the hottest ones (`Nfa.step`, `Nfa.eps_closure`, the
oracles' `respond` and the automaton constructors) only add to counters
so tracing them stays cheap.  Spans stay in memory and are written out
when the run ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

ADSKIT_MODULES = ("automata", "transducers", "protocols", "ads", "nrr", "logtm",
                  "universality", "formats", "cli", "verdict", "errors")

# (module, attribute path, metric name) of every spanned function
SPANNED = [
    ("automata", "product_intersect", "automata.product_intersect"),
    ("automata", "Nfa.trim", "automata.Nfa.trim"),
    ("automata", "Nfa.enumerate_words", "automata.Nfa.enumerate_words"),
    ("transducers", "Fst.apply", "transducers.Fst.apply"),
    ("transducers", "compose", "transducers.compose"),
    ("transducers", "invert", "transducers.invert"),
    ("transducers", "preimage_nfa", "transducers.preimage_nfa"),
    ("transducers", "image_nfa", "transducers.image_nfa"),
    ("protocols", "membership", "protocols.membership"),
    ("protocols", "axiom_fuzz", "protocols.axiom_fuzz"),
    ("ads", "simulate", "ads.simulate"),
    ("ads", "extractor", "ads.extractor"),
    ("ads", "compose_with_fst", "ads.compose_with_fst"),
    ("nrr", "nreg_dyck", "nrr.nreg_dyck"),
    ("nrr", "nreg_generic", "nrr.nreg_generic"),
    ("nrr", "nreg_perk", "nrr.nreg_perk"),
    ("nrr", "membership_to_reg", "nrr.membership_to_reg"),
    ("nrr", "nonemptiness_to_nrr", "nrr.nonemptiness_to_nrr"),
    ("nrr", "nrr_to_nonemptiness", "nrr.nrr_to_nonemptiness"),
    ("logtm", "run_with_protocol", "logtm.run_with_protocol"),
    ("logtm", "run_with_advice", "logtm.run_with_advice"),
    ("logtm", "surface_config_nfa", "logtm.surface_config_nfa"),
    ("universality", "universality_decide", "universality.universality_decide"),
    ("universality", "length_sets", "universality.length_sets"),
    ("universality", "lex_extreme", "universality.lex_extreme"),
    ("formats", "load_automaton", "formats.load"),
    ("formats", "load_fst", "formats.load"),
    ("formats", "load_ads", "formats.load"),
    ("formats", "load_tm", "formats.load"),
    ("formats", "dump_automaton", "formats.dump"),
    ("formats", "dump_fst", "formats.dump"),
    ("formats", "dump_ads", "formats.dump"),
    ("formats", "dump_tm", "formats.dump"),
]

# counted, and for step and the constructors timed, but never spanned
COUNTED = [
    ("automata", "Nfa.step", "automata.Nfa.step", True),
    ("automata", "Nfa.eps_closure", "automata.Nfa.eps_closure", False),
    ("automata", "Nfa.__init__", "automata.Nfa.construct", True),
    ("automata", "Dfa.__init__", "automata.Nfa.construct", True),
]

# extra counts read off a traced function's result
RESULT_COUNTS = {
    "automata.product_intersect": ("automata.product_intersect.states",
                                   lambda r: len(r.states)),
    "transducers.Fst.apply": ("transducers.Fst.apply.outputs", lambda r: len(r.words)),
    "universality.universality_decide": ("universality.oracle_calls",
                                         lambda r: r.oracle_calls),
}


class Tracer:
    """Holds every span and counter of one traced run."""

    def __init__(self):
        self.active = False
        self.spans = []          # (id, parent id or -1, name, start, end)
        self._stack = []         # per open span: [time in child spans, span id]
        self._next_id = 0
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.timed = defaultdict(float)
        self._construct_depth = 0

    # -- wrappers ------------------------------------------------------

    def spanned(self, fn, name):
        result_count = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            self._stack.append([0.0, span_id])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                child = self._stack.pop()[0]
                dur = end - start
                parent = self._stack[-1][1] if self._stack else -1
                self.spans.append((span_id, parent, name, start, end))
                self.total[name] += dur
                self.self_time[name] += dur - child
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dur
            if result_count is not None:
                self.counts[result_count[0]] += result_count[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name, timed):
        if not timed:
            def wrapper(*args, **kwargs):
                if self.active:
                    self.calls[name] += 1
                return fn(*args, **kwargs)
        elif name == "automata.Nfa.construct":
            # Dfa.__init__ calls Nfa.__init__: count the outer call only
            def wrapper(*args, **kwargs):
                if not self.active or self._construct_depth:
                    return fn(*args, **kwargs)
                self._construct_depth += 1
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._construct_depth -= 1
                    self.timed[name] += perf_counter() - start
                    self.calls[name] += 1
        else:
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.timed[name] += perf_counter() - start
                    self.calls[name] += 1
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"adskit.{m}") for m in ADSKIT_MODULES]
        modules.append(importlib.import_module("adskit"))
        for mod, path, name in SPANNED:
            self._replace(modules, mod, path, lambda fn, n=name: self.spanned(fn, n))
        for mod, path, name, timed in COUNTED:
            self._replace(modules, mod, path,
                          lambda fn, n=name, t=timed: self.counted(fn, n, t))
        protocols = sys.modules["adskit.protocols"]
        for module in modules:
            for obj in list(vars(module).values()):
                if (inspect.isclass(obj) and issubclass(obj, protocols.ProtocolOracle)
                        and "respond" in vars(obj)
                        and not hasattr(vars(obj)["respond"], "__wrapped__")):
                    obj.respond = self.counted(vars(obj)["respond"], "protocols.respond",
                                               False)

    @staticmethod
    def _replace(modules, mod, path, make):
        owner = importlib.import_module(f"adskit.{mod}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, attr, make(vars(cls)[attr]))
            return
        original = getattr(owner, path)
        wrapped = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    # -- results -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
