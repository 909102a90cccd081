"""adskit benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload saturate --seed 1 --seconds 22 --trace 0

Run from the root of a checkout.  Two child processes run in turn.  The
check phase answers every instance once and checks the answers.  The
measure phase sets up the seeded instances several times (setup_s is
the median), warms up with one round, then repeats whole rounds until
--seconds have passed; it is a closed loop with one caller and no extra
threads, and its peak memory is its own.  wall_s is the median round,
largest_s the median time of the top rungs (for cli, of the slowest
command).  With --trace 1 the measure phase installs the wrappers of
trace.py and reports per-layer figures per traced round instead.  The
last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("saturate", "search", "transduce", "cli")
SETUP_REPEATS = 25
MIN_ROUNDS = 3
CHECK_TIMEOUT_S = 60
MEASURE_SLACK_S = 80         # measure phase limit beyond --seconds
WORK_ROOT = Path(".perfbench_work")

END_TO_END = ("setup_s", "wall_s", "largest_s", "peak_rss_mb")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("check", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true",
                   help="answer each instance once and print the answers only")
    return p.parse_args(argv)


# -- parent ------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase:
        return child(args)
    if not (Path("src") / "adskit" / "__init__.py").is_file():
        print("perfbench: run from the root of an adskit checkout (src/adskit not found)",
              file=sys.stderr)
        return 2
    checked, _ = spawn(args, "check", None)
    if checked is None:
        return 1
    if args.record:
        print(json.dumps({"answers": checked["summaries"]}))
        return 0
    result, usage = spawn(args, "measure", checked)
    if result is None:
        return 1
    metrics = result["metrics"]
    if args.trace == 0:
        kb = result.pop("cli_peak_kb", None) or usage.ru_maxrss
        metrics["peak_rss_mb"] = {"value": kb / 1024.0, "unit": "MB"}
        metrics = {name: metrics[name] for name in END_TO_END}
    for line in checked["lines"] + result["lines"]:
        print(line)
    for name, m in metrics.items():
        print(f"{args.workload}.{name}: {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}.attempted: {result['attempted']}  failed: {result['failed']}")
    print(json.dumps({"correct": not checked["failures"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def spawn(args, phase, stdin_obj):
    """Run one child phase; return its JSON result and resource usage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(HERE)])
    # one fixed hash seed: set iteration order, and with it search order,
    # is then the same in every run
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "run.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    # a child past its time limit is killed; its stdout then ends early
    signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
    signal.alarm(CHECK_TIMEOUT_S if phase == "check"
                 else int(args.seconds) + MEASURE_SLACK_S)
    try:
        # the child reads all of stdin before it prints anything
        proc.stdin.write(json.dumps(stdin_obj))
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        signal.alarm(0)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0 or not out.strip():
        print(f"perfbench: {phase} phase of {args.workload} failed "
              f"(exit code {proc.returncode})", file=sys.stderr)
        return None, usage
    return json.loads(out.strip().splitlines()[-1]), usage


# -- child ---------------------------------------------------------------------


def child(args) -> int:
    import workloads

    given = json.loads(sys.stdin.read())
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.phase == "check":
            result = check_phase(args, workloads, workdir)
        else:
            result = measure_phase(args, workloads, workdir, given)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def check_phase(args, workloads, workdir) -> dict:
    """Answer every instance once and check the answers.

    A process of its own, so the memory the checks take never shows in
    the measured peak."""
    import answers as answer_record

    w = workloads.setup(args.workload, args.seed, workdir)
    first = {op.name: op.run() for op in w.ops}
    summaries = {op.name: op.summary(first[op.name]) for op in w.ops}
    failures = {}
    for op in w.ops:
        try:
            reason = op.check(first[op.name], first)
        except Exception as exc:  # a crashing check is a failed operation, not a crashed run
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[op.name] = reason
    lines = [f"{args.workload}: seed {args.seed}, {len(w.ops)} operations per round"]
    lines += [f"FAILED {name}: {reason}" for name, reason in sorted(failures.items())]
    lines.append(answer_record.compare(args.workload, args.seed, summaries))
    return {"summaries": summaries, "failures": failures, "lines": lines}


def measure_phase(args, workloads, workdir, checked) -> dict:
    """Set up several times, warm up with one round, then time whole
    rounds until the run length has passed."""
    tracer = None
    if args.trace:
        import trace
        tracer = trace.Tracer()
        tracer.install()
    summaries, failures = checked["summaries"], checked["failures"]
    inprocess = bool(args.trace) and args.workload == "cli"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        start = perf_counter()
        w = workloads.setup(args.workload, args.seed, workdir, inprocess=inprocess)
        setup_times.append(perf_counter() - start)
    for op in w.ops:
        op.run()

    rounds, top_times, op_times = [], [], {op.name: [] for op in w.ops}
    traced_rounds, untraced_rounds = [], []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        traced = tracer is not None and len(rounds) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        # a round is the sum of its operations: comparing the answers
        # between them is the benchmark's own work
        busy = top = 0.0
        for op in w.ops:
            start = perf_counter()
            ans = op.run()
            took = perf_counter() - start
            op_times[op.name].append(took)
            busy += took
            if op.top:
                top += took
            attempted += 1
            if op.name in failures or op.summary(ans) != summaries[op.name]:
                failed += 1
        if tracer is not None:
            tracer.active = False
            (traced_rounds if traced else untraced_rounds).append(busy)
        rounds.append(busy)
        top_times.append(top)

    per_rung = {}
    for op in w.ops:
        per_rung[op.rung] = per_rung.get(op.rung, 0.0) + statistics.median(op_times[op.name])
    result = {"attempted": attempted, "failed": failed,
              "lines": [f"{args.workload}: {len(setup_times)} set-ups, {len(rounds)} measured "
                        f"rounds: " + " ".join(f"{r:.3f}" for r in rounds),
                        "median seconds per rung: " + ", ".join(
                            f"{rung} {t:.4f}" for rung, t in per_rung.items())]}
    if tracer is None:
        if w.largest == "slowest":
            largest = max(statistics.median(t) for t in op_times.values())
        else:
            largest = statistics.median(top_times)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "largest_s": {"value": largest, "unit": "s"},
        }
        if args.workload == "cli":
            result["cli_peak_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return result
    metrics = layer_metrics(tracer, len(traced_rounds), args.workload, workloads)
    traced_wall = statistics.median(traced_rounds)
    untraced_wall = statistics.median(untraced_rounds)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    if args.workload == "cli":
        # the cli rounds of a traced run call main in-process on the same argv
        metrics["cli.main_s"]["value"] = untraced_wall
    spans_dir = WORK_ROOT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_dir / f"{args.workload}-{args.seed}.jsonl")
    result["metrics"] = metrics
    return result


# every per-layer metric, in BENCHMARK.json order: (name, unit, source)
LAYER_METRICS = [
    ("automata.Nfa.step.calls", "count", ("calls", "automata.Nfa.step")),
    ("automata.Nfa.step.s", "s", ("timed", "automata.Nfa.step")),
    ("automata.Nfa.eps_closure.calls", "count", ("calls", "automata.Nfa.eps_closure")),
    ("automata.Nfa.construct.calls", "count", ("calls", "automata.Nfa.construct")),
    ("automata.Nfa.construct.s", "s", ("timed", "automata.Nfa.construct")),
    ("automata.product_intersect.s", "s", ("total", "automata.product_intersect")),
    ("automata.product_intersect.states", "count",
     ("counts", "automata.product_intersect.states")),
    ("automata.Nfa.trim.s", "s", ("total", "automata.Nfa.trim")),
    ("automata.Nfa.enumerate_words.s", "s", ("total", "automata.Nfa.enumerate_words")),
    ("transducers.Fst.apply.s", "s", ("total", "transducers.Fst.apply")),
    ("transducers.Fst.apply.outputs", "count", ("counts", "transducers.Fst.apply.outputs")),
    ("transducers.compose.s", "s", ("total", "transducers.compose")),
    ("transducers.invert.s", "s", ("total", "transducers.invert")),
    ("transducers.preimage_nfa.s", "s", ("total", "transducers.preimage_nfa")),
    ("transducers.image_nfa.s", "s", ("total", "transducers.image_nfa")),
    ("protocols.respond.calls", "count", ("calls", "protocols.respond")),
    ("protocols.membership.s", "s", ("total", "protocols.membership")),
    ("protocols.axiom_fuzz.s", "s", ("total", "protocols.axiom_fuzz")),
    ("ads.simulate.s", "s", ("total", "ads.simulate")),
    ("ads.extractor.s", "s", ("total", "ads.extractor")),
    ("ads.compose_with_fst.s", "s", ("total", "ads.compose_with_fst")),
    ("nrr.nreg_dyck.s", "s", ("total", "nrr.nreg_dyck")),
    ("nrr.nreg_dyck.self_s", "s", ("self", "nrr.nreg_dyck")),
    ("nrr.nreg_generic.s", "s", ("total", "nrr.nreg_generic")),
    ("nrr.nreg_perk.s", "s", ("total", "nrr.nreg_perk")),
    ("nrr.membership_to_reg.s", "s", ("total", "nrr.membership_to_reg")),
    ("nrr.nonemptiness_to_nrr.s", "s", ("total", "nrr.nonemptiness_to_nrr")),
    ("nrr.nrr_to_nonemptiness.s", "s", ("total", "nrr.nrr_to_nonemptiness")),
    ("logtm.run_with_protocol.s", "s", ("total", "logtm.run_with_protocol")),
    ("logtm.run_with_advice.s", "s", ("total", "logtm.run_with_advice")),
    ("logtm.surface_config_nfa.s", "s", ("total", "logtm.surface_config_nfa")),
    ("universality.universality_decide.s", "s", ("total", "universality.universality_decide")),
    ("universality.universality_decide.self_s", "s",
     ("self", "universality.universality_decide")),
    ("universality.length_sets.s", "s", ("total", "universality.length_sets")),
    ("universality.lex_extreme.s", "s", ("total", "universality.lex_extreme")),
    ("universality.oracle_calls", "count", ("counts", "universality.oracle_calls")),
    ("formats.load.s", "s", ("total", "formats.load")),
    ("formats.dump.s", "s", ("total", "formats.dump")),
    ("cli.interpreter_s", "s", ("cli", "interpreter")),
    ("cli.import_s", "s", ("cli", "import")),
    ("cli.main_s", "s", ("cli", "main")),
    ("trace.wall_s", "s", None),
    ("trace.overhead_s", "s", None),
]


def layer_metrics(tracer, n_rounds, workload, workloads) -> dict:
    """Per-layer figures per traced round."""
    tables = {"calls": tracer.calls, "timed": tracer.timed, "total": tracer.total,
              "self": tracer.self_time, "counts": tracer.counts}
    cli_figures = {"interpreter": 0.0, "import": 0.0, "main": 0.0}
    if workload == "cli":
        cli_figures["interpreter"] = statistics.median(
            workloads.interpreter_seconds() for _ in range(5))
        cli_figures["import"] = statistics.median(
            workloads.fresh_import_seconds() for _ in range(5))
    out = {}
    for name, unit, source in LAYER_METRICS:
        if source is None:
            continue
        kind, key = source
        if kind == "cli":
            value = cli_figures[key]
        else:
            value = tables[kind].get(key, 0) / n_rounds
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
