"""Run one benchmark workload in this (fresh, single-threaded) process.

Started by ``run.py``; not meant to be run by hand.  It imports kstlab from
the checkout's ``src``, builds the workload's inputs from the seed, and
prints ``ready`` when set-up is done.  Then it repeats whole passes over the
workload's ops until the timed op time reaches ``--seconds`` and at least
``MIN_OPS`` ops ran, checks every answer untimed, and prints one JSON line
with its measurements; op times are scaled by ``calibration.py``.  A wrong
answer exits with code 3 and prints no measurements.

The workload's out-of-process reference answers (``Workload.references``)
are computed by a set-up-only worker given ``--references-out`` after it
prints ``ready``, and read by the measuring worker from ``--references``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# p90 of a run needs at least ten samples beyond it.
MIN_OPS = 100

EXIT_WRONG = 3

# Op time between two calibration samples.
CALIBRATE_EVERY_S = 0.05


def _failing_layer(exc: BaseException) -> str:
    """The kstlab module with the most frames in the exception's traceback
    (the recursing one, for a RecursionError); ties go to the innermost."""
    modules = [Path(f.filename).stem for f in traceback.extract_tb(exc.__traceback__)
               if Path(f.filename).parent.name == "kstlab"]
    if not modules:
        return "benchmark"
    counts = Counter(modules)
    return max(reversed(modules), key=counts.__getitem__)


def _layers(tracer, passes: int) -> dict:
    """Per-layer metrics per pass, and the reason for every one left out."""
    times = tracer.self_times()
    counters, errors = tracer.counters, tracer.errors
    out, absent = {}, {}

    def per_pass(x):
        return x / passes

    for name in ("cli", "graph.parse", "graph.ops", "minors.search", "minors.oracle",
                 "listcolor.solve", "listcolor.choosable", "construction.sample",
                 "construction.block", "construction.assemble", "construction.pigeonhole"):
        calls, self_s = times.get(name, (0, 0.0))
        out[f"{name}.calls"] = per_pass(calls)
        out[f"{name}.self_s"] = per_pass(self_s)
    out["construction.degree.self_s"] = per_pass(times.get("construction.degree", (0, 0.0))[1])
    out["construction.sweep.self_s"] = per_pass(times.get("construction.sweep", (0, 0.0))[1])
    search = counters["minors.search"]
    out["minors.search.nodes"] = per_pass(search["nodes"])
    out["minors.search.budget_exhausted"] = per_pass(search["budget_exhausted"])
    out["minors.search.errors"] = per_pass(sum(errors["minors.search"].values()))
    out["minors.search.us_per_node"] = 0.0
    if search["nodes"]:
        out["minors.search.us_per_node"] = 1e6 * out["minors.search.self_s"] / out["minors.search.nodes"]
    else:
        absent["minors.search.us_per_node"] = "reported as 0: no search nodes in this workload"
    out["listcolor.solve.vertices"] = per_pass(counters["listcolor.solve"]["vertices"])
    out["listcolor.solve.errors"] = per_pass(sum(errors["listcolor.solve"].values()))
    out["listcolor.choosable.refused"] = per_pass(
        errors["listcolor.choosable"].get("ChoosabilityCapError", 0))
    out["construction.block.trials"] = per_pass(counters["construction.block"]["trials"])
    if times.get("construction.block", (0,))[0] and not counters["construction.block"]["trials"]:
        absent["construction.block.trials"] = ("exhaustive block checks report trials=0; "
                                               "the library does not return its enumeration count")
    gadget = counters["construction.gadget"]
    out["construction.gadget.attempts"] = per_pass(gadget["attempts"])
    out["construction.gadget.accept_ratio"] = 0.0
    if gadget["attempts"]:
        out["construction.gadget.accept_ratio"] = gadget["built"] / gadget["attempts"]
    else:
        absent["construction.gadget.accept_ratio"] = "reported as 0: no gadget built in this workload"
    out["construction.assemble.vertices"] = per_pass(counters["construction.assemble"]["vertices"])
    out["construction.sweep.rows"] = per_pass(counters["construction.sweep"]["rows"])
    return {"metrics": out, "absent": absent,
            "errors": {k: dict(v) for k, v in errors.items() if v}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", help="trace the run and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--references-out", help="after set-up, write the reference answers here")
    ap.add_argument("--references", help="read the reference answers from here")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import kstlab
    import numpy

    if Path(kstlab.__file__).resolve().parent != SRC / "kstlab":
        print(f"benchmark: imported kstlab from {kstlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from reference import WrongAnswer

    tracer = None
    if args.trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    wl = workloads.BY_NAME[args.workload](args.seed, Path(args.workdir))
    wl.warm()
    print("ready", flush=True)
    if args.references_out:
        answers = {key: compute() for key, compute in wl.references.items()}
        Path(args.references_out).write_text(json.dumps(answers))
    if args.setup_only:
        return 0
    if args.references:
        wl.answers.update(json.loads(Path(args.references).read_text()))
    if set(wl.answers) != set(wl.references):
        print("benchmark: reference answers missing", file=sys.stderr)
        return 2

    latencies: list[float] = []
    op_time = 0.0
    answered = failed = passes = 0
    counts: dict[str, dict] = {}
    failures: dict[str, str] = {}
    failure_totals: Counter = Counter()
    samples, taken_after = [calibration.job()], [0]
    next_calibration = CALIBRATE_EVERY_S
    while True:
        for op in wl.ops:
            if tracer:
                tracer.current_op = len(latencies)
                tracer.active = True
            error = None
            t0 = perf_counter()
            try:
                res = op.run()
            except Exception as exc:  # a crash is a failed op, never an answer
                error = exc
            dt = perf_counter() - t0
            if tracer:
                tracer.active = False
            latencies.append(dt)
            op_time += dt
            if op_time >= next_calibration:
                samples.append(calibration.job())
                taken_after.append(len(latencies))
                next_calibration = op_time + CALIBRATE_EVERY_S
            if error is None:
                try:
                    reason, op_counts = op.check(res)
                except WrongAnswer as exc:
                    print(f"benchmark: WRONG ANSWER in {wl.name} op {op.name}: {exc}",
                          file=sys.stderr)
                    return EXIT_WRONG
            else:
                reason, op_counts = f"{_failing_layer(error)}: {type(error).__name__}", {}
            if reason:
                failed += 1
                failure_totals[reason] += 1
            else:
                answered += 1
            if passes == 0:
                counts[op.name] = op_counts
                if reason:
                    failures[op.name] = reason
        passes += 1
        if op_time >= args.seconds and len(latencies) >= MIN_OPS:
            break

    samples.append(calibration.job())
    taken_after.append(len(latencies))
    raw = statistics.quantiles(latencies, n=10, method="inclusive")
    scaled = calibration.scaled(latencies, samples, taken_after)
    deciles = statistics.quantiles(scaled, n=10, method="inclusive")
    out = {
        "raw_answers_per_s": answered / op_time,
        "raw_answer_p50_ms": 1e3 * raw[4],
        "raw_answer_p90_ms": 1e3 * raw[8],
        "calibration_samples": len(samples),
        "calibration_median_s": statistics.median(samples),
        "attempted": len(latencies),
        "answered": answered,
        "failed": failed,
        "op_seconds": op_time,
        "passes": passes,
        "ops_per_pass": len(wl.ops),
        "answers_per_s": answered / sum(scaled),
        "answer_p50_ms": 1e3 * deciles[4],
        "answer_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "counts": counts,
        "failures": failures,
        "failure_totals": dict(failure_totals),
    }
    if tracer:
        out["layers"] = _layers(tracer, passes)
        tracer.write(args.trace_file)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
