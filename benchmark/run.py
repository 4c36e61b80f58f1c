"""kstlab benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload small_exact --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all --seed 1        # every workload in turn

Each workload runs in a fresh single-threaded Python process (``worker.py``)
that imports kstlab from ``src``.  Its ops are closed-loop: one caller, the
next op starts when the previous answer is back.  Every answer is checked
untimed against an independent reference; a wrong answer aborts the run
with a non-zero exit and no result.

``--trace 0`` prints the end-to-end metrics:

* ``answers_per_s``: ops answered per second of op time.
* ``answer_p50_ms``, ``answer_p90_ms``: per-op latency, failed ops included.
* ``answered_share``: answered ops / attempted ops, i.e. 1 - failed share.  A
  failed op is a budget exhaustion, a cap refusal or any exception.
* ``setup_s``: process start to first op (import, inputs from the seed,
  graph files, oracle tables), the median of ``SETUP_RUNS`` fresh processes.
* ``peak_rss_mb``: peak resident memory of the measuring process.  Reference
  answers that need the oracle's tables are computed in another process.

Op times are scaled for the machine's speed drift (see ``calibration.py``);
the record keeps the raw ones too.

``--trace 1`` runs the workload twice, untraced then traced, and prints the
per-layer metrics of the traced run, per pass over the workload's ops, plus
``trace.overhead_share`` = 1 - traced / untraced ``answers_per_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
the machine, the seed, the commit, op counts, a deterministic count section
(the first pass's work counters) and per-op failures is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``; spans of a traced run
go beside it as ``.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("small_exact", "large_hosts", "pipeline")
SETUP_RUNS = 7              # fresh processes whose set-up time is measured, the run's included
WORKER_TIMEOUT_S = 150      # one worker process; the whole command stays under 180 s
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, seconds: float, references: Path,
           trace_file: Path | None = None, setup_only: bool = False,
           write_references: bool = False) -> tuple[float, dict | None]:
    """Run one worker; return its set-up time (process start to "ready") and
    its measurements.  A set-up-only worker may write the workload's
    reference answers to ``references``; a measuring one reads them."""
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    if setup_only:
        cmd.append("--setup-only")
        if write_references:
            cmd += ["--references-out", str(references)]
    else:
        cmd += ["--references", str(references)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, env=os.environ | SINGLE_THREAD)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return setup_s, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def _machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version()}


def _commit() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kstlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": _machine(), **_commit()}
    OUT.mkdir(exist_ok=True)
    references = OUT / f"references-{os.getpid()}.json"
    try:
        setups = [_spawn(workload, seed, seconds, references, setup_only=True,
                         write_references=i == 0)[0]
                  for i in range(SETUP_RUNS - 1 if not trace else 1)]
        if not trace:
            setup_s, res = _spawn(workload, seed, seconds, references)
            setups.append(setup_s)
        else:
            _, base = _spawn(workload, seed, seconds, references)
            res = _spawn(workload, seed, seconds, references, trace_file=OUT / f"{tag}.npz")[1]
    finally:
        references.unlink(missing_ok=True)
    if not trace:
        metrics = {
            "answers_per_s": res["answers_per_s"],
            "answer_p50_ms": res["answer_p50_ms"],
            "answer_p90_ms": res["answer_p90_ms"],
            "answered_share": res["answered"] / res["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        record["setup_s_runs"] = setups
    else:
        metrics = dict(res["layers"]["metrics"])
        metrics["trace.overhead_share"] = 1 - res["answers_per_s"] / base["answers_per_s"]
        record["untraced_answers_per_s"] = base["answers_per_s"]
        record["absent"] = res["layers"]["absent"]
        record["layer_errors"] = res["layers"]["errors"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record["machine"]["numpy"] = res.pop("numpy")
    record["metrics"] = metrics
    record.update({k: v for k, v in res.items() if k != "layers"})
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for name, value in metrics.items():
        print(f"{workload:12s} {name:36s} {value:14.6g} {units[name]}", file=sys.stderr)
    return {"correct": True, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kstlab" / "__init__.py").is_file():
        print(f"benchmark: no kstlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": True,
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items()
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
