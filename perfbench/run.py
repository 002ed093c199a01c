"""Benchmark of the ``dqc1`` command line, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ensemble_sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run is one process.  It builds the workload's inputs from ``--seed``,
then calls ``dqc1.cli.main`` in-process on the workload's command lines, one
whole round after another, until the next round would end past ``--seconds``
(at least one round).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of ``tracer.py`` with ``--trace 1``.
The line before it is the run's metadata.  BLAS runs on one thread in every
run, so timings are comparable and the output bytes do not depend on the
machine's core count.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import tracer as tracing
from workloads import WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
MIN_SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("op_p50_s", "s"),
              ("op_largest_s", "s"), ("peak_rss_mb", "MiB")]


class BenchError(Exception):
    """The benchmark cannot run here (no program source, a probe failed, ...)."""


def import_program():
    """Import ``dqc1`` from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "dqc1" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'dqc1'}")
    sys.path.insert(0, str(SRC))
    import dqc1
    import dqc1.cli
    if Path(dqc1.__file__).resolve().parent != SRC / "dqc1":
        raise BenchError(f"dqc1 imported from {dqc1.__file__}, not from {SRC}")
    return dqc1


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata(dqc1, args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "dqc1": dqc1.__version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_requested": BLAS_THREADS, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}


def probe_setup(args) -> float:
    """Time a fresh process from spawn until its first operation could be
    issued: interpreter start, imports and input generation."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"setup probe failed ({proc.returncode}): {err.strip()}")
    return elapsed


def run_op(dqc1, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = dqc1.cli.main(list(op.argv))
        except SystemExit as exc:    # argparse rejects a command line
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds)


def run_round(dqc1, ops) -> dict:
    outcomes = [run_op(dqc1, op) for op in ops]
    digest = hashlib.sha256()
    for o in outcomes:
        digest.update(json.dumps([o.rc, o.stdout, o.stderr]).encode())
    return {"outcomes": outcomes, "seconds": sum(o.seconds for o in outcomes),
            "digest": digest.hexdigest()}


def measure(dqc1, inputs, seconds: float, tracer, probe) -> tuple[list[dict], list[float]]:
    """(rounds, setup times): whole rounds until the next one would end past
    ``seconds``.  Without a tracer a setup probe runs before every round, and
    after the last until there are ``MIN_SETUP_PROBES``, so that set-up is
    timed across the run like the rounds.  With a tracer, rounds alternate
    untraced and traced and end on a whole pair."""
    rounds, setup_times = [], []
    start = time.perf_counter()
    while True:
        if tracer is None:
            setup_times.append(probe())
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            rnd = run_round(dqc1, inputs.ops)
        finally:
            if traced:
                tracer.uninstall()
        rnd["traced"] = traced
        rounds.append(rnd)
        pair_open = tracer is not None and len(rounds) % 2 == 1
        elapsed = time.perf_counter() - start
        if not pair_open and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    while tracer is None and len(setup_times) < MIN_SETUP_PROBES:
        setup_times.append(probe())
    return rounds, setup_times


def failures(inputs, rounds) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): failed operations and anything that
    makes the run incorrect."""
    attempted = failed = 0
    problems = []
    for rnd in rounds:
        for op, o in zip(inputs.ops, rnd["outcomes"]):
            attempted += 1
            if o.rc == 0:
                continue
            failed += 1
            last = o.stderr.strip().splitlines()[-1:] or [""]
            if op.known_refusal is None or last[0] != op.known_refusal:
                problems.append(f"{' '.join(op.argv)}: exit {o.rc}: {o.stderr.strip()}")
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds of the same inputs emitted different bytes")
    return attempted, failed, problems


def op_seconds(rounds) -> list[float]:
    """Each operation's mean wall time over ``rounds``.  The rounds are spread
    over the whole run, so the mean evens out the machine's swings in speed."""
    per_op = zip(*(r["outcomes"] for r in rounds))
    return [statistics.mean(o.seconds for o in outcomes) for outcomes in per_op]


def end_to_end(inputs, rounds, setup_times) -> dict[str, float]:
    per_op = op_seconds(rounds)
    ok = [t for t, o in zip(per_op, rounds[0]["outcomes"]) if o.rc == 0]
    largest = [t for t, op in zip(per_op, inputs.ops) if op.largest]
    return {
        "setup_s": statistics.median(setup_times),
        "run_s": sum(per_op),
        "op_p50_s": statistics.median(ok),
        "op_largest_s": largest[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(args) -> int:
    dqc1 = import_program()
    workload = WORKLOADS[args.workload]
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        tracer = tracing.Tracer() if args.trace else None
        rounds, setup_times = measure(dqc1, inputs, args.seconds, tracer,
                                      lambda: probe_setup(args))
        e2e = None if tracer else end_to_end(inputs, rounds, setup_times)
        attempted, failed, problems = failures(inputs, rounds)
        if not problems:
            try:
                problems += workload.check(inputs, rounds[0]["outcomes"])
            except Exception as exc:    # output the checks cannot parse is wrong output
                problems.append(f"check raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        traced = [r for r in rounds if r["traced"]]
        untraced = [r for r in rounds if not r["traced"]]
        exact_traces = sum(1 for r in traced for op, o in zip(inputs.ops, r["outcomes"])
                           if o.rc == 0 and "--pathsum" in op.argv and "--exact" in op.argv)
        values = tracing.layer_metrics(
            tracer, len(traced),
            traced_run_s=statistics.mean(r["seconds"] for r in traced),
            untraced_run_s=statistics.mean(r["seconds"] for r in untraced),
            exact_traces=exact_traces)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        if args.spans:
            tracer.write_spans(args.spans)

    meta = metadata(dqc1, args)
    meta.update(rounds=len(rounds), ops_per_round=len(inputs.ops),
                op_samples=sum(o.rc == 0 for r in rounds for o in r["outcomes"]),
                round_s=[r["seconds"] for r in rounds],
                setup_probes_s=setup_times, output_sha256=rounds[0]["digest"],
                problems=problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:>15} {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def setup_probe(args) -> int:
    """Body of a setup probe: import, build the inputs, report, clean up."""
    import_program()
    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        WORKLOADS[args.workload].make_inputs(args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process, and one table of the results."""
    results = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {}
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, also write the spans to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
