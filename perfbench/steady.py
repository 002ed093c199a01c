"""Steadiness check: is every end-to-end metric steadier than its bound?

Run from the repository root:

    python3 perfbench/steady.py --out steady_a.json
    python3 perfbench/steady.py --out steady_b.json --against steady_a.json
    python3 perfbench/steady.py --workloads pathsum_exact

For each workload it makes one untraced run on each of the seeds 1..10 and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median.  A spread within the metric's bound in
``BENCHMARK.json`` passes; below a third of it is steady.  It also checks
that every run is correct, that the failed share of operations is the same
in every run, and that seed 1 run again, and run traced, emits the same CLI
output bytes as its first run.  ``--out`` also keeps the traced run's
per-layer metrics.  ``--against`` compares the medians with those of an
earlier ``--out`` file: a median may not be worse than the earlier one by
more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, meta) of one benchmark run."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                       if not trace)
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} {figures}",
          file=sys.stderr, flush=True)
    return result, json.loads(lines[-2])["meta"]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", help="also write the figures as JSON to this file")
    parser.add_argument("--against", help="an earlier --out file to compare the medians with")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        results = [run(workload, seed, seconds, 0) for seed in SEEDS]
        shares = {Fraction(r["failed"], r["attempted"]) for r, _ in results}
        again, again_meta = run(workload, SEEDS[0], seconds, 0)
        traced, traced_meta = run(workload, SEEDS[0], seconds, 1)
        same_bytes = (again_meta["output_sha256"] == results[0][1]["output_sha256"]
                      == traced_meta["output_sha256"])
        correct = all(r["correct"] for r, _ in results) and again["correct"] and traced["correct"]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            s, median = spread(values), statistics.median(values)
            rows[name] = {"median": median, "spread": s, "bound": bound, "values": values}
            status = "steady" if s < bound / 3 else ("within" if s <= bound else "WIDE")
            ok &= s <= bound
            line = (f"{workload:>15} {name:<13} median {median:>10.4f} "
                    f"spread {s:6.3f} bound {bound:.2f} {status}")
            if workload in earlier:
                shift = median / earlier[workload]["metrics"][name]["median"] - 1
                ok &= shift <= bound
                line += f"  vs earlier {shift:+.3f}{'' if shift <= bound else ' WORSE'}"
            print(line)
        if workload in earlier:
            ok &= sorted(map(str, shares)) == earlier[workload]["failed_shares"]
        ok &= correct and len(shares) == 1 and same_bytes
        print(f"{workload:>15} correct={correct} failed share={sorted(map(str, shares))} "
              f"same bytes on rerun and traced={same_bytes}")
        report[workload] = {"metrics": rows, "correct": correct,
                            "failed_shares": sorted(map(str, shares)),
                            "same_bytes": same_bytes, "traced": traced["metrics"],
                            "traced_meta": traced_meta}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
