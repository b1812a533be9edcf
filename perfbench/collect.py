#!/usr/bin/env python3
"""Repeat the benchmark and summarise it; run from the root of a checkout:

    python3 perfbench/collect.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` untraced ``--runs`` times per workload, seed ``i`` on run
``i``, and reports each end-to-end metric's, and each printed-only
metric's (``op_p50_ms``, ``fail_frac``, tails), median and quartiles
(``statistics.quantiles(values, n=4)``) and its spread, the quartile
distance as a share of the median.  Then one traced run per workload at
the default seed gives the per-layer numbers.  With ``--out`` the summary
is written as JSON, together with the seeds and the machine facts; a
later change compares its own summary against that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(run.ROOT), timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed ops")
    values = {}
    for line in lines[:-1]:  # "  name: value unit ..." lines, e.g. op_p50_ms
        name, _, rest = line.strip().partition(": ")
        try:
            values[name] = float(rest.split()[0])
        except (ValueError, IndexError):
            continue
    values.update((k, v["value"]) for k, v in result["metrics"].items())
    return values


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", choices=run.WORKLOADS,
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "seeds": {"default": run.DEFAULT_SEED, "held_out": run.HELD_OUT_SEED,
                  "end_to_end_runs": list(range(1, args.runs + 1))},
        "run_seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        names = [n for n in runs[0] if all(n in r for r in runs)]
        table = {name: summarise([r[name] for r in runs]) for name in names}
        summary["end_to_end"][workload] = table
        for name, s in table.items():
            bound = bounds.get(name)
            note = "printed only" if bound is None else f"bound {bound}"
            if bound is not None and s["spread"] >= bound / 3:
                note += "  <-- spread above bound/3"
            print(f"{workload:9s} {name:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"({note})", flush=True)
    for workload in args.workloads:
        summary["per_layer"][workload] = run_once(workload, run.DEFAULT_SEED,
                                                  args.seconds, 1)
        print(f"{workload:9s} traced: overhead "
              f"{summary['per_layer'][workload]['trace.overhead_frac']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
