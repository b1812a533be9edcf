#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that:
- run.py's metric tables agree with BENCHMARK.json, names and units;
- every workload, at a tiny size, passes its checks and prints the
  result line with exactly the declared metrics, untraced and traced;
- the corpus generator at the acceptance seed makes the acceptance
  fixture's 38,097 rank tests and 3,675 positive-rank pipelines;
- without src/ the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

ACCEPTANCE_COUNTS = {"rank tests": 38_097, "pipelines": 3_675}


def check(ok, what, failures):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def result_line(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    failures = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == run.END_TO_END, "end_to_end table matches run.END_TO_END", failures)
    check(per_layer == run.PER_LAYER, "per_layer table matches run.PER_LAYER", failures)
    check({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS),
          "declared workloads are run.py workloads", failures)

    for workload in run.WORKLOADS:
        for trace, want in ((0, end_to_end), (1, per_layer)):
            code, res = result_line(["--workload", workload, "--seed", "5", "--seconds", "0.2",
                                     "--trace", str(trace), "--tiny"])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(code == 0 and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{workload} trace {trace}: all ops checked out", failures)
            check(set(res) == {"correct", "attempted", "failed", "metrics"} and got == want,
                  f"{workload} trace {trace}: exactly the declared metrics and units", failures)
            numbers = all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
            positive = trace or all(v["value"] > 0 for v in res["metrics"].values())
            check(numbers and positive, f"{workload} trace {trace}: values are numbers", failures)

    import workloads

    ops = workloads.corpus(run.DEFAULT_SEED)
    run.run_pass(ops)
    counts = {
        "rank tests": sum(op.kind in ("rejected", "pipeline") for op in ops),
        "pipelines": sum(op.kind == "pipeline" for op in ops),
    }
    check(counts == ACCEPTANCE_COUNTS,
          f"corpus at seed {run.DEFAULT_SEED}: {counts} == {ACCEPTANCE_COUNTS}", failures)

    bare = workloads.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the run fails and prints no result", failures)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
