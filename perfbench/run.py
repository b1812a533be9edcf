#!/usr/bin/env python3
"""chiptree benchmark: one workload per run, checked, with metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 20240824 --seconds 50 --trace 0

Workloads: corpus, large, gonality, cli (see perfbench/README.md).  With
``--trace 0`` the run sets up the workload (timed in this process and in
fresh child processes spread over the run, median reported), runs whole
passes of its operations in a closed loop until ``--seconds`` have passed,
and reports the end-to-end metrics.  With ``--trace 1`` it runs fixed work: two
untraced passes alternating with two traced ones; it checks that every
count repeats and reports the per-layer metrics.  Either way every operation's output is
checked; the last line of stdout is the JSON result.  Exit status: 0 when
every check passed, 1 when one failed, 2 when the checkout has no
``src/chiptree``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BENCHMARK.json declares corpus and cli, the two whose run-to-run spread
# stays within its bounds on a noisy 2-vCPU VM; large and gonality run the
# same way by hand (see README.md)
WORKLOADS = ("corpus", "large", "gonality", "cli")
DEFAULT_SEED = 20240824   # the acceptance corpus seed
HELD_OUT_SEED = 1_000_003  # for confirming a claim on inputs not tuned on
# one set-up in the run's process, the rest in fresh child processes
# started between passes: the machine's speed drifts over seconds, and
# samples spread over the run see the same drift as ops_per_s does
SETUP_SAMPLES = 9
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed with the end-to-end metrics but not in the result line: the
# median op latency spread up to 0.29 between runs on a noisy 2-vCPU VM,
# above the largest bound a gated metric may have
PRINTED = {"op_p50_ms": "ms"}
# tail percentile per workload, over the samples of one op kind (None: all)
TAILS = {"corpus": (99, "pipeline"), "cli": (90, None)}

PER_LAYER = {
    "graph.adjacency.calls": "count",
    "graph.is_connected.calls": "count",
    "graph.flaps_within.calls": "count",
    "graph.flaps_within.self_ms": "ms",
    "divisors.dhar.calls": "count",
    "divisors.dhar.self_ms": "ms",
    "divisors.fire_set.calls": "count",
    "divisors.fire_set.self_ms": "ms",
    "divisors.q_reduce.calls": "count",
    "divisors.q_reduce.self_ms": "ms",
    "divisors.q_reduce.rounds_per_call": "ratio",
    "gonality.has_positive_rank.calls": "count",
    "gonality.has_positive_rank.self_ms": "ms",
    "gonality.has_positive_rank.accept_ratio": "ratio",
    "gonality.has_positive_rank.q_per_call": "ratio",
    "gonality.dgon_bruteforce.candidates": "count",
    "gonality.dgon_bruteforce.self_ms": "ms",
    "strategy.build_mss.calls": "count",
    "strategy.build_mss.self_ms": "ms",
    "strategy.build_mss.rank_checks": "count",
    "strategy.good_firing_set.calls": "count",
    "strategy.good_firing_set.rounds": "count",
    "strategy.good_firing_set.self_ms": "ms",
    "strategy.validate_mss.calls": "count",
    "strategy.validate_mss.self_ms": "ms",
    "strategy.nodes": "count",
    "treedec.mss_to_treedec.self_ms": "ms",
    "treedec.validate_treedec.calls": "count",
    "treedec.validate_treedec.self_ms": "ms",
    "treedec.treewidth_bruteforce.calls": "count",
    "treedec.treewidth_bruteforce.self_ms": "ms",
    "treedec.bags": "count",
    "morphism.morphism_to_treedec.calls": "count",
    "morphism.morphism_to_treedec.self_ms": "ms",
    "morphism.harmonic_certificate.self_ms": "ms",
    "morphism.bag_insertions": "count",
    "formats.parse.self_ms": "ms",
    "formats.write.self_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import.numpy_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_frac": "ratio",
}
# measured times: everything else must repeat exactly for a fixed seed
TIMES = {name for name, unit in PER_LAYER.items() if unit == "ms"} | {"trace.overhead_frac"}
PROBE_REPEATS = 5

clock = time.perf_counter


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_pass(ops):
    """Run every op once in order; returns (wall s, per-op latencies s, failures)."""
    failures = []
    latencies = array("d", bytes(8 * len(ops)))
    start = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            reason = op.run()
        except Exception as exc:  # a refused or crashed op counts as failed
            reason = f"{type(exc).__name__}: {exc}"
        latencies[i] = clock() - t0
        if reason:
            failures.append(f"{op.name}: {reason}")
    return clock() - start, latencies, failures


# -- untraced run: end-to-end metrics -----------------------------------------

def check_kinds(bench, ops, previous):
    """Each pass must classify its ops like the last one, and as expected."""
    kinds = [op.kind for op in ops]
    failures = []
    if previous is not None and kinds != previous:
        failures.append("rank test answers differ between passes")
    if bench.kinds is not None and Counter(kinds) != bench.kinds:
        failures.append(f"ops by kind {dict(Counter(kinds))}, expected {bench.kinds}")
    return kinds, failures


def run_timed(workload, bench, seconds, setups, sample_setup):
    """Closed-loop passes for ``seconds`` of pass time; ``setups`` holds the
    in-process set-up time, and ``sample_setup()`` times one more set-up in
    a fresh process."""
    from tracer import assert_clean

    assert_clean()
    kinds = ops = None
    per_pass = []
    failures = []
    busy = last = 0.0
    peak_kib = None
    # whole passes, at least MIN_PASSES, and none that would end past `seconds`
    while len(per_pass) < MIN_PASSES or busy + last <= seconds:
        ops = None  # drop the last pass's inputs before making the next
        ops = bench.make()
        last, latencies, fails = run_pass(ops)
        busy += last
        per_pass.append(latencies)
        kinds, bad = check_kinds(bench, ops, kinds)
        failures += fails + bad
        if peak_kib is None:
            # set-up plus one pass: later passes add only their latency
            # arrays, whose number grows as the library gets faster
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = 1.0 if busy >= seconds else busy / seconds
        while len(setups) < 1 + (SETUP_SAMPLES - 1) * done:
            setups.append(sample_setup())
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup())
    passes = len(per_pass)
    # each op's latency is its median over the passes
    per_op = [statistics.median(samples) for samples in zip(*per_pass)]
    if bench.rss:
        peak_kib = max(bench.rss)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ops) / sum(per_op),
        "peak_rss_mb": peak_kib / 1024,
    }
    printed = {**metrics, "op_p50_ms": percentile(sorted(per_op), 50)[0] * 1e3}
    attempted = passes * len(ops)
    lines = [f"passes: {passes} of {len(ops)} ops in {busy:.2f} s",
             *kind_counts(ops)]
    for name, value in printed.items():
        lines.append(f"{name}: {value:.6g} {END_TO_END.get(name) or PRINTED[name]}")
    lines.append(f"fail_frac: {len(failures) / attempted:.6g} "
                 f"({len(failures)} of {attempted} ops)")
    if workload in TAILS:
        p, kind = TAILS[workload]
        tail = sorted(x for latencies in per_pass for op, x in zip(ops, latencies)
                      if kind is None or op.kind == kind)
        value, beyond = percentile(tail, p)
        label = f"op_p{p}_ms"
        if beyond >= 10:
            lines.append(f"{label}: {value * 1e3:.6g} ms "
                         f"({len(tail)} samples, {beyond} beyond)")
        else:
            lines.append(f"{label}: not reported ({len(tail)} samples, "
                         f"only {beyond} beyond)")
    return metrics, END_TO_END, attempted, failures, lines


def kind_counts(ops):
    counts = Counter(op.kind for op in ops)
    return ["ops per pass by kind: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))]


# -- traced run: per-layer metrics ----------------------------------------------

def layer_metrics(summary):
    calls, self_ms = summary["calls"], summary["self_ms"]
    under, results = summary["under"], summary["results"]

    def ratio(a, b):
        return a / b if b else 0.0

    hpr, q, dh = "gonality.has_positive_rank", "divisors.q_reduce", "divisors.dhar"
    m = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls.get(layer, 0)
        elif stat == "self_ms" and not layer.startswith("formats."):
            m[name] = self_ms.get(layer, 0.0)
    for group in ("parse", "write"):
        m[f"formats.{group}.self_ms"] = sum(
            v for k, v in self_ms.items() if k.startswith(f"formats.{group}_"))
    m["divisors.q_reduce.rounds_per_call"] = ratio(under[(dh, q)], calls.get(q, 0))
    m[f"{hpr}.accept_ratio"] = ratio(results[f"{hpr}.accepted"], calls.get(hpr, 0))
    m[f"{hpr}.q_per_call"] = ratio(under[(q, hpr)], calls.get(hpr, 0))
    m["gonality.dgon_bruteforce.candidates"] = under[(hpr, "gonality.dgon_bruteforce")]
    m["strategy.build_mss.rank_checks"] = under[(hpr, "strategy.build_mss")]
    m["strategy.good_firing_set.rounds"] = under[(dh, "strategy.good_firing_set")]
    for key in ("strategy.nodes", "treedec.bags", "morphism.bag_insertions"):
        m[key] = results[key]
    return m


def cli_probes():
    """Interpreter start, import cost and numpy's share, from fresh processes."""
    import workloads

    env = workloads.cli_env()

    def wall(args):
        t0 = clock()
        subprocess.run([sys.executable, *args], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return (clock() - t0) * 1e3

    bare = statistics.median(wall(["-c", "pass"]) for _ in range(PROBE_REPEATS))
    imported = statistics.median(
        wall(["-c", "import chiptree.cli"]) for _ in range(PROBE_REPEATS))
    numpy = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chiptree.cli"],
                              env=env, check=True, capture_output=True, text=True)
        cumulative_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                cumulative_us = int(parts[1])
        numpy.append(cumulative_us / 1e3)
    return {
        "cli.interpreter_ms": bare,
        "cli.import_ms": imported - bare,
        "cli.import.numpy_ms": statistics.median(numpy),
    }


def run_traced(workload, seed, bench):
    from tracer import Tracer, assert_clean
    import workloads

    # untraced and traced passes alternate, so that drift in the machine's
    # speed does not land on one side of trace.overhead_frac
    assert_clean()
    failures, kinds = [], None
    runs, walls, base_walls = [], [], []
    for rep in range(2):
        ops = None
        ops = bench.make_traced()
        base_wall, latencies, fails = run_pass(ops)
        base_walls.append(base_wall)
        kinds, bad = check_kinds(bench, ops, kinds)
        failures += fails + bad
        if rep == 0:
            main_ms = statistics.median(latencies) * 1e3
        ops = None
        ops = bench.make_traced()
        tracer = Tracer()
        with tracer:
            wall, _, fails = run_pass(ops)
        kinds, bad = check_kinds(bench, ops, kinds)
        failures += fails + bad
        walls.append(wall)
        runs.append(layer_metrics(tracer.summary()))
        if rep == 0:
            workloads.OUT_DIR.mkdir(exist_ok=True)
            tracer.write(workloads.OUT_DIR / f"trace-{workload}-{seed}.spans")
        del tracer
    first, second = runs
    mismatched = [k for k in PER_LAYER if k in first and k not in TIMES
                  and first[k] != second[k]]
    failures += [f"count {k} differs between traced passes: {first[k]} vs {second[k]}"
                 for k in mismatched]
    metrics = {k: 0.0 if k in TIMES else 0 for k in PER_LAYER}
    metrics.update({k: (first[k] + second[k]) / 2 if k in TIMES else first[k]
                    for k in first})
    metrics["trace.overhead_frac"] = sum(walls) / sum(base_walls) - 1
    if workload == "cli":
        metrics.update(cli_probes())
        metrics["cli.main_ms"] = main_ms
    attempted = 4 * len(ops)
    lines = ["passes: untraced " + ", ".join(f"{w:.3f} s" for w in base_walls)
             + "; traced " + ", ".join(f"{w:.3f} s" for w in walls), *kind_counts(ops)]
    lines += [f"{k}: {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
    with open(workloads.OUT_DIR / f"trace-{workload}-{seed}.json", "w") as fh:
        json.dump(metrics, fh, indent=1)
    return metrics, PER_LAYER, attempted, failures, lines


# -- set-up --------------------------------------------------------------------

def setup_in_child(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up sample in a fresh process, and the self-test size
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so that set-up files are removed and children reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "chiptree" / "__init__.py").is_file():
        print(f"error: {SRC / 'chiptree'} not found; run from the root of a "
              f"chiptree checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    t0 = clock()
    import workloads  # imports chiptree: part of the set-up time

    bench = workloads.build(args.workload, args.seed, tiny=args.tiny)
    setup = clock() - t0
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            result = run_traced(args.workload, args.seed, bench)
        else:
            result = run_timed(args.workload, bench, args.seconds, [setup],
                               lambda: setup_in_child(args))
    finally:
        bench.close()

    metrics, units, attempted, failures, lines = result
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(out))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
