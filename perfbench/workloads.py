"""Seeded inputs, operations and correctness checks for each workload.

A workload is built once (its set-up) and then yields a fixed list of
operations, one pass.  The benchmark runs whole passes in a closed loop:
one operation at a time, each started only after the previous one ended.
Every operation returns ``None`` when its output checked out, or a
one-line reason when it did not.

Inputs are made from the seed with ``random.Random`` and the library's
own graph and divisor types; nothing here is read from the repository's
tests.  Named graphs are built from formulas.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import chiptree as ct
from chiptree import cli as ct_cli
from chiptree import formats
from chiptree.fixtures import c4_to_p3_morphism, cycle_graph, example_divisor, example_graph

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


class Op:
    """One closed-loop operation: ``run()`` returns None or a failure reason.

    ``kind`` groups operations for the latency percentiles, e.g. the
    positive-rank pipelines on ``corpus``.
    """

    __slots__ = ("name", "kind", "run")

    def __init__(self, name, kind, run):
        self.name = name
        self.kind = kind
        self.run = run


# -- graph and divisor generators ------------------------------------------

def random_connected_multigraph(rng: random.Random, n: int,
                                max_mult: int = 3) -> ct.MultiGraph:
    """Random spanning tree plus up to n extra edges, multiplicity <= max_mult.

    The draw order matches the acceptance corpus, so seed 20240824 gives
    the same 200 graphs as the acceptance fixture.
    """
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randrange(0, n + 1)):
        edges.append(tuple(rng.sample(range(n), 2)))
    expanded = []
    for u, v in edges:
        expanded.extend([(u, v)] * rng.randint(1, max_mult))
    return ct.MultiGraph(n, expanded)


def grid(k: int) -> ct.MultiGraph:
    """k x k grid; vertex i*k + j is row i, column j."""
    edges = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    edges += [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    return ct.MultiGraph(k * k, edges)


def generalized_petersen(n: int, k: int) -> ct.MultiGraph:
    """GP(n, k): outer n-cycle, spokes, inner star polygon of step k."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return ct.MultiGraph(2 * n, edges)


def harmonic_covering(rng: random.Random, tree_size: int, degree: int):
    """Connected harmonic morphism of the given degree onto a random tree.

    ``degree`` copies of the tree are glued along random permutations of
    each tree edge's fiber, then random groups inside each vertex fiber are
    merged, which keeps harmonicity with every edge index 1.
    """
    t = ct.MultiGraph(tree_size, [(rng.randrange(v), v) for v in range(1, tree_size)])
    t_edges = t.edge_list
    for _ in range(100):
        classes = []
        class_of = {}
        for w in range(tree_size):
            copies = list(range(degree))
            rng.shuffle(copies)
            while copies:
                take = 1
                if len(copies) >= 2 and rng.random() >= 0.7:
                    take = rng.randint(2, len(copies))
                for c in copies[:take]:
                    class_of[(w, c)] = len(classes)
                classes.append(w)
                copies = copies[take:]
        pairs = []
        for ti, (a, b) in enumerate(t_edges):
            perm = list(range(degree))
            rng.shuffle(perm)
            for s in range(degree):
                u, v = class_of[(a, s)], class_of[(b, perm[s])]
                pairs.append(((min(u, v), max(u, v)), ti))
        g = ct.MultiGraph(len(classes), [p for p, _ in pairs])
        if not g.is_connected():
            continue
        pairs.sort()
        edge_map = tuple(ti for _, ti in pairs)
        f = ct.FiniteMorphism(tuple(classes), edge_map, (1,) * len(edge_map))
        return g, t, f
    raise RuntimeError("no connected covering in 100 draws")


# -- workload: corpus ------------------------------------------------------

CORPUS_GRAPHS = 200
CORPUS_MAX_DEGREE = 4
# The graph shapes come from the acceptance corpus recipe at its own seed;
# the run's seed relabels every graph's vertices.  Drawing the shapes from
# the run's seed instead made the work per pass swing with the seed (ops/s
# quartile spread 0.22 over seeds 1..10), which repeated runs on different
# seeds would read as noise.  Rank is invariant under relabeling, so every
# seed has the acceptance fixture's counts.
CORPUS_SHAPE_SEED = 20240824
CORPUS_KINDS = {"rejected": 34_422, "pipeline": 3_675, "tw": 200}


def corpus(seed: int, graphs: int = CORPUS_GRAPHS) -> list[Op]:
    """Every effective divisor of degree 1..4 on random small multigraphs.

    Per graph, one treewidth-oracle op, then one op per divisor: the rank
    test, and for a positive-rank divisor strategy -> decomposition ->
    validation with tw <= width <= deg(D).
    """
    shapes = random.Random(CORPUS_SHAPE_SEED)
    rng = random.Random(seed)
    ops = []
    for gi in range(graphs):
        shape = random_connected_multigraph(shapes, shapes.randint(2, 8), max_mult=3)
        perm = list(range(shape.n))
        rng.shuffle(perm)
        g = ct.MultiGraph(shape.n, [(perm[u], perm[v]) for u, v in shape.edge_list])
        tw_box = [None]

        def tw_op(g=g, tw_box=tw_box):
            tw_box[0] = tw = ct.treewidth_bruteforce(g)
            if not 1 <= tw < g.n:
                return f"treewidth {tw} outside 1..{g.n - 1}"
            return None

        ops.append(Op(f"g{gi}.tw", "tw", tw_op))
        for degree in range(1, CORPUS_MAX_DEGREE + 1):
            for d in ct.effective_divisors(g.n, degree):
                # the op's kind records the rank test's answer when it runs
                op = Op(f"g{gi}.{d.chips}", "unknown", None)

                def div_op(g=g, d=d, tw_box=tw_box, op=op):
                    positive = ct.has_positive_rank(g, d)
                    op.kind = "pipeline" if positive else "rejected"
                    if not positive:
                        return None
                    tree = ct.build_mss(g, d)
                    td = ct.mss_to_treedec(g, tree)
                    return check_td(g, td, tw_box[0], d.degree)

                op.run = div_op
                ops.append(op)
    return ops


def check_td(g, td, tw, bound) -> str | None:
    report = ct.validate_treedec(g, td)
    if not report.ok:
        return f"invalid decomposition: {report.violations[0]}"
    if not tw <= report.width <= bound:
        return f"width {report.width} outside tw {tw} .. bound {bound}"
    return None


def pipeline_op(name, g, d, tw):
    """Rank test, then strategy -> decomposition -> validation."""
    def run():
        if not ct.has_positive_rank(g, d):
            return "rank test rejected a positive-rank divisor"
        tree = ct.build_mss(g, d)
        return check_td(g, ct.mss_to_treedec(g, tree), tw, d.degree)
    return Op(name, "pipeline", run)


# -- workload: large -------------------------------------------------------

LARGE_CYCLES = (50, 100, 150, 200)
LARGE_GRIDS = tuple(range(4, 11))
# (tree size, degree) of the seeded coverings; sized so the morphism path
# is about a quarter of the workload's time at the seed commit
LARGE_COVERINGS = ((200, 3), (300, 4), (400, 5), (500, 4), (700, 4))


def large(seed: int, cycles=LARGE_CYCLES, grids=LARGE_GRIDS,
          coverings=LARGE_COVERINGS) -> list[Op]:
    """Few big instances: long firing loops, n^2-node strategies, coverings."""
    ops = []
    for n in cycles:
        d = ct.Divisor.of(1 if v in (0, n // 2) else 0 for v in range(n))
        ops.append(pipeline_op(f"C{n}", cycle_graph(n), d, 2))
    for k in grids:
        d = ct.Divisor.of(1 if v % k == 0 else 0 for v in range(k * k))
        ops.append(pipeline_op(f"grid{k}", grid(k), d, k))
    rng = random.Random(seed)
    for tree_size, degree in coverings:
        g, t, f = harmonic_covering(rng, tree_size, degree)
        cert, report = ct.harmonic_certificate(g, t, f)
        if cert is None or cert.degree != degree:
            raise RuntimeError(f"covering of degree {degree} is not certified: "
                               f"{report.violations}")

        def morph_op(g=g, t=t, f=f, degree=cert.degree):
            td = ct.morphism_to_treedec(g, t, f)
            return check_td(g, td, 1, degree)

        ops.append(Op(f"cover{tree_size}x{degree}", "morphism", morph_op))
    return ops


# -- workload: gonality ----------------------------------------------------

def gonality(seed: int, grids=(3, 4, 5), petersen=True,
             dodecahedron=True) -> list[Op]:
    """Brute-force gonality of named graphs with known values.

    The instances are fixed; ``seed`` does not change them.
    """
    del seed
    cases = [(f"grid{k}", grid(k), k) for k in grids]
    if petersen:
        cases.append(("petersen", generalized_petersen(5, 2), 4))
    if dodecahedron:
        cases.append(("dodecahedron", generalized_petersen(10, 2), 6))
    ops = []
    for name, g, dgon in cases:
        def run(g=g, dgon=dgon):
            result = ct.dgon_bruteforce(g, dgon)
            if result is None or result.value != dgon:
                return f"dgon {result and result.value}, expected {dgon}"
            if result.witness.degree != dgon:
                return "witness degree differs from the gonality"
            if g.n <= 10:
                tw = ct.treewidth_bruteforce(g)
                if tw > dgon:
                    return f"treewidth {tw} > dgon {dgon}"
            return None
        ops.append(Op(name, "gonality", run))
    return ops


# -- workload: cli ---------------------------------------------------------

MALFORMED_GR = "p tw 3 2\n1 2\n"


class CliFiles:
    """Input files for the CLI calls, in a private directory of the checkout.

    Expected outputs come from the in-process library: the ``treedec``
    output must be byte-identical to ``formats.write_td`` of
    ``mss_to_treedec(build_mss(...))``.
    """

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = OUT_DIR / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        g, d = example_graph(), example_divisor()
        self.golden_td = formats.write_td(ct.mss_to_treedec(g, ct.build_mss(g, d)), g.n)
        fg, ft, ff = c4_to_p3_morphism()
        fg_plain = formats.parse_gr(formats.write_gr(fg))
        ft_plain = formats.parse_gr(formats.write_gr(ft))
        self.fold_graph = fg_plain
        files = {
            "golden.ct": formats.write_document(g, d),
            "golden.td": self.golden_td,
            "c4.gr": formats.write_gr(fg),
            "p3.gr": formats.write_gr(ft),
            "fold.map": formats.write_morphism(ff, fg_plain, ft_plain),
            "bad.gr": MALFORMED_GR,
        }
        for name, text in files.items():
            (self.dir / name).write_text(text)

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def cli_calls(files: CliFiles) -> list[tuple[str, list[str]]]:
    doc = ["--input", files.path("golden.ct")]
    return [
        ("info", ["info", *doc]),
        ("reduce", ["reduce", *doc, "--q", "d"]),
        ("dhar", ["dhar", *doc, "--q", "d"]),
        ("rank", ["rank", *doc]),
        ("gonality", ["gonality", *doc, "--max-degree", "4"]),
        ("mss", ["mss", *doc]),
        ("treedec", ["treedec", *doc]),
        ("verify-td", ["verify-td", *doc, "--td", files.path("golden.td")]),
        ("morphism-td", ["morphism-td", "--input", files.path("c4.gr"),
                         "--tree", files.path("p3.gr"),
                         "--morphism", files.path("fold.map")]),
        ("malformed", ["info", "--input", files.path("bad.gr")]),
    ]


def main_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ct_cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_expected(files: CliFiles) -> dict[str, tuple[int, str]]:
    """Exit code and stdout each call must produce.

    ``rank``, ``gonality``, ``verify-td`` and ``treedec`` have known
    answers; the other commands must agree with an in-process ``main``.
    """
    calls = dict(cli_calls(files))
    expected = {}
    for name in ("info", "reduce", "dhar", "mss"):
        code, out, _ = main_in_process(calls[name])
        expected[name] = (0, out)
    g, d = example_graph(), example_divisor()
    witness = ct.dgon_bruteforce(g, 4).witness.format(g)
    expected["rank"] = (0, "positive-rank: true\n")
    expected["gonality"] = (0, f"gonality: 3\nwitness: {witness}\n")
    expected["treedec"] = (0, files.golden_td)
    expected["verify-td"] = (0, "valid: width 3\n")
    return expected


def check_cli(name, code, out, err, expected, files: CliFiles) -> str | None:
    if "Traceback" in err:
        return f"{name}: traceback on stderr"
    if name == "malformed":
        lines = err.splitlines()
        if code != 2:
            return f"malformed input exited {code}, expected 2"
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return f"malformed input: stderr is not one error line: {err!r}"
        return None
    if name == "morphism-td":
        if code != 0:
            return f"morphism-td exited {code}: {err.strip()}"
        try:
            td = formats.parse_td(out)
        except ct.FormatError as exc:
            return f"morphism-td output does not parse: {exc}"
        return check_td(files.fold_graph, td, 2, 2)
    want_code, want_out = expected[name]
    if code != want_code:
        return f"{name} exited {code}, expected {want_code}: {err.strip()}"
    if out != want_out:
        return f"{name} stdout differs from the expected output"
    return None


def cli_env() -> dict[str, str]:
    """Environment for the subprocess calls: the checkout's src/ only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(argv: list[str], env) -> tuple[int, str, str, int]:
    """Run ``python -m chiptree.cli`` and reap it; also returns its peak RSS (KiB)."""
    proc = subprocess.Popen([sys.executable, "-m", "chiptree.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, cwd=str(ROOT))
    with proc:
        # outputs are a few hundred bytes, far below a pipe's buffer
        out = proc.stdout.read().decode()
        err = proc.stderr.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage.ru_maxrss


def cli(files: CliFiles, in_process: bool = False, rss: list | None = None) -> list[Op]:
    """Round-robin CLI calls: nine subcommands plus one malformed file.

    Subprocess calls measure what a user pays per call: interpreter start,
    imports and the command.  ``in_process`` calls ``main(argv)`` directly,
    which the traced run uses.  Peak RSS of each subprocess is appended to
    ``rss``.
    """
    expected = cli_expected(files)
    env = cli_env()
    ops = []
    for name, argv in cli_calls(files):
        def run(name=name, argv=argv):
            if in_process:
                code, out, err = main_in_process(argv)
            else:
                code, out, err, maxrss = run_subprocess(argv, env)
                if rss is not None:
                    rss.append(maxrss)
            return check_cli(name, code, out, err, expected, files)
        ops.append(Op(name, "cli", run))
    return ops


# -- assembly --------------------------------------------------------------

CLI_TRACE_REPS = 20
TINY = {
    "corpus": dict(graphs=5),
    "large": dict(cycles=(12,), grids=(3, 4), coverings=((8, 2),)),
    "gonality": dict(grids=(3,), dodecahedron=False),
}


class Bench:
    """A built workload: fresh ops for each pass, warm-up and clean-up.

    Every pass runs on newly generated inputs, so nothing a pass leaves on
    the graph objects (a cache, a memo) serves the next one.  For ``cli``
    the timed ops start subprocesses and the traced ops call ``main(argv)``
    in this process, ``CLI_TRACE_REPS`` rounds per pass.  ``kinds``, when
    known, is the number of ops of each kind every pass must end with.
    """

    def __init__(self, make, warmup, make_traced=None, files=None, rss=None, kinds=None):
        self.make = make
        self.make_traced = make_traced or make
        self.kinds = kinds
        self.files = files
        self.rss = rss
        try:
            for op in warmup(make()):
                reason = op.run()
                if reason:
                    raise RuntimeError(f"warm-up op {op.name} failed: {reason}")
        except BaseException:
            self.close()
            raise
        if rss is not None:
            rss.clear()

    def close(self):
        if self.files is not None:
            self.files.close()


def build(name: str, seed: int, tiny: bool = False) -> Bench:
    """Generate the named workload's inputs from the seed and warm it up."""
    size = TINY.get(name, {}) if tiny else {}
    if name == "corpus":
        return Bench(lambda: corpus(seed, **size),
                     lambda ops: [op for op in ops if op.name.startswith("g0.")],
                     kinds=None if tiny else CORPUS_KINDS)
    if name == "large":
        return Bench(lambda: large(seed, **size),
                     lambda ops: [op for op in ops if op.name.startswith("grid")][:1])
    if name == "gonality":
        return Bench(lambda: gonality(seed, **size), lambda ops: ops[:1])
    if name == "cli":
        files = CliFiles()
        rss: list[int] = []
        return Bench(lambda: cli(files, rss=rss), lambda ops: ops[:1],
                     lambda: cli(files, in_process=True) * CLI_TRACE_REPS, files, rss)
    raise ValueError(f"unknown workload {name!r}")
