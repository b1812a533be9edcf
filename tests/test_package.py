"""The lazy package namespace, the slotted records and the CLI import budget."""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiptree
from chiptree import (ChipTreeError, Divisor, FiniteMorphism, FiringScript, MultiGraph,
                      Position, RefinementMap, TreeDecomposition, apply_script, build_mss,
                      check_morphism, contract_refinement, dhar, dist, effective_divisors,
                      fire_set, harmonic_certificate, has_positive_rank, is_fireable,
                      level_set_chain, morphism_to_treedec, mss_to_treedec, q_reduce,
                      stable_treedec, treedec_by_elimination, validate_treedec)
from chiptree.fixtures import c4_to_p3_morphism, example_divisor, example_graph, path_graph
from chiptree.formats import (parse_gr, parse_morphism, parse_refinement_map,
                              write_document, write_gr, write_morphism, write_td)
from chiptree.graph import Report
from chiptree.strategy import MssTree, good_firing_set, validate_mss

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_fresh(code, *argv, cwd=ROOT):
    """Run ``python -c code argv`` in a fresh interpreter with this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


class TestLazyNamespace:
    @pytest.mark.parametrize("name", chiptree.__all__)
    def test_name_is_its_home_module_attribute(self, name):
        home = importlib.import_module(f"chiptree.{chiptree._HOME[name]}")
        assert getattr(chiptree, name) is getattr(home, name)

    def test_dir_lists_every_public_name_before_access(self):
        proc = run_fresh("import chiptree; print(' '.join(dir(chiptree)))")
        assert set(chiptree.__all__) <= set(proc.stdout.split())

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chiptree.no_such_name  # noqa: B018


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "chiptree").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in modules, f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", sorted((SRC / "chiptree").glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import_and_no_assert(path):
    """Lint by AST, as no linter is a dependency: every imported name is
    read somewhere in its module, and no ``assert`` statement checks
    anything, since ``python -O`` strips them."""
    tree = ast.parse(path.read_text())
    imported, asserts = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or \
                isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assert):
            asserts.append(node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in read} == {}
    assert asserts == []


@pytest.mark.parametrize("path", sorted((SRC / "chiptree").glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_writes_to_the_terminal(path):
    """Lint by AST: no module but ``cli.py`` names ``print`` or touches
    ``sys.stdout`` or ``sys.stderr``, so the library stays silent and
    reports only through what it returns and raises."""
    if path.name == "cli.py":
        return
    tree = ast.parse(path.read_text())
    streams = {"stdout", "stderr", "__stdout__", "__stderr__"}
    writes = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "print"
              or isinstance(node, ast.Attribute) and node.attr in streams
              and isinstance(node.value, ast.Name) and node.value.id == "sys"
              or isinstance(node, ast.ImportFrom) and node.module == "sys"
              and any(alias.name in streams for alias in node.names)]
    assert writes == []


def test_every_private_function_and_constant_is_read():
    """Lint by AST: each private module-level function and each UPPER_CASE
    module constant in the package is read somewhere in the package
    outside its own definition."""
    defined, reads = {}, set()
    for path in sorted((SRC / "chiptree").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_") \
                    and not stmt.name.startswith("__"):
                owner = stmt.name
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                owner = next((name for name in names
                              if name.lstrip("_")[:1].isupper() and name.upper() == name), None)
            if owner:
                defined[owner] = f"{path.name}:{stmt.lineno}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = node.id
                elif isinstance(node, ast.Attribute):
                    read = node.attr
                else:
                    continue
                if read != owner:
                    reads.add(read)
    assert {name: where for name, where in defined.items() if name not in reads} == {}


class TestRecords:
    def test_frozen_record_equality_hash_and_repr(self):
        d = Divisor((3, 0, 1))
        assert d == Divisor((3, 0, 1)) and d != Divisor((3, 0, 0))
        assert hash(d) == hash(Divisor((3, 0, 1)))
        assert repr(d) == "Divisor(chips=(3, 0, 1))"
        assert d != (3, 0, 1)

    def test_frozen_record_refuses_assignment(self):
        pos = Position(frozenset({0}), frozenset({1}))
        with pytest.raises(AttributeError):
            pos.searchers = frozenset()
        with pytest.raises(AttributeError):
            del pos.territory
        with pytest.raises(AttributeError):
            pos.extra = 1

    def test_keyword_fields_and_wrong_fields(self):
        f = FiniteMorphism(vertex_map=(0,), edge_map=(), index=())
        assert f == FiniteMorphism((0,), (), ())
        with pytest.raises(TypeError):
            FiniteMorphism((0,), ())
        with pytest.raises(TypeError):
            FiniteMorphism((0,), (), (), vertex_map=(0,))

    def test_mutable_records_are_unhashable_and_copy(self):
        g, d = example_graph(), example_divisor()
        td = mss_to_treedec(g, build_mss(g, d))
        report = validate_treedec(g, td)
        with pytest.raises(TypeError):
            hash(report)
        assert copy.deepcopy(report) == report
        assert pickle.loads(pickle.dumps(d)) == d
        # a decomposition is frozen, so it hashes by its tuples
        assert hash(copy.deepcopy(td)) == hash(td)

    def test_every_validator_returns_one_report(self):
        g, d = example_graph(), example_divisor()
        tree = build_mss(g, d)
        c4, p3, fold = c4_to_p3_morphism()
        reports = [validate_mss(g, tree, 4), validate_treedec(g, mss_to_treedec(g, tree)),
                   check_morphism(c4, p3, fold), harmonic_certificate(c4, p3, fold)[1],
                   validate_mss(g, tree, 1), validate_treedec(g, TreeDecomposition([], [])),
                   check_morphism(c4, c4, fold)]
        assert {type(report) for report in reports} == {Report}
        assert [(r.ok, r.width) for r in reports] == [
            (True, None), (True, 3), (True, None), (True, None),
            (False, None), (False, -1), (False, None)]
        for report in reports:
            assert type(report.violations) is list
            assert report.first() == (report.violations[0] if report.violations else None)
            with pytest.raises(TypeError):
                hash(report)
            assert copy.deepcopy(report) == report


# -- malformed values ----------------------------------------------------------

PATH3 = MultiGraph(3, [(0, 1), (1, 2)])
BAGS = [{0, 1}, {1, 2}]
C4, P3, FOLD = c4_to_p3_morphism()
P2 = MultiGraph(2, [(0, 1)])
P2_TD = TreeDecomposition([{0, 1}], [])
EXAMPLE, THREE = example_graph(), Divisor((3, 0, 0, 0, 0, 0, 0))

# one malformed value each, refused with a ChipTreeError where it enters
PROBES = {
    "edge (0.0, 1)": lambda: write_td(TreeDecomposition(BAGS, [(0.0, 1)]), 3),
    "edge ('0', 1)": lambda: validate_treedec(PATH3, TreeDecomposition(BAGS, [("0", 1)])),
    "edge 0": lambda: TreeDecomposition(BAGS, [0]).to_dot(),
    "edge (0, 1, 2)": lambda: validate_treedec(PATH3, TreeDecomposition(BAGS, [(0, 1, 2)])),
    "edge (True, 0)": lambda: validate_treedec(PATH3, TreeDecomposition(BAGS, [(True, 0)])),
    "bag {True, 0}": lambda: TreeDecomposition([{True, 0}, {1, 2}], [(0, 1)]),
    "count 2.5": lambda: MultiGraph(2.5, []),
    "endpoint 0.0": lambda: MultiGraph(2, [(0.0, 1)]),
    "count True": lambda: MultiGraph(True, []),
    "degree 2.5": lambda: effective_divisors(3, 2.5),
    "degree -1": lambda: effective_divisors(3, -1),
    "order 0.0": lambda: treedec_by_elimination(PATH3, [0.0, 1, 2]),
    "chip 1.5": lambda: has_positive_rank(PATH3, Divisor((1.5, 0, 0))),
    "chip 2.0": lambda: build_mss(PATH3, Divisor((2.0, 0, 0))),
    "chip 1.5, q_reduce": lambda: q_reduce(PATH3, Divisor((1.5, 0, 0)), 0),
    "chip '1'": lambda: has_positive_rank(PATH3, Divisor(("1", 0, 0))),
    "chip True": lambda: Divisor((True, 0, 0)),
    "Divisor.of x": lambda: Divisor.of(["x"]),
    "searchers '4'": lambda: MssTree("4", [0], [7], [None]),
    "parent True": lambda: MssTree(2, [0, 1, 1], [7, 6, 4], [None, 0, True]),
    "vertex_map None": lambda: check_morphism(C4, P3, FiniteMorphism(None, FOLD.edge_map,
                                                                      FOLD.index)),
    "index 0": lambda: FiniteMorphism(FOLD.vertex_map, FOLD.edge_map, (1, 0, 1, 1)),
    "original None": lambda: contract_refinement(P2, P2, P2_TD, RefinementMap(None, {}, {})),
    "original {0: '0'}": lambda: contract_refinement(P2, P2, P2_TD,
                                                     RefinementMap({0: "0", 1: 1}, {}, {})),
    "subdivision (0, 1)": lambda: RefinementMap({0: 0, 1: 1}, {2: (0, 1)}, {}),
    "original list": lambda: contract_refinement(P2, P2, P2_TD, RefinementMap([0, 1], {}, {})),
    "original {0.0: 0}": lambda: RefinementMap({0.0: 0, 1: 1}, {}, {}),
    "identity 2.5": lambda: RefinementMap.identity(2.5),
    "normalized [1.5, 0]": lambda: FiringScript.normalized([1.5, 0]),
    "normalized []": lambda: FiringScript.normalized([]),
    "script None": lambda: level_set_chain(FiringScript(None)),
    "script (True, 0)": lambda: FiringScript((True, 0)),
    "script ('a', 0)": lambda: apply_script(P2, Divisor((1, 0)), FiringScript(("a", 0))),
    "edges None": lambda: MultiGraph(2, None),
    "bag 5": lambda: TreeDecomposition([5], []),
    "tree edges None": lambda: TreeDecomposition([{0}], None),
    "order 2.5": lambda: treedec_by_elimination(PATH3, 2.5),
    "xs None": lambda: MssTree(1, None, [1], [None]),
    "zero 2.5": lambda: Divisor.zero(2.5),
    "single v 1.5": lambda: Divisor.single(3, 1.5),
    "single v 5": lambda: Divisor.single(3, 5),
    "single v -1": lambda: Divisor.single(3, -1),
    "write_td n 2.5": lambda: write_td(TreeDecomposition(BAGS, [(0, 1)]), 2.5),
    "write_td bag {0, 5}": lambda: write_td(TreeDecomposition([{0, 5}], []), 2),
    "flaps None": lambda: EXAMPLE.flaps(None),
    "flaps ['a']": lambda: EXAMPLE.flaps(["a"]),
    "flaps [1.0]": lambda: path_graph(3).flaps([1.0]),
    "outdeg None": lambda: EXAMPLE.outdeg(None, 1),
    "outdeg v 0.0": lambda: EXAMPLE.outdeg({0}, 0.0),
    "is_fireable None": lambda: is_fireable(EXAMPLE, THREE, None),
    "fire_set 5": lambda: fire_set(EXAMPLE, THREE, 5),
    "good_firing_set None": lambda: good_firing_set(EXAMPLE, THREE, None, {1}),
    "to_dot bag {0, 9}": lambda: TreeDecomposition([{0, 9}], []).to_dot(EXAMPLE),
    "format length 9": lambda: Divisor((0,) * 8 + (1,)).format(EXAMPLE),
    "vertex_index True": lambda: EXAMPLE.vertex_index(True),
    "vertex_index 1.7": lambda: EXAMPLE.vertex_index(1.7),
    "labels 'ab'": lambda: MultiGraph(2, [(0, 1)], labels="ab"),
    "tree edge id 2": lambda: parse_morphism("v 0 0\nv 1 1\ne 0 2 1\n", P2, P2),
    "refinement id -1": lambda: parse_refinement_map("orig 0 -1\n"),
    "graph degree -1": lambda: path_graph(3).degree(-1),
    "vertex_name -1": lambda: path_graph(3).vertex_name(-1),
    "graph degree True": lambda: path_graph(3).degree(True),
    "multiplicity (0, 7)": lambda: path_graph(3).multiplicity(0, 7),
    "adjacency 1.0": lambda: path_graph(3).adjacency(1.0),
    "write_morphism image 7": lambda: write_morphism(
        FiniteMorphism((0, 1, 7, 1), FOLD.edge_map, FOLD.index), C4, P3),
    "set_name {9}": lambda: EXAMPLE.set_name({9}),
    "set_name {-1, 9}": lambda: path_graph(3).set_name({-1, 9}),
}

JUNK = st.one_of(st.integers(-2, 4), st.floats(), st.booleans(), st.text(max_size=2),
                 st.none())
PAIRS = st.one_of(st.tuples(JUNK, JUNK), st.lists(JUNK, max_size=3), JUNK)


@pytest.mark.parametrize("probe", PROBES)
def test_malformed_probe_raises_a_typed_error(probe):
    with pytest.raises(ChipTreeError):
        PROBES[probe]()


@settings(max_examples=150, deadline=None)
@given(count=JUNK, chips=st.lists(JUNK, min_size=3, max_size=3), q=JUNK,
       edges=st.lists(PAIRS, max_size=3), members=st.lists(JUNK, max_size=3),
       order=st.lists(JUNK, min_size=3, max_size=3),
       vertices=st.one_of(st.lists(st.one_of(JUNK, PAIRS), max_size=3), JUNK))
def test_record_constructors_and_readers_raise_only_typed_errors(count, chips, q, edges,
                                                                 members, order, vertices):
    """Malformed counts, chips, vertices, vertex sets, bag members and tree
    edges reach the record constructors and the operations that read those
    records; every refusal is a ``ChipTreeError``."""
    g = PATH3
    calls = [
        lambda: MultiGraph(count, []),
        lambda: MultiGraph(3, edges),
        lambda: effective_divisors(count, 2),
        lambda: effective_divisors(3, count),
        lambda: treedec_by_elimination(g, order),
        lambda: MssTree(count, [0], [7], [None]),
        lambda: MssTree(2, [0, members[0] if members else 1], [7, 6], [None, count]),
    ]
    for call in calls:
        try:
            call()
        except ChipTreeError:
            pass
    try:
        d = Divisor(chips)
    except ChipTreeError:
        d = Divisor((1, 0, 0))
    for call in (lambda: has_positive_rank(g, d), lambda: build_mss(g, d),
                 lambda: q_reduce(g, d, q), lambda: dhar(g, d, q),
                 lambda: g.flaps(vertices), lambda: g.outdeg(vertices, q),
                 lambda: is_fireable(g, d, vertices), lambda: fire_set(g, d, vertices),
                 lambda: good_firing_set(g, d, vertices, {1, 2}),
                 lambda: good_firing_set(g, d, {0}, vertices), lambda: g.degree(q),
                 lambda: g.adjacency(q), lambda: g.multiplicity(q, 0),
                 lambda: g.vertex_name(q)):
        try:
            call()
        except ChipTreeError:
            pass
    try:
        td = TreeDecomposition([members, *BAGS], edges)
    except ChipTreeError:
        return
    validate_treedec(g, td)
    td.to_dot()
    for call in (lambda: td.to_dot(g), lambda: write_td(td, g.n)):
        try:
            call()
        except ChipTreeError:  # a bag member at n or above, outside g
            pass


MAPS = st.one_of(
    st.dictionaries(st.one_of(st.integers(0, 4), JUNK),
                    st.one_of(st.integers(0, 3), JUNK, st.tuples(*[st.integers(0, 2)] * 4),
                              st.lists(JUNK, max_size=5)), max_size=4),
    JUNK, st.lists(JUNK, max_size=2))
COLUMNS = st.one_of(st.lists(st.integers(0, 3), min_size=4, max_size=4),
                    st.lists(JUNK, max_size=5), JUNK)


@settings(max_examples=150, deadline=None)
@given(columns=st.lists(COLUMNS, min_size=3, max_size=3),
       tables=st.lists(MAPS, min_size=3, max_size=3), script=COLUMNS,
       chips=st.lists(st.lists(st.integers(-1, 2), min_size=4, max_size=4), min_size=2,
                      max_size=2))
def test_morphism_refinement_and_script_records_raise_only_typed_errors(columns, tables,
                                                                        script, chips):
    """Morphisms, refinement maps and firing scripts made from junk reach
    the operations that read them: the fold of C4 onto a path, and C4 as
    the 2-banana with both edges subdivided; every refusal is a
    ``ChipTreeError``."""
    banana, c4_td = MultiGraph(2, [(0, 1), (0, 1)]), treedec_by_elimination(C4)
    records = {}
    for name, make in [("f", lambda: FiniteMorphism(*columns)),
                       ("rmap", lambda: RefinementMap(*tables)),
                       ("x", lambda: FiringScript(script)),
                       ("normalized", lambda: FiringScript.normalized(script))]:
        try:
            records[name] = make()
        except ChipTreeError:
            pass
    f, rmap = records.get("f", FOLD), records.get("rmap")
    calls = [lambda: check_morphism(C4, P3, f), lambda: harmonic_certificate(C4, P3, f),
             lambda: morphism_to_treedec(C4, P3, f)]
    if rmap is not None:
        calls += [lambda: contract_refinement(banana, C4, c4_td, rmap),
                  lambda: stable_treedec(banana, C4, rmap, P3, f)]
    for x in (records.get("x"), records.get("normalized")):
        if x is not None:
            calls += [lambda x=x: level_set_chain(x),
                      lambda x=x: apply_script(C4, Divisor(chips[0]), x)]
    calls.append(lambda: dist(C4, Divisor(chips[0]), Divisor(chips[1])))
    for call in calls:
        try:
            call()
        except ChipTreeError:
            pass


# -- what each CLI call loads ---------------------------------------------------

BASE = {"chiptree", "chiptree.cli", "chiptree.errors", "chiptree.formats",
        "chiptree.graph", "chiptree.divisors"}
RANK = BASE | {"chiptree.gonality"}
MSS = RANK | {"chiptree.strategy"}
TREEDEC = MSS | {"chiptree.treedec"}
# checking a decomposition or building one from a morphism needs no strategy
VERIFY = BASE | {"chiptree.treedec"}
MORPHISM = VERIFY | {"chiptree.morphism"}

PROBE = """\
import sys
from chiptree.cli import main
main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "chiptree")),
      file=sys.stderr)
"""


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The inputs of the benchmark's ten CLI calls."""
    root = tmp_path_factory.mktemp("cli")
    g, d = example_graph(), example_divisor()
    fg, ft, ff = c4_to_p3_morphism()
    files = {
        "golden.ct": write_document(g, d),
        "golden.td": write_td(mss_to_treedec(g, build_mss(g, d)), g.n),
        "c4.gr": write_gr(fg),
        "p3.gr": write_gr(ft),
        "fold.map": write_morphism(ff, parse_gr(write_gr(fg)), parse_gr(write_gr(ft))),
        "bad.gr": "p tw 3 2\n1 2\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    return root


CALLS = {
    "info": (["info", "--input", "golden.ct"], BASE),
    "reduce": (["reduce", "--input", "golden.ct", "--q", "d"], BASE),
    "dhar": (["dhar", "--input", "golden.ct", "--q", "d"], BASE),
    "rank": (["rank", "--input", "golden.ct"], RANK),
    "gonality": (["gonality", "--input", "golden.ct", "--max-degree", "4"], RANK),
    "mss": (["mss", "--input", "golden.ct"], MSS),
    "treedec": (["treedec", "--input", "golden.ct"], TREEDEC),
    "verify-td": (["verify-td", "--input", "golden.ct", "--td", "golden.td"], VERIFY),
    "morphism-td": (["morphism-td", "--input", "c4.gr", "--tree", "p3.gr",
                     "--morphism", "fold.map"], MORPHISM),
    "malformed": (["info", "--input", "bad.gr"], BASE),
}


@pytest.mark.parametrize("argv, expected", CALLS.values(), ids=CALLS.keys())
def test_cli_call_loads_only_what_it_runs(cli_files, argv, expected):
    proc = run_fresh(PROBE, *argv, cwd=cli_files)
    assert "Traceback" not in proc.stderr, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert loaded == expected
