import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptree.cli import main
from chiptree.fixtures import (c4_to_p3_morphism, example_divisor, example_graph,
                               path_graph)
from chiptree.formats import (
    parse_td,
    write_document,
    write_gr,
    write_morphism,
    write_refinement_map,
    write_td,
)
from chiptree import Divisor, RefinementMap, treedec_by_elimination, validate_treedec

from conftest import multigraphs, random_harmonic_covering


@pytest.fixture()
def doc_path(tmp_path):
    g = example_graph()
    path = tmp_path / "example.ct"
    path.write_text(write_document(g, example_divisor(g)))
    return str(path)


@pytest.fixture()
def gr_path(tmp_path):
    path = tmp_path / "example.gr"
    path.write_text(write_gr(example_graph()))
    return str(path)


# the construction steps of the fixture's strategy, as ``--trace`` prints them
GOLDEN_TRACE = (
    "trace step III at (a | bcdefg) fire a from a:3\n"
    "trace step I at (bc | defg)\n"
    "trace step II at (bc | d)\n"
    "trace step III at (bc | efg) fire ac from a:1 b:1 c:1\n"
    "trace step III at (b | d) fire abcefg from a:1 b:1 c:1\n"
    "trace step III at (bg | ef) fire abcdg from b:2 g:1\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_document_with_divisor(self, capsys, doc_path):
        code, out, _ = run(capsys, "info", "--input", doc_path)
        assert code == 0
        assert "vertices: 7" in out
        assert "edges: 9" in out
        assert "divisor: a:3 (degree 3)" in out

    def test_gr_input(self, capsys, gr_path):
        code, out, _ = run(capsys, "info", "--input", gr_path)
        assert code == 0 and "connected: true" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "info", "--input", str(tmp_path / "no.gr"))
        assert code == 2
        assert err.startswith("error: malformed-input:")

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.gr"
        bad.write_text("p tw nope\n")
        code, _, err = run(capsys, "info", "--input", str(bad))
        assert code == 2 and "malformed-input" in err

    def test_non_integer_dense_divisor(self, capsys, tmp_path):
        bad = tmp_path / "bad.ct"
        bad.write_text("format chiptree/1\nvertices a\ndivisor-dense 1 x\n")
        code, _, err = run(capsys, "info", "--input", str(bad))
        assert code == 2
        assert err.startswith("error: malformed-input:")
        assert len(err.splitlines()) == 1

    def test_second_divisor_line_is_bad_input(self, capsys, doc_path):
        with open(doc_path, "a") as fh:
            fh.write("divisor b:1\n")
        code, out, err = run(capsys, "info", "--input", doc_path)
        assert (code, out) == (2, "")
        assert err == "error: malformed-input: document has a second 'divisor' line\n"

    def test_divisor_in_both_forms_is_bad_input(self, capsys, doc_path):
        with open(doc_path, "a") as fh:
            fh.write("divisor-dense 0 1 0 0 0 0 0\n")
        code, out, err = run(capsys, "info", "--input", doc_path)
        assert (code, out) == (2, "")
        assert err == ("error: malformed-input: document has both a 'divisor' and a "
                       "'divisor-dense' line\n")

    def test_format_is_not_an_option(self, capsys, doc_path):
        # only mss, treedec and morphism-td write a format
        with pytest.raises(SystemExit) as exc:
            main(["info", "--input", doc_path, "--format", "dot"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestReduceAndDhar:
    def test_reduce_to_d(self, capsys, doc_path):
        code, out, _ = run(capsys, "reduce", "--input", doc_path, "--q", "d")
        assert code == 0
        assert "reduced: d:2 g:1" in out

    def test_reduce_fixed_point_reports_zero_script(self, capsys, doc_path):
        code, out, _ = run(capsys, "reduce", "--input", doc_path,
                           "--divisor", "d:2 g:1", "--q", "d")
        assert code == 0 and "script: 0" in out

    def test_dhar(self, capsys, doc_path):
        code, out, _ = run(capsys, "dhar", "--input", doc_path,
                           "--divisor", "a:1 c:1 d:1", "--q", "d")
        assert code == 0 and "fireable-set: ac" in out

    def test_unknown_vertex_is_bad_input(self, capsys, doc_path):
        code, _, err = run(capsys, "dhar", "--input", doc_path, "--q", "z")
        assert code == 2 and "malformed-input" in err

    def test_missing_divisor_fails(self, capsys, gr_path):
        code, _, err = run(capsys, "reduce", "--input", gr_path, "--q", "1")
        assert code == 1 and "no divisor" in err


class TestRankAndGonality:
    def test_rank_true(self, capsys, doc_path):
        code, out, _ = run(capsys, "rank", "--input", doc_path)
        assert code == 0 and "positive-rank: true" in out

    def test_rank_false(self, capsys, doc_path):
        code, out, _ = run(capsys, "rank", "--input", doc_path,
                           "--divisor", "a:1")
        assert code == 0 and "positive-rank: false" in out

    def test_gonality(self, capsys, doc_path):
        code, out, _ = run(capsys, "gonality", "--input", doc_path,
                           "--max-degree", "3")
        assert code == 0
        assert "gonality: 3" in out and "witness:" in out

    def test_gonality_not_found(self, capsys, doc_path):
        code, out, _ = run(capsys, "gonality", "--input", doc_path,
                           "--max-degree", "2")
        assert code == 0 and "none up to degree 2" in out

    def test_gonality_over_budget_fails_in_one_line(self, capsys, tmp_path):
        # the path on 8,000 vertices: the exact count had too many digits to
        # print, and the CLI ended in a ValueError traceback
        path = tmp_path / "path.gr"
        path.write_text(write_gr(path_graph(8000)))
        code, out, err = run(capsys, "gonality", "--input", str(path),
                             "--max-degree", "8000")
        assert code == 1 and out == ""
        assert err == ("error: BudgetError: search space of more than 5000000 "
                       "divisors exceeds budget 5000000\n")


class TestMssAndTreedec:
    def test_mss_text(self, capsys, doc_path):
        code, out, _ = run(capsys, "mss", "--input", doc_path,
                           "--format", "text")
        assert code == 0
        assert out == (
            "searchers: 4\n"
            "node 0 parent - root ({} | abcdefg)\n"
            "node 1 parent 0 grow (a | bcdefg)\n"
            "node 2 parent 1 grow (abc | defg)\n"
            "node 3 parent 2 shrink (bc | defg)\n"
            "node 4 parent 3 split (bc | d)\n"
            "node 5 parent 3 split (bc | efg)\n"
            "node 6 parent 4 shrink (b | d)\n"
            "node 7 parent 5 grow (bcg | ef)\n"
            "node 8 parent 7 shrink (bg | ef)\n"
            "node 9 parent 6 grow (bd | {})\n"
            "node 10 parent 9 shrink (d | {})\n"
            "node 11 parent 8 grow (befg | {})\n"
            "node 12 parent 11 shrink (efg | {})\n"
            "node 13 parent 12 shrink (ef | {})\n")

    @pytest.mark.parametrize("command, fmt", [("mss", "pace"), ("treedec", "text"),
                                              ("morphism-td", "text")])
    def test_format_names_only_what_the_command_writes(self, capsys, doc_path,
                                                       command, fmt):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", doc_path, "--format", fmt])
        assert exc.value.code == 2
        assert f"--format: invalid choice: '{fmt}'" in capsys.readouterr().err

    def test_mss_dot(self, capsys, doc_path):
        code, out, _ = run(capsys, "mss", "--input", doc_path,
                           "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_mss_trace_goes_to_stderr(self, capsys, doc_path):
        code, out, err = run(capsys, "mss", "--input", doc_path, "--trace",
                             "--format", "text")
        assert code == 0
        assert err == GOLDEN_TRACE
        assert "fire" not in out

    def test_treedec_trace_goes_to_stderr(self, capsys, doc_path):
        code, out, err = run(capsys, "treedec", "--input", doc_path, "--trace")
        assert code == 0
        assert err == GOLDEN_TRACE
        assert out.startswith("s td 14 4 7\n")

    def test_mss_rejects_rankless_divisor(self, capsys, doc_path):
        code, _, err = run(capsys, "mss", "--input", doc_path,
                           "--divisor", "a:1")
        assert code == 1 and "error: DomainError" in err

    def test_treedec_roundtrips_through_verify(self, capsys, doc_path,
                                               tmp_path):
        td_path = str(tmp_path / "out.td")
        code, _, _ = run(capsys, "treedec", "--input", doc_path,
                         "--out", td_path)
        assert code == 0
        td = parse_td(open(td_path).read())
        assert validate_treedec(example_graph(), td).ok
        code, out, _ = run(capsys, "verify-td", "--input", doc_path,
                           "--td", td_path)
        assert code == 0 and "valid: width 3" in out

    def test_treedec_dot(self, capsys, doc_path):
        code, out, err = run(capsys, "treedec", "--input", doc_path, "--format", "dot")
        assert code == 0 and err == ""
        assert out.startswith('graph treedec {\n  node [shape=box];\n  b0 [label="{}"];\n'
                              '  b1 [label="a"];\n  b2 [label="abc"];\n')
        assert out.endswith('  b13 [label="ef"];\n  b0 -- b1;\n  b1 -- b2;\n  b2 -- b3;\n'
                            "  b3 -- b4;\n  b3 -- b8;\n  b4 -- b5;\n  b5 -- b6;\n"
                            "  b6 -- b7;\n  b8 -- b9;\n  b9 -- b10;\n  b10 -- b11;\n"
                            "  b11 -- b12;\n  b12 -- b13;\n}\n")
        assert out.count("[label=") == 14

    def test_treedec_is_deterministic(self, capsys, doc_path):
        _, first, _ = run(capsys, "treedec", "--input", doc_path)
        _, second, _ = run(capsys, "treedec", "--input", doc_path)
        assert first == second


class TestVerifyTd:
    def test_invalid_decomposition(self, capsys, doc_path, tmp_path):
        from chiptree import TreeDecomposition

        td_path = tmp_path / "bad.td"
        td_path.write_text(write_td(
            TreeDecomposition([frozenset({0, 1})], []), 7))
        code, _, err = run(capsys, "verify-td", "--input", doc_path,
                           "--td", str(td_path))
        assert code == 1 and "invalid-treedec" in err

    @pytest.mark.parametrize("text", [
        "s td 2 2 2\nb 1 1 2\nb 2 1\nb 1 2\n1 2\n",
        "s td 1 7 2\nb 1 1 2\n",
    ], ids=["repeated-bag-id", "wrong-max-bag-size"])
    def test_malformed_decomposition_is_bad_input(self, capsys, tmp_path, text):
        # both used to be read: the repeated line replaced bag 1, and the
        # header's size went unchecked
        (tmp_path / "g.gr").write_text("p tw 2 1\n1 2\n")
        (tmp_path / "bad.td").write_text(text)
        code, out, err = run(capsys, "verify-td", "--input", str(tmp_path / "g.gr"),
                             "--td", str(tmp_path / "bad.td"))
        assert code == 2 and out == ""
        assert err.startswith("error: malformed-input:") and err.count("\n") == 1


@pytest.fixture()
def fold_args(tmp_path):
    """``morphism-td`` arguments for the C4 -> P3 fold, plus the 2-banana
    (the graph C4 refines) written next to them."""
    from chiptree.fixtures import banana_graph
    from chiptree.formats import parse_gr
    g, t, f = c4_to_p3_morphism()
    (tmp_path / "c4.gr").write_text(write_gr(g))
    (tmp_path / "p3.gr").write_text(write_gr(t))
    # the .gr round trip drops labels, so name vertices numerically
    (tmp_path / "fold.map").write_text(write_morphism(
        f, parse_gr(write_gr(g)), parse_gr(write_gr(t))))
    (tmp_path / "banana.gr").write_text(write_gr(banana_graph(2)))
    return ["morphism-td", "--input", str(tmp_path / "c4.gr"),
            "--tree", str(tmp_path / "p3.gr"),
            "--morphism", str(tmp_path / "fold.map")]


class TestMorphismTd:
    def test_fold(self, capsys, fold_args):
        code, out, err = run(capsys, *fold_args)
        assert code == 0 and err == ""
        assert out == (
            "s td 7 3 4\n"
            "b 1 1\nb 2 2 4\nb 3 3\nb 4 1 2\nb 5 1 2 4\nb 6 2 3 4\nb 7 3 4\n"
            "1 4\n4 5\n5 2\n2 6\n6 7\n7 3\n"
        )
        report = validate_treedec(c4_to_p3_morphism()[0], parse_td(out))
        assert report.ok and report.width == 2

    def test_fold_dot(self, capsys, fold_args):
        # the .gr input has no labels, so each bag is named by its digits
        code, out, err = run(capsys, *fold_args, "--format", "dot")
        assert code == 0 and err == ""
        assert out == (
            "graph treedec {\n  node [shape=box];\n"
            '  b0 [label="0"];\n  b1 [label="13"];\n  b2 [label="2"];\n'
            '  b3 [label="01"];\n  b4 [label="013"];\n  b5 [label="123"];\n'
            '  b6 [label="23"];\n'
            "  b0 -- b3;\n  b3 -- b4;\n  b4 -- b1;\n  b1 -- b5;\n  b5 -- b6;\n"
            "  b6 -- b2;\n}\n"
        )

    def test_non_harmonic_fails(self, capsys, tmp_path, fold_args):
        mp = tmp_path / "fold.map"
        mp.write_text(mp.read_text().replace("e 0 0 1", "e 0 0 2"))
        code, _, err = run(capsys, *fold_args)
        assert code == 1 and "not harmonic" in err

    def test_subdivision_endpoint_outside_the_original_fails(
            self, capsys, tmp_path, fold_args):
        rp = tmp_path / "r.map"
        rp.write_text("orig 0 0\norig 2 1\nsub 1 99 1 0 0\nsub 3 0 1 1 0\n")
        out_path = tmp_path / "out.td"
        code, out, err = run(capsys, *fold_args,
                             "--original", str(tmp_path / "banana.gr"),
                             "--refinement", str(rp), "--out", str(out_path))
        assert code == 1 and out == "" and not out_path.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "subdivision vertex 1" in err

    @pytest.mark.parametrize("text, reason", [
        ("orig 0 0\norig 2 1\nsub 1 0 1 0 0\nsub 3 0 1 2 0\n",
         "copy 2 of edge (0,1), which has multiplicity 2"),
        ("orig 0 0\norig 2 1\nsub 1 0 1 0 0\nleaf 3 2\n", "where the refinement map"),
    ], ids=["copy-beyond-multiplicity", "leaf-on-a-cycle"])
    def test_map_that_does_not_refine_the_original_fails(
            self, capsys, tmp_path, fold_args, text, reason):
        rp = tmp_path / "r.map"
        rp.write_text(text)
        code, out, err = run(capsys, *fold_args,
                             "--original", str(tmp_path / "banana.gr"),
                             "--refinement", str(rp))
        assert code == 1 and out == ""
        assert err.startswith("error: DomainError: ") and err.count("\n") == 1
        assert reason in err

    @pytest.mark.parametrize("name, extra, reason", [
        ("fold.map", "v 0 2\n", "graph vertex 0 has a second morphism line"),
        ("r.map", "orig 0 1\n", "refined vertex 0 has a second line"),
    ], ids=["morphism", "refinement"])
    def test_repeated_key_is_bad_input(self, capsys, tmp_path, fold_args, name, extra,
                                       reason):
        (tmp_path / "r.map").write_text("orig 0 0\norig 2 1\nsub 1 0 1 0 0\nsub 3 0 1 1 0\n")
        path = tmp_path / name
        path.write_text(path.read_text() + extra)
        code, out, err = run(capsys, *fold_args, "--original", str(tmp_path / "banana.gr"),
                             "--refinement", str(tmp_path / "r.map"))
        assert (code, out, err) == (2, "", f"error: malformed-input: {reason}\n")

    @pytest.mark.parametrize("name, old, new, reason", [
        ("fold.map", "e 0 0 1", "e 0 2 1", "tree edge id 2 outside 0..1"),
        ("fold.map", "e 0 0 1", "e 0 -1 1", "tree edge id -1 outside 0..1"),
        ("r.map", "sub 3 0 1 1 0", "sub 3 0 1 1 -1",
         "negative id in refinement line: 'sub 3 0 1 1 -1'"),
    ], ids=["tree-edge-id-2", "tree-edge-id-negative", "refinement-position-negative"])
    def test_id_out_of_range_is_bad_input(self, capsys, tmp_path, fold_args, name, old,
                                          new, reason):
        (tmp_path / "r.map").write_text("orig 0 0\norig 2 1\nsub 1 0 1 0 0\nsub 3 0 1 1 0\n")
        path = tmp_path / name
        path.write_text(path.read_text().replace(old, new))
        code, out, err = run(capsys, *fold_args, "--original", str(tmp_path / "banana.gr"),
                             "--refinement", str(tmp_path / "r.map"))
        assert (code, out, err) == (2, "", f"error: malformed-input: {reason}\n")

    def test_index_zero_is_a_domain_error(self, capsys, tmp_path, fold_args):
        # a well-formed line whose index no finite morphism has
        mp = tmp_path / "fold.map"
        mp.write_text(mp.read_text().replace("e 0 0 1", "e 0 0 0"))
        code, out, err = run(capsys, *fold_args)
        assert (code, out) == (1, "") and err.startswith("error: DomainError: ")

    def test_refinement_without_original_fails(self, capsys, tmp_path, fold_args):
        # the map file need not exist: the option pair is refused first
        code, out, err = run(capsys, *fold_args,
                             "--refinement", str(tmp_path / "missing.map"))
        assert code == 1 and out == ""
        assert err == "error: DomainError: --refinement needs --original\n"


def test_optimized_interpreter_gives_the_same_output(tmp_path, doc_path, fold_args):
    """Smoke test under ``python -O``, which strips ``assert``: treedec,
    verify-td (valid and invalid) and morphism-td print the same stdout
    and exit with the same codes as under plain ``python``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    good, bad = tmp_path / "good.td", tmp_path / "bad.td"
    bad.write_text("s td 1 2 7\nb 1 1 2\n")
    calls = [["treedec", "--input", doc_path, "--out", str(good)],
             ["treedec", "--input", doc_path, "--format", "dot"],
             ["verify-td", "--input", doc_path, "--td", str(good)],
             ["verify-td", "--input", doc_path, "--td", str(bad)],
             fold_args,
             fold_args + ["--original", str(tmp_path / "banana.gr")]]
    for argv in calls:
        runs = [subprocess.run([sys.executable, *flags, "-m", "chiptree.cli", *argv],
                               env=env, capture_output=True, text=True, timeout=60)
                for flags in ([], ["-O"])]
        assert [(r.returncode, r.stdout) for r in runs] == \
            [(runs[0].returncode, runs[0].stdout)] * 2, argv
        assert "Traceback" not in runs[1].stderr
    assert good.read_text().startswith("s td 14 4 7\n")


# -- the exit-code contract on generated input files -------------------------

# tokens of every input format, for files that are almost well formed
TOKENS = ["p", "tw", "s", "td", "b", "v", "e", "c", "format", "chiptree/1",
          "vertices", "edge", "divisor", "divisor-dense", "orig", "sub", "leaf",
          "0", "1", "2", "3", "-1", "x", "a", "a:2", "0:1", "1:-1"]
soup = st.lists(st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join),
                max_size=6).map("\n".join)


@st.composite
def input_files(draw):
    """Files that fit one another: a graph, with or without a divisor, a
    decomposition of it, a harmonic morphism from it to a tree (its
    indices sometimes changed) and the identity refinement map.  One time
    in four the graph is any small multigraph instead, and one time in
    four a file is token soup."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g, t, f = random_harmonic_covering(rng, rng.randint(2, 3), rng.randint(2, 3))
    morphism = write_morphism(f, g, t)
    if draw(st.booleans()):
        # the same file with new indices; an index 0, which no
        # FiniteMorphism holds, is refused as the file is read
        index = [rng.randint(0, 2) for _ in f.index]
        morphism = "".join([f"v {v} {w}\n" for v, w in enumerate(f.vertex_map)]
                           + [f"e {i} {ti} {k}\n"
                              for i, (ti, k) in enumerate(zip(f.edge_map, index))])
    order = list(range(g.n))
    rng.shuffle(order)
    files = {"td": write_td(treedec_by_elimination(g, order), g.n),
             "t": write_gr(t), "m": morphism, "o": write_gr(g),
             "r": write_refinement_map(RefinementMap.identity(g.n))}
    if draw(st.integers(0, 3)) == 3:
        g = draw(multigraphs())
    chips = [rng.randint(0, 2) for _ in range(g.n)]
    files["g"] = draw(st.sampled_from([write_gr(g), write_document(g, Divisor(chips))]))
    return {name: text if draw(st.integers(0, 3)) < 3 else draw(soup)
            for name, text in files.items()}


CALLS = {
    "info": ["info", "--input", "g"],
    "reduce": ["reduce", "--input", "g", "--q", "0"],
    "dhar": ["dhar", "--input", "g", "--q", "0"],
    "rank": ["rank", "--input", "g"],
    "gonality": ["gonality", "--input", "g", "--max-degree", "3"],
    "mss": ["mss", "--input", "g", "--trace", "--format", "text"],
    "treedec": ["treedec", "--input", "g", "--trace"],
    "verify-td": ["verify-td", "--input", "g", "--td", "td"],
    "morphism-td": ["morphism-td", "--input", "g", "--tree", "t", "--morphism", "m"],
    "morphism-td --refinement": ["morphism-td", "--input", "g", "--tree", "t",
                                 "--morphism", "m", "--original", "o",
                                 "--refinement", "r"],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", CALLS)
@settings(max_examples=20, deadline=None)
@given(files=input_files())
def test_exit_code_contract_on_generated_files(fuzz_dir, command, files):
    """Every subcommand exits 0, 1 or 2 without an escaping exception, and
    a failure leaves exactly one ``error:`` line on stderr."""
    for name, text in files.items():
        (fuzz_dir / name).write_text(text)
    argv = [str(fuzz_dir / a) if a in files else a for a in CALLS[command]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
