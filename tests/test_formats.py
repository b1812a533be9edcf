import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptree import (Divisor, DomainError, FiniteMorphism, FormatError, GraphError,
                      MultiGraph, TreeDecomposition, build_mss, has_positive_rank,
                      mss_to_treedec, treedec_by_elimination)
from chiptree import formats
from chiptree.fixtures import banana_graph, c4_to_p3_morphism, example_graph, path_graph
from chiptree.formats import (
    MAX_GR_VERTICES,
    parse_divisor,
    parse_document,
    parse_gr,
    parse_graph_auto,
    parse_morphism,
    parse_refinement_map,
    parse_td,
    write_document,
    write_gr,
    write_morphism,
    write_refinement_map,
    write_td,
)

from conftest import (multigraphs, random_connected_multigraph,
                      random_effective_divisor, random_refinement)


@st.composite
def labelled_graphs(draw):
    """A multigraph whose vertices have unique labels without whitespace;
    a label may look like another vertex's index or hold a colon."""
    g = draw(multigraphs())
    labels = draw(st.lists(st.text("ab01:_-", min_size=1, max_size=3),
                           min_size=g.n, max_size=g.n, unique=True))
    return MultiGraph(g.n, g.edge_list, labels)


class TestGr:
    def test_parse_simple(self):
        g = parse_gr("c a comment\np tw 3 2\n1 2\n2 3\n")
        assert g.n == 3 and g.num_edges == 2

    def test_duplicate_lines_stack(self):
        g = parse_gr("p tw 2 3\n1 2\n1 2\n2 1\n")
        assert g.multiplicity(0, 1) == 3

    def test_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_connected_multigraph(rng, rng.randint(2, 7))
            back = parse_gr(write_gr(g))
            assert back.n == g.n
            assert back.edge_list == g.edge_list

    def test_roundtrip_single_vertex(self):
        g = MultiGraph(1, [])
        assert parse_gr(write_gr(g)).n == 1

    @pytest.mark.parametrize("text", [
        "",
        "p tw x y\n",
        "p cep 2 1\n1 2\n",
        "p tw 2 1\n1 2 3\n",
        "p tw 2 1\n1 3\n",
        "p tw 2 2\n1 2\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_gr(text)

    def test_vertex_count_above_cap(self):
        with pytest.raises(FormatError, match="cap"):
            parse_gr(f"p tw {MAX_GR_VERTICES + 1} 0\n")


class TestTd:
    def test_parse_simple(self):
        td = parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert td.bags == [frozenset({0, 1}), frozenset({1, 2})]
        assert td.tree_edges == ((0, 1),)

    def test_empty_bag_allowed(self):
        td = parse_td("s td 1 0 2\nb 1\n")
        assert td.bags == [frozenset()]

    def test_roundtrip(self):
        td = TreeDecomposition(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset()],
            [(0, 1), (1, 2)],
        )
        assert parse_td(write_td(td, 3)) == td

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_roundtrip_elimination_orders(self, rng):
        g = random_connected_multigraph(rng, rng.randint(2, 8))
        order = list(range(g.n))
        rng.shuffle(order)
        td = treedec_by_elimination(g, order)
        assert parse_td(write_td(td, g.n)) == td

    def test_roundtrip_built_from_strategies(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_connected_multigraph(rng, rng.randint(2, 7))
            d = random_effective_divisor(rng, g.n, rng.randint(1, g.n))
            if not has_positive_rank(g, d):
                d = Divisor([c + 1 for c in d.chips])
            td = mss_to_treedec(g, build_mss(g, d))
            assert parse_td(write_td(td, g.n)) == td

    @pytest.mark.parametrize("n, message", [
        (2.5, "n must be an int >= 0, got 2.5"),
        (True, "n must be an int >= 0, got True"),
        (-1, "n must be an int >= 0, got -1"),
        (2, "a bag holds a vertex outside 0..1"),
    ])
    def test_writer_refuses_what_its_parser_refuses(self, n, message):
        # the header used to read "s td 1 2 2.5", and a bag member 5 of a
        # 2-vertex graph was written for parse_td to refuse
        td = TreeDecomposition([{0, 5}], [])
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            write_td(td, n)
        assert parse_td(write_td(td, 6)) == td

    @pytest.mark.parametrize("text", [
        "",
        "s td 2 2\n",
        "s td 1 1 2\nb 2 1\n",
        "s td 1 1 2\nb 1 3\n",
        "s td 2 1 2\nb 1 1\nb 2 2\n1 5\n",
        "s td 2 1 2\nb 1 1\n1 2\n",
        "s td 3 1 2\nb 1 1\nb 3 2\n",
        "s td 2 1 2\nb 1 1\nb 1 2\n",
        "s td -1 0 2\n",
        "s td 2 2 2\nb 1 1 2\nb 2 1\nb 1 2\n1 2\n",  # bag 1 twice
        "s td 1 7 2\nb 1 1 2\n",                     # max bag size 7, not 2
        "s td 1 x 2\nb 1 1\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_td(text)


class TestDivisorText:
    def test_sparse_parse(self):
        g = example_graph()
        d = parse_divisor("a:3", g)
        assert d == Divisor.single(7, 0, 3)

    def test_tokens_accumulate(self):
        g = example_graph()
        assert parse_divisor("a:1 a:2 b:1", g)[0] == 3

    def test_roundtrip(self):
        g = example_graph()
        d = parse_divisor("b:2 g:1", g)
        assert parse_divisor(d.format(g), g) == d

    def test_unlabeled_graph_uses_numbers(self):
        g = MultiGraph(3, [(0, 1), (1, 2)])
        assert parse_divisor("0:1 2:4", g) == Divisor((1, 0, 4))

    def test_zero_divisor_reads_back(self):
        g = example_graph()
        assert Divisor.zero(7).format(g) == "0"
        assert parse_divisor("0", g) == Divisor.zero(7)
        with pytest.raises(FormatError):
            parse_divisor("0 a:1", g)

    @pytest.mark.parametrize("chips", [(0,) * 8 + (1,), (1, 0)], ids=["long", "short"])
    def test_format_checks_the_length(self, chips):
        with pytest.raises(DomainError, match=f"^divisor length {len(chips)} does not "
                                              "match n=7$"):
            Divisor(chips).format(example_graph())

    def test_bad_tokens(self):
        g = example_graph()
        with pytest.raises(FormatError):
            parse_divisor("a=3", g)
        with pytest.raises(FormatError):
            parse_divisor("a:x", g)


class TestDocument:
    def test_parse_with_divisor(self):
        g, d = parse_document(
            "format chiptree/1\nvertices a b\nedge a b\ndivisor a:2\n"
        )
        assert g.n == 2 and d == Divisor((2, 0))

    def test_dense_divisor(self):
        _, d = parse_document(
            "format chiptree/1\nvertices a b c\nedge a b\ndivisor-dense 1 0 2\n"
        )
        assert d == Divisor((1, 0, 2))

    def test_roundtrip_example(self, fixture_graph, fixture_divisor):
        text = write_document(fixture_graph, fixture_divisor)
        g, d = parse_document(text)
        assert g.edge_list == fixture_graph.edge_list
        assert [g.vertex_name(v) for v in range(g.n)] == list("abcdefg")
        assert d == fixture_divisor

    @settings(max_examples=50, deadline=None)
    @given(labelled_graphs(), st.data())
    def test_roundtrip_labels_parallel_edges_and_divisor(self, g, data):
        d = Divisor(data.draw(st.lists(st.integers(0, 4), min_size=g.n, max_size=g.n)))
        back, back_d = parse_document(write_document(g, d))
        assert back == g and back.labels == g.labels
        assert back.edge_list == g.edge_list
        assert back_d == d

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True),
           st.data())
    def test_any_label_reads_back_or_is_refused(self, labels, data):
        n = len(labels)
        try:
            g = MultiGraph(n, [(v - 1, v) for v in range(1, n)], labels)
        except GraphError:
            assert any(name.split() != [name] for name in labels)
            return
        d = Divisor(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        back, back_d = parse_document(write_document(g, d))
        assert back == g and back.labels == g.labels and back_d == d

    @pytest.mark.parametrize("text", [
        "vertices a b\n",
        "format chiptree/2\nvertices a\n",
        "format chiptree/1\nedge a b\n",
        "format chiptree/1\nvertices a b\nedge a c\n",
        "format chiptree/1\nvertices a b\nfrobnicate\n",
        "format chiptree/1\nvertices a b\ndivisor-dense 1\n",
    ])
    def test_malformed(self, text):
        with pytest.raises(FormatError):
            parse_document(text)


class TestAutoDispatch:
    def test_detects_document(self):
        g, d = parse_graph_auto("format chiptree/1\nvertices a b\nedge a b\n")
        assert g.vertex_name(0) == "a" and d is None

    def test_detects_gr(self):
        g, d = parse_graph_auto("p tw 2 1\n1 2\n")
        assert g.n == 2 and d is None

    def test_splits_the_lines_once(self, monkeypatch, fixture_graph, fixture_divisor):
        """Operation-count guard: one ``_content_lines`` pass per call, as
        the dispatch reads the first of the lines the parser gets."""
        passes = []
        content_lines = formats._content_lines

        def counting(text):
            passes.append(text)
            return content_lines(text)

        monkeypatch.setattr(formats, "_content_lines", counting)
        for text in (write_gr(fixture_graph),
                     write_document(fixture_graph, fixture_divisor)):
            passes.clear()
            g, _ = parse_graph_auto(text)
            assert g == fixture_graph and passes == [text]


class TestMorphismText:
    def test_roundtrip_fold(self):
        g, t, f = c4_to_p3_morphism()
        assert parse_morphism(write_morphism(f, g, t), g, t) == f

    @settings(max_examples=30, deadline=None)
    @given(labelled_graphs(), st.integers(2, 4), st.data())
    def test_roundtrip_random_maps(self, g, tree_size, data):
        # tree edge ids lie in 0..|E(T)|-1, which the parser checks
        t = path_graph(tree_size)

        def draws(values, size):
            return tuple(data.draw(st.lists(values, min_size=size, max_size=size)))

        f = FiniteMorphism(draws(st.integers(0, tree_size - 1), g.n),
                           draws(st.integers(0, t.num_edges - 1), g.num_edges),
                           draws(st.integers(1, 5), g.num_edges))
        assert parse_morphism(write_morphism(f, g, t), g, t) == f

    def test_missing_edge_rejected(self):
        g, t, f = c4_to_p3_morphism()
        text = "\n".join(
            line for line in write_morphism(f, g, t).splitlines()
            if not line.startswith("e 3")
        )
        with pytest.raises(FormatError):
            parse_morphism(text, g, t)

    def test_bad_line_rejected(self):
        g, t, _ = c4_to_p3_morphism()
        with pytest.raises(FormatError):
            parse_morphism("q 1 2\n", g, t)


class TestRefinementMapText:
    def test_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_connected_multigraph(rng, rng.randint(2, 5))
            _, rmap = random_refinement(rng, g)
            back = parse_refinement_map(write_refinement_map(rmap))
            assert back == rmap

    def test_bad_lines(self):
        for text in ("orig 1\n", "sub 4 0 1 0\n", "leaf a 0\n", "huh\n"):
            with pytest.raises(FormatError):
                parse_refinement_map(text)


MESSAGES = [
    (parse_gr, "", "empty .gr input"),
    (parse_gr, "p tw x y\n", "bad .gr header: 'p tw x y'"),
    (parse_gr, "p tw 2\n", "bad .gr header: 'p tw 2'"),
    (parse_gr, "p cep 2 1\n", "bad .gr header: 'p cep 2 1'"),
    (parse_gr, f"p tw {MAX_GR_VERTICES + 1} 0\n",
     f".gr header declares {MAX_GR_VERTICES + 1} vertices, above the cap 1000000"),
    (parse_gr, "p tw 2 1\n1 2 3\n", "bad edge line: '1 2 3'"),
    (parse_gr, "p tw 2 1\n1 x\n", "bad edge line: '1 x'"),
    (parse_gr, "p tw 2 1\n1\n", "bad edge line: '1'"),
    (parse_td, "", "empty .td input"),
    (parse_td, "s td 2 2\n", "bad .td header: 's td 2 2'"),
    (parse_td, "s td 1 1 x\n", "bad .td header: 's td 1 1 x'"),
    (parse_td, f"s td 1 1 {MAX_GR_VERTICES + 1}\n",
     f".td header declares {MAX_GR_VERTICES + 1} vertices, above the cap 1000000"),
    (parse_td, "s td 1 1 2\nb\n", "bad bag line: 'b'"),
    (parse_td, "s td 1 1 2\nb x 1\n", "bad bag line: 'b x 1'"),
    (parse_td, "s td 1 1 2\nb 1 y\n", "bad bag line: 'b 1 y'"),
    (parse_td, "s td 2 1 2\nb 1 1\nb 2 2\n1 2 3\n", "bad tree edge line: '1 2 3'"),
    (parse_td, "s td 2 1 2\nb 1 1\nb 2 2\n1 x\n", "bad tree edge line: '1 x'"),
    (parse_td, "s td 2 1 2\nb 1 1\nb 2 2\n1\n", "bad tree edge line: '1'"),
    (parse_document, "format chiptree/1\nvertices a b\nedge a\n", "bad edge line: 'edge a'"),
    (parse_document, "format chiptree/1\nvertices a b\nedge a b c\n",
     "bad edge line: 'edge a b c'"),
    (parse_document, "format chiptree/1\nvertices a b\ndivisor-dense 1 x\n",
     "bad divisor-dense line: '1 x'"),
    (parse_refinement_map, "orig 1\n", "bad refinement line: 'orig 1'"),
    (parse_refinement_map, "orig 1 x\n", "bad refinement line: 'orig 1 x'"),
    (parse_refinement_map, "sub 4 0 1 0\n", "bad refinement line: 'sub 4 0 1 0'"),
    (parse_refinement_map, "huh\n", "bad refinement line: 'huh'"),
    (parse_refinement_map, "orig -1 0\n", "negative id in refinement line: 'orig -1 0'"),
    (parse_refinement_map, "sub 1 0 1 0 -1\n",
     "negative id in refinement line: 'sub 1 0 1 0 -1'"),
]


@pytest.mark.parametrize("parse, text, message", MESSAGES)
def test_malformed_input_message(parse, text, message):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("line, message", [
    ("e 0 x 1", "bad morphism edge line: 'e 0 x 1'"),
    ("e 0 1", "bad morphism line: 'e 0 1'"),
    ("q 1 2", "bad morphism line: 'q 1 2'"),
    ("e 0 2 1", "tree edge id 2 outside 0..1"),
    ("e 0 -1 1", "tree edge id -1 outside 0..1"),
])
def test_malformed_morphism_message(line, message):
    g, t, _ = c4_to_p3_morphism()
    with pytest.raises(FormatError) as info:
        parse_morphism(line + "\n", g, t)
    assert str(info.value) == message


class TestRepeatedKeys:
    """A key that a file sets twice is refused, as a second bag line is:
    the later line used to replace the earlier one without a word."""

    def test_morphism_vertex_twice(self):
        g, t, f = c4_to_p3_morphism()
        text = write_morphism(f, g, t)
        assert parse_morphism(text, g, t).vertex_map == (0, 1, 2, 1)
        with pytest.raises(FormatError, match="^graph vertex a has a second morphism line$"):
            parse_morphism(text + "v a 2\n", g, t)

    def test_morphism_edge_twice(self):
        g, t, f = c4_to_p3_morphism()
        with pytest.raises(FormatError, match="^graph edge 3 has a second morphism line$"):
            parse_morphism(write_morphism(f, g, t) + "e 3 1 1\n", g, t)

    @pytest.mark.parametrize("text", [
        "orig 0 0\norig 0 1\n", "orig 0 0\nleaf 0 1\n", "sub 2 0 1 0 0\nsub 2 0 1 1 0\n"])
    def test_refined_vertex_on_two_lines(self, text):
        v = text.split()[1]
        with pytest.raises(FormatError, match=f"^refined vertex {v} has a second line$"):
            parse_refinement_map(text)

    @pytest.mark.parametrize("line", ["vertices a b", "divisor a:1", "divisor-dense 1 0"])
    def test_document_key_twice(self, line):
        key = line.split()[0]
        text = "format chiptree/1\nvertices a b\nedge a b\n"
        if key != "vertices":
            text += line + "\n"
        parse_document(text)
        with pytest.raises(FormatError, match=f"^document has a second '{key}' line$"):
            parse_document(text + line + "\n")

    @pytest.mark.parametrize("lines", [["divisor-dense 1 0", "divisor b:1"],
                                       ["divisor b:1", "divisor-dense 1 0"]],
                             ids=["dense-first", "sparse-first"])
    def test_document_divisor_in_both_forms(self, lines):
        # either line alone gives the divisor; both give it two sources
        text = "format chiptree/1\nvertices a b\nedge a b\n"
        for line in lines:
            assert parse_document(text + line + "\n")[1] is not None
        with pytest.raises(FormatError, match="^document has both a 'divisor' and a "
                                              "'divisor-dense' line$"):
            parse_document(text + "\n".join(lines) + "\n")
