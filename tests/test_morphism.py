import random

import pytest

from chiptree import (
    Divisor,
    DomainError,
    FiniteMorphism,
    InternalError,
    MultiGraph,
    build_mss,
    check_morphism,
    harmonic_certificate,
    has_positive_rank,
    is_tree,
    morphism_to_treedec,
    mss_to_treedec,
    stable_treedec,
    validate_treedec,
)
from chiptree import morphism, treedec
from chiptree.fixtures import banana_graph, c4_to_p3_morphism, path_graph
from chiptree.treedec import RefinementMap, treewidth_bruteforce

from conftest import random_harmonic_covering


class TestIsTree:
    def test_examples(self):
        assert is_tree(path_graph(1))
        assert is_tree(path_graph(5))
        assert not is_tree(MultiGraph(3, [(0, 1), (1, 2), (0, 2)]))
        assert not is_tree(banana_graph(2))
        assert not is_tree(MultiGraph(2, []))


class TestCheckMorphism:
    def test_fold_is_valid(self):
        g, t, f = c4_to_p3_morphism()
        assert check_morphism(g, t, f).ok

    def test_non_tree_codomain(self):
        g, _, f = c4_to_p3_morphism()
        report = check_morphism(g, MultiGraph(3, [(0, 1), (1, 2), (0, 2)]), f)
        assert not report.ok and "tree" in report.violations[0]

    def test_incidence_breach(self):
        g, t, f = c4_to_p3_morphism()
        bad = FiniteMorphism(f.vertex_map, (1, 0, 1, 1), f.index)
        report = check_morphism(g, t, bad)
        assert any("non-incident" in v for v in report.violations)

    def test_nonpositive_index(self):
        # a finite morphism has positive indices, so none is ever made with 0
        _, _, f = c4_to_p3_morphism()
        with pytest.raises(DomainError, match=r"^index holds 0, which is not an int >= 1$"):
            FiniteMorphism(f.vertex_map, f.edge_map, (1, 0, 1, 1))

    def test_length_mismatch(self):
        g, t, f = c4_to_p3_morphism()
        report = check_morphism(g, t, FiniteMorphism((0, 1, 2), f.edge_map, f.index))
        assert not report.ok

    def test_edge_columns_length_mismatch(self):
        g, t, f = c4_to_p3_morphism()
        report = check_morphism(g, t, FiniteMorphism(f.vertex_map, f.edge_map, f.index[:3]))
        assert report.violations == ["edge_map/index length does not match |E(G)|"]

    @pytest.mark.parametrize("image, message", [
        (3, "vertex 3 maps outside the tree"),
        (-1, "vertex_map holds -1, which is not an int >= 0"),
        (1.0, "vertex_map holds 1.0, which is not an int >= 0"),
    ], ids=["past-the-end", "negative", "float"])
    def test_vertex_mapped_outside_the_tree(self, image, message):
        # a float image 1.0 passed as tree vertex 1, and then harmonic_certificate
        # raised a raw TypeError from indexing the tree with it
        g, t, f = c4_to_p3_morphism()
        assert _refusal(g, t, (0, 1, 2, image), f.edge_map, f.index) == message

    @pytest.mark.parametrize("edge, message", [
        (2, "edge 0 maps to unknown tree edge 2"),
        (-1, "edge_map holds -1, which is not an int >= 0"),
        (0.0, "edge_map holds 0.0, which is not an int >= 0"),
    ], ids=["past-the-end", "negative", "float"])
    def test_edge_mapped_to_an_unknown_tree_edge(self, edge, message):
        g, t, f = c4_to_p3_morphism()
        assert _refusal(g, t, f.vertex_map, (edge, 0, 1, 1), f.index) == message

    @pytest.mark.parametrize("index", [1.0, float("nan"), True], ids=["float", "nan", "bool"])
    def test_index_that_is_not_an_int(self, index):
        g, t, f = c4_to_p3_morphism()
        assert _refusal(g, t, f.vertex_map, f.edge_map, (1, index, 1, 1)) == \
            f"index holds {index!r}, which is not an int >= 1"

    def test_fields_become_tuples(self):
        f = FiniteMorphism([0, 1], iter([0]), range(1, 2))
        assert f == FiniteMorphism((0, 1), (0,), (1,))
        assert hash(f) == hash(FiniteMorphism((0, 1), (0,), (1,)))


def _refusal(g, t, *fields):
    """The first word against a morphism: its constructor's ``DomainError``,
    which sees only the fields, or else the first violation that
    ``check_morphism`` finds against G and T."""
    try:
        f = FiniteMorphism(*fields)
    except DomainError as exc:
        return str(exc)
    return check_morphism(g, t, f).violations[0]


class TestHarmonicCertificate:
    def test_fold_degree_two(self):
        g, t, f = c4_to_p3_morphism()
        cert, report = harmonic_certificate(g, t, f)
        assert report.ok
        assert cert.degree == 2
        # the endpoints of the path absorb both sheets
        assert cert.m == (2, 1, 2, 1)

    def test_banana_collapse_degree_m(self):
        for m in (2, 3, 4):
            g = banana_graph(m)
            t = path_graph(2)
            f = FiniteMorphism((0, 1), (0,) * m, (1,) * m)
            cert, report = harmonic_certificate(g, t, f)
            assert report.ok and cert.degree == m
            assert cert.m == (m, m)

    def test_unequal_sums_detected(self):
        # path a-b-c onto a path, but with a doubled middle index on one side
        g = MultiGraph(3, [(0, 1), (1, 2)])
        t = path_graph(3)
        f = FiniteMorphism((0, 1, 2), (0, 1), (2, 1))
        cert, report = harmonic_certificate(g, t, f)
        assert cert is None
        assert any("unequal index sums" in v for v in report.violations)

    def test_a_tree_edge_that_no_edge_of_a_vertex_maps_to_sums_zero(self):
        # the edge 0-1 onto the first edge of a 3-vertex path: vertex 1 sits
        # at the middle node, and none of its edges maps to the second edge
        f = FiniteMorphism((0, 1), (0,), (1,))
        cert, report = harmonic_certificate(path_graph(2), path_graph(3), f)
        assert cert is None
        assert report.violations == ["vertex 1: unequal index sums [0, 1] across tree edges"]

    def test_perturbed_fold_not_harmonic(self):
        g, t, f = c4_to_p3_morphism()
        bad = FiniteMorphism(f.vertex_map, f.edge_map, (2, 1, 1, 1))
        cert, report = harmonic_certificate(g, t, bad)
        assert cert is None and not report.ok

    def test_random_coverings_are_harmonic(self):
        rng = random.Random(424242)
        for _ in range(15):
            g, t, f = random_harmonic_covering(rng, rng.randint(2, 5),
                                               rng.randint(2, 4))
            cert, report = harmonic_certificate(g, t, f)
            assert report.ok, report.violations
            # the degree is every vertex fiber's m-sum and every edge fiber's
            # index sum
            for w in range(t.n):
                assert cert.degree == sum(
                    cert.m[v] for v in range(g.n) if f.vertex_map[v] == w)
            for e in range(t.num_edges):
                assert cert.degree == sum(
                    i for ti, i in zip(f.edge_map, f.index) if ti == e)


class TestMorphismToTreedec:
    def test_edgeless_graph_must_be_one_vertex(self):
        f = FiniteMorphism((0, 0), (), ())
        with pytest.raises(DomainError, match=r"^edgeless graph must be a single vertex "
                                              r"\(connected\)$"):
            morphism_to_treedec(MultiGraph(2, []), path_graph(1), f)

    def test_fold_exact_bags(self):
        g, t, f = c4_to_p3_morphism()
        td = morphism_to_treedec(g, t, f)
        # vertex fibers at the three path nodes, then chains along each edge
        assert td.bags == [
            frozenset({0}), frozenset({1, 3}), frozenset({2}),
            frozenset({0, 1}), frozenset({0, 1, 3}),
            frozenset({1, 2, 3}), frozenset({2, 3}),
        ]
        assert td.tree_edges == ((0, 3), (3, 4), (4, 1), (1, 5), (5, 6), (6, 2))
        report = validate_treedec(g, td)
        assert report.ok, report.violations
        assert report.width == 2

    def test_banana_stays_within_degree(self):
        # every chain bag is {0, 1}, so the width is 1 <= m
        for m in (2, 3, 4):
            g = banana_graph(m)
            f = FiniteMorphism((0, 1), (0,) * m, (1,) * m)
            td = morphism_to_treedec(g, path_graph(2), f)
            report = validate_treedec(g, td)
            assert report.ok and report.width == 1
            assert len(td.bags) == 2 + m

    def test_single_vertex(self):
        g = MultiGraph(1, [])
        t = MultiGraph(1, [])
        td = morphism_to_treedec(g, t, FiniteMorphism((0,), (), ()))
        assert td.bags == [frozenset({0})]

    def test_fibers_above_the_degree_raise_internal_error(self, monkeypatch):
        # a certificate that understates the degree: the size checks raise
        # InternalError, also under python -O, where an assert would vanish
        certify = morphism.harmonic_certificate

        def degree_one(*args):
            cert, report = certify(*args)
            return morphism.HarmonicCertificate(cert.m, 1), report

        monkeypatch.setattr(morphism, "harmonic_certificate", degree_one)
        with pytest.raises(InternalError, match="deg"):
            morphism_to_treedec(*c4_to_p3_morphism())

    def test_disconnected_rejected(self):
        g = MultiGraph(4, [(0, 1), (2, 3)])
        t = path_graph(2)
        f = FiniteMorphism((0, 1, 0, 1), (0, 0), (1, 1))
        with pytest.raises(DomainError):
            morphism_to_treedec(g, t, f)

    def test_non_harmonic_rejected(self):
        g, t, f = c4_to_p3_morphism()
        bad = FiniteMorphism(f.vertex_map, f.edge_map, (2, 1, 1, 1))
        with pytest.raises(DomainError):
            morphism_to_treedec(g, t, bad)

    def test_random_coverings_bounded_width_and_work(self):
        rng = random.Random(90125)
        for _ in range(15):
            g, t, f = random_harmonic_covering(rng, rng.randint(2, 5),
                                               rng.randint(2, 4))
            cert, _ = harmonic_certificate(g, t, f)
            counter = []
            td = morphism_to_treedec(g, t, f, counter=counter)
            report = validate_treedec(g, td)
            assert report.ok, report.violations
            assert report.width <= cert.degree
            assert len(counter) <= 4 * cert.degree * cert.degree * g.n

    def test_large_covering(self):
        g, t, f = random_harmonic_covering(random.Random(10), 1000, 3)
        assert g.n == 2347
        counter = []
        td = morphism_to_treedec(g, t, f, counter=counter)
        report = validate_treedec(g, td)
        assert report.ok, report.violations
        assert report.width <= 3
        assert len(counter) <= 4 * 3 * 3 * g.n


def _fold_and_coverings():
    yield c4_to_p3_morphism()
    rng = random.Random(4711)
    for _ in range(60):
        yield random_harmonic_covering(rng, rng.randint(2, 6), rng.randint(2, 4))


@pytest.mark.parametrize("case", list(_fold_and_coverings()))
def test_morphism_path_agrees_with_divisor_path(case):
    # a harmonic morphism of degree k pulls every point of the tree back
    # to a degree-k divisor of positive rank, and both constructions
    # bound the treewidth by k
    g, t, f = case
    cert, report = harmonic_certificate(g, t, f)
    assert report.ok, report.violations
    k = cert.degree
    td = morphism_to_treedec(g, t, f)
    report = validate_treedec(g, td)
    assert report.ok and report.width <= k
    for w in range(t.n):
        d = Divisor.of(cert.m[v] if f.vertex_map[v] == w else 0
                       for v in range(g.n))
        assert d.degree == k
        assert has_positive_rank(g, d)
        td = mss_to_treedec(g, build_mss(g, d))
        report = validate_treedec(g, td)
        assert report.ok and report.width <= k


class TestStableTreedec:
    def test_trusts_the_decomposition_it_built(self, monkeypatch):
        """Operation-count guard: the decomposition ``morphism_to_treedec``
        just built is contracted without a second ``validate_treedec``, and
        no ``edge_list`` is expanded: the checks read the graphs' edge tuples."""
        calls = {"validate_treedec": 0, "edge_list": 0}
        validate = treedec.validate_treedec
        edge_list = MultiGraph.edge_list

        def counting_validate(*args):
            calls["validate_treedec"] += 1
            return validate(*args)

        def counting_edge_list(g):
            calls["edge_list"] += 1
            return edge_list.fget(g)

        monkeypatch.setattr(treedec, "validate_treedec", counting_validate)
        monkeypatch.setattr(MultiGraph, "edge_list", property(counting_edge_list))
        g, t, f = c4_to_p3_morphism()
        td = stable_treedec(g, g, RefinementMap.identity(g.n), t, f)
        assert calls == {"validate_treedec": 0, "edge_list": 0}
        assert validate(g, td).ok

    def test_banana_via_subdivided_refinement(self):
        # refine the 2-banana into C4, fold the C4, contract back
        banana = banana_graph(2)
        c4, t, f = c4_to_p3_morphism()
        rmap = RefinementMap(
            original={0: 0, 2: 1},
            subdivision={1: (0, 1, 0, 0), 3: (0, 1, 1, 0)},
            added_leaves={},
        )
        td = stable_treedec(banana, c4, rmap, t, f)
        report = validate_treedec(banana, td)
        assert report.ok, report.violations
        assert report.width <= 2
        assert treewidth_bruteforce(banana) <= report.width
