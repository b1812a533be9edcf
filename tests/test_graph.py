import copy
import pickle
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptree import GraphError, MultiGraph, effective_divisors, has_positive_rank
from chiptree.graph import _components

from conftest import laplacian, multigraphs, random_connected_multigraph


def path(n):
    return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_loops_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(2, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(2, [(0, 2)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError, match="^vertex count must be an int >= 0, got -1$"):
            MultiGraph(-1, [])

    @pytest.mark.parametrize("n", [2.5, True, "2", None])
    def test_vertex_count_that_is_no_int_rejected(self, n):
        with pytest.raises(GraphError, match=r"^vertex count must be an int >= 0, got "):
            MultiGraph(n, [])

    @pytest.mark.parametrize("edge", [(0.0, 1), (True, 0), ("0", 1), (0, None)])
    def test_endpoint_that_is_no_int_rejected(self, edge):
        with pytest.raises(GraphError, match=r"outside vertex range 0\.\.1$"):
            MultiGraph(2, [edge])

    @pytest.mark.parametrize("edge", [(0, 1, 1), (0,), 0, None, {0, 1}])
    def test_edge_that_is_no_pair_rejected(self, edge):
        with pytest.raises(GraphError, match=r"is not a pair of vertices$"):
            MultiGraph(2, [edge])

    def test_label_count_must_match_the_vertex_count(self):
        with pytest.raises(GraphError, match="^label list length does not match "
                                             "vertex count$"):
            MultiGraph(2, [(0, 1)], labels=["a"])

    def test_parallel_edges_accumulate(self):
        g = MultiGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.multiplicity(0, 1) == 3
        assert g.degree(0) == 3

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GraphError):
            MultiGraph(2, [(0, 1)], labels=["a", "a"])

    @pytest.mark.parametrize("labels", [["a b", "c"], ["", "c"], ["a", "b\n"],
                                        ["a", "\u2028"], ["a", 1]])
    def test_labels_a_document_cannot_hold_rejected(self, labels):
        with pytest.raises(GraphError, match="without whitespace"):
            MultiGraph(2, [(0, 1)], labels=labels)


    # a str is iterable, but list("ab") would label one vertex per character
    @pytest.mark.parametrize("edges, labels", [(None, None), (5, None), ([(0, 1)], 7),
                                               ([(0, 1)], "ab")],
                             ids=["edges None", "edges 5", "labels 7", "labels 'ab'"])
    def test_collection_that_is_no_collection_rejected(self, edges, labels):
        with pytest.raises(GraphError, match=r"^(edges|labels) must be a collection, got "):
            MultiGraph(2, edges, labels)


class TestVertexIndex:
    def test_labels_tokens_and_ints(self, fixture_graph):
        assert fixture_graph.vertex_index("b") == 1
        assert path(3).vertex_index("2") == path(3).vertex_index(2) == 2

    @pytest.mark.parametrize("name", [True, 1.7, None, [1], "x", "3", 3, -1])
    def test_anything_else_is_unknown(self, name):
        with pytest.raises(GraphError):
            path(3).vertex_index(name)


def test_equality_hash_and_repr():
    """Two graphs are equal, and hash alike, when they have the same
    vertex count and edge multiplicities, whatever the order and
    orientation of the edges given; labels are outside equality."""
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 1)], labels=list("abc"))
    same = MultiGraph(3, [(2, 1), (1, 0), (0, 1)])
    assert g == same and hash(g) == hash(same)
    assert g != MultiGraph(3, [(0, 1), (1, 2)])
    assert g != MultiGraph(4, [(0, 1), (1, 2), (0, 1)])
    assert g != [(0, 1), (1, 2), (0, 1)]
    assert repr(g) == "MultiGraph(n=3, m=3)"


def test_pickle_and_copies_carry_no_memo():
    """A graph pickles as its vertex count, edges and labels: after 1,000
    rank tests its pickle is as long as a fresh graph's."""
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (0, 3)],
                   labels=list("uvwxyz"))
    divisors = (d for k in range(1, 8) for d in effective_divisors(g.n, k))
    for d in islice(divisors, 1000):
        has_positive_rank(g, d)
    assert g._ranks
    fresh = MultiGraph(g.n, g.edge_list, g.labels)
    assert len(pickle.dumps(g)) == len(pickle.dumps(fresh))
    for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert back == g and back.labels == g.labels and back._ranks == {}


class TestLaplacian:
    def test_single_edge(self):
        g = MultiGraph(2, [(0, 1)])
        assert laplacian(g) == [[1, -1], [-1, 1]]

    def test_two_parallel_edges(self):
        g = MultiGraph(2, [(0, 1), (0, 1)])
        assert laplacian(g) == [[2, -2], [-2, 2]]

    def test_triangle(self):
        g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
        expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        assert laplacian(g) == expected

    @given(multigraphs())
    @settings(max_examples=60)
    def test_symmetric_with_zero_row_sums(self, g):
        q = laplacian(g)
        assert q == [list(col) for col in zip(*q)]
        assert all(sum(row) == 0 for row in q)


class TestOutdeg:
    def test_path_interior(self):
        g = path(3)
        assert g.outdeg({0, 1}, 1) == 1
        assert g.outdeg({0, 1}, 0) == 0

    def test_banana_multiplicity(self):
        g = MultiGraph(2, [(0, 1)] * 3)
        assert g.outdeg({0}, 0) == 3

    def test_requires_membership(self):
        with pytest.raises(GraphError):
            path(3).outdeg({0, 1}, 2)

    @pytest.mark.parametrize("u, v", [(None, 1), ({0}, 0.0), ({1}, True), ([0, "a"], 0),
                                      ({0, 3}, 0), ([-1, 0], 0)])
    def test_junk_is_a_graph_error(self, u, v):
        with pytest.raises(GraphError):
            path(3).outdeg(u, v)

    @given(multigraphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_sums_to_cut_size(self, g, rng):
        u = frozenset(v for v in range(g.n) if rng.random() < 0.5)
        total = sum(g.outdeg(u, v) for v in u)
        cut = sum(
            m for (a, b), m in g.edge_multiplicities.items()
            if (a in u) != (b in u)
        )
        assert total == cut


class TestFlaps:
    def test_removing_middle_of_path(self):
        assert path(3).flaps({1}) == [frozenset({0}), frozenset({2})]

    def test_full_x_leaves_nothing(self):
        g = path(3)
        assert g.flaps({0, 1, 2}) == []

    @pytest.mark.parametrize("x, message", [
        (None, "vertex set must be a collection, got None"),
        (["a"], "vertex 'a' is not a vertex in 0..2"),
        ([1.0], "vertex 1.0 is not a vertex in 0..2"),
        ([True], "vertex True is not a vertex in 0..2"),
        ([3], "vertex 3 is not a vertex in 0..2"),
    ])
    def test_junk_is_a_graph_error(self, x, message):
        # a float used to stand for its int, and a str was ignored
        with pytest.raises(GraphError) as info:
            path(3).flaps(x)
        assert str(info.value) == message

    def test_fixture_flaps_at_bc(self, fixture_graph):
        g = fixture_graph
        x = {g.vertex_index("b"), g.vertex_index("c")}
        flaps = g.flaps(x)
        # a is cut off too; the strategy construction only looks at flaps
        # inside the current territory
        names = [g.set_name(f) for f in flaps]
        assert names == ["a", "d", "efg"]

    def test_neighbour_masks_are_built_once(self, fixture_graph):
        g = fixture_graph
        masks = g.neighbour_masks
        assert masks == [sum(1 << w for w in g.adjacency(v)) for v in range(g.n)]
        assert g.neighbour_masks is masks

    @given(multigraphs(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_components_equal_filtered_flaps(self, g, rng):
        # the mask kernel behind the strategy's flap search, against flaps(x)
        x = frozenset(v for v in range(g.n) if rng.random() < 0.3)
        flaps = g.flaps(x)
        r = frozenset().union(*(f for f in flaps if rng.random() < 0.5))
        got = _components(g.neighbour_masks, sum(1 << v for v in r))
        assert [frozenset(v for v in range(g.n) if c >> v & 1) for c in got] == \
            [f for f in flaps if f <= r]

    @given(multigraphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_partition_and_connectivity(self, g, rng):
        x = frozenset(v for v in range(g.n) if rng.random() < 0.3)
        flaps = g.flaps(x)
        union = frozenset().union(*flaps) if flaps else frozenset()
        assert union == frozenset(range(g.n)) - x
        for a, b in zip(flaps, flaps[1:]):
            assert not a & b
        for flap in flaps:
            # BFS inside the flap must reach all of it
            start = next(iter(flap))
            seen = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in g.adjacency(v):
                    if w in flap and w not in seen:
                        seen.add(w)
                        stack.append(w)
            assert seen == set(flap)

    @given(multigraphs())
    @settings(max_examples=60)
    def test_connectivity_agrees_with_flap_count(self, g):
        assert g.is_connected() == (len(g.flaps(())) == 1)


def test_connectivity_basics():
    assert MultiGraph(1, []).is_connected()
    assert not MultiGraph(2, []).is_connected()
    assert not MultiGraph(0, []).is_connected()


def test_fixture_is_connected(fixture_graph):
    assert fixture_graph.is_connected()


def test_random_generator_is_connected():
    rng = random.Random(7)
    for _ in range(20):
        assert random_connected_multigraph(rng, rng.randint(2, 8)).is_connected()
