import copy
import pickle
import random
import re
import tracemalloc

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from networkx.algorithms.approximation import treewidth_min_degree

from chiptree import (
    BudgetError,
    Divisor,
    DomainError,
    MultiGraph,
    RefinementMap,
    TreeDecomposition,
    build_mss,
    contract_refinement,
    has_positive_rank,
    morphism_to_treedec,
    mss_to_treedec,
    treedec_by_elimination,
    treewidth_bruteforce,
    validate_treedec,
)
from chiptree import strategy, treedec
from chiptree.fixtures import banana_graph, cycle_graph, path_graph
from chiptree.gonality import effective_divisors
from chiptree.strategy import MssTree

from conftest import (
    edit_node,
    grid_with_a_chip_per_row,
    multigraphs,
    random_connected_multigraph,
    random_harmonic_covering,
    random_refinement,
    treedec_violations_by_scan,
    treewidth_by_all_orders,
)


class TestValidate:
    def test_no_bags(self):
        report = validate_treedec(path_graph(2), TreeDecomposition([], []))
        assert (report.ok, report.width, report.violations) == \
            (False, -1, ["decomposition has no bags"])

    def test_single_bag(self):
        g = cycle_graph(4)
        td = TreeDecomposition([frozenset(range(4))], [])
        report = validate_treedec(g, td)
        assert report.ok and report.width == 3

    def test_canonical_path_decomposition(self):
        n = 5
        g = path_graph(n)
        td = TreeDecomposition(
            [frozenset({i, i + 1}) for i in range(n - 1)],
            [(i, i + 1) for i in range(n - 2)],
        )
        report = validate_treedec(g, td)
        assert report.ok and report.width == 1

    def test_missing_vertex(self):
        g = path_graph(3)
        td = TreeDecomposition([frozenset({0, 1})], [])
        report = validate_treedec(g, td)
        assert not report.ok
        assert any("condition 1" in v for v in report.violations)

    def test_missing_edge(self):
        g = cycle_graph(3)
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1, 2})], [(0, 1)])
        report = validate_treedec(g, td)
        assert any("condition 2" in v for v in report.violations)

    def test_disconnected_vertex_trace(self):
        g = path_graph(3)
        td = TreeDecomposition(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})],
            [(0, 1), (1, 2)],
        )
        report = validate_treedec(g, td)
        assert any("condition 3 at vertex 0" in v for v in report.violations)

    def test_cycle_of_bags_rejected(self):
        g = path_graph(3)
        td = TreeDecomposition(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({1})],
            [(0, 1), (1, 2), (2, 0)],
        )
        report = validate_treedec(g, td)
        assert not report.ok

    def test_cycle_with_a_detached_bag_gets_the_search(self):
        # b - 1 tree edges, but a cycle and a detached bag: vertex 1 fills
        # the cycle (three bags, three shared edges) and is connected, and
        # counting would wrongly flag it; vertex 2's bags are split
        g = path_graph(3)
        td = TreeDecomposition(
            [frozenset({0, 1}), frozenset({1, 2}), frozenset({1}), frozenset({2})],
            [(0, 1), (1, 2), (2, 0)],
        )
        assert validate_treedec(g, td).violations == [
            "bag tree is disconnected",
            "condition 3 at vertex 2",
        ]

    def test_violation_strings_in_order(self):
        g = cycle_graph(4)
        td = TreeDecomposition(
            [frozenset({0, 1}), frozenset({2, 7}), frozenset({0, 2})],
            [(0, 1), (1, 2)],
        )
        assert validate_treedec(g, td).violations == [
            "condition 1: vertices [3] in no bag",
            "bags mention unknown vertices [7]",
            "condition 2: edge (0,3) in no bag",
            "condition 2: edge (1,2) in no bag",
            "condition 2: edge (2,3) in no bag",
            "condition 3 at vertex 0",
        ]

    def test_member_far_above_n_is_named_in_little_memory(self):
        # naming it through bin() of the bags' union held a 10^8-digit
        # string: 127 MB; the mask itself is 12.5 MB
        g = MultiGraph(2, [(0, 1)])
        td = TreeDecomposition([{0, 1, 10**8}], [])
        tracemalloc.start()
        try:
            report = validate_treedec(g, td)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.violations == ["bags mention unknown vertices [100000000]"]
        assert peak < 40e6


def _corruptions(rng, g, td):
    """A decomposition with one defect each: a vertex dropped from a bag,
    a tree edge removed, a vertex added to a bag away from its subtree, an
    unknown vertex added, a tree edge made a self-loop, and two tree edges
    to one bag from smaller bags; and td itself with its tree edges
    reversed and shuffled, and with its bags renumbered so that some bag
    hangs from none with a smaller id, both valid."""
    bags, edges = list(td.bags), list(td.tree_edges)
    b = len(bags)

    def with_bag(i, bag):
        return TreeDecomposition(bags[:i] + [bag] + bags[i + 1:], edges)

    full = [i for i, bag in enumerate(bags) if bag]
    i = rng.choice(full)
    yield "dropped", with_bag(i, bags[i] - {rng.choice(sorted(bags[i]))})
    if edges:
        cut = rng.randrange(len(edges))
        yield "cut", TreeDecomposition(bags, edges[:cut] + edges[cut + 1:])
    v = rng.choice(sorted(set().union(*bags)))
    j = rng.choice([k for k, bag in enumerate(bags) if v not in bag] or [0])
    yield "added", with_bag(j, bags[j] | {v})
    j = rng.randrange(b)
    yield "unknown", with_bag(j, bags[j] | {g.n + rng.randrange(3)})
    if edges:
        flipped = [(j, i) for i, j in edges]
        rng.shuffle(flipped)
        yield "reversed", TreeDecomposition(bags, flipped)
        k = rng.randrange(len(edges))
        loop = rng.choice(edges[k])
        yield "self-loop", TreeDecomposition(bags, edges[:k] + [(loop, loop)] + edges[k + 1:])
    if b >= 3:
        c = rng.randrange(2, b)
        twice = edges[:b - 3] + [(a, c) for a in rng.sample(range(c), 2)]
        rng.shuffle(twice)
        yield "two-parents", TreeDecomposition(bags, twice)
    if b >= 3 and len(edges) == b - 1:
        while True:
            new = rng.sample(range(b), b)
            renumbered = [(new[i], new[j]) for i, j in edges]
            if treedec._parents_by_id(renumbered, b) is None:
                break
        moved = [None] * b
        for i, bag in enumerate(bags):
            moved[new[i]] = bag
        yield "renumbered", TreeDecomposition(moved, renumbered)


def _check_corruptions(rng, g, td, made, rejected):
    """Validate td's corruptions against the bag scans and count them by
    kind; a renumbered td takes the search from bag 0."""
    for kind, bad in _corruptions(rng, g, td):
        violations = validate_treedec(g, bad).violations
        assert violations == treedec_violations_by_scan(g, bad), kind
        if kind == "renumbered":
            assert treedec._parents_by_id(bad.tree_edges, len(bad.masks)) is None
        made[kind] += 1
        rejected[kind] += bool(violations)


KINDS = ("dropped", "cut", "added", "unknown", "reversed", "self-loop", "two-parents",
         "renumbered")


def test_one_pass_validation_matches_bag_scans_on_corruptions():
    rng = random.Random(4242)
    rejected = dict.fromkeys(KINDS, 0)
    made = dict.fromkeys(KINDS, 0)
    for _ in range(60):
        g = random_connected_multigraph(rng, rng.randint(2, 7))
        d = next((d for d in effective_divisors(g.n, rng.randint(1, 3))
                  if has_positive_rank(g, d)), None)
        td = (mss_to_treedec(g, build_mss(g, d)) if d is not None
              else treedec_by_elimination(g))
        assert validate_treedec(g, td).violations == []
        if d is not None:
            # a strategy's bags hang from smaller ids, reversed or not
            flipped = [(j, i) for i, j in td.tree_edges]
            assert treedec._parents_by_id(flipped, len(td.masks)) is not None
        _check_corruptions(rng, g, td, made, rejected)
    for kind in ("reversed", "renumbered"):
        assert rejected.pop(kind) == 0 and made[kind], kind
    assert all(rejected.values()), rejected


def test_validation_matches_bag_scans_on_morphism_decompositions():
    """``morphism_to_treedec`` closes each bag chain with an edge back to a
    smaller id, so its decompositions take the search from bag 0."""
    rng = random.Random(515)
    rejected = dict.fromkeys(KINDS, 0)
    made = dict.fromkeys(KINDS, 0)
    for _ in range(2):
        g, t, f = random_harmonic_covering(rng, rng.randint(3, 5), rng.randint(2, 3))
        td = morphism_to_treedec(g, t, f)
        assert treedec._parents_by_id(td.tree_edges, len(td.masks)) is None
        assert validate_treedec(g, td).violations == treedec_violations_by_scan(g, td) == []
        _check_corruptions(rng, g, td, made, rejected)
    assert made["renumbered"] == 2 and rejected["renumbered"] == 0


def test_bags_are_masks():
    """A decomposition stores one mask per bag; ``bags`` is a view built
    on each read, and pickle keeps the masks."""
    td = TreeDecomposition([{0, 2}, frozenset(), [1, 1]], [(0, 1), (1, 2)])
    assert td.masks == (0b101, 0, 0b10) and td.width == 1
    assert td.bags == [frozenset({0, 2}), frozenset(), frozenset({1})]
    assert td.bags is not td.bags
    for copied in (pickle.loads(pickle.dumps(td)), copy.deepcopy(td)):
        assert copied == td and copied.masks == td.masks
    for member in (-1, "a", 1.0, None, True):
        with pytest.raises(DomainError, match="bag 1 holds"):
            TreeDecomposition([{0}, [1, member]], [(0, 1)])


def test_constructor_refuses_an_edge_outside_the_bags():
    # -1 must not wrap around to the last bag
    for i, j in [(0, 5), (0, -1)]:
        with pytest.raises(DomainError,
                           match=rf"^tree edge \({i},{j}\) names a bag outside 0\.\.1$"):
            TreeDecomposition([frozenset({0, 1}), frozenset({1})], [(i, j)])


def test_constructor_refuses_an_edge_that_is_not_a_pair_of_ints():
    bags = [{0, 1}, {1, 2}]
    for edge in [(0.0, 1), ("0", 1), 0, (0, 1, 2), (True, 0), (0,), None, "01"]:
        with pytest.raises(DomainError, match=r"^tree edge .* is not a pair of ints$"):
            TreeDecomposition(bags, [edge])
    # a list pair is taken, and stored as a tuple
    td = TreeDecomposition(bags, [[0, 1]])
    assert td.tree_edges == ((0, 1),) and type(td.tree_edges[0]) is tuple


@pytest.mark.parametrize("bags, edges, message", [
    ([5], [], "bag must be a collection, got 5"),
    (None, [], "bags must be a collection, got None"),
    ([{0}], None, "tree_edges must be a collection, got None"),
], ids=["bag 5", "bags None", "edges None"])
def test_constructor_refuses_what_is_no_collection(bags, edges, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        TreeDecomposition(bags, edges)


def test_decomposition_is_frozen_and_its_copies_are_checked():
    td = TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)])
    for name in ("masks", "tree_edges"):
        with pytest.raises(AttributeError):
            setattr(td, name, ())
    with pytest.raises(AttributeError):
        td.tree_edges.append(("x", 1))
    assert hash(td) == hash(TreeDecomposition([{0, 1}, {1, 2}], [(0, 1)]))
    # a decomposition made around the constructor is refused when copied
    forged = TreeDecomposition._of_masks([0b11, 0b110], [(0, 2)])
    for clone in (copy.copy, copy.deepcopy, lambda td: pickle.loads(pickle.dumps(td))):
        with pytest.raises(DomainError, match="names a bag outside"):
            clone(forged)


class TestTrustedStrategy:
    """``mss_to_treedec`` trusts exactly the trees ``build_mss`` returned
    for the same graph object, and validates every other tree once."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = [0]
        validate = strategy.validate_mss

        def counting(*args, **kwargs):
            calls[0] += 1
            return validate(*args, **kwargs)

        # ``mss_to_treedec`` imports it from its home module when it validates
        monkeypatch.setattr(strategy, "validate_mss", counting)
        return calls

    def test_built_tree_with_its_own_graph_is_not_revalidated(
            self, fixture_graph, fixture_divisor, validations):
        tree = build_mss(fixture_graph, fixture_divisor)
        td = mss_to_treedec(fixture_graph, tree)
        assert validations[0] == 0
        assert validate_treedec(fixture_graph, td).ok

    @pytest.mark.parametrize("other", ["equal-graph", "deepcopy", "pickle", "hand-built"])
    def test_every_other_tree_is_validated_once(self, fixture_graph, fixture_divisor,
                                                validations, other):
        g = fixture_graph
        tree = build_mss(g, fixture_divisor)
        trusted = mss_to_treedec(g, tree)
        if other == "equal-graph":
            g = MultiGraph(g.n, g.edge_list, g.labels)
            assert g == fixture_graph and g is not fixture_graph
        elif other == "deepcopy":
            tree = copy.deepcopy(tree)
        elif other == "pickle":
            tree = pickle.loads(pickle.dumps(tree))
        else:
            tree = MssTree(tree.searchers, tree.xs, tree.territories, tree.parents)
        assert tree == build_mss(fixture_graph, fixture_divisor)
        assert mss_to_treedec(g, tree) == trusted
        assert validations[0] == 1

    def test_built_tree_is_frozen(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        with pytest.raises(AttributeError):
            tree.children = ()
        with pytest.raises(AttributeError):
            tree.nodes[3].children = (4,)
        with pytest.raises(AttributeError):
            tree.nodes[5].parent = 0
        with pytest.raises(AttributeError):
            tree.moves = ()
        columns = (tree.xs, tree.territories, tree.parents)
        assert all(isinstance(column, tuple) for column in columns)
        assert all(isinstance(kids, tuple) for kids in tree.children)

    def test_the_mark_is_outside_equality_repr_and_pickle(self, fixture_graph,
                                                          fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        copied = pickle.loads(pickle.dumps(tree))
        assert copied == tree and hash(copied) == hash(tree)
        assert repr(copied) == repr(tree)
        assert "_built_for" not in repr(tree)
        with pytest.raises(TypeError):
            MssTree(tree.searchers, tree.xs, tree.territories, tree.parents, fixture_graph)


def _preorder_by_walk(tree: MssTree) -> tuple[list[int], list[tuple[int, int]]]:
    """The bag masks and tree edges of ``mss_to_treedec``, by a walk with a
    stack over the children lists: a node's bag follows its parent's, its
    children are visited in ascending order, and each bag's edges to its
    children follow one another in the order of the walk."""
    kids = tree.children
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        stack += kids[i][::-1]
    new_id = {old: new for new, old in enumerate(order)}
    return ([tree.xs[i] for i in order],
            [(new_id[i], new_id[c]) for i in order for c in kids[i]])


class TestMssToTreedec:
    def test_bags_and_edges_follow_the_preorder_walk(self, fixture_graph, fixture_divisor):
        """On the fixture, the 10 x 10 grid with a chip per row and 100
        strategies with a split on corpus-shaped graphs."""
        cases = [(fixture_graph, fixture_divisor), grid_with_a_chip_per_row(10)]
        rng = random.Random(20240824)
        while len(cases) < 102:
            g = random_connected_multigraph(rng, rng.randint(2, 8), max_mult=3)
            positive = [d for d in effective_divisors(g.n, rng.randint(1, 4))
                        if has_positive_rank(g, d)]
            if positive:
                d = rng.choice(positive)
                if any(len(kids) > 1 for kids in build_mss(g, d).children):
                    cases.append((g, d))
        for g, d in cases:
            tree = build_mss(g, d)
            td = mss_to_treedec(g, tree)
            assert (list(td.masks), list(td.tree_edges)) == _preorder_by_walk(tree)

    def test_single_vertex(self):
        g = MultiGraph(1, [])
        td = mss_to_treedec(g, build_mss(g, Divisor((1,))))
        assert sorted(map(len, td.bags)) == [0, 1]
        assert validate_treedec(g, td).ok
        assert td.width == 0

    def test_golden_width_three(self, fixture_graph, fixture_divisor):
        td = mss_to_treedec(fixture_graph, build_mss(fixture_graph, fixture_divisor))
        report = validate_treedec(fixture_graph, td)
        assert report.ok, report.violations
        assert report.width == 3
        assert len(td.bags) == 14

    def test_path_width_one(self):
        g = path_graph(3)
        td = mss_to_treedec(g, build_mss(g, Divisor((1, 0, 0))))
        assert validate_treedec(g, td).ok
        assert td.width == 1
        assert treewidth_bruteforce(g) == 1

    def test_golden_bytes_and_dot(self, fixture_graph, fixture_divisor):
        # bag ids follow the preorder of the strategy tree, children in order
        g = fixture_graph
        td = mss_to_treedec(g, build_mss(g, fixture_divisor))
        labels = ["{}", "a", "abc", "bc", "bc", "b", "bd", "d", "bc", "bcg", "bg",
                  "befg", "efg", "ef"]
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (3, 8), (4, 5), (5, 6), (6, 7),
                 (8, 9), (9, 10), (10, 11), (11, 12), (12, 13)]
        assert [g.set_name(bag) for bag in td.bags] == labels
        assert td.tree_edges == tuple(edges)
        assert td.to_dot(g) == "".join(
            ["graph treedec {\n  node [shape=box];\n"]
            + [f'  b{i} [label="{label}"];\n' for i, label in enumerate(labels)]
            + [f"  b{i} -- b{j};\n" for i, j in edges] + ["}\n"])
        unlabelled = td.to_dot()
        assert '  b0 [label=""];\n' in unlabelled
        assert '  b11 [label="1,4,5,6"];\n' in unlabelled

    def test_dot_checks_the_bags_against_the_graph(self, fixture_graph):
        # vertex 9 has no name in a graph on 7 vertices
        td = TreeDecomposition([{0, 9}], [])
        with pytest.raises(DomainError, match=r"^a bag holds a vertex outside 0\.\.6$"):
            td.to_dot(fixture_graph)
        assert td.to_dot() == 'graph treedec {\n  node [shape=box];\n  b0 [label="0,9"];\n}\n'

    def test_rejects_broken_strategy(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        # a search cut short after node 6; a tree whose root has a parent, a
        # parent numbered after its child or a parent that is not an int
        # cannot be built, so no decomposition is asked of it
        cut = MssTree(tree.searchers, tree.xs[:7], tree.territories[:7], tree.parents[:7])
        with pytest.raises(DomainError, match="^invalid search strategy: incomplete leaf"):
            mss_to_treedec(fixture_graph, cut)
        for node, parent in ((0, 3), (2, 9), (3, "2")):
            with pytest.raises(DomainError, match="^root has parent|is not a node numbered"):
                edit_node(tree, node, parents=parent)

    def test_width_bounded_by_degree_on_corpus(self):
        rng = random.Random(2718)
        done = 0
        while done < 12:
            g = random_connected_multigraph(rng, rng.randint(2, 6))
            d = next(
                (d for d in effective_divisors(g.n, rng.randint(1, 3))
                 if has_positive_rank(g, d)), None)
            if d is None:
                continue
            td = mss_to_treedec(g, build_mss(g, d))
            report = validate_treedec(g, td)
            assert report.ok, report.violations
            assert report.width <= d.degree
            assert treewidth_bruteforce(g) <= report.width
            done += 1


class TestTreewidthOracle:
    @pytest.mark.parametrize("n,expected", [(2, 1), (4, 1), (7, 1)])
    def test_paths(self, n, expected):
        assert treewidth_bruteforce(path_graph(n)) == expected

    def test_single_vertex(self):
        assert treewidth_bruteforce(MultiGraph(1, [])) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycles(self, n):
        assert treewidth_bruteforce(cycle_graph(n)) == 2

    def test_complete_graphs(self):
        for n in (3, 4, 5):
            kn = MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
            assert treewidth_bruteforce(kn) == n - 1

    def test_multiplicities_do_not_matter(self):
        assert treewidth_bruteforce(banana_graph(4)) == 1

    def test_fixture_value(self, fixture_graph):
        # dgon is 3 but the underlying treewidth is only 2
        assert treewidth_bruteforce(fixture_graph) == 2

    def test_budget(self):
        with pytest.raises(BudgetError):
            treewidth_bruteforce(path_graph(12))

    def test_empty_graph_rejected(self):
        with pytest.raises(DomainError, match="^treewidth of the empty graph is undefined$"):
            treewidth_bruteforce(MultiGraph(0, []))

    def test_budget_must_be_an_int(self):
        # a raw TypeError from ``n > None`` before the check
        with pytest.raises(DomainError, match="^budget must be an int, got None$"):
            treewidth_bruteforce(path_graph(3), budget=None)

    def test_cycle_has_width_two(self):
        assert treewidth_bruteforce(cycle_graph(5)) == 2

    def test_lower_bounds_every_valid_decomposition(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_connected_multigraph(rng, rng.randint(2, 7), max_mult=2)
            td = treedec_by_elimination(g)
            report = validate_treedec(g, td)
            assert report.ok, report.violations
            assert treewidth_bruteforce(g) <= report.width


@given(multigraphs())
@settings(max_examples=120, deadline=None)
def test_bitmask_oracle_matches_all_elimination_orders(g):
    assume(g.n <= 6)
    tw = treewidth_bruteforce(g)
    assert tw == treewidth_by_all_orders(g)
    # the dynamic program on its own, whether or not the bounds met
    assert treedec._treewidth_dp(g.neighbour_masks) == tw
    simple = nx.Graph()
    simple.add_nodes_from(range(g.n))
    simple.add_edges_from(g.edge_multiplicities)
    assert tw <= treewidth_min_degree(simple)[0]


class TestEliminationDecomposition:
    def test_explicit_order(self):
        g = cycle_graph(4)
        td = treedec_by_elimination(g, order=[0, 1, 2, 3])
        assert validate_treedec(g, td).ok

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            treedec_by_elimination(path_graph(3), order=[0, 0, 1])

    def test_order_that_is_no_collection_rejected(self):
        with pytest.raises(DomainError, match="^order must be a collection, got 2.5$"):
            treedec_by_elimination(path_graph(3), 2.5)

    @pytest.mark.parametrize("order", [[0.0, 1, 2], [True, 0, 2], ["0", 1, 2], [None, 1, 2]])
    def test_order_of_non_ints_rejected(self, order):
        # 0.0 sorts and compares equal to 0; "0" does not sort among ints
        with pytest.raises(DomainError, match="^elimination order must be a permutation of V$"):
            treedec_by_elimination(path_graph(3), order=order)


class TestContractRefinement:
    def test_identity_map(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        td = mss_to_treedec(g, build_mss(g, fixture_divisor))
        same = contract_refinement(g, g, td, RefinementMap.identity(g.n))
        assert same.bags == td.bags
        assert same.tree_edges == td.tree_edges

    def test_c4_back_to_banana(self):
        # C4 = the 2-edge banana with both edges subdivided once:
        # original vertices 0,1; C4 vertices 0,2,1,3 around the cycle
        banana = banana_graph(2)
        c4 = MultiGraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        rmap = RefinementMap(
            original={0: 0, 1: 1},
            subdivision={2: (0, 1, 0, 0), 3: (0, 1, 1, 0)},
            added_leaves={},
        )
        td = TreeDecomposition(
            [frozenset({0, 2, 1}), frozenset({0, 1, 3})], [(0, 1)]
        )
        assert validate_treedec(c4, td).ok
        out = contract_refinement(banana, c4, td, rmap)
        report = validate_treedec(banana, out)
        assert report.ok
        assert report.width <= td.width

    def test_added_leaves_vanish(self):
        g = path_graph(2)
        refined = MultiGraph(3, [(0, 1), (1, 2)])
        rmap = RefinementMap({0: 0, 1: 1}, {}, {2: 1})
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1, 2})], [(0, 1)])
        out = contract_refinement(g, refined, td, rmap)
        assert validate_treedec(g, out).ok
        assert all(2 not in bag for bag in out.bags)

    def test_random_refinements_never_gain_width(self):
        rng = random.Random(60902)
        for _ in range(20):
            g = random_connected_multigraph(rng, rng.randint(2, 5))
            refined, rmap = random_refinement(rng, g)
            td = treedec_by_elimination(refined)
            assert validate_treedec(refined, td).ok
            out = contract_refinement(g, refined, td, rmap)
            report = validate_treedec(g, out)
            assert report.ok, report.violations
            assert report.width <= td.width

    def test_invalid_input_rejected(self):
        g = path_graph(2)
        td = TreeDecomposition([frozenset({0})], [])
        with pytest.raises(DomainError):
            contract_refinement(g, g, td, RefinementMap.identity(2))

    @pytest.mark.parametrize("edge", [(1, 99), (0, 2), (1, 0), (-1, 1), (0, 0)])
    def test_subdivision_endpoints_outside_the_original_rejected(self, edge):
        # the 2-banana refined into C4, with one subdivision vertex placed
        # on an edge that the banana does not have; the map's constructor
        # refuses the endpoint -1, the check against the banana the others
        banana = banana_graph(2)
        c4 = MultiGraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        td = TreeDecomposition(
            [frozenset({0, 2, 1}), frozenset({0, 1, 3})], [(0, 1)]
        )
        with pytest.raises(DomainError, match="subdivision vertex 2"):
            rmap = RefinementMap({0: 0, 1: 1},
                                 {2: (*edge, 0, 0), 3: (0, 1, 1, 0)}, {})
            contract_refinement(banana, c4, td, rmap)

    @pytest.mark.parametrize("tables, message", [
        (({0: 0, 1: 1}, {}, {}),
         "refinement map does not classify every refined vertex exactly once"),
        (({0: 0, 1: 1, 2: 1}, {2: (0, 1, 0, 0)}, {}), "refined vertex 2 sits in two tables"),
    ], ids=["unclassified", "twice"])
    def test_map_that_does_not_classify_each_vertex_once_rejected(self, tables, message):
        # the edge 0-1 subdivided once: 0 - 2 - 1.  The check against the
        # graphs finds an unclassified vertex; the constructor refuses a
        # vertex in two tables, before any graph is seen
        refined = MultiGraph(3, [(0, 2), (2, 1)])
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            RefinementMap(*tables).check(path_graph(2), refined)

    @pytest.mark.parametrize("tables, message", [
        ((None, {}, {}), "original must be a mapping, got NoneType"),
        (([0, 1], {}, {}), "original must be a mapping, got list"),
        (({0: 0}, {}, [(1, 0)]), "added_leaves must be a mapping, got list"),
        (({0: "0", 1: 1}, {}, {}), "refined vertex 0 maps to '0', which is not an int >= 0"),
        (({0: 0, 1: -1}, {}, {}), "refined vertex 1 maps to -1, which is not an int >= 0"),
        (({0.0: 0, 1: 1}, {}, {}), "original has the key 0.0, which is not an int >= 0"),
        (({True: 0, 1: 1}, {}, {}), "original has the key True, which is not an int >= 0"),
        (({0: 0, 1: 1}, {2: (0, 1)}, {}),
         "subdivision vertex 2 maps to (0, 1), which is not a 4-tuple of ints >= 0"),
        (({0: 0, 1: 1}, {2: (0, 1, 0, 0.0)}, {}),
         "subdivision vertex 2 maps to (0, 1, 0, 0.0), which is not a 4-tuple of ints >= 0"),
        (({0: 0, 1: 1}, {2: 0}, {}),
         "subdivision vertex 2 maps to 0, which is not a 4-tuple of ints >= 0"),
        (({0: 0, 1: 1}, {}, {2: None}), "added leaf 2 maps to None, which is not an int >= 0"),
        (({0: 0, 1: 1}, {}, {1: 0}), "refined vertex 1 sits in two tables"),
    ], ids=["None", "list", "leaves list", "str image", "negative image", "float key",
            "bool key", "short edge", "float position", "int edge", "None anchor", "twice"])
    def test_constructor_refuses_a_malformed_map(self, tables, message):
        # each of these raised a raw TypeError, ValueError or AttributeError
        # in contract_refinement, or passed, as the key 0.0 did
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            RefinementMap(*tables)

    def test_identity_checks_n(self):
        assert RefinementMap.identity(2) == RefinementMap({0: 0, 1: 1}, {}, {})
        for n in (2.5, -1, True):
            with pytest.raises(DomainError, match="^n must be an int >= 0, got "):
                RefinementMap.identity(n)

    def test_map_is_frozen_and_copied(self):
        original = {0: 0, 1: 1}
        subdivision = {2: [0, 1, 0, 0]}
        rmap = RefinementMap(original, subdivision, {})
        original[5] = 5
        subdivision[2][0] = 7
        assert rmap == RefinementMap({0: 0, 1: 1}, {2: (0, 1, 0, 0)}, {})
        with pytest.raises(TypeError):
            rmap.original[5] = 5
        with pytest.raises(AttributeError):
            rmap.original = {}
        assert hash(rmap) == hash(RefinementMap({1: 1, 0: 0}, {2: (0, 1, 0, 0)}, {}))
        assert rmap != RefinementMap({0: 0, 1: 1}, {2: (0, 1, 0, 1)}, {})
        for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            back = clone(rmap)
            assert back == rmap and hash(back) == hash(rmap)

    def test_original_vertices_must_biject(self):
        rmap = RefinementMap({0: 0, 1: 0}, {}, {})
        with pytest.raises(DomainError, match="^original vertices must biject with V\\(G\\)$"):
            rmap.check(path_graph(2), path_graph(2))

    def test_graph_that_is_no_refinement_rejected(self):
        # the path 0-1-2 under the identity map lacks the triangle's edge
        # (0,2); contracted, its bags {0,1}, {1,2} would not cover that edge
        triangle = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
        path = path_graph(3)
        td = TreeDecomposition([frozenset({0, 1}), frozenset({1, 2})], [(0, 1)])
        with pytest.raises(DomainError, match=r"0 edges \(0, 2\)"):
            contract_refinement(triangle, path, td, RefinementMap.identity(3))

    def test_copy_beyond_the_multiplicity_rejected(self):
        banana = banana_graph(2)
        c4 = MultiGraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        rmap = RefinementMap({0: 0, 1: 1}, {2: (0, 1, 0, 0), 3: (0, 1, 2, 0)}, {})
        td = TreeDecomposition(
            [frozenset({0, 2, 1}), frozenset({0, 1, 3})], [(0, 1)]
        )
        with pytest.raises(DomainError, match="copy 2 of edge \\(0,1\\), which has "
                                              "multiplicity 2"):
            contract_refinement(banana, c4, td, rmap)

    @pytest.mark.parametrize("subdivision, leaves", [
        ({2: (0, 1, 0, 1), 3: (0, 1, 0, 0)}, {}),   # positions reversed
        ({2: (0, 1, 0, 0), 3: (0, 1, 0, 0)}, {}),   # a position repeated
        ({2: (0, 1, 0, 0)}, {3: 0}),                # a leaf inside the path
    ], ids=["reversed", "repeated", "leaf"])
    def test_path_not_as_the_map_describes_rejected(self, subdivision, leaves):
        # the single edge 0-1 subdivided twice: 0 - 2 - 3 - 1
        refined = MultiGraph(4, [(0, 2), (2, 3), (3, 1)])
        rmap = RefinementMap({0: 0, 1: 1}, subdivision, leaves)
        td = treedec_by_elimination(refined)
        with pytest.raises(DomainError):
            contract_refinement(path_graph(2), refined, td, rmap)

    def test_whole_and_subdivided_copies_together(self):
        # the 3-banana with copy 1 subdivided: two whole edges and a path
        refined = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (2, 1)])
        rmap = RefinementMap({0: 0, 1: 1}, {2: (0, 1, 1, 0)}, {})
        out = contract_refinement(banana_graph(3), refined,
                                  treedec_by_elimination(refined), rmap)
        assert validate_treedec(banana_graph(3), out).ok
        whole_only = MultiGraph(3, [(0, 1), (0, 2), (2, 1)])
        with pytest.raises(DomainError, match="1 edges \\(0, 1\\).*describes 2"):
            contract_refinement(banana_graph(3), whole_only,
                                treedec_by_elimination(whole_only), rmap)

    def test_checks_a_foreign_decomposition_once(self, monkeypatch):
        calls = [0]
        validate = treedec.validate_treedec

        def counting(*args):
            calls[0] += 1
            return validate(*args)

        monkeypatch.setattr(treedec, "validate_treedec", counting)
        g = path_graph(3)
        contract_refinement(g, g, treedec_by_elimination(g), RefinementMap.identity(3))
        assert calls[0] == 1


@given(multigraphs())
@settings(max_examples=120, deadline=None)
def test_treewidth_bounds_enclose_the_treewidth(g):
    nbr = g.neighbour_masks
    order, later = treedec._eliminate(nbr)
    ub = max(m.bit_count() for m in later)
    assert sorted(order) == list(range(g.n))
    assert treedec._minor_min_width(nbr) <= treedec._treewidth_dp(nbr) <= ub


def _counting_dp(monkeypatch):
    calls = [0]
    dp = treedec._treewidth_dp

    def counting(nbr):
        calls[0] += 1
        return dp(nbr)

    monkeypatch.setattr(treedec, "_treewidth_dp", counting)
    return calls


def test_oracle_runs_the_dp_where_the_bounds_differ(monkeypatch):
    """Minor-min-width 3 and min-degree width 4 on this graph: the oracle
    must fall back to the dynamic program, which finds 4."""
    g = MultiGraph(7, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 3), (1, 4), (2, 3),
                       (2, 6), (3, 5), (4, 5), (4, 6), (5, 6)])
    nbr = g.neighbour_masks
    assert treedec._minor_min_width(nbr) == 3
    assert max(m.bit_count() for m in treedec._eliminate(nbr)[1]) == 4
    calls = _counting_dp(monkeypatch)
    assert treewidth_bruteforce(g) == 4
    assert calls[0] == 1


def test_oracle_skips_the_dp_where_the_bounds_meet(monkeypatch, fixture_graph):
    """Operation-count guard: the bounds meet on the fixture (tw 2) and on
    the 3 x 3 grid (tw 3), so the dynamic program never runs."""
    grid = MultiGraph(9, [(i, i + 1) for i in range(9) if i % 3 != 2]
                      + [(i, i + 3) for i in range(6)])
    calls = _counting_dp(monkeypatch)
    assert treewidth_bruteforce(fixture_graph) == 2
    assert treewidth_bruteforce(grid) == 3
    assert calls[0] == 0
