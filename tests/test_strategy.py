import copy
import pickle
import random
import re
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptree import (
    Divisor,
    DomainError,
    MultiGraph,
    Position,
    TreeDecomposition,
    build_mss,
    fire_set,
    good_firing_set,
    has_positive_rank,
    mss_to_treedec,
    validate_mss,
    validate_treedec,
)
from chiptree import gonality, graph, strategy, treedec
from chiptree.strategy import GROW, ROOT, SHRINK, SPLIT, MssNode, MssTree, MssViolation

from conftest import (edit_node, grid_with_a_chip_per_row, moves_and_children_by_definition,
                      mss_ok_by_definition, multigraphs, random_connected_multigraph)
from chiptree.gonality import effective_divisors

# Positions of the golden strategy tree for the 7-vertex example, as
# (searchers, territory) label pairs.
GOLDEN_POSITIONS = [
    ("", "abcdefg"),
    ("a", "bcdefg"),
    ("abc", "defg"),
    ("bc", "defg"),
    ("bc", "d"),
    ("bc", "efg"),
    ("b", "d"),
    ("bd", ""),
    ("d", ""),
    ("bcg", "ef"),
    ("bg", "ef"),
    ("befg", ""),
    ("efg", ""),
    ("ef", ""),
]


def names(g, s):
    return "".join(g.vertex_name(v) for v in sorted(s))


def vset(g, text):
    return frozenset(g.vertex_index(ch) for ch in text)


def divisor(g, spec):
    chips = [0] * g.n
    for name, c in spec.items():
        chips[g.vertex_index(name)] = c
    return Divisor(tuple(chips))


class TestGoodFiringSet:
    def test_opening_move(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        d2, u = good_firing_set(g, fixture_divisor, vset(g, "a"),
                               vset(g, "bcdefg"))
        assert d2 == fixture_divisor
        assert names(g, u) == "a"

    def test_advance_toward_d(self, fixture_graph):
        g = fixture_graph
        abc = divisor(g, {"a": 1, "b": 1, "c": 1})
        d2, u = good_firing_set(g, abc, vset(g, "b"), vset(g, "d"))
        assert names(g, u) == "abcefg"

    def test_advance_toward_ef(self, fixture_graph):
        g = fixture_graph
        bbg = divisor(g, {"b": 2, "g": 1})
        d2, u = good_firing_set(g, bbg, vset(g, "bg"), vset(g, "ef"))
        assert names(g, u) == "abcdg"

    def test_contract_holds_on_random_instances(self):
        rng = random.Random(321)
        checked = 0
        while checked < 25:
            g = random_connected_multigraph(rng, rng.randint(3, 6))
            d = next(
                (d for d in effective_divisors(g.n, rng.randint(2, 4))
                 if has_positive_rank(g, d)), None)
            if d is None:
                continue
            x = d.support
            flaps = g.flaps(x)
            if not flaps:
                continue
            r = flaps[0]
            d2, u = good_firing_set(g, d, x, r)
            assert x <= d2.support and not (r & d2.support)
            assert u & x and not (u & r)
            fired = fire_set(g, d2, u)  # must not raise
            assert fired.is_effective
            checked += 1

    def test_rejects_an_empty_territory(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        with pytest.raises(DomainError, match="^territory flap must be nonempty$"):
            good_firing_set(g, fixture_divisor, vset(g, "a"), frozenset())

    @pytest.mark.parametrize(
        "x, r", [("", "d"), ("a", "ad"), ("f", "b"), ("", "abcdefg")],
        ids=["not-a-flap", "meets-x", "not-a-flap-of-x", "holds-chips"])
    def test_rejects_a_territory_that_is_not_a_chipless_flap(
            self, fixture_graph, fixture_divisor, x, r):
        # 3a has positive rank; the first three used to raise InternalError
        g = fixture_graph
        with pytest.raises(DomainError, match="territory"):
            good_firing_set(g, fixture_divisor, vset(g, x), vset(g, r))


class TestBuildMss:
    def test_single_vertex(self):
        g = MultiGraph(1, [])
        tree = build_mss(g, Divisor((1,)))
        assert [n.position for n in tree.nodes] == [
            Position(frozenset(), frozenset({0})),
            Position(frozenset({0}), frozenset()),
        ]

    def test_golden_tree_positions(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        got = sorted(
            (names(fixture_graph, n.position.searchers),
             names(fixture_graph, n.position.territory))
            for n in tree.nodes
        )
        assert got == sorted(GOLDEN_POSITIONS)
        assert tree.searchers == 4
        assert tree.max_searchers_used() == 4

    def test_golden_tree_fired_sets(self, fixture_graph, fixture_divisor):
        trace = []
        build_mss(fixture_graph, fixture_divisor, trace=trace)
        g = fixture_graph
        fired = [(names(g, u), d2.format(g))
                 for step, _, (d2, u) in
                 ((s, p, det) for s, p, det in trace if s == "III")]
        # FIFO leaf order interleaves the two branches; the four fired
        # sets and their divisors are exactly the worked example's
        assert fired == [
            ("a", "a:3"),
            ("ac", "a:1 b:1 c:1"),
            ("abcefg", "a:1 b:1 c:1"),
            ("abcdg", "b:2 g:1"),
        ]

    def test_path_advances_one_searcher_pair(self):
        g = MultiGraph(3, [(0, 1), (1, 2)])
        tree = build_mss(g, Divisor((1, 0, 0)))
        assert tree.max_searchers_used() <= 2
        report = validate_mss(g, tree, 2)
        assert report.ok, report.first()

    def test_rejects_rankless_divisor(self):
        c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(DomainError):
            build_mss(c4, Divisor((1, 0, 0, 0)))

    def test_rejects_disconnected_graph(self):
        g = MultiGraph(2, [])
        with pytest.raises(DomainError):
            build_mss(g, Divisor((1, 1)))

    def test_move_tags_are_consistent(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        assert tree.nodes[0].move == ROOT
        for node in tree.nodes[1:]:
            assert node.move in (GROW, SHRINK, SPLIT)
            parent = tree.nodes[node.parent].position
            pos = node.position
            if node.move == GROW:
                assert pos.searchers > parent.searchers
            elif node.move == SHRINK:
                assert pos.searchers < parent.searchers

    def test_territory_shrinks_along_every_edge(self, fixture_graph,
                                                fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        for i, node in enumerate(tree.nodes):
            for c in node.children:
                child = tree.nodes[c].position
                assert child.territory <= node.position.territory
                assert child.searchers <= (node.position.searchers
                                           | node.position.territory)

    def test_potential_dominates_children(self, fixture_graph, fixture_divisor):
        # f(X,R) = |R| (|X| + |R|) bounds descendants, per the size argument
        tree = build_mss(fixture_graph, fixture_divisor)

        def f(pos):
            return len(pos.territory) * (len(pos.searchers) + len(pos.territory))

        for node in tree.nodes:
            # the bound concerns nodes still holding territory; the trailing
            # searcher-retraction chain after capture has f = 0 throughout
            if node.children and node.position.territory:
                child_sum = sum(f(tree.nodes[c].position) for c in node.children)
                assert f(node.position) >= child_sum + len(node.children)

    def test_size_bound_on_random_corpus(self):
        for g, d in _random_corpus():
            tree = build_mss(g, d)
            assert len(tree.nodes) <= g.n * g.n + 1
            report = validate_mss(g, tree, d.degree + 1)
            assert report.ok, report.first()

    def test_step_iii_divisors_respect_invariant(self, fixture_graph,
                                                 fixture_divisor):
        # every step III fires from a divisor D with X <= supp(D) and
        # R disjoint from supp(D)
        cases = [(fixture_graph, fixture_divisor), *_random_corpus()]
        steps = 0
        for g, d in cases:
            trace = []
            build_mss(g, d, trace=trace)
            for step, pos, detail in trace:
                if step == "III":
                    d2, _ = detail
                    assert pos.searchers <= d2.support
                    assert not (pos.territory & d2.support)
                    steps += 1
        assert steps


def _random_corpus():
    """15 seeded connected multigraphs, each with a positive-rank divisor."""
    rng = random.Random(777)
    built = []
    while len(built) < 15:
        g = random_connected_multigraph(rng, rng.randint(2, 6))
        d = next(
            (d for d in effective_divisors(g.n, rng.randint(1, 3))
             if has_positive_rank(g, d)), None)
        if d is not None:
            built.append((g, d))
    return built


def test_moves_and_children_follow_from_masks_and_parents(fixture_graph, fixture_divisor):
    """On the fixture, 60 random graphs and the 12 x 12 grid with a chip per
    row, each node's move and children are those the searcher masks and
    the parent pointers name."""
    cases = [(fixture_graph, fixture_divisor), grid_with_a_chip_per_row(12)]
    rng = random.Random(6060)
    while len(cases) < 62:
        g = random_connected_multigraph(rng, rng.randint(2, 8))
        d = next((d for d in effective_divisors(g.n, rng.randint(1, 4))
                  if has_positive_rank(g, d)), None)
        if d is not None:
            cases.append((g, d))
    for g, d in cases:
        tree = build_mss(g, d)
        moves, children = moves_and_children_by_definition(tree)
        assert list(tree.moves) == moves
        assert list(tree.children) == children


def test_build_mss_reuses_the_rank_verdict(monkeypatch):
    """After ``has_positive_rank(g, d)`` accepts, ``build_mss(g, d)`` keeps
    its rank check but burns no further rank-test round."""
    calls = [0]
    burn = gonality._burn

    def counting(*args):
        calls[0] += 1
        return burn(*args)

    monkeypatch.setattr(gonality, "_burn", counting)
    rng = random.Random(90210)
    checked = 0
    for _ in range(40):
        g = random_connected_multigraph(rng, rng.randint(2, 7))
        for d in effective_divisors(g.n, rng.randint(1, 3)):
            before = calls[0]
            if not has_positive_rank(g, d):
                continue
            tested = calls[0]
            tree = build_mss(g, d)
            assert calls[0] == tested
            assert validate_mss(g, tree, d.degree + 1).ok
            checked += tested > before
    assert checked >= 20


def test_build_mss_skips_searches_with_known_answers(monkeypatch, fixture_graph,
                                                     fixture_divisor):
    """Operation-count guard on the golden fixture: a split child's
    territory is one flap, and a step-II child goes straight to step III,
    so only the other positions get a flap search (6 when every position
    got one)."""
    calls = [0]
    components = strategy._components

    def counting(*args):
        calls[0] += 1
        return components(*args)

    monkeypatch.setattr(strategy, "_components", counting)
    tree = build_mss(fixture_graph, fixture_divisor)
    assert calls[0] <= 3
    assert validate_mss(fixture_graph, tree, 4).ok


def leave_early(columns: dict, i: int, s: int) -> dict:
    """The columns with searcher s taken from node i and every node below
    it, and each node below i that then repeats its parent's position as
    its only child spliced out, its children moved to that parent."""
    xs, rs, parents = columns["xs"], columns["territories"], columns["parents"]
    below = {i}
    for j in range(i + 1, len(parents)):
        if parents[j] in below:
            below.add(j)
    xs = [x & ~(1 << s) if j in below else x for j, x in enumerate(xs)]
    only = [p for p, m in Counter(parents).items() if m == 1]
    gone = {j for j in below - {i} if parents[j] in only
            and (xs[j], rs[j]) == (xs[parents[j]], rs[parents[j]])}
    kept = [j for j in range(len(xs)) if j not in gone]
    new = {j: k for k, j in enumerate(kept)}

    def parent(j):
        p = parents[j]
        while p in gone:
            p = parents[p]
        return new.get(p, p)

    return {"xs": [xs[j] for j in kept], "territories": [rs[j] for j in kept],
            "parents": [parent(j) for j in kept]}


def corrupt(rng: random.Random, tree: MssTree, k: int, n: int) -> tuple[dict, int]:
    """The columns of a tree and its searcher count with one to three random edits:
    a mask bit (bit n included), a whole mask, a parent, X and R swapped
    at a node, a searcher that leaves early, the last node dropped, or k
    one up or down.  A searcher s leaves early at node i when it is taken
    from i and every node below, and a node that then repeats its parent's
    position as its only child is spliced out: a tree that is valid but
    for the shrink into i, where s may border R."""
    columns = {name: list(getattr(tree, name)) for name in ("xs", "territories", "parents")}
    for _ in range(rng.randint(1, 3)):
        size = len(columns["xs"])
        i = rng.randrange(size)
        kind = rng.choice(["bit", "mask", "parent", "swap", "leave", "drop", "k"])
        name = rng.choice(["xs", "territories"])
        if kind == "bit":
            columns[name][i] ^= 1 << rng.randint(0, n)
        elif kind == "mask":
            columns[name][i] = rng.choice([rng.randrange(1 << n), 0, (1 << n) - 1,
                                           columns[name][rng.randrange(size)]])
        elif kind == "parent":
            columns["parents"][i] = rng.choice([None, rng.randint(-1, size)])
        elif kind == "swap":
            columns["xs"][i], columns["territories"][i] = \
                columns["territories"][i], columns["xs"][i]
        elif kind == "leave":
            columns = leave_early(columns, i, rng.choice(
                [v for v in range(n + 1) if columns["xs"][i] >> v & 1] or [0]))
        elif kind == "drop" and size > 1:
            for column in columns.values():
                column.pop()
        elif kind == "k":
            k += rng.choice([-1, 1])
    return columns, k


def test_validate_mss_agrees_with_every_clause_at_every_node():
    """On corrupted trees from random multigraphs and the 4 x 4 and 6 x 6
    grids, ``validate_mss``, which checks positions at the root and
    through each move, passes exactly the trees that meet every clause at
    every node (the oracle ``mss_ok_by_definition``).  Columns that the
    constructor refuses count as invalid, and the oracle, reading the raw
    columns, refuses them too."""
    rng = random.Random(4440)
    bases = [grid_with_a_chip_per_row(4), grid_with_a_chip_per_row(6)]
    while len(bases) < 200:
        g = random_connected_multigraph(rng, rng.randint(2, 8))
        d = next((d for d in effective_divisors(g.n, rng.randint(1, 4))
                  if has_positive_rank(g, d)), None)
        if d is not None:
            bases.append((g, d))
    verdicts = []
    for g, d in bases:
        tree = build_mss(g, d)
        for _ in range(20 if g.n < 16 else 40):
            columns, k = corrupt(rng, tree, d.degree + 1, g.n)
            ok = mss_ok_by_definition(g, SimpleNamespace(**columns), k)
            try:
                bad = MssTree(tree.searchers, **columns)
            except DomainError:
                assert not ok, (g.edge_list, columns, k)
            else:
                assert validate_mss(g, bad, k).ok == ok, (g.edge_list, bad, k)
            verdicts.append(ok)
    assert len(verdicts) >= 2000 and sum(verdicts) >= 500


def test_validate_mss_searches_no_territory(monkeypatch):
    """Operation-count guard on the 30 x 30 grid with a chip per row
    (1,742 nodes): validating a copy of the built tree hands ``_around``
    only the searchers that leave at shrinks, at most one per node, where
    checking every territory handed it 757,800 vertices."""
    g, d = grid_with_a_chip_per_row(30)
    tree = copy.copy(build_mss(g, d))
    handed = [0]
    around = strategy._around

    def counting(nbr, s):
        handed[0] += s.bit_count()
        return around(nbr, s)

    monkeypatch.setattr(strategy, "_around", counting)
    assert validate_mss(g, tree, d.degree + 1).ok
    assert len(tree.xs) == 1742 and handed[0] <= 1742


@pytest.mark.parametrize("parent", [99, "0", -1, None], ids=["99", "str", "-1", "None"])
@pytest.mark.parametrize("read", ["children", "moves", "nodes", "to_text", "to_dot"])
def test_readers_refuse_a_parent_that_is_no_earlier_node(fixture_graph, fixture_divisor,
                                                         read, parent):
    """No view ever reads a tree whose node 1 hangs from 99, "0", -1 or
    None: the constructor refuses it with ``DomainError``, before the view
    is reached, where a view raised an ``IndexError`` or a ``TypeError``,
    or showed a self-loop or a second root."""
    tree = build_mss(fixture_graph, fixture_divisor)
    with pytest.raises(DomainError, match=re.escape(f"parent {parent!r} is not a node "
                                                    "numbered before 1")) as refused:
        value = getattr(edit_node(tree, 1, parents=parent), read)
        if callable(value):
            value(fixture_graph)
    assert refused.traceback[-1].name == "__init__"


class TestValidateMss:
    def test_accepts_golden_tree(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        assert validate_mss(fixture_graph, tree, 4).ok

    def test_rejects_incomplete_leaf(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        # keep nodes 0..6 only: the split children (bc, d) and (bc, efg)
        # and the shrink (b, d) end the search with territory left
        tree = MssTree(tree.searchers, tree.xs[:7], tree.territories[:7], tree.parents[:7])
        report = validate_mss(fixture_graph, tree, 4)
        assert report.violations == [
            MssViolation(5, "incomplete leaf (territory nonempty)"),
            MssViolation(6, "incomplete leaf (territory nonempty)")]

    def test_rejects_bad_root(self, fixture_graph):
        g = fixture_graph
        tree = MssTree(searchers=4, xs=[1], territories=[(1 << g.n) - 2], parents=[None])
        report = validate_mss(g, tree, 4)
        assert not report.ok
        assert "root" in report.first().reason

    @pytest.mark.parametrize("node, columns, violations", [
        (13, {"territories": 0b10000},
         [(12, "single child matches neither shrink nor grow"),
          (13, "incomplete leaf (territory nonempty)")]),
        (7, {"territories": 0b10000},
         [(5, "single child matches neither shrink nor grow"),
          (7, "single child matches neither shrink nor grow")]),
        (5, {"xs": 0b1110},
         [(3, "split children must keep the same searchers"),
          (5, "single child matches neither shrink nor grow")]),
        (4, {"territories": 0},
         [(3, "split children are not exactly the X-flaps of R"),
          (4, "single child matches neither shrink nor grow")]),
    ], ids=["overlap", "not-a-union-of-flaps", "split-moves-searchers",
            "split-not-the-flaps"])
    def test_violations_in_order(self, fixture_graph, fixture_divisor, node,
                                 columns, violations):
        tree = edit_node(build_mss(fixture_graph, fixture_divisor), node, **columns)
        assert validate_mss(fixture_graph, tree, 4).violations == \
            [MssViolation(*v) for v in violations]

    def test_rejects_a_tree_above_the_node_bound(self):
        # a valid strategy on one vertex but for its third node
        g = MultiGraph(1, [])
        tree = MssTree(2, [0, 1, 0], [1, 0, 0], [None, 0, 1])
        assert validate_mss(g, tree, 2).violations == [
            MssViolation(None, "tree has 3 nodes, above the n^2+1 bound")]

    def test_rejects_searcher_overflow(self, fixture_graph, fixture_divisor):
        tree = build_mss(fixture_graph, fixture_divisor)
        report = validate_mss(fixture_graph, tree, 3)
        assert not report.ok
        assert "searchers" in report.first().reason

    @pytest.mark.parametrize("parent", [99, -1])
    def test_rejects_child_outside_the_tree(self, fixture_graph, fixture_divisor, parent):
        # node 1 hangs from a parent outside the tree
        tree = build_mss(fixture_graph, fixture_divisor)
        with pytest.raises(DomainError, match=f"^parent {parent} is not a node numbered "
                                              "before 1$"):
            edit_node(tree, 1, parents=parent)

    @pytest.mark.parametrize("parent", [5], ids=["back-to-root"])
    def test_rejects_child_reached_twice(self, fixture_graph, fixture_divisor, parent):
        # the root reached again, as a child of node 5
        tree = build_mss(fixture_graph, fixture_divisor)
        with pytest.raises(DomainError, match=f"^root has parent {parent}$"):
            edit_node(tree, 0, parents=parent)

    def test_rejects_unreachable_node(self, fixture_graph, fixture_divisor):
        # nodes 12 and 13 name each other as parent, out of the root's reach
        tree = build_mss(fixture_graph, fixture_divisor)
        assert tree.parents[13] == 12
        with pytest.raises(DomainError, match="^parent 13 is not a node numbered before 12$"):
            edit_node(tree, 12, parents=13)

    @pytest.mark.parametrize("node, parent, refusal", [
        (5, 0, [(0, "split children must keep the same searchers"),
                (3, "single child matches neither shrink nor grow")]),
        (2, 9, "parent 9 is not a node numbered before 2"),
        (0, 3, "root has parent 3"),
        (3, "2", "parent '2' is not a node numbered before 3"),
        (3, 2.0, "parent 2.0 is not a node numbered before 3"),
        (2, True, "parent True is not a node numbered before 2"),
    ], ids=["sibling", "outside", "root", "not-an-int", "float", "bool"])
    def test_rejects_wrong_parent_field(self, fixture_graph, fixture_divisor,
                                        node, parent, refusal):
        # the numbering cases, which the constructor refuses: the root has a
        # parent, a parent numbered at or after its child, a parent that is
        # not an int (a bool included, though True == 1); re-parenting node
        # 5 onto the root keeps the numbering but breaks two shapes, which
        # ``validate_mss`` reports
        tree = build_mss(fixture_graph, fixture_divisor)
        if isinstance(refusal, str):
            with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
                edit_node(tree, node, parents=parent)
            return
        tree = edit_node(tree, node, parents=parent)
        assert validate_mss(fixture_graph, tree, 4).violations == \
            [MssViolation(*v) for v in refusal]
        with pytest.raises(DomainError, match="invalid search strategy"):
            mss_to_treedec(fixture_graph, tree)


@pytest.mark.parametrize("where", ["searchers", "territory"])
@pytest.mark.parametrize("vertex", [-1, "n", "a", 10**18, [1, 2]],
                         ids=["-1", "n", "label", "huge", "list"])
def test_validate_mss_rejects_a_vertex_outside_the_graph(fixture_graph, fixture_divisor,
                                                         where, vertex):
    # searcher sets and territories are masks, so the cases are -1, a bit
    # at n, a label, 10**18 (an int above 2^n - 1; a mask with bit 10**18
    # would not fit in memory) and a list of vertices.  The constructor
    # refuses an entry that masks no vertex set; ``validate_mss``,
    # ``to_text`` and ``to_dot``, which know n, refuse a vertex at n or above
    g = fixture_graph
    tree = build_mss(g, fixture_divisor)
    column = {"searchers": "xs", "territory": "territories"}[where]
    entry = getattr(tree, column)[3] | 1 << g.n if vertex == "n" else vertex
    if vertex in (-1, "a", [1, 2]):
        with pytest.raises(DomainError, match="^a searcher or territory entry is not "
                                              "a vertex mask$"):
            edit_node(tree, 3, **{column: entry})
        return
    tree = edit_node(tree, 3, **{column: entry})
    report = validate_mss(g, tree, 4)
    assert MssViolation(3, "searchers or territory name a vertex outside 0..6") \
        in report.violations
    with pytest.raises(DomainError):
        mss_to_treedec(g, tree)
    for read in (tree.to_text, tree.to_dot):
        with pytest.raises(DomainError, match="not a vertex mask"):
            read(g)


def test_constructor_refuses_columns_of_different_lengths(fixture_graph, fixture_divisor):
    tree = build_mss(fixture_graph, fixture_divisor)
    with pytest.raises(DomainError, match=r"^columns have lengths \[14, 13, 14\]$"):
        MssTree(tree.searchers, tree.xs, tree.territories[:-1], tree.parents)


def test_constructor_refuses_an_empty_tree():
    with pytest.raises(DomainError, match=r"^columns have lengths \[0, 0, 0\]$"):
        MssTree(0, (), (), ())


@pytest.mark.parametrize("searchers, columns, message", [
    ("4", {}, "searchers must be an int >= 0, got '4'"),
    (None, {}, "searchers must be an int >= 0, got None"),
    (-1, {}, "searchers must be an int >= 0, got -1"),
    (True, {}, "searchers must be an int >= 0, got True"),
    (4, {"xs": [True, 0]}, "a searcher or territory entry is not a vertex mask"),
    (4, {"territories": [3, 2.0]}, "a searcher or territory entry is not a vertex mask"),
    (1, {"xs": None}, "xs must be a collection, got None"),
    (1, {"parents": 0}, "parents must be a collection, got 0"),
], ids=["str", "None", "negative", "bool", "bool-mask", "float-mask", "xs None", "parents 0"])
def test_constructor_refuses_a_malformed_shape(searchers, columns, message):
    """A searcher count or a mask of the wrong type, where a raw
    ``TypeError`` came out of ``mss_to_treedec`` for a searcher count "4",
    and a bool passed as the mask 1."""
    columns = {"xs": [0, 1], "territories": [3, 2], "parents": [None, 0], **columns}
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        MssTree(searchers, **columns)


def test_unpickling_checks_the_shape():
    """A pickle goes through the constructor, so a malformed tree is
    refused when it is loaded, as when it is built or copied."""
    class Forged:
        def __reduce__(self):
            return MssTree, (2, (0, 1), (3, 2), (None, 1))

    with pytest.raises(DomainError, match="^parent 1 is not a node numbered before 1$"):
        pickle.loads(pickle.dumps(Forged()))


@pytest.mark.parametrize("k", ["4", None, 4.0, True], ids=["str", "None", "float", "bool"])
def test_validate_mss_refuses_a_searcher_count_that_is_not_an_int(fixture_graph,
                                                                   fixture_divisor, k):
    tree = build_mss(fixture_graph, fixture_divisor)
    with pytest.raises(DomainError, match=f"^k must be an int, got {re.escape(repr(k))}$"):
        validate_mss(fixture_graph, tree, k)


def test_built_tree_memory_on_a_large_grid():
    """Memory guard on the 40 x 40 grid with one chip per row: the tree
    ``build_mss`` returns holds under 16 MB (64 MB when each territory was
    a frozenset; about 8 MB as bitmasks)."""
    g, d = grid_with_a_chip_per_row(40)
    assert has_positive_rank(g, d)
    tracemalloc.start()
    try:
        tree = build_mss(g, d)  # alive while measured
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**20


def test_dot_export_mentions_every_position(fixture_graph, fixture_divisor):
    tree = build_mss(fixture_graph, fixture_divisor)
    dot = tree.to_dot(fixture_graph)
    assert dot.count(" -> ") == len(tree.nodes) - 1
    assert "bcg | ef" in dot


def count_node_records(monkeypatch) -> dict:
    """Count the ``Position`` and ``MssNode`` records constructed from now on."""
    made = {Position: 0, MssNode: 0}
    for cls in made:
        def counting(self, *args, _cls=cls, _init=cls.__init__):
            made[_cls] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    return made


def test_pipeline_makes_no_node_records(monkeypatch, fixture_graph, fixture_divisor):
    """Operation-count guard on the golden fixture: rank test, strategy,
    decomposition and validation read the tree's columns and construct no
    ``Position`` or ``MssNode`` (14 of each when every node was a record);
    ``nodes`` builds them on each read."""
    made = count_node_records(monkeypatch)
    g, d = fixture_graph, fixture_divisor
    assert has_positive_rank(g, d)
    tree = build_mss(g, d)
    assert validate_treedec(g, mss_to_treedec(g, tree)).ok
    assert made == {Position: 0, MssNode: 0}
    assert len(tree.nodes) == 14
    assert made == {Position: 14, MssNode: 14}


def test_pipeline_builds_no_vertex_set(monkeypatch, fixture_graph, fixture_divisor):
    """Operation-count guard on the golden fixture: rank test, strategy,
    decomposition and validation work on masks.  They call
    ``graph._vertices`` 0 times and never read ``TreeDecomposition.bags``,
    which builds a frozenset per bag on each read."""
    calls = {"_vertices": 0, "bags": 0}
    vertices, bags = graph._vertices, TreeDecomposition.bags

    def counting_vertices(mask):
        calls["_vertices"] += 1
        return vertices(mask)

    def counting_bags(td):
        calls["bags"] += 1
        return bags.fget(td)

    for module in (graph, strategy, treedec):
        monkeypatch.setattr(module, "_vertices", counting_vertices)
    monkeypatch.setattr(TreeDecomposition, "bags", property(counting_bags))
    g, d = fixture_graph, fixture_divisor
    assert has_positive_rank(g, d)
    td = mss_to_treedec(g, build_mss(g, d))
    assert validate_treedec(g, td).ok
    assert calls == {"_vertices": 0, "bags": 0}
    assert len(td.bags) == 14
    assert calls == {"_vertices": 14, "bags": 1}


def test_equality_hash_and_pickle_read_the_columns(monkeypatch):
    """Guard on the 40 x 40 grid with one chip per row: ``==``, ``hash`` and
    ``pickle.dumps`` of a built tree construct no node record and each
    hold under 16 MB.  When they went through ``nodes``, which built a
    frozenset per territory, the 60 x 60 tree took 1.29 GB, 642 MB and
    689 MB."""
    g, d = grid_with_a_chip_per_row(40)
    tree, other = build_mss(g, d), build_mss(g, d)
    made = count_node_records(monkeypatch)
    results = []
    for op in (lambda: tree == other, lambda: hash(tree), lambda: pickle.dumps(tree)):
        tracemalloc.start()
        try:
            results.append(op())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
    assert made == {Position: 0, MssNode: 0}
    equal, _, dumped = results
    assert equal and pickle.loads(dumped) == tree


@st.composite
def positive_rank_instances(draw):
    """A connected multigraph and an effective divisor of positive rank: one
    of those of a drawn degree up to 3, or one chip on every vertex."""
    g = draw(multigraphs().filter(lambda g: g.is_connected()))
    degree = draw(st.integers(min_value=1, max_value=3))
    positive = [d for d in effective_divisors(g.n, degree) if has_positive_rank(g, d)]
    positive.append(Divisor((1,) * g.n))
    return g, positive[draw(st.integers(min_value=0, max_value=len(positive) - 1))]


@given(positive_rank_instances())
@settings(max_examples=80, deadline=None)
def test_columns_round_trip_through_records(instance):
    """The records ``nodes`` shows hold the columns.  A tree remade from its
    columns as lists equals it, as do its copies by pickle or deepcopy,
    which are validated, not trusted."""
    g, d = instance
    tree = build_mss(g, d)
    nodes = tree.nodes
    assert [sum(1 << v for v in n.position.searchers) for n in nodes] == list(tree.xs)
    assert [sum(1 << v for v in n.position.territory) for n in nodes] == \
        list(tree.territories)
    assert [(n.move, n.parent, n.children) for n in nodes] == \
        list(zip(tree.moves, tree.parents, tree.children))
    remade = MssTree(tree.searchers, list(tree.xs), list(tree.territories),
                     list(tree.parents))
    assert remade == tree and hash(remade) == hash(tree)
    assert remade.to_dot(g) == tree.to_dot(g)
    assert remade.max_searchers_used() == tree.max_searchers_used()
    for other in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert other == tree and other._built_for is None
    assert validate_mss(g, tree, d.degree + 1).ok
    trusted, checked = mss_to_treedec(g, tree), mss_to_treedec(g, remade)
    assert (trusted.bags, trusted.tree_edges) == (checked.bags, checked.tree_edges)


@given(positive_rank_instances(), st.randoms(use_true_random=False))
@settings(max_examples=120, deadline=None)
def test_good_firing_set_ends_on_every_chipless_flap(instance, rng):
    """On every component R of G - X that holds no chip of d, step III's
    search returns a fireable set that meets X and avoids R; no firing
    reaches R, so it never reports an ``InternalError``."""
    g, d = instance
    x = frozenset(v for v in range(g.n) if rng.random() < 0.4)
    for r in g.flaps(x):
        if any(d[v] for v in r):
            continue
        d2, u = good_firing_set(g, d, x, r)
        assert u & x and not u & r
        assert fire_set(g, d2, u).is_effective
