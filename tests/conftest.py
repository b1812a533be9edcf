"""Shared fixtures, random corpora and independent oracles.

The oracles here deliberately avoid the code paths they check: fireable
sets are found by exhaustive subset enumeration, equivalence by breadth
first search over all effective divisors reachable by firing, treewidth
by trying every elimination order, decomposition checks by scanning
every bag for every edge and vertex, and strategy checks by testing every
clause at every node on vertex sets.
"""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from chiptree import Divisor, MultiGraph, fire_set, is_fireable
from chiptree.fixtures import example_divisor, example_graph
from chiptree.strategy import MssTree


@pytest.fixture
def fixture_graph():
    return example_graph()


@pytest.fixture
def fixture_divisor(fixture_graph):
    return example_divisor(fixture_graph)


def edit_node(tree: MssTree, i: int, **columns) -> MssTree:
    """A copy of a frozen strategy tree with node i's entries in the named
    columns replaced, e.g. ``edit_node(tree, 1, parents=99)``."""
    values = {name: list(getattr(tree, name)) for name in ("xs", "territories", "parents")}
    for name, value in columns.items():
        values[name][i] = value
    return MssTree(tree.searchers, **values)


def moves_and_children_by_definition(tree: MssTree) -> tuple[list[str], list[tuple]]:
    """Each node's case and children, named from the searcher masks and the
    parent pointers alone: the root, a split for a child with siblings, a
    shrink (case (a)) for an only child whose searchers are a proper
    subset of its parent's, and a grow (case (b)) for any other child."""
    def searchers(i):
        return {v for v in range(tree.xs[i].bit_length()) if tree.xs[i] >> v & 1}

    children = [[] for _ in tree.parents]
    for c, p in enumerate(tree.parents):
        if p is not None:
            children[p].append(c)
    moves = []
    for c, p in enumerate(tree.parents):
        if p is None:
            moves.append("root")
        elif len(children[p]) > 1:
            moves.append("split")
        elif searchers(c) < searchers(p):
            moves.append("shrink")
        else:
            moves.append("grow")
    return moves, [tuple(sorted(kids)) for kids in children]


def mss_ok_by_definition(g: MultiGraph, tree: MssTree, k: int) -> bool:
    """Whether a strategy tree meets every clause at every node, read as
    vertex sets: nodes numbered parent first from the root (empty, V), at
    most n^2 + 1 of them, and at each node R disjoint from X, |X| <= k,
    every edge leaving R ending in X, an empty territory at a leaf, a
    shrink or a grow for an only child, and children with the same X
    whose territories are the X-flaps of R, found by a search over the
    edge list."""
    xs, rs, parents = tree.xs, tree.territories, tree.parents
    size = len(xs)
    if not size or len(rs) != size or len(parents) != size or size > g.n * g.n + 1:
        return False
    if parents[0] is not None or not all(type(p) is int and 0 <= p < i
                                         for i, p in enumerate(parents) if i):
        return False

    def members(m):
        if type(m) is not int or m < 0 or m >= 1 << g.n:
            return None
        return frozenset(v for v in range(g.n) if m >> v & 1)

    sets = [(members(x), members(r)) for x, r in zip(xs, rs)]
    if any(x is None or r is None for x, r in sets):
        return False
    if sets[0] != (frozenset(), frozenset(range(g.n))):
        return False

    arcs = g.edge_list + [(b, a) for a, b in g.edge_list]

    def flaps(r):
        found, left = [], set(r)
        while left:
            flap, grew = {left.pop()}, True
            while grew:
                grew = {b for a, b in arcs if a in flap and b in left}
                flap |= grew
                left -= grew
            found.append(frozenset(flap))
        return sorted(found, key=sorted)

    children = [[] for _ in parents]
    for c, p in enumerate(parents):
        if c:
            children[p].append(c)
    for (x, r), kids in zip(sets, children):
        if x & r or len(x) > k:
            return False
        if any((a in r) != (b in r) and not {a, b} & x for a, b in g.edge_list):
            return False
        kid_sets = [sets[c] for c in kids]
        if not kids:
            if r:
                return False
        elif len(kids) == 1:
            (cx, cr), = kid_sets
            if not (cx < x and cr == r or x < cx <= x | r and cr == r - cx):
                return False
        elif any(cx != x for cx, _ in kid_sets) or \
                sorted((cr for _, cr in kid_sets), key=sorted) != flaps(r):
            return False
    return True


def grid_with_a_chip_per_row(k: int) -> tuple[MultiGraph, Divisor]:
    """The k x k grid and the divisor with one chip at the start of each row."""
    edges = [(i * k + j, i * k + j + 1) for i in range(k) for j in range(k - 1)]
    edges += [(i * k + j, (i + 1) * k + j) for i in range(k - 1) for j in range(k)]
    return MultiGraph(k * k, edges), Divisor(tuple(1 if v % k == 0 else 0
                                                  for v in range(k * k)))


def random_connected_multigraph(rng: random.Random, n: int,
                                max_mult: int = 3) -> MultiGraph:
    """Random spanning tree plus random extra edges, multiplicities <= max_mult."""
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    extra = rng.randrange(0, n + 1)
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    expanded = []
    for (u, v) in edges:
        for _ in range(rng.randint(1, max_mult)):
            expanded.append((u, v))
    return MultiGraph(n, expanded)


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for pair in pairs:
        mult = draw(st.integers(min_value=0, max_value=3))
        edges.extend([pair] * mult)
    return MultiGraph(n, edges)


def random_effective_divisor(rng: random.Random, n: int, degree: int) -> Divisor:
    chips = [0] * n
    for _ in range(degree):
        chips[rng.randrange(n)] += 1
    return Divisor(tuple(chips))


def all_fireable_subsets(g: MultiGraph, d: Divisor, forbidden=()):
    """Every nonempty fireable subset avoiding the forbidden vertices."""
    allowed = [v for v in range(g.n) if v not in set(forbidden)]
    out = []
    for size in range(1, len(allowed) + 1):
        for combo in combinations(allowed, size):
            if is_fireable(g, d, combo):
                out.append(frozenset(combo))
    return out


def maximal_fireable_subset(g: MultiGraph, d: Divisor, q: int):
    """The unique maximal fireable subset of V - {q}, by enumeration."""
    best = frozenset()
    for u in all_fireable_subsets(g, d, forbidden=(q,)):
        if len(u) > len(best):
            best = u
    return best


def reachable_effective_divisors(g: MultiGraph, d: Divisor) -> set:
    """All effective divisors reachable from d by firing subsets.

    By the level-set chain argument this is the whole effective part of
    the equivalence class, so membership decides equivalence.
    """
    seen = {d.chips}
    frontier = [d]
    while frontier:
        cur = frontier.pop()
        for u in all_fireable_subsets(g, cur):
            nxt = fire_set(g, cur, u)
            if nxt.chips not in seen:
                seen.add(nxt.chips)
                frontier.append(nxt)
    return seen


def rank_oracle(g: MultiGraph, d: Divisor) -> bool:
    """Positive rank via closure under firing: every vertex must appear in
    the support of some reachable effective divisor."""
    reachable = reachable_effective_divisors(g, d)
    return all(
        any(chips[v] >= 1 for chips in reachable) for v in range(g.n)
    )


def laplacian(g: MultiGraph) -> list[list[int]]:
    """Integer Laplacian from the edge multiplicities: degrees on the
    diagonal, minus multiplicities off it."""
    q = [[0] * g.n for _ in range(g.n)]
    for (u, v), m in g.edge_multiplicities.items():
        q[u][u] += m
        q[v][v] += m
        q[u][v] -= m
        q[v][u] -= m
    return q


def treewidth_by_all_orders(g: MultiGraph) -> int:
    """Least elimination width over every vertex order (n <= 6 or so)."""
    neighbours = [{w for (a, b) in g.edge_list for w in (a, b)
                   if v in (a, b) and w != v} for v in range(g.n)]
    best = g.n
    for order in permutations(range(g.n)):
        work = [set(nb) for nb in neighbours]
        width = 0
        for v in order:
            width = max(width, len(work[v]))
            for a in work[v]:
                work[a].discard(v)
                work[a] |= work[v] - {a}
        best = min(best, width)
    return best


def treedec_violations_by_scan(g: MultiGraph, td) -> list:
    """The violation list of ``validate_treedec``, from the definitions:
    tree shape, then conditions 1, 2 and 3 checked bag by bag."""
    bags, edges = td.bags, td.tree_edges
    if not bags:
        return ["decomposition has no bags"]
    out = []
    adj = [[] for _ in bags]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)

    def reach(start, allowed):
        seen, stack = {start}, [start]
        while stack:
            for j in adj[stack.pop()]:
                if j in allowed and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    if len(edges) != len(bags) - 1:
        out.append(f"{len(edges)} tree edges on {len(bags)} bags is not a tree")
    elif len(reach(0, range(len(bags)))) != len(bags):
        out.append("bag tree is disconnected")
    covered = set().union(*bags)
    missing = sorted(set(range(g.n)) - covered)
    if missing:
        out.append(f"condition 1: vertices {missing} in no bag")
    extra = sorted(covered - set(range(g.n)))
    if extra:
        out.append(f"bags mention unknown vertices {extra}")
    for (u, v) in sorted(g.edge_multiplicities):
        if not any(u in bag and v in bag for bag in bags):
            out.append(f"condition 2: edge ({u},{v}) in no bag")
    for v in range(g.n):
        holding = [i for i, bag in enumerate(bags) if v in bag]
        if holding and reach(holding[0], set(holding)) != set(holding):
            out.append(f"condition 3 at vertex {v}")
    return out


def random_refinement(rng: random.Random, g: MultiGraph):
    """Subdivide some edges and hang some leaves; returns (refined, map)."""
    from chiptree import RefinementMap

    next_id = g.n
    original = {v: v for v in range(g.n)}
    subdivision = {}
    leaves = {}
    edges = []
    copy_counter = {}
    for (u, w) in g.edge_list:
        key = (u, w)
        copy = copy_counter.get(key, 0)
        copy_counter[key] = copy + 1
        cuts = rng.randrange(0, 3)
        if cuts == 0:
            edges.append((u, w))
            continue
        prev = u
        for pos in range(cuts):
            subdivision[next_id] = (u, w, copy, pos)
            edges.append((prev, next_id))
            prev = next_id
            next_id += 1
        edges.append((prev, w))
    for _ in range(rng.randrange(0, 3)):
        anchor = rng.randrange(g.n)
        leaves[next_id] = anchor
        edges.append((anchor, next_id))
        next_id += 1
    refined = MultiGraph(next_id, edges)
    return refined, RefinementMap(original, subdivision, leaves)


def random_harmonic_covering(rng: random.Random, tree_size: int, degree: int):
    """Connected harmonic morphism built as a covering with merged fibers.

    Start from ``degree`` disjoint copies of a random tree glued along
    random permutations, then merge random groups inside vertex fibers;
    merging keeps harmonicity and raises m(v) above 1.
    """
    from chiptree import FiniteMorphism

    # random tree on tree_size vertices
    t_edges = [(rng.randrange(v), v) for v in range(1, tree_size)]
    t = MultiGraph(tree_size, t_edges)

    for _ in range(200):
        # group copies of each tree vertex into fiber classes
        classes = []   # (tree_vertex, set of copies)
        class_of = {}  # (tree_vertex, copy) -> class id
        for w in range(tree_size):
            copies = list(range(degree))
            rng.shuffle(copies)
            while copies:
                take = 1 if rng.random() < 0.7 else min(len(copies),
                                                        rng.randint(2, degree))
                group = copies[:take]
                copies = copies[take:]
                for c in group:
                    class_of[(w, c)] = len(classes)
                classes.append((w, frozenset(group)))
        g_edges = []
        edge_images = []
        for ti, (a, b) in enumerate(t.edge_list):
            perm = list(range(degree))
            rng.shuffle(perm)
            for s in range(degree):
                g_edges.append((class_of[(a, s)], class_of[(b, perm[s])]))
                edge_images.append(ti)
        g = MultiGraph(len(classes), g_edges)
        if not g.is_connected():
            continue
        # edge ids got re-sorted inside MultiGraph; rebuild the edge map by
        # matching sorted endpoint pairs
        want = sorted(
            ((min(u, v), max(u, v)), ti) for (u, v), ti in zip(g_edges, edge_images)
        )
        edge_map = tuple(ti for _pair, ti in want)
        assert [p for p, _ in want] == g.edge_list
        vertex_map = tuple(classes[i][0] for i in range(len(classes)))
        index = (1,) * len(edge_map)
        return g, t, FiniteMorphism(vertex_map, edge_map, index)
    raise AssertionError("could not generate a connected covering")


# one line per acceptance criterion in the terminal summary; populated by
# tests/test_acceptance.py
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {num} ({name}): {verdict}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)
