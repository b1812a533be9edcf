"""Tree decompositions: validation, conversion from a search strategy,
an exact brute-force treewidth oracle, and refinement contraction."""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import BudgetError, DomainError
from .graph import (FrozenRecord, MultiGraph, Report, VertexSet, _around, _iterable,
                    _mask, _members, _require_connected, _require_int, _vertices)

if TYPE_CHECKING:
    from .strategy import MssTree


class TreeDecomposition(FrozenRecord):
    """Bags indexed 0..b-1 plus the undirected tree edges between them.

    ``masks`` holds one bitmask per bag (bit v for vertex v), the only
    storage of the bags; ``bags`` shows them as frozensets on each read.
    The fields are tuples.  The constructor checks the shape: each bag a
    collection of ints v >= 0, each tree edge a pair of ints naming bags
    in 0..b-1, and no bool; the builders' unchecked ``_of_masks`` has it.
    """

    __slots__ = ("masks", "tree_edges")

    def __init__(self, bags: Iterable[Iterable[int]], tree_edges: Iterable[tuple[int, int]]):
        masks = tuple(_mask(_iterable(bag, "bag")) for bag in _iterable(bags, "bags"))
        if min(masks, default=0) < 0:
            raise DomainError(f"bag {masks.index(-1)} holds a member that is not an int >= 0")
        edges, b = [], len(masks)
        for edge in _iterable(tree_edges, "tree_edges"):
            i, j = edge if type(edge) in (tuple, list) and len(edge) == 2 else (None, None)
            if not type(i) is type(j) is int:
                raise DomainError(f"tree edge {edge!r} is not a pair of ints")
            if not (0 <= i < b and 0 <= j < b):
                raise DomainError(f"tree edge ({i},{j}) names a bag outside 0..{b - 1}")
            edges.append((i, j))
        self._put(masks, tuple(edges))

    @classmethod
    def _of_masks(cls, masks: Iterable[int], tree_edges: Iterable[tuple[int, int]]):
        td = cls.__new__(cls)
        object.__setattr__(td, "masks", tuple(masks))
        object.__setattr__(td, "tree_edges", tuple(tree_edges))
        return td

    def __reduce__(self):
        return TreeDecomposition, (self.bags, self.tree_edges)

    @property
    def bags(self) -> list[VertexSet]:
        return list(map(_vertices, self.masks))

    @property
    def width(self) -> int:
        return max(map(int.bit_count, self.masks), default=0) - 1

    def to_dot(self, g: Optional[MultiGraph] = None) -> str:
        if g is not None and max(self.masks, default=0) >> g.n:
            raise DomainError(f"a bag holds a vertex outside 0..{g.n - 1}")
        lines = ["graph treedec {", "  node [shape=box];"]
        for i, bag in enumerate(self.masks):
            members = _members(bag)
            label = g._set_name(members) if g else ",".join(map(str, members))
            lines.append(f'  b{i} [label="{label}"];')
        for i, j in self.tree_edges:
            lines.append(f"  b{i} -- b{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def validate_treedec(g: MultiGraph, td: TreeDecomposition) -> Report:
    """Check the three decomposition conditions plus tree shape.

    A valid decomposition is confirmed on the bag masks in O(b + n + |E|)
    big-int operations (``_holds``); any other gets a naming pass
    (``_violations``) that reports every violation.  Tree edges that each
    run between a bag and one with a smaller id, one for every bag but
    bag 0, are a tree with those as the parents; any other edge list is
    oriented by a search from bag 0.
    """
    masks, edges = td.masks, td.tree_edges
    b = len(masks)
    if b == 0:
        return Report(False, ["decomposition has no bags"], -1)
    order, parent, shape = range(b), _parents_by_id(edges, b), None
    if parent is None:
        order, parent, shape = _search_from_bag_0(edges, b)
    if shape is None and _holds(g, masks, order, parent):
        return Report(True, [], td.width)
    return Report(False, _violations(g, masks, _adjacency(edges, b), shape), td.width)


def _parents_by_id(edges: tuple[tuple[int, int], ...], b: int) -> Optional[list[int]]:
    """Each bag's parent (-1 for bag 0) when the b - 1 edges hang every bag
    but bag 0 from one with a smaller id, which makes them a tree walked
    top-down by ``range(b)``; None for any other edge list."""
    if len(edges) != b - 1:
        return None
    parent = [-1] * b
    for i, j in edges:
        if i > j:
            i, j = j, i
        if i == j or parent[j] >= 0:
            return None
        parent[j] = i
    return parent


def _search_from_bag_0(edges: tuple[tuple[int, int], ...], b: int):
    """The bags a breadth-first search from bag 0 reaches, each after its
    parent, each bag's parent (-1 for bag 0 and the bags not reached), and
    what keeps the edges from being a tree (None if nothing)."""
    if len(edges) != b - 1:
        return None, None, f"{len(edges)} tree edges on {b} bags is not a tree"
    adj = _adjacency(edges, b)
    order, parent = [0], [-1] * b
    for i in order:
        for j in adj[i]:
            if j and parent[j] < 0:
                parent[j] = i
                order.append(j)
    return order, parent, None if len(order) == b else "bag tree is disconnected"


def _adjacency(edges: tuple[tuple[int, int], ...], b: int) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(b)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _holds(g: MultiGraph, masks: list[int], order: list[int], parent: list[int]) -> bool:
    """Conditions 1-3 on a bag tree walked top-down by ``order``.

    A vertex's bags induce a forest whose components are topped by the
    bags that hold it and whose parent does not: its "new" bags.  So
    condition 3 holds iff no vertex is new twice, and then the union of
    the new sets is the union of the bags (condition 1, with no vertex
    outside 0..n-1).  Once every vertex's bags form a subtree, the
    subtrees of u and w meet iff the top bag of one holds the other
    (condition 2).
    """
    n = g.n
    top = [0] * n  # per vertex, the top bag holding it
    seen = 0
    for i in order:
        bag = masks[i]
        new = bag & ~masks[parent[i]] if i else bag
        if new & seen or new >> n:
            return False
        seen |= new
        while new:
            low = new & -new
            top[low.bit_length() - 1] = bag
            new ^= low
    if seen != (1 << n) - 1:
        return False
    for u, w in g._mult:
        if not (top[u] >> w & 1 or top[w] >> u & 1):
            return False
    return True


def _violations(g: MultiGraph, masks: list[int], adj: list[list[int]],
                shape: Optional[str]) -> list[str]:
    """Every violation of the bags ``masks`` with tree adjacency ``adj``,
    named in order: tree shape, conditions 1 and 2, then condition 3 by a
    search per vertex among the bags holding it."""
    n = g.n
    violations = [] if shape is None else [shape]
    holding: list[set[int]] = [set() for _ in range(n)]
    known = (1 << n) - 1
    union = 0
    for i, bag in enumerate(masks):
        union |= bag
        for v in _members(bag & known):
            holding[v].add(i)
    missing = [v for v in range(n) if not holding[v]]
    if missing:
        violations.append(f"condition 1: vertices {missing} in no bag")
    union >>= n  # the members that name no vertex, bit 0 for member n
    if union:
        # named from the runs of nonzero bytes: bin(union) costs a byte per bit
        import re
        data = union.to_bytes(union.bit_length() + 7 >> 3, "little")
        extra = []
        for run in re.finditer(rb"[^\x00]+", data):
            base = n + 8 * run.start()
            extra += [base + v for v in _members(int.from_bytes(run[0], "little"))]
        violations.append(f"bags mention unknown vertices {extra}")
    for u, w in g._mult:
        if holding[u].isdisjoint(holding[w]):
            violations.append(f"condition 2: edge ({u},{w}) in no bag")
    for v, node_set in enumerate(holding):
        if not node_set:
            continue
        start = min(node_set)
        seen = {start}
        stack = [start]
        while stack:
            for j in adj[stack.pop()]:
                if j in node_set and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if seen != node_set:
            violations.append(f"condition 3 at vertex {v}")
    return violations


def mss_to_treedec(g: MultiGraph, tree: MssTree) -> TreeDecomposition:
    """Forget orientation and territories: the searcher sets become bags.

    Bag ids follow the preorder of the strategy tree that visits children
    in ascending order, and each edge runs from parent to child, sorted by
    their ids.  A frozen tree that ``build_mss`` returned for this same
    graph object is valid by construction; every other tree is checked
    with ``validate_mss`` first.
    """
    if tree._built_for is not g:
        # imported here: ``verify-td`` and ``morphism-td`` load no strategy code
        from .strategy import validate_mss
        report = validate_mss(g, tree, tree.searchers)
        if not report.ok:
            raise DomainError(f"invalid search strategy: {report.first().reason}")
    # bag ids in preorder, read from the parent column, which numbers each
    # node after its parent and siblings in ascending order: a child's id
    # is its parent's next free one, past its smaller siblings' subtrees
    parents, xs = tree.parents, tree.xs
    b = len(parents)
    size = [1] * b
    for c in range(b - 1, 0, -1):
        size[parents[c]] += size[c]
    ids, free = [0] * b, [1] * b
    masks, edges = [xs[0]] * b, []
    for c in range(1, b):
        p = parents[c]
        ids[c] = i = free[p]
        free[p] = i + size[c]
        free[c] = i + 1
        masks[i] = xs[c]
        edges.append((ids[p], i))
    edges.sort()  # each bag's edges to its children, bag by bag in id order
    return TreeDecomposition._of_masks(masks, edges)


def treewidth_bruteforce(g: MultiGraph, budget: int = 10) -> int:
    """Exact treewidth of the underlying simple graph.

    Hard-capped at ``budget`` vertices.  The minor-min-width lower bound
    (Bodlaender and Koster, "Treewidth computations II. Lower bounds", Inf.
    Comput. 2011) and the width of the min-degree elimination order bound
    it from both sides; where they meet that is the answer, and only
    otherwise does a dynamic program over elimination prefixes decide.
    """
    _require_int(budget, "budget")
    n = g.n
    if n > budget:
        raise BudgetError(f"treewidth oracle capped at n={budget}, got n={n}")
    if n == 0:
        raise DomainError("treewidth of the empty graph is undefined")
    nbr = g.neighbour_masks
    tw = _minor_min_width(nbr)
    if tw != max(map(int.bit_count, _eliminate(nbr)[1])):
        tw = _treewidth_dp(nbr)
    return tw


def _minor_min_width(nbr: list[int]) -> int:
    """Minor-min-width: a lower bound on the treewidth of the simple graph
    with neighbour bitmasks ``nbr``.

    Treewidth is at least the minimum degree and never grows under taking
    minors.  So record the minimum degree, contract a vertex of minimum
    degree into its neighbour of minimum degree (or delete it if it is
    isolated), and repeat; ties go to the smaller vertex.
    """
    work = list(nbr)
    alive = set(range(len(work)))
    lb = 0
    while len(alive) > 1:
        v = min(alive, key=lambda a: (work[a].bit_count(), a))
        around = work[v]
        lb = max(lb, around.bit_count())
        alive.discard(v)
        if not around:
            continue
        u = min((a for a in alive if around >> a & 1),
                key=lambda a: (work[a].bit_count(), a))
        v_bit, u_bit = 1 << v, 1 << u
        for a in alive:
            if around >> a & 1:
                work[a] = work[a] & ~v_bit | u_bit
        work[u] = (work[u] | around) & ~(u_bit | v_bit)
    return lb


def _eliminate(nbr: list[int],
               order: Optional[list[int]] = None) -> tuple[list[int], list[int]]:
    """Eliminate the vertices of the simple graph with neighbour bitmasks
    ``nbr`` in the given order, or else in the min-degree order (ties to the
    smaller vertex).  Returns the order and, per vertex in it, the mask of
    its neighbours that come later, which elimination makes a clique.  The
    largest of these, for the min-degree order, is an upper bound on the
    treewidth."""
    work = list(nbr)
    remaining = set(range(len(work)))
    pick = order is None
    order = [] if pick else order
    later = []
    while remaining:
        if pick:
            order.append(min(remaining, key=lambda a: (work[a].bit_count(), a)))
        v = order[len(later)]
        remaining.discard(v)
        around = work[v]
        later.append(around)
        v_bit = 1 << v
        for a in remaining:
            if around >> a & 1:
                work[a] = (work[a] | around) & ~(v_bit | 1 << a)
    return order, later


def _treewidth_dp(nbr: list[int]) -> int:
    """Exact treewidth of the simple graph with neighbour bitmasks ``nbr``,
    by dynamic programming over elimination prefixes in O(2^n) states."""
    n = len(nbr)
    full = (1 << n) - 1

    def back_degree(eliminated: int, v: int) -> int:
        # non-eliminated vertices other than v that v reaches through the
        # eliminated set: the neighbours of v's component in G[eliminated + v]
        comp = frontier = 1 << v
        reach = 0
        while frontier:
            grown = _around(nbr, frontier)
            reach |= grown
            frontier = grown & eliminated & ~comp
            comp |= frontier
        return (reach & ~eliminated & ~(1 << v)).bit_count()

    # best[S]: the least width of eliminating everything outside S, given
    # that S is eliminated first; supersets of S are larger integers, so a
    # descending sweep has them ready.  back_degree is skipped where the
    # rest of the order alone cannot beat the best width found so far.
    best = [0] * (full + 1)
    best[full] = -1
    for eliminated in range(full - 1, -1, -1):
        result = n
        rest = full & ~eliminated
        while rest:
            low = rest & -rest
            rest ^= low
            later = best[eliminated | low]
            if later < result:
                v = low.bit_length() - 1
                result = min(result, max(later, back_degree(eliminated, v)))
        best[eliminated] = result
    return best[0]


def treedec_by_elimination(g: MultiGraph,
                           order: Optional[Iterable[int]] = None) -> TreeDecomposition:
    """Valid (not necessarily optimal) decomposition from an elimination order.

    Defaults to the min-degree heuristic; used to produce nontrivial
    decompositions of refined graphs in tests and demos.
    """
    _require_connected(g)
    n = g.n
    if order is not None:
        order = tuple(_iterable(order, "order"))
        if any(type(v) is not int for v in order) or sorted(order) != list(range(n)):
            raise DomainError("elimination order must be a permutation of V")
    order, later = _eliminate(g.neighbour_masks, order)
    pos = {v: i for i, v in enumerate(order)}
    masks, edges = [], []
    for i, (v, mask) in enumerate(zip(order, later)):
        masks.append(mask | 1 << v)
        if mask:
            # the bag of the earliest later neighbour
            edges.append((i, min(pos[w] for w in _members(mask))))
    return TreeDecomposition._of_masks(masks, edges)


class RefinementMap(FrozenRecord):
    """How a refined graph's vertices relate to the original graph.

    ``original`` maps refined vertex ids to original vertex ids,
    ``subdivision`` maps a subdivision vertex to the original edge it sits
    on (endpoints u < w, parallel-edge copy, position along the path), and
    ``added_leaves`` maps an added leaf to its anchor (refined vertex id).

    The constructor checks the shape and keeps a read-only copy of each
    mapping: every key and image is an int >= 0 (a bool is not one), each
    subdivision image a 4-tuple of them, and no refined vertex sits in
    two tables.  ``check`` compares the map with the two graphs.
    """

    __slots__ = ("original", "subdivision", "added_leaves")

    def __init__(self, original: Mapping[int, int],
                 subdivision: Mapping[int, tuple[int, int, int, int]],
                 added_leaves: Mapping[int, int]):
        tables, seen = [], set()
        for name, table, noun, size in (
                ("original", original, "refined vertex", 1),
                ("subdivision", subdivision, "subdivision vertex", 4),
                ("added_leaves", added_leaves, "added leaf", 1)):
            if not isinstance(table, Mapping):
                raise DomainError(f"{name} must be a mapping, got {type(table).__name__}")
            checked = {}
            for v, image in table.items():
                if not (type(v) is int and v >= 0):
                    raise DomainError(f"{name} has the key {v!r}, which is not an int >= 0")
                ints = tuple(image) if size > 1 and type(image) in (tuple, list) else (image,)
                if len(ints) != size or not all(type(i) is int and i >= 0 for i in ints):
                    want = "an int >= 0" if size == 1 else f"a {size}-tuple of ints >= 0"
                    raise DomainError(f"{noun} {v} maps to {image!r}, which is not {want}")
                checked[v] = ints if size > 1 else image
            twice = seen & checked.keys()
            if twice:
                raise DomainError(f"refined vertex {min(twice)} sits in two tables")
            seen |= checked.keys()
            tables.append(MappingProxyType(checked))
        self._put(*tables)

    def __hash__(self):
        return hash(tuple(frozenset(table.items()) for table in self._values()))

    def __reduce__(self):
        return RefinementMap, tuple(map(dict, self._values()))

    @staticmethod
    def identity(n: int) -> "RefinementMap":
        _require_int(n, "n", 0)
        return RefinementMap({v: v for v in range(n)}, {}, {})

    def check(self, g_original: MultiGraph, g_refined: MultiGraph) -> None:
        """Raise ``DomainError`` unless g_refined is the refinement of
        g_original that this map describes, edge by edge.

        An original edge (u, w) of multiplicity m stands for m copies,
        numbered 0..m-1.  Each copy is one refined edge, or, if subdivided,
        the path from u through its subdivision vertices in order of
        position to w.  Each added leaf hangs from its anchor by one edge.
        """
        original, subdivision, leaves = self.original, self.subdivision, self.added_leaves
        # the constructor put no refined vertex in two tables
        if original.keys() | subdivision.keys() | leaves.keys() != set(range(g_refined.n)):
            raise DomainError("refinement map does not classify every refined "
                              "vertex exactly once")
        if len(original) != g_original.n or \
                sorted(original.values()) != list(range(g_original.n)):
            raise DomainError("original vertices must biject with V(G)")
        n = g_original.n
        paths: dict[tuple[int, int, int], dict[int, int]] = {}
        for v, (u, w, copy, pos) in subdivision.items():
            if not 0 <= u < w < n:
                raise DomainError(f"subdivision vertex {v} sits on edge ({u},{w}), "
                                  f"which needs 0 <= u < w < {n}")
            m = g_original.multiplicity(u, w)
            if not 0 <= copy < m:
                raise DomainError(f"subdivision vertex {v} sits on copy {copy} of "
                                  f"edge ({u},{w}), which has multiplicity {m}")
            if paths.setdefault((u, w, copy), {}).setdefault(pos, v) != v:
                raise DomainError(f"subdivision vertex {v} repeats position {pos} "
                                  f"on copy {copy} of edge ({u},{w})")

        expected: dict[tuple[int, int], int] = {}

        def add(a: int, b: int, m: int = 1) -> None:
            edge = (a, b) if a < b else (b, a)
            expected[edge] = expected.get(edge, 0) + m

        at = {o: v for v, o in original.items()}
        for (u, w), m in g_original._mult.items():
            copies = [paths.get((u, w, copy)) for copy in range(m)]
            whole = copies.count(None)
            if whole:
                add(at[u], at[w], whole)
            for path in filter(None, copies):
                chain = [at[u], *(path[pos] for pos in sorted(path)), at[w]]
                for a, b in zip(chain, chain[1:]):
                    add(a, b)
        for leaf, anchor in leaves.items():
            add(leaf, anchor)
        for edge in sorted(expected.keys() | g_refined._mult.keys()):
            want, got = expected.get(edge, 0), g_refined._mult.get(edge, 0)
            if want != got:
                raise DomainError(f"the refined graph has {got} edges {edge}, "
                                  f"where the refinement map describes {want}")

    def collapse(self, v: int) -> Optional[int]:
        """Original vertex standing in for refined vertex v, or None for leaves."""
        if v in self.original:
            return self.original[v]
        if v in self.subdivision:
            u, _w, _copy, _pos = self.subdivision[v]
            return u
        return None


def contract_refinement(g_original: MultiGraph, g_refined: MultiGraph,
                        td: TreeDecomposition,
                        rmap: RefinementMap) -> TreeDecomposition:
    """Turn a decomposition of a refinement into one of the original graph.

    Subdivision vertices are replaced by an endpoint of their edge; added
    leaves are simply dropped from all bags.  Width never increases.
    """
    rmap.check(g_original, g_refined)
    report = validate_treedec(g_refined, td)
    if not report.ok:
        raise DomainError(f"invalid decomposition of the refinement: {report.violations[0]}")
    return _contract(td, rmap)


def _contract(td: TreeDecomposition, rmap: RefinementMap) -> TreeDecomposition:
    """Unchecked kernel of ``contract_refinement``: the caller has checked
    the map and knows td is a valid decomposition of the refinement."""
    masks = []
    for bag in td.masks:
        images = map(rmap.collapse, _members(bag))
        masks.append(_mask(c for c in images if c is not None))
    return TreeDecomposition._of_masks(masks, td.tree_edges)
