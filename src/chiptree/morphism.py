"""Finite harmonic morphisms to trees and the decomposition they induce.

A finite morphism maps vertices to tree vertices and edges to tree edges,
preserving incidence, with a positive index per edge.  Harmonicity means
each vertex sees the same index sum toward every tree edge at its image;
that common value m(v) and the global degree certify the morphism.  From a
harmonic morphism of degree k one reads off a tree decomposition of width
at most k by subdividing each tree edge once per fiber edge.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import DomainError, InternalError
from .graph import FrozenRecord, MultiGraph, Report, _int_tuple, _mask, _require_connected
from .treedec import RefinementMap, TreeDecomposition, _contract


class FiniteMorphism(FrozenRecord):
    """vertex_map[v] is the image tree vertex; edge_map[i] the image tree
    edge id of the i-th graph edge (ids index ``MultiGraph.edge_list``);
    index[i] the positive index of that edge.

    The constructor checks the shape: each field a collection of ints (a
    bool is not one), stored as a tuple, with images and edge ids >= 0
    and indices >= 1.  ``check_morphism`` checks the fields against G and T.
    """

    __slots__ = ("vertex_map", "edge_map", "index")

    def __init__(self, vertex_map: Iterable[int], edge_map: Iterable[int],
                 index: Iterable[int]):
        self._put(_int_tuple(vertex_map, "vertex_map", 0),
                  _int_tuple(edge_map, "edge_map", 0), _int_tuple(index, "index", 1))


class HarmonicCertificate(FrozenRecord):
    __slots__ = ("m", "degree")   # per-vertex fiber sums, and the degree


def is_tree(t: MultiGraph) -> bool:
    return t.n >= 1 and t.num_edges == t.n - 1 and t.is_connected()


def check_morphism(g: MultiGraph, t: MultiGraph,
                   f: FiniteMorphism) -> Report:
    """Verify that f maps G into the tree T and preserves incidence; f's
    constructor has checked that its entries are ints and its indices
    positive."""
    violations = []
    if not is_tree(t):
        violations.append("codomain is not a tree")
    g_edges, t_edges = g._edges, t._edges
    if len(f.vertex_map) != g.n:
        violations.append("vertex_map length does not match |V(G)|")
    if len(f.edge_map) != len(g_edges) or len(f.index) != len(g_edges):
        violations.append("edge_map/index length does not match |E(G)|")
    if violations:
        return Report(False, violations)
    for v, img in enumerate(f.vertex_map):
        if img >= t.n:
            violations.append(f"vertex {v} maps outside the tree")
    for i, ((u, v), ti) in enumerate(zip(g_edges, f.edge_map)):
        if ti >= len(t_edges):
            violations.append(f"edge {i} maps to unknown tree edge {ti}")
            continue
        a, b = t_edges[ti]
        if {f.vertex_map[u], f.vertex_map[v]} != {a, b}:
            violations.append(
                f"edge {i}=({u},{v}) maps to non-incident tree edge {ti}"
            )
    return Report(not violations, violations)


def harmonic_certificate(
        g: MultiGraph, t: MultiGraph,
        f: FiniteMorphism) -> tuple[Optional[HarmonicCertificate], Report]:
    """Compute per-vertex fiber sums and the degree, or locate a violation.

    Two passes over E(G) and one over V(G): the time is linear in
    |V| + |E| + |T|.
    """
    base = check_morphism(g, t, f)
    if not base.ok:
        return None, base
    g_edges = g._edges
    if not g_edges:
        return None, Report(False, ["graph has no edges"])

    # index sums at v, per incident tree edge of f(v)
    sums: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for (u, v), ti, idx in zip(g_edges, f.edge_map, f.index):
        sums[u][ti] = sums[u].get(ti, 0) + idx
        sums[v][ti] = sums[v].get(ti, 0) + idx

    # incidence holds, so the tree edges at f(v) that v's edges miss see 0;
    # f(v) has at least one tree edge, so values is never empty
    m = []
    for v, w in enumerate(f.vertex_map):
        values = set(sums[v].values())
        if len(sums[v]) < len(t._adj[w]):
            values.add(0)
        if len(values) > 1:
            return None, Report(
                False,
                [f"vertex {v}: unequal index sums {sorted(values)} across tree edges"],
            )
        m.append(values.pop())

    # each edge into tree edge e has one end in the fiber of either end of
    # e, so the m-sum over either fiber is the index sum over e's fiber; the
    # tree is connected, so every such sum is one degree, positive because
    # some edge has a positive index.  It is read at tree edge 0.
    degree = sum(idx for ti, idx in zip(f.edge_map, f.index) if ti == 0)
    return HarmonicCertificate(tuple(m), degree), Report(True, [])


def morphism_to_treedec(g: MultiGraph, t: MultiGraph, f: FiniteMorphism,
                        counter: Optional[list] = None) -> TreeDecomposition:
    """Tree decomposition of width <= deg(f) from a harmonic morphism.

    Each tree edge is subdivided once per fiber edge; bag w, at original
    tree node w, is the vertex fiber, and the bag chain along a
    subdivided edge walks the fiber edges from one side to the other.
    ``counter``, if given, receives one entry per elementary bag insertion
    (used to check the O(k^2 |V|) work bound).
    """
    cert, report = harmonic_certificate(g, t, f)
    g_edges = g._edges
    if not g_edges:
        if g.n != 1:
            raise DomainError("edgeless graph must be a single vertex (connected)")
        return TreeDecomposition._of_masks([1], [])
    _require_connected(g)
    if cert is None:
        raise DomainError(f"morphism is not harmonic: {report.violations[0]}")
    k = cert.degree
    vertex_map = f.vertex_map

    masks = [0] * t.n
    for v, w in enumerate(vertex_map):
        masks[w] |= 1 << v
    if max(map(int.bit_count, masks)) > k:
        raise InternalError(f"a vertex fiber holds more than deg(f) = {k} vertices")
    if counter is not None:
        counter.extend(range(g.n))

    # tree depths from root 0, one BFS over the tree
    depth = [-1] * t.n
    depth[0] = 0
    order = [0]
    for a in order:
        for b, _ in t._adj[a]:
            if depth[b] < 0:
                depth[b] = depth[a] + 1
                order.append(b)

    # each fiber edge as (near, far, edge id), near mapping closer to the root
    fibers: list[list[tuple[int, int, int]]] = [[] for _ in range(t.n - 1)]
    for eid, ((u, v), ti) in enumerate(zip(g_edges, f.edge_map)):
        if depth[vertex_map[u]] > depth[vertex_map[v]]:
            u, v = v, u
        fibers[ti].append((u, v, eid))

    # the certificate makes every fiber non-empty
    edges: list[tuple[int, int]] = []
    for fiber in fibers:
        if len(fiber) > k:
            raise InternalError(f"an edge fiber holds more than deg(f) = {k} edges")
        fiber.sort()
        near = [p[0] for p in fiber]
        far = [p[1] for p in fiber]
        prev = vertex_map[near[0]]
        for r in range(1, len(fiber) + 1):
            chain = near[r - 1:] + far[:r]
            if counter is not None:
                counter.extend(chain)
            edges.append((prev, len(masks)))
            prev = len(masks)
            masks.append(_mask(chain))
        edges.append((prev, vertex_map[far[0]]))

    return TreeDecomposition._of_masks(masks, edges)


def stable_treedec(g_original: MultiGraph, g_refined: MultiGraph,
                   rmap: RefinementMap, t: MultiGraph,
                   f: FiniteMorphism) -> TreeDecomposition:
    """Decomposition of the original graph via a harmonic morphism of a
    refinement: build on the refinement, then contract the refinement away.

    The decomposition ``morphism_to_treedec`` builds is valid by
    construction, so only the refinement map is checked before contracting.
    """
    td = morphism_to_treedec(g_refined, t, f)
    rmap.check(g_original, g_refined)
    return _contract(td, rmap)
