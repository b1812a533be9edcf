"""Finite harmonic morphisms to trees and the decomposition they induce.

A finite morphism maps vertices to tree vertices and edges to tree edges,
preserving incidence, with a positive index per edge.  Harmonicity means
each vertex sees the same index sum toward every tree edge at its image;
that common value m(v) and the global degree certify the morphism.  From a
harmonic morphism of degree k one reads off a tree decomposition of width
at most k by subdividing each tree edge once per fiber edge.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .errors import DomainError
from .graph import FrozenRecord, MultiGraph, Record
from .treedec import RefinementMap, TreeDecomposition, contract_refinement


class FiniteMorphism(FrozenRecord):
    """vertex_map[v] is the image tree vertex; edge_map[i] the image tree
    edge id of the i-th graph edge (ids index ``MultiGraph.edge_list``);
    index[i] the positive index of that edge."""

    __slots__ = ("vertex_map", "edge_map", "index")


class MorphismReport(Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: Optional[list[str]] = None):
        self.ok, self.violations = ok, [] if violations is None else violations


class HarmonicCertificate(FrozenRecord):
    __slots__ = ("m", "degree")   # per-vertex fiber sums, and the degree


def is_tree(t: MultiGraph) -> bool:
    return t.n >= 1 and t.num_edges == t.n - 1 and t.is_connected()


def check_morphism(g: MultiGraph, t: MultiGraph,
                   f: FiniteMorphism) -> MorphismReport:
    """Verify incidence preservation and index positivity."""
    violations = []
    if not is_tree(t):
        violations.append("codomain is not a tree")
    g_edges = g.edge_list
    t_edges = t.edge_list
    if len(f.vertex_map) != g.n:
        violations.append("vertex_map length does not match |V(G)|")
    if len(f.edge_map) != len(g_edges) or len(f.index) != len(g_edges):
        violations.append("edge_map/index length does not match |E(G)|")
    if violations:
        return MorphismReport(False, violations)
    for v, img in enumerate(f.vertex_map):
        if not 0 <= img < t.n:
            violations.append(f"vertex {v} maps outside the tree")
    for i, (u, v) in enumerate(g_edges):
        ti = f.edge_map[i]
        if not 0 <= ti < len(t_edges):
            violations.append(f"edge {i} maps to unknown tree edge {ti}")
            continue
        a, b = t_edges[ti]
        if {f.vertex_map[u], f.vertex_map[v]} != {a, b}:
            violations.append(
                f"edge {i}=({u},{v}) maps to non-incident tree edge {ti}"
            )
        if f.index[i] < 1:
            violations.append(f"edge {i} has nonpositive index {f.index[i]}")
    return MorphismReport(not violations, violations)


def harmonic_certificate(
        g: MultiGraph, t: MultiGraph,
        f: FiniteMorphism) -> tuple[Optional[HarmonicCertificate], MorphismReport]:
    """Compute per-vertex fiber sums and the degree, or locate a violation."""
    base = check_morphism(g, t, f)
    if not base.ok:
        return None, base
    if g.num_edges < 1:
        return None, MorphismReport(False, ["graph has no edges"])
    g_edges = g.edge_list
    t_edges = t.edge_list
    t_adj_edges: list[list[int]] = [[] for _ in range(t.n)]
    for i, (a, b) in enumerate(t_edges):
        t_adj_edges[a].append(i)
        t_adj_edges[b].append(i)

    # index sums at v, per incident tree edge of f(v)
    sums: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for i, (u, v) in enumerate(g_edges):
        ti = f.edge_map[i]
        sums[u][ti] = sums[u].get(ti, 0) + f.index[i]
        sums[v][ti] = sums[v].get(ti, 0) + f.index[i]

    m = []
    for v in range(g.n):
        incident = t_adj_edges[f.vertex_map[v]]
        values = {sums[v].get(ti, 0) for ti in incident}
        if len(values) > 1:
            return None, MorphismReport(
                False,
                [f"vertex {v}: unequal index sums {sorted(values)} across tree edges"],
            )
        m.append(values.pop() if values else 0)

    degrees = set()
    for w in range(t.n):
        degrees.add(sum(m[v] for v in range(g.n) if f.vertex_map[v] == w))
    for ti in range(len(t_edges)):
        degrees.add(sum(f.index[i] for i in range(len(g_edges))
                        if f.edge_map[i] == ti))
    if len(degrees) != 1:
        return None, MorphismReport(
            False, [f"fiber sums disagree across the tree: {sorted(degrees)}"]
        )
    degree = degrees.pop()
    if degree < 1:
        return None, MorphismReport(False, [f"degree {degree} is not positive"])
    return HarmonicCertificate(tuple(m), degree), MorphismReport(True, [])


def _tree_orientation(t: MultiGraph, root: int = 0) -> dict[int, tuple[int, int]]:
    """Orient each tree edge (i, j) with i the endpoint closer to the root."""
    depth = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in t.adjacency(v):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    oriented = {}
    for ti, (a, b) in enumerate(t.edge_list):
        oriented[ti] = (a, b) if depth[a] < depth[b] else (b, a)
    return oriented


def morphism_to_treedec(g: MultiGraph, t: MultiGraph, f: FiniteMorphism,
                        counter: Optional[list] = None) -> TreeDecomposition:
    """Tree decomposition of width <= deg(f) from a harmonic morphism.

    Each tree edge is subdivided once per fiber edge; the bag at an
    original tree node is the vertex fiber, and the bag chain along a
    subdivided edge walks the fiber edges from one side to the other.
    ``counter``, if given, receives one entry per elementary bag insertion
    (used to check the O(k^2 |V|) work bound).
    """
    cert, report = harmonic_certificate(g, t, f)
    if g.num_edges == 0:
        if g.n != 1:
            raise DomainError("edgeless graph must be a single vertex (connected)")
        return TreeDecomposition([frozenset({0})], [])
    if not g.is_connected():
        raise DomainError("graph must be connected")
    if cert is None:
        raise DomainError(f"morphism is not harmonic: {report.violations[0]}")
    k = cert.degree

    def insert(bag: set, v: int) -> None:
        bag.add(v)
        if counter is not None:
            counter.append(v)

    g_edges = g.edge_list
    fibers: dict[int, list[int]] = {}
    for i in range(len(g_edges)):
        fibers.setdefault(f.edge_map[i], []).append(i)
    assert all(len(fib) <= k for fib in fibers.values())

    # bag per original tree node: the vertex fiber
    bags: list[set] = []
    node_of_tree_vertex = {}
    for w in range(t.n):
        bag: set = set()
        for v in range(g.n):
            if f.vertex_map[v] == w:
                insert(bag, v)
        assert len(bag) <= k
        node_of_tree_vertex[w] = len(bags)
        bags.append(bag)

    edges: list[tuple[int, int]] = []
    oriented = _tree_orientation(t)
    for ti in sorted(fibers):
        i_end, j_end = oriented[ti]
        fiber = fibers[ti]
        # each fiber edge as (v, w) with f(v) = i_end
        vw = []
        for eid in fiber:
            u, v = g_edges[eid]
            if f.vertex_map[u] == i_end:
                vw.append((u, v, eid))
            else:
                vw.append((v, u, eid))
        vw.sort(key=lambda p: (p[0], p[1], p[2]))
        kp = len(vw)
        prev = node_of_tree_vertex[i_end]
        for r in range(1, kp + 1):
            bag = set()
            for s in range(r, kp + 1):
                insert(bag, vw[s - 1][0])
            for s in range(1, r + 1):
                insert(bag, vw[s - 1][1])
            node = len(bags)
            bags.append(bag)
            edges.append((prev, node))
            prev = node
        edges.append((prev, node_of_tree_vertex[j_end]))

    return TreeDecomposition([frozenset(b) for b in bags], edges)


def stable_treedec(g_original: MultiGraph, g_refined: MultiGraph,
                   rmap: RefinementMap, t: MultiGraph,
                   f: FiniteMorphism) -> TreeDecomposition:
    """Decomposition of the original graph via a harmonic morphism of a
    refinement: build on the refinement, then contract the refinement away."""
    td = morphism_to_treedec(g_refined, t, f)
    return contract_refinement(g_original, g_refined, td, rmap)
