"""Monotone search strategies and their construction from a divisor.

A strategy is a rooted tree of positions (X, R): searcher locations X and
remaining fugitive territory R.  Given a positive-rank effective divisor of
degree k, ``build_mss`` produces a complete strategy for k+1 searchers by
repeatedly splitting territory into flaps, retracting unneeded searchers,
and advancing into the territory along a fireable set.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .divisors import Divisor, _dhar, _fire, _require_vertices
from .errors import DomainError, GraphError, InternalError
from .gonality import has_positive_rank
from .graph import FrozenRecord, MultiGraph, Record, VertexSet

SPLIT = "split"    # case (c), construction step I
SHRINK = "shrink"  # case (a), construction step II
GROW = "grow"      # case (b), construction step III
LEAF = "leaf"
ROOT = "root"

STEP_LABEL = {SPLIT: "I", SHRINK: "II", GROW: "III"}


class Position(FrozenRecord):
    __slots__ = ("searchers", "territory")   # X and R

    def __init__(self, searchers: VertexSet, territory: VertexSet):
        set_searchers, set_territory = self._setters
        set_searchers(self, searchers)
        set_territory(self, territory)

    def label(self, g: MultiGraph) -> str:
        return f"{g.set_name(self.searchers)} | {g.set_name(self.territory)}"


class MssNode(FrozenRecord):
    __slots__ = ("position", "move", "parent", "children")

    def __init__(self, position: Position, move: str = LEAF,
                 parent: Optional[int] = None, children: Iterable[int] = ()):
        set_position, set_move, set_parent, set_children = self._setters
        set_position(self, position)
        set_move(self, move)
        set_parent(self, parent)
        set_children(self, tuple(children))


class MssTree(FrozenRecord):
    """Rooted strategy tree; node 0 is the root (empty X, full territory).

    ``_built_for`` is the graph ``build_mss`` built the tree for, and None
    on every tree made any other way, copies and unpickled trees included.
    """

    __slots__ = ("nodes", "searchers", "_built_for")

    def __init__(self, nodes: Iterable[MssNode], searchers: int):
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "searchers", searchers)
        object.__setattr__(self, "_built_for", None)

    @property
    def root(self) -> int:
        return 0

    def max_searchers_used(self) -> int:
        return max(len(node.position.searchers) for node in self.nodes)

    def to_dot(self, g: MultiGraph) -> str:
        lines = ["digraph mss {", "  node [shape=record];"]
        for i, node in enumerate(self.nodes):
            x, r = node.position.searchers, node.position.territory
            lines.append(
                f'  n{i} [label="{g.set_name(x)} | {g.set_name(r)}"];'
            )
        for i, node in enumerate(self.nodes):
            for c in node.children:
                tag = STEP_LABEL.get(self.nodes[c].move, "")
                attr = f' [label="{tag}"]' if tag else ""
                lines.append(f"  n{i} -> n{c}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class MssViolation(Record):
    __slots__ = ("node", "reason")


class MssReport(Record):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: list[MssViolation]):
        self.ok, self.violations = ok, violations

    def first(self) -> Optional[MssViolation]:
        return self.violations[0] if self.violations else None


def good_firing_set(g: MultiGraph, d: Divisor, x: VertexSet,
                    r: VertexSet) -> tuple[Divisor, VertexSet]:
    """Find d'' ~ d and a fireable set meeting X but avoiding the flap r."""
    if not r:
        raise DomainError("territory flap must be nonempty")
    _require_vertices(g, x, "searcher")
    _require_vertices(g, r, "territory vertex")
    if not has_positive_rank(g, d):  # also checks d and connectivity
        raise DomainError("divisor does not have positive rank")
    chips = list(d.chips)
    u = _good_firing_set(g._adj, chips, x, r)
    return Divisor(tuple(chips)), frozenset(u)


def _good_firing_set(adj: list[tuple[tuple[int, int], ...]], chips: list[int],
                     x: VertexSet, r: VertexSet) -> set[int]:
    """Unchecked kernel of ``good_firing_set``: advance chips in place to d''
    and return its fireable set U.

    Repeatedly runs Dhar's algorithm at the smallest vertex of r, firing
    the result once while it stays disjoint from X.  Termination within
    deg(d) * n rounds follows from the distance-decrease argument.
    """
    q = min(r)
    bound = max(1, sum(chips) * len(chips))
    for _ in range(bound + 1):
        u = _dhar(adj, chips, q)
        if not u:
            raise InternalError(
                "Dhar returned the empty set during good_firing_set; "
                "the divisor does not have positive rank"
            )
        if u & x:
            if u & r:
                raise InternalError("fireable set meets the territory flap")
            return u
        _fire(adj, chips, u, 1)
    raise InternalError(
        f"good_firing_set did not finish within {bound} iterations"
    )


def build_mss(g: MultiGraph, d: Divisor, trace=None) -> MssTree:
    """Construct a complete monotone search strategy for deg(d)+1 searchers.

    ``trace``, if given, collects (step, position, detail) tuples describing
    the construction for auditing.  The rank test is the one input check;
    the loop then runs the unchecked ``_good_firing_set`` kernel.
    """
    if not has_positive_rank(g, d):
        raise DomainError("divisor does not have positive rank")

    k = d.degree
    everything = frozenset(range(g.n))
    supp = d.support
    first = Position(supp, everything - supp)

    # node fields as plain lists; each MssNode is made once, at the end
    positions = [Position(frozenset(), everything)]
    moves = [ROOT]
    parents: list[Optional[int]] = [None]
    children: list[list[int]] = [[]]

    def add_node(parent: int, pos: Position, move: str) -> int:
        idx = len(positions)
        positions.append(pos)
        moves.append(move)
        parents.append(parent)
        children.append([])
        children[parent].append(idx)
        return idx

    # open positions with the chips of an effective D, X <= supp(D) and R
    # disjoint from supp(D), and the first construction step that may
    # apply; tuples, so that split siblings can share them.  A split child's
    # R is one X-flap, so step I cannot apply to it; a step-II child's R is
    # one flap of G - N(R) and its X is N(R), so it goes straight to step III.
    pending: deque[tuple[int, tuple[int, ...], int]] = deque()
    first_idx = add_node(0, first, GROW)
    if first.territory:
        pending.append((first_idx, d.chips, 1))

    rounds = 0
    max_rounds = g.n * g.n + 1
    while pending:
        rounds += 1
        if rounds > max_rounds:
            raise InternalError("construction exceeded the n^2 node bound")
        i, chips_cur, step = pending.popleft()
        pos = positions[i]
        x, r = pos.searchers, pos.territory

        if step == 1:
            flaps = g.flaps_within(x, r)
            if len(flaps) >= 2:
                # step I: split the territory into its flaps
                if trace is not None:
                    trace.append(("I", pos, flaps))
                for flap in flaps:
                    child = add_node(i, Position(x, flap), SPLIT)
                    pending.append((child, chips_cur, 2))
                continue

        if step <= 2:
            nr = g.neighborhood(r)
            if nr < x:
                # step II: retract searchers not bordering the territory
                if trace is not None:
                    trace.append(("II", pos, nr))
                child = add_node(i, Position(nr, r), SHRINK)
                pending.append((child, chips_cur, 3))
                continue

        # step III: N(R) = X and R is a single flap; advance along a firing set
        chips = list(chips_cur)
        u = _good_firing_set(g._adj, chips, x, r)
        if trace is not None:
            trace.append(("III", pos, (Divisor(tuple(chips)), frozenset(u))))
        movers = sorted(u & x)
        prev_x, prev_r = x, r
        parent = i
        for s in movers:
            xi = prev_x | (g.neighbors_in(s, r))
            ri = r - xi
            if (xi, ri) != (prev_x, prev_r):
                parent = add_node(parent, Position(xi, ri), GROW)
            xi_prime = xi - {s}
            parent = add_node(parent, Position(xi_prime, ri), SHRINK)
            prev_x, prev_r = xi_prime, ri
        _fire(g._adj, chips, u, 1)
        if prev_r:
            pending.append((parent, tuple(chips), 1))

    tree = MssTree(map(MssNode, positions, moves, parents, children), k + 1)
    object.__setattr__(tree, "_built_for", g)
    return tree


def validate_mss(g: MultiGraph, tree: MssTree, k: int) -> MssReport:
    """Check the defining clauses of a monotone search strategy.

    Trailing shrink moves with empty territory are accepted: the
    construction emits them after capture (see the worked golden trace).
    """
    violations: list[MssViolation] = []

    def bad(node, reason):
        violations.append(MssViolation(node, reason))

    n = g.n
    everything = frozenset(range(n))
    if not tree.nodes:
        return MssReport(False, [MssViolation(None, "empty tree")])

    # before any check reads a node, walk from the root: every child index
    # names a node, no node is reached twice and every node is reached;
    # the walk also learns each node's parent
    size = len(tree.nodes)
    walk, parent_of = [0], [None] * size
    for i in walk:
        for c in tree.nodes[i].children:
            if not (isinstance(c, int) and 0 <= c < size):
                bad(i, f"child {c!r} names a node outside 0..{size - 1}")
            elif c == 0 or parent_of[c] is not None:
                bad(i, f"child {c} is already in the tree")
            else:
                parent_of[c] = i
                walk.append(c)
    if len(walk) < size:
        unreached = [i for i in range(1, size) if parent_of[i] is None]
        bad(None, f"nodes {unreached} are not reachable from the root")
    if violations:
        return MssReport(False, violations)

    root = tree.nodes[0].position
    if root.searchers or root.territory != everything:
        bad(0, "root is not (empty, V)")
    if size > n * n + 1:
        bad(None, f"tree has {size} nodes, above the n^2+1 bound")

    for i, node in enumerate(tree.nodes):
        if node.parent != parent_of[i]:
            bad(i, f"parent field is {node.parent!r}, not {parent_of[i]!r}")
        x, r = node.position.searchers, node.position.territory
        if not x.isdisjoint(r):
            bad(i, "searchers and territory overlap")
        if len(x) > k:
            bad(i, f"|X|={len(x)} exceeds {k} searchers")
        try:
            # an empty territory, as after capture, has no flaps
            flaps = g.flaps_within(x, r) if r else []
        except GraphError:
            bad(i, "territory is not a union of X-flaps")
            continue

        if not node.children:
            if r:
                bad(i, "incomplete leaf (territory nonempty)")
            continue

        kids = [tree.nodes[c].position for c in node.children]
        if len(kids) == 1:
            (child,) = kids
            cx, cr = child.searchers, child.territory
            if cx < x and cr == r:
                pass  # case (a): shrink
            elif cx > x and cx <= x | r and cr == r - cx:
                pass  # case (b): grow
            else:
                bad(i, "single child matches neither shrink nor grow")
        else:
            child_rs = [c.territory for c in kids]
            if any(c.searchers != x for c in kids):
                bad(i, "split children must keep the same searchers")
            elif set(child_rs) != set(flaps) or len(child_rs) != len(flaps):
                bad(i, "split children are not exactly the X-flaps of R")
            elif len(kids) < 2:
                bad(i, "split with fewer than two children")

    return MssReport(not violations, violations)
