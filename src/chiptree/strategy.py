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

from .divisors import Divisor, _burn, _fire, _require_vertices
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

    The nodes are stored as columns, one list each of searcher sets,
    territories, moves, parents and children lists.  ``nodes`` builds the
    ``MssNode`` records from them on first read and keeps them; a tree made
    from records keeps those.  Equality, hash, repr and pickle go through
    ``nodes``.  ``_built_for`` is the
    graph ``build_mss`` built the tree for, and None on every tree made any
    other way, copies and unpickled trees included.
    """

    __slots__ = ("searchers", "_xs", "_rs", "_moves", "_parents", "_children",
                 "_nodes", "_built_for")
    _fields = ("nodes", "searchers")

    def __init__(self, nodes: Iterable[MssNode], searchers: int):
        nodes = tuple(nodes)
        positions = [node.position for node in nodes]
        self._fill(searchers,
                   [p.searchers for p in positions],
                   [p.territory for p in positions],
                   [node.move for node in nodes],
                   [node.parent for node in nodes],
                   [node.children for node in nodes],
                   nodes, None)

    def _fill(self, *values) -> None:
        """Set every slot, the values in ``__slots__`` order."""
        for put, value in zip(self._setters, values):
            put(self, value)

    @property
    def nodes(self) -> tuple[MssNode, ...]:
        if self._nodes is None:
            positions = map(Position, self._xs, self._rs)
            nodes = tuple(map(MssNode, positions, self._moves, self._parents,
                              self._children))
            object.__setattr__(self, "_nodes", nodes)
        return self._nodes

    @property
    def root(self) -> int:
        return 0

    def max_searchers_used(self) -> int:
        return max(map(len, self._xs))

    def to_dot(self, g: MultiGraph) -> str:
        lines = ["digraph mss {", "  node [shape=record];"]
        for i, (x, r) in enumerate(zip(self._xs, self._rs)):
            lines.append(
                f'  n{i} [label="{g.set_name(x)} | {g.set_name(r)}"];'
            )
        for i, kids in enumerate(self._children):
            for c in kids:
                tag = STEP_LABEL.get(self._moves[c], "")
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

    Repeatedly burns from the smallest vertex of r, firing the unburnt set
    U once while it stays disjoint from X.  As in ``divisors._reduce``, U
    is read from the burn's ``room`` and fired in the same loop, and it is
    built as a set only on the round that returns it.  Termination within
    deg(d) * n rounds follows from the distance-decrease argument.
    """
    q = min(r)
    n = len(chips)
    bound = max(1, sum(chips) * n)
    for _ in range(bound + 1):
        room, burnt = _burn(adj, chips, q)
        if burnt == n:
            raise InternalError(
                "Dhar returned the empty set during good_firing_set; "
                "the divisor does not have positive rank"
            )
        for s in x:
            if room[s] >= 0:
                u = {v for v, left in enumerate(room) if left >= 0}
                if not u.isdisjoint(r):
                    raise InternalError("fireable set meets the territory flap")
                return u
        # fire U once: v in U sends a chip along each edge into the fire
        # and is left with room(v)
        for v, left in enumerate(room):
            if left >= 0:
                chips[v] = left
                for w, m in adj[v]:
                    if room[w] < 0:
                        chips[w] += m
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

    adj = g._adj
    everything = frozenset(range(g.n))
    supp = d.support
    # the tree's columns: the root (empty, V), then its child (supp(D), V - supp(D))
    xs = [frozenset(), supp]
    rs = [everything, everything - supp]
    moves = [ROOT, GROW]
    parents: list[Optional[int]] = [None, 0]
    children: list[list[int]] = [[1], []]

    def add_node(parent: int, x: VertexSet, r: VertexSet, move: str) -> int:
        idx = len(xs)
        xs.append(x)
        rs.append(r)
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
    if rs[1]:
        pending.append((1, d.chips, 1))

    rounds = 0
    max_rounds = g.n * g.n + 1
    while pending:
        rounds += 1
        if rounds > max_rounds:
            raise InternalError("construction exceeded the n^2 node bound")
        i, chips_cur, step = pending.popleft()
        x, r = xs[i], rs[i]

        if step == 1:
            flaps = g.flaps_within(x, r)
            if len(flaps) >= 2:
                # step I: split the territory into its flaps
                if trace is not None:
                    trace.append(("I", Position(x, r), flaps))
                for flap in flaps:
                    pending.append((add_node(i, x, flap, SPLIT), chips_cur, 2))
                continue

        if step <= 2:
            nr = g.neighborhood(r)
            if nr < x:
                # step II: retract searchers not bordering the territory
                if trace is not None:
                    trace.append(("II", Position(x, r), nr))
                pending.append((add_node(i, nr, r, SHRINK), chips_cur, 3))
                continue

        # step III: N(R) = X and R is a single flap; advance along a firing set
        chips = list(chips_cur)
        u = _good_firing_set(adj, chips, x, r)
        if trace is not None:
            trace.append(("III", Position(x, r),
                          (Divisor(tuple(chips)), frozenset(u))))
        # each mover s first grows X onto its neighbours in R, then leaves;
        # prev_r is always R - prev_x, so a grow that adds no vertex is no move
        prev_x, prev_r = x, r
        parent = i
        for s in sorted(u & x):
            xi = prev_x | g.neighbors_in(s, r)
            if len(xi) > len(prev_x):
                prev_r = r - xi
                parent = add_node(parent, xi, prev_r, GROW)
            prev_x = xi - {s}
            parent = add_node(parent, prev_x, prev_r, SHRINK)
        _fire(adj, chips, u)
        if prev_r:
            pending.append((parent, tuple(chips), 1))

    tree = object.__new__(MssTree)
    tree._fill(d.degree + 1, xs, rs, moves, parents, children, None, g)
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
    xs, rs, kids_of = tree._xs, tree._rs, tree._children
    size = len(xs)
    if not size:
        return MssReport(False, [MssViolation(None, "empty tree")])

    # before any check reads a node, walk from the root: every child index
    # names a node, no node is reached twice and every node is reached;
    # the walk also learns each node's parent
    walk, parent_of = [0], [None] * size
    for i in walk:
        for c in kids_of[i]:
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

    if xs[0] or rs[0] != everything:
        bad(0, "root is not (empty, V)")
    if size > n * n + 1:
        bad(None, f"tree has {size} nodes, above the n^2+1 bound")

    for i, (x, r, kids, parent) in enumerate(zip(xs, rs, kids_of, tree._parents)):
        if parent != parent_of[i]:
            bad(i, f"parent field is {parent!r}, not {parent_of[i]!r}")
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

        if not kids:
            if r:
                bad(i, "incomplete leaf (territory nonempty)")
            continue

        if len(kids) == 1:
            cx, cr = xs[kids[0]], rs[kids[0]]
            if cx < x and cr == r:
                pass  # case (a): shrink
            elif cx > x and cx <= x | r and cr == r - cx:
                pass  # case (b): grow
            else:
                bad(i, "single child matches neither shrink nor grow")
        else:
            child_rs = [rs[c] for c in kids]
            if any(xs[c] != x for c in kids):
                bad(i, "split children must keep the same searchers")
            elif set(child_rs) != set(flaps) or len(child_rs) != len(flaps):
                bad(i, "split children are not exactly the X-flaps of R")
            elif len(kids) < 2:
                bad(i, "split with fewer than two children")

    return MssReport(not violations, violations)
