"""Monotone search strategies and their construction from a divisor.

A strategy is a rooted tree of positions (X, R): searcher locations X and
remaining fugitive territory R.  Given a positive-rank effective divisor of
degree k, ``build_mss`` produces a complete strategy for k+1 searchers by
repeatedly splitting territory into flaps, retracting unneeded searchers,
and advancing into the territory along a fireable set.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Iterable, Iterator, Optional

from .divisors import Divisor, _burn, _fire_unburnt
from .errors import DomainError, InternalError
from .gonality import has_positive_rank
from .graph import (FrozenRecord, MultiGraph, Record, Report, VertexSet, _around, _components,
                    _digits, _iterable, _mask, _require_int, _vertex_set, _vertices)

SPLIT = "split"    # case (c), construction step I
SHRINK = "shrink"  # case (a), construction step II
GROW = "grow"      # case (b), construction step III
ROOT = "root"

STEP_LABEL = {SPLIT: "I", SHRINK: "II", GROW: "III"}


class Position(FrozenRecord):
    __slots__ = ("searchers", "territory")   # X and R

    def label(self, g: MultiGraph) -> str:
        return f"{g.set_name(self.searchers)} | {g.set_name(self.territory)}"


class MssNode(FrozenRecord):
    __slots__ = ("position", "move", "parent", "children")


class MssTree(FrozenRecord):
    """Rooted strategy tree; node 0 is the root (empty X, full territory).

    The fields are the columns, one tuple each of the nodes' searcher sets
    and territories, both as bitmasks (bit v for vertex v), and parents;
    they are the tree's only storage.  ``children``, ``moves`` and
    ``nodes`` (``MssNode`` records) are read from them on each read.
    ``_built_for`` is the graph ``build_mss`` built the tree for, and None
    on every tree made any other way, copies and unpickled trees included.
    The constructor checks the shape, which every reader relies on: the
    columns are non-empty and of one length, each node but the root hangs
    from one numbered before it, and each mask is an int >= 0, not a bool.
    """

    __slots__ = ("searchers", "xs", "territories", "parents", "_built_for")

    def __init__(self, searchers: int, xs: Iterable[int],
                 territories: Iterable[int], parents: Iterable[Optional[int]]):
        _require_int(searchers, "searchers", 0)
        xs, territories, parents = (tuple(_iterable(xs, "xs")),
                                    tuple(_iterable(territories, "territories")),
                                    tuple(_iterable(parents, "parents")))
        lengths = [len(xs), len(territories), len(parents)]
        if not xs or len(set(lengths)) > 1:
            raise DomainError(f"columns have lengths {lengths}")
        if parents[0] is not None:
            raise DomainError(f"root has parent {parents[0]!r}")
        for i, p in enumerate(parents[1:], 1):
            if not (type(p) is int and 0 <= p < i):
                raise DomainError(f"parent {p!r} is not a node numbered before {i}")
        masks = xs + territories
        if not all(type(m) is int for m in masks) or min(masks) < 0:
            raise DomainError("a searcher or territory entry is not a vertex mask")
        self._put(searchers, xs, territories, parents, None)

    @classmethod
    def _built(cls, g: MultiGraph, searchers: int, xs: list[int],
               territories: list[int], parents: list[Optional[int]]) -> "MssTree":
        """The tree ``build_mss`` made for g, unchecked: it has the shape."""
        tree = cls.__new__(cls)
        tree._put(searchers, tuple(xs), tuple(territories), tuple(parents), g)
        return tree

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children, in ascending order."""
        kids: list[list[int]] = [[] for _ in self.parents]
        for c, p in enumerate(self.parents[1:], 1):
            kids[p].append(c)
        return tuple(map(tuple, kids))

    @property
    def moves(self) -> tuple[str, ...]:
        """Each node's move: ``root`` for the root, ``split`` for a child
        with siblings, ``shrink`` (case (a)) for an only child whose X is a
        proper submask of its parent's and ``grow`` (case (b)) otherwise."""
        xs, moves = self.xs, [ROOT] * len(self.xs)
        for p, kids in enumerate(self.children):
            for c in kids:
                x, px = xs[c], xs[p]
                moves[c] = (SPLIT if len(kids) > 1 else
                            SHRINK if x != px and not x & ~px else GROW)
        return tuple(moves)

    @property
    def nodes(self) -> tuple[MssNode, ...]:
        positions = (Position(frozenset(x), frozenset(r)) for x, r in self._sets())
        return tuple(map(MssNode, positions, self.moves, self.parents, self.children))

    def max_searchers_used(self) -> int:
        return max(map(int.bit_count, self.xs))

    def _sets(self, n: Optional[int] = None) -> Iterator[tuple[Iterable[int], Iterable[int]]]:
        """Each node's X and R, read from their masks one node at a time,
        with one int object per vertex for the whole tree.  Raises
        ``DomainError`` for an entry with a vertex at n or above, given n."""
        columns = (self.xs, self.territories)
        top = max(self.xs + self.territories)
        if n is not None and top >> n:
            raise DomainError("a searcher or territory entry is not a vertex mask")
        vertex = list(range(top.bit_length()))
        return zip(*((compress(vertex, _digits(m)) for m in column)
                     for column in columns))

    def _labels(self, g: MultiGraph) -> Iterator[str]:
        """Each node's "X | R" label; the mask bound is checked on the call."""
        return (f"{g._set_name(x)} | {g._set_name(r)}" for x, r in self._sets(g.n))

    def to_text(self, g: MultiGraph) -> str:
        """The searcher count, then per node its parent, move and label."""
        lines = [f"searchers: {self.searchers}"]
        for i, (label, parent, move) in enumerate(
                zip(self._labels(g), self.parents, self.moves)):
            parent = "-" if parent is None else parent
            lines.append(f"node {i} parent {parent} {move} ({label})")
        return "\n".join(lines) + "\n"

    def to_dot(self, g: MultiGraph) -> str:
        lines = ["digraph mss {", "  node [shape=record];"]
        for i, label in enumerate(self._labels(g)):
            lines.append(f'  n{i} [label="{label}"];')
        moves = self.moves
        for i, kids in enumerate(self.children):
            for c in kids:
                lines.append(f'  n{i} -> n{c} [label="{STEP_LABEL[moves[c]]}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


class MssViolation(Record):
    __slots__ = ("node", "reason")


def good_firing_set(g: MultiGraph, d: Divisor, x: VertexSet,
                    r: VertexSet) -> tuple[Divisor, VertexSet]:
    """Find d'' ~ d and a fireable set meeting X but avoiding the flap r.

    r must be one component of G - X that holds no chip of d, as in step
    III: then no firing reaches r, so the search ends (README).
    """
    x = _vertex_set(g.n, x, "searcher")
    r = _vertex_set(g.n, r, "territory vertex")
    if not r:
        raise DomainError("territory flap must be nonempty")
    if not has_positive_rank(g, d):  # also checks d and connectivity
        raise DomainError("divisor does not have positive rank")
    xm, rm = _mask(x), _mask(r)
    nbr = g.neighbour_masks
    if xm & rm or _around(nbr, rm) & ~(rm | xm) or len(_components(nbr, rm)) > 1:
        raise DomainError("territory is not one component of G - X")
    if any(d[v] for v in r):
        raise DomainError("divisor has chips on the territory")
    chips = list(d.chips)
    u, _ = _good_firing_set(g._adj, chips, xm, rm)
    return Divisor._of_chips(chips), _vertices(u)


def _good_firing_set(adj: list[tuple[tuple[int, int], ...]], chips: list[int],
                     x: int, r: int) -> tuple[int, list[int]]:
    """Unchecked kernel of ``good_firing_set``: advance chips in place to d''
    and return its fireable set U as a mask, with the burn's room.

    Repeatedly burns from the smallest vertex of the territory mask r,
    firing the unburnt set U once while it stays disjoint from the
    searcher mask x.  As in the rank test, U is read from the burn's
    ``room`` and fired from it.  Termination within deg(d) * n rounds
    follows from the distance-decrease argument.
    """
    q = (r & -r).bit_length() - 1
    n = len(chips)
    bound = max(1, sum(chips) * n)
    for _ in range(bound + 1):
        room, burnt = _burn(adj, chips, q)
        if burnt == n:
            raise InternalError(
                "Dhar returned the empty set during good_firing_set; "
                "the divisor does not have positive rank"
            )
        u = 0
        for v, left in enumerate(room):
            if left >= 0:
                u |= 1 << v
        if u & x:
            if u & r:
                raise InternalError("fireable set meets the territory flap")
            return u, room
        _fire_unburnt(adj, chips, room)
    raise InternalError(
        f"good_firing_set did not finish within {bound} iterations"
    )


def build_mss(g: MultiGraph, d: Divisor, trace=None) -> MssTree:
    """Construct a complete monotone search strategy for deg(d)+1 searchers.

    ``trace``, if given, collects (step, position, detail) tuples describing
    the construction for auditing.  The rank test is the one input check;
    the loop then runs the unchecked ``_good_firing_set`` kernel.  Flaps,
    N(R), grows and shrinks are computed on bitmasks (``g.neighbour_masks``),
    and the tree stores each searcher set and territory as one.
    """
    if not has_positive_rank(g, d):
        raise DomainError("divisor does not have positive rank")

    adj, nbr = g._adj, g.neighbour_masks
    supp = 0
    for v, c in enumerate(d.chips):
        if c:
            supp |= 1 << v
    everything = (1 << g.n) - 1
    # the tree's columns: the root (empty, V), then its child (supp(D), V - supp(D))
    xs = [0, supp]
    rs = [everything, everything & ~supp]
    parents: list[Optional[int]] = [None, 0]

    def add_node(parent: int, x: int, r: int) -> int:
        xs.append(x)
        rs.append(r)
        parents.append(parent)
        return len(parents) - 1

    # open positions with the chips of an effective D, X <= supp(D) and R
    # disjoint from supp(D), and the first construction step that may
    # apply; tuples, so that split siblings can share them.  R is a union
    # of X-flaps, so N(R) <= X.  A split child's R is one X-flap, so step I
    # cannot apply to it; a step-II child's R is one flap of G - N(R) and
    # its X is N(R), so it goes straight to step III.
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
            flaps = _components(nbr, r)
            if len(flaps) >= 2:
                # step I: split the territory into its flaps
                if trace is not None:
                    trace.append(("I", Position(_vertices(x), _vertices(r)),
                                  list(map(_vertices, flaps))))
                for flap in flaps:
                    pending.append((add_node(i, x, flap), chips_cur, 2))
                continue

        if step <= 2:
            # N(R) <= X, so N(R) is the searchers with a neighbour in R
            nx, rest = 0, x
            while rest:
                low = rest & -rest
                rest ^= low
                if nbr[low.bit_length() - 1] & r:
                    nx |= low
            if nx != x:
                # step II: retract searchers not bordering the territory
                if trace is not None:
                    trace.append(("II", Position(_vertices(x), _vertices(r)),
                                  _vertices(nx)))
                pending.append((add_node(i, nx, r), chips_cur, 3))
                continue

        # step III: N(R) = X and R is a single flap; advance along a firing set
        chips = list(chips_cur)
        u, room = _good_firing_set(adj, chips, x, r)
        if trace is not None:
            trace.append(("III", Position(_vertices(x), _vertices(r)),
                          (Divisor._of_chips(chips), _vertices(u))))
        # each mover s, in ascending order, first grows X onto its
        # neighbours in the territory left, then leaves; a grow that adds
        # no vertex is no move
        parent, movers, left = i, x & u, r
        while movers:
            low = movers & -movers
            movers ^= low
            grown = nbr[low.bit_length() - 1] & left
            if grown:
                x |= grown
                left ^= grown
                parent = add_node(parent, x, left)
            x ^= low
            parent = add_node(parent, x, left)
        # once the territory is captured, no step reads the fired chips
        if left:
            _fire_unburnt(adj, chips, room)
            pending.append((parent, tuple(chips), 1))

    return MssTree._built(g, d.degree + 1, xs, rs, parents)


def validate_mss(g: MultiGraph, tree: MssTree, k: int) -> Report:
    """Check the defining clauses of a monotone search strategy.

    The constructor has checked the shape: nodes are numbered parent
    first, as ``build_mss`` makes them, so every node is reachable from
    the root.  Positions are checked at the root and, for every other
    node, through the move that made it (README).  Trailing shrink moves
    with empty territory are accepted: the construction emits them after
    capture (golden trace).
    """
    _require_int(k, "k")
    violations: list[MssViolation] = []

    def bad(node, reason):
        violations.append(MssViolation(node, reason))

    n = g.n
    nbr = g.neighbour_masks
    xs, rs = tree.xs, tree.territories
    if xs[0] != 0 or rs[0] != (1 << n) - 1:
        bad(0, "root is not (empty, V)")
    if len(xs) > n * n + 1:
        bad(None, f"tree has {len(xs)} nodes, above the n^2+1 bound")

    for i, (x, r, kids) in enumerate(zip(xs, rs, tree.children)):
        if (x | r) >> n:
            bad(i, f"searchers or territory name a vertex outside 0..{n - 1}")
            continue
        if x.bit_count() > k:
            bad(i, f"|X|={x.bit_count()} exceeds {k} searchers")

        if not kids:
            if r:
                bad(i, "incomplete leaf (territory nonempty)")
        elif len(kids) == 1:
            cx, cr = xs[kids[0]], rs[kids[0]]
            # case (a), where no searcher that leaves borders R
            shrink = not cx & ~x and cr == r and not _around(nbr, x & ~cx) & r
            grow = not x & ~cx and not cx & ~(x | r) and cr == r & ~cx  # case (b)
            if cx == x or not (shrink or grow):
                bad(i, "single child matches neither shrink nor grow")
        elif any(xs[c] != x for c in kids):
            bad(i, "split children must keep the same searchers")
        else:
            child_rs = [rs[c] for c in kids]
            flaps = _components(nbr, r)
            if set(child_rs) != set(flaps) or len(child_rs) != len(flaps):
                bad(i, "split children are not exactly the X-flaps of R")

    return Report(not violations, violations)
