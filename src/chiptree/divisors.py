"""Divisors, set firing, Dhar's burning algorithm and q-reduction.

A divisor is a chip count per vertex.  Equivalence of divisors is witnessed
by a firing script: the normalized integer vector x with D' = D - Qx,
nonnegative and zero somewhere.  All equivalence questions are routed
through q-reduction, whose fixed point is unique per class.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import DomainError, InternalError, NotFireableError
from .graph import (FrozenRecord, MultiGraph, VertexSet, _int_tuple, _iterable,
                    _require_connected, _require_int, _vertex_set)


class Divisor(FrozenRecord):
    """Integer chip vector indexed by vertex; a chip count is an int, not a
    bool, which the constructor checks."""

    __slots__ = ("chips",)

    def __init__(self, chips: Sequence[int]):
        # a copy, so that the caller's list cannot change the divisor
        chips = tuple(_iterable(chips, "chips"))
        for v, c in enumerate(chips):
            if type(c) is not int:
                raise DomainError(f"vertex {v} holds {c!r} chips, which is not an int")
        object.__setattr__(self, "chips", chips)

    @classmethod
    def _of_chips(cls, chips: Sequence[int]) -> "Divisor":
        """The divisor of int chips a kernel made, unchecked."""
        d = cls.__new__(cls)
        object.__setattr__(d, "chips", tuple(chips))
        return d

    @staticmethod
    def of(chips: Iterable[int]) -> "Divisor":
        """The divisor of ``int(c)`` for each chip count c."""
        counts = []
        for c in chips:
            try:
                counts.append(int(c))
            except (TypeError, ValueError, OverflowError):
                raise DomainError(f"chip count {c!r} does not convert to an int") from None
        return Divisor._of_chips(counts)

    @staticmethod
    def zero(n: int) -> "Divisor":
        _require_int(n, "n", 0)
        return Divisor._of_chips((0,) * n)

    @staticmethod
    def single(n: int, v: int, amount: int = 1) -> "Divisor":
        _require_int(n, "n", 0)
        _vertex_set(n, (v,), "vertex")
        chips = [0] * n
        chips[v] = amount
        return Divisor(chips)

    def __len__(self):
        return len(self.chips)

    def __getitem__(self, v: int) -> int:
        return self.chips[v]

    @property
    def degree(self) -> int:
        return sum(self.chips)

    @property
    def is_effective(self) -> bool:
        return min(self.chips, default=0) >= 0

    @property
    def support(self) -> VertexSet:
        return frozenset(v for v, c in enumerate(self.chips) if c != 0)

    def format(self, g: MultiGraph) -> str:
        """Sparse `<vertex>:<chips>` form, e.g. ``a:3`` or ``0:2 4:1``."""
        if len(self.chips) != g.n:
            raise DomainError(f"divisor length {len(self.chips)} does not match n={g.n}")
        return _vertex_counts(g, self.chips)


def _vertex_counts(g: MultiGraph, counts: Sequence[int]) -> str:
    """`<vertex>:<count>` per nonzero count of a length-n vector, else ``0``."""
    return " ".join(f"{g._name(v)}:{c}" for v, c in enumerate(counts) if c) or "0"


class FiringScript(FrozenRecord):
    """Normalized firing counts: a non-empty tuple of ints (no bool),
    nonnegative and zero on at least one vertex, which the constructor
    checks."""

    __slots__ = ("x",)

    def __init__(self, x: Iterable[int]):
        x = _int_tuple(x, "script")
        if min(x, default=None) != 0:
            raise DomainError("script must be normalized (minimum entry 0)")
        object.__setattr__(self, "x", x)

    @staticmethod
    def normalized(values: Iterable[int]) -> "FiringScript":
        """The script of the ints in values, each less their minimum."""
        vals = _int_tuple(values, "script")
        lo = min(vals, default=0)
        return FiringScript(v - lo for v in vals)

    def __len__(self):
        return len(self.x)

    def __getitem__(self, v: int) -> int:
        return self.x[v]

    @property
    def is_zero(self) -> bool:
        return not any(self.x)

    @property
    def max(self) -> int:
        return max(self.x)


def _require_divisor(g: MultiGraph, d: Divisor) -> None:
    """The one divisor check: d has a chip count for every vertex, none negative."""
    chips = d.chips
    if len(chips) != g.n:
        raise DomainError(f"divisor length {len(chips)} does not match n={g.n}")
    if min(chips, default=0) < 0:
        raise DomainError(f"divisor must be effective, got chips {chips}")


def is_fireable(g: MultiGraph, d: Divisor, u: Iterable[int]) -> bool:
    """True iff every vertex of u keeps a nonnegative chip count when u fires."""
    _require_divisor(g, d)
    uset = _vertex_set(g.n, u, "vertex")
    return all(sum(m for w, m in g._adj[v] if w not in uset) <= d[v] for v in uset)


def fire_set(g: MultiGraph, d: Divisor, u: Iterable[int]) -> Divisor:
    """Fire the set u: one chip moves along every edge leaving u, unless
    ``NotFireableError`` names the smallest vertex of u that cannot fire."""
    _require_divisor(g, d)
    uset = _vertex_set(g.n, u, "vertex")
    room = [-1] * g.n
    for v in sorted(uset):
        out = sum(m for w, m in g._adj[v] if w not in uset)
        if out > d[v]:
            raise NotFireableError(v, out, d[v])
        room[v] = d[v] - out
    chips = list(d.chips)
    _fire_unburnt(g._adj, chips, room)
    return Divisor._of_chips(chips)


def apply_script(g: MultiGraph, d: Divisor, x: FiringScript) -> Divisor:
    """D - Qx, computed edge-wise in exact integer arithmetic; d need not be effective."""
    if len(d) != g.n or len(x) != g.n:
        raise DomainError(
            f"divisor length {len(d)} and script length {len(x)} must both be n={g.n}"
        )
    chips = list(d.chips)
    for (u, v), m in g._mult.items():
        diff = x[u] - x[v]
        chips[u] -= m * diff
        chips[v] += m * diff
    return Divisor._of_chips(chips)


def dhar(g: MultiGraph, d: Divisor, q: int) -> VertexSet:
    """Maximal fireable subset of V - {q}, or the empty set if d is q-reduced."""
    _require_divisor(g, d)
    _require_connected(g)
    _vertex_set(g.n, (q,), "q")
    room, _ = _burn(g._adj, d.chips, q)
    return frozenset(v for v, left in enumerate(room) if left >= 0)


def is_q_reduced(g: MultiGraph, d: Divisor, q: int) -> bool:
    return not dhar(g, d, q)


def q_reduce(g: MultiGraph, d: Divisor, q: int) -> tuple[Divisor, FiringScript]:
    """The unique q-reduced divisor equivalent to d, plus the script reaching it.

    Each round runs Dhar's algorithm and fires its set U as many times as
    stays legal, t = min over v in U of floor(chips(v) / outdeg_U(v)).
    Every legal firing order that never fires q reaches the same q-reduced
    divisor and the same script with x[q] = 0, so batching changes neither.
    A round does at least the work of one unbatched firing, which lowers
    the distance to the fixed point by one, so deg(d) * n rounds suffice.
    """
    _require_divisor(g, d)
    _require_connected(g)
    _vertex_set(g.n, (q,), "q")
    chips = list(d.chips)
    x = [0] * g.n
    _reduce(g._adj, chips, q, x)
    return Divisor._of_chips(chips), FiringScript(x)


# -- unchecked kernels ---------------------------------------------------------
# Callers have checked that the chips are effective and match the graph, and
# that the graph is connected and every vertex argument lies in 0..n-1;
# ``adj`` is ``MultiGraph._adj``, one tuple of (neighbour, multiplicity)
# pairs per vertex, read only.

def _burn(adj: list[tuple[tuple[int, int], ...]], chips: Sequence[int],
          q: int) -> tuple[list[int], int]:
    """Dhar's burning from q; read only.  Returns ``room`` and the number of
    burnt vertices.

    ``room[v]`` is chips(v) minus the edges from v into the fire; v burns
    when its room goes negative, and the fire spreads from each vertex
    once, so the burn is O(|E|).  The unburnt set U is the v with
    ``room[v] >= 0``, and for v in U, outdeg_U(v) = chips(v) - room(v).
    """
    room = list(chips)
    room[q] = -1
    burnt = [q]
    for v in burnt:
        for w, m in adj[v]:
            left = room[w]
            if left >= 0:
                left -= m
                room[w] = left
                if left < 0:
                    burnt.append(w)
    return room, len(burnt)


def _fire_unburnt(adj: list[tuple[tuple[int, int], ...]], chips: list[int],
                  room: list[int]) -> list[int]:
    """Fire the unburnt set U of a burn, the v with room(v) >= 0, once, in
    place: v in U sends a chip along each edge leaving U and is left with
    room(v) = chips(v) - outdeg_U(v).  ``fire_set`` writes such a room.
    Returns the burnt vertices that received chips, with repeats."""
    received = []
    for v, left in enumerate(room):
        if left >= 0:
            chips[v] = left
            for w, m in adj[v]:
                if room[w] < 0:
                    chips[w] += m
                    received.append(w)
    return received


def _reduce(adj: list[tuple[tuple[int, int], ...]], chips: list[int], q: int,
            x: list[int]) -> None:
    """q-reduce chips in place with batched Dhar firings; add the script to x.

    Each round burns from q with ``_burn`` and fires the unburnt set U
    straight from its ``room``, so U is never built as a set.
    """
    n = len(chips)
    degree = sum(chips)
    bound = max(1, degree * n)
    for _ in range(bound + 1):
        room, burnt = _burn(adj, chips, q)
        if burnt == n:
            return
        # fire U as often as stays legal: the least chips(v) // outdeg_U(v)
        # over v in U with outdeg_U(v) > 0, which is at most deg(d)
        times = degree
        for c, left in zip(chips, room):
            if c > left >= 0 and c // (c - left) < times:
                times = c // (c - left)
        for v, left in enumerate(room):
            if left >= 0:
                chips[v] -= (chips[v] - left) * times
                x[v] += times
                for w, m in adj[v]:
                    if room[w] < 0:
                        chips[w] += m * times
    raise InternalError(
        f"q_reduce did not converge within {bound} iterations; this is a bug"
    )


def script_between(g: MultiGraph, d1: Divisor, d2: Divisor) -> Optional[FiringScript]:
    """Normalized script x with d2 = d1 - Qx, or None if not equivalent.

    Both divisors are reduced at vertex 0; equality of the reduced forms
    decides equivalence and the scripts compose by subtraction.
    """
    r1, x1 = q_reduce(g, d1, 0)
    r2, x2 = q_reduce(g, d2, 0)
    if r1 != r2:
        return None
    return FiringScript.normalized(a - b for a, b in zip(x1.x, x2.x))


def dist(g: MultiGraph, d1: Divisor, d2: Divisor) -> Optional[int]:
    """Max entry of the script between equivalent divisors; None otherwise."""
    x = script_between(g, d1, d2)
    return None if x is None else x.max


def level_set_chain(x: FiringScript) -> list[VertexSet]:
    """Increasing chain U_1 <= ... <= U_t with sum of indicators equal to x.

    U_i collects the vertices fired at least t+1-i times; firing the chain
    in order replays the script through effective intermediate divisors.
    """
    if x.is_zero:
        raise DomainError("zero script has no level-set chain")
    # U_i changes only where t+1-i passes an entry of x, so each distinct
    # set is built once and consecutive equal levels share it
    levels = sorted(set(x.x), reverse=True)
    chain = []
    for hi, lo in zip(levels, levels[1:]):
        chain += [frozenset(v for v, xv in enumerate(x.x) if xv >= hi)] * (hi - lo)
    return chain
