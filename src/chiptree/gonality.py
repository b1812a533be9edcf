"""Positive-rank testing and desk-scale brute-force divisorial gonality."""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, Optional

from .divisors import Divisor, _burn, _require_connected, _require_divisor
from .errors import BudgetError, DomainError, InternalError
from .graph import FrozenRecord, MultiGraph

DEFAULT_BUDGET = 5_000_000


class GonalityResult(FrozenRecord):
    __slots__ = ("value", "witness")


def has_positive_rank(g: MultiGraph, d: Divisor) -> bool:
    """True iff the q-reduced form of d has a chip on q, for every vertex q.

    Each q runs Dhar rounds: burn from q, then fire the unburnt set U once,
    straight from the burn's room.  q never fires while d is q-reduced, so
    the chips on q only grow, and q passes at its first chip; a round that
    burns everything leaves d q-reduced with q empty.  Every divisor a
    legal firing reaches is effective and equivalent to d.  So each q
    starts from the chips the previous one left, and a q that holds a chip
    in d, or received one for an earlier q of this test, passes without a
    round of its own.  Each round lowers the distance to the q-reduced form
    by one, so deg(d) * n rounds per q suffice.

    The immutable graph remembers the last divisor it accepted, so the
    usual "test, then ``build_mss``" sequence tests only once.  One entry
    is enough for that and keeps the memory flat.
    """
    held = d.chips
    # the entry checks inline; the helpers run only to raise
    if len(held) != g.n or held and min(held) < 0:
        _require_divisor(g, d)
    if not g.is_connected():
        _require_connected(g)
    if g._positive_rank == held:
        return True
    adj, n = g._adj, g.n
    chips = list(held)
    covered = list(held)  # truthy where a vertex holds or has held a chip
    bound = sum(held) * n or 1
    for q in range(n):
        if covered[q]:
            continue
        for _ in range(bound + 1):
            room, burnt = _burn(adj, chips, q)
            if burnt == n:
                return False
            for v, left in enumerate(room):
                if left >= 0:
                    chips[v] = left
                    for w, m in adj[v]:
                        if room[w] < 0:
                            chips[w] += m
                            covered[w] = True
            if covered[q]:
                break
        else:
            raise InternalError(
                f"the rank test at q={q} did not finish within {bound} rounds; "
                "this is a bug"
            )
    g._positive_rank = held
    return True


def effective_divisors(n: int, degree: int) -> Iterator[Divisor]:
    """All effective divisors of the given degree, in descending lex chip order."""
    for slots in combinations_with_replacement(range(n), degree):
        chips = [0] * n
        for v in slots:
            chips[v] += 1
        yield Divisor(chips)


def _lex_ascending(n: int, degree: int) -> Iterator[Divisor]:
    """The effective divisors of ``effective_divisors(n, degree)``, streamed
    in ascending lex chip order, from (0, .., 0, degree) to (degree, 0, .., 0).

    The successor of a chip vector moves one chip from the last nonzero
    entry after position i to position i, for the largest such i, and puts
    the rest of that entry on the last vertex.
    """
    if n < 1:
        return
    chips = [0] * n
    chips[-1] = degree
    while True:
        yield Divisor(chips)
        if chips[-1] and n > 1:
            chips[-1] -= 1
            chips[-2] += 1
            continue
        j = n - 2
        while j >= 0 and not chips[j]:
            j -= 1
        if j <= 0:
            return
        rest = chips[j] - 1
        chips[j] = 0
        chips[j - 1] += 1
        chips[-1] = rest


def dgon_bruteforce(g: MultiGraph, max_degree: int,
                    budget: int = DEFAULT_BUDGET) -> Optional[GonalityResult]:
    """Smallest-degree positive-rank effective divisor, by exhaustive search.

    Degrees are tried in ascending order and within a degree the candidates
    in lexicographic chip-vector order, so the witness is deterministic.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be positive")
    _require_connected(g)
    # the candidates number sum_{d=1..k} C(n+d-1, d) = C(n+k, k) - 1; the
    # product for C(n+k, min(n, k)) stops once it passes the budget
    space, i, big, small = 1, 0, max(g.n, max_degree), min(g.n, max_degree)
    while i < small and space - 1 <= budget:
        i += 1
        space = space * (big + i) // i
    if space - 1 > budget:
        count = space - 1 if i == small else f"more than {budget}"
        raise BudgetError(f"search space of {count} divisors exceeds budget {budget}")
    for degree in range(1, max_degree + 1):
        for d in _lex_ascending(g.n, degree):
            if has_positive_rank(g, d):
                return GonalityResult(degree, d)
    return None
