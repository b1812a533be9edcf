"""Positive-rank testing and desk-scale brute-force divisorial gonality."""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterator, Optional

from .divisors import Divisor, _reduce, _require_connected, _require_divisor
from .errors import BudgetError, DomainError
from .graph import FrozenRecord, MultiGraph

DEFAULT_BUDGET = 5_000_000


class GonalityResult(FrozenRecord):
    __slots__ = ("value", "witness")


def has_positive_rank(g: MultiGraph, d: Divisor) -> bool:
    """True iff the q-reduced form of d has a chip on q, for every vertex q.

    q never fires while d is q-reduced, so the chips on q only grow, and a
    reduction stops as soon as q receives a chip.  Every divisor a legal
    reduction passes through is effective and equivalent to d.  So each
    reduction starts from the chips the previous one left, and a q that
    holds a chip in d, or received one in an earlier reduction of this
    test, passes without a reduction of its own.

    The immutable graph remembers the last divisor it accepted, so the
    usual "test, then ``build_mss``" sequence reduces only once.  One entry
    is enough for that and keeps the memory flat.
    """
    _require_divisor(g, d)
    _require_connected(g)
    if g._positive_rank == d.chips:
        return True
    chips = list(d.chips)
    covered = [c > 0 for c in chips]
    for q in range(g.n):
        if covered[q]:
            continue
        _reduce(g._adj, chips, q, until_chip_on_q=True, covered=covered)
        if not chips[q]:
            return False
    g._positive_rank = d.chips
    return True


def effective_divisors(n: int, degree: int) -> Iterator[Divisor]:
    """All effective divisors of the given degree, in descending lex chip order."""
    for slots in combinations_with_replacement(range(n), degree):
        chips = [0] * n
        for v in slots:
            chips[v] += 1
        yield Divisor(tuple(chips))


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
        yield Divisor(tuple(chips))
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
    space = sum(math.comb(g.n + d - 1, d) for d in range(1, max_degree + 1))
    if space > budget:
        raise BudgetError(
            f"search space of {space} divisors exceeds budget {budget}"
        )
    for degree in range(1, max_degree + 1):
        for d in _lex_ascending(g.n, degree):
            if has_positive_rank(g, d):
                return GonalityResult(degree, d)
    return None
