"""Positive-rank testing and desk-scale brute-force divisorial gonality."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Optional

from .divisors import Divisor, _reduce, check_divisor
from .errors import BudgetError, DomainError
from .graph import MultiGraph

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class GonalityResult:
    value: int
    witness: Divisor


def has_positive_rank(g: MultiGraph, d: Divisor) -> bool:
    """True iff the q-reduced form of d has a chip on q, for every vertex q.

    q never fires while d is q-reduced, so the chips on q only grow. A q
    that already holds a chip therefore passes without a reduction, and a
    reduction stops as soon as q receives a chip.
    """
    if not d.is_effective:
        raise DomainError("positive-rank test requires an effective divisor")
    if not g.is_connected():
        raise DomainError("graph must be connected")
    check_divisor(g, d)
    for q in range(g.n):
        if d[q]:
            continue
        chips = list(d.chips)
        _reduce(g._adj, chips, q, until_chip_on_q=True)
        if not chips[q]:
            return False
    return True


def effective_divisors(n: int, degree: int) -> Iterator[Divisor]:
    """All effective divisors of the given degree, in lexicographic chip order."""
    # Chip vectors of fixed sum, largest-on-last-vertex first is NOT what we
    # want: enumerate vectors directly in lex order via placements.
    for slots in combinations_with_replacement(range(n), degree):
        chips = [0] * n
        for v in slots:
            chips[v] += 1
        yield Divisor(tuple(chips))


def _lex_sorted(n: int, degree: int) -> list[Divisor]:
    return sorted(effective_divisors(n, degree), key=lambda d: d.chips)


def dgon_bruteforce(g: MultiGraph, max_degree: int,
                    budget: int = DEFAULT_BUDGET) -> Optional[GonalityResult]:
    """Smallest-degree positive-rank effective divisor, by exhaustive search.

    Degrees are tried in ascending order and within a degree the candidates
    in lexicographic chip-vector order, so the witness is deterministic.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be positive")
    if not g.is_connected():
        raise DomainError("graph must be connected")
    space = sum(math.comb(g.n + d - 1, d) for d in range(1, max_degree + 1))
    if space > budget:
        raise BudgetError(
            f"search space of {space} divisors exceeds budget {budget}"
        )
    for degree in range(1, max_degree + 1):
        for d in _lex_sorted(g.n, degree):
            if has_positive_rank(g, d):
                return GonalityResult(degree, d)
    return None
