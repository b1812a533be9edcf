"""Positive-rank testing and desk-scale brute-force divisorial gonality."""

from __future__ import annotations

from typing import Iterator, Optional

from .divisors import Divisor, _burn, _require_divisor
from .errors import BudgetError, DomainError, InternalError
from .graph import FrozenRecord, MultiGraph, _require_connected, _require_int

DEFAULT_BUDGET = 5_000_000


class GonalityResult(FrozenRecord):
    __slots__ = ("value", "witness")


# The rank memo of a graph holds at most this many chip counts in all, n
# per key (one key on a graph with more vertices): 0.5 MB of tuple slots,
# 1.2 MB at most with the key headers and the dict in the dodecahedron's
# gonality search.  No corpus graph stores more than 3,928; a larger cap
# buys the gonality searches little (2^18: 3% fewer burns, +2.3 MB RSS).
_RANK_MEMO_CHIPS = 1 << 16


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

    Rank is an invariant of the equivalence class, so every divisor the
    test fires into has d's answer.  The immutable graph keeps a memo of
    these answers (``MultiGraph._ranks``): a test stores its verdict for
    d and for each state it fired into, and stops at the first state the
    memo knows.  A test rejected at its first burn stores nothing: it fired
    into no state, and few later tests fire into d.  A test whose states
    would take the memo past ``_RANK_MEMO_CHIPS`` chip counts clears it and
    keeps only d, so the usual "test, then ``build_mss``" sequence still
    tests once.
    """
    held = d.chips
    memo = g._ranks
    verdict = memo.get(held)
    if verdict is not None:  # every key was checked against g when stored
        return verdict
    # the entry checks inline; the helpers run only to raise
    if len(held) != g.n or held and min(held) < 0:
        _require_divisor(g, d)
    if not g.is_connected():
        _require_connected(g)
    adj, n = g._adj, g.n
    chips = list(held)
    covered = list(held)  # truthy where a vertex holds or has held a chip
    bound = sum(held) * n or 1
    # the states fired into, while they fit in the memo
    states: list[tuple[int, ...]] = []
    verdict = None  # until a burn rejects d or the memo knows a state
    for q in range(n):
        if covered[q]:
            continue
        for _ in range(bound + 1):
            room, burnt = _burn(adj, chips, q)
            if burnt == n:
                verdict = False
                break
            for v, left in enumerate(room):
                if left >= 0:
                    chips[v] = left
                    for w, m in adj[v]:
                        if room[w] < 0:
                            chips[w] += m
                            covered[w] = True
            state = tuple(chips)
            if len(states) * n <= _RANK_MEMO_CHIPS:
                states.append(state)
            verdict = memo.get(state)
            if verdict is not None or covered[q]:
                break
        else:
            raise InternalError(
                f"the rank test at q={q} did not finish within {bound} rounds; "
                "this is a bug"
            )
        if verdict is not None:
            break
    else:
        verdict = True
    if states or verdict:
        if (len(memo) + len(states) + 1) * n > _RANK_MEMO_CHIPS:
            memo.clear()
            states = []
        memo.update(dict.fromkeys(states, verdict))
        memo[held] = verdict
    return verdict


def effective_divisors(n: int, degree: int) -> Iterator[Divisor]:
    """All effective divisors of the given degree, in ascending lex chip
    order; n and degree are checked on the call."""
    _require_int(n, "n", 0)
    _require_int(degree, "degree", 0)
    return _lex_ascending(n, degree)


def _lex_ascending(n: int, degree: int) -> Iterator[Divisor]:
    """The effective divisors on n vertices of the given degree, streamed in
    ascending lex chip order, from (0, .., 0, degree) to (degree, 0, .., 0).

    The successor of a chip vector moves one chip from the last nonzero
    entry after position i to position i, for the largest such i, and puts
    the rest of that entry on the last vertex.
    """
    if n < 1:
        if degree == 0:
            yield Divisor._of_chips(())
        return
    chips = [0] * n
    chips[-1] = degree
    while True:
        yield Divisor._of_chips(chips)
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
    _require_int(max_degree, "max_degree")
    _require_int(budget, "budget")
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
