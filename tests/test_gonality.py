import copy
import gc
import math
import random
import re
import time
import tracemalloc
from itertools import product

import pytest

from chiptree import (
    BudgetError,
    Divisor,
    DomainError,
    MultiGraph,
    build_mss,
    dgon_bruteforce,
    effective_divisors,
    has_positive_rank,
    treewidth_bruteforce,
)
from chiptree import gonality
from chiptree.fixtures import banana_graph, cycle_graph, example_graph, path_graph
from chiptree.gonality import _lex_ascending

from conftest import grid_with_a_chip_per_row, random_connected_multigraph, rank_oracle


class TestPositiveRank:
    def test_single_vertex(self):
        assert has_positive_rank(MultiGraph(1, []), Divisor((1,)))

    def test_fixture_three_chips_on_a(self, fixture_graph, fixture_divisor):
        assert has_positive_rank(fixture_graph, fixture_divisor)

    def test_single_chip_on_cycle_fails(self):
        c4 = cycle_graph(4)
        assert not has_positive_rank(c4, Divisor((1, 0, 0, 0)))
        assert not rank_oracle(c4, Divisor((1, 0, 0, 0)))

    def test_non_effective_rejected(self):
        with pytest.raises(DomainError):
            has_positive_rank(path_graph(2), Divisor((-1, 2)))

    def test_agrees_with_firing_closure_oracle(self):
        rng = random.Random(1312)
        for _ in range(40):
            g = random_connected_multigraph(rng, rng.randint(2, 5), max_mult=2)
            chips = [0] * g.n
            for _ in range(rng.randint(1, 3)):
                chips[rng.randrange(g.n)] += 1
            d = Divisor(tuple(chips))
            assert has_positive_rank(g, d) == rank_oracle(g, d)


def test_rank_test_skips_every_vertex_that_received_a_chip(monkeypatch):
    """Operation-count guard on the 20 x 20 grid with one chip per row: a
    vertex that receives a chip while the test works toward one q needs no
    Dhar rounds of its own.  Without that marking the test burns from every
    chipless vertex, 380 here; with it, from 19."""
    k = 20
    g, d = grid_with_a_chip_per_row(k)
    burnt_from = set()
    burn = gonality._burn

    def counting(adj, chips, q):
        burnt_from.add(q)
        return burn(adj, chips, q)

    monkeypatch.setattr(gonality, "_burn", counting)
    assert has_positive_rank(g, d)
    assert len(burnt_from) <= 2 * k


def test_rank_test_continues_from_the_last_reduction(monkeypatch):
    """Operation-count guard on the 20 x 20 grid with one chip per row: the
    rounds toward each q start from the chips the previous q left, so the
    ones toward column j fire the chips once, from column j - 1, instead of
    replaying j rounds from column 0 (190 Dhar rounds in all, not 19)."""
    k = 20
    g, d = grid_with_a_chip_per_row(k)
    calls = []
    burn = gonality._burn

    def recording(adj, chips, q):
        if calls and q != calls[-1][0]:
            # the previous q kept the chip it received
            assert chips[calls[-1][0]] >= 1
        calls.append((q, chips))
        return burn(adj, chips, q)

    monkeypatch.setattr(gonality, "_burn", recording)
    assert has_positive_rank(g, d)
    assert len({q for q, _ in calls}) == k - 1
    # one chip list, advanced in place across every q
    assert all(chips is calls[0][1] for _, chips in calls)
    assert len(calls) <= 2 * k


# -- the rank memo ----------------------------------------------------------

def count_burns(monkeypatch) -> list[int]:
    """A one-item list that counts the rank test's Dhar burns from here on."""
    calls = [0]
    burn = gonality._burn

    def counting(*args):
        calls[0] += 1
        return burn(*args)

    monkeypatch.setattr(gonality, "_burn", counting)
    return calls


def test_rank_memo_agrees_with_the_firing_closure_oracle():
    """Every effective divisor of degree <= 3 on random multigraphs with
    n <= 6.  A fresh copy of each graph is tested in ascending, descending
    and shuffled order, and then again after ``dgon_bruteforce`` has run
    on the same copy, so most answers of that pass come from the memo."""
    rng = random.Random(4242)
    for _ in range(12):
        g = random_connected_multigraph(rng, rng.randint(2, 6), max_mult=2)
        divisors = sorted((d for k in range(4) for d in effective_divisors(g.n, k)),
                          key=lambda d: d.chips)
        expected = {d: rank_oracle(g, d) for d in divisors}
        shuffled = rng.sample(divisors, len(divisors))
        for order in (divisors, divisors[::-1], shuffled):
            h = copy.copy(g)
            assert [has_positive_rank(h, d) for d in order] == [expected[d] for d in order]
            dgon_bruteforce(h, 3)
            assert [has_positive_rank(h, d) for d in order] == [expected[d] for d in order]


def test_rank_memo_halves_the_corpus_burns(monkeypatch):
    """Operation-count guard on the first 40 graphs of the seeded acceptance
    corpus (5,989 rank tests, 916 accepted): every effective divisor of
    degree 1..4 is tested in the benchmark's order, and an accepted one
    goes on to ``build_mss``.  The rank tests burned 14,103 times when the
    graph remembered only the last accepted divisor, and 6,803 times with
    the verdict memo."""
    calls = count_burns(monkeypatch)
    rng = random.Random(20240824)
    tests = accepted = 0
    for _ in range(40):
        g = random_connected_multigraph(rng, rng.randint(2, 8), max_mult=3)
        for degree in range(1, 5):
            for d in effective_divisors(g.n, degree):
                tests += 1
                if has_positive_rank(g, d):
                    accepted += 1
                    build_mss(g, d)
    assert (tests, accepted) == (5_989, 916)
    assert calls[0] <= 6_803


def test_rank_memo_stores_nothing_for_a_rejection_at_the_first_burn():
    g = cycle_graph(4)
    for v in range(g.n):
        assert not has_positive_rank(g, Divisor.single(g.n, v))
    assert g._ranks == {}


def test_a_test_past_the_memo_cap_keeps_only_its_divisor(monkeypatch):
    """With room for ten keys, the 19 rounds of the 20 x 20 grid test do
    not fit: the memo drops what it held and keeps the tested divisor, so
    ``build_mss`` still burns no rank-test round."""
    g, d = grid_with_a_chip_per_row(20)
    monkeypatch.setattr(gonality, "_RANK_MEMO_CHIPS", 10 * g.n)
    two = Divisor.single(g.n, 0, 2)
    assert not has_positive_rank(g, two)
    assert two.chips in g._ranks and 1 < len(g._ranks) <= 10
    assert has_positive_rank(g, d)
    assert g._ranks == {d.chips: True}
    calls = count_burns(monkeypatch)
    build_mss(g, d)
    assert calls[0] == 0


def _memo_growth(g, run):
    """The bytes held after run(), and at its peak, beyond those held before."""
    g.is_connected()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["rank test on the 40 x 40 grid",
                                  "dgon_bruteforce on the 5 x 5 grid"])
def test_rank_memo_stays_within_its_cap(case):
    """The memo holds at most ``_RANK_MEMO_CHIPS`` chip counts: 8 bytes of
    tuple slot each, and about as much again in key headers and the dict."""
    if case.startswith("rank"):
        g, d = grid_with_a_chip_per_row(40)
        held, peak = _memo_growth(g, lambda: has_positive_rank(g, d))
    else:
        g, _ = grid_with_a_chip_per_row(5)
        held, peak = _memo_growth(g, lambda: dgon_bruteforce(g, 5))
    assert g._ranks and len(g._ranks) * g.n <= gonality._RANK_MEMO_CHIPS
    assert held <= peak <= 16 * gonality._RANK_MEMO_CHIPS


class TestEnumeration:
    def test_counts(self):
        assert len(list(effective_divisors(3, 2))) == 6
        assert all(d.degree == 2 for d in effective_divisors(3, 2))
        # no vertex: the empty divisor has degree 0, and nothing has more
        assert list(effective_divisors(0, 0)) == [Divisor(())]
        assert list(effective_divisors(0, 2)) == []

    @pytest.mark.parametrize("n, degree, message", [
        (3, 2.5, "degree must be an int >= 0, got 2.5"),
        (3, -1, "degree must be an int >= 0, got -1"),
        (3, True, "degree must be an int >= 0, got True"),
        (-1, 2, "n must be an int >= 0, got -1"),
        ("3", 2, "n must be an int >= 0, got '3'"),
    ])
    def test_counts_are_checked_on_the_call(self, n, degree, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            effective_divisors(n, degree)

    def test_budget(self):
        with pytest.raises(BudgetError):
            dgon_bruteforce(cycle_graph(5), 4, budget=10)

    def test_max_degree_must_be_positive(self):
        with pytest.raises(DomainError, match="^max_degree must be positive$"):
            dgon_bruteforce(cycle_graph(5), 0)

    @pytest.mark.parametrize("max_degree, budget, message", [
        (2.5, 100, "max_degree must be an int, got 2.5"),
        (3, None, "budget must be an int, got None"),
        (True, 100, "max_degree must be an int, got True"),
    ], ids=["float-degree", "None-budget", "bool-degree"])
    def test_counts_must_be_ints(self, max_degree, budget, message):
        # a float degree or a None budget raised a raw TypeError
        with pytest.raises(DomainError, match=f"^{message}$"):
            dgon_bruteforce(cycle_graph(5), max_degree, budget=budget)

    def test_budget_counts_exactly_when_the_product_completes(self):
        for n in range(1, 8):
            g = path_graph(n)
            for k in range(1, 8):
                space = sum(math.comb(n + d - 1, d) for d in range(1, k + 1))
                for budget in (space - 1, space):
                    if space <= budget:
                        assert dgon_bruteforce(g, k, budget=budget).value == 1
                        continue
                    with pytest.raises(BudgetError) as exc:
                        dgon_bruteforce(g, k, budget=budget)
                    assert str(exc.value) in (
                        f"search space of {space} divisors exceeds budget {budget}",
                        f"search space of more than {budget} divisors exceeds "
                        f"budget {budget}")
        g, _ = grid_with_a_chip_per_row(6)
        with pytest.raises(BudgetError, match="^search space of 5245785 divisors "
                                              "exceeds budget 5000000$"):
            dgon_bruteforce(g, 6)

    @pytest.mark.parametrize("n, k", [(8000, 8000), (10**5, 10**9)])
    def test_budget_check_stops_once_past_the_budget(self, n, k):
        # summing every binomial took 18 s for (8000, 8000), and the count
        # then had too many digits to print
        g = path_graph(n)
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="^search space of more than 5000000 "):
            dgon_bruteforce(g, k)
        assert time.perf_counter() - start < 1


class TestGonality:
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_paths_have_gonality_one(self, n):
        result = dgon_bruteforce(path_graph(n), 3)
        assert result.value == 1
        assert has_positive_rank(path_graph(n), result.witness)

    def test_random_trees_have_gonality_one(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(2, 7)
            tree = MultiGraph(n, [(rng.randrange(v), v) for v in range(1, n)])
            assert dgon_bruteforce(tree, 2).value == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_cycles_have_gonality_two(self, n):
        assert dgon_bruteforce(cycle_graph(n), 3).value == 2

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_banana_graphs(self, m):
        # one chip on each vertex covers every vertex, so rank is positive
        # and the gonality is 2 regardless of the multiplicity
        result = dgon_bruteforce(banana_graph(m), m + 1)
        assert result.value == 2
        assert rank_oracle(banana_graph(m), Divisor((1, 1)))
        assert not rank_oracle(banana_graph(m), Divisor((1, 0)))
        assert not rank_oracle(banana_graph(m), Divisor((0, 1)))

    def test_fixture_value_three(self, fixture_graph, fixture_divisor):
        result = dgon_bruteforce(fixture_graph, 3)
        assert result.value == 3
        assert has_positive_rank(fixture_graph, fixture_divisor)

    def test_witness_is_deterministic_and_minimal(self):
        g = cycle_graph(4)
        result = dgon_bruteforce(g, 3)
        assert result.value == 2
        assert has_positive_rank(g, result.witness)
        # re-verify minimality with an independent enumeration order
        for d in sorted(effective_divisors(g.n, 1), key=lambda d: d.chips,
                        reverse=True):
            assert not has_positive_rank(g, d)
        assert result == dgon_bruteforce(g, 3)


def lex_sorted(n, k):
    """The effective divisors of degree k on n vertices: every chip vector
    with entries in 0..k, filtered by degree and sorted."""
    return [Divisor(c) for c in sorted(c for c in product(range(k + 1), repeat=n)
                                       if sum(c) == k)]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(0, 5))
def test_streamed_candidates_are_ascending_lex(n, k):
    expected = lex_sorted(n, k)
    assert list(_lex_ascending(n, k)) == expected
    assert list(effective_divisors(n, k)) == expected


def test_witness_is_the_lex_first_positive_divisor():
    # the contract, checked against a plain sort of every candidate
    rng = random.Random(5)
    graphs = [example_graph(), cycle_graph(5), banana_graph(3)]
    graphs += [random_connected_multigraph(rng, rng.randint(2, 6)) for _ in range(12)]
    for g in graphs:
        expected = None
        for k in range(1, 5):
            expected = next((d for d in lex_sorted(g.n, k) if has_positive_rank(g, d)),
                            None)
            if expected is not None:
                break
        result = dgon_bruteforce(g, 4)
        assert (result and result.witness) == expected
    assert dgon_bruteforce(example_graph(), 3).witness.chips == (0, 0, 0, 0, 1, 0, 2)


def test_treewidth_is_at_most_divisorial_gonality():
    """tw(G) <= dgon(G), the paper's bound, on the 200 seeded random
    multigraphs of the acceptance corpus (2 to 8 vertices)."""
    rng = random.Random(20240824)
    for _ in range(200):
        g = random_connected_multigraph(rng, rng.randint(2, 8), max_mult=3)
        assert treewidth_bruteforce(g) <= dgon_bruteforce(g, g.n).value, g.edge_list
