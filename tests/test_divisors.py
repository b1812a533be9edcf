import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiptree import (
    Divisor,
    DomainError,
    FiringScript,
    MultiGraph,
    NotFireableError,
    apply_script,
    build_mss,
    dhar,
    dist,
    effective_divisors,
    fire_set,
    good_firing_set,
    has_positive_rank,
    is_fireable,
    is_q_reduced,
    level_set_chain,
    q_reduce,
    script_between,
)
from chiptree import divisors
from chiptree.fixtures import path_graph

from conftest import (
    laplacian,
    maximal_fireable_subset,
    multigraphs,
    random_connected_multigraph,
    random_effective_divisor,
    reachable_effective_divisors,
)


def path3():
    # vertices a=0, b=1, c=2
    return MultiGraph(3, [(0, 1), (1, 2)])


def named(g, spec):
    """Divisor from {label: chips} on a labeled graph."""
    chips = [0] * g.n
    for name, c in spec.items():
        chips[g.vertex_index(name)] = c
    return Divisor(tuple(chips))


class TestDegreeAndSupport:
    def test_zero(self):
        assert Divisor.zero(4).degree == 0

    def test_divisor_copies_the_callers_list(self):
        # the divisor used to keep the list: changing it afterwards changed
        # the divisor, made it unhashable and let the rank memo accept it
        g = path3()
        chips = [1, 0, 0]
        d = Divisor(chips)
        assert has_positive_rank(g, d)
        chips[0] = 0
        assert d == Divisor((1, 0, 0)) and hash(d) == hash(Divisor((1, 0, 0)))
        assert has_positive_rank(g, d)
        assert not has_positive_rank(g, Divisor(chips))

    @pytest.mark.parametrize("chip", [1.5, 2.0, "1", True, None])
    def test_chip_that_is_no_int_rejected(self, chip):
        with pytest.raises(DomainError, match=r"^vertex 0 holds .* chips, which is not an int$"):
            Divisor((chip, 0, 0))

    def test_chips_that_are_no_collection_rejected(self):
        with pytest.raises(DomainError, match="^chips must be a collection, got None$"):
            Divisor(None)

    def test_factories(self):
        assert Divisor.zero(3) == Divisor((0, 0, 0))
        assert Divisor.single(3, 2) == Divisor((0, 0, 1))
        assert Divisor.single(3, 0, 4) == Divisor((4, 0, 0))

    @pytest.mark.parametrize("call, message", [
        (lambda: Divisor.zero(2.5), "n must be an int >= 0, got 2.5"),
        (lambda: Divisor.zero(-1), "n must be an int >= 0, got -1"),
        (lambda: Divisor.single(True, 0), "n must be an int >= 0, got True"),
        (lambda: Divisor.single(3, 1.5), "vertex 1.5 is not a vertex in 0..2"),
        (lambda: Divisor.single(3, 5), "vertex 5 is not a vertex in 0..2"),
        (lambda: Divisor.single(3, -1), "vertex -1 is not a vertex in 0..2"),
        (lambda: Divisor.single(3, 0, 1.5), "vertex 0 holds 1.5 chips, which is not an int"),
    ], ids=["zero 2.5", "zero -1", "single n True", "single v 1.5", "single v 5",
            "single v -1", "single amount 1.5"])
    def test_factories_check_their_arguments(self, call, message):
        # -1 used to put the chip on the last vertex
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_of_converts_with_int(self):
        assert Divisor.of([1.5, "2", True]) == Divisor((1, 2, 1))
        for chips in (["x"], [None], [float("nan")], [float("inf")]):
            with pytest.raises(DomainError, match="^chip count .* does not convert to an int$"):
                Divisor.of(chips)

    def test_fixture_divisors(self, fixture_graph, fixture_divisor):
        assert fixture_divisor.degree == 3
        abc = named(fixture_graph, {"a": 1, "b": 1, "c": 1})
        assert abc.degree == 3
        assert fixture_graph.set_name(abc.support) == "abc"


class TestFireability:
    def test_fixture_can_fire_a(self, fixture_graph, fixture_divisor):
        a = {fixture_graph.vertex_index("a")}
        assert is_fireable(fixture_graph, fixture_divisor, a)

    def test_fixture_cannot_fire_bare_b(self, fixture_graph, fixture_divisor):
        b = {fixture_graph.vertex_index("b")}
        assert not is_fireable(fixture_graph, fixture_divisor, b)

    def test_empty_set_vacuously_fireable(self, fixture_graph, fixture_divisor):
        assert is_fireable(fixture_graph, fixture_divisor, set())

    def test_non_effective_rejected(self):
        g = path3()
        with pytest.raises(DomainError):
            is_fireable(g, Divisor((-1, 1, 0)), {0})


class TestFireSet:
    def test_golden_step_1(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        out = fire_set(g, fixture_divisor, {g.vertex_index("a")})
        assert out == named(g, {"a": 1, "b": 1, "c": 1})

    def test_golden_step_2(self, fixture_graph):
        g = fixture_graph
        u = {g.vertex_index(v) for v in "abcefg"}
        out = fire_set(g, named(g, {"a": 1, "b": 1, "c": 1}), u)
        assert out == named(g, {"a": 1, "c": 1, "d": 1})

    def test_golden_step_3(self, fixture_graph):
        g = fixture_graph
        u = {g.vertex_index(v) for v in "ac"}
        out = fire_set(g, named(g, {"a": 1, "b": 1, "c": 1}), u)
        assert out == named(g, {"b": 2, "g": 1})

    def test_golden_step_4(self, fixture_graph):
        g = fixture_graph
        u = {g.vertex_index(v) for v in "abcdg"}
        out = fire_set(g, named(g, {"b": 2, "g": 1}), u)
        assert out == named(g, {"e": 1, "f": 2})

    def test_error_names_a_violating_vertex(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        with pytest.raises(NotFireableError) as info:
            fire_set(g, fixture_divisor, {g.vertex_index("b")})
        assert info.value.vertex == g.vertex_index("b")

    def test_error_names_the_smallest_violating_vertex(self):
        # the frozenset {1, 8} yields 8 first; neither end of U can fire
        g = MultiGraph(10, [(v, v + 1) for v in range(9)])
        assert list(frozenset({1, 8})) == [8, 1]
        with pytest.raises(NotFireableError) as info:
            fire_set(g, Divisor.zero(10), {1, 8})
        assert info.value.vertex == 1

    def test_matches_laplacian_arithmetic(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        u = {g.vertex_index("a")}
        fired = fire_set(g, fixture_divisor, u)
        ones = [1 if v in u else 0 for v in range(g.n)]
        q = laplacian(g)
        expected = [
            fixture_divisor[v] - int(sum(q[v][w] * ones[w] for w in range(g.n)))
            for v in range(g.n)
        ]
        assert list(fired.chips) == expected


class TestDhar:
    def test_path_single_chip_on_end(self):
        g = path3()
        assert dhar(g, Divisor((1, 0, 0)), q=2) == {0}

    def test_path_single_chip_on_middle(self):
        g = path3()
        assert dhar(g, Divisor((0, 1, 0)), q=2) == {0, 1}

    def test_fixture_acd_fires_ac_toward_d(self, fixture_graph):
        # a+c+d is not d-reduced: {a,c} can still fire (oracle agrees)
        g = fixture_graph
        acd = named(g, {"a": 1, "c": 1, "d": 1})
        q = g.vertex_index("d")
        got = dhar(g, acd, q)
        assert got == maximal_fireable_subset(g, acd, q)
        assert g.set_name(got) == "ac"

    def test_fixture_2d_plus_g_is_d_reduced(self, fixture_graph):
        g = fixture_graph
        ddg = named(g, {"d": 2, "g": 1})
        assert is_q_reduced(g, ddg, g.vertex_index("d"))

    def test_single_vertex_graph(self):
        g = MultiGraph(1, [])
        assert dhar(g, Divisor((5,)), 0) == frozenset()

    def test_matches_exhaustive_oracle_on_seeded_corpus(self):
        rng = random.Random(20240817)
        for _ in range(60):
            g = random_connected_multigraph(rng, rng.randint(2, 6))
            d = random_effective_divisor(rng, g.n, rng.randint(0, 4))
            q = rng.randrange(g.n)
            assert dhar(g, d, q) == maximal_fireable_subset(g, d, q)


class TestQReduce:
    def test_path_moves_chip_across(self):
        g = path3()
        reduced, script = q_reduce(g, Divisor((1, 0, 0)), q=2)
        assert reduced == Divisor((0, 0, 1))
        assert script.x == (2, 1, 0)
        assert apply_script(g, Divisor((1, 0, 0)), script) == reduced

    def test_already_reduced_is_fixed_point(self, fixture_graph):
        g = fixture_graph
        ddg = named(g, {"d": 2, "g": 1})
        reduced, script = q_reduce(g, ddg, g.vertex_index("d"))
        assert reduced == ddg
        assert script.is_zero

    def test_fixture_reaches_d(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        reduced, _ = q_reduce(g, fixture_divisor, g.vertex_index("d"))
        assert reduced[g.vertex_index("d")] >= 1
        assert reduced == named(g, {"d": 2, "g": 1})

    def test_rounds_fire_in_batches(self, monkeypatch):
        """Operation-count guard: each round fires its set as often as stays
        legal.  200 chips cross the 50-vertex path in 50 Dhar burns; firing
        once per round would take 9,801."""
        burns = []
        burn = divisors._burn

        def counting(adj, chips, q):
            burns.append(q)
            return burn(adj, chips, q)

        monkeypatch.setattr(divisors, "_burn", counting)
        reduced, _ = q_reduce(path_graph(50), Divisor.single(50, 0, 200), 49)
        assert reduced == Divisor.single(50, 49, 200)
        assert len(burns) <= 100

    def test_chip_count_at_q_never_drops(self):
        rng = random.Random(99)
        for _ in range(40):
            g = random_connected_multigraph(rng, rng.randint(2, 6))
            d = random_effective_divisor(rng, g.n, rng.randint(0, 4))
            q = rng.randrange(g.n)
            reduced, script = q_reduce(g, d, q)
            assert reduced[q] >= d[q]
            assert script[q] == 0

    def test_uniqueness_across_equivalent_starts(self):
        rng = random.Random(4242)
        for _ in range(20):
            g = random_connected_multigraph(rng, rng.randint(2, 5))
            d = random_effective_divisor(rng, g.n, rng.randint(1, 3))
            q = rng.randrange(g.n)
            target, _ = q_reduce(g, d, q)
            for other_chips in list(reachable_effective_divisors(g, d))[:10]:
                reduced, _ = q_reduce(g, Divisor(other_chips), q)
                assert reduced == target


class TestScriptsAndDist:
    def test_identical_divisors(self):
        g = path3()
        d = Divisor((1, 0, 0))
        assert script_between(g, d, d).is_zero
        assert dist(g, d, d) == 0

    def test_fixture_one_firing(self, fixture_graph, fixture_divisor):
        g = fixture_graph
        abc = Divisor(tuple(1 if g.vertex_name(v) in "abc" else 0
                            for v in range(g.n)))
        x = script_between(g, fixture_divisor, abc)
        assert x.x == tuple(1 if g.vertex_name(v) == "a" else 0
                            for v in range(g.n))

    def test_path_endpoints(self):
        g = path3()
        x = script_between(g, Divisor((1, 0, 0)), Divisor((0, 0, 1)))
        assert x.x == (2, 1, 0)
        assert dist(g, Divisor((1, 0, 0)), Divisor((0, 0, 1))) == 2

    def test_inequivalent_on_cycle(self):
        # single chips on opposite vertices of C4 are inequivalent
        # (on a tree they would not be: trees have gonality 1)
        c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d1 = Divisor((1, 0, 0, 0))
        d2 = Divisor((0, 0, 1, 0))
        # oracle: closure under firing never reaches the other vertex
        assert d2.chips not in reachable_effective_divisors(c4, d1)
        assert script_between(c4, d1, d2) is None
        assert dist(c4, d1, d2) is None

    def test_symmetry_and_triangle(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_connected_multigraph(rng, rng.randint(2, 5))
            d = random_effective_divisor(rng, g.n, rng.randint(1, 3))
            pool = [Divisor(c) for c in reachable_effective_divisors(g, d)]
            picks = rng.sample(pool, min(3, len(pool)))
            while len(picks) < 3:
                picks.append(picks[0])
            a, b, c = picks
            assert dist(g, a, b) == dist(g, b, a)
            assert dist(g, a, c) <= dist(g, a, b) + dist(g, b, c)


class TestFiringScript:
    def test_fields_become_a_tuple(self):
        x = FiringScript([2, 0, 1])
        assert x.x == (2, 0, 1) and x == FiringScript(iter((2, 0, 1)))
        assert hash(x) == hash(FiringScript((2, 0, 1)))

    def test_normalized_subtracts_the_minimum(self):
        assert FiringScript.normalized([5, 3, 4]) == FiringScript((2, 0, 1))
        assert FiringScript.normalized([-1]) == FiringScript((0,))

    @pytest.mark.parametrize("values, message", [
        ([1.5, 0], "script holds 1.5, which is not an int"),
        ([True, 0], "script holds True, which is not an int"),
        (None, "script must be a collection, got None"),
        ([], "script must be normalized (minimum entry 0)"),
    ], ids=["float", "bool", "None", "empty"])
    def test_normalized_takes_only_ints(self, values, message):
        # 1.5 used to be truncated to 1, and [] raised a raw ValueError
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            FiringScript.normalized(values)

    def test_q_reduce_hands_back_a_normalized_script(self):
        g = path3()
        for d in effective_divisors(3, 3):
            _, x = q_reduce(g, d, 1)
            assert x == FiringScript(x.x) and x.x[1] == 0


class TestLevelSetChain:
    def test_direct_formula(self):
        chain = level_set_chain(FiringScript((2, 1, 0)))
        assert chain == [frozenset({0}), frozenset({0, 1})]

    def test_indicator_script_is_single_set(self):
        chain = level_set_chain(FiringScript((1, 0, 1)))
        assert chain == [frozenset({0, 2})]

    def test_repeated_set(self):
        chain = level_set_chain(FiringScript((3, 0, 0)))
        assert chain == [frozenset({0})] * 3

    def test_zero_script_rejected(self):
        with pytest.raises(DomainError):
            level_set_chain(FiringScript((0, 0)))

    def test_equal_levels_share_one_set(self):
        # a huge entry costs one list slot per level, not one set
        chain = level_set_chain(FiringScript((10**6, 0, 5)))
        assert len(chain) == 10**6
        assert chain[0] == frozenset({0}) and chain[-1] == frozenset({0, 2})
        assert len({id(u) for u in chain}) == 2

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_chain_matches_the_direct_formula(self, values):
        x = FiringScript.normalized(values + [0])
        if x.is_zero:
            return
        t = x.max
        direct = [frozenset(v for v, xv in enumerate(x.x) if xv >= t + 1 - i)
                  for i in range(1, t + 1)]
        assert level_set_chain(x) == direct

    def test_unnormalized_script_rejected(self):
        # no script is made unnormalized, so level_set_chain never meets one
        for x in [(2, 1, 1), (1, -1), ()]:
            with pytest.raises(DomainError, match=r"^script must be normalized \(minimum "
                                                  r"entry 0\)$"):
                FiringScript(x)

    def test_replay_through_fire_set(self):
        g = path3()
        d1, d2 = Divisor((1, 0, 0)), Divisor((0, 0, 1))
        x = script_between(g, d1, d2)
        cur = d1
        for u in level_set_chain(x):
            cur = fire_set(g, cur, u)
        assert cur == d2


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_firing_conserves_degree_and_effectiveness(rng):
    g = random_connected_multigraph(rng, rng.randint(2, 6))
    d = random_effective_divisor(rng, g.n, rng.randint(0, 5))
    subsets = [frozenset({v}) for v in range(g.n)]
    subsets.append(frozenset(rng.sample(range(g.n), rng.randint(1, g.n))))
    for u in subsets:
        if is_fireable(g, d, u):
            fired = fire_set(g, d, u)
            assert fired.degree == d.degree
            assert fired.is_effective


def test_dhar_order_independence_via_oracle():
    # the worklist is FIFO internally; the oracle is order-free, so
    # agreement on a corpus doubles as an order-independence check
    rng = random.Random(31337)
    for _ in range(30):
        g = random_connected_multigraph(rng, rng.randint(2, 5), max_mult=2)
        d = random_effective_divisor(rng, g.n, rng.randint(0, 3))
        q = rng.randrange(g.n)
        assert dhar(g, d, q) == maximal_fireable_subset(g, d, q)


# -- differential checks of the unchecked kernels behind the public API -------

@st.composite
def connected_with_divisor(draw):
    """A connected multigraph, an effective divisor on it and a vertex q."""
    g = draw(multigraphs().filter(lambda g: g.is_connected()))
    chips = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
    q = draw(st.integers(0, g.n - 1))
    return g, Divisor(tuple(chips)), q


@given(connected_with_divisor())
@settings(max_examples=150, deadline=None)
def test_batched_q_reduce_is_the_q_reduced_form(case):
    g, d, q = case
    reduced, x = q_reduce(g, d, q)
    assert is_q_reduced(g, reduced, q)
    assert apply_script(g, d, x) == reduced
    assert x[q] == 0


@given(connected_with_divisor())
@settings(max_examples=150, deadline=None)
def test_early_exit_rank_test_matches_full_reductions(case):
    g, d, _ = case
    expected = all(q_reduce(g, d, q)[0][q] >= 1 for q in range(g.n))
    assert has_positive_rank(g, d) == expected


def _two_triangles():
    return MultiGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


CHECKED_CALLS = {
    "dhar": lambda g, d: dhar(g, d, 0),
    "is_q_reduced": lambda g, d: is_q_reduced(g, d, 0),
    "q_reduce": lambda g, d: q_reduce(g, d, 0),
    "has_positive_rank": has_positive_rank,
    "build_mss": build_mss,
    "good_firing_set": lambda g, d: good_firing_set(
        g, d, frozenset({0}), frozenset(range(1, g.n))),
}


@pytest.mark.parametrize("call", CHECKED_CALLS.values(), ids=CHECKED_CALLS.keys())
@pytest.mark.parametrize("graph, chips", [
    (path3(), (2, -1, 1)),
    (path3(), (1, 1)),
    (path3(), (1, 0, 0, 1)),
    (_two_triangles(), (2, 0, 0, 2, 0, 0)),
], ids=["non-effective", "short", "long", "disconnected"])
def test_public_entry_points_check_their_inputs(call, graph, chips):
    with pytest.raises(DomainError):
        call(graph, Divisor(chips))


def test_good_firing_set_rejects_a_rankless_divisor():
    # a caller's bad input, not a bug: DomainError, not InternalError
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(DomainError, match="positive rank"):
        good_firing_set(c4, Divisor((1, 0, 0, 0)), frozenset({0}), frozenset({1, 2, 3}))


@pytest.mark.parametrize("call", [is_fireable, fire_set], ids=["is_fireable", "fire_set"])
@pytest.mark.parametrize("chips", [(2, -1, 1), (1, 1), (1, 0, 0, 1)],
                         ids=["non-effective", "short", "long"])
def test_firing_entry_points_check_their_inputs(call, chips):
    with pytest.raises(DomainError):
        call(path3(), Divisor(chips), {0})


@pytest.mark.parametrize("script", [(0,), (1, 0, 0, 1)], ids=["short", "long"])
def test_apply_script_checks_the_script_length(script):
    # D - Qx is defined for any integer divisor, so only lengths are checked
    with pytest.raises(DomainError):
        apply_script(path3(), Divisor((1, 0, 0)), FiringScript(script))


VERTEX_ARGUMENT_CALLS = {
    "dhar": lambda g, d, v: dhar(g, d, v),
    "is_q_reduced": lambda g, d, v: is_q_reduced(g, d, v),
    "q_reduce": lambda g, d, v: q_reduce(g, d, v),
    "fire_set": lambda g, d, v: fire_set(g, d, {0, v}),
    "is_fireable": lambda g, d, v: is_fireable(g, d, {v}),
    "good_firing_set_searchers": lambda g, d, v: good_firing_set(
        g, d, frozenset({0, v}), frozenset({1, 2})),
    "good_firing_set_territory": lambda g, d, v: good_firing_set(
        g, d, frozenset({0}), frozenset({1, 2, v})),
}


@pytest.mark.parametrize("call", VERTEX_ARGUMENT_CALLS.values(),
                         ids=VERTEX_ARGUMENT_CALLS.keys())
@pytest.mark.parametrize("vertex", [-1, 3], ids=["q=-1", "q=n"])
def test_vertex_arguments_outside_the_graph_are_rejected(call, vertex):
    # a negative index would silently wrap to the last vertex
    with pytest.raises(DomainError):
        call(path3(), Divisor((1, 0, 1)), vertex)


@pytest.mark.parametrize("call", ["dhar", "is_q_reduced", "q_reduce", "fire_set", "is_fireable"])
def test_a_bool_is_not_a_vertex(call):
    # True would stand for vertex 1
    with pytest.raises(DomainError, match=r"^(q|vertex) True is not a vertex in 0\.\.2$"):
        VERTEX_ARGUMENT_CALLS[call](path3(), Divisor((1, 0, 1)), True)
