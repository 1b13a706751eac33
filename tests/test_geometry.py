"""Cayley balls and divergence sampling.

Distance oracle: enumerate every word over basis ∪ {t} up to a length
bound, normalize it, and record the shortest spelling per element.
The BFS ball must reproduce exactly that table.  Fit oracle: the
normal equations solved by Cramer's rule in exact arithmetic, and
numpy's least squares.
"""

import math
import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from fgrow import geometry
from fgrow.automorphisms import (
    Automorphism,
    Endomorphism,
    certify_automorphism,
    identity_automorphism,
    parse_automorphism,
)
from fgrow.geometry import (
    BallGraph,
    _loglog_fit,
    cayley_ball,
    divergence_estimate,
    free_times_z_ball_size,
)
from fgrow.mapping_torus import torus_group
from fgrow.words import BasisMismatchError, BudgetExceededError, Word, basis, join

from helpers import reduce_letters, reference_ball, torus_words

F = basis("a b")
GID = torus_group(identity_automorphism(F))
GPOLY = torus_group(parse_automorphism("a -> a\nb -> b a"))
GFIB = torus_group(parse_automorphism("a -> a b\nb -> a"))
G3 = torus_group(parse_automorphism("a -> a\nb -> b a\nc -> c b"))
# every image has odd length, so the Cayley graph is bipartite
GSWAP = torus_group(parse_automorphism("a -> b\nb -> a"))
GODD3 = torus_group(parse_automorphism("a -> a\nb -> b\nc -> c a b"))
BIPARTITE = (GID, GSWAP, GODD3)


def shortest_spellings(group, max_len):
    table = {}
    for letters in torus_words(2, max_len):
        e = group.normalize(letters)
        key = (e.w.letters, e.k)
        if key not in table or len(letters) < table[key]:
            table[key] = len(letters)
    return table


# -- exact balls -----------------------------------------------------------


def test_radius_zero():
    ball = cayley_ball(GID, 0)
    assert len(ball) == 1
    assert ball.element(0).is_identity()
    assert ball.sphere_sizes() == [1]


def test_identity_map_matches_product_formula():
    for r in range(7):
        ball = cayley_ball(GID, r)
        assert len(ball) == free_times_z_ball_size(2, r)
    assert free_times_z_ball_size(2, 8) == 26225


@pytest.mark.parametrize("group", [GID, GPOLY])
def test_distances_match_enumeration(group):
    r = 3
    oracle = shortest_spellings(group, r)
    ball = cayley_ball(group, r)
    assert len(ball) == len(oracle)
    for i in range(len(ball)):
        e = ball.element(i)
        key = (e.w.letters, e.k)
        assert ball.distance_by_index(i) == oracle[key]


def test_ball_lookup_helpers():
    ball = cayley_ball(GID, 3)
    t = GID.t()
    assert ball.contains(t) and ball.distance(t) == 1
    deep = GID.element("a b", 1)
    assert ball.distance(deep) == 3
    assert not ball.contains(GID.element("a b a b"))
    with pytest.raises(ValueError):
        ball.index_of(GID.element("a b a b"))
    # an element of another torus group is refused, not looked up by its letters
    for foreign in (GFIB.element("a b a"), G3.element("a b c"), G3.t()):
        for lookup in (ball.index_of, ball.contains, ball.distance):
            with pytest.raises(BasisMismatchError, match="^element of a different torus group$"):
                lookup(foreign)
    twin = torus_group(identity_automorphism(basis("a b")))  # equal to GID, built apart
    assert ball.contains(twin.t()) and ball.distance(twin.element("a b", 1)) == 3
    sizes = ball.sphere_sizes()
    assert sizes[0] == 1 and sum(sizes) == len(ball)
    assert ball.ball_sizes() == [sum(sizes[: k + 1]) for k in range(len(sizes))]


def test_adjacency_is_unit_distance_and_symmetric():
    ball = cayley_ball(GPOLY, 3)
    gens = [GPOLY.element("a"), GPOLY.element("b"), GPOLY.t()]
    steps = [g for g in gens] + [g.inverse() for g in gens]
    for i in range(len(ball)):
        e = ball.element(i)
        for j in ball.neighbors(i):
            assert i in ball.neighbors(j)
            f = ball.element(j)
            assert any(e * s == f for s in steps)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize(
    "group",
    [GID, GPOLY, GFIB, G3, GSWAP, GODD3],
    ids=["id", "poly", "fib", "rank3", "swap", "odd-rank3"],
)
def test_adjacency_is_complete(group, r):
    # every in-ball e·s is listed, on the outer sphere S(r) too
    ball = cayley_ball(group, r)
    gens = [group.element(name) for name in group.basis.names] + [group.t()]
    steps = gens + [g.inverse() for g in gens]
    for i in reversed(range(len(ball))):  # S(r) first: the first call lists it
        e = ball.element(i)
        near = [f for f in (e * s for s in steps) if ball.contains(f)]
        assert ball.neighbors(i) == tuple(sorted(ball.index_of(f) for f in near))


def test_ball_expands_only_inner_levels(monkeypatch):
    calls = []

    def spy(u, v):
        calls.append(u)
        return join(u, v)

    monkeypatch.setattr(geometry, "join", spy)
    for group in (GID, GSWAP, GFIB, G3):
        per_vertex = 2 * group.basis.rank
        for r in (0, 3, 4):
            calls.clear()
            ball = cayley_ball(group, r)
            expanded = len(ball) - ball.sphere_sizes()[r]
            assert len(calls) == per_vertex * expanded
            outer = ball.sphere_indices(r)[-1]
            assert ball.neighbors(outer) == ball.neighbors(outer)
            # S(r) is listed in one pass, once; a bipartite ball reads it
            # off the rows of S(r − 1) and joins nothing
            listed = expanded if group in BIPARTITE else len(ball)
            assert len(calls) == per_vertex * listed


def test_ball_twists_each_column_one_step_from_the_last(compositions):
    for group in (GID, GSWAP, GPOLY, GFIB, G3):
        # a fresh copy of the map, so that no earlier test kept its tables
        phi = group.phi
        group = torus_group(Automorphism(phi.basis, phi.images, phi.inverse_images))
        tabled: set[int] = set()

        def composed_once_per_letter(columns):
            # each fiber letter's image at a new column, one composition of
            # images kept at the columns before it, and nothing else
            new = [k for k in columns - tabled if abs(k) > 1]
            assert sorted(k for k, _ in compositions) == sorted(new * group.basis.rank)
            assert len({(k, abs(x)) for k, x in compositions}) == len(compositions)

        for r in (0, 1, 4, 6):
            compositions.clear()
            ball = cayley_ball(group, r)
            # a column gets its move table when its first vertex is expanded
            expanded = len(ball) - ball.sphere_sizes()[r]
            columns = {ball.element(i).k for i in range(expanded)}
            composed_once_per_letter(columns)
            # lists S(r), whose outermost columns are new unless the
            # ball is bipartite, which builds no move table for S(r)
            ball.neighbors(0)
            if group not in BIPARTITE:
                columns = {ball.element(i).k for i in range(len(ball))}
            composed_once_per_letter(columns)
            tabled |= columns
            # the tables stay with the map: a second ball composes none
            compositions.clear()
            cayley_ball(group, r).neighbors(0)
            assert compositions == []


def test_ball_queries_build_no_rows(monkeypatch):
    calls = []

    def spy(u, v):
        calls.append(u)
        return join(u, v)

    monkeypatch.setattr(geometry, "join", spy)
    ball = cayley_ball(GFIB, 5)
    built = len(calls)
    for i in range(len(ball)):
        e = ball.element(i)
        assert ball.contains(e) and ball.distance(e) == ball.distance_by_index(i)
    assert len(calls) == built  # S(r) was never listed
    assert ball._adj is None  # and the slots were never cut into rows


@st.composite
def nielsen_tori(draw):
    """Mapping tori of products of Nielsen moves on F_2 or F_3."""
    rank = draw(st.integers(2, 3), label="rank")
    imgs = [(j,) for j in range(1, rank + 1)]
    for _ in range(draw(st.integers(0, 4), label="moves")):
        i, j = draw(st.permutations(range(rank)))[:2]
        inv_j = tuple(-x for x in reversed(imgs[j]))
        move = draw(st.sampled_from(["multiply", "invert", "swap"]))
        if move == "multiply":
            imgs[i] = reduce_letters(imgs[i] + draw(st.sampled_from([imgs[j], inv_j])))
        elif move == "invert":
            imgs[i] = tuple(-x for x in reversed(imgs[i]))
        else:
            imgs[i], imgs[j] = imgs[j], imgs[i]
    b = basis("a b c"[: 2 * rank - 1])
    return torus_group(certify_automorphism(Endomorphism(b, tuple(Word(b, w) for w in imgs))))


@settings(max_examples=40, deadline=None)
@given(nielsen_tori(), st.integers(0, 5))
@example(GFIB, 5)
@example(G3, 5)
@example(GSWAP, 5)
@example(GODD3, 5)
def test_ball_matches_the_reference_bfs(group, r):
    # the vertex order fixes which pairs divergence sampling draws
    states, levels, adj = reference_ball(group, r)
    ball = cayley_ball(group, r)
    assert len(ball) == len(states)
    assert [(e.w.letters, e.k) for e in map(ball.element, range(len(ball)))] == states
    assert [ball.distance_by_index(i) for i in range(len(ball))] == levels
    spheres = [[i for i, d in enumerate(levels) if d == k] for k in range(r + 1)]
    assert [ball.sphere_indices(k) for k in range(r + 1)] == spheres
    assert ball.ball_sizes() == [sum(map(len, spheres[: k + 1])) for k in range(r + 1)]
    assert ball.neighbors(len(ball) - 1) == adj[-1]  # lists S(r)
    assert [ball.neighbors(i) for i in range(len(ball))] == adj


@pytest.mark.parametrize("group", [*BIPARTITE, GPOLY, GFIB, G3])
def test_outer_sphere_edges_only_on_non_bipartite_tori(group):
    ball = cayley_ball(group, 5)
    outer = ball.sphere_indices(5)
    inside = sum(j >= outer[0] for i in outer for j in ball.neighbors(i))
    assert (inside == 0) == (group in BIPARTITE)


FIB2_SIZE = len(cayley_ball(GFIB, 2))
BY_INDEX = {
    "element": lambda ball, i: ball.element(i),
    "distance_by_index": lambda ball, i: ball.distance_by_index(i),
    "neighbors": lambda ball, i: ball.neighbors(i),
    "distances_from-start": lambda ball, i: ball.distances_from(i),
    "distances_from-target": lambda ball, i: ball.distances_from(0, target=i),
    "fenced-start": lambda ball, i: ball.distances_from(i, min_level=1, target=0),
    "fenced-target": lambda ball, i: ball.distances_from(0, min_level=1, target=i),
}


@pytest.mark.parametrize("i", [-1, -FIB2_SIZE, FIB2_SIZE, FIB2_SIZE + 5])
@pytest.mark.parametrize("call", BY_INDEX.values(), ids=BY_INDEX.keys())
def test_indices_outside_the_ball_raise(call, i):
    with pytest.raises(IndexError):
        call(cayley_ball(GFIB, 2), i)


@pytest.mark.parametrize("k", [-3, -1, 4, 9])
def test_no_sphere_outside_the_radius(k):
    assert cayley_ball(GFIB, 3).sphere_indices(k) == []


def test_fence_past_the_radius_keeps_nothing():
    ball = cayley_ball(GFIB, 3)
    last = len(ball) - 1
    for start, target in [(0, None), (last, None), (0, last), (last, 0), (last, last)]:
        assert ball.distances_from(start, min_level=4, target=target) == [None] * len(ball)


@pytest.mark.parametrize("budget", [0, -1])
def test_nonsense_budget_is_refused(budget):
    with pytest.raises(ValueError, match="^max_vertices must be positive$"):
        cayley_ball(GID, 0, max_vertices=budget)
    with pytest.raises(ValueError, match="^max_vertices must be positive$"):
        divergence_estimate(GID, [1], max_vertices=budget)
    assert len(cayley_ball(GID, 0, max_vertices=1)) == 1


@pytest.mark.parametrize("samples", [0, -1])
def test_nonsense_sample_count_is_refused(monkeypatch, samples):
    # refused before any ball is built, not answered with an empty report
    monkeypatch.setattr(geometry, "cayley_ball", None)
    with pytest.raises(ValueError, match="^samples_per_radius must be positive$"):
        divergence_estimate(GPOLY, [2, 3], samples_per_radius=samples)


def test_budget_is_all_or_nothing():
    with pytest.raises(BudgetExceededError):
        cayley_ball(GID, 4, max_vertices=50)
    assert len(cayley_ball(GID, 4, max_vertices=1000)) == 313


def test_budget_boundary_is_exact():
    assert len(cayley_ball(GID, 4, max_vertices=313)) == 313
    with pytest.raises(BudgetExceededError):
        cayley_ball(GID, 4, max_vertices=312)


@settings(max_examples=40, deadline=None)
@given(nielsen_tori(), st.integers(1, 4))
def test_budget_is_exact_on_random_tori(group, r):
    ball = cayley_ball(group, r)
    exact = cayley_ball(group, r, max_vertices=len(ball))
    assert [exact.element(i) for i in range(len(exact))] == [
        ball.element(i) for i in range(len(ball))
    ]
    assert exact.ball_sizes() == ball.ball_sizes()
    budget = len(ball) - 1
    message = f"^ball of radius {r} exceeds the budget of {budget} vertices$"
    with pytest.raises(BudgetExceededError, match=message):
        cayley_ball(group, r, max_vertices=budget)


def test_distances_from_restriction():
    ball = cayley_ball(GID, 4)
    start = ball.sphere_indices(4)[0]
    free = ball.distances_from(start)
    fenced = ball.distances_from(start, min_level=2)
    for i, (d1, d2) in enumerate(zip(free, fenced)):
        assert d1 is not None
        if d2 is not None:
            assert d2 >= d1
        if ball.distance_by_index(i) < 2 and i != start:
            assert d2 is None


BALLS = [cayley_ball(g, r) for g in (GID, GPOLY, GFIB) for r in (4, 5)]


def check_pair_search(ball, p, q, low):
    full = ball.distances_from(p, min_level=low)
    got = ball.distances_from(p, min_level=low, target=q)
    assert len(got) == len(ball)
    assert got[q] == full[q]
    # the start side's entries are true restricted distances
    assert all(g is None or g == f for g, f in zip(got, full))
    return got[q]


@pytest.mark.parametrize("ball", BALLS, ids=lambda b: f"{b.group.phi}B{b.radius}")
def test_pair_search_edge_cases(ball):
    r = ball.radius
    sphere = ball.sphere_indices(r)
    p = sphere[0]
    fenced = ball.distances_from(p, min_level=r)
    q = next(i for i in sphere if fenced[i] is None)
    assert check_pair_search(ball, p, q, r) is None  # the fence cuts them apart
    assert check_pair_search(ball, p, p, r) == 0
    assert check_pair_search(ball, 0, 0, 1) is None  # start outside the fence
    assert check_pair_search(ball, 0, p, 1) is None
    assert check_pair_search(ball, p, 0, 1) is None  # target outside the fence


@settings(max_examples=300)
@given(st.sampled_from(range(len(BALLS))), st.data())
def test_pair_search_matches_full_bfs(which, data):
    ball = BALLS[which]
    p = data.draw(st.integers(0, len(ball) - 1), label="p")
    q = data.draw(st.one_of(st.just(p), st.integers(0, len(ball) - 1)), label="q")
    check_pair_search(ball, p, q, data.draw(st.integers(0, ball.radius), label="min_level"))


def test_pair_searches_reuse_their_scratch_cleanly():
    # every search on a ball shares one target-side list, which a pair search
    # must leave clean: 240 pair searches, fenced or not, in batches between
    # full searches, agree with those full searches
    ball = cayley_ball(GFIB, 5)
    rng = random.Random(24)

    def vertex():
        return rng.choice(ball.sphere_indices(rng.randint(0, ball.radius)))

    for _ in range(60):
        batch = []
        for _ in range(4):
            p = vertex()
            q = p if rng.random() < 0.1 else vertex()
            low = rng.choice([None, 0, 1, 2, 3, 5])
            batch.append((p, q, low, ball.distances_from(p, min_level=low, target=q)[q]))
        for p, q, low, got in batch:
            assert got == ball.distances_from(p, min_level=low)[q], (p, q, low)


def test_divergence_asks_only_for_pair_distances(monkeypatch):
    seen = []
    search = BallGraph.distances_from

    def spy(self, start, min_level=None, target=None):
        seen.append(target)
        return search(self, start, min_level, target)

    monkeypatch.setattr(BallGraph, "distances_from", spy)
    divergence_estimate(GPOLY, [2, 4], samples_per_radius=6, seed=3)
    assert seen and None not in seen


# -- divergence ------------------------------------------------------------


def test_divergence_sample_invariants():
    rep = divergence_estimate(GID, [2, 4], samples_per_radius=8, seed=5)
    assert rep.radii == (2, 4)
    for s in rep.samples:
        assert s.distance >= s.radius
        if s.detour is not None:
            assert s.detour >= s.distance
    assert rep.mean_at(4) is not None
    with pytest.raises(KeyError):
        rep.mean_at(3)


def test_divergence_radius_one_detour_is_distance():
    # the forbidden ball around the midpoint is empty at r = 1
    rep = divergence_estimate(GID, [1], samples_per_radius=6, seed=0)
    for s in rep.samples:
        assert s.detour == s.distance


def test_divergence_deterministic_per_seed():
    a = divergence_estimate(GID, [3, 4], samples_per_radius=6, seed=9)
    b = divergence_estimate(GID, [3, 4], samples_per_radius=6, seed=9)
    assert a == b


def test_divergence_fit_and_flags():
    rep = divergence_estimate(GID, [4, 6], samples_per_radius=12, seed=0)
    assert rep.exponent is not None and rep.residual is not None
    assert not rep.low_confidence
    assert "orderings" in rep.note
    only_small = divergence_estimate(GID, [2, 3], samples_per_radius=6, seed=0)
    assert only_small.exponent is None
    assert only_small.low_confidence


def cramer_slope(points):
    """Solve [[Σx², Σx], [Σx, n]]·(a, b) = (Σxy, Σy) for a by Cramer's
    rule, exactly on the float logs x = log r, y = log m."""
    xs = [Fraction(math.log(r)) for r, _ in points]
    ys = [Fraction(math.log(m)) for _, m in points]
    n, sx, sy = len(xs), sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


@st.composite
def fit_points(draw):
    radii = draw(st.lists(st.integers(1, 64), min_size=2, max_size=6, unique=True))
    return [(r, draw(st.floats(1e-3, 1e6))) for r in radii]


@settings(max_examples=200)
@given(fit_points())
def test_loglog_fit_is_the_exact_least_squares_line(points):
    exponent, residual = _loglog_fit(points)
    assert exponent == float(cramer_slope(points))
    xs = numpy.array([math.log(r) for r, _ in points])
    ys = numpy.array([math.log(m) for _, m in points])
    a = numpy.stack([xs, numpy.ones_like(xs)], axis=1)
    coef, *_ = numpy.linalg.lstsq(a, ys, rcond=None)
    rms = math.sqrt(numpy.mean((a @ coef - ys) ** 2))
    assert math.isclose(exponent, coef[0], rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(residual, rms, rel_tol=1e-9, abs_tol=1e-9)
    if len(points) == 2:
        assert residual == 0.0


def test_divergence_rejects_empty_radii():
    with pytest.raises(ValueError, match="^radii must be positive$"):
        divergence_estimate(GID, [])
