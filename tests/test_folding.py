"""Folded subgroup graphs against brute-force enumeration.

The oracle for membership is bounded product enumeration over the
generators (helpers.bounded_products), which never touches the
folding code.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fgrow.folding import (
    StallingsGraph,
    conjugate_subgroup,
    double_coset_contains,
    full_group,
    intersect,
    is_invariant,
    stallings_graph,
    subgroup_equal,
    trivial_subgroup,
    witnessed_graph,
)
from fgrow.words import BasisMismatchError, Word, basis, free_reduce, identity

from helpers import bounded_products, random_letters, reduce_letters

F = basis("a b")
F3 = basis("a b c")


def W(text: str) -> Word:
    return F.parse(text)


def graph(*gens: str) -> StallingsGraph:
    return stallings_graph(F, [W(g) for g in gens])


# -- frozen small examples -------------------------------------------------


def test_squares_and_b():
    g = graph("a a", "b")
    assert g.n_vertices == 2
    assert g.accepts(W("a a"))
    assert g.accepts(W("b"))
    assert g.accepts(W("a a b a a"))
    assert not g.accepts(W("a"))
    assert not g.accepts(W("a b"))
    assert g.rank() == 2
    assert g.index() is None


def test_index_two_subgroup():
    g = graph("a a", "b", "a b a'")
    assert g.index() == 2
    # Nielsen-Schreier: rank = 1 + index*(rank(F) - 1)
    assert g.rank() == 1 + 2 * (F.rank - 1)


def test_trivial_and_full():
    assert trivial_subgroup(F).accepts(identity(F))
    assert not trivial_subgroup(F).accepts(W("a"))
    assert full_group(F).index() == 1
    assert full_group(F).accepts(W("a b' a b"))


def test_canonical_form_is_generator_independent():
    assert graph("a", "b a b") == graph("b a b", "a")
    assert subgroup_equal(graph("a b", "a"), graph("b", "a"))
    assert graph("a") != graph("b")


def test_free_basis_roundtrip():
    g = graph("a a", "b a b")
    fb = g.free_basis()
    assert len(fb) == g.rank()
    for w in fb:
        assert g.accepts(w)
        expr = g.express_in_free_basis(w)
        assert expr is not None and len(expr) == 1
    assert g.express_in_free_basis(W("a")) is None


def test_conjugate_subgroup():
    g = conjugate_subgroup(graph("a"), W("b"))
    assert g.accepts(W("b a b'"))
    assert not g.accepts(W("a"))


def test_intersection_examples():
    assert subgroup_equal(intersect(graph("a"), graph("b")), trivial_subgroup(F))
    assert subgroup_equal(intersect(graph("a"), graph("a a")), graph("a a"))
    h = intersect(graph("a a", "b"), full_group(F))
    assert subgroup_equal(h, graph("a a", "b"))


def test_is_invariant():
    from fgrow.automorphisms import identity_automorphism, parse_automorphism

    ident = identity_automorphism(F)
    assert is_invariant(graph("a a", "b"), ident)
    swap = parse_automorphism("a -> b\nb -> a")
    assert not is_invariant(graph("a"), swap)
    assert is_invariant(graph("a b", "b a"), swap)


def test_double_coset():
    left = graph("a")
    right = graph("b")
    assert double_coset_contains(left, W("a b"), right, W("a a a b b"))
    assert not double_coset_contains(left, W("a b"), right, W("b a"))
    # empty s: plain product of the two subgroups
    assert double_coset_contains(left, identity(F), right, W("a b b"))
    assert not double_coset_contains(left, identity(F), right, W("b a"))


# -- enumeration oracle ----------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_membership_matches_enumeration(seed):
    rng = random.Random(seed)
    gens = [random_letters(rng, 2, rng.randint(1, 5)) for _ in range(rng.randint(1, 3))]
    g = stallings_graph(F, [Word(F, free_reduce(gl)) for gl in gens])
    members = bounded_products(gens, 6)
    for ls in members:
        assert g.accepts(Word(F, ls)), f"enumerated member rejected: {ls}"
    for _ in range(200):
        ls = random_letters(rng, 2, rng.randint(0, 7))
        w = Word(F, free_reduce(ls))
        if not g.accepts(w):
            assert w.letters not in members


@pytest.mark.parametrize("seed", range(3))
def test_double_coset_matches_enumeration(seed):
    rng = random.Random(seed)
    lg = [random_letters(rng, 2, rng.randint(1, 3)) for _ in range(2)]
    rg = [random_letters(rng, 2, rng.randint(1, 3)) for _ in range(2)]
    left = stallings_graph(F, [Word(F, free_reduce(ls)) for ls in lg])
    right = stallings_graph(F, [Word(F, free_reduce(ls)) for ls in rg])
    s = Word(F, random_letters(rng, 2, 2))
    products = {
        reduce_letters(l + s.letters + r)
        for l in bounded_products(lg, 3)
        for r in bounded_products(rg, 3)
    }
    hits = 0
    for _ in range(150):
        w = Word(F, random_letters(rng, 2, rng.randint(0, 5)))
        got = double_coset_contains(left, s, right, w)
        if w.letters in products:
            assert got, f"enumerated product rejected: {w}"
            hits += 1
        elif not got:
            assert w.letters not in products
    for ls in list(products)[:50]:
        assert double_coset_contains(left, s, right, Word(F, ls))


# -- witnessed graphs ------------------------------------------------------


def test_witnessed_expressions_evaluate_back():
    gens = [W("a a"), W("b a b")]
    wg = witnessed_graph(F, gens)
    rng = random.Random(7)
    for _ in range(100):
        expr = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 6))]
        word = identity(F)
        for j in expr:
            word = word * (gens[abs(j) - 1] if j > 0 else gens[abs(j) - 1].inverse())
        got = wg.express(word)
        assert got is not None
        back = identity(F)
        for j in got:
            back = back * (gens[abs(j) - 1] if j > 0 else gens[abs(j) - 1].inverse())
        assert back == word


def test_witnessed_rejects_nonmembers():
    wg = witnessed_graph(F, [W("a a"), W("b")])
    assert wg.express(W("a")) is None
    assert wg.express(W("a a b")) is not None


def test_witnessed_express_checks_basis():
    wg = witnessed_graph(F, [W("a"), W("b")])
    with pytest.raises(BasisMismatchError):
        wg.express(basis("x y").parse("x y"))


def gen_lists(rank: int, max_len: int, max_gens: int):
    letters = [s * x for x in range(1, rank + 1) for s in (1, -1)]
    return st.lists(
        st.lists(st.sampled_from(letters), min_size=1, max_size=max_len),
        min_size=1,
        max_size=max_gens,
    )


# Many longer generators over three letters make folds chain, so merged
# vertices sit deep in the union-find and their potentials are composed
# through path compression.  Few draws read such a composed potential
# back; the explicit example does.
@settings(max_examples=80)
@given(
    st.one_of(
        st.tuples(st.just(F), gen_lists(2, 5, 3)),
        st.tuples(st.just(F3), gen_lists(3, 12, 8)),
    )
)
@example((F3, [[-3, 1, 1], [1, -3, -2, -1], [2, 1], [-1]]))
def test_witnessed_graph_agrees_with_plain_fold(case):
    b, lists = case
    gens = [Word(b, free_reduce(ls)) for ls in lists]
    plain = stallings_graph(b, gens)
    wg = witnessed_graph(b, gens)
    assert subgroup_equal(wg.graph, plain)
    assert wg.graph == plain
    for w in plain.free_basis():
        expr = wg.express(w)
        assert expr is not None and wg.evaluate(expr) == w


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(F), gen_lists(2, 6, 4)),
        st.tuples(st.just(F3), gen_lists(3, 8, 5)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_express_in_free_basis_matches_a_witnessed_fold_of_the_basis(case, seed):
    b, lists = case
    rng = random.Random(seed)
    gens = [Word(b, free_reduce(ls)) for ls in lists]
    g = stallings_graph(b, gens)
    reference = witnessed_graph(b, g.free_basis())
    words = [Word(b, random_letters(rng, b.rank, rng.randint(0, 10))) for _ in range(20)]
    for _ in range(20):  # members: products of the generators
        w = identity(b)
        for _ in range(rng.randint(0, 5)):
            h = rng.choice(gens)
            w = w * (h if rng.random() < 0.5 else h.inverse())
        words.append(w)
    for w in words:
        expr = g.express_in_free_basis(w)
        assert expr == reference.express(w)
        assert (expr is not None) == g.accepts(w)


# -- cored, canonical graphs and the fiber product -------------------------


def assert_cored_and_canonical(g: StallingsGraph) -> None:
    """Connected, no hanging vertex but the base, numbered in the order
    a breadth-first search from 0 (labels ascending, outgoing edges
    before incoming ones) discovers the vertices."""
    succ, pred = {}, {}
    degree = [0] * g.n_vertices
    for u, x, v in g.edges:
        succ[(u, x)] = v
        pred[(v, x)] = u
        degree[u] += 1
        degree[v] += 1
    order = [0]
    for v in order:
        for x in range(1, g.basis.rank + 1):
            for w in (succ.get((v, x)), pred.get((v, x))):
                if w is not None and w not in order:
                    order.append(w)
    assert order == list(range(g.n_vertices))
    assert all(d >= 2 for d in degree[1:])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just(F), gen_lists(2, 6, 3), gen_lists(2, 6, 3)),
        st.tuples(st.just(F3), gen_lists(3, 8, 4), gen_lists(3, 8, 4)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_folded_graphs_are_cored_and_canonical_and_intersect_is_the_meet(case, seed):
    b, lists_a, lists_c = case
    rng = random.Random(seed)
    gens_a = [Word(b, free_reduce(ls)) for ls in lists_a]
    # C shares some of A's generators, so that A ∩ C has members to find
    shared = gens_a[: rng.randint(0, len(gens_a))]
    gens_c = [Word(b, free_reduce(ls)) for ls in lists_c] + shared
    a, c = stallings_graph(b, gens_a), stallings_graph(b, gens_c)
    meet = intersect(a, c)
    for g in (a, c, meet):
        assert_cored_and_canonical(g)
    words = [Word(b, random_letters(rng, b.rank, rng.randint(0, 12))) for _ in range(40)]
    for _ in range(40):
        w = identity(b)
        for _ in range(rng.randint(1, 4)):
            g = rng.choice(gens_a)
            w = w * (g if rng.random() < 0.5 else g.inverse())
        words.append(w)
    for w in words:
        assert meet.accepts(w) == (a.accepts(w) and c.accepts(w))
