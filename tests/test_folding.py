"""Folded subgroup graphs against brute-force enumeration.

The oracle for membership is bounded product enumeration over the
generators (helpers.bounded_products), which never touches the
folding code.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fgrow import folding
from fgrow.automorphisms import parse_automorphism
from fgrow.folding import (
    StallingsGraph,
    double_coset_contains,
    full_group,
    intersect,
    is_invariant,
    stallings_graph,
    trivial_subgroup,
    witnessed_graph,
)
from fgrow.mapping_torus import UnstabilizedError, fiber_intersection, torus_group
from fgrow.words import BasisMismatchError, Word, basis, free_reduce, identity

from helpers import (
    bounded_products,
    petal_fold,
    random_letters,
    reduce_letters,
    reference_spanning_tree,
)

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
    assert graph("a b", "a") == graph("b", "a")
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


def test_intersection_examples():
    assert intersect(graph("a"), graph("b")) == trivial_subgroup(F)
    assert intersect(graph("a"), graph("a a")) == graph("a a")
    h = intersect(graph("a a", "b"), full_group(F))
    assert h == graph("a a", "b")


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
# back; the first explicit example does.  The others reach the cases of
# a witnessed add_path that short random draws seldom combine.
@settings(max_examples=80)
@given(
    st.one_of(
        st.tuples(st.just(F), gen_lists(2, 5, 3)),
        st.tuples(st.just(F3), gen_lists(3, 12, 8)),
    )
)
@example((F3, [[-3, 1, 1], [1, -3, -2, -1], [2, 1], [-1]]))
@example((F, [[1, 2], [1]]))  # a is read to 1 entirely: 1 merges onto 0 as a
@example((F, [[1, -2], [-2, -1, 2]]))  # closing letters b⁻¹ and b
@example((F3, [[1, 2], [1, 2, 3, -2]]))  # prefix a b crosses a closing edge; closes on b⁻¹
def test_witnessed_graph_agrees_with_plain_fold(case):
    b, lists = case
    gens = [Word(b, free_reduce(ls)) for ls in lists]
    plain = stallings_graph(b, gens)
    wg = witnessed_graph(b, gens)
    assert wg.graph == plain
    assert wg.graph == plain
    assert (plain.n_vertices, plain.edges) == petal_fold(b.rank, [g.letters for g in gens])
    members = [g if s > 0 else g.inverse() for g in gens for s in (1, -1)]
    products = [g * h for g in members for h in members]
    for w in plain.free_basis() + products:
        expr = wg.express(w)
        assert expr is not None and wg.evaluate(expr) == w
    # the fold multiplies stored expressions at their junction only, so
    # each one, and each queued merge's, must stay reduced
    fold = folding._Fold(b.rank)
    drain = fold.drain

    def checked_drain():
        assert all(free_reduce(d) == d for *_, d in fold.unions)
        drain()

    fold.drain = checked_drain
    for j, g in enumerate(gens, start=1):
        fold.add_path(g.letters, e=(j,))
        assert all(free_reduce(e) == e for e in [*fold.ex.values(), *fold.uf.pot.values()])
    # the same loops given no expressions fold to the same graph, with
    # no expression and no potential held
    plain_fold = folding._Fold(b.rank)
    for g in gens:
        plain_fold.add_path(g.letters)
    assert not plain_fold.ex and not plain_fold.uf.pot
    assert plain_fold.graph(b) == plain


def conjugated_gen_lists(rank: int, max_len: int, max_gens: int):
    """Pairs (c, u) standing for the generator c·u·c⁻¹, reduced: with c
    non-empty, most are not cyclically reduced."""
    letters = [s * x for x in range(1, rank + 1) for s in (1, -1)]
    word = st.lists(st.sampled_from(letters), max_size=max_len)
    return st.lists(st.tuples(word, word), min_size=1, max_size=max_gens)


# stallings_graph folds loops onto a live fold, reading each word along
# the graph first; helpers.petal_fold merges a wedge of petals and shares
# no code with it.
@settings(max_examples=100)
@given(
    st.one_of(
        st.tuples(st.just(F), conjugated_gen_lists(2, 4, 4)),
        st.tuples(st.just(F3), conjugated_gen_lists(3, 5, 5)),
    ),
    st.randoms(use_true_random=False),
)
@example((F, [([1], [2])]), random.Random(0))  # a b a⁻¹: the closing edge folds
@example((F3, [([], [1, 2, -1]), ([2], [3, 3]), ([], [-2, 1])]), random.Random(0))
def test_loop_fold_equals_petal_fold_in_any_order(case, rng):
    b, pairs = case
    gens = [
        Word(b, free_reduce(c + u + [-x for x in reversed(c)])) for c, u in pairs
    ]
    want = StallingsGraph(b, *petal_fold(b.rank, [g.letters for g in gens]))
    assert stallings_graph(b, gens) == want
    rng.shuffle(gens)
    assert stallings_graph(b, gens) == want


def test_loop_whose_closing_edge_folds_into_its_first():
    # reading a b a⁻¹ onto the trivial graph adds the path 0 -a- 1 -b- 2
    # and a closing a-edge from 0 to 2, which folds 2 onto 1
    g = graph("a b a'")
    assert (g.n_vertices, len(g.edges)) == (2, 2)
    assert g.edges == ((0, 1, 1), (1, 2, 1))


@settings(max_examples=60)
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


@settings(max_examples=60)
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


# -- the numbering walk's spanning tree ------------------------------------


def test_constructor_numbers_canonically_and_refuses_bad_edge_sets():
    # a b b's loop, numbered 0 -a- 2 -b- 1 -b- 0 by the caller
    g = StallingsGraph(F, 3, [(0, 1, 2), (2, 2, 1), (1, 2, 0)])
    assert g == graph("a b b")
    assert g.edges == ((0, 1, 1), (1, 2, 2), (2, 2, 0))
    with pytest.raises(ValueError, match="unreachable"):
        StallingsGraph(F, 3, [(0, 1, 0), (1, 2, 2)])
    for bad in [(0, 3, 0), (0, 1, -1), (0, 1, 2)]:  # -1 would alias vertex 1
        with pytest.raises(ValueError, match="names no generator or vertex"):
            StallingsGraph(F, 2, [(1, 2, 0), bad])


def assert_canonical_table(g: StallingsGraph) -> None:
    # rebuilt from its edges, a canonical graph is itself; the cotree the
    # numbering walk records is the edges off its spanning tree, in order
    assert StallingsGraph(g.basis, g.n_vertices, g.edges) == g
    via = g._via
    assert g._cotree == [
        (u, x, v) for u, x, v in g.edges if via[v] != (u, x) and via[u] != (v, -x)
    ]


def assert_tree_is_the_reference(g: StallingsGraph) -> None:
    order, via, words = reference_spanning_tree(g.basis.rank, g.edges)
    assert order == list(range(g.n_vertices))
    assert g._via == via
    assert [w.letters for w in g.free_basis()] == words
    assert g.rank() == len(g.edges) - g.n_vertices + 1 == len(words)
    assert g.is_trivial() == (not g.edges)
    assert_canonical_table(g)


FIBER_TORI = [
    torus_group(parse_automorphism(rules))
    for rules in ("a -> a b\nb -> a", "a -> b\nb -> a", "a -> b\nb -> c\nc -> a b")
]


# The walk that numbers a graph also records its spanning tree; the
# reference searches the numbered edges again, so each source of graphs
# is checked: folds, witnessed folds, fiber products, saturated fibers,
# and the constructor on shuffled vertex ids.
@settings(max_examples=60)
@given(
    st.one_of(
        st.tuples(st.just(F), gen_lists(2, 6, 3), gen_lists(2, 6, 3)),
        st.tuples(st.just(F3), gen_lists(3, 8, 4), gen_lists(3, 8, 4)),
    ),
    st.randoms(use_true_random=False),
)
@example((F, [[1]], [[2]]), random.Random(0))  # a trivial meet
def test_recorded_spanning_tree_is_the_reference_bfs(case, rng):
    b, lists_a, lists_c = case
    gens_a = [Word(b, free_reduce(ls)) for ls in lists_a]
    gens_c = [Word(b, free_reduce(ls)) for ls in lists_c] + gens_a[:1]
    a, c = stallings_graph(b, gens_a), stallings_graph(b, gens_c)
    n, edges = petal_fold(b.rank, [g.letters for g in gens_c])
    ids = [0] + rng.sample(range(1, n), n - 1)
    shuffled = [(ids[u], x, ids[v]) for u, x, v in edges]
    rng.shuffle(shuffled)
    relabeled = StallingsGraph(b, n, shuffled)
    assert relabeled == c
    graphs = [a, c, intersect(a, c), witnessed_graph(b, gens_a).graph, relabeled]
    group = rng.choice(FIBER_TORI)
    rank = group.basis.rank
    gens = []
    for _ in range(rng.randint(1, 3)):
        letters = list(random_letters(rng, rank, rng.randint(0, 4)))
        for _ in range(rng.randint(0, 2)):
            letters.insert(rng.randint(0, len(letters)), rng.choice((1, -1)) * (rank + 1))
        gens.append(group.normalize(letters))
    try:
        graphs.append(fiber_intersection(group, gens, max_rounds=4, max_vertices=200).graph)
    except UnstabilizedError:
        pass
    for g in graphs:
        assert_tree_is_the_reference(g)


# -- the fold's signed-slot table ------------------------------------------


def assert_slot_table_is_folded(fold) -> None:
    """The invariants ``_Fold.drain`` leaves: slot k of vertex v holds the
    end of v's signed letter k − r, or −1."""
    t, r, w, parent, ex = fold.t, fold.r, fold.w, fold.uf.parent, fold.ex
    assert len(t) == len(parent) * w
    for v in range(len(parent)):
        row = t[v * w : v * w + w]
        assert row[r] == -1  # the centre slot
        if parent[v] != v:  # merged away
            assert row == [-1] * w
        for k, c in enumerate(row):
            if c >= 0:
                assert parent[c] == c  # every filled slot names a root
                assert t[c * w + w - 1 - k] == v  # and its partner points back
    for k, e in ex.items():
        v, off = divmod(k, w)
        c = t[k]
        assert e and c >= 0
        assert ex[c * w + w - 1 - off] == tuple(-j for j in reversed(e))


# Random folds of loops, given expressions or not, and then a path out
# to a second vertex, as a coset automaton folds one; the invariants are
# checked after every drain.
@settings(max_examples=80)
@given(
    st.one_of(
        st.tuples(st.just(F), gen_lists(2, 6, 4), gen_lists(2, 6, 1)),
        st.tuples(st.just(F3), gen_lists(3, 10, 6), gen_lists(3, 6, 1)),
    ),
    st.booleans(),
)
@example((F, [[1, 2, -1]], [[1]]), True)  # the closing edge folds into the first
@example((F3, [[-3, 1, 1], [1, -3, -2, -1], [2, 1], [-1]], [[2, 2]]), True)
def test_slot_table_invariants_hold_after_every_drain(case, witnessed):
    b, lists, (tail,) = case
    gens = [Word(b, free_reduce(ls)) for ls in lists]
    fold = folding._Fold(b.rank, 2)  # vertex 1 ends the tail path
    drain = fold.drain

    def checked_drain():
        drain()
        assert_slot_table_is_folded(fold)

    fold.drain = checked_drain
    for j, g in enumerate(gens, start=1):
        fold.add_path(g.letters, e=(j,) if witnessed else ())
        assert_slot_table_is_folded(fold)
    assert bool(fold.ex) <= witnessed
    g = fold.graph(b)
    assert g == stallings_graph(b, gens)
    assert_canonical_table(g)
    fold.add_path(free_reduce(tail), 1)
    assert_slot_table_is_folded(fold)


def test_hash_agrees_with_equality_and_builds_no_edge_tuple():
    b = basis("a b")
    g = stallings_graph(b, [b.parse("a b a'"), b.parse("b b")])
    h = stallings_graph(b, [b.parse("b b"), b.parse("a b a'"), b.parse("a b b a'")])
    assert g == h and hash(g) == hash(h)
    assert "edges" not in vars(g)
    assert hash(g) != hash(stallings_graph(b, [b.parse("a")]))
