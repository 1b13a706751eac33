"""Mapping torus normal forms and fiber intersections.

The independent model is a literal pair implementation of the
semidirect product: (w1, k1)(w2, k2) = (w1 · t^k1(w2), k1 + k2) with
the twist applied by table substitution from helpers.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fgrow import folding, mapping_torus
from fgrow.automorphisms import (
    Endomorphism,
    _Composite,
    certify_automorphism,
    compose,
    identity_automorphism,
    inner_automorphism,
    parse_automorphism,
    power,
)
from fgrow.folding import stallings_graph, trivial_subgroup
from fgrow.geometry import cayley_ball
from fgrow.mapping_torus import (
    TorusElement,
    UnstabilizedError,
    _ext_gcd,
    fiber_intersection,
    torus_group,
)
from fgrow.words import (
    BudgetExceededError,
    VerificationError,
    Word,
    basis,
)

from helpers import (
    image_table,
    random_letters,
    reduce_letters,
    reference_fiber_saturation,
    substitute,
    torus_words,
    two_way_saturation,
)

F = basis("a b")
FIB = parse_automorphism("a -> a b\nb -> a")
G = torus_group(FIB)
GID = torus_group(identity_automorphism(F))


def pair_model(phi):
    """Independent (letters, k) pair arithmetic for a certified map."""
    fwd = image_table(phi)
    bwd = image_table(phi.inverse())

    def twist(k, letters):
        for _ in range(abs(k)):
            letters = substitute(fwd if k > 0 else bwd, letters)
        return letters

    def mul(p1, p2):
        (w1, k1), (w2, k2) = p1, p2
        return reduce_letters(w1 + twist(k1, w2)), k1 + k2

    return mul


def model_normalize(phi, letters, rank=2):
    mul = pair_model(phi)
    acc = ((), 0)
    for x in letters:
        if abs(x) == rank + 1:
            acc = mul(acc, ((), 1 if x > 0 else -1))
        else:
            acc = mul(acc, ((x,), 0))
    return acc


# -- normal forms ----------------------------------------------------------


def test_presentation_layout():
    assert G.presentation() == "< a, b, t | t a t^-1 = a b, t b t^-1 = a >"


def test_defining_relators_die():
    for rel in G.defining_relators():
        assert rel.is_identity()
    for rel in GID.defining_relators():
        assert rel.is_identity()


def test_t_name_reserved():
    with pytest.raises(ValueError):
        torus_group(identity_automorphism(basis("t u")))


@pytest.mark.parametrize("letters", [[1, 0], [3, 4], [-5]])
def test_normalize_rejects_letters_outside_the_extended_basis(letters):
    with pytest.raises(ValueError, match="out of range for rank 3"):
        G.normalize(letters)


def test_normalize_matches_pair_model_exhaustively():
    for letters in torus_words(2, 3):
        got = G.normalize(letters)
        want_w, want_k = model_normalize(FIB, letters)
        assert got.w.letters == want_w and got.k == want_k


@pytest.mark.parametrize("name", ["fib", "poly", "identity", "swap"])
def test_normalize_long_words_matches_pair_model(name):
    phi = parse_automorphism(SATURATION_TORI[name])
    group = torus_group(phi)
    rng = random.Random(name)
    alphabet = [s * i for i in range(1, 4) for s in (1, -1)]
    for _ in range(20):
        letters = [rng.choice(alphabet) for _ in range(rng.randint(20, 60))]
        got = group.normalize(letters)
        assert (got.w.letters, got.k) == model_normalize(phi, letters), letters


NORMALIZE_TORI = {
    "fib": G,
    "poly": torus_group(parse_automorphism("a -> a\nb -> b a")),
    "swap": torus_group(parse_automorphism("a -> b\nb -> a")),
    "rank3": torus_group(parse_automorphism("a -> a\nb -> b a\nc -> c b")),
}


def letterwise_normalize(group, letters):
    """(w, k) with each fiber letter's Φᵏ(x) applied from scratch, by
    |k| steps of Φ or Φ⁻¹ and none of the package's kept tables."""
    section = group.basis.rank + 1
    k, out = 0, []
    for x in letters:
        if abs(x) == section:
            k += 1 if x > 0 else -1
        else:
            step = group.phi.apply if k > 0 else group.phi.inverse().apply
            w = Word(group.basis, (x,))
            for _ in range(abs(k)):
                w = step(w)
            out.extend(w.letters)
    return reduce_letters(out), k


@st.composite
def torus_inputs(draw, height=10):
    """A torus name and a word over its basis ∪ {t} whose t-height stays
    within ±height, so that fib's images stay short."""
    name = draw(st.sampled_from(sorted(NORMALIZE_TORI)))
    section = NORMALIZE_TORI[name].basis.rank + 1
    alphabet = [s * i for i in range(1, section + 1) for s in (1, -1)]
    k, letters = 0, []
    for x in draw(st.lists(st.sampled_from(alphabet), max_size=80)):
        if abs(x) == section:
            if abs(k + (1 if x > 0 else -1)) > height:
                continue
            k += 1 if x > 0 else -1
        letters.append(x)
    return name, letters


@settings(max_examples=200, deadline=None)
@given(torus_inputs())
@example(("poly", [3] * 3000 + [2] + [-3] * 3000))
@example(("rank3", [-4] * 7 + [3, 2, 1, 4, 4, -3] + [4] * 20 + [-1, 3]))
def test_normalize_matches_letterwise_powers(case):
    # a height far past the recursion limit is reached by steps, not by recursion
    name, letters = case
    group = NORMALIZE_TORI[name]
    got = group.normalize(letters)
    assert (got.w.letters, got.k) == letterwise_normalize(group, letters)


def test_normalize_steps_each_height_once(compositions):
    # a fresh map, so that no earlier test kept its tables
    group = torus_group(parse_automorphism("a -> a\nb -> b a"))
    # b and a at height 5, b again at 2, then b⁻¹ and a at -2: T_5 is
    # T_4∘T_1, T_4 is T_2∘T_2 and T_2 is T_1∘T_1, so b's image at 5
    # composes b's and a's at 4 and 2, and a's at 5 reads a's kept at 4;
    # T_−2 is T_−1∘T_−1.  Each letter's image is composed once per map.
    text = "t^5 b a t^-3 b t^-4 b' a"
    e = group.normalize(text)
    assert compositions == [(5, 2), (4, 2), (2, 2), (2, 1), (4, 1), (5, 1), (-2, -2), (-2, 1)]
    compositions.clear()
    assert group.normalize(text) == e
    assert compositions == []
    letters = group.extended_basis.parse(text).letters
    assert (e.w.letters, e.k) == letterwise_normalize(group, letters)


def test_powers_compose_only_the_letters_reached(compositions):
    # Φ fixes c while a and b grow: |Φ⁶⁰(a)| is F_61 ≈ 2.5·10¹² letters,
    # so a table composed for every letter could not be built
    group = torus_group(parse_automorphism("a -> a b; b -> a; c -> c"))
    c = Word(group.basis, (3,))
    assert group.normalize("t^60 c t^-60") == TorusElement(group, c, 0)
    product = TorusElement(group, c, 60) * TorusElement(group, c, 0)
    assert product == TorusElement(group, c * c, 60)
    # only c's images, at the O(log k) heights that T_60 splits into
    assert {abs(x) for _, x in compositions} == {3}
    assert len(compositions) <= 2 * (60).bit_length()
    # and the kept tables hold those one-letter images and nothing more
    kept = [t for t in group.phi._tables.values() if isinstance(t, _Composite)]
    assert sum(len(y) for t in kept for y in t.values()) == 2 * len(compositions)


def test_a_climb_of_kept_tables_composes_bottom_up(compositions):
    # t a t a … asks T_1[a], T_2[a], … in order, so each T_k is kept as
    # T_1∘T_(k−1); b's image at the top then composes b's at every
    # height below it once, bottom up, without recursing 1500 deep
    group = torus_group(parse_automorphism("a -> b; b -> a"))
    n = 1500
    e = group.normalize("t a " * n + "t b")
    assert (e.w.letters, e.k) == ((2, 1) * (n // 2) + (1,), n + 1)
    want = [(k, 1) for k in range(2, n + 1)] + [(k, 2) for k in range(2, n + 2)]
    assert sorted(compositions) == sorted(want)


@pytest.mark.parametrize("seed", range(4))
def test_group_laws_random(seed):
    rng = random.Random(seed)
    alphabet = [s * i for i in range(1, 4) for s in (1, -1)]

    def rand_elem():
        return G.normalize([rng.choice(alphabet) for _ in range(rng.randint(0, 6))])

    for _ in range(50):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == G.identity_element()
        assert x.inverse().inverse() == x
        assert (x * y).inverse() == y.inverse() * x.inverse()
        assert (x * y).k == x.k + y.k


def test_powers():
    e = G.element("a b'", 2)
    assert e ** 3 == e * e * e
    assert e ** -2 == (e.inverse()) * (e.inverse())
    assert e ** 0 == G.identity_element()


@settings(max_examples=150, deadline=None)
@given(torus_inputs(height=4), st.integers(-5, 5))
def test_power_is_repeated_product(case, m):
    name, letters = case
    group = NORMALIZE_TORI[name]
    g = group.normalize(letters)
    base = g if m >= 0 else g.inverse()
    want = group.identity_element()
    for _ in range(abs(m)):
        want = want * base
    assert g ** m == want


def test_power_steps_each_factor_once(monkeypatch):
    # A deterministic work count: g^m as |m| products applied Φ^(ik) to
    # w for each i < |m|, 2,001,022 calls to apply on this input; each
    # factor one Φ^k step from the last takes 4,021.
    calls = []
    apply = Endomorphism.apply

    def counted(self, w, k=1):
        calls.append(w)
        return apply(self, w, k)

    monkeypatch.setattr(Endomorphism, "apply", counted)
    fi = fiber_intersection(GID, [GID.normalize("a t^2000"), GID.t()])
    assert [str(w) for w in fi.graph.free_basis()] == ["a"]
    assert len(calls) <= 5000


def test_conjugation_by_t_applies_map():
    t = G.t()
    for name in ("a", "b"):
        x = G.element(name)
        assert t * x * t.inverse() == G.element(FIB.apply(F.parse(name)))
    assert t.inverse() * G.element("a") * t == G.element(FIB.inverse().apply(F.parse("a")))


def test_element_exponent_and_str():
    assert G.element("a b").k == 0
    assert G.t().k == 1
    assert str(G.element("a", -1)) == "a t'"
    assert str(G.element("b", 2)) == "b t t"
    assert str(G.identity_element()) == "1"


# -- fiber intersections ---------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
def test_ext_gcd_from_zero_takes_the_exponent(k):
    # the first generator off the fiber becomes s = g^±1 through the
    # general Euclid step
    assert _ext_gcd(0, k) == (abs(k), 0, 1 if k > 0 else -1)


def test_fiber_of_b_and_t_identity_map():
    fi = fiber_intersection(GID, [GID.element("b"), GID.t()])
    assert fi.n == 1 and fi.rounds == 0
    assert fi.graph == stallings_graph(F, [F.parse("b")])
    assert fi.s is not None and fi.s.k == 1


def test_fiber_with_spread_section():
    fi = fiber_intersection(GID, [GID.element("a"), GID.t(2)])
    assert fi.n == 2
    assert fi.graph == stallings_graph(F, [F.parse("a")])


def test_fiber_of_pure_section_is_trivial():
    fi = fiber_intersection(GID, [GID.t()])
    assert fi.graph == trivial_subgroup(F)
    assert fi.n == 1


def test_fiber_saturates_under_fibonacci():
    fi = fiber_intersection(G, [G.element("b"), G.t()])
    assert fi.graph.is_full_cover() and fi.graph.rank() == 2
    assert fi.rounds >= 1


def test_fiber_membership_matches_enumeration():
    # every short word of the ambient torus group that lands in the
    # fiber and inside H = <b, t> must be accepted, by direct check of
    # its witness product
    fi = fiber_intersection(GID, [GID.element("b"), GID.t()], with_witnesses=True)
    for letters in torus_words(2, 4):
        e = GID.normalize(letters)
        if e.k != 0:
            continue
        inside = fi.contains(e.w)
        ws = set(e.w.letters)
        assert inside == ws.issubset({2, -2}), str(e.w)
        if inside:
            expr = fi.witness(e.w)
            assert expr is not None
            back = fi.evaluate_witness(expr)
            assert back == e


def test_fiber_witnesses_roundtrip():
    fi = fiber_intersection(G, [G.element("b"), G.t()], with_witnesses=True)
    for w, expr in fi.basis_witnesses():
        back = fi.evaluate_witness(expr)
        assert back.k == 0 and back.w == w
    assert fi.witness(F.parse("a b a")) is not None


def test_witness_of_a_non_member_is_none():
    fi = fiber_intersection(G, [G.element("a"), G.element("b a b'")], with_witnesses=True)
    assert not fi.contains(F.parse("b"))
    assert fi.witness(F.parse("b")) is None


def test_witness_requires_flag():
    fi = fiber_intersection(GID, [GID.element("b"), GID.t()])
    with pytest.raises(ValueError):
        fi.witness(F.parse("b"))


def test_unstabilized_budget():
    with pytest.raises(UnstabilizedError) as info:
        fiber_intersection(
            GID, [GID.element("a", 1), GID.element("b", 1)], max_rounds=8
        )
    assert (info.value.rounds, info.value.vertices) == (9, 18)


def test_saturation_links_only_what_new_loops_fold(monkeypatch):
    # A deterministic work count in place of a timing: refolding every
    # edge of the graph each round took 20,748 links on this run; tracing
    # each escaped image before adding vertices takes 1,884.
    links = []
    link = folding._UnionFind.link

    def counted(self, *args):
        links.append(args)
        return link(self, *args)

    monkeypatch.setattr(folding._UnionFind, "link", counted)
    gens = [G.normalize("a b"), G.normalize("b a t' a")]
    with pytest.raises(UnstabilizedError) as info:
        fiber_intersection(G, gens, max_vertices=5000)
    assert (info.value.rounds, info.value.vertices) == (14, 7020)
    assert len(links) <= 4000


@pytest.mark.parametrize(
    "overrun, message, counts",
    [
        (
            lambda: cayley_ball(GID, 4, max_vertices=50),
            "ball of radius 4 exceeds the budget of 50 vertices",
            None,
        ),
        (
            lambda: fiber_intersection(
                G, [G.normalize("a b"), G.normalize("b a t' a")], max_vertices=5000
            ),
            "fiber saturation exceeded the vertex budget",
            (14, 7020),
        ),
        (
            lambda: fiber_intersection(
                GID, [GID.element("a", 1), GID.element("b", 1)], max_rounds=8
            ),
            "fiber saturation exceeded the round budget",
            (9, 18),
        ),
    ],
    ids=["ball vertices", "fiber vertices", "fiber rounds"],
)
def test_every_budget_raises_the_one_error_type(overrun, message, counts):
    # the CLI catches BudgetExceededError alone; a fiber overrun is its
    # subclass UnstabilizedError, which keeps its counts
    with pytest.raises(BudgetExceededError) as info:
        overrun()
    assert str(info.value) == message
    if counts is not None:
        assert isinstance(info.value, UnstabilizedError)
        assert (info.value.rounds, info.value.vertices) == counts


def count_images(monkeypatch):
    images = []
    free_reduce = mapping_torus.free_reduce

    def counted(w, table=None):
        # normalize reduces its joined images with no table: not an image
        if table is not None:
            images.append(w)
        return free_reduce(w, table)

    monkeypatch.setattr(mapping_torus, "free_reduce", counted)
    return images


def test_saturation_maps_escapes_only_onward(monkeypatch):
    # A deterministic work count: mapping every new entry by θ and θ⁻¹
    # built 56 images on this run, 26 of them the entry an escape came
    # from.  Seeds go both ways and escapes only onward: 2·2 + 26.
    images = count_images(monkeypatch)
    gens = [G.normalize("a b"), G.normalize("b a t' a")]
    with pytest.raises(UnstabilizedError) as info:
        fiber_intersection(G, gens, max_vertices=5000)
    assert (info.value.rounds, info.value.vertices) == (14, 7020)
    assert len(images) == 30


def budget_hit(name):
    if name == "identity":
        return GID, [GID.element("a", 1), GID.element("b", 1)], 8, 100_000
    # a seeded case whose last frontier is wider
    return list(saturation_cases(name))[19][1:]


@pytest.mark.parametrize("name, want", [("identity", (9, 18, 19)), ("twisted", (8, 246, 31))])
def test_round_past_the_budget_stops_at_its_first_escape(monkeypatch, name, want):
    # A deterministic work count: any escape in the round past
    # max_rounds raises, so that round builds images only up to its
    # first escape.  Scanning its whole frontier built 20 and 34 images.
    group, gens, max_rounds, max_vertices = budget_hit(name)
    images = count_images(monkeypatch)
    with pytest.raises(UnstabilizedError) as info:
        fiber_intersection(group, gens, max_rounds=max_rounds, max_vertices=max_vertices)
    assert info.value.rounds == max_rounds + 1
    assert (info.value.rounds, info.value.vertices, len(images)) == want


def test_saturation_composes_only_the_letters_reached(compositions):
    # θ^±1 read Φ^±60 per letter off the map's kept tables: saturating
    # ⟨c⟩ composes c's images alone, where a whole power would need
    # |Φ⁶⁰(a)| ≈ 2.5·10¹² letters
    group = torus_group(parse_automorphism("a -> a b; b -> a; c -> c"))
    fi = fiber_intersection(group, [group.normalize("c"), group.normalize("c t^60")])
    assert [str(w) for w in fi.graph.free_basis()] == ["c"] and fi.n == 60
    assert {abs(x) for _, x in compositions} == {3}
    # one image per height that T_60 or T_−60 splits into
    for sign in (1, -1):
        assert len([k for k, _ in compositions if k * sign > 0]) <= 2 * (60).bit_length()


def test_kept_powers_do_not_enter_equality():
    # the tables an intersection leaves on the map are not fields
    kept, fresh = torus_group(FIB), torus_group(parse_automorphism("a -> a b; b -> a"))
    fiber_intersection(kept, [kept.element("a b", 2), kept.t(-2)])
    assert set(kept.phi._tables) >= {2, -2} and not hasattr(fresh.phi, "_tables")
    assert kept == fresh and hash(kept) == hash(fresh)
    assert kept.element("a b", 1) == fresh.element("a b", 1)


def letter_lists(rank, max_len):
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(alphabet), max_size=max_len).map(reduce_letters)


@st.composite
def conjugations(draw):
    """A torus, an element x·tᵐ of it and a fiber word.  The map is a
    product of Nielsen moves after an inner twist, so its powers need
    not be of least total image length, or one of SATURATION_TORI."""
    name = draw(st.sampled_from(sorted(SATURATION_TORI) + ["nielsen"]))
    if name != "nielsen":
        phi = parse_automorphism(SATURATION_TORI[name])
    else:
        rank = draw(st.integers(2, 3))
        imgs = [(j,) for j in range(1, rank + 1)]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.permutations(range(rank)))[:2]
            if draw(st.booleans()):
                imgs[i] = reduce_letters(imgs[i] + imgs[j])
            else:
                imgs[i] = tuple(-x for x in reversed(imgs[i]))
        b = basis("a b c"[: 2 * rank - 1])
        nielsen = certify_automorphism(Endomorphism(b, tuple(Word(b, w) for w in imgs)))
        twist = Word(b, draw(letter_lists(rank, 3)))
        phi = compose(inner_automorphism(b, twist), nielsen)
    rank = phi.basis.rank
    x, w = draw(letter_lists(rank, 6)), draw(letter_lists(rank, 20))
    return torus_group(phi), x, draw(st.integers(-3, 3)), w


@settings(max_examples=150, deadline=None)
@given(conjugations())
def test_kept_power_moves_are_conjugation(case):
    # s.apply, x·Φᵐ(w)·x⁻¹ off the map's kept table, is conjugation by
    # s = x·tᵐ, θ = i_x∘Φᵐ composed in full, and s⁻¹'s is θ⁻¹
    group, x, m, w = case
    b = group.basis
    s = group.element(Word(b, x), m)
    theta = compose(inner_automorphism(b, s.w), power(group.phi, m))
    assert s.apply(Word(b, w)) == theta.apply(Word(b, w))
    assert s.inverse().apply(Word(b, w)) == theta.inverse().apply(Word(b, w))


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"max_rounds": -1}, "^max_rounds must be nonnegative$"),
        ({"max_vertices": 0}, "^max_vertices must be positive$"),
    ],
)
def test_nonsense_budget_refused(budget, message):
    with pytest.raises(ValueError, match=message):
        fiber_intersection(GID, [GID.t(), GID.element("a")], **budget)


@pytest.mark.parametrize("with_witnesses", [False, True])
def test_saturation_builds_no_witnessed_fold(monkeypatch, with_witnesses):
    # Saturation folds loops given no expression; witnesses are folded
    # once, after it stops.  So after every merge its fold holds no
    # expression and no potential, and composes nothing: no expression
    # is rewritten for the roots.  Composing potentials on every merge
    # instead made this run, which never stabilizes, take about twice as
    # long.
    drains, composed = [], []
    drain = folding._Fold.drain

    def checked(self):
        drain(self)
        drains.append(self)
        assert not self.ex and not self.uf.pot

    monkeypatch.setattr(folding._Fold, "drain", checked)
    monkeypatch.setattr(folding._Fold, "_at_roots", lambda self, *args: composed.append(args))
    gens = [G.normalize("a b"), G.normalize("b a t' a")]
    with pytest.raises(UnstabilizedError) as info:
        fiber_intersection(G, gens, max_vertices=5000, with_witnesses=with_witnesses)
    assert (info.value.rounds, info.value.vertices) == (14, 7020)
    assert drains and not composed


def test_failed_invariance_recheck_raises(monkeypatch):
    # With no escaping image, θ^±1 of every entry is a member, so the
    # recheck cannot fail; if it did, saturation must stop, not spin.
    monkeypatch.setattr(mapping_torus, "is_invariant", lambda graph, theta: False)
    with pytest.raises(VerificationError):
        fiber_intersection(G, [G.element("b"), G.t()])


def test_mismatched_group_rejected():
    from fgrow.words import BasisMismatchError

    with pytest.raises(BasisMismatchError):
        fiber_intersection(G, [GID.element("b")])


SATURATION_TORI = {
    "identity": "a -> a; b -> b",
    "swap": "a -> b; b -> a",
    "fib": "a -> a b; b -> a",
    "poly": "a -> a; b -> b a",
    "rank3": "a -> b; b -> c; c -> a b",
    # powers not of least total image length: y cancels into Φ^±n(w) past its ends
    "inner": "a -> b a b'; b -> b",
    "twisted": "a -> b a b'; b -> b a'",
}


def saturation_cases(name):
    """32 seeded (group, gens, max_rounds, max_vertices) cases per torus,
    budget hits included."""
    group = torus_group(parse_automorphism(SATURATION_TORI[name]))
    rank = group.basis.rank
    rng = random.Random(name)
    for case in range(32):
        gens = []
        for _ in range(rng.randint(1, 3)):
            letters = list(random_letters(rng, rank, rng.randint(0, 3)))
            e = rng.randint(-2, 2)
            t = rank + 1 if e > 0 else -(rank + 1)
            for _ in range(abs(e)):
                letters.insert(rng.randint(0, len(letters)), t)
            gens.append(group.normalize(letters))
        max_rounds = rng.randint(0, 8)
        max_vertices = rng.choice((20, 50, 300, 1000))
        yield case, group, gens, max_rounds, max_vertices


@pytest.mark.parametrize("name", sorted(SATURATION_TORI))
def test_saturation_matches_reference(name):
    # the incremental loop must give the plain refold-everything loop's
    # graph, n, s and rounds, or give up at the same round with the same
    # vertex count
    for case, group, gens, max_rounds, max_vertices in saturation_cases(name):
        try:
            want = reference_fiber_saturation(group, gens, max_rounds, max_vertices)
        except UnstabilizedError as exc:
            want = (exc.rounds, exc.vertices)
        try:
            fi = fiber_intersection(
                group, gens, max_rounds=max_rounds, max_vertices=max_vertices,
                with_witnesses=True,
            )
        except UnstabilizedError as exc:
            assert (exc.rounds, exc.vertices) == want, (case, gens)
            continue
        assert (fi.graph, fi.n, fi.s, fi.rounds) == want, (case, gens)
        for w, expr in fi.basis_witnesses():
            assert fi.evaluate_witness(expr) == group.element(w), (case, gens)


@pytest.mark.parametrize("name", sorted(SATURATION_TORI))
def test_onward_saturation_matches_two_way_loop(name):
    # mapping escapes only onward skips images that are already entries,
    # so the entries, their expressions and the rounds are those of the
    # loop that mapped every new entry both ways, as is any budget hit
    for case, group, gens, max_rounds, max_vertices in saturation_cases(name):
        try:
            entries, rounds = two_way_saturation(group, gens, max_rounds, max_vertices)
            want = ([w for w, _ in entries], [e for _, e in entries], rounds)
        except UnstabilizedError as exc:
            want = (exc.rounds, exc.vertices)
        try:
            fi = fiber_intersection(
                group, gens, max_rounds=max_rounds, max_vertices=max_vertices,
                with_witnesses=True,
            )
        except UnstabilizedError as exc:
            assert (exc.rounds, exc.vertices) == want, (case, gens)
            continue
        got = [w.letters for w in fi._witnessed.gens], list(fi._entry_exprs), fi.rounds
        assert got == want, (case, gens)
