"""Free group endomorphisms, certified inverses, restrictions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fgrow import automorphisms
from fgrow.automorphisms import (
    Automorphism,
    Endomorphism,
    NotInvariantError,
    NotSurjectiveError,
    apply_power,
    certify_automorphism,
    compose,
    identity_automorphism,
    identity_endomorphism,
    inner_automorphism,
    parse_automorphism,
    parse_endomorphism,
    power,
    restrict,
)
from fgrow.folding import full_group, stallings_graph
from fgrow.growth import (
    classify_growth,
    length_sequence,
    no_cancellation_certificate,
    transition_matrix,
)
from fgrow.mapping_torus import torus_group
from fgrow.words import VerificationError, WordSyntaxError, Word, basis, free_reduce, identity

from helpers import random_letters

F = basis("a b")
FIB = parse_automorphism("a -> a b\nb -> a")


def W(text: str) -> Word:
    return F.parse(text)


# -- parsing ---------------------------------------------------------------


def test_parse_layouts():
    one_line = parse_endomorphism("a -> a b; b -> a")
    assert one_line.images == FIB.images
    commented = parse_endomorphism("a -> a b  # grows\nb -> a\n")
    assert commented.images == FIB.images
    explicit = parse_endomorphism("b -> a; a -> a b", F)
    assert explicit.images == FIB.images


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(WordSyntaxError, match="line 2"):
        parse_endomorphism("a -> a\nb = a")
    with pytest.raises(WordSyntaxError, match="line 1"):
        parse_endomorphism("-> a b")
    with pytest.raises(WordSyntaxError, match="duplicate"):
        parse_endomorphism("a -> a\na -> b", F)
    with pytest.raises(WordSyntaxError, match="no rule"):
        parse_endomorphism("a -> b a", F)
    with pytest.raises(WordSyntaxError, match="unknown"):
        parse_endomorphism("a -> a\nb -> b\nc -> c", F)
    with pytest.raises(WordSyntaxError):
        parse_endomorphism("")


def test_unknown_symbol_in_rule_names_its_line():
    with pytest.raises(WordSyntaxError) as info:
        parse_endomorphism("a -> a b\nb -> a z")
    assert str(info.value) == "line 2: unknown symbol 'z' in 'z'"


def test_duplicate_rule_names_its_line():
    with pytest.raises(WordSyntaxError) as info:
        parse_endomorphism("a -> a b; b -> a\n\na -> b")
    assert str(info.value) == "line 3: duplicate rule for 'a'"


def test_unknown_generator_names_its_line():
    with pytest.raises(WordSyntaxError) as info:
        parse_endomorphism("a -> a\nb -> b\nc -> c", F)
    assert str(info.value) == "line 3: unknown generator 'c'"


def test_bad_generator_name_names_its_line():
    with pytest.raises(WordSyntaxError) as info:
        parse_endomorphism("a -> a b\nb c -> a")
    assert str(info.value) == "line 2: bad generator name 'b c'"


def test_parse_str_roundtrip():
    assert parse_endomorphism(str(FIB)).images == FIB.images
    theta = parse_endomorphism("a -> b a b'\nb -> b b")
    assert parse_endomorphism(str(theta)) == theta


# -- certification ---------------------------------------------------------


def test_fibonacci_inverse():
    assert [str(w) for w in FIB.inverse_images] == ["b", "b' a"]
    inv = FIB.inverse()
    for g in ("a", "b"):
        assert inv.apply(FIB.apply(W(g))) == W(g)
        assert FIB.apply(inv.apply(W(g))) == W(g)


def test_inverse_is_built_once():
    phi = parse_automorphism("a -> a b\nb -> a")
    inv = phi.inverse()
    assert phi.inverse() is inv and inv.inverse() is phi
    # the cached link is not a field: equality and hash read the images only
    fresh = Automorphism(F, phi.inverse_images, phi.images)
    assert inv == fresh and hash(inv) == hash(fresh)
    again = Automorphism(F, phi.images, phi.inverse_images)
    assert phi == again and hash(phi) == hash(again)
    assert again.inverse() == inv and again.inverse() is not inv


def test_not_surjective_witness():
    squares = parse_endomorphism("a -> a a\nb -> b")
    with pytest.raises(NotSurjectiveError) as info:
        certify_automorphism(squares)
    witness = info.value.witness
    assert witness == stallings_graph(F, [W("a a"), W("b")])


def test_failed_inverse_readback_is_a_typed_error(monkeypatch):
    class ForgedFold:
        """A rose whose expressions all read back as the first image."""

        graph = full_group(F)

        def express(self, w):
            return (1,)

    monkeypatch.setattr(automorphisms, "witnessed_graph", lambda b, gens: ForgedFold())
    with pytest.raises(VerificationError):
        certify_automorphism(FIB)


def test_non_injective_shape_rejected():
    collapse = parse_endomorphism("a -> a\nb -> a")
    with pytest.raises(NotSurjectiveError):
        certify_automorphism(collapse)


@pytest.mark.parametrize("seed", range(6))
def test_random_nielsen_products_certify(seed):
    rng = random.Random(seed)
    phi = identity_automorphism(F)
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(3)
        if kind == 0:
            step = parse_automorphism("a -> b\nb -> a")
        elif kind == 1:
            step = parse_automorphism("a -> a'\nb -> b")
        else:
            step = parse_automorphism("a -> a b\nb -> b")
        phi = compose(step, phi)
    again = certify_automorphism(phi)
    inv = again.inverse()
    for _ in range(20):
        w = Word(F, random_letters(rng, 2, rng.randint(0, 6)))
        assert inv.apply(again.apply(w)) == w


# -- algebra ---------------------------------------------------------------


@pytest.mark.parametrize("rules", ["a -> a b\nb -> a", "a -> a\nb -> b a", "a -> b a b'\nb -> b a'"])
def test_automorphism_is_an_endomorphism(rules):
    endo = parse_endomorphism(rules)
    auto = certify_automorphism(endo)
    assert isinstance(auto, Endomorphism)
    assert auto.images == endo.images and str(auto) == str(endo)
    assert repr(auto) == f"<automorphism {endo}>"
    # every consumer of a map takes the automorphism as it is
    got, want = classify_growth(auto), classify_growth(endo)
    assert (got.kind, got.certified, got.rate, got.degree, got.lengths, got.conjugator) == (
        want.kind, want.certified, want.rate, want.degree, want.lengths, want.conjugator
    )
    cert, plain = no_cancellation_certificate(auto), no_cancellation_certificate(endo)
    assert cert.endo is auto and (cert.holds, cert.pairs) == (plain.holds, plain.pairs)
    assert transition_matrix(auto) == transition_matrix(endo)
    w = W("a b'")
    assert length_sequence(auto, w, 6) == length_sequence(endo, w, 6)
    assert isinstance(compose(auto, auto), Automorphism)
    assert type(compose(auto, endo)) is Endomorphism
    assert compose(auto, endo).images == compose(endo, auto).images == compose(auto, auto).images
    assert torus_group(auto).phi is auto
    assert torus_group(endo).phi == auto


def test_compose_and_power():
    sq = compose(FIB, FIB)
    assert isinstance(sq, Automorphism)
    assert sq.apply(W("a")) == FIB.apply(FIB.apply(W("a")))
    assert power(FIB, 0).images == identity_endomorphism(F).images
    assert power(FIB, 3).images == compose(FIB, sq).images
    assert power(FIB, -1).images == FIB.inverse().images
    w = W("a b' a")
    assert apply_power(FIB, 4, w) == power(FIB, 4).apply(w)
    assert apply_power(FIB, -2, apply_power(FIB, 2, w)) == w


WORKLOAD_MAPS = [
    "a -> a b; b -> a",
    "a -> a b; b -> a c; c -> a",
    "a -> a; b -> b a",
    "a -> a; b -> b a; c -> c b",
    "a -> a; b -> b a; c -> c b; d -> d c",
]


@pytest.mark.parametrize("rules", WORKLOAD_MAPS)
@pytest.mark.parametrize("parse", [parse_automorphism, parse_endomorphism])
def test_power_is_the_n_fold_composition(rules, parse):
    phi = parse(rules)
    invertible = isinstance(phi, Automorphism)
    want = {0: (identity_automorphism if invertible else identity_endomorphism)(phi.basis)}
    for n in range(1, 9):
        want[n] = compose(phi, want[n - 1])
        if invertible:
            want[-n] = compose(phi.inverse(), want[1 - n])
    for n, folded in want.items():
        got = power(phi, n)
        assert got == folded and type(got) is type(folded), n


def test_power_composes_log_n_times(compositions):
    for rules, tail in (("a -> a; b -> b", ()), ("a -> a; b -> b a", (1,) * 10**6)):
        phi = parse_automorphism(rules)
        out = power(phi, 10**6)
        # the images come from T_k and the inverse images from T_−k, each
        # letter's image composed once per height, at O(log k) heights
        for sign in (1, -1):
            built = [(k, abs(x)) for k, x in compositions if k * sign > 0]
            assert len(set(built)) == len(built)
            assert 0 < len(built) <= 2 * (10**6).bit_length() * phi.basis.rank
        assert out.images[1].letters == (2,) + tail
        compositions.clear()
        assert power(phi, 10**6) == out
        assert compositions == []


def test_negative_power_needs_certified_map():
    endo = parse_endomorphism("a -> a b\nb -> a")
    with pytest.raises(ValueError):
        power(endo, -1)
    with pytest.raises(ValueError):
        apply_power(endo, -1, W("a"))


def test_inner_automorphism():
    g = W("a b")
    conj = inner_automorphism(F, g)
    for text in ("a", "b", "a b' a"):
        w = W(text)
        assert conj.apply(w) == g * w * g.inverse()
    assert conj.inverse().apply(conj.apply(W("b"))) == W("b")


@settings(max_examples=30)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6))
def test_endomorphism_is_homomorphism(letters):
    w = Word(F, free_reduce(letters))
    u, v = w, W("a b")
    assert FIB.apply(u * v) == FIB.apply(u) * FIB.apply(v)
    assert FIB.apply(u.inverse()) == FIB.apply(u).inverse()


# -- restriction -----------------------------------------------------------


def test_restrict_conjugation_to_invariant_subgroup():
    h = stallings_graph(F, [W("a a"), W("b")])
    theta = inner_automorphism(F, W("a a"))
    ra = restrict(theta, h)
    assert ra.auto.basis.rank == h.rank() == 2
    rng = random.Random(3)
    gens = [W("a a"), W("b")]
    for _ in range(30):
        w = identity(F)
        for _ in range(rng.randint(0, 5)):
            g = rng.choice(gens)
            w = w * (g if rng.random() < 0.5 else g.inverse())
        inside = ra.to_subgroup(w)
        assert inside is not None
        assert ra.to_ambient(inside) == w
        assert ra.to_ambient(ra.auto.apply(inside)) == theta.apply(w)
    assert ra.to_subgroup(W("a")) is None


def test_restrict_power_of_map():
    h = stallings_graph(F, [W("a"), W("b a b'")])
    swap = parse_automorphism("a -> b\nb -> a")
    with pytest.raises(NotInvariantError) as info:
        restrict(swap, h)
    assert info.value.offender == swap.apply(info.value.generator)
    ra = restrict(power(swap, 2), h)
    assert ra.auto.basis.rank == 2


def test_restrict_trivial_subgroup():
    from fgrow.folding import trivial_subgroup

    with pytest.raises(ValueError):
        restrict(identity_automorphism(F), trivial_subgroup(F))
