"""Words, reduction, and the cyclic normal form."""

import doctest
import pathlib

import pytest
from hypothesis import example, given, strategies as st

import fgrow.words
from fgrow.automorphisms import identity_automorphism
from fgrow.mapping_torus import TorusElement, torus_group
from fgrow.words import (
    _canonical_rotation,
    Basis,
    BasisMismatchError,
    CyclicWord,
    Lines,
    Word,
    WordSyntaxError,
    basis,
    concat,
    cyclic_reduce,
    cyclic_word,
    free_reduce,
    identity,
    join,
    put_once,
    translation_length,
)

from helpers import naive_reduce

F = basis("a b")
F3 = basis("a b c")


def letters(rank=2, max_size=30):
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(alphabet), max_size=max_size)


def words(b=F, max_size=30):
    return letters(b.rank, max_size).map(lambda ls: Word(b, free_reduce(ls)))


def test_doctests():
    failures, _ = doctest.testmod(fgrow.words)
    assert failures == 0


def test_parse_formats():
    w = F.parse("a b' a")
    assert w.letters == (1, -2, 1)
    assert F.parse("a b^-1 a") == w
    assert F.parse("ab'a") == w  # run-together single-letter form
    assert F.parse("1") == identity(F)
    assert str(w) == "a b' a"


def test_parse_rejects_unknown():
    with pytest.raises(WordSyntaxError):
        F.parse("a x")
    with pytest.raises(ValueError):
        basis("a a")
    with pytest.raises(ValueError):
        Basis(())


def test_parse_powers():
    assert F.parse("a^3").letters == (1, 1, 1)
    assert F.parse("b^-2").letters == (-2, -2)
    assert F.parse("a^0 b") == F.parse("b")
    assert F.parse("ab^2a^-1") == F.parse("a b b a'")  # run-together powers
    assert F.parse("a^2 a^-3") == F.parse("a'")
    assert basis("x1 x2").parse("x1^2 x2^-1").letters == (1, 1, -2)


@pytest.mark.parametrize("text", ["a^x", "a^", "a^+2", "a^1000001", "ab^x", "a^99999999999"])
def test_parse_rejects_bad_exponents(text):
    with pytest.raises(WordSyntaxError, match="bad exponent"):
        F.parse(text)


def test_multi_character_names():
    g = basis("x1 x2")
    w = g.parse("x1 x2' x1")
    assert w.letters == (1, -2, 1)
    with pytest.raises(WordSyntaxError):
        g.parse("x1x2")  # no run-together with long names


def test_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        concat(F.parse("a"), F3.parse("a"))


@given(letters())
def test_free_reduce_is_reduced(ls):
    r = free_reduce(ls)
    assert all(r[i] != -r[i + 1] for i in range(len(r) - 1))


@given(letters())
def test_free_reduce_idempotent(ls):
    r = free_reduce(ls)
    assert free_reduce(r) == r


def signed_table(*images) -> dict[int, tuple[int, ...]]:
    """Images of every signed letter, from the generators' images."""
    table = {}
    for j, img in enumerate(images, start=1):
        table[j], table[-j] = tuple(img), tuple(-t for t in reversed(img))
    return table


@st.composite
def substitutions(draw):
    """A rank 1-3 table of reduced (possibly empty) images, and unreduced letters."""
    rank = draw(st.integers(min_value=1, max_value=3))
    images = [naive_reduce(draw(letters(rank, 6))) for _ in range(rank)]
    return signed_table(*images), draw(letters(rank, 20))


# b's image b' c loses b' at its left junction and c at its right one
@example((signed_table((1, 2), (-2, 3), (-3, 1)), [1, 2, 3]))
@example((signed_table((1, 2), (-2, 3), (-3, 1)), [1, 2, 3, -3, -2, 2, 3]))
# b's image b' a' empties the stack and cancels whole against the stack
@example((signed_table((1, 2), (-2, -1)), [1, 2, 1, 2]))
# the empty image, and letters that cancel before substitution
@example((signed_table((), (2, 1)), [1, 2, -2, 1, -1, 2]))
@given(substitutions())
def test_free_reduce_with_images_is_reduced_substitution(case):
    table, ls = case
    want = naive_reduce(y for x in ls for y in table[x])
    assert free_reduce(ls, table) == want
    assert free_reduce(ls) == naive_reduce(ls)


@given(words())
def test_inverse_cancels(w):
    assert w * w.inverse() == identity(F)
    assert w.inverse().inverse() == w


@given(words(F3), words(F3))
def test_join_is_the_reduced_product(u, v):
    assert join(u.letters, v.letters) == free_reduce(u.letters + v.letters)
    assert join(u.letters, u.inverse().letters) == ()


@given(words(), words(), words())
def test_concat_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words(max_size=16), words(max_size=16))
def test_translation_length_conjugacy_invariant(w, g):
    assert translation_length(g * w * g.inverse()) == translation_length(w)


@given(words(max_size=16), words(max_size=16))
def test_cyclic_word_conjugacy_invariant(w, g):
    assert cyclic_word(g * w * g.inverse()) == cyclic_word(w)


@given(words(max_size=20))
def test_cyclic_reduce_reassembles(w):
    core, conj = cyclic_reduce(w)
    assert conj * core.as_word() * conj.inverse() == w


@given(words(F3, max_size=30))
def test_cyclic_reduce_conjugator_is_a_prefix(w):
    # the conjugator is built unchecked from w's letters: it must be a
    # reduced word, and a prefix of w
    _, conj = cyclic_reduce(w)
    assert Word(F3, conj.letters) == conj
    assert w.letters[: len(conj)] == conj.letters


# generator names of one to four characters; t names the torus's section
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(lambda n: n != "t")


@st.composite
def named_words(draw):
    b = basis(draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)))
    return b, free_reduce(draw(letters(b.rank, 40))), draw(st.integers(-4, 4))


@given(named_words())
def test_rendering_reads_one_name_table(case):
    b, ls, k = case

    def spelled(letters):
        return [b.names[abs(x) - 1] + ("'" if x < 0 else "") for x in letters]

    assert [b.symbol(x) for x in ls] == spelled(ls)
    w = Word(b, ls)
    assert str(w) == (" ".join(spelled(ls)) or "1")
    core = cyclic_word(w)
    assert str(core) == (" ".join(spelled(core.letters)) or "1")
    g = TorusElement(torus_group(identity_automorphism(b)), w, k)
    assert str(g) == (" ".join(spelled(ls) + ["t" if k > 0 else "t'"] * abs(k)) or "1")
    for x in (0, b.rank + 1, -b.rank - 1):
        with pytest.raises(ValueError, match="out of range"):
            b.symbol(x)


def test_cyclic_reduce_example():
    core, conj = cyclic_reduce(F.parse("a b a'"))
    assert str(core) == "b"
    assert str(conj) == "a"
    assert translation_length(F.parse("a b a'")) == 1


def test_cyclic_rotation_canonical():
    # both rotations of the same class agree
    assert cyclic_word(F.parse("a b")) == cyclic_word(F.parse("b a"))
    assert cyclic_word(F.parse("a b")).length == 2


def least_rotation_reference(letters):
    """Quadratic search: every rotation compared; the first least one wins."""

    def key(t):
        return [(abs(x), 1 if x > 0 else -1) for x in t]

    best, offset = letters, 0
    for i in range(1, len(letters)):
        cand = letters[i:] + letters[:i]
        if key(cand) < key(best):
            best, offset = cand, i
    return best, offset


def cyclically_reduced(b, max_size=12):
    return words(b, max_size).filter(
        lambda w: not w.letters or w.letters[0] != -w.letters[-1]
    )


@given(
    st.one_of(
        letters(3, 40),
        # powers have several least rotations; the smallest offset must win
        st.tuples(letters(3, 8), st.integers(min_value=1, max_value=6)).map(
            lambda p: p[0] * p[1]
        ),
    )
)
def test_canonical_rotation_matches_quadratic_search(ls):
    ls = tuple(ls)
    assert _canonical_rotation(ls) == least_rotation_reference(ls)


PERIODIC = [
    F.parse("a b a b a b"),
    F.parse("a b' a b'"),
    F.parse("b a b a"),
    F.parse("a"),
    F.parse("b'"),
    F3.parse("c'"),
    F3.parse("b c' a b c' a b c' a"),
]


@pytest.mark.parametrize("w", PERIODIC, ids=str)
def test_canonical_rotation_periodic_cases(w):
    assert _canonical_rotation(w.letters) == least_rotation_reference(w.letters)
    for g in (identity(w.basis), w.basis.parse("a b'"), w.basis.parse("b a")):
        u = g * w * g.inverse()
        core, conj = cyclic_reduce(u)
        assert conj * core.as_word() * conj.inverse() == u
        assert core.letters == least_rotation_reference(w.letters)[0]


@given(cyclically_reduced(F3), st.integers(min_value=2, max_value=5), words(F3, 8))
def test_cyclic_reduce_of_random_powers(w, k, g):
    ls = w.letters * k
    assert _canonical_rotation(ls) == least_rotation_reference(ls)
    u = g * Word(F3, ls) * g.inverse()
    core, conj = cyclic_reduce(u)
    assert conj * core.as_word() * conj.inverse() == u


def test_adjacent_pairs_wraparound():
    c = cyclic_word(F.parse("a b"))
    assert set(c.adjacent_pairs()) == {(1, 2), (2, 1)}
    assert cyclic_word(identity(F)).adjacent_pairs() == []


def test_word_validates_reduction():
    with pytest.raises(ValueError):
        Word(F, (1, -1))


def test_cyclic_word_rotates_once(monkeypatch):
    calls = []

    def counted(letters):
        calls.append(letters)
        return _canonical_rotation(letters)

    monkeypatch.setattr(fgrow.words, "_canonical_rotation", counted)
    w = F3.parse("c a b' a c' a' b a' b c")
    c = cyclic_word(w)
    assert len(calls) == 1
    assert c == cyclic_word(F3.parse("a b' a c' a' b a' b c c")) and len(calls) == 2
    assert c.letters == least_rotation_reference(c.letters)[0]


def test_cyclic_word_constructor_still_checks_its_letters():
    for bad in [(1, -1), (1, 2, -1), (2, 1), (0,), (4,)]:
        with pytest.raises(ValueError):
            CyclicWord(F3, bad)
    assert CyclicWord(F3, (1, 2)).letters == (1, 2)


# -- the line reader --------------------------------------------------------


def test_lines_cut_comments_and_skip_blank_lines():
    lines = Lines("a -> b  # a rule\n\n   \n# only a comment\n  b -> a ; \t\n")
    seen = [(lines.lineno, line) for line in lines]
    assert seen == [(1, "a -> b"), (5, "  b -> a ;")]
    assert lines.lineno is None


def test_lines_prefix_errors_with_the_line_being_read():
    lines = Lines("x\n\n# c\ny z")
    with pytest.raises(WordSyntaxError) as info:
        with lines:
            for line in lines:
                if "z" in line:
                    raise WordSyntaxError("unknown symbol 'z'")
    assert str(info.value) == "line 4: unknown symbol 'z'"


def test_lines_leave_errors_after_the_last_line_bare():
    lines = Lines("x\ny")
    with pytest.raises(WordSyntaxError) as info:
        with lines:
            for _ in lines:
                pass
            raise WordSyntaxError("no rules found")
    assert str(info.value) == "no rules found"


def test_lines_at_names_an_earlier_line():
    lines = Lines("x\ny\nz")
    list(lines)
    with pytest.raises(WordSyntaxError) as info:
        with lines.at(2):
            F.parse("q")
    assert str(info.value) == "line 2: unknown symbol 'q' in 'q'"


def test_lines_pass_other_errors_through_unchanged():
    lines = Lines("x")
    with pytest.raises(KeyError):
        with lines:
            for _ in lines:
                raise KeyError("k")


def test_put_once_refuses_a_second_key():
    entries = {}
    put_once(entries, "y", 1, "edge field")
    with pytest.raises(WordSyntaxError) as info:
        put_once(entries, "y", 2, "edge field")
    assert str(info.value) == "duplicate edge field 'y'" and entries == {"y": 1}


def test_line_prefix_is_written_only_in_the_reader():
    src = pathlib.Path(fgrow.words.__file__).parent
    hits = [
        (path.name, line.strip())
        for path in sorted(src.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if "line {" in line
    ]
    assert hits == [
        ("words.py", 'raise WordSyntaxError(f"line {self.lineno}: {exc}") from None')
    ]
