"""Work bounds as properties: a reader of a map's kept power tables
composes at most twice the letters that stepping Φ one power at a time,
on only the letters the reader reads, would build.

The maps are block-triangular, the class whose powers have broken the
kept tables before: a growing Nielsen product on a and b beside letters
that are fixed, permuted, or wrapped in words of the block, c -> w c w⁻¹
or c -> c·[u, v].  Those letters' images can stay short at heights where
the images of a and b run to 10¹² letters, so a reader that composes
what it does not read fails at once, by the ``compositions`` fixture's
bound, instead of running out of memory.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, Phase, example, given, reject, settings, strategies as st

from fgrow.automorphisms import _inner_normalize, apply_power, parse_automorphism
from fgrow.geometry import cayley_ball
from fgrow.growth import GrowthParams, classify_growth
from fgrow.mapping_torus import _ext_gcd, fiber_intersection, torus_group
from fgrow.words import BudgetExceededError, Word, _inv, basis, cyclic_word

from helpers import PowerSteps, StepOverrun, cyclic_trim, image_table, reduce_letters, substitute

# the stepping reference's letters; a draw that needs more is rejected
STEP_CAP = 100_000


def block_words(max_size):
    return st.lists(st.sampled_from([1, -1, 2, -2]), max_size=max_size).map(reduce_letters)


@st.composite
def block_triangular(draw):
    """Rules of a rank 3–4 automorphism: a product of Nielsen moves on a
    and b that moves both, so both grow exponentially, and each later
    letter sent to u·π(x)·v for a permutation π of those letters and
    u, v in ⟨a, b⟩: fixed or permuted, wrapped as w·π(x)·w⁻¹, or
    followed by a commutator [u, v]."""
    rank = draw(st.integers(3, 4))
    imgs = [(1,), (2,)]
    moves = draw(st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=2))
    moves += draw(st.permutations([(0, draw(st.booleans())), (1, draw(st.booleans()))]))
    for i, left in moves:
        # precomposing with a ↦ b·a or a ↦ a·b (b likewise)
        imgs[i] = reduce_letters(imgs[1 - i] + imgs[i] if left else imgs[i] + imgs[1 - i])
    for x in draw(st.permutations(range(3, rank + 1))):
        kind = draw(st.sampled_from(["fixed", "wrapped", "commutator"]))
        if kind == "wrapped":
            w = draw(block_words(3))
            imgs.append(reduce_letters(w + (x,) + _inv(w)))
        elif kind == "commutator":
            u, v = draw(block_words(2)), draw(block_words(2))
            imgs.append(reduce_letters((x,) + u + v + _inv(u) + _inv(v)))
        else:
            imgs.append((x,))
    b = basis(" ".join("abcd"[:rank]))
    return "; ".join(f"{name} -> {Word(b, w)}" for name, w in zip(b.names, imgs))


@dataclass(frozen=True)
class Case:
    rules: str
    # (fiber letters, t-exponent) pairs
    elements: tuple[tuple[tuple[int, ...], int], ...]
    m: int
    # a word over the basis and t, at heights up to 60
    letters: tuple[int, ...]
    radius: int


HEIGHTS = st.one_of(st.integers(-4, 4), st.integers(-60, 60))


@st.composite
def cases(draw):
    rules = draw(block_triangular())
    rank = rules.count("->")
    alphabets = (
        [s * i for i in range(1, rank + 1) for s in (1, -1)],
        [s * i for i in range(3, rank + 1) for s in (1, -1)],
    )

    def word():
        alphabet = draw(st.sampled_from(alphabets))
        return reduce_letters(draw(st.lists(st.sampled_from(alphabet), max_size=6)))

    elements = tuple((word(), draw(HEIGHTS)) for _ in range(2))
    letters, h = [], 0
    for _ in range(draw(st.integers(1, 3))):
        top = draw(HEIGHTS)
        letters += [rank + 1 if top > h else -rank - 1] * abs(top - h) + list(word())
        h = top
    return Case(rules, elements, draw(st.integers(-3, 3)), tuple(letters), draw(st.integers(1, 3)))


# -- the readers, each with its stepping reference ---------------------------
#
# Each takes the torus, a PowerSteps over its map and the case; it steps
# the reference and returns the call to check and the answer it must
# give (None where the reference does not compute one, or where the call
# stopped at a budget).


def ref_mul(steps, g, h):
    return reduce_letters(g[0] + steps.apply(g[1], h[0])), g[1] + h[1]


def ref_inverse(steps, g):
    return steps.apply(-g[1], _inv(g[0])), -g[1]


def ref_power(steps, g, m):
    # each factor one Φᵏ step from the last, as TorusElement.__pow__ reads
    w, k = g if m >= 0 else ref_inverse(steps, g)
    parts = [w] if m else []
    for _ in range(abs(m) - 1):
        parts.append(steps.apply(k, parts[-1]))
    return reduce_letters(y for p in parts for y in p), k * abs(m)


def element(group, g):
    return group.element(Word(group.basis, g[0]), g[1])


def pair(e):
    return e.w.letters, e.k


def read_normalize(group, steps, case):
    section, h, out = group.basis.rank + 1, 0, []
    for x in case.letters:
        if abs(x) == section:
            h += 1 if x > 0 else -1
        else:
            out += steps.image(x, h)
    return lambda: pair(group.normalize(case.letters)), (reduce_letters(out), h)


def read_product(group, steps, case):
    g, h = case.elements
    return lambda: pair(element(group, g) * element(group, h)), ref_mul(steps, g, h)


def read_inverse(group, steps, case):
    g = case.elements[0]
    return lambda: pair(element(group, g).inverse()), ref_inverse(steps, g)


def read_power(group, steps, case):
    g = case.elements[0]
    return lambda: pair(element(group, g) ** case.m), ref_power(steps, g, case.m)


def read_apply_power(group, steps, case):
    (_, k), (w, _) = case.elements
    want = steps.apply(k, w)
    return lambda: apply_power(group.phi, k, Word(group.basis, w)).letters, want


def read_fiber(group, steps, case):
    # s, s⁻¹ and the seeds as fiber_intersection builds them; then θ^±1
    # may read Φ^±n of any letter of the seeds, of the images of those
    # letters and, once an image is an entry, of s^±1's words
    n, s = 0, ((), 0)
    for g in case.elements:
        d, x, y = _ext_gcd(n, g[1])
        if d != n:
            s, n = ref_mul(steps, ref_power(steps, s, x), ref_power(steps, g, y)), d
    seeds = [ref_mul(steps, g, ref_power(steps, s, -(g[1] // n if n else 0)))[0]
             for g in case.elements]
    if n:
        s_inv = ref_inverse(steps, s)  # the moves' y for θ⁻¹
        support = {abs(x) for w in seeds for x in w}
        if support:
            support |= {abs(x) for x in s[0] + s_inv[0]}
        todo = list(support)
        while todo:
            y = todo.pop()
            for z in steps.image(y, n) + steps.image(y, -n):
                if abs(z) not in support:
                    support.add(abs(z))
                    todo.append(abs(z))

    def run():
        try:
            fi = fiber_intersection(
                group, [element(group, g) for g in case.elements], max_rounds=3, max_vertices=200
            )
        except BudgetExceededError:
            return None
        return fi.n, fi.s and pair(fi.s)

    return run, (n, s if n else None)


def read_growth(group, steps, case):
    # the heuristic iterates ψ, Φ's inner normalization, on the word's
    # cyclic core: the reference steps the whole iterate, as a plain loop
    w, k = case.elements[0]
    params = GrowthParams(iterations=max(abs(k), 1), cap=300)
    table = image_table(_inner_normalize(group.phi)[0])
    cur = cyclic_word(Word(group.basis, w)).letters
    for _ in range(params.iterations if cur else 0):
        steps.charge(sum(len(table[abs(y)]) for y in cur))
        cur = cyclic_trim(substitute(table, cur))
        if len(cur) > params.cap:
            break
    return lambda: classify_growth(group.phi, Word(group.basis, w), params), None


def read_ball(group, steps, case):
    # vertices below radius r have |k| < r, and each reads every letter
    r = case.radius
    for k in range(1 - r, r):
        for x in range(1, group.basis.rank + 1):
            steps.image(x, k)

    def run():
        try:
            cayley_ball(group, r, max_vertices=3000)
        except BudgetExceededError:
            pass

    return run, None


READERS = {
    "normalize": read_normalize,
    "product": read_product,
    "inverse": read_inverse,
    "power": read_power,
    "apply_power": read_apply_power,
    "fiber_intersection": read_fiber,
    "growth": read_growth,
    "cayley_ball": read_ball,
}

# Endomorphism._table splits T_k at its top bit, T_k[x] = T_a(T_(k−a)[x]):
# where x's images stay short but hold a and b, as under c -> c·[u, v]
# with [u, v] fixed, it composes T_a[a] and T_a[b] whole
SPLIT = pytest.mark.xfail(strict=True, reason="a split table composes letters x's images cancel")


def readers(*failing):
    return [pytest.param(name, marks=SPLIT) if name in failing else name for name in READERS]


def check(compositions, reader, case):
    """Run one reader on a fresh map, bounded by twice its stepping
    reference; StepOverrun when the reference itself passes STEP_CAP."""
    group = torus_group(parse_automorphism(case.rules))
    steps = PowerSteps(group.phi, STEP_CAP)
    compositions.clear()
    compositions.letters, compositions.reference = 0, None
    run, want = READERS[reader](group, steps, case)
    compositions.reference = steps.letters
    got = run()
    if want is not None and got is not None:
        assert got == want


# c's images c·[a, b]ᵏ stay short, as [a, b] is fixed letter for letter,
# while a's and b's grow like 2.618ᵏ: each reader that reads c at height
# 60 off a split table fails the bound.  Saturation's seed g·s⁻¹ reads
# Φ⁶⁰ of s⁻¹'s a and b, which stepping cannot build either, so there the
# case is rejected.
FIXED_COMMUTATOR = Case(
    "a -> a b a; b -> b a; c -> c a b a' b'",
    (((3,), 60), ((3,), 60)),
    2,
    (4,) * 60 + (3,) + (-4,) * 60,
    2,
)


@pytest.mark.parametrize(
    "reader", readers("normalize", "product", "inverse", "power", "apply_power")
)
@settings(
    max_examples=50,
    derandomize=True,
    database=None,
    # a failure reports the first failing example: shrinking one reruns
    # many runaway powers up to the bound
    phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much],
)
@given(case=cases())
@example(case=FIXED_COMMUTATOR)
def test_power_readers_compose_at_most_twice_what_stepping_builds(compositions, reader, case):
    try:
        check(compositions, reader, case)
    except StepOverrun:
        reject()

