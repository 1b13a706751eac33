"""Growth classification against direct-substitution oracles."""

import math
import random

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from fgrow import automorphisms, growth
from fgrow.automorphisms import (
    Endomorphism,
    compose,
    identity_automorphism,
    inner_automorphism,
    parse_automorphism,
    parse_endomorphism,
    power,
    restrict,
)
from fgrow.folding import stallings_graph
from fgrow.growth import (
    GrowthParams,
    GrowthReport,
    KIND_EXPONENTIAL,
    KIND_HEURISTIC_EXPONENTIAL,
    KIND_HEURISTIC_POLYNOMIAL,
    KIND_INCONCLUSIVE,
    KIND_POLYNOMIAL,
    classify_growth,
    length_sequence,
    no_cancellation_certificate,
    scc_polynomial_degree,
    spectral_radius,
    transition_matrix,
)
from fgrow.words import BasisMismatchError, Word, basis, cyclic_word, free_reduce, identity

from helpers import cyclic_trim, finite_difference_degree, naive_length_sequence, random_letters

F = basis("a b")
FIB = parse_automorphism("a -> a b\nb -> a")
GOLDEN = (1 + math.sqrt(5)) / 2
PLASTIC = 1.324717957244746

UNIPOTENT = [
    ("a -> a", 0),
    ("a -> a; b -> b a", 1),
    ("a -> a; b -> b a; c -> c b", 2),
    ("a -> a; b -> b a; c -> c b; d -> d c", 3),
]


# -- certificates ----------------------------------------------------------


def test_certificate_worked_cases():
    assert no_cancellation_certificate(FIB).status == "Certified"
    cert = no_cancellation_certificate(parse_endomorphism("a -> a b\nb -> a'"))
    assert cert.status == "Failed"
    assert cert.offender is not None and cert.offender[1] == -cert.offender[0]
    assert cert.witness == (
        cert.endo.image(cert.offender[0]),
        cert.endo.image(cert.offender[1]),
    )
    assert no_cancellation_certificate(parse_endomorphism("a -> a\nb -> b a'")).holds
    assert no_cancellation_certificate(identity_automorphism(F)).holds


def test_certificate_covers():
    cert = no_cancellation_certificate(FIB)
    assert cert.covers(F.parse("a"))
    assert cert.covers(F.parse("a b"))
    # Φ(a'b) = b'a'a = b', so the word's own adjacencies cancel
    assert not cert.covers(F.parse("a' b"))
    failed = no_cancellation_certificate(parse_endomorphism("a -> a b\nb -> a'"))
    assert not failed.covers(F.parse("a"))


def test_degenerate_empty_image():
    cert = no_cancellation_certificate(parse_endomorphism("a -> \nb -> b"))
    assert not cert.holds
    assert cert.offender is None


# -- length sequences ------------------------------------------------------


@pytest.mark.parametrize(
    "rules,start",
    [
        ("a -> a b; b -> a", "a"),
        ("a -> a b; b -> a", "a' b"),
        ("a -> a b a' b' a; b -> a", "a"),
        ("a -> a; b -> b a", "b"),
        ("a -> b; b -> a", "a b'"),
    ],
)
def test_length_sequence_matches_substitution_oracle(rules, start):
    phi = parse_endomorphism(rules)
    w = phi.basis.parse(start)
    assert length_sequence(phi, w, 10, cap=None) == naive_length_sequence(
        phi, w.letters, 10
    )


def test_length_sequence_cap():
    seq = length_sequence(FIB, F.parse("a"), 60, cap=1000)
    assert len(seq) < 60
    assert seq[-1] > 1000 and all(v <= 1000 for v in seq[:-1])


@st.composite
def _maps_and_words(draw):
    """A random endomorphism of F2 or F3 (images of 0-3 letters, empty
    ones included), maybe a power 1-3 of it conjugated by a short word,
    and a word of up to 200 letters."""
    rng = draw(st.randoms(use_true_random=False))
    rank = draw(st.integers(2, 3))
    b = basis(["a", "b", "c"][:rank])
    phi = Endomorphism(
        b, tuple(Word(b, random_letters(rng, rank, rng.randint(0, 3))) for _ in range(rank))
    )
    if draw(st.booleans()):
        g = Word(b, random_letters(rng, rank, rng.randint(1, 4)))
        phi = compose(inner_automorphism(b, g), power(phi, rng.randint(1, 3)))
    return phi, random_letters(rng, rank, draw(st.integers(0, 200)))


@settings(max_examples=150)
@given(_maps_and_words(), st.sampled_from([None, 1, 40, 2000]))
def test_iterated_lengths_match_substitution_oracle(case, cap):
    # steps read runs of a power table off an earlier iterate, and the
    # base moves when the table outgrows the iterates; every length must
    # still be the plain iteration's, truncation included
    phi, letters = case
    n = 2 if cap is None else 25  # images of up to 35 letters
    core = cyclic_word(Word(phi.basis, letters)).letters
    seq, truncated = growth._iterated_lengths(phi, core, n, cap)
    assert seq[1:] == naive_length_sequence(phi, letters, n, cap)
    assert truncated == (cap is not None and seq[-1] > cap)


RUN_SHAPES = [
    # fib's image of b is a prefix of its image of a, so in a' b a the
    # image of b cancels whole and the image of a meets the rest of a''s
    ("a -> a b; b -> a", (-1, 2, 1, 2) * 12 + (-1, 2, 1, 1, 2) * 5, 14),
    # ψ²([a, b]) = 1: the run step at ψ² cancels the product to d⁵, the
    # table then outgrows it and the base moves onto the spelled d⁵
    ("a -> b c b c b c b; b -> c c c; c -> c; d -> d", (1, 2, -1, -2, 4) * 5, 6),
    # the same without d: the product cancels completely
    ("a -> b c b c b c b; b -> c c c; c -> c", (1, 2, -1, -2) * 5, 4),
    # the image of b opens with the inverse of a's: the stack empties
    ("a -> a; b -> a' b b", (1, 2) * 8, 8),
]


@pytest.mark.parametrize("rules,letters,n", RUN_SHAPES)
def test_run_steps_match_substitution_oracle(monkeypatch, rules, letters, n):
    phi = parse_endomorphism(rules)
    read, reads = growth._read_runs, []

    def spy(table, ys, junctions):
        reads.append(read(table, ys, junctions))
        return reads[-1]

    monkeypatch.setattr(growth, "_read_runs", spy)
    seq, _ = growth._iterated_lengths(phi, cyclic_word(Word(phi.basis, letters)).letters, n, None)
    assert seq[1:] == naive_length_sequence(phi, letters, n)
    assert reads


def _scan_steps(monkeypatch, rules, letters, n):
    """(scans, reads) of the iteration: one (ys, turns) per junction scan
    and one ys per run step.  Each step's junctions must be the ones a
    fresh scan of its table finds, and its lengths the oracle's."""
    phi = parse_endomorphism(rules)
    scan, read, scans, reads = growth._junctions, growth._read_runs, [], []

    def scanned(ys, turns):
        scans.append((tuple(ys), turns))
        return scan(ys, turns)

    def spy(table, ys, junctions):
        fresh = [j for j in range(1, len(ys)) if table[ys[j - 1]][-1] == -table[ys[j]][0]]
        assert list(junctions) == fresh
        reads.append(tuple(ys))
        return read(table, ys, junctions)

    monkeypatch.setattr(growth, "_junctions", scanned)
    monkeypatch.setattr(growth, "_read_runs", spy)
    seq, _ = growth._iterated_lengths(phi, cyclic_word(Word(phi.basis, letters)).letters, n, None)
    monkeypatch.undo()
    assert seq[1:] == naive_length_sequence(phi, letters, n)
    return scans, reads


SCAN_SHAPES = [
    # poly2 on a 60-letter word: the base stays for 36 run steps, all
    # under one set of cancelling end pairs
    ("a -> a; b -> b a; c -> c b", free_reduce(random_letters(random.Random(3), 3, 60)), 40, 1, 20),
    # fib, k = 1: ψᵐ(a) ends in b, a, b, … and ψᵐ(b) in the other letter,
    # so the pairs that cancel stay the same while the base stays
    ("a -> a b; b -> a", (1, 2) * 3, 20, 1, 12),
    # a's image is empty: the scanned positions skip the base's a's
    ("a -> ; b -> b c; c -> c", free_reduce(random_letters(random.Random(5), 3, 30)), 40, 1, 10),
    # a's image flips sign each step, so two sets of end pairs take turns
    ("a -> a'; b -> a' a'; c -> c c b", (3, -2, -2, -2, 3, 3, 2), 20, 2, 12),
]


@pytest.mark.parametrize("rules,letters,n,sets,steps", SCAN_SHAPES)
def test_junction_scan_is_kept_while_the_base_stays(monkeypatch, rules, letters, n, sets, steps):
    scans, reads = _scan_steps(monkeypatch, rules, letters, n)
    # one base, read at many powers, scanned once per set of end pairs
    assert len(set(reads)) == 1 and len(reads) >= steps
    assert len(scans) == sets
    if rules.startswith("a -> ;"):
        assert 1 in map(abs, letters) and all(abs(y) != 1 for ys, _ in scans for y in ys)


@pytest.mark.parametrize(
    "rules,letters,n", [shape[:3] for shape in SCAN_SHAPES] + RUN_SHAPES
)
def test_junction_scan_runs_once_per_base_and_end_set(monkeypatch, rules, letters, n):
    scans, reads = _scan_steps(monkeypatch, rules, letters, n)
    assert len(set(scans)) == len(scans)
    assert {ys for ys, _ in scans} == set(reads)


def _work(monkeypatch, phi, letters, n, cap):
    """(letters fed to free_reduce, letter pairs it cancelled, the run
    reader compared or the junction scan tested) for the iteration, then
    for a plain step loop over the same iterates; all are per-letter
    Python work.  The iteration runs on a copy of phi, as growth's
    callers build one, and the letters that its power tables compose
    through ``automorphisms.free_reduce`` are counted too."""
    tally = [0, 0]
    cancel, scan = growth._cancel, growth._junctions

    def counted(w, images=None):
        out = free_reduce(w, images)
        pushed = sum(len(images[x]) for x in w) if images else len(w)
        tally[0] += len(w)
        tally[1] += (pushed - len(out)) // 2
        return out

    def scanned(u, hi, v, lo):
        k = cancel(u, hi, v, lo)
        tally[1] += min(k + 1, hi, len(v) - lo)
        return k

    def junctions(ys, turns):
        tally[1] += max(len(ys) - 1, 0)
        return scan(ys, turns)

    monkeypatch.setattr(growth, "free_reduce", counted)
    monkeypatch.setattr(automorphisms, "free_reduce", counted)
    monkeypatch.setattr(growth, "_cancel", scanned)
    monkeypatch.setattr(growth, "_junctions", junctions)
    core = cyclic_word(Word(phi.basis, letters)).letters
    seq, _ = growth._iterated_lengths(Endomorphism(phi.basis, phi.images), core, n, cap)
    fast = tuple(tally)
    tally[:] = [0, 0]
    cur = core
    for _ in seq[1:]:
        cur = cyclic_trim(counted(cur, phi._subst))
    monkeypatch.undo()
    return fast, tuple(tally)


WORK_SHAPES = [
    # iterates that never grow: a power table never pays
    ("a -> b; b -> a; c -> c'", [random_letters(random.Random(k), 3, 700) for k in range(3)], 40),
    # linear growth from short words
    ("a -> a; b -> b; c -> a c a'",
     [random_letters(random.Random(k), 3, k) for k in range(1, 7)] + [(3, 3) * k for k in (1, 5, 40)],
     1000),
    # each c c junction of the base cancels more the further T advances
    ("a -> a; b -> b; c -> d e c e' d'; d -> d e; e -> d",
     [(3, 3) * k + (4,) for k in (1, 5, 50, 200)], 40),
    # [a, b] is fixed letter for letter while a and b grow like 2.618ⁿ:
    # linear classes carried by exponentially growing letters, and in
    # (a b a' b')¹⁰ c the base moves at T_4, where T_31 would not fit
    ("a -> a b a; b -> b a; c -> c a b a' b'", [(3, 3, 3, 3), (1, 2, -1, -2) * 10 + (3,)], 40),
]


@pytest.mark.parametrize("rules,words,n", WORK_SHAPES)
def test_power_table_works_at_most_twice_a_plain_loop(monkeypatch, rules, words, n):
    phi = parse_endomorphism(rules)
    for letters in words:
        fast, plain = _work(monkeypatch, phi, free_reduce(letters), n, 10**5)
        assert fast[0] <= 2 * plain[0], (letters, fast, plain)
        assert sum(fast) <= 2 * sum(plain), (letters, fast, plain)


def test_power_table_reads_less_on_a_growing_word(monkeypatch):
    # a long word over the golden-ratio map: the base is read once per
    # iterate instead of every whole iterate
    letters = random_letters(random.Random(7), 2, 600)
    fast, plain = _work(monkeypatch, FIB, letters, 40, 10**5)
    assert 10 * fast[0] < plain[0] and 2 * sum(fast) < sum(plain)
    # spelling each product through the table fed free_reduce 10,910
    # letters and cancelled 85,724 pairs, re-cancelling the base's
    # junctions at every power; runs scan each junction's form once
    assert 3 * sum(fast) < 10_910 + 85_724


def test_power_tables_compose_only_the_letters_of_the_base(compositions):
    # ψᵏ(c) = c (a b a' b')ᵏ is read off T_k = ψ∘T_(k−1), never through
    # T_k[a], which grows like 2.618ᵏ and would cancel whole
    phi = parse_endomorphism("a -> a b a; b -> b a; c -> c a b a' b'")
    seq, _ = growth._iterated_lengths(phi, (3, 3, 3, 3), 40, None)
    assert seq == [4 + 16 * k for k in range(41)]
    assert sorted(compositions) == [(k, 3) for k in range(2, 41)]


def test_growth_leaves_no_tables_on_the_callers_map():
    # a 600-letter word that fib's certificate does not cover is iterated
    # (and then pinned by the abelian sandwich); the powers of ψ it reads
    # are kept on a map of the call's own
    phi = parse_automorphism("a -> a b\nb -> a")
    w = Word(phi.basis, free_reduce(random_letters(random.Random(7), 2, 600)))
    assert no_cancellation_certificate(phi).holds
    rep = classify_growth(phi, w, GrowthParams(cap=10**6))
    assert rep.kind == KIND_EXPONENTIAL and math.isclose(rep.rate, (1 + 5**0.5) / 2)
    assert rep.truncated
    assert length_sequence(phi, w, 40, 10**6) == list(rep.lengths)
    assert not hasattr(phi, "_tables")


def test_whole_map_letters_share_one_psis_tables(compositions):
    rep = classify_growth(parse_endomorphism("a -> a b; b -> b c; c -> c a'"))
    assert rep.kind == KIND_HEURISTIC_EXPONENTIAL
    # every letter's iteration reads the same ψ, so no image is composed twice
    assert compositions and len(set(compositions)) == len(compositions)


def test_certified_matrix_lengths_equal_iteration():
    for rules, _ in UNIPOTENT:
        phi = parse_endomorphism(rules)
        rep = classify_growth(phi, phi.basis.parse(phi.basis.names[-1]))
        assert rep.certified
        naive = naive_length_sequence(
            phi, (phi.basis.rank,), min(12, len(rep.lengths))
        )
        assert list(rep.lengths[: len(naive)]) == naive
    rep = classify_growth(FIB, F.parse("a"))
    assert rep.certified
    assert list(rep.lengths[:10]) == naive_length_sequence(FIB, (1,), 10)


# -- matrix structure ------------------------------------------------------


def test_transition_matrix():
    assert transition_matrix(FIB) == [[1, 1], [1, 0]]
    assert transition_matrix(parse_endomorphism("a -> a b a' b' a; b -> a")) == [
        [3, 1],
        [2, 0],
    ]


def test_spectral_radius_fibonacci():
    assert abs(spectral_radius(transition_matrix(FIB)) - GOLDEN) < 1e-6


@pytest.mark.parametrize(
    "rules,root",
    [
        ("a -> a b a; b -> b a", (3 + math.sqrt(5)) / 2),
        ("a -> b; b -> c; c -> a b", 1.324717957244746),  # plastic number
        ("a -> b; b -> a d d; c -> b; d -> a d a", 2.13039543476728),  # x³−x²−x−3
        ("a -> b; b -> a b a", 2.0),
    ],
)
def test_certified_rate_is_the_perron_root(rules, root):
    rep = classify_growth(parse_endomorphism(rules))
    assert rep.kind == KIND_EXPONENTIAL and rep.certified
    assert abs(rep.rate / root - 1) < 1e-12


@settings(max_examples=200)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_spectral_radius_matches_eigenvalues(m):
    # a forced n-cycle makes the matrix irreducible, so ρ is simple
    n = len(m)
    for j in range(n):
        m[(j + 1) % n][j] = max(1, m[(j + 1) % n][j])
    want = max(abs(numpy.linalg.eigvals(numpy.array(m, dtype=float))))
    assert abs(spectral_radius(m) - want) <= 1e-9 * want


def test_certified_report_computes_each_perron_root_once(monkeypatch):
    rules = "; ".join(f"x{i} -> x{i + 1}" for i in range(1, 60)) + "; x60 -> x1 x2"
    phi = parse_endomorphism(rules)
    calls = {"_perron_root": 0, "_strata": 0}
    for name in calls:
        def counted(*args, _real=getattr(growth, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(growth, name, counted)
    rep = classify_growth(phi)
    assert rep.kind == KIND_EXPONENTIAL and rep.certified
    assert calls == {"_perron_root": 1, "_strata": 1}
    m = numpy.array(transition_matrix(phi), dtype=float)
    want = max(abs(numpy.linalg.eigvals(m)))
    assert abs(rep.rate - want) <= 1e-9 * want
    # c reaches only its own loop, so the {a, b} root is never taken,
    # and the degree is read from the same walk as the rate
    calls.update(_perron_root=0, _strata=0)
    phi = parse_endomorphism("a -> a b; b -> a; c -> c")
    rep = classify_growth(phi, Word(phi.basis, (3,)))
    assert rep.kind == KIND_POLYNOMIAL and rep.certified and rep.degree == 0
    assert calls == {"_perron_root": 0, "_strata": 1}


def test_spectral_radius_respects_support():
    phi = parse_endomorphism("a -> a b; b -> a; c -> c")
    m = transition_matrix(phi)
    assert abs(spectral_radius(m) - GOLDEN) < 1e-6
    assert spectral_radius(m, support=[2]) == 1.0


def reached_letters(m, support):
    """Letters that ``support`` reaches along edges j→i with M[i][j] > 0."""
    seen = set(support)
    stack = list(seen)
    while stack:
        j = stack.pop()
        for i in range(len(m)):
            if m[i][j] and i not in seen:
                seen.add(i)
                stack.append(i)
    return sorted(seen)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def reducible_cases(draw):
    """A nonnegative integer matrix of rank ≤ 6 with no zero column, as
    a certified image's transition matrix, and a support or None."""
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 1, 1, 2, 3))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    for j, i in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        if not any(row[j] for row in m):
            m[i][j] = 1
    support = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    return m, support


@settings(max_examples=300)
@given(reducible_cases())
def test_strata_readers_match_oracles_on_reducible_matrices(case):
    m, support = case
    n = len(m)
    letters = reached_letters(m, range(n) if support is None else support)
    sub = numpy.array([[m[i][j] for j in letters] for i in letters], dtype=float)
    want = max(abs(numpy.linalg.eigvals(sub)))
    # equal radii chained in one support make a defective eigenvalue,
    # which numpy finds only to about ε^(1/k); 1e-6 was the worst seen
    assert abs(spectral_radius(m, support) - want) <= 1e-5 * want
    degree = scc_polynomial_degree(m, support)
    assert (degree is None) == (want > 1 + 1e-5)
    if degree is None:
        return
    # 1ᵀMⁿu is quasi-polynomial when the strata are cycles; read it at
    # n = 60k + 6, past every nilpotent transient and a multiple of
    # every cycle length ≤ 6, where it is a polynomial of the same degree
    u = [[0] for _ in range(n)]
    for j in range(n) if support is None else support:
        u[j][0] += 1
    step = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(60):
        step = matmul(step, m)
    for _ in range(6):
        u = matmul(m, u)
    sums = []
    for _ in range(12):
        sums.append(sum(row[0] for row in u))
        u = matmul(step, u)
    assert degree == finite_difference_degree(sums)


def test_certified_polynomial_report_computes_no_perron_root(monkeypatch):
    calls = []
    real = growth._perron_root
    monkeypatch.setattr(growth, "_perron_root", lambda a: calls.append(a) or real(a))
    for rules, expected in UNIPOTENT:
        phi = parse_endomorphism(rules)
        for x in (None, Word(phi.basis, (phi.basis.rank,))):
            rep = classify_growth(phi, x)
            assert rep.kind == KIND_POLYNOMIAL and rep.certified
            assert rep.degree == expected and rep.chain_length == expected + 1
    assert calls == []


def test_scc_degrees_unipotent_family():
    for rules, expected in UNIPOTENT:
        phi = parse_endomorphism(rules)
        assert scc_polynomial_degree(transition_matrix(phi)) == expected
    assert scc_polynomial_degree(transition_matrix(FIB)) is None


# -- classification --------------------------------------------------------


def test_classify_fibonacci():
    rep = classify_growth(FIB)
    assert rep.kind == KIND_EXPONENTIAL and rep.certified
    assert abs(rep.rate - GOLDEN) < 1e-6
    assert rep.degree is None


def test_classify_unipotent_both_routes():
    for rules, expected in UNIPOTENT:
        phi = parse_endomorphism(rules)
        rep = classify_growth(phi)
        assert rep.kind == KIND_POLYNOMIAL and rep.certified
        assert rep.degree == expected
        # independent route: finite differences of substitution lengths
        naive = naive_length_sequence(phi, (phi.basis.rank,), 16)
        assert finite_difference_degree(naive) == expected
        assert rep.chain_length == expected + 1


def test_classify_permutation_is_degree_zero():
    rep = classify_growth(parse_automorphism("a -> b\nb -> a"))
    assert rep.kind == KIND_POLYNOMIAL and rep.degree == 0


def test_classify_word_subjects():
    rep = classify_growth(FIB, F.parse("b"))
    assert rep.kind == KIND_EXPONENTIAL and rep.certified
    assert rep.subject == "b"
    zero = classify_growth(FIB, identity(F))
    assert zero.kind == KIND_POLYNOMIAL and zero.degree == 0 and zero.certified
    mixed = parse_endomorphism("a -> a b; b -> a; c -> c")
    assert classify_growth(mixed, mixed.basis.parse("c")).kind == KIND_POLYNOMIAL
    assert classify_growth(mixed, mixed.basis.parse("c a")).kind == KIND_EXPONENTIAL


def test_conjugated_map_certifies_at_the_golden_ratio():
    twisted = compose(inner_automorphism(F, F.parse("a")), FIB)
    assert not no_cancellation_certificate(twisted).holds
    rep = classify_growth(twisted, F.parse("a"))
    assert rep.kind == KIND_EXPONENTIAL
    assert rep.certified
    assert abs(rep.rate - GOLDEN) < 1e-12


def _twisted_fib(k):
    return compose(inner_automorphism(F, F.parse("a b")), power(FIB, k))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_conjugated_fibonacci_powers_certify(k):
    phi = _twisted_fib(k)
    assert not no_cancellation_certificate(phi).holds
    rep = classify_growth(phi)
    assert rep.kind == KIND_EXPONENTIAL and rep.certified
    assert abs(rep.rate - GOLDEN**k) < 1e-12
    # the receipt: conjugating by it gives the map that was certified
    assert rep.certificate.holds
    assert compose(inner_automorphism(F, rep.conjugator), phi).images == (
        rep.certificate.endo.images
    )


def test_map_normalization_does_not_certify_stays_heuristic():
    phi = parse_endomorphism("a -> b a'; b -> c; c -> a c")
    cert = no_cancellation_certificate(phi)
    assert not cert.holds
    rep = classify_growth(phi)
    assert rep.kind == KIND_HEURISTIC_EXPONENTIAL and not rep.certified
    assert abs(rep.rate - PLASTIC) < 0.05
    # a heuristic report keeps the map's own failed certificate
    assert rep.conjugator is None
    assert rep.certificate == cert


def test_conjugated_maps_certify_without_iterating(monkeypatch):
    def refuse(*args):
        raise AssertionError("iterated a map that normalization certifies")

    monkeypatch.setattr(growth, "_iterated_lengths", refuse)
    for k in (1, 2, 3, 4):
        assert classify_growth(_twisted_fib(k)).certified
    # the conjugated maps of acceptance criterion 3
    suite = [FIB] + [parse_automorphism(rules) for rules, _ in UNIPOTENT]
    rng = random.Random(3)
    for i in range(20):
        phi = suite[i % len(suite)]
        b = phi.basis
        g = Word(b, random_letters(rng, b.rank, rng.randint(1, 4)))
        rep = classify_growth(compose(inner_automorphism(b, g), phi))
        base = classify_growth(phi)
        assert rep.certified
        assert (rep.kind, rep.degree, rep.rate) == (base.kind, base.degree, base.rate)


def _random_automorphism(rng, rank):
    """Images of a random product of Nielsen moves, then a random inner
    automorphism."""
    imgs = [(j,) for j in range(1, rank + 1)]
    for _ in range(rng.randint(0, 4)):
        i, j = rng.sample(range(rank), 2)
        move = rng.randrange(3)
        if move == 0:
            other = imgs[j] if rng.random() < 0.5 else tuple(-t for t in reversed(imgs[j]))
            imgs[i] = free_reduce(imgs[i] + other)
        elif move == 1:
            imgs[i] = tuple(-t for t in reversed(imgs[i]))
        else:
            imgs[i], imgs[j] = imgs[j], imgs[i]
    g = random_letters(rng, rank, rng.randint(0, 4))
    ginv = tuple(-t for t in reversed(g))
    b = basis(["a", "b", "c"][:rank])
    return Endomorphism(b, tuple(Word(b, free_reduce(g + w + ginv)) for w in imgs))


@settings(max_examples=80)
@given(st.integers(2, 3), st.randoms(use_true_random=False), st.booleans())
def test_lengths_are_translation_lengths_of_the_map(rank, rng, whole_map):
    phi = _random_automorphism(rng, rank)
    x = None if whole_map else Word(phi.basis, random_letters(rng, rank, rng.randint(0, 8)))
    rep = classify_growth(phi, x, GrowthParams(iterations=6, cap=5000))
    starts = [(j,) for j in range(1, rank + 1)] if x is None else [x.letters]
    naive = [naive_length_sequence(phi, s, 6, cap=5000) for s in starts]
    n = min(len(rep.lengths), *(len(seq) for seq in naive))
    assert n >= 1
    assert list(rep.lengths[:n]) == [sum(seq[i] for seq in naive) for i in range(n)]


def test_conjugated_unipotent_goes_heuristic_polynomial():
    base = parse_automorphism("a -> a\nb -> b a")
    twisted = compose(inner_automorphism(F, F.parse("b")), base)
    rep = classify_growth(twisted, F.parse("b"))
    assert rep.kind in (KIND_POLYNOMIAL, KIND_HEURISTIC_POLYNOMIAL)
    assert rep.degree == 1


def test_inconclusive_on_wild_map():
    phi = parse_endomorphism("a -> a b a' b' a\nb -> a")
    rep = classify_growth(phi, params=GrowthParams(cap=10**5))
    assert rep.kind == KIND_INCONCLUSIVE
    assert rep.truncated and not rep.certified
    assert rep.rate is None and rep.degree is None


def test_subject_over_another_basis_is_rejected():
    for x in (basis("a b c").parse("c"), basis("x y").parse("x")):
        with pytest.raises(BasisMismatchError):
            classify_growth(FIB, x)
        with pytest.raises(BasisMismatchError):
            length_sequence(FIB, x, 3)


def test_report_invariants_enforced():
    with pytest.raises(ValueError):
        GrowthReport("w", KIND_EXPONENTIAL, None, None, (), False, None, None)
    with pytest.raises(ValueError):
        GrowthReport("w", KIND_POLYNOMIAL, None, None, (), False, None, None)
    # certified is read off the kind, so no report can claim it wrongly
    heuristic = GrowthReport("w", KIND_HEURISTIC_POLYNOMIAL, None, 1, (), False, None, None)
    assert not heuristic.certified
    assert GrowthReport("w", KIND_POLYNOMIAL, None, 1, (), False, 2, None).certified


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"iterations": 0}, "^iterations must be positive$"),
        ({"iterations": -1}, "^iterations must be positive$"),
        ({"cap": 0}, "^cap must be positive$"),
        ({"cap": -5}, "^cap must be positive$"),
    ],
)
def test_nonsense_growth_budget_refused(budget, message):
    with pytest.raises(ValueError, match=message):
        GrowthParams(**budget)


# -- the abelian sandwich ---------------------------------------------------


def _int_matrix(rows):
    return numpy.array(rows, dtype=object)


def _abelianization(endo):
    r = endo.basis.rank
    a = [[0] * r for _ in range(r)]
    for j, img in enumerate(endo.images):
        for t in img.letters:
            a[abs(t) - 1][j] += 1 if t > 0 else -1
    return _int_matrix(a)


def _exponent_sums(letters, rank):
    return _int_matrix([sum((t > 0) - (t < 0) for t in letters if abs(t) == j)
                        for j in range(1, rank + 1)])


def _nielsen_case(rng, rank):
    """A product of 2–7 Nielsen moves on F_rank, conjugated by a word of
    0–3 letters, and a reduced word of 8–60 letters."""
    imgs = [(j,) for j in range(1, rank + 1)]
    for _ in range(rng.randint(2, 7)):
        i, j = rng.sample(range(rank), 2)
        move = rng.randrange(3)
        if move == 0:
            other = imgs[j] if rng.random() < 0.5 else tuple(-t for t in reversed(imgs[j]))
            imgs[i] = free_reduce(imgs[i] + other if rng.random() < 0.5 else other + imgs[i])
        elif move == 1:
            imgs[i] = tuple(-t for t in reversed(imgs[i]))
        else:
            imgs[i], imgs[j] = imgs[j], imgs[i]
    g = random_letters(rng, rank, rng.randint(0, 3))
    ginv = tuple(-t for t in reversed(g))
    b = basis(["a", "b", "c"][:rank])
    phi = Endomorphism(b, tuple(Word(b, free_reduce(g + w + ginv)) for w in imgs))
    return phi, Word(b, random_letters(rng, rank, rng.randint(8, 60)))


def _sandwiched(phi, x, params):
    """The report on x, and whether the sandwich made it certified."""
    psi, _ = automorphisms._inner_normalize(phi)
    covered = any(
        c.covers(x) for c in (no_cancellation_certificate(phi), no_cancellation_certificate(psi))
    )
    rep = classify_growth(phi, x, params)
    return rep, psi, rep.certified and not covered


@settings(max_examples=150)
@given(st.integers(2, 3), st.randoms(use_true_random=False))
def test_sandwich_certifies_between_its_bounds(rank, rng):
    phi, x = _nielsen_case(rng, rank)
    rep, psi, sandwiched = _sandwiched(phi, x, GrowthParams(iterations=12, cap=20_000))
    if not sandwiched:
        return
    r = phi.basis.rank
    core = cyclic_word(x).letters
    a, v = _abelianization(phi), _exponent_sums(core, r)
    m, u = _int_matrix(transition_matrix(psi)), _int_matrix([0] * r)
    for t in core:
        u[abs(t) - 1] += 1
    for length in rep.lengths:
        v, u = a.dot(v), m.dot(u)
        assert sum(abs(c) for c in v) <= length <= sum(u)
    if rep.kind == KIND_EXPONENTIAL:
        eigenvalues = numpy.linalg.eigvals(a.astype(float))
        assert min(abs(eigenvalues - rep.rate)) <= 1e-9 * rep.rate
    else:
        assert rep.kind == KIND_POLYNOMIAL and rep.chain_length is None
        step = numpy.linalg.matrix_power(a, 12) - _int_matrix(numpy.eye(r, dtype=int))
        w = _exponent_sums(core, r)
        for _ in range(rep.degree):
            w = step.dot(w)
        assert any(w) and not any(step.dot(w))


def test_sandwich_settles_random_words():
    # the property above is vacuous unless the sandwich certifies often
    params = GrowthParams(iterations=12, cap=20_000)
    kinds = []
    for seed in range(60):
        rep, _, sandwiched = _sandwiched(*_nielsen_case(random.Random(seed), 2 + seed % 2), params)
        if sandwiched:
            kinds.append(rep.kind)
    assert kinds.count(KIND_EXPONENTIAL) >= 3 and kinds.count(KIND_POLYNOMIAL) >= 3


def test_sandwich_worked_cases():
    # a b' stays uncovered by the certificate, and the cap truncates its lengths
    phi = parse_automorphism("a -> a b a; b -> a b")
    rep = classify_growth(phi, F.parse("a b'"), GrowthParams(cap=1000))
    assert not no_cancellation_certificate(phi).covers(F.parse("a b'"))
    assert rep.kind == KIND_EXPONENTIAL and rep.truncated
    assert abs(rep.rate - GOLDEN**2) < 1e-12
    # Φ(b a') = b a a' cancels, so no certificate covers b a'; its degree is 1
    chain = parse_automorphism("a -> a; b -> b a; c -> c b")
    rep = classify_growth(chain, chain.basis.parse("b a'"))
    assert rep.kind == KIND_POLYNOMIAL and rep.degree == 1
    # the evidence is the heuristic report's: Φ's certificate, no conjugator
    assert rep.certificate == no_cancellation_certificate(chain)
    assert rep.conjugator is None and rep.chain_length is None


@pytest.mark.parametrize("rules, word, kind, degree", [
    # commutators: the abelian image is 0, so no lower bound reaches fib's stratum
    ("a -> a b; b -> a", "a b a' b'", KIND_HEURISTIC_POLYNOMIAL, 0),
    ("a -> a b; b -> a", "a b a' b' a b a' b' a b' a' b", KIND_HEURISTIC_EXPONENTIAL, None),
    # fixed, and its abelian image 2a misses b's stratum: the bounds say 0 and 1
    ("a -> a; b -> b a a", "a' b a a a b'", KIND_HEURISTIC_POLYNOMIAL, 0),
])
def test_sandwich_stops_where_the_bounds_part(rules, word, kind, degree):
    phi = parse_automorphism(rules)
    rep = classify_growth(phi, phi.basis.parse(word))
    assert rep.kind == kind and rep.degree == degree


def test_sandwich_costs_nothing_on_certified_paths(monkeypatch):
    calls = []
    real = growth._krylov
    monkeypatch.setattr(growth, "_krylov", lambda a, v: calls.append(v) or real(a, v))
    twisted = compose(inner_automorphism(F, F.parse("a")), FIB)
    classify_growth(FIB, F.parse("a b"))  # covered by Φ's certificate
    classify_growth(twisted, F.parse("a"))  # covered by i_h∘Φ's
    classify_growth(FIB)
    classify_growth(twisted)
    classify_growth(parse_endomorphism("a -> a b a' b' a\nb -> a"), params=GrowthParams(cap=10**4))
    assert calls == []
    classify_growth(FIB, F.parse("a' b"))
    assert calls == [[-1, 1]]


def test_charpoly_matches_numpy():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert growth._charpoly(a) == [round(c) for c in numpy.poly(numpy.array(a, dtype=float))]


def _product(*factors):
    p = [1]
    for f in factors:
        p = [sum(p[i] * f[k - i] for i in range(len(p)) if 0 <= k - i < len(f))
             for k in range(len(p) + len(f) - 1)]
    return p


@settings(max_examples=200)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6), st.integers(0, 2),
       st.integers(-5, 4))
def test_one_root_above_is_sound(roots, quadratics, t):
    # (x − r) over the roots, times (x² + 1) per quadratic: no real roots there
    p = _product(*[[1, -r] for r in roots], *[[1, 0, 1]] * quadratics)
    if growth._one_root_above(p, t + 0.5):
        assert sum(r > t + 0.5 for r in roots) == 1


def test_one_root_above_pins_perron_roots():
    for rules, root in [("a -> a b; b -> a", GOLDEN), ("a -> a b; b -> a c; c -> a", 1.839286755214161)]:
        p = growth._charpoly(transition_matrix(parse_endomorphism(rules)))
        assert growth._one_root_above(p, root * (1 - 1e-12))
        assert not growth._one_root_above(p, root * (1 + 1e-12))
    # x(x − 1)(x − 2): one root above 1.99, two above 0.5
    assert growth._one_root_above(_product([1, 0], [1, -1], [1, -2]), 1.99)
    assert not growth._one_root_above(_product([1, 0], [1, -1], [1, -2]), 0.5)


def test_poly_gcd_up_to_a_constant():
    p = _product([1, -1], [1, -1], [1, 2])
    q = _product([1, -1], [1, 2], [1, 2], [1, 2], [2, 1])
    g = growth._poly_gcd(p, q)
    assert g in (_product([1, -1], [1, 2]), [-c for c in _product([1, -1], [1, 2])])
    assert len(growth._poly_gcd(p, [1, 5])) == 1
    assert growth._derivative(p) == [3, 0, -3]


def test_krylov_gives_the_minimal_polynomial():
    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 4)
        a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        v = [rng.randint(-2, 2) for _ in range(k)]
        mu = growth._krylov(a, v)
        assert mu[0] == 1
        am, vm = _int_matrix(a), _int_matrix(v)
        krylov = [vm]  # v, Av, …, Aᵈv for d = deg μ
        for _ in range(len(mu) - 1):
            krylov.append(am.dot(krylov[-1]))
        assert not any(sum(c * w for c, w in zip(mu, reversed(krylov))))  # μ(A)v = 0
        lower = numpy.array(krylov[:-1], dtype=float).reshape(len(mu) - 1, k)
        assert numpy.linalg.matrix_rank(lower) == len(mu) - 1  # and nothing less does


# -- growth inside an invariant subgroup ----------------------------------


def test_restricted_growth_invariant_polynomial_part():
    # Φ is the identity on the invariant ⟨c⟩
    phi = parse_automorphism("a -> a b; b -> a; c -> c")
    b3 = phi.basis
    h = stallings_graph(b3, [b3.parse("c")])
    rep = classify_growth(restrict(phi, h).auto)
    assert (rep.kind, rep.degree) == (KIND_POLYNOMIAL, 0)


def test_restricted_growth_finds_exponential():
    # the squares' subgroup has index 4 and is characteristic, so Φ
    # restricted to it grows at Φ's own rate, the golden ratio
    squares = ("a a", "b b", "a b a b", "b a b a", "a b b a'", "a' b a b")
    h = stallings_graph(F, [F.parse(w) for w in squares])
    assert h.index() == 4
    rep = classify_growth(restrict(FIB, h).auto)
    assert rep.kind in (KIND_EXPONENTIAL, KIND_HEURISTIC_EXPONENTIAL)
    assert abs(rep.rate - (1 + math.sqrt(5)) / 2) < 0.05


# -- layer guard ------------------------------------------------------------


def test_substitutions_reach_free_reduce(monkeypatch):
    """apply, to_ambient and the growth iterates substitute inside
    free_reduce, so a tracer wrapping it sees every substitution."""
    tables = []

    def spy(letters, images=None):
        tables.append(images)
        return free_reduce(letters, images)

    monkeypatch.setattr(automorphisms, "free_reduce", spy)
    monkeypatch.setattr(growth, "free_reduce", spy)
    w = F.parse("a b")
    assert FIB.apply(w) == F.parse("a b a")
    assert tables == [FIB._subst]
    ra = restrict(FIB, stallings_graph(F, [F.parse("a"), F.parse("b")]))
    tables.clear()
    x, y = ra.embedding
    assert ra.to_ambient(Word(ra.auto.basis, (1, -2))) == x * y.inverse()
    assert tables == [ra._embed]
    tables.clear()
    fib = Endomorphism(FIB.basis, FIB.images)  # growth keeps its tables on a map of its own
    assert growth._iterated_lengths(fib, cyclic_word(w).letters, 3, None) == ([2, 3, 5, 8], False)
    assert tables == [fib._subst] * 3
