"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `[acceptance] ...: PASS|FAIL` line (collected
again in the terminal summary).  Every expected value is produced by an
oracle computed inside this file: polynomial roots, finite differences,
bounded enumeration, product formulas, witnessed readback.  None of the
oracles call the code path they judge.
"""

import json
import random

import numpy as np

from conftest import ACCEPTANCE_LINES
from helpers import (
    bounded_products,
    finite_difference_degree,
    random_letters,
    torus_words,
)

from fgrow.automorphisms import (
    compose,
    identity_automorphism,
    inner_automorphism,
    parse_automorphism,
    parse_endomorphism,
    power,
)
from fgrow.cli import main
from fgrow.folding import full_group, stallings_graph, witnessed_graph
from fgrow.geometry import cayley_ball, divergence_estimate
from fgrow.growth import (
    classify_growth,
    length_sequence,
    scc_polynomial_degree,
    transition_matrix,
)
from fgrow.mapping_torus import fiber_intersection, torus_group
from fgrow.splittings import (
    FixedSplittingWitness,
    GogEdge,
    GogVertex,
    GraphOfGroups,
    Hierarchy,
    HierarchyNode,
    hierarchy_depth,
    induce_hierarchy,
    induce_torus_splitting,
    parse_splitting,
    validate_splitting,
)
from fgrow.words import Word, basis

F2 = basis("a b")
F3 = basis("a b c")

FIB = parse_automorphism("a -> a b\nb -> a")
TRIB = parse_endomorphism("a -> a b\nb -> a c\nc -> a")

UNIPOTENT = [
    ("a -> a", 0),
    ("a -> a\nb -> b a", 1),
    ("a -> a\nb -> b a\nc -> c b", 2),
    ("a -> a\nb -> b a\nc -> c b\nd -> d c", 3),
]

FREE_SPLIT = """\
basis: a b
[vertices]
v1: a
v2: b
[edges]
e1: v1 v2
[witness]
map v1 -> v2
map v2 -> v1
edge e1 -> e1 !
"""

CYCLIC_SPLIT = """\
basis: a b c
[vertices]
v1: a | b
v2: b | c
[edges]
e1: v1 v2 ; y = b
"""


def _verdict(label: str, failures: list[str]) -> None:
    line = f"[acceptance] {label}: {'FAIL' if failures else 'PASS'}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, "; ".join(failures)


def _real_root(coeffs: list[int]) -> float:
    return max(r.real for r in np.roots(coeffs) if abs(r.imag) < 1e-9)


def _strip(kind: str) -> str:
    return kind.removeprefix("Heuristic-")


def test_criterion_1_exponential_rates():
    failures: list[str] = []
    golden = _real_root([1, -1, -1])
    trib = _real_root([1, -1, -1, -1])

    rep = classify_growth(FIB)
    if not (rep.certified and rep.kind == "Exponential"):
        failures.append(f"fib not certified exponential: {rep.kind}")
    if abs(rep.rate - golden) >= 1e-3:
        failures.append(f"fib rate {rep.rate} vs {golden}")

    rep = classify_growth(TRIB)
    if not (rep.certified and rep.kind == "Exponential"):
        failures.append(f"trib not certified exponential: {rep.kind}")
    if abs(rep.rate - trib) >= 1e-3:
        failures.append(f"trib rate {rep.rate} vs {trib}")

    for phi, subject, target in ((FIB, F2, golden), (TRIB, F3, trib)):
        seq = length_sequence(phi, subject.parse("a"), 25, cap=10**7)
        if len(seq) < 25:
            failures.append("tail sequence truncated before N = 25")
            continue
        est = seq[-1] / seq[-2]
        if abs(est - target) >= 5e-2:
            failures.append(f"tail estimate {est} vs {target}")

    _verdict("1 exponential rates", failures)


def test_criterion_2_polynomial_degrees():
    failures: list[str] = []
    for rules, deg in UNIPOTENT:
        endo = parse_endomorphism(rules)
        got = scc_polynomial_degree(transition_matrix(endo))
        if got != deg:
            failures.append(f"chain degree {got} != {deg} for {rules!r}")
        by_diff = max(
            finite_difference_degree(
                length_sequence(endo, Word(endo.basis, (j,)), 20)
            )
            for j in range(1, endo.basis.rank + 1)
        )
        if by_diff != deg:
            failures.append(f"difference degree {by_diff} != {deg} for {rules!r}")
    _verdict("2 polynomial degrees", failures)


def test_criterion_3_invariance_suite():
    failures: list[str] = []
    poly = [parse_automorphism(rules) for rules, _ in UNIPOTENT]
    suite = [FIB] + poly
    base = {id(phi): classify_growth(phi) for phi in suite}

    def expect_same(phi, rep, what: str) -> None:
        b = base[id(phi)]
        if _strip(rep.kind) != _strip(b.kind):
            failures.append(f"{what}: kind {rep.kind} vs {b.kind}")
        if rep.degree != b.degree:
            failures.append(f"{what}: degree {rep.degree} vs {b.degree}")

    for phi in suite:
        for k in (2, 3):
            expect_same(phi, classify_growth(power(phi, k)), f"power {k}")
    for phi in poly:
        expect_same(phi, classify_growth(phi.inverse()), "inverse")

    rng = random.Random(3)
    for i in range(20):
        phi = suite[i % len(suite)]
        b = phi.basis
        g = Word(b, random_letters(rng, b.rank, rng.randint(1, 4)))
        psi = compose(inner_automorphism(b, g), phi)
        expect_same(phi, classify_growth(psi), f"conjugation by {g}")

    _verdict("3 invariance suite", failures)


def test_criterion_4_folding_oracle_equivalence():
    failures: list[str] = []
    rng = random.Random(0)
    finite_index_cases = 0
    for s in range(10):
        gens = [
            Word(F2, random_letters(rng, 2, rng.randint(1, 5)))
            for _ in range(rng.randint(1, 3))
        ]
        graph = stallings_graph(F2, gens)
        witnessed = witnessed_graph(F2, gens)
        oracle = bounded_products([w.letters for w in gens], 8)

        for letters in oracle:
            if not graph.accepts(Word(F2, letters)):
                failures.append(f"subgroup {s}: enumerated member rejected")
                break

        for _ in range(100):
            w = Word(F2, random_letters(rng, 2, rng.randint(0, 8)))
            if graph.accepts(w):
                # Positives must carry a checkable factorization; the
                # 8-factor enumeration alone is one-sided on members.
                expr = witnessed.express(w)
                if expr is None or witnessed.evaluate(expr) != w:
                    failures.append(f"subgroup {s}: member {w} has no readback")
            elif w.letters in oracle:
                failures.append(f"subgroup {s}: enumerated member {w} rejected")

        index = graph.index()
        if index is not None:
            finite_index_cases += 1
            if graph.rank() != index * (F2.rank - 1) + 1:
                failures.append(
                    f"subgroup {s}: rank {graph.rank()} at index {index}"
                )
    if finite_index_cases == 0:
        failures.append("no finite-index case found; count check vacuous")
    _verdict("4 folding oracle equivalence", failures)


def test_criterion_5_mapping_torus_soundness():
    failures: list[str] = []
    swap = parse_automorphism("a -> b\nb -> a")
    t = F2.rank + 1
    for phi in (identity_automorphism(F2), FIB, swap):
        group = torus_group(phi)
        for j in range(1, F2.rank + 1):
            image = phi.apply(Word(F2, (j,)))
            relator = (t, j, -t) + tuple(-x for x in reversed(image.letters))
            if not group.normalize(relator).is_identity():
                failures.append(f"relator for generator {j} survives: {phi}")

    rng = random.Random(5)
    group = torus_group(FIB)

    def rand_element():
        n = rng.randint(0, 5)
        letters = []
        for _ in range(n):
            x = rng.choice([1, -1, 2, -2, 3, -3])
            if letters and letters[-1] == -x:
                continue
            letters.append(x)
        return group.normalize(letters)

    for _ in range(100):
        p, q, r = rand_element(), rand_element(), rand_element()
        if (p * q) * r != p * (q * r):
            failures.append(f"associativity breaks at {p}, {q}, {r}")
        if not (p * p.inverse()).is_identity():
            failures.append(f"inverse breaks at {p}")

    gid = torus_group(identity_automorphism(F2))
    gfib = torus_group(FIB)
    cases = [
        (gid, [gid.element("b"), gid.t()], stallings_graph(F2, [F2.parse("b")]), 1),
        (gid, [gid.element("a"), gid.t(2)], stallings_graph(F2, [F2.parse("a")]), 2),
        (gfib, [gfib.element("b"), gfib.t()], full_group(F2), 1),
    ]
    for group, gens, stated, n in cases:
        fi = fiber_intersection(group, gens, with_witnesses=True)
        if fi.graph != stated:
            failures.append(f"fiber of {[str(g) for g in gens]} is not as stated")
        if fi.n != n:
            failures.append(f"t-step {fi.n} != {n}")
        for w, expr in fi.basis_witnesses():
            if fi.evaluate_witness(expr) != group.element(w):
                failures.append(f"witness for {w} multiplies out wrong")
        # k = 0 enumeration: every short product of the generators that
        # lands in the fiber must be recognized, with a valid witness.
        frontier = {group.identity_element()}
        steps = [g for g in gens] + [g.inverse() for g in gens]
        for _ in range(5):
            frontier = {e * s for e in frontier for s in steps}
            for e in frontier:
                if e.k != 0 or len(e.w.letters) > 5:
                    continue
                if not fi.contains(e.w):
                    failures.append(f"fiber misses enumerated {e}")
                    continue
                expr = fi.witness(e.w)
                if expr is None or fi.evaluate_witness(expr) != e:
                    failures.append(f"bad witness for {e}")
    _verdict("5 mapping torus soundness", failures)


def test_criterion_6_splitting_induction():
    failures: list[str] = []
    free_gog, free_wit = parse_splitting(FREE_SPLIT)
    cyc_gog, _ = parse_splitting(CYCLIC_SPLIT)
    loop_gog = GraphOfGroups(
        F2,
        (GogVertex("v", stallings_graph(F2, [F2.parse("a")])),),
        (GogEdge("e", "v", "v", stable_letter=F2.parse("b")),),
    )
    for gog in (free_gog, cyc_gog, loop_gog):
        validate_splitting(gog)

    swap = parse_automorphism("a -> b\nb -> a")
    cases = [
        (free_gog, identity_automorphism(F2), FixedSplittingWitness(), "Z"),
        (free_gog, swap, free_wit, "Z"),
        (loop_gog, identity_automorphism(F2), FixedSplittingWitness(), "Z"),
        (cyc_gog, identity_automorphism(F3), FixedSplittingWitness(), "Z-by-Z"),
        (
            cyc_gog,
            parse_automorphism("a -> a\nb -> b'\nc -> c", F3),
            FixedSplittingWitness(),
            "Z-by-Z",
        ),
    ]
    for gog, phi, wit, expected in cases:
        ts = induce_torus_splitting(gog, phi, wit)
        group = torus_group(phi)
        for e in ts.edges:
            if e.kind != expected:
                failures.append(f"edge {e.name}: kind {e.kind} != {expected}")
            if (e.fiber is None) != (expected == "Z"):
                failures.append(f"edge {e.name}: fiber does not match its kind")
            if e.fiber is not None:
                section = group.element(e.holonomy) * group.t(e.period)
                y = group.element(e.fiber)
                if section * y * section.inverse() != y ** e.twist:
                    failures.append(f"edge {e.name}: relator fails in the group")

    root = HierarchyNode(
        "g",
        full_group(F2),
        children=(
            HierarchyNode("h1", stallings_graph(F2, [F2.parse("a")]), status="absolute"),
            HierarchyNode("h2", stallings_graph(F2, [F2.parse("b")]), status="absolute"),
        ),
        splitting=free_gog,
    )
    src = Hierarchy("free", root)
    induced = induce_hierarchy(src, identity_automorphism(F2), FixedSplittingWitness())
    if hierarchy_depth(induced) != hierarchy_depth(src):
        failures.append(
            f"depth {hierarchy_depth(induced)} != {hierarchy_depth(src)}"
        )
    _verdict("6 splitting induction", failures)


def test_criterion_7_geometry():
    failures: list[str] = []
    gid = torus_group(identity_automorphism(F2))

    def sphere(i: int) -> int:
        return 1 if i == 0 else 4 * 3 ** (i - 1)

    expected = [
        sum(sphere(i) * (2 * (r - i) + 1) for i in range(r + 1)) for r in range(9)
    ]
    got = cayley_ball(gid, 8).ball_sizes()
    if got != expected:
        failures.append(f"ball sizes {got} != {expected}")

    gpoly = torus_group(parse_automorphism("a -> a\nb -> b a"))
    table: dict[tuple, int] = {}
    for letters in torus_words(2, 4):
        e = gpoly.normalize(letters)
        key = (e.w.letters, e.k)
        if key not in table or len(letters) < table[key]:
            table[key] = len(letters)
    ball = cayley_ball(gpoly, 4)
    if len(ball) != len(table):
        failures.append(f"|B(4)| {len(ball)} != {len(table)} enumerated")
    else:
        for i in range(len(ball)):
            e = ball.element(i)
            if ball.distance_by_index(i) != table[(e.w.letters, e.k)]:
                failures.append(f"distance wrong at {e}")
                break

    deg1 = divergence_estimate(gpoly, (4, 6, 8), samples_per_radius=64, seed=0)
    deg0 = divergence_estimate(gid, (4, 6, 8), samples_per_radius=64, seed=0)
    for r in (4, 6, 8):
        if not deg1.mean_at(r) > deg0.mean_at(r):
            failures.append(
                f"detours at r={r}: {deg1.mean_at(r)} <= {deg0.mean_at(r)}"
            )
    _verdict("7 geometry", failures)


def test_criterion_8_cli_determinism(tmp_path, capsys):
    failures: list[str] = []
    gog = tmp_path / "free.gog"
    gog.write_text(FREE_SPLIT)
    hier = tmp_path / "h.txt"
    hier.write_text(
        "basis: a b\nkind: cyclic\ng\n"
        "  h1 group=a status=absolute\n  h2 group=b status=absolute\n"
    )
    fib = "a -> a b\nb -> a"
    script = [
        ["growth", "--map", fib],
        ["growth", "--map", fib, "--emit", "csv"],
        ["growth", "--map", fib, "--emit", "svg"],
        ["growth", "--map", "a -> a\nb -> b a", "--word", "b", "--emit", "text"],
        ["fold", "--gens", "a a, b, a b a'", "--emit", "json"],
        ["fold", "--gens", "a, b a b", "--emit", "dot"],
        ["torus", "--map", fib],
        ["torus", "--map", fib, "--gens", "b; t", "--emit", "json"],
        ["split", "--map", "a -> b; b -> a", "--gog", str(gog), "--induce"],
        ["hierarchy", "--file", str(hier)],
        ["divergence", "--map", "a -> a; b -> b", "--radii", "4,5",
         "--samples", "8", "--seed", "0"],
        ["divergence", "--map", "a -> a; b -> b", "--radii", "4,5",
         "--samples", "8", "--seed", "0", "--emit", "csv"],
    ]

    def run_suite():
        transcript = []
        for argv in script:
            code = main(list(argv))
            out = capsys.readouterr().out
            transcript.append((argv[0], code, out))
        return transcript

    first = run_suite()
    second = run_suite()
    for (name, c1, o1), (_, c2, o2) in zip(first, second):
        if c1 != c2 or o1 != o2:
            failures.append(f"{name} differs between runs")
    for name, code, out in first:
        if code != 0:
            failures.append(f"{name} exited {code}")
        if out.startswith("{"):
            json.loads(out)
    _verdict("8 determinism", failures)
