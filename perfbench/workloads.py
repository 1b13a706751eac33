"""The four seeded workloads: job generation, execution, and checks.

A workload builds its inputs from ``--seed`` through fgrow's own
constructors (``parse_automorphism``, ``power``, ``compose``,
``torus_group``), then offers a list of jobs.  Jobs are laid out in
rounds: every round holds one job of each slot, and the slot schedule
(which map, which power, which size band) is fixed, while the seed
draws the letters, conjugators and sizes inside each band.  So two
seeds give different inputs whose cost distributions agree, and any
prefix of whole rounds is a balanced sample of the workload.

Each job returns a canonical answer (plain tuples, hashed to compare
runs) and an outcome: ``exact`` (certified growth, stabilized fiber,
complete ball, or an exact computation), ``answered`` (a heuristic
verdict), or ``open`` (Inconclusive, budget exhausted, exit code 2).
``check`` compares an answer with the oracles in ``oracles.py``.

Fgrow functions are always looked up on their module at call time, so
the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import oracles as O

EXACT, ANSWERED, OPEN = "exact", "answered", "open"

# base maps whose growth is known in closed form: rules, kind, degree,
# rate, and closed-form inverse rules (None where the inverse's growth
# is not known in closed form)
BASES = {
    "fib": ("a -> a b; b -> a", "Exponential", None, O.GOLDEN, "a -> b; b -> b' a"),
    "poly1": ("a -> a; b -> b a", "Polynomial", 1, None, "a -> a; b -> b a'"),
    "poly2": (
        "a -> a; b -> b a; c -> c b", "Polynomial", 2, None,
        "a -> a; b -> b a'; c -> c a b'",
    ),
    "poly3": (
        "a -> a; b -> b a; c -> c b; d -> d c", "Polynomial", 3, None,
        "a -> a; b -> b a'; c -> c a b'; d -> d b a' c'",
    ),
    "trib": ("a -> a b; b -> a c; c -> a", "Exponential", None, O.TRIBONACCI, None),
}
BASE_ORDER = ("fib", "poly1", "poly2", "poly3", "trib")
NAMES = "abcd"

# rank-2 tori of the fiber and geometry workloads, with inverse rules
TORI = {
    "identity": ("a -> a; b -> b", "a -> a; b -> b"),
    "swap": ("a -> b; b -> a", "a -> b; b -> a"),
    "fib": ("a -> a b; b -> a", "a -> b; b -> b' a"),
    "poly": ("a -> a; b -> b a", "a -> a; b -> b a'"),
}
# elementary Nielsen moves of F2 as (images, inverse images)
NIELSEN = (
    ({1: (1, 2), 2: (2,)}, {1: (1, -2), 2: (2,)}),
    ({1: (2, 1), 2: (2,)}, {1: (-2, 1), 2: (2,)}),
    ({1: (1,), 2: (2, 1)}, {1: (1,), 2: (2, -1)}),
    ({1: (1,), 2: (1, 2)}, {1: (1,), 2: (-1, 2)}),
    ({1: (2,), 2: (1,)}, {1: (2,), 2: (1,)}),
    ({1: (-1,), 2: (2,)}, {1: (-1,), 2: (2,)}),
)

# t-exponents of the two generators of a fiber job, cycled per slot;
# |exponent| <= 2 keeps one saturation round to at most Φ² of growth
T_EXPONENTS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (0, 2), (2, 0), (-1, 1), (1, -2))

HEURISTIC_RATE_TOLERANCE = 0.05  # relative; heuristic rates carry ~log(c)/n bias
CERTIFIED_RATE_TOLERANCE = 1e-6


def rand_word(rng: random.Random, rank: int, n: int) -> tuple[int, ...]:
    """Uniform freely reduced word of exactly n letters."""
    out: list[int] = []
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    while len(out) < n:
        x = rng.choice(letters)
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def torus_word(rng: random.Random, length: int, exponent: int) -> tuple[int, ...]:
    """A random word of ``length`` letters of F2 with |exponent| letters
    t^{±1} (letter 3) inserted at random places."""
    letters = list(rand_word(rng, 2, length))
    t = 3 if exponent > 0 else -3
    for _ in range(abs(exponent)):
        letters.insert(rng.randint(0, len(letters)), t)
    return tuple(letters)


def rules_text(images, names: str = NAMES) -> str:
    return "; ".join(
        f"{names[j - 1]} -> {O.word_text(images[j], names)}" for j in sorted(images)
    )


def banded(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """n sizes spread over [lo, hi] by stratified sampling, in seeded order."""
    slots = list(range(n))
    rng.shuffle(slots)
    return [lo + int((hi - lo) * (s + rng.random()) / n) for s in slots]


@dataclass
class Job:
    kind: str
    spec: tuple  # plain data: what the job computes, for hashing and oracles
    args: tuple = ()  # fgrow objects built at set-up
    meta: dict = field(default_factory=dict)


class Workload:
    name = ""
    rounds = 0
    trace_rounds = 0
    min_passes = 1
    # traced functions this workload must reach (see README)
    uses: tuple[str, ...] = ()

    def __init__(self, fg, seed: int, scratch: str):
        self.fg = fg
        self.rng = random.Random(f"{self.name}:{seed}")
        self.scratch = scratch
        self.jobs: list[Job] = []
        self.round_ends: list[int] = []
        self.build()

    def build(self) -> None:
        """Append ``rounds`` rounds of jobs, calling ``end_round`` after each."""
        raise NotImplementedError

    def end_round(self) -> None:
        self.round_ends.append(len(self.jobs))

    def trace_jobs(self) -> list[Job]:
        """The jobs of the first ``trace_rounds`` rounds."""
        return self.jobs[: self.round_ends[self.trace_rounds - 1]]

    def run(self, job: Job):
        """(answer, outcome, detail): detail feeds ``check`` only."""
        return getattr(self, "run_" + job.kind)(job)

    def check(self, job: Job, answer, detail) -> list[str]:
        return getattr(self, "check_" + job.kind)(job, answer, detail)

    def finish(self) -> list[str]:
        """Checks over the whole run, after the last job."""
        return []

    def inputs_text(self) -> str:
        """The jobs as text, with the per-process scratch directory masked."""
        text = "\n".join(f"{j.kind} {j.spec!r}" for j in self.jobs)
        return text.replace(self.scratch, "<scratch>")


# ---------------------------------------------------------------------------
# growth


class GrowthWorkload(Workload):
    """Certified and heuristic growth, plus the cyclic-word kernel.

    Per round: 6 certified whole-map jobs (powers and inverses), 2
    heuristic whole-map jobs (conjugated powers), 2 classify jobs on
    long random words, 3 length sequences and 5 canonical rotations of
    long random words.  10 of 18 jobs rotate a 500-1000 letter word,
    so the median job sits in the rotation kernel; the heuristic jobs
    hold the slowest tenth.
    """

    name = "growth"
    rounds = 10
    trace_rounds = 2
    uses = (
        "words.free_reduce", "words.cyclic_reduce", "words.Word.init",
        "growth.classify_growth", "growth.transition_matrix",
        "growth.no_cancellation_certificate", "growth.spectral_radius",
    )
    word_band = (500, 1000)

    def build(self) -> None:
        fg, rng = self.fg, self.rng
        self.params = fg.growth.GrowthParams(iterations=40, cap=100_000)
        self.bases = {
            k: fg.automorphisms.parse_automorphism(BASES[k][0]) for k in BASE_ORDER
        }
        self.oracle_images = {k: O.parse_rules(BASES[k][0]) for k in BASE_ORDER}
        n_long = self.rounds * 10
        lengths = iter(banded(rng, n_long, *self.word_band))
        for r in range(self.rounds):
            for s in range(6):
                base = BASE_ORDER[(r + s) % 5]
                if s < 4:
                    self._map_job(base, 1 + (r + s) % 3, None, inverse=False)
                else:
                    base = ("fib", "poly1", "poly2", "poly3")[(2 * r + s) % 4]
                    self._map_job(base, 1, None, inverse=True)
            for s in range(2):
                base = BASE_ORDER[(2 * r + s) % 5]
                k = 1 + (r + s) % 3
                self._map_job(base, k, self._uncertified_conjugator(base, k), inverse=False)
            for s in range(2):
                base = BASE_ORDER[(2 * r + s + 1) % 5]
                k = 1 + (r + s + 1) % 3
                g = rand_word(rng, len(self.oracle_images[base]), rng.randint(0, 4))
                x = rand_word(rng, len(self.oracle_images[base]), next(lengths))
                phi = self._transform(base, k, g)
                w = fg.words.Word(phi.basis, x)
                spec = (base, k, g, x, self.params.iterations, self.params.cap)
                self.jobs.append(Job("word", spec, (phi, w)))
            for s in range(3):
                base = BASE_ORDER[(3 * r + s) % 5]
                g = rand_word(rng, len(self.oracle_images[base]), rng.randint(0, 4))
                x = rand_word(rng, len(self.oracle_images[base]), next(lengths))
                phi = self._transform(base, 1, g)
                w = fg.words.Word(phi.basis, x)
                self.jobs.append(Job("lengths", (base, g, x, 4), (phi, w)))
            for s in range(5):
                rank = 2 + (r + s) % 2
                x = rand_word(rng, rank, next(lengths))
                b = fg.words.basis(" ".join(NAMES[:rank]))
                self.jobs.append(Job("cyclic", (rank, x), (fg.words.Word(b, x),)))
            self.end_round()

    def _uncertified_conjugator(self, base: str, k: int):
        """A conjugator g, |g| <= 4, such that some image of i_g∘Φᵏ is not
        cyclically reduced.  Its wraparound pair then cancels, so the
        certificate fails and the job takes the heuristic path, as the
        slot intends; a conjugator absorbed by every image would make
        the slot a certified one."""
        images = O.power(self.oracle_images[base], k)
        while True:
            g = rand_word(self.rng, len(images), self.rng.randint(1, 4))
            conj = O.conjugated(images, g)
            if any(w and w[0] == -w[-1] for w in conj.values()):
                return g

    def _transform(self, base: str, k: int, g, inverse: bool = False):
        auto = self.fg.automorphisms
        phi = self.bases[base]
        if inverse:
            return phi.inverse()
        phi = auto.power(phi, k)
        if g:
            b = phi.basis
            phi = auto.compose(auto.inner_automorphism(b, self.fg.words.Word(b, g)), phi)
        return phi

    def _map_job(self, base: str, k: int, g, inverse: bool) -> None:
        phi = self._transform(base, k, g, inverse)
        spec = (base, k, g, inverse, self.params.iterations, self.params.cap)
        self.jobs.append(Job("map", spec, (phi,)))

    def _oracle_map(self, base: str, k: int, g, inverse: bool):
        if inverse:
            return O.parse_rules(BASES[base][4])
        images = O.power(self.oracle_images[base], k)
        return O.conjugated(images, g) if g else images

    # -- running ----------------------------------------------------------

    @staticmethod
    def _report(rep):
        outcome = EXACT if rep.certified else OPEN if rep.kind == "Inconclusive" else ANSWERED
        return (rep.kind, rep.certified, rep.rate, rep.degree, tuple(rep.lengths), rep.truncated), outcome

    def run_map(self, job):
        answer, outcome = self._report(self.fg.growth.classify_growth(job.args[0], None, self.params))
        return answer, outcome, None

    def run_word(self, job):
        phi, w = job.args
        answer, outcome = self._report(self.fg.growth.classify_growth(phi, w, self.params))
        return answer, outcome, None

    def run_lengths(self, job):
        phi, w = job.args
        return tuple(self.fg.growth.length_sequence(phi, w, job.spec[3])), EXACT, None

    def run_cyclic(self, job):
        return self.fg.words.cyclic_word(job.args[0]).letters, EXACT, None

    # -- checking ---------------------------------------------------------

    def _check_class(self, base: str, k: int, answer) -> list[str]:
        kind, certified, rate, degree, _, _ = answer
        _, true_kind, true_degree, true_rate, _ = BASES[base]
        if kind == "Inconclusive":
            return []
        errs = []
        if kind.removeprefix("Heuristic-") != true_kind:
            errs.append(f"kind {kind}, expected {true_kind}")
        if certified == kind.startswith("Heuristic-"):
            errs.append(f"kind {kind} disagrees with certified={certified}")
        if true_kind == "Polynomial" and degree != true_degree:
            errs.append(f"degree {degree}, expected {true_degree}")
        if true_kind == "Exponential":
            want = true_rate ** k
            tol = CERTIFIED_RATE_TOLERANCE if certified else HEURISTIC_RATE_TOLERANCE
            if rate is None or abs(rate / want - 1) > tol:
                errs.append(f"rate {rate}, expected {want:.9f}")
        return errs

    @staticmethod
    def _check_prefix(got, want) -> list[str]:
        n = min(len(got), len(want))
        if n == 0 or tuple(got[:n]) != tuple(want[:n]):
            return [f"iterate lengths {tuple(got[:n])} != naive {tuple(want[:n])}"]
        return []

    def check_map(self, job, answer, detail):
        base, k, g, inverse, _, _ = job.spec
        images = self._oracle_map(base, k, g, inverse)
        naive = [0] * 12
        depth = 12
        for j in images:
            seq = O.iterate_lengths(images, (j,), 20_000)
            depth = min(depth, len(seq))
            for i, v in enumerate(seq):
                naive[i] += v
        errs = self._check_prefix(answer[4], naive[:depth])
        return errs + self._check_class(base, 1 if inverse else k, answer)

    def check_word(self, job, answer, detail):
        base, k, g, x, _, _ = job.spec
        images = self._oracle_map(base, k, g, False)
        errs = self._check_prefix(answer[4], O.iterate_lengths(images, x, 30_000, count=6))
        return errs + self._check_class(base, k, answer)

    def check_lengths(self, job, answer, detail):
        base, g, x, n = job.spec
        images = self._oracle_map(base, 1, g, False)
        want = O.iterate_lengths(images, x, 10**9, count=n)
        return [] if tuple(answer) == tuple(want) else [f"lengths {answer} != naive {want}"]

    def check_cyclic(self, job, answer, detail):
        want = O.canonical_cyclic(job.spec[1])
        return [] if tuple(answer) == want else ["canonical rotation differs from Booth's"]


# ---------------------------------------------------------------------------
# fiber


class FiberWorkload(Workload):
    """Folding, membership with readback, and fiber saturation.

    Per round: 3 fold jobs (a random subgroup of F2 or F3 with 1-5
    generators of 5-400 letters, 200-400 letters in all; fold,
    witnessed fold, free basis, rank and index, 100 membership queries
    with readback, and an intersection) and 8 fiber-intersection jobs,
    two per torus (identity, swap, fib, a->a; b->b a), on two random
    elements with budgets max_rounds=10, max_vertices=1000.
    Stabilizing saturations take about a millisecond, fold jobs and
    budget-exhausting saturations tens of milliseconds; the
    exhausting saturations on fib hold the slowest tenth.
    """

    name = "fiber"
    rounds = 54
    trace_rounds = 6
    uses = (
        "words.free_reduce", "words.concat", "words.Word.init",
        "automorphisms.apply", "automorphisms.apply_power", "automorphisms.inverse",
        "folding.stallings_graph", "folding.witnessed_graph", "folding.accepts",
        "folding.free_basis", "folding.express", "folding.is_invariant",
        "folding.intersect", "mapping_torus.fiber_intersection",
        "mapping_torus.normalize", "mapping_torus.multiply",
    )
    max_rounds = 10
    max_vertices = 1000

    def build(self) -> None:
        fg, rng = self.fg, self.rng
        self.tori = {
            name: fg.mapping_torus.torus_group(fg.automorphisms.parse_automorphism(fwd))
            for name, (fwd, _) in TORI.items()
        }
        self.oracle_tori = {
            name: O.Torus(O.parse_rules(fwd), O.parse_rules(bwd))
            for name, (fwd, bwd) in TORI.items()
        }
        bases = {2: fg.words.basis("a b"), 3: fg.words.basis("a b c")}
        totals = iter(banded(rng, self.rounds * 3, 200, 400))
        for r in range(self.rounds):
            for s in range(3):
                rank = 2 + (r + s) % 2
                n = 1 + (3 * r + s) % 5
                # 200-400 letters in all, split at random among the generators
                weights = [0.5 + rng.random() for _ in range(n)]
                total = next(totals)
                gens = [
                    rand_word(rng, rank, max(5, round(total * w / sum(weights))))
                    for w in weights
                ]
                products = []
                for _ in range(10):
                    expr = tuple(
                        rng.choice((1, -1)) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 4))
                    )
                    products.append((expr, O.evaluate(gens, expr)))
                randoms = [rand_word(rng, rank, rng.randint(1, 30)) for _ in range(90)]
                shared = [products[0][1], products[1][1]]
                other = shared + [rand_word(rng, rank, rng.randint(5, 60))]
                b = bases[rank]
                W = fg.words.Word
                args = (
                    b,
                    [W(b, g) for g in gens],
                    [W(b, w) for _, w in products] + [W(b, w) for w in randoms],
                    [W(b, w) for w in other if w] or [W(b, (1,))],
                    [W(b, w) for w in shared if w],
                )
                spec = (rank, tuple(gens), tuple(products), tuple(randoms), tuple(other))
                self.jobs.append(Job("fold", spec, args))
            for s, name in enumerate(list(TORI) * 2):
                exps = T_EXPONENTS[(r + s) % len(T_EXPONENTS)]
                words = [torus_word(rng, 3, e) for e in exps]
                spec = (name, tuple(words), self.max_rounds, self.max_vertices)
                self.jobs.append(Job("fiber", spec, (self.tori[name], words)))
            self.end_round()

    def run_fold(self, job):
        fold = self.fg.folding
        b, gens, queries, other, shared = job.args
        h = fold.stallings_graph(b, gens)
        wg = fold.witnessed_graph(b, gens)
        basis = h.free_basis()
        exprs = tuple(wg.express(w) for w in basis)
        answers = []
        for q in queries:
            ok = h.accepts(q)
            answers.append((ok, wg.express(q) if ok else None))
        meet = fold.intersect(h, fold.stallings_graph(b, other))
        meet_basis = meet.free_basis()
        answer = (
            h.n_vertices, len(h.edges), h.rank(), h.index(),
            tuple(w.letters for w in basis), exprs, tuple(answers),
            meet.n_vertices, tuple(w.letters for w in meet_basis),
            tuple(wg.express(w) for w in meet_basis),
            tuple(meet.accepts(w) for w in shared),
        )
        return answer, EXACT, None

    def check_fold(self, job, answer, detail):
        rank, gens, products, randoms, other = job.spec
        (_, _, h_rank, index, basis, exprs, answers, _, meet_basis, meet_exprs,
         shared_ok) = answer
        errs = []
        if h_rank != len(basis):
            errs.append(f"rank {h_rank} but {len(basis)} basis elements")
        if index is not None and h_rank != index * (rank - 1) + 1:
            errs.append(f"rank {h_rank} at index {index} breaks Schreier's formula")
        for w, e in list(zip(basis, exprs)) + list(zip(meet_basis, meet_exprs)):
            if e is None or O.evaluate(gens, e) != w:
                errs.append(f"basis element {w} has no valid readback")
        queries = [w for _, w in products] + list(randoms)
        for i, (w, (ok, e)) in enumerate(zip(queries, answers)):
            if i < len(products) and not ok:
                errs.append(f"product of generators {w} rejected")
            if ok and (e is None or O.evaluate(gens, e) != w):
                errs.append(f"member {w} has no valid readback")
        if not all(shared_ok):
            errs.append("intersection misses a product shared by both subgroups")
        return errs[:5]

    def run_fiber(self, job):
        mt = self.fg.mapping_torus
        group, words = job.args
        name, _, max_rounds, max_vertices = job.spec
        gens = [group.normalize(w) for w in words]
        normal = tuple((g.w.letters, g.k) for g in gens)
        try:
            fi = mt.fiber_intersection(
                group, gens, max_rounds=max_rounds, max_vertices=max_vertices,
                with_witnesses=True,
            )
        except mt.UnstabilizedError as exc:
            return ("unstabilized", normal, exc.rounds, exc.vertices), OPEN, None
        basis = fi.graph.free_basis()
        answer = (
            "stable", normal, fi.n, fi.rounds, fi.graph.rank(), fi.graph.n_vertices,
            tuple(w.letters for w in basis), tuple(fi.witness(w) for w in basis),
        )
        return answer, EXACT, fi

    def check_fiber(self, job, answer, fi):
        name, words, max_rounds, max_vertices = job.spec
        torus = self.oracle_tori[name]
        gens = [torus.normalize(w) for w in words]
        errs = []
        if list(answer[1]) != gens:
            errs.append(f"normal forms {answer[1]} != {gens}")
        if answer[0] == "unstabilized":
            _, _, rounds, vertices = answer
            if rounds <= max_rounds and vertices <= max_vertices:
                errs.append("unstabilized within both budgets")
            return errs
        _, _, _, _, rank, _, basis, witnesses = answer
        if rank != len(basis):
            errs.append(f"rank {rank} but {len(basis)} basis elements")
        for w, e in zip(basis, witnesses):
            if e is None or torus.product(gens, e) != (w, 0):
                errs.append(f"witness for {w} does not multiply back")
        # short products of the generators that land in the fiber must be
        # members, with witnesses that multiply back
        steps = [(i, g) for i, g in enumerate(gens, 1)] + [
            (-i, torus.inv(g)) for i, g in enumerate(gens, 1)
        ]
        frontier = [((), ((), 0))]
        for _ in range(3):
            frontier = [
                (e + (i,), torus.mul(p, g)) for e, p in frontier for i, g in steps
            ]
            for _, (w, k) in frontier:
                if k != 0 or not w or len(w) > 12:
                    continue
                word = self.fg.words.Word(self.tori[name].basis, w)
                if not fi.contains(word):
                    errs.append(f"fiber misses the product {w}")
                    continue
                e = fi.witness(word)
                if e is None or torus.product(gens, e) != (w, 0):
                    errs.append(f"bad witness for the product {w}")
        return errs[:5]


# ---------------------------------------------------------------------------
# geometry


class GeometryWorkload(Workload):
    """Cayley balls and the divergence probe.

    Per round: balls of radius 6 on two of the tori of identity, swap,
    fib and a->a; b->b a and on a seeded Nielsen product of rank 2,
    balls of radius 7 on the other two named tori; a divergence pair
    (a->a; b->b a and identity, radii 4 and 6, 8 samples, same seed);
    and in every fourth round one radius-8 ball (26k-63k vertices)
    cycling over the four named tori, so each run builds all four and
    peak memory is the largest of them.
    """

    name = "geometry"
    rounds = 16
    trace_rounds = 4
    uses = (
        "words.free_reduce", "automorphisms.apply_power", "geometry.cayley_ball",
        "geometry.distances_from", "geometry.divergence_estimate",
    )
    radii = (4, 6)
    samples = 8
    probe_vertices = 150

    def build(self) -> None:
        fg, rng = self.fg, self.rng
        torus_of = fg.mapping_torus.torus_group
        parse = fg.automorphisms.parse_automorphism
        self.tori = {name: torus_of(parse(fwd)) for name, (fwd, _) in TORI.items()}
        self.oracle_tori = {
            name: O.Torus(O.parse_rules(fwd), O.parse_rules(bwd))
            for name, (fwd, bwd) in TORI.items()
        }
        names = list(TORI)
        r8 = 0
        for r in range(self.rounds):
            # radius 6 on two named tori and a Nielsen product, radius 7
            # on the other two named tori
            for s, radius in enumerate((6, 6, 6, 7, 7)):
                if s == 2:
                    name = f"nielsen{r}"
                    fwd, bwd = self._nielsen(rng)
                    self.tori[name] = torus_of(parse(rules_text(fwd)))
                    self.oracle_tori[name] = O.Torus(fwd, bwd)
                else:
                    name = names[(s - (s > 2) + r) % 4]
                self.jobs.append(Job("ball", (name, radius, rng.randrange(2**31)),
                                     (self.tori[name],)))
            seed = rng.randrange(2**31)
            for name in ("poly", "identity"):
                spec = (name, self.radii, self.samples, seed)
                self.jobs.append(Job("divergence", spec, (self.tori[name],)))
            if r % 4 == 0:
                name = names[r8 % 4]
                r8 += 1
                self.jobs.append(Job("ball", (name, 8, rng.randrange(2**31)),
                                     (self.tori[name],)))
            self.end_round()
        self.detours = {"poly": [], "identity": []}

    @staticmethod
    def _nielsen(rng):
        """A product of 2-3 elementary Nielsen moves with images of at
        most 3 letters, and its inverse, so balls stay desk-sized."""
        while True:
            fwd, bwd = {1: (1,), 2: (2,)}, {1: (1,), 2: (2,)}
            for _ in range(rng.randint(2, 3)):
                f, b = rng.choice(NIELSEN)
                fwd, bwd = O.compose(f, fwd), O.compose(bwd, b)
            if max(len(w) for w in fwd.values()) <= 3:
                return fwd, bwd

    def run_ball(self, job):
        ball = self.fg.geometry.cayley_ball(job.args[0], job.spec[1])
        return (len(ball), tuple(ball.ball_sizes())), EXACT, ball

    def check_ball(self, job, answer, ball):
        name, radius, probe_seed = job.spec
        torus = self.oracle_tori[name]
        size, sizes = answer
        errs = []
        if size != sizes[-1] or len(sizes) != radius + 1:
            errs.append("ball size disagrees with its sphere counts")
        if name == "identity" and list(sizes) != O.free_times_z_ball_sizes(2, radius):
            errs.append(f"F2xZ ball sizes {sizes} break the product formula")
        group = self.tori[name]
        Word = self.fg.words.Word
        TE = self.fg.mapping_torus.TorusElement

        def dist(state):
            g = TE(group, Word(group.basis, state[0]), state[1])
            return ball.distance(g) if ball.contains(g) else None

        rng = random.Random(probe_seed)
        for i in [0] + [rng.randrange(size) for _ in range(self.probe_vertices)]:
            e = ball.element(i)
            state = (e.w.letters, e.k)
            d = ball.distance_by_index(i)
            if i == 0 and (state != ((), 0) or d != 0):
                errs.append("vertex 0 is not the identity at distance 0")
            nbrs = [dist(s) for s in O.neighbor_states(torus, state)]
            if d < radius and None in nbrs:
                errs.append(f"neighbour of {state} missing from the ball")
            known = [n for n in nbrs if n is not None]
            if any(abs(n - d) > 1 for n in known):
                errs.append(f"distances jump by more than 1 next to {state}")
            if d > 0 and d - 1 not in known:
                errs.append(f"{state} at distance {d} has no neighbour at {d - 1}")
            if errs:
                break
        return errs

    def run_divergence(self, job):
        name, radii, samples, seed = job.spec
        rep = self.fg.geometry.divergence_estimate(
            job.args[0], radii, samples_per_radius=samples, seed=seed
        )
        answer = (
            rep.mean_detour, rep.exponent, rep.residual, rep.low_confidence,
            tuple(
                (s.radius, (s.p.w.letters, s.p.k), (s.q.w.letters, s.q.k),
                 s.distance, s.detour)
                for s in rep.samples
            ),
        )
        return answer, EXACT, None

    def check_divergence(self, job, answer, detail):
        name = job.spec[0]
        torus = self.oracle_tori[name]
        means, _, _, _, samples = answer
        errs = []
        by_radius: dict[int, list[int]] = {}
        for r, p, q, d, detour in samples:
            if not r <= d <= 2 * r:
                errs.append(f"pair distance {d} outside [{r}, {2 * r}]")
            if detour is not None:
                if detour < d:
                    errs.append(f"detour {detour} shorter than the distance {d}")
                by_radius.setdefault(r, []).append(detour)
            if name == "identity":
                if O.direct_product_length(p) != r or O.direct_product_length(q) != r:
                    errs.append("sampled pair is not on the sphere")
                if d != O.direct_product_length(torus.mul(torus.inv(p), q)):
                    errs.append(f"distance {d} breaks the F2xZ product metric")
        for r, mean in means:
            got = by_radius.get(r)
            if (mean is None) != (not got) or (got and abs(mean - sum(got) / len(got)) > 1e-9):
                errs.append(f"mean detour at r={r} disagrees with its samples")
        self.detours[name].extend(d for ds in by_radius.values() for d in ds)
        return errs[:5]

    def finish(self) -> list[str]:
        # Desk-scale detours of the two tori differ by a few percent of
        # their spread, so the ordering is tested one-sided with a
        # three-standard-error allowance on the pooled samples.
        poly, ident = self.detours["poly"], self.detours["identity"]
        if len(poly) < 2 or len(ident) < 2:
            return []
        mp, sp = O.mean_and_se(poly)
        mi, si = O.mean_and_se(ident)
        if mp < mi - 3 * (sp * sp + si * si) ** 0.5:
            return [f"mean detour for a->a; b->b a ({mp:.3f}) below identity ({mi:.3f})"]
        return []


# ---------------------------------------------------------------------------
# cli


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

PLAIN_SPLIT = """\
basis: a b
[vertices]
v1: a
v2: b
[edges]
e1: v1 v2
[witness]
"""

CYCLIC_SPLIT = """\
basis: a b c
[vertices]
v1: a | b
v2: b | c
[edges]
e1: v1 v2 ; y = b
[witness]
"""

SPLIT_FILES = {"free": FREE_SPLIT, "plain": PLAIN_SPLIT, "cyclic": CYCLIC_SPLIT}

# (splitting file, map rules, whether the file's witness verifies)
SPLITS = (
    ("free", "a -> b; b -> a", True),
    ("free", "a -> a b; b -> a", False),
    ("plain", "a -> a; b -> b", True),
    ("plain", "a -> a; b -> b a", False),
    ("cyclic", "a -> a; b -> b; c -> c", True),
    ("cyclic", "a -> a; b -> b'; c -> c", True),
)

GROWTH_EMITS = ("json", "csv", "svg", "text")
FOLD_EMITS = ("text", "json", "dot", "csv")
DIVERGENCE_EMITS = ("json", "csv", "svg", "text")


class CliWorkload(Workload):
    """Every subcommand with every --emit format, in process.

    Per round: growth x4 emits, fold x4, torus x5 (presentation, json
    and text without --gens; json and graph with --gens), split x2,
    hierarchy x2, divergence x4, and one library call of
    ``induce_hierarchy``, which no subcommand reaches.  Inputs are
    small, so fixed per-call costs dominate.  What decides an exit
    code (conjugator length, splitting file, hierarchy completeness,
    t-exponents) follows the round number; the seed draws the rest.
    The job list runs at least twice; bytes and exit codes must match
    between passes.
    """

    name = "cli"
    rounds = 88
    trace_rounds = 24
    min_passes = 2
    uses = (
        "words.Word.init", "automorphisms.certify_automorphism",
        "splittings.parse_splitting", "splittings.validate_splitting",
        "splittings.verify_fixed", "splittings.induce_torus_splitting",
        "splittings.parse_hierarchy", "splittings.induce_hierarchy", "cli.main",
    )

    def build(self) -> None:
        rng = self.rng
        os.makedirs(self.scratch, exist_ok=True)
        split_file = {}
        for name, text in SPLIT_FILES.items():
            split_file[name] = os.path.join(self.scratch, f"{name}.gog")
            with open(split_file[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        for r in range(self.rounds):
            base = BASE_ORDER[r % 5]
            rank = len(O.parse_rules(BASES[base][0]))
            if rank > 3:
                base, rank = "poly2", 3
            k = 1 + r % 2
            g = rand_word(rng, rank, r % 3)
            images = O.power(O.parse_rules(BASES[base][0]), k)
            rules = rules_text(O.conjugated(images, g) if g else images)
            word = O.word_text(rand_word(rng, rank, rng.randint(1, 6)), NAMES)
            for i, emit in enumerate(GROWTH_EMITS):
                argv = ["growth", "--map", rules, "--iters", "12", "--cap", "20000",
                        "--emit", emit]
                if i % 2:
                    argv += ["--word", word]
                self._cli(argv, emit, dict(base=base, k=k, word=bool(i % 2)))
            frank = 2 + r % 2
            gens = ", ".join(
                O.word_text(rand_word(rng, frank, rng.randint(1, 8)), NAMES)
                for _ in range(rng.randint(1, 3))
            )
            for emit in FOLD_EMITS:
                self._cli(["fold", "--gens", gens, "--basis", " ".join(NAMES[:frank]),
                           "--emit", emit], emit, dict(rank=frank))
            torus = list(TORI.values())[r % 4][0]
            tgens = "; ".join(
                O.word_text(torus_word(rng, rng.randint(0, 4), e), "abt")
                for e in T_EXPONENTS[r % len(T_EXPONENTS)]
            )
            for emit in ("presentation", "json", "text"):
                self._cli(["torus", "--map", torus, "--emit", emit], emit, {})
            for emit in ("json", "graph"):
                self._cli(["torus", "--map", torus, "--gens", tgens, "--max-rounds", "8",
                           "--max-vertices", "500", "--emit", emit], emit,
                          dict(budget=True))
            gog, split_rules, verified = SPLITS[r % len(SPLITS)]
            for emit in ("json", "text"):
                argv = ["split", "--map", split_rules, "--gog", split_file[gog], "--emit", emit]
                if verified and (r // len(SPLITS)) % 2 == 0:
                    argv.append("--induce")
                self._cli(argv, emit, dict(verified=verified))
            complete = ("true", "false", "unknown")[r % 3]
            htext, depth = self._hierarchy(rng, complete)
            hpath = os.path.join(self.scratch, f"h{r}.txt")
            with open(hpath, "w", encoding="utf-8") as fh:
                fh.write(htext)
            for emit in ("json", "text"):
                self._cli(["hierarchy", "--file", hpath, "--emit", emit], emit,
                          dict(depth=depth, complete=complete))
            dmap = list(TORI.values())[(r + 1) % 4][0]
            lo = rng.randint(2, 3)
            dseed = str(rng.randrange(1000))
            for emit in DIVERGENCE_EMITS:
                self._cli(["divergence", "--map", dmap, "--radii", f"{lo},{lo + 1}",
                           "--samples", "4", "--seed", dseed, "--emit", emit], emit, {})
            phi = self.fg.automorphisms.parse_automorphism(torus)
            self.jobs.append(Job("induce", (htext, depth), (htext, phi)))
            self.end_round()

    def _cli(self, argv, emit, expect) -> None:
        self.jobs.append(Job("cli", (tuple(argv), emit), (), expect))

    @staticmethod
    def _hierarchy(rng, complete: str):
        """A random valid hierarchy file with the given completeness
        ("true", "false" or "unknown"), and its depth."""
        kind = rng.choice(("free", "cyclic"))
        lines = ["basis: a b", f"kind: {kind}", "g"]
        leaves = []

        def grow(depth: int) -> int:
            deepest = depth
            for _ in range(rng.randint(1, 3)):
                name = f"n{len(lines)}"
                lines.append("  " * depth + name)
                if depth < 3 and rng.random() < 0.4:
                    lines[-1] += " group=a|b_a_b"
                    deepest = max(deepest, grow(depth + 1))
                else:
                    leaves.append(len(lines) - 1)
            return deepest

        depth = grow(1)
        statuses = {"true": ["absolute"], "false": ["absolute", "no-splitting"],
                    "unknown": ["absolute", "no-splitting", "unexpanded"]}[complete]
        picks = [rng.choice(statuses) for _ in leaves]
        if complete != "true":
            picks[rng.randrange(len(picks))] = statuses[-1]
        for at, status in zip(leaves, picks):
            if status == "absolute":
                group = "1" if kind == "free" else rng.choice(("a", "b_a", "a_b_b"))
            else:
                group = rng.choice(("a|b", "a_b|b_a_a"))
            lines[at] += f" group={group} status={status}"
        return "\n".join(lines) + "\n", depth

    def run_cli(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.fg.cli.main(list(job.spec[0]))
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        # every growth format prints the kind, and only heuristic kinds
        # carry this prefix
        if code == 2:
            outcome = OPEN
        elif job.spec[0][0] == "growth" and "Heuristic-" in text:
            outcome = ANSWERED
        else:
            outcome = EXACT
        return (code, text), outcome, err.getvalue()

    def check_cli(self, job, answer, stderr):
        argv, emit = job.spec
        code, text = answer
        expect = job.meta
        errs = []
        if code not in (0, 1, 2):
            return [f"exit code {code}"]
        if code != 0 and not text and len(stderr.strip().splitlines()) != 1:
            errs.append(f"exit {code} without a one-line message: {stderr[:120]!r}")
        command = argv[0]
        wanted = {0}
        if command == "growth" or expect.get("budget"):
            wanted = {0, 2}
        elif command == "split":
            wanted = {0} if expect["verified"] else {1}
        elif command == "hierarchy":
            wanted = {2} if expect["complete"] == "unknown" else {0}
        if code not in wanted:
            errs.append(f"exit code {code}, expected one of {sorted(wanted)}")
        if text:
            shape = O.check_emit(emit, text)
            if shape:
                errs.append(shape)
        if errs or emit != "json" or not text:
            return errs
        result = json.loads(text)["result"]
        if command == "fold":
            idx, rank = result["index"], result["rank"]
            if len(result["free_basis"]) != rank:
                errs.append("fold basis size differs from its rank")
            if idx is not None and rank != idx * (expect["rank"] - 1) + 1:
                errs.append("fold rank breaks Schreier's formula")
        elif command == "hierarchy":
            if result["depth"] != expect["depth"] or result["complete"] != expect["complete"]:
                errs.append(f"hierarchy {result} != depth {expect['depth']}, "
                            f"complete {expect['complete']}")
        elif command == "growth" and not expect["word"] and result["kind"] != "Inconclusive":
            _, true_kind, degree, rate, _ = BASES[expect["base"]]
            if result["kind"].removeprefix("Heuristic-") != true_kind:
                errs.append(f"growth kind {result['kind']}, expected {true_kind}")
            elif true_kind == "Polynomial" and result["degree"] != degree:
                errs.append(f"growth degree {result['degree']}, expected {degree}")
            elif true_kind == "Exponential":
                tol = CERTIFIED_RATE_TOLERANCE if result["certified"] else HEURISTIC_RATE_TOLERANCE
                if abs(result["rate"] / rate ** expect["k"] - 1) > tol:
                    errs.append(f"growth rate {result['rate']}, expected {rate ** expect['k']}")
        return errs

    def run_induce(self, job):
        sp = self.fg.splittings
        text, phi = job.args
        h = sp.parse_hierarchy(text)
        induced = sp.induce_hierarchy(h, phi)
        labels = []

        def walk(node, depth):
            labels.append((depth, node.name, str(node.group), node.status))
            for c in node.children:
                walk(c, depth + 1)

        walk(induced.root, 0)
        return (induced.kind, tuple(labels)), EXACT, None

    def check_induce(self, job, answer, detail):
        text, depth = job.spec
        kind, labels = answer
        errs = []
        if max(d for d, *_ in labels) != depth:
            errs.append(f"induced depth {max(d for d, *_ in labels)} != {depth}")
        nodes = [ln.split()[0] for ln in text.splitlines()[2:]]
        if [name for _, name, _, _ in labels] != nodes:
            errs.append("induced hierarchy does not mirror the nodes")
        want_kind = "Z" if "kind: free" in text else "slender"
        if kind != want_kind:
            errs.append(f"induced kind {kind}, expected {want_kind}")
        return errs


WORKLOADS = {
    w.name: w for w in (GrowthWorkload, FiberWorkload, GeometryWorkload, CliWorkload)
}
