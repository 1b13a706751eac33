"""Growth classification for maps of free groups.

The exact route counts letters: M[i][j] is the number of occurrences
of generator i (either sign) in the image of generator j, so column
sums of Mⁿ predict iterate lengths provided no free reduction ever
happens.  That proviso is discharged by a cancellation certificate:
close the set of adjacent letter pairs occurring in images (including
each image's cyclic wraparound) under the evolution
(x, y) ↦ (last letter of Φ(x), first letter of Φ(y)) and under formal
inversion; if no pair in the closure cancels, concatenated images stay
reduced for every iterate, and matrix arithmetic is exact.

The matrix is read through its strata: the strong components of the
digraph with edge j→i when aᵢ occurs in Φ(aⱼ), listed sinks first and
ordered by reach.  A certified rate is the largest radius over the
strata the subject reaches, each the Perron root of its block, exact
in integers and then by Newton's method from above to float precision;
a certified degree is one less than the most radius-1 strata on a chain.

Certification is up to inner automorphism.  Φ and i_h∘Φ have conjugate
iterates, so every translation length, and hence the growth of every
conjugacy class, is the same for both.  When Φ's own certificate fails,
Φ is conjugated once to ψ = i_h∘Φ of least total image length
Σ|ψ(aⱼ)|; a certificate for ψ then settles Φ exactly, and the report
carries h as its receipt.

Without a certificate the classifier falls back to observation.  It
iterates ψ on the cyclic core and reads the length sequence, calling a
polynomial degree only on exactly vanishing finite differences and an
exponential rate only on a stable tail of n-th root estimates.  Long
iterates are counted, not spelled, off an earlier one through ψᵐ, read
off the tables ψ keeps; what cancels where two images meet depends
only on the two (bounded cancellation, Cooper), and such junctions,
the base's illegal turns (Bestvina–Handel), take few forms, each
scanned once.  Where they sit depends only on the base and on the end
letters of the images, so one search of the base serves every power
that keeps them.  Budgets make the heuristic honest: a truncated or
ambiguous sequence is reported Inconclusive rather than forced into a
class.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import add
from typing import Iterable, Iterator, Sequence

from .automorphisms import Endomorphism, _inner_normalize
from .words import BasisMismatchError, CyclicWord, Word, _cyclic_trim, cyclic_word, free_reduce

Matrix = list[list[int]]
Table = dict[int, tuple[int, ...]]
Run = tuple[int, int, int, int]

KIND_EXPONENTIAL = "Exponential"
KIND_POLYNOMIAL = "Polynomial"
KIND_HEURISTIC_EXPONENTIAL = "Heuristic-Exponential"
KIND_HEURISTIC_POLYNOMIAL = "Heuristic-Polynomial"
KIND_INCONCLUSIVE = "Inconclusive"


def _core(endo: Endomorphism, x: Word | CyclicWord) -> CyclicWord:
    """Cyclic core of a subject word, which must share the map's basis."""
    if x.basis != endo.basis:
        raise BasisMismatchError("word over a different basis")
    return x if isinstance(x, CyclicWord) else cyclic_word(x)


# ---------------------------------------------------------------------------
# cancellation certificate


@dataclass(frozen=True)
class Certificate:
    """Result of the no-cancellation check for a map.

    When ``holds``, every adjacent pair that can ever occur in an
    iterated image is in ``pairs`` and none of them cancels, so
    iterate lengths and cyclic reducedness follow exactly from the
    transition matrix.  Otherwise ``offender`` is a cancelling pair
    (None for a degenerate map with an empty image) and ``witness``
    holds the two offending image words.
    """

    endo: Endomorphism
    holds: bool
    pairs: frozenset[tuple[int, int]]
    offender: tuple[int, int] | None
    witness: tuple[Word, Word] | None

    @property
    def status(self) -> str:
        return "Certified" if self.holds else "Failed"

    def covers(self, x: Word | CyclicWord) -> bool:
        """Whether the certificate extends to iterates of ``x``.

        The pair closure is rerun with x's cyclic adjacencies added;
        translation lengths of x's iterates are then exact too.
        """
        if not self.holds:
            return False
        core = _core(self.endo, x)
        ok, _, _ = _close_pairs(self.endo, set(self.pairs) | set(core.adjacent_pairs()))
        return ok


def _close_pairs(
    endo: Endomorphism, seeds: Iterable[tuple[int, int]]
) -> tuple[bool, frozenset[tuple[int, int]], tuple[int, int] | None]:
    if not all(endo.images):
        return False, frozenset(seeds), None
    imgs = endo._subst
    pairs: set[tuple[int, int]] = set()
    queue: deque[tuple[int, int]] = deque()

    def add(p: int, q: int) -> bool:
        for s, t in ((p, q), (-q, -p)):
            if t == -s:
                return False
            if (s, t) not in pairs:
                pairs.add((s, t))
                queue.append((s, t))
        return True

    for p, q in seeds:
        if not add(p, q):
            return False, frozenset(pairs), (p, q)
    while queue:
        p, q = queue.popleft()
        ev = (imgs[p][-1], imgs[q][0])
        if not add(*ev):
            return False, frozenset(pairs), ev
    return True, frozenset(pairs), None


def no_cancellation_certificate(phi: Endomorphism) -> Certificate:
    """Close image-adjacent pairs under evolution; certify if none cancels."""
    seeds: set[tuple[int, int]] = set()
    for img in phi.images:
        ls = img.letters
        seeds.update(zip(ls, ls[1:]))
        if ls:
            seeds.add((ls[-1], ls[0]))
    ok, pairs, offender = _close_pairs(phi, seeds)
    witness = None
    if offender is not None:
        witness = (phi.image(offender[0]), phi.image(offender[1]))
    return Certificate(phi, ok, pairs, offender, witness)


# ---------------------------------------------------------------------------
# transition matrix and its component structure


def transition_matrix(phi: Endomorphism) -> Matrix:
    r = phi.basis.rank
    m = [[0] * r for _ in range(r)]
    for j, img in enumerate(phi.images):
        for letter in img.letters:
            m[abs(letter) - 1][j] += 1
    return m


def _perron_root(a: Matrix) -> float:
    """Largest real root ρ of det(xI − A) for a nonnegative integer block.

    Faddeev–LeVerrier gives the integer coefficients exactly.  Newton's
    method in floats starts from the largest column sum, an upper bound
    on ρ.  No root of the polynomial or of its derivatives has real part
    above ρ, so past ρ the polynomial is increasing and convex and the
    iterates fall monotonically; the first step that does not fall ends
    the descent.
    """
    k = len(a)
    rows = [[(t, v) for t, v in enumerate(row) if v] for row in a]
    coeffs = [1]
    mk = [[0] * k for _ in range(k)]
    for i in range(1, k + 1):
        # M_i = A·M_{i−1} + c_{i−1}·I and c_i = −tr(A·M_i) / i, exactly
        mk = [[sum(v * mk[t][c] for t, v in row) + coeffs[-1] * (r == c) for c in range(k)]
              for r, row in enumerate(rows)]
        coeffs.append(-sum(v * mk[t][r] for r, row in enumerate(rows) for t, v in row) // i)
    x = float(max(sum(col) for col in zip(*a)))
    while True:
        p = dp = 0.0
        for c in coeffs:
            dp = dp * x + p
            p = p * x + c
        if not (p > 0.0 and dp > 0.0 and x - p / dp < x):
            return x
        x -= p / dp


def _strata(m: Matrix, support: Sequence[int] | None = None) -> list[tuple[int, float]]:
    """Strong components of the digraph with edge j→i iff M[i][j] > 0
    that ``support`` (all letters when None) reaches, sinks first, each
    as (reach mask, radius).

    Reach sets are Warshall-closed bit masks.  Letters share a stratum
    exactly when they share a reach set, which strictly contains the
    reach set of any stratum below, so ordering by size lists sinks
    first, and stratum C reaches D exactly when D's mask ⊆ C's.  A
    letter's reach set is its stratum's mask, so the support reaches
    the strata inside the union of its letters' masks.  A stratum's
    largest inner column sum is 0 for a lone letter without a loop, 1
    for a simple cycle, and equals the radius in both cases; otherwise
    it and the radius exceed 1, and only then is a Perron root taken.
    """
    n = len(m)
    reach = [sum(1 << i for i in range(n) if i == j or m[i][j]) for j in range(n)]
    for k in range(n):
        for j in range(n):
            if reach[j] >> k & 1:
                reach[j] |= reach[k]
    got = 0
    for j in range(n) if support is None else support:
        got |= reach[j]
    comps: dict[int, list[int]] = {}
    for j, mask in enumerate(reach):
        if mask | got == got:
            comps.setdefault(mask, []).append(j)
    strata = []
    for mask in sorted(comps, key=int.bit_count):
        comp = comps[mask]
        top = max(sum(m[i][j] for i in comp) for j in comp)
        root = _perron_root([[m[i][j] for j in comp] for i in comp]) if top > 1 else float(top)
        strata.append((mask, root))
    return strata


def _chain_degree(strata: list[tuple[int, float]]) -> int | None:
    """One less than the most radius-1 strata on a chain of the reach
    order, floored at 0; None if a stratum has radius > 1."""
    if any(r > 1.0 for _, r in strata):
        return None
    chains: list[int] = []
    for mask, r in strata:
        below = (c for (d, _), c in zip(strata, chains) if d | mask == mask)
        chains.append((r == 1.0) + max(below, default=0))
    return max(0, max(chains, default=0) - 1)


def scc_polynomial_degree(m: Matrix, support: Sequence[int] | None = None) -> int | None:
    """Polynomial degree from the strata that ``support`` (all letters
    when None) reaches: one less than the most radius-1 strata on a
    chain of the reach order, floored at 0; None if one has radius > 1."""
    return _chain_degree(_strata(m, support))


def spectral_radius(
    m: Matrix,
    support: Sequence[int] | None = None,
    *,
    strata: list[tuple[int, float]] | None = None,
) -> float:
    """Largest radius, a Perron root exact to float precision, over the
    strata that ``support`` (all letters when None) reaches.  ``strata``
    is ``_strata(m, support)`` when the caller has already walked it.

    >>> spectral_radius([[1, 1], [1, 0]])
    1.618033988749895
    """
    if strata is None:
        strata = _strata(m, support)
    return max((r for _, r in strata), default=0.0)


# ---------------------------------------------------------------------------
# length sequences


def _cancel(u: tuple[int, ...], hi: int, v: tuple[int, ...], lo: int) -> int:
    """Letters that u[:hi] and v[lo:] cancel where they meet."""
    k, top = 0, min(hi, len(v) - lo)
    while k < top and u[hi - 1 - k] == -v[lo + k]:
        k += 1
    return k


def _junctions(ys: Sequence[int], turns: frozenset[tuple[int, int]]) -> list[int]:
    """Positions j of ys whose turn (ys[j−1], ys[j]) is in ``turns``."""
    return list(compress(range(1, len(ys)), map(turns.__contains__, zip(ys, islice(ys, 1, None)))))


def _read_runs(table: Table, ys: Sequence[int], junctions: Iterable[int]) -> tuple[list[Run], int]:
    """The reduced product ∏ table[y] over ys as runs (i, e, lo, hi),
    table[ys[i]][lo:], the images of ys[i+1:e], table[ys[e]][:hi] (one
    slice when i = e), and the letter pairs it cancels.  Only the
    ``junctions``, the positions whose two images cancel where they meet
    (ascending, from ``_junctions``), and the position after an image
    that cancels whole, are visited.  A cancellation depends only on the
    top image and the end it has left, the new image and the start it
    has left, so each is scanned once.
    """
    n = len(ys)
    size = {x: len(t) for x, t in table.items()}
    runs = []
    i, lo = (0 if n else -1), 0  # the top run is (i, e, lo, hi); i < 0 when the stack is empty
    cut, memo, last = 0, {}, 0
    for j in junctions:
        if j <= last:
            continue
        e = j - 1
        x, y = ys[e], ys[j]
        hi, m, start = size[x], size[y], 0
        while True:  # y's image from start meets the top, x's image up to hi
            if i < 0:
                i, lo = j, start
                break
            c = memo.get((x, hi, y, start))
            if c is None:
                c = memo[x, hi, y, start] = _cancel(table[x], hi, table[y], start)
            room = hi - lo if i == e else hi
            if c < room:
                hi, start, cut = hi - c, start + c, cut + c
                if start < m:
                    runs.append((i, e, lo, hi))
                    i, lo = j, start
                    break
            else:  # the top slice cancels whole
                start, cut = start + room, cut + room
                if i < e:
                    e -= 1
                    x, hi = ys[e], size[ys[e]]
                elif runs:
                    i, e, lo, hi = runs.pop()
                    x = ys[e]
                else:
                    i = -1
                if start < m:
                    continue
            j = last = j + 1  # y cancelled whole: its successor meets the top
            if j == n:
                break
            y, m, start = ys[j], size[ys[j]], 0
    if last < n:
        e, hi = n - 1, size[ys[-1]]
    if i >= 0:
        runs.append((i, e, lo, hi))
    return runs, cut


def _parts(table: Table, ys: Sequence[int], runs: list[Run], step: int = 1) -> Iterator[tuple]:
    """The runs' image slices in order, or reversed with step −1."""
    for i, e, lo, hi in runs[::step]:
        for p in range(i, e + 1)[::step]:
            yield table[ys[p]][lo if p == i else 0 : hi if p == e else None][::step]


def _iterated_lengths(
    endo: Endomorphism, core: tuple[int, ...], n: int, cap: int | None
) -> tuple[list[int], bool]:
    """Translation lengths of iterates 0..n of the cyclically reduced
    letters ``core``, stopping past the cap.

    Iterate n is read as ψ^(n−j)(w_j), conjugate to ψⁿ(core), off the
    base w_j through the kept table T = ``endo._table(n − j)``, as runs:
    its length is Σ count(y)·|T[y]| less the cancelled and trimmed
    letters.  A visited junction costs a few plain letters, so runs are
    read once the iterate is four times the base; until then a step is
    plain, ``free_reduce`` of w₍ₙ₋₁₎.  Runs go on while T_h fits beside
    the base, len(base) + Σ|T_h[y]| ≤ |w₍ₙ₋₁₎|, for h = n − 1 − j, and on
    a base's first run step for every h from 1 up, in order, so each T_h
    is ψ∘T_(h−1); at the first that does not fit the base moves onto
    w₍ₙ₋₁₎ and the step is plain.  The tables stay on ``endo``, so
    callers pass a map built for the call.
    The junctions of the base, the positions whose two images cancel,
    are found once per set of live letters (nonempty images) and of
    turns (x, y) whose images cancel, T[x] ending in T[y][0]⁻¹, and kept
    until the base moves: under the polynomial maps one set holds for
    the whole base, and where end letters cycle each set in the cycle
    is scanned once.
    """
    seq = [len(core)]
    base = cur = core  # cur is None while the last iterate is held as runs
    counts, j = None, 0  # the letters of the base w_j, once runs are read off it
    for i in range(n):
        if cur is None or 4 * len(base) <= seq[-1]:
            heights = range(1 if counts is None else i - j, i - j + 1)
            if counts is None:
                counts, scans = Counter(base), {}
            if any(len(base) + sum(len(endo._table(h)[x]) for x in counts) > seq[-1]
                   for h in heights):  # T_h would outgrow the iterate: the base moves onto it
                if cur is None:
                    cur = tuple(chain.from_iterable(_parts(table, ys, runs)))[t : total - t]
                base, j, counts = cur, i, None
        if counts is None:
            red = free_reduce(cur, endo._subst)
            cur = red[slice(*_cyclic_trim(red))]
            seq.append(len(cur))
        else:
            table = endo._table(i + 1 - j)
            # the turns whose images cancel depend only on the images' end letters
            live = tuple(x for x in counts if table[x])
            turns = frozenset((x, y) for x in live for y in live if table[x][-1] == -table[y][0])
            scan = scans.get((live, turns))
            if scan is None:
                ys = base if len(live) == len(counts) else [y for y in base if table[y]]
                scan = scans[live, turns] = ys, _junctions(ys, turns)
            ys, junctions = scan
            runs, cut = _read_runs(table, ys, junctions)
            total = sum(k * len(table[x]) for x, k in counts.items()) - 2 * cut
            ends = map(add, chain.from_iterable(_parts(table, ys, runs)),
                       chain.from_iterable(_parts(table, ys, runs, -1)))
            t = next(compress(count(), islice(ends, total // 2)), total // 2)
            cur = None
            seq.append(total - 2 * t)
        if cap is not None and seq[-1] > cap:
            return seq, True
    return seq, False


def length_sequence(
    phi: Endomorphism,
    x: Word | CyclicWord,
    n: int,
    cap: int | None = 10**6,
) -> list[int]:
    """[‖Φ(x)‖, ‖Φ²(x)‖, …] up to n entries, stopping past the cap.

    Translation lengths, so each iterate is cyclically reduced before
    measuring; a length needs no canonical rotation of x.  They are read
    from Φ's inner normalization, whose iterates are conjugate to Φ's
    and cancel less.  Long iterates are counted from runs of a power
    table, not built.  A shorter list than requested means the cap hit.
    """
    if n < 1:
        raise ValueError("need at least one iterate")
    if x.basis != phi.basis:
        raise BasisMismatchError("word over a different basis")
    lo, hi = _cyclic_trim(x.letters)
    seq, _ = _iterated_lengths(_inner_normalize(phi)[0], x.letters[lo:hi], n, cap)
    return seq[1:]


def _matrix_lengths(m: Matrix, support: Sequence[int], n: int) -> list[int]:
    r = len(m)
    u = [0] * r
    for j in support:
        u[j] += 1
    seq = [sum(u)]
    for _ in range(n):
        u = [sum(m[i][j] * u[j] for j in range(r)) for i in range(r)]
        seq.append(sum(u))
    return seq


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class GrowthParams:
    """Heuristic budgets; configuration, not ground truth."""

    iterations: int = 40
    cap: int = 10**6

    def __post_init__(self) -> None:
        for name in ("iterations", "cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


# heuristic gates: polynomial degrees tried, zero differences required,
# root estimates read, and their floor above 1 and allowed spread
MAX_DEGREE = 6
ZERO_TAIL = 5
WINDOW = 10
MARGIN = 0.05
DRIFT = 0.015


@dataclass(frozen=True)
class GrowthReport:
    subject: str
    kind: str
    rate: float | None
    degree: int | None
    lengths: tuple[int, ...]
    truncated: bool
    chain_length: int | None
    certificate: Certificate | None
    # h when the certificate is for i_h∘Φ rather than Φ itself
    conjugator: Word | None = None

    def __post_init__(self) -> None:
        if self.kind in (KIND_EXPONENTIAL, KIND_HEURISTIC_EXPONENTIAL):
            if self.rate is None or self.rate <= 1.0:
                raise ValueError("exponential kind requires rate > 1")
        if self.kind in (KIND_POLYNOMIAL, KIND_HEURISTIC_POLYNOMIAL):
            if self.degree is None or self.degree < 0:
                raise ValueError("polynomial kind requires degree >= 0")

    @property
    def certified(self) -> bool:
        return self.kind in (KIND_EXPONENTIAL, KIND_POLYNOMIAL)


def _finite_difference_degree(seq: Sequence[int]) -> int | None:
    """Least k ≤ MAX_DEGREE with identically vanishing k-th differences
    on the tail; degree is k−1."""
    d = list(seq)
    for k in range(1, MAX_DEGREE + 2):
        d = [b - a for a, b in zip(d, d[1:])]
        if len(d) < ZERO_TAIL:
            return None
        if all(t == 0 for t in d[-ZERO_TAIL:]):
            return max(0, k - 1) if k <= MAX_DEGREE else None
    return None


def _exponential_tail(seq: Sequence[int]) -> float | None:
    """Rate when the last WINDOW root estimates sit above the margin
    and have stopped drifting; None otherwise."""
    if len(seq) <= WINDOW:
        return None
    window = []
    for i in range(len(seq) - WINDOW, len(seq)):
        if i < 1 or seq[i] <= 0:
            return None
        window.append(seq[i] ** (1.0 / i))
    if min(window) < 1.0 + MARGIN or max(window) - min(window) > DRIFT:
        return None
    return window[-1]


def _heuristic_verdict(
    seq: Sequence[int], truncated: bool
) -> tuple[str, float | None, int | None]:
    if not truncated:
        deg = _finite_difference_degree(seq)
        if deg is not None:
            return KIND_HEURISTIC_POLYNOMIAL, None, deg
    rate = _exponential_tail(seq)
    if rate is not None:
        return KIND_HEURISTIC_EXPONENTIAL, rate, None
    return KIND_INCONCLUSIVE, None, None


def classify_growth(
    phi: Endomorphism,
    x: Word | CyclicWord | None = None,
    params: GrowthParams | None = None,
) -> GrowthReport:
    """Growth of the conjugacy class of x, or of the whole map.

    Exact (certified) classification from the transition matrix when
    the cancellation certificate of Φ, or else of its inner
    normalization ψ = i_h∘Φ, covers the subject; otherwise the
    iteration heuristic on ψ, a map built for the call, so the power
    tables it keeps go with it.  Inconclusive is a valid outcome.  A
    report that stays heuristic carries Φ's failed certificate.
    """
    params = params or GrowthParams()
    cert = no_cancellation_certificate(phi)
    psi, g = _inner_normalize(phi)
    h, psi_cert = None, cert
    if not cert.holds and g:
        h, psi_cert = g, no_cancellation_certificate(psi)

    if x is not None:
        core = _core(phi, x)
        subject = str(core)
        if core.length == 0:
            zeros = (0,) * params.iterations
            return GrowthReport(subject, KIND_POLYNOMIAL, None, 0, zeros, False, None, cert)
        if psi_cert.covers(core):
            return _certified_report(subject, core, psi_cert, h, params)
        return _heuristic_report(subject, psi, core, cert, params)

    if psi_cert.holds:
        return _certified_report("map", None, psi_cert, h, params)
    reports = [
        _heuristic_report("map", psi, cyclic_word(Word(psi.basis, (j,))), cert, params)
        for j in range(1, psi.basis.rank + 1)
    ]
    return _aggregate("map", reports, cert)


def _heuristic_report(
    subject: str, endo: Endomorphism, core: CyclicWord, cert: Certificate, params: GrowthParams
) -> GrowthReport:
    seq, truncated = _iterated_lengths(endo, core.letters, params.iterations, params.cap)
    kind, rate, degree = _heuristic_verdict(seq, truncated)
    return GrowthReport(subject, kind, rate, degree, tuple(seq[1:]), truncated, None, cert)


def _certified_report(
    subject: str,
    core: CyclicWord | None,
    cert: Certificate,
    conjugator: Word | None,
    params: GrowthParams,
) -> GrowthReport:
    m = transition_matrix(cert.endo)
    support = range(len(m)) if core is None else [abs(t) - 1 for t in core.letters]
    lengths = tuple(_matrix_lengths(m, support, params.iterations)[1:])
    # one strata walk computes each Perron root once and serves both
    # readers.  Certified images are nonempty, so every letter reaches a
    # cycle: a rate of 1.0 means no reached stratum has radius > 1
    strata = _strata(m, support)
    rate = spectral_radius(m, support, strata=strata)
    if rate > 1.0:
        return GrowthReport(
            subject, KIND_EXPONENTIAL, rate, None, lengths, False, None, cert, conjugator
        )
    degree = _chain_degree(strata)
    return GrowthReport(
        subject, KIND_POLYNOMIAL, None, degree, lengths, False, degree + 1, cert, conjugator
    )


def _aggregate(subject: str, reports: list[GrowthReport], cert: Certificate) -> GrowthReport:
    n = min(len(r.lengths) for r in reports)
    lengths = tuple(sum(r.lengths[i] for r in reports) for i in range(n))
    truncated = any(r.truncated for r in reports)
    rates = [r.rate for r in reports if r.kind == KIND_HEURISTIC_EXPONENTIAL]
    if rates:
        kind, rate, degree = KIND_HEURISTIC_EXPONENTIAL, max(rates), None
    elif any(r.kind == KIND_INCONCLUSIVE for r in reports):
        kind, rate, degree = KIND_INCONCLUSIVE, None, None
    else:
        degree = max(r.degree for r in reports if r.degree is not None)
        kind, rate = KIND_HEURISTIC_POLYNOMIAL, None
    return GrowthReport(subject, kind, rate, degree, lengths, truncated, None, cert)


__all__ = [
    "Certificate",
    "GrowthParams",
    "GrowthReport",
    "KIND_EXPONENTIAL",
    "KIND_HEURISTIC_EXPONENTIAL",
    "KIND_HEURISTIC_POLYNOMIAL",
    "KIND_INCONCLUSIVE",
    "KIND_POLYNOMIAL",
    "Matrix",
    "classify_growth",
    "length_sequence",
    "no_cancellation_certificate",
    "scc_polynomial_degree",
    "spectral_radius",
    "transition_matrix",
]
