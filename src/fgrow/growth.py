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

Without a certificate the classifier falls back to observation:
iterate on the cyclic core, then read the length sequence, calling a
polynomial degree only on exactly vanishing finite differences and an
exponential rate only on a stable tail of n-th root estimates.
Budgets make the heuristic honest: a truncated or ambiguous sequence
is reported Inconclusive rather than forced into a class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .automorphisms import Automorphism, Endomorphism
from .folding import StallingsGraph
from .words import CyclicWord, Word, _cyclic_trim, cyclic_word, free_reduce

Matrix = list[list[int]]

KIND_EXPONENTIAL = "Exponential"
KIND_POLYNOMIAL = "Polynomial"
KIND_HEURISTIC_EXPONENTIAL = "Heuristic-Exponential"
KIND_HEURISTIC_POLYNOMIAL = "Heuristic-Polynomial"
KIND_INCONCLUSIVE = "Inconclusive"


def _endo(phi: Endomorphism | Automorphism) -> Endomorphism:
    return phi.endo if isinstance(phi, Automorphism) else phi


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
        core = x if isinstance(x, CyclicWord) else cyclic_word(x)
        ok, _, _ = _close_pairs(self.endo, set(self.pairs) | set(core.adjacent_pairs()))
        return ok


def _close_pairs(
    endo: Endomorphism, seeds: Iterable[tuple[int, int]]
) -> tuple[bool, frozenset[tuple[int, int]], tuple[int, int] | None]:
    imgs: dict[int, tuple[int, ...]] = {}
    for j in range(1, endo.basis.rank + 1):
        ls = endo.images[j - 1].letters
        if not ls:
            return False, frozenset(seeds), None
        imgs[j] = ls
        imgs[-j] = tuple(-t for t in reversed(ls))
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


def no_cancellation_certificate(phi: Endomorphism | Automorphism) -> Certificate:
    """Close image-adjacent pairs under evolution; certify if none cancels."""
    endo = _endo(phi)
    seeds: set[tuple[int, int]] = set()
    for img in endo.images:
        ls = img.letters
        seeds.update(zip(ls, ls[1:]))
        if ls:
            seeds.add((ls[-1], ls[0]))
    ok, pairs, offender = _close_pairs(endo, seeds)
    witness = None
    if offender is not None:
        witness = (endo.image(offender[0]), endo.image(offender[1]))
    return Certificate(endo, ok, pairs, offender, witness)


# ---------------------------------------------------------------------------
# transition matrix and its component structure


def transition_matrix(phi: Endomorphism | Automorphism) -> Matrix:
    endo = _endo(phi)
    r = endo.basis.rank
    m = [[0] * r for _ in range(r)]
    for j, img in enumerate(endo.images):
        for letter in img.letters:
            m[abs(letter) - 1][j] += 1
    return m


def _tarjan(adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, sinks first."""
    n = len(adj)
    idx: list[int | None] = [None] * n
    low = [0] * n
    on = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if idx[root] is not None:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                idx[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on[v] = True
            descended = False
            for k in range(pi, len(adj[v])):
                w = adj[v][k]
                if idx[w] is None:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on[w]:
                    low[v] = min(low[v], idx[w])
            if descended:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def _component_data(m: Matrix):
    """Letter-dependency digraph (edge j→i iff M[i][j] > 0), its SCCs
    (sinks first), and each component's radius class 0, 1, or 2
    (meaning radius 0, exactly 1, or greater than 1)."""
    n = len(m)
    adj = [[i for i in range(n) if m[i][j] > 0] for j in range(n)]
    comps = _tarjan(adj)
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    cls = []
    for comp in comps:
        if len(comp) == 1 and m[comp[0]][comp[0]] == 0:
            cls.append(0)
        elif all(sum(m[i][j] for i in comp) == 1 for j in comp):
            # one unit out-edge per node inside the component: a simple
            # cycle, radius exactly 1
            cls.append(1)
        else:
            cls.append(2)
    return adj, comps, comp_of, cls


def _chain_stats(m: Matrix):
    """Per component: longest downstream chain count of radius-1
    components (inclusive), and whether a radius->1 component is
    reachable."""
    adj, comps, comp_of, cls = _component_data(m)
    best = [0] * len(comps)
    exp = [False] * len(comps)
    for ci, comp in enumerate(comps):
        b = 0
        e = cls[ci] == 2
        for j in comp:
            for i in adj[j]:
                cj = comp_of[i]
                if cj != ci:
                    b = max(b, best[cj])
                    e = e or exp[cj]
        best[ci] = b + (1 if cls[ci] == 1 else 0)
        exp[ci] = e
    return comps, comp_of, cls, best, exp


def _support_components(comp_of, support: Sequence[int] | None, n_comps: int) -> list[int]:
    if support is None:
        return list(range(n_comps))
    return sorted({comp_of[j] for j in support})


def scc_polynomial_degree(m: Matrix, x: Word | CyclicWord | None = None) -> int | None:
    """Polynomial degree read off the component chain, None if the
    reachable part contains a component of radius > 1.

    The degree is (number of radius-1 components on the heaviest
    condensation path from x's letters, or from anywhere when x is
    absent) − 1, floored at 0.
    """
    comps, comp_of, cls, best, exp = _chain_stats(m)
    support = None if x is None else [abs(t) - 1 for t in x.letters]
    starts = _support_components(comp_of, support, len(comps))
    if any(exp[s] for s in starts):
        return None
    if not starts:
        return 0
    return max(0, max(best[s] for s in starts) - 1)


def _block_radius(m: Matrix, comp: list[int]) -> float:
    if len(comp) == 1:
        return float(m[comp[0]][comp[0]])
    if all(sum(m[i][j] for i in comp) == 1 for j in comp):
        return 1.0
    a = np.array([[m[u][v] for v in comp] for u in comp], dtype=float)
    a += np.eye(len(comp))  # primitive once irreducible, so iteration converges
    v = np.ones(len(comp))
    prev = 0.0
    for it in range(200_000):
        w = a @ v
        est = float(np.linalg.norm(w))
        v = w / est
        if it >= 10 and abs(est - prev) <= 1e-10 * est:
            return est - 1.0
        prev = est
    raise ArithmeticError("radius iteration did not converge")


def spectral_radius(m: Matrix, support: Sequence[int] | None = None) -> float:
    """Largest component radius reachable from ``support`` (all when None)."""
    adj, comps, comp_of, cls = _component_data(m)
    rad = [0.0] * len(comps)
    for ci, comp in enumerate(comps):
        own = _block_radius(m, comp) if cls[ci] == 2 else float(cls[ci])
        below = own
        for j in comp:
            for i in adj[j]:
                cj = comp_of[i]
                if cj != ci:
                    below = max(below, rad[cj])
        rad[ci] = below
    starts = _support_components(comp_of, support, len(comps))
    return max((rad[s] for s in starts), default=0.0)


# ---------------------------------------------------------------------------
# length sequences


def _iterated_lengths(
    endo: Endomorphism, core: CyclicWord, n: int, cap: int | None
) -> tuple[list[int], bool]:
    """Translation lengths for iterates 0..n, stopping past the cap.

    Works on raw letter tuples: each iterate is freely reduced and
    cyclically trimmed, but not rotated, since only its length is read.
    """
    imgs: dict[int, tuple[int, ...]] = {}
    for j in range(1, endo.basis.rank + 1):
        ls = endo.images[j - 1].letters
        imgs[j] = ls
        imgs[-j] = tuple(-t for t in reversed(ls))
    seq = [core.length]
    cur = core.letters
    for _ in range(n):
        out: list[int] = []
        for x in cur:
            out.extend(imgs[x])
        red = free_reduce(out)
        lo, hi = _cyclic_trim(red)
        cur = red[lo:hi]
        seq.append(len(cur))
        if cap is not None and len(cur) > cap:
            return seq, True
    return seq, False


def length_sequence(
    phi: Endomorphism | Automorphism,
    x: Word | CyclicWord,
    n: int,
    cap: int | None = 10**6,
) -> list[int]:
    """[‖Φ(x)‖, ‖Φ²(x)‖, …] up to n entries, stopping past the cap.

    Translation lengths, so each iterate is cyclically reduced before
    measuring.  A shorter list than requested means the cap hit.
    """
    if n < 1:
        raise ValueError("need at least one iterate")
    core = x if isinstance(x, CyclicWord) else cyclic_word(x)
    seq, _ = _iterated_lengths(_endo(phi), core, n, cap)
    return seq[1:]


def _matrix_lengths(m: Matrix, counts: list[int], n: int) -> list[int]:
    u = list(counts)
    seq = [sum(u)]
    r = len(m)
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
    margin: float = 0.05
    max_degree: int = 6
    window: int = 10
    drift: float = 0.015
    zero_tail: int = 5


@dataclass(frozen=True)
class GrowthReport:
    subject: str
    kind: str
    certified: bool
    rate: float | None
    degree: int | None
    lengths: tuple[int, ...]
    truncated: bool
    chain_length: int | None
    certificate: Certificate | None

    def __post_init__(self) -> None:
        if self.kind in (KIND_EXPONENTIAL, KIND_HEURISTIC_EXPONENTIAL):
            if self.rate is None or self.rate <= 1.0:
                raise ValueError("exponential kind requires rate > 1")
        if self.kind in (KIND_POLYNOMIAL, KIND_HEURISTIC_POLYNOMIAL):
            if self.degree is None or self.degree < 0:
                raise ValueError("polynomial kind requires degree >= 0")
        if self.certified and self.kind not in (KIND_EXPONENTIAL, KIND_POLYNOMIAL):
            raise ValueError("certified reports must be exponential or polynomial")


def _finite_difference_degree(seq: Sequence[int], params: GrowthParams) -> int | None:
    """Least k ≤ max_degree with identically vanishing k-th differences
    on the tail; degree is k−1."""
    d = list(seq)
    for k in range(1, params.max_degree + 2):
        d = [b - a for a, b in zip(d, d[1:])]
        if len(d) < params.zero_tail:
            return None
        if all(t == 0 for t in d[-params.zero_tail:]):
            return max(0, k - 1) if k <= params.max_degree else None
    return None


def _exponential_tail(seq: Sequence[int], params: GrowthParams) -> float | None:
    """Rate when the last ``window`` root estimates sit above the margin
    and have stopped drifting; None otherwise."""
    if len(seq) <= params.window:
        return None
    window = []
    for i in range(len(seq) - params.window, len(seq)):
        if i < 1 or seq[i] <= 0:
            return None
        window.append(seq[i] ** (1.0 / i))
    if min(window) < 1.0 + params.margin:
        return None
    if max(window) - min(window) > params.drift:
        return None
    return window[-1]


def _heuristic_verdict(
    seq: Sequence[int], truncated: bool, params: GrowthParams
) -> tuple[str, float | None, int | None]:
    if not truncated:
        deg = _finite_difference_degree(seq, params)
        if deg is not None:
            return KIND_HEURISTIC_POLYNOMIAL, None, deg
    rate = _exponential_tail(seq, params)
    if rate is not None:
        return KIND_HEURISTIC_EXPONENTIAL, rate, None
    return KIND_INCONCLUSIVE, None, None


def classify_growth(
    phi: Endomorphism | Automorphism,
    x: Word | CyclicWord | None = None,
    params: GrowthParams | None = None,
) -> GrowthReport:
    """Growth of the conjugacy class of x, or of the whole map.

    Exact (certified) classification from the transition matrix when
    the cancellation certificate covers the subject; otherwise the
    iteration heuristic.  Inconclusive is a valid outcome.
    """
    params = params or GrowthParams()
    endo = _endo(phi)
    cert = no_cancellation_certificate(endo)
    m = transition_matrix(endo)

    if x is not None:
        core = x if isinstance(x, CyclicWord) else cyclic_word(x)
        subject = str(core)
        if core.length == 0:
            return GrowthReport(
                subject, KIND_POLYNOMIAL, True, None, 0,
                (0,) * params.iterations, False, None, cert,
            )
        if cert.holds and cert.covers(core):
            return _certified_report(subject, m, core, cert, params)
        seq, truncated = _iterated_lengths(endo, core, params.iterations, params.cap)
        kind, rate, degree = _heuristic_verdict(seq, truncated, params)
        return GrowthReport(
            subject, kind, False, rate, degree, tuple(seq[1:]), truncated, None, cert
        )

    if cert.holds:
        return _certified_report("map", m, None, cert, params)
    reports = [
        classify_growth(endo, Word(endo.basis, (j,)), params)
        for j in range(1, endo.basis.rank + 1)
    ]
    return _aggregate("map", reports, cert)


def _certified_report(
    subject: str,
    m: Matrix,
    core: CyclicWord | None,
    cert: Certificate,
    params: GrowthParams,
) -> GrowthReport:
    if core is None:
        support = None
        counts = [1] * len(m)
    else:
        support = [abs(t) - 1 for t in core.letters]
        counts = [0] * len(m)
        for t in core.letters:
            counts[abs(t) - 1] += 1
    lengths = tuple(_matrix_lengths(m, counts, params.iterations)[1:])
    degree = scc_polynomial_degree(m, core)
    if degree is None:
        rate = spectral_radius(m, support)
        return GrowthReport(
            subject, KIND_EXPONENTIAL, True, rate, None, lengths, False, None, cert
        )
    comps, comp_of, cls, best, _ = _chain_stats(m)
    starts = _support_components(comp_of, support, len(comps))
    chain = max((best[s] for s in starts), default=0)
    return GrowthReport(
        subject, KIND_POLYNOMIAL, True, None, degree, lengths, False, chain, cert
    )


def _aggregate(subject: str, reports: list[GrowthReport], cert: Certificate) -> GrowthReport:
    n = min(len(r.lengths) for r in reports)
    lengths = tuple(sum(r.lengths[i] for r in reports) for i in range(n))
    truncated = any(r.truncated for r in reports)
    rates = [r.rate for r in reports if r.kind == KIND_HEURISTIC_EXPONENTIAL]
    if rates:
        return GrowthReport(
            subject, KIND_HEURISTIC_EXPONENTIAL, False, max(rates), None,
            lengths, truncated, None, cert,
        )
    if any(r.kind == KIND_INCONCLUSIVE for r in reports):
        return GrowthReport(
            subject, KIND_INCONCLUSIVE, False, None, None, lengths, truncated, None, cert
        )
    degree = max(r.degree for r in reports if r.degree is not None)
    return GrowthReport(
        subject, KIND_HEURISTIC_POLYNOMIAL, False, None, degree,
        lengths, truncated, None, cert,
    )


# ---------------------------------------------------------------------------
# subgroup probe


@dataclass(frozen=True)
class ProbeReport:
    """Sampled growth survey of a subgroup's elements under a map.

    A probe, not a construction: ``all-polynomial`` only says every
    sampled class grew polynomially.
    """

    verdict: str  # all-polynomial | found-exponential | inconclusive
    witness: Word | None
    reports: tuple[GrowthReport, ...]
    heuristic: bool = True


def polynomial_probe(
    phi: Endomorphism | Automorphism,
    h: StallingsGraph,
    params: GrowthParams | None = None,
    max_products: int = 100,
) -> ProbeReport:
    """Classify each basis element of H plus short products of them."""
    params = params or GrowthParams()
    base = h.free_basis()
    subjects: list[Word] = list(base)
    products: list[Word] = []
    for i in range(len(base)):
        for j in range(len(base)):
            if i == j:
                continue
            products.append(base[i] * base[j])
            products.append(base[i] * base[j].inverse())
    subjects.extend(products[:max_products])
    reports = []
    for w in subjects:
        rep = classify_growth(phi, w, params)
        reports.append(rep)
        if rep.kind in (KIND_EXPONENTIAL, KIND_HEURISTIC_EXPONENTIAL):
            return ProbeReport("found-exponential", w, tuple(reports))
    if any(r.kind == KIND_INCONCLUSIVE for r in reports):
        return ProbeReport("inconclusive", None, tuple(reports))
    return ProbeReport("all-polynomial", None, tuple(reports))


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
    "ProbeReport",
    "classify_growth",
    "length_sequence",
    "no_cancellation_certificate",
    "polynomial_probe",
    "scc_polynomial_degree",
    "spectral_radius",
    "transition_matrix",
]
