"""Exact Cayley balls of F ⋊ Z and an empirical divergence probe.

The ball is built by breadth-first search over the generating set
(fiber basis and the section letter t, with inverses), using the
normal form (w, k) with w·tᵏ·a = w·Φᵏ(a)·tᵏ to stay exact.  A ball is
flat tables: its vertices in BFS order, so a vertex's level is read
off its index, as a list of fiber words w and a list of t-exponents k,
indexed by column k and then w.  Each column has one move table: the
images under Φᵏ of the fiber letters, read through the map's kept
table T_k, and the columns k and k ± 1.  Expanding a vertex costs one
table lookup, and each neighbour one hash (a setdefault that files a
new vertex) and one append to a flat slot list, 2·rank + 2 slots per
vertex.  Only the levels below r are expanded; the first search or
neighbour query lists the outer sphere S(r), −1 marking a neighbour
outside B(r), and cuts the slots into rows.  The length-parity
character on basis ∪ {t} kills every relator t·x·t⁻¹·Φ(x)⁻¹ iff each
|Φ(x)| is odd; then |g| ≡ parity(g) mod 2, no edge stays inside a
sphere, and S(r)'s rows are read off S(r − 1)'s without a probe.
Balls are all or nothing: exceeding the vertex budget raises instead
of returning a partial metric.  A pair search writes its target side
into a scratch list kept by the ball and clears what it wrote before
it returns, so a search allocates only the list it returns.

The divergence probe samples far-apart pairs on a sphere and measures
detour lengths around a forbidden inner ball, then fits a log-log
slope.  At desk-scale radii only orderings between maps are
trustworthy, not absolute exponents, and reports carry that caveat.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .automorphisms import apply_power
from .mapping_torus import TorusElement, TorusGroup
from .words import BasisMismatchError, BudgetExceededError, Word, join

FIT_MIN_RADIUS = 4
CAVEAT = "desk-scale radii: trust orderings between maps, not absolute exponents"


@dataclass(eq=False, repr=False)
class BallGraph:
    """Metric ball B(r) in Cay(G, basis ∪ {t}) with exact distances.
    Vertex i is (_words[i], _exps[i]) in BFS order; level d is
    range(_bounds[d], _bounds[d + 1]), and _index[k][w] is the index of
    (w, k): one column per t-exponent k.  _slots holds W = 2·rank + 2
    neighbour slots per expanded vertex; the first search lists S(r),
    cuts _slots into the rows _adj and empties it."""

    group: TorusGroup
    radius: int
    _words: list[tuple[int, ...]]
    _exps: list[int]
    _bounds: list[int]
    _slots: list[int]
    _index: dict[int, dict[tuple[int, ...], int]]
    _expand: Callable[[int], None]
    _adj: list[tuple[int, ...]] | None = None
    _far: list[int | None] | None = None  # all None between searches

    def __len__(self) -> int:
        return len(self._words)

    def _vertex(self, i: int) -> int:
        if not 0 <= i < len(self._words):
            raise IndexError(f"vertex {i} lies outside a ball of {len(self)} vertices")
        return i

    def _rows(self) -> list[tuple[int, ...]]:
        """Each vertex's slot row, −1 where a neighbour lies outside B(r)."""
        if self._adj is None:
            self._expand(self.radius + 1)  # S(r) at once: BFS order keeps lookups local
            self._adj = list(zip(*[iter(self._slots)] * (2 * self.group.basis.rank + 2)))
            self._slots.clear()
        return self._adj

    def element(self, i: int) -> TorusElement:
        i = self._vertex(i)
        return TorusElement(self.group, Word(self.group.basis, self._words[i]), self._exps[i])

    def _column(self, g: TorusElement) -> dict[tuple[int, ...], int]:
        if g.group is not self.group and g.group != self.group:
            raise BasisMismatchError("element of a different torus group")
        return self._index.get(g.k, {})

    def index_of(self, g: TorusElement) -> int:
        try:
            return self._column(g)[g.w.letters]
        except KeyError:
            raise ValueError(f"{g} lies outside the ball") from None

    def contains(self, g: TorusElement) -> bool:
        return g.w.letters in self._column(g)

    def distance(self, g: TorusElement) -> int:
        return self.distance_by_index(self.index_of(g))

    def distance_by_index(self, i: int) -> int:
        return bisect_right(self._bounds, self._vertex(i)) - 1

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(j for j in self._rows()[self._vertex(i)] if j >= 0))

    def sphere_indices(self, k: int) -> list[int]:
        return list(range(*self._bounds[k : k + 2])) if 0 <= k <= self.radius else []

    def sphere_sizes(self) -> list[int]:
        return [b - a for a, b in zip(self._bounds, self._bounds[1:])]

    def ball_sizes(self) -> list[int]:
        return self._bounds[1:]

    def distances_from(
        self, start: int, min_level: int | None = None, target: int | None = None
    ) -> list[int | None]:
        """BFS distances inside the ball, restricted to vertices whose
        distance from the identity is at least ``min_level`` when given.

        With ``target``, only ``[target]`` is sought, by meeting in the
        middle: the smaller frontier grows one whole layer at a time, so
        balls of radii a and b first touch at distance a + b + 1.  The
        other entries hold what the start side reached.
        """
        # the vertices at level ≥ min_level are those from index `first` on;
        # a slot of −1 fails the test j >= first before mine[j] is read
        adj, first = self._rows(), self._bounds[min(max(min_level or 0, 0), self.radius + 1)]
        out: list[int | None] = [None] * len(adj)
        if target is not None:
            self._vertex(target)
        if self._vertex(start) < first:
            return out
        out[start] = 0
        # the target side is a scratch list kept by the ball: a search without
        # a target only reads it, and one with a target clears what it wrote
        far = self._far = self._far or [None] * len(adj)
        layers: list[list[int]] = []
        if target is not None:
            if target == start or target < first:
                return out
            far[target] = 0
            layers.append([target])
        sides = [(out, [start]), (far, [target])]
        try:
            while sides[0][1] and sides[1][1]:
                s = 0 if target is None or len(sides[0][1]) <= len(sides[1][1]) else 1
                (mine, front), other = sides[s], sides[1 - s][0]
                d = mine[front[0]] + 1  # type: ignore[operator]
                nxt: list[int] = []
                if s:
                    layers.append(nxt)
                for i in front:
                    for j in adj[i]:
                        if j >= first and mine[j] is None:
                            mine[j] = d
                            nxt.append(j)  # the meeting vertex too, so that it is cleared
                            if other[j] is not None:
                                out[target] = d + other[j]  # type: ignore[index]
                                return out
                sides[s] = (mine, nxt)
            return out
        finally:
            for layer in layers:
                for i in layer:
                    far[i] = None


def cayley_ball(group: TorusGroup, r: int, max_vertices: int = 500_000) -> BallGraph:
    """Exact BFS ball of radius r; raises words.BudgetExceededError
    rather than returning a partial result.  Only the levels below r are
    expanded; the neighbour slots of S(r) are listed together on first use.
    When every |Φ(x)| is odd, every relator has even length, so g ↦ |g|
    mod 2 is a character and no edge joins two vertices of S(r): its rows
    are the partners of S(r − 1)'s slots, found with no join or probe."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices < 1:
        raise ValueError("max_vertices must be positive")
    fiber = [Word(group.basis, (s * i,)) for i in range(1, group.basis.rank + 1) for s in (1, -1)]
    # moves[k] lists the probes (y, k', column k') of a vertex (w, k) in
    # probe order: (w, k)·x = (w·Φᵏ(x), k) for the fiber letters above,
    # where only the junction can cancel, then (w, k)·t^±1 = (w, k ± 1)
    # with y = (): one lookup per expanded vertex.  BFS reaches column k
    # after k ∓ 1, so each letter's image in T_k is one composition.
    moves: dict[int, list] = {}

    # expand(stop) fills, level by level in BFS order, the neighbour
    # slots of the vertices below level stop, adding vertices only inside
    # B(r): expand(r) finds B(r), and expand(r + 1) later lists S(r).  The
    # generating set is symmetric, hence so is the adjacency.  Below
    # level r a probe is one setdefault, which files a missing neighbour
    # as the next vertex n; on S(r) it is a get, and a miss fills n = −1.
    # Each expanded vertex adds at most 2·rank + 2, so checking the
    # budget once per vertex still raises exactly when |B(r)| exceeds it.
    columns: dict[int, dict[tuple[int, ...], int]] = {0: {(): 0}}
    words: list[tuple[int, ...]] = [()]
    exps = [0]
    bounds = [0, 1]
    slots: list[int] = []
    fill = slots.append
    width = len(fiber) + 2
    bipartite = all(len(img) % 2 for img in group.phi.images)

    def expand(stop: int) -> None:
        for d in range(len(bounds) - 2, stop):
            if d == r and bipartite:
                # u·s = v with u on S(r − 1) puts u in v's slot for s⁻¹, the
                # partner c ^ 1 of u's slot c (x ↔ x⁻¹, t ↔ t⁻¹)
                first, base = bounds[r], width * bounds[max(r - 1, 0)]
                inner = slots[base:]
                slots.extend([-1] * (width * (len(words) - first)))
                for p, j in enumerate(inner, base):
                    if j >= first:
                        slots[width * j + (p % width ^ 1)] = p // width
                continue
            probe, n = (dict.get, -1) if d == r else (dict.setdefault, len(words))
            lo, hi = bounds[d], bounds[d + 1]
            for w, k in zip(words[lo:hi], exps[lo:hi]):
                move = moves.get(k)
                if move is None:
                    twists = [apply_power(group.phi, k, x).letters for x in fiber]
                    move = moves[k] = [(y, k, columns[k]) for y in twists]
                    move += [((), kk, columns.setdefault(kk, {})) for kk in (k + 1, k - 1)]
                for y, kk, column in move:
                    v = join(w, y) if y else w
                    j = probe(column, v, n)
                    if j == n and d < r:
                        words.append(v)
                        exps.append(kk)
                        n += 1
                    fill(j)
                if n > max_vertices:
                    msg = f"ball of radius {r} exceeds the budget of {max_vertices} vertices"
                    raise BudgetExceededError(msg)
            if d < r:
                bounds.append(n)

    expand(r)
    return BallGraph(group, r, words, exps, bounds, slots, columns, expand)


def free_times_z_ball_size(rank: int, r: int) -> int:
    """|B(r)| in F_rank × Z: sum over fiber spheres times the t-range."""
    total = 0
    for i in range(r + 1):
        sphere = 1 if i == 0 else 2 * rank * (2 * rank - 1) ** (i - 1)
        total += sphere * (2 * (r - i) + 1)
    return total


# ---------------------------------------------------------------------------
# divergence


@dataclass(frozen=True)
class DivergenceSample:
    radius: int
    p: TorusElement
    q: TorusElement
    distance: int
    detour: int | None

    @property
    def reachable(self) -> bool:
        return self.detour is not None


@dataclass(frozen=True)
class DivergenceReport:
    radii: tuple[int, ...]
    samples_per_radius: int
    seed: int
    samples: tuple[DivergenceSample, ...]
    mean_detour: tuple[tuple[int, float | None], ...]
    exponent: float | None
    residual: float | None
    low_confidence: bool
    note: str = CAVEAT

    def mean_at(self, r: int) -> float | None:
        for radius, mean in self.mean_detour:
            if radius == r:
                return mean
        raise KeyError(f"radius {r} was not sampled")


def _loglog_fit(points: Sequence[tuple[int, float]]) -> tuple[float, float]:
    """Least-squares slope of log m against log r (r distinct) and its RMS
    residual, exact in Fraction on the float logs and each rounded once."""
    xs = [Fraction(math.log(r)) for r, _ in points]
    ys = [Fraction(math.log(m)) for _, m in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    mse = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys)) / len(xs)
    return float(slope), math.sqrt(mse)


def divergence_estimate(
    group: TorusGroup,
    radii: Sequence[int],
    samples_per_radius: int = 32,
    seed: int = 0,
    max_vertices: int = 500_000,
) -> DivergenceReport:
    """Sample sphere pairs at distance ≥ r, measure detours around the
    open ball of radius ⌊r/2⌋, and fit log(mean detour) against log(r).

    Unreachable pairs stay in the report with a flag.  The fit excludes
    radii below FIT_MIN_RADIUS; too few usable pairs or a sparse fit
    marks the report low-confidence.
    """
    rs = sorted(set(int(r) for r in radii))
    if not rs or rs[0] < 1:
        raise ValueError("radii must be positive")
    if samples_per_radius < 1:
        raise ValueError("samples_per_radius must be positive")
    ball = cayley_ball(group, rs[-1], max_vertices)
    rng = random.Random(seed)
    samples: list[DivergenceSample] = []
    means: list[tuple[int, float | None]] = []
    starved = False
    for r in rs:
        sphere = ball.sphere_indices(r)
        kept: list[DivergenceSample] = []
        for _ in range(20 * samples_per_radius):
            if len(kept) == samples_per_radius or len(sphere) < 2:
                break
            p = sphere[rng.randrange(len(sphere))]
            q = sphere[rng.randrange(len(sphere))]
            if p == q:
                continue
            d = ball.distances_from(p, target=q)[q]
            if d is None or d < r:
                continue
            detour = ball.distances_from(p, min_level=r // 2, target=q)[q]
            kept.append(
                DivergenceSample(r, ball.element(p), ball.element(q), d, detour)
            )
        samples.extend(kept)
        reachable = [s.detour for s in kept if s.detour is not None]
        means.append((r, sum(reachable) / len(reachable) if reachable else None))
        if len(reachable) < max(1, samples_per_radius // 2):
            starved = True
    fit_pts = [(r, m) for r, m in means if r >= FIT_MIN_RADIUS and m is not None and m > 0]
    exponent, residual = _loglog_fit(fit_pts) if len(fit_pts) >= 2 else (None, None)
    low_confidence = starved or exponent is None
    return DivergenceReport(
        radii=tuple(rs),
        samples_per_radius=samples_per_radius,
        seed=seed,
        samples=tuple(samples),
        mean_detour=tuple(means),
        exponent=exponent,
        residual=residual,
        low_confidence=low_confidence,
    )


__all__ = [
    "BallGraph",
    "DivergenceReport",
    "DivergenceSample",
    "cayley_ball",
    "divergence_estimate",
    "free_times_z_ball_size",
]
