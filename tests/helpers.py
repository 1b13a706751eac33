"""Independent oracles used across the test suite.

Everything here is deliberately naive: direct substitution, bounded
enumeration, brute-force reduction.  None of it calls the package's
own folding or growth paths, so agreement is evidence rather than
tautology.  The one exception is ``reference_fiber_saturation``, a
reference for the saturation loop only: it folds with the package's
``witnessed_graph``, whose petal fold is independent of the live fold
that saturation uses, and refolds everything each round.
"""

from __future__ import annotations

import random
from itertools import product


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def substitute(images: dict[int, tuple[int, ...]], letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        img = images[x] if x > 0 else tuple(-t for t in reversed(images[-x]))
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def image_table(phi) -> dict[int, tuple[int, ...]]:
    endo = getattr(phi, "endo", phi)
    return {j + 1: endo.images[j].letters for j in range(endo.basis.rank)}


def cyclic_trim(letters) -> tuple[int, ...]:
    ls = tuple(letters)
    lo, hi = 0, len(ls)
    while hi - lo >= 2 and ls[lo] == -ls[hi - 1]:
        lo += 1
        hi -= 1
    return ls[lo:hi]


def naive_length_sequence(phi, start, n: int, cap: int | None = None) -> list[int]:
    """Translation lengths of iterated images by direct substitution."""
    images = image_table(phi)
    cur = cyclic_trim(reduce_letters(start))
    seq = []
    for _ in range(n):
        cur = cyclic_trim(substitute(images, cur))
        seq.append(len(cur))
        if cap is not None and len(cur) > cap:
            break
    return seq


def finite_difference_degree(seq, max_degree: int = 6, tail: int = 5) -> int | None:
    """Least k with vanishing k-th differences on the tail, minus one."""
    d = list(seq)
    for k in range(1, max_degree + 1):
        d = [b - a for a, b in zip(d, d[1:])]
        if len(d) >= tail and all(t == 0 for t in d[-tail:]):
            return k - 1
    return None


def random_letters(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """Random freely reduced letter tuple of exactly ``length`` letters."""
    out: list[int] = []
    while len(out) < length:
        x = rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
        if out and out[-1] == -x:
            continue
        out.append(x)
    return tuple(out)


def bounded_products(gen_letters, max_factors: int) -> set[tuple[int, ...]]:
    """Reduced words of all products of at most ``max_factors`` of the
    given generators and their inverses."""
    factors = list(gen_letters) + [
        tuple(-t for t in reversed(g)) for g in gen_letters
    ]
    seen: set[tuple[int, ...]] = {()}
    frontier: set[tuple[int, ...]] = {()}
    for _ in range(max_factors):
        nxt: set[tuple[int, ...]] = set()
        for w in frontier:
            for f in factors:
                r = reduce_letters(w + f)
                if r not in seen:
                    seen.add(r)
                    nxt.add(r)
        frontier = nxt
    return seen


def torus_words(rank: int, max_len: int):
    """All words of length ≤ max_len over basis ∪ {t} letter alphabet.

    Letters are signed ints with rank+1 standing for t.
    """
    alphabet = [s * i for i in range(1, rank + 2) for s in (1, -1)]
    for n in range(max_len + 1):
        yield from product(alphabet, repeat=n)


def reference_fiber_saturation(group, gens, max_rounds, max_vertices):
    """(graph, n, s, rounds) of ``fiber_intersection``, by the plain loop.

    Same n and s (same Euclidean steps), then every round refolds all
    entries from scratch, stops when ``is_invariant`` holds, and pushes
    every image not seen before: θ of the last round's forward images,
    θ⁻¹ of its backward ones.  Raises UnstabilizedError on the same
    budgets.
    """
    from fgrow.automorphisms import compose, inner_automorphism, power
    from fgrow.folding import is_invariant, witnessed_graph
    from fgrow.mapping_torus import UnstabilizedError, _ext_gcd

    n, s = 0, group.identity_element()
    for g in gens:
        if g.k == 0:
            continue
        if n == 0:
            n, s = abs(g.k), g if g.k > 0 else g.inverse()
            continue
        d, x, y = _ext_gcd(n, g.k)
        if d != n:
            n, s = d, (s ** x) * (g ** y)
    seen: set = set()

    def unseen(words):
        out = []
        for w in words:
            if w.letters and w not in seen:
                seen.add(w)
                out.append(w)
        return out

    def fold(words):
        return witnessed_graph(group.basis, words).graph

    entries = unseen((g * (s ** (-(g.k // n))) if n else g).w for g in gens)
    if n == 0:
        return fold(entries), 0, None, 0
    theta = compose(inner_automorphism(group.basis, s.w), power(group.phi, n))
    theta_inv = theta.inverse()
    pos, neg, rounds = list(entries), list(entries), 0
    while True:
        graph = fold(entries)
        if graph.n_vertices > max_vertices:
            raise UnstabilizedError("vertex budget", rounds, graph.n_vertices)
        if is_invariant(graph, theta):
            return graph, n, s, rounds
        rounds += 1
        if rounds > max_rounds:
            raise UnstabilizedError("round budget", rounds, graph.n_vertices)
        pos = unseen([theta.apply(w) for w in pos])
        neg = unseen([theta_inv.apply(w) for w in neg])
        entries += pos + neg
