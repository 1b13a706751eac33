"""Independent oracles used across the test suite.

Everything here is deliberately naive: direct substitution, bounded
enumeration, brute-force reduction.  None of it calls the package's
own folding or growth paths, so agreement is evidence rather than
tautology.  ``petal_fold`` is a reference Stallings fold: a wedge of
petals merged until folded.  ``reference_fiber_saturation`` refolds
every entry with it each round; only its stop test, ``is_invariant``
on the folded graph, comes from the package.  ``reference_spanning_tree``
reads a graph's breadth-first tree and free basis off its edges.
``reference_ball`` is the Cayley-ball BFS keyed by whole (w, k)
states, with naive reduction at the junction.  ``two_way_saturation``
is the exception: a pinned copy of the package's incremental
saturation loop as it was when every new entry was mapped both ways,
kept to show that mapping escapes only onward changes nothing.
``run_capped`` is tooling, not an oracle: it runs the CLI in a child
process under an address-space cap and reports the child's peak RSS.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from itertools import product


def reduce_letters(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def naive_reduce(letters) -> tuple[int, ...]:
    """Delete adjacent x x⁻¹ pairs, rescanning, until none remain."""
    ls = list(letters)
    i = 0
    while i + 1 < len(ls):
        if ls[i] == -ls[i + 1]:
            del ls[i : i + 2]
            i = 0
        else:
            i += 1
    return tuple(ls)


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
    return {j + 1: phi.images[j].letters for j in range(phi.basis.rank)}


def cyclic_trim(letters) -> tuple[int, ...]:
    ls = tuple(letters)
    lo, hi = 0, len(ls)
    while hi - lo >= 2 and ls[lo] == -ls[hi - 1]:
        lo += 1
        hi -= 1
    return ls[lo:hi]


class StepOverrun(Exception):
    """``PowerSteps`` passed its letter cap."""


class PowerSteps:
    """Φᵏ(x) of signed letters x, stepped one power at a time by direct
    substitution and kept per letter and sign.  ``letters`` counts the
    letters fed to each step to a height |k| ≥ 2, Σ|Φ^±1(y)| over the
    letters y of the image below, as a map composes the images it does
    not read off; x⁻¹'s image comes with x's.  Passing ``cap`` letters
    raises StepOverrun."""

    def __init__(self, phi, cap: int):
        self.maps = {1: image_table(phi), -1: image_table(phi.inverse())}
        self.columns: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        self.letters = 0
        self.cap = cap

    def image(self, x: int, k: int) -> tuple[int, ...]:
        sign = 1 if k > 0 else -1
        column = self.columns.setdefault((sign, abs(x)), [(abs(x),)])
        step = self.maps[sign]
        while len(column) <= abs(k):
            if len(column) > 1:
                self.charge(sum(len(step[abs(y)]) for y in column[-1]))
            column.append(substitute(step, column[-1]))
        img = column[abs(k)]
        return img if x > 0 else tuple(-y for y in reversed(img))

    def apply(self, k: int, letters) -> tuple[int, ...]:
        """Φᵏ of a word; a word longer than ``cap`` raises StepOverrun
        before it is built, as the letters of its images are not counted."""
        images = [self.image(x, k) for x in letters]
        if sum(map(len, images)) > self.cap:
            raise StepOverrun(self.letters)
        return reduce_letters(y for img in images for y in img)

    def charge(self, letters: int) -> None:
        """Count letters stepped elsewhere, as a whole word's iterates."""
        self.letters += letters
        if self.letters > self.cap:
            raise StepOverrun(self.letters)


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


def petal_fold(rank: int, words) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """(vertex count, sorted edges) of the canonical folded core graph
    of the subgroup generated by reduced letter tuples.

    A wedge of one petal per word at vertex 0 (a core graph, and a fold
    of a core graph stays one) has its vertices merged while two edges
    with one label share a source or a target.  The survivors are then
    numbered breadth-first from 0, labels ascending, outgoing edges
    before incoming ones.
    """
    edges, n = [], 1
    for w in words:
        prev = 0
        for i, x in enumerate(w):
            nxt = 0 if i == len(w) - 1 else n
            if nxt:
                n += 1
            edges.append((prev, x, nxt) if x > 0 else (nxt, -x, prev))
            prev = nxt
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    merged = True
    while merged:
        merged, ends = False, {}
        for u, x, v in edges:
            for key, other in (((find(u), x), v), ((find(v), -x), u)):
                a, c = find(ends.setdefault(key, other)), find(other)
                if a != c:
                    parent[max(a, c)] = min(a, c)
                    merged = True
    edges = {(find(u), x, find(v)) for u, x, v in edges}
    step = {}
    for u, x, v in edges:
        step[(u, x)], step[(v, -x)] = v, u
    new, order = {0: 0}, [0]
    for v in order:
        for x in range(1, rank + 1):
            for y in (x, -x):
                w = step.get((v, y))
                if w is not None and w not in new:
                    new[w] = len(order)
                    order.append(w)
    return len(order), tuple(sorted((new[u], x, new[v]) for u, x, v in edges))


def reference_spanning_tree(rank: int, edges):
    """(order, via, words) of a connected folded graph given by its edges.

    A breadth-first search from 0 (labels ascending, outgoing edges
    before incoming ones) discovers the vertices in ``order``; via lists
    (parent, signed letter read from the parent) for each vertex in that
    order, (0, 0) for the base.  ``words`` has one reduced loop through
    each edge off the tree, in sorted edge order: the free basis.
    """
    succ, pred = {}, {}
    for u, x, v in edges:
        succ[(u, x)] = v
        pred[(v, x)] = u
    via, order = {0: (0, 0)}, [0]
    for v in order:
        for x in range(1, rank + 1):
            for w, y in ((succ.get((v, x)), x), (pred.get((v, x)), -x)):
                if w is not None and w not in via:
                    via[w] = (v, y)
                    order.append(w)

    def path(v):
        up = []
        while v:
            v, y = via[v]
            up.append(y)
        return up[::-1]

    words = [
        reduce_letters(path(u) + [x] + [-y for y in reversed(path(v))])
        for u, x, v in sorted(edges)
        if via[v] != (u, x) and via[u] != (v, -x)
    ]
    return order, [via[v] for v in order], words


def reference_fiber_saturation(group, gens, max_rounds, max_vertices):
    """(graph, n, s, rounds) of ``fiber_intersection``, by the plain loop.

    Same n and s (same Euclidean steps), then every round refolds all
    entries from scratch, stops when ``is_invariant`` holds, and pushes
    every image not seen before: θ of the last round's forward images,
    θ⁻¹ of its backward ones.  Raises UnstabilizedError on the same
    budgets.
    """
    from fgrow.automorphisms import compose, inner_automorphism, power
    from fgrow.folding import StallingsGraph, is_invariant
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
        b = group.basis
        return StallingsGraph(b, *petal_fold(b.rank, [w.letters for w in words]))

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


def two_way_saturation(group, gens, max_rounds, max_vertices):
    """(entries, rounds) of ``fiber_intersection``'s incremental loop
    when it mapped every new entry by both θ and θ⁻¹; entries are
    (letters, expression) pairs in the order they were folded.  Raises
    UnstabilizedError on the same budgets."""
    from fgrow.automorphisms import _inner_normalize, compose, inner_automorphism, power
    from fgrow.folding import _Fold, _inv, _walk
    from fgrow.mapping_torus import UnstabilizedError, _ext_gcd, _pow_expr
    from fgrow.words import free_reduce, join

    def conjugation(theta):
        # θ = i_y∘ψ for ψ = i_h∘θ, θ's own inner normalization: y = h⁻¹
        psi, h = _inner_normalize(theta)
        return _inv(h.letters), psi._subst, h.letters

    n, s, s_expr = 0, group.identity_element(), ()
    for i, g in enumerate(gens, start=1):
        if g.k == 0:
            continue
        if n == 0:
            n, s, s_expr = (g.k, g, (i,)) if g.k > 0 else (-g.k, g.inverse(), (-i,))
            continue
        d, x, y = _ext_gcd(n, g.k)
        if d != n:
            s = (s ** x) * (g ** y)
            s_expr = _pow_expr(s_expr, x) + _pow_expr((i,), y)
            n = d
    entries = []
    for i, g in enumerate(gens, start=1):
        m = g.k // n if n else 0
        entries.append(((g * (s ** (-m))).w.letters, (i,) + _pow_expr(s_expr, -m)))
    fold = _Fold(group.basis.rank)
    for w, _ in entries:
        fold.add_path(w)
    if n == 0:
        return entries, 0
    theta = compose(inner_automorphism(group.basis, s.w), power(group.phi, n))
    s_inv_expr = _inv(s_expr)
    moves = (
        (*conjugation(theta), s_expr, s_inv_expr),
        (*conjugation(theta.inverse()), s_inv_expr, s_expr),
    )
    frontier, rounds = entries, 0
    while True:
        if fold.uf.roots > max_vertices:
            raise UnstabilizedError("vertex budget", rounds, fold.uf.roots)
        escapes = []
        for w, e in frontier:
            for y, table, y_inv, pre, post in moves:
                img = join(join(y, free_reduce(w, table)), y_inv)
                if _walk(fold.t, fold.r, 0, img) != (0, len(img)):
                    escapes.append((img, pre + e + post))
        if not escapes:
            return entries, rounds
        rounds += 1
        if rounds > max_rounds:
            raise UnstabilizedError("round budget", rounds, fold.uf.roots)
        entries += escapes
        for w, _ in escapes:
            fold.add_path(w)
        frontier = escapes


def reference_ball(group, r):
    """(states, levels, adjacency) of the Cayley ball B(r) of a mapping
    torus, by the plain BFS over (w, k) keys: a fiber letter x moves
    (w, k) to (w·Φᵏ(x), k), and t^±1 moves it to (w, k ± 1).  Every
    vertex, S(r) included, lists its in-ball neighbours, sorted."""
    from fgrow.words import Word

    b = group.basis
    fiber = [Word(b, (s * i,)) for i in range(1, b.rank + 1) for s in (1, -1)]
    twists: dict = {}
    index = {((), 0): 0}
    states, levels, adj = [((), 0)], [0], []
    while len(adj) < len(states):
        w, k = states[len(adj)]
        d = levels[len(adj)]
        if k not in twists:
            # |k| steps of Φ or Φ⁻¹, none of the package's kept tables
            step = group.phi.apply if k > 0 else group.phi.inverse().apply
            column = fiber
            for _ in range(abs(k)):
                column = [step(x) for x in column]
            twists[k] = [x.letters for x in column]
        nbrs = []
        for st in [(reduce_letters(w + y), k) for y in twists[k]] + [(w, k + 1), (w, k - 1)]:
            j = index.get(st)
            if j is None:
                if d == r:
                    continue
                j = index[st] = len(states)
                states.append(st)
                levels.append(d + 1)
            nbrs.append(j)
        adj.append(tuple(sorted(nbrs)))
    return states, levels, adj


# Linux keeps a forked image's high-water RSS across exec, so a child
# forked from the test process would report that process's size as its
# own peak: the CLI is forked from this small launcher instead, which
# reaps it by os.wait4 and writes its exit code and peak to a pipe.
_LAUNCHER = """
import os, resource, sys
report, limit, argv = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
pid = os.fork()
if pid == 0:
    os.close(report)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    os.execv(sys.executable, [sys.executable, "-m", "fgrow.cli", *argv])
_, status, usage = os.wait4(pid, 0)
os.write(report, b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def run_capped(argv, limit_mb: int) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, peak RSS in MB) of ``fgrow argv`` run
    in a child process whose address space ``RLIMIT_AS`` caps at
    ``limit_mb`` MB.  The cap is set in that child alone, and the peak is
    the child's own, read by ``os.wait4``: ``RUSAGE_CHILDREN`` would be
    the largest over every child a process has reaped."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    r, w = os.pipe()
    with os.fdopen(r) as report:
        try:
            done = subprocess.run(
                [sys.executable, "-c", _LAUNCHER, str(w), str(limit_mb << 20), *argv],
                stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, pass_fds=(w,),
            )
        finally:
            os.close(w)
        if done.returncode:
            raise RuntimeError(f"launcher failed: {done.stderr}")
        code, peak_kb = map(int, report.read().split())
    # ru_maxrss is in kilobytes on Linux
    return code, done.stdout, done.stderr, peak_kb / 1024
