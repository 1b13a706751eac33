"""Folded core graphs for finitely generated subgroups of a free group.

A subgroup is represented by its folded based core graph: vertices are
integers with basepoint 0, and each edge ``(u, x, v)`` reads generator
``x`` from u to v.  Folded means no vertex has two outgoing or two
incoming edges with the same label, which makes membership a
deterministic trace.  Graphs are canonically numbered (breadth-first
from the basepoint, labels in order), so two graphs are equal as values
exactly when they present the same subgroup.

Every graph, and the fold that builds it, is one flat table of signed
slots.  With r the basis rank and W = 2r + 1 slots per vertex,
``t[v·W + r + s]`` is the vertex reached from v by reading the signed
letter s, and −1 when there is none; the centre slot, s = 0, is always
−1.  An edge (u, x, v) fills the slot (u, x) and its partner (v, −x),
so a word is read by indexing alone, in either direction, and the
partner of the slot at offset k in a row is at offset W − 1 − k.

One fold engine serves every entry point: ``_Fold``, a live union-find
fold with a worklist (Stallings 1983) whose table stays folded between
insertions.  Loops join it only through ``_Fold.add_path``, which reads
a word along the graph before it adds vertices for the unread part, so
the fold is a core graph that needs no pruning.  ``_canonical`` numbers
a graph in one breadth-first walk that also records the spanning tree
and the cotree ``free_basis`` reads, and only graphs that are read get
numbered; ``intersect`` and ``double_coset_contains`` share one product
walk, ``_product``; words are read along tables by ``_walk``, or by
``_read`` where slots carry expressions.  The fold carries whatever
expressions its loops are given as potentials (Kapovich–Myasnikov
2002): with V(v) a fixed word per vertex, V(0) empty, the union-find
keeps an expression for V(v)·V(parent)⁻¹ over the generators, composed
on path compression and merges, so each folded edge (u, x, v) gets an
expression for V(u)·x·V(v)⁻¹ on its slot and the inverse on its
partner.  Stitching those along a member word yields its product
certificate.  Loops given no expression leave every one empty, and the
fold then reads, stores and composes none.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .words import Basis, BasisMismatchError, Word, _inv, concat_all, free_reduce, join

Edge = tuple[int, int, int]  # (source, label, target), label positive
Slots = list[int]  # t[v·W + r + s]: v's end of the signed letter s, or −1


class StallingsGraph:
    """Immutable folded core graph with basepoint 0.

    ``_t`` is its signed-slot table, W = ``_w`` slots per vertex around
    the centre ``_r``, the basis rank; ``_via[v]`` is v's spanning-tree
    edge, (parent, signed letter read from the parent), and ``_cotree``
    lists the edges off that tree in ``edges`` order.
    """

    def __init__(self, basis: Basis, n_vertices: int, edges: Sequence[Edge]):
        """The folded graph with these edges, canonically numbered."""
        r = basis.rank
        w = 2 * r + 1
        t = [-1] * (n_vertices * w)
        for u, x, v in edges:
            if not (0 < x <= r and 0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge {(u, x, v)} names no generator or vertex")
            if t[u * w + r + x] >= 0 or t[v * w + r - x] >= 0:
                raise ValueError("edge set is not folded")
            t[u * w + r + x], t[v * w + r - x] = v, u
        self._number(basis, t)
        if self.n_vertices < n_vertices:
            raise ValueError("edge set leaves a vertex unreachable from 0")

    def _number(self, basis: Basis, t: Slots) -> None:
        """Take over the part of a folded table that 0 reaches, renumbered
        in one breadth-first walk from 0 that also records its spanning
        tree, via[v] = (parent, signed letter read from the parent to v)
        with via[0] = (0, 0), and its cotree: a positive slot reaching a
        vertex already numbered, other than v's own tree edge.  The walk
        reads labels in ascending order, outgoing before incoming; the
        canonical numbering and the free-basis words depend on that
        order.  A vertex's new id is its place in the walk.
        """
        r = basis.rank
        w = 2 * r + 1
        new = [-1] * (len(t) // w)
        new[0] = 0
        order, via, cotree = [0], [(0, 0)], []
        nt = [-1] * len(t)  # cut to the vertices reached at the end
        signed = [s for x in range(1, r + 1) for s in (x, -x)]
        for v, old in enumerate(order):  # order grows as vertices are discovered
            up = -via[v][1]  # v's slot back to its parent; 0 at the base
            c, nc = old * w + r, v * w + r
            for s in signed:
                u = t[c + s]
                if u >= 0:
                    nu = new[u]
                    if nu < 0:
                        nu = new[u] = len(order)
                        order.append(u)
                        via.append((v, s))
                    elif s > 0 and s != up:
                        cotree.append((v, s, nu))
                    nt[nc + s] = nu
        del nt[len(order) * w :]
        self.basis, self.n_vertices, self._r, self._w = basis, len(order), r, w
        self._t, self._via, self._cotree = nt, via, cotree

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, sorted; built when first read."""
        t, r, w = self._t, self._r, self._w
        return tuple(
            (u, x, v) for u in range(self.n_vertices) for x in range(1, r + 1)
            if (v := t[u * w + r + x]) >= 0
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StallingsGraph) and (self.basis, self._t) == (
            other.basis, other._t
        )

    def __hash__(self) -> int:
        return hash((self.basis, tuple(self._t)))

    def __repr__(self) -> str:
        return f"<graph {self.n_vertices} vertices, {len(self.edges)} edges, rank {self.rank()}>"

    # -- structure ---------------------------------------------------

    def accepts(self, w: Word) -> bool:
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        return _walk(self._t, self._r, 0, w.letters) == (0, len(w))

    def is_trivial(self) -> bool:
        return self.n_vertices == 1 and not self._cotree

    def rank(self) -> int:
        return len(self._cotree)

    def is_full_cover(self) -> bool:
        return self._t.count(-1) == self.n_vertices  # only the centre slots

    def index(self) -> int | None:
        """Subgroup index, or None when infinite."""
        return self.n_vertices if self.is_full_cover() else None

    # -- spanning tree and free basis --------------------------------

    def free_basis(self) -> list[Word]:
        """One reduced word per non-tree edge of a BFS spanning tree (a
        free basis of the subgroup)."""
        via = self._via
        paths: dict[int, tuple[int, ...]] = {}  # only for non-tree edge ends

        def path(v: int) -> tuple[int, ...]:
            if v not in paths:
                up, at = [], v
                while at != 0:
                    at, s = via[at]
                    up.append(s)
                paths[v] = tuple(reversed(up))
            return paths[v]

        out = []
        for u, x, v in self._cotree:
            raw = path(u) + (x,) + _inv(path(v))
            out.append(Word(self.basis, free_reduce(raw)))
        return out

    def express_in_free_basis(self, w: Word) -> tuple[int, ...] | None:
        """Write an accepted word over the ``free_basis`` alphabet.

        Returns signed 1-based indices into ``free_basis()``, or None
        when the word is not a member.  Basis element j is the loop
        through the j-th non-tree edge, so the non-tree edges that w's
        path crosses, each signed by its direction, spell w.  Between
        two crossings the path stays in the tree, so crossing an edge
        straight back would make a reduced word's path backtrack: the
        expression is reduced, hence the unique one.
        """
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        r, width = self._r, self._w
        index = {}  # both slots of each non-tree edge
        for j, (u, x, v) in enumerate(self._cotree, start=1):
            index[u * width + r + x], index[v * width + r - x] = (j,), (-j,)
        at, expr = _read(self._t, r, index, 0, w.letters)
        return expr if at == 0 else None


# ---------------------------------------------------------------------------
# reading words along folded tables

Expr = tuple[int, ...]  # signed 1-based indices into the generators


def _walk(t: Slots, r: int, at: int, letters: Sequence[int]) -> tuple[int, int]:
    """The vertex reached reading ``letters`` from ``at`` while edges
    exist, and the number of letters read; r is the basis rank."""
    w = 2 * r + 1
    for i, x in enumerate(letters):
        v = t[at * w + r + x]
        if v < 0:
            return at, i
        at = v
    return at, len(letters)


def _read(
    t: Slots, r: int, ex: dict[int, Expr], at: int, letters: Sequence[int]
) -> tuple[int | None, Expr]:
    """``_walk`` along edges that carry expressions, ex[k] for slot k
    when not empty: the end (None when an edge is missing) and the
    reduced product of the expressions met."""
    w = 2 * r + 1
    out: list[int] = []
    for x in letters:
        k = at * w + r + x
        at = t[k]
        if at < 0:
            return None, ()
        if e := ex.get(k):
            out += e
    return at, free_reduce(out)


# ---------------------------------------------------------------------------
# the fold: union-find vertex merging with a worklist, carrying expressions


class _UnionFind:
    """Union-find whose links carry the potentials they are given.

    With V(v) the fixed base-path word of vertex v, pot[v] is an
    expression for V(v)·V(parent[v])⁻¹, absent when empty.  Path
    compression composes potentials while any are held, so right after
    ``find(v)``, ``pot.get(v, ())`` is an expression for V(v)·V(root)⁻¹.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.roots = n
        self.pot: dict[int, Expr] = {}

    def find(self, v: int) -> int:
        parent, pot = self.parent, self.pot
        root = parent[v]
        if parent[root] == root:  # v is a root or a child of one
            return root
        while parent[root] != root:
            root = parent[root]
        if not pot:
            while parent[v] != root:
                parent[v], v = root, parent[v]
            return root
        path = []
        while v != root:
            path.append(v)
            v = parent[v]
        acc: Expr = ()
        for w in reversed(path):
            acc = join(pot.get(w, ()), acc)
            parent[w] = root
            if acc:
                pot[w] = acc
            else:
                pot.pop(w, None)
        return root

    def link(self, winner: int, loser: int, pot: Expr = ()) -> None:
        self.parent[loser] = winner
        self.size[winner] += self.size[loser]
        self.roots -= 1
        if pot:
            self.pot[loser] = pot


class _Fold:
    """A Stallings fold kept live: a vertex union-find and one signed-slot
    table ``t`` over every vertex made so far, with r the basis rank
    and W = 2r + 1 slots per vertex; ``insert`` adds an edge and queues
    the merges it forces, ``drain`` performs them.

    After each ``drain`` the table is a folded graph on the roots: every
    filled slot names a root, its partner names it back, a merged-away
    vertex's row is empty, and so is every centre slot.  A merge empties
    the loser's row and its partners before it re-inserts the loser's
    edges, so no slot ever names a merged-away vertex.  The fold carries
    whatever expressions it is given: the union-find keeps potentials (a
    root has none), every merge records the relation that forced it,
    and ex[k], for slot k of (u, s) when not empty, is an expression for
    V(u)·s·V(t[k])⁻¹, so the partner slot holds its inverse.  A fold
    given none stores none, reads none and composes nothing.
    """

    def __init__(self, rank: int, n: int = 1):
        self.r, self.w = rank, 2 * rank + 1
        self.uf = _UnionFind(n)
        self.t: Slots = [-1] * (n * self.w)
        self.ex: dict[int, Expr] = {}
        # pending merges (a, b, d), d an expression for V(a)·V(b)⁻¹
        self.unions: deque[tuple[int, int, Expr]] = deque()

    def _at_roots(self, u: int, e: Expr, v: int) -> Expr:
        """e, for V(u)·…·V(v)⁻¹, rewritten for the roots; u, v just found."""
        pot = self.uf.pot
        return join(join(_inv(pot.get(u, ())), e), pot.get(v, ()))

    def insert(self, u: int, x: int, v: int, e: Expr = ()) -> None:
        """Add the edge (u, x, v), or fold it into one with its label."""
        uf, t, ex, r, w = self.uf, self.t, self.ex, self.r, self.w
        ru, rv = uf.find(u), uf.find(v)
        if uf.pot:
            e = self._at_roots(u, e, v)
        # stored ends are roots, so stored expressions need no rewriting
        k, back = ru * w + r + x, rv * w + r - x
        a = t[k]
        if a >= 0:  # absorbed into the edge (ru, x, a)
            if a != rv:
                self.unions.append((a, rv, join(_inv(ex.get(k, ())), e) if ex else e))
            return
        a = t[back]
        if a >= 0:  # absorbed into the edge (a, x, rv)
            if a != ru:
                self.unions.append((a, ru, _inv(join(e, ex.get(back, ())) if ex else e)))
            return
        t[k], t[back] = rv, ru
        if e:
            ex[k], ex[back] = e, _inv(e)

    def drain(self) -> None:
        """Perform the queued merges and every merge they force."""
        uf, t, ex, unions, r, w = self.uf, self.t, self.ex, self.unions, self.r, self.w
        find, insert = uf.find, self.insert
        labels, blank = range(1, r + 1), [-1] * w
        while unions:
            a, b, d = unions.popleft()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if uf.pot:
                d = self._at_roots(a, d, b)  # now for V(ra)·V(rb)⁻¹
            # union by size; vertex 0 always wins
            if rb == 0 or (ra != 0 and uf.size[ra] < uf.size[rb]):
                winner, loser = rb, ra
            else:
                winner, loser = ra, rb
            # Empty the loser's row and its slots' partners before
            # re-homing its edges, so that no slot names it; a loop's
            # partner is in the row.  Offset k's partner is W − 1 − k.
            base = loser * w
            row = t[base : base + w]
            t[base : base + w] = blank
            es = [ex.pop(base + k, ()) for k in range(w)] if ex else None
            for k, c in enumerate(row):
                if c >= 0:
                    t[c * w + w - 1 - k] = -1
                    if es:
                        ex.pop(c * w + w - 1 - k, None)
            uf.link(winner, loser, _inv(d) if d and loser == rb else d)
            # outgoing edges first, then incoming ones, by label
            for x in labels:
                if (c := row[r + x]) >= 0:
                    insert(loser, x, c, es[r + x] if es else ())
            for x in labels:
                if (c := row[r - x]) >= 0 and c != loser:
                    insert(c, x, loser, _inv(es[r - x]) if es else ())

    def add_path(self, letters: Sequence[int], end: int = 0, e: Expr = ()) -> None:
        """Fold a path from 0 to root ``end`` spelling a reduced word w;
        with ``end`` 0, a loop.  ``e`` is an expression for w·V(end)⁻¹,
        and the path's edges multiply out to it.

        The word is read along the graph first (Stallings 1983,
        Kapovich–Myasnikov 2002): its longest prefix forward from 0 to
        p, the longest rest backward from ``end`` to q.  Only the unread
        middle gets fresh vertices, a path from p to q; with nothing
        unread, p and q merge.  Each middle edge but the last meets a
        fresh vertex and a label p lacks, so it is written directly; the
        closing edge may fold (p = q and inverse end letters, as a b a⁻¹
        onto the trivial graph), so it goes through ``insert``, with a
        positive label as merges re-home edges.

        V of a fresh vertex is V(p) and the middle letters up to it, so
        fresh edges carry no expression.  With E_p read along the prefix
        (for prefix·V(p)⁻¹) and E_q along the suffix (for
        V(q)·suffix·V(end)⁻¹), E_p⁻¹·e·E_q⁻¹ is for V(p)·middle·V(q)⁻¹:
        it goes on the closing edge, inverted when the closing letter is
        negative, or on the merge of p and q when nothing is unread.
        Where the fold holds no expression, E_p and E_q are empty.

        A fold of loops needs no pruning: each edge of a loop lies on a
        reduced loop at 0, and a fold maps a reduced loop onto a reduced
        loop (a folded graph reads no backtracking word), so every
        vertex but 0 keeps two edges: the roots are the core graph.
        """
        uf, t, ex, r, w = self.uf, self.t, self.ex, self.r, self.w
        p, i = _walk(t, r, 0, letters)
        q, j = end, len(letters)
        while j > i:  # the rest, read backward from end in place
            c = t[q * w + r - letters[j - 1]]
            if c < 0:
                break
            q, j = c, j - 1
        if ex and i:
            e = join(_inv(_read(t, r, ex, 0, letters[:i])[1]), e)
        if ex and j < len(letters):
            e = join(e, _inv(_read(t, r, ex, q, letters[j:])[1]))
        if i == j:
            self.unions.append((p, q, e))
        else:
            n, fresh = len(uf.parent), j - i - 1
            if fresh:
                uf.parent.extend(range(n, n + fresh))
                uf.size.extend([1] * fresh)
                uf.roots += fresh
                t += [-1] * (fresh * w)
            path = [p, *range(n, n + fresh), q]
            for a, x, c in zip(path, letters[i : j - 1], path[1:]):
                t[a * w + r + x], t[c * w + r - x] = c, a
            a, x = path[-2], letters[j - 1]
            self.insert(*((a, x, q, e) if x > 0 else (q, -x, a, _inv(e))))
        if self.unions:
            self.drain()

    def graph(self, basis: Basis) -> StallingsGraph:
        """The canonical graph of a fold of loops, a core graph (``add_path``)."""
        return _canonical(basis, self.t)


def _canonical(basis: Basis, t: Slots) -> StallingsGraph:
    """The canonically numbered graph of a folded table with base 0."""
    graph = StallingsGraph.__new__(StallingsGraph)
    graph._number(basis, t)
    return graph


def _checked(b: Basis, gens: Iterable[Word]) -> list[Word]:
    gens = list(gens)
    for g in gens:
        if g.basis != b:
            raise BasisMismatchError("generator over a different basis")
    return gens


def stallings_graph(b: Basis, gens: Iterable[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by ``gens``."""
    fold = _Fold(b.rank)
    for g in _checked(b, gens):
        fold.add_path(g.letters)
    return fold.graph(b)


@dataclass(frozen=True, eq=False)
class WitnessedGraph:
    """Folded core graph of ⟨gens⟩ whose edges carry generator expressions.

    Words are read along the fold's own slot table; ``graph``, the canonical
    graph, equal to ``stallings_graph(b, gens)``, is numbered when first
    read.  Fixing one basepoint path word V(v) per vertex, with V(0)
    empty, every edge (u, x, v) carries an expression over ``gens``
    (signed 1-based indices) whose value is V(u)·x·V(v)⁻¹, an element
    of the subgroup; the fold's potentials supply them.  Concatenating
    expressions along an accepted basepoint loop yields the loop's
    product certificate in terms of ``gens``.
    """

    basis: Basis
    gens: tuple[Word, ...]
    _t: Slots = field(repr=False)
    # by slot, in the fold's ids; empty ones left out
    _exprs: dict[int, Expr] = field(repr=False)

    @cached_property
    def graph(self) -> StallingsGraph:
        return _canonical(self.basis, self._t)

    def express(self, w: Word) -> tuple[int, ...] | None:
        """w as a signed product over ``gens`` (1-based), or None."""
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        at, expr = _read(self._t, self.basis.rank, self._exprs, 0, w.letters)
        return expr if at == 0 else None

    def evaluate(self, expr: Iterable[int]) -> Word:
        """Evaluate a signed product over ``gens`` back to a word."""
        gens = self.gens
        parts = (gens[j - 1] if j > 0 else gens[-j - 1].inverse() for j in expr)
        return concat_all(self.basis, parts)


def witnessed_graph(b: Basis, gens: Sequence[Word]) -> WitnessedGraph:
    """Folded graph of ⟨gens⟩ with membership certificates.

    Folds one loop at 0 per generator with ``_Fold.add_path``, whose
    potentials give every edge its expression.
    """
    gens = _checked(b, gens)
    fold = _Fold(b.rank)
    for j, g in enumerate(gens, start=1):
        fold.add_path(g.letters, e=(j,))
    return WitnessedGraph(b, tuple(gens), fold.t, fold.ex)


def trivial_subgroup(b: Basis) -> StallingsGraph:
    return StallingsGraph(b, 1, [])


def full_group(b: Basis) -> StallingsGraph:
    return StallingsGraph(b, 1, [(0, x, 0) for x in range(1, b.rank + 1)])


def _product(
    r: int, a: Slots, c: Slots, start: tuple[int, int]
) -> tuple[dict[tuple[int, int], int], Slots]:
    """The part of the product of two folded tables reachable from ``start``.

    A slot of a pair of vertices is filled when it is filled in both.
    Returns the pair ids, in discovery order from ``start`` (id 0), and
    the product's slot table over them.
    """
    w = 2 * r + 1
    ids = {start: 0}
    pairs = [start]
    t: Slots = []
    for p, q in pairs:  # pairs grows as they are discovered
        for u, v in zip(a[p * w : p * w + w], c[q * w : q * w + w]):
            if u < 0 or v < 0:
                t.append(-1)
                continue
            j = ids.setdefault((u, v), len(pairs))
            if j == len(pairs):
                pairs.append((u, v))
            t.append(j)
    return ids, t


def intersect(a: StallingsGraph, c: StallingsGraph) -> StallingsGraph:
    """Fiber product of the two based graphs (basepoint component, cored)."""
    if a.basis != c.basis:
        raise BasisMismatchError("subgroups over different bases")
    w = a._w
    _, t = _product(a._r, a._t, c._t, (0, 0))
    # prune hanging trees: a vertex other than the base with one edge is
    # a leaf, and deleting its edge may make a leaf of its neighbour
    degree = [w - t[i : i + w].count(-1) for i in range(0, len(t), w)]
    leaves = [v for v in range(1, len(degree)) if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        row = t[v * w : v * w + w]
        u = max(row)  # the one filled slot
        k = row.index(u)
        t[v * w + k] = t[u * w + w - 1 - k] = -1
        degree[u] -= 1
        if u and degree[u] == 1:
            leaves.append(u)
    return _canonical(a.basis, t)


def is_invariant(h: StallingsGraph, theta) -> bool:
    """Whether θ(H) = H for an invertible map θ (checked on a free basis).

    ``theta`` needs ``apply(word)`` and ``inverse()``; both image and
    preimage of every basis element must be members.
    """
    inv = theta.inverse()
    for w in h.free_basis():
        if not h.accepts(theta.apply(w)):
            return False
        if not h.accepts(inv.apply(w)):
            return False
    return True


def _coset_automaton(g: StallingsGraph, tail: tuple[int, ...]) -> tuple[Slots, int]:
    """Fold g together with a path spelling ``tail`` out of its base.

    Returns the fold's slot table and the path's end; the reduced words
    readable from 0 to the end are exactly the coset ⟨g⟩·tail.
    """
    end = g.n_vertices  # a fresh vertex
    fold = _Fold(g._r, end + 1)
    fold.t[: len(g._t)] = g._t  # already folded: nothing merges
    fold.add_path(tail, end)
    return fold.t, fold.uf.find(end)


def double_coset_contains(
    left: StallingsGraph, s: Word, right: StallingsGraph, w: Word
) -> bool:
    """Whether w ∈ left·s·right.

    w is in the double coset iff the cosets left·s and w·right share an
    element, i.e. iff the accept pair is reachable in the product of the
    two coset automata.  Folding a single wedge instead would conflate
    the double coset with the span ⟨left ∪ s·right·s⁻¹⟩·s.
    """
    b = left.basis
    if right.basis != b or s.basis != b or w.basis != b:
        raise BasisMismatchError("operands over different bases")
    ta, a_end = _coset_automaton(left, s.letters)
    tb, b_end = _coset_automaton(right, _inv(w.letters))
    ids, _ = _product(b.rank, ta, tb, (0, b_end))
    return (a_end, 0) in ids
