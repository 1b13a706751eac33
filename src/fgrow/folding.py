"""Folded core graphs for finitely generated subgroups of a free group.

A subgroup is represented by its folded based core graph: vertices are
integers with basepoint 0, and each edge ``(u, x, v)`` reads generator
``x`` from u to v.  Folded means no vertex has two outgoing or two
incoming edges with the same label, which makes membership a
deterministic trace.  Graphs are canonically numbered (breadth-first
from the basepoint, labels in order), so two graphs are equal as values
exactly when they present the same subgroup.

The fold's own tables, ``succ[v][x]`` and ``pred[v][x]`` (the other
end of v's outgoing or incoming x-edge), carry a folded graph from the
fold to the canonical graph.  One fold engine serves every entry point:
``_Fold``, a live union-find fold with a worklist (Stallings 1983)
whose tables stay folded between insertions.  Loops join it only
through ``_Fold.add_path``, which reads a word along the graph before
it adds vertices for the unread part, so the fold is a core graph that
needs no pruning.  ``_canonical`` numbers a graph in one breadth-first
walk that also records the spanning tree ``free_basis`` reads, and
only graphs that are read get numbered; ``intersect`` and
``double_coset_contains`` share one product walk, ``_product``; words
are read along tables by ``_walk``, or by ``_read`` where edges carry
expressions.  The fold carries whatever expressions its loops are given
as potentials (Kapovich–Myasnikov 2002): with V(v) a fixed word per
vertex, V(0) empty, the union-find keeps an expression for
V(v)·V(parent)⁻¹ over the generators, composed on path compression and
merges, so each folded edge (u, x, v) gets an expression for
V(u)·x·V(v)⁻¹.  Stitching those along a member word yields its product
certificate.  Loops given no expression leave every one empty, and
the fold then composes nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .words import Basis, BasisMismatchError, Word, concat_all, free_reduce, join

Edge = tuple[int, int, int]  # (source, label, target), label positive
Table = list[dict[int, int]]  # by vertex, then label: the edge's other end


class StallingsGraph:
    """Immutable folded core graph with basepoint 0."""

    def __init__(self, basis: Basis, n_vertices: int, edges: Sequence[Edge]):
        """The folded graph with these edges, canonically numbered."""
        succ: Table = [{} for _ in range(n_vertices)]
        pred: Table = [{} for _ in range(n_vertices)]
        for u, x, v in edges:
            if not (0 < x <= basis.rank and 0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge {(u, x, v)} names no generator or vertex")
            if x in succ[u] or x in pred[v]:
                raise ValueError("edge set is not folded")
            succ[u][x] = v
            pred[v][x] = u
        self._number(basis, succ, pred)
        if self.n_vertices < n_vertices:
            raise ValueError("edge set leaves a vertex unreachable from 0")

    def _number(self, basis: Basis, succ: Table, pred: Table) -> None:
        """Take over the part of a folded graph that 0 reaches, renumbered
        in one breadth-first walk from 0 that also records its spanning
        tree: via[v] = (parent, signed letter read from the parent to v),
        with via[0] = (0, 0).  The walk visits labels in ascending order,
        outgoing edges before incoming ones; the canonical numbering and
        the free-basis words depend on that order.  A vertex's new id is
        its place in the walk, and its new tables list labels in order.
        """
        new = [0] + [-1] * (len(succ) - 1)
        order, via = [0], [(0, 0)]
        n_succ: Table = []
        n_pred: Table = []
        labels = range(1, basis.rank + 1)
        for v, old in enumerate(order):  # order grows as vertices are discovered
            out, inn, s, p = succ[old], pred[old], {}, {}
            for x in labels:
                t = out.get(x)
                if t is not None:
                    if new[t] < 0:
                        new[t] = len(order)
                        order.append(t)
                        via.append((v, x))
                    s[x] = new[t]
                t = inn.get(x)
                if t is not None:
                    if new[t] < 0:
                        new[t] = len(order)
                        order.append(t)
                        via.append((v, -x))
                    p[x] = new[t]
            n_succ.append(s)
            n_pred.append(p)
        self.basis, self.n_vertices = basis, len(order)
        self._succ, self._pred, self._via = n_succ, n_pred, via

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, sorted; built when first read."""
        return tuple((u, x, v) for u, out in enumerate(self._succ) for x, v in out.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StallingsGraph) and (self.basis, self._succ) == (
            other.basis, other._succ
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.n_vertices, self.edges))

    def __repr__(self) -> str:
        return f"<graph {self.n_vertices} vertices, {len(self.edges)} edges, rank {self.rank()}>"

    # -- structure ---------------------------------------------------

    def accepts(self, w: Word) -> bool:
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        return _walk(self._succ, self._pred, 0, w.letters) == (0, len(w))

    def is_trivial(self) -> bool:
        return not (self._succ[0] or self._pred[0])  # 0 reaches every vertex

    def rank(self) -> int:
        return sum(map(len, self._succ)) - self.n_vertices + 1

    def is_full_cover(self) -> bool:
        r = self.basis.rank
        return all(len(out) == r == len(inn) for out, inn in zip(self._succ, self._pred))

    def index(self) -> int | None:
        """Subgroup index, or None when infinite."""
        return self.n_vertices if self.is_full_cover() else None

    # -- spanning tree and free basis --------------------------------

    def _cotree(self) -> list[Edge]:
        """The edges off the numbering walk's spanning tree, in ``edges`` order."""
        via = self._via
        return [
            (u, x, v) for u, out in enumerate(self._succ) for x, v in out.items()
            if via[v] != (u, x) and via[u] != (v, -x)
        ]

    def free_basis(self) -> list[Word]:
        """One reduced word per non-tree edge of a BFS spanning tree (a
        free basis of the subgroup)."""
        via, cotree = self._via, self._cotree()
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
        for u, x, v in cotree:
            raw = path(u) + (x,) + tuple(-t for t in reversed(path(v)))
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
        index = {(u, x): (j,) for j, (u, x, _) in enumerate(self._cotree(), start=1)}
        at, expr = _read(self._succ, self._pred, index, 0, w.letters)
        return expr if at == 0 else None


# ---------------------------------------------------------------------------
# reading words along folded tables

Expr = tuple[int, ...]  # signed 1-based indices into the generators


def _inv(e: Expr) -> Expr:
    return tuple(-j for j in reversed(e)) if e else e


def _walk(succ: Table, pred: Table, at: int, letters: Sequence[int]) -> tuple[int, int]:
    """The vertex reached reading ``letters`` from ``at`` while edges
    exist, and the number of letters read."""
    for i, x in enumerate(letters):
        t = succ[at].get(x) if x > 0 else pred[at].get(-x)
        if t is None:
            return at, i
        at = t
    return at, len(letters)


def _read(
    succ: Table, pred: Table, ex: dict[tuple[int, int], Expr], at: int, letters: Sequence[int]
) -> tuple[int | None, Expr]:
    """``_walk`` along edges that carry expressions, ex[(u, x)] for the
    edge (u, x, succ[u][x]) when not empty: the end (None when an edge
    is missing) and the reduced product of the expressions met, each
    inverted where its edge is crossed backwards."""
    out: list[int] = []
    for x in letters:
        t = succ[at].get(x) if x > 0 else pred[at].get(-x)
        if t is None:
            return None, ()
        if x > 0:
            out.extend(ex.get((at, x), ()))
        elif e := ex.get((t, -x)):
            out.extend(_inv(e))
        at = t
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
    """A Stallings fold kept live: a vertex union-find and the roots'
    succ/pred tables ``out[v][x]`` and ``inn[v][x]``; ``insert`` adds an
    edge and queues the merges it forces, ``drain`` performs them.

    After each ``drain`` the tables are a folded graph on the roots:
    every record names a root, and out[u][x] = v iff inn[v][x] = u.  A
    merge deletes the loser's records with their partners before it
    re-inserts the loser's edges, so no record ever names a merged-away
    vertex.  The fold carries whatever expressions it is given: the
    union-find keeps potentials (a root has none), every merge records
    the relation that forced it, and ex[(u, x)] is an expression for
    V(u)·x·V(out[u][x])⁻¹ when that is not empty.  A fold given none
    stores none and composes nothing.
    """

    def __init__(self, n: int = 1):
        self.uf = _UnionFind(n)
        self.out: Table = [{} for _ in range(n)]
        self.inn: Table = [{} for _ in range(n)]
        self.ex: dict[tuple[int, int], Expr] = {}
        # pending merges (a, b, d), d an expression for V(a)·V(b)⁻¹
        self.unions: deque[tuple[int, int, Expr]] = deque()

    def _at_roots(self, u: int, e: Expr, v: int) -> Expr:
        """e, for V(u)·…·V(v)⁻¹, rewritten for the roots; u, v just found."""
        pot = self.uf.pot
        if not pot:
            return e
        return join(join(_inv(pot.get(u, ())), e), pot.get(v, ()))

    def insert(self, u: int, x: int, v: int, e: Expr = ()) -> None:
        """Add the edge (u, x, v), or fold it into one with its label."""
        find, out, inn, ex = self.uf.find, self.out, self.inn, self.ex
        ru, rv = find(u), find(v)
        e = self._at_roots(u, e, v)
        # stored ends are roots, so stored expressions need no rewriting
        t = out[ru].get(x)
        if t is not None:  # absorbed into the edge (ru, x, t)
            if t != rv:
                self.unions.append((t, rv, join(_inv(ex.get((ru, x), ())), e)))
            return
        s = inn[rv].get(x)
        if s is not None:  # absorbed into the edge (s, x, rv)
            if s != ru:
                self.unions.append((s, ru, join(ex.get((s, x), ()), _inv(e))))
            return
        out[ru][x] = rv
        inn[rv][x] = ru
        if e:
            ex[(ru, x)] = e

    def drain(self) -> None:
        """Perform the queued merges and every merge they force."""
        uf, out, inn, ex, unions = self.uf, self.out, self.inn, self.ex, self.unions
        find, insert = uf.find, self.insert
        while unions:
            a, b, d = unions.popleft()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            d = self._at_roots(a, d, b)  # now for V(ra)·V(rb)⁻¹
            # union by size; vertex 0 always wins
            if rb == 0 or (ra != 0 and uf.size[ra] < uf.size[rb]):
                winner, loser = rb, ra
            else:
                winner, loser = ra, rb
            lo_out, lo_in = out[loser], inn[loser]
            out[loser], inn[loser] = {}, {}
            # Drop the partners of the loser's records before re-homing its
            # edges, so that no record names it; a loop's partner is among
            # the loser's own.  Edges into the loser move with their
            # out-record's expression.
            for x, t in lo_out.items():
                if t != loser:
                    del inn[t][x]
            moved_in = []
            for x, s in lo_in.items():
                if s != loser:
                    del out[s][x]
                    moved_in.append((s, x, ex.pop((s, x), ())))
            uf.link(winner, loser, _inv(d) if d and loser == rb else d)
            for x, t in lo_out.items():
                insert(loser, x, t, ex.pop((loser, x), ()))
            for s, x, e in moved_in:
                insert(s, x, loser, e)

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
        onto the trivial graph), so it goes through ``insert``.

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
        vertex but 0 keeps two records: the roots are the core graph.
        """
        uf, out, inn, ex = self.uf, self.out, self.inn, self.ex
        p, i = _walk(out, inn, 0, letters)
        q, j = end, len(letters)
        while j > i:  # the rest, read backward from end in place
            x = letters[j - 1]
            t = inn[q].get(x) if x > 0 else out[q].get(-x)
            if t is None:
                break
            q, j = t, j - 1
        if ex and i:
            e = join(_inv(_read(out, inn, ex, 0, letters[:i])[1]), e)
        if ex and j < len(letters):
            e = join(e, _inv(_read(out, inn, ex, q, letters[j:])[1]))
        if i == j:
            self.unions.append((p, q, e))
        else:
            n, fresh = len(out), j - i - 1
            if fresh:
                uf.parent.extend(range(n, n + fresh))
                uf.size.extend([1] * fresh)
                uf.roots += fresh
                out.extend({} for _ in range(fresh))
                inn.extend({} for _ in range(fresh))
            path = [p, *range(n, n + fresh), q]
            for a, x, c in zip(path, letters[i : j - 1], path[1:]):
                if x > 0:
                    out[a][x], inn[c][x] = c, a
                else:
                    out[c][-x], inn[a][-x] = a, c
            a, x = path[-2], letters[j - 1]
            self.insert(*((a, x, q, e) if x > 0 else (q, -x, a, _inv(e))))
        if self.unions:
            self.drain()

    def graph(self, basis: Basis) -> StallingsGraph:
        """The canonical graph of a fold of loops, a core graph (``add_path``)."""
        return _canonical(basis, self.out, self.inn)


def _canonical(basis: Basis, succ: Table, pred: Table) -> StallingsGraph:
    """The canonically numbered graph of folded tables with base 0."""
    graph = StallingsGraph.__new__(StallingsGraph)
    graph._number(basis, succ, pred)
    return graph


def _checked(b: Basis, gens: Iterable[Word]) -> list[Word]:
    gens = list(gens)
    for g in gens:
        if g.basis != b:
            raise BasisMismatchError("generator over a different basis")
    return gens


def stallings_graph(b: Basis, gens: Iterable[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by ``gens``."""
    fold = _Fold()
    for g in _checked(b, gens):
        fold.add_path(g.letters)
    return fold.graph(b)


@dataclass(frozen=True, eq=False)
class WitnessedGraph:
    """Folded core graph of ⟨gens⟩ whose edges carry generator expressions.

    Words are read along the fold's own tables; ``graph``, the canonical
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
    _succ: Table = field(repr=False)
    _pred: Table = field(repr=False)
    # by (source, label), in the fold's ids; empty ones left out
    _exprs: dict[tuple[int, int], Expr] = field(repr=False)

    @cached_property
    def graph(self) -> StallingsGraph:
        return _canonical(self.basis, self._succ, self._pred)

    def express(self, w: Word) -> tuple[int, ...] | None:
        """w as a signed product over ``gens`` (1-based), or None."""
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        at, expr = _read(self._succ, self._pred, self._exprs, 0, w.letters)
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
    fold = _Fold()
    for j, g in enumerate(gens, start=1):
        fold.add_path(g.letters, e=(j,))
    return WitnessedGraph(b, tuple(gens), fold.out, fold.inn, fold.ex)


def trivial_subgroup(b: Basis) -> StallingsGraph:
    return StallingsGraph(b, 1, [])


def full_group(b: Basis) -> StallingsGraph:
    return StallingsGraph(b, 1, [(0, x, 0) for x in range(1, b.rank + 1)])


def _product(
    a_succ: Table, a_pred: Table, c_succ: Table, c_pred: Table, start: tuple[int, int]
) -> tuple[dict[tuple[int, int], int], Table, Table]:
    """The part of the product of two folded graphs reachable from ``start``.

    An x-edge leaves a pair of vertices when one leaves each.  Returns
    the pair ids, in discovery order from ``start`` (id 0), and the
    product's succ/pred tables over them.
    """
    ids = {start: 0}
    pairs = [start]

    def meet(a_out: dict[int, int], c_out: dict[int, int]) -> dict[int, int]:
        out = {}
        for x, u in a_out.items():
            v = c_out.get(x)
            if v is not None:
                j = ids.get((u, v))
                if j is None:
                    j = ids[(u, v)] = len(pairs)
                    pairs.append((u, v))
                out[x] = j
        return out

    succ: Table = []
    pred: Table = []
    for p, q in pairs:  # pairs grows as they are discovered
        succ.append(meet(a_succ[p], c_succ[q]))
        pred.append(meet(a_pred[p], c_pred[q]))
    return ids, succ, pred


def intersect(a: StallingsGraph, c: StallingsGraph) -> StallingsGraph:
    """Fiber product of the two based graphs (basepoint component, cored)."""
    if a.basis != c.basis:
        raise BasisMismatchError("subgroups over different bases")
    _, succ, pred = _product(a._succ, a._pred, c._succ, c._pred, (0, 0))
    # prune hanging trees: a vertex other than the base with one record
    # is a leaf, and deleting its record may make a leaf of its neighbour
    leaves = [v for v in range(1, len(succ)) if len(succ[v]) + len(pred[v]) == 1]
    while leaves:
        v = leaves.pop()
        if succ[v]:
            x, t = succ[v].popitem()
            del pred[t][x]
        else:
            x, t = pred[v].popitem()
            del succ[t][x]
        if t and len(succ[t]) + len(pred[t]) == 1:
            leaves.append(t)
    return _canonical(a.basis, succ, pred)


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


def _coset_automaton(
    g: StallingsGraph, tail: tuple[int, ...]
) -> tuple[Table, Table, int]:
    """Fold g together with a path spelling ``tail`` out of its base.

    Returns the fold's (succ, pred) tables and the path's end; the
    reduced words readable from 0 to the end are exactly the coset
    ⟨g⟩·tail.
    """
    end = g.n_vertices  # a fresh vertex
    fold = _Fold(end + 1)
    for u, x, v in g.edges:  # already folded: nothing merges
        fold.insert(u, x, v)
    fold.add_path(tail, end)
    return fold.out, fold.inn, fold.uf.find(end)


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
    sa, pa, a_end = _coset_automaton(left, s.letters)
    winv = tuple(-x for x in reversed(w.letters))
    sb, pb, b_end = _coset_automaton(right, winv)
    ids, _, _ = _product(sa, pa, sb, pb, (0, b_end))
    return (a_end, 0) in ids
