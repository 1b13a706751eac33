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
fold to the canonical graph.  One fold engine, ``_fold_edges``, serves
every entry point: a union-find fold with a worklist (Stallings 1983).
``_core_and_canonical`` prunes its tables in place and numbers the core
along ``_bfs_tree``, the one breadth-first spanning tree, which also
gives ``free_basis`` its tree; ``intersect`` and ``double_coset_contains``
share one product walk, ``_product``.  ``witnessed_graph`` runs the
fold with potentials (Kapovich–Myasnikov 2002): with V(v) a fixed
basepoint path word per vertex, the union-find keeps an expression for
V(v)·V(parent)⁻¹ over the generators, composed on path compression and
merges, so each folded edge (u, x, v) gets an expression for
V(u)·x·V(v)⁻¹.  Stitching those along a member word yields its product
certificate.  Plain folds store no expressions and pay nothing for it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .words import Basis, BasisMismatchError, Word, concat_all, free_reduce

Edge = tuple[int, int, int]  # (source, label, target), label positive
Table = list[dict[int, int]]  # by vertex, then label: the edge's other end


class StallingsGraph:
    """Immutable folded core graph with basepoint 0."""

    def __init__(self, basis: Basis, n_vertices: int, edges: Sequence[Edge]):
        succ: Table = [{} for _ in range(n_vertices)]
        pred: Table = [{} for _ in range(n_vertices)]
        for u, x, v in edges:
            if x in succ[u] or x in pred[v]:
                raise ValueError("edge set is not folded")
            succ[u][x] = v
            pred[v][x] = u
        self._adopt(basis, succ, pred)

    def _adopt(self, basis: Basis, succ: Table, pred: Table) -> None:
        """Take over folded tables; ``edges`` lists them sorted."""
        self.basis = basis
        self.n_vertices = len(succ)
        self._succ = succ
        self._pred = pred
        self.edges = tuple(
            (u, x, v) for u, out in enumerate(succ) for x, v in sorted(out.items())
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StallingsGraph)
            and self.basis == other.basis
            and self.n_vertices == other.n_vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.basis, self.n_vertices, self.edges))

    def __repr__(self) -> str:
        return f"<graph {self.n_vertices} vertices, {len(self.edges)} edges, rank {self.rank()}>"

    # -- structure ---------------------------------------------------

    def step(self, vertex: int, letter: int) -> int | None:
        """Follow one signed letter; None if the edge is absent."""
        if letter > 0:
            return self._succ[vertex].get(letter)
        return self._pred[vertex].get(-letter)

    def trace(self, letters: Iterable[int], start: int = 0) -> int | None:
        at = start
        for x in letters:
            nxt = self.step(at, x)
            if nxt is None:
                return None
            at = nxt
        return at

    def accepts(self, w: Word) -> bool:
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        return self.trace(w.letters) == 0

    def is_trivial(self) -> bool:
        return not self.edges

    def rank(self) -> int:
        return len(self.edges) - self.n_vertices + 1

    def is_full_cover(self) -> bool:
        r = self.basis.rank
        return all(len(out) == r == len(inn) for out, inn in zip(self._succ, self._pred))

    def index(self) -> int | None:
        """Subgroup index, or None when infinite."""
        return self.n_vertices if self.is_full_cover() else None

    # -- spanning tree and free basis --------------------------------

    def _cotree(self) -> tuple[dict[int, tuple[int, int]], list[Edge]]:
        """``_bfs_tree`` and the edges off it, in ``edges`` order."""
        via = _bfs_tree(self._succ, self._pred, self.basis.rank)
        off = [(u, x, v) for u, x, v in self.edges if via[v] != (u, x) and via[u] != (v, -x)]
        return via, off

    def free_basis(self) -> list[Word]:
        """One reduced word per non-tree edge of a BFS spanning tree (a
        free basis of the subgroup)."""
        via, cotree = self._cotree()
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
        index = {(u, x): j for j, (u, x, _) in enumerate(self._cotree()[1], start=1)}
        at, out = 0, []
        for x in w.letters:
            nxt = self.step(at, x)
            if nxt is None:
                return None
            j = index.get((at, x) if x > 0 else (nxt, -x))
            if j is not None:
                out.append(j if x > 0 else -j)
            at = nxt
        return tuple(out) if at == 0 else None


# ---------------------------------------------------------------------------
# the fold: union-find vertex merging with a worklist, optionally witnessed

Expr = tuple[int, ...]  # signed 1-based indices into the generators


def _inv(e: Expr) -> Expr:
    return tuple(-j for j in reversed(e))


def _mul(a: Expr, b: Expr) -> Expr:
    if not a:
        return b
    if not b:
        return a
    return free_reduce(a + b)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.pot: dict[int, Expr] = {}  # filled by _PotentialUnionFind only

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def link(self, winner: int, loser: int, pot: Expr = ()) -> None:
        self.parent[loser] = winner
        self.size[winner] += self.size[loser]
        if pot:
            self.pot[loser] = pot


class _PotentialUnionFind(_UnionFind):
    """Union-find whose links carry potentials.

    With V(v) the fixed base-path word of vertex v, pot[v] is an
    expression for V(v)·V(parent[v])⁻¹ (absent when empty).  Path
    compression composes potentials, so right after ``find(v)``,
    ``pot.get(v, ())`` is an expression for V(v)·V(root)⁻¹.
    """

    def find(self, v: int) -> int:
        parent = self.parent
        root = parent[v]
        if parent[root] == root:  # v is a root or a child of one
            return root
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        pot = self.pot
        acc: Expr = ()
        for w in reversed(path):
            acc = _mul(pot.get(w, ()), acc)
            parent[w] = v
            if acc:
                pot[w] = acc
            else:
                pot.pop(w, None)
        return v


def _fold_edges(
    n: int, edges: Iterable[Edge], exprs: dict[int, Expr] | None = None
) -> tuple[_UnionFind, Table, Table, dict[tuple[int, int], Expr]]:
    """Fold an edge list; returns the vertex union-find and the folded
    succ/pred tables.

    The tables are indexed by the original vertex ids; a vertex merged
    away has none of their records, and every record names a root.
    Vertex 0 stays a root.  With ``exprs`` (edge position → expression
    for V(u)·x·V(v)⁻¹, empty ones left out) the fold is witnessed: the
    union-find keeps potentials, every merge records the relation that
    forced it, and the last result maps each folded edge (u, x) to an
    expression for V(u)·x·V(v)⁻¹.  Without it that map is empty.
    """
    witnessed = exprs is not None
    uf = _PotentialUnionFind(n) if witnessed else _UnionFind(n)
    find, pot = uf.find, uf.pot
    out: Table = [dict() for _ in range(n)]
    inn: Table = [dict() for _ in range(n)]
    # non-empty edge expressions by out-record: ex[(u, x)] is for
    # V(u)·x·V(out[u][x])⁻¹, with the target as stored
    ex: dict[tuple[int, int], Expr] = {}
    # pending merges (a, b, d), d an expression for V(a)·V(b)⁻¹
    unions: deque[tuple[int, int, Expr]] = deque()

    def at_roots(u: int, e: Expr, v: int) -> Expr:
        """e, for V(u)·…·V(v)⁻¹, rewritten for the roots; u, v just found."""
        pu, pv = pot.get(u), pot.get(v)
        if pu:
            e = _mul(_inv(pu), e)
        return _mul(e, pv) if pv else e

    def insert(u: int, x: int, v: int, e: Expr = ()) -> None:
        ru, rv = find(u), find(v)
        if witnessed:
            e = at_roots(u, e, v)
        t = out[ru].get(x)
        if t is not None:
            rt = find(t)
            out[ru][x] = rt
            d: Expr = ()
            if witnessed:
                f = at_roots(ru, ex.pop((ru, x), ()), t)
                if f:
                    ex[(ru, x)] = f
                d = _mul(_inv(f), e)
            if rt != rv:
                unions.append((rt, rv, d))
            return  # absorbed into the existing edge
        s = inn[rv].get(x)
        if s is not None:
            rs = find(s)
            inn[rv][x] = rs
            if rs != ru:
                d = ()
                if witnessed:
                    t = out[rs][x]
                    find(t)
                    d = _mul(at_roots(rs, ex.get((rs, x), ()), t), _inv(e))
                unions.append((rs, ru, d))
            return
        out[ru][x] = rv
        inn[rv][x] = ru
        if e:
            ex[(ru, x)] = e

    def drain() -> None:
        while unions:
            a, b, d = unions.popleft()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if witnessed:
                d = at_roots(a, d, b)  # now for V(ra)·V(rb)⁻¹
            # union by size; vertex 0 always wins
            if rb == 0 or (ra != 0 and uf.size[ra] < uf.size[rb]):
                winner, loser = rb, ra
            else:
                winner, loser = ra, rb
            lo_out, lo_in = out[loser], inn[loser]
            out[loser], inn[loser] = {}, {}
            # Drop the moved edges' records held at other vertices first;
            # a stale record would make insert() mistake the edge being
            # re-homed for an already-present one and lose or keep it wrongly.
            # Edges into the loser move with their out-record's expression;
            # loops move with lo_out.
            for x, t in lo_out.items():
                r = find(t)
                if x in inn[r] and find(inn[r][x]) == loser:
                    del inn[r][x]
            moved_in = []
            for x, s in lo_in.items():
                r = find(s)
                if x in out[r] and find(out[r][x]) == loser:
                    e = ex.pop((r, x), ()) if witnessed else ()
                    moved_in.append((r, x, out[r].pop(x), e))
            uf.link(winner, loser, _inv(d) if d and loser == rb else d)
            for x, t in lo_out.items():
                insert(loser, x, t, ex.pop((loser, x), ()) if witnessed else ())
            for s, x, t, e in moved_in:
                insert(s, x, t, e)

    for i, (u, x, v) in enumerate(edges):
        insert(u, x, v, exprs.get(i, ()) if witnessed else ())
        drain()
    folded_ex: dict[tuple[int, int], Expr] = {}
    for u, succ in enumerate(out):  # only roots have records
        for x, t in succ.items():
            r = find(t)
            if witnessed:
                e = at_roots(u, ex.get((u, x), ()), t)
                if e:
                    folded_ex[(u, x)] = e
            succ[x] = r
    for pred in inn:
        for x, s in pred.items():
            pred[x] = find(s)
    return uf, out, inn, folded_ex


def _bfs_tree(succ: Table, pred: Table, rank: int) -> dict[int, tuple[int, int]]:
    """Breadth-first spanning tree from vertex 0 of a folded graph.

    Labels are walked in ascending order, outgoing edges before
    incoming ones; the canonical numbering and the free-basis words
    depend on that order.  Returns via[v] = (parent, signed letter read
    from the parent to v) in discovery order, with via[0] = (0, 0).
    """
    via = {0: (0, 0)}
    order = [0]
    labels = range(1, rank + 1)
    for v in order:  # order grows as vertices are discovered
        out, inn = succ[v], pred[v]
        for x in labels:
            w = out.get(x)
            if w is not None and w not in via:
                via[w] = (v, x)
                order.append(w)
            w = inn.get(x)
            if w is not None and w not in via:
                via[w] = (v, -x)
                order.append(w)
    return via


def _core_and_canonical(
    basis: Basis, succ: Table, pred: Table
) -> tuple[StallingsGraph, dict[int, int]]:
    """Core of a connected folded graph with base 0, canonically numbered.

    Prunes hanging trees off the tables in place: a vertex other than
    the base with one record is a leaf, and deleting its record may
    make a leaf of its neighbour.  Returns the graph and the old-id →
    new-id map of the core's vertices.
    """
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
    via = _bfs_tree(succ, pred, basis.rank)
    new = dict(zip(via, range(len(via))))
    graph = StallingsGraph.__new__(StallingsGraph)
    graph._adopt(
        basis,
        [{x: new[t] for x, t in succ[v].items()} for v in new],
        [{x: new[s] for x, s in pred[v].items()} for v in new],
    )
    return graph, new


def _petals(
    gens: Sequence[Word], witnessed: bool = False, n: int = 1
) -> tuple[int, list[Edge], dict[int, Expr] | None]:
    """Wedge of loops at vertex 0 spelling the generators.

    Inner petal vertices are numbered from ``n`` on.  Returns the vertex
    count, the edges and, when ``witnessed``, the closing edges'
    expressions by edge position.  V(v) of a petal vertex is a prefix of
    its generator, so the other edges' are empty.
    """
    edges: list[Edge] = []
    exprs: dict[int, Expr] | None = {} if witnessed else None
    for j, g in enumerate(gens, start=1):
        ls = free_reduce(g.letters)
        if not ls:
            continue
        prev = 0
        for i, x in enumerate(ls):
            nxt = 0 if i == len(ls) - 1 else n
            if nxt:
                n += 1
            elif witnessed:
                exprs[len(edges)] = (j,) if x > 0 else (-j,)
            edges.append((prev, x, nxt) if x > 0 else (nxt, -x, prev))
            prev = nxt
    return n, edges, exprs


def _checked(b: Basis, gens: Iterable[Word]) -> list[Word]:
    gens = list(gens)
    for g in gens:
        if g.basis != b:
            raise BasisMismatchError("generator over a different basis")
    return gens


def _fold_onto(h: StallingsGraph, gens: Sequence[Word]) -> StallingsGraph:
    """Folded core graph of ⟨H ∪ gens⟩: the petals of ``gens`` wedged at
    H's basepoint and folded together with H's edges.  Folding is
    confluent, so this equals folding H's generators and ``gens`` anew."""
    n, edges, _ = _petals(gens, n=h.n_vertices)
    _, succ, pred, _ = _fold_edges(n, list(h.edges) + edges)
    graph, _ = _core_and_canonical(h.basis, succ, pred)
    return graph


def stallings_graph(b: Basis, gens: Iterable[Word]) -> StallingsGraph:
    """Folded core graph of the subgroup generated by ``gens``."""
    return _fold_onto(trivial_subgroup(b), _checked(b, gens))


@dataclass(frozen=True, eq=False)
class WitnessedGraph:
    """Folded core graph of ⟨gens⟩ whose edges carry generator expressions.

    ``graph`` is the canonical graph, equal to ``stallings_graph(b,
    gens)``.  Fixing one basepoint path word V(v) per vertex, with V(0)
    empty, every edge (u, x, v) carries an expression over ``gens``
    (signed 1-based indices) whose value is V(u)·x·V(v)⁻¹, an element
    of the subgroup; the fold's potentials supply them.  Concatenating
    expressions along an accepted basepoint loop yields the loop's
    product certificate in terms of ``gens``.
    """

    gens: tuple[Word, ...]
    graph: StallingsGraph
    _exprs: dict[tuple[int, int], Expr]  # by (source, label); empty ones left out

    @property
    def basis(self) -> Basis:
        return self.graph.basis

    def express(self, w: Word) -> tuple[int, ...] | None:
        """w as a signed product over ``gens`` (1-based), or None."""
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        at = 0
        out: list[int] = []
        for x in w.letters:
            nxt = self.graph.step(at, x)
            if nxt is None:
                return None
            if x > 0:
                out.extend(self._exprs.get((at, x), ()))
            else:
                out.extend(_inv(self._exprs.get((nxt, -x), ())))
            at = nxt
        if at != 0:
            return None
        return free_reduce(out)

    def evaluate(self, expr: Iterable[int]) -> Word:
        """Evaluate a signed product over ``gens`` back to a word."""
        gens = self.gens
        parts = (gens[j - 1] if j > 0 else gens[-j - 1].inverse() for j in expr)
        return concat_all(self.basis, parts)

    def is_rose(self) -> bool:
        return self.graph == full_group(self.basis)


def witnessed_graph(b: Basis, gens: Sequence[Word]) -> WitnessedGraph:
    """Folded graph of ⟨gens⟩ with membership certificates."""
    gens = _checked(b, gens)
    n, edges, exprs = _petals(gens, witnessed=True)
    _, succ, pred, folded_ex = _fold_edges(n, edges, exprs)
    graph, new = _core_and_canonical(b, succ, pred)
    # pruning deleted the records of edges off the core
    kept = {(new[u], x): e for (u, x), e in folded_ex.items() if x in succ[u]}
    return WitnessedGraph(tuple(gens), graph, kept)


def trivial_subgroup(b: Basis) -> StallingsGraph:
    return StallingsGraph(b, 1, [])


def full_group(b: Basis) -> StallingsGraph:
    return StallingsGraph(b, 1, [(0, x, 0) for x in range(1, b.rank + 1)])


def conjugate_subgroup(h: StallingsGraph, g: Word) -> StallingsGraph:
    """Graph of g·H·g⁻¹."""
    gens = [concat_all(h.basis, [g, w, g.inverse()]) for w in h.free_basis()]
    return stallings_graph(h.basis, gens)


def subgroup_equal(a: StallingsGraph, c: StallingsGraph) -> bool:
    """Graphs are canonical, so equality of graphs is equality of subgroups."""
    return a == c


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
    graph, _ = _core_and_canonical(a.basis, succ, pred)
    return graph


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
    edges: list[Edge] = list(g.edges)
    n = g.n_vertices
    prev = 0
    for x in tail:
        nxt = n
        n += 1
        edges.append((prev, x, nxt) if x > 0 else (nxt, -x, prev))
        prev = nxt
    uf, succ, pred, _ = _fold_edges(n, edges)
    return succ, pred, uf.find(prev)


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
