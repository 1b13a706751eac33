"""Graphs of groups over a free group, map-fixedness certificates, and
the induced decomposition of the mapping torus.

A splitting of the fiber F is stored as its quotient graph of groups:
vertex groups are folded subgroup graphs, edge groups are trivial or
cyclic (one word y, lying in both endpoint groups), and free
splittings may carry one stable letter per independent loop so that
generation of F can be folded and checked.

Fixedness under a map Φ is certified by a supplied witness (a graph
self-map σ plus one corrector word per vertex); the witness is
verified, never searched for.  A verified witness induces a splitting
of G = F ⋊ Z: σ-orbits become the quotient graph, an edge orbit of
period n with fiber y and accumulated corrector x gets edge group
⟨x·tⁿ⟩ ≅ Z when y is trivial and ⟨y⟩ ⋊ ⟨x·tⁿ⟩ otherwise, the twist
recording whether conjugation by x·tⁿ sends y to y or to y⁻¹.

Hierarchies are family trees of iterated splittings with explicit
terminal statuses; depth and completeness are bookkeeping, and the
G-side hierarchy mirrors the F-side one node for node.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .automorphisms import Automorphism, apply_power
from .folding import (
    StallingsGraph,
    double_coset_contains,
    full_group,
    stallings_graph,
)
from .words import Basis, Lines, VerificationError, Word, WordSyntaxError, put_once
from .words import basis as make_basis, cyclic_word, identity


class SplittingViolation(ValueError):
    """A graph-of-groups invariant failed; the message names the check."""


@dataclass(frozen=True)
class GogVertex:
    name: str
    group: StallingsGraph


@dataclass(frozen=True)
class GogEdge:
    name: str
    u: str
    v: str
    fiber: Word | None = None
    stable_letter: Word | None = None


@dataclass(frozen=True)
class GraphOfGroups:
    basis: Basis
    vertices: tuple[GogVertex, ...]
    edges: tuple[GogEdge, ...]

    @property
    def kind(self) -> str:
        return "free" if all(e.fiber is None for e in self.edges) else "cyclic"


def _spanning_tree(gog: GraphOfGroups) -> tuple[set[str], set[str]]:
    """Tree edge names and reached vertices of a Prim tree that holds
    as few stable-letter edges as any spanning tree: each step takes the
    first edge leaving the tree in (has stable letter, name) order."""
    order = sorted(
        (e for e in gog.edges if e.u != e.v),
        key=lambda e: (e.stable_letter is not None, e.name),
    )
    reached = {gog.vertices[0].name} if gog.vertices else set()
    tree: set[str] = set()
    while e := next((f for f in order if (f.u in reached) != (f.v in reached)), None):
        tree.add(e.name)
        reached.update((e.u, e.v))
    return tree, reached


def validate_splitting(gog: GraphOfGroups) -> None:
    """Check structural, membership, rank-count, and generation
    invariants; raises SplittingViolation naming the first failure."""
    b = gog.basis
    names = [v.name for v in gog.vertices]
    if len(set(names)) != len(names):
        raise SplittingViolation("duplicate vertex name")
    if not names:
        raise SplittingViolation("a splitting needs at least one vertex")
    enames = [e.name for e in gog.edges]
    if len(set(enames)) != len(enames):
        raise SplittingViolation("duplicate edge name")
    by_name = {v.name: v for v in gog.vertices}
    for e in gog.edges:
        if e.u not in by_name or e.v not in by_name:
            raise SplittingViolation(f"edge {e.name}: unknown endpoint")
        if e.fiber is not None:
            if e.stable_letter is not None:
                raise SplittingViolation(
                    f"edge {e.name}: a cyclic edge cannot carry a stable letter"
                )
            if not e.fiber.letters:
                raise SplittingViolation(f"edge {e.name}: cyclic edge word is trivial")
            core = cyclic_word(e.fiber)
            if core.length != len(e.fiber):
                raise SplittingViolation(
                    f"edge {e.name}: edge word is not cyclically reduced"
                )
            for side, end in (("u", e.u), ("v", e.v)):
                if not by_name[end].group.accepts(e.fiber):
                    raise SplittingViolation(
                        f"edge {e.name}: boundary word {e.fiber} is not in the {side}-side vertex group"
                    )
    tree, reached = _spanning_tree(gog)
    if reached != set(names):
        raise SplittingViolation("underlying graph is not connected")
    lhs = 1 - b.rank
    rhs = sum(1 - v.group.rank() for v in gog.vertices)
    rhs -= sum(1 - (0 if e.fiber is None else 1) for e in gog.edges)
    if lhs != rhs:
        raise SplittingViolation(
            f"rank count fails: 1-rank(F) = {lhs} but the splitting gives {rhs}"
        )
    nontree = [e for e in gog.edges if e.name not in tree]
    if all(e.stable_letter is not None for e in nontree):
        gens: list[Word] = []
        for v in gog.vertices:
            gens.extend(v.group.free_basis())
        gens.extend(e.stable_letter for e in nontree)  # type: ignore[misc]
        if stallings_graph(b, gens) != full_group(b):
            raise SplittingViolation(
                "vertex groups and stable letters do not generate the whole group"
            )


# ---------------------------------------------------------------------------
# fixedness witnesses


@dataclass(frozen=True)
class FixedSplittingWitness:
    """σ on vertices and edges (with orientation flips) plus corrector
    words, each keyed by name; a name left out is fixed, unflipped, or
    uncorrected.  At vertex v the map a ↦ x_v·Φ(a)·x_v⁻¹ must carry the
    group at v into the group at σ(v)."""

    vertex_map: dict[str, str] = field(default_factory=dict)
    edge_map: dict[str, tuple[str, bool]] = field(default_factory=dict)
    correctors: dict[str, Word] = field(default_factory=dict)

    def sigma_vertex(self, name: str) -> str:
        return self.vertex_map.get(name, name)

    def sigma_edge(self, name: str) -> tuple[str, bool]:
        return self.edge_map.get(name, (name, False))

    def corrector(self, name: str, b: Basis) -> Word:
        w = self.correctors.get(name)
        return identity(b) if w is None else w


def _check_witness_shape(gog: GraphOfGroups, witness: FixedSplittingWitness) -> None:
    vnames = {v.name for v in gog.vertices}
    enames = {e.name for e in gog.edges}
    for a, b in witness.vertex_map.items():
        if a not in vnames or b not in vnames:
            raise ValueError(f"witness maps unknown vertex {a!r} or {b!r}")
    for a, (b, _) in witness.edge_map.items():
        if a not in enames or b not in enames:
            raise ValueError(f"witness maps unknown edge {a!r} or {b!r}")
    for a in witness.correctors:
        if a not in vnames:
            raise ValueError(f"corrector for unknown vertex {a!r}")
    if len({witness.sigma_vertex(n) for n in vnames}) != len(vnames):
        raise ValueError("witness vertex map is not a permutation")
    if len({witness.sigma_edge(n)[0] for n in enames}) != len(enames):
        raise ValueError("witness edge map is not a permutation")


def verify_fixed(
    gog: GraphOfGroups, phi: Automorphism, witness: FixedSplittingWitness
) -> bool:
    """Whether the witness certifies that Φ fixes the splitting.

    Checks that σ is a graph automorphism, that corrected images of
    vertex groups land in the image vertex groups, that each cyclic
    edge's word, corrected at either end, maps into the image edge's
    cyclic group, and (when stable letters are given) that corrected
    stable-letter images lie in the matching double coset.
    """
    b = gog.basis
    if phi.basis != b:
        raise ValueError("map and splitting use different bases")
    _check_witness_shape(gog, witness)
    by_name = {v.name: v for v in gog.vertices}
    by_edge = {e.name: e for e in gog.edges}
    for e in gog.edges:
        f_name, flip = witness.sigma_edge(e.name)
        f = by_edge[f_name]
        src, tgt = (f.v, f.u) if flip else (f.u, f.v)
        if (witness.sigma_vertex(e.u), witness.sigma_vertex(e.v)) != (src, tgt):
            return False
        # σ permutes the edges: a trivial→cyclic edge forces a cyclic→trivial one, refused here
        if e.fiber is not None:
            if f.fiber is None:
                return False
            target = stallings_graph(b, [f.fiber])
            image = phi.apply(e.fiber)
            for end in (e.u, e.v):
                x = witness.corrector(end, b)
                if not target.accepts(x * image * x.inverse()):
                    return False
        if e.stable_letter is not None and f.stable_letter is not None:
            xu = witness.corrector(e.u, b)
            xv = witness.corrector(e.v, b)
            left = by_name[witness.sigma_vertex(e.u)].group
            right = by_name[witness.sigma_vertex(e.v)].group
            s = f.stable_letter.inverse() if flip else f.stable_letter
            moved = xu * phi.apply(e.stable_letter) * xv.inverse()
            if not double_coset_contains(left, s, right, moved):
                return False
    for v in gog.vertices:
        x = witness.corrector(v.name, b)
        target = by_name[witness.sigma_vertex(v.name)].group
        for w in v.group.free_basis():
            if not target.accepts(x * phi.apply(w) * x.inverse()):
                return False
    return True


# ---------------------------------------------------------------------------
# induced splitting of the mapping torus


@dataclass(frozen=True)
class TorusVertexGroup:
    """⟨fiber vertex group, x·tⁿ⟩ at an orbit representative."""

    name: str
    fiber_group: StallingsGraph
    holonomy: Word
    period: int

    def label(self) -> str:
        gens = [str(w) for w in self.fiber_group.free_basis()]
        gens.append(_section_label(self.holonomy, self.period))
        return "< " + ", ".join(gens) + " >"


@dataclass(frozen=True)
class TorusEdgeGroup:
    """Edge stabilizer data: ⟨x·tⁿ⟩ ≅ Z when the fiber word is trivial,
    ⟨y⟩ ⋊ ⟨x·tⁿ⟩ with the recorded twist otherwise."""

    name: str
    u: str
    v: str
    fiber: Word | None
    holonomy: Word
    period: int
    twist: int | None

    @property
    def kind(self) -> str:
        return "Z" if self.fiber is None else "Z-by-Z"

    def label(self) -> str:
        s = _section_label(self.holonomy, self.period)
        if self.fiber is None:
            return f"< {s} >"
        return f"< {self.fiber}, {s} >"


def _section_label(x: Word, n: int) -> str:
    t = "t" if n == 1 else f"t^{n}"
    return t if not x.letters else f"{x} {t}"


@dataclass(frozen=True)
class TorusSplitting:
    phi: Automorphism
    vertices: tuple[TorusVertexGroup, ...]
    edges: tuple[TorusEdgeGroup, ...]

    @property
    def kind(self) -> str:
        """Z when induced from a free splitting, slender from a cyclic one."""
        return "Z" if all(e.fiber is None for e in self.edges) else "slender"


def _orbit(start, step) -> list:
    out = [start]
    cur = step(start)
    while cur != start:
        out.append(cur)
        cur = step(cur)
    return out


def _accumulate_corrector(
    phi: Automorphism, b: Basis, correctors: Sequence[Word]
) -> Word:
    """x_{σⁿ⁻¹v}·Φ(x_{σⁿ⁻²v})·…·Φⁿ⁻¹(x_v) for the chain x_v, x_{σv}, …,
    by Horner's rule: n applications of Φ, not n(n−1)/2."""
    acc = identity(b)
    for x in correctors:
        acc = x * phi.apply(acc)
    return acc


def induce_torus_splitting(
    gog: GraphOfGroups,
    phi: Automorphism,
    witness: FixedSplittingWitness,
) -> TorusSplitting:
    """Splitting of F ⋊ Z induced by a verified fixed splitting of F.

    The splitting is validated and the witness verified first.
    Quotient graph = σ-orbits; an orbit of period n contributes the
    extension of its representative's group by x·tⁿ, where x is the
    corrector product accumulated along the orbit.
    """
    validate_splitting(gog)
    if not verify_fixed(gog, phi, witness):
        raise ValueError("witness does not certify the splitting as fixed")
    b = gog.basis
    if b.rank < 2:
        raise ValueError("the fiber group must be noncyclic")
    by_name = {v.name: v for v in gog.vertices}
    by_edge = {e.name: e for e in gog.edges}

    vertex_rep: dict[str, str] = {}
    out_vertices = []
    for v in gog.vertices:
        orbit = _orbit(v.name, witness.sigma_vertex)
        rep = min(orbit)
        vertex_rep.update(dict.fromkeys(orbit, rep))
        if v.name != rep:
            continue
        x = _accumulate_corrector(phi, b, [witness.corrector(name, b) for name in orbit])
        out_vertices.append(TorusVertexGroup(rep, by_name[rep].group, x, len(orbit)))

    def edge_step(state: tuple[str, bool]) -> tuple[str, bool]:
        image, flip = witness.sigma_edge(state[0])
        return image, state[1] ^ flip

    out_edges = []
    done: set[str] = set()
    for e in gog.edges:
        if e.name in done:
            continue
        # the oriented orbit: it ends when the edge returns with even flip
        chain = _orbit((e.name, False), edge_step)
        n = len(chain)
        done.update(nm for nm, _ in chain)
        ends = [by_edge[nm].v if par else by_edge[nm].u for nm, par in chain]
        x = _accumulate_corrector(phi, b, [witness.corrector(s, b) for s in ends])
        twist: int | None = None
        if e.fiber is not None:
            y = e.fiber
            z = x * apply_power(phi, n, y) * x.inverse()
            # the verified witness puts z in ⟨y⟩, so z = yᵐ.  With r the
            # root of y, ψ = i_x∘Φⁿ has ψ(r) = rᵐ, so r = ψ⁻¹(r)ᵐ, and a
            # root is no proper power: m = ±1.  A miss here is a bug.
            if z == y:
                twist = 1
            elif z == y.inverse():
                twist = -1
            else:
                raise VerificationError(
                    f"edge {e.name}: holonomy does not preserve the edge group"
                )
        out_edges.append(
            TorusEdgeGroup(
                e.name, vertex_rep[e.u], vertex_rep[e.v], e.fiber, x, n, twist
            )
        )
    return TorusSplitting(phi, tuple(out_vertices), tuple(out_edges))


# ---------------------------------------------------------------------------
# hierarchies


@dataclass(frozen=True)
class HierarchyNode:
    """One group in the family tree.

    ``group`` is a folded subgroup on the F side or a symbolic label
    on the G side.  ``status`` is meaningful on leaves: absolute,
    no-splitting, or unexpanded.
    """

    name: str
    group: StallingsGraph | str
    children: tuple["HierarchyNode", ...] = ()
    splitting: GraphOfGroups | TorusSplitting | None = None
    status: str = "unexpanded"


@dataclass(frozen=True)
class Hierarchy:
    kind: str  # free | cyclic | Z | slender
    root: HierarchyNode


def _nodes(h: Hierarchy) -> Iterator[tuple[HierarchyNode, int]]:
    """Every node of h with its depth below the root, parents first."""
    stack = [(h.root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((c, depth + 1) for c in reversed(node.children))


def hierarchy_depth(h: Hierarchy) -> int:
    return max(depth for _, depth in _nodes(h))


def is_complete(h: Hierarchy) -> bool | None:
    """True when every leaf is absolute, None (unknown) when any leaf
    is unexpanded, False otherwise."""
    leaves = [node for node, _ in _nodes(h) if not node.children]
    if any(n.status == "unexpanded" for n in leaves):
        return None
    return all(n.status == "absolute" for n in leaves)


def _absolute_group(kind: str, g: StallingsGraph) -> bool:
    if kind == "free":
        return g.is_trivial()
    return g.rank() <= 1


def validate_hierarchy(h: Hierarchy) -> None:
    """Structural checks: unique names, splittings on internal nodes,
    children matching the non-absolute vertex groups, and leaf status
    claims verified where groups are explicit."""
    seen: set[str] = set()
    for node, _ in _nodes(h):
        if node.name in seen:
            raise SplittingViolation(f"duplicate hierarchy node name {node.name!r}")
        seen.add(node.name)
        if node.children:
            # splittings are optional on declaration-style records; the
            # children-match invariant is enforced when one is recorded
            if isinstance(node.splitting, GraphOfGroups):
                expected = [
                    v.group
                    for v in node.splitting.vertices
                    if not _absolute_group(h.kind, v.group)
                ]
                # a child's symbolic label never equals a vertex group
                if Counter(expected) != Counter(c.group for c in node.children):
                    raise SplittingViolation(
                        f"node {node.name!r}: children do not match the splitting's non-absolute vertex groups"
                    )
        elif node.status == "absolute" and h.kind in ("free", "cyclic"):
            # a leaf is absolute when its group needs no expansion, or
            # when its recorded splitting has only absolute vertex groups
            if isinstance(node.splitting, GraphOfGroups):
                if any(
                    not _absolute_group(h.kind, v.group)
                    for v in node.splitting.vertices
                ):
                    raise SplittingViolation(
                        f"leaf {node.name!r} claims absolute but its splitting is not"
                    )
            elif isinstance(node.group, StallingsGraph) and not _absolute_group(
                h.kind, node.group
            ):
                raise SplittingViolation(
                    f"leaf {node.name!r} claims absolute but its group is not"
                )


def induce_hierarchy(
    h: Hierarchy, phi: Automorphism, witness: FixedSplittingWitness | None = None
) -> Hierarchy:
    """Mirror an F-side hierarchy to the G side, node for node.

    The root splitting is induced properly when a witness is given;
    deeper nodes keep their shape with symbolic G-side labels, so
    depth and statuses carry over unchanged.
    """
    if h.kind not in ("free", "cyclic"):
        raise ValueError("only F-side hierarchies can be induced")
    kind = "Z" if h.kind == "free" else "slender"

    def label_of(node: HierarchyNode) -> str:
        if isinstance(node.group, StallingsGraph):
            gens = [str(w) for w in node.group.free_basis()]
            return "< " + ", ".join(gens + ["t-power"]) + " >"
        return str(node.group)

    def mirror(node: HierarchyNode, at_root: bool) -> HierarchyNode:
        split: TorusSplitting | None = None
        if (
            at_root
            and witness is not None
            and isinstance(node.splitting, GraphOfGroups)
        ):
            split = induce_torus_splitting(node.splitting, phi, witness)
        return HierarchyNode(
            name=node.name,
            group=label_of(node),
            children=tuple(mirror(c, False) for c in node.children),
            splitting=split,
            status=node.status,
        )

    return Hierarchy(kind, mirror(h.root, True))


# ---------------------------------------------------------------------------
# file parsing


def _basis_line(line: str, b: Basis | None) -> Basis:
    """The basis a ``basis:`` line declares; it must match ``b`` if given."""
    declared = make_basis(line[len("basis:"):].strip())
    if b is not None and b != declared:
        raise WordSyntaxError("basis does not match the ambient one")
    return declared


def _named(line: str, what: str, layout: str) -> tuple[str, str]:
    """A ``name: rest`` line's name, one whitespace-free token, and its rest."""
    if ":" not in line:
        raise WordSyntaxError(f"expected '{layout}'")
    name, rest = line.split(":", 1)
    name = name.strip()
    if not name:
        raise WordSyntaxError(f"missing {what} name")
    if len(name.split()) > 1:
        raise WordSyntaxError(f"{what} name {name!r} contains whitespace")
    return name, rest


def parse_splitting(
    text: str, b: Basis | None = None
) -> tuple[GraphOfGroups, FixedSplittingWitness | None]:
    """Parse a splitting file; see docs/formats.md for the layout.

    Sections [vertices], [edges], and optional [witness]; malformed
    lines raise WordSyntaxError with their line number.
    """
    section = witness = None
    vertices: list[GogVertex] = []
    edges: list[GogEdge] = []
    with Lines(text) as lines:
        for line in lines:
            line = line.lstrip()
            if line.startswith("basis:"):
                if section is not None:
                    raise WordSyntaxError("basis must come before any section")
                b = _basis_line(line, b)
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("vertices", "edges", "witness"):
                    raise WordSyntaxError(f"unknown section {section!r}")
                if section == "witness" and witness is None:
                    witness = FixedSplittingWitness()
                continue
            if b is None:
                raise WordSyntaxError("basis must come first")
            if section == "vertices":
                name, rest = _named(line, "vertex", "name: words")
                gens = [b.parse(part) for part in rest.split("|") if part.strip()]
                vertices.append(GogVertex(name, stallings_graph(b, gens)))
            elif section == "edges":
                name, rest = _named(line, "edge", "name: u v ; fields")
                fields = rest.split(";")
                ends = fields[0].split()
                if len(ends) != 2:
                    raise WordSyntaxError("expected two endpoints")
                given: dict[str, Word] = {}
                for f in filter(str.strip, fields[1:]):
                    key, eq, val = f.partition("=")
                    if not eq:
                        raise WordSyntaxError("expected 'key = word'")
                    w, key = b.parse(val), key.strip()
                    if key not in ("y", "s"):
                        raise WordSyntaxError(f"unknown edge field {key!r}")
                    put_once(given, key, w, "edge field")
                edges.append(GogEdge(name, *ends, given.get("y"), given.get("s")))
            elif section == "witness":
                parts = line.split()
                head, colon, rest = line.partition(":")
                if parts[0] == "map" and len(parts) == 4 and parts[2] == "->":
                    entries, key, entry = witness.vertex_map, parts[1], parts[3]
                elif parts[0] == "edge" and len(parts) in (4, 5) and parts[2] == "->":
                    if len(parts) == 5 and parts[4] != "!":
                        raise WordSyntaxError("expected '!' flip marker")
                    entries, key, entry = witness.edge_map, parts[1], (parts[3], len(parts) == 5)
                elif colon and len(head.split()) == 2 and head.split()[0] == "corrector":
                    entries, key, entry = witness.correctors, head.split()[1], b.parse(rest)
                else:
                    raise WordSyntaxError("unrecognized witness line")
                put_once(entries, key, entry, "witness entry for")
            else:
                raise WordSyntaxError("content outside any section")
        if b is None:
            raise WordSyntaxError("no basis line found")
    return GraphOfGroups(b, tuple(vertices), tuple(edges)), witness


def _spaced(b: Basis, word: str) -> str:
    """A ``group=`` word with ``_`` as spaces except within names, longest name first."""
    names = sorted((n for n in b.names if "_" in n), key=len, reverse=True)
    if not names:
        return word.replace("_", " ")
    name = rf"(?<![^_])(?:{'|'.join(map(re.escape, names))})(?=['^_]|$)"
    return re.sub(f"{name}|_", lambda m: " " if m[0] == "_" else m[0], word)


def parse_hierarchy(text: str) -> Hierarchy:
    """Parse an indented hierarchy file; see docs/formats.md.

    One node per line, two-space indentation for children, fields
    ``group=w1|w2`` and ``status=...`` after the node name, each at
    most once.
    """
    b: Basis | None = None
    kind: str | None = None
    # (depth, name, group, status, children) of each node whose subtree is still open;
    # a node is built when a line at its depth or above, or the end, closes it
    open_nodes: list[tuple[int, str, StallingsGraph, str, list[HierarchyNode]]] = []
    roots: list[HierarchyNode] = []

    def close(depth: int) -> None:
        """Build every open node at ``depth`` or deeper."""
        while open_nodes and open_nodes[-1][0] >= depth:
            _, name, group, status, children = open_nodes.pop()
            node = HierarchyNode(name, group, tuple(children), None, status)
            (open_nodes[-1][4] if open_nodes else roots).append(node)

    with Lines(text) as lines:
        for line in lines:
            stripped = line.lstrip()
            if stripped.startswith("basis:"):
                if open_nodes or roots:
                    raise WordSyntaxError("basis must come before the nodes")
                b = _basis_line(stripped, b)
                continue
            if stripped.startswith("kind:"):
                if kind is not None:
                    raise WordSyntaxError("duplicate kind line")
                if open_nodes or roots:
                    raise WordSyntaxError("kind must come before the nodes")
                kind = stripped[len("kind:"):].strip()
                if kind not in ("free", "cyclic"):
                    raise WordSyntaxError("kind must be free or cyclic")
                continue
            if b is None:
                raise WordSyntaxError("basis must come first")
            depth, odd = divmod(len(line) - len(stripped), 2)
            if odd:
                raise WordSyntaxError("indentation must be even")
            name, *parts = stripped.split()
            fields: dict[str, str] = {}
            group = None
            for p in parts:
                key, eq, val = p.partition("=")
                if not eq or key not in ("group", "status"):
                    raise WordSyntaxError(f"unknown field {p!r}")
                put_once(fields, key, val, "field")
                if key == "group":
                    gens = [b.parse(_spaced(b, g)) for g in val.split("|") if g]
                    group = stallings_graph(b, gens)
                elif val not in ("absolute", "no-splitting", "unexpanded"):
                    raise WordSyntaxError(f"unknown status {val!r}")
            close(depth)
            if not open_nodes and roots:
                raise WordSyntaxError("more than one root")
            if open_nodes and depth != open_nodes[-1][0] + 1:
                raise WordSyntaxError("indentation jumps a level")
            status = fields.get("status", "unexpanded")
            open_nodes.append((depth, name, group or full_group(b), status, []))
    close(0)
    if not roots:
        raise WordSyntaxError("no hierarchy nodes found")
    return Hierarchy(kind or "free", roots[0])


__all__ = [
    "FixedSplittingWitness",
    "GogEdge",
    "GogVertex",
    "GraphOfGroups",
    "Hierarchy",
    "HierarchyNode",
    "SplittingViolation",
    "TorusEdgeGroup",
    "TorusSplitting",
    "TorusVertexGroup",
    "hierarchy_depth",
    "induce_hierarchy",
    "induce_torus_splitting",
    "is_complete",
    "parse_hierarchy",
    "parse_splitting",
    "validate_hierarchy",
    "validate_splitting",
    "verify_fixed",
]
