"""Graphs of groups over a free group, map-fixedness certificates, and
the induced decomposition of the mapping torus.

A splitting of the fiber F is stored as its quotient graph of groups:
vertex groups are folded subgroup graphs, edge groups are trivial or
cyclic with boundary words into the endpoint groups, and free
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

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .automorphisms import Automorphism, _parse_word, apply_power
from .folding import (
    StallingsGraph,
    double_coset_contains,
    full_group,
    stallings_graph,
    subgroup_equal,
)
from .words import Basis, Word, WordSyntaxError, basis as make_basis, cyclic_word, identity, power as word_power


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
    boundary_u: Word | None = None
    boundary_v: Word | None = None
    stable_letter: Word | None = None

    def boundary_at_u(self) -> Word | None:
        return self.boundary_u if self.boundary_u is not None else self.fiber

    def boundary_at_v(self) -> Word | None:
        return self.boundary_v if self.boundary_v is not None else self.fiber


@dataclass(frozen=True)
class GraphOfGroups:
    basis: Basis
    vertices: tuple[GogVertex, ...]
    edges: tuple[GogEdge, ...]

    @property
    def kind(self) -> str:
        return "free" if all(e.fiber is None for e in self.edges) else "cyclic"

    def vertex(self, name: str) -> GogVertex:
        for v in self.vertices:
            if v.name == name:
                return v
        raise KeyError(f"no vertex named {name!r}")


def _spanning_tree(gog: GraphOfGroups) -> tuple[set[str], set[str]]:
    """Tree edge names and reached vertices; edges without stable
    letters are preferred into the tree."""
    order = sorted(
        (e for e in gog.edges if e.u != e.v),
        key=lambda e: (e.stable_letter is not None, e.name),
    )
    reached = {gog.vertices[0].name} if gog.vertices else set()
    tree: set[str] = set()
    grew = True
    while grew:
        grew = False
        for e in order:
            if e.name in tree:
                continue
            if (e.u in reached) != (e.v in reached):
                tree.add(e.name)
                reached.update((e.u, e.v))
                grew = True
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
            if not e.fiber.letters:
                raise SplittingViolation(f"edge {e.name}: cyclic edge word is trivial")
            core = cyclic_word(e.fiber)
            if core.length != len(e.fiber):
                raise SplittingViolation(
                    f"edge {e.name}: edge word is not cyclically reduced"
                )
            for side, w in (("u", e.boundary_at_u()), ("v", e.boundary_at_v())):
                group = by_name[e.u if side == "u" else e.v].group
                if w is None or not w.letters:
                    raise SplittingViolation(f"edge {e.name}: missing boundary word")
                if not group.accepts(w):
                    raise SplittingViolation(
                        f"edge {e.name}: boundary word {w} is not in the {side}-side vertex group"
                    )
        else:
            if e.boundary_u is not None or e.boundary_v is not None:
                raise SplittingViolation(
                    f"edge {e.name}: trivial edge cannot carry boundary words"
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
        if not subgroup_equal(stallings_graph(b, gens), full_group(b)):
            raise SplittingViolation(
                "vertex groups and stable letters do not generate the whole group"
            )


# ---------------------------------------------------------------------------
# fixedness witnesses


@dataclass(frozen=True)
class FixedSplittingWitness:
    """σ on vertices and edges (with orientation flips) plus corrector
    words: at vertex v the map a ↦ x_v·Φ(a)·x_v⁻¹ must carry the group
    at v into the group at σ(v)."""

    vertex_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, str, bool], ...]
    correctors: tuple[tuple[str, Word], ...]

    def __post_init__(self) -> None:
        # lookups by name; built reversed, so a name's first entry wins
        sigma_e = {a: (b, flip) for a, b, flip in reversed(self.edge_map)}
        object.__setattr__(self, "_sigma_v", dict(reversed(self.vertex_map)))
        object.__setattr__(self, "_sigma_e", sigma_e)
        object.__setattr__(self, "_correctors", dict(reversed(self.correctors)))

    def sigma_vertex(self, name: str) -> str:
        return self._sigma_v.get(name, name)

    def sigma_edge(self, name: str) -> tuple[str, bool]:
        return self._sigma_e.get(name, (name, False))

    def corrector(self, name: str, b: Basis) -> Word:
        w = self._correctors.get(name)
        return identity(b) if w is None else w


def identity_witness() -> FixedSplittingWitness:
    return FixedSplittingWitness((), (), ())


def _check_witness_shape(gog: GraphOfGroups, witness: FixedSplittingWitness) -> None:
    vnames = {v.name for v in gog.vertices}
    enames = {e.name for e in gog.edges}
    for a, b in witness.vertex_map:
        if a not in vnames or b not in vnames:
            raise ValueError(f"witness maps unknown vertex {a!r} or {b!r}")
    for a, b, _ in witness.edge_map:
        if a not in enames or b not in enames:
            raise ValueError(f"witness maps unknown edge {a!r} or {b!r}")
    for a, _ in witness.correctors:
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
    vertex groups land in the image vertex groups, that edge boundary
    words map into the image edge's cyclic group, and (when stable
    letters are given) that corrected stable-letter images lie in the
    matching double coset.
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
    for v in gog.vertices:
        x = witness.corrector(v.name, b)
        target = by_name[witness.sigma_vertex(v.name)].group
        for w in v.group.free_basis():
            if not target.accepts(x * phi.apply(w) * x.inverse()):
                return False
    for e in gog.edges:
        f_name, flip = witness.sigma_edge(e.name)
        f = by_edge[f_name]
        if e.fiber is not None:
            if f.fiber is None:
                return False
            pairs = (
                (e.u, e.boundary_at_u(), f.boundary_at_v() if flip else f.boundary_at_u()),
                (e.v, e.boundary_at_v(), f.boundary_at_u() if flip else f.boundary_at_v()),
            )
            for vertex_name, w, target_word in pairs:
                x = witness.corrector(vertex_name, b)
                image = x * phi.apply(w) * x.inverse()
                if not stallings_graph(b, [target_word]).accepts(image):
                    return False
        elif f.fiber is not None:
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
    kind: str  # Z when induced from a free splitting, slender from a cyclic one
    vertices: tuple[TorusVertexGroup, ...]
    edges: tuple[TorusEdgeGroup, ...]


def _orbit(start: str, step) -> list[str]:
    out = [start]
    cur = step(start)
    while cur != start:
        out.append(cur)
        cur = step(cur)
    return out


def _accumulate_corrector(
    phi: Automorphism, b: Basis, correctors: Sequence[Word]
) -> Word:
    """x_{σⁿ⁻¹v}·Φ(x_{σⁿ⁻²v})·…·Φⁿ⁻¹(x_v) for the chain x_v, x_{σv}, …"""
    acc = identity(b)
    for k, x in enumerate(reversed(list(correctors))):
        acc = acc * apply_power(phi, k, x)
    return acc


def induce_torus_splitting(
    gog: GraphOfGroups,
    phi: Automorphism,
    witness: FixedSplittingWitness,
    check: bool = True,
) -> TorusSplitting:
    """Splitting of F ⋊ Z induced by a verified fixed splitting of F.

    Quotient graph = σ-orbits; an orbit of period n contributes the
    extension of its representative's group by x·tⁿ, where x is the
    corrector product accumulated along the orbit.
    """
    b = gog.basis
    if b.rank < 2:
        raise ValueError("the fiber group must be noncyclic")
    if check:
        validate_splitting(gog)
        if not verify_fixed(gog, phi, witness):
            raise ValueError("witness does not certify the splitting as fixed")
    by_name = {v.name: v for v in gog.vertices}
    by_edge = {e.name: e for e in gog.edges}

    vertex_rep: dict[str, str] = {}
    out_vertices = []
    for v in gog.vertices:
        orbit = _orbit(v.name, witness.sigma_vertex)
        rep = min(orbit)
        for name in orbit:
            vertex_rep[name] = rep
        if v.name != rep:
            continue
        xs = [witness.corrector(name, b) for name in orbit]
        x = _accumulate_corrector(phi, b, xs)
        out_vertices.append(TorusVertexGroup(rep, by_name[rep].group, x, len(orbit)))

    out_edges = []
    done: set[str] = set()
    for e in gog.edges:
        if e.name in done:
            continue
        # walk the oriented orbit until the edge returns with even flip
        chain: list[tuple[str, bool]] = [(e.name, False)]
        name, flip = witness.sigma_edge(e.name)
        parity = flip
        while not (name == e.name and not parity):
            chain.append((name, parity))
            nxt, fl = witness.sigma_edge(name)
            name, parity = nxt, parity ^ fl
        n = len(chain)
        done.update(nm for nm, _ in chain)
        srcs = []
        for nm, par in chain:
            edge = by_edge[nm]
            srcs.append(edge.v if par else edge.u)
        xs = [witness.corrector(s, b) for s in srcs]
        x = _accumulate_corrector(phi, b, xs)
        twist: int | None = None
        if e.fiber is not None:
            y = e.fiber
            z = x * apply_power(phi, n, y) * x.inverse()
            m, rem = divmod(len(z), max(len(y), 1))
            if rem or (z != word_power(y, m) and z != word_power(y, -m)):
                raise ValueError(
                    f"edge {e.name}: holonomy does not preserve the edge group"
                )
            if z != word_power(y, m):
                m = -m
            if abs(m) != 1:
                raise ValueError(
                    f"edge {e.name}: holonomy scales the edge group by {m}"
                )
            twist = m
        out_edges.append(
            TorusEdgeGroup(
                e.name, vertex_rep[e.u], vertex_rep[e.v], e.fiber, x, n, twist
            )
        )
    kind = "Z" if gog.kind == "free" else "slender"
    return TorusSplitting(phi, kind, tuple(out_vertices), tuple(out_edges))


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

    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Hierarchy:
    kind: str  # free | cyclic | Z | slender
    root: HierarchyNode


def hierarchy_depth(h: Hierarchy) -> int:
    def depth(node: HierarchyNode) -> int:
        if not node.children:
            return 0
        return 1 + max(depth(c) for c in node.children)

    return depth(h.root)


def is_complete(h: Hierarchy) -> bool | None:
    """True when every leaf is absolute, None (unknown) when any leaf
    is unexpanded, False otherwise."""
    leaves: list[HierarchyNode] = []

    def walk(node: HierarchyNode) -> None:
        if node.is_leaf():
            leaves.append(node)
        for c in node.children:
            walk(c)

    walk(h.root)
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

    def walk(node: HierarchyNode) -> None:
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
        for c in node.children:
            walk(c)

    walk(h.root)


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


def parse_splitting(
    text: str, b: Basis | None = None
) -> tuple[GraphOfGroups, FixedSplittingWitness | None]:
    """Parse a splitting file; see docs/formats.md for the layout.

    Sections [vertices], [edges], and optional [witness]; malformed
    lines raise WordSyntaxError with their line number.
    """
    section = None
    vertices: list[GogVertex] = []
    edges: list[GogEdge] = []
    vmap: list[tuple[str, str]] = []
    emap: list[tuple[str, str, bool]] = []
    corr: list[tuple[str, Word]] = []
    saw_witness = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("basis:"):
            declared = make_basis(line[len("basis:"):].strip())
            if b is not None and b != declared:
                raise WordSyntaxError(
                    f"line {lineno}: basis does not match the ambient one"
                )
            b = declared
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("vertices", "edges", "witness"):
                raise WordSyntaxError(f"line {lineno}: unknown section {section!r}")
            if section == "witness":
                saw_witness = True
            continue
        if b is None:
            raise WordSyntaxError(f"line {lineno}: basis must come first")
        if section == "vertices":
            if ":" not in line:
                raise WordSyntaxError(f"line {lineno}: expected 'name: words'")
            name, rest = line.split(":", 1)
            gens = [
                _parse_word(b, part, lineno)
                for part in rest.split("|")
                if part.strip()
            ]
            vertices.append(GogVertex(name.strip(), stallings_graph(b, gens)))
        elif section == "edges":
            if ":" not in line:
                raise WordSyntaxError(f"line {lineno}: expected 'name: u v ; fields'")
            name, rest = line.split(":", 1)
            fields = rest.split(";")
            ends = fields[0].split()
            if len(ends) != 2:
                raise WordSyntaxError(f"line {lineno}: expected two endpoints")
            fiber = bu = bv = stable = None
            for f in fields[1:]:
                f = f.strip()
                if not f:
                    continue
                if "=" not in f:
                    raise WordSyntaxError(f"line {lineno}: expected 'key = word'")
                key, val = f.split("=", 1)
                w = _parse_word(b, val, lineno)
                key = key.strip()
                if key == "y":
                    fiber = w
                elif key == "yu":
                    bu = w
                elif key == "yv":
                    bv = w
                elif key == "s":
                    stable = w
                else:
                    raise WordSyntaxError(f"line {lineno}: unknown edge field {key!r}")
            edges.append(GogEdge(name.strip(), ends[0], ends[1], fiber, bu, bv, stable))
        elif section == "witness":
            parts = line.split()
            head, colon, rest = line.partition(":")
            if parts[0] == "map" and len(parts) == 4 and parts[2] == "->":
                entries, entry = vmap, (parts[1], parts[3])
            elif parts[0] == "edge" and len(parts) in (4, 5) and parts[2] == "->":
                flip = len(parts) == 5
                if flip and parts[4] != "!":
                    raise WordSyntaxError(f"line {lineno}: expected '!' flip marker")
                entries, entry = emap, (parts[1], parts[3], flip)
            elif colon and len(head.split()) == 2 and head.split()[0] == "corrector":
                entries, entry = corr, (head.split()[1], _parse_word(b, rest, lineno))
            else:
                raise WordSyntaxError(f"line {lineno}: unrecognized witness line")
            if any(e[0] == entry[0] for e in entries):
                raise WordSyntaxError(
                    f"line {lineno}: duplicate witness entry for {entry[0]!r}"
                )
            entries.append(entry)
        else:
            raise WordSyntaxError(f"line {lineno}: content outside any section")
    if b is None:
        raise WordSyntaxError("no basis line found")
    gog = GraphOfGroups(b, tuple(vertices), tuple(edges))
    witness = (
        FixedSplittingWitness(tuple(vmap), tuple(emap), tuple(corr))
        if saw_witness
        else None
    )
    return gog, witness


def parse_hierarchy(text: str, b: Basis | None = None) -> Hierarchy:
    """Parse an indented hierarchy file; see docs/formats.md.

    One node per line, two-space indentation for children, fields
    ``group=w1|w2`` and ``status=...`` after the node name.
    """
    kind = "free"
    stack: list[tuple[int, dict]] = []
    root: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.lstrip()
        if stripped.startswith("basis:"):
            declared = make_basis(stripped[len("basis:"):].strip())
            if b is not None and b != declared:
                raise WordSyntaxError(
                    f"line {lineno}: basis does not match the ambient one"
                )
            b = declared
            continue
        if stripped.startswith("kind:"):
            kind = stripped[len("kind:"):].strip()
            if kind not in ("free", "cyclic"):
                raise WordSyntaxError(f"line {lineno}: kind must be free or cyclic")
            continue
        if b is None:
            raise WordSyntaxError(f"line {lineno}: basis must come first")
        indent = len(line) - len(stripped)
        if indent % 2:
            raise WordSyntaxError(f"line {lineno}: indentation must be even")
        depth = indent // 2
        parts = stripped.split()
        name = parts[0]
        group: StallingsGraph | None = None
        status = "unexpanded"
        for p in parts[1:]:
            if p.startswith("group="):
                gens = [
                    _parse_word(b, g.replace("_", " "), lineno)
                    for g in p[len("group="):].split("|")
                    if g
                ]
                group = stallings_graph(b, gens)
            elif p.startswith("status="):
                status = p[len("status="):]
                if status not in ("absolute", "no-splitting", "unexpanded"):
                    raise WordSyntaxError(f"line {lineno}: unknown status {status!r}")
            else:
                raise WordSyntaxError(f"line {lineno}: unknown field {p!r}")
        node = {
            "name": name,
            "group": group if group is not None else full_group(b),
            "status": status,
            "children": [],
        }
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack:
            if root is not None:
                raise WordSyntaxError(f"line {lineno}: more than one root")
            root = node
        else:
            if depth != stack[-1][0] + 1:
                raise WordSyntaxError(f"line {lineno}: indentation jumps a level")
            stack[-1][1]["children"].append(node)
        stack.append((depth, node))
    if root is None:
        raise WordSyntaxError("no hierarchy nodes found")

    def build(d: dict) -> HierarchyNode:
        return HierarchyNode(
            name=d["name"],
            group=d["group"],
            children=tuple(build(c) for c in d["children"]),
            splitting=None,
            status=d["status"],
        )

    return Hierarchy(kind, build(root))


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
    "identity_witness",
    "induce_hierarchy",
    "induce_torus_splitting",
    "is_complete",
    "parse_hierarchy",
    "parse_splitting",
    "validate_hierarchy",
    "validate_splitting",
    "verify_fixed",
]
