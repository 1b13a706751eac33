"""The three text formats read back what fgrow writes.

A map prints as its rules; a splitting and a hierarchy are rendered
here in the layouts docs/formats.md describes, with comments and blank
lines mixed in, and each must parse back to the object it came from.
"""

from hypothesis import given, settings, strategies as st

from fgrow.automorphisms import Endomorphism, parse_endomorphism
from fgrow.folding import full_group, stallings_graph
from fgrow.splittings import (
    FixedSplittingWitness,
    GogEdge,
    GogVertex,
    GraphOfGroups,
    Hierarchy,
    HierarchyNode,
    _nodes,
    parse_hierarchy,
    parse_splitting,
)
from fgrow.words import Word, basis, free_reduce

# generator names; words in a hierarchy's group= field spell spaces as
# underscores, so a name that joins other names by `_` would read as that
# name there: JOINLESS_NAMES put a digit after their one underscore, which
# no name starts with
NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True)
PLAIN_NAMES = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True)
JOINLESS_NAMES = st.from_regex(r"[a-z][a-z0-9]{0,2}(_[0-9][a-z0-9]{0,2})?", fullmatch=True)


def bases(names=NAMES):
    return st.lists(names, min_size=1, max_size=3, unique=True).map(basis)


def words(b, max_size=8):
    alphabet = [s * i for i in range(1, b.rank + 1) for s in (1, -1)]
    return st.lists(st.sampled_from(alphabet), max_size=max_size).map(
        lambda ls: Word(b, free_reduce(ls))
    )


def subgroups(draw, b):
    return stallings_graph(b, draw(st.lists(words(b), max_size=3)))


def noisy(draw, lines):
    """The lines with comments and blank lines mixed in."""
    out = []
    for line in lines:
        out.extend(draw(st.lists(st.sampled_from(["", "# note", "   "]), max_size=2)))
        out.append(line + draw(st.sampled_from(["", "  # trailing", " "])))
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


@st.composite
def endomorphisms(draw):
    b = draw(bases())
    return Endomorphism(b, tuple(draw(words(b)) for _ in range(b.rank)))


@settings(max_examples=60)
@given(endomorphisms(), st.data())
def test_map_rules_parse_back(phi, data):
    assert parse_endomorphism(str(phi)) == phi
    rules = [f"{n} -> {w}" for n, w in zip(phi.basis.names, phi.images)]
    shuffled = data.draw(st.permutations(rules))
    assert parse_endomorphism(noisy(data.draw, shuffled), phi.basis) == phi


@st.composite
def splittings(draw):
    b = draw(bases())
    vnames = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    enames = draw(st.lists(NAMES, max_size=4, unique=True))
    cyclic = draw(st.booleans())
    vertices = tuple(GogVertex(n, subgroups(draw, b)) for n in vnames)
    edges = []
    for n in enames:
        u, v = draw(st.sampled_from(vnames)), draw(st.sampled_from(vnames))
        if cyclic and draw(st.booleans()):
            edges.append(GogEdge(n, u, v, fiber=draw(words(b))))
        else:
            edges.append(GogEdge(n, u, v, stable_letter=draw(st.none() | words(b))))
    vs = st.sampled_from(vnames)
    es = st.sampled_from(enames) if enames else st.nothing()
    witness = FixedSplittingWitness(
        draw(st.dictionaries(vs, vs)),
        draw(st.dictionaries(es, st.tuples(es, st.booleans()))),
        draw(st.dictionaries(vs, words(b))),
    )
    return GraphOfGroups(b, vertices, tuple(edges)), witness


def render_splitting(gog, witness):
    lines = ["basis: " + " ".join(gog.basis.names), "[vertices]"]
    for v in gog.vertices:
        lines.append(f"{v.name}: " + " | ".join(map(str, v.group.free_basis())))
    lines.append("[edges]")
    for e in gog.edges:
        fields = [f"y = {e.fiber}"] if e.fiber is not None else []
        fields += [f"s = {e.stable_letter}"] if e.stable_letter is not None else []
        lines.append(" ; ".join([f"{e.name}: {e.u} {e.v}", *fields]))
    lines.append("[witness]")
    lines += [f"map {a} -> {b}" for a, b in witness.vertex_map.items()]
    lines += [f"edge {a} -> {b}{' !' * flip}" for a, (b, flip) in witness.edge_map.items()]
    lines += [f"corrector {a}: {w}" for a, w in witness.correctors.items()]
    return lines


@settings(max_examples=60)
@given(splittings(), st.data())
def test_splitting_files_parse_back(case, data):
    gog, witness = case
    text = noisy(data.draw, render_splitting(gog, witness))
    assert parse_splitting(text) == (gog, witness)
    assert parse_splitting(text, gog.basis) == (gog, witness)


@st.composite
def hierarchies(draw):
    b = draw(bases(JOINLESS_NAMES))
    count = iter(range(10**6))

    def node(depth):
        name = f"{draw(PLAIN_NAMES)}{next(count)}"
        group = subgroups(draw, b) if draw(st.booleans()) else full_group(b)
        status = draw(st.sampled_from(["absolute", "no-splitting", "unexpanded"]))
        kids = draw(st.integers(0, 3 if depth < 3 else 0))
        children = tuple(node(depth + 1) for _ in range(kids))
        return HierarchyNode(name, group, children, None, status)

    return Hierarchy(draw(st.sampled_from(["free", "cyclic"])), node(0))


def render_hierarchy(h, draw):
    lines = ["basis: " + " ".join(h.root.group.basis.names), f"kind: {h.kind}"]
    for node, depth in _nodes(h):
        fields = []
        if node.group != full_group(node.group.basis) or draw(st.booleans()):
            gens = "|".join(str(w).replace(" ", "_") for w in node.group.free_basis())
            fields.append(f"group={gens}")
        if node.status != "unexpanded" or draw(st.booleans()):
            fields.append(f"status={node.status}")
        fields = draw(st.permutations(fields))
        lines.append("  " * depth + " ".join([node.name, *fields]))
    return lines


def shape(h):
    return [(n.name, depth, n.group, n.status) for n, depth in _nodes(h)]


@settings(max_examples=60)
@given(hierarchies(), st.data())
def test_hierarchy_files_parse_back(h, data):
    parsed = parse_hierarchy(noisy(data.draw, render_hierarchy(h, data.draw)))
    assert shape(parsed) == shape(h)
    assert parsed == h
