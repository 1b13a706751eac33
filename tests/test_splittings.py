"""Graph-of-groups splittings, fixedness witnesses, hierarchies."""

import signal

import pytest

from fgrow.automorphisms import (
    apply_power,
    identity_automorphism,
    inner_automorphism,
    parse_automorphism,
)
from fgrow.cli import main
from fgrow.folding import full_group, stallings_graph, trivial_subgroup
from fgrow.mapping_torus import torus_group
from fgrow.splittings import (
    FixedSplittingWitness,
    GogEdge,
    GogVertex,
    GraphOfGroups,
    Hierarchy,
    HierarchyNode,
    SplittingViolation,
    TorusSplitting,
    _section_label,
    hierarchy_depth,
    induce_hierarchy,
    induce_torus_splitting,
    is_complete,
    parse_hierarchy,
    parse_splitting,
    validate_hierarchy,
    validate_splitting,
    verify_fixed,
)
from fgrow.words import WordSyntaxError, basis

F = basis("a b")
F3 = basis("a b c")

FREE_SPLIT = """\
basis: a b
[vertices]
v1: a
v2: b
[edges]
e1: v1 v2
[witness]
map v1 -> v2
map v2 -> v1
edge e1 -> e1 !
"""

CYCLIC_SPLIT = """\
basis: a b c
[vertices]
v1: a | b
v2: b | c
[edges]
e1: v1 v2 ; y = b
"""

LOOP_SPLIT = GraphOfGroups(
    F,
    (GogVertex("v", stallings_graph(F, [F.parse("a")])),),
    (GogEdge("e", "v", "v", stable_letter=F.parse("b")),),
)


def make_free():
    gog, wit = parse_splitting(FREE_SPLIT)
    return gog, wit


def make_cyclic():
    gog, _ = parse_splitting(CYCLIC_SPLIT)
    return gog


# -- validation ------------------------------------------------------------


def test_worked_splittings_validate():
    gog, _ = make_free()
    validate_splitting(gog)
    assert gog.kind == "free"
    cyc = make_cyclic()
    validate_splitting(cyc)
    assert cyc.kind == "cyclic"
    validate_splitting(LOOP_SPLIT)


def test_validate_rejects_duplicates_and_bad_endpoints():
    va = GogVertex("v", stallings_graph(F, [F.parse("a")]))
    vb = GogVertex("v", stallings_graph(F, [F.parse("b")]))
    with pytest.raises(SplittingViolation, match="duplicate vertex"):
        validate_splitting(GraphOfGroups(F, (va, vb), ()))
    gog, _ = make_free()
    bad = GraphOfGroups(
        F, gog.vertices, (GogEdge("e1", "v1", "nope"),)
    )
    with pytest.raises(SplittingViolation, match="unknown endpoint"):
        validate_splitting(bad)
    twice = GraphOfGroups(
        F,
        gog.vertices,
        (GogEdge("e1", "v1", "v2"), GogEdge("e1", "v2", "v1")),
    )
    with pytest.raises(SplittingViolation, match="duplicate edge"):
        validate_splitting(twice)


def test_validate_rejects_bad_edge_words():
    v1 = GogVertex("v1", stallings_graph(F3, [F3.parse("a"), F3.parse("b")]))
    v2 = GogVertex("v2", stallings_graph(F3, [F3.parse("b"), F3.parse("c")]))

    def with_edge(e):
        return GraphOfGroups(F3, (v1, v2), (e,))

    with pytest.raises(SplittingViolation, match="trivial"):
        validate_splitting(with_edge(GogEdge("e", "v1", "v2", fiber=F3.parse(""))))
    with pytest.raises(SplittingViolation, match="cyclically reduced"):
        validate_splitting(
            with_edge(GogEdge("e", "v1", "v2", fiber=F3.parse("a b a'")))
        )
    with pytest.raises(SplittingViolation, match="not in the v-side"):
        validate_splitting(with_edge(GogEdge("e", "v1", "v2", fiber=F3.parse("a"))))
    # b·a·b⁻¹ and b⁻¹·a·b both lie outside ⟨a, b a² b⁻¹⟩, so y = a with
    # s = b describes no splitting, though the rank count and the
    # generation check both pass
    v = GogVertex("v", stallings_graph(F, [F.parse("a"), F.parse("b a^2 b'")]))
    hnn = GogEdge("e", "v", "v", fiber=F.parse("a"), stable_letter=F.parse("b"))
    with pytest.raises(
        SplittingViolation, match="^edge e: a cyclic edge cannot carry a stable letter$"
    ):
        validate_splitting(GraphOfGroups(F, (v,), (hnn,)))


def test_validate_rejects_disconnected_and_bad_counts():
    v1 = GogVertex("v1", stallings_graph(F, [F.parse("a")]))
    v2 = GogVertex("v2", stallings_graph(F, [F.parse("b")]))
    with pytest.raises(SplittingViolation, match="not connected"):
        validate_splitting(GraphOfGroups(F, (v1, v2), ()))
    overcounted = GraphOfGroups(
        F,
        (v1, GogVertex("v2", stallings_graph(F, [F.parse("a")]))),
        (GogEdge("e", "v1", "v2", fiber=F.parse("a")),),
    )
    with pytest.raises(SplittingViolation, match="rank count"):
        validate_splitting(overcounted)


def test_validate_rejects_non_generating_decomposition():
    v1 = GogVertex("v1", stallings_graph(F, [F.parse("a")]))
    v2 = GogVertex("v2", stallings_graph(F, [F.parse("a")]))
    gog = GraphOfGroups(F, (v1, v2), (GogEdge("e", "v1", "v2"),))
    with pytest.raises(SplittingViolation):
        validate_splitting(gog)


# Three vertices joined in a triangle; only e1 carries a stable letter.
# A spanning tree through e1 leaves e0 off the tree without one, which
# would skip the generation check; the tree must leave e1 off instead.
TRIANGLE = """\
basis: a b c
[vertices]
v1: a
v2: b
v3: 1
[edges]
e0: v2 v3
e2: v1 v2
e1: v1 v3 ; s = {s}
"""


def test_stable_letter_edges_stay_off_the_spanning_tree():
    gog, _ = parse_splitting(TRIANGLE.format(s="c c"))
    with pytest.raises(
        SplittingViolation,
        match="^vertex groups and stable letters do not generate the whole group$",
    ):
        validate_splitting(gog)
    gog, _ = parse_splitting(TRIANGLE.format(s="c"))
    validate_splitting(gog)


def test_split_refuses_the_non_generating_triangle(tmp_path):
    path = tmp_path / "triangle.gog"
    path.write_text(TRIANGLE.format(s="c c"), encoding="utf-8")
    assert main(["split", "--map", "a -> a; b -> b; c -> c", "--gog", str(path)]) == 1
    path.write_text(TRIANGLE.format(s="c"), encoding="utf-8")
    assert main(["split", "--map", "a -> a; b -> b; c -> c", "--gog", str(path)]) == 0


# -- witnesses -------------------------------------------------------------


BAD_WITNESSES = [
    ({"zz": "v1"}, {}, {}, "unknown vertex"),
    ({}, {"zz": ("e1", False)}, {}, "unknown edge"),
    ({}, {}, {"zz": F.parse("a")}, "corrector"),
    ({"v1": "v2"}, {}, {}, "not a permutation"),
]


def test_witness_shape_errors():
    gog, _ = make_free()
    for phi in (identity_automorphism(F), parse_automorphism("a -> b; b -> a")):
        for vmap, emap, corr, message in BAD_WITNESSES:
            with pytest.raises(ValueError, match=message):
                verify_fixed(gog, phi, FixedSplittingWitness(vmap, emap, corr))


def test_verify_identity_and_swap():
    gog, flip_wit = make_free()
    ident = identity_automorphism(F)
    assert verify_fixed(gog, ident, FixedSplittingWitness())
    swap = parse_automorphism("a -> b\nb -> a")
    assert verify_fixed(gog, swap, flip_wit)
    # swap does not fix the splitting without the exchange
    assert not verify_fixed(gog, swap, FixedSplittingWitness())
    fib = parse_automorphism("a -> a b\nb -> a")
    assert not verify_fixed(gog, fib, FixedSplittingWitness())
    assert not verify_fixed(gog, fib, flip_wit)


def test_verify_uses_correctors():
    gog, _ = make_free()
    conj = inner_automorphism(F, F.parse("a"))
    assert not verify_fixed(gog, conj, FixedSplittingWitness())
    wit = FixedSplittingWitness(correctors={"v2": F.parse("a'")})
    assert verify_fixed(gog, conj, wit)


def test_verify_cyclic_boundaries():
    gog = make_cyclic()
    ident = identity_automorphism(F3)
    assert verify_fixed(gog, ident, FixedSplittingWitness())
    neg = parse_automorphism("a -> a\nb -> b'\nc -> c")
    assert verify_fixed(gog, neg, FixedSplittingWitness())
    push = parse_automorphism("a -> a\nb -> a b\nc -> c")
    assert not verify_fixed(gog, push, FixedSplittingWitness())
    # each corrector keeps its vertex group but moves y = b off ⟨b⟩,
    # so the edge word fails at that end alone
    for end, x in (("v1", "a"), ("v2", "c")):
        wit = FixedSplittingWitness(correctors={end: F3.parse(x)})
        assert not verify_fixed(gog, ident, wit)


def swapped_edges(first: str, second: str) -> str:
    """A splitting whose witness swaps edges e1 and e3, listed in order."""
    return (
        "basis: a b c d\n[vertices]\nv1: a | b\nv2: b | c\n[edges]\n"
        f"{first}\n{second}\n[witness]\nedge e1 -> e3\nedge e3 -> e1\n"
    )


CYCLIC_E1 = "e1: v1 v2 ; y = b"
TRIVIAL_E3 = "e3: v1 v2 ; s = d"


@pytest.mark.parametrize(
    "text, rules",
    [
        # σ swaps the vertices but keeps the edge's orientation
        (FREE_SPLIT.replace("edge e1 -> e1 !", "edge e1 -> e1"), "a -> b; b -> a"),
        # a cyclic edge sent to a trivial one met first, then a trivial
        # edge sent to a cyclic one (σ permutes edges: each row has both)
        (swapped_edges(CYCLIC_E1, TRIVIAL_E3), "a -> a; b -> b; c -> c; d -> d"),
        (swapped_edges(TRIVIAL_E3, CYCLIC_E1), "a -> a; b -> b; c -> c; d -> d"),
        # the stable letter's image b⁻¹ is outside ⟨a⟩·b·⟨a⟩
        ("basis: a b\n[vertices]\nv: a\n[edges]\ne: v v ; s = b\n", "a -> a; b -> b'"),
    ],
    ids=["not-a-graph-map", "cyclic-to-trivial", "trivial-to-cyclic", "stable-letter"],
)
def test_verify_refuses(text, rules):
    gog, witness = parse_splitting(text)
    validate_splitting(gog)
    phi = parse_automorphism(rules, gog.basis)
    assert not verify_fixed(gog, phi, witness or FixedSplittingWitness())


THREE_STAR = """\
basis: a b c
[vertices]
v1: a
v2: b
v3: c
[edges]
e1: v1 v2
e2: v1 v3
[witness]
map v2 -> v3
map v3 -> v2
edge e1 -> e2
edge e2 -> e1
"""


def test_verify_refuses_a_non_permutation_edge_map():
    gog, _ = parse_splitting(THREE_STAR)
    witness = FixedSplittingWitness({}, {"e1": ("e2", False)})
    with pytest.raises(ValueError, match="^witness edge map is not a permutation$"):
        verify_fixed(gog, identity_automorphism(F3), witness)


def test_induce_edge_orbit_of_period_two():
    gog, witness = parse_splitting(THREE_STAR)
    ts = induce_torus_splitting(gog, parse_automorphism("a -> a; b -> c; c -> b"), witness)
    assert [(e.name, e.period, e.label()) for e in ts.edges] == [("e1", 2, "< t^2 >")]
    assert [v.label() for v in ts.vertices] == ["< a, t >", "< b, t^2 >"]


# -- induced splittings ----------------------------------------------------


def test_holonomy_accumulates_correctors_along_a_period_three_orbit():
    # Φ = i_c∘(a → b → c → a) cycles the three leaves of a star, each
    # with its own nontrivial corrector; the orbit starts at p
    phi = parse_automorphism("a -> c b c'; b -> c; c -> c a c'", F3)
    W = F3.parse
    leaves = {"p": "a", "q": "b", "r": "c"}
    gog = GraphOfGroups(
        F3,
        (GogVertex("o", trivial_subgroup(F3)),)
        + tuple(GogVertex(v, stallings_graph(F3, [W(g)])) for v, g in leaves.items()),
        tuple(GogEdge(f"e{v}", "o", v) for v in leaves),
    )
    x = {"p": W("b c'"), "q": W("c c"), "r": W("a c'")}
    witness = FixedSplittingWitness(
        {"p": "q", "q": "r", "r": "p"},
        {"ep": ("eq", False), "eq": ("er", False), "er": ("ep", False)},
        x,
    )
    ts = induce_torus_splitting(gog, phi, witness)
    (v,) = [v for v in ts.vertices if v.name == "p"]
    assert v.period == 3
    assert v.holonomy == x["r"] * apply_power(phi, 1, x["q"]) * apply_power(phi, 2, x["p"])


def test_induce_free_identity():
    gog, _ = make_free()
    ident = identity_automorphism(F)
    ts = induce_torus_splitting(gog, ident, FixedSplittingWitness())
    assert ts.kind == "Z"
    assert [v.label() for v in ts.vertices] == ["< a, t >", "< b, t >"]
    assert [(e.kind, e.period) for e in ts.edges] == [("Z", 1)]
    assert ts.edges[0].label() == "< t >"


def test_induce_free_swap_merges_orbit():
    gog, wit = make_free()
    swap = parse_automorphism("a -> b\nb -> a")
    ts = induce_torus_splitting(gog, swap, wit)
    assert len(ts.vertices) == 1
    v = ts.vertices[0]
    assert v.period == 2 and v.label() == "< a, t^2 >"
    (e,) = ts.edges
    assert e.kind == "Z" and e.period == 2


def test_induced_section_labels_parse_back():
    gog, wit = make_free()
    swap = parse_automorphism("a -> b\nb -> a")
    g = torus_group(swap)
    (v,) = induce_torus_splitting(gog, swap, wit).vertices
    assert g.normalize(v.label().strip("<> ").split(", ")[-1]) == g.t(2)
    for n in range(-3, 4):
        label = _section_label(g.basis.parse("a b'"), n)
        assert g.normalize(label) == g.element("a b'", n), label


def test_induce_cyclic_twists():
    gog = make_cyclic()
    ident = identity_automorphism(F3)
    ts = induce_torus_splitting(gog, ident, FixedSplittingWitness())
    (e,) = ts.edges
    assert e.kind == "Z-by-Z" and e.twist == 1
    assert ts.kind == "slender"
    assert e.label() == "< b, t >"
    neg = parse_automorphism("a -> a\nb -> b'\nc -> c")
    ts2 = induce_torus_splitting(gog, neg, FixedSplittingWitness())
    assert ts2.edges[0].twist == -1


def test_induced_edge_relator_holds_in_torus_group():
    # (x t^n) y (x t^n)^-1 must equal y^twist as group elements
    gog = make_cyclic()
    for rules in ("a -> a; b -> b; c -> c", "a -> a; b -> b'; c -> c"):
        phi = parse_automorphism(rules, F3)
        ts = induce_torus_splitting(gog, phi, FixedSplittingWitness())
        g = torus_group(phi)
        (e,) = ts.edges
        section = g.element(e.holonomy) * g.t(e.period)
        y = g.element(e.fiber)
        assert section * y * section.inverse() == y ** e.twist


def test_induce_rejects_unverified_and_small_rank():
    gog, _ = make_free()
    fib = parse_automorphism("a -> a b\nb -> a")
    with pytest.raises(ValueError, match="witness"):
        induce_torus_splitting(gog, fib, FixedSplittingWitness())
    f1 = basis("a")
    tiny = GraphOfGroups(
        f1, (GogVertex("v", stallings_graph(f1, [f1.parse("a")])),), ()
    )
    with pytest.raises(ValueError, match="noncyclic"):
        induce_torus_splitting(tiny, identity_automorphism(f1), FixedSplittingWitness())


def test_induce_refuses_a_non_permutation_witness():
    # v1 ↦ v2 ↦ v2 is no permutation, so an orbit walk from v1 would
    # never return; the alarm turns such a hang into a failure
    gog, _ = make_free()
    witness = FixedSplittingWitness({"v1": "v2"})

    def hung(signum, frame):
        raise TimeoutError("induce_torus_splitting did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="^witness vertex map is not a permutation$"):
            induce_torus_splitting(gog, identity_automorphism(F), witness)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_induce_rejects_holonomy_escaping_edge_group():
    # b ↦ a b leaves ⟨b⟩, so the identity witness fails verification
    # before any holonomy is read
    gog = make_cyclic()
    push = parse_automorphism("a -> a\nb -> a b\nc -> c")
    assert verify_fixed(gog, push, FixedSplittingWitness()) is False
    with pytest.raises(ValueError, match="^witness does not certify the splitting as fixed$"):
        induce_torus_splitting(gog, push, FixedSplittingWitness())


# -- hierarchies -----------------------------------------------------------


def leaf_loop_splitting(letter: str) -> GraphOfGroups:
    return GraphOfGroups(
        F,
        (GogVertex(f"{letter}0", trivial_subgroup(F)),),
        (GogEdge(f"{letter}e", f"{letter}0", f"{letter}0", stable_letter=F.parse(letter)),),
    )


def two_level() -> Hierarchy:
    gog, _ = make_free()
    kids = (
        HierarchyNode(
            "h1",
            stallings_graph(F, [F.parse("a")]),
            splitting=leaf_loop_splitting("a"),
            status="absolute",
        ),
        HierarchyNode(
            "h2",
            stallings_graph(F, [F.parse("b")]),
            splitting=leaf_loop_splitting("b"),
            status="absolute",
        ),
    )
    root = HierarchyNode("g", full_group(F), children=kids, splitting=gog)
    return Hierarchy("free", root)


def test_hierarchy_depth_and_completeness():
    h = two_level()
    validate_hierarchy(h)
    assert hierarchy_depth(h) == 1
    assert is_complete(h) is True
    single = Hierarchy("free", HierarchyNode("g", full_group(F)))
    assert hierarchy_depth(single) == 0
    assert is_complete(single) is None
    stuck = Hierarchy(
        "free", HierarchyNode("g", full_group(F), status="no-splitting")
    )
    assert is_complete(stuck) is False


def test_validate_hierarchy_violations():
    dup = Hierarchy(
        "free",
        HierarchyNode(
            "g",
            full_group(F),
            children=(HierarchyNode("g", stallings_graph(F, [F.parse("a")])),),
            splitting=None,
        ),
    )
    with pytest.raises(SplittingViolation, match="duplicate"):
        validate_hierarchy(dup)
    gog, _ = make_free()
    mismatched = Hierarchy(
        "free",
        HierarchyNode(
            "g",
            full_group(F),
            children=(HierarchyNode("h1", stallings_graph(F, [F.parse("a a")])),),
            splitting=gog,
        ),
    )
    with pytest.raises(SplittingViolation, match="children"):
        validate_hierarchy(mismatched)
    false_leaf = Hierarchy(
        "free",
        HierarchyNode("g", stallings_graph(F, [F.parse("a")]), status="absolute"),
    )
    with pytest.raises(SplittingViolation, match="absolute"):
        validate_hierarchy(false_leaf)
    # same claim is fine in a cyclic hierarchy, where Z pieces are absolute
    validate_hierarchy(
        Hierarchy(
            "cyclic",
            HierarchyNode("g", stallings_graph(F, [F.parse("a")]), status="absolute"),
        )
    )


def test_induce_hierarchy_mirrors_shape():
    h = two_level()
    swap = parse_automorphism("a -> b\nb -> a")
    _, wit = make_free()
    induced = induce_hierarchy(h, swap, wit)
    assert induced.kind == "Z"
    assert hierarchy_depth(induced) == 1
    assert is_complete(induced) is True
    assert isinstance(induced.root.splitting, TorusSplitting)
    assert induced.root.group == "< a, b, t-power >"
    assert sorted(c.group for c in induced.root.children) == [
        "< a, t-power >",
        "< b, t-power >",
    ]
    assert all(c.splitting is None for c in induced.root.children)
    with pytest.raises(ValueError):
        induce_hierarchy(induced, swap)


# -- parsing ---------------------------------------------------------------


def test_parse_splitting_contents():
    gog, wit = parse_splitting(FREE_SPLIT)
    assert [v.name for v in gog.vertices] == ["v1", "v2"]
    assert gog.vertices[0].group.accepts(F.parse("a"))
    assert gog.edges[0].fiber is None
    assert wit == FixedSplittingWitness({"v1": "v2", "v2": "v1"}, {"e1": ("e1", True)})
    cyc, no_wit = parse_splitting(CYCLIC_SPLIT)
    assert no_wit is None
    assert str(cyc.edges[0].fiber) == "b"
    assert cyc.edges[0].fiber == F3.parse("b")


def test_parse_splitting_accepts_matching_basis_argument():
    gog, _ = parse_splitting(FREE_SPLIT, F)
    assert gog.basis == F
    with pytest.raises(WordSyntaxError, match="does not match"):
        parse_splitting(FREE_SPLIT, F3)


@pytest.mark.parametrize(
    "snippet,message",
    [
        ("[nowhere]", "unknown section"),
        ("v1: a", "basis must come first"),
        ("basis: a b\nv1: a", "outside any section"),
        ("basis: a b\n[edges]\ne1: v1", "two endpoints"),
        ("basis: a b\n[edges]\ne1: v1 v2 ; z = a", "unknown edge field"),
        ("basis: a b\n[edges]\ne1: v1 v2 ; y = b ; yu = b", "^line 3: unknown edge field 'yu'$"),
        ("basis: a b\n[vertices]\nv1 a", "expected"),
        ("basis: a b\n[witness]\nmap v1 v2", "unrecognized witness"),
        ("basis: a b\n[vertices]\nv1: q", "line 3"),
        ("basis: a b\n[vertices]\n: a | b", "^line 3: missing vertex name$"),
        ("basis: a b\n[vertices]\nv: a\n[edges]\n : v v ; s = b", "^line 5: missing edge name$"),
        ("basis: a b\n[vertices]\nv 1: a | b", "^line 3: vertex name 'v 1' contains whitespace$"),
        ("basis: a b\n[edges]\ne1: v1 v2 ; y = a ; y = b", "^line 3: duplicate edge field 'y'$"),
        ("basis: a b\n[edges]\ne1: v v ; s = a ; s = a", "^line 3: duplicate edge field 's'$"),
    ],
)
def test_parse_splitting_diagnostics(snippet, message):
    with pytest.raises(WordSyntaxError, match=message):
        parse_splitting(snippet)


def test_parse_splitting_bad_basis_names_its_line():
    with pytest.raises(WordSyntaxError, match="^line 1: duplicate generator name 'a'$"):
        parse_splitting("basis: a a\n[vertices]\nv1: a")
    text = "# a comment\n\n\n\n\nbasis: a 1\n[vertices]\n"
    with pytest.raises(WordSyntaxError, match="^line 6: bad generator name '1'$"):
        parse_splitting(text)


HIER_TEXT = """\
basis: a b
kind: free
g
  h1 group=a status=absolute
  h2 group=b_a status=unexpanded
"""


def test_parse_hierarchy():
    h = parse_hierarchy(HIER_TEXT)
    assert h.kind == "free"
    assert h.root.name == "g"
    assert h.root.group == full_group(F)
    kids = h.root.children
    assert [k.name for k in kids] == ["h1", "h2"]
    assert kids[1].group.accepts(F.parse("b a"))
    assert kids[0].status == "absolute" and kids[1].status == "unexpanded"
    assert is_complete(h) is None


@pytest.mark.parametrize(
    "names, word, letters",
    [
        ("x_1 y", "x_1_y", "x_1 y"),
        ("x_1 y", "y'_x_1^2_y", "y' x_1 x_1 y"),
        ("x_1 x_1_y y", "x_1_y_x_1", "x_1_y x_1"),  # the longest name first
        ("a b a_b", "a_b", "a_b"),  # a run that is a name is that name ...
        ("a b a_b", "a^1_b", "a b"),  # ... so a·b needs an exponent to split it
        ("a b", "b_a_1", "b a"),
    ],
)
def test_hierarchy_group_words_read_underscore_names(names, word, letters):
    b = basis(names)
    h = parse_hierarchy(f"basis: {names}\ng group={word}\n")
    assert h.root.group == stallings_graph(b, [b.parse(letters)])


@pytest.mark.parametrize(
    "snippet,message",
    [
        ("basis: a b\nkind: odd\ng", "free or cyclic"),
        ("basis: a b\ng\n   h", "even"),
        ("basis: a b\ng\n    h", "jumps a level"),
        ("basis: a b\ng\nh", "more than one root"),
        ("basis: a b\ng weird=1", "unknown field"),
        ("basis: a b\ng status=done", "unknown status"),
        ("basis: a b", "no hierarchy nodes"),
        ("g", "basis must come first"),
        ("basis: a b\nkind: free\nkind: cyclic\ng", "^line 3: duplicate kind line$"),
        ("kind: cyclic\nbasis: a b\nkind: cyclic\ng", "^line 3: duplicate kind line$"),
        ("basis: a b\ng\n  h\nkind: cyclic", "^line 4: kind must come before the nodes$"),
        ("basis: a b\ng\n  h1 group=a status=absolute status=unexpanded",
         "^line 3: duplicate field 'status'$"),
        ("basis: a b\ng group=a group=b", "^line 2: duplicate field 'group'$"),
    ],
)
def test_parse_hierarchy_diagnostics(snippet, message):
    with pytest.raises(WordSyntaxError, match=message):
        parse_hierarchy(snippet)


def test_parse_hierarchy_bad_basis_names_its_line():
    with pytest.raises(WordSyntaxError, match="^line 1: duplicate generator name 'a'$"):
        parse_hierarchy("basis: a a\ng")
    with pytest.raises(WordSyntaxError, match="^line 2: basis needs at least one generator$"):
        parse_hierarchy("kind: free\nbasis:\ng")
