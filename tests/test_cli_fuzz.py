"""Fuzz ``main()`` over argv drawn from small grammars.

Maps, words, generator lists, splitting and hierarchy files and budgets
are drawn from grammars that mix well-formed input with near misses:
unknown names, stray punctuation, missing rules and sections, and
budgets that are negative, zero, not integers or small.  Whatever the
input, a run ends in the CLI's contract:

- ``main()`` returns 0, 1 or 2, or argparse exits with 1, and no other
  exception escapes;
- exit 0 writes a report and nothing on stderr;
- a nonzero exit either writes a report and nothing on stderr (an
  inconclusive growth or hierarchy report, exit 2, or a split whose
  witness fails, exit 1) or writes no report and exactly one stderr
  line starting ``error:`` or ``budget exceeded:``.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fgrow.cli import main

AUTOMORPHISMS = [
    "a -> a b; b -> a",
    "a -> a; b -> b",
    "a -> b; b -> a",
    "a -> a; b -> b a",
    "a -> a b\nb -> b",
    "a -> b; b -> c; c -> a c",
    "a -> a b'; b -> b",
]
LETTERS = ["a", "b", "a'", "b'", "b^-1", "ab'", "1"]
JUNK = ["c", "t", "z", "(", "^", "a^", "a^2", "a^x", "''", "->", ",", ";", "|", "_", "#", ":", "é"]
EMITS = {
    "growth": ["json", "csv", "svg", "text"],
    "fold": ["text", "json", "dot", "csv"],
    "torus": ["presentation", "graph", "json", "text"],
    "split": ["json", "text"],
    "hierarchy": ["json", "text"],
    "divergence": ["json", "csv", "svg", "text"],
}
NOT_INTEGERS = ["x", "1.5", "", "1e3", "0x10", "two", "-"]
SPLITTINGS = [
    "basis: a b\n[vertices]\nv1: a\nv2: b\n[edges]\ne1: v1 v2\n"
    "[witness]\nmap v1 -> v2\nmap v2 -> v1\nedge e1 -> e1 !\n",
    "basis: a b\n[vertices]\nv1: a\nv2: b\n[edges]\ne1: v1 v2\n[witness]\n",
    "basis: a b\n[vertices]\nv: a\n[edges]\ne: v v ; s = b\n[witness]\ncorrector v: a\n",
]


def mostly(good, bad, odds: int = 4):
    """``good`` odds - 1 times in odds, else ``bad``."""
    return st.integers(1, odds).flatmap(lambda i: bad if i == odds else good)


words = mostly(
    st.lists(st.sampled_from(LETTERS), max_size=5).map(" ".join),
    st.lists(st.sampled_from(LETTERS + JUNK), min_size=1, max_size=4).map(" ".join),
)


def budget(high: int):
    bad = st.one_of(st.integers(-3, 0).map(str), st.sampled_from(NOT_INTEGERS))
    return mostly(st.integers(1, high).map(str), bad, odds=8)


@st.composite
def maps(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(AUTOMORPHISMS))
    names = draw(st.sampled_from([["a", "b"], ["a", "b", "c"], ["a"], ["a", "t"], ["a", "a"]]))
    rules = [f"{name} -> {draw(words)}" for name in names]
    if draw(st.booleans()):
        rules.insert(draw(st.integers(0, len(rules))), draw(st.sampled_from(
            ["b = b", "-> a", "a ->", "# note", "", "b c -> a", "z -> a"]
        )))
    return draw(st.sampled_from([";", "\n", "; "])).join(rules)


@st.composite
def splitting_files(draw):
    if draw(st.booleans()):
        text = draw(st.sampled_from(SPLITTINGS))
        return text + draw(mostly(st.just(""), witness_lines(["v1", "v2"], ["e1"]), odds=3))
    lines = []
    if draw(st.integers(0, 4)):
        lines.append(draw(st.sampled_from(["basis: a b", "basis: a b c", "basis: a a"])))
    vertices = [f"v{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    lines.append(draw(st.sampled_from(["[vertices]", "[vertices]", "[nodes]"])))
    for v in vertices:
        gens = draw(st.lists(words, max_size=3))
        lines.append(f"{v}: " + " | ".join(gens))
    lines.append("[edges]")
    edges = [f"e{i}" for i in range(1, draw(st.integers(0, 3)) + 1)]
    for e in edges:
        ends = " ".join(draw(st.lists(st.sampled_from(vertices + ["v9"]), min_size=1, max_size=3)))
        keys = draw(st.lists(st.sampled_from(["y", "yu", "yv", "s", "q"]), max_size=2))
        lines.append(f"{e}: {ends}" + "".join(f" ; {k} = {draw(words)}" for k in keys))
    if draw(st.booleans()):
        lines.append("[witness]")
        lines.append(draw(witness_lines(vertices, edges)))
    return "\n".join(lines) + "\n"


@st.composite
def witness_lines(draw, vertices: list[str], edges: list[str]):
    vs, es = st.sampled_from(vertices + ["v9"]), st.sampled_from(edges + ["e9"])
    line = st.one_of(
        st.tuples(vs, vs).map(lambda p: f"map {p[0]} -> {p[1]}"),
        st.tuples(es, es, st.sampled_from(["", " !", " ?"])).map(
            lambda p: f"edge {p[0]} -> {p[1]}{p[2]}"
        ),
        st.tuples(st.sampled_from(vertices + [""]), words).map(
            lambda p: f"corrector {p[0]}: {p[1]}"
        ),
        st.sampled_from(["map v1", "edge", "corrector", "corrector : a", "junk"]),
    )
    return "".join(f"{text}\n" for text in draw(st.lists(line, max_size=3)))


@st.composite
def hierarchy_files(draw):
    lines = [
        draw(mostly(st.just("basis: a b"), st.sampled_from(["basis: a", "basis: a a", ""]), 8)),
        draw(mostly(st.sampled_from(["kind: cyclic", "kind: free"]), st.just("kind: x"), 8)),
    ]
    depth = 0
    for i in range(draw(st.integers(1, 6))):
        fields = []
        if draw(st.booleans()):
            group = "|".join(w.replace(" ", "_") for w in draw(st.lists(words, max_size=3)))
            fields.append(f"group={group}")
        if draw(st.booleans()):
            status = st.sampled_from(["absolute", "no-splitting", "unexpanded"])
            fields.append(f"status={draw(mostly(status, st.just('done'), 8))}")
        indent = "  " * depth + draw(mostly(st.just(""), st.just(" "), 8))
        lines.append(indent + " ".join([f"n{i}", *fields]))
        depth = max(1, depth + draw(mostly(st.integers(-1, 1), st.just(2), 8)))
    return "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    """(argv, files): ``{name}`` in argv stands for the path of files[name]."""
    command = draw(st.sampled_from(sorted(EMITS)))
    argv, files = [command], {}
    if command == "growth":
        argv += ["--map", draw(maps())]
        if draw(st.booleans()):
            argv += ["--word", draw(words)]
        argv += ["--iters", draw(budget(50)), "--cap", draw(budget(5000))]
    elif command == "fold":
        argv += ["--gens", ", ".join(draw(st.lists(words, max_size=4)))]
        if draw(st.booleans()):
            argv += ["--basis", draw(st.sampled_from(["a b", "a b c", "a", "a a", "", "t", "a,b"]))]
    elif command == "torus":
        argv += ["--map", draw(maps())]
        if draw(st.booleans()):
            gens = draw(st.lists(st.tuples(words, st.sampled_from(["", " t", " t'", " t^2"])),
                                 max_size=3))
            argv += ["--gens", "; ".join(w + t for w, t in gens)]
        argv += ["--max-rounds", draw(budget(8)), "--max-vertices", draw(budget(2000))]
    elif command == "split":
        files["gog"] = draw(splitting_files())
        argv += ["--map", draw(maps()), "--gog", "{gog}"]
        if draw(st.booleans()):
            argv.append("--induce")
    elif command == "hierarchy":
        files["hier"] = draw(hierarchy_files())
        argv += ["--file", "{hier}"]
    else:
        radii = ",".join(draw(st.lists(budget(5), min_size=1, max_size=3)))
        argv += ["--map", draw(maps()), "--radii", radii, "--samples", draw(budget(8)),
                 "--seed", draw(mostly(st.sampled_from(["0", "7", "-1"]), st.just("x"), 8)),
                 "--max-vertices", draw(budget(2000))]
    if draw(st.integers(0, 5)):
        argv += ["--emit", draw(mostly(st.sampled_from(EMITS[command]), st.just("pdf"), odds=8))]
    return argv, files


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
@example((["split", "--map", "a -> a; b -> b", "--gog", "{gog}"],
          {"gog": "basis: a b\n[vertices]\nv1: a\n[witness]\ncorrector : a\n"}))
def test_main_ends_in_the_exit_contract(workdir, case):
    argv, files = case
    paths = {}
    for name, text in files.items():
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    argv = [paths.get(a[1:-1], a) if a.startswith("{") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 1, argv
            code = 1
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 0 or stdout:
        assert stdout and stderr == ""
    else:
        assert stderr.endswith("\n") and len(stderr.splitlines()) == 1, stderr
        assert stderr.startswith(("error: ", "budget exceeded: ")), stderr
