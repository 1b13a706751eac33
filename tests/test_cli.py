"""CLI contract: output schemas, exit codes, determinism."""

import argparse
import json
import math
import re
import sys

import pytest

from fgrow import cli, mapping_torus
from fgrow.automorphisms import Endomorphism
from fgrow.cli import main
from fgrow.words import VerificationError

from helpers import run_capped

FIB = "a -> a b\nb -> a\n"
WILD = "a -> a b a' b' a\nb -> a\n"

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

HIER_DONE = """\
basis: a b
kind: cyclic
g
  h1 group=a status=absolute
  h2 group=b status=absolute
"""

HIER_OPEN = """\
basis: a b
kind: cyclic
g
  h1 group=a status=absolute
  h2 group=b
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- growth ------------------------------------------------------------


def test_growth_json_schema(capsys):
    code, out, _ = run(capsys, "growth", "--map", FIB)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 2
    assert payload["command"] == "growth"
    assert len(payload["input_sha256"]) == 64
    assert payload["budgets"] == {"cap": 10**6, "iters": 40}
    assert "threads" not in payload
    result = payload["result"]
    assert set(result) == {
        "kind", "certified", "rate", "degree", "lengths", "evidence",
    }
    assert result["kind"] == "Exponential" and result["certified"] is True
    assert abs(result["rate"] - 1.61803) < 1e-3
    assert result["degree"] is None
    assert result["evidence"]["certificate"] == "Certified"
    assert result["evidence"]["offender"] is None


def test_growth_word_and_csv(capsys):
    code, out, _ = run(
        capsys, "growth", "--map", FIB, "--word", "b", "--iters", "6",
        "--emit", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema: 2"
    assert "n,length" in lines
    assert "1,1" in lines  # b -> a keeps length 1 at the first step
    assert lines[-1] == "# kind: Exponential"


def test_growth_empty_word_is_the_identity(capsys):
    # an explicitly empty --word is the word 1, not the whole map
    for word in ("", "1"):
        code, out, _ = run(capsys, "growth", "--map", FIB, "--word", word, "--emit", "text")
        assert code == 0
        assert out.startswith("subject: 1\nkind: Polynomial\ncertified: True\ndegree: 0\n")


def test_growth_map_file(tmp_path, capsys):
    path = tmp_path / "fib.map"
    path.write_text(FIB)
    code, out, _ = run(capsys, "growth", "--map", str(path), "--emit", "text")
    assert code == 0
    assert "kind: Exponential" in out


def test_growth_text_rate_is_the_perron_root(capsys):
    # the root of x³ − x² − x − 3 is 2.1303954…
    code, out, _ = run(
        capsys, "growth", "--map", "a -> b; b -> a d d; c -> b; d -> a d a",
        "--emit", "text",
    )
    assert code == 0
    assert "rate: 2.130395\n" in out


def test_growth_svg(capsys):
    code, out, _ = run(capsys, "growth", "--map", FIB, "--emit", "svg")
    assert code == 0
    assert out.startswith("<svg ") and out.rstrip().endswith("</svg>")
    assert "<polyline" in out


def test_growth_inconclusive_exit_two(capsys):
    code, out, _ = run(capsys, "growth", "--map", WILD, "--cap", "100000")
    assert code == 2
    payload = json.loads(out)
    assert payload["result"]["kind"] == "Inconclusive"
    assert payload["result"]["evidence"]["truncated"] is True
    assert payload["result"]["evidence"]["offender"] == "a a'"


def test_growth_conjugator_only_when_used(capsys):
    # i_{ab}∘fib is certified through its conjugate fib
    code, out, _ = run(capsys, "growth", "--map", "a -> a b; b -> a b a b' a'")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "Exponential" and result["certified"] is True
    assert result["evidence"]["conjugator"] == "b' a'"
    assert result["evidence"]["certificate"] == "Certified"
    for argv in (("--map", FIB), ("--map", "a -> a b; b -> a'")):
        code, out, _ = run(capsys, "growth", *argv)
        assert "conjugator" not in json.loads(out)["result"]["evidence"]


def test_growth_offender_symbols(capsys):
    code, out, _ = run(capsys, "growth", "--map", "a -> a b; b -> a'")
    assert code in (0, 2)
    payload = json.loads(out)
    assert payload["result"]["evidence"]["certificate"] == "Failed"
    assert payload["result"]["evidence"]["offender"]


# -- fold --------------------------------------------------------------


def test_fold_text(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "a a, b", "--basis", "a b")
    assert code == 0
    assert "vertices: 2" in out
    assert "rank: 2" in out
    assert "index: infinite" in out


def test_fold_json_dot_csv(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "a a, b, a b a'", "--emit", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["index"] == 2 and result["rank"] == 3
    code, dot, _ = run(capsys, "fold", "--gens", "a, b a b", "--emit", "dot")
    assert code == 0
    assert dot.startswith("digraph fold {") and "label=" in dot
    code, csv_out, _ = run(capsys, "fold", "--gens", "a", "--emit", "csv")
    assert code == 0
    assert "from,letter,to" in csv_out.splitlines()


def test_fold_inferred_basis(capsys):
    code, out, _ = run(capsys, "fold", "--gens", "x y', y", "--emit", "json")
    assert code == 0
    assert json.loads(out)["result"]["rank"] == 2


@pytest.mark.parametrize("basis", [(), ("--basis", "a b")])
def test_fold_gens_take_the_empty_word(capsys, basis):
    # ``1`` is the empty word, not a generator name, with or without --basis
    code, out, err = run(capsys, "fold", "--gens", "a b, 1", *basis, "--emit", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["rank"] == 1 and result["free_basis"] == ["a b"]


# -- torus -------------------------------------------------------------


def test_torus_presentation(capsys):
    code, out, _ = run(capsys, "torus", "--map", FIB)
    assert code == 0
    assert out == "< a, b, t | t a t^-1 = a b, t b t^-1 = a >\n"


def test_torus_fiber_json(capsys):
    code, out, _ = run(
        capsys, "torus", "--map", FIB, "--gens", "b; t", "--emit", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["rank"] == 2 and result["t_step"] == 1
    assert result["rounds"] >= 1


def test_torus_gens_take_powers(capsys):
    # t^2 is how an induced splitting labels its section; it parses back
    code, out, _ = run(
        capsys, "torus", "--map", "a -> b; b -> a", "--gens", "t^2 a", "--emit", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["generators"] == ["a t t"]
    code, out, err = run(capsys, "torus", "--map", FIB, "--gens", "a^x; t")
    assert code == 1 and out == ""
    assert err == "error: bad exponent in 'a^x': need ^k, |k| <= 1000000\n"


def test_torus_unstabilized_exit_two(capsys):
    code, _, err = run(
        capsys, "torus", "--map", "a -> a; b -> b",
        "--gens", "a t; b t", "--max-rounds", "6", "--emit", "json",
    )
    assert code == 2
    assert "budget exceeded" in err


@pytest.mark.parametrize(
    "gens, top, budget", [("a t^3000; b t", 3000, "round"), ("a t^2000; b t^7", 2000, "vertex")]
)
def test_torus_high_exponents_cost_log_k(capsys, monkeypatch, compositions, gens, top, budget):
    # A deterministic work count: every Φᵏ is one substitution through a
    # kept table whose letter images take O(log k) compositions each,
    # where stepping Φ once per unit of k would apply it thousands of times.
    # Only Φ itself is counted: the k = −1 calls are s^(−3000)'s factors.
    applies = []
    apply = Endomorphism.apply

    def counted(phi, w, k=1):
        if k == 1:
            applies.append(w)
            assert len(applies) <= 2 * top.bit_length(), "Φ applied once per unit of k"
        return apply(phi, w, k)

    monkeypatch.setattr(Endomorphism, "apply", counted)
    code, out, err = run(capsys, "torus", "--map", "a -> a; b -> b", "--gens", gens)
    assert (code, out) == (2, "")
    assert err == f"budget exceeded: fiber saturation exceeded the {budget} budget\n"
    assert len(compositions) <= 4 * top.bit_length() * 2


@pytest.mark.parametrize("gens", ["c t^60", "c t^1000", "c; c t^60"])
def test_torus_saturation_reads_only_the_letters_reached(gens):
    # θ^±1 reads Φ^±n per letter, so saturating ⟨c⟩ needs only c's images;
    # composing Φ⁶⁰ whole, with |Φ⁶⁰(a)| ≈ 2.5·10¹², ran out of memory
    argv = ["torus", "--map", "a -> a b; b -> a; c -> c", "--gens", gens]
    code, out, err, peak_mb = run_capped(argv, 1024)
    assert (code, err) == (0, "") and out.startswith("intersection basis:")
    assert peak_mb < 100


def test_torus_empty_gens_is_the_trivial_intersection(capsys):
    # an explicitly empty --gens asks for ⟨⟩ ∩ F, as ";" does, not for the
    # presentation
    outs = []
    for gens in ("", ";"):
        code, out, _ = run(capsys, "torus", "--map", FIB, "--gens", gens, "--emit", "text")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == "intersection basis: \nrank: 0\nt step: 0\nrounds: 0\n"
    code, out, _ = run(capsys, "torus", "--map", FIB, "--gens", "", "--emit", "graph")
    assert (code, out) == (0, "digraph fiber {\n}\n")


# -- split -------------------------------------------------------------


def test_split_induce(tmp_path, capsys):
    gog = tmp_path / "free.gog"
    gog.write_text(FREE_SPLIT)
    code, out, _ = run(
        capsys, "split", "--map", "a -> b; b -> a", "--gog", str(gog), "--induce"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verified"] is True
    assert result["induced"]["kind"] == "Z"
    (vertex,) = result["induced"]["vertices"]
    assert vertex["label"] == "< a, t^2 >" and vertex["period"] == 2


def test_split_unverified_exit_one(tmp_path, capsys):
    gog = tmp_path / "free.gog"
    gog.write_text(FREE_SPLIT)
    code, out, _ = run(capsys, "split", "--map", FIB, "--gog", str(gog))
    assert code == 1
    assert json.loads(out)["result"]["verified"] is False
    code, _, err = run(
        capsys, "split", "--map", FIB, "--gog", str(gog), "--induce"
    )
    assert code == 1 and "witness" in err


def test_split_without_witness_cannot_induce(tmp_path, capsys):
    gog = tmp_path / "plain.gog"
    gog.write_text("basis: a b\n[vertices]\nv1: a\nv2: b\n[edges]\ne1: v1 v2\n")
    code, _, err = run(
        capsys, "split", "--map", "a -> a; b -> b", "--gog", str(gog), "--induce"
    )
    assert code == 1 and "witness" in err


@pytest.mark.parametrize(
    "extra,name",
    [
        ("map v1 -> v1", "v1"),
        ("edge e1 -> e1", "e1"),
        ("corrector v1: a\ncorrector v1: 1", "v1"),
    ],
    ids=["map", "edge", "corrector"],
)
def test_split_duplicate_witness_entry(tmp_path, capsys, extra, name):
    gog = tmp_path / "dup.gog"
    text = FREE_SPLIT + extra + "\n"
    gog.write_text(text)
    code, out, err = run(
        capsys, "split", "--map", "a -> b; b -> a", "--gog", str(gog)
    )
    assert code == 1 and out == ""
    n = len(text.splitlines())
    assert err.splitlines() == [f"error: line {n}: duplicate witness entry for {name!r}"]


@pytest.mark.parametrize(
    "command,text,message",
    [
        ("split", "basis: a b\n[vertices]\n: a | b\n", "line 3: missing vertex name"),
        ("split", "basis: a b\n[vertices]\nv: a\n[edges]\n: v v ; s = b\n", "line 5: missing edge name"),
        ("split", "basis: a b\n[vertices]\nv 1: a | b\n", "line 3: vertex name 'v 1' contains whitespace"),
        ("split", "basis: a b\n[vertices]\nv: a | b\n[edges]\ne: v v ; y = b ; yu = b\n",
         "line 5: unknown edge field 'yu'"),
        ("split", "basis: a b\n[vertices]\nv: a | b a^2 b'\n[edges]\ne: v v ; y = a ; s = b\n",
         "edge e: a cyclic edge cannot carry a stable letter"),
        ("split", "basis: a b\n[vertices]\nv: a | b\n[edges]\ne: v v ; y = a ; y = b\n",
         "line 5: duplicate edge field 'y'"),
        ("hierarchy", "basis: a b\nkind: free\nkind: cyclic\ng\n", "line 3: duplicate kind line"),
        ("hierarchy", "basis: a b\ng\nkind: cyclic\n", "line 3: kind must come before the nodes"),
        ("hierarchy", "basis: a b\ng\n  h1 group=a status=absolute status=unexpanded\n",
         "line 3: duplicate field 'status'"),
    ],
    ids=["nameless-vertex", "nameless-edge", "spaced-vertex", "boundary-field", "cyclic-stable",
         "second-edge-field", "second-kind", "late-kind", "second-node-field"],
)
def test_malformed_structure_files_exit_one(tmp_path, capsys, command, text, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    flag = "--gog" if command == "split" else "--file"
    maps = ["--map", "a -> a b; b -> a"] if command == "split" else []
    code, out, err = run(capsys, command, *maps, flag, str(path))
    assert (code, out, err.splitlines()) == (1, "", [f"error: {message}"])


# -- hierarchy ---------------------------------------------------------


def test_hierarchy_complete(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text(HIER_DONE)
    code, out, _ = run(capsys, "hierarchy", "--file", str(path))
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"kind": "cyclic", "depth": 1, "complete": "true"}


def test_hierarchy_unknown_exit_two(tmp_path, capsys):
    path = tmp_path / "h.txt"
    path.write_text(HIER_OPEN)
    code, out, _ = run(capsys, "hierarchy", "--file", str(path), "--emit", "text")
    assert code == 2
    assert "complete: unknown" in out


# -- divergence --------------------------------------------------------


def test_divergence_json_and_csv(capsys):
    args = (
        "divergence", "--map", "a -> a; b -> b", "--radii", "4,5",
        "--samples", "6", "--seed", "1",
    )
    code, out, _ = run(capsys, *args)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["exponent"] is not None
    assert result["residual"] == 0.0  # two radii: the line is exact
    assert {"radius", "mean"} == set(result["mean_detour"][0])
    assert all(s["distance"] >= s["radius"] for s in result["samples"])
    code, csv_out, _ = run(capsys, *args, "--emit", "csv")
    assert code == 0
    lines = csv_out.splitlines()
    assert "# seed: 1" in lines
    assert "radius,p,q,distance,detour,reachable" in lines


@pytest.mark.parametrize("emit,rendered", [("json", 12), ("csv", 12), ("text", 0), ("svg", 0)])
def test_divergence_renders_samples_only_for_views_that_print_them(
    monkeypatch, capsys, emit, rendered
):
    # json and csv print the 12 samples (6 per radius), each with its p and q
    calls = []
    real = mapping_torus.TorusElement.__str__
    monkeypatch.setattr(
        mapping_torus.TorusElement, "__str__", lambda g: calls.append(g) or real(g)
    )
    code, _, _ = run(
        capsys, "divergence", "--map", "a -> a; b -> b", "--radii", "4,5",
        "--samples", "6", "--seed", "1", "--emit", emit,
    )
    assert code == 0 and len(calls) == 2 * rendered


def test_divergence_ball_budget_exit_two(capsys):
    # a Cayley ball past --max-vertices stops through the one budget handler
    code, out, err = run(
        capsys, "divergence", "--map", "a -> a; b -> b a", "--radii", "3",
        "--max-vertices", "10",
    )
    assert (code, out) == (2, "")
    assert err == "budget exceeded: ball of radius 3 exceeds the budget of 10 vertices\n"


def test_divergence_svg(capsys):
    code, out, _ = run(
        capsys, "divergence", "--map", "a -> a; b -> b", "--radii", "4,5",
        "--samples", "4", "--seed", "0", "--emit", "svg",
    )
    assert code == 0
    assert out.startswith("<svg ") and "<circle" in out


def test_divergence_svg_fit_line_is_the_fitted_line(capsys):
    # radius 2 is plotted but lies below FIT_MIN_RADIUS, so the fit skips it
    args = (
        "divergence", "--map", "a -> a; b -> b a", "--radii", "2,4,6",
        "--samples", "8", "--seed", "0",
    )
    _, out, _ = run(capsys, *args)
    result = json.loads(out)["result"]
    slope = result["exponent"]
    pts = [(math.log(p["radius"]), math.log(p["mean"])) for p in result["mean_detour"]]
    fit = [(x, y) for (x, y), p in zip(pts, result["mean_detour"]) if p["radius"] >= 4]
    intercept = sum(y - slope * x for x, y in fit) / len(fit)
    _, svg, _ = run(capsys, *args, "--emit", "svg")
    dots = [tuple(map(float, c)) for c in re.findall(r'<circle cx="([\d.]+)" cy="([\d.]+)"', svg)]
    assert len(dots) == len(pts) == 3
    # the plot's affine map, read off the plotted points
    lo, hi = min(range(3), key=lambda i: pts[i][1]), max(range(3), key=lambda i: pts[i][1])
    ax = (dots[2][0] - dots[0][0]) / (pts[2][0] - pts[0][0])
    ay = (dots[hi][1] - dots[lo][1]) / (pts[hi][1] - pts[lo][1])
    (line,) = re.findall(
        r'<line x1="([\d.-]+)" y1="([\d.-]+)" x2="([\d.-]+)" y2="([\d.-]+)" '
        r'stroke="gray" stroke-dasharray',
        svg,
    )
    x1, y1, x2, y2 = map(float, line)
    for px, py in ((x1, y1), (x2, y2)):
        x = pts[0][0] + (px - dots[0][0]) / ax
        y = pts[lo][1] + (py - dots[lo][1]) / ay
        assert y == pytest.approx(slope * x + intercept, abs=1e-3)


# -- cross-cutting contract ---------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("growth", "--map", FIB),
        ("fold", "--gens", "a a, b", "--emit", "json"),
        ("divergence", "--map", "a -> a; b -> b", "--radii", "3,4",
         "--samples", "4", "--seed", "7"),
    ],
)
def test_byte_identical_reruns(argv, capsys):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def test_domain_errors_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "growth", "--map", "a -> a\nb = b")
    assert code == 1 and "line 2" in err
    code, _, err = run(capsys, "growth", "--map", str(tmp_path / "missing.map"))
    assert code == 1
    code, _, err = run(capsys, "torus", "--map", "a -> a a; b -> b")
    assert code == 1  # not surjective
    code, _, err = run(capsys, "torus", "--map", "a -> a; t -> t")
    assert code == 1


def test_verification_error_exits_one(monkeypatch, capsys):
    def fail(*args):
        raise VerificationError("inverse readback failed verification")

    monkeypatch.setattr(cli, "certify_automorphism", fail)
    code, out, err = run(capsys, "torus", "--map", FIB)
    assert code == 1 and out == ""
    assert err == "error: inverse readback failed verification\n"


def test_failed_invariance_exits_one(monkeypatch, capsys):
    monkeypatch.setattr(mapping_torus, "is_invariant", lambda graph, theta: False)
    code, out, err = run(capsys, "torus", "--map", FIB, "--gens", "b; t")
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_usage_errors_exit_one(capsys):
    for argv in (["growth"], ["nonsense"], ["growth", "--map", FIB, "--emit", "pdf"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, flag, low, value",
    [
        (("growth", "--map", FIB), "--iters", 1, "-3"),
        (("growth", "--map", FIB), "--iters", 1, "0"),
        (("growth", "--map", FIB), "--cap", 1, "0"),
        (("divergence", "--map", "a -> a; b -> b"), "--samples", 1, "0"),
        (("divergence", "--map", "a -> a; b -> b"), "--samples", 1, "-2"),
        (("divergence", "--map", "a -> a; b -> b"), "--max-vertices", 1, "0"),
        (("torus", "--map", FIB, "--gens", "b; t"), "--max-vertices", 1, "-5"),
        (("torus", "--map", FIB, "--gens", "b; t"), "--max-rounds", 0, "-1"),
        (("torus", "--map", FIB, "--gens", "b; t"), "--max-rounds", 0, "many"),
    ],
)
def test_bad_budgets_exit_one(argv, flag, low, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, value])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: argument {flag}: must be an integer >= {low}, got {value!r}"
    ]


# unbounded, such runs take one matrix step per iterate for as long as
# asked, or print lengths past Python's int-to-str digit limit
@pytest.mark.parametrize("value", ["1001", "100000", "99999999999999999999"])
def test_iters_above_bound_exit_one(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["growth", "--map", FIB, "--iters", value])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: argument --iters: must be an integer <= 1000, got {value!r}"
    ]


def test_iters_bound_is_inclusive(capsys):
    code, out, _ = run(capsys, "growth", "--map", "a -> a; b -> b a", "--iters", "1000")
    assert code == 0
    assert json.loads(out)["budgets"]["iters"] == 1000


# past Python's int-to-str digit limit int() raises ValueError, which
# must not read as "not an integer"
@pytest.mark.parametrize(
    "argv, flag, value, message",
    [
        (("growth", "--map", FIB), "--iters", "9" * 5000, "must be an integer <= 1000, got {!r}"),
        (("growth", "--map", FIB), "--iters", "+" + "9" * 5000, "must be an integer <= 1000, got {!r}"),
        (("growth", "--map", FIB), "--cap", "9" * 5000, "has too many digits (5000)"),
        (("growth", "--map", FIB), "--cap", " +" + "9" * 5000, "has too many digits (5000)"),
        (("growth", "--map", FIB), "--cap", "-" + "9" * 5000, "must be an integer >= 1, got {!r}"),
        (("divergence", "--map", "a -> a; b -> b"), "--samples", "7" * 4301, "has too many digits (4301)"),
    ],
    ids=["iters", "iters-plus", "cap", "cap-plus", "cap-negative", "samples"],
)
def test_overlong_budgets_exit_one(argv, flag, value, message, capsys):
    with pytest.raises(SystemExit) as info:
        main([*argv, flag, value])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: argument {flag}: {message.format(value)}"]


@pytest.mark.parametrize("value", ["4,x", "0", "4,-2", ","])
def test_bad_radii_exit_one(value, capsys):
    with pytest.raises(SystemExit) as info:
        main(["divergence", "--map", "a -> a; b -> b", "--radii", value])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: argument --radii: must be comma-separated integers >= 1, "
        f"got {value!r}"
    ]


# -- one parser per process ---------------------------------------------


def test_parser_is_built_once(monkeypatch, capsys):
    added = []
    original = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        added.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    cli._build_parser.cache_clear()
    assert run(capsys, "growth", "--map", FIB)[0] == 0
    assert ("--iters",) in added
    added.clear()
    assert run(capsys, "fold", "--gens", "a b, b a")[0] == 0
    assert added == []


def test_parser_keeps_no_state_between_calls(capsys):
    code, out, _ = run(capsys, "growth", "--map", FIB, "--iters", "5", "--cap", "9")
    assert code == 0 and json.loads(out)["budgets"] == {"cap": 9, "iters": 5}
    code, out, _ = run(capsys, "growth", "--map", FIB)
    assert code == 0 and json.loads(out)["budgets"] == {"cap": 1000000, "iters": 40}
    base = ("divergence", "--map", "a -> a; b -> b", "--samples", "2")
    code, out, _ = run(capsys, *base, "--radii", "2,3")
    assert code == 0 and json.loads(out)["budgets"]["radii"] == "2,3"
    code, out, _ = run(capsys, *base)
    assert code == 0 and json.loads(out)["budgets"]["radii"] == "4,6,8"
    with pytest.raises(SystemExit) as info:
        main(["growth", "--map", FIB, "--iters", "0"])
    assert info.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: argument --iters")



# -- dispatch: a known subcommand is parsed by its own parser ---------------

CHOICES = "'growth', 'fold', 'torus', 'split', 'hierarchy', 'divergence'"
USAGE_ERROR = {
    "no command": "error: the following arguments are required: command\n",
    "no map": "error: the following arguments are required: --map\n",
}


def call(capsys, argv):
    """main's exit code, stdout and stderr, whether it returns or exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 1, "", USAGE_ERROR["no command"]),
        (["-h"], 0, "top help", ""),
        (["-h", "growth"], 0, "top help", ""),
        (["nope"], 1, "", f"error: argument command: invalid choice: 'nope' (choose from {CHOICES})\n"),
        (["--", "growth"], 1, "", f"error: argument command: invalid choice: '--' (choose from {CHOICES})\n"),
        (["--emit", "pdf"], 1, "", f"error: argument command: invalid choice: 'pdf' (choose from {CHOICES})\n"),
        (["growth"], 1, "", USAGE_ERROR["no map"]),
        (["growth", "--map"], 1, "", "error: argument --map: expected one argument\n"),
        (["growth", "--map", FIB, "extra"], 1, "", "error: unrecognized arguments: extra\n"),
        (["growth", "--ma", FIB], 0, "growth", ""),
        (["growth", f"--map={FIB}"], 0, "growth", ""),
        (["growth", "--", "--map"], 1, "", USAGE_ERROR["no map"]),
        (["growth", "-h"], 0, "growth help", ""),
        (["growth", "--map", FIB, "-h"], 0, "growth help", ""),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "",
)
def test_dispatch_pins_code_and_bytes(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    parser, commands = cli._build_parser()
    views = {
        "top help": parser.format_help(),
        "growth help": commands["growth"].format_help(),
        "growth": call(capsys, ["growth", "--map", FIB])[1],
    }
    assert views["top help"].startswith(
        "usage: fgrow [-h] {growth,fold,torus,split,hierarchy,divergence} ...\n"
    )
    assert views["growth help"].startswith("usage: fgrow growth [-h] --map MAP [--word WORD]")
    assert call(capsys, argv) == (code, views.get(out, out), err)


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    # the fgrow console script calls main() with no arguments
    expected = call(capsys, ["growth", "--map", FIB, "--emit", "text"])
    monkeypatch.setattr(sys, "argv", ["fgrow", "growth", "--map", FIB, "--emit", "text"])
    assert call(capsys, None) == expected
    monkeypatch.setattr(sys, "argv", ["fgrow"])
    assert call(capsys, None) == (1, "", USAGE_ERROR["no command"])
