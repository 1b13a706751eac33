"""CLI contract: output schemas, exit codes, determinism."""

import json
import math
import re

import pytest

from fgrow import cli
from fgrow.cli import main
from fgrow.words import VerificationError

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


def test_torus_unstabilized_exit_two(capsys):
    code, _, err = run(
        capsys, "torus", "--map", "a -> a; b -> b",
        "--gens", "a t; b t", "--max-rounds", "6", "--emit", "json",
    )
    assert code == 2
    assert "budget exceeded" in err


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
