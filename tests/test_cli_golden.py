"""Golden CLI transcript: every (subcommand, --emit) pair, byte for byte.

Criterion 8 of the acceptance suite checks that two runs agree; this
test checks each run against a transcript recorded once, so a change
that alters every run alike still shows.  Inputs named by path
(``--gog``, ``--file``) are written to a temporary directory; reports
hash file contents, not paths, so their bytes do not depend on where
the files live.

After a deliberate contract change, rewrite the transcript with

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from fgrow.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

FIB = "a -> a b\nb -> a"
WILD = "a -> a b a' b' a\nb -> a"
IDENTITY = "a -> a; b -> b"

FILES = {
    "free.gog": (
        "basis: a b\n[vertices]\nv1: a\nv2: b\n[edges]\ne1: v1 v2\n"
        "[witness]\nmap v1 -> v2\nmap v2 -> v1\nedge e1 -> e1 !\n"
    ),
    "plain.gog": "basis: a b\n[vertices]\nv1: a\nv2: b\n[edges]\ne1: v1 v2\n",
    "cyclic.gog": (
        "basis: a b c\n[vertices]\nv1: a | b\nv2: b | c\n[edges]\ne1: v1 v2 ; y = b\n[witness]\n"
    ),
    "done.h": (
        "basis: a b\nkind: cyclic\ng\n"
        "  h1 group=a status=absolute\n  h2 group=b status=absolute\n"
    ),
    "open.h": "basis: a b\nkind: cyclic\ng\n  h1 group=a status=absolute\n  h2 group=b\n",
}

DIVERGE = ["divergence", "--map", IDENTITY, "--radii", "4,5", "--samples", "8", "--seed", "0"]
TORUS_GENS = ["torus", "--map", FIB, "--gens", "b; t"]

# (case id, argv); "{name}" stands for the path of FILES[name]
CASES = [
    ("growth-json", ["growth", "--map", FIB]),
    ("growth-csv", ["growth", "--map", FIB, "--iters", "8", "--emit", "csv"]),
    ("growth-svg", ["growth", "--map", FIB, "--iters", "8", "--emit", "svg"]),
    ("growth-text", ["growth", "--map", "a -> a\nb -> b a", "--word", "b", "--emit", "text"]),
    ("growth-inconclusive", ["growth", "--map", WILD, "--cap", "100000", "--emit", "text"]),
    ("growth-chain-json", ["growth", "--map", "a -> a; b -> b a; c -> c b"]),
    ("growth-reducible-word-json", ["growth", "--map", "a -> a b; b -> a; c -> c", "--word", "c a"]),
    # no certificate; every generator's lengths are exactly linear
    ("growth-heuristic-polynomial-json", ["growth", "--map", "a -> a; b -> b a; c -> c b' a b"]),
    # words no certificate covers: the abelian lower bound meets the
    # matrix upper bound, or (for a commutator, abelian image 0) does not
    ("growth-sandwich-exponential-json", ["growth", "--map", "a -> a b a; b -> a b", "--word", "a b'",
                                          "--cap", "1000"]),
    ("growth-sandwich-polynomial-json", ["growth", "--map", "a -> a; b -> b a; c -> c b", "--word",
                                         "b a'"]),
    ("growth-commutator-heuristic-json", ["growth", "--map", FIB, "--word", "a b a' b'"]),
    ("fold-text", ["fold", "--gens", "a a, b", "--basis", "a b"]),
    ("fold-json", ["fold", "--gens", "a a, b, a b a'", "--emit", "json"]),
    ("fold-dot", ["fold", "--gens", "a, b a b", "--emit", "dot"]),
    ("fold-csv", ["fold", "--gens", "x y', y", "--emit", "csv"]),
    ("torus-presentation", ["torus", "--map", FIB]),
    ("torus-json", ["torus", "--map", FIB, "--emit", "json"]),
    ("torus-text", ["torus", "--map", FIB, "--emit", "text"]),
    ("torus-graph-needs-gens", ["torus", "--map", FIB, "--emit", "graph"]),
    ("torus-gens-presentation", TORUS_GENS),
    ("torus-gens-json", [*TORUS_GENS, "--emit", "json"]),
    ("torus-gens-graph", [*TORUS_GENS, "--emit", "graph"]),
    ("torus-gens-text", [*TORUS_GENS, "--emit", "text"]),
    ("torus-budget", ["torus", "--map", IDENTITY, "--gens", "a t; b t", "--max-rounds", "6"]),
    ("split-induce-json", ["split", "--map", "a -> b; b -> a", "--gog", "{free.gog}", "--induce"]),
    ("split-induce-text", ["split", "--map", "a -> b; b -> a", "--gog", "{free.gog}", "--induce",
                           "--emit", "text"]),
    ("split-unverified-text", ["split", "--map", FIB, "--gog", "{free.gog}", "--emit", "text"]),
    ("split-no-witness-json", ["split", "--map", IDENTITY, "--gog", "{plain.gog}"]),
    ("split-induce-twist-json", ["split", "--map", "a -> a; b -> b'; c -> c", "--gog", "{cyclic.gog}",
                                 "--induce"]),
    ("split-induce-no-witness", ["split", "--map", IDENTITY, "--gog", "{plain.gog}", "--induce"]),
    ("split-induce-unverified", ["split", "--map", FIB, "--gog", "{free.gog}", "--induce"]),
    ("hierarchy-json", ["hierarchy", "--file", "{done.h}"]),
    ("hierarchy-text", ["hierarchy", "--file", "{done.h}", "--emit", "text"]),
    ("hierarchy-open-text", ["hierarchy", "--file", "{open.h}", "--emit", "text"]),
    ("divergence-json", DIVERGE),
    ("divergence-csv", [*DIVERGE, "--emit", "csv"]),
    ("divergence-svg", [*DIVERGE, "--emit", "svg"]),
    ("divergence-text", [*DIVERGE, "--emit", "text"]),
    ("divergence-fit-svg", ["divergence", "--map", "a -> a; b -> b a", "--radii", "4,6",
                            "--samples", "8", "--seed", "0", "--emit", "svg"]),
    ("error-map-syntax", ["growth", "--map", "a -> a\nb = b"]),
    ("error-not-surjective", ["torus", "--map", "a -> a a; b -> b"]),
    ("error-usage", ["growth", "--map", FIB, "--emit", "pdf"]),
    ("error-budget", ["growth", "--map", FIB, "--iters", "0"]),
]


def run_case(argv: list[str], paths: dict[str, str]) -> dict:
    """Exit code, stdout and stderr of one in-process ``fgrow`` run."""
    argv = [paths.get(a[1:-1], a) if a.startswith("{") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_files(directory: pathlib.Path) -> dict[str, str]:
    paths = {}
    for name, text in FILES.items():
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case, argv", CASES, ids=[c for c, _ in CASES])
def test_cli_matches_golden_transcript(case, argv, golden, tmp_path):
    assert run_case(argv, write_files(tmp_path)) == golden[case]


def test_golden_transcript_covers_every_case(golden):
    assert sorted(golden) == sorted(case for case, _ in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(pathlib.Path(tmp))
        record = {case: run_case(argv, paths) for case, argv in CASES}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
