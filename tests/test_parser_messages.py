"""Every message the three text-format parsers raise, byte for byte,
with the line it names.

These messages are the user-facing contract of map, splitting and
hierarchy files (docs/formats.md lists them).  The two-error rows pin
precedence: which check wins when one line, or one file, breaks two
rules.
"""

import pathlib

import pytest

from fgrow.automorphisms import parse_endomorphism
from fgrow.splittings import parse_hierarchy, parse_splitting
from fgrow.words import WordSyntaxError, basis

F = basis("a b")
F3 = basis("a b c")

BAD_EXPONENT = "bad exponent in 'a^x': need ^k, |k| <= 1000000"

MAP = [
    ("a -> a\nb = a", None, "line 2: expected 'name -> word' in 'b = a'"),
    ("-> a b", None, "line 1: missing generator name"),
    ("a -> a b\nb c -> a", None, "line 2: bad generator name 'b c'"),
    ("a -> a b; b -> a\n\na -> b", None, "line 3: duplicate rule for 'a'"),
    ("", None, "no rules found"),
    ("# only a comment\n\n  ;  \n", None, "no rules found"),
    ("a -> a\nb -> b\nc -> c", F, "line 3: unknown generator 'c'"),
    ("a -> b a", F, "no rule for generator 'b'"),
    ("a -> a b\nb -> a z", None, "line 2: unknown symbol 'z' in 'z'"),
    ("a -> a b  # z\n# b -> z\nb -> ab'q", None, "line 3: unknown symbol 'q' in \"ab'q\""),
    ("a -> a^x; b -> b", None, f"line 1: {BAD_EXPONENT}"),
    # two errors: the first part of a line is read first
    ("a -> a\nb = a; a -> b", None, "line 2: expected 'name -> word' in 'b = a'"),
    # every rule is collected before any word is read
    ("a -> q\na -> b", None, "line 2: duplicate rule for 'a'"),
    ("a -> q\nb -> b\nc -> c", F, "line 3: unknown generator 'c'"),
    # an unknown generator wins over a missing one
    ("a -> a\nc -> c", F, "line 2: unknown generator 'c'"),
    ("b -> a\nc -> c", F, "line 2: unknown generator 'c'"),
    # a missing rule wins over a bad word
    ("a -> q", F, "no rule for generator 'b'"),
    # words are read in basis order, not file order
    ("b -> r\na -> q", F, "line 2: unknown symbol 'q' in 'q'"),
]

SPLIT = [
    ("basis: a a\n[vertices]\nv1: a", None, "line 1: duplicate generator name 'a'"),
    ("# a comment\n\n\n\n\nbasis: a 1\n[vertices]\n", None, "line 6: bad generator name '1'"),
    ("basis:\n[vertices]", None, "line 1: basis needs at least one generator"),
    ("basis: a b\n[vertices]\nv1: a", F3, "line 1: basis does not match the ambient one"),
    ("basis: a b\nbasis: a c", None, "line 2: basis does not match the ambient one"),
    ("basis: a b\n[nowhere]", None, "line 2: unknown section 'nowhere'"),
    ("v1: a", None, "line 1: basis must come first"),
    ("basis: a b\nv1: a", None, "line 2: content outside any section"),
    ("[vertices]", None, "no basis line found"),
    ("", None, "no basis line found"),
    ("basis: a b\n[vertices]\nv1 a", None, "line 3: expected 'name: words'"),
    ("basis: a b\n[vertices]\n: a | b", None, "line 3: missing vertex name"),
    ("basis: a b\n[vertices]\nv 1: a | b", None, "line 3: vertex name 'v 1' contains whitespace"),
    ("basis: a b\n[vertices]\nv1: a | q", None, "line 3: unknown symbol 'q' in 'q'"),
    ("basis: a b\n[edges]\ne1 v1 v2", None, "line 3: expected 'name: u v ; fields'"),
    ("basis: a b\n[vertices]\nv: a\n[edges]\n : v v ; s = b", None, "line 5: missing edge name"),
    ("basis: a b\n[edges]\ne 1: v1 v2", None, "line 3: edge name 'e 1' contains whitespace"),
    ("basis: a b\n[edges]\ne1: v1", None, "line 3: expected two endpoints"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; y b", None, "line 3: expected 'key = word'"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; z = a", None, "line 3: unknown edge field 'z'"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; y = b ; yu = b", None, "line 3: unknown edge field 'yu'"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; y = a ; y = b", None, "line 3: duplicate edge field 'y'"),
    ("basis: a b\n[edges]\ne1: v v ; s = a ; s = a", None, "line 3: duplicate edge field 's'"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; y = q", None, "line 3: unknown symbol 'q' in 'q'"),
    ("basis: a b\n[witness]\nmap v1 v2", None, "line 3: unrecognized witness line"),
    ("basis: a b\n[witness]\ncorrector: a", None, "line 3: unrecognized witness line"),
    ("basis: a b\n[witness]\nedge e1 -> e2 ?", None, "line 3: expected '!' flip marker"),
    ("basis: a b\n[witness]\nmap v1 -> v2\nmap v1 -> v1", None,
     "line 4: duplicate witness entry for 'v1'"),
    ("basis: a b\n[witness]\nedge e1 -> e1 !\nedge e1 -> e1", None,
     "line 4: duplicate witness entry for 'e1'"),
    ("basis: a b\n[witness]\ncorrector v1: a\ncorrector v1: b", None,
     "line 4: duplicate witness entry for 'v1'"),
    ("basis: a b\n[witness]\ncorrector v1: a^x", None, f"line 3: {BAD_EXPONENT}"),
    # two errors on one line, or in one file
    ("[bogus]\nv1: a", None, "line 1: unknown section 'bogus'"),
    ("basis: a b\n[vertices]\n: q", None, "line 3: missing vertex name"),
    ("basis: a b\n[edges]\ne1: v1 ; y = q", None, "line 3: expected two endpoints"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; y b ; z = a", None, "line 3: expected 'key = word'"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; z = q", None, "line 3: unknown symbol 'q' in 'q'"),
    ("basis: a b\n[edges]\ne1: v1 v2 ; y = a ; y = q", None, "line 3: unknown symbol 'q' in 'q'"),
    ("basis: a b\n[witness]\ncorrector v1: a\ncorrector v1: q", None,
     "line 4: unknown symbol 'q' in 'q'"),
    ("basis: a b\n[witness]\nmap v1 -> v2\nmap v1 -> v2 extra", None,
     "line 4: unrecognized witness line"),
    ("basis: a b\n[vertices]\nbasis: a b", None, "line 3: basis must come before any section"),
    ("basis: a b\n[witness]\n\n# late\nbasis: a b", None,
     "line 5: basis must come before any section"),
    # a misplaced basis line is refused before its names are read
    ("basis: a b\n[vertices]\nv1: a\nbasis: a", None, "line 4: basis must come before any section"),
    ("[vertices]\nbasis: a 1", None, "line 2: basis must come before any section"),
]

HIERARCHY = [
    ("basis: a a\ng", "line 1: duplicate generator name 'a'"),
    ("kind: free\nbasis:\ng", "line 2: basis needs at least one generator"),
    ("basis: a b\nbasis: a c\ng", "line 2: basis does not match the ambient one"),
    ("g", "line 1: basis must come first"),
    ("basis: a b\nkind: odd\ng", "line 2: kind must be free or cyclic"),
    ("basis: a b\nkind: free\nkind: cyclic\ng", "line 3: duplicate kind line"),
    ("kind: cyclic\nbasis: a b\nkind: cyclic\ng", "line 3: duplicate kind line"),
    ("basis: a b\ng\n  h\nkind: cyclic", "line 4: kind must come before the nodes"),
    ("basis: a b\ng\n   h", "line 3: indentation must be even"),
    ("basis: a b\ng\n    h", "line 3: indentation jumps a level"),
    ("basis: a b\ng\nh", "line 3: more than one root"),
    ("basis: a b\n  g\n    h\nk", "line 4: more than one root"),
    ("basis: a b\ng weird=1", "line 2: unknown field 'weird=1'"),
    ("basis: a b\ng group", "line 2: unknown field 'group'"),
    ("basis: a b\ng status=done", "line 2: unknown status 'done'"),
    ("basis: a b\ng\n  h1 group=a status=absolute status=unexpanded",
     "line 3: duplicate field 'status'"),
    ("basis: a b\ng group=a group=b", "line 2: duplicate field 'group'"),
    ("basis: a b\ng group=a|q", "line 2: unknown symbol 'q' in 'q'"),
    ("basis: a b\ng group=a^x", f"line 2: {BAD_EXPONENT}"),
    ("basis: a b", "no hierarchy nodes found"),
    ("basis: a b\n# g\n\n", "no hierarchy nodes found"),
    ("", "no hierarchy nodes found"),
    # two errors on one line, or in one file: fields are checked in
    # order, each field's key before its value
    ("basis: a b\ng group=q weird=1", "line 2: unknown symbol 'q' in 'q'"),
    ("basis: a b\ng weird=1 group=q", "line 2: unknown field 'weird=1'"),
    ("basis: a b\ng status=done status=absolute", "line 2: unknown status 'done'"),
    ("basis: a b\ng status=absolute status=done", "line 2: duplicate field 'status'"),
    ("basis: a b\ng group=q group=a", "line 2: unknown symbol 'q' in 'q'"),
    ("basis: a b\ng\n   h weird=1", "line 3: indentation must be even"),
    ("basis: a b\ng\nh weird=1", "line 3: unknown field 'weird=1'"),
    ("basis: a b\ng\n    h group=q", "line 3: unknown symbol 'q' in 'q'"),
    ("basis: a b\ng\nh status=done", "line 3: unknown status 'done'"),
    ("kind: odd\ng", "line 1: kind must be free or cyclic"),
    ("basis: a b\ng\nkind: odd", "line 3: kind must come before the nodes"),
    ("basis: a b\ng\n  h\nbasis: a b", "line 4: basis must come before the nodes"),
    ("basis: a b\ng\nbasis: a a", "line 3: basis must come before the nodes"),
    ("basis: a b\nkind: free\ng\nkind: odd", "line 4: duplicate kind line"),
]


def _message(call) -> str:
    with pytest.raises(WordSyntaxError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("text,b,message", MAP)
def test_map_file_messages(text, b, message):
    assert _message(lambda: parse_endomorphism(text, b)) == message


@pytest.mark.parametrize("text,b,message", SPLIT)
def test_splitting_file_messages(text, b, message):
    assert _message(lambda: parse_splitting(text, b)) == message


@pytest.mark.parametrize("text,message", HIERARCHY)
def test_hierarchy_file_messages(text, message):
    assert _message(lambda: parse_hierarchy(text)) == message
