"""Reduced words over a fixed free-group basis.

A letter is a nonzero integer: ``+k`` is the k-th generator (1-indexed),
``-k`` is its inverse.  A :class:`Word` stores a freely reduced tuple of
letters; a :class:`CyclicWord` stores a cyclically reduced tuple in its
canonical rotation, so conjugacy-class comparison is plain equality.

Text form: generators are whitespace-separated symbols, with ``'`` or
``^-1`` marking an inverse and ``^k`` a power, e.g. ``a b' c^2``.  When
every generator name is a single character, unspaced run-together tokens
such as ``ab'c^2`` are accepted too.  The empty word prints and parses
as ``1``.

>>> F = basis("a b")
>>> w = F.parse("a b' a")
>>> w.letters
(1, -2, 1)
>>> str(concat(F.parse("a b"), F.parse("b' a")))
'a a'
"""

from __future__ import annotations

import re
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


class BasisMismatchError(ValueError):
    """Operands live over different bases."""


class WordSyntaxError(ValueError):
    """Unparseable input: a word literal, a basis's names or a file line."""


class Lines(AbstractContextManager):
    """A text input's lines, ``#`` comments cut, trailing blanks stripped
    and blank lines skipped.  In ``with lines:`` a WordSyntaxError gains
    the prefix ``line N: `` of the line being read, or of the line that
    ``lines.at(N)`` names; after the last line it keeps its bare message."""

    def __init__(self, text: str) -> None:
        self._text, self.lineno = text, None

    def __iter__(self) -> Iterator[str]:
        for self.lineno, raw in enumerate(self._text.splitlines(), start=1):
            if line := raw.split("#", 1)[0].rstrip():
                yield line
        self.lineno = None

    def at(self, lineno: int) -> "Lines":
        self.lineno = lineno
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if isinstance(exc, WordSyntaxError) and self.lineno is not None:
            raise WordSyntaxError(f"line {self.lineno}: {exc}") from None


def put_once(entries: dict, key, value, what: str) -> None:
    """``entries[key] = value``; a key given before is a duplicate ``what``."""
    if key in entries:
        raise WordSyntaxError(f"duplicate {what} {key!r}")
    entries[key] = value


class VerificationError(RuntimeError):
    """A constructed answer failed its own recheck.

    Raised where the mathematics says the check cannot fail, so it
    signals a defect in fgrow rather than bad input.
    """


class BudgetExceededError(RuntimeError):
    """A budget ran out before the answer was complete; every layer
    raises this one type, and no partial answer is returned."""


@dataclass(frozen=True)
class Basis:
    """An ordered tuple of distinct generator names."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.names:
            raise WordSyntaxError("basis needs at least one generator")
        seen = set()
        for name in self.names:
            if not _valid_name(name):
                raise WordSyntaxError(f"bad generator name {name!r}")
            if name in seen:
                raise WordSyntaxError(f"duplicate generator name {name!r}")
            seen.add(name)
        object.__setattr__(self, "_index", {n: i + 1 for i, n in enumerate(self.names)})
        # the signed-name table that every word rendering reads
        symbols = {k: n for n, k in self._index.items()}
        symbols.update({-k: n + "'" for n, k in self._index.items()})
        object.__setattr__(self, "_symbols", symbols)

    @property
    def rank(self) -> int:
        return len(self.names)

    def letter(self, name: str, sign: int = 1) -> int:
        try:
            k = self._index[name]
        except KeyError:
            raise WordSyntaxError(f"unknown generator {name!r}") from None
        return k if sign > 0 else -k

    def symbol(self, letter: int) -> str:
        try:
            return self._symbols[letter]
        except KeyError:
            raise ValueError(f"letter {letter} out of range") from None

    def parse(self, text: str) -> "Word":
        return Word(self, free_reduce(self._scan(text)))

    def _scan(self, text: str) -> list[int]:
        single = all(len(n) == 1 for n in self.names)
        out: list[int] = []
        for token in text.split():
            if token == "1":
                continue
            name = re.split("['^]", token, maxsplit=1)[0]
            if name in self._index:
                k, end = _exponent(token, len(name))
                if end == len(token):
                    out += [self.letter(name, k)] * abs(k)
                    continue
            if not single:
                raise WordSyntaxError(f"unknown symbol {token!r}")
            # run-together single-character form, e.g. ab'c^2
            i = 0
            while i < len(token):
                ch = token[i]
                if ch not in self._index:
                    raise WordSyntaxError(f"unknown symbol {ch!r} in {token!r}")
                k, i = _exponent(token, i + 1)
                out += [self.letter(ch, k)] * abs(k)
        return out


def basis(names: str | Sequence[str]) -> Basis:
    """Build a basis from ``"a b c"`` or a sequence of names."""
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return Basis(tuple(names))


def _valid_name(name: str) -> bool:
    """A generator name: a letter, then letters, digits or underscores."""
    return bool(name) and name[0].isalpha() and name.replace("_", "").isalnum()


_POWER = re.compile(r"\^(-?[0-9]{1,9})(?![0-9])")
MAX_POWER = 10**6


def _exponent(token: str, i: int) -> tuple[int, int]:
    """The exponent marked at ``token[i:]`` (none, ``'`` or ``^k``) and
    the index past its marker."""
    if token.startswith("'", i):
        return -1, i + 1
    if not token.startswith("^", i):
        return 1, i
    m = _POWER.match(token, i)
    if m is None or abs(int(m[1])) > MAX_POWER:
        raise WordSyntaxError(f"bad exponent in {token!r}: need ^k, |k| <= {MAX_POWER}")
    return int(m[1]), m.end()


def free_reduce(
    letters: Iterable[int], images: Mapping[int, tuple[int, ...]] | None = None
) -> tuple[int, ...]:
    """Freely reduce a letter sequence (single stack pass), or with
    ``images`` the product of ``images[x]`` for x in ``letters``.

    Images must be reduced, so only junctions cancel: each image is
    pushed whole after popping what it cancels.  Below, b's image b' cancels whole.

    >>> free_reduce([1, 2, -2, -1, 3])
    (3,)
    >>> free_reduce([1, 2, 1], {1: (1, 2), -1: (-2, -1), 2: (-2,), -2: (2,)})
    (1, 1, 2)
    """
    stack: list[int] = []
    if images is None:
        for x in letters:
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        return tuple(stack)
    for x in letters:
        y = images[x]
        if not stack or not y or stack[-1] != -y[0]:
            stack.extend(y)
            continue
        i, n = 1, len(y)
        stack.pop()
        while i < n and stack and stack[-1] == -y[i]:
            stack.pop()
            i += 1
        stack.extend(y[i:])
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  Construct via ``Basis.parse``, or from
    letters that ``free_reduce`` has reduced."""

    basis: Basis
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        r = self.basis.rank
        prev = 0
        for x in self.letters:
            if x == 0 or abs(x) > r:
                raise ValueError(f"letter {x} out of range for rank {r}")
            if x == -prev:
                raise ValueError("word is not freely reduced")
            prev = x

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __str__(self) -> str:
        return " ".join(map(self.basis._symbols.__getitem__, self.letters)) or "1"

    def __repr__(self) -> str:
        return f"<word {self}>"

    def inverse(self) -> "Word":
        return Word(self.basis, _inv(self.letters))


def identity(b: Basis) -> Word:
    return Word(b, ())


def concat(u: Word, v: Word) -> Word:
    """Reduced product u·v.

    >>> F = basis("a b")
    >>> str(concat(F.parse("a b"), F.parse("b' a")))
    'a a'
    """
    if u.basis != v.basis:
        raise BasisMismatchError("words over different bases")
    if not u.letters:
        return v
    if not v.letters:
        return u
    return Word(u.basis, join(u.letters, v.letters))


def _inv(e: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-j for j in reversed(e)) if e else e


def join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced product of two reduced letter tuples: only the junction
    can cancel.

    >>> join((1, 2), (-2, -1, 2))
    (2,)
    """
    if not a or not b or a[-1] != -b[0]:
        return a + b
    n, i = len(a), 1
    while i < n and i < len(b) and a[n - 1 - i] == -b[i]:
        i += 1
    return a[: n - i] + b[i:]


def concat_all(b: Basis, parts: Iterable[Word]) -> Word:
    out: list[int] = []
    for p in parts:
        if p.basis != b:
            raise BasisMismatchError("words over different bases")
        out.extend(p.letters)
    return Word(b, free_reduce(out))


def _canonical_rotation(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Lexicographically least rotation and its offset, in O(n).

    Letters are ordered by (generator index, sign) with the inverse
    first.  Two-pointer minimum-rotation scan: candidate starts ``i``
    and ``j`` are compared ``k`` letters deep, and a mismatch at depth
    ``k`` rules out the ``k + 1`` starts from the larger candidate on.
    Of several least rotations, as in a periodic word, the offset is the
    smallest one; it decides the conjugator ``cyclic_reduce`` returns.

    >>> _canonical_rotation((2, 1, 2, 1))
    ((1, 2, 1, 2), 1)
    """
    n = len(letters)
    if n < 2:
        return letters, 0
    key = [2 * x if x > 0 else -2 * x - 1 for x in letters]
    key += key
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = key[i + k], key[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return letters[i:] + letters[:i], i


def _cyclic_trim(letters: tuple[int, ...]) -> tuple[int, int]:
    """Bounds ``(lo, hi)`` of the cyclically reduced middle of a reduced word.

    Strips matching inverse letters from both ends; ``letters[:lo]`` is
    the conjugator part.
    """
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == -letters[hi - 1]:
        lo += 1
        hi -= 1
    return lo, hi


@dataclass(frozen=True)
class CyclicWord:
    """A conjugacy class: cyclically reduced letters in canonical rotation."""

    basis: Basis
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        Word(self.basis, self.letters)  # validates free reduction
        if self.letters and self.letters[0] == -self.letters[-1]:
            raise ValueError("not cyclically reduced")
        canon, _ = _canonical_rotation(self.letters)
        if canon != self.letters:
            raise ValueError("not in canonical rotation; use cyclic_reduce")

    @property
    def length(self) -> int:
        return len(self.letters)

    def as_word(self) -> Word:
        return Word(self.basis, self.letters)

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """Ordered letter pairs, including the wraparound pair."""
        ls = self.letters
        if not ls:
            return []
        return [(ls[i], ls[(i + 1) % len(ls)]) for i in range(len(ls))]

    __str__ = Word.__str__

    def __repr__(self) -> str:
        return f"<cyclic {self}>"


def _unchecked(cls, basis: Basis, letters: tuple[int, ...]):
    """A ``cls`` (Word or CyclicWord) of letters known to meet its invariant."""
    self = object.__new__(cls)
    vars(self).update(basis=basis, letters=letters)
    return self


def cyclic_reduce(w: Word) -> tuple[CyclicWord, Word]:
    """Split ``w`` as conjugator·core·conjugator⁻¹.

    Returns ``(core, conjugator)`` with the core canonically rotated, so
    ``concat(concat(conjugator, core.as_word()), conjugator.inverse()) == w``.

    >>> F = basis("a b")
    >>> core, conj = cyclic_reduce(F.parse("a b a'"))
    >>> str(core), str(conj)
    ('b', 'a')
    """
    ls = w.letters
    lo, hi = _cyclic_trim(ls)
    canon, offset = _canonical_rotation(ls[lo:hi])
    # the conjugator is a prefix of w, so it is reduced
    return _unchecked(CyclicWord, w.basis, canon), _unchecked(Word, w.basis, ls[: lo + offset])


def cyclic_word(w: Word) -> CyclicWord:
    return cyclic_reduce(w)[0]


def translation_length(w: Word | CyclicWord) -> int:
    """Cyclically reduced length (translation length on the tree)."""
    if isinstance(w, CyclicWord):
        return w.length
    lo, hi = _cyclic_trim(w.letters)
    return hi - lo
