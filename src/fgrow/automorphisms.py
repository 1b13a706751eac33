"""Endomorphisms and automorphisms of a finite-rank free group.

A map is stored by its generator images; an automorphism is an
endomorphism that also carries certified inverse images, so it goes
wherever an endomorphism does.  Inverting is done constructively: fold
the graph of the image subgroup while threading witness expressions,
check the result is the full rose (surjective plus free-group Hopficity
means bijective), then read each generator's preimage off its loop
expression.  The certificate is verified by composing both ways before
anything is returned.

>>> from .words import basis
>>> b = basis("a b")
>>> phi = parse_endomorphism("a -> a b; b -> a", b)
>>> str(phi.apply(b.parse("b a'")))
"a b' a'"
>>> inv = certify_automorphism(phi).inverse()
>>> [str(w) for w in inv.images]
['b', "b' a"]
"""

from __future__ import annotations

from dataclasses import dataclass

from .folding import StallingsGraph, witnessed_graph
from .words import Basis, BasisMismatchError, Lines, VerificationError, Word, WordSyntaxError
from .words import _inv, _valid_name, basis as make_basis, free_reduce, put_once


class NotSurjectiveError(ValueError):
    """Raised when a map's images generate a proper subgroup.

    ``witness`` is the folded graph of the image subgroup.
    """

    def __init__(self, message: str, witness: StallingsGraph):
        super().__init__(message)
        self.witness = witness


class NotInvariantError(ValueError):
    """Raised when a subgroup is not preserved by a map.

    ``generator`` is a subgroup basis element whose image (or
    preimage) ``offender`` escapes the subgroup.
    """

    def __init__(self, message: str, generator: Word, offender: Word):
        super().__init__(message)
        self.generator = generator
        self.offender = offender


def _signed_table(images: tuple[Word, ...]) -> dict[int, tuple[int, ...]]:
    """Image letters of every signed letter j and -j, for images in basis order."""
    table: dict[int, tuple[int, ...]] = {}
    for j, w in enumerate(images, start=1):
        table[j] = w.letters
        table[-j] = _inv(w.letters)
    return table


class _Composite(dict):
    """T_(a+b) = T_a∘T_b, composed per signed letter x on first lookup as
    Φᵃ(T_b[x]), with x⁻¹'s image: only letters a word reaches, in both."""

    def __init__(self, outer: dict, inner: dict):
        self.outer, self.inner = outer, inner

    def __missing__(self, x: int) -> tuple[int, ...]:
        below = [self]  # inner tables without x compose it bottom up, not |k| deep by recursion
        while isinstance(below[-1].inner, _Composite) and x not in below[-1].inner:
            below.append(below[-1].inner)
        for t in below[:0:-1]:
            t.__missing__(x)
        y = self[x] = free_reduce(self.inner[x], self.outer)
        self[-x] = _inv(y)
        return y


@dataclass(frozen=True)
class Endomorphism:
    """Map of a free group given by generator images, in basis order."""

    basis: Basis
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.basis.rank:
            raise ValueError("one image per generator is required")
        for w in self.images:
            if w.basis != self.basis:
                raise BasisMismatchError("image over a different basis")
        # the substitution table that apply and the growth iterations read
        object.__setattr__(self, "_subst", _signed_table(self.images))

    def image(self, letter: int) -> Word:
        """Image of a single signed letter."""
        w = self.images[abs(letter) - 1]
        return w if letter > 0 else w.inverse()

    def apply(self, w: Word) -> Word:
        if w.basis != self.basis:
            raise BasisMismatchError("word over a different basis")
        return Word(self.basis, free_reduce(w.letters, self._subst))

    def _table(self, k: int) -> dict[int, tuple[int, ...]]:
        """T_k, kept with every image it has composed while the map lives:
        T_0 is the identity, T_±1 are Φ's and Φ⁻¹'s ``_subst``, and a
        missing T_k is the ``_Composite`` T_a∘T_(k−a).  Above a kept
        T_(k∓1), a = ±1 and Φ^a goes outside: a climb, as growth's
        iterates make, costs the images it reads, not T_(k∓1) of letters
        whose images cancel.  Else ±a is the top bit 2ʲ of |k| − 1, which
        halves a power of two or strips k's top bit, so a letter's image
        under any Φᵏ costs O(log |k|) compositions.  Powers,
        normalization, the Cayley ball and growth's iterates read it."""
        tables = getattr(self, "_tables", None)
        if tables is None:
            tables = {0: {x: (x,) for x in self._subst}, 1: self._subst}
            object.__setattr__(self, "_tables", tables)
        table = tables.get(k)
        if table is None:
            if k == -1:
                if not isinstance(self, Automorphism):
                    raise ValueError("negative power of a non-invertible map")
                table = self.inverse()._subst
            else:
                s = 1 if k > 0 else -1
                a = s if k - s in tables else (1 << ((abs(k) - 1).bit_length() - 1)) * s
                table = _Composite(self._table(a), self._table(k - a))
            tables[k] = table
        return table

    def is_identity(self) -> bool:
        return all(
            w.letters == (i,) for i, w in enumerate(self.images, start=1)
        )

    def __str__(self) -> str:
        return "; ".join(
            f"{self.basis.names[i]} -> {w}" for i, w in enumerate(self.images)
        )

    def __repr__(self) -> str:
        return f"<endomorphism {self}>"


@dataclass(frozen=True)
class Automorphism(Endomorphism):
    """An endomorphism with certified inverse images, in basis order."""

    inverse_images: tuple[Word, ...]

    def inverse(self) -> "Automorphism":
        """The inverse, built once; its own inverse is this object."""
        inv = getattr(self, "_inverse", None)
        if inv is None:
            inv = Automorphism(self.basis, self.inverse_images, self.images)
            object.__setattr__(inv, "_inverse", self)
            object.__setattr__(self, "_inverse", inv)
        return inv

    def __repr__(self) -> str:
        return f"<automorphism {self}>"


def identity_endomorphism(b: Basis) -> Endomorphism:
    return Endomorphism(b, tuple(Word(b, (i,)) for i in range(1, b.rank + 1)))


def identity_automorphism(b: Basis) -> Automorphism:
    images = identity_endomorphism(b).images
    return Automorphism(b, images, images)


def inner_automorphism(b: Basis, g: Word) -> Automorphism:
    """Conjugation x ↦ g·x·g⁻¹."""
    if g.basis != b:
        raise BasisMismatchError("conjugator over a different basis")
    ginv = g.inverse()
    fwd = tuple(g * Word(b, (i,)) * ginv for i in range(1, b.rank + 1))
    bwd = tuple(ginv * Word(b, (i,)) * g for i in range(1, b.rank + 1))
    return Automorphism(b, fwd, bwd)


def compose(f: Endomorphism, g: Endomorphism):
    """f after g.  Automorphism when both arguments are."""
    if f.basis != g.basis:
        raise BasisMismatchError("maps over different bases")
    images = tuple(f.apply(w) for w in g.images)
    if isinstance(f, Automorphism) and isinstance(g, Automorphism):
        ginv = g.inverse()
        return Automorphism(f.basis, images, tuple(ginv.apply(w) for w in f.inverse_images))
    return Endomorphism(f.basis, images)


def power(phi: Endomorphism, k: int):
    """Φᵏ, its images read off the kept table T_k and an automorphism's
    inverse images off T_−k.  Negative k needs an automorphism."""
    b = phi.basis
    ks = (k, -k) if isinstance(phi, Automorphism) else (k,)
    images = [tuple(Word(b, phi._table(m)[j]) for j in range(1, b.rank + 1)) for m in ks]
    return type(phi)(b, *images)


def apply_power(phi: Endomorphism, k: int, w: Word) -> Word:
    """Φᵏ(w), one substitution through the kept table T_k, which composes
    each letter's image on its first lookup by O(log |k|) compositions."""
    if w.basis != phi.basis:
        raise BasisMismatchError("word over a different basis")
    return Word(phi.basis, free_reduce(w.letters, phi._table(k)))


def _inner_normalize(endo: Endomorphism) -> tuple[Endomorphism, Word]:
    """ψ = i_h∘Φ of least total image length Σ|ψ(aⱼ)|, and h.

    Conjugating by a letter x changes a nonempty image's length by
    2 − 2·[it starts with x⁻¹] − 2·[it ends with x], so the total falls
    iff x gets more than half of these end-letter votes; at most one
    letter can.  Each |g·w·g⁻¹| is convex in g on the Cayley tree, and
    so is the sum, so the one-letter descent stops at a global minimum.
    """
    imgs = [img.letters for img in endo.images]
    h: tuple[int, ...] = ()
    while True:
        votes: dict[int, int] = {}
        for w in imgs:
            if w:
                votes[-w[0]] = votes.get(-w[0], 0) + 1
                votes[w[-1]] = votes.get(w[-1], 0) + 1
        x = max(votes, key=votes.__getitem__, default=0)
        if not x or 2 * votes[x] <= sum(votes.values()):
            break
        for j, w in enumerate(imgs):
            w = w[1:] if w and w[0] == -x else (x,) + w
            imgs[j] = w[:-1] if w and w[-1] == x else w + (-x,)
        h = (x,) + h  # i_x∘i_h = i_{xh}; x never undoes the last step
    b = endo.basis
    return Endomorphism(b, tuple(Word(b, w) for w in imgs)), Word(b, h)


# ---------------------------------------------------------------------------
# inversion


def certify_automorphism(phi: Endomorphism) -> Automorphism:
    """Prove ``phi`` invertible and return it with explicit inverse images.

    Raises NotSurjectiveError (with the folded image subgroup as
    witness) when the images do not generate the whole group.
    """
    b = phi.basis
    wg = witnessed_graph(b, list(phi.images))
    inverse_images = []
    for i in range(1, b.rank + 1):
        # the images generate F exactly when every generator is a member
        expr = wg.express(Word(b, (i,)))
        if expr is None:
            raise NotSurjectiveError("images generate a proper subgroup", wg.graph)
        # expression indices name the images, so they substitute
        # directly as preimage letters
        inverse_images.append(Word(b, expr))
    auto = Automorphism(b, phi.images, tuple(inverse_images))
    inv = auto.inverse()
    # each expression multiplies images out to its generator, so
    # phi∘inv = id; free groups are Hopfian, so inv∘phi = id follows
    for i in range(1, b.rank + 1):
        g = Word(b, (i,))
        if phi.apply(inv.apply(g)) != g or inv.apply(phi.apply(g)) != g:
            raise VerificationError("inverse readback failed verification")
    return auto


# ---------------------------------------------------------------------------
# restriction to an invariant subgroup


@dataclass(frozen=True)
class RestrictedAutomorphism:
    """An automorphism restricted to an invariant subgroup.

    ``auto`` acts on a fresh free basis x1..xk; ``embedding`` maps
    those generators to the subgroup's free basis words in the ambient
    group.
    """

    auto: Automorphism
    subgroup: StallingsGraph
    embedding: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_embed", _signed_table(self.embedding))

    def to_ambient(self, w: Word) -> Word:
        if w.basis != self.auto.basis:
            raise BasisMismatchError("word over a different basis")
        return Word(self.subgroup.basis, free_reduce(w.letters, self._embed))

    def to_subgroup(self, w: Word) -> Word | None:
        expr = self.subgroup.express_in_free_basis(w)
        if expr is None:
            return None
        return Word(self.auto.basis, expr)


def restrict(phi: Automorphism, h: StallingsGraph) -> RestrictedAutomorphism:
    """Restriction of phi to H; pass a composed map to restrict a power
    or an inner conjugate.

    H must be invariant both ways; otherwise NotInvariantError names a
    failing basis element.
    """
    if h.basis != phi.basis:
        raise BasisMismatchError("subgroup over a different basis")
    phi_inv = phi.inverse()
    free = h.free_basis()
    if not free:
        raise ValueError("cannot restrict to the trivial subgroup")
    fresh = make_basis([f"x{i}" for i in range(1, len(free) + 1)])
    images = []
    for w in free:
        fw = phi.apply(w)
        expr = h.express_in_free_basis(fw)
        if expr is None:
            raise NotInvariantError("image escapes the subgroup", w, fw)
        bw = phi_inv.apply(w)
        if not h.accepts(bw):
            raise NotInvariantError("preimage escapes the subgroup", w, bw)
        images.append(Word(fresh, expr))
    endo = Endomorphism(fresh, tuple(images))
    return RestrictedAutomorphism(certify_automorphism(endo), h, tuple(free))


# ---------------------------------------------------------------------------
# parsing


def parse_endomorphism(text: str, b: Basis | None = None) -> Endomorphism:
    """Parse generator-image rules.

    One rule per line or semicolon-separated, each ``name -> word``;
    ``#`` starts a comment.  With no explicit basis the left-hand
    sides, in order of first appearance, define one.
    """
    rules: dict[str, tuple[str, int]] = {}  # name -> (word text, line number)
    with Lines(text) as lines:
        for line in lines:
            for part in filter(None, map(str.strip, line.split(";"))):
                lhs, arrow, rhs = part.partition("->")
                if not arrow:
                    raise WordSyntaxError(f"expected 'name -> word' in {part!r}")
                lhs = lhs.strip()
                if not lhs:
                    raise WordSyntaxError("missing generator name")
                if not _valid_name(lhs):
                    raise WordSyntaxError(f"bad generator name {lhs!r}")
                put_once(rules, lhs, (rhs.strip(), lines.lineno), "rule for")
    if not rules:
        raise WordSyntaxError("no rules found")
    if b is None:
        b = make_basis(list(rules))
    extra = [n for n in rules if n not in b.names]
    if extra:
        with lines.at(rules[extra[0]][1]):
            raise WordSyntaxError(f"unknown generator {extra[0]!r}")
    missing = [n for n in b.names if n not in rules]
    if missing:
        raise WordSyntaxError(f"no rule for generator {missing[0]!r}")
    images = []
    for n in b.names:
        with lines.at(rules[n][1]):
            images.append(b.parse(rules[n][0]))
    return Endomorphism(b, tuple(images))


def parse_automorphism(text: str, b: Basis | None = None) -> Automorphism:
    """Parse rules and certify invertibility in one step."""
    return certify_automorphism(parse_endomorphism(text, b))


__all__ = [
    "Automorphism",
    "Endomorphism",
    "NotInvariantError",
    "NotSurjectiveError",
    "RestrictedAutomorphism",
    "apply_power",
    "certify_automorphism",
    "compose",
    "identity_automorphism",
    "identity_endomorphism",
    "inner_automorphism",
    "parse_automorphism",
    "parse_endomorphism",
    "power",
    "restrict",
]
