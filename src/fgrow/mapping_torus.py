"""Mapping torus arithmetic: G = F ⋊ Z over an automorphism.

Elements carry the unique normal form w·t^k with w a reduced word in
the fiber F and t the section letter; the relation t·a·t⁻¹ = Φ(a)
moves t past fiber letters, so multiplication is
(w₁, k₁)·(w₂, k₂) = (w₁·Φ^{k₁}(w₂), k₁+k₂).  Each Φᵏ is one
substitution through the map's kept table T_k (``Endomorphism._table``).

``fiber_intersection`` computes H ∩ F for a finitely generated
H = ⟨gens⟩ ≤ G: take n = gcd of the generators' t-exponents, build an
explicit s ∈ H with exponent n by Euclidean combination, re-express
the generators as fiber seeds gᵢ·s^{-kᵢ/n}, and saturate the folded
seed subgroup under θ, conjugation by s (a ↦ x·Φⁿ(a)·x⁻¹ when
s = x·tⁿ), until the subgroup is invariant both ways.  θ^±1 is applied
as w ↦ y·ψ(w)·y⁻¹ on letter tuples, where ψ = ψ_{±n} is the inner
conjugate of Φ^±n of least total image length, so only the two ends of
ψ(w) meet the conjugator.  The group keeps ψ_m per exponent m, so
repeated intersections on one torus normalize each power once.  One
live fold holds the subgroup throughout: each round traces the images
on it and folds those that escape onto it, and the canonical graph is
built once nothing escapes.  Seeds are mapped both ways, an escape
θ^±1(w) only onward by θ^±1: its image back, θ^∓1(θ^±1(w)) = w, is an
entry, so it can never escape.  Stabilization is guaranteed only when
H ∩ F is finitely generated, so budgets are enforced and exhaustion
raises UnstabilizedError, a ``words.BudgetExceededError``, rather than
guessing; the round past the round budget stops at its first escape,
which is all the error reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .automorphisms import (
    Automorphism,
    Endomorphism,
    _inner_normalize,
    apply_power,
    certify_automorphism,
    compose,
    inner_automorphism,
    power,
)
from .folding import (
    StallingsGraph,
    WitnessedGraph,
    _Fold,
    _walk,
    is_invariant,
    witnessed_graph,
)
from .words import (
    Basis,
    BasisMismatchError,
    BudgetExceededError,
    VerificationError,
    Word,
    _inv,
    basis as make_basis,
    concat_all,
    free_reduce,
    identity,
    join,
)


class UnstabilizedError(BudgetExceededError):
    """Saturation budget exhausted before the fiber subgroup stabilized.

    Signals either an intersection that is not finitely generated or
    an insufficient budget; no partial answer is returned.
    """

    def __init__(self, message: str, rounds: int, vertices: int):
        super().__init__(message)
        self.rounds = rounds
        self.vertices = vertices


SECTION_NAME = "t"


@dataclass(frozen=True)
class TorusGroup:
    """G = F ⋊ Z for a certified automorphism of F.

    Φᵏ is ``phi``'s kept table T_k; the group keeps one normalized power
    per exponent asked for: ψ_m = i_h∘Φ^m of least total image length,
    with h, which fiber saturation reads as θ^±1's map.  Like an
    automorphism's kept inverse, the kept powers are not fields, so
    they take no part in ``==`` or ``hash``.
    """

    phi: Automorphism

    def __post_init__(self) -> None:
        if SECTION_NAME in self.phi.basis.names:
            raise ValueError("generator name 't' is reserved for the section letter")
        object.__setattr__(self, "_powers", {})

    @property
    def basis(self) -> Basis:
        return self.phi.basis

    @property
    def extended_basis(self) -> Basis:
        return make_basis(list(self.basis.names) + [SECTION_NAME])

    # -- element construction -----------------------------------------

    def element(self, w: Word | str, k: int = 0) -> "TorusElement":
        if isinstance(w, str):
            w = self.basis.parse(w)
        return TorusElement(self, w, k)

    def identity_element(self) -> "TorusElement":
        return TorusElement(self, identity(self.basis), 0)

    def t(self, k: int = 1) -> "TorusElement":
        return TorusElement(self, identity(self.basis), k)

    def normalize(self, item: str | Iterable[int]) -> "TorusElement":
        """Normal form of a word over basis ∪ {t}, given as text or as
        letters of ``extended_basis``: each fiber letter x read after
        t-exponent k moves left past t^k as Φ^k(x), read off the map's
        kept table T_k, and the images are joined and reduced once."""
        if isinstance(item, str):
            item = self.extended_basis.parse(item).letters
        section = self.basis.rank + 1
        table_of = self.phi._table
        k = 0
        out: list[int] = []
        for x in item:
            if abs(x) == section:
                k += 1 if x > 0 else -1
            elif 0 < abs(x) < section:
                out += table_of(k)[x]
            else:
                raise ValueError(f"letter {x} out of range for rank {section}")
        return TorusElement(self, Word(self.basis, free_reduce(out)), k)

    def _conjugation(
        self, g: "TorusElement"
    ) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]], tuple[int, ...]]:
        """(y, ψ's substitution table, y⁻¹) with conjugation by
        g = x·tᵐ equal to i_y∘ψ, where ψ = i_h∘Φᵐ is the kept
        normalized power and y = x·h⁻¹: y meets ψ(w) at its two ends
        only, where Φᵐ's own images would cancel at every junction."""
        kept = self._powers.get(g.k)
        if kept is None:
            psi, h = _inner_normalize(power(self.phi, g.k))
            kept = self._powers[g.k] = (psi._subst, h.letters)
        table, h = kept
        y = join(g.w.letters, _inv(h))
        return y, table, _inv(y)

    # -- presentation ---------------------------------------------------

    def defining_relators(self) -> list["TorusElement"]:
        """t·a·t⁻¹·Φ(a)⁻¹ per generator, pushed through normalize."""
        section = self.basis.rank + 1
        out = []
        for i in range(1, self.basis.rank + 1):
            img = self.phi.images[i - 1]
            letters = (section, i, -section) + img.inverse().letters
            out.append(self.normalize(letters))
        return out

    def presentation(self) -> str:
        gens = ", ".join(list(self.basis.names) + [SECTION_NAME])
        rels = ", ".join(
            f"t {name} t^-1 = {img}"
            for name, img in zip(self.basis.names, self.phi.images)
        )
        return f"< {gens} | {rels} >"


def torus_group(phi: Endomorphism) -> TorusGroup:
    """Build the mapping torus, certifying the map when needed."""
    if not isinstance(phi, Automorphism):
        phi = certify_automorphism(phi)
    return TorusGroup(phi)


@dataclass(frozen=True)
class TorusElement:
    group: TorusGroup
    w: Word
    k: int

    def __post_init__(self) -> None:
        if self.w.basis != self.group.basis:
            raise BasisMismatchError("fiber word over a different basis")

    def is_identity(self) -> bool:
        return self.k == 0 and not self.w.letters

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if self.group != other.group:
            raise BasisMismatchError("elements of different torus groups")
        w = self.w * apply_power(self.group.phi, self.k, other.w)
        return TorusElement(self.group, w, self.k + other.k)

    def inverse(self) -> "TorusElement":
        w = apply_power(self.group.phi, -self.k, self.w.inverse())
        return TorusElement(self.group, w, -self.k)

    def __pow__(self, m: int) -> "TorusElement":
        """gᵐ = w·Φᵏ(w)·Φ²ᵏ(w)⋯·t^(|m|k) for g^±1 = w·tᵏ: each factor is
        one Φᵏ step from the last, and the product is reduced once."""
        base = self if m >= 0 else self.inverse()
        parts = [base.w] if m else []
        for _ in range(abs(m) - 1):
            parts.append(apply_power(self.group.phi, base.k, parts[-1]))
        return TorusElement(self.group, concat_all(self.group.basis, parts), base.k * abs(m))

    def __str__(self) -> str:
        parts = [str(self.w)] if self.w else []
        parts += [SECTION_NAME if self.k > 0 else SECTION_NAME + "'"] * abs(self.k)
        return " ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"<torus element {self}>"


# ---------------------------------------------------------------------------
# fiber intersection


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x·a + y·b = g = gcd(a, b) ≥ 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        return -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _pow_expr(e: Sequence[int], m: int) -> tuple[int, ...]:
    if m >= 0:
        return tuple(e) * m
    return _inv(e) * (-m)


@dataclass
class FiberIntersection:
    """H ∩ F for H = ⟨gens⟩, as a folded graph plus provenance.

    ``n`` is the gcd of the generators' t-exponents and ``s`` an
    explicit element of H with that exponent (None when every
    generator already lies in the fiber).  ``rounds`` counts the
    saturation steps that were needed.
    """

    group: TorusGroup
    gens: tuple[TorusElement, ...]
    graph: StallingsGraph
    n: int
    s: TorusElement | None
    rounds: int
    _witnessed: WitnessedGraph | None = field(default=None, repr=False)
    _entry_exprs: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def contains(self, w: Word) -> bool:
        return self.graph.accepts(w)

    def witness(self, w: Word) -> tuple[int, ...] | None:
        """w as a signed product over ``gens`` (1-based), or None.

        Only available when the intersection was computed with
        with_witnesses=True.
        """
        if self._witnessed is None:
            raise ValueError("witnesses were not requested")
        expr = self._witnessed.express(w)
        if expr is None:
            return None
        out: list[int] = []
        for tix in expr:
            e = self._entry_exprs[abs(tix) - 1]
            out.extend(e if tix > 0 else _inv(e))
        return tuple(out)

    def evaluate_witness(self, expr: Iterable[int]) -> TorusElement:
        """Multiply out a signed product over ``gens``."""
        acc = self.group.identity_element()
        for j in expr:
            g = self.gens[abs(j) - 1]
            acc = acc * (g if j > 0 else g.inverse())
        return acc

    def basis_witnesses(self) -> list[tuple[Word, tuple[int, ...]]]:
        out = []
        # the witnessed graph folds the same entries as ``graph``, so it
        # accepts every element of graph's free basis
        for w in self.graph.free_basis():
            expr = self.witness(w)
            if expr is None:
                raise VerificationError("free basis element lost by the witness graph")
            out.append((w, expr))
        return out


def fiber_intersection(
    group: TorusGroup,
    gens: Sequence[TorusElement],
    max_rounds: int = 64,
    max_vertices: int = 100_000,
    with_witnesses: bool = False,
) -> FiberIntersection:
    """Folded graph of ⟨gens⟩ ∩ F, saturated under conjugation by s.

    θ^±1 = i_y∘ψ_{±n} reads ψ_{±n}, Φ^±n's least inner conjugate, from
    the group's kept powers; θ itself is composed only to certify a
    stop, by the closing ``is_invariant`` recheck.  The round past
    ``max_rounds`` stops at its first escape and raises
    UnstabilizedError, as does a fold past ``max_vertices``.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be nonnegative")
    if max_vertices < 1:
        raise ValueError("max_vertices must be positive")
    gens = tuple(gens)
    for g in gens:
        if g.group != group:
            raise BasisMismatchError("generator from a different torus group")
    b = group.basis

    n = 0
    s = group.identity_element()
    s_expr: tuple[int, ...] = ()
    # _ext_gcd(0, k) = (|k|, 0, ±1): the first exponent off the fiber sets s = g^±1
    for i, g in enumerate(gens, start=1):
        d, x, y = _ext_gcd(n, g.k)
        if d == n:
            continue
        s = (s ** x) * (g ** y)
        s_expr = _pow_expr(s_expr, x) + _pow_expr((i,), y)
        n = d

    # n = gcd of the exponents divides each g.k (and g.k = 0 when n = 0),
    # so g·s^(−m) has exponent g.k − m·n = 0.  Entries stay letter tuples.
    entries: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for i, g in enumerate(gens, start=1):
        m = g.k // n if n else 0
        h = g * (s ** (-m))
        if h.k != 0:
            raise VerificationError("seed failed to land in the fiber")
        entries.append((h.w.letters, (i,) + _pow_expr(s_expr, -m)))

    # one live fold of the entries' loops; its roots are the core graph's
    # vertices, so it is renumbered only once nothing escapes
    fold = _Fold(b.rank)
    for w, _ in entries:
        fold.add_path(w)
    rounds = 0
    if n:
        # θ^±1, conjugation by s^±1, is i_y∘ψ_{±n} from the group's kept
        # powers; the composed θ serves only the closing recheck
        s_inv_expr = _inv(s_expr)
        moves = (
            (*group._conjugation(s), s_expr, s_inv_expr),
            (*group._conjugation(s.inverse()), s_inv_expr, s_expr),
        )
        # H_{r+1} = ⟨H_r ∪ θ(H_r) ∪ θ⁻¹(H_r)⟩: only the last round's new
        # entries need mapping, as older entries' images are already
        # members, and an escape θ^±1(w) only onward by θ^±1, as its
        # θ^∓1-image is w, a member.  Seeds go both ways.  Every image
        # is tested against H_r before any is folded.
        frontier = [(w, e, moves) for w, e in entries]
        while True:
            if fold.uf.roots > max_vertices:
                raise UnstabilizedError(
                    "fiber saturation exceeded the vertex budget",
                    rounds, fold.uf.roots,
                )
            escapes = []
            for w, e, onward in frontier:
                for move in onward:
                    y, table, y_inv, pre, post = move
                    img = join(join(y, free_reduce(w, table)), y_inv)
                    if _walk(fold.t, fold.r, 0, img) != (0, len(img)):
                        # past the round budget any escape raises, so
                        # the last round's scan stops at its first
                        if rounds == max_rounds:
                            raise UnstabilizedError(
                                "fiber saturation exceeded the round budget",
                                rounds + 1, fold.uf.roots,
                            )
                        escapes.append((img, pre + e + post, (move,)))
            if not escapes:
                break
            rounds += 1
            for w, e, _ in escapes:
                entries.append((w, e))
                fold.add_path(w)
            frontier = escapes
    graph = fold.graph(b)
    # nothing escapes, so θ^±1 of every entry is a member and θ(H) = H:
    # this recheck, which certifies the stop, cannot fail
    if n and not is_invariant(
        graph, compose(inner_automorphism(b, s.w), power(group.phi, n))
    ):
        raise VerificationError("saturated fiber subgroup is not invariant")

    result = FiberIntersection(group, gens, graph, n, s if n else None, rounds)
    if with_witnesses:
        result._witnessed = witnessed_graph(b, [Word(b, w) for w, _ in entries])
        result._entry_exprs = tuple(e for _, e in entries)
    return result


__all__ = [
    "FiberIntersection",
    "TorusElement",
    "TorusGroup",
    "UnstabilizedError",
    "fiber_intersection",
    "torus_group",
]
