"""Independent oracles for the benchmark's answers.

Nothing here imports fgrow.  Words are tuples of signed letters (``+k``
is the k-th generator, ``-k`` its inverse), maps are dicts from
positive letters to image tuples, and torus elements are pairs
``(w, k)`` standing for w·tᵏ.  Each routine is the naive textbook
version: stack reduction, direct substitution, Booth's least rotation,
closed-form polynomial roots, product formulas.
"""

from __future__ import annotations

import json
import math


# ---------------------------------------------------------------------------
# words


def reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(letters) -> tuple[int, ...]:
    return tuple(-x for x in reversed(letters))


def cyclic_trim(letters) -> tuple[int, ...]:
    ls = tuple(letters)
    lo, hi = 0, len(ls)
    while hi - lo >= 2 and ls[lo] == -ls[hi - 1]:
        lo += 1
        hi -= 1
    return ls[lo:hi]


def least_rotation(keys) -> int:
    """Offset of the lexicographically least rotation (Booth 1980)."""
    s = list(keys) * 2
    n = len(s)
    fail = [-1] * n
    k = 0
    for j in range(1, n):
        sj = s[j]
        i = fail[j - k - 1]
        while i != -1 and sj != s[k + i + 1]:
            if sj < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if sj != s[k + i + 1]:
            if sj < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def rotation_key(x: int) -> tuple[int, int]:
    """The package's documented letter order: by generator, inverse first."""
    return (abs(x), 1 if x > 0 else -1)


def canonical_cyclic(letters) -> tuple[int, ...]:
    core = cyclic_trim(reduce(letters))
    if not core:
        return core
    k = least_rotation([rotation_key(x) for x in core])
    return core[k:] + core[:k]


def word_text(letters, names: str) -> str:
    """Spaced prime form, as the package prints words."""
    if not letters:
        return "1"
    return " ".join(
        names[abs(x) - 1] + ("" if x > 0 else "'") for x in letters
    )


# ---------------------------------------------------------------------------
# maps


def parse_rules(text: str) -> dict[int, tuple[int, ...]]:
    """Images of ``a -> a b; b -> a`` rules, basis in rule order."""
    rules = [
        part.split("->")
        for line in text.splitlines()
        for part in line.split(";")
        if part.strip()
    ]
    names = [lhs.strip() for lhs, _ in rules]
    index = {n: i + 1 for i, n in enumerate(names)}

    def letter(tok: str) -> int:
        return -index[tok[:-1]] if tok.endswith("'") else index[tok]

    return {
        index[lhs.strip()]: reduce(letter(t) for t in rhs.split())
        for lhs, rhs in rules
    }


def substitute(images, letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        img = images[x] if x > 0 else inverse(images[-x])
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def compose(f, g):
    """Images of f∘g."""
    return {j: substitute(f, g[j]) for j in g}


def power(images, k: int):
    out = {j: (j,) for j in images}
    for _ in range(k):
        out = compose(images, out)
    return out


def conjugated(images, g):
    """Images of i_g∘Φ: x ↦ g·Φ(x)·g⁻¹."""
    return {j: reduce(g + w + inverse(g)) for j, w in images.items()}


def iterate_lengths(images, letters, max_letters: int, count: int = 12) -> list[int]:
    """Translation lengths of Φ(x), …, Φ^count(x) by direct substitution,
    stopping early after the first iterate longer than ``max_letters``."""
    cur = cyclic_trim(reduce(letters))
    out = []
    while len(out) < count and (not out or len(cur) <= max_letters):
        cur = cyclic_trim(substitute(images, cur))
        out.append(len(cur))
    return out


def real_root(coeffs: list[int], lo: float, hi: float) -> float:
    """Root of a polynomial by bisection on a sign-changing bracket."""

    def f(x: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    flo = f(lo)
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


GOLDEN = real_root([1, -1, -1], 1.0, 2.0)
TRIBONACCI = real_root([1, -1, -1, -1], 1.0, 2.0)


# ---------------------------------------------------------------------------
# subgroups: products of generators


def evaluate(gens, expr) -> tuple[int, ...]:
    """A signed product over ``gens`` (1-based indices), reduced."""
    out: list[int] = []
    for j in expr:
        g = gens[abs(j) - 1] if j > 0 else inverse(gens[abs(j) - 1])
        for y in g:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


# ---------------------------------------------------------------------------
# mapping torus


class Torus:
    """Normal-form arithmetic in F ⋊_Φ Z from explicit images.

    ``images`` and ``inverse_images`` are both given in closed form by
    the caller; (w₁, k₁)·(w₂, k₂) = (w₁·Φ^{k₁}(w₂), k₁ + k₂).
    """

    def __init__(self, images, inverse_images):
        self.rank = len(images)
        self.fwd = images
        self.bwd = inverse_images
        for j in images:
            if substitute(images, inverse_images[j]) != (j,):
                raise ValueError("inverse images do not invert the map")

    def twist(self, k: int, letters) -> tuple[int, ...]:
        images = self.fwd if k > 0 else self.bwd
        for _ in range(abs(k)):
            letters = substitute(images, letters)
        return reduce(letters)

    def mul(self, p, q):
        return reduce(p[0] + self.twist(p[1], q[0])), p[1] + q[1]

    def inv(self, p):
        return self.twist(-p[1], inverse(p[0])), -p[1]

    def normalize(self, letters):
        """Normal form of a word over basis ∪ {t}; t is letter rank+1."""
        acc = ((), 0)
        section = self.rank + 1
        for x in letters:
            step = ((), 1 if x > 0 else -1) if abs(x) == section else ((x,), 0)
            acc = self.mul(acc, step)
        return acc

    def product(self, gens, expr):
        acc = ((), 0)
        for j in expr:
            g = gens[abs(j) - 1]
            acc = self.mul(acc, g if j > 0 else self.inv(g))
        return acc


# ---------------------------------------------------------------------------
# geometry


def free_times_z_ball_sizes(rank: int, r: int) -> list[int]:
    """|B(ρ)| for ρ = 0..r in F_rank × Z with generators basis ∪ {t}:
    a fiber word of length i and a t-exponent k sit at distance i + |k|."""
    sphere = [1] + [2 * rank * (2 * rank - 1) ** (i - 1) for i in range(1, r + 1)]
    return [
        sum(sphere[i] * (2 * (rho - i) + 1) for i in range(rho + 1))
        for rho in range(r + 1)
    ]


def neighbor_states(torus: Torus, state):
    """Cayley-graph neighbours of (w, k) under right multiplication by
    basis letters, their inverses, and t^{±1}."""
    w, k = state
    out = []
    for j in range(1, torus.rank + 1):
        for x in (j, -j):
            out.append(torus.mul(state, ((x,), 0)))
    out.append((w, k + 1))
    out.append((w, k - 1))
    return out


def direct_product_length(state) -> int:
    """Word length in F × Z (identity map) for the basis ∪ {t}."""
    return len(state[0]) + abs(state[1])


def mean_and_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / max(1, n - 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# CLI output shapes


def check_emit(emit: str, text: str) -> str | None:
    """Reason the output does not have the shape of its format, or None."""
    if emit == "json":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return f"json does not parse: {exc}"
        if not isinstance(payload, dict):
            return "json report is not an object"
        if "result" not in payload or len(payload.get("input_sha256", "")) != 64:
            return "json report lacks result or input hash"
        return None
    if not text.endswith("\n"):
        return "output does not end with a newline"
    if emit == "svg":
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return "svg document is not closed"
    elif emit in ("dot", "graph"):
        if not (text.startswith("digraph") and text.rstrip().endswith("}")):
            return "dot graph is not closed"
    elif emit == "csv":
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if not rows or any("," not in ln for ln in rows):
            return "csv has no comma-separated rows"
    return None
