import pytest
from hypothesis import settings

# One hypothesis profile for the suite: no per-example deadline, since a
# loaded machine can stretch one example past it; example counts stay per test.
settings.register_profile("fgrow", deadline=None)
settings.load_profile("fgrow")

ACCEPTANCE_LINES: list[str] = []


class Compositions(list):
    """The ``compositions`` fixture's list, with ``letters``, the letters
    fed to the compositions listed, Σ|T_a[y]| over the letters y of
    T_b[x], and ``reference``: once a test sets it, a composition that
    would take ``letters`` past twice the reference raises before it is
    built, so a runaway power fails at the bound instead of running out
    of memory."""

    letters = 0
    reference: int | None = None


@pytest.fixture
def compositions(monkeypatch):
    """(k, x) for each image T_k[x] of a signed fiber letter x under Φᵏ
    that any map composes from two kept tables while the test runs, in
    the order they are asked for.  x⁻¹'s image comes with x's, and T_0
    and T_±1 are read off the map, so neither is listed."""
    from fgrow import automorphisms
    from fgrow.automorphisms import Endomorphism, _Composite

    heights: dict[int, int] = {}
    built = Compositions()
    table, missing, free_reduce = Endomorphism._table, _Composite.__missing__, automorphisms.free_reduce
    depth = [0]

    def spy_table(phi, k):
        t = table(phi, k)
        heights[id(t)] = k
        return t

    def spy_missing(t, x):
        built.append((heights.get(id(t)), x))
        depth[0] += 1
        try:
            return missing(t, x)
        finally:
            depth[0] -= 1

    def spy_reduce(letters, images=None):
        # inside a composition, T_a[y] of every letter y of T_b[x] is
        # looked up (and composed, counted in turn) before the product is
        if depth[0] and images is not None:
            built.letters += sum(len(images[y]) for y in letters)
            if built.reference is not None and built.letters > 2 * built.reference:
                raise AssertionError(
                    f"composing {built.letters} letters, past twice the reference {built.reference}"
                )
        return free_reduce(letters, images)

    monkeypatch.setattr(Endomorphism, "_table", spy_table)
    monkeypatch.setattr(_Composite, "__missing__", spy_missing)
    monkeypatch.setattr(automorphisms, "free_reduce", spy_reduce)
    return built


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
