import pytest
from hypothesis import settings

# One hypothesis profile for the suite: no per-example deadline, since a
# loaded machine can stretch one example past it; example counts stay per test.
settings.register_profile("fgrow", deadline=None)
settings.load_profile("fgrow")

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def compositions(monkeypatch):
    """(k, x) for each image T_k[x] of a signed fiber letter x under Φᵏ
    that any map composes from two kept tables while the test runs, in
    the order they are asked for.  x⁻¹'s image comes with x's, and T_0
    and T_±1 are read off the map, so neither is listed."""
    from fgrow.automorphisms import Endomorphism, _Composite

    heights: dict[int, int] = {}
    built: list[tuple[int, int]] = []
    table, missing = Endomorphism._table, _Composite.__missing__

    def spy_table(phi, k):
        t = table(phi, k)
        heights[id(t)] = k
        return t

    def spy_missing(t, x):
        built.append((heights.get(id(t)), x))
        return missing(t, x)

    monkeypatch.setattr(Endomorphism, "_table", spy_table)
    monkeypatch.setattr(_Composite, "__missing__", spy_missing)
    return built


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
