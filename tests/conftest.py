import pytest
from hypothesis import settings

# One hypothesis profile for the suite: no per-example deadline, since a
# loaded machine can stretch one example past it; example counts stay per test.
settings.register_profile("fgrow", deadline=None)
settings.load_profile("fgrow")

ACCEPTANCE_LINES: list[str] = []


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
