"""Shared pytest hooks: echo acceptance-criterion verdicts after the run,
and run property tests from a fixed seed."""

from hypothesis import settings

# derandomized: every run draws the same examples, so the suite stays
# deterministic and needs no example database; deadline off because a
# first call may pay numpy start-up
settings.register_profile("parabolab", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("parabolab")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
