"""Shared pytest hooks: echo acceptance-criterion verdicts after the run,
and run property tests from a fixed seed."""

from hypothesis import settings

# derandomized: one command on one source tree draws the same examples on
# every run, so it stays deterministic and needs no example database.
# Hypothesis 6.155 also mixes literal constants from the modules loaded at
# the time into its draws, so a file run alone draws other examples than
# the full suite, and a failure seen in one kind of run may not show in
# the other.
# Deadline off because a first call may pay numpy start-up.
settings.register_profile("parabolab", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("parabolab")

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
