"""Shared pytest hooks: echo acceptance-criterion verdicts after the run,
and run property tests from a fixed seed."""

import importlib
import pathlib

from hypothesis import settings

# derandomized: one command on one source tree draws the same examples on
# every run, so it stays deterministic and needs no example database.
# Deadline off because a first call may pay numpy start-up.
settings.register_profile("parabolab", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("parabolab")

ACCEPTANCE_LINES = []

# Hypothesis 6.155 also mixes literal constants from every local module
# loaded at draw time into its draws, and has no setting to turn that
# off.  Every test module is imported here, after ACCEPTANCE_LINES which
# test_acceptance reads back, so the same modules are loaded whether one
# file or the whole suite runs, and both draw the same examples.
for _path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
    importlib.import_module(_path.stem)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
