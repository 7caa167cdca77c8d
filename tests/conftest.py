"""Shared test helpers plus the acceptance-criteria summary printer."""

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, so that results repeat from run to run
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.load_profile("tier1")

# criterion number -> (passed, detail) recorded by tests/test_acceptance.py
ACCEPTANCE_RESULTS = {}


def record_criterion(number, passed, detail=""):
    prev = ACCEPTANCE_RESULTS.get(number)
    if prev is not None:
        passed = passed and prev[0]
        detail = "; ".join(x for x in (prev[1], detail) if x)
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def crosses_at(scan_at, tstar):
    """True if the scan's CD - LCD changes sign across tstar (1 -+ 1e-12), or is 0 there."""
    at = scan_at([tstar * (1.0 - 1e-12), tstar, tstar * (1.0 + 1e-12)])
    lo, mid, hi = at["cd"] - at["lcd"]
    return lo * hi < 0.0 or mid == 0.0


def first_bracket(scan):
    """The first pair of adjacent scan durations across which CD - LCD changes sign."""
    diff = np.sign(scan["cd"] - scan["lcd"])
    i = int(np.flatnonzero(diff[:-1] != diff[1:])[0])
    return scan["tau"][i], scan["tau"][i + 1]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d}: {status}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
