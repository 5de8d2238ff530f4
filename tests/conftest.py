"""Shared fixtures: the acceptance verdict recorder and the wild witnesses.

The acceptance tests each record a one line PASS/FAIL verdict; printing
them from the terminal-summary hook keeps the lines visible even though
pytest captures stdout while the tests run.
"""

import pytest

from tamekit import wild_witness

from corpora import wild_triples

VERDICTS = []


@pytest.fixture
def verdict():
    def record(line):
        VERDICTS.append(line)
        print(line)

    return record


@pytest.fixture(scope="session")
def wild_witnesses():
    """((a, b, c), wild_witness((a, b, -c))) for each of the 1527 wild
    triples of the criterion 3 sweep, in sweep order.  Built once for the
    session: criterion 4 verifies them and the witness golden renders them."""
    return [((a, b, c), wild_witness((a, b, -c))) for a, b, c in wild_triples()]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
