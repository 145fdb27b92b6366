"""Shared test data and fixtures."""

from pathlib import Path

import numpy as np
import pytest

from entrosketch import hashing, stable


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance criteria's verdict lines, in criterion order.

    ``test_acceptance.report`` prints each to its test's captured stdout,
    which pytest shows only for a failed test."""
    lines = sorted(
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("criterion ")
    )
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def shipped_bias_rows():
    """{(k, zeta): (bc, std_error)} from the Monte Carlo reference table
    ``tests/data/bias_table.txt`` (5e5 replicates per row)."""
    text = (Path(__file__).parent / "data" / "bias_table.txt").read_text()
    rows = {}
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            k, zeta, bc, se = line.split()
            rows[(int(k), float(zeta))] = (float(bc), float(se))
    return rows


@pytest.fixture
def coarse_open_unit(monkeypatch):
    """Scale the open-unit map up by 1.0005, so that about one word in 2000
    is clamped to 1 - 2^-53; returns the clamped count of each of
    ``stable``'s calls."""
    monkeypatch.setattr(hashing, "_INV_2_64", 2.0**-64 * 1.0005)
    clamped = []

    def open_unit(words, tmp, out, inner=stable._open_unit_into):
        inner(words, tmp, out)
        clamped.append(int(np.count_nonzero(out == hashing._BELOW_ONE)))

    monkeypatch.setattr(stable, "_open_unit_into", open_unit)
    return clamped
