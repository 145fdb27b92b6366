"""Shared test data."""

from pathlib import Path

import pytest


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
