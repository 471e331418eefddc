"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fresh_tables():
    """Clear every per-rank cache before and after the test, so that tables
    built from a patched reader are neither read nor left behind."""
    from dp_hlog import incidence, rep_theory, weyl

    cached = (
        incidence.enumerate_lines,
        incidence.enumerate_conics,
        weyl.group_data,
        rep_theory._trace_table,
        rep_theory._values,
    )
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()
