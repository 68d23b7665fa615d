"""Fixtures shared by the test modules."""

import pytest

from coregrowth import chain, dimensions


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty per-process memos of chains and dimension tables for one test.

    A test that counts or inspects what a build does needs the build to
    happen inside it, not in an earlier test of the same process.
    """
    monkeypatch.setattr(chain, "_CHAINS", {})
    monkeypatch.setattr(dimensions, "_TABLES", {})
