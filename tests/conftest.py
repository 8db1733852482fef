"""Fixtures shared by the test modules: the table of generated kernels
emptied, or every run sent to the executor."""

import pytest

from schemegrad import kernels


@pytest.fixture
def fresh_kernels(monkeypatch):
    """An empty table of kernels: each key's first run in the test
    generates its kernel."""
    monkeypatch.setattr(kernels, "_SHARED", {})


@pytest.fixture
def no_kernels(monkeypatch):
    """Every lookup finds no kernel: every run takes the executor, and a
    taped run records one record per instruction."""
    monkeypatch.setattr(kernels, "lookup", lambda prog, sig, kind: None)
