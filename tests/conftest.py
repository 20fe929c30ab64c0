"""Shared fixtures."""

import sys

import pytest

from opineq import linalg


@pytest.fixture
def eig_calls(monkeypatch):
    """Matrices passed to ``eig_hermitian`` through any opineq module binding, in call order."""
    original = linalg.eig_hermitian
    calls = []

    def counted(a):
        calls.append(a)
        return original(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("opineq") and getattr(module, "eig_hermitian", None) is original:
            monkeypatch.setattr(module, "eig_hermitian", counted)
    return calls
