"""Shared fixtures."""

import importlib.util
import sys
from pathlib import Path

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


@pytest.fixture
def jacobi_runs(monkeypatch):
    """Matrices the Jacobi kernel actually decomposed (memo misses), in run order."""
    original = linalg._jacobi
    runs = []

    def counted(a):
        runs.append(a)
        return original(a)

    monkeypatch.setattr(linalg, "_jacobi", counted)
    return runs


@pytest.fixture
def script(monkeypatch):
    """``scripts/run_campaigns.py`` of this checkout, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_campaigns.py"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec = importlib.util.spec_from_file_location("run_campaigns", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
