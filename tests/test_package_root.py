"""The package root: the names the README's "Python API" section lists, and nothing more."""

import re
from pathlib import Path

import opineq
from opineq import linalg

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_root_names():
    """The backquoted names of the first paragraph under ``## Python API``."""
    section = README.read_text().split("\n## Python API\n", 1)[1]
    paragraph = section.strip().split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", paragraph)


def test_all_is_the_readme_list():
    assert len(opineq.__all__) == len(set(opineq.__all__)) == 12
    assert opineq.__all__ == readme_root_names()


def test_every_root_name_resolves():
    for name in opineq.__all__:
        assert getattr(opineq, name) is not None, name


def test_root_binds_the_kernel_entry():
    # the benchmark's tracer wraps every module binding of eig_hermitian, the root's too
    assert opineq.eig_hermitian is linalg.eig_hermitian

