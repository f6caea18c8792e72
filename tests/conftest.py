"""Shared fixtures: parsed corpus and booted kernels are expensive, so they
are built once per session and reused by read-only tests."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from dataclasses import fields  # noqa: E402

from repro.annotations.attrs import AnnotationSet  # noqa: E402
from repro.kernel.boot import boot_kernel  # noqa: E402
from repro.kernel.build import BuildConfig, parse_corpus  # noqa: E402
from repro.kernel.corpus import KERNEL_FILES  # noqa: E402
from repro.minic import ast_nodes as ast  # noqa: E402
from repro.minic.ctypes import CType  # noqa: E402


def _structure(value):
    if isinstance(value, ast.Node):
        return (type(value).__name__,) + tuple(
            _structure(getattr(value, spec.name)) for spec in fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_structure(item) for item in value)
    if isinstance(value, CType):
        return ("ctype", str(value))
    if isinstance(value, AnnotationSet):
        return tuple((a.kind, _structure(a.args)) for a in value.annotations)
    return value


@pytest.fixture(scope="session")
def ast_structure():
    """Map an AST value to a nested tuple, for structural comparison.

    Dataclass ``==`` on the AST recurses without end through
    self-referential struct types, so types compare by their rendering.
    """
    return _structure


@pytest.fixture(scope="session")
def kernel_program():
    """The parsed (uninstrumented) kernel corpus."""
    return parse_corpus(KERNEL_FILES)


@pytest.fixture(scope="session")
def baseline_kernel():
    """A booted baseline kernel shared by read-mostly tests."""
    return boot_kernel(BuildConfig(), reset_cycles_after_boot=True)


@pytest.fixture(scope="session")
def deputy_kernel():
    """A booted Deputy-instrumented kernel shared by read-mostly tests."""
    return boot_kernel(BuildConfig(deputy=True), reset_cycles_after_boot=True)


@pytest.fixture(scope="session")
def ccount_kernel():
    """A booted CCount-instrumented kernel shared by read-mostly tests."""
    return boot_kernel(BuildConfig(ccount=True), reset_cycles_after_boot=True)
