"""Tests for the generic AST traversal: child order, pre-order walks and the
non-mutating, path-copying Transformer, over real corpora."""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.kernel.build import parse_corpus
from repro.kernel.corpus import KERNEL_FILES
from repro.kernel.synth import generate_corpus
from repro.minic import ast_nodes as ast
from repro.minic.visitor import Transformer, iter_child_nodes, walk


@pytest.fixture(scope="module", params=["kernel", "synth"])
def units(request):
    """Translation units of a private parse (tests here must not share it)."""
    files = KERNEL_FILES if request.param == "kernel" else generate_corpus(1, 5)
    return parse_corpus(files).units


def reference_children(node):
    """Direct node children, read field by field via ``dataclasses.fields``."""
    children = []
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        if isinstance(value, ast.Node):
            children.append(value)
        elif isinstance(value, list):
            children.extend(item for item in value if isinstance(item, ast.Node))
    return children


def reference_walk(node):
    order = [node]
    for child in reference_children(node):
        order.extend(reference_walk(child))
    return order


def same_objects(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


class _AssignToCall(Transformer):
    """Rewrites every assignment into a call, the way CCount does."""

    def __init__(self):
        self.rewritten = 0

    def visit_Assign(self, node):
        self.rewritten += 1
        return ast.make_call("__assign", [node.target, node.value], node.location)


def test_iter_child_nodes_matches_field_reference(units):
    visited = 0
    for unit in units:
        for node in reference_walk(unit):
            assert same_objects(list(iter_child_nodes(node)),
                                reference_children(node)), type(node).__name__
            visited += 1
    assert visited > 1000


def test_walk_is_the_reference_preorder(units):
    for unit in units:
        assert same_objects(list(walk(unit)), reference_walk(unit))


def test_rewrite_leaves_input_structurally_unchanged(units, ast_structure):
    before = copy.deepcopy(units)
    rewriter = _AssignToCall()
    rewritten = [rewriter.visit(unit) for unit in units]
    assert rewriter.rewritten > 0
    assert ast_structure(units) == ast_structure(before)
    assert ast_structure(rewritten) != ast_structure(before)


def test_unchanged_subtrees_are_shared(units):
    rewriter = _AssignToCall()
    for unit in units:
        output_ids = {id(node) for node in walk(rewriter.visit(unit))}
        for node in walk(unit):
            rewrites = any(isinstance(inner, ast.Assign) for inner in walk(node))
            # Untouched subtrees are shared; every node on a path to a
            # rewrite is a fresh copy, never the input edited in place.
            assert (id(node) in output_ids) is not rewrites
    assert rewriter.rewritten > 0


def test_transformer_without_hooks_returns_its_input(units):
    class _Identity(Transformer):
        def visit_Ident(self, node):
            return node

    for unit in units:
        assert Transformer().visit(unit) is unit
        assert _Identity().visit(unit) is unit


def test_list_replacement_splices_into_list_field(units):
    class _Twin(Transformer):
        def visit_FuncDef(self, node):
            return [node, node]

    for unit in units:
        before = list(unit.decls)
        expected = []
        for decl in before:
            expected.extend([decl, decl] if isinstance(decl, ast.FuncDef) else [decl])
        twinned = _Twin().visit(unit)
        assert twinned is not unit
        assert same_objects(twinned.decls, expected)
        assert same_objects(unit.decls, before)


def test_list_replacement_for_single_node_field_raises():
    class _Listify(Transformer):
        def visit_IntLit(self, node):
            return [node]

    stmt = ast.ExprStmt(expr=ast.IntLit(value=1))
    with pytest.raises(TypeError, match=r"ExprStmt\.expr"):
        _Listify().visit(stmt)
    assert isinstance(stmt.expr, ast.IntLit)
