"""Generic AST traversal and rewriting utilities.

Two base classes are provided:

* :class:`Visitor` — read-only traversal with ``visit_<NodeClass>`` hooks.
* :class:`Transformer` — rebuild-style traversal used by the instrumenters;
  returning a new node replaces the old one, returning the input leaves the
  tree unchanged.  A transformer never mutates the tree it is given: it
  returns a new tree that shares every unchanged subtree with the input.

Both walk child nodes automatically, so a concrete visitor only overrides the
hooks it cares about.  Which fields of a node class can hold child nodes is
worked out once per class from its dataclass fields and their annotations.
"""

from __future__ import annotations

import copy
from dataclasses import fields, is_dataclass
from typing import Any, Iterator, get_args, get_type_hints

from . import ast_nodes as ast


def _may_hold_node(hint: Any) -> bool:
    """Whether a field annotated ``hint`` can hold a node or a list of them."""
    args = get_args(hint)
    if args:
        return any(_may_hold_node(arg) for arg in args)
    if isinstance(hint, type):
        return (issubclass(hint, ast.Node) or issubclass(ast.Node, hint)
                or hint is list)
    return True  # Any, type variables, unresolvable forward references


class _ChildSlots(dict):
    """Node class -> names of the fields that may hold child nodes, in field
    declaration order (the order children are yielded and transformed in);
    each class's entry is computed on first use."""

    def __missing__(self, cls: type) -> tuple[str, ...]:
        slots: tuple[str, ...] = ()
        if is_dataclass(cls):
            try:
                hints = get_type_hints(cls)
            except (NameError, TypeError):
                hints = {}
            slots = tuple(spec.name for spec in fields(cls)
                          if _may_hold_node(hints.get(spec.name, Any)))
        self[cls] = slots
        return slots


_CHILD_SLOTS = _ChildSlots()


def _children(node: ast.Node) -> list[ast.Node]:
    children = []
    for name in _CHILD_SLOTS[type(node)]:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            children.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.Node):
                    children.append(item)
    return children


def iter_child_nodes(node: ast.Node) -> Iterator[ast.Node]:
    """Iterate over the direct AST-node children of ``node``."""
    return iter(_children(node))


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Yield ``node`` and all its descendants in pre-order.

    A node's children are read when the walk resumes after yielding it.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children = _children(node)
        children.reverse()
        stack.extend(children)


class Visitor:
    """Read-only traversal with per-node-class hooks."""

    def visit(self, node: ast.Node) -> Any:
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: ast.Node) -> None:
        for child in iter_child_nodes(node):
            self.visit(child)


class Transformer:
    """Rebuild-style traversal: hooks return replacement nodes.

    Children are transformed before their parent's hook runs.  The input is
    never mutated: a node with a replaced child is shallow-copied and the
    copy gets the new children (path copying), unchanged subtrees are shared
    with the input, and a pass that changes nothing returns its input.  A
    hook must likewise return a replacement rather than edit its argument.
    A hook may return a list of nodes only for an item of a list field,
    where the list is spliced in.
    """

    def visit(self, node: ast.Node) -> ast.Node:
        node = self._transform_children(node)
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            replacement = method(node)
            return node if replacement is None else replacement
        return node

    def _transform_children(self, node: ast.Node) -> ast.Node:
        changed: dict[str, Any] = {}
        for name in _CHILD_SLOTS[type(node)]:
            value = getattr(node, name)
            if isinstance(value, ast.Node):
                replacement = self.visit(value)
                if replacement is value:
                    continue
                if isinstance(replacement, list):
                    raise TypeError(
                        f"{type(self).__name__} returned a list for the "
                        f"single-node field {type(node).__name__}.{name}")
                changed[name] = replacement
            elif isinstance(value, list):
                new_items = self._transform_list(value)
                if new_items is not None:
                    changed[name] = new_items
        if not changed:
            return node
        clone = copy.copy(node)
        for name, value in changed.items():
            setattr(clone, name, value)
        return clone

    def _transform_list(self, items: list) -> list | None:
        """The transformed list, or None when no item changed."""
        new_items = None
        for index, item in enumerate(items):
            replacement = self.visit(item) if isinstance(item, ast.Node) else item
            if new_items is None:
                if replacement is item:
                    continue
                new_items = items[:index]
            if isinstance(replacement, list):
                new_items.extend(replacement)
            else:
                new_items.append(replacement)
        return new_items


def initializer_expressions(init: ast.Initializer) -> list[ast.Expr]:
    """Every scalar expression inside an initializer (flattening brace lists).

    Lifted out of the BlockStop checker: control-flow construction
    (:mod:`repro.dataflow.cfg`) needs the expressions a declaration actually
    evaluates, which the generic ``iter_child_nodes`` does not isolate.
    """
    if init.is_list:
        collected: list[ast.Expr] = []
        for element in init.elements or []:
            collected.extend(initializer_expressions(element))
        return collected
    return [init.expr] if init.expr is not None else []


def collect(node: ast.Node, node_type: type) -> list[ast.Node]:
    """Collect all descendants of ``node`` that are instances of ``node_type``."""
    return [n for n in walk(node) if isinstance(n, node_type)]


def count_nodes(node: ast.Node) -> int:
    """Total number of nodes in the subtree rooted at ``node``."""
    return sum(1 for _ in walk(node))
