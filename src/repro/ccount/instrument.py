"""The CCount instrumenter: rewrite pointer writes to maintain counts.

The paper describes CCount's compiler pass as rewriting every pointer write
``*a = b`` into ``RC(b)++, RC(*a)--, *a = b``.  This instrumenter performs the
same rewrite at the source level by replacing the assignment with a call to
the runtime builtin ``__ccount_ptr_write(&lvalue, value)``, which performs the
increment-before-decrement update and the store itself.

Two further rewrites reproduce the manual conversion work §2.2 reports:

* calls to ``memcpy``/``memset`` whose destination is an object containing
  pointers become the type-aware ``__ccount_memcpy``/``__ccount_memset``
  (the paper changed 50 such uses by hand);
* the instrumenter records, per function, how many pointer-write sites were
  instrumented and how many were skipped because they target local variables
  (footnote 2: the kernel version of CCount does not track references from
  locals).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from ..deputy.typesystem import TypeEnv
from ..machine.program import Program
from ..minic import ast_nodes as ast
from ..minic.ctypes import CArray, CPointer, CStruct, CType
from ..minic.visitor import Transformer
from .runtime import CCountConfig
from .typeinfo import TypeInfoRegistry, build_typeinfo

#: Functions whose destination argument is copied/cleared in a type-aware way.
BULK_FUNCTIONS = {"memcpy": "__ccount_memcpy", "memmove": "__ccount_memcpy",
                  "memset": "__ccount_memset"}


@dataclass
class CCountInstrumentationResult:
    """Summary of one CCount instrumentation run."""

    program: Program
    typeinfo: TypeInfoRegistry
    pointer_writes_instrumented: int = 0
    pointer_writes_skipped_local: int = 0
    bulk_calls_converted: int = 0
    per_function: dict[str, int] = field(default_factory=dict)


class CCountInstrumenter:
    """Instrument every function of a program for reference counting."""

    def __init__(self, program: Program, config: CCountConfig | None = None,
                 typeinfo: TypeInfoRegistry | None = None) -> None:
        self.program = program
        self.config = config or CCountConfig()
        self.typeinfo = typeinfo or build_typeinfo(program)
        self.result = CCountInstrumentationResult(program=program, typeinfo=self.typeinfo)

    def run(self) -> CCountInstrumentationResult:
        for unit in self.program.units:
            for decl in unit.decls:
                if isinstance(decl, ast.FuncDef):
                    self._do_function(decl)
        return self.result

    def instrument_function(self, func: ast.FuncDef) -> None:
        """Give ``func`` its instrumented body (it need not be in ``program``;
        the engine's per-unit shards pass shallow copies, so the shared
        definition keeps its original body)."""
        self._do_function(func)

    def _do_function(self, func: ast.FuncDef) -> None:
        env = TypeEnv(self.program, func)
        rewriter = _PointerWriteRewriter(self, env)
        func.body = rewriter.visit(func.body)
        self.result.per_function[func.name] = rewriter.instrumented


class _PointerWriteRewriter(Transformer):
    """AST transformer that performs the pointer-write and bulk-call rewrites."""

    def __init__(self, owner: CCountInstrumenter, env: TypeEnv) -> None:
        self.owner = owner
        self.env = env
        self.instrumented = 0

    # -- pointer writes -------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> ast.Expr:
        target_type = self.env.type_of(node.target).strip()
        if not isinstance(target_type, CPointer):
            return node
        if self._is_untracked_local(node.target):
            self.owner.result.pointer_writes_skipped_local += 1
            return node
        value: ast.Expr = node.value
        if node.op != "=":
            # Compound pointer arithmetic (p += n) still moves the pointer to
            # a different chunk, so rebuild the full new value expression.
            value = ast.Binary(op=node.op[:-1], left=copy.deepcopy(node.target),
                               right=node.value, location=node.location)
        call = ast.make_call(
            "__ccount_ptr_write",
            [ast.Unary(op="&", operand=node.target, location=node.location), value],
            node.location)
        self.instrumented += 1
        self.owner.result.pointer_writes_instrumented += 1
        return call

    def _is_untracked_local(self, target: ast.Expr) -> bool:
        """Writes to plain local pointer variables are skipped (footnote 2)."""
        if self.owner.config.track_locals:
            return False
        if not isinstance(target, ast.Ident):
            return False
        if self.env.program.globals.get(target.name) is not None:
            return False
        return target.name in self.env.locals

    # -- type-aware bulk operations --------------------------------------------

    def visit_Call(self, node: ast.Call) -> ast.Expr:
        if not isinstance(node.func, ast.Ident):
            return node
        replacement = BULK_FUNCTIONS.get(node.func.name)
        if replacement is None or len(node.args) < 3:
            return node
        layout = self._destination_layout(node.args[0])
        if layout is None or not layout.has_pointers:
            return node
        self.owner.result.bulk_calls_converted += 1
        return ast.Call(
            func=ast.Ident(name=replacement, location=node.func.location),
            args=[*node.args, ast.int_lit(layout.type_id, node.location)],
            location=node.location)

    def _destination_layout(self, dst: ast.Expr):
        dst_type = self.env.type_of(dst).strip()
        target: CType | None = None
        if isinstance(dst_type, CPointer):
            target = dst_type.target.strip()
        elif isinstance(dst_type, CArray):
            target = dst_type.element.strip()
        if isinstance(target, CStruct) and target.complete:
            return self.owner.typeinfo.register_struct(target)
        return None


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def instrument_program(program: Program, config: CCountConfig | None = None,
                       typeinfo: TypeInfoRegistry | None = None) -> CCountInstrumentationResult:
    """Instrument ``program`` in place for CCount."""
    return CCountInstrumenter(program, config, typeinfo).run()


def instrument_copy(program: Program,
                    config: CCountConfig | None = None) -> CCountInstrumentationResult:
    """Instrument a deep copy of ``program``, leaving the original untouched."""
    # Deep, not path-copied: callers may go on to rewrite the result in place
    # (the Deputy instrumenter assigns into expression nodes).
    clone = copy.deepcopy(program)
    return CCountInstrumenter(clone, config).run()
