"""Abstract syntax tree of the MiniC guest language.

MiniC is a deliberately small structured language: word-sized integers,
floating point scalars, global arrays, functions with scalar arguments
and the control flow constructs needed by the benchmark kernels.  ASTs
are built programmatically from Python (there is no parser), which is
how the NPB kernels and the guest runtime libraries are written.

Types are the strings ``"int"``, ``"float"`` and ``"void"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.errors import CompileError

INT = "int"
FLOAT = "float"
VOID = "void"
BYTE = "byte"

_VALID_TYPES = (INT, FLOAT)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expressions."""

    type: str = INT

    def contains_call(self) -> bool:
        return any(child.contains_call() for child in self.children())

    def children(self) -> Sequence["Expr"]:
        return ()


@dataclass
class IntConst(Expr):
    value: int
    type: str = INT


@dataclass
class FloatConst(Expr):
    value: float
    type: str = FLOAT


@dataclass
class Var(Expr):
    """A local scalar variable or parameter."""

    name: str
    type: str = INT


@dataclass
class GlobalAddr(Expr):
    """Address of a global symbol (an integer value)."""

    name: str
    type: str = INT


@dataclass
class FuncAddr(Expr):
    """Address of a function (used for thread entries and parallel loops)."""

    name: str
    type: str = INT


@dataclass
class Index(Expr):
    """Load of ``name[index]`` where ``name`` is a global array."""

    name: str
    index: Expr
    type: str = INT

    def children(self):
        return (self.index,)


@dataclass
class Deref(Expr):
    """Load through a computed address (heap pointers, message buffers)."""

    address: Expr
    type: str = INT

    def children(self):
        return (self.address,)


@dataclass
class BinOp(Expr):
    """Binary operation; comparison operators always produce ``int``."""

    op: str
    left: Expr
    right: Expr
    type: str = INT

    COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
    INT_ONLY = ("%", "&", "|", "^", "<<", ">>")

    def __post_init__(self):
        if self.op in self.COMPARISONS:
            self.type = INT
        else:
            self.type = FLOAT if FLOAT in (self.left.type, self.right.type) else INT
        if self.op in self.INT_ONLY and self.type == FLOAT:
            raise CompileError(f"operator {self.op!r} is not defined for float operands")

    def children(self):
        return (self.left, self.right)


@dataclass
class UnOp(Expr):
    """Unary operation: ``neg``, ``not`` (logical) or ``inv`` (bitwise)."""

    op: str
    operand: Expr
    type: str = INT

    def __post_init__(self):
        if self.op == "neg":
            self.type = self.operand.type
        else:
            self.type = INT

    def children(self):
        return (self.operand,)


@dataclass
class Cast(Expr):
    """Conversion between int and float."""

    expr: Expr
    type: str = INT

    def children(self):
        return (self.expr,)


@dataclass
class Call(Expr):
    """Call of a named function or builtin."""

    name: str
    args: list[Expr] = field(default_factory=list)
    type: str = INT

    def contains_call(self) -> bool:
        return True

    def children(self):
        return tuple(self.args)


@dataclass
class CallPtr(Expr):
    """Indirect call through a function address."""

    target: Expr
    args: list[Expr] = field(default_factory=list)
    type: str = INT

    def contains_call(self) -> bool:
        return True

    def children(self):
        return (self.target, *self.args)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Stmt:
    """Base class for statements."""


@dataclass
class Assign(Stmt):
    """Assignment to a local variable."""

    name: str
    value: Expr


@dataclass
class StoreIndex(Stmt):
    """Store into a global array element: ``name[index] = value``."""

    name: str
    index: Expr
    value: Expr


@dataclass
class StoreDeref(Stmt):
    """Store through a computed address: ``*(address) = value``."""

    address: Expr
    value: Expr
    type: str = INT


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt] = field(default_factory=list)


@dataclass
class For(Stmt):
    """Counted loop ``for (var = start; var < end; var += step)``."""

    var: str
    start: Expr
    end: Expr
    body: list[Stmt] = field(default_factory=list)
    step: Expr = field(default_factory=lambda: IntConst(1))


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass
class GlobalVar:
    """A global scalar or array placed in the data segment.

    ``init`` may be ``None`` (zero initialised), a scalar, or a sequence
    of values computed at build time (e.g. FFT twiddle factors).
    """

    name: str
    type: str = INT
    count: int = 1
    init: Union[None, int, float, Sequence[Union[int, float]]] = None

    def __post_init__(self):
        if self.type not in _VALID_TYPES + (BYTE,):
            raise CompileError(f"global {self.name!r} has invalid type {self.type!r}")
        if self.count < 1:
            raise CompileError(f"global {self.name!r} has invalid element count {self.count}")


@dataclass
class Function:
    """A MiniC function definition.

    ``params`` and ``locals`` are lists of ``(name, type)`` pairs; every
    variable used in the body must appear in one of them.
    """

    name: str
    params: list[tuple[str, str]] = field(default_factory=list)
    locals: list[tuple[str, str]] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    return_type: str = VOID

    def variable_types(self) -> dict[str, str]:
        table = {}
        for name, typ in list(self.params) + list(self.locals):
            if typ not in _VALID_TYPES:
                raise CompileError(f"variable {name!r} in {self.name!r} has invalid type {typ!r}")
            if name in table:
                raise CompileError(f"variable {name!r} declared twice in {self.name!r}")
            table[name] = typ
        return table


@dataclass
class Module:
    """A compilation unit: functions plus global data."""

    name: str
    functions: list[Function] = field(default_factory=list)
    globals: list[GlobalVar] = field(default_factory=list)

    def function(self, name: str) -> Function:
        for function in self.functions:
            if function.name == name:
                return function
        raise CompileError(f"module {self.name!r} has no function {name!r}")


# ---------------------------------------------------------------------------
# convenience constructors (keep benchmark sources compact and readable)
# ---------------------------------------------------------------------------


def const(value: Union[int, float]) -> Expr:
    if isinstance(value, bool):
        return IntConst(int(value))
    if isinstance(value, int):
        return IntConst(value)
    return FloatConst(float(value))


def var(name: str, typ: str = INT) -> Var:
    return Var(name, typ)


def fvar(name: str) -> Var:
    return Var(name, FLOAT)


def add(a: Expr, b: Expr) -> BinOp:
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> BinOp:
    return BinOp("-", a, b)


def mul(a: Expr, b: Expr) -> BinOp:
    return BinOp("*", a, b)


def div(a: Expr, b: Expr) -> BinOp:
    return BinOp("/", a, b)


def mod(a: Expr, b: Expr) -> BinOp:
    return BinOp("%", a, b)


def lt(a: Expr, b: Expr) -> BinOp:
    return BinOp("<", a, b)


def le(a: Expr, b: Expr) -> BinOp:
    return BinOp("<=", a, b)


def gt(a: Expr, b: Expr) -> BinOp:
    return BinOp(">", a, b)


def ge(a: Expr, b: Expr) -> BinOp:
    return BinOp(">=", a, b)


def eq(a: Expr, b: Expr) -> BinOp:
    return BinOp("==", a, b)


def ne(a: Expr, b: Expr) -> BinOp:
    return BinOp("!=", a, b)


def call(name: str, *args: Expr, type: str = INT) -> Call:
    return Call(name, list(args), type=type)


def fcall(name: str, *args: Expr) -> Call:
    return Call(name, list(args), type=FLOAT)


def assign(name: str, value: Expr) -> Assign:
    return Assign(name, value)


def store(name: str, index: Expr, value: Expr) -> StoreIndex:
    return StoreIndex(name, index, value)


def load(name: str, index: Expr, typ: str = INT) -> Index:
    return Index(name, index, typ)


def floadx(name: str, index: Expr) -> Index:
    return Index(name, index, FLOAT)


def for_range(varname: str, start: Expr, end: Expr, body: list[Stmt], step: Expr | None = None) -> For:
    return For(varname, start, end, body, step if step is not None else IntConst(1))


def int_to_float(expr: Expr) -> Cast:
    return Cast(expr, FLOAT)


def float_to_int(expr: Expr) -> Cast:
    return Cast(expr, INT)
