"""AST-level optimisation passes (the ``-O3`` stand-in).

The passes are conservative: constant folding, algebraic identities and
dead-branch elimination.  They run before code generation so that both
backends benefit identically, mirroring the paper's setup where the
same source and optimisation level are used for both ISAs.
"""

from __future__ import annotations

from repro.compiler import ast


def _is_const(expr: ast.Expr) -> bool:
    return isinstance(expr, (ast.IntConst, ast.FloatConst))


def _const_value(expr: ast.Expr):
    return expr.value


def _fold_binop(node: ast.BinOp) -> ast.Expr:
    left, right = node.left, node.right
    if _is_const(left) and _is_const(right):
        a, b = _const_value(left), _const_value(right)
        try:
            result = _eval_const_binop(node.op, a, b)
        except (ZeroDivisionError, ValueError):
            return node
        if node.type == ast.INT or node.op in ast.BinOp.COMPARISONS:
            return ast.IntConst(int(result))
        return ast.FloatConst(float(result))
    # algebraic identities on the integer/float domain
    if node.op == "+":
        if _is_const(right) and _const_value(right) == 0:
            return left
        if _is_const(left) and _const_value(left) == 0:
            return right
    if node.op == "-" and _is_const(right) and _const_value(right) == 0:
        return left
    if node.op == "*":
        if _is_const(right) and _const_value(right) == 1:
            return left
        if _is_const(left) and _const_value(left) == 1:
            return right
    if node.op == "/" and _is_const(right) and _const_value(right) == 1:
        return left
    return node


def _eval_const_binop(op: str, a, b):
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if isinstance(a, int) and isinstance(b, int):
            if b == 0:
                raise ZeroDivisionError
            quotient = abs(a) // abs(b)
            return -quotient if (a < 0) != (b < 0) else quotient
        return a / b
    if op == "%":
        if b == 0:
            raise ZeroDivisionError
        return a - (abs(a) // abs(b)) * (b if (a < 0) == (b < 0) else -b) if False else int(a) % int(b)
    if op == "&":
        return int(a) & int(b)
    if op == "|":
        return int(a) | int(b)
    if op == "^":
        return int(a) ^ int(b)
    if op == "<<":
        return int(a) << int(b)
    if op == ">>":
        return int(a) >> int(b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    raise ValueError(f"unknown operator {op!r}")


def fold_expr(expr: ast.Expr) -> ast.Expr:
    """Recursively fold constant sub-expressions."""
    if isinstance(expr, ast.BinOp):
        folded = ast.BinOp(expr.op, fold_expr(expr.left), fold_expr(expr.right))
        return _fold_binop(folded)
    if isinstance(expr, ast.UnOp):
        operand = fold_expr(expr.operand)
        if isinstance(operand, ast.IntConst):
            if expr.op == "neg":
                return ast.IntConst(-operand.value)
            if expr.op == "not":
                return ast.IntConst(int(operand.value == 0))
            if expr.op == "inv":
                return ast.IntConst(~operand.value)
        if isinstance(operand, ast.FloatConst) and expr.op == "neg":
            return ast.FloatConst(-operand.value)
        return ast.UnOp(expr.op, operand)
    if isinstance(expr, ast.Cast):
        inner = fold_expr(expr.expr)
        if isinstance(inner, ast.IntConst) and expr.type == ast.FLOAT:
            return ast.FloatConst(float(inner.value))
        if isinstance(inner, ast.FloatConst) and expr.type == ast.INT:
            return ast.IntConst(int(inner.value))
        return ast.Cast(inner, expr.type)
    if isinstance(expr, ast.Index):
        return ast.Index(expr.name, fold_expr(expr.index), expr.type)
    if isinstance(expr, ast.Deref):
        return ast.Deref(fold_expr(expr.address), expr.type)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.name, [fold_expr(a) for a in expr.args], type=expr.type)
    if isinstance(expr, ast.CallPtr):
        return ast.CallPtr(fold_expr(expr.target), [fold_expr(a) for a in expr.args], type=expr.type)
    return expr


def _fold_stmt(stmt: ast.Stmt) -> list[ast.Stmt]:
    if isinstance(stmt, ast.Assign):
        return [ast.Assign(stmt.name, fold_expr(stmt.value))]
    if isinstance(stmt, ast.StoreIndex):
        return [ast.StoreIndex(stmt.name, fold_expr(stmt.index), fold_expr(stmt.value))]
    if isinstance(stmt, ast.StoreDeref):
        return [ast.StoreDeref(fold_expr(stmt.address), fold_expr(stmt.value), stmt.type)]
    if isinstance(stmt, ast.If):
        cond = fold_expr(stmt.cond)
        then_body = fold_body(stmt.then_body)
        else_body = fold_body(stmt.else_body)
        if isinstance(cond, ast.IntConst):
            return then_body if cond.value else else_body
        return [ast.If(cond, then_body, else_body)]
    if isinstance(stmt, ast.While):
        cond = fold_expr(stmt.cond)
        if isinstance(cond, ast.IntConst) and cond.value == 0:
            return []
        return [ast.While(cond, fold_body(stmt.body))]
    if isinstance(stmt, ast.For):
        return [ast.For(stmt.var, fold_expr(stmt.start), fold_expr(stmt.end), fold_body(stmt.body), fold_expr(stmt.step))]
    if isinstance(stmt, ast.Return):
        return [ast.Return(fold_expr(stmt.value) if stmt.value is not None else None)]
    if isinstance(stmt, ast.ExprStmt):
        return [ast.ExprStmt(fold_expr(stmt.expr))]
    return [stmt]


def fold_body(body: list[ast.Stmt]) -> list[ast.Stmt]:
    out: list[ast.Stmt] = []
    for stmt in body:
        out.extend(_fold_stmt(stmt))
    return out


def optimize_function(function: ast.Function) -> ast.Function:
    return ast.Function(
        name=function.name,
        params=list(function.params),
        locals=list(function.locals),
        body=fold_body(function.body),
        return_type=function.return_type,
    )


def optimize_module(module: ast.Module) -> ast.Module:
    """Apply the optimisation pipeline to every function of a module."""
    return ast.Module(
        name=module.name,
        functions=[optimize_function(f) for f in module.functions],
        globals=list(module.globals),
    )
