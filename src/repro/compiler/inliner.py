"""Function inlining.

gcc routinely inlines small static functions even when they are not marked
``inline``; only 4 of the 64 patches in the paper's evaluation touch a
function *declared* inline, yet 20 of 64 touch a function that *was*
inlined in the run kernel.  This pass reproduces that behaviour:

* at ``opt_level >= 2``, any function defined in the unit whose body is a
  single ``return expr;`` and small enough is inlined into its callers,
  ``static`` or not, keyword or not;
* at ``opt_level == 1`` only ``inline``-marked functions are considered;
* at ``opt_level == 0`` nothing is inlined.

A call site is only substituted when doing so is semantics-preserving
under expression substitution: every parameter that is used more than once
(or not at all) must be bound to a side-effect-free argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Dict, List, Optional, Tuple

from repro.lang import ast

#: Maximum AST node count of the returned expression for keyword-less
#: inlining; ``inline``-marked functions get the larger budget.
SMALL_BODY_NODES = 12
INLINE_KEYWORD_NODES = 48

_MAX_ROUNDS = 4


@dataclass
class InlineReport:
    """Which callees were inlined where: callee -> [(caller, count)]."""

    inlined: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)

    def record(self, callee: str, caller: str, count: int = 1) -> None:
        sites = self.inlined.setdefault(callee, [])
        for idx, (existing_caller, existing_count) in enumerate(sites):
            if existing_caller == caller:
                sites[idx] = (existing_caller, existing_count + count)
                return
        sites.append((caller, count))

    def was_inlined(self, callee: str) -> bool:
        return callee in self.inlined

    def callers_of(self, callee: str) -> List[str]:
        return [caller for caller, _ in self.inlined.get(callee, [])]

    def merge(self, other: "InlineReport") -> None:
        for callee, sites in other.inlined.items():
            for caller, count in sites:
                self.record(callee, caller, count)


def _expr_size(expr: ast.Expr) -> int:
    """AST node count, the inliner's size metric."""
    if isinstance(expr, ast.Unary):
        return 1 + _expr_size(expr.operand)
    if isinstance(expr, ast.Binary):
        return 1 + _expr_size(expr.left) + _expr_size(expr.right)
    if isinstance(expr, ast.Assign):
        return 1 + _expr_size(expr.target) + _expr_size(expr.value)
    if isinstance(expr, ast.Call):
        return 1 + sum(_expr_size(a) for a in expr.args)
    if isinstance(expr, ast.Index):
        return 1 + _expr_size(expr.base) + _expr_size(expr.index)
    if isinstance(expr, ast.FieldAccess):
        return 1 + _expr_size(expr.base)
    if isinstance(expr, ast.IncDec):
        return 1 + _expr_size(expr.target)
    if isinstance(expr, ast.Conditional):
        return 1 + _expr_size(expr.cond) + _expr_size(expr.then) + \
            _expr_size(expr.otherwise)
    return 1


def _has_side_effects(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.Assign, ast.IncDec, ast.Call)):
        return True
    if isinstance(expr, ast.Unary):
        return _has_side_effects(expr.operand)
    if isinstance(expr, ast.Binary):
        return _has_side_effects(expr.left) or _has_side_effects(expr.right)
    if isinstance(expr, ast.Index):
        return _has_side_effects(expr.base) or _has_side_effects(expr.index)
    if isinstance(expr, ast.FieldAccess):
        return _has_side_effects(expr.base)
    if isinstance(expr, ast.Conditional):
        return (_has_side_effects(expr.cond) or _has_side_effects(expr.then)
                or _has_side_effects(expr.otherwise))
    return False


def _count_uses(expr: ast.Expr, name: str) -> int:
    if isinstance(expr, ast.Name):
        return 1 if expr.ident == name else 0
    if isinstance(expr, ast.Unary):
        return _count_uses(expr.operand, name)
    if isinstance(expr, ast.Binary):
        return _count_uses(expr.left, name) + _count_uses(expr.right, name)
    if isinstance(expr, ast.Assign):
        return _count_uses(expr.target, name) + _count_uses(expr.value, name)
    if isinstance(expr, ast.Call):
        return sum(_count_uses(a, name) for a in expr.args)
    if isinstance(expr, ast.Index):
        return _count_uses(expr.base, name) + _count_uses(expr.index, name)
    if isinstance(expr, ast.FieldAccess):
        return _count_uses(expr.base, name)
    if isinstance(expr, ast.IncDec):
        return _count_uses(expr.target, name)
    if isinstance(expr, ast.Conditional):
        return (_count_uses(expr.cond, name) + _count_uses(expr.then, name)
                + _count_uses(expr.otherwise, name))
    return 0


def _substitute(expr: ast.Expr, bindings: Dict[str, ast.Expr]) -> ast.Expr:
    """Copy ``expr`` replacing parameter names with argument expressions."""
    if isinstance(expr, ast.Number):
        return ast.Number(expr.value)
    if isinstance(expr, ast.Name):
        if expr.ident in bindings:
            return _substitute(bindings[expr.ident], {})
        return ast.Name(expr.ident)
    if isinstance(expr, ast.Unary):
        return ast.Unary(expr.op, _substitute(expr.operand, bindings))
    if isinstance(expr, ast.Binary):
        return ast.Binary(expr.op, _substitute(expr.left, bindings),
                          _substitute(expr.right, bindings))
    if isinstance(expr, ast.Assign):
        return ast.Assign(_substitute(expr.target, bindings),
                          _substitute(expr.value, bindings))
    if isinstance(expr, ast.Call):
        return ast.Call(expr.callee,
                        [_substitute(a, bindings) for a in expr.args])
    if isinstance(expr, ast.Index):
        return ast.Index(_substitute(expr.base, bindings),
                         _substitute(expr.index, bindings))
    if isinstance(expr, ast.FieldAccess):
        return ast.FieldAccess(_substitute(expr.base, bindings),
                               expr.fieldname, expr.arrow)
    if isinstance(expr, ast.IncDec):
        return ast.IncDec(_substitute(expr.target, bindings), expr.delta,
                          expr.is_prefix)
    if isinstance(expr, ast.SizeOf):
        return ast.SizeOf(expr.measured)
    if isinstance(expr, ast.Conditional):
        return ast.Conditional(_substitute(expr.cond, bindings),
                               _substitute(expr.then, bindings),
                               _substitute(expr.otherwise, bindings))
    raise TypeError("cannot substitute into %r" % expr)


@dataclass
class _Candidate:
    fn: ast.FunctionDef
    body_expr: ast.Expr


def _single_return_expr(fn: ast.FunctionDef) -> Optional[ast.Expr]:
    if fn.body is None:
        return None
    statements = [s for s in fn.body.statements
                  if not (isinstance(s, ast.Block) and not s.statements)]
    if len(statements) != 1 or not isinstance(statements[0], ast.Return):
        return None
    return statements[0].value


def _calls_any(expr: ast.Expr, names: Container[str]) -> bool:
    """Does ``expr`` call any function named in ``names``?"""
    if isinstance(expr, ast.Call):
        if expr.callee in names:
            return True
        return any(_calls_any(a, names) for a in expr.args)
    if isinstance(expr, ast.Unary):
        return _calls_any(expr.operand, names)
    if isinstance(expr, ast.Binary):
        return (_calls_any(expr.left, names)
                or _calls_any(expr.right, names))
    if isinstance(expr, ast.Assign):
        return (_calls_any(expr.target, names)
                or _calls_any(expr.value, names))
    if isinstance(expr, ast.Index):
        return (_calls_any(expr.base, names)
                or _calls_any(expr.index, names))
    if isinstance(expr, ast.FieldAccess):
        return _calls_any(expr.base, names)
    if isinstance(expr, ast.IncDec):
        return _calls_any(expr.target, names)
    if isinstance(expr, ast.Conditional):
        return (_calls_any(expr.cond, names)
                or _calls_any(expr.then, names)
                or _calls_any(expr.otherwise, names))
    return False


def _stmt_calls_any(stmt: ast.Stmt, names: Container[str]) -> bool:
    """:func:`_calls_any` over every expression :class:`_CallInliner`
    visits in ``stmt``."""
    if isinstance(stmt, ast.Block):
        return any(_stmt_calls_any(s, names) for s in stmt.statements)
    if isinstance(stmt, ast.ExprStmt):
        return _calls_any(stmt.expr, names)
    if isinstance(stmt, ast.LocalDecl):
        return stmt.init is not None and _calls_any(stmt.init, names)
    if isinstance(stmt, ast.If):
        return (_calls_any(stmt.cond, names)
                or _stmt_calls_any(stmt.then, names)
                or (stmt.otherwise is not None
                    and _stmt_calls_any(stmt.otherwise, names)))
    if isinstance(stmt, ast.While):
        return (_calls_any(stmt.cond, names)
                or (stmt.step is not None and _calls_any(stmt.step, names))
                or _stmt_calls_any(stmt.body, names))
    if isinstance(stmt, ast.DoWhile):
        return (_calls_any(stmt.cond, names)
                or _stmt_calls_any(stmt.body, names))
    if isinstance(stmt, ast.Switch):
        return (_calls_any(stmt.selector, names)
                or any(_stmt_calls_any(inner, names)
                       for case in stmt.cases for inner in case.body))
    if isinstance(stmt, ast.Return):
        return stmt.value is not None and _calls_any(stmt.value, names)
    return False


def _is_candidate(fn: ast.FunctionDef, opt_level: int) -> Optional[_Candidate]:
    expr = _single_return_expr(fn)
    if expr is None:
        return None
    if _count_uses(expr, fn.name) or _calls_any(expr, (fn.name,)):
        return None  # recursive
    budget = INLINE_KEYWORD_NODES if fn.is_inline else SMALL_BODY_NODES
    if opt_level < 2 and not fn.is_inline:
        return None
    if opt_level < 1:
        return None
    if _expr_size(expr) > budget:
        return None
    return _Candidate(fn=fn, body_expr=expr)


class _CallInliner:
    """Rewrites the Call nodes of one caller function."""

    def __init__(self, caller: str, candidates: Dict[str, _Candidate],
                 report: InlineReport):
        self._caller = caller
        self._candidates = candidates
        self._report = report
        self.changed = False

    def rewrite_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.Unary):
            expr.operand = self.rewrite_expr(expr.operand)
            return expr
        if isinstance(expr, ast.Binary):
            expr.left = self.rewrite_expr(expr.left)
            expr.right = self.rewrite_expr(expr.right)
            return expr
        if isinstance(expr, ast.Assign):
            expr.target = self.rewrite_expr(expr.target)
            expr.value = self.rewrite_expr(expr.value)
            return expr
        if isinstance(expr, ast.Index):
            expr.base = self.rewrite_expr(expr.base)
            expr.index = self.rewrite_expr(expr.index)
            return expr
        if isinstance(expr, ast.FieldAccess):
            expr.base = self.rewrite_expr(expr.base)
            return expr
        if isinstance(expr, ast.IncDec):
            expr.target = self.rewrite_expr(expr.target)
            return expr
        if isinstance(expr, ast.Conditional):
            expr.cond = self.rewrite_expr(expr.cond)
            expr.then = self.rewrite_expr(expr.then)
            expr.otherwise = self.rewrite_expr(expr.otherwise)
            return expr
        if isinstance(expr, ast.Call):
            expr.args = [self.rewrite_expr(a) for a in expr.args]
            return self._maybe_inline(expr)
        return expr

    def _maybe_inline(self, call: ast.Call) -> ast.Expr:
        candidate = self._candidates.get(call.callee)
        if candidate is None or len(call.args) != len(candidate.fn.params):
            return call
        bindings: Dict[str, ast.Expr] = {}
        for param, arg in zip(candidate.fn.params, call.args):
            uses = _count_uses(candidate.body_expr, param.name)
            if uses != 1 and _has_side_effects(arg):
                return call  # substitution would change semantics
            bindings[param.name] = arg
        self._report.record(call.callee, self._caller)
        self.changed = True
        return _substitute(candidate.body_expr, bindings)

    def rewrite_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self.rewrite_stmt(stmt)

    def rewrite_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.rewrite_block(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self.rewrite_expr(stmt.expr)
        elif isinstance(stmt, ast.LocalDecl):
            if stmt.init is not None:
                stmt.init = self.rewrite_expr(stmt.init)
        elif isinstance(stmt, ast.If):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_block(stmt.then)
            if stmt.otherwise:
                self.rewrite_block(stmt.otherwise)
        elif isinstance(stmt, ast.While):
            stmt.cond = self.rewrite_expr(stmt.cond)
            if stmt.step is not None:
                stmt.step = self.rewrite_expr(stmt.step)
            self.rewrite_block(stmt.body)
        elif isinstance(stmt, ast.DoWhile):
            stmt.cond = self.rewrite_expr(stmt.cond)
            self.rewrite_block(stmt.body)
        elif isinstance(stmt, ast.Switch):
            stmt.selector = self.rewrite_expr(stmt.selector)
            for case in stmt.cases:
                for inner in case.body:
                    self.rewrite_stmt(inner)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self.rewrite_expr(stmt.value)


def _candidates(unit: ast.Unit, opt_level: int) -> Dict[str, _Candidate]:
    candidates: Dict[str, _Candidate] = {}
    if opt_level < 1:
        return candidates
    for fn in unit.functions():
        candidate = _is_candidate(fn, opt_level)
        if candidate is not None:
            candidates[fn.name] = candidate
    return candidates


def _callers(unit: ast.Unit,
             candidates: Dict[str, _Candidate]) -> List[ast.FunctionDef]:
    """Functions whose bodies call a candidate other than themselves."""
    callers = []
    for fn in unit.functions():
        others = [name for name in candidates if name != fn.name]
        if others and _stmt_calls_any(fn.body, others):
            callers.append(fn)
    return callers


def rewritten_functions(unit: ast.Unit,
                        opt_level: int = 2) -> List[ast.FunctionDef]:
    """The functions :func:`inline_unit` may rewrite: those whose bodies
    call an inline candidate other than themselves.  Inlining only adds
    call sites to a function by substituting into one of its candidate
    calls, so no round ever changes any other function."""
    return _callers(unit, _candidates(unit, opt_level))


def inline_unit(unit: ast.Unit, opt_level: int = 2) -> InlineReport:
    """Inline eligible calls within ``unit`` in place; return the report.

    Only :func:`rewritten_functions` are modified."""
    report = InlineReport()
    candidates = _candidates(unit, opt_level)
    callers = _callers(unit, candidates)
    for _ in range(_MAX_ROUNDS):
        any_changed = False
        for fn in callers:
            rewriter = _CallInliner(fn.name, {
                name: cand for name, cand in candidates.items()
                if name != fn.name
            }, report)
            rewriter.rewrite_block(fn.body)
            any_changed = any_changed or rewriter.changed
        if not any_changed:
            break
    return report
