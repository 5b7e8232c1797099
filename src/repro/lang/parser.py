"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.lang import ast
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.lang.types import (
    INT,
    ArrayType,
    PointerType,
    Type,
    TypeTable,
)

_HOOK_MACROS = {
    "__ksplice_pre_apply__": ".ksplice_pre_apply",
    "__ksplice_apply__": ".ksplice_apply",
    "__ksplice_post_apply__": ".ksplice_post_apply",
    "__ksplice_pre_reverse__": ".ksplice_pre_reverse",
    "__ksplice_reverse__": ".ksplice_reverse",
    "__ksplice_post_reverse__": ".ksplice_post_reverse",
}

# Binary operator precedence, loosest first.
_BINARY_LEVELS: Tuple[Tuple[str, ...], ...] = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: binary operator -> its level in ``_BINARY_LEVELS`` (higher binds tighter)
_BINARY_PRECEDENCE: Dict[str, int] = {
    op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

_COMPOUND_ASSIGN = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}

_UNARY_OPS = frozenset(("-", "!", "~", "*", "&"))
_INCDEC_DELTA = {"++": 1, "--": -1}


class Parser:
    """Parses one compilation unit."""

    def __init__(self, source: str, unit_name: str = "<unit>"):
        self._tokens = tokenize(source)
        self._pos = 0
        self._unit_name = unit_name
        self.types = TypeTable()

    # -- token plumbing ----------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, text: str) -> bool:
        # One text comparison suffices: the lexer marks every keyword as
        # KEYWORD, so an identifier's or a number's text never equals a
        # punctuator or a keyword, and nobody asks for EOF's "".
        return self._tokens[self._pos].text == text

    def _accept(self, text: str) -> bool:
        if self._check(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str) -> Token:
        if not self._check(text):
            token = self._peek()
            raise CompileError(
                "%s:%d: expected %r, found %r"
                % (self._unit_name, token.line, text, token.text or "<eof>"))
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.kind is not TokenKind.IDENT:
            raise CompileError(
                "%s:%d: expected identifier, found %r"
                % (self._unit_name, token.line, token.text or "<eof>"))
        self._advance()
        return token.text

    def _error(self, message: str) -> CompileError:
        return CompileError(
            "%s:%d: %s" % (self._unit_name, self._peek().line, message))

    # -- types ---------------------------------------------------------------

    def _at_type_start(self) -> bool:
        return self._check("int") or self._check("void") or self._check("struct")

    def _parse_base_type(self) -> Type:
        if self._accept("int"):
            base: Type = INT
        elif self._accept("void"):
            base = INT  # void only appears as a return type; treat as int-0
        elif self._accept("struct"):
            tag = self._expect_ident()
            base = self.types.declare_struct(tag)
        else:
            raise self._error("expected type")
        while self._accept("*"):
            base = PointerType(base)
        return base

    # -- top level -----------------------------------------------------------

    def parse_unit(self) -> ast.Unit:
        unit = ast.Unit(name=self._unit_name)
        while self._peek().kind is not TokenKind.EOF:
            unit.decls.extend(self._parse_top_decl())
        return unit

    def _parse_top_decl(self) -> List[object]:
        token = self._peek()
        if token.kind is TokenKind.IDENT and token.text in _HOOK_MACROS:
            return [self._parse_hook_macro()]
        if self._check("struct") and self._peek(2).text == "{":
            return [self._parse_struct_def()]

        is_extern = self._accept("extern")
        is_static = self._accept("static")
        is_inline = self._accept("inline")
        if not is_static and self._accept("static"):
            is_static = True  # "inline static" ordering

        typ = self._parse_base_type()
        name = self._expect_ident()
        if self._check("("):
            return [self._parse_function(name, typ, is_static, is_inline,
                                         is_extern)]
        if is_inline:
            raise self._error("inline on a variable")
        return self._parse_global_vars(name, typ, is_static, is_extern)

    def _parse_hook_macro(self) -> ast.KspliceHook:
        macro = self._advance().text
        self._expect("(")
        function = self._expect_ident()
        self._expect(")")
        self._expect(";")
        return ast.KspliceHook(section=_HOOK_MACROS[macro], function=function)

    def _parse_struct_def(self) -> ast.StructDef:
        self._expect("struct")
        tag = self._expect_ident()
        self._expect("{")
        fields: List[Tuple[str, Type]] = []
        while not self._accept("}"):
            ftype = self._parse_base_type()
            fname = self._expect_ident()
            if self._accept("["):
                count = self._parse_const_expr()
                self._expect("]")
                ftype = ArrayType(ftype, count)
            self._expect(";")
            fields.append((fname, ftype))
        self._expect(";")
        self.types.define_struct(tag, fields)
        return ast.StructDef(tag=tag, fields=fields)

    def _parse_function(self, name: str, return_type: Type, is_static: bool,
                        is_inline: bool, is_extern: bool) -> ast.FunctionDef:
        self._expect("(")
        params: List[ast.Param] = []
        if not self._check(")"):
            if self._check("void") and self._peek(1).text == ")":
                self._advance()
            else:
                while True:
                    ptype = self._parse_base_type()
                    pname = self._expect_ident()
                    params.append(ast.Param(name=pname, typ=ptype))
                    if not self._accept(","):
                        break
        self._expect(")")
        if self._accept(";"):
            body: Optional[ast.Block] = None
        else:
            if is_extern:
                raise self._error("extern function with a body")
            body = self._parse_block()
        return ast.FunctionDef(name=name, params=params,
                               return_type=return_type, body=body,
                               is_static=is_static, is_inline=is_inline)

    def _parse_global_vars(self, first_name: str, typ: Type, is_static: bool,
                           is_extern: bool) -> List[object]:
        out: List[object] = []
        name = first_name
        while True:
            var_type = typ
            if self._accept("["):
                count = self._parse_const_expr()
                self._expect("]")
                var_type = ArrayType(typ, count)
            init: Optional[List[int]] = None
            if self._accept("="):
                if is_extern:
                    raise self._error("extern variable with initializer")
                init = self._parse_initializer(var_type)
            out.append(ast.GlobalVar(name=name, typ=var_type, init=init,
                                     is_static=is_static,
                                     is_extern=is_extern))
            if self._accept(","):
                name = self._expect_ident()
                continue
            self._expect(";")
            return out

    def _parse_initializer(self, typ: Type) -> List[int]:
        if self._accept("{"):
            values: List[int] = []
            while not self._accept("}"):
                values.append(self._parse_const_expr())
                if not self._check("}"):
                    self._expect(",")
            if isinstance(typ, ArrayType):
                want = typ.size // 4
                if len(values) > want:
                    raise self._error("too many initializer values")
                values += [0] * (want - len(values))
            return values
        return [self._parse_const_expr()]

    # -- constant expressions -------------------------------------------------

    def _parse_const_expr(self) -> int:
        expr = self._parse_expr()
        return self._const_eval(expr)

    def _const_eval(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.Number):
            return expr.value
        if isinstance(expr, ast.SizeOf):
            return expr.measured.size
        if isinstance(expr, ast.Unary) and expr.op == "-":
            return -self._const_eval(expr.operand)
        if isinstance(expr, ast.Unary) and expr.op == "~":
            return ~self._const_eval(expr.operand)
        if isinstance(expr, ast.Binary):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if expr.op in ("<<", ">>") and right < 0:
                raise self._error("negative shift count %d in constant "
                                  "expression" % right)
            ops = {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else 0,
                "%": lambda: left % right if right else 0,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "|": lambda: left | right,
                "&": lambda: left & right,
                "^": lambda: left ^ right,
            }
            if expr.op in ops:
                return ops[expr.op]()
        raise self._error("expression is not constant")

    # -- statements ------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        self._expect("{")
        block = ast.Block()
        while not self._accept("}"):
            block.statements.append(self._parse_stmt())
        return block

    def _as_block(self, stmt: ast.Stmt) -> ast.Block:
        if isinstance(stmt, ast.Block):
            return stmt
        return ast.Block(statements=[stmt])

    def _parse_stmt(self) -> ast.Stmt:
        if self._check("{"):
            return self._parse_block()
        if self._accept(";"):
            return ast.Block()
        if self._accept("if"):
            self._expect("(")
            cond = self._parse_expr()
            self._expect(")")
            then = self._as_block(self._parse_stmt())
            otherwise = None
            if self._accept("else"):
                otherwise = self._as_block(self._parse_stmt())
            return ast.If(cond=cond, then=then, otherwise=otherwise)
        if self._accept("while"):
            self._expect("(")
            cond = self._parse_expr()
            self._expect(")")
            return ast.While(cond=cond, body=self._as_block(self._parse_stmt()))
        if self._accept("do"):
            body = self._as_block(self._parse_stmt())
            self._expect("while")
            self._expect("(")
            cond = self._parse_expr()
            self._expect(")")
            self._expect(";")
            return ast.DoWhile(cond=cond, body=body)
        if self._accept("for"):
            return self._parse_for()
        if self._accept("switch"):
            return self._parse_switch()
        if self._accept("return"):
            value = None if self._check(";") else self._parse_expr()
            self._expect(";")
            return ast.Return(value=value)
        if self._accept("break"):
            self._expect(";")
            return ast.Break()
        if self._accept("continue"):
            self._expect(";")
            return ast.Continue()
        if self._check("static") or self._at_type_start():
            return self._parse_local_decl()
        expr = self._parse_expr()
        self._expect(";")
        return ast.ExprStmt(expr=expr)

    def _parse_for(self) -> ast.Stmt:
        """Desugar ``for (init; cond; step) body`` into a while loop."""
        self._expect("(")
        statements: List[ast.Stmt] = []
        if not self._check(";"):
            if self._at_type_start():
                statements.append(self._parse_local_decl())
            else:
                statements.append(ast.ExprStmt(self._parse_expr()))
                self._expect(";")
        else:
            self._expect(";")
        cond: ast.Expr = ast.Number(1)
        if not self._check(";"):
            cond = self._parse_expr()
        self._expect(";")
        step: Optional[ast.Expr] = None
        if not self._check(")"):
            step = self._parse_expr()
        self._expect(")")
        body = self._as_block(self._parse_stmt())
        statements.append(ast.While(cond=cond, body=body, step=step))
        return ast.Block(statements=statements)

    def _parse_switch(self) -> ast.Stmt:
        """``switch (expr) { case N: ... default: ... }`` with C
        fallthrough semantics; ``break`` leaves the switch."""
        self._expect("(")
        selector = self._parse_expr()
        self._expect(")")
        self._expect("{")
        switch = ast.Switch(selector=selector)
        current: Optional[ast.SwitchCase] = None
        while not self._accept("}"):
            if self._accept("case"):
                value = self._parse_const_expr()
                self._expect(":")
                current = ast.SwitchCase(value=value)
                switch.cases.append(current)
                continue
            if self._accept("default"):
                self._expect(":")
                current = ast.SwitchCase(value=None)
                switch.cases.append(current)
                continue
            if current is None:
                raise self._error("statement before first case label")
            current.body.append(self._parse_stmt())
        defaults = [c for c in switch.cases if c.value is None]
        if len(defaults) > 1:
            raise self._error("multiple default labels in switch")
        values = [c.value for c in switch.cases if c.value is not None]
        if len(values) != len(set(values)):
            raise self._error("duplicate case value in switch")
        return switch

    def _parse_local_decl(self) -> ast.Stmt:
        is_static = self._accept("static")
        typ = self._parse_base_type()
        block = ast.Block()
        while True:
            name = self._expect_ident()
            var_type = typ
            if self._accept("["):
                count = self._parse_const_expr()
                self._expect("]")
                var_type = ArrayType(typ, count)
            decl = ast.LocalDecl(name=name, typ=var_type, is_static=is_static)
            if self._accept("="):
                if is_static:
                    decl.static_init = self._parse_const_expr()
                else:
                    decl.init = self._parse_expr()
            block.statements.append(decl)
            if self._accept(","):
                continue
            self._expect(";")
            break
        if len(block.statements) == 1:
            return block.statements[0]
        return block

    # -- expressions -----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_assignment()

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_ternary()
        text = self._tokens[self._pos].text
        if text == "=":
            self._pos += 1
            return ast.Assign(target=left, value=self._parse_assignment())
        bare_op = _COMPOUND_ASSIGN.get(text)
        if bare_op is not None:
            self._pos += 1
            value = self._parse_assignment()
            return ast.Assign(target=left,
                              value=ast.Binary(op=bare_op, left=left,
                                               right=value))
        return left

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(0)
        if self._accept("?"):
            then = self._parse_expr()
            self._expect(":")
            otherwise = self._parse_ternary()
            return ast.Conditional(cond=cond, then=then, otherwise=otherwise)
        return cond

    def _parse_binary(self, min_level: int) -> ast.Expr:
        """Precedence climbing over ``_BINARY_LEVELS``: operators at
        ``min_level`` or tighter, every level left-associative."""
        left = self._parse_unary()
        tokens = self._tokens
        while True:
            op = tokens[self._pos].text
            level = _BINARY_PRECEDENCE.get(op)
            if level is None or level < min_level:
                return left
            self._pos += 1
            right = self._parse_binary(level + 1)
            left = ast.Binary(op=op, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        text = self._tokens[self._pos].text
        if text in _UNARY_OPS:
            self._pos += 1
            return ast.Unary(op=text, operand=self._parse_unary())
        delta = _INCDEC_DELTA.get(text)
        if delta is not None:
            self._pos += 1
            return ast.IncDec(target=self._parse_unary(), delta=delta,
                              is_prefix=True)
        if text == "sizeof":
            self._pos += 1
            self._expect("(")
            measured = self._parse_base_type()
            self._expect(")")
            return ast.SizeOf(measured=measured)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tokens = self._tokens
        while True:
            text = tokens[self._pos].text
            if text == "[":
                self._pos += 1
                index = self._parse_expr()
                self._expect("]")
                expr = ast.Index(base=expr, index=index)
            elif text == "->" or text == ".":
                self._pos += 1
                expr = ast.FieldAccess(base=expr,
                                       fieldname=self._expect_ident(),
                                       arrow=text == "->")
            elif text in _INCDEC_DELTA:
                self._pos += 1
                expr = ast.IncDec(target=expr, delta=_INCDEC_DELTA[text],
                                  is_prefix=False)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.NUMBER:
            try:
                value = int(token.text, 0)
            except ValueError:
                # "0123": MiniC has no octal, and Python refuses it too
                raise self._error("invalid integer literal %r"
                                  % token.text) from None
            self._pos += 1
            return ast.Number(value)
        if token.kind is TokenKind.IDENT:
            name = self._advance().text
            if self._accept("("):
                args: List[ast.Expr] = []
                if not self._check(")"):
                    while True:
                        args.append(self._parse_expr())
                        if not self._accept(","):
                            break
                self._expect(")")
                return ast.Call(callee=name, args=args)
            return ast.Name(ident=name)
        if self._accept("("):
            expr = self._parse_expr()
            self._expect(")")
            return expr
        raise self._error("expected expression, found %r"
                          % (token.text or "<eof>"))


def parse_unit(source: str, unit_name: str = "<unit>") -> ast.Unit:
    """Parse MiniC ``source`` into a :class:`repro.lang.ast.Unit`."""
    parser = Parser(source, unit_name)
    unit = parser.parse_unit()
    unit.types = parser.types
    return unit
