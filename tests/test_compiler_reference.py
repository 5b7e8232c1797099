"""The toolchain against its reference.

The expression parser climbs precedence in one loop, ``compile_unit``
deep-copies only the functions the inliner rewrites, and the assembler
classifies each item once, records item offsets during layout and
memoises non-branch encodings.  None of that may change a byte.  This
file keeps the code those replaced, verbatim, as test-only references:
the ten-level recursive expression parser, the whole-unit-deepcopy
``compile_unit`` with the inliner loop that walks every function, and
the three-pass ``Assembler``.  It requires identical ``dump_object``
bytes, ``InlineReport.inlined`` and ASTs on every unit of the corpus
kernels, the corpus CVEs' post units and a generated corpus's kernels,
in both build flavours; identical errors on malformed sources; cached
ASTs that no compile mutates; and an encode memo that stays bounded
and never stores a failed encode.
"""

import copy
import dataclasses
import sys
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import assembler as assembler_module
from repro.arch import isa
from repro.arch.assembler import (
    Align,
    AssembledCode,
    Data,
    Insn,
    Item,
    Label,
    LabelRef,
    RelocationRequest,
    SymRef,
    assemble,
)
from repro.arch.isa import Instruction, OperandKind, PC32_ADDEND
from repro.arch.nops import nop_sequence
from repro.compiler import CompilerOptions, compile_source_cached
from repro.compiler import driver, layout
from repro.compiler.cache import clear_caches, parse_unit_cached
from repro.compiler.codegen import FunctionCode, UnitContext, compile_function
from repro.compiler.driver import (
    CompileResult,
    _apply_version_quirks,
    compile_asm,
    compile_unit,
)
from repro.compiler.inliner import (
    INLINE_KEYWORD_NODES,
    SMALL_BODY_NODES,
    _MAX_ROUNDS,
    InlineReport,
    _Candidate,
    _CallInliner,
    _count_uses,
    _expr_size,
    _single_return_expr,
)
from repro.compiler.layout import collect_data_items, layout_merged, layout_split
from repro.errors import AssemblyError, CompileError, ReproError
from repro.evaluation.corpus import CORPUS
from repro.evaluation.kernels import ALL_VERSIONS, kernel_for_version
from repro.lang import ast, parse_unit
from repro.lang.lexer import TokenKind
from repro.lang.parser import Parser
from repro.lang.types import ArrayType, IntType, PointerType, StructType, Type
from repro.objfile.serialize import dump_object
from repro.scenarios import GeneratedCorpus

# ---------------------------------------------------------------------------
# Reference expression parser: the ten-level recursive descent, verbatim.

_REFERENCE_BINARY_LEVELS: Tuple[Tuple[str, ...], ...] = (
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

_REFERENCE_COMPOUND_ASSIGN = {
    "+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
    "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>",
}


class ReferenceParser(Parser):
    """The parser with the token plumbing, constant folding and
    expression methods it had before precedence climbing."""

    def _peek(self, ahead: int = 0):
        idx = min(self._pos + ahead, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self):
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, text: str) -> bool:
        token = self._peek()
        return token.kind in (TokenKind.PUNCT, TokenKind.KEYWORD) and \
            token.text == text

    def _accept(self, text: str) -> bool:
        if self._check(text):
            self._advance()
            return True
        return False

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

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_ternary()
        if self._accept("="):
            return ast.Assign(target=left, value=self._parse_assignment())
        for op_text, bare_op in _REFERENCE_COMPOUND_ASSIGN.items():
            if self._accept(op_text):
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

    def _parse_binary(self, level: int) -> ast.Expr:
        if level >= len(_REFERENCE_BINARY_LEVELS):
            return self._parse_unary()
        left = self._parse_binary(level + 1)
        while True:
            matched = None
            for op in _REFERENCE_BINARY_LEVELS[level]:
                if self._check(op):
                    matched = op
                    break
            if matched is None:
                return left
            self._advance()
            right = self._parse_binary(level + 1)
            left = ast.Binary(op=matched, left=left, right=right)

    def _parse_unary(self) -> ast.Expr:
        for op in ("-", "!", "~", "*", "&"):
            if self._accept(op):
                return ast.Unary(op=op, operand=self._parse_unary())
        if self._accept("++"):
            return ast.IncDec(target=self._parse_unary(), delta=1,
                              is_prefix=True)
        if self._accept("--"):
            return ast.IncDec(target=self._parse_unary(), delta=-1,
                              is_prefix=True)
        if self._accept("sizeof"):
            self._expect("(")
            measured = self._parse_base_type()
            self._expect(")")
            return ast.SizeOf(measured=measured)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._accept("["):
                index = self._parse_expr()
                self._expect("]")
                expr = ast.Index(base=expr, index=index)
            elif self._accept("->"):
                expr = ast.FieldAccess(base=expr,
                                       fieldname=self._expect_ident(),
                                       arrow=True)
            elif self._accept("."):
                expr = ast.FieldAccess(base=expr,
                                       fieldname=self._expect_ident(),
                                       arrow=False)
            elif self._accept("++"):
                expr = ast.IncDec(target=expr, delta=1, is_prefix=False)
            elif self._accept("--"):
                expr = ast.IncDec(target=expr, delta=-1, is_prefix=False)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return ast.Number(int(token.text, 0))
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


def reference_parse_unit(source: str, unit_name: str = "<unit>") -> ast.Unit:
    parser = ReferenceParser(source, unit_name)
    unit = parser.parse_unit()
    unit.types = parser.types
    return unit


# ---------------------------------------------------------------------------
# Reference compile: whole-unit deepcopy, every function walked, verbatim.


def _reference_calls_function(expr: ast.Expr, name: str) -> bool:
    if isinstance(expr, ast.Call):
        if expr.callee == name:
            return True
        return any(_reference_calls_function(a, name) for a in expr.args)
    if isinstance(expr, ast.Unary):
        return _reference_calls_function(expr.operand, name)
    if isinstance(expr, ast.Binary):
        return (_reference_calls_function(expr.left, name)
                or _reference_calls_function(expr.right, name))
    if isinstance(expr, ast.Assign):
        return (_reference_calls_function(expr.target, name)
                or _reference_calls_function(expr.value, name))
    if isinstance(expr, ast.Index):
        return (_reference_calls_function(expr.base, name)
                or _reference_calls_function(expr.index, name))
    if isinstance(expr, ast.FieldAccess):
        return _reference_calls_function(expr.base, name)
    if isinstance(expr, ast.IncDec):
        return _reference_calls_function(expr.target, name)
    if isinstance(expr, ast.Conditional):
        return (_reference_calls_function(expr.cond, name)
                or _reference_calls_function(expr.then, name)
                or _reference_calls_function(expr.otherwise, name))
    return False


def _reference_is_candidate(fn: ast.FunctionDef,
                            opt_level: int) -> Optional[_Candidate]:
    expr = _single_return_expr(fn)
    if expr is None:
        return None
    if _count_uses(expr, fn.name) or _reference_calls_function(expr, fn.name):
        return None  # recursive
    budget = INLINE_KEYWORD_NODES if fn.is_inline else SMALL_BODY_NODES
    if opt_level < 2 and not fn.is_inline:
        return None
    if opt_level < 1:
        return None
    if _expr_size(expr) > budget:
        return None
    return _Candidate(fn=fn, body_expr=expr)


def reference_inline_unit(unit: ast.Unit, opt_level: int = 2) -> InlineReport:
    report = InlineReport()
    if opt_level < 1:
        return report
    candidates = {}
    for fn in unit.functions():
        candidate = _reference_is_candidate(fn, opt_level)
        if candidate is not None:
            candidates[fn.name] = candidate

    for _ in range(_MAX_ROUNDS):
        any_changed = False
        for fn in unit.functions():
            if fn.body is None:
                continue
            rewriter = _CallInliner(fn.name, {
                name: cand for name, cand in candidates.items()
                if name != fn.name
            }, report)
            rewriter.rewrite_block(fn.body)
            any_changed = any_changed or rewriter.changed
        if not any_changed:
            break
    return report


def _reference_compile_unit(unit: ast.Unit,
                            options: CompilerOptions) -> CompileResult:
    working = copy.deepcopy(unit)
    report = reference_inline_unit(working, opt_level=options.opt_level)
    ctx = UnitContext.for_unit(working,
                               align_loops=options.opt_level >= 2)

    functions: List[FunctionCode] = []
    static_locals = []
    for fn in working.functions():
        code = compile_function(fn, ctx)
        code = _apply_version_quirks(code, options)
        functions.append(code)
        static_locals.extend(code.static_locals)

    data_items = collect_data_items(working, static_locals)
    if options.function_sections:
        obj = layout_split(working, functions, data_items,
                           options.align_functions, working.name,
                           data_sections=options.data_sections)
    else:
        obj = layout_merged(working, functions, data_items,
                            options.align_functions, working.name)
    return CompileResult(objfile=obj, inline_report=report)


# ---------------------------------------------------------------------------
# Reference assembler: three passes over the items, verbatim.

_REFERENCE_SHORT_FOR_LONG = {
    "jmp": "jmps",
    "jz": "jzs",
    "jnz": "jnzs",
    "jl": "jls",
    "jg": "jgs",
    "jle": "jles",
    "jge": "jges",
}
_LONG_LEN = 5
_SHORT_LEN = 2


class ReferenceAssembler:
    """Assembles one item stream into :class:`AssembledCode`."""

    def __init__(self, items: Sequence[Item], allow_short_branches: bool = True):
        self._items = list(items)
        self._allow_short = allow_short_branches

    def assemble(self) -> AssembledCode:
        defined = {
            item.name for item in self._items if isinstance(item, Label)
        }
        # Branch index -> currently long?  Grow-only relaxation state.
        long_branches: Dict[int, bool] = {}
        for idx, item in enumerate(self._items):
            if self._is_relaxable_branch(item, defined):
                long_branches[idx] = not self._allow_short
            elif isinstance(item, Insn) and self._branch_target(item) is not None:
                long_branches[idx] = True  # undefined target: always long

        while True:
            offsets, sizes = self._layout(long_branches)
            grew = False
            for idx, is_long in long_branches.items():
                if is_long:
                    continue
                item = self._items[idx]
                target = self._branch_target(item)
                assert target is not None
                disp = offsets[target] - (self._item_offset(idx, sizes) + _SHORT_LEN)
                if not -128 <= disp < 128:
                    long_branches[idx] = True
                    grew = True
            if not grew:
                break

        return self._emit(long_branches, offsets, sizes)

    # -- helpers ---------------------------------------------------------

    def _branch_target(self, item: Item) -> Optional[str]:
        if not isinstance(item, Insn):
            return None
        spec = isa.SPEC_BY_MNEMONIC.get(item.mnemonic)
        if spec is None:
            raise AssemblyError("unknown mnemonic %r" % item.mnemonic)
        if not spec.is_pc_relative:
            return None
        if item.operands and isinstance(item.operands[0], LabelRef):
            return item.operands[0].name
        return None

    def _is_relaxable_branch(self, item: Item, defined: set) -> bool:
        target = self._branch_target(item)
        if target is None or target not in defined:
            return False
        # Calls have no short form.
        return isinstance(item, Insn) and item.mnemonic in _REFERENCE_SHORT_FOR_LONG

    def _item_size(self, idx: int, long_branches: Dict[int, bool],
                   at_offset: int) -> int:
        item = self._items[idx]
        if isinstance(item, Label):
            return 0
        if isinstance(item, Align):
            if item.boundary <= 0 or item.boundary & (item.boundary - 1):
                raise AssemblyError("alignment must be a power of two")
            return (-at_offset) % item.boundary
        if isinstance(item, Data):
            return len(item.payload)
        assert isinstance(item, Insn)
        if idx in long_branches:
            return _LONG_LEN if long_branches[idx] else _SHORT_LEN
        spec = isa.SPEC_BY_MNEMONIC[item.mnemonic]
        return spec.length

    def _layout(self, long_branches: Dict[int, bool]):
        """Compute label offsets and per-item sizes for the current state."""
        offsets: Dict[str, int] = {}
        sizes: List[int] = []
        pos = 0
        for idx, item in enumerate(self._items):
            if isinstance(item, Label):
                offsets[item.name] = pos
                sizes.append(0)
                continue
            size = self._item_size(idx, long_branches, pos)
            sizes.append(size)
            pos += size
        return offsets, sizes

    def _item_offset(self, idx: int, sizes: List[int]) -> int:
        return sum(sizes[:idx])

    def _emit(self, long_branches: Dict[int, bool], offsets: Dict[str, int],
              sizes: List[int]) -> AssembledCode:
        out = bytearray()
        relocs: List[RelocationRequest] = []
        for idx, item in enumerate(self._items):
            if isinstance(item, Label):
                continue
            if isinstance(item, Align):
                out += nop_sequence(sizes[idx])
                continue
            if isinstance(item, Data):
                base = len(out)
                out += item.payload
                for rel_off, ref in item.relocs:
                    relocs.append(RelocationRequest(
                        offset=base + rel_off, symbol=ref.name,
                        kind="abs32", addend=ref.addend))
                continue
            assert isinstance(item, Insn)
            out += self._encode_insn(idx, item, long_branches, offsets,
                                     len(out), relocs)
        return AssembledCode(code=bytes(out), labels=dict(offsets),
                             relocations=relocs)

    def _encode_insn(self, idx: int, item: Insn,
                     long_branches: Dict[int, bool], offsets: Dict[str, int],
                     at: int, relocs: List[RelocationRequest]) -> bytes:
        mnemonic = item.mnemonic
        spec = isa.SPEC_BY_MNEMONIC[mnemonic]
        target = self._branch_target(item)

        if target is not None:
            if idx in long_branches and not long_branches[idx]:
                short = _REFERENCE_SHORT_FOR_LONG[mnemonic]
                disp = offsets[target] - (at + _SHORT_LEN)
                return isa.encode_instruction(isa.make(short, disp))
            if target in offsets:
                disp = offsets[target] - (at + _LONG_LEN)
                return isa.encode_instruction(isa.make(mnemonic, disp))
            # Undefined symbol: emit long form with pc32 relocation.
            insn = isa.make(mnemonic, 0)
            encoded = bytearray(isa.encode_instruction(insn))
            rel_off = spec.pc_relative_operand_offset
            assert rel_off is not None
            relocs.append(RelocationRequest(
                offset=at + rel_off, symbol=target, kind="pc32",
                addend=PC32_ADDEND))
            return bytes(encoded)

        # Non-branch: resolve SymRef operands to relocations.
        values: List[int] = []
        pending: List[Tuple[int, SymRef]] = []  # (operand index, ref)
        real_kinds = [k for k in spec.operands if k is not OperandKind.PAD]
        if len(item.operands) != len(real_kinds):
            raise AssemblyError(
                "%s takes %d operands, got %d"
                % (mnemonic, len(real_kinds), len(item.operands)))
        for op_idx, (kind, operand) in enumerate(zip(real_kinds, item.operands)):
            if isinstance(operand, SymRef):
                if kind not in (OperandKind.ABS32, OperandKind.IMM32):
                    raise AssemblyError(
                        "symbolic operand not allowed for %s field of %s"
                        % (kind.value, mnemonic))
                pending.append((op_idx, operand))
                values.append(0)
            elif isinstance(operand, LabelRef):
                raise AssemblyError(
                    "label reference in non-branch operand of %s" % mnemonic)
            else:
                values.append(int(operand))
        encoded = isa.encode_instruction(Instruction(spec=spec,
                                                     operands=tuple(values)))
        for op_idx, ref in pending:
            field_off = self._operand_field_offset(spec, op_idx)
            relocs.append(RelocationRequest(
                offset=at + field_off, symbol=ref.name, kind="abs32",
                addend=ref.addend))
        return encoded

    @staticmethod
    def _operand_field_offset(spec, operand_index: int) -> int:
        """Byte offset of the Nth non-PAD operand field."""
        sizes = {
            OperandKind.REG: 1,
            OperandKind.IMM32: 4,
            OperandKind.ABS32: 4,
            OperandKind.REL32: 4,
            OperandKind.REL8: 1,
            OperandKind.PAD: 1,
        }
        offset = 1
        seen = 0
        for kind in spec.operands:
            if kind is not OperandKind.PAD:
                if seen == operand_index:
                    return offset
                seen += 1
            offset += sizes[kind]
        raise AssemblyError("operand index out of range")


def reference_assemble(items: Sequence[Item],
                       allow_short_branches: bool = True) -> AssembledCode:
    return ReferenceAssembler(
        items, allow_short_branches=allow_short_branches).assemble()


@contextmanager
def _reference_assembler():
    """Route the compiler's layout and ``.s`` paths through the
    reference assembler."""
    saved = layout.assemble, driver.assemble
    layout.assemble = driver.assemble = reference_assemble
    try:
        yield
    finally:
        layout.assemble, driver.assemble = saved


def reference_compile_source(source: str, unit_name: str,
                             options: CompilerOptions) -> CompileResult:
    with _reference_assembler():
        if unit_name.endswith(".s"):
            return compile_asm(source, unit_name, options)
        return _reference_compile_unit(
            reference_parse_unit(source, unit_name), options)


def compile_source_fresh(source: str, unit_name: str,
                         options: CompilerOptions) -> CompileResult:
    if unit_name.endswith(".s"):
        return compile_asm(source, unit_name, options)
    return compile_unit(parse_unit(source, unit_name), options)


# ---------------------------------------------------------------------------
# Comparing ASTs: structure, sharing, and types by content (StructType
# compares by identity, so two parses never compare equal with ``==``).


def _type_shape(typ: Type) -> object:
    if isinstance(typ, IntType):
        return "int"
    if isinstance(typ, PointerType):
        return ("ptr", _type_shape(typ.pointee))
    if isinstance(typ, ArrayType):
        return ("array", _type_shape(typ.element), typ.count)
    assert isinstance(typ, StructType), typ
    return ("struct", typ.tag)


def ast_shape(unit: ast.Unit) -> object:
    """``unit`` as nested tuples.  A node reached a second time (the
    target a compound assignment shares with its operator) is recorded
    as a back-reference, so sharing must match too."""
    seen: Dict[int, int] = {}

    def shape(value: object) -> object:
        if isinstance(value, Type):
            return _type_shape(value)
        if isinstance(value, (list, tuple)):
            return tuple(shape(v) for v in value)
        if not dataclasses.is_dataclass(value):
            return value
        if id(value) in seen:
            return ("shared", seen[id(value)])
        seen[id(value)] = len(seen)
        return (type(value).__name__,) + tuple(
            shape(getattr(value, f.name)) for f in dataclasses.fields(value))

    types = unit.types
    structs = tuple(
        (tag, tuple((name, _type_shape(ftype))
                    for name, ftype in types.struct(tag).fields))
        for tag in types.known_tags())
    return (unit.name, shape(unit.decls), structs)


def _identity_fingerprint(unit: ast.Unit) -> List[Tuple[int, ...]]:
    """Every node and list reachable from ``unit`` with the identities of
    what it holds: rebinding any attribute, even to an equal value,
    changes it."""
    out: List[Tuple[int, ...]] = []

    def walk(value: object) -> None:
        if isinstance(value, list):
            out.append((id(value),) + tuple(id(v) for v in value))
            for v in value:
                walk(v)
        elif dataclasses.is_dataclass(value) and not isinstance(value, Type):
            children = [getattr(value, f.name)
                        for f in dataclasses.fields(value)]
            out.append((id(value),) + tuple(id(v) for v in children))
            for v in children:
                walk(v)

    walk(unit.decls)
    return out


def _compiled(result: CompileResult) -> Tuple[bytes, object]:
    return dump_object(result.objfile), result.inline_report.inlined


def _outcome(fn, *args) -> object:
    try:
        return _compiled(fn(*args))
    except ReproError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# The units


RUN = CompilerOptions()
PRE_POST = RUN.pre_post_flavor()
FLAVORS = {"run": RUN, "pre-post": PRE_POST}


def _dedupe(units: List[Tuple[str, str]]) -> List[Tuple[str, str]]:
    return list(dict.fromkeys(units))


def _tree_units(tree) -> List[Tuple[str, str]]:
    return [(path, tree.read(path)) for path in tree.source_units()]


@pytest.fixture(scope="module")
def kernel_units() -> List[Tuple[str, str]]:
    units: List[Tuple[str, str]] = []
    for version in ALL_VERSIONS:
        units += _tree_units(kernel_for_version(version).tree)
    return _dedupe(units)


@pytest.fixture(scope="module")
def post_units() -> List[Tuple[str, str]]:
    units: List[Tuple[str, str]] = []
    for spec in CORPUS:
        kernel = kernel_for_version(spec.kernel_version)
        post = kernel.fixed_tree(spec.cve_id)
        units += [(path, post.read(path))
                  for path in kernel.tree.changed_units(post)]
    return _dedupe(units)


@pytest.fixture(scope="module")
def generated_units() -> List[Tuple[str, str]]:
    units: List[Tuple[str, str]] = []
    for version in GeneratedCorpus.generate(5, 32).kernel_versions():
        units += _tree_units(kernel_for_version(version).tree)
    return _dedupe(units)


@pytest.fixture(scope="module")
def parsed():
    """``(path, source)`` -> (parse, reference parse), each parsed once
    for the whole module.  Sharing the ASTs between flavours is safe
    because neither compile mutates them (the reference copies the
    whole unit; ``test_compiles_leave_cached_asts_untouched`` checks the
    other)."""
    asts: Dict[Tuple[str, str], Tuple[ast.Unit, ast.Unit]] = {}

    def lookup(path: str, source: str) -> Tuple[ast.Unit, ast.Unit]:
        key = (path, source)
        if key not in asts:
            asts[key] = (parse_unit(source, path),
                         reference_parse_unit(source, path))
        return asts[key]

    yield lookup
    asts.clear()


def _assert_compiles_agree(units: List[Tuple[str, str]],
                           options: CompilerOptions, parsed) -> None:
    for path, source in units:
        if path.endswith(".s"):
            got = _outcome(compile_asm, source, path, options)
            with _reference_assembler():
                want = _outcome(compile_asm, source, path, options)
        else:
            unit, reference_unit = parsed(path, source)
            got = _outcome(compile_unit, unit, options)
            with _reference_assembler():
                want = _outcome(_reference_compile_unit, reference_unit,
                                options)
        assert got == want, (path, options)


def test_units_parse_like_the_reference(kernel_units, post_units,
                                        generated_units, parsed):
    assert len(kernel_units) > 50 and len(post_units) >= 64
    for path, source in kernel_units + post_units + generated_units:
        if path.endswith(".c"):
            unit, reference_unit = parsed(path, source)
            assert ast_shape(unit) == ast_shape(reference_unit), path


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_kernel_units_compile_like_the_reference(kernel_units, flavor,
                                                 parsed):
    _assert_compiles_agree(kernel_units, FLAVORS[flavor], parsed)


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_cve_post_units_compile_like_the_reference(post_units, flavor,
                                                   parsed):
    _assert_compiles_agree(post_units, FLAVORS[flavor], parsed)


@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_generated_kernel_units_compile_like_the_reference(generated_units,
                                                           flavor, parsed):
    _assert_compiles_agree(generated_units, FLAVORS[flavor], parsed)


#: a version with ``inline``-marked functions, so -O1 inlines something
VARIANT_VERSION = "2.6.8-deb1"


@pytest.mark.parametrize("variant", [
    {"opt_level": 0}, {"opt_level": 1}, {"compiler_version": "kcc-1.1"}],
    ids=["O0", "O1", "version-skew"])
@pytest.mark.parametrize("flavor", sorted(FLAVORS))
def test_option_variants_compile_like_the_reference(variant, flavor,
                                                   parsed):
    options = dataclasses.replace(FLAVORS[flavor], **variant)
    _assert_compiles_agree(
        _tree_units(kernel_for_version(VARIANT_VERSION).tree), options,
        parsed)


def test_inlining_differs_across_opt_levels():
    """The option variants above exercise different inliner paths."""
    units = _tree_units(kernel_for_version(VARIANT_VERSION).tree)

    def inlined(opt_level):
        options = CompilerOptions(opt_level=opt_level)
        return sum(len(compile_source_fresh(source, path, options)
                       .inline_report.inlined)
                   for path, source in units)

    assert inlined(0) == 0 < inlined(1) <= inlined(2)


# ---------------------------------------------------------------------------
# Random expressions through both parsers

_BINARY_OPS = [op for level in _REFERENCE_BINARY_LEVELS for op in level]
_BINARY_PREC = {op: 2 + level
                for level, ops in enumerate(_REFERENCE_BINARY_LEVELS)
                for op in ops}
_ASSIGN_OPS = ["="] + sorted(_REFERENCE_COMPOUND_ASSIGN)
_PREC_ASSIGN, _PREC_COND, _PREC_UNARY, _PREC_POSTFIX, _PREC_PRIMARY = \
    0, 1, 12, 13, 14

_leaves = st.one_of(
    st.sampled_from(["a", "b", "p", "x1", "_tmp"]).map(lambda n: ("name", n)),
    st.integers(0, 2 ** 32 - 1).map(lambda v: ("num", str(v))),
    st.integers(0, 2 ** 32 - 1).map(lambda v: ("num", hex(v))),
    st.sampled_from(["int", "int*", "struct s*"]).map(
        lambda t: ("sizeof", t)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(_BINARY_OPS),
                  children, children),
        st.tuples(st.just("unary"), st.sampled_from(
            ["-", "!", "~", "*", "&", "++", "--"]), children),
        st.tuples(st.just("postfix"), st.sampled_from(["++", "--"]),
                  children),
        st.tuples(st.just("index"), children, children),
        st.tuples(st.just("field"), st.sampled_from(["->", "."]), children),
        st.tuples(st.just("call"), st.lists(children, max_size=3)),
        st.tuples(st.just("cond"), children, children, children),
        st.tuples(st.just("assign"), st.sampled_from(_ASSIGN_OPS),
                  children, children),
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=24)


def _precedence(node) -> int:
    kind = node[0]
    if kind == "assign":
        return _PREC_ASSIGN
    if kind == "cond":
        return _PREC_COND
    if kind == "bin":
        return _BINARY_PREC[node[1]]
    if kind == "unary" or kind == "sizeof":
        return _PREC_UNARY
    if kind in ("postfix", "index", "field"):
        return _PREC_POSTFIX
    return _PREC_PRIMARY


def render(node, at_least: int = _PREC_ASSIGN) -> str:
    """C text for ``node`` with only the parentheses its position needs."""
    kind = node[0]
    if kind == "name" or kind == "num":
        text = node[1]
    elif kind == "sizeof":
        text = "sizeof(%s)" % node[1]
    elif kind == "bin":
        prec = _BINARY_PREC[node[1]]
        text = "%s %s %s" % (render(node[2], prec), node[1],
                             render(node[3], prec + 1))
    elif kind == "unary":
        text = "%s %s" % (node[1], render(node[2], _PREC_UNARY))
    elif kind == "postfix":
        text = render(node[2], _PREC_POSTFIX) + node[1]
    elif kind == "index":
        text = "%s[%s]" % (render(node[1], _PREC_POSTFIX), render(node[2]))
    elif kind == "field":
        text = "%s%sf" % (render(node[2], _PREC_POSTFIX), node[1])
    elif kind == "call":
        text = "fn(%s)" % ", ".join(render(arg) for arg in node[1])
    elif kind == "cond":
        text = "%s ? %s : %s" % (render(node[1], 2), render(node[2]),
                                 render(node[3], _PREC_COND))
    else:
        assert kind == "assign"
        text = "%s %s %s" % (render(node[2], _PREC_COND), node[1],
                             render(node[3]))
    return "(%s)" % text if _precedence(node) < at_least else text


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_random_expressions_parse_like_the_reference(tree):
    source = "int f(void) { return %s; }\n" % render(tree)
    assert ast_shape(parse_unit(source, "expr.c")) == \
        ast_shape(reference_parse_unit(source, "expr.c")), source


def test_rendered_expressions_keep_their_shape():
    """The renderer's parentheses are minimal but sufficient: left and
    right associativity, and precedence both ways round."""
    cases = {
        ("bin", "-", ("bin", "-", ("name", "a"), ("name", "b")),
         ("name", "p")): "a - b - p",
        ("bin", "-", ("name", "a"),
         ("bin", "-", ("name", "b"), ("name", "p"))): "a - (b - p)",
        ("bin", "*", ("bin", "+", ("name", "a"), ("name", "b")),
         ("name", "p")): "(a + b) * p",
        ("assign", "=", ("name", "a"),
         ("assign", "+=", ("name", "b"), ("num", "1"))): "a = b += 1",
        ("cond", ("name", "a"), ("name", "b"),
         ("cond", ("name", "p"), ("num", "1"), ("num", "2"))):
            "a ? b : p ? 1 : 2",
        ("postfix", "++", ("unary", "-", ("name", "a"))): "(- a)++",
    }
    for tree, text in cases.items():
        assert render(tree) == text


MALFORMED = [
    "int",
    "int f(void) { return 1 +; }",
    "int f(void) { return (1; }",
    "int f(void) { return a ? b; }",
    "int f(void) { return 1 ? 2 : ; }",
    "int f(void) { x = ; }",
    "int f(void) { a <<= ; }",
    "int f(void) { return a[1; }",
    "int f(void) { return a->; }",
    "int f(void) { return a.1; }",
    "int f(void) { return sizeof(1); }",
    "int f(void) { return fn(1,; }",
    "int f(void) { return fn(1 2); }",
    "int f(void) { return 1 }",
    "int f(void) { return -; }",
    "int f(void) { return ++; }",
    "int f(void) { return a b; }",
    "int f(void) { return ) ; }",
    "int f(void) { return @; }",
    "int f( { }",
    "int x = y;",
    "int x = 1 +;",
    "int x = fn(1);",
    "int x = 1 ? 2 : 3;",
    "int a[b];",
    "int f(void) { int a[2 * b]; }",
    "int f(void) { switch (x) { case y: break; } }",
    "int f(void) { static int s = a; }",
    "struct s { int a[n]; };",
]


@pytest.mark.parametrize("source", MALFORMED)
def test_malformed_sources_fail_like_the_reference(source):
    def failure(parse):
        with pytest.raises(CompileError) as excinfo:
            parse(source, "bad.c")
        return type(excinfo.value), str(excinfo.value)

    assert failure(parse_unit) == failure(reference_parse_unit)


# ---------------------------------------------------------------------------
# Cached ASTs are never mutated by a compile


def test_compiles_leave_cached_asts_untouched(kernel_units, post_units):
    clear_caches()
    try:
        for path, source in kernel_units + post_units:
            if not path.endswith(".c"):
                continue
            cached = parse_unit_cached(source, path)
            fingerprint = _identity_fingerprint(cached)
            for options in FLAVORS.values():
                compile_source_cached(source, path, options)
            assert parse_unit_cached(source, path) is cached, path
            assert _identity_fingerprint(cached) == fingerprint, path
            assert ast_shape(cached) == ast_shape(parse_unit(source, path)), \
                path
    finally:
        clear_caches()


INLINE_SITES = {
    "nested": "return quad(i);",
    "compound-target": "arr[sq(i)] += quad(i); return 0;",
    "call-argument": "return plain(sq(i));",
    "local-init": "int v = sq(i); return v;",
    "if": "if (sq(i)) { g = 1; } else { g = sq(g); } return g;",
    "while": "while (sq(i) < 9) { i++; } return i;",
    "for-step": "int n = 0; for (i = 0; i < 9; i = i + sq(1)) { n++; }"
                " return n;",
    "do-while": "do { i++; } while (sq(i) < 9); return i;",
    "switch": "switch (sq(i)) { case 1: return 2; default: return sq(i); }",
    "ternary": "return i ? sq(i) : quad(i);",
    "none": "return plain(i);",
}


@pytest.mark.parametrize("site", sorted(INLINE_SITES))
def test_inlining_in_every_position_matches_the_reference(site):
    """Calls to inline candidates in every statement and expression
    position the inliner visits compile to the reference's bytes and
    inline report, and leave the parsed AST untouched."""
    source = (
        "int g;\n"
        "int arr[4];\n"
        "static int sq(int v) { return v * v; }\n"
        "static int quad(int v) { return sq(v) * sq(v); }\n"
        "int plain(int i) { int j = i; j++; return j; }\n"
        "int user(int i) { %s }\n" % INLINE_SITES[site])
    unit = parse_unit(source, "inl.c")
    fingerprint = _identity_fingerprint(unit)
    for options in FLAVORS.values():
        result = compile_unit(unit, options)
        assert _compiled(result) == _compiled(
            reference_compile_source(source, "inl.c", options))
        assert result.inline_report.was_inlined("sq")  # inside quad
        assert ("user" in result.inline_report.callers_of("sq")
                or "user" in result.inline_report.callers_of("quad")) \
            == (site != "none")
    assert _identity_fingerprint(unit) == fingerprint


# ---------------------------------------------------------------------------
# The encode memo


@contextmanager
def _small_encode_memo(cap: int):
    saved = assembler_module._ENCODE_MEMO, assembler_module._ENCODE_MEMO_MAX
    assembler_module._ENCODE_MEMO = OrderedDict()
    assembler_module._ENCODE_MEMO_MAX = cap
    try:
        yield
    finally:
        assembler_module._ENCODE_MEMO, \
            assembler_module._ENCODE_MEMO_MAX = saved


def test_encode_memo_stays_bounded_and_correct():
    """Regression: the process-global encode memo stays under its cap
    by LRU eviction, and eviction never changes an object."""
    units = _tree_units(kernel_for_version(CORPUS[0].kernel_version).tree)
    reference = [_compiled(reference_compile_source(source, path, options))
                 for path, source in units for options in FLAVORS.values()]
    with _small_encode_memo(8):  # far below one unit's encodings
        assert [_compiled(compile_source_fresh(source, path, options))
                for path, source in units
                for options in FLAVORS.values()] == reference
        assert len(assembler_module._ENCODE_MEMO) <= 8


BAD_STREAMS = {
    "bad register": [Insn("movi", (9, 1))],
    "operand count": [Insn("movi", (1,))],
    "symbol in a register field": [Insn("movr", (SymRef("x"), 1))],
    "label in a data operand": [Insn("movi", (1, LabelRef("x")))],
    "symbol as a displacement": [Insn("jmp", (SymRef("x"),))],
    "unknown mnemonic": [Insn("frob", ())],
    "bad alignment": [Insn("nop"), Align(3)],
    "after a good encode": [Insn("movi", (1, 2)), Insn("movi", (1, 2, 3))],
}


@pytest.mark.parametrize("name", sorted(BAD_STREAMS))
def test_failed_encodes_are_never_memoised(name):
    items = BAD_STREAMS[name]
    with pytest.raises(AssemblyError) as expected:
        reference_assemble(items)
    with _small_encode_memo(64):
        for _ in range(2):
            with pytest.raises(AssemblyError) as got:
                assemble(items)
            assert str(got.value) == str(expected.value)
        assert all(key[0] != "movi" or key[1] == (1, 2)
                   for key in assembler_module._ENCODE_MEMO)
        assert len(assembler_module._ENCODE_MEMO) <= 1


def test_streams_with_odd_items_assemble_like_the_reference():
    """Items the compiler never emits still lay out and encode exactly
    as before: an explicit short mnemonic aimed at a label, a branch
    with an integer displacement, alignment, data with relocations, a
    long forward branch and calls to undefined symbols."""
    streams = [
        [Label("top"), Insn("jmps", (LabelRef("top"),)), Align(8),
         Insn("jmp", (5,)), Label("end")],
        [Label("a"), Insn("jz", (LabelRef("far"),)),
         Data(b"\0" * 200, ((4, SymRef("sym", 8)),)),
         Insn("call", (LabelRef("extern_fn"),)), Align(16), Label("far"),
         Insn("jnz", (LabelRef("a"),)),
         Insn("load", (1, SymRef("g", 4))), Insn("ret")],
    ]
    for items in streams:
        for short in (True, False):
            got = assemble(items, allow_short_branches=short)
            want = reference_assemble(items, allow_short_branches=short)
            assert (got.code, got.labels, got.relocations) == \
                (want.code, want.labels, want.relocations)


@pytest.mark.parametrize("gap", range(120, 136))
def test_short_branch_reach_matches_the_reference(gap):
    """Backward and forward branches across every displacement near the
    rel8 limits relax exactly as before."""
    streams = [
        [Label("top"), Data(b"\x01" * gap), Insn("jnz", (LabelRef("top"),))],
        [Insn("jz", (LabelRef("end"),)), Data(b"\x01" * gap), Label("end"),
         Insn("jmp", (LabelRef("end"),))],
        [Insn("jmp", (LabelRef("mid"),)), Data(b"\x01" * (gap - 2)),
         Insn("jge", (LabelRef("top"),)), Label("mid"), Align(4),
         Data(b"\x01" * 3), Label("top")],
    ]
    for items in streams:
        got = assemble(items)
        want = reference_assemble(items)
        assert (got.code, got.labels, got.relocations) == \
            (want.code, want.labels, want.relocations)


def test_encode_memo_survives_concurrent_assemblers():
    """Compiles run on control-plane threads beside the publish gate:
    with a tiny cap and a short switch interval every assembly stays
    correct, nothing raises, and the memo stays bounded."""
    streams = [[Insn("movi", (r, 1000 * t + i)) for i in range(64)
                for r in range(isa.NUM_REGISTERS)] for t in range(3)]
    hot = [Insn("load", (r, SymRef("g%d" % r))) for r in range(4)]
    jobs = [(hot, 400)] * 3 + [(items, 20) for items in streams]
    errors: List[str] = []

    def run(items, rounds):
        want = reference_assemble(items)
        try:
            for _ in range(rounds):
                got = assemble(items)
                if (got.code, got.relocations) != \
                        (want.code, want.relocations):
                    errors.append("assembled differently")
                    return
        except Exception as exc:  # reported below, not swallowed
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    with _small_encode_memo(8):
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=job)
                       for job in jobs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(assembler_module._ENCODE_MEMO) <= 8 + len(threads)
    assert errors == []
