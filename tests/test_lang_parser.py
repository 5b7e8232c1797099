"""Tests for the MiniC parser."""

import pytest

from repro.errors import CompileError
from repro.lang import ast, parse_unit
from repro.lang.types import ArrayType, PointerType


def test_parse_empty_unit():
    unit = parse_unit("")
    assert unit.decls == []


def test_parse_function_def():
    unit = parse_unit("int add(int a, int b) { return a + b; }")
    fn = unit.functions()[0]
    assert fn.name == "add"
    assert [p.name for p in fn.params] == ["a", "b"]
    assert not fn.is_static and not fn.is_inline
    ret = fn.body.statements[0]
    assert isinstance(ret, ast.Return)
    assert isinstance(ret.value, ast.Binary) and ret.value.op == "+"


def test_parse_static_inline_function():
    unit = parse_unit("static inline int one(void) { return 1; }")
    fn = unit.functions()[0]
    assert fn.is_static and fn.is_inline
    assert fn.params == []


def test_parse_prototype():
    unit = parse_unit("int do_thing(int x);")
    proto = unit.prototypes()[0]
    assert proto.name == "do_thing"
    assert proto.is_prototype


def test_parse_globals():
    unit = parse_unit("""
        int counter = 5;
        static int debug;
        extern int other_unit_var;
        int table[4] = { 1, 2 };
    """)
    by_name = {g.name: g for g in unit.global_vars()}
    assert by_name["counter"].init == [5]
    assert by_name["debug"].is_static and by_name["debug"].init is None
    assert by_name["other_unit_var"].is_extern
    assert by_name["table"].init == [1, 2, 0, 0]
    assert isinstance(by_name["table"].typ, ArrayType)


def test_parse_multiple_declarators():
    unit = parse_unit("int a, b = 2, c;")
    assert [g.name for g in unit.global_vars()] == ["a", "b", "c"]
    assert unit.global_vars()[1].init == [2]


def test_parse_struct_def_and_use():
    unit = parse_unit("""
        struct task { int pid; int uid; int flags; };
        struct task init_task;
        int read_uid(struct task *t) { return t->uid; }
    """)
    struct_def = unit.decls[0]
    assert isinstance(struct_def, ast.StructDef)
    task = unit.types.struct("task")
    assert task.size == 12
    assert task.field_offset("uid") == 4
    fn = unit.find_function("read_uid")
    access = fn.body.statements[0].value
    assert isinstance(access, ast.FieldAccess) and access.arrow


def test_struct_redefinition_raises():
    with pytest.raises(CompileError):
        parse_unit("struct a { int x; }; struct a { int y; };")


def test_parse_pointer_types():
    unit = parse_unit("int **pp; int deref(int *p) { return *p; }")
    pp = unit.global_vars()[0]
    assert isinstance(pp.typ, PointerType)
    assert isinstance(pp.typ.pointee, PointerType)


def test_parse_control_flow():
    unit = parse_unit("""
        int f(int n) {
            int total = 0;
            while (n > 0) {
                if (n % 2 == 0) { total += n; } else total -= 1;
                n--;
            }
            for (int i = 0; i < 3; i++) total++;
            return total;
        }
    """)
    fn = unit.functions()[0]
    kinds = [type(s).__name__ for s in fn.body.statements]
    assert "While" in kinds
    # for loop desugars to Block(LocalDecl, While)
    assert "Block" in kinds


def test_for_loop_desugar_structure():
    unit = parse_unit("int f(void) { for (int i = 0; i < 2; i++) ; return 0; }")
    outer = unit.functions()[0].body.statements[0]
    assert isinstance(outer, ast.Block)
    decl, loop = outer.statements
    assert isinstance(decl, ast.LocalDecl) and decl.name == "i"
    assert isinstance(loop, ast.While)
    # The step is carried on the While so `continue` can target it.
    assert isinstance(loop.step, ast.IncDec)


def test_parse_break_continue():
    unit = parse_unit("""
        int f(void) {
            while (1) { if (0) break; continue; }
            return 0;
        }
    """)
    loop = unit.functions()[0].body.statements[0]
    assert isinstance(loop.body.statements[0].then.statements[0], ast.Break)
    assert isinstance(loop.body.statements[1], ast.Continue)


def test_parse_static_local():
    unit = parse_unit("int f(void) { static int count = 7; return count; }")
    decl = unit.functions()[0].body.statements[0]
    assert isinstance(decl, ast.LocalDecl)
    assert decl.is_static and decl.static_init == 7


def test_parse_operator_precedence():
    unit = parse_unit("int f(void) { return 1 + 2 * 3 == 7 && 4 < 5; }")
    expr = unit.functions()[0].body.statements[0].value
    assert isinstance(expr, ast.Binary) and expr.op == "&&"
    assert expr.left.op == "=="


def test_parse_assignment_right_associative():
    unit = parse_unit("int f(int a, int b) { a = b = 1; return a; }")
    assign = unit.functions()[0].body.statements[0].expr
    assert isinstance(assign, ast.Assign)
    assert isinstance(assign.value, ast.Assign)


def test_parse_compound_assignment_desugars():
    unit = parse_unit("int f(int a) { a += 2; return a; }")
    assign = unit.functions()[0].body.statements[0].expr
    assert isinstance(assign, ast.Assign)
    assert isinstance(assign.value, ast.Binary) and assign.value.op == "+"


def test_parse_ternary():
    unit = parse_unit("int f(int a) { return a ? 1 : 2; }")
    expr = unit.functions()[0].body.statements[0].value
    assert isinstance(expr, ast.Conditional)


def test_parse_sizeof():
    unit = parse_unit("""
        struct pair { int a; int b; };
        int f(void) { return sizeof(struct pair) + sizeof(int); }
    """)
    expr = unit.functions()[0].body.statements[0].value
    assert expr.left.measured.size == 8
    assert expr.right.measured.size == 4


def test_parse_sizeof_in_global_init():
    unit = parse_unit("""
        struct pair { int a; int b; };
        int pair_size = sizeof(struct pair);
    """)
    assert unit.global_vars()[0].init == [8]


def test_parse_address_of_and_calls():
    unit = parse_unit("""
        int callee(int *p);
        int caller(void) { int x = 3; return callee(&x); }
    """)
    call = unit.find_function("caller").body.statements[1].value
    assert isinstance(call, ast.Call)
    assert isinstance(call.args[0], ast.Unary) and call.args[0].op == "&"


def test_parse_index_chain():
    unit = parse_unit("int t[8]; int f(int i) { return t[i + 1]; }")
    expr = unit.functions()[0].body.statements[0].value
    assert isinstance(expr, ast.Index)


def test_parse_ksplice_hook_macros():
    unit = parse_unit("""
        int my_transition(void) { return 0; }
        __ksplice_apply__(my_transition);
        __ksplice_post_reverse__(my_transition);
    """)
    hooks = unit.hooks()
    assert [(h.section, h.function) for h in hooks] == [
        (".ksplice_apply", "my_transition"),
        (".ksplice_post_reverse", "my_transition"),
    ]


def test_parse_errors_carry_location():
    with pytest.raises(CompileError) as exc:
        parse_unit("int f(void) {\n  return *;\n}", unit_name="x.c")
    assert "x.c" in str(exc.value)


def test_parse_missing_semicolon_raises():
    with pytest.raises(CompileError):
        parse_unit("int x = 1")


def test_non_constant_global_init_raises():
    with pytest.raises(CompileError):
        parse_unit("int f(void); int x = f();")


def test_extern_with_initializer_raises():
    with pytest.raises(CompileError):
        parse_unit("extern int x = 1;")


@pytest.mark.parametrize("source, literal", [
    ("int f(void) {\n  return 0123;\n}", "0123"),
    ("int x = 09;", "09"),
    ("int a[2] = {1, 007};", "007"),
])
def test_octal_looking_literals_raise_compile_error(source, literal):
    """MiniC has no octal: a leading zero before other digits is a
    typed error naming the unit, the line and the literal."""
    with pytest.raises(CompileError) as exc:
        parse_unit(source, unit_name="oct.c")
    line = source[:source.index(literal)].count("\n") + 1
    assert str(exc.value) == \
        "oct.c:%d: invalid integer literal %r" % (line, literal)


def test_zero_and_hex_literals_still_parse():
    unit = parse_unit("int a[3] = {0, 00, 0x1F};")
    assert unit.global_vars()[0].init == [0, 0, 31]


@pytest.mark.parametrize("expr", ["1 << -1", "8 >> -2", "1 << (2 - 3)"])
def test_negative_constant_shift_raises_compile_error(expr):
    with pytest.raises(CompileError) as exc:
        parse_unit("int x = %s;" % expr, unit_name="shift.c")
    assert str(exc.value).startswith("shift.c:1: negative shift count")


def test_binary_operators_associate_left_at_every_level():
    for op in ("||", "&&", "|", "^", "&", "==", "<", "<<", "-", "/"):
        unit = parse_unit("int f(int a, int b, int c) "
                          "{ return a %s b %s c; }" % (op, op))
        expr = unit.functions()[0].body.statements[0].value
        assert isinstance(expr.left, ast.Binary), op
        assert (expr.op, expr.left.op) == (op, op)
        assert isinstance(expr.right, ast.Name), op
