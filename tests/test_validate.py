import pytest

import modbuild
from wasmwarden import Engine, validate_module
from wasmwarden.ir import (
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    Import,
    ModuleIR,
)
from wasmwarden.interp import InvalidModule


def _minimal(body, params=(), results=(), locals_=()):
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType(tuple(params), tuple(results)))
    m.functions.append(FunctionIR(ti, list(locals_), list(body)))
    return m


def test_corpus_modules_validate_clean():
    for name, m, _ in modbuild.corpus():
        rep = validate_module(m)
        assert rep.ok, f"{name}: {rep}"
    for m in (modbuild.bump_alloc_module(), modbuild.victim_module()):
        assert validate_module(m).ok


def test_type_mismatch_on_operand_stack():
    m = _minimal([I("i32.const", 1), I("i64.const", 2), I("i32.add"),
                  I("drop"), I("end")])
    assert not validate_module(m).ok


def test_stack_underflow():
    m = _minimal([I("i32.add"), I("drop"), I("end")])
    assert not validate_module(m).ok


def test_leftover_values_at_end():
    m = _minimal([I("i32.const", 1), I("end")])
    assert not validate_module(m).ok


def test_result_type_checked():
    ok = _minimal([I("i32.const", 1), I("end")], results=("i32",))
    assert validate_module(ok).ok
    bad = _minimal([I("i64.const", 1), I("end")], results=("i32",))
    assert not validate_module(bad).ok


def test_branch_depth_out_of_range():
    m = _minimal([I("block", None), I("br", 5), I("end"), I("end")])
    assert not validate_module(m).ok


def test_branch_to_function_label_is_valid():
    m = _minimal([I("br", 0), I("end")])
    assert validate_module(m).ok


def test_loop_label_takes_no_values():
    # branching to a loop re-enters with empty label types in the MVP
    m = _minimal([
        I("loop", None),
        I("i32.const", 1),
        I("br_if", 0),
        I("end"),
        I("end"),
    ])
    assert validate_module(m).ok


def test_unreachable_code_is_polymorphic():
    m = _minimal([
        I("unreachable"),
        I("i32.add"),  # operands come from the polymorphic stack
        I("drop"),
        I("end"),
    ])
    assert validate_module(m).ok


def test_local_index_bounds():
    m = _minimal([I("local.get", 3), I("drop"), I("end")], locals_=("i32",))
    assert not validate_module(m).ok


def test_global_mutability():
    m = _minimal([I("i32.const", 1), I("global.set", 0), I("end")])
    m.globals.append(Global("i32", False, [I("i32.const", 0)]))
    assert not validate_module(m).ok
    m.globals[0] = Global("i32", True, [I("i32.const", 0)])
    assert validate_module(m).ok


def test_imports_come_first_in_the_index_spaces():
    # function 0 and global 0 are imported; the defined ones follow
    m = _minimal([I("global.get", 0), I("drop"),
                  I("global.get", 1), I("call", 0), I("global.set", 1),
                  I("end")])
    m.imports.append(Import("env", "g", "global", ("i64", False)))
    m.imports.append(Import("env", "f", "func",
                            m.add_type(FuncType(("i32",), ("i32",)))))
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    assert validate_module(m).ok, validate_module(m)
    for bad in ([I("global.get", 0), I("global.set", 1)],  # i64 into i32
                [I("i64.const", 0), I("global.set", 0)],   # immutable
                [I("call", 0), I("drop")],                 # no argument
                [I("call", 2)],                            # no function 2
                [I("global.get", 2), I("drop")]):          # no global 2
        m.functions[0].body = bad + [I("end")]
        assert not validate_module(m).ok, bad


def test_memory_ops_require_memory():
    m = _minimal([I("i32.const", 0), I("i32.load", 2, 0), I("drop"),
                  I("end")])
    m.memory = None
    assert not validate_module(m).ok


def test_alignment_must_be_natural():
    m = _minimal([I("i32.const", 0), I("i32.load", 3, 0), I("drop"),
                  I("end")])
    assert not validate_module(m).ok  # 2^3 = 8 > 4-byte access


def test_export_duplicates_rejected():
    m = _minimal([I("end")])
    m.exports.append(Export("f", "func", 0))
    m.exports.append(Export("f", "func", 0))
    assert not validate_module(m).ok


def test_export_index_bounds():
    m = _minimal([I("end")])
    m.exports.append(Export("g", "func", 9))
    assert not validate_module(m).ok


def test_start_signature():
    m = _minimal([I("end")])
    m.start = 0
    assert validate_module(m).ok
    m2 = _minimal([I("drop"), I("end")], params=("i32",))
    m2.start = 0
    assert not validate_module(m2).ok


def test_if_branches_must_agree():
    m = _minimal([
        I("i32.const", 1),
        I("if", "i32"),
        I("i32.const", 1),
        I("else"),
        I("i64.const", 2),
        I("end"),
        I("drop"),
        I("end"),
    ])
    assert not validate_module(m).ok


def test_if_with_result_needs_else():
    m = _minimal([
        I("i32.const", 1),
        I("if", "i32"),
        I("i32.const", 1),
        I("end"),
        I("drop"),
        I("end"),
    ])
    assert not validate_module(m).ok


def test_select_operands_must_match():
    m = _minimal([
        I("i32.const", 1), I("i64.const", 2), I("i32.const", 0),
        I("select"), I("drop"), I("end"),
    ])
    assert not validate_module(m).ok


def test_call_argument_types():
    m = ModuleIR()
    m.memory = (1, None)
    callee_t = m.add_type(FuncType(("i64",), ()))
    caller_t = m.add_type(FuncType((), ()))
    m.functions.append(FunctionIR(callee_t, [], [I("drop"), I("end")]))
    m.functions.append(
        FunctionIR(caller_t, [], [I("i32.const", 1), I("call", 0), I("end")])
    )
    assert not validate_module(m).ok


def test_instructions_after_the_function_end_rejected():
    # the first would pop from an empty control stack
    for body in ([I("end"), I("drop"), I("end")], [I("end"), I("nop")]):
        rep = validate_module(_minimal(body))
        assert not rep.ok
        assert "instruction 1" in str(rep) and "function's end" in str(rep)


def _with_globals(body):
    # global 0 is immutable, global 1 mutable; both i32
    m = _minimal(body)
    m.globals.append(Global("i32", False, [I("i32.const", 0)]))
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    return m


def _without_memory(body):
    m = _minimal(body)
    m.memory = None
    return m


def _with_memory(limits, imported=False):
    m = _minimal([I("end")])
    if imported:
        m.memory = None
        m.imports.append(Import("env", "mem", "memory", limits))
    else:
        m.memory = limits
    return m


def _with_table(limits, imported=False):
    m = _minimal([I("end")])
    if imported:
        m.imports.append(Import("env", "tab", "table", limits))
    else:
        m.table = limits
    return m


# limits whose minimum is above their maximum
_INVERTED_LIMITS = [
    _with_memory((3, 1)),
    _with_memory((3, 1), imported=True),
    _with_table((5, 2)),
    _with_table((5, 2), imported=True),
]


def _caller(body):
    # function 0 takes an i64; function 1 runs ``body``
    m = ModuleIR()
    m.memory = (1, None)
    m.functions.append(FunctionIR(m.add_type(FuncType(("i64",), ())), [],
                                  [I("end")]))
    m.functions.append(FunctionIR(m.add_type(FuncType((), ())), [],
                                  list(body)))
    return m


@pytest.mark.parametrize("module,expected", [
    # straight-line typing: underflow, mismatch, leftovers
    (_minimal([I("i32.add"), I("drop"), I("end")]),
     "func 0: operand stack underflow"),
    (_minimal([I("i32.const", 1), I("i64.const", 2), I("i32.add"),
               I("drop"), I("end")]),
     "func 0: type mismatch: expected i32, got i64"),
    (_minimal([I("i32.const", 1), I("end")]),
     "func 0: operand stack not empty at end of block"),
    (_minimal([I("i64.const", 1), I("end")], results=("i32",)),
     "func 0: type mismatch: expected i32, got i64"),
    # an op cannot take its operands from below its block
    (_minimal([I("i32.const", 1), I("block", None), I("i32.eqz"),
               I("drop"), I("end"), I("drop"), I("end")]),
     "func 0: operand stack underflow"),
    (_minimal([I("i32.const", 1), I("block", None), I("local.tee", 0),
               I("end"), I("drop"), I("end")], locals_=("i32",)),
     "func 0: operand stack underflow"),
    (_minimal([I("local.set", 0), I("end")], locals_=("i32",)),
     "func 0: operand stack underflow"),
    (_minimal([I("f32.const", 0), I("local.tee", 0), I("drop"), I("end")],
              locals_=("i32",)),
     "func 0: type mismatch: expected i32, got f32"),
    (_minimal([I("i32.const", 0), I("i64.const", 0), I("i32.store", 2, 0),
               I("end")]),
     "func 0: type mismatch: expected i32, got i64"),
    # indices, mutability and memory arguments
    (_minimal([I("local.get", 3), I("drop"), I("end")], locals_=("i32",)),
     "func 0: local.get: local index 3 out of range"),
    (_with_globals([I("i32.const", 1), I("global.set", 0), I("end")]),
     "func 0: global.set on immutable global 0"),
    (_with_globals([I("global.get", 2), I("drop"), I("end")]),
     "func 0: global.get: global index 2 out of range"),
    (_with_globals([I("i64.const", 1), I("global.set", 1), I("end")]),
     "func 0: type mismatch: expected i32, got i64"),
    (_minimal([I("i32.const", 0), I("i32.load", 3, 0), I("drop"), I("end")]),
     "func 0: i32.load: alignment 2^3 exceeds natural"),
    (_without_memory([I("i32.const", 0), I("i32.load", 2, 0), I("drop"),
                      I("end")]),
     "func 0: i32.load: module has no memory"),
    (_without_memory([I("memory.size"), I("drop"), I("end")]),
     "func 0: memory.size: module has no memory"),
    # the rest of the instruction set
    (_minimal([I("i32.const", 1), I("i64.const", 2), I("i32.const", 0),
               I("select"), I("drop"), I("end")]),
     "func 0: select operands differ: i64 vs i32"),
    (_minimal([I("block", None), I("br", 5), I("end"), I("end")]),
     "func 0: branch label 5 out of range"),
    (_minimal([I("i32.const", 1), I("if", "i32"), I("i32.const", 1),
               I("else"), I("i64.const", 2), I("end"), I("drop"), I("end")]),
     "func 0: type mismatch: expected i32, got i64"),
    (_minimal([I("i32.const", 1), I("if", "i32"), I("i32.const", 1),
               I("end"), I("drop"), I("end")]),
     "func 0: if without else cannot produce a value"),
    (_caller([I("i32.const", 1), I("call", 0), I("end")]),
     "func 1: type mismatch: expected i64, got i32"),
    (_caller([I("call", 0), I("end")]), "func 1: operand stack underflow"),
    (_caller([I("call", 2), I("end")]),
     "func 1: call: function index 2 out of range"),
    (_minimal([I("end"), I("drop"), I("end")]),
     "func 0: instruction 1 (drop) follows the function's end"),
    (_minimal([I("i32.const", 1), I("drop")]),
     "func 0: function body not terminated by end"),
    # below unreachable, br and return the stack is polymorphic, but a
    # value pushed there keeps its type
    (_minimal([I("unreachable"), I("i32.add"), I("drop"), I("end")]),
     "valid"),
    (_minimal([I("br", 0), I("i64.store", 3, 0), I("end")]), "valid"),
    (_minimal([I("return"), I("local.set", 0), I("f64.const", 0),
               I("global.set", 0), I("end")], locals_=("i64",)),
     "func 0: global.set: global index 0 out of range"),
    (_minimal([I("unreachable"), I("local.tee", 0), I("i64.eqz"),
               I("select"), I("end")], results=("i32",), locals_=("i64",)),
     "valid"),
    (_minimal([I("i32.const", 1), I("block", None), I("unreachable"),
               I("i32.eqz"), I("drop"), I("end"), I("drop"), I("end")]),
     "valid"),
    (_minimal([I("block", "i32"), I("i32.const", 1), I("br", 0),
               I("i32.add"), I("end"), I("drop"), I("end")]),
     "valid"),
    (_minimal([I("unreachable"), I("i64.const", 1), I("i32.add"), I("drop"),
               I("end")]),
     "func 0: type mismatch: expected i32, got i64"),
    (_minimal([I("unreachable"), I("i32.const", 1), I("i64.const", 1),
               I("i64.add"), I("end")]),
     "func 0: type mismatch: expected i64, got i32"),
    # a memory's limits name at most 2^16 pages
    (_with_memory((65537, None)),
     "memory: memory size must be at most 65536 pages (4 GiB)"),
    (_with_memory((1, 65537)),
     "memory: memory size must be at most 65536 pages (4 GiB)"),
    (_with_memory((65536, 65536)), "valid"),
    (_with_memory((65537, None), imported=True),
     "import 0: memory size must be at most 65536 pages (4 GiB)"),
    (_with_memory((0, 65537), imported=True),
     "import 0: memory size must be at most 65536 pages (4 GiB)"),
    (_with_memory((0, 65536), imported=True), "valid"),
    # only a hand-built Instr can lack its block type or name another
    (_minimal([I("loop"), I("end"), I("end")]), "func 0: loop: no block type"),
    (_minimal([I("i32.const", 1), I("if"), I("end"), I("end")]),
     "func 0: if: no block type"),
    (_minimal([I("block", "v128"), I("end"), I("end")]),
     "func 0: block: block type 'v128' is not a value type"),
    # limits: the minimum may not exceed the maximum
    (_INVERTED_LIMITS[0],
     "memory: size minimum must not be greater than maximum"),
    (_INVERTED_LIMITS[1],
     "import 0: size minimum must not be greater than maximum"),
    (_with_memory((1, 1)), "valid"),
    (_INVERTED_LIMITS[2],
     "table: size minimum must not be greater than maximum"),
    (_INVERTED_LIMITS[3],
     "import 0: size minimum must not be greater than maximum"),
    (_with_table((2, 2)), "valid"),
])
def test_report_text(module, expected):
    assert str(validate_module(module)) == expected


@pytest.mark.parametrize("module", _INVERTED_LIMITS)
def test_an_engine_refuses_limits_whose_minimum_exceeds_the_maximum(module):
    with pytest.raises(InvalidModule,
                       match="size minimum must not be greater than maximum"):
        Engine(module)


def test_a_variable_of_no_value_type_is_reported_not_raised():
    # only a hand-built module can declare one
    m = _minimal([I("local.get", 0), I("drop"), I("end")], locals_=("v128",))
    assert str(validate_module(m)) == (
        "func 0: local.get: local 0 has type 'v128', not a value type")
    m = _minimal([I("global.get", 0), I("drop"), I("end")])
    m.imports.append(Import("env", "g", "global", ("v128", False)))
    assert str(validate_module(m)) == (
        "func 0: global.get: global 0 has type 'v128', not a value type")
