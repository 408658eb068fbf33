"""Function-level code against the reference interpreter.

``reference.Reference`` runs every call one instruction at a time, from
the spec: every ``ExecOutcome`` field, the memory, the globals and the
trace bits of an engine that runs function-level code must equal its.
"""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import Phase, event, given, settings, strategies as st

import modbuild
from reference import Reference
from wasmwarden import Engine, RunLimits, WasiConfig
from wasmwarden.encoder import encode_module
from wasmwarden.interp import (
    CODE_CACHE_MODULES,
    DIV_ZERO,
    INDIRECT_MISMATCH,
    InstantiationTrap,
    MAX_CALL_DEPTH,
    MEM_OOB,
    STACK_EXHAUSTED,
    UNINIT_TABLE,
    UNREACHABLE,
    _function_source,
)
from wasmwarden.ir import (
    DataSegment,
    ElemSegment,
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    Instr,
    ModuleIR,
)
from wasmwarden.opcodes import MEM_ACCESS, SIGS
from wasmwarden.parser import parse_module

SRC = Path(__file__).resolve().parents[1] / "src"


def run_both(m: ModuleIR, fuel: int, wasi=None, export=None, args=()):
    """(outcome, results, memory, globals) from a compiled and a reference
    engine; with ``export`` it is called, otherwise ``_start`` runs."""
    runs, ref = [], Reference(m)
    for eng in (Engine(m), ref):
        inst = eng.instantiate(wasi)
        if export is None:
            out, res = eng.run_start(inst, RunLimits(fuel=fuel)), None
        else:
            out, res = eng.call_export(inst, export, list(args),
                                       RunLimits(fuel=fuel))
        runs.append((out, res, bytes(inst.memory), list(inst.globals)))
    assert _compiled_nothing(ref)
    return runs


def sweep_fuel(m: ModuleIR, data: bytes) -> list:
    """Run ``m`` on ``data`` at every fuel value up to one past what it
    needs, compiled and on the reference, and check that both agree on
    the outcome, the trace bits (when ``m`` has a trace map), the memory
    and the globals; returns the outcome with all the fuel it needs."""
    compiled, ref = Engine(m), Reference(m)
    full = ref.run_start(ref.instantiate(WasiConfig(stdin=data)),
                         RunLimits(fuel=1_000_000))
    for fuel in range(full.instructions_executed + 2):
        seen = []
        for eng in (compiled, ref):
            inst = eng.instantiate(WasiConfig(stdin=data))
            out = eng.run_start(inst, RunLimits(fuel=fuel))
            bits = (None if eng.trace_base is None
                    else bytes(eng.read_trace_bits(inst)))
            seen.append((out, bits, bytes(inst.memory), inst.globals))
        assert seen[0] == seen[1], fuel
        if fuel < full.instructions_executed:
            assert seen[0][0].status == "fuel-exhausted"
    assert _compiled_nothing(ref)
    return full


def _compiled_nothing(ref: Reference) -> bool:
    """Whether the reference ran without function-level code."""
    return all(fn is None for fn in ref.funcs)


def test_corpus_matches_the_reference():
    compared = 0
    for name, m, inputs in modbuild.corpus():
        for module in (m, modbuild.hardened(m)):
            for data in inputs:
                compiled, ref = run_both(module, 1_000_000,
                                         WasiConfig(stdin=data))
                assert compiled == ref, (name, data)
                compared += 1
    assert compared >= 40


# ------------------------------------------- compiled code, per engine

def _compiled_functions(eng: Engine) -> dict:
    return {idx: fn for idx, fn in enumerate(eng.funcs) if fn is not None}


def _defined(eng: Engine) -> list:
    """The engine's functions of its defined functions, None where a body
    was not compiled."""
    return eng.funcs[eng.n_host:]


def test_engine_makes_no_source_until_a_body_is_entered():
    m = modbuild.hardened(modbuild.victim_module())
    eng = Engine(m)
    assert _compiled_functions(eng) == {}
    assert all(fn is None for fn in eng.funcs)
    eng.run_start(eng.instantiate(WasiConfig(stdin=b"AAAA")))
    entered = _compiled_functions(eng)
    # _start and process; the trace-map accessor is never called
    assert len(entered) == 2 and len(eng.metas) == 3
    assert _compiled_functions(Engine(m)) == {}  # nothing across engines


def test_each_entered_body_is_one_function_per_engine():
    m = modbuild.hardened(modbuild.victim_module())
    engines = [Engine(m), Engine(m)]
    for eng in engines:
        for data in (b"AAAA", b"42" + b"A" * 14, b"4"):
            eng.run_start(eng.instantiate(WasiConfig(stdin=data)))
    first, second = map(_compiled_functions, engines)
    assert first.keys() == second.keys() and len(first) == 2
    for idx, fn in first.items():
        assert fn.__name__ == f"f{idx}"
        # each engine compiles its own, in its own namespace
        assert second[idx] is not fn
        assert fn.__globals__ is engines[0]._names
        assert second[idx].__globals__ is engines[1]._names
    assert engines[0]._names["HOSTS"] is not engines[1]._names["HOSTS"]


def test_an_engine_and_its_code_are_freed_without_the_cycle_collector():
    m = modbuild.hardened(modbuild.victim_module())
    gc.disable()
    try:
        eng = Engine(m)
        eng.run_start(eng.instantiate(WasiConfig(stdin=b"42" + b"A" * 14)))
        refs = [weakref.ref(eng)] + [weakref.ref(fn)
                                     for fn in eng.funcs if fn]
        assert len(refs) == 3
        del eng
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_compiling_leaves_the_namespace_as_the_engine_made_it():
    for name, m, inputs in modbuild.corpus():
        for module in (m, modbuild.hardened(m)):
            eng = Engine(module)
            names = dict(eng._names)
            for data in inputs:
                fuel = 1_000_000
                for status in ("exit", "fuel-exhausted"):  # a hand-off
                    out = eng.run_start(
                        eng.instantiate(WasiConfig(stdin=data)),
                        RunLimits(fuel=fuel))
                    assert out.status == status, (name, data)
                    fuel = out.instructions_executed - 1
            assert eng._names.keys() - {"__builtins__"} == names.keys()
            assert all(eng._names[k] is v for k, v in names.items()), name


def test_a_body_compiles_to_the_same_code_in_any_order():
    compared = 0
    for name, m, _ in modbuild.corpus():
        for module in (m, modbuild.hardened(m)):
            engines = [Engine(module), Engine(module)]
            for eng, order in zip(engines, (1, -1)):
                for meta in eng.metas[::order]:
                    eng.compiled(meta)
            for ahead, behind in zip(*map(_defined, engines)):
                assert ahead.__code__ == behind.__code__, (
                    name, ahead.__name__)
                compared += 1
    assert compared >= 100


def test_running_never_changes_a_compiled_body():
    eng = Engine(modbuild.hardened(modbuild.victim_module()))
    for meta in eng.metas:
        eng.compiled(meta)
    before = [(fn, fn.__code__) for fn in _defined(eng)]
    names = dict(eng._names)
    for data in (b"AAAA", b"42" + b"A" * 14, b"42" + b"A" * 21, b""):
        for fuel in (1_000_000, 30):
            eng.run_start(eng.instantiate(WasiConfig(stdin=data)),
                          RunLimits(fuel=fuel))
    for meta, (fn, fn_code) in zip(eng.metas, before):
        assert eng.compiled(meta) is fn and fn.__code__ is fn_code
    assert eng._names == names


# ---------------------------------------- code shared across engines

def parsed(m: ModuleIR) -> ModuleIR:
    return parse_module(encode_module(m))


def _store_then_trap() -> tuple[ModuleIR, dict]:
    """Exports ``a`` and ``b``: each stores its argument to memory and to
    global 0, then ``a`` reaches ``unreachable`` and ``b`` divides by
    zero. Returns the module and, per export, its index, the address it
    stores to and the pc of its trap."""
    m = modbuild.new_module(imports=("fd_read",))
    where = {}
    for name, addr, trap in (("a", 0x100, [I("unreachable")]),
                             ("b", 0x200, [I("i32.const", 1),
                                           I("i32.const", 0),
                                           I("i32.div_u")])):
        body = [I("i32.const", addr), I("local.get", 0), I("i32.store", 2, 0),
                I("local.get", 0), I("global.set", 0)] + trap
        idx = modbuild.add_func(m, ("i32",), (), (), body + [I("drop"),
                                                           I("end")],
                                export=name)
        where[name] = (idx, addr, len(body) - 1)
    return m, where


def _load(inst, addr: int) -> int:
    return int.from_bytes(inst.memory[addr: addr + 4], "little")


def test_engines_sharing_code_trap_and_store_each_in_their_own(code_cache):
    m, where = _store_then_trap()
    module = parsed(m)
    engines = [Engine(module), Engine(module)]
    insts = [eng.instantiate() for eng in engines]
    # a's code is compiled by the first engine and shared with the second,
    # then b's by the second and shared with the first
    for k, name, arg in ((0, "a", 7), (1, "a", 9), (1, "b", 5),
                         (0, "b", 3)):
        eng, inst = engines[k], insts[k]
        out, _ = eng.call_export(inst, name, [arg])
        idx, addr, trap_pc = where[name]
        assert out.status == "trap"
        assert out.trap_kind == (UNREACHABLE if name == "a" else DIV_ZERO)
        assert (out.trap_function, out.trap_offset) == (idx, trap_pc)
        assert _load(inst, addr) == arg and inst.globals[0] == arg
    a, b = where["a"][1], where["b"][1]
    assert (_load(insts[0], a), _load(insts[0], b)) == (7, 3)
    assert (_load(insts[1], a), _load(insts[1], b)) == (9, 5)
    assert [inst.globals[0] for inst in insts] == [3, 5]
    codes = [[fn.__code__ for fn in _defined(eng)] for eng in engines]
    assert all(a is b for a, b in zip(*codes))


def test_a_second_engine_defines_its_functions_from_the_shared_code(
        code_cache):
    module = parsed(modbuild.hardened(modbuild.victim_module()))
    first = Engine(module)
    for meta in first.metas:
        first.compiled(meta)
    assert list(code_cache) == [module.source_sha256]
    shared = dict(code_cache[module.source_sha256])
    assert shared.keys() == {meta.func_idx for meta in first.metas}
    second = Engine(module)
    names = dict(second._names)
    for ahead, meta in zip(_defined(first), second.metas):
        fn = second.compiled(meta)
        assert fn is not ahead and fn.__globals__ is second._names
        assert fn.__code__ is ahead.__code__
    assert code_cache[module.source_sha256] == shared  # nothing recompiled
    assert second._names.keys() - {"__builtins__"} == names.keys()
    assert all(second._names[k] is v for k, v in names.items())


def test_a_fuel_cut_is_never_shared(code_cache):
    module = parsed(modbuild.hardened(modbuild.victim_module()))
    data = b"42" + b"A" * 14
    first = Engine(module)
    full = first.run_start(first.instantiate(WasiConfig(stdin=data)))
    fuel = full.instructions_executed - 1  # the last segment hands off
    short = first.run_start(first.instantiate(WasiConfig(stdin=data)),
                            RunLimits(fuel=fuel))
    assert short.status == "fuel-exhausted"
    second = Engine(module)
    again = second.run_start(second.instantiate(WasiConfig(stdin=data)))
    assert again == full
    for ahead, behind in zip(first.funcs, second.funcs):
        assert (ahead is None) == (behind is None)
        assert ahead is None or behind.__code__ is ahead.__code__


def test_a_module_differing_in_one_body_shares_no_code(code_cache):
    # the key is the module's hash, so the bodies that did not change are
    # compiled again, to equal code
    m, where = _store_then_trap()
    other, _ = _store_then_trap()
    b = where["b"][0] - other.num_imported_funcs
    other.functions[b].body[5] = I("i32.const", 2)  # b divides 2 by zero
    engines = [Engine(parsed(m)), Engine(parsed(other))]
    for eng in engines:
        for meta in eng.metas:
            eng.compiled(meta)
    assert len(code_cache) == 2
    a_code, b_code = ([fn.__code__ for fn in _defined(eng)]
                      for eng in engines)
    assert a_code[0] is not b_code[0] and a_code[0] == b_code[0]
    assert a_code[1] is not b_code[1] and a_code[1] != b_code[1]


def test_a_module_without_the_hash_of_its_bytes_is_never_cached(code_cache):
    built = modbuild.hardened(modbuild.victim_module())
    passed = modbuild.hardened(parsed(modbuild.victim_module()))
    for module in (built, passed):
        assert module.source_sha256 is None
        engines = [Engine(module), Engine(module)]
        for eng in engines:
            assert eng._code is None
            for meta in eng.metas:
                eng.compiled(meta)
        for ahead, behind in zip(*map(_defined, engines)):
            assert ahead.__code__ is not behind.__code__
            assert ahead.__code__ == behind.__code__
    assert not code_cache


def test_the_cache_keeps_the_last_modules_an_engine_was_made_for(
        code_cache):
    def module(k: int) -> ModuleIR:
        m = modbuild.new_module(imports=())
        modbuild.add_func(m, (), ("i32",), (), [I("i32.const", k), I("end")],
                          export="f")
        return parsed(m)

    modules = [module(k) for k in range(CODE_CACHE_MODULES + 1)]
    engines = [Engine(m) for m in modules[:CODE_CACHE_MODULES]]
    Engine(modules[0])  # used again, so now the most recent
    last = Engine(modules[-1])
    hashes = [m.source_sha256 for m in modules]
    assert len(set(hashes)) == len(hashes)
    # the second is dropped
    assert list(code_cache) == hashes[2:-1] + hashes[:1] + hashes[-1:]
    # an engine keeps its module's code while it lives
    dropped = engines[1]
    out, vals = dropped.call_export(dropped.instantiate(), "f", [])
    assert (out.status, vals) == ("exit", [1])
    assert list(dropped._code) == [dropped.metas[0].func_idx]
    assert all(kept is not dropped._code for kept in code_cache.values())
    assert last._code is code_cache[hashes[-1]]


# ---------------------------------------------------- the victim, fuel swept

@pytest.mark.parametrize("data", [b"42" + b"A" * 14, b"AAAA"])
def test_victim_fuel_sweep_matches_the_reference(data):
    sweep_fuel(modbuild.hardened(modbuild.victim_module()), data)


# ------------------------------------------ calls, resumes and hand-offs

def _resume_in_a_loop() -> ModuleIR:
    """``_start`` calls ``pick`` four times from inside a loop, with two
    values of its own below the call's argument, and stores each result
    with them."""
    m = modbuild.new_module(imports=("fd_read",))
    pick = modbuild.add_func(m, ("i32",), ("i32",), (), [
        I("local.get", 0), I("i32.load8_u", 0, modbuild.INPUT_ADDR),
        I("local.get", 0), I("i32.add"), I("end"),
    ])
    modbuild.add_start(m, modbuild.read_stdin(maxlen=4) + [
        I("i32.const", 4), I("local.set", 0),
        I("loop", None),
        I("i32.const", modbuild.OUT_ADDR), I("local.get", 0), I("i32.add"),
        I("i32.const", 7),
        I("local.get", 0), I("i32.const", 1), I("i32.sub"),
        I("call", pick),  # returns into the loop, above the two values
        I("i32.mul"),
        I("i32.store8", 0, 0),
        I("local.get", 0), I("i32.const", 1), I("i32.sub"),
        I("local.tee", 0),
        I("br_if", 0),
        I("end"),
        I("end"),
    ], locals_=("i32",))
    return m


def _indirect_callback() -> ModuleIR:
    """The first input byte picks a table slot: two functions that each
    call ``triple``, ``fd_read`` under the wrong type, or an empty slot.
    Then ``fd_read`` is called through the table under its own type."""
    m = modbuild.new_module(imports=("fd_read",))
    unary = m.add_type(FuncType(("i32",), ("i32",)))
    triple = modbuild.add_func(m, ("i32",), ("i32",), (), [
        I("local.get", 0), I("i32.const", 3), I("i32.mul"), I("end"),
    ])
    plus_one = modbuild.add_func(m, ("i32",), ("i32",), (), [
        I("local.get", 0), I("call", triple), I("i32.const", 1),
        I("i32.add"), I("end"),
    ])
    shifted = modbuild.add_func(m, ("i32",), ("i32",), (), [
        I("local.get", 0), I("i32.const", 2), I("i32.add"),
        I("call", triple), I("end"),
    ])
    m.table = (4, 4)
    m.elems.append(ElemSegment([I("i32.const", 0)], [plus_one, shifted, 0]))
    modbuild.add_start(m, modbuild.read_stdin(maxlen=2) + [
        I("i32.const", modbuild.OUT_ADDR),
        I("i32.const", 5),  # left below the call
        I("i32.const", modbuild.INPUT_ADDR), I("i32.load8_u", 0, 1),
        I("i32.const", modbuild.INPUT_ADDR), I("i32.load8_u", 0, 0),
        I("i32.const", 3), I("i32.and"),
        I("call_indirect", unary),
        I("i32.add"),
        I("i32.store", 2, 0),
        # fd_read with no iovecs, through the table: a host callee
        I("i32.const", 0), I("i32.const", modbuild.IOV_ADDR),
        I("i32.const", 0), I("i32.const", modbuild.NREAD_ADDR),
        I("i32.const", 2),
        I("call_indirect", 0),
        I("i32.const", modbuild.OUT_ADDR + 4), I("i32.add"),
        I("i32.const", 9), I("i32.store8", 0, 0),
        I("end"),
    ])
    return m


def _trap_two_calls_deep() -> tuple[ModuleIR, int, int]:
    """``_start`` -> ``middle`` -> ``leaf``, which divides by the first
    input byte minus '0'; returns the module, ``leaf``'s index and the pc
    of its division."""
    m = modbuild.new_module(imports=("fd_read",))
    leaf_body = [
        I("i32.const", 100),
        I("local.get", 0), I("i32.const", 0x30), I("i32.sub"),
        I("i32.div_u"),
        I("end"),
    ]
    leaf = modbuild.add_func(m, ("i32",), ("i32",), (), leaf_body)
    middle = modbuild.add_func(m, ("i32",), ("i32",), (), [
        I("i32.const", 1), I("local.get", 0), I("call", leaf), I("i32.add"),
        I("end"),
    ])
    modbuild.add_start(m, modbuild.read_stdin(maxlen=1) + [
        I("i32.const", modbuild.OUT_ADDR),
        I("i32.const", modbuild.INPUT_ADDR), I("i32.load8_u", 0, 0),
        I("call", middle),
        I("i32.store", 2, 0),
        I("end"),
    ])
    return m, leaf, 4


@pytest.mark.parametrize("data", [b"\x01\x02\x03\x04", b"AB", b""],
                         ids=["small-bytes", "letters", "empty"])
def test_call_returning_into_a_loop_matches_the_reference(data):
    full = sweep_fuel(modbuild.hardened(_resume_in_a_loop()), data)
    assert full.status == "exit"


@pytest.mark.parametrize("data,status,kind", [
    (b"\x00\x05", "exit", ""),
    (b"\x01\x05", "exit", ""),
    (b"\x02\x05", "trap", INDIRECT_MISMATCH),
    (b"\x03\x05", "trap", UNINIT_TABLE),
], ids=["plus-one", "shifted", "wrong-type", "empty-slot"])
def test_indirect_callee_calling_back_matches_the_reference(data, status,
                                                             kind):
    full = sweep_fuel(modbuild.hardened(_indirect_callback()), data)
    assert (full.status, full.trap_kind) == (status, kind)


def _table_module(size: int, offset: int) -> ModuleIR:
    """A table of ``size`` entries whose one segment puts function 0, which
    returns 7, in slot ``offset``; export ``g`` calls through the slot its
    argument names."""
    m = ModuleIR()
    ti = m.add_type(FuncType((), ("i32",)))
    m.functions.append(FunctionIR(ti, [], [I("i32.const", 7), I("end")]))
    m.functions.append(FunctionIR(
        m.add_type(FuncType(("i32",), ("i32",))), [],
        [I("local.get", 0), I("call_indirect", ti), I("end")]))
    m.table = (size, None)
    m.elems.append(ElemSegment([I("i32.const", offset)], [0]))
    m.exports.append(Export("g", "func", 1))
    return m


@pytest.mark.parametrize("callee_type,call_type", [(1, 0), (0, 1)])
def test_call_indirect_accepts_a_structurally_equal_type(callee_type,
                                                         call_type):
    m = ModuleIR()
    # two equal () -> i32 types; ``add_type`` would reuse the first
    m.types += [FuncType((), ("i32",)), FuncType((), ("i32",))]
    m.functions.append(FunctionIR(callee_type, [],
                                  [I("i32.const", 7), I("end")]))
    m.functions.append(FunctionIR(
        m.add_type(FuncType(("i32",), ("i32",))), [],
        [I("local.get", 0), I("call_indirect", call_type), I("end")]))
    m.table = (1, None)
    m.elems.append(ElemSegment([I("i32.const", 0)], [0]))
    m.exports.append(Export("g", "func", 1))
    compiled, ref = run_both(m, 1000, export="g", args=(0,))
    assert compiled == ref
    out, results, _, _ = compiled
    assert (out.status, results) == ("exit", [7])


@pytest.mark.parametrize("slot,status,kind", [
    (3, "exit", ""),
    (2, "trap", UNINIT_TABLE),
    (4, "trap", UNINIT_TABLE),
    (0xFFFFFFFE, "trap", UNINIT_TABLE),
], ids=["filled", "before", "after", "last"])
def test_a_table_is_held_up_to_its_last_filled_slot(slot, status, kind):
    # declared at the u32 maximum, which as a list would be ~34 GB
    m = _table_module(0xFFFFFFFF, 3)
    assert Engine(m).table == [None, None, None, 0]
    compiled, ref = run_both(m, 1000, export="g", args=(slot,))
    assert compiled == ref
    out, results, _, _ = compiled
    assert (out.status, out.trap_kind) == (status, kind)
    assert results == ([7] if status == "exit" else [])


@pytest.mark.parametrize("size,offset", [(4, 4), (0xFFFFFFFF, 0xFFFFFFFF)])
def test_a_segment_past_the_declared_table_is_refused(size, offset):
    with pytest.raises(InstantiationTrap, match="element segment"):
        Engine(_table_module(size, offset))


def test_trap_two_calls_deep_keeps_its_place_and_count():
    m, leaf, div_pc = _trap_two_calls_deep()
    full = sweep_fuel(m, b"0")  # not hardened: the pc is the body's own
    assert (full.status, full.trap_kind) == ("trap", DIV_ZERO)
    assert (full.trap_function, full.trap_offset) == (leaf, div_pc)
    # _start to its call (16), middle to its call (3), leaf to the div (5)
    assert full.instructions_executed == 16 + 3 + 5
    hardened = sweep_fuel(modbuild.hardened(m), b"0")
    assert (hardened.trap_kind, hardened.trap_function) == (DIV_ZERO, leaf)
    assert sweep_fuel(modbuild.hardened(m), b"5").status == "exit"


def _grow_then_load() -> ModuleIR:
    """``_start`` grows memory by as many pages as the first input byte
    says, stores the result, and then, in the same segment, stores to and
    loads from 8 bytes past the old end and stores ``memory.size``. Memory
    may grow by one page only, so a byte of 0 or 2 traps at that store."""
    m = modbuild.new_module(imports=("fd_read",))
    m.memory = (2, 3)
    modbuild.add_start(m, modbuild.read_stdin(maxlen=1) + [
        I("memory.size"), I("i32.const", 16), I("i32.shl"),
        I("local.set", 0),
        I("i32.const", modbuild.OUT_ADDR),
        I("i32.const", modbuild.INPUT_ADDR), I("i32.load8_u", 0, 0),
        I("memory.grow"),
        I("i32.store", 2, 0),
        I("local.get", 0), I("i32.const", 0x5A5A), I("i32.store", 2, 8),
        I("i32.const", modbuild.OUT_ADDR + 4),
        I("local.get", 0), I("i32.load", 2, 8),
        I("i32.store", 2, 0),
        I("i32.const", modbuild.OUT_ADDR + 8), I("memory.size"),
        I("i32.store", 2, 0),
        I("end"),
    ], locals_=("i32",))
    return m


# straight-line segments whose cuts grow memory, read its size, or call
# the host inline
_SEGMENTS = {
    "grow-then-load": _grow_then_load,
    "fd-write": modbuild.echo_module,
    "proc-exit": modbuild._exit_code_program,
}


@pytest.mark.parametrize("name,data,want", [
    ("grow-then-load", b"\x01", ("exit", 0, "")),
    ("grow-then-load", b"\x00", ("trap", 0, MEM_OOB)),
    ("grow-then-load", b"\x02", ("trap", 0, MEM_OOB)),
    ("fd-write", b"hello", ("exit", 0, "")),
    ("proc-exit", b"\x07\x00\x00\x00", ("exit", 3, "")),
])
def test_hand_offs_in_growing_and_host_calling_segments_match(name, data,
                                                               want):
    for m in (_SEGMENTS[name](), modbuild.hardened(_SEGMENTS[name]())):
        full = sweep_fuel(m, data)
        assert (full.status, full.exit_code, full.trap_kind) == want
        if name == "fd-write":
            assert full.stdout == data


def _callee_grows() -> ModuleIR:
    """``_start`` calls ``grow``, which grows memory by one page; then, in
    the segment after the call, it stores to and loads from the new page
    and stores ``memory.size``."""
    m = modbuild.new_module(imports=())
    m.memory = (2, 3)
    grow = modbuild.add_func(m, (), ("i32",), (), [
        I("i32.const", 1), I("memory.grow"), I("end"),
    ])
    new_page = 2 * 65536 + 8
    modbuild.add_start(m, [
        I("i32.const", modbuild.OUT_ADDR),
        I("call", grow),
        I("i32.store", 2, 0),
        I("i32.const", new_page), I("i32.const", 0x5A5A),
        I("i32.store", 2, 0),
        I("i32.const", modbuild.OUT_ADDR + 4),
        I("i32.const", new_page), I("i32.load", 2, 0),
        I("i32.store", 2, 0),
        I("i32.const", modbuild.OUT_ADDR + 8), I("memory.size"),
        I("i32.store", 2, 0),
        I("end"),
    ])
    return m


def test_memory_grown_by_a_callee_is_seen_by_its_caller():
    m = _callee_grows()
    compiled, ref = run_both(m, 1000)
    assert compiled == ref
    out, _, mem, _ = compiled
    assert out.status == "exit"
    out_addr = modbuild.OUT_ADDR
    assert len(mem) == 3 * 65536
    assert [int.from_bytes(mem[at: at + 4], "little")
            for at in range(out_addr, out_addr + 12, 4)] == [2, 0x5A5A, 3]
    assert sweep_fuel(m, b"").status == "exit"


def _calls_itself(op: str) -> ModuleIR:
    """Export ``f`` calls itself with no end, by ``call`` or through its
    own table slot."""
    m = ModuleIR()
    ti = m.add_type(FuncType((), ()))
    call = ([I("call", 0)] if op == "call" else
            [I("i32.const", 0), I("call_indirect", ti)])
    m.functions.append(FunctionIR(ti, [], [I("nop"), *call, I("end")]))
    if op == "call_indirect":
        m.table = (1, 1)
        m.elems.append(ElemSegment([I("i32.const", 0)], [0]))
    m.exports.append(Export("f", "func", 0))
    return m


@pytest.mark.parametrize("op", ["call", "call_indirect"])
def test_recursion_to_the_depth_limit_traps_at_the_same_count(op):
    m = _calls_itself(op)
    compiled, ref = run_both(m, 10_000_000, export="f")
    assert compiled == ref
    out = compiled[0]
    call_pc = len(m.functions[0].body) - 2
    assert (out.status, out.trap_kind) == ("trap", STACK_EXHAUSTED)
    assert (out.trap_function, out.trap_offset) == (0, call_pc)
    # the entry and MAX_CALL_DEPTH calls below it run up to their call,
    # and the next call traps
    assert out.instructions_executed == (call_pc + 1) * (MAX_CALL_DEPTH + 1)


# runs the module on standard input in a thread with a 512 KiB stack and
# prints how the run ended
_IN_A_SMALL_THREAD = """
import sys, threading
from wasmwarden import Engine
from wasmwarden.parser import parse_module
eng = Engine(parse_module(sys.stdin.buffer.read()))
ran = []
threading.stack_size(512 * 1024)
thread = threading.Thread(
    target=lambda: ran.append(eng.call_export(eng.instantiate(), "f", [])))
thread.start()
thread.join()
out = ran[0][0]
print(out.status, out.trap_kind, out.trap_offset, out.instructions_executed)
"""


def test_the_depth_limit_is_reached_on_a_small_thread_stack():
    # in its own process, so that a crash fails the test alone
    proc = subprocess.run(
        [sys.executable, "-c", _IN_A_SMALL_THREAD],
        input=encode_module(_calls_itself("call")), capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().split() == [
        "trap", STACK_EXHAUSTED, "1", str(2 * (MAX_CALL_DEPTH + 1))]


def _hardened_victim() -> ModuleIR:
    return modbuild.hardened(modbuild.victim_module())


@pytest.mark.parametrize("module,export,data,fuel,want", [
    (_hardened_victim, "_start", b"AAAA", 1000, ("exit", "", 0)),
    (_hardened_victim, "_start", b"42" + b"A" * 14, 1000,
     ("trap", UNREACHABLE, 0)),
    (_hardened_victim, "_start", b"AAAA", 30, ("fuel-exhausted", "", 0)),
    (modbuild._exit_code_program, "_start", b"\x07", 1000, ("exit", "", 3)),
    (lambda: _calls_itself("call"), "f", b"", 10**6,
     ("trap", STACK_EXHAUSTED, 0)),
], ids=["exit", "trap", "fuel", "proc-exit", "stack-exhausted"])
def test_a_run_leaves_the_recursion_limit_as_it_found_it(module, export,
                                                         data, fuel, want):
    eng = Engine(module())
    limit = sys.getrecursionlimit()
    out, _ = eng.call_export(eng.instantiate(WasiConfig(stdin=data)), export,
                             [], RunLimits(fuel=fuel))
    assert (out.status, out.trap_kind, out.exit_code) == want
    assert sys.getrecursionlimit() == limit


# -------------------------------------------------- a trap inside a segment

def _trap_in_run(trap_ops):
    """A segment of three ops ending in a br_if that does not branch, then
    one that stores, sets a global and a local, and then runs
    ``trap_ops``; the last of those traps at pc ``len(body) - 6``."""
    body = [
        I("i32.const", 1), I("drop"), I("i32.const", 0), I("br_if", 0),
        I("i32.const", 16), I("i32.const", 0x55), I("i32.store8", 0, 0),
        I("i32.const", 9), I("global.set", 0),
        I("i32.const", 7), I("local.set", 0),
        *trap_ops,
        I("drop"), I("i32.const", 16), I("i32.const", 0x66),
        I("i32.store8", 0, 0),
        I("end"),
    ]
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType((), ()))
    m.functions.append(FunctionIR(ti, ["i32"], body))
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    m.exports.append(Export("f", "func", 0))
    return m


@pytest.mark.parametrize("trap_ops,kind", [
    ([I("i32.const", 65535), I("i32.load", 2, 0)], MEM_OOB),
    ([I("local.get", 0), I("i32.const", 0), I("i32.div_u")], DIV_ZERO),
])
def test_trap_in_a_run_reports_its_own_pc(trap_ops, kind):
    m = _trap_in_run(trap_ops)
    n = len(m.functions[0].body)
    trap_pc = n - 6
    eng = Engine(m)
    src = _function_source("f", m.functions[0].body, eng._blocks[0],
                           eng.metas[0], m.types, eng.func_types, eng.n_host)
    # pc 0 heads a segment of 4 and pc 4 one that runs past the trapping
    # op, charged at once, up to the final end, where the br_if goes
    assert "executed += 4\n" in src and f"executed += {n - 5}\n" in src
    assert src.count("executed += ") == 3
    compiled, ref = run_both(m, 1000, export="f")
    assert compiled == ref
    out, _, mem, glb = compiled
    assert (out.status, out.trap_kind) == ("trap", kind)
    assert (out.trap_function, out.trap_offset) == (0, trap_pc)
    assert out.instructions_executed == trap_pc + 1
    assert mem[16] == 0x55 and glb == [9]  # what ran before the trap stays


# ------------------------------------------------- generated bodies

# pure integer ops over i32 and i64, div and rem among them
_INT_OPS = sorted(
    op for op, (ins, outs) in SIGS.items()
    if op.startswith(("i32.", "i64.")) and ins and outs
    and set(ins + outs) <= {"i32", "i64"} and op not in MEM_ACCESS
)
_TYPES = ("i32", "i64")
_DIVIDE = ("div_s", "div_u", "rem_s", "rem_u")
_LOADS = sorted(op for op, (t, _, _) in MEM_ACCESS.items()
                if t in _TYPES and SIGS[op][1])
_STORES = sorted(op for op, (t, _, _) in MEM_ACCESS.items()
                 if t in _TYPES and not SIGS[op][1])
# locals: params 0 (i32) and 1 (i64), then i32 and i64 scratch (2, 3) and
# the loop counter (4), and an address (5); global 0 is i32, global 1 is i64
_LOCAL = {"i32": 2, "i64": 3}
_GLOBAL = {"i32": 0, "i64": 1}
_PAGE = 65536

# zero is common, so that div and rem trap
_consts = {
    "i32": st.sampled_from([0, 0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000,
                            0xFFFFFFFF]) | st.integers(0, 2**32 - 1),
    "i64": st.sampled_from([0, 0, 1, 63, 64, 2**63 - 1, 2**63, 2**64 - 1])
    | st.integers(0, 2**64 - 1),
}
# mostly in bounds, often in the data at the start of memory, some
# across or past the end of the one page
_in_bounds = st.integers(0, _PAGE - 8)
_in_data = st.integers(0, 248)
_addrs = st.one_of(_in_data, _in_data, _in_bounds,
                   st.integers(_PAGE - 8, _PAGE + 8))


def _address(data) -> list:
    """An address, as a constant or read back from local 5."""
    addr = I("i32.const", data.draw(_addrs))
    if data.draw(st.booleans()):
        return [addr]
    return [addr, I("local.set", 5), I("local.get", 5)]


def _straight(data, stack: list, n: int) -> list:
    """``n`` random steps of straight-line code over the typed ``stack``."""
    out = []
    for _ in range(n):
        moves = ["const", "local.get", "global.get", "load", "copy"]
        if stack:
            moves += ["local.set", "local.tee", "global.set", "drop",
                      "store", "op", "op", "divide"]
        if len(stack) >= 3 and stack[-1] == "i32" and stack[-2] == stack[-3]:
            moves.append("select")
        move = data.draw(st.sampled_from(moves))
        if move == "const":
            t = data.draw(st.sampled_from(_TYPES))
            out.append(I(f"{t}.const", data.draw(_consts[t])))
            stack.append(t)
        elif move == "local.get":
            t = data.draw(st.sampled_from(_TYPES))
            idx = data.draw(st.sampled_from([_TYPES.index(t), _LOCAL[t]]))
            out.append(I("local.get", idx))
            stack.append(t)
        elif move == "global.get":
            t = data.draw(st.sampled_from(_TYPES))
            out.append(I("global.get", _GLOBAL[t]))
            stack.append(t)
        elif move == "load":
            op = data.draw(st.sampled_from(_LOADS))
            out += [*_address(data),
                    I(op, 0, data.draw(st.sampled_from([0, 0, 4])))]
            stack.append(SIGS[op][1][0])
        elif move == "copy":  # a load stored at once, no stack change
            op = data.draw(st.sampled_from(_STORES))
            load = data.draw(st.sampled_from(
                [x for x in _LOADS if SIGS[x][1][0] == SIGS[op][0][1]]))
            offset = st.sampled_from([0, 0, 4])
            out += [*_address(data), *_address(data),
                    I(load, 0, data.draw(offset)),
                    I(op, 0, data.draw(offset))]
        elif move in ("local.set", "local.tee"):
            out.append(I(move, _LOCAL[stack[-1]]))
            if move == "local.set":
                stack.pop()
        elif move == "global.set":
            out.append(I("global.set", _GLOBAL[stack.pop()]))
        elif move == "drop":
            stack.pop()
            out.append(I("drop"))
        elif move == "store":
            t = stack.pop()
            op = data.draw(st.sampled_from(
                [s for s in _STORES if SIGS[s][0][1] == t]))
            out += [I("local.set", _LOCAL[t]),
                    *_address(data),
                    I("local.get", _LOCAL[t]),
                    I(op, 0, data.draw(st.sampled_from([0, 0, 4])))]
        elif move == "divide":  # by a divisor that is often 0 or -1
            t = stack[-1]
            out += [I(f"{t}.const", data.draw(st.sampled_from(
                        [0, 1, 3, (1 << int(t[1:])) - 1]))),
                    I(data.draw(st.sampled_from(
                        [f"{t}.{op}" for op in _DIVIDE])))]
        elif move == "select":
            out.append(I("select"))
            stack[-3:] = [stack[-2]]
        else:
            fits = [op for op in _INT_OPS
                    if list(SIGS[op][0]) == stack[len(stack)
                                                  - len(SIGS[op][0]):]]
            if not fits:
                continue
            op = data.draw(st.sampled_from(fits))
            del stack[len(stack) - len(SIGS[op][0]):]
            stack.extend(SIGS[op][1])
            out.append(I(op))
    return out


def _drain(stack: list) -> list:
    """Store what is left on ``stack`` into the globals, top first."""
    out = [I("global.set", _GLOBAL[t]) for t in reversed(stack)]
    stack.clear()
    return out


def _body(data) -> list:
    body = []
    for _ in range(data.draw(st.integers(1, 3))):
        shape = data.draw(st.sampled_from(
            ["straight", "loop", "block", "if", "br_table", "call"]))
        stack = []
        if shape == "straight":
            body += _straight(data, stack, data.draw(st.integers(1, 12)))
            body += _drain(stack)
        elif shape == "loop":  # the segment runs 1 to 3 times
            body += [I("i32.const", data.draw(st.integers(1, 3))),
                     I("local.set", 4), I("loop", None)]
            body += _straight(data, stack, data.draw(st.integers(1, 10)))
            body += _drain(stack)
            body += [I("local.get", 4), I("i32.const", 1), I("i32.sub"),
                     I("local.tee", 4), I("br_if", 0), I("end")]
        elif shape == "block":  # leave values below a br_if out of the
            # block, then use them, and values below the block, used after
            # it; a br may end the block, so that only branches reach its end
            body += _straight(data, stack, data.draw(st.integers(0, 4)))
            inner = []
            body.append(I("block", None))
            body += _straight(data, inner, data.draw(st.integers(1, 8)))
            body += [I("local.get", 0), I("br_if", 0)]
            body += _straight(data, inner, data.draw(st.integers(1, 8)))
            body += _drain(inner)
            if data.draw(st.booleans()):
                body.append(I("br", 0))
            body.append(I("end"))
            body += _drain(stack)
        elif shape == "if":  # either arm may branch to the end
            body += [_selector(data), I("if", None)]
            for arm in range(data.draw(st.integers(1, 2))):
                if arm:
                    body.append(I("else"))
                body += _straight(data, stack, data.draw(st.integers(0, 4)))
                body += _drain(stack)
                if data.draw(st.booleans()):
                    body += [_selector(data), I("br_if", 0)]
            body.append(I("end"))
        elif shape == "br_table":  # a switch over 1 to 3 nested blocks,
            # each end joining what branches there with what falls through
            n = data.draw(st.integers(1, 3))
            label = st.integers(0, n - 1)
            body += [I("block", None) for _ in range(n)]
            body += _straight(data, stack, data.draw(st.integers(0, 4)))
            body += _drain(stack)
            body += [_selector(data),
                     I("br_table", tuple(data.draw(st.lists(label,
                                                            max_size=3))),
                       data.draw(label))]
            for _ in range(n):
                body.append(I("end"))
                body += _straight(data, stack, data.draw(st.integers(0, 3)))
                body += _drain(stack)
        else:  # a call to the callee, which has branch sites of its own
            body += [_selector(data), I("call", 1)]
    return body + [I("end")]


def _selector(data) -> Instr:
    """An i32 that picks a branch: parameter 0, itself 0 or 1, or a
    constant 0 to 3."""
    return data.draw(st.sampled_from(
        [I("local.get", 0)] + [I("i32.const", k) for k in range(4)]))


# function 1 of a generated module, (i32) -> (): adds 1 to global 0 and
# returns when its parameter is nonzero, else triples global 0
_CALLEE = [
    I("local.get", 0), I("if", None),
    I("global.get", 0), I("i32.const", 1), I("i32.add"), I("global.set", 0),
    I("return"),
    I("end"),
    I("global.get", 0), I("i32.const", 3), I("i32.mul"), I("global.set", 0),
    I("end"),
]

# a failing example is reported as found: shrinking one ran for over
# seven minutes, where finding it took seconds
NO_SHRINK = tuple(phase for phase in Phase if phase != Phase.shrink)


def generated_module(data) -> tuple[ModuleIR, tuple]:
    """A module whose export ``f`` runs a generated body, and the
    arguments to call it with."""
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType(("i32", "i64"), ()))
    m.functions.append(FunctionIR(ti, ["i32", "i64", "i32", "i32"],
                                  _body(data)))
    m.functions.append(FunctionIR(m.add_type(FuncType(("i32",), ())), [],
                                  _CALLEE))
    m.globals += [Global("i32", True, [I("i32.const", 5)]),
                  Global("i64", True, [I("i64.const", 6)])]
    m.exports.append(Export("f", "func", 0))
    m.data_segments += [
        DataSegment([I("i32.const", 0)],
                    bytes(i * 7 & 0xFF for i in range(1, 257))),
        DataSegment([I("i32.const", _PAGE - 64)], bytes(range(1, 65))),
    ]
    return m, (data.draw(st.sampled_from([0, 1])), data.draw(_consts["i64"]))


@settings(max_examples=150, deadline=None, phases=NO_SHRINK)
@given(st.data())
def test_generated_bodies_match_the_reference(data):
    m, args = generated_module(data)
    # all the fuel it needs, then a cut somewhere inside
    compiled, ref = run_both(m, 100_000, export="f", args=args)
    assert compiled == ref
    event(f"{compiled[0].status} {compiled[0].trap_kind}".strip())
    fuel = data.draw(st.integers(0, compiled[0].instructions_executed))
    compiled, ref = run_both(m, fuel, export="f", args=args)
    assert compiled == ref
