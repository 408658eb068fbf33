"""Fused runs against the step interpreter.

An engine whose runs are unwrapped back to their stepped tuples is the
reference: every ``ExecOutcome`` field, the memory, the globals and the
trace bits of a fused engine must equal its.
"""

from types import FunctionType

import pytest
from hypothesis import event, given, settings, strategies as st

import modbuild
from wasmwarden import Engine, RunLimits, WasiConfig
from wasmwarden.interp import C_BLOCK, DIV_ZERO, MEM_OOB
from wasmwarden.ir import (
    DataSegment,
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    ModuleIR,
)
from wasmwarden.opcodes import MEM_ACCESS, SIGS


def stepped(eng: Engine) -> Engine:
    """``eng`` with every run put back to its stepped tuples."""
    for meta in eng.metas:
        meta.code = [ins[3] if ins[0] == C_BLOCK else ins
                     for ins in eng.compiled(meta)]
    return eng


def run_both(m: ModuleIR, fuel: int, wasi=None, export=None, args=()):
    """(outcome, results, memory, globals) from a fused and a stepped
    engine; with ``export`` it is called, otherwise ``_start`` runs."""
    runs = []
    for eng in (Engine(m), stepped(Engine(m))):
        inst = eng.instantiate(wasi)
        if export is None:
            out, res = eng.run_start(inst, RunLimits(fuel=fuel)), None
        else:
            out, res = eng.call_export(inst, export, list(args),
                                       RunLimits(fuel=fuel))
        runs.append((out, res, bytes(inst.memory), list(inst.globals)))
    return runs


def test_corpus_matches_the_step_path():
    compared = 0
    for name, m, inputs in modbuild.corpus():
        for module in (m, modbuild.hardened(m)):
            for data in inputs:
                fused, ref = run_both(module, 1_000_000,
                                      WasiConfig(stdin=data))
                assert fused == ref, (name, data)
                compared += 1
    assert compared >= 40


def test_engine_makes_no_source_until_a_body_is_entered():
    m = modbuild.hardened(modbuild.victim_module())
    eng = Engine(m)
    assert eng._templates == {}
    blocks = [ins for meta in eng.metas for ins in eng.compiled(meta)
              if ins[0] == C_BLOCK]
    assert blocks and all(isinstance(ins[1], FunctionType) for ins in blocks)
    assert 0 < len(eng._templates) <= len(blocks)
    assert Engine(m)._templates == {}  # nothing is shared across engines


def test_running_never_changes_a_compiled_body():
    eng = Engine(modbuild.hardened(modbuild.victim_module()))
    before = [(eng.compiled(meta), list(eng.compiled(meta)))
              for meta in eng.metas]
    templates = dict(eng._templates)
    for data in (b"AAAA", b"42" + b"A" * 14, b"42" + b"A" * 21, b""):
        eng.run_start(eng.instantiate(WasiConfig(stdin=data)))
    for meta, (code, ops) in zip(eng.metas, before):
        assert eng.compiled(meta) is code and list(code) == ops
    assert eng._templates == templates


def test_runs_that_differ_in_immediates_share_a_template():
    body = [I("i32.const", 1), I("global.set", 0),
            I("i32.const", 0), I("br_if", 0),
            I("i32.const", 2), I("global.set", 0),
            I("i32.const", 3), I("br_if", 0),
            I("end")]
    m = ModuleIR()
    ti = m.add_type(FuncType((), ()))
    m.functions.append(FunctionIR(ti, [], body))
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    m.exports.append(Export("f", "func", 0))
    eng = Engine(m)
    inst = eng.instantiate()
    out, _ = eng.call_export(inst, "f", [])
    assert out.status == "exit" and inst.globals == [2]
    code = eng.compiled(eng.metas[0])
    assert code[0][1] is not None and code[4][1] is not None
    assert len(eng._templates) == 1


# ---------------------------------------------------- the victim, fuel swept

@pytest.mark.parametrize("data", [b"42" + b"A" * 14, b"AAAA"])
def test_victim_fuel_sweep_matches_the_step_path(data):
    m = modbuild.hardened(modbuild.victim_module())
    fused_eng, ref_eng = Engine(m), stepped(Engine(m))
    total = ref_eng.run_start(ref_eng.instantiate(WasiConfig(stdin=data)),
                              RunLimits(fuel=1_000_000)).instructions_executed
    for fuel in range(total + 2):
        seen = []
        for eng in (fused_eng, ref_eng):
            inst = eng.instantiate(WasiConfig(stdin=data))
            out = eng.run_start(inst, RunLimits(fuel=fuel))
            seen.append((out, eng.read_trace_bits(inst), bytes(inst.memory),
                         inst.globals))
        assert seen[0] == seen[1], fuel
        if fuel < total:
            assert seen[0][0].status == "fuel-exhausted"


# -------------------------------------------------- a trap inside a run

def _trap_in_run(trap_ops):
    """A run of three ops, a br_if that does not branch, then a run that
    stores, sets a global and a local, and then runs ``trap_ops``; the
    last of those traps at pc ``len(body) - 6``."""
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
    trap_pc = len(m.functions[0].body) - 6
    eng = Engine(m)
    code = eng.compiled(eng.metas[0])
    assert code[0][0] == C_BLOCK and code[0][2] == 3
    assert code[4][0] == C_BLOCK and 4 + code[4][2] > trap_pc + 1
    fused, ref = run_both(m, 1000, export="f")
    assert fused == ref
    out, _, mem, glb = fused
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
# the loop counter (4); global 0 is i32, global 1 is i64
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
# mostly in bounds, some across or past the end of the one page
_in_bounds = st.integers(0, _PAGE - 8)
_addrs = st.one_of(_in_bounds, _in_bounds, _in_bounds,
                   st.integers(_PAGE - 8, _PAGE + 8))


def _straight(data, stack: list, n: int) -> list:
    """``n`` random steps of straight-line code over the typed ``stack``."""
    out = []
    for _ in range(n):
        moves = ["const", "local.get", "global.get", "load"]
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
            out += [I("i32.const", data.draw(_addrs)),
                    I(op, 0, data.draw(st.sampled_from([0, 0, 4])))]
            stack.append(SIGS[op][1][0])
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
                    I("i32.const", data.draw(_addrs)),
                    I("local.get", _LOCAL[t]), I(op, 0, 0)]
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
        shape = data.draw(st.sampled_from(["straight", "loop", "block"]))
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
        else:  # leave values below a br_if out of the block, then use them
            body.append(I("block", None))
            body += _straight(data, stack, data.draw(st.integers(1, 8)))
            body += [I("local.get", 0), I("br_if", 0)]
            body += _straight(data, stack, data.draw(st.integers(1, 8)))
            body += _drain(stack)
            body.append(I("end"))
    return body + [I("end")]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generated_bodies_match_the_step_path(data):
    body = _body(data)
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType(("i32", "i64"), ()))
    m.functions.append(FunctionIR(ti, ["i32", "i64", "i32"], body))
    m.globals += [Global("i32", True, [I("i32.const", 5)]),
                  Global("i64", True, [I("i64.const", 6)])]
    m.exports.append(Export("f", "func", 0))
    m.data_segments.append(DataSegment(
        [I("i32.const", _PAGE - 64)], bytes(range(1, 65))))
    args = (data.draw(st.sampled_from([0, 1])), data.draw(_consts["i64"]))
    # all the fuel it needs, then a cut somewhere inside
    fused, ref = run_both(m, 100_000, export="f", args=args)
    assert fused == ref
    event(f"{fused[0].status} {fused[0].trap_kind}".strip())
    fuel = data.draw(st.integers(0, fused[0].instructions_executed))
    fused, ref = run_both(m, fuel, export="f", args=args)
    assert fused == ref
