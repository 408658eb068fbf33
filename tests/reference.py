"""A reference interpreter for ``tests/test_runs.py``, written from the
Wasm MVP spec rather than from the engine's compiler.

``Reference`` runs each call's ``Instr`` list one instruction at a time:
it finds the blocks of a body by matching them up, and has its own
integer ops, memory bounds checks, ``memory.grow``, branches, calls and
``call_indirect`` checks. With the engine it shares only instantiation
(memory, data, globals, table), how a run's end becomes an
``ExecOutcome``, the WASI host functions, the opcode tables and the
float, div/rem and conversion helpers, which ``test_interp.py`` checks
against numpy.

Fuel counts every instruction the program counter reaches: a branch to a
block, an ``if`` or the function goes to its ``end``, which runs, and a
branch to a loop goes to the ``loop``, which runs again.
"""

import operator

from wasmwarden import Engine
from wasmwarden.interp import (
    _NUMERIC,
    _WASI,
    INDIRECT_MISMATCH,
    MAX_CALL_DEPTH,
    MAX_PAGES,
    MEM_OOB,
    STACK_EXHAUSTED,
    UNINIT_TABLE,
    UNREACHABLE,
    _Fuel,
    _ProcExit,
    _Trap,
)
from wasmwarden.ir import PAGE, ModuleIR
from wasmwarden.opcodes import MEM_ACCESS, SIGS, VALTYPE_WIDTH

_ORDER = {"lt": operator.lt, "gt": operator.gt, "le": operator.le,
          "ge": operator.ge}


def _int_ops() -> dict:
    """The integer ops that cannot trap, on unsigned values: results are
    taken modulo 2^N, shift and rotate counts modulo N, a signed operand is
    read as two's complement, and a bit count counts binary digits."""
    ops = {}
    for n in (32, 64):
        t = f"i{n}"

        def wrap(v, n=n):
            return v % (1 << n)

        def signed(v, n=n):
            return v - (1 << n) if v >= 1 << (n - 1) else v

        def digits(v, n=n):
            return format(v, f"0{n}b")

        ops[f"{t}.eqz"] = lambda a: int(a == 0)
        ops[f"{t}.eq"] = lambda a, b: int(a == b)
        ops[f"{t}.ne"] = lambda a, b: int(a != b)
        for name, rel in _ORDER.items():
            ops[f"{t}.{name}_u"] = lambda a, b, r=rel: int(r(a, b))
            ops[f"{t}.{name}_s"] = (lambda a, b, r=rel, s=signed:
                                    int(r(s(a), s(b))))
        ops[f"{t}.clz"] = lambda a, d=digits: len(d(a)) - len(d(a).lstrip("0"))
        ops[f"{t}.ctz"] = lambda a, d=digits: len(d(a)) - len(d(a).rstrip("0"))
        ops[f"{t}.popcnt"] = lambda a, d=digits: d(a).count("1")
        ops[f"{t}.add"] = lambda a, b, w=wrap: w(a + b)
        ops[f"{t}.sub"] = lambda a, b, w=wrap: w(a - b)
        ops[f"{t}.mul"] = lambda a, b, w=wrap: w(a * b)
        ops[f"{t}.and"] = operator.and_
        ops[f"{t}.or"] = operator.or_
        ops[f"{t}.xor"] = operator.xor
        ops[f"{t}.shl"] = lambda a, b, n=n, w=wrap: w(a << (b % n))
        ops[f"{t}.shr_u"] = lambda a, b, n=n: a >> (b % n)
        ops[f"{t}.shr_s"] = (lambda a, b, n=n, w=wrap, s=signed:
                             w(s(a) >> (b % n)))
        ops[f"{t}.rotl"] = (lambda a, b, n=n, d=digits:
                            int(d(a)[b % n:] + d(a)[:b % n], 2))
        ops[f"{t}.rotr"] = (lambda a, b, n=n, d=digits:
                            int(d(a)[n - b % n:] + d(a)[:n - b % n], 2))
    ops["i32.wrap_i64"] = lambda a: a % (1 << 32)
    ops["i64.extend_i32_s"] = (lambda a:
                               (a - (1 << 32) if a >> 31 else a) % (1 << 64))
    ops["i64.extend_i32_u"] = lambda a: a
    return ops


# every numeric op: the integer ops above, the engine's helpers for the
# rest, and reinterpret, which keeps the bit pattern
_OPS = {**_NUMERIC, **_int_ops(),
        **{op: lambda a: a for op in SIGS if "reinterpret" in op}}


def _match_blocks(body) -> dict:
    """pc of each ``block``, ``loop`` and ``if`` -> the pc of its ``else``
    (or None) and of its ``end``."""
    found, open_ = {}, []
    for pc, ins in enumerate(body):
        if ins.op in ("block", "loop", "if"):
            open_.append([pc, None])
        elif ins.op == "else":
            open_[-1][1] = pc
        elif ins.op == "end" and open_:
            head, else_pc = open_.pop()
            found[head] = (else_pc, pc)
    return found


def _branch(labels: list, stack: list, depth: int) -> int:
    """Branch to the label ``depth`` levels out: keep its arity's values
    on top of the stack at its height, and return the pc it goes to. A
    block's label stays for its ``end`` to pop; a loop's goes, and running
    the ``loop`` again pushes it."""
    target, arity, height, is_loop = labels[-1 - depth]
    kept = stack[len(stack) - arity:]
    del stack[height:]
    stack += kept
    del labels[len(labels) - depth - is_loop:]
    return target


class Reference(Engine):
    """An engine whose calls run in ``_run`` below, one instruction at a
    time, and never through function-level code."""

    def __init__(self, m: ModuleIR):
        super().__init__(m)
        imports = [im for im in m.imports if im.kind == "func"]
        self.types = ([m.types[im.desc] for im in imports]
                      + [m.types[f.type_idx] for f in m.functions])
        self.hosts = [_WASI[im.name][1] for im in imports]
        self.matched = [_match_blocks(f.body) for f in m.functions]

    def _enter(self, func: int, args: list):
        """A new frame's body, matched blocks, locals and labels; the
        outermost label is the function's, at its final ``end``."""
        f = self.module.functions[func - self.n_host]
        label = (len(f.body) - 1, len(self.types[func].results), 0, False)
        return (f.body, self.matched[func - self.n_host],
                args + [0] * len(f.locals), [label])

    def _run(self, inst, meta, args, limits, executed):
        mem, glb, fuel = inst.memory, inst.globals, limits.fuel
        maximum = self.module.memory[1] if self.module.memory else None
        frames = []  # each caller's state, as the names below hold it
        func, pc, stack = meta.func_idx, 0, []
        body, blocks, locals_, labels = self._enter(func, list(args))
        try:
            while True:
                if executed >= fuel:
                    raise _Fuel()
                executed += 1
                op, a = body[pc].op, body[pc].args
                if op in _OPS:
                    n = len(SIGS[op][0])
                    operands = stack[len(stack) - n:]
                    del stack[len(stack) - n:]
                    stack.append(_OPS[op](*operands))
                elif op.endswith(".const"):
                    stack.append(a[0] % (1 << 8 * VALTYPE_WIDTH[op[:3]]))
                elif op in MEM_ACCESS:
                    t, width, signed = MEM_ACCESS[op]
                    value = None if SIGS[op][1] else stack.pop()
                    address = stack.pop() + a[1]
                    if address + width > len(mem):
                        raise _Trap(MEM_OOB)
                    if value is None:
                        loaded = int.from_bytes(mem[address: address + width],
                                                "little", signed=signed)
                        stack.append(loaded % (1 << 8 * VALTYPE_WIDTH[t]))
                    else:
                        mem[address: address + width] = (
                            value % (1 << 8 * width)).to_bytes(width, "little")
                elif op == "local.get":
                    stack.append(locals_[a[0]])
                elif op == "local.set":
                    locals_[a[0]] = stack.pop()
                elif op == "local.tee":
                    locals_[a[0]] = stack[-1]
                elif op == "global.get":
                    stack.append(glb[a[0]])
                elif op == "global.set":
                    glb[a[0]] = stack.pop()
                elif op == "drop":
                    stack.pop()
                elif op == "select":
                    cond, second, first = stack.pop(), stack.pop(), stack.pop()
                    stack.append(first if cond else second)
                elif op == "memory.size":
                    stack.append(len(mem) // PAGE)
                elif op == "memory.grow":
                    delta, old = stack.pop(), len(mem) // PAGE
                    cap = MAX_PAGES if maximum is None else min(MAX_PAGES,
                                                                maximum)
                    if old + delta > cap:
                        stack.append((1 << 32) - 1)  # -1: memory stays
                    else:
                        mem.extend(bytes(delta * PAGE))
                        stack.append(old)
                elif op == "nop":
                    pass
                elif op == "unreachable":
                    raise _Trap(UNREACHABLE)
                elif op == "block" or op == "loop":
                    arity = 0 if op == "loop" or a[0] is None else 1
                    target = pc if op == "loop" else blocks[pc][1]
                    labels.append((target, arity, len(stack), op == "loop"))
                elif op == "if":
                    cond = stack.pop()
                    else_pc, end = blocks[pc]
                    labels.append((end, 0 if a[0] is None else 1, len(stack),
                                   False))
                    if not cond:
                        pc = end if else_pc is None else else_pc + 1
                        continue
                elif op in ("else", "br", "br_if", "br_table"):
                    if op == "br_if" and not stack.pop():
                        pc += 1
                        continue
                    depth = 0 if op == "else" else a[0]
                    if op == "br_table":
                        i = stack.pop()
                        depth = a[0][i] if i < len(a[0]) else a[1]
                    pc = _branch(labels, stack, depth)
                    continue
                elif op == "end" and len(labels) > 1:
                    labels.pop()
                elif op == "call" or op == "call_indirect":
                    if op == "call":
                        callee = a[0]
                    else:
                        i = stack.pop()
                        if i >= len(self.table) or self.table[i] is None:
                            raise _Trap(UNINIT_TABLE)
                        callee = self.table[i]
                        if self.types[callee] != self.module.types[a[0]]:
                            raise _Trap(INDIRECT_MISMATCH)
                    ftype = self.types[callee]
                    n = len(ftype.params)
                    call_args = stack[len(stack) - n:]
                    del stack[len(stack) - n:]
                    if callee < self.n_host:
                        result = self.hosts[callee](inst, *call_args)
                        if ftype.results:
                            stack.append(result % (1 << 32))
                    else:
                        if len(frames) >= MAX_CALL_DEPTH:
                            raise _Trap(STACK_EXHAUSTED)
                        frames.append((func, pc, stack, body, blocks,
                                       locals_, labels))
                        func, pc, stack = callee, 0, []
                        body, blocks, locals_, labels = self._enter(
                            callee, call_args)
                        continue
                elif op == "return" or op == "end":  # the function's end
                    n = len(self.types[func].results)
                    results = stack[len(stack) - n:]
                    if not frames:
                        return results, executed
                    (func, pc, stack, body, blocks, locals_,
                     labels) = frames.pop()
                    stack += results
                else:
                    raise NotImplementedError(op)
                pc += 1
        except _Trap as t:
            t.func, t.offset, t.executed = func, pc, executed
            raise
        except _ProcExit as e:  # proc_exit is a host call
            e.executed = executed
            raise
