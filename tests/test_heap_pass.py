import json
import random

import pytest

import modbuild
from wasmwarden import Engine, classify_crash, validate_module
from wasmwarden.cli import EXIT_CRASH, EXIT_OK, main
from wasmwarden.encoder import encode_module
from wasmwarden.fuzz import FuzzConfig, Fuzzer
from wasmwarden.ir import (
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    ModuleIR,
    WasmError,
)
from wasmwarden.parser import parse_module
from wasmwarden.passes.heap_canary import (
    INFLATION,
    USER_OFFSET,
    HeapConfig,
    SignatureMismatch,
    apply_heap_pass,
    identify_heap_functions,
)
from wasmwarden.passes.sites import SiteTable

# scratch cells the recording allocator writes its raw arguments to
REC_A = 32
REC_B = 36
REC_CALLS = 40


def recording_alloc_module() -> ModuleIR:
    """Bump allocator whose entry points log the arguments they actually
    receive, so tests can observe the rewritten calls."""
    m = ModuleIR()
    m.memory = (4, None)
    m.globals.append(Global("i32", True, [I("i32.const", 4096)]))
    m.globals.append(Global("i32", True, [I("i32.const", 8192)]))

    def record(*args):
        out = []
        for cell, local in args:
            out += [I("i32.const", cell), I("local.get", local),
                    I("i32.store", 2, 0)]
        out += [
            I("i32.const", REC_CALLS),
            I("i32.const", REC_CALLS), I("i32.load", 2, 0),
            I("i32.const", 1), I("i32.add"),
            I("i32.store", 2, 0),
        ]
        return out

    bump = [
        I("global.get", 1), I("local.set", 1),
        I("global.get", 1), I("local.get", 0), I("i32.add"),
        I("global.set", 1),
        I("local.get", 1),
        I("end"),
    ]
    malloc_body = record((REC_A, 0)) + bump
    modbuild.add_func(m, ("i32",), ("i32",), ("i32",), malloc_body,
                      export="malloc")
    calloc_body = record((REC_A, 0), (REC_B, 1)) + [
        I("global.get", 1), I("local.set", 2),
        I("global.get", 1),
        I("local.get", 0), I("local.get", 1), I("i32.mul"),
        I("i32.add"), I("global.set", 1),
        I("local.get", 2),
        I("end"),
    ]
    modbuild.add_func(m, ("i32", "i32"), ("i32",), ("i32",), calloc_body,
                      export="calloc")
    free_body = record((REC_A, 0)) + [I("end")]
    modbuild.add_func(m, ("i32",), (), (), free_body, export="free")
    return m


def instrumented(module=None, seed=7):
    m = module or modbuild.bump_alloc_module()
    out, sites = apply_heap_pass(m, HeapConfig(rng_seed=seed))
    assert validate_module(out).ok
    return Engine(out), sites


def test_chunk_layout_matches_documented_offsets():
    eng, _ = instrumented()
    inst = eng.instantiate()
    _, (p,) = eng.call_export(inst, "malloc", [40])
    base = p - USER_OFFSET
    size = int.from_bytes(inst.memory[base : base + 4], "little")
    assert size == 40
    under = inst.memory[base + 4 : base + 12]
    over = inst.memory[p + 40 : p + 48]
    assert under == over != b"\x00" * 8


def test_inflation_is_twenty_bytes():
    eng, _ = instrumented(recording_alloc_module())
    inst = eng.instantiate()
    eng.call_export(inst, "malloc", [100])
    received = int.from_bytes(inst.memory[REC_A : REC_A + 4], "little")
    assert received == 100 + INFLATION


def test_calloc_collapsed_to_single_inflated_item():
    eng, _ = instrumented(recording_alloc_module())
    inst = eng.instantiate()
    _, (p,) = eng.call_export(inst, "calloc", [6, 9])
    a = int.from_bytes(inst.memory[REC_A : REC_A + 4], "little")
    b = int.from_bytes(inst.memory[REC_B : REC_B + 4], "little")
    assert (a, b) == (1, 6 * 9 + INFLATION)  # calloc(6,9) -> calloc(1,74)
    size = int.from_bytes(inst.memory[p - 12 : p - 8], "little")
    assert size == 54


def test_calloc_overflow_returns_null_without_calling_allocator():
    eng, _ = instrumented(recording_alloc_module())
    inst = eng.instantiate()
    out, res = eng.call_export(inst, "calloc", [0x10000, 0x10000])
    assert out.status == "exit" and res == [0]
    calls = int.from_bytes(inst.memory[REC_CALLS : REC_CALLS + 4], "little")
    assert calls == 0


def test_free_null_is_a_no_op():
    eng, sites = instrumented()
    inst = eng.instantiate()
    out, _ = eng.call_export(inst, "free", [0])
    assert out.status == "exit"


def test_overflow_and_underflow_detected_at_free():
    eng, sites = instrumented()
    inst = eng.instantiate()
    for delta, kind in ((16, "heap-overflow"), (-1, "heap-underflow"),
                        (-8, "heap-underflow"), (23, "heap-overflow")):
        _, (p,) = eng.call_export(inst, "malloc", [16])
        inst.memory[p + delta] ^= 0x5A
        out, _ = eng.call_export(inst, "free", [p])
        assert out.status == "trap"
        assert classify_crash(out, sites).kind == kind


def test_in_bounds_writes_never_trap():
    eng, _ = instrumented()
    inst = eng.instantiate()
    rng = random.Random(99)
    live = []
    for _ in range(300):
        action = rng.random()
        if action < 0.6 or not live:
            n = rng.randint(1, 64)
            out, (p,) = eng.call_export(inst, "malloc", [n])
            assert out.status == "exit" and p != 0
            for k in range(n):  # touch every byte of the payload
                inst.memory[p + k] = rng.randrange(256)
            live.append(p)
        else:
            p = live.pop(rng.randrange(len(live)))
            out, _ = eng.call_export(inst, "free", [p])
            assert out.status == "exit", out.trap_kind


def test_realloc_checks_old_chunk_before_inflating():
    eng, sites = instrumented()
    inst = eng.instantiate()
    _, (p,) = eng.call_export(inst, "malloc", [8])
    inst.memory[p + 8] ^= 0xFF  # clobber the overflow canary
    out, _ = eng.call_export(inst, "realloc", [p, 64])
    assert out.status == "trap"
    assert classify_crash(out, sites).kind == "heap-overflow"


def test_realloc_preserves_payload_and_rewrites_metadata():
    eng, _ = instrumented()
    inst = eng.instantiate()
    _, (p,) = eng.call_export(inst, "malloc", [10])
    inst.memory[p : p + 10] = b"0123456789"
    out, (q,) = eng.call_export(inst, "realloc", [p, 32])
    assert out.status == "exit"
    assert bytes(inst.memory[q : q + 10]) == b"0123456789"
    assert int.from_bytes(inst.memory[q - 12 : q - 8], "little") == 32
    out, _ = eng.call_export(inst, "free", [q])
    assert out.status == "exit"


def test_identify_precedence_override_beats_export():
    m = modbuild.bump_alloc_module()
    # the export map says malloc is one index; an override redirects it
    free_idx = m.export_map()["free"].index
    fn_map = identify_heap_functions(m, {"malloc": free_idx})
    mal = [e for e in fn_map.allocs if e[1] == "malloc"]
    assert mal == [(free_idx, "malloc")]


@pytest.mark.parametrize("overrides,message", [
    ({"fre": 1}, "unknown allocator 'fre'"),
    ({"malloc": 0}, "malloc override 0 names no defined function"),
    ({"free": 999}, "free override 999 names no defined function"),
])
def test_an_override_names_an_allocator_and_a_defined_function(overrides,
                                                                message):
    m = modbuild.victim_module()  # function 0 is imported
    assert m.num_imported_funcs > 0
    with pytest.raises(WasmError, match=message):
        apply_heap_pass(m, HeapConfig(), overrides)


def _export_free_of_the_import(m):
    m.exports.append(Export("free", "func", 0))
    return "free export 0"


def _name_malloc_the_import(m):
    m.names[0] = "malloc"
    return "malloc name section entry 0"


@pytest.mark.parametrize("call_the_import_an_allocator",
                         [_export_free_of_the_import, _name_malloc_the_import])
def test_an_imported_allocator_is_refused(call_the_import_an_allocator):
    # refused, not skipped: a wrapped malloc would hand its user pointers
    # to an imported free, which knows nothing of the canaries
    m = modbuild.victim_module()  # function 0 is imported
    where = call_the_import_an_allocator(m)
    with pytest.raises(WasmError, match=f"^{where} names no defined function"
                                        ": function 0 is imported$"):
        apply_heap_pass(m, HeapConfig())


def test_identify_falls_back_to_name_section():
    m = modbuild.bump_alloc_module(use_names=True)
    assert not any(e.name == "malloc" for e in m.exports)
    fn_map = identify_heap_functions(m)
    assert len(fn_map.allocs) == 3 and len(fn_map.deallocs) == 2


def test_no_allocators_is_a_no_op(caplog):
    m = modbuild.echo_module()
    out, sites = apply_heap_pass(m, HeapConfig())
    assert out is m and len(sites) == 0


def test_signature_mismatch_rejected():
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType(("i64",), ("i32",)))  # wrong param type
    m.functions.append(FunctionIR(ti, [], [I("i32.const", 0), I("end")]))
    m.exports.append(Export("malloc", "func", 0))
    with pytest.raises(SignatureMismatch):
        apply_heap_pass(m, HeapConfig())


def test_module_wide_canary_is_shared():
    m = modbuild.bump_alloc_module()
    out, sites = apply_heap_pass(m, HeapConfig(rng_seed=3))
    ids = {s.id for s in sites}
    assert len(ids) == 1  # one canary value across every check site


def free_list_alloc_module() -> ModuleIR:
    """malloc reuses a one-slot free list, returning early when it does;
    free parks its pointer in that slot (global 2)."""
    m = ModuleIR()
    m.memory = (4, None)
    m.globals.append(Global("i32", True, [I("i32.const", 4096)]))
    m.globals.append(Global("i32", True, [I("i32.const", 8192)]))
    m.globals.append(Global("i32", True, [I("i32.const", 0)]))
    malloc_body = [
        I("global.get", 2), I("if", None),
        I("global.get", 2), I("local.set", 1),
        I("i32.const", 0), I("global.set", 2),
        I("local.get", 1), I("return"),
        I("end"),
        I("global.get", 1), I("local.set", 1),
        I("global.get", 1),
        I("local.get", 0), I("i32.const", 7), I("i32.add"),
        I("i32.const", -8), I("i32.and"),
        I("i32.add"), I("global.set", 1),
        I("local.get", 1),
        I("end"),
    ]
    modbuild.add_func(m, ("i32",), ("i32",), ("i32",), malloc_body,
                      export="malloc")
    modbuild.add_func(m, ("i32",), (), (),
                      [I("local.get", 0), I("global.set", 2), I("end")],
                      export="free")
    return m


def test_early_return_from_the_allocator_gets_canaries():
    eng, sites = instrumented(free_list_alloc_module())
    inst = eng.instantiate()
    ptrs = []
    for _ in range(2):
        out, (p,) = eng.call_export(inst, "malloc", [16])
        assert out.status == "exit"
        ptrs.append(p)
        out, _ = eng.call_export(inst, "free", [p])
        assert out.status == "exit", classify_crash(out, sites)
    assert ptrs == [8192 + USER_OFFSET] * 2


def test_allocator_without_return_is_not_wrapped():
    m = modbuild.bump_alloc_module()
    out, _ = apply_heap_pass(m, HeapConfig(rng_seed=7))
    malloc = out.defined_func(out.export_map()["malloc"].index)
    original = m.defined_func(m.export_map()["malloc"].index).body[:-1]
    assert I("block", "i32") not in malloc.body
    # the original body sits unchanged between preamble and postamble
    assert malloc.body[6:6 + len(original)] == original


def test_heap_overflow_has_one_name_from_crash_file_to_run(tmp_path,
                                                           capsys):
    """A campaign files a heap overflow as ``heap-overflow``: its crash
    file's suffix, its report, its ``stats.json`` key, and the oracle
    ``wasmwarden run`` prints when it replays the file."""
    src = tmp_path / "heap.wasm"
    src.write_bytes(encode_module(modbuild.heap_victim_module()))
    binary = tmp_path / "heap.fuzz.wasm"
    assert main(["instrument", str(src), "-o", str(binary),
                 "--canary-seed", "7", "--cov-seed", "3"]) == EXIT_OK
    sites = SiteTable.from_json(
        (tmp_path / "heap.fuzz.wasm.sites.json").read_text())
    out = tmp_path / "campaign"
    fz = Fuzzer(parse_module(binary.read_bytes()), sites,
                FuzzConfig(out_dir=out))
    fz.add_seeds([b"A" * 16])
    crasher = b"A" * 32  # past the buffer and its whole canary
    outcome, trace = fz.run_input(crasher)
    fz._triage(crasher, outcome, trace, parent=0, stage="havoc")
    fz._flush_stats()

    (crash,) = (out / "crashes").iterdir()
    assert crash.name == "id_000000_heap-overflow"
    assert [c.oracle for c in fz.crashes] == ["heap-overflow"]
    stats = json.loads((out / "stats.json").read_text())
    assert stats["crashes_by_oracle"] == {
        "stack-canary": 0, "heap-underflow": 0, "heap-overflow": 1,
        "builtin": 0,
    }
    capsys.readouterr()
    assert main(["run", str(binary), str(crash)]) == EXIT_CRASH
    assert "oracle=heap-overflow" in capsys.readouterr().err
