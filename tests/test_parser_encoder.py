import hashlib
import pickle
import struct

import pytest
from hypothesis import given, strategies as st

import modbuild
from wasmwarden import (
    MalformedBinary,
    ModuleIR,
    UnsupportedFeature,
    encode_module,
    parse_module,
)
from wasmwarden.ir import (
    CustomSection,
    Export,
    FuncType,
    FunctionIR,
    Global,
    I,
    Instr,
    SiteInfo,
)
from wasmwarden.opcodes import IMM_KIND, IMMEDIATES
from wasmwarden.passes import (
    CanaryConfig,
    HeapConfig,
    apply_coverage_pass,
    apply_heap_pass,
    apply_stack_pass,
)


def all_test_modules():
    mods = [m for _, m, _ in modbuild.corpus()]
    mods.append(modbuild.bump_alloc_module())
    mods.append(modbuild.bump_alloc_module(use_names=True))
    mods.append(modbuild.victim_module())
    return mods


def test_roundtrip_fixpoint_on_corpus():
    for m in all_test_modules():
        raw = encode_module(m)
        m2 = parse_module(raw)
        assert m2 == m
        # second encode is byte-identical (fixpoint)
        assert encode_module(m2) == raw


def test_parse_records_the_digest_of_its_input_outside_equality():
    built = modbuild.victim_module()
    raw = encode_module(built)
    parsed = parse_module(raw)
    assert parsed.source_sha256 == hashlib.sha256(raw).hexdigest()
    assert built.source_sha256 is None
    assert parsed.copy().source_sha256 is None  # a pass's output has none
    assert parsed == built and repr(parsed) == repr(built)


def test_roundtrip_many_functions_crosses_leb_boundary():
    """128+ entries force multi-byte LEB counts in several sections."""
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType((), ("i32",)))
    for k in range(130):
        m.functions.append(
            FunctionIR(ti, [], [I("i32.const", k), I("end")])
        )
        m.exports.append(Export(f"f{k}", "func", k))
    raw = encode_module(m)
    m2 = parse_module(raw)
    assert m2 == m
    assert len(m2.functions) == 130


def test_header_checks():
    with pytest.raises(MalformedBinary):
        parse_module(b"\x00asm")
    with pytest.raises(MalformedBinary):
        parse_module(b"\x00wasm\x01\x00\x00\x00")
    with pytest.raises(MalformedBinary):
        parse_module(b"\x00asm\x02\x00\x00\x00")


def test_out_of_order_sections_rejected():
    m = modbuild.echo_module()
    raw = bytearray(encode_module(m))
    # duplicate the type section at the end (id 1 after later ids)
    pos = 8
    sec_id = raw[pos]
    assert sec_id == 1
    size = raw[pos + 1]
    assert size < 0x80
    section = bytes(raw[pos : pos + 2 + size])
    with pytest.raises(MalformedBinary):
        parse_module(bytes(raw) + section)


def test_post_mvp_opcode_rejected():
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType((), ()))
    m.functions.append(FunctionIR(ti, [], [I("nop"), I("end")]))
    raw = bytearray(encode_module(m))
    idx = raw.find(bytes([0x01, 0x0B]))  # nop, end
    assert idx > 0
    raw[idx] = 0xFC  # misc-ops prefix (saturating truncation etc.)
    with pytest.raises(UnsupportedFeature) as e:
        parse_module(bytes(raw))
    assert e.value.feature == "bulk-memory/saturating-trunc"


def test_custom_sections_roundtrip():
    m = modbuild.echo_module()
    m.custom_sections.append(CustomSection("producers", b"\x00", 7))
    m.custom_sections.append(CustomSection("tag.a", b"hello", 0))
    raw = encode_module(m)
    m2 = parse_module(raw)
    # re-encoding orders custom sections by their anchor section
    assert sorted((c.name, c.data) for c in m2.custom_sections) == sorted(
        (c.name, c.data) for c in m.custom_sections
    )


def test_custom_section_after_absent_section_survives():
    m = ModuleIR()
    m.memory = (1, None)
    # anchored after the data section (id 11), which this module lacks
    m.custom_sections.append(CustomSection("trailer", b"\x01\x02", 11))
    m2 = parse_module(encode_module(m))
    assert [(c.name, c.data) for c in m2.custom_sections] == [
        ("trailer", b"\x01\x02")
    ]


def test_name_section_roundtrip():
    m = modbuild.bump_alloc_module(use_names=True)
    m2 = parse_module(encode_module(m))
    assert m2.names == m.names
    assert set(m.names.values()) == {"malloc", "free", "calloc", "realloc"}


def test_float_const_bit_patterns_preserved():
    m = ModuleIR()
    m.memory = (1, None)
    ti = m.add_type(FuncType((), ("f64",)))
    nan_bits = struct.unpack("<Q", struct.pack("<d", float("nan")))[0] | 1
    m.functions.append(
        FunctionIR(ti, [], [I("f64.const", nan_bits), I("end")])
    )
    m2 = parse_module(encode_module(m))
    assert m2.functions[0].body[0].args[0] == nan_bits


@given(st.binary(min_size=0, max_size=64))
def test_garbage_never_crashes_the_parser(data):
    try:
        parse_module(b"\x00asm\x01\x00\x00\x00" + data)
    except (MalformedBinary, UnsupportedFeature):
        pass


def test_truncated_section_reports_offset():
    raw = encode_module(modbuild.echo_module())
    # cutting one byte short always lands inside the final section
    with pytest.raises(MalformedBinary) as e:
        parse_module(raw[:-1])
    assert e.value.offset >= 0


def _one_body(code: bytes) -> bytes:
    """A module whose one function, of type [] -> [], has no locals and
    the body bytes ``code``; they start at offset 23 of the binary."""
    entry = b"\x00" + code  # no local declarations
    sections = [(1, b"\x01\x60\x00\x00"),  # one type: [] -> []
                (3, b"\x01\x00"),  # one function, of type 0
                (10, b"\x01" + bytes([len(entry)]) + entry)]
    return b"\x00asm\x01\x00\x00\x00" + b"".join(
        bytes([sec_id, len(payload)]) + payload
        for sec_id, payload in sections)


@pytest.mark.parametrize("code,offset,reason", [
    # cut at an opcode byte: i32.const 1, then no end
    (b"\x41\x01", 25, "unexpected end of section"),
    # cut inside an immediate: f32.const with two of its four bytes
    (b"\x43\x00\x00", 24, "unexpected end of section"),
    # cut inside a LEB128 immediate: i32.const, local.get, and the offset
    # of a memarg whose alignment byte is there
    (b"\x41\x80", 24, "truncated LEB128 integer"),
    (b"\x20\x80", 24, "truncated LEB128 integer"),
    (b"\x28\x02\x80", 25, "truncated LEB128 integer"),
    # an i32.const whose immediate takes 6 bytes, one more than s32 allows
    (b"\x41" + b"\x80" * 5 + b"\x00\x0b", 24, "LEB128 integer too long"),
    # 0x27 is neither an MVP opcode nor a post-MVP prefix
    (b"\x01\x27\x0b", 24, "unknown opcode 0x27"),
])
def test_malformed_body_reports_its_offset_and_reason(code, offset, reason):
    with pytest.raises(MalformedBinary) as e:
        parse_module(_one_body(code))
    assert (e.value.offset, e.value.reason) == (offset, reason)


def test_instr_equality_hash_and_repr_ignore_its_site():
    plain = I("i32.const", 7)
    marked = Instr("i32.const", (7,), SiteInfo("heap-canary", 3))
    assert plain == marked and hash(plain) == hash(marked)
    assert plain != I("i32.const", 8) and plain != I("i64.const", 7)
    assert repr(marked) == "i32.const 7" and repr(I("end")) == "end"
    assert repr(I("br_table", (0, 1), 2)) == "br_table (0, 1) 2"
    assert not hasattr(plain, "__dict__")


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_keeps_every_site_of_a_hardened_module(protocol):
    """``fuzz --jobs`` pickles the instrumented module into its workers."""
    m, _ = apply_heap_pass(modbuild.heap_victim_module(),
                           HeapConfig(rng_seed=1))
    m, _ = apply_stack_pass(m, CanaryConfig(rng_seed=1))
    m, _ = apply_coverage_pass(m, rng_seed=3)

    def sites(module):
        return [i.site for f in module.functions for i in f.body]

    m2 = pickle.loads(pickle.dumps(m, protocol))
    assert m2 == m and sites(m2) == sites(m)
    kinds = {s.kind for s in sites(m) if s}
    assert "heap-overflow" in kinds and "cov-entry" in kinds


# immediates on and around the LEB128 length edges: 1 -> 2 bytes at 64
# (signed) and 128 (unsigned), 2 -> 3 bytes at 8192 and 16384
_S_EDGES = [0, 1, 63, 64, -64, -65, 127, 128, 129, -1, 8191, 8192, -8192,
            -8193, 2**31 - 1, -(2**31)]
_U_EDGES = [0, 1, 63, 64, 127, 128, 129, 8191, 8192, 16383, 16384,
            2**32 - 1]
_BLOCK_TYPES = [None, "i32", "i64", "f32", "f64"]

_straight_line = st.one_of(
    st.sampled_from([I("nop"), I("drop"), I("i32.add"), I("f64.neg"),
                     I("memory.size"), I("memory.grow"), I("return")]),
    st.builds(I, st.just("i32.const"), st.sampled_from(_S_EDGES)),
    st.builds(I, st.just("i64.const"),
              st.sampled_from(_S_EDGES + [2**63 - 1, -(2**63)])),
    st.builds(I, st.sampled_from(["local.get", "local.set", "local.tee",
                                  "global.get", "br", "br_if", "call"]),
              st.sampled_from(_U_EDGES)),
    st.builds(I, st.sampled_from(["i32.load", "i64.store8", "f32.load"]),
              st.sampled_from([0, 1, 2, 3]), st.sampled_from(_U_EDGES)),
    st.builds(lambda ti: I("call_indirect", ti), st.sampled_from(_U_EDGES)),
    st.builds(lambda ts, d: I("br_table", tuple(ts), d),
              st.lists(st.sampled_from(_U_EDGES), max_size=3),
              st.sampled_from(_U_EDGES)),
)


def _nested(children):
    """A block, loop or if around instructions, maybe with an else."""
    return st.builds(
        lambda op, bt, body, other: ([I(op, bt)] + body
                                     + ([I("else")] + other if other else [])
                                     + [I("end")]),
        st.sampled_from(["block", "loop", "if"]),
        st.sampled_from(_BLOCK_TYPES), children,
        st.lists(_straight_line, max_size=3))


_instr_seqs = st.recursive(
    st.lists(_straight_line, max_size=8),
    lambda children: st.lists(st.one_of(children, _nested(children)),
                              max_size=4).map(lambda xs: sum(xs, [])),
    max_leaves=20)


def _module_of(bodies, init):
    m = ModuleIR()
    ti = m.add_type(FuncType((), ()))
    for body in bodies:
        m.functions.append(FunctionIR(ti, ["i32", "i64"], body + [I("end")]))
    m.globals.append(Global("i32", True, [I("i32.const", init)]))
    return m


@given(st.lists(_instr_seqs, min_size=1, max_size=3),
       st.sampled_from(_S_EDGES))
def test_decoder_round_trips_immediates_on_leb_length_edges(bodies, init):
    m = _module_of(bodies, init)
    assert parse_module(encode_module(m)) == m


def test_equal_encodings_share_one_instr_within_a_parse_only():
    # i32.const 129 (41 81 01) and 8193 (41 81 c0 00) start with the same
    # two bytes, and i32.const 1 (41 01) with the same opcode: a key must
    # match only a whole encoding
    body = [I("i32.const", v) for v in (1, 129, 1, 8193, 129, 1, 8193)]
    body += [I("local.get", 1), I("i32.load", 2, 1), I("local.get", 1),
             I("i32.load", 2, 1), I("i32.add"), I("i32.add"), I("drop")]
    m = _module_of([body, list(body)], 1)
    binary = encode_module(m)
    first, second = parse_module(binary), parse_module(binary)
    assert first == m and second == m

    def instrs(module):
        return ([i for f in module.functions for i in f.body]
                + module.globals[0].init)

    # an opcode with a 1-2 byte immediate, or none, decodes to one object
    # per encoding; a longer one, such as i32.const 8193's, to one each
    by_encoding = {}
    for instr in instrs(first):
        imm = IMMEDIATES[IMM_KIND[instr.op]][1](instr.args)
        if len(imm) <= 2:
            key = (instr.op, imm)
            assert by_encoding.setdefault(key, instr) is instr
    assert len({id(i) for i in instrs(first) if i.args == (8193,)}) == 4
    # the constant of an op without immediates is the only object that
    # two parses share
    shared = {id(i) for i in instrs(first)} & {id(i) for i in instrs(second)}
    assert shared == {id(i) for i in instrs(first) if IMM_KIND[i.op] == ""}
    assert shared
