"""Instruction record behaviour."""

from collections import Counter

from repro.cpu.machine import Machine
from repro.debugger.session import Session
from repro.isa import assemble
from repro.isa.instruction import (DECODED, H_ALU_IMM, H_ALU_REG,
                                   Instruction)
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import ZERO_REG
from repro.workloads.benchmarks import BENCHMARK_NAMES, build_benchmark
from repro.workloads.corpus import programs_corpus


def test_equality_and_hash():
    a = Instruction(Opcode.ADDQ, rd=1, rs1=2, rs2=3)
    b = Instruction(Opcode.ADDQ, rd=1, rs1=2, rs2=3)
    c = Instruction(Opcode.ADDQ, rd=1, rs1=2, imm=3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_copy_is_shallow_but_independent():
    a = Instruction(Opcode.STQ, rd=1, rs1=2, imm=8)
    b = a.copy()
    b.imm = 16
    assert a.imm == 8
    assert a != b


def test_predicates():
    store = Instruction(Opcode.STQ, rd=1, rs1=2)
    load = Instruction(Opcode.LDQ, rd=1, rs1=2)
    branch = Instruction(Opcode.BEQ, rs1=1, target=0x1000)
    assert store.is_store and not store.is_load
    assert load.is_load and load.mem_size == 8
    assert branch.is_control
    assert branch.opclass is OpClass.BRANCH


def test_disassemble_unresolved_target():
    inst = Instruction(Opcode.BR)
    assert "unresolved" in inst.disassemble()


def test_disassemble_label_target():
    inst = Instruction(Opcode.BR, target="loop")
    assert inst.disassemble() == "br loop"


def test_disassemble_hex_target():
    inst = Instruction(Opcode.BR, target=0x1234)
    assert "0x1234" in inst.disassemble()


def test_repr_contains_disassembly():
    inst = Instruction(Opcode.NOP)
    assert "nop" in repr(inst)


def test_info_cached_on_instance():
    inst = Instruction(Opcode.MULQ, rd=1, rs1=2, rs2=3)
    assert inst.info.mnemonic == "mulq"


# -- interned decode records ---------------------------------------------


def test_same_shape_shares_one_decode_record():
    a = Instruction(Opcode.ADDQ, rd=1, rs1=2, rs2=3)
    b = Instruction(Opcode.ADDQ, rd=4, rs1=5, rs2=6)
    immediate = Instruction(Opcode.ADDQ, rd=4, rs1=5, imm=6)
    assert a.decode() is b.decode()
    assert b.decoded is a.decoded
    assert immediate.decode() is not a.decoded
    assert immediate.decoded.handler_index == H_ALU_IMM


def test_dropping_rs2_then_reload_text_dispatches_as_immediate():
    program = assemble("""
.text
main:
    lda r2, 7(r31)
    lda r3, 100(r31)
    addq r2, r3, r1
    halt
""")
    machine = Machine(program, detailed_timing=False)
    add = program.instructions[2]
    assert add.decoded.handler_index == H_ALU_REG
    add.rs2 = None
    add.imm = 5
    machine.reload_text()
    machine.run()
    assert add.decoded.handler_index == H_ALU_IMM
    assert machine.regs[1] == 12


def test_writing_the_zero_register_loses_fast_regs():
    add = Instruction(Opcode.ADDQ, rd=1, rs1=2, rs2=3)
    assert add.decode().fast_regs
    add.rd = ZERO_REG
    add.decoded = None
    assert not add.decode().fast_regs
    assert add.decoded.handler_index == H_ALU_REG


def test_decode_table_is_bounded_by_the_isa():
    """At most one record per (has rs2, fast_regs) pair of each opcode,
    however many register combinations the decoded programs use."""
    programs = [build_benchmark(name) for name in BENCHMARK_NAMES]
    programs += [entry.build() for entry in programs_corpus()]
    for program in programs:
        for inst in program.instructions:
            inst.decoded = None
            inst.decode()
    session = Session(build_benchmark("bzip2"), backend="dise")
    session.watch("hot")
    seen: list[Instruction] = []
    backend = session.build_backend()
    engine = backend.machine.dise_engine
    expand = engine.expand

    def recording_expand(inst, pc):
        seq = expand(inst, pc)
        if seq is not None:
            seen.extend(seq)
        return seq

    engine.expand = recording_expand
    backend.run(20_000)
    # A sequence may hold slots that a taken DISE branch skipped; decode
    # them all so every instantiated replacement counts against the bound.
    assert seen
    for inst in seen:
        inst.decode()
    per_opcode = Counter(opcode for opcode, _, _ in DECODED)
    assert max(per_opcode.values()) <= 4
    assert all(record.fast_regs == fast
               for (_, _, fast), record in DECODED.items())
