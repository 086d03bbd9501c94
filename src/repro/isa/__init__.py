"""Alpha-like instruction set architecture.

This package defines the ISA simulated throughout the reproduction:

* :mod:`repro.isa.opcodes` -- opcode and operand-class enumerations plus
  per-opcode metadata (format, memory access size, register effects).
* :mod:`repro.isa.registers` -- architectural and DISE register names.
* :mod:`repro.isa.instruction` -- the :class:`Instruction` record and
  disassembly.
* :mod:`repro.isa.assembler` -- a two-pass textual assembler.
* :mod:`repro.isa.builder` -- a programmatic code builder used by the
  synthetic workload generator.
* :mod:`repro.isa.program` -- assembled programs: text, data, symbols.

The ISA follows the paper's examples (Alpha-flavoured assembly where the
right-most operand names the target) and includes the DISE-ISA extensions
from Sections 3 and 4: DISE branches (``d_beq``/``d_bne``/``d_br``), DISE
calls (``d_call``/``d_ccall``/``d_ret``), DISE register moves
(``d_mfr``/``d_mtr``), the conditional trap (``ctrap``), and the reserved
codeword opcode used to trigger expansions.
"""

from repro.isa.opcodes import Opcode, OpClass, Format, opcode_info
from repro.isa.registers import (
    NUM_GPRS,
    ZERO_REG,
    SP,
    RA,
    GP,
    DISE_REG_BASE,
    dise_reg,
    is_dise_reg,
    register_name,
    parse_register,
)
from repro.isa.instruction import Instruction
from repro.isa.program import Program, DataItem, Symbol, TEXT_BASE, DATA_BASE, STACK_TOP
from repro.isa.assembler import assemble, assemble_program
from repro.isa.builder import CodeBuilder

__all__ = [
    "Opcode",
    "OpClass",
    "Format",
    "opcode_info",
    "NUM_GPRS",
    "ZERO_REG",
    "SP",
    "RA",
    "GP",
    "DISE_REG_BASE",
    "dise_reg",
    "is_dise_reg",
    "register_name",
    "parse_register",
    "Instruction",
    "Program",
    "DataItem",
    "Symbol",
    "TEXT_BASE",
    "DATA_BASE",
    "STACK_TOP",
    "assemble",
    "assemble_program",
    "CodeBuilder",
]
