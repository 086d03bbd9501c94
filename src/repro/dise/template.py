"""Replacement-sequence templates.

Replacement sequences are parameterized: "they are templates in which
some instruction fields are literal and others are instantiated using
fields from the replaced trigger" (paper Section 3).  The directives are
exposed as the :data:`T` namespace, mirroring the paper's notation:

``T.INST``
    The entire trigger instruction (used to re-emit the original store).
``T.OP``
    The trigger's opcode.
``T.RD`` / ``T.RS1`` / ``T.RS2``
    The trigger's register operands.
``T.IMM``
    The trigger's immediate (e.g. a store displacement).
``T.PC``
    The trigger's fetch address (known to the engine at expansion
    time), usable in immediate fields — e.g. to materialize a return
    address before a call trigger executes.

A :class:`TemplateInstruction` holds an opcode (or ``T.OP``) plus operand
fields that may be literals or directives; :meth:`instantiate` fills the
holes from a concrete trigger.  The paper's Figure 1 production is
expressed as::

    Production(
        Pattern(opclass=OpClass.LOAD, rs1=SP),
        [template(Opcode.ADDQ, rd=dr0, rs1=T.RS1, imm=8),
         template(T.OP, rd=T.RD, rs1=dr0, imm=T.IMM)],
    )
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import DiseError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


class _Directive:
    """A unique template hole, filled from the trigger instruction."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"T.{self.name}"


class _TemplateNamespace:
    """The ``T`` directive namespace (``T.OP``, ``T.RD``, ...)."""

    INST = _Directive("INST")
    OP = _Directive("OP")
    RD = _Directive("RD")
    RS1 = _Directive("RS1")
    RS2 = _Directive("RS2")
    IMM = _Directive("IMM")
    PC = _Directive("PC")


T = _TemplateNamespace

FieldValue = Union[int, _Directive, None]
OpcodeValue = Union[Opcode, _Directive]


class TemplateInstruction:
    """One slot of a replacement sequence.

    Either the whole-instruction directive ``T.INST``, or an opcode plus
    possibly-templated operand fields.
    """

    __slots__ = ("whole", "opcode", "rd", "rs1", "rs2", "imm", "target",
                 "_literal", "_cached")

    def __init__(
        self,
        opcode: OpcodeValue | None = None,
        rd: FieldValue = None,
        rs1: FieldValue = None,
        rs2: FieldValue = None,
        imm: Union[int, str, _Directive] = 0,
        target: Union[int, str, _Directive, None] = None,
        whole: bool = False,
    ):
        self.whole = whole
        self._cached: Optional[Instruction] = None
        if whole:
            self.opcode = None
            self.rd = self.rs1 = self.rs2 = None
            self.imm = 0
            self.target = None
            self._literal = False
            return
        if opcode is None:
            raise DiseError("template instruction requires an opcode or T.INST")
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        # A slot with no directives instantiates to the same instruction
        # every time; cache it (the hardware replacement table likewise
        # holds pre-decoded instructions, Section 3).
        self._literal = not any(
            isinstance(field, _Directive)
            for field in (opcode, rd, rs1, rs2, imm, target))

    def instantiate(self, trigger: Instruction, pc: int = 0) -> Instruction:
        """Fill directives from ``trigger`` (fetched at ``pc``).

        Instructions are immutable once executed, so literal slots reuse
        one cached (pre-decoded) instance, and ``T.INST`` re-emits the
        trigger itself.
        """
        cached = self._cached
        if cached is not None:
            return cached
        if self.whole:
            return trigger
        opcode = trigger.opcode if self.opcode is T.OP else self.opcode
        inst = Instruction(
            opcode,
            rd=_fill_reg(self.rd, trigger),
            rs1=_fill_reg(self.rs1, trigger),
            rs2=_fill_reg(self.rs2, trigger),
            imm=_fill_imm(self.imm, trigger, pc),
            target=_fill_imm(self.target, trigger, pc),
        )
        if self._literal:
            inst.decode()
            self._cached = inst
        return inst

    @property
    def trigger_imm(self) -> bool:
        """Does the instantiated immediate come from the trigger
        (``T.INST``, ``T.IMM``, ``T.PC``) rather than the template?"""
        return self.whole or isinstance(self.imm, _Directive)

    def describe(self) -> str:
        """Render the slot in the paper's directive notation."""
        if self.whole:
            return "T.INST"
        opcode = "T.OP" if self.opcode is T.OP else self.opcode.name.lower()
        fields = []
        for name in ("rd", "rs1", "rs2", "imm", "target"):
            value = getattr(self, name)
            if value is None or (name == "imm" and value == 0):
                continue
            fields.append(f"{name}={value!r}")
        return f"{opcode}({', '.join(fields)})"

    def __repr__(self) -> str:
        return f"TemplateInstruction({self.describe()})"


def _fill_reg(value: FieldValue, trigger: Instruction) -> Optional[int]:
    if value is T.RD:
        return trigger.rd
    if value is T.RS1:
        return trigger.rs1
    if value is T.RS2:
        return trigger.rs2
    if isinstance(value, _Directive):
        raise DiseError(f"directive {value!r} is not valid in a register field")
    return value


def _fill_imm(value, trigger: Instruction, pc: int = 0):
    if value is T.IMM:
        return trigger.imm
    if value is T.PC:
        return pc
    if isinstance(value, _Directive):
        raise DiseError(f"directive {value!r} is not valid in an immediate field")
    return value


def template(opcode: OpcodeValue, **fields) -> TemplateInstruction:
    """Convenience constructor for a templated instruction."""
    return TemplateInstruction(opcode, **fields)


def original() -> TemplateInstruction:
    """The ``T.INST`` directive: re-emit the trigger unchanged."""
    return TemplateInstruction(whole=True)


def literal(inst: Instruction) -> TemplateInstruction:
    """Wrap a fully concrete instruction as a template slot."""
    return TemplateInstruction(
        inst.opcode, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2,
        imm=inst.imm, target=inst.target)
