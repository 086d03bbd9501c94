"""Assembled programs: text segment, data segment, symbols, loading info.

A :class:`Program` is the unit the simulated machine loads and runs.  It
carries:

* the text segment: a list of :class:`Instruction` at consecutive PCs
  starting at ``TEXT_BASE`` (4 bytes per instruction),
* the data segment: :class:`DataItem` blocks laid out from ``DATA_BASE``,
* a symbol table mapping names to addresses (data variables and code
  labels), and
* *statement boundaries*: indices of instructions that begin a source
  statement, used by the single-stepping debugger backend (the paper's
  single-stepping baseline steps source-level statements).

The debugger may *append* code and data after the program is finalized
(paper Section 4: "the debugger does not need to modify the application
binary, except in two well-defined and simple ways, i.e., appending a
dynamically-generated function and small data region to the application's
text and data segments").  :meth:`Program.append_function` and
:meth:`Program.append_data` implement exactly those two operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import AssemblyError
from repro.isa.instruction import Instruction

INSTRUCTION_BYTES = 4

TEXT_BASE = 0x0000_1000
DATA_BASE = 0x0010_0000
STACK_TOP = 0x7FFF_F000
STACK_BYTES = 1 << 20


@dataclass
class DataItem:
    """One named block in the data segment."""

    name: str
    size: int
    init: Optional[bytes] = None
    align: int = 8

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise AssemblyError(f"data item {self.name!r} has size {self.size}")
        if self.init is not None and len(self.init) > self.size:
            raise AssemblyError(
                f"data item {self.name!r}: initializer ({len(self.init)}B) "
                f"larger than size ({self.size}B)"
            )
        if self.align & (self.align - 1):
            raise AssemblyError(f"data item {self.name!r}: alignment "
                                f"{self.align} is not a power of two")


@dataclass(frozen=True)
class Symbol:
    """A resolved name: a data variable or a code label."""

    name: str
    address: int
    size: int = 0
    kind: str = "data"  # "data" | "code"


class Program:
    """An assembled program ready to be loaded into a machine."""

    def __init__(
        self,
        instructions: Iterable[Instruction] = (),
        labels: Optional[dict[str, int]] = None,
        data_items: Optional[list[DataItem]] = None,
        statement_starts: Optional[set[int]] = None,
        entry: str | int = 0,
        name: str = "program",
    ):
        self.name = name
        self.instructions: list[Instruction] = list(instructions)
        self.labels: dict[str, int] = dict(labels or {})
        self.data_items: list[DataItem] = list(data_items or [])
        self.statement_starts: set[int] = set(statement_starts or ())
        self.entry = entry
        self.symbols: dict[str, Symbol] = {}
        self._finalized = False
        self._data_cursor = DATA_BASE

    # -- addresses --------------------------------------------------------

    def pc_of_index(self, index: int) -> int:
        """PC of the instruction at ``index``."""
        return TEXT_BASE + INSTRUCTION_BYTES * index

    def index_of_pc(self, pc: int) -> int:
        """Instruction index of ``pc`` (must be aligned and in text)."""
        offset = pc - TEXT_BASE
        index = offset // INSTRUCTION_BYTES
        if (offset < 0 or offset % INSTRUCTION_BYTES
                or index >= len(self.instructions)):
            raise AssemblyError(f"pc {pc:#x} is not an instruction address")
        return index

    def pc_of_label(self, label: str) -> int:
        """PC of a defined label."""
        if label not in self.labels:
            raise AssemblyError(f"unknown label {label!r}")
        return self.pc_of_index(self.labels[label])

    @property
    def entry_pc(self) -> int:
        if isinstance(self.entry, str):
            return self.pc_of_label(self.entry)
        return self.pc_of_index(self.entry)

    @property
    def text_end_pc(self) -> int:
        return self.pc_of_index(len(self.instructions))

    @property
    def text_bytes(self) -> int:
        return INSTRUCTION_BYTES * len(self.instructions)

    # -- layout and resolution --------------------------------------------

    def finalize(self) -> "Program":
        """Lay out the data segment and resolve symbolic operands.

        Idempotent: re-finalizing after appends resolves newly added
        instructions.
        """
        self._layout_data()
        self._resolve_instructions()
        self._decode_instructions()
        self._finalized = True
        return self

    def _layout_data(self) -> None:
        cursor = DATA_BASE
        for item in self.data_items:
            if item.name in self.symbols:
                cursor = max(cursor, self.symbols[item.name].address + item.size)
                continue
            cursor = _align_up(cursor, item.align)
            self.symbols[item.name] = Symbol(item.name, cursor, item.size, "data")
            cursor += item.size
        self._data_cursor = max(self._data_cursor, cursor)

    def _resolve_instructions(self) -> None:
        for index, inst in enumerate(self.instructions):
            if isinstance(inst.target, str):
                inst.target = self._resolve_name(inst.target, index)
            if isinstance(inst.imm, str):
                inst.imm = self._resolve_name(inst.imm, index)

    def _decode_instructions(self) -> None:
        """Warm the interpreter's per-instruction decode cache.

        Runs after symbol resolution so immediates are final.  The
        machine decodes lazily as a fallback (runtime-instantiated
        replacement instructions, patched text), but pre-decoding here
        keeps the first execution of every static instruction on the
        fast path.
        """
        for inst in self.instructions:
            if inst.decoded is None:
                inst.decode()

    def _resolve_name(self, name: str, index: int) -> int:
        if name in self.labels:
            return self.pc_of_index(self.labels[name])
        if name in self.symbols:
            return self.symbols[name].address
        raise AssemblyError(
            f"instruction {index}: unresolved symbol {name!r}")

    # -- debugger-visible modifications -------------------------------------

    def append_function(self, label: str,
                        instructions: Iterable[Instruction]) -> int:
        """Append a function to the text segment; return its entry PC.

        This models the debugger appending its dynamically generated
        expression-evaluation function.  The new code is resolved against
        the program's existing symbols.
        """
        if label in self.labels:
            raise AssemblyError(f"label {label!r} already defined")
        start = len(self.instructions)
        self.labels[label] = start
        self.instructions.extend(instructions)
        self.symbols[label] = Symbol(label, self.pc_of_index(start), 0, "code")
        self.finalize()
        return self.pc_of_index(start)

    def append_data(self, name: str, size: int,
                    init: Optional[bytes] = None, align: int = 8) -> int:
        """Append a named block to the data segment; return its address.

        Models the debugger appending its small data region (watched
        addresses, previous expression values, Bloom filter).
        """
        if name in self.symbols:
            raise AssemblyError(f"symbol {name!r} already defined")
        item = DataItem(name, size, init, align)
        self.data_items.append(item)
        address = _align_up(self._data_cursor, align)
        self.symbols[name] = Symbol(name, address, size, "data")
        self._data_cursor = address + size
        return address

    # -- introspection -----------------------------------------------------

    def symbol(self, name: str) -> Symbol:
        """Look up a symbol record by name."""
        if name not in self.symbols:
            raise AssemblyError(f"unknown symbol {name!r}")
        return self.symbols[name]

    def address_of(self, name: str) -> int:
        """Address of a named symbol."""
        return self.symbol(name).address

    def data_segment_extent(self) -> tuple[int, int]:
        """Return [start, end) of the laid-out data segment."""
        return DATA_BASE, self._data_cursor

    def copy(self) -> "Program":
        """A copy with its own instruction list, labels, symbols, data
        items and statement starts, sharing the instructions themselves.

        Every debugger backend runs on a copy: DISE appends to it and
        replaces slots, the binary rewriter builds a new list.  An
        instruction is never edited in place after a copy — replace its
        slot — so the original program stays pristine.
        """
        clone = Program(self.instructions, labels=self.labels,
                        data_items=self.data_items,
                        statement_starts=self.statement_starts,
                        entry=self.entry, name=self.name)
        clone.symbols = dict(self.symbols)
        clone._data_cursor = self._data_cursor
        clone._finalized = self._finalized
        return clone

    def content_digest(self) -> str:
        """Stable content hash of the program's observable identity.

        Covers the text segment (disassembly, which embeds labels), the
        data layout (names, sizes, initializers, alignment) and the
        entry point — everything that determines execution.  Used to
        key cached time-travel query answers to the exact program.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(self.name.encode())
        digest.update(b"\0")
        digest.update(str(self.entry).encode())
        digest.update(b"\0")
        digest.update(self.disassemble().encode())
        for item in self.data_items:
            digest.update(
                f"\0{item.name}:{item.size}:{item.align}:".encode())
            digest.update(item.init or b"")
        return digest.hexdigest()[:32]

    def disassemble(self) -> str:
        """Render the whole text segment as labelled assembly."""
        by_index: dict[int, list[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for index, inst in enumerate(self.instructions):
            for label in by_index.get(index, ()):
                lines.append(f"{label}:")
            lines.append(f"    {inst.disassemble()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
