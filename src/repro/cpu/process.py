"""Per-process machine state: one field list, one boot, one snapshot.

A process's share of a :class:`~repro.cpu.machine.Machine` is named
once, in :data:`PROCESS_FIELDS`, spelled the way the machine spells it:
its address space (memory, page table), registers, program text with
its decode and compiled-code caches, the DISE expansion pipeline state,
and the debug substrate (watch ranges, breakpoint registers, statement
PCs).  Machine-wide state — statistics, the timing model's caches and
predictor, the DISE engine, controller and registers, the trap
registers — stays on the machine; the timing model charges a flush +
TLB shootdown at each switch and the DISE controller re-gates
productions by target process.

The live process's fields are the machine's own attributes, which the
interpreter loops read directly; an inactive process's fields sit on
its :class:`ProcessContext` under the same names.  A context switch is
two reference swaps of those names (:meth:`ProcessContext.save_from`
then :meth:`ProcessContext.load_into` of the next context): no copying,
so it costs O(fields), not O(footprint).  The same functions serve both
holders — :func:`boot` loads a program into a fresh address space, and
:func:`snapshot`/:func:`restore` capture and rewind the per-process
half — so the machine and the kernel cannot disagree about what a
process is.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

from repro.isa.program import (INSTRUCTION_BYTES, Program, STACK_TOP,
                               TEXT_BASE)
from repro.isa.registers import SP
from repro.memory.main_memory import MainMemory
from repro.memory.pagetable import PageTable

if TYPE_CHECKING:
    from repro.cpu.machine import Machine

#: Every per-process attribute of a machine (and of a context).
PROCESS_FIELDS = (
    "memory", "pagetable",
    "regs", "pc", "halted",
    "program", "_text", "_text_base", "_text_end", "text_version",
    "_compiled",
    "statement_pcs", "instrumentation_pcs", "hw_watch_ranges",
    "breakpoint_registers", "single_step",
    "_expansion", "_exp_index", "_trigger_pc", "_in_dise_function",
    "_dise_return", "_expansion_did_store",
    "_fetch_trap_resume_pc",
    "last_store_addr", "last_store_size", "last_store_value",
)


def boot(state, program: Program, page_bytes: int) -> None:
    """Load ``program`` into ``state`` (a machine or a context) in a
    fresh, private address space, ready to run from its entry point."""
    state.program = program
    state.memory = MainMemory()
    state.pagetable = PageTable(page_bytes)
    state.regs = [0] * 32
    state.regs[SP] = STACK_TOP
    state.pc = program.entry_pc
    state.halted = False
    load_text(state)
    # Code-version counter: bumped by reload_text, patch_text, and
    # self-modifying stores into text pages.  The compiled execution
    # tier keys its block cache on it (plus the DISE engine's
    # production list), so any code mutation drops compiled blocks.
    # It switches with its process's text but only keeps caches
    # coherent: no snapshot carries it, and restore flushes the
    # compiled tier instead.
    state.text_version = 0
    state._compiled = None  # this process's CompiledTier (lazy)

    # Debug substrate beyond the statement PCs: empty until a debugger
    # installs its mechanism against this process, so a co-resident
    # process never holds it.  Instrumentation PCs mark statically
    # inserted code (binary rewriting): it commits and costs cycles but
    # is not application work, so run limits compare equal progress.
    state.instrumentation_pcs = frozenset()
    state.hw_watch_ranges = []  # [lo, hi) ranges
    state.breakpoint_registers = set()
    state.single_step = False

    # DISE expansion state (a quantum may not end inside an expansion —
    # the machine slips the deadline — but a syscall trap or debugger
    # stop can, so it switches with the process).
    state._expansion = None
    state._exp_index = 0
    state._trigger_pc = 0
    state._in_dise_function = False
    state._dise_return = None
    # Has the active expansion executed its store yet?  Gates the
    # store context attached to explicit trap delivery.
    state._expansion_did_store = False

    # Fetch-stage trap whose stop was already taken: do not re-fire it
    # for the same fetch when the interactive run resumes.
    state._fetch_trap_resume_pc = None
    # Store context for trap handlers.
    state.last_store_addr = 0
    state.last_store_size = 0
    state.last_store_value = 0
    load_data(state)


def load_text(state) -> None:
    """Read the program's instruction list and statement boundaries."""
    program = state.program
    state._text = program.instructions
    state._text_base = TEXT_BASE
    state._text_end = TEXT_BASE + INSTRUCTION_BYTES * len(state._text)
    state.statement_pcs = frozenset(
        program.pc_of_index(i) for i in program.statement_starts)


def load_data(state) -> None:
    """Write the initializers of the program's data items to memory."""
    program = state.program
    for item in program.data_items:
        if item.init:
            state.memory.write_bytes(program.symbols[item.name].address,
                                     item.init)


def snapshot(state) -> dict:
    """Capture the per-process half of ``state`` as an opaque blob.

    Memory is captured copy-on-write.  Program text, its caches and
    ``text_version`` are not captured: a restore keeps the current text
    (see :meth:`Machine.restore`) and flushes what was compiled from it.
    An expansion in flight is an immutable tuple the DISE engine built,
    so the blob shares it.
    """
    return {
        "regs": list(state.regs),
        "pc": state.pc,
        "halted": state.halted,
        "memory": state.memory.snapshot(),
        "pagetable": state.pagetable.snapshot(),
        "expansion": (
            state._expansion, state._exp_index, state._trigger_pc,
            state._in_dise_function, state._dise_return,
            state._expansion_did_store),
        "hw_watch_ranges": list(state.hw_watch_ranges),
        "breakpoint_registers": set(state.breakpoint_registers),
        "single_step": state.single_step,
        "statement_pcs": state.statement_pcs,
        "instrumentation_pcs": state.instrumentation_pcs,
        "fetch_trap_resume_pc": state._fetch_trap_resume_pc,
        "last_store": (state.last_store_addr, state.last_store_size,
                       state.last_store_value),
    }


def restore(state, blob: dict) -> None:
    """Rewind the per-process half of ``state`` to a :func:`snapshot`.

    Memory and page table are rewound in place (other holders may
    reference them).  The snapshot may predate text mutations and carry
    a different DISE production set, so compiled blocks never survive
    a restore: cheaper than fingerprinting code versions into the
    blob, and restores are nowhere near as frequent as block compiles.
    """
    state.regs = list(blob["regs"])
    state.pc = blob["pc"]
    state.halted = blob["halted"]
    state.memory.restore(blob["memory"])
    state.pagetable.restore(blob["pagetable"])
    (state._expansion, state._exp_index, state._trigger_pc,
     state._in_dise_function, state._dise_return,
     state._expansion_did_store) = blob["expansion"]
    state.hw_watch_ranges = list(blob["hw_watch_ranges"])
    state.breakpoint_registers = set(blob["breakpoint_registers"])
    state.single_step = blob["single_step"]
    state.statement_pcs = blob["statement_pcs"]
    state.instrumentation_pcs = blob["instrumentation_pcs"]
    state._fetch_trap_resume_pc = blob["fetch_trap_resume_pc"]
    (state.last_store_addr, state.last_store_size,
     state.last_store_value) = blob["last_store"]
    if state._compiled is not None:
        state._compiled.flush()


class ProcessContext:
    """An inactive process's share of the machine state (or, for the
    current process, its last synced copy)."""

    __slots__ = ("pid", "name", *PROCESS_FIELDS)

    def __init__(self, pid: int, name: str):
        self.pid = pid
        self.name = name

    @classmethod
    def fresh(cls, pid: int, name: str, program: Program,
              page_bytes: int) -> "ProcessContext":
        """Build a runnable context for ``program`` (see :func:`boot`)."""
        ctx = cls(pid, name)
        boot(ctx, program, page_bytes)
        return ctx

    @classmethod
    def adopt(cls, machine: "Machine", pid: int,
              name: str) -> "ProcessContext":
        """Wrap the machine's already-loaded program as a context.

        Used for pid 1: the machine (and the debugger backend above it)
        already built this process's state — including installed
        watchpoints and statement tables — so the context takes the
        live objects by reference rather than reloading.
        """
        ctx = cls(pid, name)
        ctx.save_from(machine)
        return ctx

    def save_from(self, machine: "Machine") -> None:
        """Capture the machine's per-process state (by reference)."""
        for field in PROCESS_FIELDS:
            setattr(self, field, getattr(machine, field))

    def load_into(self, machine: "Machine") -> None:
        """Make this context the machine's live state (by reference)."""
        for field in PROCESS_FIELDS:
            setattr(machine, field, getattr(self, field))
        machine.current_process = self.name

    def state_fingerprint(self) -> str:
        """Digest of this process's architectural state.

        The same quantities :meth:`Machine.state_fingerprint` hashes for
        a single-process machine — registers, PC, halt flag, page
        protections, memory — so a process's final state under the
        scheduler can be compared against a solo run of the same
        program.
        """
        digest = hashlib.sha256()
        digest.update(repr((
            tuple(self.regs), self.pc, self.halted,
            tuple(sorted(self.pagetable.snapshot().items())),
        )).encode())
        digest.update(self.memory.state_fingerprint().encode())
        return digest.hexdigest()
