"""The simulated machine: fetch, DISE expansion, execute, trap delivery.

:class:`Machine` executes a :class:`~repro.isa.program.Program`
functionally, in program order, while streaming events into a
:class:`~repro.cpu.timing.TimingModel`.  The DISE engine sits between
fetch and execute exactly as in the paper: every *fetched* instruction
is offered to the engine, and a match substitutes the instantiated
replacement sequence, whose elements execute with DISEPC semantics:

* taken DISE branches move only the DISEPC and cost a pipeline flush
  (implemented via the misprediction-recovery path);
* ``d_call``/``d_ccall`` save ``<PC : DISEPC+1>``, flush, and redirect
  fetch to conventional code with DISE expansion disabled;
* ``d_ret`` restores the saved pair, flushes, and re-enables expansion;
* conventional control transfers inside a sequence jump to
  ``<newPC : 0>``, abandoning the rest of the sequence.

The machine also implements the non-DISE debugging substrates the paper
compares against: hardware watchpoint/breakpoint registers (trap on
matching store/fetch), page-protection faults (via the
:class:`~repro.memory.pagetable.PageTable`), and statement-granularity
single-stepping.  All such events are delivered to a single
``trap_handler`` callback — the "debugger process" — which classifies
the transition (:class:`~repro.cpu.stats.TransitionKind`); the timing
model then charges it (spurious: flush + 100,000 cycles; user: free).

Interpreter organization (see DESIGN.md "Interpreter architecture"):
execution dispatches through a class-level table of per-opclass handler
functions indexed by each instruction's interned decode record
(:class:`~repro.isa.instruction.Decoded`), with ALU and JUMP split into
opcode-level subcases.  One loop and one handler per index serve timed
and functional runs alike: each timing-model event is guarded by a
``timing is not None`` test, so runs without a timing model
(``detailed_timing=False``) skip the events and nothing else.  The
previous monolithic if/elif interpreter is retained as the ``"legacy"``
tier (``MachineConfig.interpreter``) so the differential test suite can
assert bit-identical semantics.

Fetch-stage traps (breakpoint registers, single-stepping) stop an
interactive run *before* the trapped instruction executes, like a real
debugger, and are not re-fired for the same fetch on resume.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable, Optional

from repro.config import DEFAULT_CONFIG, INTERPRETERS, MachineConfig
from repro.errors import SimulationError
from repro.cpu import process
from repro.cpu.functional import MASK64, alu_result, branch_taken
from repro.cpu.stats import SimStats, TransitionKind
from repro.cpu.timing import TimingModel
from repro.dise.controller import DiseController
from repro.dise.engine import DiseEngine
from repro.dise.registers import DiseRegisterFile
from repro.isa.instruction import (H_ALU_IMM, H_ALU_LDA, H_ALU_MOV, H_ALU_REG,
                                   H_BRANCH, H_CODEWORD, H_CTRAP,
                                   H_DISE_BRANCH, H_DISE_CALL, H_DISE_MOVE,
                                   H_DISE_RET, H_ERET, H_HALT, H_JUMP_BR,
                                   H_JUMP_JMP, H_JUMP_JSR, H_JUMP_RET, H_LOAD,
                                   H_STORE, H_SYSCALL, H_TRAP, NUM_HANDLERS,
                                   Instruction)
from repro.isa.opcodes import Format, Opcode, OpClass
from repro.isa.program import INSTRUCTION_BYTES, Program
from repro.isa.registers import DISE_REG_BASE, ZERO_REG
from repro.replay.checkpoint import Checkpoint, CheckpointStore


@unique
class TrapKind(Enum):
    """Why control crossed into the debugger."""

    TRAP = "trap"  # explicit trap/ctrap instruction
    HW_WATCHPOINT = "hw_watchpoint"  # hardware watchpoint register match
    BREAKPOINT = "breakpoint"  # breakpoint register match at fetch
    PAGE_FAULT = "page_fault"  # store to a write-protected page
    SINGLE_STEP = "single_step"  # statement-granularity stepping


# Architectural trap causes (latched in ``Machine.trap_cause``).  These
# are *kernel* traps — serviced by a guest handler at the trap vector or
# by the host scheduler (repro.kernel) — not debugger transitions.
CAUSE_TIMER = 1  # preemption timer quantum expired
CAUSE_SYSCALL = 2  # syscall instruction executed

# Syscall numbers (passed in r1; results returned in r1).
SYS_YIELD = 1  # voluntarily end the current quantum
SYS_GETPID = 2  # r1 = calling process id
SYS_EXIT = 3  # terminate the calling process


class _TrapPending(Exception):
    """Internal: unwinds the interpreter loops when a trap must be
    serviced by the host (no guest trap vector installed).  Raised only
    from the syscall handler, caught in :meth:`Machine._run_core` — the
    hot loops pay nothing for it."""


@dataclass
class TrapEvent:
    """Context delivered to the trap handler."""

    kind: TrapKind
    pc: int
    address: int = 0  # faulting/matching store address (when relevant)
    size: int = 0
    value: int = 0  # value being stored (when relevant)


TrapHandler = Callable[[TrapEvent], TransitionKind]


class WeakBoundMethod:
    """Call a bound method without keeping its object alive.

    An owner that holds a machine and gives it one of its own bound
    methods (a backend's ``handle_trap``, its ``snapshot`` as the
    checkpoint function) closes a reference cycle: the machine would
    outlive its owner until the cycle collector ran.  This callback
    holds the object weakly and, like the bound method it stands for,
    exposes ``__self__`` and ``__func__``.
    """

    __slots__ = ("_ref", "__func__")

    def __init__(self, method):
        self._ref = weakref.ref(method.__self__)
        self.__func__ = method.__func__

    @property
    def __self__(self):
        return self._ref()

    def __call__(self, *args):
        owner = self._ref()
        if owner is None:
            raise ReferenceError(
                f"{self.__func__.__qualname__}: its object was freed")
        return self.__func__(owner, *args)


_SPURIOUS = frozenset({
    TransitionKind.SPURIOUS_ADDRESS,
    TransitionKind.SPURIOUS_VALUE,
    TransitionKind.SPURIOUS_PREDICATE,
})


@dataclass
class MachineRun:
    """Outcome of a :meth:`Machine.run` call (the low-level record).

    The user-facing, serializable result is
    :class:`repro.results.RunResult`.
    """

    stats: SimStats
    halted: bool
    stopped_at_user: bool = False

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    def overhead_vs(self, baseline: "MachineRun") -> float:
        """Execution time normalized to ``baseline`` (1.0 = no overhead)."""
        if baseline.stats.cycles == 0:
            raise ValueError("baseline has zero cycles")
        return self.stats.cycles / baseline.stats.cycles


class Machine:
    """A single-core machine running one program."""

    def __init__(
        self,
        program: Program,
        config: MachineConfig | None = None,
        trap_handler: Optional[TrapHandler] = None,
        detailed_timing: bool = True,
    ):
        self.config = config or DEFAULT_CONFIG
        # The per-process half of the machine (see repro.cpu.process).
        process.boot(self, program, self.config.page_bytes)
        self.dise_engine = DiseEngine()
        self.dise_controller = DiseController(self.dise_engine,
                                              self.config.dise,
                                              process_name=program.name)
        self.dise_regs = DiseRegisterFile(self.config.dise.num_dise_registers)
        self.timing: Optional[TimingModel] = (
            TimingModel(self.config) if detailed_timing else None)
        self.stats = SimStats()
        self.trap_handler = trap_handler

        # Optional store observer (used for workload characterization).
        self.store_observer: Optional[Callable[[int, int, int, int], None]] = None

        # Interactive mode: pause execution when a trap classifies as a
        # user transition (the debugger hands control to the user).
        self.stop_on_user = False
        self.stopped_at_user = False

        # Privilege / trap architecture (see DESIGN.md §14).  The
        # machine boots in user mode; trap entry latches cause/epc/value
        # and raises privilege.  With a guest trap vector installed
        # (``trap_vector`` nonzero) fetch redirects there; otherwise the
        # cause is held in ``pending_trap`` for the host — the attached
        # kernel scheduler, or the :meth:`run` caller.
        self.kernel_mode = False
        self.trap_vector = 0
        self.trap_cause = 0
        self.trap_epc = 0
        self.trap_value = 0
        self.pending_trap: Optional[int] = None

        # Preemption timer: a quantum of application instructions.  The
        # deadline is an *absolute* app-instruction count; run slices
        # are clipped to it (exactly like checkpoint boundaries), so
        # preemption points are deterministic and identical across
        # interpreter tiers at zero per-instruction cost.  -1 = the next
        # run slice arms a fresh quantum.
        self.timer_quantum = 0
        self.timer_deadline = -1

        # Process identity (multi-process machines: see repro.kernel).
        self.current_process = program.name
        self._kernel = None

        interp = self.config.interpreter
        if interp not in INTERPRETERS:
            raise ValueError(f"unknown interpreter {interp!r}; expected "
                             f"one of {', '.join(INTERPRETERS)}")
        self._interp = interp

        # Periodic auto-checkpointing (see repro.replay): disabled until
        # enable_checkpoints() is called.
        self.checkpoint_store: Optional[CheckpointStore] = None
        self._checkpoint_interval = 0
        # None means :meth:`snapshot`, looked up when a checkpoint is
        # taken, so the machine holds no bound method of itself.
        self._checkpoint_fn: Optional[Callable[[], object]] = None

    # -- setup -------------------------------------------------------------

    def reload_text(self) -> None:
        """Re-read the program's instruction list (after appends).

        Bumps the code version: compiled blocks, decode records and
        built DISE sequences that predate the reload must not survive
        it.  Every instruction's ``decoded`` cache is dropped because
        the caller may have rewritten instruction fields in place — the
        machine cannot tell which slots changed.  Only a program the
        caller owns outright may be edited in place: a
        :meth:`Program.copy` shares its instruction objects with the
        original and with every other copy, so there an edit must
        replace the slot (:meth:`patch_text`) instead.  Machines that
        share the instructions lose only a lookup: every tier re-derives
        a dropped record lazily from the interned table.
        """
        for inst in self.program.instructions:
            inst.decoded = None
        process.load_text(self)
        self.text_version += 1
        self.dise_engine.flush()

    def patch_text(self, pc: int, instruction: Instruction) -> None:
        """Replace the instruction at ``pc`` (self-modifying code API).

        Bumps the code version so every interpreter tier observes the
        new encoding: the table/legacy tiers read the slot directly, the
        compiled tier drops its block cache, and the DISE engine its
        built sequences.
        """
        index = (pc - self._text_base) >> 2
        if (pc & 3) or index < 0 or index >= len(self._text):
            raise SimulationError(f"patch outside text: pc={pc:#x}")
        instruction.decoded = None
        self._text[index] = instruction
        self.text_version += 1
        self.dise_engine.flush()

    def _note_text_store(self, ea: int, size: int) -> None:
        """A store overlapped the text region: invalidate cached decode
        state.  Text is not memory-backed (instructions are records, not
        encodings), so the architectural effect of such a store is only
        on the data bytes; but any cached decode records, compiled
        blocks and built DISE sequences covering the stored-to slots
        must be dropped so a subsequent ``patch_text``-style mutation
        cannot execute stale state.
        """
        self.text_version += 1
        self.dise_engine.flush()
        text = self._text
        first = (max(ea, self._text_base) - self._text_base) >> 2
        last = (min(ea + size, self._text_end) - 1 - self._text_base) >> 2
        for index in range(first, last + 1):
            if 0 <= index < len(text):
                text[index].decoded = None

    def reset_stats(self) -> None:
        """Start a fresh measurement interval (e.g. after warm-up).

        Architectural and microarchitectural state is preserved; only
        statistics and the cycle counter restart.
        """
        self.stats = SimStats()
        if self.timing is not None:
            self.timing.reset_counters()

    # -- snapshots ---------------------------------------------------------
    #
    # The machine implements the Snapshotable protocol (see
    # repro.replay): snapshot() captures every piece of mutable state —
    # architectural, microarchitectural, DISE, debug substrate, and
    # mid-expansion fetch state — so restore() rewinds a run exactly,
    # including a run paused inside a replacement sequence.  The
    # per-process half is repro.cpu.process's, shared with the kernel's
    # inactive process contexts.  Memory is
    # captured copy-on-write (see MainMemory.snapshot), so checkpoints
    # of a large, mostly-idle footprint stay cheap, and tag arrays are
    # captured by sharing their immutable sets (see repro.memory.cache).
    # restore() rewinds state only: configuration and the callbacks the
    # machine was given (trap handler, checkpoint function) stay.

    def snapshot(self) -> dict:
        """Capture all mutable machine state as an opaque blob.

        The blob shares memory pages copy-on-write with the live
        machine and references installed productions by identity, so it
        is cheap but (when productions or an active expansion exist)
        only restorable in this process.  A blob from an undebugged
        machine contains plain data only and pickles cleanly — the
        harness persists such blobs as warm-start checkpoints.
        """
        return {
            **process.snapshot(self),
            "stats": self.stats.to_dict(),
            "dise_regs": self.dise_regs.snapshot(),
            "dise_controller": self.dise_controller.snapshot(),
            "timing": (self.timing.snapshot()
                       if self.timing is not None else None),
            "stop_on_user": self.stop_on_user,
            "stopped_at_user": self.stopped_at_user,
            "trap": (self.kernel_mode, self.trap_vector, self.trap_cause,
                     self.trap_epc, self.trap_value, self.pending_trap,
                     self.timer_quantum, self.timer_deadline),
            "process": self.current_process,
            "kernel": (self._kernel.snapshot()
                       if self._kernel is not None else None),
        }

    def restore(self, blob: dict) -> None:
        """Rewind the machine to a previous :meth:`snapshot`.

        The blob stays valid (memory re-freezes shared pages), so one
        checkpoint can be restored repeatedly.  Program text is *not*
        part of machine state: instructions appended to the program
        after the snapshot remain visible, while ``statement_pcs``
        (debug substrate) rewinds with the snapshot — call
        :meth:`reload_text` after restoring across an append to re-sync
        statement boundaries.
        """
        kernel_blob = blob["kernel"]
        if self._kernel is not None and kernel_blob is not None:
            # The per-process fields describe the process that was
            # *current* at snapshot time: the kernel makes it live
            # first, so they restore into its memory and page table.
            self._kernel.restore(kernel_blob)
        process.restore(self, blob)
        self.stats = SimStats.from_dict(blob["stats"])
        self.dise_regs.restore(blob["dise_regs"])
        self.dise_controller.restore(blob["dise_controller"])
        if self.timing is not None and blob["timing"] is not None:
            self.timing.restore(blob["timing"])
        self.stop_on_user = blob["stop_on_user"]
        self.stopped_at_user = blob["stopped_at_user"]
        (self.kernel_mode, self.trap_vector, self.trap_cause,
         self.trap_epc, self.trap_value, self.pending_trap,
         self.timer_quantum, self.timer_deadline) = blob["trap"]
        self.current_process = blob["process"]

    def state_fingerprint(self) -> str:
        """Digest of architectural state, for differential checks.

        Covers registers, PC, halt flag, DISE registers, page
        protections, and memory contents (canonical across page-
        residency layouts).  Statistics and microarchitectural state
        are deliberately excluded: two runs that agree architecturally
        fingerprint equal even if measured differently.
        """
        digest = hashlib.sha256()
        digest.update(repr((
            tuple(self.regs), self.pc, self.halted,
            self.dise_regs.snapshot(),
            tuple(sorted(self.pagetable.snapshot().items())),
        )).encode())
        digest.update(self.memory.state_fingerprint().encode())
        # Trap/privilege/scheduler state joins the digest only when it
        # is live (a kernel attached, or trap state off its boot
        # values), so single-process fingerprints — and every golden
        # recorded before the kernel existed — are unchanged.
        if (self._kernel is not None or self.kernel_mode
                or self.trap_vector or self.trap_cause or self.trap_epc
                or self.trap_value or self.pending_trap is not None):
            digest.update(repr((
                self.kernel_mode, self.trap_vector, self.trap_cause,
                self.trap_epc, self.trap_value, self.pending_trap,
                self.current_process,
            )).encode())
        if self._kernel is not None:
            digest.update(self._kernel.state_fingerprint().encode())
        return digest.hexdigest()

    # -- register helpers -----------------------------------------------------

    def _read_reg(self, reg: int, dise_ok: bool) -> int:
        if reg == ZERO_REG:
            return 0
        if reg < DISE_REG_BASE:
            return self.regs[reg]
        if not dise_ok:
            raise SimulationError(
                "conventional instruction read DISE register "
                f"dr{reg - DISE_REG_BASE} at pc={self.pc:#x}")
        return self.dise_regs.read(reg - DISE_REG_BASE)

    def _write_reg(self, reg: int, value: int, dise_ok: bool) -> None:
        if reg == ZERO_REG:
            return
        if reg < DISE_REG_BASE:
            self.regs[reg] = value & MASK64
            return
        if not dise_ok:
            raise SimulationError(
                "conventional instruction wrote DISE register "
                f"dr{reg - DISE_REG_BASE} at pc={self.pc:#x}")
        self.dise_regs.write(reg - DISE_REG_BASE, value)

    # -- trap delivery ----------------------------------------------------------

    def deliver_trap(self, event: TrapEvent) -> TransitionKind:
        """Route a trap to the debugger; classify, account, and charge it."""
        self.stats.traps += 1
        if self.trap_handler is None:
            kind = TransitionKind.NONE
        else:
            kind = self.trap_handler(event)
        self.stats.record_transition(kind)
        if self.timing is not None and kind is not TransitionKind.NONE:
            self.timing.debugger_transition(kind in _SPURIOUS)
        if kind is TransitionKind.USER and self.stop_on_user:
            self.stopped_at_user = True
        return kind

    def _deliver_explicit_trap(self, is_dise: bool) -> None:
        """Deliver a ``trap``/``ctrap``, attaching store context only
        when the trap follows the store-check sequence of the active
        expansion (or a function it called).  A breakpoint-style trap
        observed after an unrelated store must not leak that store's
        address/value.
        """
        if self._expansion_did_store and (is_dise or self._in_dise_function):
            event = TrapEvent(TrapKind.TRAP, self.pc,
                              self.last_store_addr,
                              self.last_store_size,
                              self.last_store_value)
        else:
            event = TrapEvent(TrapKind.TRAP, self.pc)
        self.deliver_trap(event)

    def _fetch_stage_traps(self, pc: int) -> bool:
        """Deliver breakpoint/single-step traps for the fetch at ``pc``.

        Returns False when the run must pause *before* the trapped
        instruction executes (an interactive stop): a real debugger
        stops with the breakpointed instruction still pending.  The pc
        is remembered so resuming does not re-fire the same trap.
        """
        resume_pc = self._fetch_trap_resume_pc
        if resume_pc is not None:
            self._fetch_trap_resume_pc = None
            if pc == resume_pc:
                return True
        if self.breakpoint_registers and pc in self.breakpoint_registers:
            self.deliver_trap(TrapEvent(TrapKind.BREAKPOINT, pc))
        if self.single_step and pc in self.statement_pcs:
            self.deliver_trap(TrapEvent(TrapKind.SINGLE_STEP, pc))
        if self.stopped_at_user:
            self._fetch_trap_resume_pc = pc
            return False
        return True

    # -- execution -----------------------------------------------------------------

    def run(self, max_app_instructions: Optional[int] = None) -> MachineRun:
        """Run until halt or until the application has committed
        ``max_app_instructions`` instructions.

        The limit counts *application* instructions only, so different
        debugger implementations execute identical application work
        (paper methodology: "simulate the same number of instructions
        for each experiment").
        """
        limit = max_app_instructions if max_app_instructions is not None else -1
        self.stopped_at_user = False
        if self._kernel is not None:
            # Multi-process machine: the kernel scheduler drives the run
            # (arming quanta, servicing traps, context-switching), so
            # every existing caller — backends, reverse execution,
            # time-travel queries, the harness — transparently debugs a
            # multi-process workload.
            self._kernel.run(limit)
        else:
            self._run_core(limit)
        stats = self.stats
        stats.cycles = self.timing.total_cycles if self.timing is not None \
            else stats.total_instructions
        return MachineRun(stats=stats, halted=self.halted,
                         stopped_at_user=self.stopped_at_user)

    def attach_kernel(self, kernel) -> None:
        """Hand the run loop to a :class:`repro.kernel.Kernel`.

        After attachment :meth:`run` delegates to the kernel's scheduler
        loop; the kernel calls back into :meth:`_run_core` for each
        scheduling slice.
        """
        self._kernel = kernel
        self.timer_quantum = kernel.quantum
        self.timer_deadline = -1

    def _dispatch_run(self, limit: int) -> None:
        interp = self._interp
        if interp == "legacy":
            self._run_legacy(limit)
        elif interp == "compiled":
            if self._compiled is None:
                from repro.cpu.compiled import CompiledTier
                self._compiled = CompiledTier(self)
            self._compiled.run(limit)
        else:
            self._run_table(limit)

    def _run_core(self, limit: int) -> None:
        """Run in slices, composing every between-instruction event.

        The hot interpreter loops are untouched: they are invoked with
        limits clipped to the nearest of (a) the caller's run limit,
        (b) the next checkpoint-interval boundary, and (c) the
        preemption-timer deadline.  Checkpoints are taken and timer
        interrupts raised *between* slices — never mid-instruction — so
        slicing is invisible to program semantics (a sliced run is
        bit-identical to an unsliced one) and preemption points land on
        exact application-instruction counts on every interpreter tier.

        A slice also ends when a syscall trap must be serviced by the
        host (``pending_trap``); the attached kernel (or the caller)
        services it and re-enters.
        """
        stats = self.stats
        store = self.checkpoint_store
        interval = self._checkpoint_interval if store is not None else 0
        while not self.halted and not self.stopped_at_user:
            if self.pending_trap is not None:
                break
            app = stats.app_instructions
            if 0 <= limit <= app:
                break
            target = limit
            boundary = -1
            if interval > 0:
                boundary = (app // interval + 1) * interval
                target = boundary if target < 0 else min(target, boundary)
            deadline = -1
            if self.timer_quantum > 0:
                deadline = self.timer_deadline
                if deadline < 0:  # arm a fresh quantum
                    deadline = self.timer_deadline = app + self.timer_quantum
                target = deadline if target < 0 else min(target, deadline)
            try:
                self._dispatch_run(target)
            except _TrapPending:
                pass
            if self.halted or self.stopped_at_user:
                break
            app = stats.app_instructions
            if boundary >= 0 and app >= boundary \
                    and self.pending_trap is None:
                capture = self._checkpoint_fn or self.snapshot
                store.add(Checkpoint(app, capture()))
            if self.pending_trap is not None:
                break
            if 0 <= deadline <= app:
                if self._expansion is not None or self._in_dise_function:
                    # Replacement sequences (and DISE-called functions)
                    # are atomic w.r.t. preemption: slip the deadline to
                    # the next clean instruction boundary.
                    self.timer_deadline = app + 1
                else:
                    self.timer_deadline = -1
                    self._enter_trap(CAUSE_TIMER, self.pc, 0)
                    if self.pending_trap is not None:
                        break
            elif target < 0:
                break  # unlimited slice returned: nothing left to run

    def enable_checkpoints(self, interval: int,
                           store: Optional[CheckpointStore] = None,
                           snapshot_fn=None) -> CheckpointStore:
        """Turn on auto-checkpointing every ``interval`` application
        instructions during :meth:`run`.

        ``snapshot_fn`` overrides what gets captured (the reverse
        controller passes the owning backend's ``snapshot``, held
        weakly, so debugger bookkeeping rides along); default is
        :meth:`snapshot`.
        """
        if interval <= 0:
            raise ValueError(f"checkpoint interval {interval} must be > 0")
        self._checkpoint_interval = interval
        self.checkpoint_store = store if store is not None else CheckpointStore()
        self._checkpoint_fn = snapshot_fn
        return self.checkpoint_store

    def _run_table(self, limit: int) -> None:
        """The dispatch-table loop; ``timing`` is None on functional runs."""
        stats = self.stats
        timing = self.timing
        text = self._text
        text_len = len(text)
        text_base = self._text_base
        engine = self.dise_engine
        eng_productions = engine._productions
        eng_by_pc = engine._by_pc
        eng_by_opclass = engine._by_opclass
        eng_by_codeword = engine._by_codeword
        eng_generic = engine._generic
        handlers = self._HANDLERS
        instrumentation_pcs = self.instrumentation_pcs
        nop_class = OpClass.NOP
        codeword_op = Opcode.CODEWORD

        while not self.halted:
            if limit >= 0 and stats.app_instructions >= limit:
                break
            if self.stopped_at_user:
                break

            expansion = self._expansion
            if expansion is not None:
                inst = expansion[self._exp_index]
                d = inst.decoded
                if d is None:
                    d = inst.decode()
                is_dise = True
            else:
                pc = self.pc
                index = (pc - text_base) >> 2
                if index < 0 or index >= text_len:
                    raise SimulationError(f"fetch outside text: pc={pc:#x}")
                inst = text[index]
                d = inst.decoded
                if d is None:
                    d = inst.decode()
                if self.breakpoint_registers or self.single_step:
                    if not self._fetch_stage_traps(pc):
                        break
                if timing is not None:
                    timing.fetch(pc)
                is_dise = False
                if eng_productions and not self._in_dise_function:
                    if (pc in eng_by_pc or d.opclass in eng_by_opclass
                            or eng_generic
                            or (inst.opcode is codeword_op
                                and inst.imm in eng_by_codeword)):
                        seq = engine.expand(inst, pc)
                        if seq is not None:
                            stats.dise_expansions += 1
                            self._expansion = seq
                            self._exp_index = 0
                            self._trigger_pc = pc
                            self._expansion_did_store = False
                            inst = seq[0]
                            d = inst.decoded
                            if d is None:
                                d = inst.decode()
                            is_dise = True

            if d.opclass is nop_class:
                stats.nops_elided += 1
                self._advance()
                continue
            if is_dise:
                if self._exp_index == 0:
                    stats.app_instructions += 1
                else:
                    stats.dise_instructions += 1
            elif self._in_dise_function:
                stats.function_instructions += 1
            elif instrumentation_pcs and self.pc in instrumentation_pcs:
                stats.dise_instructions += 1
            else:
                stats.app_instructions += 1
            if timing is not None:
                timing.commit()
            handlers[d.handler_index](self, inst, d, is_dise)

    # -- dispatch-table handlers ------------------------------------------------
    #
    # One function per handler index (see repro.isa.instruction), shared
    # by timed and functional runs and gathered in the class-level
    # `_HANDLERS` tuple, which the loop calls with the machine.  A
    # handler calls the timing model only when `self.timing` is set; the
    # only other update under that test is `dise_call_flushes`, a count
    # the timing model decides (tests/test_differential.py checks that
    # timed and functional runs agree on everything else).
    # `d.fast_regs` marks instructions whose operands can be accessed
    # directly in the GPR file (no zero/DISE-register checks).

    def _h_alu_lda(self, inst: Instruction, d, is_dise: bool) -> None:
        if d.fast_regs:
            regs = self.regs
            regs[inst.rd] = (regs[inst.rs1] + inst.imm) & MASK64
        else:
            base = self._read_reg(inst.rs1, is_dise)
            self._write_reg(inst.rd, (base + inst.imm) & MASK64, is_dise)
        self._advance()

    def _h_alu_mov(self, inst: Instruction, d, is_dise: bool) -> None:
        if d.fast_regs:
            regs = self.regs
            regs[inst.rd] = regs[inst.rs1]
        else:
            self._write_reg(inst.rd, self._read_reg(inst.rs1, is_dise),
                            is_dise)
        self._advance()

    def _h_alu_imm(self, inst: Instruction, d, is_dise: bool) -> None:
        if d.fast_regs:
            regs = self.regs
            regs[inst.rd] = d.alu_func(regs[inst.rs1], inst.imm & MASK64)
        else:
            a = self._read_reg(inst.rs1, is_dise)
            self._write_reg(inst.rd, d.alu_func(a, inst.imm & MASK64),
                            is_dise)
        self._advance()

    def _h_alu_reg(self, inst: Instruction, d, is_dise: bool) -> None:
        if d.fast_regs:
            regs = self.regs
            regs[inst.rd] = d.alu_func(regs[inst.rs1], regs[inst.rs2])
        else:
            a = self._read_reg(inst.rs1, is_dise)
            b = self._read_reg(inst.rs2, is_dise)
            self._write_reg(inst.rd, d.alu_func(a, b), is_dise)
        self._advance()

    def _h_load(self, inst: Instruction, d, is_dise: bool) -> None:
        if d.fast_regs:
            regs = self.regs
            ea = (regs[inst.rs1] + inst.imm) & MASK64
            regs[inst.rd] = self.memory.read_int(ea, d.mem_size)
        else:
            ea = (self._read_reg(inst.rs1, is_dise) + inst.imm) & MASK64
            self._write_reg(inst.rd, self.memory.read_int(ea, d.mem_size),
                            is_dise)
        self.stats.loads += 1
        if self.timing is not None:
            self.timing.load(ea)
        self._advance()

    def _h_store(self, inst: Instruction, d, is_dise: bool) -> None:
        if d.fast_regs:
            regs = self.regs
            ea = (regs[inst.rs1] + inst.imm) & MASK64
            value = regs[inst.rd]
        else:
            ea = (self._read_reg(inst.rs1, is_dise) + inst.imm) & MASK64
            value = self._read_reg(inst.rd, is_dise)
        size = d.mem_size
        self.last_store_addr = ea
        self.last_store_size = size
        self.last_store_value = value
        if is_dise:
            self._expansion_did_store = True
        self.stats.stores += 1
        if self.timing is not None:
            self.timing.store(ea)
        self._finish_store(ea, size, value)

    def _finish_store(self, ea: int, size: int, value: int) -> None:
        memory = self.memory
        observer = self.store_observer
        if observer is not None:
            observer(ea, size, value, memory.read_int(ea, size))
        pagetable = self.pagetable
        faulted = pagetable.any_protected and pagetable.check_store(ea, size)
        memory.write_int(ea, size, value)
        if ea < self._text_end and ea + size > self._text_base:
            self._note_text_store(ea, size)
        if faulted:
            self.stats.page_fault_traps += 1
            self.deliver_trap(TrapEvent(TrapKind.PAGE_FAULT, self.pc,
                                        ea, size, value))
        if self.hw_watch_ranges:
            end = ea + size
            for lo, hi in self.hw_watch_ranges:
                if ea < hi and end > lo:
                    self.deliver_trap(TrapEvent(
                        TrapKind.HW_WATCHPOINT, self.pc, ea, size, value))
                    break
        self._advance()

    def _h_branch(self, inst: Instruction, d, is_dise: bool) -> None:
        value = (self.regs[inst.rs1] if d.fast_regs
                 else self._read_reg(inst.rs1, is_dise))
        taken = d.branch_func(value)
        stats = self.stats
        stats.branches += 1
        if self.timing is not None:
            # Decorrelate predictor indices of expansion-internal
            # branches from the trigger's own PC.
            branch_pc = self.pc + (self._exp_index << 20 if is_dise else 0)
            self.timing.conditional_branch(branch_pc, taken)
        if taken:
            stats.taken_branches += 1
            self._jump(inst.target)
        else:
            self._advance()

    def _h_jump_br(self, inst: Instruction, d, is_dise: bool) -> None:
        if self.timing is not None:
            self.timing.direct_jump()
        self._jump(inst.target)

    def _h_jump_jsr(self, inst: Instruction, d, is_dise: bool) -> None:
        if self._expansion is not None:
            return_pc = self._trigger_pc + INSTRUCTION_BYTES
        else:
            return_pc = self.pc + INSTRUCTION_BYTES
        if d.fast_regs:
            self.regs[inst.rd] = return_pc
        else:
            self._write_reg(inst.rd, return_pc, is_dise)
        if self.timing is not None:
            self.timing.call(self.pc, return_pc)
        self._jump(inst.target)

    def _h_jump_ret(self, inst: Instruction, d, is_dise: bool) -> None:
        target = (self.regs[inst.rs1] if d.fast_regs
                  else self._read_reg(inst.rs1, is_dise))
        if self.timing is not None:
            self.timing.return_(self.pc, target)
        self._jump(target)

    def _h_jump_jmp(self, inst: Instruction, d, is_dise: bool) -> None:
        target = (self.regs[inst.rs1] if d.fast_regs
                  else self._read_reg(inst.rs1, is_dise))
        if self.timing is not None:
            self.timing.indirect_jump(self.pc, target)
        self._jump(target)

    def _h_trap(self, inst: Instruction, d, is_dise: bool) -> None:
        self._deliver_explicit_trap(is_dise)
        self._advance()

    def _h_ctrap(self, inst: Instruction, d, is_dise: bool) -> None:
        value = (self.regs[inst.rs1] if d.fast_regs
                 else self._read_reg(inst.rs1, is_dise))
        if value != 0:
            self._deliver_explicit_trap(is_dise)
        self._advance()

    def _h_dise_branch(self, inst: Instruction, d, is_dise: bool) -> None:
        expansion = self._expansion
        if expansion is None:
            raise SimulationError("DISE branch outside a replacement "
                                  f"sequence at pc={self.pc:#x}")
        opcode = inst.opcode
        if opcode is Opcode.D_BR:
            taken = True
        else:
            value = self._read_reg(inst.rs1, True)
            taken = (value == 0) if opcode is Opcode.D_BEQ else (value != 0)
        if not taken:
            self._advance()
            return
        self.stats.dise_branch_flushes += 1
        if self.timing is not None:
            self.timing.dise_branch_taken()
        self._exp_index += 1 + inst.imm
        if self._exp_index >= len(expansion):
            self._expansion = None
            self.pc = self._trigger_pc + INSTRUCTION_BYTES

    def _h_dise_call(self, inst: Instruction, d, is_dise: bool) -> None:
        if (inst.opcode is Opcode.D_CCALL
                and self._read_reg(inst.rs1, True) == 0):
            self._advance()
            return
        if self._expansion is None:
            raise SimulationError("DISE call outside a replacement "
                                  f"sequence at pc={self.pc:#x}")
        self._dise_return = (self._trigger_pc, self._expansion,
                             self._exp_index + 1)
        self._in_dise_function = True
        self._expansion = None
        timing = self.timing
        if timing is not None:
            suppressed = timing.dise_call()
            if not suppressed:
                self.stats.dise_call_flushes += 1
        self.pc = inst.target

    def _h_dise_ret(self, inst: Instruction, d, is_dise: bool) -> None:
        if not self._in_dise_function or self._dise_return is None:
            raise SimulationError(
                f"d_ret outside a DISE-called function at pc={self.pc:#x}")
        trigger_pc, expansion, resume = self._dise_return
        self._dise_return = None
        self._in_dise_function = False
        timing = self.timing
        if timing is not None:
            timing.dise_return()
            self.stats.dise_call_flushes += 0 if timing.multithreaded else 1
        if resume >= len(expansion):
            self._expansion = None
            self.pc = trigger_pc + INSTRUCTION_BYTES
        else:
            self._expansion = expansion
            self._exp_index = resume
            self._trigger_pc = trigger_pc

    def _h_dise_move(self, inst: Instruction, d, is_dise: bool) -> None:
        if not self._in_dise_function:
            raise SimulationError(
                f"{inst.info.mnemonic} outside a DISE-called function "
                f"at pc={self.pc:#x}")
        if inst.opcode is Opcode.D_MFR:
            self._write_reg(inst.rd, self.dise_regs.read(inst.imm), False)
        else:  # D_MTR
            self.dise_regs.write(inst.imm, self._read_reg(inst.rs1, False))
        self._advance()

    def _h_halt(self, inst: Instruction, d, is_dise: bool) -> None:
        self.halted = True

    def _h_codeword(self, inst: Instruction, d, is_dise: bool) -> None:
        raise SimulationError(
            f"codeword {inst.imm} executed without a matching DISE "
            f"production at pc={self.pc:#x}")

    # -- kernel traps (syscall / eret / timer) -------------------------------

    def _enter_trap(self, cause: int, epc: int, value: int) -> None:
        """Architectural trap entry: latch cause/epc/value, go kernel.

        With a guest trap vector installed, fetch redirects there (the
        run continues inside the guest handler until ``eret``); without
        one the cause is held pending for the host.
        """
        self.trap_cause = cause
        self.trap_epc = epc
        self.trap_value = value
        self.kernel_mode = True
        if self.trap_vector:
            if self.timing is not None:
                self.timing.flush()
            self._jump(self.trap_vector)
        else:
            self.pending_trap = cause

    def _h_syscall(self, inst: Instruction, d, is_dise: bool) -> None:
        num = self.regs[1]
        self._advance()
        if self._kernel is not None or self.trap_vector:
            # epc names the instruction after the syscall, so eret (or
            # the kernel's resume) continues past it.
            self._enter_trap(CAUSE_SYSCALL, self.pc, num)
            if self.pending_trap is not None:
                raise _TrapPending
            return
        # Standalone machine, no handler: emulate the host OS inline so
        # single-process programs using syscalls run (and conform)
        # without a kernel.  pids start at 1, matching a single-process
        # kernel, so the two execution modes agree architecturally.
        if num == SYS_GETPID:
            self.regs[1] = 1
        elif num == SYS_EXIT:
            self.halted = True

    def _h_eret(self, inst: Instruction, d, is_dise: bool) -> None:
        if not self.kernel_mode:
            raise SimulationError(f"eret in user mode at pc={self.pc:#x}")
        self.kernel_mode = False
        if self.timing is not None:
            self.timing.flush()
        self._jump(self.trap_epc)

    # The dispatch table, in handler-index order.  Plain functions, not
    # methods bound per machine: a bound table would make every machine
    # a reference cycle, kept alive until the cycle collector runs.
    # H_NOP has no handler: the loop elides every NOP before dispatch.
    _HANDLERS: list = [None] * NUM_HANDLERS
    _HANDLERS[H_ALU_LDA] = _h_alu_lda
    _HANDLERS[H_ALU_MOV] = _h_alu_mov
    _HANDLERS[H_ALU_IMM] = _h_alu_imm
    _HANDLERS[H_ALU_REG] = _h_alu_reg
    _HANDLERS[H_LOAD] = _h_load
    _HANDLERS[H_STORE] = _h_store
    _HANDLERS[H_BRANCH] = _h_branch
    _HANDLERS[H_JUMP_BR] = _h_jump_br
    _HANDLERS[H_JUMP_JSR] = _h_jump_jsr
    _HANDLERS[H_JUMP_RET] = _h_jump_ret
    _HANDLERS[H_JUMP_JMP] = _h_jump_jmp
    _HANDLERS[H_TRAP] = _h_trap
    _HANDLERS[H_CTRAP] = _h_ctrap
    _HANDLERS[H_DISE_BRANCH] = _h_dise_branch
    _HANDLERS[H_DISE_CALL] = _h_dise_call
    _HANDLERS[H_DISE_RET] = _h_dise_ret
    _HANDLERS[H_DISE_MOVE] = _h_dise_move
    _HANDLERS[H_HALT] = _h_halt
    _HANDLERS[H_CODEWORD] = _h_codeword
    _HANDLERS[H_SYSCALL] = _h_syscall
    _HANDLERS[H_ERET] = _h_eret
    _HANDLERS = tuple(_HANDLERS)

    # -- legacy interpreter ------------------------------------------------------
    #
    # The pre-dispatch-table interpreter, preserved verbatim (modulo the
    # interactive-stop and trap-context bugfixes, which apply to both
    # paths) as the ``"legacy"`` tier.  The differential suite runs it
    # against the dispatch table to prove the rewrite is bit-identical;
    # remove it once that guarantee has baked.

    def _run_legacy(self, limit: int) -> None:
        stats = self.stats
        timing = self.timing
        regs = self.regs
        memory = self.memory
        pagetable = self.pagetable
        engine = self.dise_engine
        text = self._text
        text_base = self._text_base

        while not self.halted:
            if limit >= 0 and stats.app_instructions >= limit:
                break
            if self.stopped_at_user:
                break

            expansion = self._expansion
            if expansion is not None:
                inst = expansion[self._exp_index]
                is_dise = True
            else:
                pc = self.pc
                index = (pc - text_base) >> 2
                if index < 0 or index >= len(text):
                    raise SimulationError(f"fetch outside text: pc={pc:#x}")
                inst = text[index]
                if self.breakpoint_registers or self.single_step:
                    if not self._fetch_stage_traps(pc):
                        break
                if timing is not None:
                    timing.fetch(pc)
                if engine._productions and not self._in_dise_function:
                    seq = engine.expand(inst, pc)
                    if seq is not None:
                        stats.dise_expansions += 1
                        self._expansion = expansion = seq
                        self._exp_index = 0
                        self._trigger_pc = pc
                        self._expansion_did_store = False
                        inst = seq[0]
                        is_dise = True
                    else:
                        is_dise = False
                else:
                    is_dise = False

            self._execute(inst, is_dise, stats, timing, regs, memory,
                          pagetable)

    # pylint: disable=too-many-branches,too-many-statements
    def _execute(self, inst: Instruction, is_dise: bool, stats, timing,
                 regs, memory, pagetable) -> None:
        """Execute one instruction and update fetch state (legacy path)."""
        opclass = inst.info.opclass
        opcode = inst.opcode

        # -- account the committed instruction -----------------------------
        if opclass is OpClass.NOP:
            stats.nops_elided += 1
            self._advance()
            return
        if is_dise:
            if self._exp_index == 0:
                stats.app_instructions += 1
            else:
                stats.dise_instructions += 1
        elif self._in_dise_function:
            stats.function_instructions += 1
        elif self.instrumentation_pcs and self.pc in self.instrumentation_pcs:
            stats.dise_instructions += 1
        else:
            stats.app_instructions += 1
        if timing is not None:
            timing.commit()

        dise_ok = is_dise  # may DISE registers be named as operands?

        if opclass is OpClass.ALU:
            if inst.info.format is Format.MEMORY:  # lda
                base = self._read_reg(inst.rs1, dise_ok)
                self._write_reg(inst.rd, (base + inst.imm) & MASK64, dise_ok)
            elif opcode is Opcode.MOV:
                self._write_reg(inst.rd, self._read_reg(inst.rs1, dise_ok),
                                dise_ok)
            else:
                a = self._read_reg(inst.rs1, dise_ok)
                b = (self._read_reg(inst.rs2, dise_ok)
                     if inst.rs2 is not None else inst.imm & MASK64)
                self._write_reg(inst.rd, alu_result(opcode, a, b), dise_ok)
            self._advance()
            return

        if opclass is OpClass.LOAD:
            base = self._read_reg(inst.rs1, dise_ok)
            ea = (base + inst.imm) & MASK64
            size = inst.info.mem_size
            value = memory.read_int(ea, size)
            self._write_reg(inst.rd, value, dise_ok)
            stats.loads += 1
            if timing is not None:
                timing.load(ea)
            self._advance()
            return

        if opclass is OpClass.STORE:
            base = self._read_reg(inst.rs1, dise_ok)
            ea = (base + inst.imm) & MASK64
            size = inst.info.mem_size
            value = self._read_reg(inst.rd, dise_ok)
            self.last_store_addr = ea
            self.last_store_size = size
            self.last_store_value = value
            if is_dise:
                self._expansion_did_store = True
            stats.stores += 1
            if timing is not None:
                timing.store(ea)
            observer = self.store_observer
            if observer is not None:
                observer(ea, size, value, memory.read_int(ea, size))
            faulted = pagetable.any_protected and pagetable.check_store(ea, size)
            memory.write_int(ea, size, value)
            if ea < self._text_end and ea + size > self._text_base:
                self._note_text_store(ea, size)
            if faulted:
                stats.page_fault_traps += 1
                self.deliver_trap(TrapEvent(TrapKind.PAGE_FAULT, self.pc,
                                            ea, size, value))
            if self.hw_watch_ranges:
                end = ea + size
                for lo, hi in self.hw_watch_ranges:
                    if ea < hi and end > lo:
                        self.deliver_trap(TrapEvent(
                            TrapKind.HW_WATCHPOINT, self.pc, ea, size, value))
                        break
            self._advance()
            return

        if opclass is OpClass.BRANCH:
            value = self._read_reg(inst.rs1, dise_ok)
            taken = branch_taken(opcode, value)
            stats.branches += 1
            if timing is not None:
                # Decorrelate predictor indices of expansion-internal
                # branches from the trigger's own PC.
                branch_pc = self.pc + (self._exp_index << 20 if is_dise else 0)
                timing.conditional_branch(branch_pc, taken)
            if taken:
                stats.taken_branches += 1
                self._jump(inst.target)
            else:
                self._advance()
            return

        if opclass is OpClass.JUMP:
            self._execute_jump(inst, opcode, dise_ok, timing)
            return

        if opclass is OpClass.TRAP:
            if opcode is Opcode.CTRAP:
                if self._read_reg(inst.rs1, dise_ok) == 0:
                    self._advance()
                    return
            self._deliver_explicit_trap(is_dise)
            self._advance()
            return

        if opclass is OpClass.DISE_BRANCH:
            self._execute_dise_branch(inst, opcode, stats, timing)
            return

        if opclass is OpClass.DISE_CALL:
            taken = True
            if opcode is Opcode.D_CCALL:
                taken = self._read_reg(inst.rs1, True) != 0
            if not taken:
                self._advance()
                return
            if self._expansion is None:
                raise SimulationError("DISE call outside a replacement "
                                      f"sequence at pc={self.pc:#x}")
            self._dise_return = (self._trigger_pc, self._expansion,
                                 self._exp_index + 1)
            self._in_dise_function = True
            self._expansion = None
            suppressed = timing.dise_call() if timing is not None else True
            if not suppressed:
                stats.dise_call_flushes += 1
            self.pc = inst.target
            return

        if opclass is OpClass.DISE_RET:
            if not self._in_dise_function or self._dise_return is None:
                raise SimulationError(
                    f"d_ret outside a DISE-called function at pc={self.pc:#x}")
            trigger_pc, expansion, resume = self._dise_return
            self._dise_return = None
            self._in_dise_function = False
            if timing is not None:
                timing.dise_return()
                stats.dise_call_flushes += 0 if timing.multithreaded else 1
            if resume >= len(expansion):
                self._expansion = None
                self.pc = trigger_pc + INSTRUCTION_BYTES
            else:
                self._expansion = expansion
                self._exp_index = resume
                self._trigger_pc = trigger_pc
            return

        if opclass is OpClass.DISE_MOVE:
            if not self._in_dise_function:
                raise SimulationError(
                    f"{inst.info.mnemonic} outside a DISE-called function "
                    f"at pc={self.pc:#x}")
            if opcode is Opcode.D_MFR:
                self._write_reg(inst.rd, self.dise_regs.read(inst.imm), False)
            else:  # D_MTR
                self.dise_regs.write(inst.imm,
                                     self._read_reg(inst.rs1, False))
            self._advance()
            return

        if opclass is OpClass.HALT:
            self.halted = True
            return

        if opclass is OpClass.CODEWORD:
            raise SimulationError(
                f"codeword {inst.imm} executed without a matching DISE "
                f"production at pc={self.pc:#x}")

        if opclass is OpClass.SYSCALL:
            self._h_syscall(inst, None, is_dise)
            return

        if opclass is OpClass.ERET:
            if not self.kernel_mode:
                raise SimulationError(
                    f"eret in user mode at pc={self.pc:#x}")
            self.kernel_mode = False
            if timing is not None:
                timing.flush()
            self._jump(self.trap_epc)
            return

        raise SimulationError(f"unhandled opcode {opcode.name}")

    # -- control-flow helpers --------------------------------------------------

    def _advance(self) -> None:
        if self._expansion is not None:
            self._exp_index += 1
            if self._exp_index >= len(self._expansion):
                self._expansion = None
                self.pc = self._trigger_pc + INSTRUCTION_BYTES
        else:
            self.pc += INSTRUCTION_BYTES

    def _jump(self, target: int) -> None:
        """Conventional control transfer: <newPC : 0>."""
        self._expansion = None
        self.pc = target

    def _execute_jump(self, inst: Instruction, opcode: Opcode,
                      dise_ok: bool, timing) -> None:
        if opcode is Opcode.BR:
            if timing is not None:
                timing.direct_jump()
            self._jump(inst.target)
            return
        if opcode is Opcode.JSR:
            if self._expansion is not None:
                return_pc = self._trigger_pc + INSTRUCTION_BYTES
            else:
                return_pc = self.pc + INSTRUCTION_BYTES
            self._write_reg(inst.rd, return_pc, dise_ok)
            if timing is not None:
                timing.call(self.pc, return_pc)
            self._jump(inst.target)
            return
        target = self._read_reg(inst.rs1, dise_ok)
        if opcode is Opcode.RET:
            if timing is not None:
                timing.return_(self.pc, target)
            self._jump(target)
            return
        # JMP
        if timing is not None:
            timing.indirect_jump(self.pc, target)
        self._jump(target)

    def _execute_dise_branch(self, inst: Instruction, opcode: Opcode,
                             stats, timing) -> None:
        if self._expansion is None:
            raise SimulationError("DISE branch outside a replacement "
                                  f"sequence at pc={self.pc:#x}")
        if opcode is Opcode.D_BR:
            taken = True
        else:
            value = self._read_reg(inst.rs1, True)
            taken = (value == 0) if opcode is Opcode.D_BEQ else (value != 0)
        if not taken:
            self._advance()
            return
        stats.dise_branch_flushes += 1
        if timing is not None:
            timing.dise_branch_taken()
        self._exp_index += 1 + inst.imm
        if self._exp_index >= len(self._expansion):
            self._expansion = None
            self.pc = self._trigger_pc + INSTRUCTION_BYTES
