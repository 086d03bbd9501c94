"""The compiled execution tier: basic blocks fused into Python closures.

The dispatch-table interpreter pays per-instruction overhead that has
nothing to do with the instruction itself: the run-limit and stop
checks, the expansion-state test, the fetch bounds check, the DISE
candidate probes, and the handler dispatch.  This
tier hoists all of it out of the instruction stream, in the style of a
dynamic binary translator: decoded basic blocks are compiled — once —
into specialized Python functions ("superinstructions") that execute
the whole block with plain local-variable arithmetic, and a chain loop
runs block to block through a block cache keyed on the entry PC.

Division of labor (the fast path pays for nothing it does not use):

* Every per-run condition that would change per-instruction semantics
  runs on the *table* interpreter.  Breakpoint registers and
  single-stepping trap at every fetch, so a run under either hands the
  whole call to the table loop (which is restartable at any instruction
  boundary).  An active expansion or a DISE-called function routes to
  :meth:`CompiledTier._step`, which runs the table interpreter for
  exactly one application instruction.  The compiled tier therefore
  never re-implements trap delivery, expansion control flow, or stop
  semantics; it inherits them, bit for bit.
* Every per-PC condition — a DISE production candidate, an
  instrumentation PC, a non-``fast_regs`` operand, a trap/halt/codeword
  instruction, a store while stores are observable (page protections,
  hardware watchpoints, a store observer) — ends the block at that
  instruction, which then executes through :meth:`_step` as well (the
  block cache remembers pure-boundary PCs as ``_FALLBACK``).
* Everything else — the overwhelming steady state of an undebugged or
  DISE-debugged run — executes inside generated code.

Invalidation: compiled blocks are specialized against a captured
environment — the machine's ``text_version`` (bumped by ``reload_text``,
``patch_text``, and self-modifying stores into text), the DISE engine's
resident productions (compared by identity and order, which covers
controller install/activate/deactivate and restore *and* per-process
gating at context switches — a process whose resident set is unchanged
when it is scheduled back in keeps its compiled blocks), the identity
of ``instrumentation_pcs``, and the store-observability predicates.
:meth:`CompiledTier._stale` compares the capture against live state
before every chain entry and flushes the whole cache on any mismatch;
additionally the chain loop re-checks ``text_version`` after every
block so a self-modifying store takes effect at the very next block
boundary, and :meth:`repro.cpu.machine.Machine.restore` flushes
unconditionally so a snapshot taken under different code can never
resurrect stale blocks.

Timing runs compile the timing-model calls (fetch/commit/load/store/
branch events) directly into the block, in table-interpreter order, so
cycle counts are identical; functional runs compile none of them.

Code objects are shared per process: :func:`_code` memoizes
``compile()`` by generated source and entry PC.  Sharing is exact
because a block's source spells every environment input that shapes it
(PCs, text bounds, the text version in loop guards, timed or
functional), the generated function takes the machine and its state as
arguments, and each machine still ``exec``s the code in its own
namespace, which binds that block's ALU functions.  Block caches,
visit counts and ``_FALLBACK`` decisions stay per machine.
"""

from __future__ import annotations

import functools
import weakref

from repro.cpu.functional import MASK64, SIGN_BIT
from repro.memory.main_memory import PAGE_BYTES
from repro.isa.instruction import (H_ALU_IMM, H_ALU_LDA, H_ALU_MOV, H_ALU_REG,
                                   H_BRANCH, H_JUMP_BR, H_JUMP_JMP, H_JUMP_JSR,
                                   H_JUMP_RET, H_LOAD, H_NOP, H_STORE)
from repro.isa.opcodes import Opcode

# Cache entry marking a PC whose instruction must run on the table
# interpreter (DISE candidate, trap, non-fast operands, ...).
_FALLBACK = object()


def _DISCARD(line):
    """Sink for lines gathered past a tile cut (see ``_compile``)."""

# Superblock growth bound: BR splicing and branch fallthrough keep
# extending a block; cap it so compile time and limit-guard slack
# (blocks only run when the *full* path fits under the run limit)
# stay small.  Functional mode affords a much larger cap — blocks
# carry no per-instruction timing calls, and if-conversion means a
# whole multi-thousand-instruction loop body can fuse into one
# (heavily amortized) block — while the timed tier keeps blocks small
# so near-limit runs degrade into fewer single-stepped instructions.
MAX_BLOCK = 320
MAX_BLOCK_FUNCTIONAL = 8192

# Hot-entry threshold: an entry PC is compiled on its Nth chain-loop
# visit.  Until then execution proceeds in COLD_CHUNK-application-
# instruction bursts of the table interpreter, so code that never gets
# hot (cold paths of a large text footprint) never pays ``compile()``
# cost — on large workloads first-visit compilation spends more time
# compiling trickling-in cold entries than it saves executing them.
# The default threshold (``MachineConfig.compiled_hot_threshold``) is
# high enough that the arbitrary chunk-boundary PCs minted while
# re-joining known blocks after a run-limit stop (up to a full lap of
# a big loop per resume) rarely accumulate enough visits to compile a
# redundant overlapping block.
COLD_CHUNK = 8

# If-conversion bound: a forward conditional branch skipping at most
# this many simple instructions is compiled as an inverted ``if``
# around the skipped region instead of a block exit.  Periodic-event
# "skip" branches (taken on almost every iteration) would otherwise
# exit a fused loop every time through.
IF_MAX = 16

_PAGE_MASK = PAGE_BYTES - 1
_PAGE_SHIFT = PAGE_BYTES.bit_length() - 1

# Code-cache bound: distinct block sources kept compiled per process.
# One pass of perfbench's conformance workload (16 entries, 18 runs
# each) compiles 622.
CODE_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code(src: str, start_pc: int):
    """The code object of a generated block (see the module docstring)."""
    return compile(src, f"<block@{start_pc:#x}>", "exec")


_INLINE_ALU = frozenset({
    Opcode.ADDQ, Opcode.SUBQ, Opcode.MULQ, Opcode.AND, Opcode.BIS,
    Opcode.XOR, Opcode.BIC, Opcode.SLL, Opcode.SRL, Opcode.CMPEQ,
    Opcode.CMPLT, Opcode.CMPLE, Opcode.CMPULT, Opcode.CMPULE,
})


def _alu_expr(op: Opcode, a: str, b: str, bval) -> str | None:
    """Inline expression for ``a OP b`` (unsigned-64 domain), or None.

    ``bval`` is the immediate operand's value (pre-masked, as the table
    handler passes it) when the second operand is a literal, letting
    signed compares / BIC / shifts fold their operand transform into
    the constant.  Signed comparisons use the bias trick:
    ``signed(a) < signed(b)  <=>  (a ^ SB) < (b ^ SB)`` unsigned.
    """
    if op is Opcode.ADDQ:
        return f"({a} + {b}) & M"
    if op is Opcode.SUBQ:
        return f"({a} - {b}) & M"
    if op is Opcode.MULQ:
        return f"({a} * {b}) & M"
    if op is Opcode.AND:
        return f"{a} & {b}"
    if op is Opcode.BIS:
        return f"{a} | {b}"
    if op is Opcode.XOR:
        return f"{a} ^ {b}"
    if op is Opcode.BIC:
        if bval is not None:
            return f"{a} & {(~bval) & MASK64}"
        return f"{a} & ~{b} & M"
    if op is Opcode.SLL:
        if bval is not None:
            return f"({a} << {bval & 63}) & M"
        return f"({a} << ({b} & 63)) & M"
    if op is Opcode.SRL:
        if bval is not None:
            return f"({a} >> {bval & 63}) & M"
        return f"({a} >> ({b} & 63)) & M"
    if op is Opcode.CMPEQ:
        return f"1 if {a} == {b} else 0"
    if op is Opcode.CMPULT:
        return f"1 if {a} < {b} else 0"
    if op is Opcode.CMPULE:
        return f"1 if {a} <= {b} else 0"
    if op is Opcode.CMPLT:
        if bval is not None:
            return f"1 if ({a} ^ SB) < {bval ^ SIGN_BIT} else 0"
        return f"1 if ({a} ^ SB) < ({b} ^ SB) else 0"
    if op is Opcode.CMPLE:
        if bval is not None:
            return f"1 if ({a} ^ SB) <= {bval ^ SIGN_BIT} else 0"
        return f"1 if ({a} ^ SB) <= ({b} ^ SB) else 0"
    return None  # SRA (needs arithmetic shift) and future opcodes


def _branch_cond(op: Opcode, v: str) -> str | None:
    """Branch condition on register value ``v`` (unsigned-64 domain)."""
    if op is Opcode.BEQ:
        return f"{v} == 0"
    if op is Opcode.BNE:
        return f"{v} != 0"
    if op is Opcode.BLT:  # signed < 0: sign bit set
        return f"{v} >= SB"
    if op is Opcode.BGE:
        return f"{v} < SB"
    if op is Opcode.BLE:
        return f"{v} == 0 or {v} >= SB"
    if op is Opcode.BGT:
        return f"0 < {v} < SB"
    return None


def _branch_cond_neg(op: Opcode, v: str) -> str | None:
    """The *negation* of :func:`_branch_cond`, as a direct expression.

    If-converted guards test the fall-through direction; emitting the
    inverse comparison saves a ``not`` on the hot path."""
    if op is Opcode.BEQ:
        return f"{v} != 0"
    if op is Opcode.BNE:
        return f"{v} == 0"
    if op is Opcode.BLT:
        return f"{v} < SB"
    if op is Opcode.BGE:
        return f"{v} >= SB"
    if op is Opcode.BLE:
        return f"0 < {v} < SB"
    if op is Opcode.BGT:
        return f"{v} == 0 or {v} >= SB"
    return None


def _alu_line(inst, d, ns: dict) -> str:
    """The assignment a fast-register ALU instruction compiles to.

    An opcode :func:`_alu_expr` cannot inline calls its semantic
    function, bound into the block namespace ``ns``.
    """
    a = f"regs[{inst.rs1}]"
    h = d.handler_index
    if h == H_ALU_LDA:
        expr = f"({a} + {inst.imm}) & M"
    elif h == H_ALU_MOV:
        expr = a
    else:
        if h == H_ALU_IMM:
            bval = inst.imm & MASK64
            b = str(bval)
        else:
            bval = None
            b = f"regs[{inst.rs2}]"
        expr = _alu_expr(inst.opcode, a, b, bval)
        if expr is None:
            fn = f"_f{len(ns)}"
            ns[fn] = d.alu_func
            expr = f"{fn}({a}, {b})"
    return f"regs[{inst.rd}] = {expr}"


def _load_lines(inst, d, timed: bool) -> list[str]:
    """A fast-register load with ``MainMemory.read_int`` inlined.

    The fast path reads a resident page directly; missing pages and
    page-crossing accesses call ``read_int``.
    """
    size = d.mem_size
    lines = [f"_a = (regs[{inst.rs1}] + {inst.imm}) & M",
             f"_p = pg(_a >> {_PAGE_SHIFT})",
             f"_o = _a & {_PAGE_MASK}",
             f"regs[{inst.rd}] = (fb(_p[_o:_o + {size}], 'little') "
             f"if _p is not None and _o <= {PAGE_BYTES - size} "
             f"else read_int(_a, {size}))"]
    if timed:
        lines.append("t.load(_a)")
    return lines


def _store_lines(inst, d, timed: bool, text_base: int,
                 text_end: int) -> list[str]:
    """A fast-register store with ``MainMemory.write_int`` inlined.

    The fast path writes a resident, unfrozen page directly; frozen
    pages (live snapshots) take the copy-on-write slow path.  The
    caller records the last-store context (:func:`_last_store_lines`).
    """
    size = d.mem_size
    masked = "_sv" if size == 8 else f"(_sv & {(1 << (8 * size)) - 1})"
    lines = [f"_sa = (regs[{inst.rs1}] + {inst.imm}) & M",
             f"_sv = regs[{inst.rd}]"]
    if timed:
        lines.append("t.store(_sa)")
    lines += [f"_pn = _sa >> {_PAGE_SHIFT}",
              f"_o = _sa & {_PAGE_MASK}",
              "_p = pg(_pn)",
              f"if _p is None or _o > {PAGE_BYTES - size} or _pn in frozen:",
              f"    write_int(_sa, {size}, _sv)",
              "else:",
              f"    _p[_o:_o + {size}] = {masked}.to_bytes({size}, 'little')",
              f"if _sa < {text_end} and _sa + {size} > {text_base}:",
              f"    m._note_text_store(_sa, {size})"]
    return lines


def _last_store_lines(size: int) -> list[str]:
    """Record the store context trap delivery attaches (see Machine)."""
    return ["m.last_store_addr = _sa", f"m.last_store_size = {size}",
            "m.last_store_value = _sv"]


class CompiledTier:
    """Block compiler + chain-dispatch loop for one machine."""

    def __init__(self, machine):
        # Held weakly: the machine owns this tier, and a strong
        # back-reference would keep both alive until the cycle
        # collector ran.
        self._machine = weakref.ref(machine)
        self._timed = machine.timing is not None
        self._hot_threshold = machine.config.compiled_hot_threshold
        # entry pc -> (block function, max app instructions) | _FALLBACK
        self.blocks: dict = {}
        # entry pc -> chain-loop visit count (hot-threshold warmup).
        # Survives flush(): hotness is a property of the program's
        # control flow, not of the current code version, so previously
        # hot entries recompile on first visit after an invalidation.
        self._warm: dict = {}
        # Captured environment the cached blocks were specialized
        # against; None text_version means "never captured".
        self._text_version = None
        self._engine_prods = None
        self._ips = None
        self._any_protected = None
        self._hw_watch = None
        self._has_store_observer = None

    # -- cache validity ----------------------------------------------------

    def flush(self) -> None:
        """Drop every compiled block (restore, external invalidation)."""
        self.blocks.clear()
        self._text_version = None

    def _stale(self) -> bool:
        """Does the live machine environment differ from the capture?"""
        m = self._machine()
        return (self._text_version != m.text_version
                or self._engine_prods != m.dise_engine.productions
                or self._ips is not m.instrumentation_pcs
                or self._any_protected != m.pagetable.any_protected
                or self._hw_watch != bool(m.hw_watch_ranges)
                or self._has_store_observer != (m.store_observer is not None))

    def _capture(self) -> None:
        self.blocks.clear()
        m = self._machine()
        self._text_version = m.text_version
        self._engine_prods = m.dise_engine.productions
        self._ips = m.instrumentation_pcs
        self._any_protected = m.pagetable.any_protected
        self._hw_watch = bool(m.hw_watch_ranges)
        self._has_store_observer = m.store_observer is not None

    # -- execution ---------------------------------------------------------

    def _step(self) -> None:
        """Run the table interpreter for one application instruction.

        The limit is expressed in the table loop's own terms (run until
        ``app_instructions`` reaches current + 1), so expansions, DISE
        functions, free nops, and traps behave exactly as they do there
        — including a stop or halt before the commit.
        """
        m = self._machine()
        m._run_table(m.stats.app_instructions + 1)

    def run(self, limit: int) -> None:
        """The compiled tier's top-level loop (mirrors _run_table)."""
        m = self._machine()
        step = self._step
        while not m.halted:
            if m.stopped_at_user:
                break
            stats = m.stats
            if 0 <= limit <= stats.app_instructions:
                break
            if self._text_version is None or self._stale():
                self._capture()
            if m.breakpoint_registers or m.single_step:
                # Every fetch may trap: the table loop delivers those
                # traps itself, so it runs the rest of the call.
                m._run_table(limit)
                continue
            if m._expansion is not None or m._in_dise_function:
                step()
                continue
            blocks = self.blocks
            get = blocks.get
            warm = self._warm
            regs = m.regs
            memory = m.memory
            t = m.timing
            tv = m.text_version
            pc = m.pc
            # Self-looping blocks iterate inside generated code until
            # the next iteration could overshoot this bound.
            lim = limit if limit >= 0 else (1 << 62)
            while True:
                if 0 <= limit <= stats.app_instructions:
                    m.pc = pc
                    break
                entry = get(pc)
                if entry is None:
                    visits = warm.get(pc, 0) + 1
                    if visits < self._hot_threshold:
                        # Cold entry: burn a chunk on the table
                        # interpreter rather than paying compile()
                        # for code that may never recur.
                        warm[pc] = visits
                        m.pc = pc
                        target = stats.app_instructions + COLD_CHUNK
                        if 0 <= limit < target:
                            target = limit
                        m._run_table(target)
                        break  # outer loop revalidates stop/halt/stale
                    entry = self._compile(pc)
                    blocks[pc] = entry
                if entry is _FALLBACK:
                    m.pc = pc
                    step()
                    break
                if limit >= 0 and stats.app_instructions + entry[1] > limit:
                    # The full block might overshoot the run limit:
                    # finish the tail on the table interpreter in one
                    # call.  (Stepping through the chain loop instead
                    # would mint warm-counts — and eventually compile
                    # entries — for every chunk boundary of a tail that
                    # executes only once per run() call.)
                    m.pc = pc
                    m._run_table(limit)
                    break
                pc = entry[0](m, regs, memory, stats, t, lim)
                if m.text_version != tv:
                    # A self-modifying store ran inside the block:
                    # revalidate (and recompile) before chaining on.
                    m.pc = pc
                    break

    # -- block compilation -------------------------------------------------

    def _compile(self, start_pc: int, loop_mode: bool = False):
        """Translate the basic block entered at ``start_pc``.

        Returns ``(function, max_app_count)`` or ``_FALLBACK``.  The
        generated function has signature ``(m, regs, memory, stats, t,
        lim)`` and returns the next fetch PC.

        Straight-line blocks batch statistics deltas at compile time
        and flush them (with the last-store context) at every exit.

        When gathering meets a conditional branch back to ``start_pc``
        the block is retranslated in *loop mode*: the body is wrapped
        in a real ``while`` loop (the backedge becomes ``continue``, so
        iterations pay no chain-loop dispatch) and statistics are
        batched **across** iterations — a completed iteration has
        compile-time-constant deltas, so exits flush
        ``_n * per_iteration + path`` in one shot.  The loop head
        re-checks the run limit (and, for storing bodies, the text
        version) before every iteration.
        """
        m = self._machine()
        text = m._text
        base = m._text_base
        n = len(text)
        timed = self._timed
        engine = m.dise_engine
        check_dise = bool(engine.productions)
        by_pc = engine._by_pc
        by_opclass = engine._by_opclass
        by_codeword = engine._by_codeword
        generic = engine._generic
        ips = m.instrumentation_pcs
        store_ok = (not m.pagetable.any_protected
                    and not m.hw_watch_ranges
                    and m.store_observer is None)
        text_base = m._text_base
        text_end = m._text_end

        max_block = MAX_BLOCK if timed else MAX_BLOCK_FUNCTIONAL

        index = (start_pc - base) >> 2
        if (start_pc & 3) or index < 0 or index >= n:
            return _FALLBACK

        ns = {"M": MASK64, "SB": SIGN_BIT}
        lines: list[str] = []
        emit = lines.append
        app = loads = stores = nops = 0  # stat deltas (see flush/writeback)
        brs = tks = 0  # straight mode: batched (assumed-taken) branches
        br_cum = tk_cum = 0  # loop mode: cumulative path branch counts
        app_total = 0  # app count of the longest path (the limit guard)
        pending_store = None  # mem_size of the unflushed last store
        count = 0
        visited = set()
        needs_read = needs_write = False
        terminated = False  # did the block end in an unconditional return?
        fused = False  # loop mode: backedge rewritten as ``continue``
        it_deltas = None  # loop mode: per-completed-iteration stat deltas
        tile_cut = None  # straight mode: state at the first tiling point
        ret_stack: list[int] = []  # return addresses of spliced calls

        def emit_lines(block, pad="    "):
            for line in block:
                emit(pad + line)

        def flush_exit():
            """Straight mode: flush compile-time deltas, then reset."""
            nonlocal app, loads, stores, nops, brs, tks, pending_store
            if app:
                emit(f"    stats.app_instructions += {app}")
            if loads:
                emit(f"    stats.loads += {loads}")
            if stores:
                emit(f"    stats.stores += {stores}")
            if nops:
                emit(f"    stats.nops_elided += {nops}")
            if brs:
                emit(f"    stats.branches += {brs}")
            if tks:
                emit(f"    stats.taken_branches += {tks}")
            if pending_store is not None:
                emit_lines(_last_store_lines(pending_store))
            app = loads = stores = nops = brs = tks = 0
            pending_store = None

        def writeback(indent: int, tk: int):
            """Loop mode: flush ``_n`` iterations plus the current path.

            Iteration deltas are unknown until the backedge is met, so
            they are emitted as ``§X§`` tokens and substituted once
            gathering finishes (exits before the backedge reference
            them too).
            """
            pad = " " * indent
            emit(f"{pad}stats.app_instructions += _n * §IA§ + {app}")
            emit(f"{pad}stats.loads += _n * §IL§ + {loads}")
            emit(f"{pad}stats.stores += _n * §IS§ + {stores}")
            emit(f"{pad}stats.nops_elided += _n * §IN§ + {nops}")
            emit(f"{pad}stats.branches += _n * §IB§ + {br_cum}")
            emit(f"{pad}stats.taken_branches += _n * §IT§ + {tk_cum + tk}")

        def gen_region(lo, hi, depth):
            """Lines for skipped instructions ``[lo, hi)`` (recursive).

            A nested forward branch whose join stays inside the region
            becomes a dynamically-accounted ``if/else`` (the region is
            the rare path, so per-execution stat lines are fine there).
            Mutates nothing on failure: the caller commits ``pcs`` /
            flag effects only once the whole conversion succeeds.

            Returns ``(body, n_insts, n_app, has_load, has_store,
            pcs)`` or None if any instruction cannot be emitted inline.
            """
            body = []
            pcs = []
            r_app = r_loads = r_stores = r_nops = 0
            n_insts = n_app = 0
            has_load = has_store = False
            ri = lo
            while ri < hi:
                rpc = base + (ri << 2)
                rinst = text[ri]
                rdec = rinst.decoded or rinst.decode()
                if rpc in visited or rpc in pcs:
                    return None
                if check_dise and (
                        rpc in by_pc or rdec.opclass in by_opclass
                        or generic
                        or (rinst.opcode is Opcode.CODEWORD
                            and rinst.imm in by_codeword)):
                    return None
                if ips and rpc in ips:
                    return None
                rh = rdec.handler_index
                if rh == H_BRANCH and depth < 4:
                    target = rinst.target
                    if not isinstance(target, int) or target & 3:
                        return None
                    rcond = _branch_cond(rinst.opcode,
                                         f"regs[{rinst.rs1}]")
                    tidx = (target - base) >> 2
                    if rcond is None or not ri < tidx <= hi:
                        return None
                    sub = gen_region(ri + 1, tidx, depth + 1)
                    if sub is None:
                        return None
                    sub_body, s_insts, s_app, s_load, s_store, s_pcs = sub
                    body.append("stats.branches += 1")
                    body.append(f"if {rcond}:")
                    body.append("    stats.taken_branches += 1")
                    if sub_body:
                        body.append("else:")
                        body.extend("    " + line for line in sub_body)
                    pcs.append(rpc)
                    pcs.extend(s_pcs)
                    r_app += 1
                    n_insts += 1 + s_insts
                    n_app += 1 + s_app
                    has_load |= s_load
                    has_store |= s_store
                    ri = tidx
                    continue
                if rh != H_NOP:
                    if rh not in (H_ALU_LDA, H_ALU_MOV, H_ALU_IMM,
                                  H_ALU_REG, H_LOAD, H_STORE) \
                            or not rdec.fast_regs:
                        return None
                    if rh == H_STORE and not store_ok:
                        return None
                if rh == H_NOP:
                    r_nops += 1
                else:
                    if rh == H_LOAD:
                        body += _load_lines(rinst, rdec, False)
                        has_load = True
                        r_loads += 1
                    elif rh == H_STORE:  # always eager under a guard
                        body += _store_lines(rinst, rdec, False, text_base,
                                             text_end)
                        body += _last_store_lines(rdec.mem_size)
                        has_store = True
                        r_stores += 1
                    else:
                        body.append(_alu_line(rinst, rdec, ns))
                    r_app += 1
                    n_app += 1
                pcs.append(rpc)
                n_insts += 1
                ri += 1
            if r_app:
                body.append(f"stats.app_instructions += {r_app}")
            if r_loads:
                body.append(f"stats.loads += {r_loads}")
            if r_stores:
                body.append(f"stats.stores += {r_stores}")
            if r_nops:
                body.append(f"stats.nops_elided += {r_nops}")
            return body, n_insts, n_app, has_load, has_store, pcs

        def try_if_convert(tindex, ncond):
            """Forward skip branch: keep the skipped region in-block.

            Emits the region under the *inverted* guard instead of
            exiting on the taken edge — periodic-event skips are taken
            on nearly every iteration, so exiting would unfuse every
            loop whose body contains one.  The branch is assumed taken
            in the batched taken-branch count; the (rare) fallthrough
            path corrects by -1 and bumps its own stat deltas
            dynamically, keeping compile-time batches path-independent.
            Functional mode only: the timed path needs per-instruction
            fetch/commit events in program order.

            Returns the converted instruction count, or None if the
            region cannot be emitted inline (then the caller falls
            back to the exit-on-taken translation).
            """
            nonlocal pending_store, needs_read, needs_write, app_total
            res = gen_region(index + 1, tindex, 1)
            if res is None:
                return None
            body, n_insts, n_app, has_load, has_store, pcs = res
            if pending_store is not None and has_store:
                # The region stores eagerly; materialize the older
                # batched store now so the exit flush cannot clobber
                # the region's (dynamically later) last-store context.
                emit_lines(_last_store_lines(pending_store))
                pending_store = None
            emit(f"    if {ncond}:")
            emit_lines(body, "        ")
            emit("        stats.taken_branches -= 1")
            visited.update(pcs)
            needs_read |= has_load
            needs_write |= has_store
            app_total += n_app
            return n_insts

        while True:
            pc = base + (index << 2)
            if (index < 0 or index >= n or pc in visited
                    or count >= max_block):
                break  # exit with fallthrough to pc
            if count and pc in self.blocks and not loop_mode \
                    and tile_cut is None:
                # Reached an entry that is already compiled: prefer to
                # end here and chain into it rather than re-translating
                # its body (blocks then tile the text instead of
                # overlapping, bounding total compile() cost on large
                # footprints).  But a backedge past this point must
                # still be discoverable — cold-chunk warmup routinely
                # compiles mid-loop entries before the loop head, and
                # cutting here would permanently unfuse the loop.  So
                # record the cut and keep scanning; translation rolls
                # back to it only if no backedge turns up.  Loop mode
                # ignores tiling outright: fusion outweighs overlap.
                tile_cut = (len(lines), app, loads, stores, nops, brs, tks,
                            app_total, pending_store, count, index,
                            len(ret_stack))
                # Everything gathered past the cut is discarded either
                # way — rollback drops it, and a discovered backedge
                # restarts translation in loop mode — so the scan-ahead
                # runs dry: no line formatting, just decode and
                # suitability checks (``emit`` is a shared cell, so the
                # flush/writeback/if-convert helpers go quiet too).
                emit = _DISCARD
            inst = text[index]
            d = inst.decoded
            if d is None:
                d = inst.decode()
            # A DISE production candidate or instrumentation PC changes
            # fetch/accounting semantics: end the block before it.
            if check_dise and (
                    pc in by_pc or d.opclass in by_opclass or generic
                    or (inst.opcode is Opcode.CODEWORD
                        and inst.imm in by_codeword)):
                break
            if ips and pc in ips:
                break
            h = d.handler_index

            if h == H_NOP:
                if timed:
                    emit(f"    t.fetch({pc})")
                nops += 1
                visited.add(pc)
                count += 1
                index += 1
                continue

            if h in (H_ALU_LDA, H_ALU_MOV, H_ALU_IMM, H_ALU_REG, H_LOAD,
                     H_STORE, H_BRANCH, H_JUMP_JSR, H_JUMP_RET, H_JUMP_JMP):
                if not d.fast_regs:
                    break  # zero/DISE-register operands: table path

            if h == H_STORE and not store_ok:
                break

            if h == H_BRANCH:
                target = inst.target
                if not isinstance(target, int) or target & 3:
                    break
                cond = _branch_cond(inst.opcode, f"regs[{inst.rs1}]")
                if cond is None:
                    break
                if target == start_pc and not loop_mode:
                    # A backedge to our own entry: retranslate the
                    # whole block in loop mode (the gather path is
                    # deterministic, so the second pass meets the same
                    # backedge and fuses it).
                    return self._compile(start_pc, loop_mode=True)
                if timed:
                    emit(f"    t.fetch({pc})")
                    emit("    t.commit()")
                app += 1
                app_total += 1
                if not timed:
                    tindex = (target - base) >> 2
                    span = tindex - index - 1
                    ncond = _branch_cond_neg(inst.opcode,
                                             f"regs[{inst.rs1}]")
                    if (0 <= span <= IF_MAX and tindex <= n
                            and ncond is not None
                            and count + 1 + span <= max_block):
                        done = try_if_convert(tindex, ncond)
                        if done is not None:
                            if loop_mode:
                                br_cum += 1
                                tk_cum += 1
                            else:
                                brs += 1
                                tks += 1
                            visited.add(pc)
                            count += 1 + done
                            index = tindex
                            continue
                if loop_mode:
                    br_cum += 1
                    if timed:
                        emit(f"    _c = {cond}")
                        emit(f"    t.conditional_branch({pc}, _c)")
                        emit("    if _c:")
                    else:
                        emit(f"    if {cond}:")
                    if target == start_pc and not fused:
                        fused = True
                        it_deltas = (app, loads, stores, nops, br_cum,
                                     tk_cum + 1)
                        emit("        _n += 1")
                        emit("        continue")
                    else:
                        writeback(8, tk=1)
                        emit(f"        return {target}")
                else:
                    flush_exit()
                    emit("    stats.branches += 1")
                    if timed:
                        emit(f"    _c = {cond}")
                        emit(f"    t.conditional_branch({pc}, _c)")
                        emit("    if _c:")
                    else:
                        emit(f"    if {cond}:")
                    emit("        stats.taken_branches += 1")
                    emit(f"        return {target}")
                visited.add(pc)
                count += 1
                index += 1
                continue

            if h == H_JUMP_BR:
                target = inst.target
                if not isinstance(target, int) or target & 3:
                    break
                if timed:
                    emit(f"    t.fetch({pc})")
                    emit("    t.commit()")
                    emit("    t.direct_jump()")
                app += 1
                app_total += 1
                visited.add(pc)
                count += 1
                index = (target - base) >> 2  # superblock: splice target
                continue

            if h == H_JUMP_JSR:
                target = inst.target
                if not isinstance(target, int):
                    break
                if timed:
                    emit(f"    t.fetch({pc})")
                    emit("    t.commit()")
                app += 1
                app_total += 1
                emit(f"    regs[{inst.rd}] = {pc + 4}")
                if timed:
                    emit(f"    t.call({pc}, {pc + 4})")
                if (target & 3) == 0 and 0 <= (target - base) >> 2 < n:
                    # Splice the callee like an unconditional jump,
                    # remembering the return address: the matching RET
                    # deopt-guards on it (call-return inlining), which
                    # is what lets loops whose bodies make calls fuse.
                    ret_stack.append(pc + 4)
                    visited.add(pc)
                    count += 1
                    index = (target - base) >> 2
                    continue
                if loop_mode:
                    writeback(4, tk=0)
                else:
                    flush_exit()
                emit(f"    return {target}")
                visited.add(pc)
                count += 1
                terminated = True
                break

            if h in (H_JUMP_RET, H_JUMP_JMP):
                if timed:
                    emit(f"    t.fetch({pc})")
                    emit("    t.commit()")
                app += 1
                app_total += 1
                emit(f"    _t = regs[{inst.rs1}]")
                if timed:
                    if h == H_JUMP_RET:
                        emit(f"    t.return_({pc}, _t)")
                    else:
                        emit(f"    t.indirect_jump({pc}, _t)")
                if h == H_JUMP_RET and ret_stack:
                    # Return matching a spliced call: keep translating
                    # at the recorded return address behind a deopt
                    # guard — if the return register was retargeted at
                    # run time, exit to wherever it actually points.
                    expected = ret_stack.pop()
                    if loop_mode:
                        emit(f"    if _t != {expected}:")
                        writeback(8, tk=0)
                        emit("        return _t")
                    else:
                        # Flush unconditionally (as conditional
                        # branches do), so the guard exit is bare.
                        flush_exit()
                        emit(f"    if _t != {expected}:")
                        emit("        return _t")
                    visited.add(pc)
                    count += 1
                    index = (expected - base) >> 2
                    continue
                if loop_mode:
                    writeback(4, tk=0)
                else:
                    flush_exit()
                emit("    return _t")
                visited.add(pc)
                count += 1
                terminated = True
                break

            if h in (H_ALU_LDA, H_ALU_MOV, H_ALU_IMM, H_ALU_REG, H_LOAD,
                     H_STORE):
                if timed:
                    emit(f"    t.fetch({pc})")
                    emit("    t.commit()")
                if h == H_LOAD:
                    emit_lines(_load_lines(inst, d, timed))
                    needs_read = True
                    loads += 1
                elif h == H_STORE:
                    emit_lines(_store_lines(inst, d, timed, text_base,
                                            text_end))
                    if loop_mode:
                        # Paths through the wrapped loop are not all
                        # store-dominated, so the last-store context
                        # cannot be batched per exit: record it at the
                        # store, as the table interpreter does.
                        emit_lines(_last_store_lines(d.mem_size))
                    else:
                        pending_store = d.mem_size
                    needs_write = True
                    stores += 1
                else:
                    emit("    " + _alu_line(inst, d, ns))
                app += 1
                app_total += 1
                visited.add(pc)
                count += 1
                index += 1
                continue

            # TRAP/CTRAP/HALT/CODEWORD/DISE ops, or anything unexpected:
            # boundary — the table interpreter executes it.
            break

        if tile_cut is not None:
            # No backedge justified gathering past the already-compiled
            # entry (a backedge recurses into loop mode above): roll
            # back to the tiling point and chain into that entry.
            (cut, app, loads, stores, nops, brs, tks, app_total,
             pending_store, count, index, rets) = tile_cut
            del lines[cut:]
            del ret_stack[rets:]  # calls spliced past the cut are gone
            emit = lines.append  # dry scan over: the exit still emits
            terminated = False

        if count == 0:
            return _FALLBACK

        if not terminated:
            # Fell off the end of the gathered region (boundary, block
            # cap, revisit): resume at the current fetch PC.
            if loop_mode:
                writeback(4, tk=0)
            else:
                flush_exit()
            emit(f"    return {base + (index << 2)}")

        preamble = []
        if needs_read or needs_write:
            # memory._pages / _frozen are rebound per call: restore()
            # and snapshot() replace those objects wholesale, and the
            # block must observe the live ones.
            preamble.append("    pg = memory._pages.get")
        if needs_read:
            preamble.append("    read_int = memory.read_int")
            ns["fb"] = int.from_bytes
        if needs_write:
            preamble.append("    write_int = memory.write_int")
            preamble.append("    frozen = memory._frozen")

        if loop_mode:
            assert fused and it_deltas is not None
            ia, il, is_, in_, ib, it_ = it_deltas
            body = []
            for line in lines:
                if "§" in line:
                    for token, value in (("§IA§", ia), ("§IL§", il),
                                         ("§IS§", is_), ("§IN§", in_),
                                         ("§IB§", ib), ("§IT§", it_)):
                        line = line.replace(token, str(value))
                    line = line.replace("_n * 0 + ", "")
                    if line.endswith("+= 0"):
                        continue  # delta is identically zero: drop
                    if line.endswith(" + 0"):
                        line = line[:-4]
                body.append("    " + line)
            # The loop head re-checks the run limit before every
            # iteration (stats stay unflushed inside the loop, so the
            # guard reads the entry count plus the local iteration
            # counter) and, for storing bodies, the text version — a
            # self-modifying store must stop iterating stale code.
            # ``stats.app_instructions`` is read fresh each iteration:
            # if-converted regions bump it dynamically mid-loop, so a
            # value cached at entry would understate progress.
            guard = (f"        if stats.app_instructions + _n * {ia} "
                     f"+ {app_total} > lim")
            if needs_write:
                guard += f" or m.text_version != {m.text_version}"
            head = ["    _n = 0",
                    "    while True:",
                    guard + ":"]
            for stat, delta in (("app_instructions", ia), ("loads", il),
                                ("stores", is_), ("nops_elided", in_),
                                ("branches", ib), ("taken_branches", it_)):
                if delta:
                    head.append(f"            stats.{stat} += _n * {delta}")
            head.append(f"            return {start_pc}")
            lines = head + body

        src = ("def _b(m, regs, memory, stats, t, lim):\n"
               + "\n".join(preamble + lines) + "\n")
        exec(_code(src, start_pc), ns)
        return (ns["_b"], app_total)
