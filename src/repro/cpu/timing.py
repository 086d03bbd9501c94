"""The single-pass timing model.

Consumes the in-order committed instruction stream from the machine and
produces a cycle count.  Charged effects, all configurable through
:class:`repro.config.MachineConfig`:

* **Bandwidth** — at most ``commit_width`` instructions per cycle, at
  most ``load_ports`` loads and ``store_ports`` stores per cycle.  This
  is what makes DISE-inserted instructions cost "the bandwidth cost of
  the added instructions" and what exposes the load-port contention that
  motivates the paper's Optimization II (address-match gating).
* **Memory latency** — loads probe DTLB + D$/L2; miss latency is charged
  scaled by an overlap factor standing in for out-of-order latency
  hiding.  Stores update cache state but retire through the store buffer
  without stalling commit.
* **Fetch** — each *fetched* line probes ITLB + I$; DISE-inserted
  instructions are not fetched and skip this entirely, while the binary
  rewriting backend's inserted instructions pay it — the contrast shown
  in Figure 5.
* **Flushes** — branch mispredictions, taken DISE branches, DISE
  call/return, and trap delivery flush the pipeline
  (``flush_penalty`` cycles of refill).
* **Debugger transitions** — spurious transitions flush and stall
  100,000 cycles (paper methodology); user transitions are free.
* **Multithreaded DISE calls** — in MT mode (Figure 8) the call/return
  flushes are suppressed and the function body's instructions retire on
  a spare thread context, consuming no main-thread commit slots.
"""

from __future__ import annotations

from repro.config import MachineConfig
from repro.cpu.predictor import BranchPredictor
from repro.memory.cache import AccessLevel, CacheHierarchy
from repro.memory.tlb import Tlb

_LINE_SHIFT = 6  # 64-byte lines


class TimingModel:
    """Accumulates cycles for an in-order committed instruction stream."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self.caches = CacheHierarchy(config)
        self.itlb = Tlb(config.itlb, "itlb")
        self.dtlb = Tlb(config.dtlb, "dtlb")
        self.predictor = BranchPredictor(config.branch_predictor_entries,
                                         config.btb_entries)
        pipe = config.pipeline
        mem = config.mem_timing
        self._width = pipe.commit_width
        self._load_ports = pipe.load_ports
        self._store_ports = pipe.store_ports
        self._flush_penalty = pipe.flush_penalty
        # Pre-computed stall charges (cycles) per access level.
        self._load_stall = {
            AccessLevel.L1: 0.0,
            AccessLevel.L2: (mem.l2_hit - mem.l1_hit) * (1.0 - pipe.l2_hit_overlap),
            AccessLevel.MEMORY: mem.memory * (1.0 - pipe.memory_overlap),
        }
        # Front-end miss charges: fetch stalls are mostly exposed.
        self._fetch_stall = {
            AccessLevel.L1: 0.0,
            AccessLevel.L2: (mem.l2_hit - 1) * 0.8,
            AccessLevel.MEMORY: mem.memory * 0.8,
        }
        self._itlb_penalty = config.itlb.miss_penalty
        self._dtlb_penalty = config.dtlb.miss_penalty
        self._spurious_cost = config.debug_costs.spurious_transition_cycles
        self._user_cost = config.debug_costs.user_transition_cycles
        self.multithreaded = config.multithreaded_dise_calls

        self.cycles = 0.0
        self._slots = 0
        self._loads_this_cycle = 0
        self._stores_this_cycle = 0
        # Off-thread mode: instructions retire on a spare thread context.
        # Only a multithreaded DISE call sets it.
        self.offthread = False

        self.flushes = 0
        self._last_fetch_line = -1
        self._last_fetch_page = -1
        self._last_data_page = -1

    # -- cycle bookkeeping -------------------------------------------------

    def _next_cycle(self) -> None:
        self.cycles += 1.0
        self._slots = 0
        self._loads_this_cycle = 0
        self._stores_this_cycle = 0

    def _stall(self, cycles: float) -> None:
        if cycles:
            self.cycles += cycles
            self._slots = 0
            self._loads_this_cycle = 0
            self._stores_this_cycle = 0

    # -- per-instruction events ----------------------------------------------

    def commit(self) -> None:
        """One instruction retires, consuming a commit slot (none while
        a multithreaded DISE call runs off-thread).

        Runs once per retired instruction, so the cycle advance of
        :meth:`_next_cycle` is written inline.
        """
        if self.offthread:
            return
        self._slots += 1
        if self._slots >= self._width:
            self.cycles += 1.0
            self._slots = 0
            self._loads_this_cycle = 0
            self._stores_this_cycle = 0

    def fetch(self, pc: int) -> None:
        """A conventional instruction is fetched at ``pc``.

        Charges I$/ITLB behaviour once per line/page transition; DISE-
        inserted instructions must not be passed here.
        """
        line = pc >> _LINE_SHIFT
        if line == self._last_fetch_line:
            return
        self._last_fetch_line = line
        page = pc >> 12
        if page != self._last_fetch_page:
            self._last_fetch_page = page
            if not self.itlb.access(pc):
                self._stall(self._itlb_penalty)
        level = self.caches.access_inst(pc)
        stall = self._fetch_stall[level]
        if stall:
            self._stall(stall)

    def redirect_fetch(self) -> None:
        """Fetch restarts at a new PC (taken branch/flush): the next
        fetched line always re-probes."""
        self._last_fetch_line = -1

    def load(self, addr: int) -> None:
        """A load executes: port, DTLB, and D$ hierarchy charges."""
        if self._loads_this_cycle >= self._load_ports:
            self._next_cycle()
        self._loads_this_cycle += 1
        page = addr >> 12
        if page != self._last_data_page:
            self._last_data_page = page
            if not self.dtlb.access(addr):
                self._stall(self._dtlb_penalty)
        level = self.caches.access_data(addr)
        stall = self._load_stall[level]
        if stall:
            self._stall(stall)

    def store(self, addr: int) -> None:
        """A store executes: port and cache-state charges (no stall)."""
        if self._stores_this_cycle >= self._store_ports:
            self._next_cycle()
        self._stores_this_cycle += 1
        page = addr >> 12
        if page != self._last_data_page:
            self._last_data_page = page
            if not self.dtlb.access(addr):
                self._stall(self._dtlb_penalty)
        self.caches.access_data(addr)

    # -- control events ----------------------------------------------------------

    def conditional_branch(self, pc: int, taken: bool) -> None:
        """Predict/train a conditional branch; flush on misprediction."""
        correct = self.predictor.predict_and_update(pc, taken)
        if not correct:
            self.flush()
        elif taken:
            self.redirect_fetch()

    def call(self, pc: int, return_pc: int) -> None:
        """Direct call: target known at decode; push RAS."""
        self.predictor.push_return(return_pc)
        self.redirect_fetch()

    def return_(self, pc: int, target: int) -> None:
        """A function return: RAS prediction; flush on mismatch."""
        if not self.predictor.predict_return(target):
            self.flush()
        else:
            self.redirect_fetch()

    def indirect_jump(self, pc: int, target: int) -> None:
        """An indirect jump: BTB prediction; flush on mismatch."""
        if not self.predictor.predict_indirect(pc, target):
            self.flush()
        else:
            self.redirect_fetch()

    def direct_jump(self) -> None:
        """An unconditional direct jump: fetch redirect only."""
        self.redirect_fetch()

    def dise_branch_taken(self) -> None:
        """A taken DISE branch: implemented via misprediction recovery."""
        self.flush()

    def dise_call(self) -> bool:
        """Entering a DISE-called function.  Returns True if the flush
        was suppressed by the multithreading optimization."""
        if self.multithreaded:
            self.offthread = True
            return True
        self.flush()
        return False

    def dise_return(self) -> None:
        """Leaving a DISE-called function (flushes unless multithreaded)."""
        if self.multithreaded:
            self.offthread = False
            return
        self.flush()

    def flush(self) -> None:
        """Flush the pipeline: charge the refill penalty."""
        self.flushes += 1
        self._stall(self._flush_penalty)
        self.redirect_fetch()

    def context_switch(self) -> None:
        """Charge a process switch: pipeline flush plus TLB shootdown.

        The address space changes, so both TLBs drop their translations
        (the incoming process re-misses its working set — those misses
        are real and stay counted).  Caches and the branch predictor are
        physically tagged/untagged state shared across processes and are
        left warm, as on a real core.  The fetch/data page trackers
        reset so the first access after the switch re-probes.
        """
        self.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self._last_fetch_page = -1
        self._last_data_page = -1

    # -- debugger costs --------------------------------------------------------

    def debugger_transition(self, spurious: bool) -> None:
        """Charge a debugger transition (spurious: flush + 100K cycles)."""
        if spurious:
            self.flush()
            self._stall(self._spurious_cost)
        elif self._user_cost:
            self._stall(self._user_cost)

    def reset_counters(self) -> None:
        """Zero the cycle count and event counters after a warm-up run.

        Cache, TLB, and predictor *state* is preserved — only counters
        restart, so post-warm-up measurements see steady-state miss
        rates (the paper simulates functions mid-execution with warm
        microarchitectural state).
        """
        self.cycles = 0.0
        self._slots = 0
        self._loads_this_cycle = 0
        self._stores_this_cycle = 0
        self.flushes = 0
        self.caches.reset_counters()
        self.itlb.reset_counters()
        self.dtlb.reset_counters()
        self.predictor.reset_counters()

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture cycle/port state plus all microarchitectural state.

        The blob holds mutable state only; configuration is untouched
        by :meth:`restore`.  Tag arrays share their immutable sets with
        the blob (see :mod:`repro.memory.cache`).
        """
        return (self.cycles, self._slots, self._loads_this_cycle,
                self._stores_this_cycle, self.offthread, self.flushes,
                self._last_fetch_line,
                self._last_fetch_page, self._last_data_page,
                self.caches.snapshot(), self.itlb.snapshot(),
                self.dtlb.snapshot(), self.predictor.snapshot())

    def restore(self, blob: tuple) -> None:
        """Reset the timing model to a previous :meth:`snapshot`."""
        (self.cycles, self._slots, self._loads_this_cycle,
         self._stores_this_cycle, self.offthread, self.flushes,
         self._last_fetch_line,
         self._last_fetch_page, self._last_data_page,
         caches, itlb, dtlb, predictor) = blob
        self.caches.restore(caches)
        self.itlb.restore(itlb)
        self.dtlb.restore(dtlb)
        self.predictor.restore(predictor)

    # -- results -----------------------------------------------------------------

    @property
    def total_cycles(self) -> int:
        # Account for a partially filled final cycle.
        return int(self.cycles) + (1 if self._slots else 0)
