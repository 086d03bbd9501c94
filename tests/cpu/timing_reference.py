"""A frozen reference of the timing model's event semantics.

The straightforward form of :class:`repro.cpu.timing.TimingModel`, its
:class:`~repro.cpu.predictor.BranchPredictor` and the tag arrays of
:mod:`repro.memory.cache` and :mod:`repro.memory.tlb`: stall charges
looked up in dicts keyed by access level, the port and cycle advance
through helpers, the predictor trained through a helper.  The live
code writes these events for speed; ``test_timing_reference.py`` feeds
both the same event stream and requires identical results.  Do not
optimize this file: it is the reference.
"""

from __future__ import annotations

from enum import IntEnum

_LINE_SHIFT = 6
_COUNTER_MAX = 3
_TAKEN_THRESHOLD = 2


class Level(IntEnum):
    """Where a reference memory access was satisfied."""

    L1 = 0
    L2 = 1
    MEMORY = 2


class RefCache:
    """Tag-only set-associative cache, LRU, MRU first per set."""

    def __init__(self, config, name: str, block_bytes: int):
        num_sets = config.num_sets
        self.name = name
        self._sets = [()] * num_sets
        self._set_mask = num_sets - 1
        self._line_shift = block_bytes.bit_length() - 1
        self._keep = config.associativity - 1
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        line = address >> self._line_shift
        index = line & self._set_mask
        ways = self._sets[index]
        if ways and ways[0] == line:
            self.hits += 1
            return True
        if line in ways:
            self.hits += 1
            way = ways.index(line)
            self._sets[index] = (line,) + ways[:way] + ways[way + 1:]
            return True
        self.misses += 1
        self._sets[index] = (line,) + ways[:self._keep]
        return False

    def flush(self) -> None:
        self._sets = [()] * len(self._sets)

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple:
        return (tuple(self._sets), self.hits, self.misses)

    def restore(self, blob: tuple) -> None:
        sets, self.hits, self.misses = blob
        self._sets = list(sets)


class RefHierarchy:
    """Split L1 I$/D$ over a shared L2."""

    def __init__(self, config):
        self.l1i = RefCache(config.icache, "l1i", config.icache.line_bytes)
        self.l1d = RefCache(config.dcache, "l1d", config.dcache.line_bytes)
        self.l2 = RefCache(config.l2, "l2", config.l2.line_bytes)

    def access_inst(self, address: int) -> Level:
        if self.l1i.access(address):
            return Level.L1
        if self.l2.access(address):
            return Level.L2
        return Level.MEMORY

    def access_data(self, address: int) -> Level:
        if self.l1d.access(address):
            return Level.L1
        if self.l2.access(address):
            return Level.L2
        return Level.MEMORY

    def reset_counters(self) -> None:
        for unit in (self.l1i, self.l1d, self.l2):
            unit.reset_counters()

    def snapshot(self) -> tuple:
        return (self.l1i.snapshot(), self.l1d.snapshot(), self.l2.snapshot())

    def restore(self, blob: tuple) -> None:
        self.l1i.restore(blob[0])
        self.l1d.restore(blob[1])
        self.l2.restore(blob[2])


def _train(counter: int, taken: bool) -> int:
    if taken:
        return counter + 1 if counter < _COUNTER_MAX else counter
    return counter - 1 if counter > 0 else counter


class RefPredictor:
    """Hybrid gshare/bimodal predictor with chooser, BTB and RAS."""

    def __init__(self, entries: int, btb_entries: int, ras_depth: int = 16):
        self._mask = entries - 1
        self._gshare = bytearray([2] * entries)
        self._bimodal = bytearray([2] * entries)
        self._chooser = bytearray([2] * entries)
        self._history = 0
        self._btb: dict[int, int] = {}
        self._btb_mask = btb_entries - 1
        self._ras: list[int] = []
        self._ras_depth = ras_depth
        self.lookups = 0
        self.mispredictions = 0

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        self.lookups += 1
        index = (pc >> 2) & self._mask
        gindex = ((pc >> 2) ^ self._history) & self._mask
        use_gshare = self._chooser[index] >= _TAKEN_THRESHOLD
        g_pred = self._gshare[gindex] >= _TAKEN_THRESHOLD
        b_pred = self._bimodal[index] >= _TAKEN_THRESHOLD
        prediction = g_pred if use_gshare else b_pred
        correct = prediction == taken
        self._gshare[gindex] = _train(self._gshare[gindex], taken)
        self._bimodal[index] = _train(self._bimodal[index], taken)
        if g_pred != b_pred:
            self._chooser[index] = _train(self._chooser[index],
                                          g_pred == taken)
        self._history = ((self._history << 1) | taken) & self._mask
        if not correct:
            self.mispredictions += 1
        return correct

    def push_return(self, return_pc: int) -> None:
        self._ras.append(return_pc)
        if len(self._ras) > self._ras_depth:
            self._ras.pop(0)

    def predict_return(self, actual_target: int) -> bool:
        self.lookups += 1
        predicted = self._ras.pop() if self._ras else None
        correct = predicted == actual_target
        if not correct:
            self.mispredictions += 1
        return correct

    def predict_indirect(self, pc: int, actual_target: int) -> bool:
        self.lookups += 1
        index = (pc >> 2) & self._btb_mask
        correct = self._btb.get(index) == actual_target
        self._btb[index] = actual_target
        if not correct:
            self.mispredictions += 1
        return correct

    def reset_counters(self) -> None:
        self.lookups = 0
        self.mispredictions = 0

    def snapshot(self) -> tuple:
        return (bytes(self._gshare), bytes(self._bimodal),
                bytes(self._chooser), self._history, dict(self._btb),
                list(self._ras), self.lookups, self.mispredictions)

    def restore(self, blob: tuple) -> None:
        (gshare, bimodal, chooser, self._history, btb, ras,
         self.lookups, self.mispredictions) = blob
        self._gshare = bytearray(gshare)
        self._bimodal = bytearray(bimodal)
        self._chooser = bytearray(chooser)
        self._btb = dict(btb)
        self._ras = list(ras)


class RefTimingModel:
    """Cycle accounting for an in-order committed event stream."""

    def __init__(self, config):
        self.caches = RefHierarchy(config)
        self.itlb = RefCache(config.itlb, "itlb", config.itlb.page_bytes)
        self.dtlb = RefCache(config.dtlb, "dtlb", config.dtlb.page_bytes)
        self.predictor = RefPredictor(config.branch_predictor_entries,
                                      config.btb_entries)
        pipe = config.pipeline
        mem = config.mem_timing
        self._width = pipe.commit_width
        self._load_ports = pipe.load_ports
        self._store_ports = pipe.store_ports
        self._flush_penalty = pipe.flush_penalty
        self._load_stall = {
            Level.L1: 0.0,
            Level.L2: (mem.l2_hit - mem.l1_hit) * (1.0 - pipe.l2_hit_overlap),
            Level.MEMORY: mem.memory * (1.0 - pipe.memory_overlap),
        }
        self._fetch_stall = {
            Level.L1: 0.0,
            Level.L2: (mem.l2_hit - 1) * 0.8,
            Level.MEMORY: mem.memory * 0.8,
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
        self.offthread = False
        self.flushes = 0
        self._last_fetch_line = -1
        self._last_fetch_page = -1
        self._last_data_page = -1

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

    def commit(self) -> None:
        if self.offthread:
            return
        self._slots += 1
        if self._slots >= self._width:
            self._next_cycle()

    def fetch(self, pc: int) -> None:
        line = pc >> _LINE_SHIFT
        if line == self._last_fetch_line:
            return
        self._last_fetch_line = line
        page = pc >> 12
        if page != self._last_fetch_page:
            self._last_fetch_page = page
            if not self.itlb.access(pc):
                self._stall(self._itlb_penalty)
        self._stall(self._fetch_stall[self.caches.access_inst(pc)])

    def redirect_fetch(self) -> None:
        self._last_fetch_line = -1

    def load(self, addr: int) -> None:
        if self._loads_this_cycle >= self._load_ports:
            self._next_cycle()
        self._loads_this_cycle += 1
        page = addr >> 12
        if page != self._last_data_page:
            self._last_data_page = page
            if not self.dtlb.access(addr):
                self._stall(self._dtlb_penalty)
        self._stall(self._load_stall[self.caches.access_data(addr)])

    def store(self, addr: int) -> None:
        if self._stores_this_cycle >= self._store_ports:
            self._next_cycle()
        self._stores_this_cycle += 1
        page = addr >> 12
        if page != self._last_data_page:
            self._last_data_page = page
            if not self.dtlb.access(addr):
                self._stall(self._dtlb_penalty)
        self.caches.access_data(addr)

    def conditional_branch(self, pc: int, taken: bool) -> None:
        if not self.predictor.predict_and_update(pc, taken):
            self.flush()
        elif taken:
            self.redirect_fetch()

    def call(self, pc: int, return_pc: int) -> None:
        self.predictor.push_return(return_pc)
        self.redirect_fetch()

    def return_(self, pc: int, target: int) -> None:
        if not self.predictor.predict_return(target):
            self.flush()
        else:
            self.redirect_fetch()

    def indirect_jump(self, pc: int, target: int) -> None:
        if not self.predictor.predict_indirect(pc, target):
            self.flush()
        else:
            self.redirect_fetch()

    def direct_jump(self) -> None:
        self.redirect_fetch()

    def dise_branch_taken(self) -> None:
        self.flush()

    def dise_call(self) -> bool:
        if self.multithreaded:
            self.offthread = True
            return True
        self.flush()
        return False

    def dise_return(self) -> None:
        if self.multithreaded:
            self.offthread = False
            return
        self.flush()

    def flush(self) -> None:
        self.flushes += 1
        self._stall(self._flush_penalty)
        self.redirect_fetch()

    def context_switch(self) -> None:
        self.flush()
        self.itlb.flush()
        self.dtlb.flush()
        self._last_fetch_page = -1
        self._last_data_page = -1

    def debugger_transition(self, spurious: bool) -> None:
        if spurious:
            self.flush()
            self._stall(self._spurious_cost)
        elif self._user_cost:
            self._stall(self._user_cost)

    def reset_counters(self) -> None:
        self.cycles = 0.0
        self._slots = 0
        self._loads_this_cycle = 0
        self._stores_this_cycle = 0
        self.flushes = 0
        self.caches.reset_counters()
        self.itlb.reset_counters()
        self.dtlb.reset_counters()
        self.predictor.reset_counters()

    def snapshot(self) -> tuple:
        return (self.cycles, self._slots, self._loads_this_cycle,
                self._stores_this_cycle, self.offthread, self.flushes,
                self._last_fetch_line, self._last_fetch_page,
                self._last_data_page, self.caches.snapshot(),
                self.itlb.snapshot(), self.dtlb.snapshot(),
                self.predictor.snapshot())

    def restore(self, blob: tuple) -> None:
        (self.cycles, self._slots, self._loads_this_cycle,
         self._stores_this_cycle, self.offthread, self.flushes,
         self._last_fetch_line, self._last_fetch_page,
         self._last_data_page, caches, itlb, dtlb, predictor) = blob
        self.caches.restore(caches)
        self.itlb.restore(itlb)
        self.dtlb.restore(dtlb)
        self.predictor.restore(predictor)

    @property
    def total_cycles(self) -> int:
        return int(self.cycles) + (1 if self._slots else 0)
