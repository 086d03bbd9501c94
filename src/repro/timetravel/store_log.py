"""The recorder-private shadow store log used by timeline queries.

During a bounded window re-execution the engine installs a
``Machine.store_observer`` that appends one :class:`StoreEvent` per
committed store.  The observer fires *before* the memory write (the
same hook the fuzz oracle's shadow recorder uses), so each event
carries both the incoming value and the value it overwrites — which is
what makes silent stores (same-value writes) first-class events instead
of invisible ones; a pure value-diff over checkpoints would miss them.

Timing invariants the engine relies on (see
:meth:`repro.cpu.machine.Machine._h_store` and the interpreter
loops):

* ``stats.app_instructions`` is incremented before the instruction's
  handler runs, so at observer time the count *includes* the store
  (for a store inside a DISE expansion, the count of its triggering
  application instruction).  Re-landing on an event is therefore
  ``restore(checkpoint with app < event.app); run(event.app)``.
* ``machine.pc`` at observer time is the storing instruction's PC
  (the handler advances afterwards), so :attr:`StoreEvent.pc` is the
  store's own PC — after landing, the live machine has already
  advanced past it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class StoreEvent:
    """One committed store, as seen by the shadow recorder."""

    #: Application-instruction count *including* this store's
    #: instruction (its replay-landing ordinal).
    app_instructions: int
    #: PC of the storing instruction (for a DISE-expansion store, the
    #: PC the machine reports while executing the expansion member).
    pc: int
    address: int
    size: int
    #: Value written.
    value: int
    #: Value the store overwrote (read before the write).
    old_value: int
    #: True when the store executed inside a DISE expansion.
    dise: bool = False

    @property
    def end(self) -> int:
        """First address past the stored bytes."""
        return self.address + self.size

    def overlaps(self, address: int, size: int) -> bool:
        """Does this store touch any byte of [address, address+size)?"""
        return self.address < address + size and address < self.end


class StoreLogRecorder:
    """Callable store observer that appends to a private event list.

    ``machine.store_observer = recorder`` during a window replay; the
    recorded events never touch machine state, so recording is
    invisible to the replayed program.
    """

    def __init__(self, machine):
        self._machine = machine
        self.events: list[StoreEvent] = []

    def __call__(self, address: int, size: int, value: int,
                 old_value: int) -> None:
        machine = self._machine
        self.events.append(StoreEvent(
            app_instructions=machine.stats.app_instructions,
            pc=machine.pc,
            address=address,
            size=size,
            value=value,
            old_value=old_value,
            dise=machine._expansion is not None,
        ))


class PendingStoreReader:
    """A memory view with one not-yet-committed store overlaid.

    The store observer fires *before* ``memory.write_int``, but
    transition detection needs the expression's value *after* the
    store.  This reader answers ``read_int``/``read_bytes`` from the
    underlying memory with the pending store's bytes patched in, so an
    expression can be evaluated "as of" the store without perturbing
    the machine.
    """

    def __init__(self, memory, address: int, size: int, value: int):
        self._memory = memory
        self._address = address
        self._size = size
        self._bytes = int(value).to_bytes(size, "little")

    def read_bytes(self, address: int, length: int) -> bytes:
        """Memory bytes with the pending store's bytes patched in."""
        data = self._memory.read_bytes(address, length)
        lo = max(address, self._address)
        hi = min(address + length, self._address + self._size)
        if lo >= hi:
            return data
        patched = bytearray(data)
        patched[lo - address:hi - address] = \
            self._bytes[lo - self._address:hi - self._address]
        return bytes(patched)

    def read_int(self, address: int, size: int) -> int:
        """Little-endian integer read through :meth:`read_bytes`."""
        return int.from_bytes(self.read_bytes(address, size), "little")
